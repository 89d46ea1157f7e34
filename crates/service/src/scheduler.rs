//! The budget-sliced session scheduler.
//!
//! N worker threads share the session population through per-worker
//! FIFO run queues plus a global injector. A worker repeatedly:
//!
//! 1. admits a new session from the injector (front), falling back to
//!    its own queue (front), then to **stealing** from the back of
//!    another worker's queue;
//! 2. runs the session for one quantum —
//!    `run_for(Budget::Retired(retired + quantum))`, the
//!    backend-independent way to cut a run at an instruction boundary;
//! 3. re-queues the session (its own queue) or finalizes it (halt,
//!    fault, budget exhaustion, cancellation).
//!
//! Admission comes first, so a new session waits for at most one
//! quantum of each running session, not for a running session to
//! finish. The sessions on one worker's queue take turns one quantum
//! at a time; they make progress only while the injector is empty, so
//! a steady stream of submissions delays them.
//!
//! A session that changes workers **migrates by checkpoint transfer**:
//! the new worker snapshots the core, rebuilds a fresh one from the
//! shared program image, and restores — the exact invariant the
//! `slice-migrate` fuzz oracle checks differentially (a sliced,
//! migrated run is bit-identical to a straight-line run). A session's
//! energy accountant lives in an `Arc` owned by the session's builder,
//! so it survives rebuilds and keeps accumulating across migrations.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use art9_sim::observers::EnergyAccounting;
use art9_sim::{Budget, Core, SimBuilder, SimError};
use workloads::batch::ExecConfig;
use workloads::{Workload, WorkloadError};

use crate::job::PreparedJob;
use crate::session::{SessionHandle, SessionResult};

/// Scheduler tuning.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads (defaults to available parallelism minus one,
    /// at least one — leaving a core for the accept/connection side).
    pub workers: usize,
    /// Slice length in retired instructions.
    pub quantum: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        SchedulerConfig {
            workers: parallelism.saturating_sub(1).max(1),
            quantum: 1_000,
        }
    }
}

/// One schedulable session: the shared handle plus the worker-owned
/// execution state. Exactly one queue (or worker) owns a `Runnable` at
/// any time; everything observable lives in the [`SessionHandle`].
struct Runnable {
    handle: Arc<SessionHandle>,
    builder: SimBuilder,
    core: Box<dyn Core>,
    workload: Option<Workload>,
    config: ExecConfig,
    max_retired: u64,
    energy: Option<Arc<Mutex<EnergyAccounting>>>,
    last_worker: Option<usize>,
}

impl std::fmt::Debug for Runnable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runnable")
            .field("id", &self.handle.id)
            .field("last_worker", &self.last_worker)
            .finish_non_exhaustive()
    }
}

/// Power-of-two slice-latency histogram (bucket `i` holds slices that
/// took `< 2^i` ns) — lock-free to record, cheap to quantile.
#[derive(Debug)]
struct LatencyHist {
    buckets: [AtomicU64; 64],
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl LatencyHist {
    fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = (64 - ns.leading_zeros()).min(63) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper bound (µs) of the bucket containing quantile `q`; 0.0
    /// when nothing was recorded.
    fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return (1u64 << idx) as f64 / 1e3;
            }
        }
        f64::INFINITY
    }
}

/// A point-in-time copy of the scheduler's aggregate counters.
#[derive(Debug, Clone, Copy)]
pub struct MetricsSnapshot {
    /// Worker threads.
    pub workers: usize,
    /// Slice quantum (retired instructions).
    pub quantum: u64,
    /// Slices executed.
    pub slices: u64,
    /// Sessions taken from another worker's queue.
    pub steals: u64,
    /// Checkpoint migrations between workers.
    pub migrations: u64,
    /// Median slice execution latency (µs, histogram upper bound).
    pub p50_slice_us: f64,
    /// 99th-percentile slice execution latency (µs).
    pub p99_slice_us: f64,
}

#[derive(Debug)]
struct Shared {
    queues: Vec<Mutex<VecDeque<Runnable>>>,
    injector: Mutex<VecDeque<Runnable>>,
    /// Parking lot for idle workers (paired with `alarm`).
    park: Mutex<()>,
    alarm: Condvar,
    stop: AtomicBool,
    quantum: u64,
    next_id: AtomicU64,
    sessions: Mutex<Vec<Arc<SessionHandle>>>,
    slices: AtomicU64,
    steals: AtomicU64,
    migrations: AtomicU64,
    latency: LatencyHist,
}

/// The worker pool (see the [module docs](self)).
#[derive(Debug)]
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    config: SchedulerConfig,
}

impl Scheduler {
    /// Spawns the worker pool.
    pub fn new(config: SchedulerConfig) -> Scheduler {
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            park: Mutex::new(()),
            alarm: Condvar::new(),
            stop: AtomicBool::new(false),
            quantum: config.quantum.max(1),
            next_id: AtomicU64::new(1),
            sessions: Mutex::new(Vec::new()),
            slices: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            migrations: AtomicU64::new(0),
            latency: LatencyHist::default(),
        });
        let handles = (0..workers)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("art9-worker-{me}"))
                    .spawn(move || worker_loop(&shared, me))
                    .expect("spawn worker")
            })
            .collect();
        Scheduler {
            shared,
            workers: Mutex::new(handles),
            config,
        }
    }

    /// Admits a prepared job: builds its core over the shared image,
    /// registers a [`SessionHandle`] and enqueues the session on the
    /// global injector. Returns immediately; the handle observes
    /// progress.
    pub fn submit(&self, job: PreparedJob) -> Arc<SessionHandle> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let mut builder = SimBuilder::new(&job.image)
            .backend(job.spec.config.backend)
            .forwarding(job.spec.config.forwarding);
        let energy = job
            .spec
            .energy
            .then(|| Arc::new(Mutex::new(EnergyAccounting::new())));
        if let Some(e) = &energy {
            builder = builder.observer(e.clone());
        }
        let core = builder.build();
        let handle = Arc::new(SessionHandle::new(id, job.name, job.spec.events));
        let runnable = Runnable {
            handle: Arc::clone(&handle),
            builder,
            core,
            workload: job.workload,
            config: job.spec.config,
            max_retired: job.spec.max_retired.max(1),
            energy,
            last_worker: None,
        };
        self.shared
            .sessions
            .lock()
            .expect("session registry lock")
            .push(Arc::clone(&handle));
        self.shared
            .injector
            .lock()
            .expect("injector lock")
            .push_back(runnable);
        self.shared.alarm.notify_all();
        handle
    }

    /// The handle for session `id`.
    pub fn session(&self, id: u64) -> Option<Arc<SessionHandle>> {
        self.shared
            .sessions
            .lock()
            .expect("session registry lock")
            .iter()
            .find(|h| h.id == id)
            .cloned()
    }

    /// Every session ever admitted, in submission order.
    pub fn sessions(&self) -> Vec<Arc<SessionHandle>> {
        self.shared
            .sessions
            .lock()
            .expect("session registry lock")
            .clone()
    }

    /// Aggregate counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            workers: self.config.workers.max(1),
            quantum: self.shared.quantum,
            slices: self.shared.slices.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            migrations: self.shared.migrations.load(Ordering::Relaxed),
            p50_slice_us: self.shared.latency.quantile_us(0.50),
            p99_slice_us: self.shared.latency.quantile_us(0.99),
        }
    }

    /// Stops the workers (sessions still queued stay unfinished) and
    /// joins them. Idempotent; callable from any thread.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.alarm.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("worker registry lock")
            .drain(..)
            .collect();
        for worker in handles {
            let _ = worker.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    while !shared.stop.load(Ordering::SeqCst) {
        let job = pop_work(shared, me);
        match job {
            Some(runnable) => run_slice(shared, me, runnable),
            None => {
                // Nothing runnable anywhere: park until a submit or a
                // re-queue, with a timeout bounding missed-wakeup
                // staleness (and re-opening steal opportunities).
                let guard = shared.park.lock().expect("park lock");
                let _ = shared
                    .alarm
                    .wait_timeout(guard, Duration::from_millis(2))
                    .expect("park lock");
            }
        }
    }
}

/// Injector (front) → own queue (front) → steal (back of another
/// worker's queue, scanning from `me + 1`).
fn pop_work(shared: &Shared, me: usize) -> Option<Runnable> {
    if let Some(job) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(job);
    }
    if let Some(job) = shared.queues[me].lock().expect("queue lock").pop_front() {
        return Some(job);
    }
    let n = shared.queues.len();
    for offset in 1..n {
        let victim = (me + offset) % n;
        if let Some(job) = shared.queues[victim].lock().expect("queue lock").pop_back() {
            shared.steals.fetch_add(1, Ordering::Relaxed);
            return Some(job);
        }
    }
    None
}

/// Runs one quantum of `runnable` on worker `me` and re-queues or
/// finalizes it.
fn run_slice(shared: &Shared, me: usize, mut runnable: Runnable) {
    let handle = Arc::clone(&runnable.handle);
    if handle.cancel_requested() {
        handle.finish_cancelled();
        return;
    }

    // Arriving from a different worker (a steal, or first pickup from
    // the injector after running elsewhere): migrate by checkpoint
    // transfer — snapshot, rebuild from the shared image, restore.
    if runnable.last_worker.is_some_and(|last| last != me) {
        let checkpoint = runnable.core.snapshot();
        let mut fresh = runnable.builder.build();
        if let Err(e) = fresh.restore(&checkpoint) {
            handle.finish_failed(sim_error(&runnable, e));
            return;
        }
        runnable.core = fresh;
        handle.record_migration();
        shared.migrations.fetch_add(1, Ordering::Relaxed);
    }
    runnable.last_worker = Some(me);
    handle.mark_running(me);

    let target = runnable.core.retired() + shared.quantum;
    let start = Instant::now();
    let summary = runnable.core.run_for(Budget::Retired(target));
    shared.latency.record(start.elapsed());
    shared.slices.fetch_add(1, Ordering::Relaxed);

    let summary = match summary {
        Ok(s) => s,
        Err(e) => {
            handle.finish_failed(sim_error(&runnable, e));
            return;
        }
    };

    match summary.halt {
        Some(halt) => {
            // Verify workload jobs against their golden reference;
            // inline programs have none.
            if let Some(w) = &runnable.workload {
                if let Err(e) = w.verify_art9(runnable.core.state()) {
                    handle.finish_failed(e);
                    return;
                }
            }
            let state = runnable.core.state();
            let mut trf = [0i64; 9];
            for (slot, word) in trf.iter_mut().zip(state.trf.iter()) {
                *slot = word.to_i64();
            }
            handle.finish_done(SessionResult {
                halt,
                retired: summary.retired,
                trf,
                mix: runnable.core.instruction_mix(),
                flips: flips(&runnable),
                verified: runnable.workload.is_some(),
            });
        }
        None if summary.retired >= runnable.max_retired => {
            let limit = runnable.max_retired;
            handle.finish_failed(sim_error(&runnable, SimError::Timeout { limit }));
        }
        None => {
            handle.record_slice(summary.retired, me, flips(&runnable));
            shared.queues[me]
                .lock()
                .expect("queue lock")
                .push_back(runnable);
            shared.alarm.notify_one();
        }
    }
}

/// Cumulative trit-flip count, when the session measures energy.
fn flips(runnable: &Runnable) -> Option<u64> {
    runnable.energy.as_ref().map(|e| {
        let totals = e.lock().expect("energy lock").totals();
        totals.regfile + totals.tdm + totals.fetch + totals.alu
    })
}

fn sim_error(runnable: &Runnable, source: SimError) -> WorkloadError {
    WorkloadError::Sim {
        workload: runnable.handle.name.clone(),
        config: runnable.config.name(),
        source,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ImageCache;
    use crate::job::JobSpec;
    use crate::session::SessionStatus;
    use std::collections::HashMap;

    fn submit_inline(
        scheduler: &Scheduler,
        cache: &ImageCache,
        assembly: &str,
        extra: &[(&str, &str)],
    ) -> Arc<SessionHandle> {
        let mut args: HashMap<String, String> = extra
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        args.insert("program".into(), "inline".into());
        let spec = JobSpec::from_args(&args, Some(assembly.to_string())).unwrap();
        scheduler.submit(spec.prepare(cache).unwrap())
    }

    /// ~`2 + outer * (5 + 4 * inner)` retired instructions of busy
    /// looping (same idiom as the loadtest spin program).
    fn spin(outer: u32, inner: u32) -> String {
        format!(
            "LI t3, {outer}\nouter:\nLI t4, {inner}\ninner:\nADDI t4, -1\nMV t7, t4\n\
             COMP t7, t0\nBEQ t7, +, inner\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\n\
             BEQ t7, +, outer\nJAL t0, 0\n"
        )
    }

    #[test]
    fn sessions_complete_with_exact_retirement() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 3,
            quantum: 50,
        });
        let cache = ImageCache::new();
        let expected = 2 + 20 * (5 + 4 * 10);
        let handles: Vec<_> = (0..16)
            .map(|_| submit_inline(&scheduler, &cache, &spin(20, 10), &[]))
            .collect();
        for h in &handles {
            assert_eq!(h.wait(), SessionStatus::Done);
            let result = h.result().unwrap();
            assert_eq!(result.retired, expected);
            assert_eq!(result.trf[3], 0, "t3 counted down to zero");
            assert!(!result.verified, "inline jobs have no golden reference");
        }
        // 16 identical programs → one shared image.
        assert_eq!(cache.len(), 1);
        let m = scheduler.metrics();
        assert!(m.slices >= 16, "sliced execution: {m:?}");
        scheduler.shutdown();
    }

    #[test]
    fn faulting_and_timed_out_jobs_fail_typed() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 1,
            quantum: 10,
        });
        let cache = ImageCache::new();
        // LOAD from a negative address faults.
        let fault = submit_inline(&scheduler, &cache, "LI t3, -100\nLOAD t4, t3, 0\n", &[]);
        match fault.wait() {
            SessionStatus::Failed(WorkloadError::Sim { source, .. }) => {
                assert!(matches!(source, SimError::MemoryFault { .. }), "{source}");
            }
            other => panic!("expected memory fault, got {other:?}"),
        }
        // A long spin with a tiny budget times out.
        let slow = submit_inline(
            &scheduler,
            &cache,
            &spin(100, 100),
            &[("max-retired", "200")],
        );
        match slow.wait() {
            SessionStatus::Failed(WorkloadError::Sim { source, .. }) => {
                assert_eq!(source, SimError::Timeout { limit: 200 });
            }
            other => panic!("expected timeout, got {other:?}"),
        }
        scheduler.shutdown();
    }

    #[test]
    fn workload_jobs_verify_and_energy_accumulates_across_slices() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 2,
            quantum: 100,
        });
        let cache = ImageCache::new();
        let args: HashMap<String, String> = [
            ("workload", "dot-product"),
            ("n", "8"),
            ("config", "art9-threaded"),
            ("energy", "1"),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
        let spec = JobSpec::from_args(&args, None).unwrap();
        let handle = scheduler.submit(spec.prepare(&cache).unwrap());
        assert_eq!(handle.wait(), SessionStatus::Done);
        let result = handle.result().unwrap();
        assert!(result.verified);
        assert!(
            result.flips.unwrap() > 0,
            "energy observer survived slicing"
        );
        assert_eq!(result.mix.values().sum::<u64>(), result.retired);
        scheduler.shutdown();
    }

    #[test]
    fn a_new_session_waits_one_quantum_not_a_whole_running_session() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 1,
            quantum: 1_000,
        });
        let cache = ImageCache::new();
        let prepare = |assembly: String| {
            let mut args = HashMap::new();
            args.insert("program".to_string(), "inline".to_string());
            let spec = JobSpec::from_args(&args, Some(assembly)).unwrap();
            spec.prepare(&cache).unwrap()
        };
        let long = crate::loadtest::spin_program(17, 121, 121, 0);
        let (long, short) = (prepare(long), prepare(spin(6, 9)));
        let long = scheduler.submit(long);
        let short = scheduler.submit(short);
        assert_eq!(short.wait(), SessionStatus::Done);
        assert_eq!(short.result().unwrap().retired, 248);
        assert!(
            !long.view().status.is_terminal(),
            "the 1M-instruction session finished before the 248-instruction one"
        );
        assert_eq!(long.wait(), SessionStatus::Done);
        let retired = crate::loadtest::spin_retired(17, 121, 121);
        assert_eq!(long.result().unwrap().retired, retired);
        scheduler.shutdown();
    }

    #[test]
    fn cancellation_stops_a_session_at_a_slice_boundary() {
        let scheduler = Scheduler::new(SchedulerConfig {
            workers: 1,
            quantum: 10,
        });
        let cache = ImageCache::new();
        // An endless loop: only cancellation (or the retired budget)
        // can stop it.
        let handle = submit_inline(
            &scheduler,
            &cache,
            "loop:\nADDI t3, 1\nADDI t3, -1\nJAL t4, loop\n",
            &[],
        );
        handle.request_cancel();
        assert_eq!(handle.wait(), SessionStatus::Cancelled);
        scheduler.shutdown();
    }

    #[test]
    fn latency_histogram_quantiles_are_sane() {
        let hist = LatencyHist::default();
        assert_eq!(hist.quantile_us(0.99), 0.0);
        for _ in 0..99 {
            hist.record(Duration::from_micros(10));
        }
        hist.record(Duration::from_millis(10));
        // p50 lands in the ~16 µs bucket, p99+ sees the outlier.
        assert!(hist.quantile_us(0.5) < 100.0);
        assert!(hist.quantile_us(0.995) > 1_000.0);
    }
}
