//! Multi-tenant load test: floods a service with inline sessions and
//! checks completion, *fairness* and slice-latency bounds.
//!
//! Every session runs a nested spin loop with a statically known
//! retirement count, so "completed correctly" is an exact assertion,
//! not a heuristic. Fairness is sampled mid-flight from `LIST`: with
//! budget-sliced round-robin scheduling, no live session should be
//! starved while a neighbour races ahead, so the max/min progress
//! ratio across in-flight sessions stays bounded.

use std::io;
use std::time::Instant;

use crate::client::Client;
use crate::scheduler::SchedulerConfig;
use crate::server::{Server, ServiceConfig};

/// Load-test parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent sessions to submit.
    pub sessions: usize,
    /// Approximate retired instructions per session (the spin program
    /// is sized to the nearest achievable count at or above this).
    pub target_retired: u64,
    /// Scheduler quantum (retired instructions per slice).
    pub quantum: u64,
    /// Worker threads (`None` = scheduler default).
    pub workers: Option<usize>,
    /// Client connections to spread submissions over.
    pub connections: usize,
    /// Maximum allowed max/min progress ratio across live sessions in
    /// any mid-flight fairness sample.
    pub fairness_ratio: f64,
    /// Maximum allowed p99 slice latency, in milliseconds.
    pub p99_slice_ms: f64,
    /// Distinct program images to rotate across sessions (exercises
    /// the predecode cache; must be ≥ 1).
    pub distinct_images: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 256,
            target_retired: 100_000,
            quantum: 1_000,
            workers: None,
            connections: 8,
            fairness_ratio: 64.0,
            p99_slice_ms: 250.0,
            distinct_images: 4,
        }
    }
}

/// What the load test observed.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Sessions submitted (and expected to complete).
    pub sessions: usize,
    /// Worker threads the service ran.
    pub workers: u64,
    /// Sessions completed per wall-clock second.
    pub sessions_per_second: f64,
    /// Aggregate retired instructions per second per worker.
    pub per_worker_ips: f64,
    /// p50 slice latency in microseconds.
    pub p50_slice_us: f64,
    /// p99 slice latency in microseconds.
    pub p99_slice_us: f64,
    /// Total migrations across all sessions.
    pub migrations: u64,
    /// Total steals across all workers.
    pub steals: u64,
    /// Distinct cached images at the end (should equal
    /// `distinct_images`).
    pub cache_images: u64,
    /// Worst max/min fairness ratio observed in mid-flight samples
    /// (0.0 when no usable sample was taken — noted, not a violation).
    pub worst_fairness_ratio: f64,
    /// Mid-flight fairness samples actually taken.
    pub fairness_samples: usize,
    /// Human-readable acceptance failures; empty means pass.
    pub violations: Vec<String>,
}

impl LoadReport {
    /// `true` when every acceptance check passed.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The per-session spin program: three nested loops, retiring exactly
/// [`spin_retired`]`(mega, outer, inner)` instructions before the
/// final jump-to-self. Three levels because every loop counter is an
/// `LI` immediate capped at ±121 (5 trits): two levels top out near
/// 60k retired instructions, three reach into the millions. `variant`
/// perturbs the loop bodies (without changing the count) so the cache
/// sees several distinct images.
pub(crate) fn spin_program(mega: u64, outer: u64, inner: u64, variant: usize) -> String {
    // Distinct scratch register per variant => distinct encoded text.
    let scratch = ["t5", "t6", "t7", "t8"][variant % 4];
    format!(
        "LI t2, {mega}\n\
         mega:\n\
         LI t3, {outer}\n\
         outer:\n\
         LI t4, {inner}\n\
         inner:\n\
         ADDI t4, -1\n\
         MV {scratch}, t4\n\
         COMP {scratch}, t0\n\
         BEQ {scratch}, +, inner\n\
         ADDI t3, -1\n\
         MV {scratch}, t3\n\
         COMP {scratch}, t0\n\
         BEQ {scratch}, +, outer\n\
         ADDI t2, -1\n\
         MV {scratch}, t2\n\
         COMP {scratch}, t0\n\
         BEQ {scratch}, +, mega\n\
         JAL t0, 0\n"
    )
}

/// Exact retirement count of [`spin_program`]: the initial `LI` plus
/// the final jump-to-self `JAL` (which does retire), plus, per mega
/// iteration, its own `LI`+tail and `5 + 4 * inner` per outer
/// iteration.
pub(crate) fn spin_retired(mega: u64, outer: u64, inner: u64) -> u64 {
    2 + mega * (5 + outer * (5 + 4 * inner))
}

/// Sizes the spin loops so the program retires at least `target`
/// instructions; returns `(mega, outer, inner, exact_retired)`. Every
/// counter stays within the 5-trit `LI` range (±121), which caps the
/// reachable target at ~7.1M retired instructions per session.
fn size_spin(target: u64) -> (u64, u64, u64, u64) {
    let needed = target.saturating_sub(2).max(1);
    // The default granularity keeps small targets tight; grow the
    // inner loop only when the 121-caps cannot otherwise reach.
    let inner = if needed > 121 * (5 + 121 * (5 + 4 * 25)) {
        121u64
    } else {
        25u64
    };
    let per_outer = 5 + 4 * inner;
    let outer = needed.div_ceil(per_outer).clamp(1, 121);
    let block = 5 + outer * per_outer;
    let mega = needed.div_ceil(block).clamp(1, 121);
    (mega, outer, inner, spin_retired(mega, outer, inner))
}

/// Runs the load against an already-listening service.
///
/// # Errors
///
/// I/O errors talking to the service; acceptance failures are
/// reported in [`LoadReport::violations`], not as errors.
pub fn run_against(addr: &str, config: &LoadConfig) -> io::Result<LoadReport> {
    let (mega, outer, inner, expected_retired) = size_spin(config.target_retired);
    let mut violations = Vec::new();

    // Submit over a small pool of connections, round-robin.
    let mut pool: Vec<Client> = (0..config.connections.max(1))
        .map(|_| Client::connect(addr))
        .collect::<io::Result<_>>()?;
    let started = Instant::now();
    let mut ids = Vec::with_capacity(config.sessions);
    let pool_len = pool.len();
    for i in 0..config.sessions {
        let client = &mut pool[i % pool_len];
        let program = spin_program(mega, outer, inner, i % config.distinct_images.max(1));
        let id = client.submit_inline(&program, "config=art9-functional")?;
        ids.push(id);
    }

    // Sample fairness mid-flight from LIST while sessions drain.
    let mut worst_ratio = 0.0f64;
    let mut samples = 0usize;
    let sampler = &mut pool[0];
    for _ in 0..32 {
        let rows = sampler.list()?;
        let live: Vec<u64> = rows
            .iter()
            .filter(|r| {
                !matches!(r.state.as_str(), "done" | "failed" | "cancelled") && r.retired > 0
            })
            .map(|r| r.retired)
            .collect();
        // Only trust samples that cover a majority of the fleet:
        // near the end most sessions are done and the few stragglers
        // legitimately span a wide progress range.
        if live.len() >= config.sessions / 2 {
            let max = *live.iter().max().unwrap() as f64;
            let min = *live.iter().min().unwrap() as f64;
            let q = config.quantum as f64;
            let ratio = (max + q) / (min + q);
            worst_ratio = worst_ratio.max(ratio);
            samples += 1;
            if ratio > config.fairness_ratio {
                violations.push(format!(
                    "fairness: max/min progress ratio {ratio:.1} exceeds {:.1} \
                     across {} live sessions",
                    config.fairness_ratio,
                    live.len()
                ));
            }
        }
        if rows
            .iter()
            .all(|r| matches!(r.state.as_str(), "done" | "failed" | "cancelled"))
        {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // Wait for every session and check exact completion.
    let mut done = 0usize;
    for (i, id) in ids.iter().enumerate() {
        let client = &mut pool[i % pool_len];
        let status = client.wait(*id)?;
        if status.state != "done" {
            violations.push(format!(
                "session {id}: expected done, got {} ({})",
                status.state,
                status.error.as_deref().unwrap_or("-")
            ));
            continue;
        }
        if status.retired != expected_retired {
            violations.push(format!(
                "session {id}: retired {} instructions, expected exactly {expected_retired}",
                status.retired
            ));
            continue;
        }
        done += 1;
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let metrics = pool[0].metrics()?;
    let metric = |key: &str| -> f64 {
        metrics
            .get(key)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let workers = metric("workers") as u64;
    let p99_us = metric("p99-slice-us");
    if p99_us > config.p99_slice_ms * 1000.0 {
        violations.push(format!(
            "latency: p99 slice {:.1}ms exceeds {:.1}ms",
            p99_us / 1000.0,
            config.p99_slice_ms
        ));
    }
    let cache_images = metric("cache-images") as u64;
    let expected_images = config.distinct_images.clamp(1, 4) as u64;
    if cache_images != expected_images {
        violations.push(format!(
            "cache: {cache_images} distinct images interned, expected {expected_images}"
        ));
    }

    let total_retired = expected_retired.saturating_mul(done as u64);
    Ok(LoadReport {
        sessions: config.sessions,
        workers,
        sessions_per_second: done as f64 / elapsed,
        per_worker_ips: total_retired as f64 / elapsed / workers.max(1) as f64,
        p50_slice_us: metric("p50-slice-us"),
        p99_slice_us: p99_us,
        migrations: metric("migrations") as u64,
        steals: metric("steals") as u64,
        cache_images,
        worst_fairness_ratio: worst_ratio,
        fairness_samples: samples,
        violations,
    })
}

/// Spawns an in-process service on an ephemeral port, runs the load
/// against it and shuts it down.
///
/// # Errors
///
/// I/O errors from the server or clients.
pub fn run_self_contained(config: &LoadConfig) -> io::Result<LoadReport> {
    let mut server = Server::start(ServiceConfig {
        addr: String::new(),
        scheduler: SchedulerConfig {
            workers: config
                .workers
                .unwrap_or_else(|| SchedulerConfig::default().workers),
            quantum: config.quantum,
        },
    })?;
    let report = run_against(&server.local_addr().to_string(), config);
    server.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_sizing_hits_at_least_the_target() {
        for target in [1u64, 100, 12_345, 100_000, 1_000_000, 7_000_000] {
            let (mega, outer, inner, exact) = size_spin(target);
            assert!(exact >= target, "target {target}: sized to {exact}");
            assert_eq!(exact, spin_retired(mega, outer, inner));
            // Every counter must load in one 5-trit LI.
            assert!(mega <= 121 && outer <= 121 && inner <= 121);
        }
    }

    #[test]
    fn sized_spin_retires_exactly_as_predicted() {
        // The exact-completion assertion the load test makes for every
        // session, checked once directly against the simulator.
        use art9_sim::{Budget, Core, SimBuilder};
        let (mega, outer, inner, exact) = size_spin(20_000);
        let program = art9_isa::assemble(&spin_program(mega, outer, inner, 0)).unwrap();
        let mut core = SimBuilder::new(&program).build_functional();
        core.run_for(Budget::Steps(10_000_000)).unwrap();
        assert!(core.halted().is_some());
        assert_eq!(core.retired(), exact);
    }

    #[test]
    fn spin_variants_assemble_to_distinct_images() {
        use art9_sim::PredecodedProgram;
        let mut hashes = std::collections::HashSet::new();
        for variant in 0..4 {
            let program = art9_isa::assemble(&spin_program(2, 3, 2, variant)).unwrap();
            hashes.insert(PredecodedProgram::new(&program).content_hash());
        }
        assert_eq!(hashes.len(), 4);
    }

    #[test]
    fn small_load_passes_end_to_end() {
        let report = run_self_contained(&LoadConfig {
            sessions: 48,
            target_retired: 5_000,
            quantum: 250,
            workers: Some(3),
            connections: 4,
            ..LoadConfig::default()
        })
        .unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.workers, 3);
        assert_eq!(report.cache_images, 4);
    }
}
