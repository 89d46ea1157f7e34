//! `service-mixed` phase: an in-process `Server` on loopback, driven
//! closed-loop by two `Client` connections. One connection loops long
//! sessions, the other short ones; both resubmit the same program, so
//! the image cache is hit after the first submission.

use std::collections::HashMap;
use std::io;
use std::time::{Duration, Instant};

use art9_service::{
    Client, ImageCache, JobSpec, Scheduler, SchedulerConfig, Server, ServiceConfig,
};
use art9_sim::{Budget, Core, PredecodedProgram, SimBuilder};

use crate::sizes::{self, LONG_SESSION, SHORT_SESSION};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Report, Tally, MAX_STEPS};

/// Samples a class needs beyond its 90th percentile.
const MIN_SAMPLES: usize = 110;
/// How far past its deadline the phase may run to reach `MIN_SAMPLES`.
const GRACE: Duration = Duration::from_secs(20);

/// One session class: its `SUBMIT` arguments and exact retired count.
pub struct Class {
    name: &'static str,
    args: Vec<(&'static str, String)>,
    retired: u64,
    /// The same program, prepared in-process, for the unsliced rate.
    image: PredecodedProgram,
}

impl Class {
    /// A class submitting `workload` (`n`, `seed` and `config` are sent
    /// only when given); runs it once in-process for the exact count.
    fn new(
        name: &'static str,
        workload: &'static str,
        n: Option<usize>,
        seed: Option<u64>,
        config: Option<&str>,
    ) -> Result<Class, String> {
        let mut args = vec![("workload", workload.to_string())];
        args.extend(n.map(|n| ("n", n.to_string())));
        args.extend(seed.map(|s| ("seed", s.to_string())));
        args.extend(config.map(|c| ("config", c.to_string())));
        // Without a seed the server builds the registry default, which
        // is what reseeding a fixed-input workload such as fibonacci
        // returns too.
        let w = sizes::build(workload, n, seed.unwrap_or(0));
        let image = crate::sim::prepare(&w)?;
        let mut core = SimBuilder::new(image.clone()).build_threaded();
        let summary = core
            .run_for(Budget::Steps(MAX_STEPS))
            .map_err(|e| e.to_string())?;
        w.verify_art9(core.state()).map_err(|e| e.to_string())?;
        Ok(Class {
            name,
            args,
            retired: summary.retired,
            image,
        })
    }

    fn request(&self) -> String {
        let args: Vec<String> = self.args.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("SUBMIT {}", args.join(" "))
    }

    fn spec(&self) -> JobSpec {
        let args: HashMap<String, String> = self
            .args
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        JobSpec::from_args(&args, None).expect("benchmark SUBMIT arguments parse")
    }

    /// Checks a `WAIT` reply: done, verified, exact retired count.
    fn check(&self, reply: &str) -> Result<(), String> {
        let retired = format!("retired={}", self.retired);
        let tokens: Vec<&str> = reply.split_whitespace().collect();
        let ok = reply.starts_with("OK job ")
            && ["state=done", "verified=ok", retired.as_str()]
                .iter()
                .all(|want| tokens.contains(want));
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{} session: {reply:?}, want state=done verified=ok {retired}",
                self.name
            ))
        }
    }
}

/// A running server with its two connections.
pub struct ServiceSetup {
    server: Server,
    clients: [Client; 2],
    classes: [Class; 2],
}

/// The two session classes, with each one's exact retired count
/// derived in-process.
pub fn classes(seed: u64) -> Result<[Class; 2], String> {
    let (long_name, long_n) = LONG_SESSION;
    let long = Class::new(
        "long",
        long_name,
        Some(long_n),
        Some(seed),
        Some("art9-threaded"),
    )?;
    let short = Class::new("short", SHORT_SESSION, None, None, None)?;
    Ok([short, long])
}

/// Starts the server on a loopback port and connects both clients.
pub fn start(classes: [Class; 2]) -> Result<ServiceSetup, String> {
    let server =
        Server::start(ServiceConfig::default()).map_err(|e| format!("start server: {e}"))?;
    let connect = || Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"));
    let clients = [connect()?, connect()?];
    Ok(ServiceSetup {
        server,
        clients,
        classes,
    })
}

/// Measurements of one class over TCP.
#[derive(Default)]
struct ClassRun {
    ops: u64,
    rtt_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    wait_ms: Vec<f64>,
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    (b - a).as_secs_f64() * 1e3
}

/// One SUBMIT → WAIT round trip over `client`: the WAIT reply (or the
/// SUBMIT reply, if that was refused) and the milliseconds each took.
fn session(
    client: &mut Client,
    request: &str,
    op: u64,
    tracer: &mut Tracer,
) -> io::Result<(String, f64, f64)> {
    let t0 = Instant::now();
    let reply = tracer.span("service.submit", op, || client.command(request))?;
    let t1 = Instant::now();
    let Some(id) = reply.strip_prefix("OK job ") else {
        return Ok((reply, ms_between(t0, t1), 0.0));
    };
    let wait = format!("WAIT {id}");
    let reply = tracer.span("service.wait", op, || client.command(&wait))?;
    Ok((reply, ms_between(t0, t1), ms_between(t1, Instant::now())))
}

/// Adds `class` sessions to `run` in one closed loop until `deadline`
/// and until `run` holds at least `min`. A dead connection ends the
/// loop as one failure.
fn drive(
    client: &mut Client,
    class: &Class,
    run: &mut ClassRun,
    deadline: Instant,
    min: usize,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let request = class.request();
    let more = |n: usize| {
        let now = Instant::now();
        now < deadline || (n < min && now < deadline + GRACE)
    };
    let first = run.ops;
    // At least one session, so a warm-up pass fills the image cache.
    while run.ops == first || more(run.rtt_ms.len()) {
        run.ops += 1;
        let op = run.ops;
        let open = tracer.enter("service.session", op);
        let result = session(client, &request, op, tracer);
        tracer.exit(open);
        match result {
            Err(e) => {
                tally.check(false, || format!("{} connection: {e}", class.name));
                return;
            }
            Ok((reply, submit_ms, wait_ms)) => {
                let checked = class.check(&reply);
                tally.check(checked.is_ok(), || format!("{checked:?}"));
                run.rtt_ms.push(submit_ms + wait_ms);
                run.submit_ms.push(submit_ms);
                run.wait_ms.push(wait_ms);
            }
        }
    }
}

/// What the TCP closed loops measured, slice by slice.
#[derive(Default)]
pub struct ServiceRun {
    classes: [ClassRun; 2],
    wall_s: f64,
    metrics: HashMap<String, String>,
    /// In-process counterparts, measured only on traced runs.
    inproc: Option<Inproc>,
}

/// Runs one slice of both closed loops until `deadline`; with
/// `min_samples`, until each class also has enough samples for its
/// 90th percentile.
pub fn run(
    setup: &mut ServiceSetup,
    run: &mut ServiceRun,
    deadline: Instant,
    min_samples: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let min = if min_samples { MIN_SAMPLES } else { 0 };
    let start = Instant::now();
    let ServiceSetup {
        clients, classes, ..
    } = setup;
    let results: Vec<(Tracer, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(classes.iter())
            .zip(run.classes.iter_mut())
            .map(|((client, class), class_run)| {
                let mut t = tracer.fork();
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    drive(client, class, class_run, deadline, min, &mut t, &mut tally);
                    (t, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    run.wall_s += start.elapsed().as_secs_f64();
    for (t, sub) in results {
        tracer.absorb(t);
        tally.absorb(sub);
    }
}

impl ServiceRun {
    /// Reads the server's `METRICS` for the per-layer report.
    pub fn fetch_metrics(&mut self, setup: &mut ServiceSetup, tally: &mut Tally) {
        match setup.clients[0].metrics() {
            Ok(m) => self.metrics = m,
            Err(e) => tally.check(false, || format!("METRICS: {e}")),
        }
    }
}

/// The same sessions run in-process through `Scheduler::submit` →
/// `SessionHandle::wait`, with no socket in between.
struct Inproc {
    rtt_ms: [Vec<f64>; 2],
    prepare_us: [Vec<f64>; 2],
    /// Unsliced threaded rate of the long program, instructions/s.
    unsliced_ips: f64,
}

/// Traced runs only: measures the in-process counterparts for
/// `duration` after the TCP phase, with the same two closed loops.
pub fn run_inproc(
    setup: &ServiceSetup,
    run: &mut ServiceRun,
    duration: Duration,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let scheduler = Scheduler::new(SchedulerConfig::default());
    let cache = ImageCache::new();
    let deadline = Instant::now() + duration;
    let loops: Vec<(Vec<f64>, Vec<f64>, Tally)> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .classes
            .iter()
            .map(|class| {
                let (scheduler, cache) = (&scheduler, &cache);
                scope.spawn(move || {
                    let spec = class.spec();
                    let (mut rtt, mut prepare, mut tally) =
                        (Vec::new(), Vec::new(), Tally::default());
                    while Instant::now() < deadline || rtt.len() < 20 {
                        let t0 = Instant::now();
                        let prepared = spec.prepare(cache);
                        let t1 = Instant::now();
                        let Ok(job) = prepared else {
                            tally.check(false, || format!("prepare: {prepared:?}"));
                            break;
                        };
                        let handle = scheduler.submit(job);
                        let status = handle.wait();
                        let t2 = Instant::now();
                        let ok = handle
                            .result()
                            .is_some_and(|r| r.verified && r.retired == class.retired);
                        tally.check(ok, || {
                            format!("in-process {} session: {status:?}", class.name)
                        });
                        prepare.push((t1 - t0).as_secs_f64() * 1e6);
                        rtt.push((t2 - t0).as_secs_f64() * 1e3);
                    }
                    (rtt, prepare, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("in-process client thread"))
            .collect()
    });
    scheduler.shutdown();
    let mut rtt_ms: [Vec<f64>; 2] = Default::default();
    let mut prepare_us: [Vec<f64>; 2] = Default::default();
    for (i, (rtt, prepare, sub)) in loops.into_iter().enumerate() {
        rtt_ms[i] = rtt;
        prepare_us[i] = prepare;
        tally.absorb(sub);
    }

    let long = &setup.classes[1];
    let unsliced = (0..5)
        .map(|_| {
            let mut core = SimBuilder::new(long.image.clone()).build_threaded();
            let open = tracer.enter("service.unsliced_run", 0);
            let start = Instant::now();
            let summary = core.run_for(Budget::Steps(MAX_STEPS));
            let seconds = start.elapsed().as_secs_f64();
            tracer.exit(open);
            tally.check(
                summary.as_ref().is_ok_and(|s| s.retired == long.retired),
                || format!("unsliced long run: {summary:?}"),
            );
            seconds
        })
        .fold(f64::INFINITY, f64::min);
    run.inproc = Some(Inproc {
        rtt_ms,
        prepare_us,
        unsliced_ips: long.retired as f64 / unsliced,
    });
}

impl ServiceSetup {
    /// Stops the server; its connection threads end as the clients
    /// disconnect.
    pub fn shutdown(self) {
        let ServiceSetup {
            mut server,
            clients,
            ..
        } = self;
        drop(clients);
        server.shutdown();
    }
}

impl ServiceRun {
    fn metric(&self, key: &str) -> f64 {
        self.metrics
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }

    pub fn report_end_to_end(&self, out: &mut Report) {
        let sessions: usize = self.classes.iter().map(|c| c.rtt_ms.len()).sum();
        out.put("sessions_per_s", sessions as f64 / self.wall_s, "1/s");
        for (class, name) in self.classes.iter().zip(["short", "long"]) {
            out.put(
                format!("{name}_rtt_p50_ms"),
                quantile(&class.rtt_ms, 0.5),
                "ms",
            );
            out.put(
                format!("{name}_rtt_p90_ms"),
                quantile(&class.rtt_ms, 0.9),
                "ms",
            );
        }
    }

    pub fn report_layers(&self, setup: &ServiceSetup, out: &mut Report) {
        for (i, name) in ["short", "long"].into_iter().enumerate() {
            let c = &self.classes[i];
            out.put(
                format!("service.{name}.submit_reply_ms"),
                median(&c.submit_ms),
                "ms",
            );
            out.put(
                format!("service.{name}.wait_reply_ms"),
                median(&c.wait_ms),
                "ms",
            );
            if let Some(inproc) = &self.inproc {
                let tcp = quantile(&c.rtt_ms, 0.5);
                let local = median(&inproc.rtt_ms[i]);
                out.put(format!("service.inproc_{name}_ms"), local, "ms");
                out.put(
                    format!("service.prepare_{name}_us"),
                    median(&inproc.prepare_us[i]),
                    "us",
                );
                out.put(
                    format!("service.{name}.socket_overhead_ms"),
                    tcp - local,
                    "ms",
                );
                out.put(
                    format!("service.{name}.socket_share"),
                    (tcp - local) / tcp,
                    "ratio",
                );
            }
        }
        out.put("service.slices", self.metric("slices"), "count");
        out.put("service.slice_p50_us", self.metric("p50-slice-us"), "us");
        out.put("service.slice_p99_us", self.metric("p99-slice-us"), "us");
        let (hits, misses) = (self.metric("cache-hits"), self.metric("cache-misses"));
        out.put("service.cache_hit_ratio", hits / (hits + misses), "ratio");
        out.put(
            "service.sessions_total",
            self.metric("sessions-total"),
            "count",
        );
        out.put("service.migrations", self.metric("migrations"), "count");
        out.put("service.steals", self.metric("steals"), "count");
        if let Some(inproc) = &self.inproc {
            // Per-worker retired rate on long sessions over the unsliced
            // in-process threaded rate on the same program.
            let long = &setup.classes[1];
            let retired = long.retired as f64 * self.classes[1].rtt_ms.len() as f64;
            let per_worker = retired / self.wall_s / self.metric("workers");
            out.put(
                "service.efficiency",
                per_worker / inproc.unsliced_ips,
                "ratio",
            );
        }
    }
}
