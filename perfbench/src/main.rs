//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-long|prep-churn|service-mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run sets up all three phases (simulation of long programs,
//! preparation of short ones, the TCP service), warms them up, and then
//! measures them in alternating slices for `--seconds` in total. The
//! chosen workload's own phase gets most of that time; the other two
//! run shorter, so that every run reports every metric. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
//! See `NOTES.md` for the workloads and the metric → layer map.

mod prep;
mod service;
mod sim;
mod sizes;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{median, Rng};
use trace::Tracer;

/// Step budget of every simulated run (no benchmark program comes near).
pub const MAX_STEPS: u64 = 500_000_000;

/// Seed that later performance claims must also hold on; keep it out
/// of tuning runs.
pub const HELD_OUT_SEED: u64 = 9841;

/// Share of `--seconds` given to the workload's own phase; the other
/// two phases split the rest.
const OWN_SHARE: f64 = 0.6;

/// Length of one cycle through the three phases.
const CYCLE: Duration = Duration::from_secs(2);

/// How long a traced run measures the in-process service counterparts.
const INPROC: Duration = Duration::from_secs(2);

const USAGE: &str = "usage: perfbench --workload <sim-long|prep-churn|service-mixed> \
--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Sim,
    Prep,
    Service,
}

/// Workload name → the phase it concentrates on.
const WORKLOADS: [(&str, Phase); 3] = [
    ("sim-long", Phase::Sim),
    ("prep-churn", Phase::Prep),
    ("service-mixed", Phase::Service),
];

struct Args {
    workload: &'static str,
    own: Phase,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<Option<String>, String> {
        let Some(i) = argv.iter().position(|a| a == key) else {
            return Ok(None);
        };
        argv.get(i + 1)
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{key} needs a value"))
    };
    let required = |v: Option<String>, key: &str| v.ok_or_else(|| format!("missing {key}"));
    let workload = required(get("--workload")?, "--workload")?;
    let (workload, own) = WORKLOADS
        .into_iter()
        .find(|(name, _)| *name == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |key: &str, v: String| {
        v.parse::<f64>()
            .map_err(|_| format!("{key}: bad number {v:?}"))
    };
    let seed = required(get("--seed")?, "--seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed: bad seed {seed:?}"))?;
    let seconds = number("--seconds", required(get("--seconds")?, "--seconds")?)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace must be 0 or 1, got {v:?}")),
    };
    Ok(Args {
        workload,
        own,
        seed,
        seconds,
        trace,
        trace_out: get("--trace-out")?.map(PathBuf::from),
    })
}

/// Operations checked, and how many failed a check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked operation; the first failures are described
    /// on standard error.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("FAILED: {}", describe());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Named metrics with units, in report order.
#[derive(Debug, Default)]
pub struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `{"correct": …, "attempted": …, "failed": …,
    /// "metrics": {name: {"value": …, "unit": …}}}`. A metric that is
    /// not a finite number makes the run incorrect.
    fn to_json(&self, tally: Tally) -> String {
        let finite = self.0.iter().all(|(_, v, _)| v.is_finite());
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            finite && tally.failed == 0 && tally.attempted > 0,
            tally.attempted.max(1),
            tally.failed,
            metrics.join(", ")
        )
    }
}

/// An independent seed for input stream `lane` under `seed`.
pub fn sub_seed(seed: u64, lane: u64) -> u64 {
    Rng::new(seed ^ (lane + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Setup {
    sim: sim::SimSetup,
    classes: [service::Class; 2],
}

fn set_up(seed: u64, tally: &mut Tally) -> Result<Setup, String> {
    Ok(Setup {
        sim: sim::setup(sub_seed(seed, 1), tally),
        // The long session's input seed goes over the wire as text.
        classes: service::classes(sub_seed(seed, 3) % 1_000_000)?,
    })
}

/// Self-time medians of the preparation-chain spans, as per-layer
/// metrics.
const CHAIN_SPANS: [(&str, &str); 6] = [
    ("rv32.parse", "rv32.parse_us"),
    ("compiler.translate", "compiler.translate_us"),
    ("sim.predecode", "sim.predecode_us"),
    ("sim.threaded_compile", "sim.threaded_compile_us"),
    ("sim.run", "sim.run_us"),
    ("workloads.verify", "workloads.verify_us"),
];

fn print_span_table(tracer: &Tracer) {
    eprintln!(
        "{:<26} {:>9} {:>14} {:>12}",
        "span", "count", "self ms total", "self us p50"
    );
    for (name, us) in tracer.self_times_us() {
        let total_ms = us.iter().sum::<f64>() / 1e3;
        eprintln!(
            "{name:<26} {:>9} {total_ms:>14.3} {:>12.3}",
            us.len(),
            median(&us)
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}\n(held-out seed for claims: {HELD_OUT_SEED})");
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut setup_tally = Tally::default();

    let start = Instant::now();
    let Setup {
        sim: sim_setup,
        classes,
    } = match set_up(args.seed, &mut setup_tally) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    // Not part of `setup_s`: the HELLO reply of a fresh connection hits
    // the delayed-ACK stall at random (0 or 40 ms), which would make
    // set-up time bimodal.
    let mut service_setup = match service::start(classes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Warm-up: one pass of each phase, untimed, untraced, discarded.
    let mut warm = Tracer::new(false, epoch);
    let mut warm_tally = Tally::default();
    let now = Instant::now();
    sim::run(
        &sim_setup,
        &mut sim::SimRun::new(&sim_setup),
        now,
        &mut warm,
        &mut warm_tally,
    );
    prep::PrepRun::new(sub_seed(args.seed, 4)).run(now, false, &mut warm, &mut warm_tally);
    let mut discard = service::ServiceRun::default();
    service::run(
        &mut service_setup,
        &mut discard,
        now,
        false,
        &mut warm,
        &mut warm_tally,
    );

    // Measure in cycles of the three phases, so each phase's samples
    // spread over the whole window.
    let mut tracer = Tracer::new(args.trace, epoch);
    let cycles = (args.seconds / CYCLE.as_secs_f64()).round().max(1.0);
    let slice = |phase: Phase| {
        let fraction = if phase == args.own {
            OWN_SHARE
        } else {
            (1.0 - OWN_SHARE) / 2.0
        };
        Duration::from_secs_f64(args.seconds * fraction / cycles)
    };
    let mut tallies = [Tally::default(); 3];
    let mut sim_run = sim::SimRun::new(&sim_setup);
    let mut prep_run = prep::PrepRun::new(sub_seed(args.seed, 2));
    let mut service_run = service::ServiceRun::default();
    for cycle in 1..=cycles as u64 {
        let deadline = Instant::now() + slice(Phase::Sim);
        sim::run(
            &sim_setup,
            &mut sim_run,
            deadline,
            &mut tracer,
            &mut tallies[0],
        );
        let deadline = Instant::now() + slice(Phase::Prep);
        prep_run.run(deadline, args.trace, &mut tracer, &mut tallies[1]);
        let deadline = Instant::now() + slice(Phase::Service);
        // The last slice of service-mixed runs on until each session
        // class has enough samples for its 90th percentile.
        let top_up = args.own == Phase::Service && cycle == cycles as u64;
        service::run(
            &mut service_setup,
            &mut service_run,
            deadline,
            top_up,
            &mut tracer,
            &mut tallies[2],
        );

        // Set up again, timed and discarded: `setup_s` is the median of
        // set-ups spread over the run, like every other figure.
        let start = Instant::now();
        let again = set_up(args.seed, &mut setup_tally);
        setup_s.push(start.elapsed().as_secs_f64());
        setup_tally.check(again.is_ok(), || format!("set-up: {:?}", again.err()));
    }
    if args.trace {
        service_run.fetch_metrics(&mut service_setup, &mut tallies[2]);
        service::run_inproc(
            &service_setup,
            &mut service_run,
            INPROC,
            &mut tracer,
            &mut tallies[2],
        );
    }
    prep_run.finish();

    let mut total = setup_tally;
    total.absorb(warm_tally);
    for (name, t) in [("set-up", setup_tally), ("warm-up", warm_tally)]
        .into_iter()
        .chain(["sim", "prep", "service"].into_iter().zip(tallies))
    {
        eprintln!(
            "{}: {name}: {} failed of {} attempted",
            args.workload, t.failed, t.attempted
        );
    }
    for t in tallies {
        total.absorb(t);
    }

    let mut report = Report::default();
    if args.trace {
        let self_us = tracer.self_times_us();
        for (span, metric) in CHAIN_SPANS {
            report.put(
                metric,
                self_us.get(span).map_or(f64::NAN, |v| median(v)),
                "us",
            );
        }
        sim_run.report_layers(&sim_setup, &mut report);
        prep_run.report_layers(&mut report);
        service_run.report_layers(&service_setup, &mut report);
        print_span_table(&tracer);
        let path = args.trace_out.clone().unwrap_or_else(|| {
            let dir = std::env::current_exe()
                .ok()
                .and_then(|exe| exe.parent().map(|d| d.join("perfbench-traces")))
                .unwrap_or_else(|| PathBuf::from("perfbench-traces"));
            dir.join(format!("{}-seed{}.tsv", args.workload, args.seed))
        });
        match tracer.write_tsv(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    } else {
        report.put("setup_s", median(&setup_s), "s");
        report.put("peak_rss_mb", peak_rss_mb(), "MiB");
        sim_run.report_end_to_end(&sim_setup, &mut report);
        prep_run.report_end_to_end(&mut report);
        service_run.report_end_to_end(&mut report);
    }
    service_setup.shutdown();
    for (name, value, unit) in &report.0 {
        eprintln!("{name:<40} {value:>14.4} {unit}");
    }
    println!("{}", report.to_json(total));
    ExitCode::SUCCESS
}
