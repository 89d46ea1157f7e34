//! `prep-churn` phase: a seeded stream of distinct small programs, each
//! taken through the whole chain — parse, translate, predecode, first
//! `build_threaded` (which compiles it), run, verify. Generating the
//! inputs is not timed.

use std::time::Instant;

use art9_sim::{Budget, Core, PredecodedProgram, SimBuilder};
use workloads::Workload;

use crate::sizes;
use crate::stats::{median, quantile, Rng};
use crate::trace::Tracer;
use crate::{Report, Tally, MAX_STEPS};

/// Programs generated, then timed, per batch.
const BATCH: usize = 128;

/// Programs per measurement window: enough for a steady mix (the
/// stream cycles through the workload types) and for 100 samples beyond
/// the 90th percentile.
const WINDOW: usize = 1024;

/// Which window stands for the run. The host has slow spells lasting
/// seconds, so take the fast end of the per-window figures (the fastest
/// tenth) rather than their median.
const FAST: f64 = 0.1;

/// The program stream and what it measured, window by window.
pub struct PrepRun {
    rng: Rng,
    ops: u64,
    batches: u64,
    /// Program times (µs) of the window being filled.
    window_us: Vec<f64>,
    /// Per full window: programs per second, median and
    /// 90th-percentile program time (µs).
    rates: Vec<f64>,
    p50_us: Vec<f64>,
    p90_us: Vec<f64>,
    /// Program times of traced and untraced batches, when a traced run
    /// alternates them to measure tracing overhead.
    traced_us: Vec<f64>,
    untraced_us: Vec<f64>,
}

fn prepare_and_run(w: &Workload, op: u64, tracer: &mut Tracer) -> Result<(), String> {
    let rv = tracer
        .span("rv32.parse", op, || w.rv32_program())
        .map_err(|e| e.to_string())?;
    let t = tracer
        .span("compiler.translate", op, || art9_compiler::translate(&rv))
        .map_err(|e| e.to_string())?;
    let image = tracer.span("sim.predecode", op, || PredecodedProgram::new(&t.program));
    let mut core = tracer.span("sim.threaded_compile", op, || {
        SimBuilder::new(image).build_threaded()
    });
    let summary = tracer
        .span("sim.run", op, || core.run_for(Budget::Steps(MAX_STEPS)))
        .map_err(|e| e.to_string())?;
    if summary.halt.is_none() {
        return Err("did not halt".into());
    }
    tracer
        .span("workloads.verify", op, || w.verify_art9(core.state()))
        .map_err(|e| e.to_string())
}

impl PrepRun {
    /// A stream of programs drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        PrepRun {
            rng: Rng::new(seed),
            ops: 0,
            batches: 0,
            window_us: Vec::new(),
            rates: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
            traced_us: Vec::new(),
            untraced_us: Vec::new(),
        }
    }

    /// Runs one slice: batches until `deadline` (at least one). With
    /// `alternate`, every other batch runs untraced.
    pub fn run(
        &mut self,
        deadline: Instant,
        alternate: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        loop {
            let inputs: Vec<Workload> = (0..BATCH as u64)
                .map(|i| {
                    let (name, n, seed) = sizes::draw_prep(self.ops + i, &mut self.rng);
                    sizes::build(name, n, seed)
                })
                .collect();
            let traced = !alternate || self.batches.is_multiple_of(2);
            self.batches += 1;
            if alternate {
                tracer.set_enabled(traced);
            }
            for w in &inputs {
                self.ops += 1;
                let op = self.ops;
                let open = tracer.enter("prep.program", op);
                let start = Instant::now();
                let result = prepare_and_run(w, op, tracer);
                let us = start.elapsed().as_secs_f64() * 1e6;
                tracer.exit(open);
                tally.check(result.is_ok(), || format!("{}: {result:?}", w.description));
                self.window_us.push(us);
                if self.window_us.len() == WINDOW {
                    self.close_window();
                }
                if alternate {
                    let side = if traced {
                        &mut self.traced_us
                    } else {
                        &mut self.untraced_us
                    };
                    side.push(us);
                }
            }
            if Instant::now() >= deadline {
                break;
            }
        }
        if alternate {
            tracer.set_enabled(true);
        }
    }

    fn close_window(&mut self) {
        let w = std::mem::take(&mut self.window_us);
        self.rates
            .push(w.len() as f64 * 1e6 / w.iter().sum::<f64>());
        self.p50_us.push(quantile(&w, 0.5));
        self.p90_us.push(quantile(&w, 0.9));
    }

    /// Ends the run; a run too short for one full window reports the
    /// partial one.
    pub fn finish(&mut self) {
        if self.rates.is_empty() && !self.window_us.is_empty() {
            self.close_window();
        }
    }

    pub fn report_end_to_end(&self, out: &mut Report) {
        out.put("programs_per_s", quantile(&self.rates, 1.0 - FAST), "1/s");
        out.put("program_p50_us", quantile(&self.p50_us, FAST), "us");
        out.put("program_p90_us", quantile(&self.p90_us, FAST), "us");
    }

    /// Tracing overhead: the median program time of traced batches over
    /// that of the untraced batches interleaved with them.
    pub fn report_layers(&self, out: &mut Report) {
        let overhead = median(&self.traced_us) / median(&self.untraced_us) - 1.0;
        out.put("trace.overhead_pct", overhead * 100.0, "%");
    }
}
