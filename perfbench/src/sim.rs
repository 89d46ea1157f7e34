//! `sim-long` phase: a fixed set of long programs, prepared once. Each
//! operation is one full run of one program on one configuration, and
//! the four configurations run back to back for each program, so host
//! drift hits all four alike.

use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use art9_hw::activity::{dynamic_energy, measured_power, ActivityCounts};
use art9_hw::analyzer::{analyze, GateAnalysis};
use art9_hw::datapath::Datapath;
use art9_hw::tech::{cntfet32, TechLibrary};
use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, Budget, Core, PredecodedProgram, SimBuilder};
use workloads::Workload;

use crate::sizes::{self, SIM_PROGRAMS};
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::{Report, Tally, MAX_STEPS};

/// Configuration names, in run order; `energy` is threaded with
/// `observers::EnergyAccounting` attached.
const CONFIGS: [&str; 4] = ["functional", "threaded", "pipelined", "energy"];
const SPANS: [&str; 4] = [
    "sim.exec.functional",
    "sim.exec.threaded",
    "sim.exec.pipelined",
    "sim.exec.energy",
];

/// Which quantile of one (configuration, program) pair's run times
/// stands for it. A low quantile: the fastest runs repeat within a few
/// percent across processes, the median of single runs does not, and
/// the host has slow spells of many seconds that a run's samples,
/// spread over its whole window, mostly avoid.
const RUN_QUANTILE: f64 = 0.1;

/// Dhrystone(100) on the pipelined core: retired instructions and
/// cycles, as `BENCH_ternary.json` records them.
const PIN_DHRYSTONE: (usize, u64, u64) = (100, 57_230, 67_742);

struct Program {
    name: &'static str,
    workload: Workload,
    image: PredecodedProgram,
    /// Retired instructions, cycles and trit flips of the reference
    /// run (pipelined, energy on) made in set-up.
    retired: u64,
    cycles: u64,
    flips: u64,
}

/// The prepared program set.
pub struct SimSetup {
    programs: Vec<Program>,
    fused_pairs: usize,
    superblocks: usize,
    lib: TechLibrary,
    analysis: GateAnalysis,
}

fn flip_total(energy: &Mutex<EnergyAccounting>) -> ActivityCounts {
    let t = energy.lock().expect("energy observer lock").totals();
    ActivityCounts {
        retired: t.retired,
        regfile: t.regfile,
        tdm: t.tdm,
        fetch: t.fetch,
        alu: t.alu,
    }
}

/// Runs `image` on the pipelined core with energy accounting and
/// verifies the output: `(retired, cycles, flips)`.
fn reference_run(image: &PredecodedProgram, w: &Workload) -> Result<(u64, u64, u64), String> {
    let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let mut core = SimBuilder::new(image.clone())
        .observer(energy.clone())
        .build_pipelined();
    let summary = core
        .run_for(Budget::Steps(MAX_STEPS))
        .map_err(|e| e.to_string())?;
    if summary.halt.is_none() {
        return Err(format!("{} did not halt", w.name));
    }
    w.verify_art9(core.state()).map_err(|e| e.to_string())?;
    let cycles = core.pipeline_stats().expect("pipelined core").cycles;
    Ok((summary.retired, cycles, flip_total(&energy).total_flips()))
}

/// Parses, translates and predecodes `w`.
pub fn prepare(w: &Workload) -> Result<PredecodedProgram, String> {
    let rv = w.rv32_program().map_err(|e| e.to_string())?;
    let t = art9_compiler::translate(&rv).map_err(|e| e.to_string())?;
    Ok(PredecodedProgram::new(&t.program))
}

/// Prepares the program set from `seed`, checks the Dhrystone pin and
/// records each program's reference counts.
pub fn setup(seed: u64, tally: &mut Tally) -> SimSetup {
    let (iters, retired, cycles) = PIN_DHRYSTONE;
    let pin = workloads::dhrystone(iters);
    let pinned = prepare(&pin).and_then(|image| reference_run(&image, &pin));
    tally.check(
        matches!(pinned, Ok((r, c, _)) if r == retired && c == cycles),
        || format!("dhrystone({iters}) pin: {pinned:?}, want {retired} retired, {cycles} cycles"),
    );

    let mut programs = Vec::new();
    let (mut fused_pairs, mut superblocks) = (0, 0);
    for (lane, (name, n)) in SIM_PROGRAMS.into_iter().enumerate() {
        let workload = sizes::build(name, Some(n), crate::sub_seed(seed, lane as u64));
        let prepared = prepare(&workload).and_then(|image| {
            let counts = reference_run(&image, &workload)?;
            Ok((image, counts))
        });
        let ok = prepared.is_ok();
        tally.check(ok, || format!("sim-long set-up of {name}: {prepared:?}"));
        let Ok((image, (retired, cycles, flips))) = prepared else {
            continue;
        };
        // Compile the threaded code now; every later core shares it.
        let threaded = SimBuilder::new(image.clone()).build_threaded();
        fused_pairs += threaded.fused_pairs();
        superblocks += threaded.superblocks().len();
        programs.push(Program {
            name,
            workload,
            image,
            retired,
            cycles,
            flips,
        });
    }
    let lib = cntfet32();
    let analysis = analyze(&Datapath::art9(), &lib);
    SimSetup {
        programs,
        fused_pairs,
        superblocks,
        lib,
        analysis,
    }
}

/// Run times of the phase, per configuration and program.
pub struct SimRun {
    /// `seconds[config][program]`: one entry per run.
    seconds: Vec<Vec<Vec<f64>>>,
    activity_us: Vec<f64>,
    ops: u64,
}

impl SimRun {
    pub fn new(setup: &SimSetup) -> Self {
        SimRun {
            seconds: vec![vec![Vec::new(); setup.programs.len()]; CONFIGS.len()],
            activity_us: Vec::new(),
            ops: 0,
        }
    }
}

/// Runs one operation; returns its run time in seconds after checking
/// the result against the set-up reference.
fn run_op(
    setup: &SimSetup,
    p: &Program,
    config: usize,
    op: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    activity_us: &mut Vec<f64>,
) -> f64 {
    let backend = match config {
        0 => Backend::Functional,
        2 => Backend::Pipelined,
        _ => Backend::Threaded,
    };
    let mut builder = SimBuilder::new(p.image.clone()).backend(backend);
    let energy = (config == 3).then(|| Arc::new(Mutex::new(EnergyAccounting::new())));
    if let Some(e) = &energy {
        builder = builder.observer(e.clone());
    }
    let mut core = builder.build();

    let open = tracer.enter(SPANS[config], op);
    let start = Instant::now();
    let summary = core.run_for(Budget::Steps(MAX_STEPS));
    let seconds = start.elapsed().as_secs_f64();
    tracer.exit(open);

    let mut problem = match summary {
        Err(e) => Some(e.to_string()),
        Ok(s) if s.halt.is_none() => Some("did not halt".to_string()),
        Ok(s) if s.retired != p.retired => Some(format!("retired {} != {}", s.retired, p.retired)),
        Ok(_) => p
            .workload
            .verify_art9(core.state())
            .err()
            .map(|e| e.to_string()),
    };
    if config == 2 {
        let cycles = core.pipeline_stats().map_or(0, |s| s.cycles);
        if cycles != p.cycles {
            problem.get_or_insert(format!("cycles {cycles} != {}", p.cycles));
        }
    }
    if let Some(e) = &energy {
        let counts = flip_total(e);
        if counts.total_flips() != p.flips {
            problem.get_or_insert(format!("flips {} != {}", counts.total_flips(), p.flips));
        }
        let open = tracer.enter("hw.activity", op);
        let start = Instant::now();
        let dynamic = dynamic_energy(black_box(&counts), &setup.lib);
        black_box(measured_power(&setup.analysis, &dynamic, p.cycles));
        activity_us.push(start.elapsed().as_secs_f64() * 1e6);
        tracer.exit(open);
    }
    tally.check(problem.is_none(), || {
        format!("{} on {}: {problem:?}", p.name, CONFIGS[config])
    });
    seconds
}

/// Adds rounds over every program and configuration to `run` until
/// `deadline` (at least one round).
pub fn run(
    setup: &SimSetup,
    run: &mut SimRun,
    deadline: Instant,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    loop {
        for (i, p) in setup.programs.iter().enumerate() {
            for (config, times) in run.seconds.iter_mut().enumerate() {
                run.ops += 1;
                let s = run_op(
                    setup,
                    p,
                    config,
                    run.ops,
                    tracer,
                    tally,
                    &mut run.activity_us,
                );
                times[i].push(s);
            }
        }
        if Instant::now() >= deadline {
            return;
        }
    }
}

impl SimRun {
    fn typical(&self, config: usize, program: usize) -> f64 {
        quantile(&self.seconds[config][program], RUN_QUANTILE)
    }

    /// Work per second of `config` over the whole program set, in
    /// millions: instructions, or cycles on the pipelined core.
    fn rate_millions(&self, setup: &SimSetup, config: usize) -> f64 {
        let (mut work, mut seconds) = (0.0, 0.0);
        for (i, p) in setup.programs.iter().enumerate() {
            work += if config == 2 { p.cycles } else { p.retired } as f64;
            seconds += self.typical(config, i);
        }
        work / seconds / 1e6
    }

    pub fn report_end_to_end(&self, setup: &SimSetup, out: &mut Report) {
        out.put("functional_mips", self.rate_millions(setup, 0), "Minstr/s");
        out.put("threaded_mips", self.rate_millions(setup, 1), "Minstr/s");
        out.put("pipelined_mcps", self.rate_millions(setup, 2), "Mcycles/s");
        out.put("energy_mips", self.rate_millions(setup, 3), "Minstr/s");
    }

    pub fn report_layers(&self, setup: &SimSetup, out: &mut Report) {
        for (config, name) in CONFIGS.iter().enumerate() {
            for (i, p) in setup.programs.iter().enumerate() {
                let ns = self.typical(config, i) * 1e9 / p.retired as f64;
                out.put(format!("sim.{name}.{}_ns_per_instr", p.name), ns, "ns");
            }
        }
        for p in &setup.programs {
            let cpi = p.cycles as f64 / p.retired as f64;
            out.put(format!("sim.pipelined.{}_cpi", p.name), cpi, "cycles");
        }
        let total = |config| {
            (0..setup.programs.len())
                .map(|i| self.typical(config, i))
                .sum::<f64>()
        };
        out.put("sim.energy_overhead_x", total(3) / total(1), "x");
        out.put("hw.activity_us", quantile(&self.activity_us, 0.5), "us");
        out.put(
            "sim.threaded.fused_pairs",
            setup.fused_pairs as f64,
            "count",
        );
        out.put(
            "sim.threaded.superblocks",
            setup.superblocks as f64,
            "count",
        );
    }
}
