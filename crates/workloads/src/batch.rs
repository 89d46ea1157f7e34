//! Parallel batch-simulation driver.
//!
//! The first step toward the ROADMAP's heavy-traffic simulation
//! service: run **many programs × many simulator configurations** in
//! parallel and fold the per-run statistics into one aggregate report.
//!
//! A batch is a cross product: every [`Workload`] is prepared once by
//! [`crate::prepare`] (parsed, translated and **predecoded into one
//! shared [`art9_sim::PredecodedProgram`] image**) and then executed
//! under every [`ExecConfig`] — the simulators of all ART-9 configs
//! fetch from the same `Arc`'d instruction image instead of copying or
//! re-decoding per run. Preparation and execution both fan out across
//! OS threads via `rayon`; results come back in deterministic
//! (workload-major) order regardless of scheduling.
//!
//! ```
//! use art9_sim::Backend;
//! use workloads::batch::{BatchRunner, ExecConfig};
//!
//! let report = BatchRunner::new()
//!     .workload(workloads::bubble_sort(8))
//!     .workload(workloads::dot_product(6))
//!     .config(ExecConfig::art9_pipelined(true))
//!     .config(ExecConfig::rv32_picorv32())
//!     .run();
//!
//! assert_eq!(report.runs.len(), 4);
//! assert_eq!(report.failures(), 0);
//! println!("{}", report.render());
//! ```
//!
//! Errors are captured per record, so one bad program cannot take down
//! a batch; callers that want a hard stop use [`BatchRunner::try_run`],
//! which surfaces the first failure as a typed [`WorkloadError`].

use std::fmt;
use std::str::FromStr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, PipelineStats, SimBuilder, SimError};
use rayon::prelude::*;
use rv32::{PicoRv32Model, VexRiscvModel};

use crate::{Prepared, Workload, WorkloadError};

/// Default per-run step/cycle budget (the bench helpers in
/// `art9-bench` use this same constant).
pub const DEFAULT_MAX_STEPS: u64 = 500_000_000;

/// Which simulated machine executes a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// The ART-9 ternary processor (sources go through the RV32→ART-9
    /// compiling framework first).
    Art9,
    /// RV32 substrate under the PicoRV32 (non-pipelined) cycle model.
    Rv32PicoRv32,
    /// RV32 substrate under the VexRiscv (5-stage) cycle model.
    Rv32VexRiscv,
}

/// One simulator configuration a batch executes every workload under:
/// a [`Machine`] plus, for ART-9, the [`Backend`] and its forwarding
/// setting, as plain named fields.
///
/// `backend` and `forwarding` are carried (and participate in
/// equality) for every machine but only drive execution on
/// [`Machine::Art9`]; the constructors normalize them to
/// `Backend::Functional` / `true` elsewhere, so configs built through
/// constructors and parsed from names always compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    /// The simulated machine.
    pub machine: Machine,
    /// ART-9 execution backend (ignored for RV32 machines).
    pub backend: Backend,
    /// Pipeline forwarding multiplexers (meaningful only for
    /// [`Backend::Pipelined`]; the paper's design point is `true`).
    pub forwarding: bool,
}

impl ExecConfig {
    /// The full comparison matrix of the paper: every ART-9 simulator
    /// (functional, pipeline with and without forwarding, and the
    /// direct-threaded fast path) and both binary baselines.
    pub const FULL_MATRIX: [ExecConfig; 6] = [
        ExecConfig::art9(Backend::Functional),
        ExecConfig::art9_pipelined(true),
        ExecConfig::art9_pipelined(false),
        ExecConfig::art9(Backend::Threaded),
        ExecConfig::rv32_picorv32(),
        ExecConfig::rv32_vexriscv(),
    ];

    /// An ART-9 configuration under `backend` (forwarding on, the
    /// paper's design point — see [`ExecConfig::art9_pipelined`] to
    /// turn it off).
    pub const fn art9(backend: Backend) -> ExecConfig {
        ExecConfig {
            machine: Machine::Art9,
            backend,
            forwarding: true,
        }
    }

    /// The ART-9 cycle-accurate 5-stage pipeline, with or without
    /// forwarding multiplexers.
    pub const fn art9_pipelined(forwarding: bool) -> ExecConfig {
        ExecConfig {
            machine: Machine::Art9,
            backend: Backend::Pipelined,
            forwarding,
        }
    }

    /// RV32 substrate under the PicoRV32 cycle model.
    pub const fn rv32_picorv32() -> ExecConfig {
        ExecConfig {
            machine: Machine::Rv32PicoRv32,
            backend: Backend::Functional,
            forwarding: true,
        }
    }

    /// RV32 substrate under the VexRiscv cycle model.
    pub const fn rv32_vexriscv() -> ExecConfig {
        ExecConfig {
            machine: Machine::Rv32VexRiscv,
            backend: Backend::Functional,
            forwarding: true,
        }
    }

    /// Stable display name; [`FromStr`] parses these back.
    pub fn name(&self) -> &'static str {
        match self.machine {
            Machine::Art9 => match (self.backend, self.forwarding) {
                (Backend::Functional, _) => "art9-functional",
                (Backend::Threaded, _) => "art9-threaded",
                (Backend::Reference, _) => "art9-reference",
                (Backend::Pipelined, true) => "art9-pipelined",
                (Backend::Pipelined, false) => "art9-pipelined-nofwd",
            },
            Machine::Rv32PicoRv32 => "rv32-picorv32",
            Machine::Rv32VexRiscv => "rv32-vexriscv",
        }
    }

    /// Whether this configuration executes on the ART-9 machine.
    pub fn is_art9(&self) -> bool {
        self.machine == Machine::Art9
    }
}

impl fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ExecConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<ExecConfig, String> {
        Ok(match s {
            "art9-functional" => ExecConfig::art9(Backend::Functional),
            "art9-threaded" => ExecConfig::art9(Backend::Threaded),
            "art9-reference" => ExecConfig::art9(Backend::Reference),
            "art9-pipelined" => ExecConfig::art9_pipelined(true),
            "art9-pipelined-nofwd" => ExecConfig::art9_pipelined(false),
            "rv32-picorv32" => ExecConfig::rv32_picorv32(),
            "rv32-vexriscv" => ExecConfig::rv32_vexriscv(),
            other => {
                return Err(format!(
                    "unknown config {other:?} (expected art9-functional, art9-threaded, \
                     art9-reference, art9-pipelined, art9-pipelined-nofwd, rv32-picorv32 \
                     or rv32-vexriscv)"
                ))
            }
        })
    }
}

/// The result of one workload under one configuration.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name (e.g. `"bubble-sort"`).
    pub workload: &'static str,
    /// Configuration the run executed under.
    pub config: ExecConfig,
    /// Simulated clock cycles, when the configuration has a timing
    /// model (`None` for the functional reference simulator).
    pub cycles: Option<u64>,
    /// Instructions retired.
    pub instructions: u64,
    /// Full pipeline accounting for ART-9 pipelined runs.
    pub pipeline: Option<PipelineStats>,
    /// Measured switching activity, for ART-9 runs when the runner was
    /// built with [`BatchRunner::measure_energy`] (flip counts are
    /// backend-independent; see `docs/ENERGY.md`).
    pub energy: Option<EnergyAccounting>,
    /// Host wall-clock time spent simulating (excludes preparation).
    pub host_time: Duration,
    /// `Ok` when the run completed and its output region verified;
    /// otherwise why not ([`WorkloadError::Verify`] for a mismatch).
    pub outcome: Result<(), WorkloadError>,
}

impl RunRecord {
    /// Cycles per instruction. `None` when the run had no timing model
    /// or retired no instructions (a CPI would be meaningless).
    pub fn cpi(&self) -> Option<f64> {
        match (self.cycles, self.instructions) {
            (Some(c), n) if n > 0 => Some(c as f64 / n as f64),
            _ => None,
        }
    }
}

/// Aggregate of a whole batch.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// The input seed the runner reseeded its workloads with, when one
    /// was set (see [`BatchRunner::seed`]).
    pub seed: Option<u64>,
    /// Every run, in workload-major, config-minor submission order.
    pub runs: Vec<RunRecord>,
    /// Wall-clock time for the whole batch (preparation + execution).
    pub wall_time: Duration,
    /// Sum of per-workload host time spent in the prepare stage
    /// (parsing, translation, the shared RV32 functional check).
    pub prepare_host_time: Duration,
    /// Worker threads available to the runner.
    pub threads: usize,
}

impl BatchReport {
    /// The record for one (workload, config) cell of the matrix.
    pub fn find(&self, workload: &str, config: ExecConfig) -> Option<&RunRecord> {
        self.runs
            .iter()
            .find(|r| r.workload == workload && r.config == config)
    }

    /// Number of runs that did not verify.
    pub fn failures(&self) -> usize {
        self.runs.iter().filter(|r| r.outcome.is_err()).count()
    }

    /// The first non-verified run's typed error, in workload-major
    /// order ([`None`] when every run verified). This is what
    /// [`BatchRunner::try_run`] surfaces.
    fn first_error(&self) -> Option<WorkloadError> {
        self.runs.iter().find_map(|r| r.outcome.clone().err())
    }

    /// Sum of simulated cycles over all timed runs.
    fn total_cycles(&self) -> u64 {
        self.runs.iter().filter_map(|r| r.cycles).sum()
    }

    /// Sum of retired instructions over all runs.
    pub fn total_instructions(&self) -> u64 {
        self.runs.iter().map(|r| r.instructions).sum()
    }

    /// Sum of per-run host simulation time (excluding preparation).
    fn total_host_time(&self) -> Duration {
        self.runs.iter().map(|r| r.host_time).sum()
    }

    /// Ratio of serial-equivalent host time (preparation + every run)
    /// to batch wall time. Values above 1.0 mean the parallel fan-out
    /// paid off.
    ///
    /// Returns `0.0` for an empty report or a zero-duration batch
    /// (a ratio would be meaningless) — never `NaN` or `inf`.
    fn parallel_speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if self.runs.is_empty() || wall <= 0.0 {
            return 0.0;
        }
        (self.total_host_time() + self.prepare_host_time).as_secs_f64() / wall
    }

    /// Simulated cycles per host second over the whole batch.
    ///
    /// Returns `0.0` for an empty report or a zero-duration batch —
    /// never `NaN` or `inf`.
    fn cycles_per_second(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if self.runs.is_empty() || wall <= 0.0 {
            return 0.0;
        }
        self.total_cycles() as f64 / wall
    }

    /// Renders the per-run table plus the aggregate footer.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<14} {:<20} {:>12} {:>13} {:>6} {:>10}  outcome",
            "workload", "config", "cycles", "instructions", "CPI", "host"
        );
        for r in &self.runs {
            let cycles = r.cycles.map_or_else(|| "-".to_string(), |c| c.to_string());
            let cpi = r
                .cpi()
                .map_or_else(|| "-".to_string(), |v| format!("{v:.2}"));
            let outcome = match &r.outcome {
                Ok(()) => "ok".to_string(),
                Err(WorkloadError::Verify(e)) => format!("VERIFY: {e}"),
                Err(e) => format!("ERROR: {e}"),
            };
            let _ = writeln!(
                out,
                "{:<14} {:<20} {:>12} {:>13} {:>6} {:>8.1}ms  {}",
                r.workload,
                r.config.name(),
                cycles,
                r.instructions,
                cpi,
                r.host_time.as_secs_f64() * 1e3,
                outcome
            );
        }
        let _ = writeln!(
            out,
            "{} runs, {} failed | {} simulated cycles, {} instructions",
            self.runs.len(),
            self.failures(),
            self.total_cycles(),
            self.total_instructions(),
        );
        let _ = writeln!(
            out,
            "wall {:.1} ms on {} threads (serial-equivalent {:.1} ms = {:.1} prepare + {:.1} run, speedup {:.2}x, {:.2e} cycles/s)",
            self.wall_time.as_secs_f64() * 1e3,
            self.threads,
            (self.prepare_host_time + self.total_host_time()).as_secs_f64() * 1e3,
            self.prepare_host_time.as_secs_f64() * 1e3,
            self.total_host_time().as_secs_f64() * 1e3,
            self.parallel_speedup(),
            self.cycles_per_second(),
        );
        out
    }
}

/// One workload after stage 1: prepared once (every ART-9 config of
/// the matrix fetches from the same `Arc`'d predecoded image instead of
/// copying or re-decoding per run) and functionally checked once on
/// RV32, shared by every configuration that runs it.
struct Entry {
    workload: Workload,
    prepared: Result<Prepared, WorkloadError>,
    /// Outcome of the single functional RV32 run + verification shared
    /// by every RV32 timing config (`None` when the batch has no RV32
    /// config or the source did not parse).
    rv_functional: Option<Result<(), WorkloadError>>,
}

/// Executes many workloads under many simulator configurations in
/// parallel. See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    workloads: Vec<Workload>,
    configs: Vec<ExecConfig>,
    max_steps: u64,
    seed: Option<u64>,
    measure_energy: bool,
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchRunner {
    /// An empty runner with the default step budget and no reseeding.
    pub fn new() -> Self {
        BatchRunner {
            workloads: Vec::new(),
            configs: Vec::new(),
            max_steps: DEFAULT_MAX_STEPS,
            seed: None,
            measure_energy: false,
        }
    }

    /// Adds one workload.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workloads.push(w);
        self
    }

    /// Adds many workloads.
    pub fn workloads(mut self, ws: impl IntoIterator<Item = Workload>) -> Self {
        self.workloads.extend(ws);
        self
    }

    /// Adds one simulator configuration.
    pub fn config(mut self, c: ExecConfig) -> Self {
        self.configs.push(c);
        self
    }

    /// Adds many simulator configurations.
    pub fn configs(mut self, cs: impl IntoIterator<Item = ExecConfig>) -> Self {
        self.configs.extend(cs);
        self
    }

    /// Overrides the per-run step/cycle budget.
    pub fn max_steps(mut self, n: u64) -> Self {
        self.max_steps = n;
        self
    }

    /// Attaches an [`EnergyAccounting`] to every ART-9 run,
    /// so each record carries the measured trit-flip activity of its
    /// execution (`RunRecord::energy`). Off by default: counting the
    /// flips of every retired instruction slows each ART-9 run, although
    /// the shared handle is locked only once per run, not once per
    /// instruction.
    pub fn measure_energy(mut self, on: bool) -> Self {
        self.measure_energy = on;
        self
    }

    /// Sets a deterministic input seed: before preparation, every
    /// workload with a [`crate::Generator`] is rebuilt with inputs
    /// drawn from a sub-seed derived from `(seed, workload index)`.
    /// The derivation is position-based and the fan-out collects in
    /// submission order, so the aggregate report is bit-identical
    /// run-to-run for a fixed seed, however `rayon` schedules the
    /// work.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Runs the whole workload × config matrix in parallel.
    ///
    /// Never panics on a failing run: errors are captured per record
    /// as [`RunRecord::outcome`] so one bad program cannot take down a
    /// batch.
    pub fn run(&self) -> BatchReport {
        let start = Instant::now();
        let needs_rv32 = self.configs.iter().any(|c| !c.is_art9());
        let max_steps = self.max_steps;

        // Reseed (deterministically, by position) before fan-out.
        let workloads: Vec<Workload> = match self.seed {
            None => self.workloads.clone(),
            Some(seed) => self
                .workloads
                .iter()
                .enumerate()
                .map(|(i, w)| w.with_input_seed(crate::split_seed(seed, i as u64)))
                .collect(),
        };

        // Stage 1: prepare every workload once, in parallel.
        let entries: Vec<(Arc<Entry>, Duration)> = workloads
            .into_par_iter()
            .map(|w| {
                let t0 = Instant::now();
                let prepared = crate::prepare(&w);
                let rv_functional = match (&prepared, needs_rv32) {
                    (Ok(p), true) => {
                        let mut machine = rv32::Machine::new(&p.rv32);
                        Some(match machine.run(max_steps) {
                            Err(e) => Err(WorkloadError::Rv32 {
                                workload: w.name.to_string(),
                                detail: e.to_string(),
                            }),
                            Ok(_) => w.verify_rv32(&machine),
                        })
                    }
                    _ => None,
                };
                let entry = Arc::new(Entry {
                    workload: w,
                    prepared,
                    rv_functional,
                });
                (entry, t0.elapsed())
            })
            .collect();
        let prepare_host_time: Duration = entries.iter().map(|(_, d)| *d).sum();
        let entries: Vec<Arc<Entry>> = entries.into_iter().map(|(e, _)| e).collect();

        // Stage 2: the cross product, in parallel. Records come back in
        // workload-major order, but work is *submitted* config-major so
        // that one heavy workload's runs spread across the contiguous
        // per-thread chunks instead of piling onto a single worker.
        let n_cfg = self.configs.len();
        let pairs: Vec<(usize, Arc<Entry>, ExecConfig)> = self
            .configs
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| {
                entries
                    .iter()
                    .enumerate()
                    .map(move |(wi, e)| (wi * n_cfg + ci, Arc::clone(e), *c))
            })
            .collect();
        let measure_energy = self.measure_energy;
        let mut indexed: Vec<(usize, RunRecord)> = pairs
            .into_par_iter()
            .map(|(idx, p, config)| (idx, execute(&p, config, max_steps, measure_energy)))
            .collect();
        indexed.sort_by_key(|(idx, _)| *idx);
        let runs = indexed.into_iter().map(|(_, r)| r).collect();

        BatchReport {
            seed: self.seed,
            runs,
            wall_time: start.elapsed(),
            prepare_host_time,
            threads: rayon::current_num_threads(),
        }
    }

    /// Like [`BatchRunner::run`], but fails fast at the API level: the
    /// report is returned only when **every** run verified; otherwise
    /// the first failure (workload-major order) comes back as a typed
    /// [`WorkloadError`]. The whole matrix still executes either way —
    /// this wraps the outcome, it does not abort mid-batch.
    ///
    /// # Errors
    ///
    /// The first run whose outcome was not `Ok`.
    pub fn try_run(&self) -> Result<BatchReport, WorkloadError> {
        let report = self.run();
        match report.first_error() {
            None => Ok(report),
            Some(e) => Err(e),
        }
    }
}

/// Runs one prepared workload under one configuration.
fn execute(p: &Entry, config: ExecConfig, max_steps: u64, measure_energy: bool) -> RunRecord {
    let name = p.workload.name;
    // Failure record; `host_time` is whatever the simulator burned
    // before erroring (zero when it never ran).
    let fail = |error: WorkloadError, host_time: Duration| RunRecord {
        workload: name,
        config,
        cycles: None,
        instructions: 0,
        pipeline: None,
        energy: None,
        host_time,
        outcome: Err(error),
    };

    let prepared = match &p.prepared {
        Ok(prepared) => prepared,
        Err(e) => return fail(e.clone(), Duration::ZERO),
    };

    match config.machine {
        Machine::Art9 => {
            // The prepare stage decoded the program once; all ART-9
            // configs fetch from that shared image. One backend-generic
            // code path serves every ART-9 configuration: construction
            // through SimBuilder, execution through `Core::run`,
            // timing through `Core::pipeline_stats`.
            let image = match &prepared.image {
                Ok(image) => image,
                Err(e) => return fail(e.clone(), Duration::ZERO),
            };
            let sim_error = |source: SimError| WorkloadError::Sim {
                workload: name.to_string(),
                config: config.name(),
                source,
            };
            let start = Instant::now();
            let mut builder = SimBuilder::new(image)
                .backend(config.backend)
                .forwarding(config.forwarding);
            let energy = measure_energy.then(|| Arc::new(Mutex::new(EnergyAccounting::new())));
            if let Some(e) = &energy {
                builder = builder.observer(e.clone());
            }
            let mut core = builder.build();
            let summary = match core.run(max_steps) {
                Ok(s) => s,
                Err(e) => return fail(sim_error(e), start.elapsed()),
            };
            let host_time = start.elapsed();
            let outcome = p.workload.verify_art9(core.state());
            let stats = core.pipeline_stats();
            RunRecord {
                workload: name,
                config,
                cycles: stats.map(|s| s.cycles),
                instructions: summary.retired,
                pipeline: stats,
                energy: energy.map(|e| e.lock().expect("observer lock").clone()),
                host_time,
                outcome,
            }
        }
        Machine::Rv32PicoRv32 | Machine::Rv32VexRiscv => {
            // The functional run + verification happened once in the
            // prepare stage; here only the requested cycle model runs.
            // A mismatch still gets its cycle count; any other failure
            // has none.
            let functional = p
                .rv_functional
                .as_ref()
                .expect("stage 1 runs the RV32 check when the batch has an RV32 config");
            let outcome = match functional {
                Err(e) if !matches!(e, WorkloadError::Verify(_)) => {
                    return fail(e.clone(), Duration::ZERO)
                }
                o => o.clone(),
            };
            let rv = &prepared.rv32;
            let start = Instant::now();
            let timing = match config.machine {
                Machine::Rv32PicoRv32 => {
                    rv32::simulate_cycles(rv, &mut PicoRv32Model::new(), max_steps)
                }
                _ => rv32::simulate_cycles(rv, &mut VexRiscvModel::new(), max_steps),
            };
            let report = match timing {
                Ok(r) => r,
                Err(e) => {
                    return fail(
                        WorkloadError::Rv32 {
                            workload: name.to_string(),
                            detail: e.to_string(),
                        },
                        start.elapsed(),
                    )
                }
            };
            RunRecord {
                workload: name,
                config,
                cycles: Some(report.cycles),
                instructions: report.instructions,
                pipeline: None,
                energy: None,
                host_time: start.elapsed(),
                outcome,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bubble_sort, dot_product};
    use art9_sim::Core;

    fn small_batch() -> BatchReport {
        BatchRunner::new()
            .workload(bubble_sort(8))
            .workload(dot_product(6))
            .configs([
                ExecConfig::art9_pipelined(true),
                ExecConfig::rv32_picorv32(),
            ])
            .max_steps(10_000_000)
            .run()
    }

    #[test]
    fn two_by_two_matrix_all_verified() {
        let report = small_batch();
        assert_eq!(report.runs.len(), 4);
        assert_eq!(report.failures(), 0, "{}", report.render());
        // Workload-major order is deterministic.
        let names: Vec<_> = report.runs.iter().map(|r| (r.workload, r.config)).collect();
        assert_eq!(
            names,
            vec![
                ("bubble-sort", ExecConfig::art9_pipelined(true)),
                ("bubble-sort", ExecConfig::rv32_picorv32()),
                ("dot-product", ExecConfig::art9_pipelined(true)),
                ("dot-product", ExecConfig::rv32_picorv32()),
            ]
        );
    }

    #[test]
    fn config_names_round_trip_through_from_str() {
        for config in ExecConfig::FULL_MATRIX {
            let parsed: ExecConfig = config.name().parse().expect("name parses back");
            assert_eq!(parsed, config, "{}", config.name());
            assert_eq!(config.to_string(), config.name());
        }
        // The reference backend is expressible too (the old enum could
        // not name it).
        let reference: ExecConfig = "art9-reference".parse().unwrap();
        assert_eq!(reference.backend, Backend::Reference);
        assert!("art9-quantum".parse::<ExecConfig>().is_err());
    }

    #[test]
    fn batch_results_match_direct_runs() {
        let report = small_batch();
        // Direct pipelined run of bubble_sort(8) must agree with the
        // batch record (simulators are deterministic).
        let w = bubble_sort(8);
        let t = art9_compiler::translate(&w.rv32_program().unwrap()).unwrap();
        let mut core = SimBuilder::new(&t.program).build_pipelined();
        core.run(10_000_000).unwrap();
        let stats = core.pipeline_stats().expect("pipelined backend");
        let r = &report.runs[0];
        assert_eq!(r.cycles, Some(stats.cycles));
        assert_eq!(r.instructions, stats.instructions);
        assert_eq!(r.pipeline.unwrap(), stats);
    }

    #[test]
    fn full_matrix_functional_has_no_cycles() {
        let report = BatchRunner::new()
            .workload(dot_product(4))
            .configs(ExecConfig::FULL_MATRIX)
            .max_steps(10_000_000)
            .run();
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.failures(), 0, "{}", report.render());
        let functional = &report.runs[0];
        assert_eq!(functional.config, ExecConfig::art9(Backend::Functional));
        assert_eq!(functional.cycles, None);
        assert!(functional.instructions > 0);
        // No-forwarding pipeline can never be faster than forwarding.
        let fwd = report.runs[1].cycles.unwrap();
        let nofwd = report.runs[2].cycles.unwrap();
        assert!(nofwd >= fwd, "forwarding off ({nofwd}) beat on ({fwd})");
        // The threaded backend is architectural too: no timing model,
        // same retirement count as the functional reference.
        let threaded = &report.runs[3];
        assert_eq!(threaded.config, ExecConfig::art9(Backend::Threaded));
        assert_eq!(threaded.cycles, None);
        assert_eq!(threaded.instructions, functional.instructions);
    }

    #[test]
    fn seeded_batches_are_bit_identical_run_to_run() {
        let build = || {
            BatchRunner::new()
                .workload(bubble_sort(8))
                .workload(dot_product(6))
                .configs([
                    ExecConfig::art9(Backend::Functional),
                    ExecConfig::art9_pipelined(true),
                ])
                .max_steps(10_000_000)
                .seed(1234)
        };
        let a = build().run();
        let b = build().run();
        assert_eq!(a.seed, Some(1234));
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.workload, y.workload);
            assert_eq!(x.config, y.config);
            assert_eq!(x.cycles, y.cycles, "{}/{}", x.workload, x.config.name());
            assert_eq!(x.instructions, y.instructions);
            assert_eq!(x.outcome, y.outcome);
        }
    }

    #[test]
    fn different_seeds_change_the_inputs_but_still_verify() {
        let run = |seed| {
            BatchRunner::new()
                .workload(bubble_sort(8))
                .config(ExecConfig::art9_pipelined(true))
                .max_steps(10_000_000)
                .seed(seed)
                .run()
        };
        let a = run(1);
        let b = run(2);
        assert_eq!(a.failures(), 0, "{}", a.render());
        assert_eq!(b.failures(), 0, "{}", b.render());
        // Fresh inputs steer different branch behaviour through the
        // sort, so the cycle counts differ.
        assert_ne!(a.runs[0].cycles, b.runs[0].cycles);
    }

    #[test]
    fn errors_are_captured_not_propagated() {
        let mut w = bubble_sort(4);
        w.source = "this is not assembly".into();
        let report = BatchRunner::new()
            .workload(w)
            .workload(dot_product(4))
            .config(ExecConfig::rv32_picorv32())
            .max_steps(1_000_000)
            .run();
        assert_eq!(report.runs.len(), 2);
        assert_eq!(report.failures(), 1);
        assert!(matches!(
            report.runs[0].outcome,
            Err(WorkloadError::Parse { .. })
        ));
        assert_eq!(report.runs[1].outcome, Ok(()));
    }

    #[test]
    fn try_run_surfaces_the_first_typed_error() {
        let mut bad = bubble_sort(4);
        bad.source = "this is not assembly".into();
        let err = BatchRunner::new()
            .workload(bad)
            .config(ExecConfig::rv32_picorv32())
            .max_steps(1_000_000)
            .try_run()
            .expect_err("a parse failure must surface");
        assert!(matches!(err, WorkloadError::Parse { .. }));
        assert_eq!(err.workload(), "bubble-sort");

        // A clean batch passes the report through.
        let report = BatchRunner::new()
            .workload(dot_product(4))
            .config(ExecConfig::art9(Backend::Functional))
            .max_steps(10_000_000)
            .try_run()
            .expect("clean batch");
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn try_run_maps_budget_exhaustion_to_sim_timeout() {
        let err = BatchRunner::new()
            .workload(bubble_sort(8))
            .config(ExecConfig::art9(Backend::Functional))
            .max_steps(10)
            .try_run()
            .expect_err("ten steps cannot finish a sort");
        match err {
            WorkloadError::Sim { config, source, .. } => {
                assert_eq!(config, "art9-functional");
                assert_eq!(source, SimError::Timeout { limit: 10 });
            }
            other => panic!("expected Sim timeout, got {other}"),
        }
    }

    #[test]
    fn measure_energy_attaches_activity_to_art9_records() {
        let report = BatchRunner::new()
            .workload(bubble_sort(8))
            .configs([
                ExecConfig::art9_pipelined(true),
                ExecConfig::rv32_picorv32(),
            ])
            .max_steps(10_000_000)
            .measure_energy(true)
            .run();
        assert_eq!(report.failures(), 0, "{}", report.render());
        let art9 = &report.runs[0];
        let totals = art9
            .energy
            .as_ref()
            .expect("ART-9 run carries measured activity")
            .totals();
        assert_eq!(totals.retired, art9.instructions);
        assert!(totals.regfile + totals.tdm + totals.fetch + totals.alu > 0);
        // Binary baselines have no trit-flip model.
        assert!(report.runs[1].energy.is_none());

        // Off by default: the hot path stays observer-free.
        let quiet = BatchRunner::new()
            .workload(bubble_sort(8))
            .config(ExecConfig::art9(Backend::Functional))
            .max_steps(10_000_000)
            .run();
        assert!(quiet.runs[0].energy.is_none());
    }

    #[test]
    fn empty_and_zero_duration_reports_yield_finite_metrics() {
        // An empty report (no runs) must not produce NaN/inf.
        let empty = BatchReport {
            seed: None,
            runs: Vec::new(),
            wall_time: Duration::ZERO,
            prepare_host_time: Duration::ZERO,
            threads: 1,
        };
        assert_eq!(empty.parallel_speedup(), 0.0);
        assert_eq!(empty.cycles_per_second(), 0.0);
        assert!(empty.render().contains("0 runs"));

        // Zero wall time with runs present (degenerate clock) is also
        // guarded.
        let mut zero_wall = small_batch();
        zero_wall.wall_time = Duration::ZERO;
        assert_eq!(zero_wall.parallel_speedup(), 0.0);
        assert_eq!(zero_wall.cycles_per_second(), 0.0);
        assert!(zero_wall.parallel_speedup().is_finite());

        // A record that retired nothing has no CPI rather than NaN.
        let r = RunRecord {
            workload: "empty",
            config: ExecConfig::art9(Backend::Functional),
            cycles: Some(0),
            instructions: 0,
            pipeline: None,
            energy: None,
            host_time: Duration::ZERO,
            outcome: Ok(()),
        };
        assert_eq!(r.cpi(), None);
    }

    #[test]
    fn render_mentions_every_run_and_totals() {
        let report = small_batch();
        let text = report.render();
        assert!(text.contains("bubble-sort"));
        assert!(text.contains("dot-product"));
        assert!(text.contains("art9-pipelined"));
        assert!(text.contains("rv32-picorv32"));
        assert!(text.contains("4 runs, 0 failed"));
        assert!(report.total_cycles() > 0);
        assert!(report.total_instructions() > 0);
    }
}
