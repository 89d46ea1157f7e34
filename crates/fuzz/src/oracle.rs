//! Lockstep co-simulation oracles.
//!
//! Every generated program runs through seven program-level oracles:
//! the functional simulator against the per-trit
//! [`ReferenceSim`](art9_sim::ReferenceSim) and against the
//! direct-threaded [`ThreadedSim`](art9_sim::ThreadedSim), differential
//! energy accounting, sliced-and-migrated execution, the pipelined
//! simulator with forwarding on and off, and the toolchain roundtrip
//! (encode → decode → disassemble → reassemble). The value-level
//! oracles (arithmetic, SIMD lanes) are one table of
//! `(op, packed, reference)` cases checked on random operands. Any
//! disagreement is reported as a [`Divergence`] naming the oracle, the
//! step, and the first differing piece of state.
//!
//! The functional/reference and functional/threaded pairs run **step
//! for step** through the generic [`lockstep`] entry point — any two
//! [`Core`] backends, `pc`, the nine TRF registers and the halt state
//! compared after every instruction, TDM and retirement counts at
//! halt. The threaded oracle then re-runs the program free-running, so
//! its fused superblock dispatch path gets the same differential
//! coverage as its per-instruction stepping path. The fused run, the
//! sliced run and the pipelined runs are compared at halt by one
//! final-state comparison (halt reason, retired-instruction count,
//! instruction mix, registers and TDM); the pipeline only exposes
//! architectural state at retirement.
//!
//! Every simulator here is built through
//! [`SimBuilder`](art9_sim::SimBuilder) — the oracles contain no
//! backend-specific construction.

use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use art9_isa::{assemble, decode, disassemble_word, encode, Instruction, Program, ALL_REGS};
use art9_sim::observers::{EnergyAccounting, OpcodeActivity};
use art9_sim::{
    Backend, Budget, Checkpoint, Core, CoreState, FunctionalSim, HaltReason, PredecodedProgram,
    SimBuilder,
};
use ternary::simd::{self, LaneWeights, PackedWeights, Word9xN};
use ternary::{arith, Trit, Trits, Word9};

use crate::gen::MIN_TDM_WORDS;
use crate::rng::FuzzRng;
use crate::FuzzConfig;

/// TDM size every oracle runs with: covers the generator's base window
/// and matches the default simulator configuration.
pub const ORACLE_TDM_WORDS: usize = if MIN_TDM_WORDS > 256 {
    MIN_TDM_WORDS
} else {
    256
};

/// The oracles a program runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Functional simulator vs the per-trit reference, in lockstep.
    FunctionalVsReference,
    /// Functional simulator vs the direct-threaded backend: a
    /// per-instruction lockstep run, then a fresh free run through the
    /// fused superblock path compared at halt.
    FunctionalVsThreaded,
    /// Pipelined simulator (forwarding on) vs functional, at halt.
    PipelinedForwarding,
    /// Pipelined simulator (forwarding off) vs functional, at halt.
    PipelinedNoForwarding,
    /// Trit-flip energy accounting: the same program measured on the
    /// functional simulator with the packed (`flips_from`) flip kernel
    /// and on the per-trit reference simulator with the tritwise flip
    /// reference — every per-opcode, per-structure flip counter must be
    /// bit-identical.
    Energy,
    /// The service scheduler's execution model, checked differentially:
    /// a run sliced on random [`Budget::Retired`] quanta and *migrated*
    /// between architectural backends at random slice boundaries
    /// (checkpoint-text roundtrip, shared energy observer) must be
    /// bit-identical to a straight-line run — final state, halt reason,
    /// retirement count, instruction mix and per-opcode energy
    /// counters.
    SliceMigrate,
    /// encode → decode → disassemble → reassemble roundtrip.
    ToolchainRoundtrip,
    /// Packed bitplane kernels vs the tritwise reference algorithms.
    Arithmetic,
    /// Bitplane-SIMD lane subsystem ([`Word9xN`]) vs the per-trit
    /// lanewise references in `ternary::arith`: pack/unpack,
    /// lane-parallel compare and the carry-save ternary-weight matvec
    /// on adversarial lane counts (word-boundary ±1, up to five plane
    /// words), ±3^k lane values and mixed-sign weight columns.
    Simd,
    /// RV32→ART-9 translation vs the `rv32` machine, in lockstep at
    /// RV32-instruction granularity (see [`crate::CoSim`]). Runs on
    /// generated RV32 programs, not ART-9 ones.
    CompilerLockstep,
}

impl Oracle {
    /// Every oracle, in campaign order.
    pub const ALL: [Oracle; 10] = [
        Oracle::FunctionalVsReference,
        Oracle::FunctionalVsThreaded,
        Oracle::Energy,
        Oracle::SliceMigrate,
        Oracle::PipelinedForwarding,
        Oracle::PipelinedNoForwarding,
        Oracle::ToolchainRoundtrip,
        Oracle::Arithmetic,
        Oracle::Simd,
        Oracle::CompilerLockstep,
    ];

    /// Stable display name (used in replay files, reports, and the
    /// `--oracle` CLI filter).
    pub fn name(&self) -> &'static str {
        match self {
            Oracle::FunctionalVsReference => "functional-vs-reference",
            Oracle::FunctionalVsThreaded => "functional-vs-threaded",
            Oracle::Energy => "energy",
            Oracle::SliceMigrate => "slice-migrate",
            Oracle::PipelinedForwarding => "pipelined-fwd",
            Oracle::PipelinedNoForwarding => "pipelined-nofwd",
            Oracle::ToolchainRoundtrip => "toolchain-roundtrip",
            Oracle::Arithmetic => "arithmetic",
            Oracle::Simd => "simd",
            Oracle::CompilerLockstep => "compiler-lockstep",
        }
    }

    /// `true` for the rows of the value-oracle table. They check random
    /// operands, not the generated program, so their findings have no
    /// program replay: the failing operands are in the divergence
    /// detail and the case reproduces from `--seed`/`--iterations`.
    pub fn is_value_level(self) -> bool {
        VALUE_ORACLES.iter().any(|row| row.oracle() == self)
    }

    /// The divergence this oracle reports when `result` failed.
    pub(crate) fn verdict(self, result: Result<(), Finding>) -> Option<Divergence> {
        result.err().map(|f| Divergence {
            oracle: self,
            kind: f.kind,
            detail: f.detail,
        })
    }
}

impl std::str::FromStr for Oracle {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Oracle::ALL
            .into_iter()
            .find(|o| o.name() == s)
            .ok_or_else(|| {
                let names: Vec<_> = Oracle::ALL.iter().map(|o| o.name()).collect();
                format!(
                    "unknown oracle {s:?} (expected one of: {})",
                    names.join(", ")
                )
            })
    }
}

/// What went wrong in a [`Divergence`]. The minimizer keeps an edit
/// only when the reduced program fails with the same oracle *and* the
/// same kind, so a NOP that breaks the generated control structure
/// cannot trade a real finding for a fault it caused itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Both sides ran to the comparison and their results differ.
    Disagreement,
    /// A side did not halt within its budget.
    BudgetExhausted,
    /// The side the oracle trusts faulted: the functional baseline, or
    /// the first core of a [`lockstep`] pair.
    BaselineFault,
    /// The side under test faulted.
    CandidateFault,
    /// The compiler-lockstep comparison could not be set up or its RV32
    /// machine faulted: a generator or harness defect, not a backend's.
    Harness,
}

/// One observed disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The oracle that caught it.
    pub oracle: Oracle,
    /// What went wrong.
    pub kind: DivergenceKind,
    /// Human-readable description of the first difference.
    pub detail: String,
}

impl Divergence {
    /// Phrase every budget-exhaustion report carries.
    pub(crate) const BUDGET_MARKER: &'static str = "exceeded the budget of";
}

/// A failed check before [`Oracle::verdict`] names its oracle. A plain
/// `String` detail converts into a [`DivergenceKind::Disagreement`].
#[derive(Debug)]
pub(crate) struct Finding {
    pub(crate) kind: DivergenceKind,
    pub(crate) detail: String,
}

impl Finding {
    pub(crate) fn new(kind: DivergenceKind, detail: String) -> Self {
        Self { kind, detail }
    }

    /// The same finding, its detail prefixed with `context`.
    pub(crate) fn context(self, context: impl std::fmt::Display) -> Self {
        Self {
            kind: self.kind,
            detail: format!("{context}: {}", self.detail),
        }
    }
}

impl From<String> for Finding {
    fn from(detail: String) -> Self {
        Self::new(DivergenceKind::Disagreement, detail)
    }
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.oracle.name(), self.detail)
    }
}

/// Per-program oracle statistics (folded into the fuzz report).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleStats {
    /// Instructions the functional simulator executed.
    pub functional_instructions: u64,
    /// Instructions the threaded backend retired (stepped + fused runs).
    pub threaded_instructions: u64,
    /// Cycles the two pipelined runs consumed together.
    pub pipelined_cycles: u64,
    /// Individual roundtrip checks performed.
    pub roundtrip_checks: u64,
    /// Individual arithmetic cross-checks performed.
    pub arith_checks: u64,
    /// Individual SIMD-lane cross-checks performed (one per lane-op
    /// comparison against its tritwise lanewise reference).
    pub simd_checks: u64,
    /// Trit flips cross-checked by the energy oracle (packed total;
    /// the tritwise side counted the same number when the oracle
    /// passed).
    pub energy_flips: u64,
    /// Slices the slice-migrate oracle executed.
    pub slice_migrate_slices: u64,
    /// Cross-backend checkpoint migrations the slice-migrate oracle
    /// performed.
    pub slice_migrate_migrations: u64,
    /// RV32 instructions the compiler-lockstep oracle retired, once per
    /// program (its backend passes replay the same RV32 path).
    pub cosim_rv32_instructions: u64,
    /// ART-9 instructions the compiler-lockstep oracle retired, summed
    /// over its functional, threaded and pipelined passes.
    pub cosim_art9_instructions: u64,
    /// Sync points (RV32-instruction boundaries) compared, summed over
    /// the same passes.
    pub cosim_sync_points: u64,
}

impl OracleStats {
    /// Accumulates another program's counters.
    pub fn absorb(&mut self, other: &OracleStats) {
        self.functional_instructions += other.functional_instructions;
        self.threaded_instructions += other.threaded_instructions;
        self.pipelined_cycles += other.pipelined_cycles;
        self.roundtrip_checks += other.roundtrip_checks;
        self.arith_checks += other.arith_checks;
        self.simd_checks += other.simd_checks;
        self.energy_flips += other.energy_flips;
        self.slice_migrate_slices += other.slice_migrate_slices;
        self.slice_migrate_migrations += other.slice_migrate_migrations;
        self.cosim_rv32_instructions += other.cosim_rv32_instructions;
        self.cosim_art9_instructions += other.cosim_art9_instructions;
        self.cosim_sync_points += other.cosim_sync_points;
    }
}

/// How a [`lockstep`] co-simulation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepOutcome {
    /// Both cores halted identically and agreed at every step.
    Agreed(HaltReason),
    /// The first disagreement, described.
    Diverged(String),
    /// A core faulted: [`DivergenceKind::BaselineFault`] for the first
    /// core, [`DivergenceKind::CandidateFault`] for the second.
    Faulted(DivergenceKind, String),
    /// Neither halt nor disagreement within the step budget.
    BudgetExhausted,
    /// A backend that cannot step architecturally (the pipeline) was
    /// passed; no steps were executed.
    Unsupported(String),
}

impl LockstepOutcome {
    /// The halt reason both cores agreed on, or the finding.
    fn into_halt(self, max_steps: u64) -> Result<HaltReason, Finding> {
        match self {
            LockstepOutcome::Agreed(halt) => Ok(halt),
            LockstepOutcome::Diverged(detail) => Err(detail.into()),
            LockstepOutcome::Faulted(kind, detail) => Err(Finding::new(kind, detail)),
            LockstepOutcome::BudgetExhausted => Err(Finding::new(
                DivergenceKind::BudgetExhausted,
                format!("program {} {max_steps} steps", Divergence::BUDGET_MARKER),
            )),
            LockstepOutcome::Unsupported(why) => {
                unreachable!("architectural backends rejected by lockstep: {why}")
            }
        }
    }
}

/// Runs two **architectural** [`Core`] backends in lockstep for up to
/// `max_steps` steps: after every step the halt state, the PC and all
/// nine TRF registers are compared; at halt the TDM and the
/// retired-instruction counts are compared too. Differences are
/// described naming each side's backend.
///
/// Generic over `Core + ?Sized`, so it accepts concrete simulators and
/// `dyn Core` trait objects alike — the same entry point serves the
/// fuzz campaign and ad-hoc A/B debugging.
///
/// The pipelined backend cannot run in lockstep — one of its steps is
/// a clock cycle, it retires instructions stages later, and it does
/// not maintain an architectural PC between steps — so passing it on
/// either side is rejected up front ([`LockstepOutcome::Unsupported`])
/// instead of producing a spurious first-step divergence. Compare the
/// pipeline at halt, as [`check_program`] does.
pub fn lockstep<A, B>(a: &mut A, b: &mut B, max_steps: u64) -> LockstepOutcome
where
    A: Core + ?Sized,
    B: Core + ?Sized,
{
    if a.backend() == Backend::Pipelined || b.backend() == Backend::Pipelined {
        return LockstepOutcome::Unsupported(
            "the pipelined backend steps by clock cycle and exposes architectural state \
             only at retirement; run it to halt and compare final states instead"
                .into(),
        );
    }
    let (an, bn) = (a.backend().name(), b.backend().name());
    for _ in 0..=max_steps {
        let ha = match a.step() {
            Ok(h) => h,
            Err(e) => {
                return LockstepOutcome::Faulted(
                    DivergenceKind::BaselineFault,
                    format!("{an} core faulted: {e}"),
                )
            }
        };
        let hb = match b.step() {
            Ok(h) => h,
            Err(e) => {
                return LockstepOutcome::Faulted(
                    DivergenceKind::CandidateFault,
                    format!("{bn} core faulted: {e}"),
                )
            }
        };
        if ha != hb {
            return LockstepOutcome::Diverged(format!(
                "halt disagreement after {} instructions: {an} {ha:?}, {bn} {hb:?}",
                a.retired()
            ));
        }
        if let Some(d) = step_difference(a.state(), b.state(), an, bn) {
            return LockstepOutcome::Diverged(format!("after {} instructions: {d}", a.retired()));
        }
        if let Some(halt) = ha {
            // Memory is compared once at halt; registers were compared
            // every step.
            if a.state().tdm.size() != b.state().tdm.size() {
                return LockstepOutcome::Diverged(format!(
                    "TDM sizes {} ({an}) vs {} ({bn})",
                    a.state().tdm.size(),
                    b.state().tdm.size()
                ));
            }
            for (addr, (x, y)) in a.state().tdm.iter().zip(b.state().tdm.iter()).enumerate() {
                if x != y {
                    return LockstepOutcome::Diverged(format!(
                        "TDM[{addr}] = {} ({an}) vs {} ({bn}) at halt",
                        x.to_i64(),
                        y.to_i64()
                    ));
                }
            }
            if a.retired() != b.retired() {
                return LockstepOutcome::Diverged(format!(
                    "instruction counts differ: {} vs {}",
                    a.retired(),
                    b.retired()
                ));
            }
            return LockstepOutcome::Agreed(halt);
        }
    }
    LockstepOutcome::BudgetExhausted
}

/// The first per-step difference between two architectural states:
/// PC first, then the nine registers.
fn step_difference(a: &CoreState, b: &CoreState, an: &str, bn: &str) -> Option<String> {
    if a.pc != b.pc {
        return Some(format!("pc {} ({an}) vs {} ({bn})", a.pc, b.pc));
    }
    for r in ALL_REGS {
        let x = a.reg(r);
        let y = b.reg(r);
        if x != y {
            return Some(format!(
                "{r} = {x} ({}) {an} vs {y} ({}) {bn}",
                x.to_i64(),
                y.to_i64()
            ));
        }
    }
    None
}

/// Runs `core` to halt within `budget` steps (clock cycles on the
/// pipelined backend). A budget overrun, or a fault of kind `fault`
/// (whether `side` is the baseline or the candidate), becomes a
/// finding naming `side`.
pub(crate) fn run_to_halt<C: Core + ?Sized>(
    core: &mut C,
    budget: u64,
    side: &str,
    fault: DivergenceKind,
) -> Result<HaltReason, Finding> {
    match core.run_for(Budget::Steps(budget)) {
        Ok(summary) => summary.halt.ok_or_else(|| {
            let unit = if core.backend() == Backend::Pipelined {
                "cycles"
            } else {
                "steps"
            };
            Finding::new(
                DivergenceKind::BudgetExhausted,
                format!("{side} {} {budget} {unit}", Divergence::BUDGET_MARKER),
            )
        }),
        Err(e) => Err(Finding::new(fault, format!("{side} faulted: {e}"))),
    }
}

/// The one comparator behind every value-level case and final-state
/// field: `Err` names `what` and both values, labelled by `sides`.
fn compare<T: PartialEq + Debug>(what: &str, x: T, y: T, sides: [&str; 2]) -> Result<(), String> {
    if x == y {
        return Ok(());
    }
    let [a, b] = sides;
    Err(format!("{what}: {x:?} ({a}) vs {y:?} ({b})"))
}

/// One value-level case: the packed kernel's result against its
/// per-trit or exact reference.
fn case<T: PartialEq + Debug>(op: &str, packed: T, reference: T) -> Result<(), String> {
    compare(op, packed, reference, ["packed", "reference"])
}

/// Compares two cores that ran the same program to halt: halt reason,
/// retired-instruction count, instruction mix, then registers and TDM.
fn final_difference(x: &dyn Core, y: &dyn Core, sides: [&str; 2]) -> Result<(), String> {
    compare("halt reason", x.halted(), y.halted(), sides)?;
    compare("retired instructions", x.retired(), y.retired(), sides)?;
    compare(
        "instruction mix",
        x.instruction_mix(),
        y.instruction_mix(),
        sides,
    )?;
    match x.state().first_difference(y.state()) {
        Some(d) => Err(format!("final state ({} vs {}): {d}", sides[0], sides[1])),
        None => Ok(()),
    }
}

/// Runs every program-level oracle on `program`; see
/// [`check_program_filtered`] for running a single oracle.
pub fn check_program(program: &Program, step_budget: u64) -> (OracleStats, Option<Divergence>) {
    check_program_filtered(program, step_budget, None)
}

/// Runs the program-level oracles on `program` in campaign order
/// ([`Oracle::ALL`]), restricted to `only` when set (the `--oracle`
/// triage filter).
///
/// Returns the first divergence found (checking stops there — the
/// minimizer will re-run the same check on reduced programs) plus the
/// work counters.
///
/// `step_budget` bounds the functional/reference runs; the pipelined
/// runs get `16×` that in cycles (a generated program's CPI is far
/// below that — exhausting the budget is itself a divergence).
pub fn check_program_filtered(
    program: &Program,
    step_budget: u64,
    only: Option<Oracle>,
) -> (OracleStats, Option<Divergence>) {
    let image = PredecodedProgram::new(program);
    let mut run = ProgramRun {
        program,
        builder: SimBuilder::new(&image).tdm_words(ORACLE_TDM_WORDS),
        seed: image.content_hash(),
        step_budget,
        baseline: None,
        stats: OracleStats::default(),
    };
    let divergence = Oracle::ALL
        .into_iter()
        .filter(|o| only.is_none_or(|only| only == *o))
        .find_map(|oracle| oracle.verdict(run.check(oracle)));
    (run.stats, divergence)
}

/// One program's pass through the program-level oracles.
struct ProgramRun<'a> {
    program: &'a Program,
    builder: SimBuilder,
    /// The image's content hash: seeds the slice-migrate oracle's
    /// slice lengths and migration points, so campaigns reproduce
    /// bit-for-bit.
    seed: u64,
    step_budget: u64,
    /// The functional run the pipelined oracles compare against: the
    /// functional-vs-reference lockstep run, or a plain run when that
    /// oracle is filtered out.
    baseline: Option<FunctionalSim>,
    stats: OracleStats,
}

impl ProgramRun<'_> {
    /// Runs one oracle; `Err` is its finding. The oracles
    /// that do not run the ART-9 program have nothing to check here.
    fn check(&mut self, oracle: Oracle) -> Result<(), Finding> {
        match oracle {
            Oracle::FunctionalVsReference => {
                let mut func = self.builder.build_functional();
                let mut reference = self.builder.build_reference();
                let outcome = lockstep(&mut func, &mut reference, self.step_budget);
                self.stats.functional_instructions = func.retired();
                self.baseline = Some(func);
                outcome.into_halt(self.step_budget).map(|_| ())
            }
            Oracle::FunctionalVsThreaded => self.threaded(),
            Oracle::Energy => self.energy(),
            Oracle::SliceMigrate => self.slice_migrate(),
            Oracle::PipelinedForwarding => self.pipelined(true),
            Oracle::PipelinedNoForwarding => self.pipelined(false),
            Oracle::ToolchainRoundtrip => Ok(roundtrip(self.program, &mut self.stats)?),
            Oracle::Arithmetic | Oracle::Simd | Oracle::CompilerLockstep => Ok(()),
        }
    }

    /// The functional-vs-threaded oracle: one per-instruction
    /// [`lockstep`] run (each threaded step a one-instruction dispatch
    /// unit), then a fresh threaded core free-running to halt
    /// through the fused superblock dispatch path, compared against the
    /// functional final state. Fusion must be architecturally
    /// invisible — both runs land on the same point.
    fn threaded(&mut self) -> Result<(), Finding> {
        let mut func = self.builder.build_functional();
        let mut stepped = self.builder.build_threaded();
        lockstep(&mut func, &mut stepped, self.step_budget).into_halt(self.step_budget)?;
        self.stats.threaded_instructions += stepped.retired();

        // The lockstep run above halted within the budget; +2 covers
        // the zero-retire halt step.
        let mut fused = self.builder.build_threaded();
        let halt = run_to_halt(
            &mut fused,
            self.step_budget.saturating_add(2),
            "fused run",
            DivergenceKind::CandidateFault,
        );
        self.stats.threaded_instructions += fused.retired();
        halt?;
        Ok(final_difference(&func, &fused, ["functional", "fused"])?)
    }

    /// The differential energy oracle: the same program runs with an
    /// [`EnergyAccounting`] attached on the functional simulator, which
    /// counts flips with the packed `flips_from` kernel, and on the
    /// per-trit reference simulator, which counts them with the
    /// tritwise flip reference ([`arith::flips_tritwise`]). Both the
    /// flip *counting* and the write-back records feeding it are
    /// thereby cross-checked — a backend that mis-reports a write-back
    /// value, or a packed XOR that miscounts flips, shows up as a
    /// per-opcode counter mismatch.
    ///
    /// A third leg runs the threaded backend with an accountant, which
    /// it counts inside its compiled code rather than from write-back
    /// records; its counters must equal the functional run's.
    fn energy(&mut self) -> Result<(), Finding> {
        let packed = Arc::new(Mutex::new(EnergyAccounting::new()));
        let tritwise = Arc::new(Mutex::new(EnergyAccounting::new()));
        let mut func = self
            .builder
            .clone()
            .observer(packed.clone())
            .build_functional();
        let mut reference = self
            .builder
            .clone()
            .observer(tritwise.clone())
            .build_reference();

        // The energy comparison is meaningful only over identical
        // executions; architectural divergence is the functional-vs-
        // reference oracle's finding, but it would cascade here, so report
        // it under this oracle too rather than comparing garbage.
        run_to_halt(
            &mut func,
            self.step_budget,
            "functional run",
            DivergenceKind::BaselineFault,
        )?;
        run_to_halt(
            &mut reference,
            self.step_budget,
            "reference run",
            DivergenceKind::CandidateFault,
        )?;
        final_difference(&func, &reference, ["functional", "reference"])?;

        let packed = packed.lock().expect("observer lock");
        let tritwise = tritwise.lock().expect("observer lock");
        activity_difference(packed.per_opcode(), tritwise.per_opcode())?;
        let t = packed.totals();
        self.stats.energy_flips += t.regfile + t.tdm + t.fetch + t.alu;

        let counted = Arc::new(Mutex::new(EnergyAccounting::new()));
        let mut threaded = self
            .builder
            .clone()
            .observer(counted.clone())
            .build_threaded();
        run_to_halt(
            &mut threaded,
            self.step_budget,
            "threaded run",
            DivergenceKind::CandidateFault,
        )?;
        final_difference(&func, &threaded, ["functional", "threaded"])?;
        let counted = counted.lock().expect("observer lock");
        Ok(
            activity_difference(packed.per_opcode(), counted.per_opcode())
                .map_err(|d| format!("threaded counted energy vs functional: {d}"))?,
        )
    }

    /// The slice-migrate oracle: the service scheduler's execution
    /// model, checked differentially. A straight-line functional run
    /// (with energy accounting) is compared against the same program
    /// executed the way the scheduler executes sessions — sliced on
    /// random [`Budget::Retired`] quanta, and at ~40% of slice
    /// boundaries *migrated* through an `art9-checkpoint v1` text
    /// roundtrip into the next architectural backend (threaded →
    /// reference → functional), the energy observer `Arc` carried across
    /// every rebuild exactly as the scheduler carries a session's
    /// observers across workers. Slicing and migration must be
    /// architecturally invisible: halt reason, retired count,
    /// instruction mix, final state and per-opcode energy counters all
    /// bit-identical.
    fn slice_migrate(&mut self) -> Result<(), Finding> {
        let step_budget = self.step_budget;
        let straight_energy = Arc::new(Mutex::new(EnergyAccounting::new()));
        let mut straight = self
            .builder
            .clone()
            .observer(straight_energy.clone())
            .build_functional();
        let halt = run_to_halt(
            &mut straight,
            step_budget,
            "straight-line run",
            DivergenceKind::BaselineFault,
        )?;

        // Sliced, migrated run.
        let mut rng = FuzzRng::new(self.seed ^ 0x511c_e513_9a7e_0001);
        let rotation = [Backend::Threaded, Backend::Reference, Backend::Functional];
        let sliced_energy = Arc::new(Mutex::new(EnergyAccounting::new()));
        let sliced_builder = self.builder.clone().observer(sliced_energy.clone());
        let mut core: Box<dyn Core> = sliced_builder.clone().build();
        let mut rotation_index = 0usize;
        let (mut slices, mut migrations) = (0u64, 0u64);
        loop {
            // Every slice retires at least one instruction, so the slice
            // count bounds total work by the same budget as the baseline.
            if slices > step_budget {
                return Err(Finding::new(
                    DivergenceKind::BudgetExhausted,
                    format!(
                        "sliced run {} {step_budget} slices",
                        Divergence::BUDGET_MARKER
                    ),
                ));
            }
            slices += 1;
            let target = core.retired() + 1 + rng.below(41);
            let summary = core.run_for(Budget::Retired(target)).map_err(|e| {
                Finding::new(
                    DivergenceKind::CandidateFault,
                    format!(
                        "sliced run faulted after {} instructions: {e} \
                         (straight-line run halted {halt:?})",
                        core.retired()
                    ),
                )
            })?;
            if summary.halt.is_some() {
                break;
            }
            if rng.chance(2, 5) {
                let checkpoint = Checkpoint::from_text(&core.snapshot().to_text())
                    .map_err(|e| format!("checkpoint text did not roundtrip: {e}"))?;
                let backend = rotation[rotation_index % rotation.len()];
                rotation_index += 1;
                let mut fresh = sliced_builder.clone().backend(backend).build();
                fresh.restore(&checkpoint).map_err(|e| {
                    Finding::new(
                        DivergenceKind::CandidateFault,
                        format!("restore into {backend} failed: {e}"),
                    )
                })?;
                core = fresh;
                migrations += 1;
            }
        }
        self.stats.slice_migrate_slices += slices;
        self.stats.slice_migrate_migrations += migrations;

        final_difference(&straight, &*core, ["straight-line", "sliced"])?;
        let straight_acc = straight_energy.lock().expect("observer lock");
        let sliced_acc = sliced_energy.lock().expect("observer lock");
        Ok(
            activity_difference(straight_acc.per_opcode(), sliced_acc.per_opcode())
                .map_err(|d| format!("energy accounting diverged across slicing/migration: {d}"))?,
        )
    }

    /// A pipelined oracle: the pipeline (forwarding on or off) against
    /// the functional baseline, at halt.
    fn pipelined(&mut self, forwarding: bool) -> Result<(), Finding> {
        if self.baseline.is_none() {
            let mut func = self.builder.build_functional();
            let halt = run_to_halt(
                &mut func,
                self.step_budget,
                "functional baseline",
                DivergenceKind::BaselineFault,
            );
            self.stats.functional_instructions = func.retired();
            halt?;
            self.baseline = Some(func);
        }
        let mut pipe = self
            .builder
            .clone()
            .forwarding(forwarding)
            .build_pipelined();
        let cycle_budget = self.step_budget.saturating_mul(16).max(1024);
        let halt = run_to_halt(
            &mut pipe,
            cycle_budget,
            "pipeline",
            DivergenceKind::CandidateFault,
        );
        self.stats.pipelined_cycles += pipe.pipeline_stats().expect("pipelined backend").cycles;
        halt?;
        let func = self.baseline.as_ref().expect("baseline ran above");
        Ok(final_difference(func, &pipe, ["functional", "pipelined"])?)
    }
}

/// One accountant's counters, per opcode.
type Activity = [OpcodeActivity; Instruction::OPCODE_COUNT];

/// The first per-opcode, per-structure difference between two energy
/// accountings' counters, named (`Ok` when bit-identical). The first
/// operand is labelled `packed`, the second `tritwise` (the energy
/// oracle's sides; for other callers read them as baseline vs
/// candidate).
fn activity_difference(packed: &Activity, tritwise: &Activity) -> Result<(), String> {
    for (opcode, (p, t)) in packed.iter().zip(tritwise).enumerate() {
        if p == t {
            continue;
        }
        let mnemonic = Instruction::MNEMONICS[opcode];
        let structures = [
            ("retired", p.retired, t.retired),
            ("regfile", p.regfile, t.regfile),
            ("tdm", p.tdm, t.tdm),
            ("fetch", p.fetch, t.fetch),
            ("alu", p.alu, t.alu),
        ];
        for (name, a, b) in structures {
            compare(
                &format!("{mnemonic}: {name} flips"),
                a,
                b,
                ["packed", "tritwise"],
            )?;
        }
    }
    Ok(())
}

/// The encode → decode → disassemble → reassemble oracle.
fn roundtrip(program: &Program, stats: &mut OracleStats) -> Result<(), String> {
    for (pc, instr) in program.text().iter().enumerate() {
        let word = encode(instr);
        stats.roundtrip_checks += 1;
        let back = decode(word).map_err(|e| {
            format!("pc {pc}: {instr} encoded to {word}, which failed to decode: {e}")
        })?;
        if back != *instr {
            return Err(format!(
                "pc {pc}: {instr} encoded to {word}, decoded as {back}"
            ));
        }
        let text = disassemble_word(word)
            .map_err(|e| format!("pc {pc}: {instr} failed to disassemble: {e}"))?;
        let p = assemble(&text)
            .map_err(|e| format!("pc {pc}: listing {text:?} failed to reassemble: {e}"))?;
        if p.text() != [*instr] {
            return Err(format!(
                "pc {pc}: {instr} disassembled to {text:?}, reassembled as {:?}",
                p.text()
            ));
        }
    }
    Ok(())
}

/// One row of the value-oracle table: the oracle, its operand
/// generator, and the `(op, packed, reference)` [cases](case) each
/// operand set checks.
struct ValueRow<S> {
    oracle: Oracle,
    /// Random draws one campaign iteration makes (`draw`'s `n`).
    draws: fn(&FuzzConfig) -> usize,
    /// Mixed into the campaign seed for the row's own RNG stream, so
    /// its operands depend only on `(seed, iteration)`: not on the
    /// generated program, nor on which other rows run.
    salt: u64,
    /// Draws one iteration's operand sets from the row's stream.
    draw: fn(&mut FuzzRng, usize) -> Vec<S>,
    /// Checks every case of one operand set.
    cases: fn(&S) -> Result<(), String>,
    /// The row's counter, and what one clean operand set adds to it.
    counter: fn(&mut OracleStats) -> &mut u64,
    checks_per_set: u64,
}

impl<S: Debug> ValueRow<S> {
    /// Draws operand sets from `n` random draws and checks each; the
    /// first failing case becomes a divergence naming the op, both
    /// results and the operands.
    fn check(&self, rng: &mut FuzzRng, n: usize, stats: &mut OracleStats) -> Option<Divergence> {
        for set in (self.draw)(rng, n) {
            if let Err(mismatch) = (self.cases)(&set) {
                return Some(Divergence {
                    oracle: self.oracle,
                    kind: DivergenceKind::Disagreement,
                    detail: format!("{mismatch} for {set:?}"),
                });
            }
            *(self.counter)(stats) += self.checks_per_set;
        }
        None
    }
}

/// A [`ValueRow`] with its operand-set type erased, so rows of
/// different operand types share one table.
trait ValueOracle {
    fn oracle(&self) -> Oracle;
    fn run(
        &self,
        seed: u64,
        iteration: u64,
        cfg: &FuzzConfig,
        stats: &mut OracleStats,
    ) -> Option<Divergence>;
}

impl<S: Debug> ValueOracle for ValueRow<S> {
    fn oracle(&self) -> Oracle {
        self.oracle
    }

    fn run(
        &self,
        seed: u64,
        iteration: u64,
        cfg: &FuzzConfig,
        stats: &mut OracleStats,
    ) -> Option<Divergence> {
        let mut rng = FuzzRng::for_iteration(seed ^ self.salt, iteration);
        self.check(&mut rng, (self.draws)(cfg), stats)
    }
}

/// The value-oracle table, in campaign order.
const VALUE_ORACLES: [&dyn ValueOracle; 2] = [&ARITH, &SIMD];

/// Operand sets per iteration for the SIMD row.
const VALUE_SETS: usize = 8;

/// Runs the value-oracle table (only `cfg.oracle`'s row when the
/// campaign is filtered) for campaign iteration `iteration`, each row
/// on its own stream. Returns the first divergence.
pub(crate) fn check_values(
    seed: u64,
    iteration: u64,
    cfg: &FuzzConfig,
    stats: &mut OracleStats,
) -> Option<Divergence> {
    VALUE_ORACLES
        .iter()
        .filter(|row| cfg.oracle.is_none_or(|o| o == row.oracle()))
        .find_map(|row| row.run(seed, iteration, cfg, stats))
}

/// Packed `Word9` kernels vs the tritwise references, one check per
/// word pair: `FuzzConfig::arith_pairs` random words plus the
/// adversarial corners, each paired with a pseudo-random partner.
const ARITH: ValueRow<(Word9, Word9)> = ValueRow {
    oracle: Oracle::Arithmetic,
    draws: |cfg| cfg.arith_pairs,
    salt: 0xa817_0b5e_77c1_4d29,
    draw: |rng, n| {
        let mut words = word9_corners();
        words.extend((0..n).map(|_| random_word(rng)));
        (0..words.len())
            .map(|i| (words[i], words[(i * 7 + 13) % words.len()]))
            .collect()
    },
    cases: |&(a, b)| {
        case("add", a.carrying_add(b), arith::add_tritwise(a, b))?;
        case("negate", a.negate(), arith::negate_tritwise(a))?;
        let (pos, neg) = a.bitplanes();
        case("bitplane roundtrip", Word9::from_bitplanes(pos, neg), Ok(a))
    },
    counter: |stats| &mut stats.arith_checks,
    checks_per_set: 1,
};

/// One SIMD-lane operand set: two lane vectors and the columns of a
/// short matvec.
#[derive(Debug)]
struct LaneSet {
    a: Vec<Word9>,
    b: Vec<Word9>,
    cols: Vec<(Word9, Vec<Trit>)>,
}

/// The bitplane-SIMD lane subsystem ([`Word9xN`]) vs the per-trit
/// lanewise references, 3 cases per set: pack/unpack, compare, and the
/// carry-save matvec kernel against a chain of lanewise MACs.
///
/// Every set draws lane counts straddling the 6-lanes-per-u64 word
/// boundary (up to 30 lanes, five plane words, so every matvec pass
/// width runs), lane values and activations one in three from the ±3^k
/// sign boundaries and saturated words (longest carry chains), and
/// mixed-sign weights.
const SIMD: ValueRow<LaneSet> = ValueRow {
    oracle: Oracle::Simd,
    draws: |_| VALUE_SETS,
    salt: 0x51ad_1a9e_c0de_83f5,
    draw: |rng, n| {
        let specials = word9_corners();
        let word = |rng: &mut FuzzRng| {
            if rng.chance(1, 3) {
                specials[rng.index(specials.len())]
            } else {
                random_word(rng)
            }
        };
        // Lane counts hugging the 6-lanes-per-u64 word boundaries.
        const BOUNDARY_LANES: [usize; 10] = [1, 5, 6, 7, 12, 13, 18, 19, 24, 25];
        (0..n)
            .map(|_| {
                let lanes = if rng.chance(1, 2) {
                    BOUNDARY_LANES[rng.index(BOUNDARY_LANES.len())]
                } else {
                    1 + rng.below(30) as usize
                };
                let a = (0..lanes).map(|_| word(rng)).collect();
                let b = (0..lanes).map(|_| word(rng)).collect();
                // A random short column count over the drawn lane count,
                // so matvec pass shapes (1- to 4-word passes and the
                // 3 + … splits) all occur across sets; activations are
                // corner-biased like the lane words.
                let cols = (0..1 + rng.below(6))
                    .map(|_| (word(rng), (0..lanes).map(|_| random_trit(rng)).collect()))
                    .collect();
                LaneSet { a, b, cols }
            })
            .collect()
    },
    cases: |s| {
        let (a, b, lanes) = (&s.a, &s.b, s.a.len());
        let va = Word9xN::from_words(a);
        case("pack/unpack", &va.to_words(), a)?;
        case(
            "compare",
            va.compare(&Word9xN::from_words(b)).lane_lsts(),
            arith::compare_lanewise(a, b),
        )?;
        let weights: Vec<LaneWeights> = s.cols.iter().map(|(_, w)| LaneWeights::new(w)).collect();
        let x: Vec<Word9> = s.cols.iter().map(|(x, _)| *x).collect();
        let matvec = simd::matvec(&x, &PackedWeights::from_columns(&weights)).to_words();
        let chained = s.cols.iter().fold(vec![Word9::ZERO; lanes], |acc, (x, w)| {
            arith::mac_lanewise(&acc, &vec![*x; lanes], w)
        });
        case("matvec", matvec, chained)
    },
    counter: |stats| &mut stats.simd_checks,
    checks_per_set: 3,
};

/// The adversarial Word9 corners the arithmetic and SIMD oracles share:
/// saturated words (longest carry chains), zero, ±1, and the ±3^k and
/// ±(3^k−1)/2 sign boundaries. Draws nothing from the RNG.
fn word9_corners() -> Vec<Word9> {
    let mut corners = vec![Word9::ZERO, Word9::MAX, Word9::MIN];
    for k in 0..9 {
        let p = ternary::pow3(k);
        for v in [p, -p, (p - 1) / 2, -(p - 1) / 2] {
            corners.push(Word9::from_i64(v).expect("3^k fits"));
        }
    }
    corners
}

/// A uniformly random trit.
fn random_trit(rng: &mut FuzzRng) -> Trit {
    match rng.below(3) {
        0 => Trit::N,
        1 => Trit::Z,
        _ => Trit::P,
    }
}

/// A uniformly random trit pattern (covers all 3⁹ words, not just the
/// value range of any integer conversion path).
pub fn random_word(rng: &mut FuzzRng) -> Word9 {
    Trits::from_trits(std::array::from_fn(|_| random_trit(rng)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use art9_sim::Backend;

    #[test]
    fn clean_programs_have_no_divergence() {
        let cfg = GenConfig::default();
        for i in 0..15 {
            let p = generate(&mut FuzzRng::for_iteration(5, i), &cfg);
            let (stats, divergence) = check_program(&p, crate::gen::step_budget(&cfg));
            assert!(
                divergence.is_none(),
                "iteration {i}: {}",
                divergence.unwrap()
            );
            assert!(stats.functional_instructions > 0);
            assert!(stats.threaded_instructions > 0);
            assert!(stats.pipelined_cycles > 0);
            assert!(stats.energy_flips > 0);
            assert!(stats.slice_migrate_slices > 0);
            assert!(stats.roundtrip_checks as usize >= p.text().len());
        }
    }

    #[test]
    fn threaded_oracle_covers_both_execution_paths() {
        // Filtered to functional-vs-threaded: the stepped lockstep run
        // and the fused free run both retire work; nothing else runs.
        let cfg = GenConfig::default();
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(5, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::FunctionalVsThreaded));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            // Stepped + fused runs retire the program twice over.
            assert!(stats.threaded_instructions > 0);
            assert_eq!(stats.threaded_instructions % 2, 0);
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
        }
    }

    #[test]
    fn threaded_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::FunctionalVsThreaded));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::FunctionalVsThreaded);
        assert_eq!(d.kind, DivergenceKind::BudgetExhausted);
    }

    #[test]
    fn energy_oracle_is_clean_on_generated_programs() {
        // Filtered to the energy oracle: packed and tritwise flip
        // accounting agree bit-for-bit on random programs, and nothing
        // else runs.
        let cfg = GenConfig::default();
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(7, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::Energy));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            assert!(stats.energy_flips > 0, "iteration {i} counted no flips");
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
            assert_eq!(stats.threaded_instructions, 0);
        }
    }

    #[test]
    fn slice_migrate_oracle_is_clean_and_migrates() {
        // Filtered to slice-migrate: sliced + migrated execution lands
        // bit-identical to straight-line on generated programs, with
        // real migrations happening (long-enough programs guarantee
        // multiple slice boundaries), and nothing else runs.
        let cfg = GenConfig::default();
        let mut total_migrations = 0;
        for i in 0..6 {
            let p = generate(&mut FuzzRng::for_iteration(11, i), &cfg);
            let budget = crate::gen::step_budget(&cfg);
            let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::SliceMigrate));
            assert!(d.is_none(), "iteration {i}: {}", d.unwrap());
            assert!(
                stats.slice_migrate_slices > 0,
                "iteration {i} ran no slices"
            );
            total_migrations += stats.slice_migrate_migrations;
            assert_eq!(stats.pipelined_cycles, 0);
            assert_eq!(stats.roundtrip_checks, 0);
            assert_eq!(stats.threaded_instructions, 0);
            assert_eq!(stats.energy_flips, 0);
        }
        assert!(total_migrations > 0, "no cross-backend migration exercised");
    }

    #[test]
    fn slice_migrate_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::SliceMigrate));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::SliceMigrate);
        assert_eq!(d.kind, DivergenceKind::BudgetExhausted);
    }

    #[test]
    fn energy_oracle_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::Energy));
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::Energy);
        assert_eq!(d.kind, DivergenceKind::BudgetExhausted);
    }

    #[test]
    fn activity_difference_detects_a_planted_flip_miscount() {
        // Plant one extra register-file flip in a copy of a real run's
        // counters: the comparator must name the opcode and the
        // structure, proving the detection path is live.
        let p = art9_isa::assemble("LI t3, 5\nJAL t0, 0\n").unwrap();
        let acc = Arc::new(Mutex::new(EnergyAccounting::new()));
        let mut sim = SimBuilder::new(&p).observer(acc.clone()).build_functional();
        sim.run(100).unwrap();
        let good = *acc.lock().unwrap().per_opcode();
        let mut bad = good;
        let li = Instruction::MNEMONICS
            .iter()
            .position(|m| *m == "LI")
            .unwrap();
        bad[li].regfile += 1;
        assert_eq!(activity_difference(&good, &good), Ok(()));
        let d = activity_difference(&good, &bad).expect_err("difference detected");
        assert!(d.contains("LI: regfile flips"), "{d}");
        assert!(d.contains("packed") && d.contains("tritwise"), "{d}");
    }

    #[test]
    fn arith_oracle_is_clean_and_counts() {
        let mut rng = FuzzRng::new(9);
        let mut stats = OracleStats::default();
        let d = ARITH.check(&mut rng, 64, &mut stats);
        assert!(d.is_none(), "{}", d.unwrap());
        assert!(stats.arith_checks >= 64);
    }

    #[test]
    fn simd_oracle_is_clean_and_counts() {
        let mut rng = FuzzRng::new(11);
        let mut stats = OracleStats::default();
        let d = SIMD.check(&mut rng, 32, &mut stats);
        assert!(d.is_none(), "{}", d.unwrap());
        // Each clean set performs exactly the three fixed comparisons.
        assert_eq!(stats.simd_checks, 32 * 3);
    }

    #[test]
    fn simd_oracle_is_deterministic() {
        let run = |seed| {
            let mut stats = OracleStats::default();
            let d = SIMD.check(&mut FuzzRng::new(seed), 8, &mut stats);
            (stats.simd_checks, d.is_none())
        };
        assert_eq!(run(42), run(42));
        assert!(run(42).1 && run(7).1);
    }

    /// Runs `row` with a planted wrong reference and checks the first
    /// operand set is reported under the row's oracle, naming the op
    /// and the operands.
    fn assert_planted_case_is_caught<S: Debug>(row: ValueRow<S>, op: &str) {
        let d = row
            .check(&mut FuzzRng::new(3), 4, &mut OracleStats::default())
            .expect("planted wrong reference caught");
        assert_eq!(d.oracle, row.oracle);
        let first = &(row.draw)(&mut FuzzRng::new(3), 4)[0];
        assert!(d.detail.starts_with(&format!("{op}: ")), "{d}");
        assert!(d.detail.contains("(packed) vs"), "{d}");
        assert!(d.detail.ends_with(&format!(" for {first:?}")), "{d}");
    }

    #[test]
    fn value_oracles_report_a_planted_wrong_reference() {
        // Each row with an off-by-one reference: a comparator that
        // always agreed would pass the clean tests above but not this
        // one.
        assert_planted_case_is_caught(
            ValueRow {
                cases: |&(a, b)| {
                    let (sum, carry) = arith::add_tritwise(a, b);
                    let one = Word9::from_i64(1).unwrap();
                    case("add", a.carrying_add(b), (sum.wrapping_add(one), carry))
                },
                ..ARITH
            },
            "add",
        );
        assert_planted_case_is_caught(
            ValueRow {
                cases: |s: &LaneSet| {
                    let one = Word9::from_i64(1).unwrap();
                    let reference: Vec<Word9> = s.a.iter().map(|w| w.wrapping_add(one)).collect();
                    case(
                        "pack/unpack",
                        Word9xN::from_words(&s.a).to_words(),
                        reference,
                    )
                },
                ..SIMD
            },
            "pack/unpack",
        );
    }

    #[test]
    fn value_level_is_a_property_of_the_table() {
        let value_level: Vec<Oracle> = Oracle::ALL
            .into_iter()
            .filter(|o| o.is_value_level())
            .collect();
        assert_eq!(value_level, [Oracle::Arithmetic, Oracle::Simd]);
    }

    #[test]
    fn lockstep_detects_a_planted_register_difference() {
        // Run the functional simulator and the reference on programs
        // that differ in exactly one immediate — a stand-in for a
        // semantic bug in either backend. The generic lockstep entry
        // point must flag the register, proving the detection path is
        // live (the clean-campaign tests alone could pass with a
        // comparator that always answers Agreed).
        let good = art9_isa::assemble("LI t3, 5\nJAL t0, 0\n").unwrap();
        let bad = art9_isa::assemble("LI t3, 6\nJAL t0, 0\n").unwrap();
        let mut func = SimBuilder::new(&good).build_functional();
        let mut reference = SimBuilder::new(&bad).build_reference();
        let LockstepOutcome::Diverged(d) = lockstep(&mut func, &mut reference, 100) else {
            panic!("difference not detected");
        };
        assert!(d.contains("t3"), "{d}");
        assert!(d.contains('5') && d.contains('6'), "{d}");
        assert!(d.contains("functional") && d.contains("reference"), "{d}");
    }

    #[test]
    fn lockstep_accepts_dyn_cores_and_agrees_on_clean_programs() {
        // The same entry point drives boxed `dyn Core`s — any two
        // backends, no special-casing.
        let p = art9_isa::assemble(
            "LI t3, 10\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\n\
             BEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build();
        let mut b = builder.clone().backend(Backend::Reference).build();
        assert_eq!(
            lockstep(&mut *a, &mut *b, 10_000),
            LockstepOutcome::Agreed(HaltReason::JumpToSelf)
        );
    }

    #[test]
    fn lockstep_rejects_the_pipelined_backend_up_front() {
        // The pipeline steps by clock cycle and keeps no architectural
        // PC between steps; lockstepping it would always produce a
        // spurious first-step divergence, so it is refused instead.
        let p = art9_isa::assemble("LI t3, 1\nJAL t0, 0\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut func = builder.build_functional();
        let mut pipe = builder.build_pipelined();
        assert!(matches!(
            lockstep(&mut func, &mut pipe, 100),
            LockstepOutcome::Unsupported(_)
        ));
        assert_eq!(
            pipe.pipeline_stats().unwrap().cycles,
            0,
            "no steps executed"
        );
    }

    #[test]
    fn lockstep_reports_budget_exhaustion() {
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build_functional();
        let mut b = builder.build_reference();
        assert_eq!(
            lockstep(&mut a, &mut b, 50),
            LockstepOutcome::BudgetExhausted
        );
    }

    #[test]
    fn a_faulting_program_is_a_baseline_fault_not_a_disagreement() {
        // Both sides fault on the same load; the oracles that run the
        // functional side first name that side.
        let p = art9_isa::assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\nJAL t0, 0\n").unwrap();
        for oracle in [
            Oracle::FunctionalVsReference,
            Oracle::FunctionalVsThreaded,
            Oracle::Energy,
            Oracle::SliceMigrate,
            Oracle::PipelinedForwarding,
            Oracle::PipelinedNoForwarding,
        ] {
            let (_, d) = check_program_filtered(&p, 100, Some(oracle));
            let d = d.expect("fault divergence");
            assert_eq!(d.kind, DivergenceKind::BaselineFault, "{d}");
        }
    }

    #[test]
    fn final_state_diff_detects_planted_register_and_memory_differences() {
        use art9_isa::TReg;
        let p = art9_isa::assemble("LI t3, 1\nJAL t0, 0\n").unwrap();
        let builder = SimBuilder::new(&p);
        let mut a = builder.build_functional();
        let mut b = builder.build_functional();
        a.run(100).unwrap();
        b.run(100).unwrap();
        assert_eq!(a.state().first_difference(b.state()), None);

        // Planted register difference.
        b.state_mut()
            .set_reg(TReg::T4, Word9::from_i64(99).unwrap());
        let d = a
            .state()
            .first_difference(b.state())
            .expect("register diff");
        assert!(d.contains("t4") && d.contains("99"), "{d}");

        // Planted memory difference (register restored first).
        b.state_mut().set_reg(TReg::T4, Word9::ZERO);
        b.state_mut()
            .tdm
            .write(7, Word9::from_i64(-3).unwrap())
            .unwrap();
        let d = a.state().first_difference(b.state()).expect("memory diff");
        assert!(d.contains("TDM[7]"), "{d}");
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        // Two-instruction infinite loop: never halts, must be flagged
        // rather than spinning.
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program(&p, 100);
        let d = d.expect("budget divergence");
        assert_eq!(d.oracle, Oracle::FunctionalVsReference);
        assert!(d.detail.contains("budget"));
    }

    #[test]
    fn oracle_filter_runs_only_the_selected_oracle() {
        let cfg = GenConfig::default();
        let p = generate(&mut FuzzRng::for_iteration(5, 0), &cfg);
        let budget = crate::gen::step_budget(&cfg);

        // Roundtrip only: no simulation work at all.
        let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::ToolchainRoundtrip));
        assert!(d.is_none());
        assert!(stats.roundtrip_checks > 0);
        assert_eq!(stats.functional_instructions, 0);
        assert_eq!(stats.pipelined_cycles, 0);

        // One pipelined oracle: the functional baseline runs, but only
        // one pipelined configuration does.
        let (all_stats, _) = check_program(&p, budget);
        let (stats, d) = check_program_filtered(&p, budget, Some(Oracle::PipelinedForwarding));
        assert!(d.is_none());
        assert_eq!(stats.roundtrip_checks, 0);
        assert!(stats.functional_instructions > 0);
        assert!(stats.pipelined_cycles > 0);
        assert!(
            stats.pipelined_cycles < all_stats.pipelined_cycles,
            "filter must skip the other pipelined run ({} vs {})",
            stats.pipelined_cycles,
            all_stats.pipelined_cycles
        );

        // The filter still catches the filtered oracle's failures.
        let p = art9_isa::assemble("a: NOP\nJAL t0, a\n").unwrap();
        let (_, d) = check_program_filtered(&p, 100, Some(Oracle::PipelinedForwarding));
        let d = d.expect("budget divergence under filter");
        assert_eq!(d.oracle, Oracle::PipelinedForwarding);
        assert_eq!(d.kind, DivergenceKind::BudgetExhausted);
    }

    #[test]
    fn oracle_names_parse_back() {
        for o in Oracle::ALL {
            assert_eq!(o.name().parse::<Oracle>().unwrap(), o);
        }
        assert!("no-such-oracle".parse::<Oracle>().is_err());
    }
}
