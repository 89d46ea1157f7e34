//! The unified execution API: one [`Core`] trait over all four
//! simulator backends, built through one [`SimBuilder`].
//!
//! The paper's evaluation framework (§III-B) runs the *same* program
//! through several processor models and compares them; this module is
//! that discipline as an API. Every backend — the architecture-level
//! [`FunctionalSim`], the cycle-accurate [`PipelinedSim`], the
//! per-trit [`ReferenceSim`](crate::ReferenceSim) and the
//! direct-threaded [`ThreadedSim`](crate::ThreadedSim) — implements
//! [`Core`], and every consumer (the batch driver, the differential
//! fuzzing oracles, the `report` binary) drives them through it.
//!
//! ```
//! use art9_isa::assemble;
//! use art9_sim::{Backend, Budget, Core, SimBuilder};
//!
//! let program = assemble("LI t3, 41\nADDI t3, 1\nJAL t0, 0\n")?;
//! for backend in Backend::ALL {
//!     let mut core = SimBuilder::new(&program).backend(backend).build();
//!     let summary = core.run_for(Budget::Steps(1_000))?;
//!     assert!(summary.halt.is_some(), "{backend:?} halted");
//!     assert_eq!(core.state().reg("t3".parse()?).to_i64(), 42);
//!     assert_eq!(core.retired(), 3);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use art9_isa::{Instruction, Program};
use ternary::Word9;

use crate::checkpoint::Checkpoint;
use crate::error::SimError;
use crate::functional::{CoreState, FunctionalSim, HaltReason, DEFAULT_TDM_WORDS};
use crate::observer::observers::EnergyAccounting;
use crate::observer::{lock, Accountant, Held, NoSink, Sink};
use crate::pipeline::PipelinedSim;
use crate::predecode::PredecodedProgram;
use crate::reference::ReferenceSim;
use crate::stats::PipelineStats;
use crate::threaded::ThreadedSim;
use crate::trace::CycleTrace;

/// Which execution model backs a [`Core`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Architecture-level reference simulator (one instruction per
    /// step, no timing) — [`FunctionalSim`].
    Functional,
    /// Cycle-accurate 5-stage pipeline (one clock cycle per step) —
    /// [`PipelinedSim`].
    Pipelined,
    /// Deliberately slow per-trit interpreter (one instruction per
    /// step) — [`ReferenceSim`](crate::ReferenceSim).
    Reference,
    /// Direct-threaded compiled backend (one instruction per step,
    /// superblock execution under `run_for`) —
    /// [`ThreadedSim`](crate::ThreadedSim).
    Threaded,
}

impl Backend {
    /// Every backend, in comparison-matrix order.
    pub const ALL: [Backend; 4] = [
        Backend::Functional,
        Backend::Pipelined,
        Backend::Reference,
        Backend::Threaded,
    ];

    /// Stable display name (`functional` / `pipelined` / `reference` /
    /// `threaded`).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Functional => "functional",
            Backend::Pipelined => "pipelined",
            Backend::Reference => "reference",
            Backend::Threaded => "threaded",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "functional" => Ok(Backend::Functional),
            "pipelined" => Ok(Backend::Pipelined),
            "reference" => Ok(Backend::Reference),
            "threaded" => Ok(Backend::Threaded),
            other => Err(format!(
                "unknown backend {other:?} (expected functional | pipelined | reference | threaded)"
            )),
        }
    }
}

/// An execution budget for [`Core::run_for`].
///
/// Budgets make long runs **preemptible**: `run_for` returns cleanly
/// (rather than erroring) when the budget is exhausted, so a driver can
/// interleave, checkpoint ([`Core::snapshot`]) and resume
/// ([`Core::restore`]) work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// At most this many [`Core::step`] calls — instructions on the
    /// architectural backends, clock cycles on the pipelined one.
    Steps(u64),
    /// Run until the *total* retired-instruction count
    /// ([`Core::retired`]) reaches this value — the backend-independent
    /// way to cut a run at an instruction boundary.
    Retired(u64),
}

/// What one [`Core::run_for`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Steps this call executed (instructions or cycles, per backend).
    pub steps: u64,
    /// Total instructions retired so far (not just by this call).
    pub retired: u64,
    /// `Some` when the machine has halted, `None` when the budget ran
    /// out first (call `run_for` again, or snapshot and resume later).
    pub halt: Option<HaltReason>,
}

/// One ART-9 execution backend behind a uniform interface.
///
/// Implemented by [`FunctionalSim`], [`PipelinedSim`],
/// [`ReferenceSim`](crate::ReferenceSim) and
/// [`ThreadedSim`](crate::ThreadedSim); built by [`SimBuilder`]. The
/// trait is the only way to drive or read a backend.
///
/// The contract every backend upholds:
///
/// * [`step`](Core::step) advances by the backend's natural quantum
///   (instruction or clock cycle) and reports the halt reason once per
///   run, sticky thereafter.
/// * [`state`](Core::state) exposes the software-visible machine
///   (registers and memory) mid-run; the pipelined backend does not
///   maintain `state().pc` (fetch is a microarchitectural detail).
/// * [`snapshot`](Core::snapshot)/[`restore`](Core::restore) round-trip
///   the *complete* execution state — architectural plus
///   backend-specific microarchitectural — so a restored core continues
///   bit-identically to an uninterrupted one.
pub trait Core: std::fmt::Debug + Send {
    /// Which backend this core is.
    fn backend(&self) -> Backend;

    /// Advances by one step (instruction or cycle). Returns
    /// `Ok(Some(reason))` when the machine is halted.
    ///
    /// # Errors
    ///
    /// [`SimError::PcOutOfRange`] on wild control transfers and
    /// [`SimError::MemoryFault`] on TDM access violations.
    fn step(&mut self) -> Result<Option<HaltReason>, SimError>;

    /// Runs until halt or until `budget` is exhausted — exhaustion is a
    /// clean return (`halt: None`), not an error, so runs can be
    /// budgeted, checkpointed and resumed.
    ///
    /// # Errors
    ///
    /// Propagates faults from [`Core::step`].
    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError>;

    /// Runs to halt within `max_steps` steps: [`run_for`](Core::run_for)
    /// with [`Budget::Steps`], where running out of budget is an error.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] when the machine has not halted after
    /// `max_steps` steps, plus any fault from [`Core::step`].
    fn run(&mut self, max_steps: u64) -> Result<RunSummary, SimError> {
        let summary = self.run_for(Budget::Steps(max_steps))?;
        match summary.halt {
            Some(_) => Ok(summary),
            None => Err(SimError::Timeout { limit: max_steps }),
        }
    }

    /// The software-visible machine state.
    fn state(&self) -> &CoreState;

    /// Mutable state access, e.g. to preload registers before a run.
    fn state_mut(&mut self) -> &mut CoreState;

    /// Whether (and why) the machine has halted.
    fn halted(&self) -> Option<HaltReason>;

    /// Total instructions retired.
    fn retired(&self) -> u64;

    /// Dynamic instruction mix: retired count per mnemonic.
    fn instruction_mix(&self) -> BTreeMap<&'static str, u64>;

    /// Captures the complete execution state as a serializable
    /// [`Checkpoint`].
    fn snapshot(&self) -> Checkpoint;

    /// Restores a [`Checkpoint`] taken from the same backend running
    /// the same program image; the restored core continues
    /// bit-identically to the snapshotted one. Architectural
    /// checkpoints (functional/reference/threaded) also cross-restore
    /// between those backends.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] when the checkpoint's backend or
    /// program shape does not match this core.
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError>;

    /// Cycle/stall accounting — `Some` only on the pipelined backend.
    fn pipeline_stats(&self) -> Option<PipelineStats> {
        None
    }

    /// The per-cycle trace — `Some` only on the pipelined backend with
    /// tracing enabled ([`SimBuilder::trace`]).
    fn trace(&self) -> Option<&[CycleTrace]> {
        None
    }
}

/// Folds a flat per-opcode counter array into the per-mnemonic map
/// every `instruction_mix` accessor returns (zero counts omitted) —
/// the one place the counter layout meets the mnemonic table.
pub(crate) fn mix_map(counts: &[u64; Instruction::OPCODE_COUNT]) -> BTreeMap<&'static str, u64> {
    Instruction::MNEMONICS
        .iter()
        .zip(counts.iter())
        .filter(|(_, count)| **count > 0)
        .map(|(name, count)| (*name, *count))
        .collect()
}

/// A backend with one step body, generic over where its events go —
/// functional, pipelined and reference. Their [`Core::step`] and
/// [`Core::run_for`] are [`step`] and [`run_for`] below.
pub(crate) trait SinkStep: Core + Sized {
    /// The flip kernel an attached accountant counts with.
    const FLIPS: fn(Word9, Word9) -> u32 = |next, prev| next.flips_from(&prev);

    /// The accountant slot.
    fn accountant(&mut self) -> &mut Option<Accountant>;

    /// One step, reporting its events to `sink`.
    fn step_with<E: Sink>(&mut self, sink: &mut E) -> Result<Option<HaltReason>, SimError>;
}

/// Runs `body` with the core's accountant locked; the core must have
/// one. The handle is moved out of the core for the call, so the sink
/// can borrow it while `body` mutates the core; a panic in `body` leaves
/// the core without its accountant.
fn held<C: SinkStep, T>(core: &mut C, body: impl FnOnce(&mut C, &mut Held<'_>) -> T) -> T {
    let energy = core.accountant().take().expect("an accountant is attached");
    let mut sink = Held {
        acc: lock(&energy),
        flips: C::FLIPS,
    };
    let out = body(core, &mut sink);
    drop(sink);
    *core.accountant() = Some(energy);
    out
}

/// [`Core::step`] of a [`SinkStep`] backend: the accountant stays
/// locked for the one step.
pub(crate) fn step<C: SinkStep>(core: &mut C) -> Result<Option<HaltReason>, SimError> {
    if core.accountant().is_none() {
        core.step_with(&mut NoSink)
    } else {
        held(core, |core, sink| core.step_with(sink))
    }
}

/// [`Core::run_for`] of a [`SinkStep`] backend: the accountant stays
/// locked for the whole call.
pub(crate) fn run_for<C: SinkStep>(core: &mut C, budget: Budget) -> Result<RunSummary, SimError> {
    if core.accountant().is_none() {
        run_loop(core, budget, |core| core.step_with(&mut NoSink))
    } else {
        held(core, |core, sink| {
            run_loop(core, budget, |core| core.step_with(sink))
        })
    }
}

/// The shared `run_for` loop over `step`, a backend's step body. The
/// call is static, so the virtual call happens once per `run_for`, not
/// once per step, even when the core itself is driven as `dyn Core`;
/// it is not inlined (release builds call `step_with` out of line on
/// every step). The budget is matched once, outside the loop.
pub(crate) fn run_loop<C: Core>(
    core: &mut C,
    budget: Budget,
    mut step: impl FnMut(&mut C) -> Result<Option<HaltReason>, SimError>,
) -> Result<RunSummary, SimError> {
    match budget {
        Budget::Steps(n) => run_until(core, &mut step, |_, steps| steps >= n),
        Budget::Retired(n) => run_until(core, &mut step, |core, _| core.retired() >= n),
    }
}

/// [`run_loop`] for one kind of budget: `exhausted(core, steps)` says
/// when it has run out. A step body returns the halt it causes, so the
/// core's halted flag is read once, on entry.
fn run_until<C: Core>(
    core: &mut C,
    step: &mut impl FnMut(&mut C) -> Result<Option<HaltReason>, SimError>,
    exhausted: impl Fn(&C, u64) -> bool,
) -> Result<RunSummary, SimError> {
    let mut steps = 0u64;
    let mut halt = core.halted();
    while halt.is_none() && !exhausted(core, steps) {
        halt = step(core)?;
        steps += 1;
    }
    Ok(RunSummary {
        steps,
        retired: core.retired(),
        halt,
    })
}

/// Builder-style configuration for every backend — the single
/// constructor replacing the old `new` / `with_tdm_size` /
/// `from_predecoded` zoo.
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Backend, Budget, Core, SimBuilder};
///
/// let program = assemble("LI t3, 5\nJAL t0, 0\n")?;
/// let mut core = SimBuilder::new(&program)
///     .backend(Backend::Pipelined)
///     .tdm_words(512)
///     .forwarding(false)
///     .trace(true)
///     .build();
/// core.run_for(Budget::Steps(1_000))?;
/// assert!(core.trace().is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// `build` borrows the builder, so one configured builder can stamp out
/// any number of cores over the same shared (`Arc`'d) program image —
/// the pattern the batch driver and the `report` binary use.
#[derive(Debug, Clone)]
pub struct SimBuilder {
    image: PredecodedProgram,
    backend: Backend,
    tdm_words: usize,
    forwarding: bool,
    trace: bool,
    energy: Option<Accountant>,
}

impl SimBuilder {
    /// Starts a builder over a program image. Accepts an assembled
    /// [`Program`] by reference (predecoded here, once) or an existing
    /// [`PredecodedProgram`] (shared, no re-decode).
    ///
    /// Defaults: [`Backend::Functional`], a
    /// [`DEFAULT_TDM_WORDS`]-word TDM, forwarding on, tracing off, no
    /// energy accountant.
    pub fn new(image: impl Into<PredecodedProgram>) -> Self {
        Self {
            image: image.into(),
            backend: Backend::Functional,
            tdm_words: DEFAULT_TDM_WORDS,
            forwarding: true,
            trace: false,
            energy: None,
        }
    }

    /// Selects the execution backend [`build`](Self::build) constructs.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the TDM size in words (grown automatically if the program's
    /// data image is larger).
    pub fn tdm_words(mut self, words: usize) -> Self {
        self.tdm_words = words;
        self
    }

    /// Enables/disables the forwarding multiplexers (pipelined backend
    /// only; the ablation study of the paper). Ignored elsewhere.
    pub fn forwarding(mut self, on: bool) -> Self {
        self.forwarding = on;
        self
    }

    /// Enables per-cycle tracing (pipelined backend only).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Attaches an energy accountant. A core holds at most one: a
    /// second call replaces the first. Keep your own `Arc` clone to read
    /// the counters between calls that drive the core; each
    /// [`Core::step`] or [`Core::run_for`] holds the lock until it
    /// returns.
    pub fn observer(mut self, energy: Arc<Mutex<EnergyAccounting>>) -> Self {
        self.energy = Some(energy);
        self
    }

    /// Builds the selected backend behind the uniform [`Core`] API.
    pub fn build(&self) -> Box<dyn Core> {
        match self.backend {
            Backend::Functional => Box::new(self.build_functional()),
            Backend::Pipelined => Box::new(self.build_pipelined()),
            Backend::Reference => Box::new(self.build_reference()),
            Backend::Threaded => Box::new(self.build_threaded()),
        }
    }

    /// Builds a concrete [`FunctionalSim`] (ignores the
    /// [`backend`](Self::backend) selection).
    pub fn build_functional(&self) -> FunctionalSim {
        FunctionalSim::build(&self.image, self.tdm_words, self.energy.clone())
    }

    /// Builds a concrete [`PipelinedSim`] (ignores the
    /// [`backend`](Self::backend) selection).
    pub fn build_pipelined(&self) -> PipelinedSim {
        PipelinedSim::build(
            &self.image,
            self.tdm_words,
            self.forwarding,
            self.trace,
            self.energy.clone(),
        )
    }

    /// Builds a concrete [`ReferenceSim`](crate::ReferenceSim) (ignores
    /// the [`backend`](Self::backend) selection).
    pub fn build_reference(&self) -> ReferenceSim {
        ReferenceSim::build(&self.image, self.tdm_words, self.energy.clone())
    }

    /// Builds a concrete [`ThreadedSim`](crate::ThreadedSim) (ignores
    /// the [`backend`](Self::backend) selection). Compilation to
    /// direct-threaded code happens here, once.
    pub fn build_threaded(&self) -> ThreadedSim {
        ThreadedSim::build(&self.image, self.tdm_words, self.energy.clone())
    }
}

impl From<&Program> for PredecodedProgram {
    /// Predecodes an assembled program (the convenience behind
    /// `SimBuilder::new(&program)`).
    fn from(p: &Program) -> Self {
        PredecodedProgram::new(p)
    }
}

impl From<&PredecodedProgram> for PredecodedProgram {
    /// O(1): the image is `Arc`-shared, not copied.
    fn from(p: &PredecodedProgram) -> Self {
        p.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::assemble;

    fn program() -> Program {
        assemble(
            "LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    #[test]
    fn all_backends_agree_through_one_code_path() {
        let builder = SimBuilder::new(&program());
        let mut results = Vec::new();
        for backend in Backend::ALL {
            let mut core = builder.clone().backend(backend).build();
            let summary = core.run_for(Budget::Steps(1_000_000)).unwrap();
            assert_eq!(summary.halt, Some(HaltReason::JumpToSelf), "{backend}");
            assert_eq!(core.backend(), backend);
            assert_eq!(core.state().reg(art9_isa::TReg::T4).to_i64(), 55);
            results.push((core.retired(), core.instruction_mix()));
        }
        assert_eq!(results[0], results[1], "functional vs pipelined");
        assert_eq!(results[0], results[2], "functional vs reference");
        assert_eq!(results[0], results[3], "functional vs threaded");
    }

    #[test]
    fn budget_exhaustion_is_clean_and_resumable() {
        let builder = SimBuilder::new(&program());
        let mut core = builder.build();
        let first = core.run_for(Budget::Steps(3)).unwrap();
        assert_eq!(first.steps, 3);
        assert_eq!(first.halt, None);
        // Resuming the same core finishes the program.
        let rest = core.run_for(Budget::Steps(1_000_000)).unwrap();
        assert_eq!(rest.halt, Some(HaltReason::JumpToSelf));
        assert_eq!(first.steps + rest.steps, rest.retired);
    }

    #[test]
    fn retired_budget_cuts_at_instruction_boundaries_on_every_backend() {
        for backend in Backend::ALL {
            let mut core = SimBuilder::new(&program()).backend(backend).build();
            let summary = core.run_for(Budget::Retired(7)).unwrap();
            assert_eq!(summary.halt, None, "{backend}");
            assert!(
                core.retired() >= 7,
                "{backend}: retired {} < 7",
                core.retired()
            );
            // The pipelined backend overshoots by at most the pipeline
            // depth; architectural backends are exact.
            if backend != Backend::Pipelined {
                assert_eq!(core.retired(), 7, "{backend}");
            }
        }
    }

    #[test]
    fn run_for_on_a_halted_core_is_a_no_op() {
        let mut core = SimBuilder::new(&program()).build();
        core.run_for(Budget::Steps(1_000_000)).unwrap();
        let retired = core.retired();
        let again = core.run_for(Budget::Steps(10)).unwrap();
        assert_eq!(again.steps, 0);
        assert_eq!(again.retired, retired);
        assert_eq!(again.halt, Some(HaltReason::JumpToSelf));
    }

    #[test]
    fn pipelined_extras_surface_through_the_trait() {
        let builder = SimBuilder::new(&program())
            .backend(Backend::Pipelined)
            .trace(true);
        let mut core = builder.build();
        core.run_for(Budget::Steps(1_000_000)).unwrap();
        let stats = core.pipeline_stats().expect("pipelined has stats");
        assert_eq!(stats.instructions, core.retired());
        assert!(core.trace().is_some_and(|t| !t.is_empty()));
        // Functional backend has neither.
        let func = SimBuilder::new(&program()).build();
        assert!(func.pipeline_stats().is_none());
        assert!(func.trace().is_none());
    }

    #[test]
    fn forwarding_off_costs_cycles_not_correctness() {
        let fwd = {
            let mut c = SimBuilder::new(&program())
                .backend(Backend::Pipelined)
                .build();
            c.run_for(Budget::Steps(1_000_000)).unwrap();
            (c.pipeline_stats().unwrap(), c.state().trf)
        };
        let nofwd = {
            let mut c = SimBuilder::new(&program())
                .backend(Backend::Pipelined)
                .forwarding(false)
                .build();
            c.run_for(Budget::Steps(1_000_000)).unwrap();
            (c.pipeline_stats().unwrap(), c.state().trf)
        };
        assert_eq!(fwd.1, nofwd.1, "same architecture");
        assert!(nofwd.0.cycles > fwd.0.cycles, "no-forwarding must stall");
    }

    #[test]
    fn backend_names_roundtrip() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.name());
        }
        assert!("bogus".parse::<Backend>().is_err());
    }
}
