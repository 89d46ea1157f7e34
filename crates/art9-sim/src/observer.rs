//! Observer hooks: callbacks fired by every [`Core`](crate::Core)
//! backend as instructions retire and when it halts.
//!
//! An [`Observer`] receives two kinds of events — the architectural
//! write-back of every retired instruction ([`Writeback`]: its pc, the
//! instruction, its register and TDM writes with their old and new
//! values, and the result-bus value) and the halt — from whichever
//! backend it is attached to via
//! [`SimBuilder::observer`](crate::SimBuilder::observer). A core holds
//! at most one observer. Observers are shared handles
//! ([`SharedObserver`] is `Arc<Mutex<…>>`), so the caller keeps a clone
//! and inspects the accumulated data between calls that drive the core:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use art9_isa::assemble;
//! use art9_sim::observers::Watchpoint;
//! use art9_sim::{Budget, Core, SimBuilder};
//!
//! let p = assemble("LI t2, 3\nLI t3, 7\nSTORE t3, t2, 0\nJAL t0, 0\n")?;
//! let watch = Arc::new(Mutex::new(Watchpoint::new(3)));
//! let mut core = SimBuilder::new(&p).observer(watch.clone()).build();
//! core.run_for(Budget::Steps(100))?;
//! let hits = watch.lock().unwrap().hits.clone();
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].value.to_i64(), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A backend locks its observer once per call that drives it: for one
//! [`Core::step`](crate::Core::step), or for a whole
//! [`Core::run_for`](crate::Core::run_for). An event then costs one
//! dynamic call and no lock. With no observer attached, the event sites
//! are compiled out of the step body altogether.
//!
//! The threaded backend runs its compiled code, for
//! [`Core::step`](crate::Core::step) and
//! [`Core::run_for`](crate::Core::run_for) alike, only with no observer
//! attached, or with a packed
//! [`EnergyAccounting`](observers::EnergyAccounting) (found through
//! [`Observer::energy_counters`]), whose flips it then counts inside
//! that code. Any other observer moves it onto the functional core's
//! observed step, which reports every event.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use art9_isa::{Instruction, TReg};
use ternary::Word9;

use crate::functional::HaltReason;

/// A register-file write as seen by [`Observer::on_writeback`]: the
/// destination register with its value before and after the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegWrite {
    /// Destination register.
    pub reg: TReg,
    /// Register contents before the write.
    pub old: Word9,
    /// Register contents after the write (read back from the register
    /// file, so backend-specific write paths cannot diverge).
    pub new: Word9,
}

/// A TDM write as seen by [`Observer::on_writeback`]: the word index
/// with the memory cell's value before and after the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Resolved TDM word index.
    pub address: usize,
    /// Cell contents before the store.
    pub old: Word9,
    /// Cell contents after the store (the stored value).
    pub new: Word9,
}

/// The architectural write-back of one retired instruction, as reported
/// to [`Observer::on_writeback`] — everything a switching-activity model
/// needs to see the datapath's old and new values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Writeback {
    /// Instruction address.
    pub pc: usize,
    /// The retired instruction.
    pub instr: Instruction,
    /// The register-file write, when the instruction writes a register
    /// (`None` for BEQ/BNE/STORE).
    pub reg: Option<RegWrite>,
    /// The TDM write, for STORE only.
    pub mem: Option<MemWrite>,
    /// The TALU result driven onto the result bus this instruction:
    /// the computed value for ALU/logic/move ops, the effective address
    /// for LOAD/STORE, the link value for JAL/JALR, and zero for
    /// BEQ/BNE (whose comparison happened at COMP).
    pub bus: Word9,
}

/// Callbacks a [`Core`](crate::Core) backend fires as instructions
/// retire and when it halts. Both events have a no-op default, so an
/// observer implements only what it reads.
///
/// ## Contract
///
/// * `on_writeback` fires once per retired instruction, **after** its
///   architectural writes, carrying their old and new values (see
///   [`Writeback`]). On the pipelined backend that is the WB stage, so
///   retirement order — not fetch order — is observed.
/// * `on_halt` fires exactly once, when the backend halts (for the
///   pipelined backend: after the pipeline drains).
///
/// Observers must not assume a particular backend: every backend
/// reports the same write-back and halt sequence for the same program.
///
/// The handle is locked for the duration of each
/// [`step`](crate::Core::step) or [`run_for`](crate::Core::run_for)
/// call on a core it is attached to, so read it between calls. Another
/// thread that locks it meanwhile waits for the call to return.
///
/// One exception to the event stream: an observer whose
/// [`energy_counters`](Observer::energy_counters) returns `Some` is not
/// told of any retirement by a threaded core's `step` or `run_for`. The
/// core adds the same counts to those counters directly; `on_halt`
/// still fires.
#[allow(unused_variables)]
pub trait Observer {
    /// An instruction retired; `wb` holds its architectural writes.
    fn on_writeback(&mut self, wb: &Writeback) {}

    /// The machine halted after retiring `retired` instructions.
    fn on_halt(&mut self, reason: HaltReason, retired: u64) {}

    /// The counters of an [`observers::EnergyAccounting`] built with
    /// the packed flip kernel ([`observers::EnergyAccounting::new`]);
    /// `None` for every other observer.
    ///
    /// The threaded backend counts such an accountant's flips inside
    /// its compiled code and adds them to these counters directly,
    /// instead of reporting write-back events. The totals are the same
    /// either way.
    fn energy_counters(&mut self) -> Option<&mut observers::EnergyAccounting> {
        None
    }
}

/// A shareable observer handle: keep a typed `Arc<Mutex<T>>` clone for
/// yourself and hand the coerced `SharedObserver` to
/// [`SimBuilder::observer`](crate::SimBuilder::observer).
pub type SharedObserver = Arc<Mutex<dyn Observer + Send>>;

/// The observer slot a backend carries: empty, or one handle. Cloning a
/// simulator shares its observer (the handle is an `Arc`).
#[derive(Clone, Default)]
pub(crate) struct ObserverSlot(pub(crate) Option<SharedObserver>);

impl std::fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.0.is_some() {
            "attached"
        } else {
            "empty"
        };
        write!(f, "ObserverSlot({state})")
    }
}

impl ObserverSlot {
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// Locks the observer, when one is attached, for as long as the
    /// returned sink lives.
    pub(crate) fn hold(&self) -> Option<Held<'_>> {
        // A poisoned lock (an observer panicked earlier) still yields
        // the data; observation must not take the run down.
        let observer = self.0.as_ref()?;
        Some(Held(
            observer.lock().unwrap_or_else(PoisonError::into_inner),
        ))
    }
}

/// Where a backend's step body sends its events. Each step body is
/// generic over the sink, so with no observer attached ([`NoSink`])
/// every event site, and every value captured only to report it,
/// compiles away.
pub(crate) trait Sink {
    /// Whether events reach anyone; `false` only for [`NoSink`].
    const ON: bool;

    /// Reports a retirement ([`Observer::on_writeback`]).
    fn writeback(&mut self, wb: &Writeback);

    /// Reports the halt ([`Observer::on_halt`]).
    fn halt(&mut self, reason: HaltReason, retired: u64);
}

/// The sink of a core with no observer attached.
pub(crate) struct NoSink;

impl Sink for NoSink {
    const ON: bool = false;

    #[inline(always)]
    fn writeback(&mut self, _wb: &Writeback) {}

    #[inline(always)]
    fn halt(&mut self, _reason: HaltReason, _retired: u64) {}
}

/// The sink of a core with its observer locked
/// ([`ObserverSlot::hold`]), so an event costs one dynamic call and no
/// lock.
pub(crate) struct Held<'a>(MutexGuard<'a, dyn Observer + Send + 'static>);

impl Sink for Held<'_> {
    const ON: bool = true;

    #[inline]
    fn writeback(&mut self, wb: &Writeback) {
        self.0.on_writeback(wb);
    }

    #[inline]
    fn halt(&mut self, reason: HaltReason, retired: u64) {
        self.0.on_halt(reason, retired);
    }
}

impl Held<'_> {
    /// The observer's [`Observer::energy_counters`].
    pub(crate) fn energy_counters(&mut self) -> Option<&mut observers::EnergyAccounting> {
        self.0.energy_counters()
    }
}

/// Ready-made observers: a store watchpoint, the sync-point detector
/// behind cross-ISA lockstep checking, and the switching-activity
/// accounting behind the dynamic energy model.
pub mod observers {
    use super::*;

    /// One recorded hit of a [`Watchpoint`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct WatchHit {
        /// Instruction address of the store.
        pub pc: usize,
        /// The value written.
        pub value: Word9,
    }

    /// Records every store to one watched TDM address, read from the
    /// stores' write-back records ([`Writeback::mem`]): no polling, and
    /// exact store PCs on every backend.
    #[derive(Debug, Clone)]
    pub struct Watchpoint {
        address: usize,
        /// Every store to the watched address, in program order.
        pub hits: Vec<WatchHit>,
    }

    impl Watchpoint {
        /// Watches TDM word `address`.
        pub fn new(address: usize) -> Self {
            Self {
                address,
                hits: Vec::new(),
            }
        }

        /// The watched address.
        pub fn address(&self) -> usize {
            self.address
        }
    }

    impl Observer for Watchpoint {
        fn on_writeback(&mut self, wb: &Writeback) {
            match wb.mem {
                Some(store) if store.address == self.address => self.hits.push(WatchHit {
                    pc: wb.pc,
                    value: store.new,
                }),
                _ => {}
            }
        }
    }

    /// Records, in order, every time the architectural control flow
    /// **enters** one of a set of watched TIM addresses — the
    /// sync-point detector behind cross-ISA lockstep checking.
    ///
    /// "Entering" address `b` means a retired instruction's successor
    /// was `b`. Retirement is in order on every backend, so each
    /// retirement's successor is the pc of the next one. A crossing is
    /// therefore recorded for each retirement after a run's first whose
    /// pc is watched, and, at a [`HaltReason::JumpToSelf`] halt, for the
    /// last retired pc (its own successor). The initial fetch at address
    /// 0 is *not* an entry — no instruction transferred control there —
    /// and an address at or past the end of the text is never entered,
    /// not even by falling off the end.
    ///
    /// The recorded crossing trace is backend-independent — in
    /// particular it works on the pipelined backend, whose architectural
    /// PC is not observable between cycles. `art9-fuzz` watches the RV32
    /// instruction boundaries of a translated program and compares the
    /// trace against the `rv32` machine's own execution path.
    #[derive(Debug, Clone, Default)]
    pub struct SyncPoints {
        watched: std::collections::BTreeSet<usize>,
        /// The pc of the run's last retirement: `None` before its
        /// first and after its halt.
        last: Option<usize>,
        /// Every watched address entered, in retirement order.
        pub crossings: Vec<usize>,
    }

    impl SyncPoints {
        /// Watches the given TIM addresses.
        pub fn new(watched: impl IntoIterator<Item = usize>) -> Self {
            Self {
                watched: watched.into_iter().collect(),
                last: None,
                crossings: Vec::new(),
            }
        }

        /// The crossing trace recorded so far.
        pub fn crossings(&self) -> &[usize] {
            &self.crossings
        }
    }

    impl Observer for SyncPoints {
        fn on_writeback(&mut self, wb: &Writeback) {
            if self.last.replace(wb.pc).is_some() && self.watched.contains(&wb.pc) {
                self.crossings.push(wb.pc);
            }
        }

        fn on_halt(&mut self, reason: HaltReason, _retired: u64) {
            match self.last.take() {
                Some(pc) if reason == HaltReason::JumpToSelf && self.watched.contains(&pc) => {
                    self.crossings.push(pc);
                }
                _ => {}
            }
        }
    }

    /// Per-opcode switching activity accumulated by [`EnergyAccounting`]:
    /// retirement count plus trit flips attributed to each datapath
    /// structure while instructions of this opcode retired.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OpcodeActivity {
        /// Instructions of this opcode retired.
        pub retired: u64,
        /// Register-file write-port flips (old vs new destination value).
        pub regfile: u64,
        /// TDM cell flips (old vs stored value; STORE only).
        pub tdm: u64,
        /// Fetch-path flips: instruction-register (encoded word) plus
        /// PC-register switching between consecutive retirements.
        pub fetch: u64,
        /// Result-bus flips: the TALU output against the value it drove
        /// for the previous instruction.
        pub alu: u64,
    }

    impl OpcodeActivity {
        fn absorb(&mut self, other: &OpcodeActivity) {
            self.retired += other.retired;
            self.regfile += other.regfile;
            self.tdm += other.tdm;
            self.fetch += other.fetch;
            self.alu += other.alu;
        }
    }

    /// Measures dynamic switching activity — trit flips per datapath
    /// structure, per opcode — from the [`Writeback`] event stream.
    ///
    /// This is the execution side of the dynamic energy model (see
    /// `docs/ENERGY.md`): every flip counted here is one trit changing
    /// value in a storage element or on the result bus, which `art9-hw`
    /// converts to energy via the tech library's per-cell switching
    /// energies. Structures tracked:
    ///
    /// * **regfile** — write-port activity: old vs new value of the
    ///   destination register at each register-writing retirement;
    /// * **tdm** — data-memory cell activity: old vs stored value at
    ///   each STORE;
    /// * **fetch** — instruction-register and PC-register activity
    ///   between consecutive retirements (the 9-trit encoded
    ///   instruction word, and the PC wrapped to a 9-trit word);
    /// * **alu** — result-bus activity: consecutive TALU outputs.
    ///
    /// The counts are architectural (derived from the retirement
    /// stream), so every backend produces identical totals for the same
    /// program — a property the `energy` fuzz oracle checks against a
    /// per-trit reference ([`EnergyAccounting::with_flip_fn`] +
    /// `ternary::arith::flips_tritwise`). A halt resets the fetch and
    /// result-bus history, so one accumulator reused over several runs
    /// to halt sums exactly what a fresh one per run would.
    ///
    /// ```
    /// use std::sync::{Arc, Mutex};
    /// use art9_isa::assemble;
    /// use art9_sim::observers::EnergyAccounting;
    /// use art9_sim::{Budget, Core, SimBuilder};
    ///
    /// let p = assemble("LI t2, 121\nADDI t2, 1\nJAL t0, 0\n")?;
    /// let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    /// let mut core = SimBuilder::new(&p).observer(energy.clone()).build();
    /// core.run_for(Budget::Steps(100))?;
    /// let e = energy.lock().unwrap();
    /// // LI writes 121 into a zero register (5 trits flip), ADDI turns
    /// // 121 = 0000+++++ into 122 = 000+----- (6 trits flip), and the
    /// // halting JAL links 3 = 00000000+0 into t0 (1 flip).
    /// assert_eq!(e.totals().regfile, 5 + 6 + 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[derive(Debug, Clone)]
    pub struct EnergyAccounting {
        flip_fn: fn(Word9, Word9) -> u32,
        /// Whether `flip_fn` is the packed kernel of
        /// [`EnergyAccounting::new`].
        packed: bool,
        pub(crate) prev_instr: Word9,
        pub(crate) prev_pc: Word9,
        pub(crate) prev_bus: Word9,
        pub(crate) per_opcode: [OpcodeActivity; Instruction::OPCODE_COUNT],
        /// Per pc: the instruction last retired there, its encoded
        /// word and the pc as a 9-trit word. Both words are static per
        /// instruction, so a hit skips re-encoding; the instruction is
        /// compared on every hit, so an accumulator reused across
        /// programs stays exact.
        fetch_words: Vec<Option<(Instruction, Word9, Word9)>>,
    }

    /// What the fetch path holds while `instr` at `pc` retires: its
    /// encoded word (the instruction register) and the pc wrapped to a
    /// 9-trit word (the PC register).
    pub(crate) fn fetch_words(pc: usize, instr: &Instruction) -> (Word9, Word9) {
        (art9_isa::encode(instr), Word9::from_i64_wrapping(pc as i64))
    }

    impl Default for EnergyAccounting {
        fn default() -> Self {
            Self::new()
        }
    }

    impl EnergyAccounting {
        /// An accumulator using the packed bitplane flip kernel
        /// ([`Word9::flips_from`]).
        pub fn new() -> Self {
            Self {
                packed: true,
                ..Self::with_flip_fn(|next, prev| next.flips_from(&prev))
            }
        }

        /// An accumulator with a substitute flip function — the
        /// differential energy oracle passes
        /// `ternary::arith::flips_tritwise` here and asserts the totals
        /// are bit-identical to [`EnergyAccounting::new`]'s.
        pub fn with_flip_fn(flip_fn: fn(Word9, Word9) -> u32) -> Self {
            Self {
                flip_fn,
                packed: false,
                prev_instr: Word9::ZERO,
                prev_pc: Word9::ZERO,
                prev_bus: Word9::ZERO,
                per_opcode: [OpcodeActivity::default(); Instruction::OPCODE_COUNT],
                fetch_words: Vec::new(),
            }
        }

        /// The encoded instruction word and the pc word of a
        /// retirement, cached per pc.
        fn fetch_words(&mut self, pc: usize, instr: Instruction) -> (Word9, Word9) {
            if pc >= self.fetch_words.len() {
                self.fetch_words.resize(pc + 1, None);
            }
            match self.fetch_words[pc] {
                Some((cached, encoded, pc_word)) if cached == instr => (encoded, pc_word),
                _ => {
                    let (encoded, pc_word) = fetch_words(pc, &instr);
                    self.fetch_words[pc] = Some((instr, encoded, pc_word));
                    (encoded, pc_word)
                }
            }
        }

        /// Activity accumulated per opcode, indexed like
        /// [`Instruction::MNEMONICS`].
        pub fn per_opcode(&self) -> &[OpcodeActivity; Instruction::OPCODE_COUNT] {
            &self.per_opcode
        }

        /// Activity summed over all opcodes.
        pub fn totals(&self) -> OpcodeActivity {
            let mut total = OpcodeActivity::default();
            for acc in &self.per_opcode {
                total.absorb(acc);
            }
            total
        }
    }

    impl Observer for EnergyAccounting {
        fn on_writeback(&mut self, wb: &Writeback) {
            let flip = self.flip_fn;
            let (encoded, pc_word) = self.fetch_words(wb.pc, wb.instr);
            let acc = &mut self.per_opcode[wb.instr.opcode()];
            acc.retired += 1;
            if let Some(r) = wb.reg {
                acc.regfile += u64::from(flip(r.new, r.old));
            }
            if let Some(m) = wb.mem {
                acc.tdm += u64::from(flip(m.new, m.old));
            }
            acc.fetch += u64::from(flip(encoded, self.prev_instr));
            acc.fetch += u64::from(flip(pc_word, self.prev_pc));
            acc.alu += u64::from(flip(wb.bus, self.prev_bus));
            self.prev_instr = encoded;
            self.prev_pc = pc_word;
            self.prev_bus = wb.bus;
        }

        fn on_halt(&mut self, _reason: HaltReason, _retired: u64) {
            // The next retirement starts another run, from the reset
            // datapath a fresh accumulator assumes.
            self.prev_instr = Word9::ZERO;
            self.prev_pc = Word9::ZERO;
            self.prev_bus = Word9::ZERO;
        }

        /// `Some` only for [`EnergyAccounting::new`]: a substitute
        /// flip function keeps this accountant on the event path,
        /// where every flip goes through it.
        fn energy_counters(&mut self) -> Option<&mut EnergyAccounting> {
            self.packed.then_some(self)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::observers::*;
    use super::*;
    use crate::core::{Backend, Budget, SimBuilder};
    use crate::error::SimError;
    use art9_isa::assemble;

    /// `(pc, instruction)` in retirement order.
    #[derive(Default)]
    struct Retirements {
        log: Vec<(usize, Instruction)>,
    }

    impl Observer for Retirements {
        fn on_writeback(&mut self, wb: &Writeback) {
            self.log.push((wb.pc, wb.instr));
        }
    }

    fn looped() -> art9_isa::Program {
        assemble(
            "LI t2, 5\nLI t3, 3\nloop:\nSTORE t3, t2, 0\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    /// The crossing trace of a [`SyncPoints`] watching `watched`, run to
    /// halt on each backend.
    fn crossings(
        program: &art9_isa::Program,
        watched: impl IntoIterator<Item = usize> + Clone,
    ) -> Vec<Vec<usize>> {
        Backend::ALL
            .iter()
            .map(|&backend| {
                let sp = Arc::new(Mutex::new(SyncPoints::new(watched.clone())));
                let mut core = SimBuilder::new(program)
                    .backend(backend)
                    .observer(sp.clone())
                    .build();
                assert!(core.run_for(Budget::Steps(100_000)).unwrap().halt.is_some());
                let trace = sp.lock().unwrap().crossings().to_vec();
                trace
            })
            .collect()
    }

    #[test]
    fn a_second_observer_call_replaces_the_first() {
        for backend in Backend::ALL {
            let first = Arc::new(Mutex::new(Retirements::default()));
            let second = Arc::new(Mutex::new(Retirements::default()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(first.clone())
                .observer(second.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            assert!(first.lock().unwrap().log.is_empty(), "{backend:?}");
            assert_eq!(
                second.lock().unwrap().log.len() as u64,
                core.retired(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn run_for_unlocks_its_handles_after_ok_and_after_a_fault() {
        // t2 is preset to an address outside the TDM, so the LOAD at
        // pc 2 faults after two instructions have retired.
        let p = assemble("LI t4, 1\nADDI t4, 1\nLOAD t3, t2, 0\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        for backend in Backend::ALL {
            let handle = Arc::new(Mutex::new(Retirements::default()));
            let mut core = SimBuilder::new(&p)
                .backend(backend)
                .observer(handle.clone())
                .build();
            let start = core.snapshot();
            core.state_mut()
                .set_reg(TReg::T2, Word9::from_i64(-100).unwrap());

            assert_eq!(core.run_for(Budget::Steps(1)).unwrap().halt, None);
            assert!(handle.try_lock().is_ok(), "{backend:?}: locked after Ok");
            let err = core.run_for(Budget::Steps(100)).unwrap_err();
            assert!(
                matches!(err, SimError::MemoryFault { pc: 2, .. }),
                "{backend:?}: {err}"
            );
            assert!(
                handle.try_lock().is_ok(),
                "{backend:?}: locked after a fault"
            );
            assert_eq!(handle.lock().unwrap().log.len(), 2, "{backend:?}");

            // Rewound to the start, with t2 = 0, the same core runs to
            // halt and still reports to the handle.
            core.restore(&start).unwrap();
            let summary = core.run_for(Budget::Steps(100)).unwrap();
            assert!(summary.halt.is_some(), "{backend:?}");
            assert!(handle.try_lock().is_ok(), "{backend:?}: locked after Ok");
            assert_eq!(handle.lock().unwrap().log.len(), 2 + 5, "{backend:?}");
        }
    }

    #[test]
    fn one_energy_accumulator_reused_over_two_programs_sums_two_fresh_ones() {
        // Different instructions at the same pcs: the reused
        // accumulator must not serve one program's cached fetch words
        // to the other.
        let first = looped();
        let second = assemble(
            "LI t3, 100\nLI t2, 7\nSTORE t3, t2, 1\nSUB t3, t2\nLOAD t4, t2, 1\n\
             XOR t4, t3\nJAL t0, 0\n",
        )
        .unwrap();
        let energy = |acc: &Arc<Mutex<EnergyAccounting>>, p: &art9_isa::Program, backend| {
            let mut core = SimBuilder::new(p)
                .backend(backend)
                .observer(acc.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
        };
        for backend in Backend::ALL {
            let reused = Arc::new(Mutex::new(EnergyAccounting::new()));
            energy(&reused, &first, backend);
            energy(&reused, &second, backend);
            let fresh = [&first, &second].map(|p| {
                let acc = Arc::new(Mutex::new(EnergyAccounting::new()));
                energy(&acc, p, backend);
                let per_opcode = *acc.lock().unwrap().per_opcode();
                per_opcode
            });
            let summed: Vec<OpcodeActivity> = fresh[0]
                .iter()
                .zip(&fresh[1])
                .map(|(a, b)| OpcodeActivity {
                    retired: a.retired + b.retired,
                    regfile: a.regfile + b.regfile,
                    tdm: a.tdm + b.tdm,
                    fetch: a.fetch + b.fetch,
                    alu: a.alu + b.alu,
                })
                .collect();
            assert_eq!(
                reused.lock().unwrap().per_opcode().to_vec(),
                summed,
                "{backend:?}"
            );
        }
    }

    #[test]
    fn mix_observer_matches_builtin_mix_on_every_backend() {
        for backend in Backend::ALL {
            let handle = Arc::new(Mutex::new(Retirements::default()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(handle.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let mut mix = std::collections::BTreeMap::new();
            for (_, instr) in &handle.lock().unwrap().log {
                *mix.entry(instr.mnemonic()).or_insert(0) += 1;
            }
            assert_eq!(mix, core.instruction_mix(), "{backend:?}");
        }
    }

    #[test]
    fn watchpoint_sees_every_store_with_pc() {
        for backend in Backend::ALL {
            let handle = Arc::new(Mutex::new(Watchpoint::new(5)));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(handle.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let w = handle.lock().unwrap();
            assert_eq!(w.address(), 5);
            let values: Vec<i64> = w.hits.iter().map(|h| h.value.to_i64()).collect();
            assert_eq!(values, [3, 2, 1], "{backend:?}: one store per iteration");
            assert!(
                w.hits.iter().all(|h| h.pc == 2),
                "{backend:?}: store at pc 2"
            );
        }
    }

    #[test]
    fn retire_log_and_halt_agree_across_backends() {
        let run = |backend| {
            let log = Arc::new(Mutex::new(Retirements::default()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(log.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let l = log.lock().unwrap().log.clone();
            (l, core.retired())
        };
        let (f_log, f_ret) = run(Backend::Functional);
        assert_eq!(f_log.len() as u64, f_ret);
        for backend in [Backend::Pipelined, Backend::Reference, Backend::Threaded] {
            let (log, ret) = run(backend);
            assert_eq!(f_log, log, "{backend:?}: retirement order differs");
            assert_eq!(f_ret, ret, "{backend:?}");
        }
    }

    #[test]
    fn sync_points_record_identical_crossings_on_every_backend() {
        // Watch the loop head (pc 2): entered twice by the taken
        // backward branch — the initial fall-in from pc 1 is a plain
        // retirement of pc 1 whose successor is 2, which also counts.
        for trace in crossings(&looped(), [2]) {
            // Entered by LI t3 (pc 1 -> 2) and by two taken loop-backs.
            assert_eq!(trace, [2, 2, 2]);
        }
    }

    #[test]
    fn sync_points_enter_a_watched_jump_to_self_twice() {
        // The halting JAL at pc 7 is entered from the BEQ's final
        // fall-through, then once more by its own transfer to itself.
        for trace in crossings(&looped(), [0, 7]) {
            assert_eq!(trace, [7, 7]);
        }
    }

    #[test]
    fn sync_points_never_enter_the_end_of_the_text() {
        // The loop falls through its BEQ off the end at pc 6: every pc
        // after the first is entered, the end of the text never is.
        let program =
            assemble("LI t3, 2\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\n")
                .unwrap();
        let len = program.text().len();
        for trace in crossings(&program, 0..=len + 1) {
            assert_eq!(trace, [1, 2, 3, 4, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn control_and_halt_events_fire() {
        #[derive(Default)]
        struct Counter {
            controls: Vec<usize>,
            halts: Vec<(HaltReason, u64)>,
        }
        impl Observer for Counter {
            fn on_writeback(&mut self, wb: &Writeback) {
                if wb.instr.is_control_flow() {
                    self.controls.push(wb.pc);
                }
            }
            fn on_halt(&mut self, reason: HaltReason, retired: u64) {
                self.halts.push((reason, retired));
            }
        }
        for backend in Backend::ALL {
            let c = Arc::new(Mutex::new(Counter::default()));
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(c.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let c = c.lock().unwrap();
            // The BEQ retires three times (two loop-backs, then the
            // fall-through), then the JAL-to-self halts.
            assert_eq!(c.controls, [6, 6, 6, 7], "{backend:?}");
            assert_eq!(c.halts, vec![(HaltReason::JumpToSelf, core.retired())]);
        }
    }
}
