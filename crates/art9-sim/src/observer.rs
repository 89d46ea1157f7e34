//! Energy accounting: the switching-activity counter a
//! [`Core`](crate::Core) carries when one is attached via
//! [`SimBuilder::observer`](crate::SimBuilder::observer).
//!
//! A core holds at most one [`EnergyAccounting`](observers::EnergyAccounting),
//! behind a shared `Arc<Mutex<…>>` handle, so the caller keeps a clone
//! and reads the counters between calls that drive the core:
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use art9_isa::assemble;
//! use art9_sim::observers::EnergyAccounting;
//! use art9_sim::{Backend, Budget, Core, SimBuilder};
//!
//! let p = assemble("LI t2, 3\nLI t3, 7\nSTORE t3, t2, 0\nJAL t0, 0\n")?;
//! let mut totals = Vec::new();
//! for backend in Backend::ALL {
//!     let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
//!     let mut core = SimBuilder::new(&p)
//!         .backend(backend)
//!         .observer(energy.clone())
//!         .build();
//!     core.run_for(Budget::Steps(100))?;
//!     totals.push(energy.lock().unwrap().totals());
//! }
//! // The counts are architectural: every backend reports the same.
//! assert!(totals.iter().all(|t| *t == totals[0]));
//! assert_eq!(totals[0].retired, 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A backend locks the accountant once per call that drives it: for one
//! [`Core::step`](crate::Core::step), or for a whole
//! [`Core::run_for`](crate::Core::run_for). The functional, pipelined
//! and reference step bodies build one [`Writeback`] record per
//! retirement and count its flips with the backend's own flip kernel:
//! the packed `Word9::flips_from`, or on the reference backend the
//! per-trit `ternary::arith::flips_tritwise`. With no accountant
//! attached, the record and everything captured only to build it
//! compile away. The threaded backend counts the same flips inside a
//! counted twin of its compiled code and never builds a record.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use art9_isa::{Instruction, TReg};
use ternary::Word9;

/// The handle a core shares with its caller.
pub(crate) type Accountant = Arc<Mutex<observers::EnergyAccounting>>;

/// Locks an accountant. A poisoned lock (a panic while it was held)
/// still yields the counters: accounting must not take the run down.
pub(crate) fn lock(acc: &Accountant) -> MutexGuard<'_, observers::EnergyAccounting> {
    acc.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A register-file write in a [`Writeback`]: the destination register
/// with its value before and after the write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegWrite {
    pub(crate) reg: TReg,
    pub(crate) old: Word9,
    /// Read back from the register file, so backend-specific write
    /// paths cannot diverge.
    pub(crate) new: Word9,
}

/// A TDM write in a [`Writeback`]: the word index with the cell's value
/// before and after the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemWrite {
    pub(crate) address: usize,
    pub(crate) old: Word9,
    pub(crate) new: Word9,
}

/// The architectural write-back of one retired instruction: everything
/// the switching-activity model needs to see the datapath's old and new
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Writeback {
    pub(crate) pc: usize,
    pub(crate) instr: Instruction,
    /// `None` for BEQ/BNE/STORE.
    pub(crate) reg: Option<RegWrite>,
    /// STORE only.
    pub(crate) mem: Option<MemWrite>,
    /// The TALU result driven onto the result bus: the computed value
    /// for ALU/logic/move ops, the effective address for LOAD/STORE,
    /// the link value for JAL/JALR, and zero for BEQ/BNE (whose
    /// comparison happened at COMP).
    pub(crate) bus: Word9,
}

/// Where a step body sends its retirements and its halt. Each step body
/// is generic over the sink, so with no accountant attached
/// ([`NoSink`]) every event site, and every value captured only to
/// report it, compiles away.
pub(crate) trait Sink {
    /// Whether events reach anyone; `false` only for [`NoSink`].
    const ON: bool;

    /// An instruction retired, after its architectural writes.
    fn writeback(&mut self, wb: &Writeback);

    /// The machine halted (on the pipelined backend: after the
    /// pipeline drained).
    fn halt(&mut self);
}

/// The sink of a core with no accountant attached.
pub(crate) struct NoSink;

impl Sink for NoSink {
    const ON: bool = false;

    #[inline(always)]
    fn writeback(&mut self, _wb: &Writeback) {}

    #[inline(always)]
    fn halt(&mut self) {}
}

/// The sink of a core with its accountant locked, counting with the
/// backend's flip kernel `flips`.
pub(crate) struct Held<'a> {
    pub(crate) acc: MutexGuard<'a, observers::EnergyAccounting>,
    pub(crate) flips: fn(Word9, Word9) -> u32,
}

impl Sink for Held<'_> {
    const ON: bool = true;

    #[inline]
    fn writeback(&mut self, wb: &Writeback) {
        self.acc.record(wb, self.flips);
    }

    #[inline]
    fn halt(&mut self) {
        self.acc.halted();
    }
}

/// The switching-activity accounting behind the dynamic energy model.
pub mod observers {
    use super::*;

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
    /// structure, per opcode — of every instruction the core it is
    /// attached to retires.
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
    /// program — a property the `energy` fuzz oracle checks, with the
    /// reference backend counting each flip per trit
    /// (`ternary::arith::flips_tritwise`) and the others on packed
    /// bitplanes. A halt resets the fetch and result-bus history, so
    /// one accumulator reused over several runs to halt sums exactly
    /// what a fresh one per run would.
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
    #[derive(Debug, Clone, Default)]
    pub struct EnergyAccounting {
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

    impl EnergyAccounting {
        /// An empty accumulator, with the datapath history at reset.
        pub fn new() -> Self {
            Self::default()
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

        /// Adds one retirement's activity, counting each flip with
        /// `flip`.
        pub(crate) fn record(&mut self, wb: &Writeback, flip: fn(Word9, Word9) -> u32) {
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

        /// The machine halted: the next retirement starts another run,
        /// from the reset datapath a fresh accumulator assumes.
        pub(crate) fn halted(&mut self) {
            self.prev_instr = Word9::ZERO;
            self.prev_pc = Word9::ZERO;
            self.prev_bus = Word9::ZERO;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::observers::*;
    use super::*;
    use crate::common::looped_program;
    use crate::core::{run_loop, Backend, Budget, SimBuilder, SinkStep};
    use crate::error::SimError;
    use art9_isa::assemble;
    use proptest::prelude::*;

    /// Records every write-back verbatim, and counts the halts.
    #[derive(Default)]
    struct Recorder {
        log: Vec<Writeback>,
        halts: usize,
    }

    impl Sink for Recorder {
        const ON: bool = true;

        fn writeback(&mut self, wb: &Writeback) {
            self.log.push(*wb);
        }

        fn halt(&mut self) {
            self.halts += 1;
        }
    }

    /// `core`'s step body run to halt into a [`Recorder`]: the
    /// write-back stream and the retired count.
    fn recorded<C: SinkStep>(mut core: C) -> (Vec<Writeback>, u64) {
        let mut rec = Recorder::default();
        let summary = run_loop(&mut core, Budget::Steps(1_000_000), |c| {
            c.step_with(&mut rec)
        })
        .expect("run completes");
        assert!(summary.halt.is_some(), "halted");
        assert_eq!(rec.halts, 1, "one halt event");
        (rec.log, core.retired())
    }

    /// The write-back streams of the backends with a step body, named.
    fn streams(p: &art9_isa::Program) -> [(&'static str, (Vec<Writeback>, u64)); 3] {
        let b = SimBuilder::new(p);
        [
            ("functional", recorded(b.build_functional())),
            ("pipelined", recorded(b.build_pipelined())),
            ("reference", recorded(b.build_reference())),
        ]
    }

    fn looped() -> art9_isa::Program {
        assemble(
            "LI t2, 5\nLI t3, 3\nloop:\nSTORE t3, t2, 0\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    fn energy() -> Accountant {
        Arc::new(Mutex::new(EnergyAccounting::new()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The write-back stream is architectural: for the same
        /// program, every step body reports bit-identical records — pc,
        /// instruction, old/new destination register value, old/new TDM
        /// cell, result-bus value — in retirement order. The accountant
        /// counts from this stream, so the measured energy of Table IV
        /// rests on it.
        #[test]
        fn writeback_stream_is_identical_on_every_backend(p in looped_program()) {
            let [(_, (base, base_retired)), rest @ ..] = streams(&p);
            prop_assert_eq!(base.len() as u64, base_retired, "one write-back per retirement");
            for (backend, (log, retired)) in rest {
                prop_assert_eq!(base_retired, retired, "{} retired differently", backend);
                prop_assert_eq!(&base, &log, "{} write-back stream diverged", backend);
            }
        }
    }

    #[test]
    fn a_second_observer_call_replaces_the_first() {
        for backend in Backend::ALL {
            let (first, second) = (energy(), energy());
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(first.clone())
                .observer(second.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            assert_eq!(lock(&first).totals().retired, 0, "{backend:?}");
            assert_eq!(
                lock(&second).totals().retired,
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
            let handle = energy();
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
            // The faulting LOAD has no write-back.
            assert_eq!(lock(&handle).totals().retired, 2, "{backend:?}");

            // Rewound to the start, with t2 = 0, the same core runs to
            // halt and still counts into the handle.
            core.restore(&start).unwrap();
            let summary = core.run_for(Budget::Steps(100)).unwrap();
            assert!(summary.halt.is_some(), "{backend:?}");
            assert!(handle.try_lock().is_ok(), "{backend:?}: locked after Ok");
            assert_eq!(lock(&handle).totals().retired, 2 + 5, "{backend:?}");
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
        let run = |acc: &Accountant, p: &art9_isa::Program, backend| {
            let mut core = SimBuilder::new(p)
                .backend(backend)
                .observer(acc.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
        };
        for backend in Backend::ALL {
            let reused = energy();
            run(&reused, &first, backend);
            run(&reused, &second, backend);
            let fresh = [&first, &second].map(|p| {
                let acc = energy();
                run(&acc, p, backend);
                let per_opcode = *lock(&acc).per_opcode();
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
            assert_eq!(lock(&reused).per_opcode().to_vec(), summed, "{backend:?}");
        }
    }

    #[test]
    fn mix_observer_matches_builtin_mix_on_every_backend() {
        for backend in Backend::ALL {
            let handle = energy();
            let mut core = SimBuilder::new(&looped())
                .backend(backend)
                .observer(handle.clone())
                .build();
            core.run_for(Budget::Steps(100_000)).unwrap();
            let retired = lock(&handle).per_opcode().map(|a| a.retired);
            assert_eq!(
                crate::core::mix_map(&retired),
                core.instruction_mix(),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn retire_log_and_halt_agree_across_backends() {
        let [(_, (base, base_retired)), rest @ ..] = streams(&looped());
        assert_eq!(base.len() as u64, base_retired);
        let order = |log: &[Writeback]| -> Vec<(usize, Instruction)> {
            log.iter().map(|wb| (wb.pc, wb.instr)).collect()
        };
        for (backend, (log, retired)) in rest {
            assert_eq!(
                order(&base),
                order(&log),
                "{backend}: retirement order differs"
            );
            assert_eq!(base_retired, retired, "{backend}");
        }
    }

    #[test]
    fn control_and_halt_events_fire() {
        for (backend, (log, _)) in streams(&looped()) {
            let controls: Vec<usize> = log
                .iter()
                .filter(|wb| wb.instr.is_control_flow())
                .map(|wb| wb.pc)
                .collect();
            // The BEQ retires three times (two loop-backs, then the
            // fall-through), then the JAL-to-self halts; `recorded`
            // checked the one halt event.
            assert_eq!(controls, [6, 6, 6, 7], "{backend}");
            let stores: Vec<(usize, i64)> = log
                .iter()
                .filter_map(|wb| wb.mem.map(|m| (wb.pc, m.new.to_i64())))
                .collect();
            assert_eq!(stores, [(2, 3), (2, 2), (2, 1)], "{backend}");
        }
    }
}
