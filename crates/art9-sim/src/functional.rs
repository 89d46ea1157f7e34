//! The functional (architecture-level) instruction-set simulator.
//!
//! Executes one instruction per step with no timing model. It is the
//! reference the cycle-accurate pipeline is property-tested against, and
//! the fast path for workload debugging.
//!
//! ## Halt convention
//!
//! Bare-metal ART-9 programs halt by **jumping to themselves** (e.g.
//! `halt: JAL t0, 0` or a taken branch with offset 0): any control
//! transfer whose target equals its own address stops the machine.
//! Falling off the end of TIM (PC == text length) also halts cleanly.

use std::sync::Arc;

use art9_isa::{Instruction, Program, TReg};
use ternary::{TernaryMemory, Word9};

use crate::checkpoint::{Checkpoint, Micro};
use crate::core::{Backend, Budget, Core, RunSummary, SinkStep};
use crate::error::SimError;
use crate::exec::{alu, base_plus_offset, Opcode, Row, NO_DEST};
use crate::observer::{Accountant, MemWrite, RegWrite, Sink, Writeback};
use crate::predecode::PredecodedProgram;

/// Default TDM size in words (matches the 256-word memories behind
/// Table V's RAM accounting).
pub const DEFAULT_TDM_WORDS: usize = 256;

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// A control transfer targeted its own address (idle loop).
    JumpToSelf,
    /// Execution fell off the end of the instruction memory.
    FellOffEnd,
}

/// The architectural state of an ART-9 core: PC, the nine-register TRF
/// and the data memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    /// Program counter (instruction index into TIM).
    pub pc: usize,
    /// The ternary register file, indexed by [`TReg::index`].
    pub trf: [Word9; 9],
    /// The ternary data memory.
    pub tdm: TernaryMemory,
}

impl std::fmt::Display for CoreState {
    /// Register-dump format: PC plus the nine TRF registers, one per
    /// line, as both trits and decimal.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "pc  = {}", self.pc)?;
        for (i, w) in self.trf.iter().enumerate() {
            writeln!(f, "t{i}  = {w} ({})", w.to_i64())?;
        }
        Ok(())
    }
}

impl CoreState {
    /// Fresh state: PC 0, zeroed registers, TDM loaded from `program`.
    pub fn new(program: &Program, tdm_words: usize) -> Self {
        Self::with_image(program.data(), tdm_words)
    }

    /// Fresh state with the TDM loaded from a bare data image (grown to
    /// fit if the image is larger than `tdm_words`).
    pub fn with_image(data: &[Word9], tdm_words: usize) -> Self {
        Self {
            pc: 0,
            trf: [Word9::ZERO; 9],
            tdm: TernaryMemory::with_image(tdm_words.max(data.len()), data),
        }
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: TReg) -> Word9 {
        self.trf[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: TReg, v: Word9) {
        self.trf[r.index()] = v;
    }

    /// The first architectural difference between two states, as a
    /// human-readable description — the nine TRF registers, then the
    /// TDM word by word. `None` when the states agree.
    ///
    /// The PC is deliberately *not* compared: it is a fetch-engine
    /// detail the pipelined simulator tracks outside `CoreState`, so
    /// only the software-visible machine state (registers and memory)
    /// is meaningful across simulator backends. This is the comparison
    /// the differential fuzzing oracles (`art9-fuzz`) apply; it lives
    /// here so every consumer diffs states the same way.
    ///
    /// # Examples
    ///
    /// ```
    /// use art9_isa::assemble;
    /// use art9_sim::{Budget, Core, SimBuilder};
    ///
    /// let p = assemble("LI t3, 1\nJAL t0, 0\n")?;
    /// let builder = SimBuilder::new(&p);
    /// let mut a = builder.build();
    /// let mut b = builder.build();
    /// a.run_for(Budget::Steps(100))?;
    /// b.run_for(Budget::Steps(100))?;
    /// assert_eq!(a.state().first_difference(b.state()), None);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn first_difference(&self, other: &CoreState) -> Option<String> {
        for (i, (a, b)) in self.trf.iter().zip(other.trf.iter()).enumerate() {
            if a != b {
                return Some(format!(
                    "t{i} = {a} ({}) vs {b} ({})",
                    a.to_i64(),
                    b.to_i64()
                ));
            }
        }
        if self.tdm.size() != other.tdm.size() {
            return Some(format!(
                "TDM sizes {} vs {}",
                self.tdm.size(),
                other.tdm.size()
            ));
        }
        for (addr, (a, b)) in self.tdm.iter().zip(other.tdm.iter()).enumerate() {
            if a != b {
                return Some(format!(
                    "TDM[{addr}] = {a} ({}) vs {b} ({})",
                    a.to_i64(),
                    b.to_i64()
                ));
            }
        }
        None
    }
}

/// The functional instruction-set simulator.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Core, SimBuilder};
///
/// // Branches test only the least-significant trit, so loops use the
/// // paper's COMP idiom: copy, compare against zero, branch on sign.
/// let program = assemble("
///     LI   t3, 10
///     LI   t4, 0
/// loop:
///     ADD  t4, t3          ; t4 += t3
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0          ; t7 = sign(t3)
///     BEQ  t7, +, loop     ; loop while t3 > 0
/// halt:
///     JAL  t0, 0           ; jump-to-self halts
/// ")?;
///
/// let mut sim = SimBuilder::new(&program).build_functional();
/// let summary = sim.run(10_000)?;
/// assert_eq!(sim.state().reg("t4".parse()?).to_i64(), 55); // 10+9+...+1
/// assert!(summary.retired > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// [`ThreadedSim`](crate::ThreadedSim) embeds one of these as its
/// architectural core: the compiled code updates `state`, the retired
/// count, the halt reason and `mix` in place; it never runs this
/// core's step body.
#[derive(Debug, Clone)]
pub struct FunctionalSim {
    image: PredecodedProgram,
    /// The image's execution rows, taken from it on the first step (so a
    /// threaded core, which never steps this core, does not build
    /// them): empty until then.
    rows: Arc<[Row]>,
    pub(crate) state: CoreState,
    pub(crate) instructions: u64,
    pub(crate) halted: Option<HaltReason>,
    pub(crate) mix: [u64; Instruction::OPCODE_COUNT],
    pub(crate) energy: Option<Accountant>,
}

impl FunctionalSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        energy: Option<Accountant>,
    ) -> Self {
        Self {
            image: image.clone(),
            rows: Arc::new([]),
            state: CoreState::with_image(image.data(), tdm_words),
            instructions: 0,
            halted: None,
            mix: [0; Instruction::OPCODE_COUNT],
            energy,
        }
    }
}

impl SinkStep for FunctionalSim {
    fn accountant(&mut self) -> &mut Option<Accountant> {
        &mut self.energy
    }

    fn step_with<E: Sink>(&mut self, sink: &mut E) -> Result<Option<HaltReason>, SimError> {
        if let Some(reason) = self.halted {
            return Ok(Some(reason));
        }
        let pc = self.state.pc;
        // One bounds test covers both the first step (no rows taken yet)
        // and the end of the text.
        if pc >= self.rows.len() {
            self.rows = Arc::clone(self.image.rows());
            if pc == self.rows.len() {
                self.halted = Some(HaltReason::FellOffEnd);
                sink.halt();
                return Ok(Some(HaltReason::FellOffEnd));
            }
        }
        let rows = &*self.rows;
        // A copy, not a reference: the stores below then cannot change
        // `row.op` as far as the compiler knows, so `alu`'s own match
        // folds into the one dispatch below.
        let row = &{ rows[pc] };
        self.instructions += 1;
        self.mix[row.op as usize] += 1;

        let state = &mut self.state;
        let (a, b) = (state.trf[usize::from(row.a)], state.trf[usize::from(row.b)]);
        // Old destination value, captured before any write so the
        // write-back event can report the overwritten contents.
        let dest = usize::from(row.dest);
        let old_reg = if E::ON && row.dest != NO_DEST {
            state.trf[dest]
        } else {
            Word9::ZERO
        };
        let mem_fault = |cause| SimError::MemoryFault { pc, cause };
        // A control target, range-checked (`rows.len()` itself falls
        // off the end and halts below).
        let instructions = self.instructions;
        let jump = |target: i64| {
            if (target as u64) <= rows.len() as u64 {
                Ok(target as usize)
            } else {
                Err(SimError::PcOutOfRange {
                    at: instructions,
                    pc: target,
                    tim_size: rows.len(),
                })
            }
        };
        // One dispatch: each arm does its instruction's whole work, and
        // the ALU arms reach `alu` with their opcode already known. Each
        // arm also leaves what it drove onto the result bus (BEQ/BNE
        // drive zero); with no sink it is never read.
        let mut mem_write = None;
        let mut bus = Word9::ZERO;
        let mut next = pc + 1;
        match row.op {
            Opcode::Load => {
                let address = base_plus_offset(row, b);
                let index = state.tdm.index_of(address).map_err(mem_fault)?;
                state.trf[dest] = state.tdm.read(index).expect("index_of checked it");
                if E::ON {
                    bus = Word9::from_i64_wrapping(address);
                }
            }
            Opcode::Store => {
                let address = base_plus_offset(row, b);
                let index = state.tdm.index_of(address).map_err(mem_fault)?;
                if E::ON {
                    bus = Word9::from_i64_wrapping(address);
                    mem_write = Some(MemWrite {
                        old: state.tdm.read(index).expect("index_of checked it"),
                        new: a,
                    });
                }
                state.tdm.write(index, a).expect("index_of checked it");
            }
            Opcode::Beq => {
                if b.lst() == row.cond {
                    next = jump(i64::from(row.off))?;
                }
            }
            Opcode::Bne => {
                if b.lst() != row.cond {
                    next = jump(i64::from(row.off))?;
                }
            }
            // The link is written before the target is checked, so a
            // faulting jump still leaves it (and JALR read its base
            // first, so `JALR tX, tX, k` jumps through the old value).
            Opcode::Jal => {
                (bus, state.trf[dest]) = (row.imm, row.imm);
                next = jump(i64::from(row.off))?;
            }
            Opcode::Jalr => {
                (bus, state.trf[dest]) = (row.imm, row.imm);
                next = jump(base_plus_offset(row, b))?;
            }
            _ => {
                bus = alu(row, a, b);
                state.trf[dest] = bus;
            }
        }

        if E::ON {
            sink.writeback(&Writeback {
                pc,
                op: row.op,
                fetch: self.image.fetch_words()[pc],
                reg: (row.dest != NO_DEST).then(|| RegWrite {
                    reg: row.dest,
                    old: old_reg,
                    new: self.state.trf[dest],
                }),
                mem: mem_write,
                bus,
            });
        }

        let halt = if next == pc {
            Some(HaltReason::JumpToSelf)
        } else if next == rows.len() {
            self.state.pc = next;
            Some(HaltReason::FellOffEnd)
        } else {
            self.state.pc = next;
            None
        };
        if let Some(reason) = halt {
            self.halted = Some(reason);
            sink.halt();
        }
        Ok(halt)
    }
}

impl Core for FunctionalSim {
    fn backend(&self) -> Backend {
        Backend::Functional
    }

    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        crate::core::step(self)
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        crate::core::run_for(self, budget)
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }

    fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    fn retired(&self) -> u64 {
        self.instructions
    }

    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.mix)
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            backend: Backend::Functional,
            text_len: self.image.len(),
            state: self.state.clone(),
            retired: self.instructions,
            halted: self.halted,
            mix: self.mix,
            micro: Micro::Architectural,
        }
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        checkpoint.guard(Backend::Functional, self.image.len())?;
        self.state = checkpoint.state.clone();
        self.instructions = checkpoint.retired;
        self.halted = checkpoint.halted;
        self.mix = checkpoint.mix;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;

    fn run_src(src: &str) -> FunctionalSim {
        let p = assemble(src).unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        sim.run(1_000_000).unwrap();
        sim
    }

    #[test]
    fn countdown_loop_with_comp_idiom() {
        // BNE/BEQ test only the LST, so the loop guard goes through COMP
        // (paper §IV-A: "we preset the LST of TRF[Tb] … by using a COMP
        // instruction").
        let sim = run_src(
            "LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 55);
        assert_eq!(sim.halted(), Some(HaltReason::JumpToSelf));
    }

    #[test]
    fn branch_tests_lst_only() {
        // LST(9) == 0, so `BNE t3, 0` falls through even though t3 != 0:
        // the 1-trit condition is architectural, not a bug.
        let sim = run_src("LI t3, 9\nBNE t3, 0, skip\nLI t4, 1\nskip:\nJAL t0, 0\n");
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 1);
    }

    #[test]
    fn fell_off_end_halts() {
        let sim = run_src("LI t3, 1\nADDI t3, 2\n");
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 3);
        assert_eq!(sim.halted(), Some(HaltReason::FellOffEnd));
    }

    #[test]
    fn load_store_roundtrip() {
        let sim = run_src(
            "
            .data
            v: .word 41, 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            ADDI t3, 1
            STORE t3, t2, 1
            LOAD t4, t2, 1
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 42);
        assert_eq!(sim.state().tdm.read(1).unwrap().to_i64(), 42);
    }

    #[test]
    fn comp_and_branch_three_way() {
        // Take the 'greater' path: t3=5 > t4=3 so COMP LST = +.
        let sim = run_src(
            "
            LI t3, 5
            LI t4, 3
            COMP t3, t4
            BEQ t3, +, greater
            LI t5, -99
            JAL t0, 0
            greater:
            LI t5, 77
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 77);
    }

    #[test]
    fn jal_links_and_jalr_returns() {
        let sim = run_src(
            "
            LI t3, 0
            JAL t1, sub      ; call
            ADDI t3, 10      ; executed after return
            JAL t0, 0        ; halt
            sub:
            ADDI t3, 1
            JALR t0, t1, 0   ; return
            ",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 11);
    }

    #[test]
    fn memory_fault_reports_pc() {
        let p = assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        let err = sim.run(100).unwrap_err();
        match err {
            SimError::MemoryFault { pc, .. } => assert_eq!(pc, 2),
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }

    #[test]
    fn timeout_reported() {
        // Two-instruction infinite loop (never jumps to self).
        let p = assemble("a: NOP\nJAL t0, a\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        assert!(matches!(sim.run(10), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn wild_jump_faults() {
        let p = assemble("LI t2, 121\nJALR t0, t2, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        assert!(matches!(sim.run(10), Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn instruction_mix_counts_dynamic_executions() {
        let sim = run_src(
            "LI t3, 3\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        );
        let mix = sim.instruction_mix();
        assert_eq!(mix["LI"], 1);
        assert_eq!(mix["ADDI"], 3);
        assert_eq!(mix["COMP"], 3);
        assert_eq!(mix["BEQ"], 3);
        assert_eq!(mix["JAL"], 1);
        let total: u64 = mix.values().sum();
        assert_eq!(total, sim.retired());
    }

    #[test]
    fn preloading_registers() {
        let p = assemble("ADD t3, t4\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_functional();
        sim.state_mut()
            .set_reg(TReg::T3, Word9::from_i64(30).unwrap());
        sim.state_mut()
            .set_reg(TReg::T4, Word9::from_i64(12).unwrap());
        sim.run(10).unwrap();
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
    }
}
