//! The cycle-accurate 5-stage pipeline model of the ART-9 core
//! (paper Fig. 4 and §IV-B).
//!
//! Stages: **IF** (fetch from TIM), **ID** (main decoder, TRF read,
//! hazard detection unit, branch-target calculator + condition checker),
//! **EX** (TALU with forwarding multiplexers), **MEM** (TDM access),
//! **WB** (TRF write).
//!
//! ## Timing model (matches the paper's stall claims)
//!
//! * Full forwarding into EX from the EX/MEM and MEM/WB pipeline
//!   registers, plus TRF write-through (a register written by WB is
//!   visible to ID in the same cycle).
//! * Branches and jumps resolve in **ID** with a dedicated target adder
//!   and 1-trit condition checker; condition/base operands forward into
//!   ID from the EX output (the paper's "forwarding one-trit values"),
//!   from EX/MEM and from WB write-through.
//! * Hardware stalls occur **only** for (paper §IV-B):
//!   1. load-use hazards — 1 stall when the consumer needs the value in
//!      EX; 2 stalls when a B-type consumer needs it already in ID;
//!   2. taken branches/jumps — exactly 1 squashed fetch.
//! * Not-taken branches cost nothing.
//!
//! The architectural results are property-tested to be identical to the
//! functional simulator on arbitrary programs; only the timing differs.

use std::sync::Arc;

use art9_isa::Instruction;
use ternary::Word9;

use crate::checkpoint::{Checkpoint, Micro, PipelineMicro};
use crate::core::{Backend, Budget, Core, RunSummary, SinkStep};
use crate::error::SimError;
use crate::exec::{alu, target, Opcode, Row, NO_DEST, NO_SRC};
use crate::functional::{CoreState, HaltReason};
use crate::observer::{Accountant, MemWrite, RegWrite, Sink, Writeback};
use crate::predecode::PredecodedProgram;
use crate::stats::PipelineStats;
use crate::trace::{CycleTrace, StageSnapshot};

/// ID/EX pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct IdEx {
    pub(crate) pc: usize,
    pub(crate) a_val: Word9,
    pub(crate) b_val: Word9,
}

/// EX/MEM pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ExMem {
    pub(crate) pc: usize,
    /// ALU result, spliced immediate, link value, or effective address.
    pub(crate) result: Word9,
    /// The datum a STORE carries.
    pub(crate) store_val: Word9,
}

/// MEM/WB pipeline register payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemWb {
    pub(crate) pc: usize,
    pub(crate) value: Word9,
}

/// Energy-accounting side channel travelling in lockstep with [`MemWb`]:
/// the EX result-bus value (for LOADs `MemWb.value` holds the loaded
/// datum, not the bus) and the old/new TDM cell a STORE rewrote.
///
/// Deliberately *not* part of `MemWb`, whose layout the
/// `art9-checkpoint v1` text format serializes; like the trace buffer,
/// this is transient per-core state that a restore simply clears.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WbCarry {
    bus: Word9,
    mem: Option<MemWrite>,
}

/// The cycle-accurate pipelined ART-9 core.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Core, SimBuilder};
///
/// let program = assemble("
///     LI   t3, 4
/// loop:
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0          ; t7 = sign(t3); presets the branch trit
///     BEQ  t7, +, loop
///     JAL  t0, 0
/// ")?;
///
/// let mut core = SimBuilder::new(&program).build_pipelined();
/// core.run(10_000)?;
/// assert_eq!(core.state().reg("t3".parse()?).to_i64(), 0);
/// let stats = core.pipeline_stats().expect("pipelined backend");
/// // Taken branches cost one bubble each; CPI stays close to 1.
/// assert!(stats.cpi() < 2.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PipelinedSim {
    text: Arc<[Instruction]>,
    rows: Arc<[Row]>,
    state: CoreState,
    fetch_pc: usize,
    /// IF/ID: the PC of the fetched word awaiting decode.
    if_id: Option<usize>,
    id_ex: Option<IdEx>,
    ex_mem: Option<ExMem>,
    mem_wb: Option<MemWb>,
    wb_carry: Option<WbCarry>,
    stats: PipelineStats,
    halting: Option<HaltReason>,
    halted: Option<HaltReason>,
    trace: Option<Vec<CycleTrace>>,
    forwarding: bool,
    mix: [u64; Instruction::OPCODE_COUNT],
    energy: Option<Accountant>,
}

impl PipelinedSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        forwarding: bool,
        trace: bool,
        energy: Option<Accountant>,
    ) -> Self {
        Self {
            text: image.text_arc(),
            rows: Arc::clone(image.rows()),
            state: CoreState::with_image(image.data(), tdm_words),
            fetch_pc: 0,
            if_id: None,
            id_ex: None,
            ex_mem: None,
            mem_wb: None,
            wb_carry: None,
            stats: PipelineStats::default(),
            halting: None,
            halted: None,
            trace: trace.then(Vec::new),
            forwarding,
            mix: [0; Instruction::OPCODE_COUNT],
            energy,
        }
    }

    /// Appends this cycle's stage occupancy to the trace buffer (the
    /// step body calls it only when tracing is on).
    #[cold]
    fn push_trace(&mut self) {
        let snap = |pc: usize| StageSnapshot {
            pc,
            instr: self.text[pc],
        };
        let cycle = CycleTrace {
            cycle: self.stats.cycles,
            if_stage: self.if_id.map(snap),
            ex_stage: self.id_ex.map(|e| snap(e.pc)),
            mem_stage: self.ex_mem.map(|m| snap(m.pc)),
            wb_stage: self.mem_wb.map(|w| snap(w.pc)),
        };
        if let Some(trace) = &mut self.trace {
            trace.push(cycle);
        }
    }
}

impl SinkStep for PipelinedSim {
    fn accountant(&mut self) -> &mut Option<Accountant> {
        &mut self.energy
    }

    /// One step of the pipelined backend is one **clock cycle**;
    /// `Some(reason)` once the pipeline has fully drained after a halt
    /// condition.
    ///
    /// Hazards, forwarding, the ALU in EX and the branch unit in ID all
    /// read the image's per-PC [`Row`]s; the instruction itself is read
    /// only for the write-back record and the trace.
    fn step_with<E: Sink>(&mut self, sink: &mut E) -> Result<Option<HaltReason>, SimError> {
        if let Some(reason) = self.halted {
            return Ok(Some(reason));
        }
        self.stats.cycles += 1;

        // Register state at the start of this cycle (forwarding sources).
        let old_id_ex = self.id_ex;
        let old_ex_mem = self.ex_mem;
        let old_mem_wb = self.mem_wb;
        let forwarding = self.forwarding;
        let rows = &*self.rows;

        // ---- WB ------------------------------------------------------
        // Synchronous TRF write; write-through makes the value visible
        // to ID in this same cycle.
        let carry = self.wb_carry.take();
        let (wb_dest, wb_value) = if let Some(wb) = old_mem_wb {
            let h = &rows[wb.pc];
            self.stats.instructions += 1;
            self.mix[h.op as usize] += 1;
            let dest = usize::from(h.dest);
            let old_reg = if E::ON && h.dest != NO_DEST {
                self.state.trf[dest]
            } else {
                Word9::ZERO
            };
            if h.dest != NO_DEST {
                self.state.trf[dest] = wb.value;
            }
            if E::ON {
                // A restore mid-flight clears the carry; fall back to the
                // WB value as the bus for that one instruction.
                let carry = carry.unwrap_or(WbCarry {
                    bus: wb.value,
                    mem: None,
                });
                let instr = self.text[wb.pc];
                sink.writeback(&Writeback {
                    pc: wb.pc,
                    instr,
                    reg: instr.writes().map(|reg| RegWrite {
                        reg,
                        old: old_reg,
                        new: wb.value,
                    }),
                    mem: carry.mem,
                    bus: carry.bus,
                });
            }
            (h.dest, wb.value)
        } else {
            (NO_DEST, Word9::ZERO)
        };
        self.mem_wb = None;

        // ---- MEM -----------------------------------------------------
        if let Some(mem) = old_ex_mem {
            let h = &rows[mem.pc];
            let mut mem_write = None;
            let value = if h.op == Opcode::Load {
                self.state
                    .tdm
                    .read_word_addr(mem.result)
                    .map_err(|cause| SimError::MemoryFault { pc: mem.pc, cause })?
            } else if h.op == Opcode::Store {
                // Old cell value, read before the write so the write
                // itself still produces the canonical fault.
                let old_cell = if E::ON {
                    self.state.tdm.read_word_addr(mem.result).ok()
                } else {
                    None
                };
                self.state
                    .tdm
                    .write_word_addr(mem.result, mem.store_val)
                    .map_err(|cause| SimError::MemoryFault { pc: mem.pc, cause })?;
                if E::ON {
                    mem_write = Some(MemWrite {
                        address: self.state.tdm.resolve(mem.result).expect("write succeeded"),
                        old: old_cell.expect("write succeeded"),
                        new: mem.store_val,
                    });
                }
                Word9::ZERO
            } else {
                mem.result
            };
            self.mem_wb = Some(MemWb { pc: mem.pc, value });
            if E::ON {
                self.wb_carry = Some(WbCarry {
                    bus: mem.result,
                    mem: mem_write,
                });
            }
        }
        self.ex_mem = None;

        // ---- EX ------------------------------------------------------
        // Forwarding mux: EX/MEM (non-load) then MEM/WB then RF value
        // captured at ID. An empty source slot matches no producer.
        let mut ex_result: Option<Word9> = None;
        if let Some(ex) = old_id_ex {
            let fwd = |reg: u8, captured: Word9| -> Word9 {
                if !forwarding {
                    return captured;
                }
                if let Some(m) = &old_ex_mem {
                    let h = &rows[m.pc];
                    if h.op != Opcode::Load && h.dest == reg {
                        return m.result;
                    }
                }
                if let Some(w) = &old_mem_wb {
                    if rows[w.pc].dest == reg {
                        return w.value;
                    }
                }
                captured
            };
            let row = &rows[ex.pc];
            let a_val = fwd(row.src[0], ex.a_val);
            let b_val = fwd(row.src[1], ex.b_val);
            let result = alu(row, a_val, b_val);
            self.ex_mem = Some(ExMem {
                pc: ex.pc,
                result,
                store_val: a_val, // STORE datum travels in the Ta path
            });
            ex_result = Some(result);
        }
        self.id_ex = None;

        // ---- ID ------------------------------------------------------
        // Hazard detection, TRF read (with write-through), branch
        // resolution.
        let mut stall = false;
        let mut redirect: Option<usize> = None;
        if let Some(pc) = self.if_id {
            let h = &rows[pc];

            // Value of a register as visible to ID this cycle:
            // EX output (this cycle) > EX/MEM > WB write-through > TRF.
            // Returns None when the value is still in flight (producer
            // is a LOAD that has not reached WB, or any producer when
            // forwarding is disabled).
            let id_value = |reg: u8| -> Option<Word9> {
                if let Some(ex) = &old_id_ex {
                    let p = &rows[ex.pc];
                    if p.dest == reg {
                        return if !forwarding || p.op == Opcode::Load {
                            None
                        } else {
                            ex_result
                        };
                    }
                }
                if let Some(m) = &old_ex_mem {
                    let p = &rows[m.pc];
                    if p.dest == reg {
                        return if !forwarding || p.op == Opcode::Load {
                            None
                        } else {
                            Some(m.result)
                        };
                    }
                }
                if wb_dest == reg {
                    return Some(wb_value);
                }
                Some(self.state.trf[usize::from(reg)])
            };

            if h.is_control() {
                // B-type needs its source register (Tb, its only source
                // slot) already in ID.
                let b_reg = h.src[1];
                let b_val = if b_reg == NO_SRC {
                    Some(Word9::ZERO)
                } else {
                    id_value(b_reg)
                };
                match b_val {
                    None => {
                        stall = true;
                        self.stats.id_use_stalls += 1;
                    }
                    Some(b_val) => {
                        match target(h, b_val) {
                            Some(target) => {
                                if target < 0 || target as usize > self.text.len() {
                                    return Err(SimError::PcOutOfRange {
                                        at: self.stats.cycles,
                                        pc: target,
                                        tim_size: self.text.len(),
                                    });
                                }
                                self.stats.taken_transfers += 1;
                                if target as usize == pc {
                                    // Jump-to-self: halt request.
                                    self.halting = Some(HaltReason::JumpToSelf);
                                } else {
                                    redirect = Some(target as usize);
                                    self.stats.control_flush_bubbles += 1;
                                }
                            }
                            None => self.stats.untaken_branches += 1,
                        }
                        self.id_ex = Some(IdEx {
                            pc,
                            a_val: b_val,
                            b_val,
                        });
                    }
                }
            } else {
                // EX-use hazard: LOAD in EX whose destination feeds us
                // (or, with forwarding disabled, any in-flight producer).
                let mut load_use = false;
                if let Some(ex) = &old_id_ex {
                    let p = &rows[ex.pc];
                    if (p.op == Opcode::Load || !forwarding) && h.src.contains(&p.dest) {
                        load_use = true;
                    }
                }
                if !forwarding {
                    if let Some(m) = &old_ex_mem {
                        if h.src.contains(&rows[m.pc].dest) {
                            load_use = true;
                        }
                    }
                }
                if load_use {
                    stall = true;
                    self.stats.load_use_stalls += 1;
                } else {
                    // TRF read with write-through; stale in-flight values
                    // are fine — the EX forwarding mux overrides them.
                    let read = |reg: u8| -> Word9 {
                        if reg == NO_SRC {
                            Word9::ZERO
                        } else if reg == wb_dest {
                            wb_value
                        } else {
                            self.state.trf[usize::from(reg)]
                        }
                    };
                    self.id_ex = Some(IdEx {
                        pc,
                        a_val: read(h.src[0]),
                        b_val: read(h.src[1]),
                    });
                }
            }
        }

        // ---- IF ------------------------------------------------------
        if !stall {
            self.if_id = None;
            if let Some(target) = redirect {
                // A taken branch/jump squashes the word fetched this
                // cycle; the target is fetched next cycle — the paper's
                // one-cycle stall after taken B-type instructions.
                self.fetch_pc = target;
                if self.halting == Some(HaltReason::FellOffEnd) {
                    // Fetch had speculatively run off the end; the
                    // redirect revives it.
                    self.halting = None;
                }
            } else if self.halting.is_none() {
                if self.fetch_pc < self.text.len() {
                    self.if_id = Some(self.fetch_pc);
                    self.fetch_pc += 1;
                } else {
                    // Fetch ran off the end; halt once the pipe drains.
                    self.halting = Some(HaltReason::FellOffEnd);
                }
            }
        }

        if self.trace.is_some() {
            self.push_trace();
        }

        // Drained after a halt condition?
        if self.halting.is_some()
            && self.if_id.is_none()
            && self.id_ex.is_none()
            && self.ex_mem.is_none()
            && self.mem_wb.is_none()
        {
            self.halted = self.halting;
            sink.halt();
            return Ok(self.halted);
        }
        Ok(None)
    }
}

impl Core for PipelinedSim {
    fn backend(&self) -> Backend {
        Backend::Pipelined
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
        self.stats.instructions
    }

    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.mix)
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            backend: Backend::Pipelined,
            text_len: self.text.len(),
            state: self.state.clone(),
            retired: self.stats.instructions,
            halted: self.halted,
            mix: self.mix,
            micro: Micro::Pipelined(Box::new(PipelineMicro {
                fetch_pc: self.fetch_pc,
                halting: self.halting,
                forwarding: self.forwarding,
                stats: self.stats,
                if_id: self.if_id.map(|pc| (self.text[pc], pc)),
                id_ex: self.id_ex.map(|e| (self.text[e.pc], e)),
                ex_mem: self.ex_mem.map(|m| (self.text[m.pc], m)),
                mem_wb: self.mem_wb.map(|w| (self.text[w.pc], w)),
            })),
        }
    }

    /// Restores the architectural state *and* the whole
    /// microarchitectural picture — fetch engine, all four latches,
    /// stall accounting, forwarding setting — so the resumed core is
    /// cycle-for-cycle identical to the snapshotted one. The trace
    /// buffer (if tracing is enabled) is not rewound: it records this
    /// core's own cycles only.
    ///
    /// Every occupied latch must carry the instruction this core's
    /// program holds at the latch's PC: a checkpoint of another program
    /// (or an edited one) is refused rather than run.
    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        checkpoint.guard(Backend::Pipelined, self.text.len())?;
        let Micro::Pipelined(m) = &checkpoint.micro else {
            return Err(SimError::Checkpoint {
                detail: "pipelined checkpoint lacks its micro section".into(),
            });
        };
        if let Some((latch, pc, instr)) = m.latches().find(|&(_, pc, instr)| self.text[pc] != instr)
        {
            return Err(SimError::Checkpoint {
                detail: format!(
                    "checkpoint {latch} latch holds `{instr}`, but this program holds `{}` at pc {pc}",
                    self.text[pc]
                ),
            });
        }
        self.state = checkpoint.state.clone();
        self.mix = checkpoint.mix;
        self.halted = checkpoint.halted;
        self.fetch_pc = m.fetch_pc;
        self.halting = m.halting;
        self.forwarding = m.forwarding;
        self.stats = m.stats;
        self.if_id = m.if_id.map(|(_, pc)| pc);
        self.id_ex = m.id_ex.map(|(_, e)| e);
        self.ex_mem = m.ex_mem.map(|(_, x)| x);
        self.mem_wb = m.mem_wb.map(|(_, w)| w);
        self.wb_carry = None;
        Ok(())
    }

    fn pipeline_stats(&self) -> Option<PipelineStats> {
        Some(self.stats)
    }

    fn trace(&self) -> Option<&[CycleTrace]> {
        self.trace.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::{assemble, TReg};

    fn run_pipe(src: &str) -> (PipelinedSim, PipelineStats) {
        let p = assemble(src).unwrap();
        let mut sim = SimBuilder::new(&p).build_pipelined();
        sim.run(1_000_000).unwrap();
        let stats = sim.stats;
        (sim, stats)
    }

    #[test]
    fn straight_line_cpi_near_one() {
        // 20 independent instructions + halt; fill = 4 cycles.
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&format!("LI t{}, {}\n", 3 + (i % 6), i));
        }
        src.push_str("JAL t0, 0\n");
        let (_, stats) = run_pipe(&src);
        assert_eq!(stats.instructions, 21);
        assert_eq!(stats.lost_cycles(), 0);
        // cycles = instructions + 4 (fill)
        assert_eq!(stats.cycles, 25);
    }

    #[test]
    fn alu_forwarding_avoids_stalls() {
        let (sim, stats) =
            run_pipe("LI t3, 1\nADDI t3, 1\nADDI t3, 1\nADD t4, t3\nADD t4, t3\nJAL t0, 0\n");
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 3);
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 6);
        assert_eq!(stats.load_use_stalls, 0);
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn load_use_costs_one_stall() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 41\n.text\nLI t2, 0\nLOAD t3, t2, 0\nADDI t3, 1\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
        assert_eq!(stats.load_use_stalls, 1);
    }

    #[test]
    fn load_then_independent_instr_no_stall() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 41\n.text\nLI t2, 0\nLOAD t3, t2, 0\nLI t5, 7\nADDI t3, 1\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 42);
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 7);
        assert_eq!(stats.load_use_stalls, 0);
    }

    #[test]
    fn taken_branch_costs_one_bubble() {
        let (_, stats) =
            run_pipe("LI t3, 0\nNOP\nNOP\nBEQ t3, 0, skip\nLI t4, 1\nskip:\nLI t5, 2\nJAL t0, 0\n");
        // BEQ taken (t3 LST == 0) and the final JAL-to-self halts without
        // a flush; only the BEQ flushes.
        assert_eq!(stats.control_flush_bubbles, 1);
    }

    #[test]
    fn untaken_branch_costs_nothing() {
        let (_, stats) =
            run_pipe("LI t3, 1\nNOP\nNOP\nBEQ t3, 0, skip\nLI t4, 1\nskip:\nLI t5, 2\nJAL t0, 0\n");
        assert_eq!(stats.control_flush_bubbles, 0);
        assert_eq!(stats.untaken_branches, 1);
    }

    #[test]
    fn comp_then_branch_forwards_condition() {
        // COMP immediately before BEQ: the 1-trit forward from EX lets
        // the branch resolve without stalling.
        let (sim, stats) = run_pipe(
            "
            LI t3, 5
            LI t4, 3
            COMP t3, t4
            BEQ t3, +, big
            LI t5, -1
            JAL t0, 0
            big:
            LI t5, 1
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 1);
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn load_then_branch_stalls_twice() {
        let (sim, stats) = run_pipe(
            "
            .data
            v: .word 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            BEQ t3, 0, out
            LI t4, -1
            out:
            LI t5, 9
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 9);
        // Branch waits in ID while the load walks EX->MEM: 2 stalls.
        assert_eq!(stats.id_use_stalls, 2);
    }

    // The next five pin the source-slot table where a wrong slot would
    // change the cycle count.

    #[test]
    fn load_then_jalr_base_stalls_twice() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 4\n.text\nLI t2, 0\nLOAD t3, t2, 0\nJALR t1, t3, 0\n\
             LI t4, -1\nLI t5, 9\nJAL t0, 0\n",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 0, "skipped");
        assert_eq!(sim.state().reg(TReg::T5).to_i64(), 9);
        // JALR reads its base (Tb) in ID, like a branch condition.
        assert_eq!((stats.id_use_stalls, stats.load_use_stalls), (2, 0));
    }

    #[test]
    fn load_then_store_datum_stalls_once() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 41\n.text\nLI t2, 0\nLOAD t3, t2, 0\nSTORE t3, t2, 1\n\
             LOAD t4, t2, 1\nJAL t0, 0\n",
        );
        // The STORE datum travels in the Ta slot.
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 41);
        assert_eq!((stats.load_use_stalls, stats.id_use_stalls), (1, 0));
    }

    #[test]
    fn load_then_li_on_it_stalls_once() {
        // 1000 = 972 (upper trits) + 28 (low 5 trits).
        let (sim, stats) = run_pipe(
            ".data\nv: .word 1000\n.text\nLI t2, 0\nLOAD t3, t2, 0\nLI t3, 5\nJAL t0, 0\n",
        );
        // LI splices the low trits into the loaded value: it reads Ta.
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 977);
        assert_eq!((stats.load_use_stalls, stats.id_use_stalls), (1, 0));
    }

    #[test]
    fn load_then_lui_on_it_does_not_stall() {
        let (sim, stats) = run_pipe(
            ".data\nv: .word 1000\n.text\nLI t2, 0\nLOAD t3, t2, 0\nLUI t3, 1\nJAL t0, 0\n",
        );
        // LUI overwrites every trit: it reads nothing.
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 243);
        assert_eq!(stats.lost_cycles(), 0);
    }

    #[test]
    fn no_forwarding_ta_consumer_waits_for_writeback() {
        let p = assemble("LI t3, 1\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).forwarding(false).build_pipelined();
        sim.run(1000).unwrap();
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 2);
        // ADDI reads only Ta: it waits in ID while LI sits in EX, then
        // in MEM, and reads the value through WB write-through.
        assert_eq!((sim.stats.load_use_stalls, sim.stats.id_use_stalls), (2, 0));
        assert_eq!(sim.stats.cycles, 3 + 4 + 2);
    }

    #[test]
    fn alu_then_dependent_branch_one_cycle_apart() {
        // Producer in MEM when branch in ID: forward from EX/MEM, no stall.
        let (_, stats) =
            run_pipe("LI t3, 0\nADDI t3, 0\nNOP\nBEQ t3, 0, out\nNOP\nout:\nJAL t0, 0\n");
        assert_eq!(stats.id_use_stalls, 0);
    }

    #[test]
    fn matches_functional_on_loop() {
        let src = "
            LI t3, 10
            LI t4, 0
            loop:
            ADD t4, t3
            ADDI t3, -1
            MV t7, t3
            COMP t7, t0
            BEQ t7, +, loop
            JAL t0, 0
        ";
        let p = assemble(src).unwrap();
        let mut f = SimBuilder::new(&p).build_functional();
        f.run(100_000).unwrap();
        let mut pipe = SimBuilder::new(&p).build_pipelined();
        pipe.run(100_000).unwrap();
        assert_eq!(pipe.state().trf, f.state().trf);
        assert_eq!(pipe.retired(), f.retired());
    }

    #[test]
    fn store_load_through_pipeline() {
        let (sim, _) = run_pipe(
            "
            LI t2, 10
            LI t3, 77
            STORE t3, t2, 0
            LOAD t4, t2, 0
            ADD t4, t4
            JAL t0, 0
            ",
        );
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 154);
    }

    #[test]
    fn fell_off_end_drains() {
        let (sim, stats) = run_pipe("LI t3, 1\nADDI t3, 1\n");
        assert_eq!(sim.halted(), Some(HaltReason::FellOffEnd));
        assert_eq!(sim.state().reg(TReg::T3).to_i64(), 2);
        assert_eq!(stats.instructions, 2);
    }

    #[test]
    fn trace_records_stage_occupancy() {
        let p = assemble("LI t3, 1\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).trace(true).build_pipelined();
        sim.run(1000).unwrap();
        let trace = sim.trace().unwrap();
        assert!(!trace.is_empty());
        // First cycle: only IF occupied.
        assert!(trace[0].if_stage.is_some());
        assert!(trace[0].wb_stage.is_none());
    }

    #[test]
    fn disabling_forwarding_costs_cycles_not_correctness() {
        let src = "
            LI t3, 1
            ADDI t3, 1
            ADD t4, t3
            ADD t4, t3
            MV t7, t4
            COMP t7, t0
            BEQ t7, +, pos
            LI t5, -1
            JAL t0, 0
            pos:
            LI t5, 1
            JAL t0, 0
        ";
        let p = assemble(src).unwrap();
        let mut fast = SimBuilder::new(&p).build_pipelined();
        fast.run(10_000).unwrap();
        let s_fast = fast.stats;
        let mut slow = SimBuilder::new(&p).forwarding(false).build_pipelined();
        slow.run(10_000).unwrap();
        let s_slow = slow.stats;
        assert_eq!(fast.state().trf, slow.state().trf, "same architecture");
        assert!(
            s_slow.cycles > s_fast.cycles,
            "no-forwarding must stall: {} vs {}",
            s_slow.cycles,
            s_fast.cycles
        );
        assert_eq!(s_fast.load_use_stalls + s_fast.id_use_stalls, 0);
        assert!(s_slow.load_use_stalls + s_slow.id_use_stalls > 0);
    }

    #[test]
    fn memory_fault_propagates_pc() {
        let p = assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\nJAL t0, 0\n").unwrap();
        let mut sim = SimBuilder::new(&p).build_pipelined();
        match sim.run(1000) {
            Err(SimError::MemoryFault { pc, .. }) => assert_eq!(pc, 2),
            other => panic!("expected MemoryFault, got {other:?}"),
        }
    }
}
