//! Baseline processor cycle models: PicoRV32 and VexRiscv.
//!
//! The paper's Tables II and III compare the pipelined ART-9 core
//! against two open-source RISC-V cores. We model their *timing*, not
//! their RTL (DESIGN.md §3.3): a cycle model assigns a cost to every
//! retired instruction given its dynamic context (taken?, shift amount,
//! previous instruction), and a runner drives the functional
//! [`Machine`](crate::Machine) while accumulating the costs.
//!
//! * [`PicoRv32Model`] — the non-pipelined, size-optimized core
//!   (Table II: 1 "pipeline stage"). Costs follow the cycles-per-
//!   instruction table in the PicoRV32 README (regular ALU 3, memory 5,
//!   taken branch 5, indirect jump 6, serial shifts), which lands its
//!   Dhrystone figure near the 0.31 DMIPS/MHz the paper reports.
//! * [`VexRiscvModel`] — a 5-stage in-order pipeline: CPI 1 plus a
//!   1-cycle load-use interlock and a flush penalty for taken control
//!   flow (branches resolve in EX, two fetched-wrong instructions die).
//!
//! Both models halt on the same conventions as [`Machine`].

use crate::error::Rv32Error;
use crate::exec::{HaltReason, Machine, Retire};
use crate::instr::{AluOp, Instr, MulOp};
use crate::parse::Rv32Program;

/// Assigns a cycle cost to each retired instruction.
pub trait CycleModel {
    /// Short human-readable name ("PicoRV32", "VexRiscv").
    fn name(&self) -> &'static str;

    /// Cost in cycles of retiring `current`, given the previously
    /// retired instruction (for interlock modelling).
    fn cost(&mut self, current: &Retire, prev: Option<&Retire>) -> u64;
}

/// Timing summary of a modelled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleReport {
    /// Total cycles under the model.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Why the program stopped.
    pub halt: HaltReason,
}

impl CycleReport {
    /// Cycles per instruction under the model.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions as f64
    }
}

/// Runs `program` to completion under `model`.
///
/// # Errors
///
/// Propagates simulator faults and [`Rv32Error::Timeout`].
///
/// # Examples
///
/// ```
/// use rv32::{parse_program, simulate_cycles, PicoRv32Model, VexRiscvModel};
///
/// let p = parse_program("
///     li a0, 100
///     li a1, 0
/// loop:
///     add a1, a1, a0
///     addi a0, a0, -1
///     bnez a0, loop
///     ebreak
/// ")?;
/// let pico = simulate_cycles(&p, &mut PicoRv32Model::new(), 1_000_000)?;
/// let vex = simulate_cycles(&p, &mut VexRiscvModel::new(), 1_000_000)?;
/// // The non-pipelined core needs several cycles per instruction…
/// assert!(pico.cpi() > 3.0);
/// // …the pipelined one stays close to 1.
/// assert!(vex.cpi() < 2.5);
/// # Ok::<(), rv32::Rv32Error>(())
/// ```
pub fn simulate_cycles(
    program: &Rv32Program,
    model: &mut dyn CycleModel,
    max_steps: u64,
) -> Result<CycleReport, Rv32Error> {
    let mut machine = Machine::new(program);
    let mut cycles = 0u64;
    let mut prev: Option<Retire> = None;
    for _ in 0..max_steps {
        match machine.step()? {
            Ok(retire) => {
                cycles += model.cost(&retire, prev.as_ref());
                prev = Some(retire);
            }
            Err(halt) => {
                return Ok(CycleReport {
                    cycles,
                    instructions: machine.instret(),
                    halt,
                });
            }
        }
    }
    Err(Rv32Error::Timeout { limit: max_steps })
}

/// Cycle model of the PicoRV32 (non-pipelined, "small" configuration
/// with the default serial shifter and fast multiplier).
#[derive(Debug, Clone, Default)]
pub struct PicoRv32Model {
    _private: (),
}

impl PicoRv32Model {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CycleModel for PicoRv32Model {
    fn name(&self) -> &'static str {
        "PicoRV32"
    }

    fn cost(&mut self, current: &Retire, _prev: Option<&Retire>) -> u64 {
        use Instr::*;
        match &current.instr {
            // Serial shifter: base + one cycle per 4 positions.
            Alu {
                op: AluOp::Sll | AluOp::Srl | AluOp::Sra,
                ..
            }
            | AluImm {
                op: AluOp::Sll | AluOp::Srl | AluOp::Sra,
                ..
            } => 4 + (current.shift_amount as u64).div_ceil(4),
            Alu { .. } | AluImm { .. } | Lui { .. } | Auipc { .. } => 3,
            Load { .. } => 5,
            Store { .. } => 5,
            Branch { .. } => {
                if current.taken {
                    5
                } else {
                    3
                }
            }
            Jal { .. } => 3,
            Jalr { .. } => 6,
            // Stock PicoRV32 ships a sequential shift-and-add MUL/DIV
            // unit (~40 cycles; the FAST_MUL DSP path is off in the
            // size-optimized configuration the paper compares against).
            MulDiv { op, .. } => match op {
                MulOp::Mul | MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => 40,
                MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu => 40,
            },
            Fence | Ecall | Ebreak => 3,
        }
    }
}

/// Cycle model of a VexRiscv-style 5-stage in-order pipeline
/// (no branch predictor; single-cycle pipelined multiplier; iterative
/// divider).
#[derive(Debug, Clone, Default)]
pub struct VexRiscvModel {
    _private: (),
}

impl VexRiscvModel {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl CycleModel for VexRiscvModel {
    fn name(&self) -> &'static str {
        "VexRiscv"
    }

    fn cost(&mut self, current: &Retire, prev: Option<&Retire>) -> u64 {
        use Instr::*;
        let mut cycles = 1u64;

        // Load-use interlock: previous instruction was a load whose
        // destination this instruction reads.
        if let Some(p) = prev {
            if let Load { rd, .. } = p.instr {
                if current.instr.reads().contains(&Some(rd)) {
                    cycles += 1;
                }
            }
        }

        match &current.instr {
            Branch { .. } if current.taken => cycles += 2,
            Jal { .. } | Jalr { .. } => cycles += 2,
            MulDiv {
                op: MulOp::Div | MulOp::Divu | MulOp::Rem | MulOp::Remu,
                ..
            } => cycles += 32,
            _ => {}
        }
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;

    fn both(src: &str) -> (CycleReport, CycleReport) {
        let p = parse_program(src).unwrap();
        let pico = simulate_cycles(&p, &mut PicoRv32Model::new(), 10_000_000).unwrap();
        let vex = simulate_cycles(&p, &mut VexRiscvModel::new(), 10_000_000).unwrap();
        (pico, vex)
    }

    #[test]
    fn pico_alu_is_3_cycles() {
        let (pico, _) = both("add a0, a1, a2\nadd a0, a1, a2\nebreak\n");
        // 2 ALU instructions at 3 cycles; the halting ebreak never
        // retires, so it is not charged.
        assert_eq!(pico.cycles, 6);
        assert_eq!(pico.instructions, 3);
    }

    #[test]
    fn pico_shift_cost_grows_with_amount() {
        let p1 = parse_program("li a0, 1\nslli a1, a0, 1\nebreak\n").unwrap();
        let p31 = parse_program("li a0, 1\nslli a1, a0, 31\nebreak\n").unwrap();
        let c1 = simulate_cycles(&p1, &mut PicoRv32Model::new(), 100).unwrap();
        let c31 = simulate_cycles(&p31, &mut PicoRv32Model::new(), 100).unwrap();
        assert!(c31.cycles > c1.cycles);
    }

    #[test]
    fn vex_load_use_interlock() {
        let with_hazard = parse_program(
            ".data\nv: .word 7\n.text\nla a0, v\nlw a1, 0(a0)\naddi a1, a1, 1\nebreak\n",
        )
        .unwrap();
        let without = parse_program(
            ".data\nv: .word 7\n.text\nla a0, v\nlw a1, 0(a0)\nnop\naddi a1, a1, 1\nebreak\n",
        )
        .unwrap();
        let h = simulate_cycles(&with_hazard, &mut VexRiscvModel::new(), 100).unwrap();
        let n = simulate_cycles(&without, &mut VexRiscvModel::new(), 100).unwrap();
        // The nop version executes one more instruction but loses the
        // interlock, so both take the same number of cycles.
        assert_eq!(h.cycles, n.cycles);
        assert_eq!(h.instructions + 1, n.instructions);
    }

    #[test]
    fn pipelined_beats_nonpipelined_on_loops() {
        let src = "
            li a0, 200
            li a1, 0
        loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            ebreak
        ";
        let (pico, vex) = both(src);
        assert_eq!(pico.instructions, vex.instructions);
        assert!(
            pico.cycles > 2 * vex.cycles,
            "pico {} vex {}",
            pico.cycles,
            vex.cycles
        );
        // Sanity: PicoRV32 CPI sits in its documented ~3..6 band.
        assert!(pico.cpi() > 3.0 && pico.cpi() < 6.0, "cpi {}", pico.cpi());
        // VexRiscv CPI close to 1 with branchy code < 2.5.
        assert!(vex.cpi() >= 1.0 && vex.cpi() < 2.5, "cpi {}", vex.cpi());
    }

    #[test]
    fn divider_dominates() {
        let (pico, vex) = both("li a0, 100\nli a1, 7\ndiv a2, a0, a1\nebreak\n");
        assert!(pico.cycles >= 40);
        assert!(vex.cycles >= 33);
    }
}
