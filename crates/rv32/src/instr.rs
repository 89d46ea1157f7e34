//! The RV32I base instruction set plus the M extension.
//!
//! Instructions are grouped by format (ALU, ALU-immediate, load, store,
//! branch, …) so the simulator, the encoder and the ART-9 compiling
//! framework can match on operation classes instead of 48 flat variants.

use std::fmt;

use crate::reg::Reg;

/// Integer ALU operations (shared by register and immediate forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`; no immediate form in RV32I).
    Sub,
    /// Shift left logical.
    Sll,
    /// Set-less-than, signed.
    Slt,
    /// Set-less-than, unsigned.
    Sltu,
    /// Exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Inclusive or.
    Or,
    /// And.
    And,
}

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq`.
    Eq,
    /// `bne`.
    Ne,
    /// `blt` (signed).
    Lt,
    /// `bge` (signed).
    Ge,
    /// `bltu`.
    Ltu,
    /// `bgeu`.
    Geu,
}

/// Load widths/signedness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// `lb` — sign-extended byte.
    Lb,
    /// `lh` — sign-extended halfword.
    Lh,
    /// `lw` — word.
    Lw,
    /// `lbu` — zero-extended byte.
    Lbu,
    /// `lhu` — zero-extended halfword.
    Lhu,
}

/// Store widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// `sb`.
    Sb,
    /// `sh`.
    Sh,
    /// `sw`.
    Sw,
}

/// M-extension operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// `mul` — low 32 bits of the product.
    Mul,
    /// `mulh` — high 32 bits, signed×signed.
    Mulh,
    /// `mulhsu` — high 32 bits, signed×unsigned.
    Mulhsu,
    /// `mulhu` — high 32 bits, unsigned×unsigned.
    Mulhu,
    /// `div` — signed division.
    Div,
    /// `divu` — unsigned division.
    Divu,
    /// `rem` — signed remainder.
    Rem,
    /// `remu` — unsigned remainder.
    Remu,
}

/// One RV32I/RV32IM instruction.
///
/// Offsets and immediates are stored as sign-extended `i32` values;
/// branch/jump offsets are in **bytes** relative to the instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm20` — `rd = imm20 << 12`.
    Lui {
        /// Destination.
        rd: Reg,
        /// The 20-bit immediate (not yet shifted).
        imm20: i32,
    },
    /// `auipc rd, imm20` — `rd = pc + (imm20 << 12)`.
    Auipc {
        /// Destination.
        rd: Reg,
        /// The 20-bit immediate (not yet shifted).
        imm20: i32,
    },
    /// `jal rd, offset`.
    Jal {
        /// Link register.
        rd: Reg,
        /// Byte offset from this instruction.
        offset: i32,
    },
    /// `jalr rd, rs1, offset`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte displacement.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        op: BranchOp,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Byte offset from this instruction.
        offset: i32,
    },
    /// Memory load.
    Load {
        /// Width/signedness.
        op: LoadOp,
        /// Destination.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte displacement.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        op: StoreOp,
        /// Source of the datum.
        rs2: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte displacement.
        offset: i32,
    },
    /// Register-immediate ALU operation (`addi`, `andi`, `slli`, …).
    AluImm {
        /// Operation ([`AluOp::Sub`] is invalid here).
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Sign-extended 12-bit immediate (5-bit shamt for shifts).
        imm: i32,
    },
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// M-extension multiply/divide.
    MulDiv {
        /// Operation.
        op: MulOp,
        /// Destination.
        rd: Reg,
        /// Left source.
        rs1: Reg,
        /// Right source.
        rs2: Reg,
    },
    /// `fence` (no-op in this single-hart model).
    Fence,
    /// `ecall` (halts the simulator — used as the exit convention).
    Ecall,
    /// `ebreak` (halts the simulator).
    Ebreak,
}

impl Instr {
    /// The canonical mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        use Instr::*;
        match self {
            Lui { .. } => "lui",
            Auipc { .. } => "auipc",
            Jal { .. } => "jal",
            Jalr { .. } => "jalr",
            Branch { op, .. } => match op {
                BranchOp::Eq => "beq",
                BranchOp::Ne => "bne",
                BranchOp::Lt => "blt",
                BranchOp::Ge => "bge",
                BranchOp::Ltu => "bltu",
                BranchOp::Geu => "bgeu",
            },
            Load { op, .. } => match op {
                LoadOp::Lb => "lb",
                LoadOp::Lh => "lh",
                LoadOp::Lw => "lw",
                LoadOp::Lbu => "lbu",
                LoadOp::Lhu => "lhu",
            },
            Store { op, .. } => match op {
                StoreOp::Sb => "sb",
                StoreOp::Sh => "sh",
                StoreOp::Sw => "sw",
            },
            AluImm { op, .. } => match op {
                AluOp::Add => "addi",
                AluOp::Sll => "slli",
                AluOp::Slt => "slti",
                AluOp::Sltu => "sltiu",
                AluOp::Xor => "xori",
                AluOp::Srl => "srli",
                AluOp::Sra => "srai",
                AluOp::Or => "ori",
                AluOp::And => "andi",
                AluOp::Sub => "subi?", // rejected at construction
            },
            Alu { op, .. } => match op {
                AluOp::Add => "add",
                AluOp::Sub => "sub",
                AluOp::Sll => "sll",
                AluOp::Slt => "slt",
                AluOp::Sltu => "sltu",
                AluOp::Xor => "xor",
                AluOp::Srl => "srl",
                AluOp::Sra => "sra",
                AluOp::Or => "or",
                AluOp::And => "and",
            },
            MulDiv { op, .. } => match op {
                MulOp::Mul => "mul",
                MulOp::Mulh => "mulh",
                MulOp::Mulhsu => "mulhsu",
                MulOp::Mulhu => "mulhu",
                MulOp::Div => "div",
                MulOp::Divu => "divu",
                MulOp::Rem => "rem",
                MulOp::Remu => "remu",
            },
            Fence => "fence",
            Ecall => "ecall",
            Ebreak => "ebreak",
        }
    }

    /// The destination register, if the instruction writes one
    /// (writes to `x0` are reported as `None`).
    pub fn writes(&self) -> Option<Reg> {
        use Instr::*;
        let rd = match self {
            Lui { rd, .. }
            | Auipc { rd, .. }
            | Jal { rd, .. }
            | Jalr { rd, .. }
            | Load { rd, .. }
            | AluImm { rd, .. }
            | Alu { rd, .. }
            | MulDiv { rd, .. } => *rd,
            Branch { .. } | Store { .. } | Fence | Ecall | Ebreak => return None,
        };
        (!rd.is_zero()).then_some(rd)
    }

    /// The registers the instruction reads, as `[rs1, rs2]` (`None`
    /// for a field the format lacks). Does not allocate.
    pub fn reads(&self) -> [Option<Reg>; 2] {
        use Instr::*;
        match *self {
            Lui { .. } | Auipc { .. } | Jal { .. } | Fence | Ecall | Ebreak => [None, None],
            Jalr { rs1, .. } | Load { rs1, .. } | AluImm { rs1, .. } => [Some(rs1), None],
            Branch { rs1, rs2, .. }
            | Store { rs2, rs1, .. }
            | Alu { rs1, rs2, .. }
            | MulDiv { rs1, rs2, .. } => [Some(rs1), Some(rs2)],
        }
    }

    /// `true` for any control-flow instruction.
    pub fn is_control_flow(&self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instr::*;
        let m = self.mnemonic();
        match self {
            Lui { rd, imm20 } | Auipc { rd, imm20 } => write!(f, "{m} {rd}, {imm20}"),
            Jal { rd, offset } => write!(f, "{m} {rd}, {offset}"),
            Jalr { rd, rs1, offset } => write!(f, "{m} {rd}, {offset}({rs1})"),
            Branch {
                rs1, rs2, offset, ..
            } => write!(f, "{m} {rs1}, {rs2}, {offset}"),
            Load {
                rd, rs1, offset, ..
            } => write!(f, "{m} {rd}, {offset}({rs1})"),
            Store {
                rs2, rs1, offset, ..
            } => write!(f, "{m} {rs2}, {offset}({rs1})"),
            AluImm { rd, rs1, imm, .. } => write!(f, "{m} {rd}, {rs1}, {imm}"),
            Alu { rd, rs1, rs2, .. } | MulDiv { rd, rs1, rs2, .. } => {
                write!(f, "{m} {rd}, {rs1}, {rs2}")
            }
            Fence | Ecall | Ebreak => write!(f, "{m}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_to_x0_are_hidden() {
        let i = Instr::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        };
        assert_eq!(i.writes(), None); // canonical RISC-V nop
        let j = Instr::Jal {
            rd: Reg::ZERO,
            offset: 8,
        };
        assert_eq!(j.writes(), None);
    }

    #[test]
    fn reads_by_format() {
        let s = Instr::Store {
            op: StoreOp::Sw,
            rs2: Reg::A0,
            rs1: Reg::SP,
            offset: 4,
        };
        assert_eq!(s.reads(), [Some(Reg::SP), Some(Reg::A0)]);
        let b = Instr::Branch {
            op: BranchOp::Lt,
            rs1: Reg::A0,
            rs2: Reg::A1,
            offset: -8,
        };
        assert_eq!(b.reads(), [Some(Reg::A0), Some(Reg::A1)]);
        assert!(b.is_control_flow());
    }

    #[test]
    fn display_forms() {
        let lw = Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::SP,
            offset: 8,
        };
        assert_eq!(lw.to_string(), "lw a0, 8(sp)");
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(add.to_string(), "add a0, a1, a2");
        let mul = Instr::MulDiv {
            op: MulOp::Mul,
            rd: Reg::A0,
            rs1: Reg::A1,
            rs2: Reg::A2,
        };
        assert_eq!(mul.to_string(), "mul a0, a1, a2");
    }
}
