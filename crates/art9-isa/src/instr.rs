//! The 24 ART-9 ternary instructions (paper Table I).
//!
//! Instructions are modeled as a plain enum carrying decoded operands;
//! the trit-level layout lives in [`crate::encode`]/[`crate::decode`].
//! Immediates are stored as the exact field width the encoding gives
//! them ([`Trits<2>`](ternary::Trits) through [`Trits<5>`](ternary::Trits)),
//! so an `Instruction` value is *always* encodable — out-of-range
//! immediates are rejected at construction.

use std::fmt;

use ternary::{Trit, Trits};

use crate::error::IsaError;
use crate::reg::TReg;

/// 2-trit immediate (shift amounts): −4..=4.
pub type Imm2 = Trits<2>;
/// 3-trit immediate (ADDI/ANDI/JALR/LOAD/STORE): −13..=13.
pub type Imm3 = Trits<3>;
/// 4-trit immediate (LUI, branch offsets): −40..=40.
pub type Imm4 = Trits<4>;
/// 5-trit immediate (LI, JAL offset): −121..=121.
pub type Imm5 = Trits<5>;

/// The four instruction categories of the ART-9 ISA (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Format {
    /// Register-register logical/arithmetic operations.
    R,
    /// Immediate operations.
    I,
    /// Branches and jump-and-link.
    B,
    /// Memory access (load/store).
    M,
}

/// One decoded ART-9 instruction.
///
/// Field names follow the paper: `a` is the `Ta` register field
/// (destination and, for most R-type, first source), `b` the `Tb` field.
///
/// # Examples
///
/// ```
/// use art9_isa::{Instruction, TReg};
/// use ternary::Trits;
///
/// let add = Instruction::Add { a: TReg::T3, b: TReg::T4 };
/// assert_eq!(add.to_string(), "ADD t3, t4");
/// assert_eq!(add.writes(), Some(TReg::T3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    // --- R-type -----------------------------------------------------
    /// `MV Ta, Tb` — `TRF[Ta] = TRF[Tb]`.
    Mv {
        /// Destination.
        a: TReg,
        /// Source.
        b: TReg,
    },
    /// `PTI Ta, Tb` — positive ternary inversion of `Tb`.
    Pti {
        /// Destination.
        a: TReg,
        /// Source.
        b: TReg,
    },
    /// `NTI Ta, Tb` — negative ternary inversion of `Tb`.
    Nti {
        /// Destination.
        a: TReg,
        /// Source.
        b: TReg,
    },
    /// `STI Ta, Tb` — standard ternary inversion (negation) of `Tb`.
    Sti {
        /// Destination.
        a: TReg,
        /// Source.
        b: TReg,
    },
    /// `AND Ta, Tb` — trit-wise minimum.
    And {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },
    /// `OR Ta, Tb` — trit-wise maximum.
    Or {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },
    /// `XOR Ta, Tb` — trit-wise ternary XOR.
    Xor {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },
    /// `ADD Ta, Tb` — wrapping ternary addition.
    Add {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },
    /// `SUB Ta, Tb` — wrapping ternary subtraction.
    Sub {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },
    /// `SR Ta, Tb` — shift right by `TRF[Tb][1:0]` trits.
    Sr {
        /// Destination and first source.
        a: TReg,
        /// Shift-amount source.
        b: TReg,
    },
    /// `SL Ta, Tb` — shift left by `TRF[Tb][1:0]` trits.
    Sl {
        /// Destination and first source.
        a: TReg,
        /// Shift-amount source.
        b: TReg,
    },
    /// `COMP Ta, Tb` — three-way compare; LST of the result is −/0/+.
    Comp {
        /// Destination and first source.
        a: TReg,
        /// Second source.
        b: TReg,
    },

    // --- I-type -----------------------------------------------------
    /// `ANDI Ta, imm` — trit-wise minimum with a sign-extended 3-trit
    /// immediate.
    Andi {
        /// Destination and source.
        a: TReg,
        /// 3-trit immediate.
        imm: Imm3,
    },
    /// `ADDI Ta, imm` — add a sign-extended 3-trit immediate. With a zero
    /// immediate this is the ISA's NOP (paper §IV-B).
    Addi {
        /// Destination and source.
        a: TReg,
        /// 3-trit immediate.
        imm: Imm3,
    },
    /// `SRI Ta, imm` — shift right by a 2-trit immediate amount.
    Sri {
        /// Destination and source.
        a: TReg,
        /// 2-trit shift amount.
        imm: Imm2,
    },
    /// `SLI Ta, imm` — shift left by a 2-trit immediate amount.
    Sli {
        /// Destination and source.
        a: TReg,
        /// 2-trit shift amount.
        imm: Imm2,
    },
    /// `LUI Ta, imm` — load upper immediate:
    /// `TRF[Ta] = {imm[3:0], 00000}` (imm into trits 5..9, low trits 0).
    Lui {
        /// Destination.
        a: TReg,
        /// 4-trit upper immediate.
        imm: Imm4,
    },
    /// `LI Ta, imm` — load (lower) immediate:
    /// `TRF[Ta] = {TRF[Ta][8:5], imm[4:0]}` (splices the low 5 trits).
    Li {
        /// Destination (upper trits preserved).
        a: TReg,
        /// 5-trit lower immediate.
        imm: Imm5,
    },

    // --- B-type -----------------------------------------------------
    /// `BEQ Tb, B, imm` — branch to `PC + imm` when `TRF[Tb][0] == B`.
    Beq {
        /// Condition register (its LST is tested).
        b: TReg,
        /// The 1-trit constant to compare against.
        cond: Trit,
        /// PC-relative offset in instructions.
        offset: Imm4,
    },
    /// `BNE Tb, B, imm` — branch to `PC + imm` when `TRF[Tb][0] != B`.
    Bne {
        /// Condition register (its LST is tested).
        b: TReg,
        /// The 1-trit constant to compare against.
        cond: Trit,
        /// PC-relative offset in instructions.
        offset: Imm4,
    },
    /// `JAL Ta, imm` — `TRF[Ta] = PC + 1; PC = PC + imm`.
    Jal {
        /// Link register.
        a: TReg,
        /// PC-relative offset in instructions.
        offset: Imm5,
    },
    /// `JALR Ta, Tb, imm` — `TRF[Ta] = PC + 1; PC = TRF[Tb] + imm`.
    Jalr {
        /// Link register.
        a: TReg,
        /// Base-address register.
        b: TReg,
        /// 3-trit displacement.
        offset: Imm3,
    },

    // --- M-type -----------------------------------------------------
    /// `LOAD Ta, Tb, imm` — `TRF[Ta] = TDM[TRF[Tb] + imm]`.
    Load {
        /// Destination.
        a: TReg,
        /// Base-address register.
        b: TReg,
        /// 3-trit displacement.
        offset: Imm3,
    },
    /// `STORE Ta, Tb, imm` — `TDM[TRF[Tb] + imm] = TRF[Ta]`.
    Store {
        /// Source (value to store).
        a: TReg,
        /// Base-address register.
        b: TReg,
        /// 3-trit displacement.
        offset: Imm3,
    },
}

/// The canonical NOP: `ADDI t0, 0` (paper §IV-B — no dedicated encoding).
pub const NOP: Instruction = Instruction::Addi {
    a: TReg::T0,
    imm: Imm3::ZERO,
};

impl Instruction {
    /// Number of distinct opcodes in the ISA — the length of
    /// [`Instruction::MNEMONICS`] and the size of dense per-opcode
    /// tables such as the simulators' instruction-mix counters.
    pub const OPCODE_COUNT: usize = 24;

    /// Every mnemonic, indexed by [`Instruction::opcode`] (Table I order).
    pub const MNEMONICS: [&'static str; Self::OPCODE_COUNT] = [
        "MV", "PTI", "NTI", "STI", "AND", "OR", "XOR", "ADD", "SUB", "SR", "SL", "COMP", "ANDI",
        "ADDI", "SRI", "SLI", "LUI", "LI", "BEQ", "BNE", "JAL", "JALR", "LOAD", "STORE",
    ];

    /// A dense opcode index in `0..OPCODE_COUNT`, stable across runs.
    ///
    /// Lets hot loops count or dispatch per opcode through a flat array
    /// instead of hashing the mnemonic string.
    ///
    /// # Examples
    ///
    /// ```
    /// use art9_isa::{Instruction, TReg};
    ///
    /// let add = Instruction::Add { a: TReg::T3, b: TReg::T4 };
    /// assert_eq!(Instruction::MNEMONICS[add.opcode()], add.mnemonic());
    /// ```
    pub const fn opcode(&self) -> usize {
        use Instruction::*;
        match self {
            Mv { .. } => 0,
            Pti { .. } => 1,
            Nti { .. } => 2,
            Sti { .. } => 3,
            And { .. } => 4,
            Or { .. } => 5,
            Xor { .. } => 6,
            Add { .. } => 7,
            Sub { .. } => 8,
            Sr { .. } => 9,
            Sl { .. } => 10,
            Comp { .. } => 11,
            Andi { .. } => 12,
            Addi { .. } => 13,
            Sri { .. } => 14,
            Sli { .. } => 15,
            Lui { .. } => 16,
            Li { .. } => 17,
            Beq { .. } => 18,
            Bne { .. } => 19,
            Jal { .. } => 20,
            Jalr { .. } => 21,
            Load { .. } => 22,
            Store { .. } => 23,
        }
    }

    /// The instruction's mnemonic, upper-case as in Table I.
    ///
    /// Defined through [`Instruction::opcode`] so the mnemonic table and
    /// the opcode index cannot drift apart.
    pub const fn mnemonic(&self) -> &'static str {
        Self::MNEMONICS[self.opcode()]
    }

    /// The instruction's category (Table I's Type column).
    pub const fn format(&self) -> Format {
        use Instruction::*;
        match self {
            Mv { .. }
            | Pti { .. }
            | Nti { .. }
            | Sti { .. }
            | And { .. }
            | Or { .. }
            | Xor { .. }
            | Add { .. }
            | Sub { .. }
            | Sr { .. }
            | Sl { .. }
            | Comp { .. } => Format::R,
            Andi { .. } | Addi { .. } | Sri { .. } | Sli { .. } | Lui { .. } | Li { .. } => {
                Format::I
            }
            Beq { .. } | Bne { .. } | Jal { .. } | Jalr { .. } => Format::B,
            Load { .. } | Store { .. } => Format::M,
        }
    }

    /// `true` for control-flow instructions (B-type).
    pub const fn is_control_flow(&self) -> bool {
        matches!(self.format(), Format::B)
    }

    /// `true` for the two conditional branches.
    pub const fn is_conditional_branch(&self) -> bool {
        matches!(self, Instruction::Beq { .. } | Instruction::Bne { .. })
    }

    /// The register this instruction writes, if any. (Used by the hazard
    /// detection unit and the compiler's liveness analysis.)
    pub const fn writes(&self) -> Option<TReg> {
        use Instruction::*;
        match self {
            Mv { a, .. }
            | Pti { a, .. }
            | Nti { a, .. }
            | Sti { a, .. }
            | And { a, .. }
            | Or { a, .. }
            | Xor { a, .. }
            | Add { a, .. }
            | Sub { a, .. }
            | Sr { a, .. }
            | Sl { a, .. }
            | Comp { a, .. }
            | Andi { a, .. }
            | Addi { a, .. }
            | Sri { a, .. }
            | Sli { a, .. }
            | Lui { a, .. }
            | Li { a, .. }
            | Jal { a, .. }
            | Jalr { a, .. }
            | Load { a, .. } => Some(*a),
            Beq { .. } | Bne { .. } | Store { .. } => None,
        }
    }

    /// The registers this instruction reads, by operand slot:
    /// `[Ta, Tb]`, `None` where the slot is not a source. (Used by the
    /// hazard detection unit and the forwarding multiplexers; does not
    /// allocate.)
    ///
    /// Note the paper's asymmetries: `LI` *reads* its destination (the
    /// upper trits survive), `STORE` reads both `Ta` (data) and `Tb`
    /// (address), and the branches read only `Tb`.
    ///
    /// # Examples
    ///
    /// ```
    /// use art9_isa::{Instruction, TReg};
    ///
    /// let mv = Instruction::Mv { a: TReg::T3, b: TReg::T4 };
    /// assert_eq!(mv.sources(), [None, Some(TReg::T4)]);
    /// ```
    pub const fn sources(&self) -> [Option<TReg>; 2] {
        use Instruction::*;
        match *self {
            Mv { b, .. } | Pti { b, .. } | Nti { b, .. } | Sti { b, .. } => [None, Some(b)],
            And { a, b }
            | Or { a, b }
            | Xor { a, b }
            | Add { a, b }
            | Sub { a, b }
            | Sr { a, b }
            | Sl { a, b }
            | Comp { a, b } => [Some(a), Some(b)],
            Andi { a, .. } | Addi { a, .. } | Sri { a, .. } | Sli { a, .. } | Li { a, .. } => {
                [Some(a), None]
            }
            Lui { .. } | Jal { .. } => [None, None],
            Beq { b, .. } | Bne { b, .. } | Jalr { b, .. } | Load { b, .. } => [None, Some(b)],
            Store { a, b, .. } => [Some(a), Some(b)],
        }
    }
}

impl fmt::Display for Instruction {
    /// Canonical assembly syntax, accepted back by the assembler.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Instruction::*;
        match self {
            Mv { a, b }
            | Pti { a, b }
            | Nti { a, b }
            | Sti { a, b }
            | And { a, b }
            | Or { a, b }
            | Xor { a, b }
            | Add { a, b }
            | Sub { a, b }
            | Sr { a, b }
            | Sl { a, b }
            | Comp { a, b } => {
                write!(f, "{} {a}, {b}", self.mnemonic())
            }
            Andi { a, imm } | Addi { a, imm } => {
                write!(f, "{} {a}, {}", self.mnemonic(), imm.to_i64())
            }
            Sri { a, imm } | Sli { a, imm } => {
                write!(f, "{} {a}, {}", self.mnemonic(), imm.to_i64())
            }
            Lui { a, imm } => write!(f, "LUI {a}, {}", imm.to_i64()),
            Li { a, imm } => write!(f, "LI {a}, {}", imm.to_i64()),
            Beq { b, cond, offset } => write!(f, "BEQ {b}, {cond}, {}", offset.to_i64()),
            Bne { b, cond, offset } => write!(f, "BNE {b}, {cond}, {}", offset.to_i64()),
            Jal { a, offset } => write!(f, "JAL {a}, {}", offset.to_i64()),
            Jalr { a, b, offset } => write!(f, "JALR {a}, {b}, {}", offset.to_i64()),
            Load { a, b, offset } => write!(f, "LOAD {a}, {b}, {}", offset.to_i64()),
            Store { a, b, offset } => write!(f, "STORE {a}, {b}, {}", offset.to_i64()),
        }
    }
}

/// Builds an immediate of width `N`, reporting a named range error.
///
/// # Errors
///
/// Returns [`IsaError::ImmediateRange`] when `value` exceeds the
/// symmetric range of `N` trits.
pub fn imm<const N: usize>(mnemonic: &'static str, value: i64) -> Result<Trits<N>, IsaError> {
    Trits::<N>::from_i64(value).map_err(|_| IsaError::ImmediateRange {
        mnemonic,
        value,
        width: N,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Instruction> {
        use Instruction::*;
        vec![
            Mv {
                a: TReg::T3,
                b: TReg::T4,
            },
            Add {
                a: TReg::T5,
                b: TReg::T6,
            },
            Comp {
                a: TReg::T3,
                b: TReg::T4,
            },
            Addi {
                a: TReg::T3,
                imm: Imm3::from_i64(7).unwrap(),
            },
            Lui {
                a: TReg::T4,
                imm: Imm4::from_i64(-40).unwrap(),
            },
            Li {
                a: TReg::T4,
                imm: Imm5::from_i64(121).unwrap(),
            },
            Beq {
                b: TReg::T3,
                cond: Trit::P,
                offset: Imm4::from_i64(-5).unwrap(),
            },
            Jal {
                a: TReg::T1,
                offset: Imm5::from_i64(20).unwrap(),
            },
            Jalr {
                a: TReg::T1,
                b: TReg::T2,
                offset: Imm3::from_i64(0).unwrap(),
            },
            Load {
                a: TReg::T5,
                b: TReg::T2,
                offset: Imm3::from_i64(3).unwrap(),
            },
            Store {
                a: TReg::T5,
                b: TReg::T2,
                offset: Imm3::from_i64(-3).unwrap(),
            },
        ]
    }

    #[test]
    fn twenty_four_mnemonics_exist() {
        // One variant per Table I row.
        let all = [
            "MV", "PTI", "NTI", "STI", "AND", "OR", "XOR", "ADD", "SUB", "SR", "SL", "COMP",
            "ANDI", "ADDI", "SRI", "SLI", "LUI", "LI", "BEQ", "BNE", "JAL", "JALR", "LOAD",
            "STORE",
        ];
        assert_eq!(all.len(), 24);
    }

    #[test]
    fn opcode_index_is_dense_and_matches_mnemonic() {
        for i in sample() {
            assert!(i.opcode() < Instruction::OPCODE_COUNT);
            assert_eq!(Instruction::MNEMONICS[i.opcode()], i.mnemonic());
        }
        // Table order: MV is 0, STORE is last.
        assert_eq!(Instruction::MNEMONICS[0], "MV");
        assert_eq!(
            Instruction::MNEMONICS[Instruction::OPCODE_COUNT - 1],
            "STORE"
        );
    }

    #[test]
    fn formats_match_table1() {
        use Instruction::*;
        assert_eq!(
            Mv {
                a: TReg::T0,
                b: TReg::T0
            }
            .format(),
            Format::R
        );
        assert_eq!(NOP.format(), Format::I);
        assert_eq!(
            Jal {
                a: TReg::T1,
                offset: Imm5::ZERO
            }
            .format(),
            Format::B
        );
        assert_eq!(
            Load {
                a: TReg::T0,
                b: TReg::T0,
                offset: Imm3::ZERO
            }
            .format(),
            Format::M
        );
    }

    #[test]
    fn nop_is_addi_zero() {
        assert_eq!(NOP.to_string(), "ADDI t0, 0");
    }

    #[test]
    fn reads_writes_asymmetries() {
        use Instruction::*;
        // Every opcode with Ta = t3 and Tb = t4, so each slot of the
        // expected `sources()` row names the field it must come from.
        let (a, b) = (TReg::T3, TReg::T4);
        let (i2, i3, i4, i5) = (Imm2::ZERO, Imm3::ZERO, Imm4::ZERO, Imm5::ZERO);
        let cond = Trit::Z;
        let table: [(Instruction, [Option<TReg>; 2], Option<TReg>); 24] = [
            (Mv { a, b }, [None, Some(b)], Some(a)),
            (Pti { a, b }, [None, Some(b)], Some(a)),
            (Nti { a, b }, [None, Some(b)], Some(a)),
            (Sti { a, b }, [None, Some(b)], Some(a)),
            (And { a, b }, [Some(a), Some(b)], Some(a)),
            (Or { a, b }, [Some(a), Some(b)], Some(a)),
            (Xor { a, b }, [Some(a), Some(b)], Some(a)),
            (Add { a, b }, [Some(a), Some(b)], Some(a)),
            (Sub { a, b }, [Some(a), Some(b)], Some(a)),
            (Sr { a, b }, [Some(a), Some(b)], Some(a)),
            (Sl { a, b }, [Some(a), Some(b)], Some(a)),
            (Comp { a, b }, [Some(a), Some(b)], Some(a)),
            (Andi { a, imm: i3 }, [Some(a), None], Some(a)),
            (Addi { a, imm: i3 }, [Some(a), None], Some(a)),
            (Sri { a, imm: i2 }, [Some(a), None], Some(a)),
            (Sli { a, imm: i2 }, [Some(a), None], Some(a)),
            // LUI overwrites every trit: it reads nothing.
            (Lui { a, imm: i4 }, [None, None], Some(a)),
            // LI reads its destination (upper trits preserved).
            (Li { a, imm: i5 }, [Some(a), None], Some(a)),
            // Branches read only the condition register, in the Tb slot.
            (
                Beq {
                    b,
                    cond,
                    offset: i4,
                },
                [None, Some(b)],
                None,
            ),
            (
                Bne {
                    b,
                    cond,
                    offset: i4,
                },
                [None, Some(b)],
                None,
            ),
            (Jal { a, offset: i5 }, [None, None], Some(a)),
            (Jalr { a, b, offset: i3 }, [None, Some(b)], Some(a)),
            (Load { a, b, offset: i3 }, [None, Some(b)], Some(a)),
            // STORE reads its datum (Ta) and base (Tb), writes nothing.
            (Store { a, b, offset: i3 }, [Some(a), Some(b)], None),
        ];
        for (k, (instr, sources, writes)) in table.into_iter().enumerate() {
            assert_eq!(instr.opcode(), k, "{instr}: table is in opcode order");
            assert_eq!(instr.sources(), sources, "{instr}");
            assert_eq!(instr.writes(), writes, "{instr}");
        }
    }

    #[test]
    fn display_smoke() {
        for i in sample() {
            let s = i.to_string();
            assert!(s.starts_with(i.mnemonic()), "{s}");
        }
    }

    #[test]
    fn imm_helper_reports_range() {
        assert!(imm::<3>("ADDI", 13).is_ok());
        let e = imm::<3>("ADDI", 14).unwrap_err();
        match e {
            IsaError::ImmediateRange {
                mnemonic,
                value,
                width,
            } => {
                assert_eq!(mnemonic, "ADDI");
                assert_eq!(value, 14);
                assert_eq!(width, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
