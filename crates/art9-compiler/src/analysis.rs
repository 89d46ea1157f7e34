//! Operand conversion, part 1: address re-scaling analysis.
//!
//! RV32 is byte-addressed; the ART-9 TIM/TDM are word-addressed
//! (paper §IV-A). The framework therefore re-scales every address
//! computation by 4: data symbols move to TDM word addresses, memory
//! offsets divide by 4, and pointer strides divide by 4. To know *what*
//! to re-scale, this pass classifies registers flow-insensitively:
//!
//! * a register is a **pointer** if it is the base of a load/store, is
//!   `sp`, or is copied/derived from a pointer;
//! * a `lui`+`addi` pair materializing an address inside the data
//!   section is an **address constant** (the expansion of `la`) — but
//!   only when its destination is pointer-typed, so numeric constants
//!   that merely look like addresses are left alone;
//! * a register defined by `slli rd, rs, 2` and consumed by a
//!   pointer-add is a **scaled index**; in the word-addressed domain
//!   the scaling disappears (`slli …, 2` becomes a plain move).
//!
//! Anything the classifier cannot type consistently is rejected with
//! [`CompileError::MixedPointerUse`] — translations are refused, never
//! silently wrong.

use rv32::{AluOp, Instr, Reg, Rv32Program, DATA_BASE};

use crate::error::CompileError;

/// First TDM word available to translated data (below this live the
/// runtime scratch and spill slots — see `regalloc`).
pub const DATA_WORD_BASE: i64 = 16;

/// Re-scaling action attached to an RV32 instruction index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// `lui` of an address pair: becomes "materialize word address"
    /// (the matching `addi` is absorbed — [`Action::Absorbed`]).
    AddressPair {
        /// The TDM word address the pair must produce.
        word_addr: i64,
    },
    /// The `addi` half of an address pair: emits nothing.
    Absorbed,
    /// Scale this `addi`'s immediate by 1/4 (pointer stride).
    ScaleStride,
    /// Scale this load/store offset by 1/4.
    ScaleOffset,
    /// This `slli rd, rs, 2` is an index scaling: emit a plain move.
    IndexToMove,
}

/// Result of the classification pass.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Pointer-typed registers: bit `i` is set when `x<i>` is one.
    pub pointers: u32,
    /// `actions[k]` is the re-scaling action of RV32 instruction `k`
    /// (one entry per instruction).
    pub actions: Vec<Option<Action>>,
    /// Whether the program reads `sp` (the prologue must initialize it).
    pub uses_sp: bool,
}

impl Analysis {
    /// Whether `reg` is pointer-typed.
    pub fn is_pointer(&self, reg: Reg) -> bool {
        has(self.pointers, reg)
    }
}

/// The bit of `reg` in a register mask.
fn bit(reg: Reg) -> u32 {
    1 << reg.index()
}

fn has(mask: u32, reg: Reg) -> bool {
    mask & bit(reg) != 0
}

/// Classifies registers and derives re-scaling actions.
///
/// # Errors
///
/// * [`CompileError::MixedPointerUse`] when a register is written both
///   as a pointer and as an unrelated scalar;
/// * [`CompileError::UnalignedAddress`] when an offset or stride is not
///   a multiple of 4.
pub fn analyze(program: &Rv32Program) -> Result<Analysis, CompileError> {
    let text = program.text();
    let data_bytes = 4 * program.data().len() as i64;
    let slli2 = slli2_defined(text);
    let is_slli2 = |reg: Reg| has(slli2, reg);

    // --- seed: pointer evidence ---------------------------------------
    let mut pointers = bit(Reg::SP);
    for i in text {
        match i {
            Instr::Load { rs1, .. } | Instr::Store { rs1, .. } => pointers |= bit(*rs1),
            Instr::Jalr { rs1, .. } if *rs1 != Reg::RA => {
                // Indirect jumps through computed addresses are code
                // pointers; they stay in the instruction-index domain
                // and are not rescaled. (Returns through ra are normal.)
            }
            _ => {}
        }
    }

    // --- propagate through copies and adds to fixpoint -----------------
    // Forward: derived-from-pointer is a pointer. Backward: the base a
    // pointer was derived from is a pointer (e.g. `add a3, a0, idx`
    // where a3 is a load base means a0 carries the address).
    loop {
        let before = pointers;
        for i in text {
            match *i {
                // addi rd, rs, k (covers mv): pointer flows both ways.
                Instr::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    ..
                } if !rs1.is_zero() && (has(pointers, rs1) || has(pointers, rd)) => {
                    pointers |= bit(rd) | bit(rs1);
                }
                Instr::Alu {
                    op: AluOp::Add,
                    rd,
                    rs1,
                    rs2,
                } => {
                    // Forward.
                    if has(pointers, rs1) || has(pointers, rs2) {
                        pointers |= bit(rd);
                    }
                    // Backward: the addend that is not a scaled index
                    // must be the pointer.
                    if has(pointers, rd) && !has(pointers, rs1) && !has(pointers, rs2) {
                        if is_slli2(rs2) && !is_slli2(rs1) {
                            pointers |= bit(rs1);
                        } else if is_slli2(rs1) && !is_slli2(rs2) {
                            pointers |= bit(rs2);
                        }
                    }
                }
                _ => {}
            }
        }
        if pointers == before {
            break;
        }
    }

    // --- find scaled indices: slli rd, rs, 2 feeding pointer adds ------
    let mut index4 = 0u32;
    for (k, i) in text.iter().enumerate() {
        if let Instr::Alu {
            op: AluOp::Add,
            rs1,
            rs2,
            ..
        } = *i
        {
            for (p, idx) in [(rs1, rs2), (rs2, rs1)] {
                if has(pointers, p) && !has(pointers, idx) {
                    // The non-pointer addend must be a scaled index.
                    if is_slli2(idx) {
                        index4 |= bit(idx);
                    } else {
                        return Err(CompileError::UnalignedAddress {
                            at: k,
                            offset: -1, // unknown dynamic stride
                        });
                    }
                }
            }
        }
    }

    // --- derive actions -------------------------------------------------
    let mut actions = vec![None; text.len()];
    let mut k = 0;
    while k < text.len() {
        match text[k] {
            // la expansion: lui rd, H; addi rd, rd, L with a data address.
            Instr::Lui { rd, imm20 } if has(pointers, rd) => {
                if let Some(Instr::AluImm {
                    op: AluOp::Add,
                    rd: rd2,
                    rs1,
                    imm,
                }) = text.get(k + 1)
                {
                    let value = ((imm20 as i64) << 12) + *imm as i64;
                    let in_data =
                        value >= DATA_BASE as i64 && value <= DATA_BASE as i64 + data_bytes;
                    if *rd2 == rd && *rs1 == rd && in_data {
                        let byte_off = value - DATA_BASE as i64;
                        if byte_off % 4 != 0 {
                            return Err(CompileError::UnalignedAddress {
                                at: k,
                                offset: byte_off,
                            });
                        }
                        actions[k] = Some(Action::AddressPair {
                            word_addr: DATA_WORD_BASE + byte_off / 4,
                        });
                        actions[k + 1] = Some(Action::Absorbed);
                        k += 2;
                        continue;
                    }
                }
                // A lui into a pointer register that is not an la pair
                // cannot be re-scaled.
                return Err(CompileError::MixedPointerUse {
                    reg: rd.abi_name().to_string(),
                });
            }
            Instr::AluImm {
                op: AluOp::Add,
                rs1,
                imm,
                ..
            } if has(pointers, rs1) && imm != 0 => {
                if imm % 4 != 0 {
                    return Err(CompileError::UnalignedAddress {
                        at: k,
                        offset: imm as i64,
                    });
                }
                actions[k] = Some(Action::ScaleStride);
            }
            Instr::Load { offset, .. } | Instr::Store { offset, .. } => {
                if offset % 4 != 0 {
                    return Err(CompileError::UnalignedAddress {
                        at: k,
                        offset: offset as i64,
                    });
                }
                if offset != 0 {
                    actions[k] = Some(Action::ScaleOffset);
                }
            }
            Instr::AluImm {
                op: AluOp::Sll,
                rd,
                imm: 2,
                ..
            } if has(index4, rd) => {
                actions[k] = Some(Action::IndexToMove);
            }
            _ => {}
        }
        k += 1;
    }

    // --- consistency: pointers must not be produced by scalar ops ------
    for (k, i) in text.iter().enumerate() {
        if let Some(rd) = i.writes() {
            if has(pointers, rd) {
                let ok = match *i {
                    Instr::AluImm { op: AluOp::Add, .. } => true,
                    Instr::Alu {
                        op: AluOp::Add,
                        rs1,
                        rs2,
                        ..
                    } => has(pointers, rs1) || has(pointers, rs2),
                    Instr::Lui { .. } => matches!(actions[k], Some(Action::AddressPair { .. })),
                    Instr::Load { .. } => false, // loading a pointer from memory: untyped
                    _ => false,
                };
                if !ok {
                    return Err(CompileError::MixedPointerUse {
                        reg: rd.abi_name().to_string(),
                    });
                }
            }
        }
    }

    Ok(Analysis {
        pointers,
        actions,
        uses_sp: text.iter().any(|i| i.reads().contains(&Some(Reg::SP))),
    })
}

/// The registers every definition of which is `slli reg, _, 2` (and
/// that have at least one definition), as a mask.
fn slli2_defined(text: &[Instr]) -> u32 {
    let (mut slli2, mut other) = (0u32, 0u32);
    for i in text {
        if let Some(rd) = i.writes() {
            match i {
                Instr::AluImm {
                    op: AluOp::Sll,
                    imm: 2,
                    ..
                } => slli2 |= bit(rd),
                _ => other |= bit(rd),
            }
        }
    }
    slli2 & !other
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::parse_program;

    #[test]
    fn classifies_la_and_strides() {
        let p = parse_program(
            "
            .data
            arr: .word 1, 2, 3, 4
            .text
            la   a0, arr
            lw   a1, 4(a0)
            addi a0, a0, 8
            sw   a1, 0(a0)
            ebreak
            ",
        )
        .unwrap();
        let a = analyze(&p).unwrap();
        assert!(a.is_pointer("a0".parse().unwrap()));
        // la = lui(0) + addi(1); lw at 2 scales; addi at 3 scales.
        assert!(matches!(
            a.actions[0],
            Some(Action::AddressPair { word_addr: 16 })
        ));
        assert_eq!(a.actions[1], Some(Action::Absorbed));
        assert_eq!(a.actions[2], Some(Action::ScaleOffset));
        assert_eq!(a.actions[3], Some(Action::ScaleStride));
    }

    #[test]
    fn scaled_index_becomes_move() {
        let p = parse_program(
            "
            .data
            arr: .word 0, 0, 0, 0, 0, 0, 0, 0
            .text
            la   a0, arr
            li   a1, 3
            slli a2, a1, 2
            add  a3, a0, a2
            lw   a4, 0(a3)
            ebreak
            ",
        )
        .unwrap();
        let a = analyze(&p).unwrap();
        assert_eq!(a.actions[3], Some(Action::IndexToMove));
        assert!(a.is_pointer("a3".parse().unwrap()));
    }

    #[test]
    fn rejects_unaligned_offset() {
        let p = parse_program(".data\nv: .word 0\n.text\nla a0, v\nlw a1, 2(a0)\n").unwrap();
        assert!(matches!(
            analyze(&p),
            Err(CompileError::UnalignedAddress { .. })
        ));
    }

    #[test]
    fn rejects_unaligned_stride() {
        let p = parse_program(".data\nv: .word 0\n.text\nla a0, v\naddi a0, a0, 3\nlw a1, 0(a0)\n")
            .unwrap();
        assert!(matches!(
            analyze(&p),
            Err(CompileError::UnalignedAddress { .. })
        ));
    }

    #[test]
    fn rejects_raw_index_add() {
        // Adding an unscaled loop counter to a pointer cannot be typed.
        let p = parse_program(
            ".data\nv: .word 0\n.text\nla a0, v\nli a1, 1\nadd a0, a0, a1\nlw a2, 0(a0)\n",
        )
        .unwrap();
        assert!(analyze(&p).is_err());
    }

    #[test]
    fn scalar_lookalike_constants_stay_scalar() {
        // 0x2004 looks like an address but is never pointer-used.
        let p = parse_program("li a0, 0x2004\nadd a1, a0, a0\nebreak\n").unwrap();
        let a = analyze(&p).unwrap();
        assert!(!a.is_pointer("a0".parse().unwrap()));
        assert!(a.actions.iter().all(Option::is_none));
    }

    #[test]
    fn rejects_pointer_loaded_from_memory() {
        // A pointer fetched from memory is untypeable flow-insensitively:
        // the re-scaler cannot know what scale the stored value has.
        let p =
            parse_program(".data\nptrs: .word 0\n.text\nla a0, ptrs\nlw a1, 0(a0)\nlw a2, 0(a1)\n")
                .unwrap();
        assert!(matches!(
            analyze(&p),
            Err(CompileError::MixedPointerUse { .. })
        ));
    }

    #[test]
    fn chained_pointer_copies_propagate() {
        let p = parse_program(
            ".data\narr: .word 1, 2\n.text\nla a0, arr\nmv a1, a0\nmv a2, a1\nlw a3, 4(a2)\n",
        )
        .unwrap();
        let a = analyze(&p).unwrap();
        for r in ["a0", "a1", "a2"] {
            assert!(a.is_pointer(r.parse().unwrap()), "{r} is a pointer");
        }
        assert_eq!(a.actions[4], Some(Action::ScaleOffset));
    }

    #[test]
    fn negative_strides_scale_too() {
        let p = parse_program(
            ".data\narr: .word 1, 2, 3\n.text\nla a0, arr\naddi a0, a0, 8\nlw a1, 0(a0)\naddi a0, a0, -4\nlw a2, 0(a0)\n",
        )
        .unwrap();
        let a = analyze(&p).unwrap();
        assert_eq!(a.actions[2], Some(Action::ScaleStride));
        assert_eq!(a.actions[4], Some(Action::ScaleStride));
    }

    #[test]
    fn sp_is_pointer_and_tracked() {
        let p = parse_program("addi sp, sp, -8\nsw ra, 4(sp)\nlw ra, 4(sp)\naddi sp, sp, 8\nret\n")
            .unwrap();
        let a = analyze(&p).unwrap();
        assert!(a.uses_sp);
        assert_eq!(a.actions[0], Some(Action::ScaleStride));
        assert_eq!(a.actions[1], Some(Action::ScaleOffset));
    }
}
