//! Instruction mapping: each RV32 instruction becomes a sequence of
//! ART-9 instructions (paper Fig. 2, "instruction mapping" +
//! "operand conversion").
//!
//! Highlights of the mapping (full table in DESIGN.md):
//!
//! * three-address RV32 ALU ops fold onto the two-address ART-9 forms
//!   with staging moves only when the destination differs from a source;
//! * compare-and-branch becomes the paper's COMP idiom: copy, `COMP`,
//!   then `BEQ`/`BNE` on the sign trit;
//! * `slt`-family results materialize the sign word into a 0/1 boolean
//!   with `AND t, t0` + `STI` (min-with-zero, negate);
//! * binary shifts are **not** ternary shifts: `slli k` expands to
//!   doubling `ADD`s (or a `__mul` call), `srli`/`srai` become `__div`
//!   calls — each recorded as a warning because the rounding of `srai`
//!   on negatives differs (trunc vs floor);
//! * `mul`/`div`/`rem` call the runtime library;
//! * constants materialize as `LUI`+`LI` (or `SUB r,r` zeroing + `LI`),
//!   exactly the paper's large-constant scheme (§IV-A).

use std::collections::BTreeSet;

use art9_isa::{Instruction, TReg};
use rv32::{AluOp, BranchOp, Instr, MulOp, Reg};
use ternary::{Trit, Trits};

use crate::analysis::{Action, Analysis};
use crate::error::CompileError;
use crate::items::{BuiltinId, Item, Label, Origin, Sourced};
use crate::regalloc::{Allocation, Loc, CALL_SAVE_T3, CALL_SAVE_T4};
use crate::report::{Warning, WarningKind};
use crate::runtime::LocalLabels;

/// Scratch register for operand staging and addresses.
const SCRATCH_A: TReg = TReg::T7;
/// Scratch register for branch compares, builtin linkage and results.
const SCRATCH_B: TReg = TReg::T8;

/// The mapper: walks the RV32 text and emits symbolic ART-9 items.
pub struct Mapper<'a> {
    alloc: &'a Allocation,
    analysis: &'a Analysis,
    tdm_words: usize,
    items: Vec<Sourced>,
    /// Provenance tag applied to every item pushed from here on.
    origin: Origin,
    pub(crate) used_builtins: BTreeSet<BuiltinId>,
    pub(crate) warnings: Vec<Warning>,
    pub(crate) labels: LocalLabels,
    warned: BTreeSet<WarningKind>,
}

impl<'a> Mapper<'a> {
    /// Creates a mapper over the given allocation/analysis.
    pub fn new(alloc: &'a Allocation, analysis: &'a Analysis, tdm_words: usize) -> Self {
        Self {
            alloc,
            analysis,
            tdm_words,
            items: Vec::new(),
            origin: Origin::Prologue,
            used_builtins: BTreeSet::new(),
            warnings: Vec::new(),
            labels: LocalLabels::new(),
            warned: BTreeSet::new(),
        }
    }

    /// Maps the whole program; returns the symbolic item stream
    /// (without the builtin bodies — the caller links those).
    ///
    /// # Errors
    ///
    /// Any [`CompileError`] from unmappable instructions or constants.
    pub fn map_program(mut self, text: &[Instr]) -> Result<MapOutput, CompileError> {
        self.prologue();
        for (k, instr) in text.iter().enumerate() {
            self.origin = Origin::Rv(k);
            self.emit(Item::Mark(Label::Rv(k)));
            if self.analysis.actions[k] == Some(Action::Absorbed) {
                continue;
            }
            self.map_one(k, instr)?;
        }
        // A trailing mark so jumps past the last instruction resolve.
        self.origin = Origin::Halt;
        self.emit(Item::Mark(Label::Rv(text.len())));
        // Falling off the end halts (matches the RV32 machine).
        let halt = self.labels.fresh();
        self.emit(Item::Mark(halt));
        self.emit(Item::Jump {
            link: SCRATCH_B,
            target: halt,
        });
        Ok(MapOutput {
            items: self.items,
            used_builtins: self.used_builtins,
            warnings: self.warnings,
            labels: self.labels,
        })
    }

    /// Software conventions the translated program relies on: `t2` (sp)
    /// points at the top of TDM when the source uses a stack. (`t0`
    /// is zero because the TRF resets to zero and nothing writes it.)
    fn prologue(&mut self) {
        if self.analysis.uses_sp {
            self.emit_const(TReg::T2, self.tdm_words as i64);
        }
    }

    fn warn_once(&mut self, at: usize, kind: WarningKind) {
        if self.warned.insert(kind) {
            self.warnings.push(Warning { at, kind });
        }
    }

    /// Appends one item tagged with the current provenance origin.
    fn emit(&mut self, item: Item) {
        let origin = self.origin;
        self.items.push(Sourced::new(item, origin));
    }

    fn ins(&mut self, i: Instruction) {
        self.emit(Item::Ins(i));
    }

    /// Emits a staging move *unconditionally* — including `MV x, x`.
    /// The paper's flow is deliberately mechanical here: "the mapping
    /// and conversion steps may utilize additional instructions, the
    /// final redundancy checking phase finds the meaningless
    /// instructions" (§III-A). The self-moves this produces are exactly
    /// what the redundancy pass removes.
    fn mv(&mut self, a: TReg, b: TReg) {
        self.ins(Instruction::Mv { a, b });
    }

    fn imm3(v: i64) -> Trits<3> {
        Trits::<3>::from_i64(v).expect("imm3 range checked by caller")
    }

    /// Materializes an arbitrary in-range constant into `reg`
    /// (2 instructions; 1 for zero). LUI zeroes the low trits, LI
    /// splices the low five — the paper's large-constant scheme.
    fn emit_const(&mut self, reg: TReg, value: i64) {
        debug_assert!((-9841..=9841).contains(&value));
        if value == 0 {
            self.ins(Instruction::Sub { a: reg, b: reg });
            return;
        }
        let (hi, lo) = art9_isa::asm::split_hi_lo(value);
        if hi == 0 {
            self.ins(Instruction::Sub { a: reg, b: reg });
        } else {
            self.ins(Instruction::Lui {
                a: reg,
                imm: Trits::<4>::from_i64(hi).expect("hi fits imm4"),
            });
        }
        if lo != 0 || hi == 0 {
            self.ins(Instruction::Li {
                a: reg,
                imm: Trits::<5>::from_i64(lo).expect("lo fits imm5"),
            });
        }
    }

    /// Adds a (possibly large) constant to `reg` in place.
    fn emit_add_const(&mut self, reg: TReg, value: i64, scratch: TReg) {
        if value == 0 {
            return;
        }
        if (-13..=13).contains(&value) {
            self.ins(Instruction::Addi {
                a: reg,
                imm: Self::imm3(value),
            });
        } else if (-26..=26).contains(&value) {
            let half = value / 2;
            self.ins(Instruction::Addi {
                a: reg,
                imm: Self::imm3(half),
            });
            self.ins(Instruction::Addi {
                a: reg,
                imm: Self::imm3(value - half),
            });
        } else {
            self.emit_const(scratch, value);
            self.ins(Instruction::Add { a: reg, b: scratch });
        }
    }

    /// Stages the value of RV32 register `rv` into physical `phys`.
    fn read_to(&mut self, phys: TReg, rv: Reg) {
        match self.alloc.loc(rv) {
            Loc::Zero => self.mv(phys, TReg::T0),
            Loc::Direct(r) => self.mv(phys, r),
            Loc::Spill(s) => self.ins(Instruction::Load {
                a: phys,
                b: TReg::T0,
                offset: Self::imm3(s),
            }),
        }
    }

    /// The physical register already holding `rv`, or `fallback` after
    /// staging code. Zero maps to `t0` directly.
    fn read_in_place(&mut self, rv: Reg, fallback: TReg) -> TReg {
        match self.alloc.loc(rv) {
            Loc::Zero => TReg::T0,
            Loc::Direct(r) => r,
            Loc::Spill(s) => {
                self.ins(Instruction::Load {
                    a: fallback,
                    b: TReg::T0,
                    offset: Self::imm3(s),
                });
                fallback
            }
        }
    }

    /// Writes `phys` back to RV32 register `rv`'s home.
    fn write_from(&mut self, rv: Reg, phys: TReg) {
        match self.alloc.loc(rv) {
            Loc::Zero => {}
            Loc::Direct(r) => self.mv(r, phys),
            Loc::Spill(s) => self.ins(Instruction::Store {
                a: phys,
                b: TReg::T0,
                offset: Self::imm3(s),
            }),
        }
    }

    /// The register new results for `rv` should be computed in.
    fn dest_phys(&mut self, rv: Reg) -> TReg {
        match self.alloc.loc(rv) {
            Loc::Direct(r) => r,
            _ => SCRATCH_B,
        }
    }

    fn map_one(&mut self, k: usize, instr: &Instr) -> Result<(), CompileError> {
        use Instr::*;
        match instr {
            Lui { rd, imm20 } => {
                if let Some(Action::AddressPair { word_addr }) = self.analysis.actions[k] {
                    let w = self.dest_phys(*rd);
                    self.emit_const(w, word_addr);
                    self.write_from(*rd, w);
                    return Ok(());
                }
                let value = (*imm20 as i64) << 12;
                if !(-9841..=9841).contains(&value) {
                    return Err(CompileError::ConstantRange { at: k, value });
                }
                let w = self.dest_phys(*rd);
                self.emit_const(w, value);
                self.write_from(*rd, w);
            }
            Auipc { .. } => {
                return Err(CompileError::Unsupported {
                    at: k,
                    mnemonic: "auipc",
                });
            }
            AluImm { op, rd, rs1, imm } => self.map_alu_imm(k, *op, *rd, *rs1, *imm as i64)?,
            Alu { op, rd, rs1, rs2 } => self.map_alu(k, *op, *rd, *rs1, *rs2)?,
            MulDiv { op, rd, rs1, rs2 } => {
                let builtin = match op {
                    MulOp::Mul => BuiltinId::Mul,
                    MulOp::Div | MulOp::Divu => BuiltinId::Div,
                    MulOp::Rem | MulOp::Remu => BuiltinId::Rem,
                    MulOp::Mulh | MulOp::Mulhsu | MulOp::Mulhu => {
                        return Err(CompileError::Unsupported {
                            at: k,
                            mnemonic: "mulh",
                        })
                    }
                };
                if matches!(op, MulOp::Divu | MulOp::Remu) {
                    self.warn_once(k, WarningKind::UnsignedAsSigned);
                }
                self.call_builtin(builtin, *rd, *rs1, *rs2);
            }
            Load {
                op: rv32::LoadOp::Lw,
                rd,
                rs1,
                offset,
            } => {
                let off = self.scaled_offset(k, *offset)?;
                let base = self.read_in_place(*rs1, SCRATCH_A);
                let w = self.dest_phys(*rd);
                let (base, off) = self.fit_mem_offset(base, off);
                self.ins(Instruction::Load {
                    a: w,
                    b: base,
                    offset: Self::imm3(off),
                });
                self.write_from(*rd, w);
            }
            Load { op, .. } => {
                return Err(CompileError::SubWordAccess {
                    at: k,
                    mnemonic: match op {
                        rv32::LoadOp::Lb => "lb",
                        rv32::LoadOp::Lh => "lh",
                        rv32::LoadOp::Lbu => "lbu",
                        rv32::LoadOp::Lhu => "lhu",
                        rv32::LoadOp::Lw => unreachable!("handled above"),
                    },
                });
            }
            Store {
                op: rv32::StoreOp::Sw,
                rs2,
                rs1,
                offset,
            } => {
                let off = self.scaled_offset(k, *offset)?;
                // Address first (offset folding may use t8), datum last.
                let base = self.read_in_place(*rs1, SCRATCH_A);
                let (base, off) = self.fit_mem_offset(base, off);
                self.read_to(SCRATCH_B, *rs2);
                self.ins(Instruction::Store {
                    a: SCRATCH_B,
                    b: base,
                    offset: Self::imm3(off),
                });
            }
            Store { op, .. } => {
                return Err(CompileError::SubWordAccess {
                    at: k,
                    mnemonic: match op {
                        rv32::StoreOp::Sb => "sb",
                        rv32::StoreOp::Sh => "sh",
                        rv32::StoreOp::Sw => unreachable!("handled above"),
                    },
                });
            }
            Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let target = Label::Rv(target_index(k, *offset));
                self.read_to(SCRATCH_B, *rs1);
                let rhs = self.read_in_place(*rs2, SCRATCH_A);
                self.ins(Instruction::Comp {
                    a: SCRATCH_B,
                    b: rhs,
                });
                let (eq, cond) = match op {
                    BranchOp::Eq => (true, Trit::Z),
                    BranchOp::Ne => (false, Trit::Z),
                    BranchOp::Lt => (true, Trit::N),
                    BranchOp::Ge => (false, Trit::N),
                    BranchOp::Ltu => {
                        self.warn_once(k, WarningKind::UnsignedAsSigned);
                        (true, Trit::N)
                    }
                    BranchOp::Geu => {
                        self.warn_once(k, WarningKind::UnsignedAsSigned);
                        (false, Trit::N)
                    }
                };
                self.emit(Item::Branch {
                    eq,
                    breg: SCRATCH_B,
                    cond,
                    target,
                });
            }
            Jal { rd, offset } => {
                let target = Label::Rv(target_index(k, *offset));
                match self.alloc.loc(*rd) {
                    Loc::Zero => self.emit(Item::Jump {
                        link: SCRATCH_B,
                        target,
                    }),
                    Loc::Direct(r) => self.emit(Item::Jump { link: r, target }),
                    Loc::Spill(s) => {
                        // Code after a jump never runs: the return
                        // address must reach the spill slot first.
                        self.emit(Item::LabelConst {
                            reg: SCRATCH_B,
                            target: Label::Rv(k + 1),
                        });
                        self.ins(Instruction::Store {
                            a: SCRATCH_B,
                            b: TReg::T0,
                            offset: Self::imm3(s),
                        });
                        self.emit(Item::Jump {
                            link: SCRATCH_B,
                            target,
                        });
                    }
                }
            }
            Jalr { rd, rs1, offset } => {
                if *offset != 0 {
                    return Err(CompileError::Unsupported {
                        at: k,
                        mnemonic: "jalr+off",
                    });
                }
                let base = self.read_in_place(*rs1, SCRATCH_A);
                match self.alloc.loc(*rd) {
                    Loc::Zero => {
                        self.ins(Instruction::Jalr {
                            a: SCRATCH_B,
                            b: base,
                            offset: Trits::ZERO,
                        });
                    }
                    Loc::Direct(r) => {
                        // JALR reads Tb before writing Ta, so link == base
                        // is architecturally fine.
                        self.ins(Instruction::Jalr {
                            a: r,
                            b: base,
                            offset: Trits::ZERO,
                        });
                    }
                    Loc::Spill(s) => {
                        self.emit(Item::LabelConst {
                            reg: SCRATCH_B,
                            target: Label::Rv(k + 1),
                        });
                        self.ins(Instruction::Store {
                            a: SCRATCH_B,
                            b: TReg::T0,
                            offset: Self::imm3(s),
                        });
                        self.ins(Instruction::Jalr {
                            a: SCRATCH_B,
                            b: base,
                            offset: Trits::ZERO,
                        });
                    }
                }
            }
            Fence => {}
            Ecall | Ebreak => {
                // Halt: jump-to-self.
                let here = self.labels.fresh();
                self.emit(Item::Mark(here));
                self.emit(Item::Jump {
                    link: SCRATCH_B,
                    target: here,
                });
            }
        }
        Ok(())
    }

    fn scaled_offset(&mut self, k: usize, offset: i32) -> Result<i64, CompileError> {
        match self.analysis.actions[k] {
            Some(Action::ScaleOffset) => Ok(offset as i64 / 4),
            _ if offset == 0 => Ok(0),
            _ => Err(CompileError::UnalignedAddress {
                at: k,
                offset: offset as i64,
            }),
        }
    }

    /// Folds an out-of-range memory offset into the address register.
    fn fit_mem_offset(&mut self, base: TReg, off: i64) -> (TReg, i64) {
        if (-13..=13).contains(&off) {
            (base, off)
        } else {
            self.mv(SCRATCH_A, base);
            self.emit_add_const(SCRATCH_A, off, SCRATCH_B);
            (SCRATCH_A, 0)
        }
    }

    fn map_alu_imm(
        &mut self,
        k: usize,
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    ) -> Result<(), CompileError> {
        if rd.is_zero() {
            return Ok(()); // writes to x0 are dead; operands are pure
        }
        match op {
            AluOp::Add => {
                if rs1.is_zero() {
                    // li
                    if !(-9841..=9841).contains(&imm) {
                        return Err(CompileError::ConstantRange { at: k, value: imm });
                    }
                    let w = self.dest_phys(rd);
                    self.emit_const(w, imm);
                    self.write_from(rd, w);
                    return Ok(());
                }
                let imm = if self.analysis.actions[k] == Some(Action::ScaleStride) {
                    imm / 4
                } else {
                    imm
                };
                if !(-9841..=9841).contains(&imm) {
                    return Err(CompileError::ConstantRange { at: k, value: imm });
                }
                let w = self.dest_phys(rd);
                self.read_to(w, rs1);
                self.emit_add_const(w, imm, SCRATCH_A);
                self.write_from(rd, w);
            }
            AluOp::And | AluOp::Or | AluOp::Xor => {
                self.warn_once(k, WarningKind::BitwiseSemantics);
                let w = self.dest_phys(rd);
                // ANDI has a native imm3 form.
                if op == AluOp::And
                    && (-13..=13).contains(&imm)
                    && self.alloc.loc(rd) == self.alloc.loc(rs1)
                {
                    if let Loc::Direct(r) = self.alloc.loc(rd) {
                        self.ins(Instruction::Andi {
                            a: r,
                            imm: Self::imm3(imm),
                        });
                        return Ok(());
                    }
                }
                self.emit_const(SCRATCH_A, imm);
                self.read_to(w, rs1);
                let i = match op {
                    AluOp::And => Instruction::And { a: w, b: SCRATCH_A },
                    AluOp::Or => Instruction::Or { a: w, b: SCRATCH_A },
                    _ => Instruction::Xor { a: w, b: SCRATCH_A },
                };
                self.ins(i);
                self.write_from(rd, w);
            }
            AluOp::Sll => {
                if self.analysis.actions[k] == Some(Action::IndexToMove) {
                    // Scaled index: ×4 in bytes is ×1 in words.
                    let w = self.dest_phys(rd);
                    self.read_to(w, rs1);
                    self.write_from(rd, w);
                    return Ok(());
                }
                self.emit_shift_left(k, rd, rs1, imm as u32)?;
            }
            AluOp::Srl | AluOp::Sra => {
                self.warn_once(k, WarningKind::ShiftAsDivision);
                // 2^14 already exceeds the 9-trit window: reject rather
                // than silently dividing by a clamped power.
                let amount = (imm as u32).min(31);
                if amount > 13 {
                    return Err(CompileError::ConstantRange {
                        at: k,
                        value: 1i64 << amount,
                    });
                }
                self.call_builtin_imm(BuiltinId::Div, rd, rs1, 1i64 << amount);
            }
            AluOp::Slt | AluOp::Sltu => {
                if op == AluOp::Sltu {
                    self.warn_once(k, WarningKind::UnsignedAsSigned);
                    // seqz idiom: sltiu rd, rs, 1  ==  rd = (rs == 0).
                    if imm == 1 {
                        self.emit_is_zero(rd, rs1);
                        return Ok(());
                    }
                }
                self.read_to(SCRATCH_B, rs1);
                self.emit_const(SCRATCH_A, imm);
                self.emit_slt_tail(rd);
            }
            AluOp::Sub => {
                return Err(CompileError::Unsupported {
                    at: k,
                    mnemonic: "subi",
                });
            }
        }
        Ok(())
    }

    /// `rd = (rs == 0)` — COMP against zero, square the sign with XOR,
    /// add one: {0→1, ±1→0}.
    fn emit_is_zero(&mut self, rd: Reg, rs: Reg) {
        self.read_to(SCRATCH_B, rs);
        self.ins(Instruction::Comp {
            a: SCRATCH_B,
            b: TReg::T0,
        });
        self.ins(Instruction::Xor {
            a: SCRATCH_B,
            b: SCRATCH_B,
        }); // -|sign|
        self.ins(Instruction::Addi {
            a: SCRATCH_B,
            imm: Self::imm3(1),
        });
        self.write_from(rd, SCRATCH_B);
    }

    /// Shared tail for `slt*`: `t8` holds lhs, `t7` rhs; computes the
    /// 0/1 boolean into `rd`.
    fn emit_slt_tail(&mut self, rd: Reg) {
        self.ins(Instruction::Comp {
            a: SCRATCH_B,
            b: SCRATCH_A,
        });
        self.ins(Instruction::And {
            a: SCRATCH_B,
            b: TReg::T0,
        }); // min(sign, 0)
        self.ins(Instruction::Sti {
            a: SCRATCH_B,
            b: SCRATCH_B,
        }); // negate
        self.write_from(rd, SCRATCH_B);
    }

    fn emit_shift_left(
        &mut self,
        k: usize,
        rd: Reg,
        rs1: Reg,
        amount: u32,
    ) -> Result<(), CompileError> {
        self.warn_once(k, WarningKind::ShiftAsMultiply);
        if amount <= 3 {
            let w = self.dest_phys(rd);
            self.read_to(w, rs1);
            for _ in 0..amount {
                self.ins(Instruction::Add { a: w, b: w });
            }
            self.write_from(rd, w);
            Ok(())
        } else {
            let pow = 1i64 << amount.min(14);
            if pow > 9841 {
                return Err(CompileError::ConstantRange { at: k, value: pow });
            }
            self.call_builtin_imm(BuiltinId::Mul, rd, rs1, pow);
            Ok(())
        }
    }

    fn map_alu(
        &mut self,
        k: usize,
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    ) -> Result<(), CompileError> {
        if rd.is_zero() {
            return Ok(());
        }
        match op {
            AluOp::Add | AluOp::Sub | AluOp::And | AluOp::Or | AluOp::Xor => {
                if matches!(op, AluOp::And | AluOp::Or | AluOp::Xor) {
                    self.warn_once(k, WarningKind::BitwiseSemantics);
                }
                self.emit_binop(op, rd, rs1, rs2);
            }
            AluOp::Slt | AluOp::Sltu => {
                if op == AluOp::Sltu {
                    self.warn_once(k, WarningKind::UnsignedAsSigned);
                    // snez idiom: sltu rd, x0, rs == (rs != 0).
                    if rs1.is_zero() {
                        self.emit_is_zero(rd, rs2);
                        // invert: rd = 1 - rd … XOR trick: (rd==0) gives
                        // 1 on zero; subtract from 1:
                        let w = self.dest_phys(rd);
                        self.read_to(w, rd);
                        self.ins(Instruction::Sti { a: w, b: w });
                        self.ins(Instruction::Addi {
                            a: w,
                            imm: Self::imm3(1),
                        });
                        self.write_from(rd, w);
                        return Ok(());
                    }
                }
                self.read_to(SCRATCH_B, rs1);
                let rhs = self.read_in_place(rs2, SCRATCH_A);
                self.mv(SCRATCH_A, rhs);
                self.emit_slt_tail(rd);
            }
            AluOp::Sll | AluOp::Srl | AluOp::Sra => {
                return Err(CompileError::Unsupported {
                    at: k,
                    mnemonic: "dynamic shift",
                });
            }
        }
        Ok(())
    }

    /// Two-address folding of `rd = rs1 op rs2`.
    fn emit_binop(&mut self, op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) {
        let commutative = matches!(op, AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor);
        let emit_op = |m: &mut Self, a: TReg, b: TReg| {
            let i = match op {
                AluOp::Add => Instruction::Add { a, b },
                AluOp::Sub => Instruction::Sub { a, b },
                AluOp::And => Instruction::And { a, b },
                AluOp::Or => Instruction::Or { a, b },
                AluOp::Xor => Instruction::Xor { a, b },
                _ => unreachable!("emit_binop covers the five two-address ops"),
            };
            m.ins(i);
        };

        let w = self.dest_phys(rd);
        let rd_is_rs2 = self.alloc.loc(rd) == self.alloc.loc(rs2) && !rs2.is_zero();
        let rd_is_rs1 = self.alloc.loc(rd) == self.alloc.loc(rs1) && !rs1.is_zero();

        if rd_is_rs2 && !rd_is_rs1 {
            if commutative {
                // w already holds rs2; fold rs1 in.
                let lhs = self.read_in_place(rs1, SCRATCH_A);
                if matches!(self.alloc.loc(rd), Loc::Direct(_)) {
                    emit_op(self, w, lhs);
                } else {
                    self.read_to(w, rs2);
                    emit_op(self, w, lhs);
                }
                self.write_from(rd, w);
            } else {
                // rd = rs1 - rd  ==  -(rd - rs1).
                if matches!(self.alloc.loc(rd), Loc::Direct(_)) {
                    let lhs = self.read_in_place(rs1, SCRATCH_A);
                    emit_op(self, w, lhs); // w = rd - rs1
                    self.ins(Instruction::Sti { a: w, b: w });
                } else {
                    self.read_to(w, rs2);
                    let lhs = self.read_in_place(rs1, SCRATCH_A);
                    emit_op(self, w, lhs);
                    self.ins(Instruction::Sti { a: w, b: w });
                }
                self.write_from(rd, w);
            }
        } else {
            self.read_to(w, rs1);
            let rhs = self.read_in_place(rs2, SCRATCH_A);
            emit_op(self, w, rhs);
            self.write_from(rd, w);
        }
    }

    /// Emits the save/stage/call/restore dance for `rd = rs1 ⊗ rs2`.
    fn call_builtin(&mut self, id: BuiltinId, rd: Reg, rs1: Reg, rs2: Reg) {
        self.used_builtins.insert(id);
        // Save program t3/t4 (they may hold live allocated registers).
        self.ins(Instruction::Store {
            a: TReg::T3,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T3),
        });
        self.ins(Instruction::Store {
            a: TReg::T4,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T4),
        });
        // Stage arg1 into t3 (t3/t4 still hold their program values).
        match self.alloc.loc(rs1) {
            Loc::Direct(TReg::T3) => {}
            Loc::Direct(r) => self.mv(TReg::T3, r),
            Loc::Zero => self.mv(TReg::T3, TReg::T0),
            Loc::Spill(s) => self.ins(Instruction::Load {
                a: TReg::T3,
                b: TReg::T0,
                offset: Self::imm3(s),
            }),
        }
        // Stage arg2 into t4; if it lived in t3 use the saved copy.
        match self.alloc.loc(rs2) {
            Loc::Direct(TReg::T4) => {}
            Loc::Direct(TReg::T3) => self.ins(Instruction::Load {
                a: TReg::T4,
                b: TReg::T0,
                offset: Self::imm3(CALL_SAVE_T3),
            }),
            Loc::Direct(r) => self.mv(TReg::T4, r),
            Loc::Zero => self.mv(TReg::T4, TReg::T0),
            Loc::Spill(s) => self.ins(Instruction::Load {
                a: TReg::T4,
                b: TReg::T0,
                offset: Self::imm3(s),
            }),
        }
        self.emit(Item::Jump {
            link: SCRATCH_B,
            target: Label::Builtin(id),
        });
        self.finish_builtin_result(rd);
    }

    /// Builtin call with an immediate second operand (shift expansion).
    fn call_builtin_imm(&mut self, id: BuiltinId, rd: Reg, rs1: Reg, imm: i64) {
        self.used_builtins.insert(id);
        self.ins(Instruction::Store {
            a: TReg::T3,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T3),
        });
        self.ins(Instruction::Store {
            a: TReg::T4,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T4),
        });
        match self.alloc.loc(rs1) {
            Loc::Direct(TReg::T3) => {}
            Loc::Direct(r) => self.mv(TReg::T3, r),
            Loc::Zero => self.mv(TReg::T3, TReg::T0),
            Loc::Spill(s) => self.ins(Instruction::Load {
                a: TReg::T3,
                b: TReg::T0,
                offset: Self::imm3(s),
            }),
        }
        self.emit_const(TReg::T4, imm);
        self.emit(Item::Jump {
            link: SCRATCH_B,
            target: Label::Builtin(id),
        });
        self.finish_builtin_result(rd);
    }

    /// Moves the builtin result (t3) to `rd` and restores t3/t4.
    fn finish_builtin_result(&mut self, rd: Reg) {
        let rd_loc = self.alloc.loc(rd);
        match rd_loc {
            Loc::Direct(TReg::T3) => {
                // Result already home; restore only t4.
                self.ins(Instruction::Load {
                    a: TReg::T4,
                    b: TReg::T0,
                    offset: Self::imm3(CALL_SAVE_T4),
                });
            }
            Loc::Direct(TReg::T4) => {
                self.mv(TReg::T4, TReg::T3);
                self.ins(Instruction::Load {
                    a: TReg::T3,
                    b: TReg::T0,
                    offset: Self::imm3(CALL_SAVE_T3),
                });
            }
            Loc::Direct(r) => {
                self.mv(r, TReg::T3);
                self.restore_t3_t4();
            }
            Loc::Spill(s) => {
                self.ins(Instruction::Store {
                    a: TReg::T3,
                    b: TReg::T0,
                    offset: Self::imm3(s),
                });
                self.restore_t3_t4();
            }
            Loc::Zero => self.restore_t3_t4(),
        }
    }

    fn restore_t3_t4(&mut self) {
        self.ins(Instruction::Load {
            a: TReg::T3,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T3),
        });
        self.ins(Instruction::Load {
            a: TReg::T4,
            b: TReg::T0,
            offset: Self::imm3(CALL_SAVE_T4),
        });
    }
}

/// Output of the mapping pass.
#[derive(Debug)]
pub struct MapOutput {
    /// Symbolic item stream (program body, before builtin linkage),
    /// each item tagged with the RV32 instruction it was emitted for.
    pub items: Vec<Sourced>,
    /// Builtins the program calls.
    pub used_builtins: BTreeSet<BuiltinId>,
    /// Semantic-difference warnings.
    pub warnings: Vec<Warning>,
    /// Label allocator (continued by the linker for builtin bodies).
    pub labels: LocalLabels,
}

/// RV32 branch target: instruction index from byte offset.
fn target_index(at: usize, byte_offset: i32) -> usize {
    (at as i64 + byte_offset as i64 / 4) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::regalloc::allocate;
    use rv32::parse_program;

    fn map(src: &str) -> MapOutput {
        let p = parse_program(src).unwrap();
        let analysis = analyze(&p).unwrap();
        let alloc = allocate(&p).unwrap();
        Mapper::new(&alloc, &analysis, 256)
            .map_program(p.text())
            .unwrap()
    }

    fn count_ins(items: &[Sourced]) -> usize {
        items
            .iter()
            .filter(|s| !matches!(s.item, Item::Mark(_)))
            .count()
    }

    #[test]
    fn small_li_is_two_instructions_max() {
        let out = map("li a0, 5\nebreak\n");
        let mut items = out.items;
        crate::redundancy::eliminate(&mut items);
        // const (<=2) + halt jump, once the staging moves are cleaned.
        assert!(count_ins(&items) <= 4);
    }

    #[test]
    fn in_place_add_folds_to_one_op_after_redundancy() {
        let out = map("add a0, a0, a1\nebreak\n");
        let adds = out
            .items
            .iter()
            .filter(|s| matches!(s.item, Item::Ins(Instruction::Add { .. })))
            .count();
        assert_eq!(adds, 1);
        // The mechanical mapper stages rd == rs1 with a self-move…
        let self_mv = out
            .items
            .iter()
            .any(|s| matches!(s.item, Item::Ins(Instruction::Mv { a, b }) if a == b));
        assert!(self_mv, "mapper emits the staging move mechanically");
        // …and the redundancy pass removes it (Fig. 2's last stage).
        let mut items = out.items.clone();
        let removed = crate::redundancy::eliminate(&mut items);
        assert!(removed >= 1);
        assert!(!items
            .iter()
            .any(|s| matches!(s.item, Item::Ins(Instruction::Mv { a, b }) if a == b)));
    }

    #[test]
    fn branch_uses_comp_idiom() {
        let out = map("x: blt a0, a1, x\nebreak\n");
        assert!(out
            .items
            .iter()
            .any(|s| matches!(s.item, Item::Ins(Instruction::Comp { .. }))));
        assert!(out.items.iter().any(|s| matches!(
            s.item,
            Item::Branch {
                eq: true,
                cond: Trit::N,
                ..
            }
        )));
    }

    #[test]
    fn mul_emits_builtin_call() {
        let out = map("mul a0, a1, a2\nebreak\n");
        assert!(out.used_builtins.contains(&BuiltinId::Mul));
        assert!(out.items.iter().any(|s| matches!(
            s.item,
            Item::Jump {
                target: Label::Builtin(BuiltinId::Mul),
                ..
            }
        )));
    }

    #[test]
    fn slli_expands_to_adds() {
        let out = map("slli a0, a1, 2\nebreak\n");
        let adds = out
            .items
            .iter()
            .filter(|s| matches!(s.item, Item::Ins(Instruction::Add { .. })))
            .count();
        assert_eq!(adds, 2, "x4 = two doublings");
        assert!(out
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::ShiftAsMultiply));
    }

    #[test]
    fn srai_calls_div_with_warning() {
        let out = map("srai a0, a0, 1\nebreak\n");
        assert!(out.used_builtins.contains(&BuiltinId::Div));
        assert!(out
            .warnings
            .iter()
            .any(|w| w.kind == WarningKind::ShiftAsDivision));
    }

    #[test]
    fn subword_access_rejected() {
        let p = parse_program(".data\nv: .word 0\n.text\nla a0, v\nlb a1, 0(a0)\n").unwrap();
        let analysis = analyze(&p).unwrap();
        let alloc = allocate(&p).unwrap();
        let e = Mapper::new(&alloc, &analysis, 256)
            .map_program(p.text())
            .unwrap_err();
        assert!(matches!(e, CompileError::SubWordAccess { .. }));
    }

    #[test]
    fn ebreak_becomes_jump_to_self() {
        let out = map("ebreak\n");
        let has_self_jump = out.items.windows(2).any(|w| {
            matches!(
                (&w[0].item, &w[1].item),
                (Item::Mark(a), Item::Jump { target: b, .. }) if a == b
            )
        });
        assert!(has_self_jump);
    }

    #[test]
    fn sp_prologue_emitted_when_used() {
        let out = map("addi sp, sp, -8\nsw ra, 4(sp)\nebreak\n");
        // First instruction materializes the TDM top into t2.
        let first_ins = out
            .items
            .iter()
            .find_map(|s| match &s.item {
                Item::Ins(ins) => Some(ins),
                _ => None,
            })
            .unwrap();
        assert!(
            matches!(first_ins, Instruction::Lui { a: TReg::T2, .. })
                || matches!(first_ins, Instruction::Sub { a: TReg::T2, .. }),
            "{first_ins}"
        );
    }
}
