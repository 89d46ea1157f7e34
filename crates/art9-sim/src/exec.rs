//! Shared instruction semantics over pre-resolved per-PC rows.
//!
//! [`PredecodedProgram`](crate::PredecodedProgram) resolves every
//! instruction once into a [`Row`]: its dense opcode, register indices,
//! branch condition, one pre-resolved word and one integer. The
//! pipelined core's EX and ID stages then execute through the two
//! functions here, [`alu`] and [`target`]. The functional core's one
//! dispatch calls the same [`alu`] for its ALU arms and writes out
//! [`target`]'s four cases in its control arms, with the JALR target
//! and the LOAD/STORE address from the shared [`base_plus_offset`]. So
//! the two cores cannot drift apart, and neither re-walks the
//! `Instruction` enum or re-converts an immediate per step. The
//! pipeline ≡ functional property tests check the *timing* model; the
//! per-trit [`ReferenceSim`](crate::ReferenceSim), which shares none of
//! this, checks the semantics.

use art9_isa::{Instruction, TReg};
use ternary::{Trit, Trits, Word9};

/// Applies a shift with the balanced 2-trit amount semantics: magnitude
/// |v| in the direction of the operation for `v ≥ 0`, reversed for
/// `v < 0` (DESIGN.md §3.2).
///
/// # Examples
///
/// ```
/// use art9_sim::shift;
/// use ternary::{Trits, Word9};
///
/// let x = Word9::from_i64(10)?;
/// let amt = Trits::<2>::from_i64(2)?;
/// assert_eq!(shift(x, false, amt).to_i64(), 1);  // SR by 2: round(10/9)
/// assert_eq!(shift(x, true, amt).to_i64(), 90);  // SL by 2: x * 9
/// let neg = Trits::<2>::from_i64(-1)?;
/// assert_eq!(shift(x, false, neg).to_i64(), 30); // SR by -1 == SL by 1
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn shift(value: Word9, base_left: bool, amount: Trits<2>) -> Word9 {
    shift_by(value, base_left, amount.to_i64())
}

/// [`shift`] by an amount already converted to an integer.
#[inline]
fn shift_by(value: Word9, base_left: bool, amount: i64) -> Word9 {
    let k = amount.unsigned_abs() as usize;
    if base_left == (amount >= 0) {
        value.shl(k)
    } else {
        value.shr(k)
    }
}

/// Wraps the integer sum of two 9-trit values back into the balanced
/// word range, exactly as `Word9::wrapping_add` does.
#[inline]
pub(crate) fn wrap9(v: i64) -> i64 {
    if v > Word9::MAX_VALUE {
        v - Word9::MODULUS
    } else if v < -Word9::MAX_VALUE {
        v + Word9::MODULUS
    } else {
        v
    }
}

/// `b + offset` for the JALR or LOAD/STORE in `row`, wrapped like
/// `b.wrapping_add(row.imm)`: the jump target or the effective TDM
/// address, computed in integers with no ternary carry chain.
#[inline(always)]
pub(crate) fn base_plus_offset(row: &Row, b: Word9) -> i64 {
    wrap9(b.to_i64() + i64::from(row.off))
}

/// The dense opcode of an instruction, in [`Instruction::opcode`] order
/// (`Opcode::X as usize == instr.opcode()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opcode {
    Mv,
    Pti,
    Nti,
    Sti,
    And,
    Or,
    Xor,
    Add,
    Sub,
    Sr,
    Sl,
    Comp,
    Andi,
    Addi,
    Sri,
    Sli,
    Lui,
    Li,
    Beq,
    Bne,
    Jal,
    Jalr,
    Load,
    Store,
}

/// [`Opcode`] by [`Instruction::opcode`].
pub(crate) const OPCODES: [Opcode; Instruction::OPCODE_COUNT] = {
    use Opcode::*;
    [
        Mv, Pti, Nti, Sti, And, Or, Xor, Add, Sub, Sr, Sl, Comp, Andi, Addi, Sri, Sli, Lui, Li,
        Beq, Bne, Jal, Jalr, Load, Store,
    ]
};

/// [`Row::dest`] of an instruction that writes no register.
pub(crate) const NO_DEST: u8 = 9;
/// [`Row::src`] of an unused source slot. It differs from [`NO_DEST`],
/// so an empty slot never matches an empty destination and the
/// pipeline's hazard comparisons need no `Option`.
pub(crate) const NO_SRC: u8 = 10;

/// One instruction resolved for execution: everything [`alu`],
/// [`target`] and the pipeline's hazard unit read about the TIM word at
/// one PC. [`PredecodedProgram`](crate::PredecodedProgram) holds one
/// row per PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    /// The resized ANDI/ADDI immediate, the LOAD/STORE offset word, the
    /// spliced LUI/LI constant, or the JAL/JALR link word (`PC + 1`).
    pub(crate) imm: Word9,
    /// The absolute BEQ/BNE/JAL target, the JALR/LOAD/STORE offset, or
    /// the signed SRI/SLI amount.
    pub(crate) off: i32,
    pub(crate) op: Opcode,
    /// `Ta` register index (written or read), 0 when there is none.
    pub(crate) a: u8,
    /// `Tb` register index, 0 when there is none.
    pub(crate) b: u8,
    /// The BEQ/BNE condition trit.
    pub(crate) cond: Trit,
    /// Index of the register written, or [`NO_DEST`].
    pub(crate) dest: u8,
    /// `[Ta, Tb]` source slots ([`Instruction::sources`]): register
    /// indices, or [`NO_SRC`].
    pub(crate) src: [u8; 2],
}

impl Row {
    /// The row of `instr` at address `pc`. (Inlined: the threaded
    /// compiler copies most of it straight into a slot.)
    #[inline(always)]
    pub(crate) fn of(instr: &Instruction, pc: usize) -> Self {
        use Instruction::*;
        let index = |reg: Option<TReg>, none| reg.map_or(none, |r| r.index() as u8);
        let [ta, tb] = instr.sources();
        let dest = instr.writes();
        let mut row = Row {
            imm: Word9::ZERO,
            off: 0,
            op: OPCODES[instr.opcode()],
            a: index(dest.or(ta), 0),
            b: index(tb, 0),
            cond: Trit::Z,
            dest: index(dest, NO_DEST),
            src: [index(ta, NO_SRC), index(tb, NO_SRC)],
        };
        let pc = pc as i32;
        let link = || Word9::from_i64_wrapping(i64::from(pc) + 1);
        match *instr {
            Andi { imm, .. } | Addi { imm, .. } => row.imm = imm.resize(),
            Sri { imm, .. } | Sli { imm, .. } => row.off = imm.to_i64() as i32,
            Lui { imm, .. } => row.imm = Word9::ZERO.with_field::<4>(5, imm),
            Li { imm, .. } => row.imm = Word9::ZERO.with_field::<5>(0, imm),
            Beq { cond, offset, .. } | Bne { cond, offset, .. } => {
                (row.cond, row.off) = (cond, pc + offset.to_i64() as i32)
            }
            Jal { offset, .. } => (row.imm, row.off) = (link(), pc + offset.to_i64() as i32),
            Jalr { offset, .. } => (row.imm, row.off) = (link(), offset.to_i64() as i32),
            Load { offset, .. } | Store { offset, .. } => {
                (row.imm, row.off) = (offset.resize(), offset.to_i64() as i32)
            }
            _ => {}
        }
        row
    }

    /// `true` for the B-type instructions (branches and jumps).
    #[inline]
    pub(crate) fn is_control(&self) -> bool {
        matches!(
            self.op,
            Opcode::Beq | Opcode::Bne | Opcode::Jal | Opcode::Jalr
        )
    }
}

/// The ternary ALU: the EX-stage result of the instruction in `row`,
/// given `a` read from `TRF[Ta]` and `b` from `TRF[Tb]` (either may be
/// anything when the instruction does not read it).
///
/// For LOAD/STORE the result is the effective address `b + offset`
/// (a STORE's datum is `a`); for JAL/JALR it is the link `PC + 1`; for
/// branches it is unused (zero).
#[inline(always)]
pub(crate) fn alu(row: &Row, a: Word9, b: Word9) -> Word9 {
    use Opcode::*;
    match row.op {
        Mv => b,
        Pti => b.pti(),
        Nti => b.nti(),
        Sti => b.sti(),
        And => a.and(b),
        Or => a.or(b),
        Xor => a.xor(b),
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Sr => shift(a, false, b.field::<2>(0)),
        Sl => shift(a, true, b.field::<2>(0)),
        Comp => a.compare(b),
        Andi => a.and(row.imm),
        Addi => a.wrapping_add(row.imm),
        Sri => shift_by(a, false, i64::from(row.off)),
        Sli => shift_by(a, true, i64::from(row.off)),
        Lui | Jal | Jalr => row.imm,
        // LI: {TRF[Ta][8:5], imm[4:0]} — upper trits of the old value kept.
        Li => a.with_field::<5>(0, row.imm.field::<5>(0)),
        Beq | Bne => Word9::ZERO,
        Load | Store => b.wrapping_add(row.imm),
    }
}

/// The next PC of the control transfer in `row`, given `b` read from
/// `TRF[Tb]` (the branch condition register, or JALR's base): BEQ is
/// taken iff `b`'s LST equals the condition trit, BNE iff it differs
/// (paper §IV-A). `None` for a non-control instruction or a branch not
/// taken. The target is not range-checked.
#[inline(always)]
pub(crate) fn target(row: &Row, b: Word9) -> Option<i64> {
    match row.op {
        Opcode::Beq => (b.lst() == row.cond).then_some(i64::from(row.off)),
        Opcode::Bne => (b.lst() != row.cond).then_some(i64::from(row.off)),
        Opcode::Jal => Some(i64::from(row.off)),
        Opcode::Jalr => Some(base_plus_offset(row, b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::assemble;

    fn w(v: i64) -> Word9 {
        Word9::from_i64(v).unwrap()
    }

    /// The row of the single instruction `src` at address `pc`.
    fn row(src: &str, pc: usize) -> Row {
        Row::of(&assemble(src).unwrap().text()[0], pc)
    }

    #[test]
    fn opcodes_follow_the_dense_index() {
        for (i, op) in OPCODES.iter().enumerate() {
            assert_eq!(*op as usize, i);
            let name = format!("{op:?}").to_uppercase();
            assert_eq!(name, Instruction::MNEMONICS[i]);
        }
    }

    #[test]
    fn alu_arithmetic() {
        assert_eq!(alu(&row("ADD t3, t4", 0), w(100), w(-30)).to_i64(), 70);
        assert_eq!(alu(&row("SUB t3, t4", 0), w(100), w(-30)).to_i64(), 130);
    }

    #[test]
    fn alu_single_source_ops_use_b() {
        assert_eq!(alu(&row("MV t3, t4", 0), w(1), w(2)).to_i64(), 2);
        assert_eq!(alu(&row("STI t3, t4", 0), w(1), w(2)).to_i64(), -2);
    }

    #[test]
    fn lui_li_compose_full_constants() {
        // Build 1000: hi/lo split then LUI+LI.
        let (hi, lo) = art9_isa::asm::split_hi_lo(1000);
        let upper = alu(&row(&format!("LUI t3, {hi}"), 0), w(5), w(7));
        assert_eq!(upper.to_i64(), hi * 243);
        let full = alu(&row(&format!("LI t3, {lo}"), 0), upper, Word9::ZERO);
        assert_eq!(full.to_i64(), 1000);
    }

    #[test]
    fn li_preserves_upper_trits() {
        let old = w(40 * 243); // upper trits only
        let li = row("LI t3, -121", 0);
        assert_eq!(alu(&li, old, Word9::ZERO).to_i64(), 40 * 243 - 121);
    }

    #[test]
    fn shift_amount_field_comes_from_low_two_trits() {
        // b = 11 = 9 + 3 - 1: its low two trits read -1 + 3 = 2.
        assert_eq!(alu(&row("SL t3, t4", 0), w(5), w(11)).to_i64(), 45);
    }

    #[test]
    fn negative_shift_reverses_direction() {
        let amt = Trits::<2>::from_i64(-2).unwrap();
        assert_eq!(shift(w(5), true, amt).to_i64(), 1); // SL by -2 = SR by 2
        assert_eq!(shift(w(5), false, amt).to_i64(), 45); // SR by -2 = SL by 2
        assert_eq!(alu(&row("SLI t3, -2", 0), w(5), w(0)).to_i64(), 1);
        assert_eq!(alu(&row("SRI t3, -2", 0), w(5), w(0)).to_i64(), 45);
    }

    #[test]
    fn branch_conditions() {
        let beq = row("BEQ t3, +, 0", 4);
        assert_eq!(target(&beq, w(1)), Some(4));
        assert_eq!(target(&beq, w(0)), None);
        let bne = row("BNE t3, +, 0", 4);
        assert_eq!(target(&bne, w(1)), None);
        assert_eq!(target(&bne, w(-1)), Some(4));
    }

    #[test]
    fn control_targets() {
        assert_eq!(target(&row("JAL t1, -3", 10), Word9::ZERO), Some(7));
        assert_eq!(target(&row("JALR t1, t2, 2", 10), w(100)), Some(102));
        // JALR wraps like `Word9::wrapping_add`.
        assert_eq!(target(&row("JALR t1, t2, 1", 10), w(9841)), Some(-9841));
        let beq = row("BEQ t3, 0, 5", 10);
        assert_eq!(target(&beq, Word9::ZERO), Some(15));
        assert_eq!(target(&beq, w(1)), None);
        assert_eq!(target(&row("ADD t3, t4", 10), Word9::ZERO), None);
    }

    #[test]
    fn jal_link_value_passes_through_alu() {
        assert_eq!(alu(&row("JAL t1, 0", 10), w(3), w(4)).to_i64(), 11);
        assert_eq!(alu(&row("JALR t1, t2, 0", 10), w(3), w(4)).to_i64(), 11);
    }

    #[test]
    fn memory_ops_produce_their_effective_address() {
        assert_eq!(alu(&row("LOAD t3, t2, -4", 0), w(3), w(9)).to_i64(), 5);
        assert_eq!(alu(&row("STORE t3, t2, 4", 0), w(3), w(9)).to_i64(), 13);
    }

    #[test]
    fn integer_effective_address_matches_the_ternary_resolve() {
        // Every 9-trit base with every LOAD/STORE offset, against the
        // default TDM: in range, negative, past the end and wrapped past
        // ±9841 alike, fault payload included.
        let tdm = ternary::TernaryMemory::new(crate::DEFAULT_TDM_WORDS);
        for op in ["LOAD", "STORE"] {
            for off in -13..=13 {
                let row = row(&format!("{op} t3, t2, {off}"), 0);
                for base in -Word9::MAX_VALUE..=Word9::MAX_VALUE {
                    let b = w(base);
                    assert_eq!(
                        tdm.index_of(base_plus_offset(&row, b)),
                        tdm.resolve(b.wrapping_add(row.imm)),
                        "{op} base {base} offset {off}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_carry_the_hazard_slots() {
        let store = row("STORE t3, t2, 1", 0);
        assert_eq!((store.dest, store.src), (NO_DEST, [3, 2]));
        let lui = row("LUI t5, 1", 0);
        assert_eq!((lui.dest, lui.src), (5, [NO_SRC, NO_SRC]));
        let jalr = row("JALR t1, t2, 0", 0);
        assert_eq!((jalr.a, jalr.dest, jalr.src), (1, 1, [NO_SRC, 2]));
        assert!(jalr.is_control() && !store.is_control());
    }
}
