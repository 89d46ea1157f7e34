//! Redundancy checking (paper Fig. 2, final stage): removes the
//! meaningless instructions the mechanical mapping leaves behind, so
//! the final code size is minimized. Branch targets stay symbolic here,
//! so deletions can never break control flow — re-resolution happens in
//! the relaxation pass afterwards ("the proposed framework also
//! re-calculates the branch target addresses").
//!
//! Items arrive [`Sourced`] (tagged with their RV32 origin) and keep
//! their tags: deleting an item deletes its tag with it, so the
//! provenance map stays aligned through this pass.

use art9_isa::Instruction;

use crate::items::{Item, Sourced};

/// Runs the peephole pass; returns the number of items removed.
///
/// Patterns removed (each is a real artifact of the mapper):
///
/// 1. `MV x, x` — self-moves from staging a register already in place;
/// 2. `ADDI x, 0` — vacuous adds from zero-stride pointer bumps;
/// 3. a `LOAD r, b, k` immediately after `STORE r, b, k` — spill
///    round-trips where the value is still live in `r`;
/// 4. duplicated adjacent `MV a, b; MV a, b`;
/// 5. `MV a, b; MV b, a` — the second move is a no-op.
///
/// Marks are transparent for pattern 3–5 only when no label sits
/// between the paired instructions (a label is a potential join point).
pub fn eliminate(items: &mut Vec<Sourced>) -> usize {
    let before = items.len();
    // The last kept item, when it is a plain instruction. Each item is
    // checked against its kept predecessor, so one pass leaves no
    // redundant pair behind.
    let mut prev: Option<Instruction> = None;
    items.retain(|sourced| {
        let Item::Ins(cur) = sourced.item else {
            prev = None;
            return true;
        };
        if redundant_alone(&cur) || prev.is_some_and(|p| redundant_after(&p, &cur)) {
            return false;
        }
        prev = Some(cur);
        true
    });
    before - items.len()
}

/// Pattern 1 & 2: locally dead single instructions.
fn redundant_alone(i: &Instruction) -> bool {
    match i {
        Instruction::Mv { a, b } => a == b,
        // Keep canonical NOPs (ADDI t0, 0) — drop only accidental
        // vacuous adds on other registers.
        Instruction::Addi { imm, a } => imm.is_zero() && *a != art9_isa::TReg::T0,
        _ => false,
    }
}

/// Patterns 3–5: `cur` undoes or repeats the instruction kept just
/// before it.
fn redundant_after(prev: &Instruction, cur: &Instruction) -> bool {
    match (prev, cur) {
        // store r -> slot ; load r <- slot
        (
            Instruction::Store {
                a: sa,
                b: sb,
                offset: so,
            },
            Instruction::Load {
                a: la,
                b: lb,
                offset: lo,
            },
        ) => sa == la && sb == lb && so == lo,
        // mv a,b ; mv a,b   /   mv a,b ; mv b,a
        (Instruction::Mv { a: pa, b: pb }, Instruction::Mv { a: ca, b: cb }) => {
            (pa == ca && pb == cb) || (pa == cb && pb == ca)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::{Label, Origin};
    use art9_isa::{Instruction, TReg};
    use ternary::Trits;

    fn tag(item: Item) -> Sourced {
        Sourced::new(item, Origin::Rv(0))
    }

    fn mv(a: TReg, b: TReg) -> Sourced {
        tag(Item::Ins(Instruction::Mv { a, b }))
    }

    fn store(a: TReg, s: i64) -> Sourced {
        tag(Item::Ins(Instruction::Store {
            a,
            b: TReg::T0,
            offset: Trits::<3>::from_i64(s).unwrap(),
        }))
    }

    fn load(a: TReg, s: i64) -> Sourced {
        tag(Item::Ins(Instruction::Load {
            a,
            b: TReg::T0,
            offset: Trits::<3>::from_i64(s).unwrap(),
        }))
    }

    #[test]
    fn removes_self_moves() {
        let mut items = vec![mv(TReg::T3, TReg::T3), mv(TReg::T3, TReg::T4)];
        assert_eq!(eliminate(&mut items), 1);
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn removes_spill_roundtrip() {
        let mut items = vec![store(TReg::T5, 7), load(TReg::T5, 7)];
        assert_eq!(eliminate(&mut items), 1);
        assert!(matches!(
            items[0].item,
            Item::Ins(Instruction::Store { .. })
        ));
    }

    #[test]
    fn keeps_load_of_different_register_or_slot() {
        let mut items = vec![store(TReg::T5, 7), load(TReg::T6, 7)];
        assert_eq!(eliminate(&mut items), 0);
        let mut items = vec![store(TReg::T5, 7), load(TReg::T5, 8)];
        assert_eq!(eliminate(&mut items), 0);
    }

    #[test]
    fn mark_blocks_pairwise_elimination() {
        // A label between the pair is a join point: the load must stay.
        let mut items = vec![
            store(TReg::T5, 7),
            tag(Item::Mark(Label::Local(0))),
            load(TReg::T5, 7),
        ];
        assert_eq!(eliminate(&mut items), 0);
    }

    #[test]
    fn removes_mv_back_and_forth() {
        let mut items = vec![mv(TReg::T3, TReg::T4), mv(TReg::T4, TReg::T3)];
        assert_eq!(eliminate(&mut items), 1);
    }

    #[test]
    fn keeps_canonical_nop_drops_vacuous_addi() {
        let nop = tag(Item::Ins(art9_isa::NOP));
        let vacuous = tag(Item::Ins(Instruction::Addi {
            a: TReg::T5,
            imm: Trits::ZERO,
        }));
        let mut items = vec![nop.clone(), vacuous];
        assert_eq!(eliminate(&mut items), 1);
        assert_eq!(items, vec![nop]);
    }

    #[test]
    fn iterates_to_fixpoint() {
        // mv t3,t3 ; store/load pair around it: the load meets the
        // store once the self-move is gone, in the same pass.
        let mut items = vec![
            store(TReg::T5, 7),
            mv(TReg::T3, TReg::T3),
            load(TReg::T5, 7),
        ];
        assert_eq!(eliminate(&mut items), 2);
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn provenance_tags_survive_elimination() {
        // Items keep their origins; only the deleted item's tag is gone.
        let mut items = vec![
            Sourced::new(
                Item::Ins(Instruction::Mv {
                    a: TReg::T3,
                    b: TReg::T4,
                }),
                Origin::Rv(2),
            ),
            Sourced::new(
                Item::Ins(Instruction::Mv {
                    a: TReg::T5,
                    b: TReg::T5,
                }),
                Origin::Rv(3),
            ),
            Sourced::new(
                Item::Ins(Instruction::Add {
                    a: TReg::T3,
                    b: TReg::T4,
                }),
                Origin::Rv(4),
            ),
        ];
        assert_eq!(eliminate(&mut items), 1);
        assert_eq!(
            items.iter().map(|s| s.origin).collect::<Vec<_>>(),
            vec![Origin::Rv(2), Origin::Rv(4)]
        );
    }
}
