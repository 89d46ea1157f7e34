//! Branch relaxation and label resolution — the framework's
//! "re-calculates the branch target addresses" step.
//!
//! Conditional branches reach ±40 instructions (imm4), JAL ±121
//! (imm5). The relaxer starts optimistic (everything short) and
//! monotonically promotes out-of-range control transfers to their long
//! forms until the layout stabilizes:
//!
//! * long jump: `LUI t8, hi; LI t8, lo; JALR link, t8, 0` (absolute);
//! * long branch: the condition is inverted to skip a long jump.
//!
//! Promotion is monotone, so the fixpoint exists and is reached in at
//! most `items` iterations.

use art9_isa::{Instruction, TReg};
use ternary::{Trits, Word9};

use crate::error::CompileError;
use crate::items::{Item, Label, Origin, Sourced};

/// Scratch register used by long forms (also the builtin link).
const SCRATCH: TReg = TReg::T8;

/// Resolved program: final instructions plus the label address map
/// and the per-instruction provenance.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The final instruction stream.
    pub text: Vec<Instruction>,
    /// Address of every label.
    pub addresses: LabelAddresses,
    /// `origins[a]` is the provenance of `text[a]` — every instruction
    /// a relaxed item expands to inherits that item's origin, so the
    /// map stays exact through short/long form selection.
    pub origins: Vec<Origin>,
}

/// Label addresses in dense tables: [`Label::Rv`] and [`Label::Local`]
/// by index, the builtins by id.
#[derive(Debug, Clone)]
pub struct LabelAddresses {
    rv: Vec<Option<usize>>,
    local: Vec<Option<usize>>,
    builtin: [Option<usize>; 3],
}

impl LabelAddresses {
    /// Tables sized for every label marked in `items`, all unplaced.
    fn for_items(items: &[Sourced]) -> Self {
        let (mut rv, mut local) = (0, 0);
        for sourced in items {
            match sourced.item {
                Item::Mark(Label::Rv(k)) => rv = rv.max(k + 1),
                Item::Mark(Label::Local(n)) => local = local.max(n as usize + 1),
                _ => {}
            }
        }
        LabelAddresses {
            rv: vec![None; rv],
            local: vec![None; local],
            builtin: [None; 3],
        }
    }

    fn slot(&mut self, label: Label) -> &mut Option<usize> {
        match label {
            Label::Rv(k) => &mut self.rv[k],
            Label::Local(n) => &mut self.local[n as usize],
            Label::Builtin(id) => &mut self.builtin[id as usize],
        }
    }

    /// The address of `label`, if it is marked.
    pub fn get(&self, label: Label) -> Option<usize> {
        match label {
            Label::Rv(k) => self.rv.get(k).copied().flatten(),
            Label::Local(n) => self.local.get(n as usize).copied().flatten(),
            Label::Builtin(id) => self.builtin[id as usize],
        }
    }

    /// The address of a branch or jump target.
    ///
    /// # Panics
    ///
    /// When no mark places `label` (a mapper bug).
    fn target(&self, label: Label) -> i64 {
        self.get(label)
            .unwrap_or_else(|| panic!("unresolved label {label:?}")) as i64
    }
}

/// Lengths chosen for each item in the current relaxation state.
fn item_len(item: &Item, long: bool) -> usize {
    match item {
        Item::Mark(_) => 0,
        Item::Ins(_) => 1,
        Item::Branch { .. } => {
            if long {
                4
            } else {
                1
            }
        }
        Item::Jump { .. } => {
            if long {
                3
            } else {
                1
            }
        }
        Item::LabelConst { .. } => 2,
    }
}

/// Relaxes and resolves the item stream into executable instructions.
///
/// # Errors
///
/// [`CompileError::RelaxationDiverged`] if the fixpoint is not reached
/// (cannot happen with monotone promotion; kept as a defensive bound).
pub fn resolve(items: &[Sourced]) -> Result<Resolved, CompileError> {
    let mut long = vec![false; items.len()];
    let mut addresses = LabelAddresses::for_items(items);
    let mut item_addr = vec![0; items.len()];

    for _round in 0..items.len().max(4) {
        // Lay out under the current length assignment.
        let mut addr = 0usize;
        for (i, sourced) in items.iter().enumerate() {
            item_addr[i] = addr;
            if let Item::Mark(l) = sourced.item {
                *addresses.slot(l) = Some(addr);
            }
            addr += item_len(&sourced.item, long[i]);
        }

        // Promote anything out of range.
        let mut changed = false;
        for (i, sourced) in items.iter().enumerate() {
            if long[i] {
                continue;
            }
            let (target, reach): (Label, i64) = match sourced.item {
                Item::Branch { target, .. } => (target, 40),
                Item::Jump { target, .. } => (target, 121),
                _ => continue,
            };
            let delta = addresses.target(target) - item_addr[i] as i64;
            if delta < -reach || delta > reach {
                long[i] = true;
                changed = true;
            }
        }

        if !changed {
            // Stable: emit.
            let (text, origins) = emit(items, &long, &addresses, &item_addr, addr);
            return Ok(Resolved {
                text,
                addresses,
                origins,
            });
        }
    }
    Err(CompileError::RelaxationDiverged)
}

/// Emits the `len` instructions of the final layout and their origins.
fn emit(
    items: &[Sourced],
    long: &[bool],
    addresses: &LabelAddresses,
    item_addr: &[usize],
    len: usize,
) -> (Vec<Instruction>, Vec<Origin>) {
    let mut text = Vec::with_capacity(len);
    let mut origins = Vec::with_capacity(len);
    for (i, sourced) in items.iter().enumerate() {
        let here = item_addr[i] as i64;
        match &sourced.item {
            Item::Mark(_) => {}
            Item::Ins(ins) => text.push(*ins),
            Item::LabelConst { reg, target } => {
                let addr = addresses.target(*target);
                let (hi, lo) = art9_isa::asm::split_hi_lo(addr);
                text.push(Instruction::Lui {
                    a: *reg,
                    imm: Trits::<4>::from_i64(hi).expect("address hi fits"),
                });
                text.push(Instruction::Li {
                    a: *reg,
                    imm: Trits::<5>::from_i64(lo).expect("address lo fits"),
                });
            }
            Item::Jump { link, target } => {
                let t = addresses.target(*target);
                if long[i] {
                    emit_long_jump(&mut text, *link, t);
                } else {
                    text.push(Instruction::Jal {
                        a: *link,
                        offset: Trits::<5>::from_i64(t - here).expect("short jump fits"),
                    });
                }
            }
            Item::Branch {
                eq,
                breg,
                cond,
                target,
            } => {
                let t = addresses.target(*target);
                if long[i] {
                    // Inverted branch skips the 3-instruction long jump.
                    let skip = Trits::<4>::from_i64(4).expect("4 fits imm4");
                    let inv = if *eq {
                        Instruction::Bne {
                            b: *breg,
                            cond: *cond,
                            offset: skip,
                        }
                    } else {
                        Instruction::Beq {
                            b: *breg,
                            cond: *cond,
                            offset: skip,
                        }
                    };
                    text.push(inv);
                    emit_long_jump(&mut text, SCRATCH, t);
                } else {
                    let offset = Trits::<4>::from_i64(t - here).expect("short branch fits");
                    let b = if *eq {
                        Instruction::Beq {
                            b: *breg,
                            cond: *cond,
                            offset,
                        }
                    } else {
                        Instruction::Bne {
                            b: *breg,
                            cond: *cond,
                            offset,
                        }
                    };
                    text.push(b);
                }
            }
        }
        // Every instruction the item expanded to inherits its origin.
        origins.resize(text.len(), sourced.origin);
    }
    (text, origins)
}

fn emit_long_jump(text: &mut Vec<Instruction>, link: TReg, target: i64) {
    debug_assert!((0..=Word9::MAX_VALUE).contains(&target));
    let (hi, lo) = art9_isa::asm::split_hi_lo(target);
    text.push(Instruction::Lui {
        a: SCRATCH,
        imm: Trits::<4>::from_i64(hi).expect("address hi fits"),
    });
    text.push(Instruction::Li {
        a: SCRATCH,
        imm: Trits::<5>::from_i64(lo).expect("address lo fits"),
    });
    text.push(Instruction::Jalr {
        a: link,
        b: SCRATCH,
        offset: Trits::ZERO,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::Label;
    use ternary::Trit;

    fn tag(item: Item) -> Sourced {
        Sourced::new(item, Origin::Rv(0))
    }

    fn nop() -> Sourced {
        tag(Item::Ins(art9_isa::NOP))
    }

    #[test]
    fn short_branch_resolves_directly() {
        let items = vec![
            tag(Item::Mark(Label::Rv(0))),
            nop(),
            tag(Item::Branch {
                eq: true,
                breg: TReg::T3,
                cond: Trit::Z,
                target: Label::Rv(0),
            }),
        ];
        let r = resolve(&items).unwrap();
        assert_eq!(r.text.len(), 2);
        match r.text[1] {
            Instruction::Beq { offset, .. } => assert_eq!(offset.to_i64(), -1),
            ref other => panic!("{other}"),
        }
    }

    #[test]
    fn far_branch_promotes_to_long_form() {
        let mut items = vec![tag(Item::Mark(Label::Rv(0)))];
        for _ in 0..100 {
            items.push(nop());
        }
        items.push(tag(Item::Branch {
            eq: true,
            breg: TReg::T3,
            cond: Trit::Z,
            target: Label::Rv(0),
        }));
        let r = resolve(&items).unwrap();
        // 100 nops + inverted branch + LUI/LI/JALR.
        assert_eq!(r.text.len(), 104);
        match r.text[100] {
            Instruction::Bne { offset, .. } => assert_eq!(offset.to_i64(), 4),
            ref other => panic!("expected inverted BNE, got {other}"),
        }
        assert!(matches!(r.text[103], Instruction::Jalr { .. }));
    }

    #[test]
    fn far_jump_promotes() {
        let mut items = vec![tag(Item::Mark(Label::Rv(0)))];
        for _ in 0..200 {
            items.push(nop());
        }
        items.push(tag(Item::Jump {
            link: TReg::T8,
            target: Label::Rv(0),
        }));
        let r = resolve(&items).unwrap();
        assert_eq!(r.text.len(), 203);
        // Long jump lands on address 0 via LUI 0 + LI 0 + JALR.
        match (r.text[200], r.text[201], r.text[202]) {
            (
                Instruction::Lui { imm, .. },
                Instruction::Li { imm: lo, .. },
                Instruction::Jalr { .. },
            ) => {
                assert_eq!(imm.to_i64() * 243 + lo.to_i64(), 0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn label_const_materializes_address() {
        let items = vec![
            nop(),
            tag(Item::LabelConst {
                reg: TReg::T8,
                target: Label::Rv(9),
            }),
            nop(),
            tag(Item::Mark(Label::Rv(9))),
            nop(),
        ];
        let r = resolve(&items).unwrap();
        // Addresses: nop=0, const=1..2, nop=3, mark at 4, nop=4.
        match (r.text[1], r.text[2]) {
            (Instruction::Lui { imm, .. }, Instruction::Li { imm: lo, .. }) => {
                assert_eq!(imm.to_i64() * 243 + lo.to_i64(), 4);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(r.addresses.get(Label::Rv(9)), Some(4));
    }

    #[test]
    fn growth_cascade_converges() {
        // A branch just at the edge: promoting one jump pushes another
        // out of range; relaxation must iterate.
        let mut items = vec![tag(Item::Mark(Label::Rv(0)))];
        for _ in 0..39 {
            items.push(nop());
        }
        items.push(tag(Item::Branch {
            eq: true,
            breg: TReg::T3,
            cond: Trit::Z,
            target: Label::Rv(0),
        }));
        items.push(tag(Item::Branch {
            eq: true,
            breg: TReg::T3,
            cond: Trit::Z,
            target: Label::Rv(0),
        }));
        let r = resolve(&items).unwrap();
        // First branch at 39 (fits: -39), second at 40 (fits exactly -40).
        assert_eq!(r.text.len(), 41);
    }
}
