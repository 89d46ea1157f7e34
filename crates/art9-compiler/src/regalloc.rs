//! Operand conversion, part 2: register renaming.
//!
//! The paper (§III-A): "the operand conversion step also supports the
//! register renaming when the given ternary ISA uses fewer
//! general-purposed registers than the baseline binary processor."
//! RV32 has 32 registers, the ART-9 TRF has nine. The renaming is:
//!
//! | RV32                  | ART-9                                  |
//! |-----------------------|----------------------------------------|
//! | `x0`/`zero`           | `t0` (kept 0 by software convention)   |
//! | `ra`                  | `t1`                                   |
//! | `sp`                  | `t2`                                   |
//! | 4 hottest others      | `t3`..`t6` (direct)                    |
//! | up to 8 more          | TDM spill slots (words 6..13)          |
//!
//! `t7` and `t8` are the translator's scratch registers (operand
//! staging, branch comparisons, builtin linkage), so they are never
//! allocated. Programs needing more than 12 renameable registers are
//! rejected — loudly, per the framework's no-silent-miscompile rule.

use std::cmp::Reverse;

use art9_isa::TReg;
use rv32::{Instr, Reg, Rv32Program};

use crate::error::CompileError;

/// TDM scratch words owned by builtin routines (register saves and
/// sign/temp flags).
pub const BUILTIN_SCRATCH: [i64; 5] = [0, 1, 2, 3, 4];
/// TDM scratch word where the mapper saves `t3` around builtin calls.
pub const CALL_SAVE_T3: i64 = 5;
/// TDM scratch word where the mapper saves `t4` around builtin calls.
pub const CALL_SAVE_T4: i64 = 6;
/// First TDM word used as a register spill slot.
pub const SPILL_BASE: i64 = 7;
/// Number of spill slots (words 7..=13; all reachable via `T0 + imm3`).
pub const SPILL_SLOTS: usize = 7;

/// Where an RV32 register lives on the ternary machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Loc {
    /// `x0`: reads become `t0` (zero by convention); writes are dropped.
    Zero,
    /// A directly mapped ternary register.
    Direct(TReg),
    /// A TDM word at `T0 + offset` (offset in 0..=13).
    Spill(i64),
}

/// The renaming decided for one program.
#[derive(Debug, Clone, Default)]
pub struct Allocation {
    /// `map[i]` is where `x<i>` lives, when it appeared in the program.
    map: [Option<Loc>; 32],
}

impl Allocation {
    /// The location of an RV32 register.
    ///
    /// # Panics
    ///
    /// Panics if the register never appeared in the analyzed program —
    /// callers only ask about registers the mapper encounters.
    pub fn loc(&self, reg: Reg) -> Loc {
        if reg.is_zero() {
            return Loc::Zero;
        }
        self.map[reg.index()].unwrap_or_else(|| panic!("register {reg} was not allocated"))
    }

    /// Iterates over the decided placements in ascending register
    /// order (for reports and tests).
    pub fn iter(&self) -> impl Iterator<Item = (Reg, Loc)> + '_ {
        self.map
            .iter()
            .enumerate()
            .filter_map(|(i, loc)| loc.map(|l| (Reg::from_index(i).expect("32 registers"), l)))
    }

    /// Number of directly mapped registers.
    pub fn direct_count(&self) -> usize {
        self.iter()
            .filter(|(_, l)| matches!(l, Loc::Direct(_)))
            .count()
    }

    /// Number of spilled registers.
    pub fn spill_count(&self) -> usize {
        self.iter()
            .filter(|(_, l)| matches!(l, Loc::Spill(_)))
            .count()
    }
}

/// Decides the renaming for `program`.
///
/// # Errors
///
/// [`CompileError::TooManyRegisters`] when the program uses more
/// renameable registers than direct + spill slots can hold.
pub fn allocate(program: &Rv32Program) -> Result<Allocation, CompileError> {
    // Usage frequency per register (reads + writes), excluding the
    // fixed-mapping registers.
    let mut usage = [0usize; 32];
    for i in program.text() {
        for r in i.reads().into_iter().flatten().chain(instr_dest(i)) {
            if !r.is_zero() && r != Reg::RA && r != Reg::SP {
                usage[r.index()] += 1;
            }
        }
    }

    // Hottest first; ties broken by register number for determinism.
    let mut by_heat: [(Reverse<usize>, usize); 32] =
        std::array::from_fn(|i| (Reverse(usage[i]), i));
    by_heat.sort_unstable();
    let used = by_heat.iter().take_while(|(Reverse(n), _)| *n > 0);

    let direct: [TReg; 4] = [TReg::T3, TReg::T4, TReg::T5, TReg::T6];
    let mut map = [None; 32];
    map[Reg::RA.index()] = Some(Loc::Direct(TReg::T1));
    map[Reg::SP.index()] = Some(Loc::Direct(TReg::T2));

    let mut overflow = Vec::new();
    for (k, &(_, reg)) in used.enumerate() {
        if k < direct.len() {
            map[reg] = Some(Loc::Direct(direct[k]));
        } else if k < direct.len() + SPILL_SLOTS {
            map[reg] = Some(Loc::Spill(SPILL_BASE + (k - direct.len()) as i64));
        } else {
            let reg = Reg::from_index(reg).expect("32 registers");
            overflow.push(reg.abi_name().to_string());
        }
    }
    if !overflow.is_empty() {
        return Err(CompileError::TooManyRegisters { overflow });
    }
    Ok(Allocation { map })
}

/// The raw destination register (including `x0`, unlike
/// [`Instr::writes`] which hides it) — usage counting wants the
/// syntactic operand.
fn instr_dest(i: &Instr) -> Option<Reg> {
    use Instr::*;
    match i {
        Lui { rd, .. }
        | Auipc { rd, .. }
        | Jal { rd, .. }
        | Jalr { rd, .. }
        | Load { rd, .. }
        | AluImm { rd, .. }
        | Alu { rd, .. }
        | MulDiv { rd, .. } => Some(*rd),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::parse_program;

    #[test]
    fn hot_registers_go_direct() {
        let p = parse_program(
            "
            li a0, 1
            li a1, 2
            add a0, a0, a1
            add a0, a0, a1
            add a0, a0, a1
            li t0, 9
            ebreak
            ",
        )
        .unwrap();
        let a = allocate(&p).unwrap();
        // a0 used most -> first direct reg (t3).
        assert_eq!(a.loc("a0".parse().unwrap()), Loc::Direct(TReg::T3));
        assert_eq!(a.loc("a1".parse().unwrap()), Loc::Direct(TReg::T4));
        // a0, a1, t0 direct plus the fixed ra/sp mappings.
        assert_eq!(a.direct_count(), 5);
    }

    #[test]
    fn fixed_mappings() {
        let p = parse_program("sw ra, 0(sp)\nebreak\n").unwrap();
        let a = allocate(&p).unwrap();
        assert_eq!(a.loc(Reg::RA), Loc::Direct(TReg::T1));
        assert_eq!(a.loc(Reg::SP), Loc::Direct(TReg::T2));
        assert_eq!(a.loc(Reg::ZERO), Loc::Zero);
    }

    #[test]
    fn overflow_spills_then_errors() {
        // 12 distinct working registers: 4 direct + 7 spill + 1 too many.
        let mut src = String::new();
        for (k, r) in [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5",
        ]
        .iter()
        .enumerate()
        {
            src.push_str(&format!("li {r}, {k}\n"));
        }
        src.push_str("ebreak\n");
        let p = parse_program(&src).unwrap();
        let e = allocate(&p).unwrap_err();
        assert!(
            matches!(e, CompileError::TooManyRegisters { ref overflow } if overflow.len() == 1)
        );
    }

    #[test]
    fn eleven_registers_fit() {
        let mut src = String::new();
        for (k, r) in [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4",
        ]
        .iter()
        .enumerate()
        {
            src.push_str(&format!("li {r}, {k}\n"));
        }
        src.push_str("ebreak\n");
        let p = parse_program(&src).unwrap();
        let a = allocate(&p).unwrap();
        assert_eq!(a.direct_count(), 4 + 2); // 4 hot + ra + sp
        assert_eq!(a.spill_count(), 7);
    }

    #[test]
    fn spill_slots_stay_in_imm3_window() {
        let mut src = String::new();
        for (k, r) in [
            "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4",
        ]
        .iter()
        .enumerate()
        {
            src.push_str(&format!("li {r}, {k}\n"));
        }
        src.push_str("ebreak\n");
        let p = parse_program(&src).unwrap();
        let a = allocate(&p).unwrap();
        for (_, loc) in a.iter() {
            if let Loc::Spill(s) = loc {
                assert!((0..=13).contains(&s), "slot {s} reachable via imm3");
            }
        }
    }
}
