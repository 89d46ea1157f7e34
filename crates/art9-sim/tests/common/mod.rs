//! Program strategies shared by the property tests: the integration
//! suites include this file as `mod common;`, and the crate's own unit
//! tests include it through a `#[path]` module.

use proptest::prelude::*;

use art9_isa::{Instruction, Program, TReg};
use ternary::Trits;

/// Base register kept stable for memory addressing.
pub const BASE: TReg = TReg::T2;
/// The address preloaded into BASE (mid-TDM, so ±13 offsets stay valid).
pub const BASE_ADDR: i64 = 100;

/// Any `N`-trit immediate.
pub fn imm<const N: usize>() -> impl Strategy<Value = Trits<N>> {
    let max = (ternary::pow3(N) - 1) / 2;
    (-max..=max).prop_map(|v| Trits::<N>::from_i64(v).expect("in range"))
}

/// A counted loop of 2–6 iterations around a random ALU/memory body of
/// 1–24 ops. The counter (t1), the guard scratch (t7), the zero
/// register (t0) and the memory base are excluded from the body's
/// register set, so termination is structural. Backward branches,
/// repeated forwarding chains, loads and stores, and taken and untaken
/// branches are covered this way.
pub fn looped_program() -> impl Strategy<Value = Program> {
    use Instruction::*;
    let body_reg = || {
        prop_oneof![
            Just(TReg::T3),
            Just(TReg::T4),
            Just(TReg::T5),
            Just(TReg::T6),
        ]
    };
    let body_op = prop_oneof![
        (body_reg(), body_reg()).prop_map(|(a, b)| Mv { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Add { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Sub { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Comp { a, b }),
        (body_reg(), body_reg()).prop_map(|(a, b)| Xor { a, b }),
        (body_reg(), imm::<3>()).prop_map(|(a, imm)| Addi { a, imm }),
        (body_reg(), imm::<5>()).prop_map(|(a, imm)| Li { a, imm }),
        (body_reg(), imm::<3>()).prop_map(|(a, offset)| Load { a, b: BASE, offset }),
        (body_reg(), imm::<3>()).prop_map(|(a, offset)| Store { a, b: BASE, offset }),
    ];
    (proptest::collection::vec(body_op, 1..25), 2i64..=6).prop_map(|(body, iters)| {
        let (hi, lo) = art9_isa::asm::split_hi_lo(BASE_ADDR);
        let mut text = vec![
            Lui {
                a: BASE,
                imm: Trits::<4>::from_i64(hi).expect("fits"),
            },
            Li {
                a: BASE,
                imm: Trits::<5>::from_i64(lo).expect("fits"),
            },
            Li {
                a: TReg::T1,
                imm: Trits::<5>::from_i64(iters).expect("fits"),
            },
        ];
        let body_len = body.len() as i64;
        text.extend(body);
        // Guard: t1 -= 1; t7 = sign(t1); loop while positive.
        text.push(Addi {
            a: TReg::T1,
            imm: Trits::<3>::from_i64(-1).expect("fits"),
        });
        text.push(Mv {
            a: TReg::T7,
            b: TReg::T1,
        });
        text.push(Comp {
            a: TReg::T7,
            b: TReg::T0,
        });
        text.push(Beq {
            b: TReg::T7,
            cond: ternary::Trit::P,
            offset: Trits::<4>::from_i64(-(body_len + 3)).expect("<= 27 fits imm4"),
        });
        Program::from_instructions(text)
    })
}
