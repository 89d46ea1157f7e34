//! The pipeline timing model must be architecturally invisible: on any
//! program, the cycle-accurate 5-stage core and the functional reference
//! produce identical final register files, data memories and retirement
//! counts. Programs here are randomly generated with forward-only
//! control flow (guaranteed termination) over the full ALU/memory/branch
//! repertoire.
//!
//! The functional and pipelined cores share one ALU, so agreeing with
//! each other does not check that ALU. Each program therefore also runs
//! on the per-trit [`ReferenceSim`](art9_sim::ReferenceSim), which
//! shares no execution code with them, and must end in the same state.

mod common;

use proptest::prelude::*;

use art9_isa::{Instruction, Program, TReg};
use art9_sim::{Core, FunctionalSim, RunSummary, SimBuilder};
use common::{imm, looped_program, BASE, BASE_ADDR};
use ternary::{Trit, Trits};

fn data_reg() -> impl Strategy<Value = TReg> {
    // Any register except the memory base.
    prop_oneof![
        Just(TReg::T0),
        Just(TReg::T1),
        Just(TReg::T3),
        Just(TReg::T4),
        Just(TReg::T5),
        Just(TReg::T6),
        Just(TReg::T7),
        Just(TReg::T8),
    ]
}

fn trit() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::N), Just(Trit::Z), Just(Trit::P)]
}

/// A non-control, non-base-clobbering instruction.
fn straightline() -> impl Strategy<Value = Instruction> {
    use Instruction::*;
    prop_oneof![
        (data_reg(), data_reg()).prop_map(|(a, b)| Mv { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Pti { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Nti { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Sti { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| And { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Or { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Xor { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Add { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Sub { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Sr { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Sl { a, b }),
        (data_reg(), data_reg()).prop_map(|(a, b)| Comp { a, b }),
        (data_reg(), imm::<3>()).prop_map(|(a, imm)| Andi { a, imm }),
        (data_reg(), imm::<3>()).prop_map(|(a, imm)| Addi { a, imm }),
        (data_reg(), imm::<2>()).prop_map(|(a, imm)| Sri { a, imm }),
        (data_reg(), imm::<2>()).prop_map(|(a, imm)| Sli { a, imm }),
        (data_reg(), imm::<4>()).prop_map(|(a, imm)| Lui { a, imm }),
        (data_reg(), imm::<5>()).prop_map(|(a, imm)| Li { a, imm }),
        (data_reg(), imm::<3>()).prop_map(|(a, offset)| Load { a, b: BASE, offset }),
        (data_reg(), imm::<3>()).prop_map(|(a, offset)| Store { a, b: BASE, offset }),
    ]
}

/// A whole program: prologue loading BASE, then a random body where
/// every control transfer jumps strictly forward (1..=4 instructions).
fn program() -> impl Strategy<Value = Program> {
    let body = proptest::collection::vec(
        prop_oneof![
            4 => straightline().prop_map(|i| (i, 0usize)),
            1 => (data_reg(), trit(), 1usize..=4).prop_map(|(b, cond, skip)| {
                (Instruction::Beq { b, cond, offset: Trits::ZERO }, skip)
            }),
            1 => (data_reg(), trit(), 1usize..=4).prop_map(|(b, cond, skip)| {
                (Instruction::Bne { b, cond, offset: Trits::ZERO }, skip)
            }),
            1 => (data_reg(), 1usize..=4).prop_map(|(a, skip)| {
                (Instruction::Jal { a, offset: Trits::ZERO }, skip)
            }),
        ],
        1..60,
    );
    body.prop_map(|items| {
        use Instruction::*;
        // Prologue: BASE = BASE_ADDR (hi/lo split), without touching
        // other registers.
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
        ];
        let n = items.len();
        for (idx, (instr, skip)) in items.into_iter().enumerate() {
            let fixed = match instr {
                Beq { b, cond, .. } => {
                    let off = (skip.min(n - idx)) as i64;
                    Beq {
                        b,
                        cond,
                        offset: Trits::<4>::from_i64(off).expect("small"),
                    }
                }
                Bne { b, cond, .. } => {
                    let off = (skip.min(n - idx)) as i64;
                    Bne {
                        b,
                        cond,
                        offset: Trits::<4>::from_i64(off).expect("small"),
                    }
                }
                Jal { a, .. } => {
                    let off = (skip.min(n - idx)).max(1) as i64;
                    Jal {
                        a,
                        offset: Trits::<5>::from_i64(off).expect("small"),
                    }
                }
                other => other,
            };
            text.push(fixed);
        }
        Program::from_instructions(text)
    })
}

/// Runs `builder`'s program on the reference backend and checks it ends
/// where the functional run `f` (summary `fr`) did: same TRF, TDM and
/// retired count.
fn reference_agrees(builder: &SimBuilder, f: &FunctionalSim, fr: &RunSummary) {
    let mut r = builder.build_reference();
    let rr = r.run(1_000_000).expect("reference run completes");
    prop_assert_eq!(
        r.state().trf,
        f.state().trf,
        "reference register files diverge"
    );
    prop_assert!(
        r.state().tdm.iter().eq(f.state().tdm.iter()),
        "reference data memories diverge"
    );
    prop_assert_eq!(
        rr.retired,
        fr.retired,
        "reference retirement counts diverge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn looped_pipeline_matches_functional(p in looped_program()) {
        let builder = SimBuilder::new(&p);
        let mut f = builder.build_functional();
        let fr = f.run(1_000_000).expect("functional run completes");
        let mut pipe = builder.build_pipelined();
        pipe.run(1_000_000).expect("pipelined run completes");
        let stats = pipe.pipeline_stats().expect("pipelined backend");
        prop_assert_eq!(pipe.state().trf, f.state().trf, "register files diverge");
        prop_assert!(pipe.state().tdm.iter().eq(f.state().tdm.iter()));
        prop_assert_eq!(stats.instructions, fr.retired);
        reference_agrees(&builder, &f, &fr);
    }

    #[test]
    fn looped_no_forwarding_still_architecturally_equal(p in looped_program()) {
        let builder = SimBuilder::new(&p);
        let mut f = builder.build_functional();
        f.run(1_000_000).expect("functional run completes");
        let mut pipe = builder.clone().forwarding(false).build_pipelined();
        pipe.run(2_000_000).expect("no-forwarding run completes");
        let stats = pipe.pipeline_stats().expect("pipelined backend");
        prop_assert_eq!(pipe.state().trf, f.state().trf, "no-fwd diverges");
        prop_assert!(stats.cycles >= stats.instructions + 4);
    }

    #[test]
    fn pipeline_matches_functional(p in program()) {
        let builder = SimBuilder::new(&p);
        let mut f = builder.build_functional();
        let fr = f.run(1_000_000).expect("functional run completes");

        let mut pipe = builder.build_pipelined();
        pipe.run(1_000_000).expect("pipelined run completes");
        let stats = pipe.pipeline_stats().expect("pipelined backend");

        prop_assert_eq!(pipe.state().trf, f.state().trf, "register files diverge");
        prop_assert!(
            pipe.state().tdm.iter().eq(f.state().tdm.iter()),
            "data memories diverge"
        );
        prop_assert_eq!(stats.instructions, fr.retired, "retirement counts diverge");
        reference_agrees(&builder, &f, &fr);
        // Timing sanity: a 5-stage pipe needs at least instret + 4 cycles,
        // and every cycle is either a retirement, a fill slot, or an
        // accounted stall/bubble.
        prop_assert!(stats.cycles >= stats.instructions + 4);
        prop_assert!(
            stats.cycles <= stats.instructions + 4 + stats.lost_cycles() + 1,
            "cycles {} not explained by instret {} + stalls {}",
            stats.cycles, stats.instructions, stats.lost_cycles()
        );
    }
}
