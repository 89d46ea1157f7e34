//! Register-pressure property test: programs touching 11 renameable
//! registers force the 32→9 renamer to use every TDM spill slot, and
//! `Translation::read_rv_reg` must still read correct values **at
//! every RV32 instruction boundary** — not just at halt. The
//! cross-ISA lockstep harness ([`CoSim`]) provides exactly that check:
//! it compares all allocated registers (spill slots included) against
//! the `rv32` machine after every retired source instruction.

use proptest::prelude::*;

use art9_compiler::{translate_with_tdm, RegisterLocation};
use art9_fuzz::{CoSim, OracleStats, COSIM_TDM_WORDS};
use art9_sim::SimBuilder;
use rv32::parse_program;

/// Eleven renameable registers: 4 go direct (t3..t6), 7 spill — the
/// renamer's full capacity.
const REGS: [&str; 11] = [
    "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "s2", "s3", "s4",
];

#[derive(Debug, Clone)]
enum Op {
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    AddI(u8, u8, i32),
    Slt(u8, u8, u8),
    Mv(u8, u8),
}

fn op() -> impl Strategy<Value = Op> {
    let r = 0u8..11;
    prop_oneof![
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Sub(a, b, c)),
        (r.clone(), r.clone(), -13i32..=13).prop_map(|(a, b, i)| Op::AddI(a, b, i)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Slt(a, b, c)),
        (r.clone(), r).prop_map(|(a, b)| Op::Mv(a, b)),
    ]
}

fn program() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(-100i32..=100, 11),
        proptest::collection::vec(op(), 1..12),
    )
        .prop_map(|(init, ops)| {
            let mut src = String::new();
            // Touch all 11 registers so every spill slot is in play.
            for (r, v) in REGS.iter().zip(&init) {
                src.push_str(&format!("li {r}, {v}\n"));
            }
            for o in &ops {
                let r = |i: &u8| REGS[*i as usize];
                match o {
                    Op::Add(a, b, c) => {
                        src.push_str(&format!("add {}, {}, {}\n", r(a), r(b), r(c)))
                    }
                    Op::Sub(a, b, c) => {
                        src.push_str(&format!("sub {}, {}, {}\n", r(a), r(b), r(c)))
                    }
                    Op::AddI(a, b, i) => src.push_str(&format!("addi {}, {}, {i}\n", r(a), r(b))),
                    Op::Slt(a, b, c) => {
                        src.push_str(&format!("slt {}, {}, {}\n", r(a), r(b), r(c)))
                    }
                    Op::Mv(a, b) => src.push_str(&format!("mv {}, {}\n", r(a), r(b))),
                }
            }
            src.push_str("ebreak\n");
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn spilled_registers_read_correctly_at_every_boundary(src in program()) {
        // Magnitudes stay inside the window: |init| ≤ 100, ≤ 11 ops,
        // each at most doubling — 100·2^11 would overflow, but adds
        // only combine two prior values, so worst case is ≤ 100·2^11;
        // keep ops ≤ 11 and rely on the harness: any out-of-window
        // value would make the rv32 and ternary sides diverge, which
        // proptest would report with the program attached. In practice
        // the op mix (slt/mv/addi) keeps values far below the window.
        let rv = parse_program(&src).expect("generated source parses");
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).expect("translates");

        // The renamer must actually be under pressure: all 7 spill
        // slots in use, 11 renameable registers placed.
        prop_assert_eq!(t.allocation.spill_count(), 7, "{}", src);
        prop_assert_eq!(t.allocation.direct_count(), 4 + 2, "{}", src); // + ra/sp
        let spilled: Vec<_> = t
            .allocation
            .iter()
            .filter(|(_, loc)| matches!(loc, RegisterLocation::Spill(_)))
            .map(|(r, _)| r)
            .collect();
        prop_assert_eq!(spilled.len(), 7);

        // Lockstep: every allocated register — the spilled seven
        // included — is compared against the rv32 machine after every
        // source instruction, mid-program, via read_rv_reg.
        let cosim = CoSim::new(&rv, &t, 100_000).expect("plan builds");
        let mut stats = OracleStats::default();
        let mut core = SimBuilder::new(&t.program)
            .tdm_words(cosim.tdm_words())
            .build_functional();
        let d = cosim.run(&mut core, &mut stats);
        prop_assert!(d.is_none(), "{}\n{}", d.unwrap(), src);
        // One sync point per executed instruction plus the reset state:
        // the comparisons really happened mid-program.
        prop_assert!(stats.cosim_sync_points as usize >= 12, "{}", src);
    }
}

/// A value can sit in a spill slot *while* out-of-window values pass
/// through other registers — the contract only covers the compared
/// window, which `CoSim` enforces per register. This deterministic
/// companion pins one concrete spill round-trip mid-program.
#[test]
fn concrete_spill_roundtrip_mid_program() {
    let mut src = String::new();
    for (k, r) in REGS.iter().enumerate() {
        src.push_str(&format!("li {r}, {}\n", (k as i64 + 1) * 7));
    }
    // Overwrite and read back through arithmetic touching every reg.
    for w in REGS.windows(2) {
        src.push_str(&format!("add {}, {}, {}\n", w[1], w[1], w[0]));
    }
    src.push_str("ebreak\n");

    let rv = parse_program(&src).unwrap();
    let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
    assert_eq!(t.allocation.spill_count(), 7);
    let cosim = CoSim::new(&rv, &t, 100_000).unwrap();
    let mut stats = OracleStats::default();
    let mut core = SimBuilder::new(&t.program)
        .tdm_words(cosim.tdm_words())
        .build_functional();
    assert!(cosim.run(&mut core, &mut stats).is_none());
    assert!(stats.cosim_sync_points >= 22);
}
