//! Differential testing of the compiling framework: random RV32
//! programs are run natively on the RV32 machine and — after
//! translation — on the ART-9 functional simulator; every architected
//! register must agree.
//!
//! Value ranges are constrained so that results stay inside the 9-trit
//! range: the translation contract is faithfulness for programs whose
//! live values fit the ternary machine (DESIGN.md §3.3, "semantic
//! narrowing"), so the generator respects that contract. Magnitudes are
//! bounded by |initial| ≤ 100 with at most 6 doubling operations:
//! 100·2⁶ = 6400 < 9841.

use proptest::prelude::*;

use art9_compiler::translate;
use art9_sim::{Core, SimBuilder};
use rv32::{parse_program, Machine};

#[derive(Debug, Clone)]
enum Op {
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    AddI(u8, u8, i32),
    Slt(u8, u8, u8),
    Branch(&'static str, u8, u8),
    MulSmall(u8, u8),
}

const REGS: [&str; 5] = ["a0", "a1", "a2", "a3", "a4"];

fn op() -> impl Strategy<Value = Op> {
    let r = 0u8..5;
    prop_oneof![
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Add(a, b, c)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Sub(a, b, c)),
        (r.clone(), r.clone(), -13i32..=13).prop_map(|(a, b, i)| Op::AddI(a, b, i)),
        (r.clone(), r.clone(), r.clone()).prop_map(|(a, b, c)| Op::Slt(a, b, c)),
        (r.clone(), r.clone()).prop_map(|(a, b)| Op::Branch("beq", a, b)),
        (r.clone(), r.clone()).prop_map(|(a, b)| Op::Branch("blt", a, b)),
        (r.clone(), r).prop_map(|(a, b)| Op::MulSmall(a, b)),
    ]
}

fn program() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(-100i32..=100, 5),
        proptest::collection::vec(op(), 0..6),
    )
        .prop_map(|(init, ops)| {
            let mut src = String::new();
            for (r, v) in REGS.iter().zip(&init) {
                src.push_str(&format!("li {r}, {v}\n"));
            }
            for (k, o) in ops.iter().enumerate() {
                match o {
                    Op::Add(a, b, c) => src.push_str(&format!(
                        "add {}, {}, {}\n",
                        REGS[*a as usize], REGS[*b as usize], REGS[*c as usize]
                    )),
                    Op::Sub(a, b, c) => src.push_str(&format!(
                        "sub {}, {}, {}\n",
                        REGS[*a as usize], REGS[*b as usize], REGS[*c as usize]
                    )),
                    Op::AddI(a, b, i) => src.push_str(&format!(
                        "addi {}, {}, {}\n",
                        REGS[*a as usize], REGS[*b as usize], i
                    )),
                    Op::Slt(a, b, c) => src.push_str(&format!(
                        "slt {}, {}, {}\n",
                        REGS[*a as usize], REGS[*b as usize], REGS[*c as usize]
                    )),
                    Op::Branch(m, a, b) => src.push_str(&format!(
                        "{m} {}, {}, skip{k}\nskip{k}:\n",
                        REGS[*a as usize], REGS[*b as usize]
                    )),
                    Op::MulSmall(a, b) => {
                        // Normalize both operands to 0/1 first so the
                        // product stays tiny (slt against self+1 keeps
                        // it deterministic and in range).
                        src.push_str(&format!(
                            "slt t0, {}, {}\nslt t1, {}, {}\nmul {}, t0, t1\n",
                            REGS[*a as usize],
                            REGS[*b as usize],
                            REGS[*b as usize],
                            REGS[*a as usize],
                            REGS[*a as usize],
                        ));
                    }
                }
            }
            src.push_str("ebreak\n");
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn translated_programs_agree_with_rv32(src in program()) {
        // Values stay well inside both machines' ranges by construction:
        // |init| <= 100, adds at most double per op, <= 6 ops.
        let rv = parse_program(&src).expect("generated source parses");
        let mut machine = Machine::new(&rv);
        machine.run(1_000_000).expect("rv32 run completes");

        let t = translate(&rv).expect("translation succeeds");
        let mut sim = SimBuilder::new(&t.program).build_functional();
        sim.run(1_000_000).expect("art9 run completes");

        for name in REGS {
            let reg: rv32::Reg = name.parse().expect("known reg");
            let rv_val = machine.reg(reg) as i32 as i64;
            let t9_val = t.read_rv_reg(sim.state(), reg);
            prop_assert_eq!(rv_val, t9_val, "{} diverged\nprogram:\n{}", name, src);
        }
    }
}
