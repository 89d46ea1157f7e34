//! Golden digests of program preparation: the RV32 parse and the ART-9
//! translation of every registry workload, at every size the
//! `prep-churn` benchmark stream draws and at the `sim-long` sizes,
//! each with its default inputs and with one seeded input draw.
//!
//! Each digest folds, over all sizes of one workload:
//!
//! * the parse: text, data and symbols (`Rv32Program`'s `Debug`);
//! * the translation: the program (text, data, symbols), the
//!   provenance map, every `address_of_rv` boundary, the register
//!   allocation in iteration order and the software report.
//!
//! The constants were recorded before the parser and translator were
//! made allocation-lean; any change to what preparation produces moves
//! them. A failure prints the whole table as computed, for the rare
//! change that means to alter the output.

use std::fmt::Debug;

use art9_compiler::translate;

/// The `prep-churn` size ranges (inclusive; `None` for unsized
/// workloads), one per registry name in `workloads::WORKLOAD_NAMES`
/// order.
const PREP_SIZES: [(&str, Option<(usize, usize)>); 8] = [
    ("bubble-sort", Some((2, 16))),
    ("gemm", Some((2, 4))),
    ("sobel", None),
    ("dhrystone", Some((1, 4))),
    ("fibonacci", Some((2, 20))),
    ("dot-product", Some((1, 24))),
    ("nn-mlp", Some((1, 8))),
    ("assoc-match", Some((1, 48))),
];

/// The `sim-long` program set.
const SIM_SIZES: [(&str, usize); 5] = [
    ("dhrystone", 500),
    ("gemm", 7),
    ("nn-mlp", 10),
    ("bubble-sort", 48),
    ("assoc-match", 128),
];

/// Parse and translation digests per workload, recorded before the
/// allocation-lean rewrite of both passes.
const GOLDEN: [(&str, u64, u64); 8] = [
    ("bubble-sort", 0xc410a419751ca331, 0xbef48ccf9d89994a),
    ("gemm", 0x9fa0883b73c80ae6, 0x31acdec03e071061),
    ("sobel", 0x1abdc199e5ae5a80, 0xda227a4ffca6ec4d),
    ("dhrystone", 0x88cde92c63970b1b, 0x784608f6741f6119),
    ("fibonacci", 0x7fa49b0cc906f98f, 0x1798cffc432a0467),
    ("dot-product", 0x950a86e4899aca12, 0x0c53eb11949b479a),
    ("nn-mlp", 0x2acb0d8d13a4326f, 0xe4396c8a1075357c),
    ("assoc-match", 0x94b0e9420e697c77, 0x8c1d477e408022c6),
];

/// FNV-1a, 64-bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, value: &impl Debug) {
        for b in format!("{value:?}").bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Every size of `name` this test covers.
fn sizes(name: &str) -> Vec<Option<usize>> {
    let (_, range) = PREP_SIZES
        .iter()
        .find(|(n, _)| *n == name)
        .expect("name in the size table");
    let mut out: Vec<Option<usize>> = match range {
        Some((lo, hi)) => (*lo..=*hi).map(Some).collect(),
        None => vec![None],
    };
    out.extend(
        SIM_SIZES
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, n)| Some(*n)),
    );
    out
}

/// The (parse, translation) digests of every covered size of `name`.
fn digests(name: &str) -> (u64, u64) {
    let mut parse = Fnv::new();
    let mut translation = Fnv::new();
    for n in sizes(name) {
        let base = workloads::by_name(name, n).unwrap_or_else(|| panic!("{name} n={n:?} builds"));
        let seeded = base.with_input_seed(0x5eed + n.unwrap_or(0) as u64);
        for w in [base, seeded] {
            let rv = w
                .rv32_program()
                .unwrap_or_else(|e| panic!("{name} n={n:?}: {e}"));
            parse.add(&rv);
            let t = translate(&rv).unwrap_or_else(|e| panic!("{name} n={n:?}: {e}"));
            translation.add(&t.program);
            translation.add(&t.provenance());
            let boundaries: Vec<Option<usize>> = (0..=rv.text().len() + 1)
                .map(|k| t.address_of_rv(k))
                .collect();
            translation.add(&boundaries);
            translation.add(&t.allocation.iter().collect::<Vec<_>>());
            translation.add(&t.report);
        }
    }
    (parse.0, translation.0)
}

#[test]
fn preparation_outputs_match_the_recorded_digests() {
    let names: Vec<&str> = PREP_SIZES.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        workloads::WORKLOAD_NAMES,
        "one size row per workload"
    );
    let mut wrong = Vec::new();
    let mut table = String::new();
    for (name, parse, translation) in GOLDEN {
        let got = digests(name);
        table += &format!("    (\"{name}\", {:#018x}, {:#018x}),\n", got.0, got.1);
        if got != (parse, translation) {
            wrong.push(name);
        }
    }
    assert!(
        wrong.is_empty(),
        "{wrong:?} moved; computed table:\n{table}"
    );
}
