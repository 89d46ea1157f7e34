//! Associative search/match workload, after the in-memory associative
//! processor line (Hout et al., arXiv:2110.09643).
//!
//! An associative processor answers "which rows match this key?" by
//! comparing the key against every memory row in parallel. The
//! RV32/ART-9 kernel performs the same search as an ordinary scan loop
//! and is verified at halt against golden values computed the same
//! way on the host.

use std::ops::RangeInclusive;

use crate::{lcg_values, split_seed, Generator, Workload};

/// Table lengths [`assoc_match`] accepts: table, keys and output must
/// fit the 256-word TDM.
pub(crate) const SIZES: RangeInclusive<usize> = 1..=128;

/// Number of search keys every instance of the workload probes.
pub const ASSOC_KEYS: usize = 4;

/// Associative search over an `n`-entry table: [`ASSOC_KEYS`] keys are
/// each searched for their first match index (−1 when absent) and
/// match count. Two keys are drawn from the table (guaranteed hits),
/// two from outside its value range (guaranteed misses).
///
/// # Panics
///
/// Panics if `n` is outside `1..=128` (table, keys and output must fit
/// the 256-word TDM).
pub fn assoc_match(n: usize) -> Workload {
    assoc_match_seeded(n, 53)
}

/// [`assoc_match`] with table and keys drawn from `seed`.
///
/// # Panics
///
/// As [`assoc_match`].
pub fn assoc_match_seeded(n: usize, seed: u64) -> Workload {
    assert!(
        SIZES.contains(&n),
        "assoc-match table must fit the default TDM"
    );
    let hay = lcg_values(split_seed(seed, 0), n, -20, 20);
    let picks = lcg_values(split_seed(seed, 1), 2, 0, n as i64 - 1);
    let misses = lcg_values(split_seed(seed, 2), 2, 21, 40);
    let keys = [
        hay[picks[0] as usize],
        hay[picks[1] as usize],
        misses[0],
        misses[1],
    ];

    // Golden outputs: (first index | −1, count) per key.
    let expected: Vec<i64> = keys
        .iter()
        .flat_map(|k| {
            let first = hay.iter().position(|v| v == k).map_or(-1, |i| i as i64);
            let count = hay.iter().filter(|v| *v == k).count() as i64;
            [first, count]
        })
        .collect();

    let fmt = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
    let source = format!(
        "
# associative search: first-match index and match count for {k} keys
        .data
hay:    .word {whay}
keys:   .word {wkeys}
out:    .zero {outb}
        .text
        la   a0, keys
        la   a1, out
        li   t0, {k}            # keys remaining
key_loop:
        lw   a2, 0(a0)          # key
        la   a3, hay
        li   a4, 0              # row index
        li   a5, -1             # first match
        li   a6, 0              # match count
scan:
        lw   t1, 0(a3)
        bne  t1, a2, no_match
        addi a6, a6, 1
        bgez a5, no_match       # first already recorded
        mv   a5, a4
no_match:
        addi a3, a3, 4
        addi a4, a4, 1
        li   t2, {n}
        blt  a4, t2, scan
        sw   a5, 0(a1)
        sw   a6, 4(a1)
        addi a1, a1, 8
        addi a0, a0, 4
        addi t0, t0, -1
        bgtz t0, key_loop
        ebreak
",
        k = ASSOC_KEYS,
        whay = fmt(&hay),
        wkeys = fmt(&keys),
        outb = 8 * ASSOC_KEYS,
    );

    Workload {
        generator: Some(Generator::AssocMatch { n }),
        name: "assoc-match",
        description: format!("associative search, {n}-entry table, {ASSOC_KEYS} keys"),
        source,
        output_offset: 4 * (n + ASSOC_KEYS),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    #[test]
    fn expected_has_hits_and_misses() {
        let w = assoc_match(32);
        // Keys 0 and 1 come from the table (index >= 0, count >= 1);
        // keys 2 and 3 are outside its value range (-1, 0).
        assert!(w.expected[0] >= 0 && w.expected[1] >= 1);
        assert!(w.expected[2] >= 0 && w.expected[3] >= 1);
        assert_eq!(&w.expected[4..], &[-1, 0, -1, 0]);
    }

    #[test]
    fn reseeding_changes_the_table() {
        let w = assoc_match(16);
        let w2 = w.with_input_seed(1234);
        assert_ne!(w.source, w2.source);
        let mut m = Machine::new(&w2.rv32_program().unwrap());
        m.run(10_000_000).unwrap();
        w2.verify_rv32(&m).unwrap();
    }
}
