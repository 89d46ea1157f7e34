//! Bubble sort (paper §V-A, first column of Table III and Fig. 5).
//!
//! Sorts an `n`-word array of small integers ascending, in place, with
//! the classic early-exit-free nested loop (worst-case-shaped input:
//! reverse-sorted with duplicates sprinkled in by the LCG).

use std::ops::RangeInclusive;

use crate::{lcg_values, Generator, Workload};

/// Array lengths [`bubble_sort`] accepts: the array must fit the ternary
/// TDM alongside the runtime scratch area.
pub(crate) const SIZES: RangeInclusive<usize> = 2..=48;

/// Builds the bubble-sort workload over `n` elements with the paper
/// suite's canonical input seed.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 48` (the array must fit the ternary TDM
/// alongside the runtime scratch area).
pub fn bubble_sort(n: usize) -> Workload {
    bubble_sort_seeded(n, 7)
}

/// [`bubble_sort`] with an explicit input seed (noise values change,
/// structure and golden reference recompute accordingly).
///
/// # Panics
///
/// As [`bubble_sort`].
pub fn bubble_sort_seeded(n: usize, seed: u64) -> Workload {
    assert!(
        SIZES.contains(&n),
        "bubble_sort supports {SIZES:?} elements"
    );
    // Reverse-sorted backbone with LCG noise: adversarial but
    // deterministic.
    let noise = lcg_values(seed, n, 0, 9);
    let input: Vec<i64> = (0..n).map(|i| (n - i) as i64 * 2 + noise[i]).collect();
    let mut expected = input.clone();
    expected.sort_unstable();

    let words = input
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ");

    let source = format!(
        "
# bubble sort, {n} elements, in place
        .data
arr:    .word {words}
        .text
        li   a1, {n}            # passes remaining
outer:
        addi a1, a1, -1
        blez a1, done
        la   a0, arr            # pointer rewinds every pass
        li   a2, 0              # i
inner:
        bge  a2, a1, outer
        lw   a3, 0(a0)
        lw   a4, 4(a0)
        ble  a3, a4, noswap
        sw   a4, 0(a0)
        sw   a3, 4(a0)
noswap:
        addi a0, a0, 4
        addi a2, a2, 1
        j    inner
done:
        ebreak
"
    );

    Workload {
        generator: Some(Generator::BubbleSort { n }),
        name: "bubble-sort",
        description: format!("in-place bubble sort of {n} words"),
        source,
        output_offset: 0,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    #[test]
    fn sorts_on_rv32() {
        let w = bubble_sort(12);
        let p = w.rv32_program().unwrap();
        let mut m = Machine::new(&p);
        m.run(1_000_000).unwrap();
        w.verify_rv32(&m).unwrap();
    }

    #[test]
    fn expected_is_sorted_permutation() {
        let w = bubble_sort(20);
        let mut exp = w.expected.clone();
        let sorted = exp.clone();
        exp.sort_unstable();
        assert_eq!(exp, sorted, "expected vector is sorted");
        assert_eq!(w.expected.len(), 20);
    }
}
