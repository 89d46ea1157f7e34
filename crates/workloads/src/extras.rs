//! Extension workloads beyond the paper's four benchmarks — used by
//! the wider test matrix and as additional end-to-end examples of the
//! compiling framework. Both follow the same contract (word-addressed
//! data, values within ±9841).

use std::ops::RangeInclusive;

use crate::{lcg_values, split_seed, Generator, Workload};

/// Lengths [`fibonacci`] accepts: `fib(20) = 6765` still fits 9 trits.
pub(crate) const FIBONACCI_SIZES: RangeInclusive<usize> = 2..=20;

/// Lengths [`dot_product`] accepts: the accumulator must stay in range.
pub(crate) const DOT_PRODUCT_SIZES: RangeInclusive<usize> = 1..=40;

/// Iterative Fibonacci: `fib(0..n)` written to the output buffer.
/// Pure register arithmetic plus stores — a control-flow-heavy,
/// memory-light contrast to the matrix workloads.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 20` (`fib(20) = 6765` still fits 9 trits).
pub fn fibonacci(n: usize) -> Workload {
    assert!(
        FIBONACCI_SIZES.contains(&n),
        "fib(n) must fit the 9-trit range"
    );
    let mut expected = vec![0i64, 1];
    while expected.len() < n {
        let k = expected.len();
        expected.push(expected[k - 1] + expected[k - 2]);
    }
    expected.truncate(n);

    let source = format!(
        "
# iterative fibonacci, first {n} values stored to out[]
        .data
out:    .zero {bytes}
        .text
        la   a0, out
        li   a1, 0              # fib(i)
        li   a2, 1              # fib(i+1)
        li   a3, {n}            # remaining
fib_loop:
        sw   a1, 0(a0)
        add  a4, a1, a2         # next
        mv   a1, a2
        mv   a2, a4
        addi a0, a0, 4
        addi a3, a3, -1
        bgtz a3, fib_loop
        ebreak
",
        bytes = 4 * n,
    );

    Workload {
        generator: Some(Generator::Fibonacci { n }),
        name: "fibonacci",
        description: format!("iterative fibonacci, {n} terms"),
        source,
        output_offset: 0,
        expected,
    }
}

/// Dot product of two `n`-vectors — one multiply-accumulate per
/// element, the minimal workload isolating the software-`__mul` cost
/// the GEMM benchmark amortizes over loop overhead.
///
/// # Panics
///
/// Panics if `n < 1` or `n > 40` (accumulator must stay in range).
pub fn dot_product(n: usize) -> Workload {
    dot_product_streams(n, 41, 43)
}

/// [`dot_product`] with both vectors drawn from `seed` (one derived
/// stream per vector).
///
/// # Panics
///
/// As [`dot_product`].
pub fn dot_product_seeded(n: usize, seed: u64) -> Workload {
    dot_product_streams(n, split_seed(seed, 0), split_seed(seed, 1))
}

fn dot_product_streams(n: usize, seed_x: u64, seed_y: u64) -> Workload {
    assert!(
        DOT_PRODUCT_SIZES.contains(&n),
        "dot_product supports {DOT_PRODUCT_SIZES:?} elements"
    );
    let xs = lcg_values(seed_x, n, -7, 7);
    let ys = lcg_values(seed_y, n, -7, 7);
    let dot: i64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();

    let fmt = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
    let source = format!(
        "
# dot product of two {n}-vectors
        .data
xs:     .word {wx}
ys:     .word {wy}
out:    .zero 4
        .text
        la   a0, xs
        la   a1, ys
        li   a2, 0              # acc
        li   a3, {n}
dot_loop:
        lw   a4, 0(a0)
        lw   a5, 0(a1)
        mul  a4, a4, a5
        add  a2, a2, a4
        addi a0, a0, 4
        addi a1, a1, 4
        addi a3, a3, -1
        bgtz a3, dot_loop
        la   a0, out
        sw   a2, 0(a0)
        ebreak
",
        wx = fmt(&xs),
        wy = fmt(&ys),
    );

    Workload {
        generator: Some(Generator::DotProduct { n }),
        name: "dot-product",
        description: format!("{n}-element integer dot product"),
        source,
        output_offset: 8 * n,
        expected: vec![dot],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_compiler::translate;

    #[test]
    fn fibonacci_values_are_right() {
        let w = fibonacci(10);
        assert_eq!(w.expected, vec![0, 1, 1, 2, 3, 5, 8, 13, 21, 34]);
    }

    #[test]
    fn dot_product_links_mul() {
        let w = dot_product(4);
        let t = translate(&w.rv32_program().unwrap()).unwrap();
        assert!(t.report.art9_builtin_instructions > 0);
    }
}
