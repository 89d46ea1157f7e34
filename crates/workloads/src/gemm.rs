//! General matrix multiplication (paper §V-A; the Table III column
//! where ART-9's lack of a hardware multiplier shows — translated code
//! calls the `__mul` runtime while PicoRV32's RV32IM uses its
//! sequential multiplier).
//!
//! `C = A × B` over `n×n` matrices of small non-negative integers,
//! walked with incremental pointers only (the pointer idiom the
//! address re-scaler accepts): the A-row pointer advances by one
//! element per `k`, the B pointer by one row per `k` and rewinds by
//! `4n² − 4` per `j`.

use std::ops::RangeInclusive;

use crate::{lcg_values, split_seed, Generator, Workload};

/// Matrix dimensions [`gemm`] accepts: three `n²` matrices must fit the
/// TDM and products must stay inside the 9-trit range.
pub(crate) const SIZES: RangeInclusive<usize> = 2..=7;

/// Builds the `n×n` GEMM workload with the paper suite's canonical
/// input streams.
///
/// # Panics
///
/// Panics if `n < 2` or `n > 7` (three `n²` matrices must fit the TDM
/// and products must stay inside the 9-trit range).
pub fn gemm(n: usize) -> Workload {
    gemm_streams(n, 11, 13)
}

/// [`gemm`] with both input matrices drawn from `seed` (one derived
/// stream per matrix).
///
/// # Panics
///
/// As [`gemm`].
pub fn gemm_seeded(n: usize, seed: u64) -> Workload {
    gemm_streams(n, split_seed(seed, 0), split_seed(seed, 1))
}

fn gemm_streams(n: usize, seed_a: u64, seed_b: u64) -> Workload {
    assert!(
        SIZES.contains(&n),
        "gemm supports {SIZES:?} (TDM/range limits)"
    );
    let a = lcg_values(seed_a, n * n, 0, 6);
    let b = lcg_values(seed_b, n * n, 0, 6);
    let mut c = vec![0i64; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }

    let fmt_words = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
    let (wa, wb) = (fmt_words(&a), fmt_words(&b));
    let row_bytes = 4 * n;
    let col_rewind = 4 * n * n - 4; // back over n rows, forward one column
    let source = format!(
        "
# gemm: C = A x B, {n}x{n}
        .data
mata:   .word {wa}
matb:   .word {wb}
matc:   .zero {csize}
        .text
        la   a0, mata           # A[i][k] walker
        la   a1, matb           # B[k][j] walker
        la   a2, matc           # C walker
        li   s3, {n}
        li   a3, 0              # i
i_loop:
        li   a4, 0              # j
j_loop:
        li   a6, 0              # acc
        li   a5, 0              # k
k_loop:
        lw   a7, 0(a0)
        lw   s2, 0(a1)
        mul  a7, a7, s2
        add  a6, a6, a7
        addi a0, a0, 4
        addi a1, a1, {row_bytes}
        addi a5, a5, 1
        blt  a5, s3, k_loop
        sw   a6, 0(a2)
        addi a2, a2, 4
        addi a0, a0, -{row_bytes}   # back to row start
        addi a1, a1, -{col_rewind}  # next column of B
        addi a4, a4, 1
        blt  a4, s3, j_loop
        addi a0, a0, {row_bytes}    # next row of A
        addi a1, a1, -{row_bytes}   # back to column 0 of B
        addi a3, a3, 1
        blt  a3, s3, i_loop
        ebreak
",
        csize = 4 * n * n,
    );

    Workload {
        generator: Some(Generator::Gemm { n }),
        name: "gemm",
        description: format!("{n}x{n} integer matrix multiply (software mul on ART-9)"),
        source,
        output_offset: 2 * 4 * n * n,
        expected: c,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    #[test]
    fn multiplies_on_rv32() {
        let w = gemm(4);
        let mut m = Machine::new(&w.rv32_program().unwrap());
        m.run(1_000_000).unwrap();
        w.verify_rv32(&m).unwrap();
    }

    #[test]
    fn six_by_six_paper_parameterization() {
        let w = gemm(6);
        assert_eq!(w.expected.len(), 36);
        // Products of 6x6 small ints stay comfortably in 9-trit range.
        assert!(w.expected.iter().all(|v| v.abs() <= 9841));
    }
}
