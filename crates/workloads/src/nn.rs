//! Ternary-weight neural-network workloads: matvec and a small
//! quantized MLP with sign activations.
//!
//! Ternary-weight networks (weights in {−1, 0, +1}) are the natural
//! workload of a balanced-ternary machine: a multiply is a negate, a
//! skip, or a pass, so inference reduces to the add/subtract selection
//! the TALU — and the bitplane-SIMD lanes of
//! [`ternary::simd::Word9xN`] — perform as pure plane masking.
//!
//! Two host-side golden paths compute the same inference:
//!
//! * **scalar** — one [`Word9`] at a time, the straightforward loop
//!   ([`TernaryMatrix::matvec_scalar`]);
//! * **SIMD** — output neurons packed into lanes, the whole product
//!   one carry-save [`matvec`](ternary::simd::matvec) over the
//!   precomputed weight masks ([`TernaryMatrix::matvec_simd`]).
//!
//! Both are pinned to each other and to plain `i64` arithmetic by the
//! tests here; the RV32/ART-9 assembly kernel produced by
//! [`nn_mlp`] is verified against the same expected values at halt on
//! every simulator backend. `art9-bench` measures the SIMD-vs-scalar
//! speedup into the `nn/*` rows of BENCH_ternary.json.

use std::ops::RangeInclusive;

use ternary::simd::{self, LaneWeights, PackedWeights};
use ternary::{Trit, Word9};

use crate::{lcg_values, split_seed, Generator, Workload};

/// Layer widths [`nn_mlp`] accepts: three `n`-vectors plus two `n×n`
/// matrices must fit the 256-word TDM.
pub(crate) const MLP_SIZES: RangeInclusive<usize> = 1..=10;

/// A row-major ternary weight matrix with its per-column lane masks
/// precomputed, so the SIMD matvec pays the mask construction once.
#[derive(Debug, Clone)]
pub struct TernaryMatrix {
    rows: usize,
    cols: usize,
    /// Row-major weights, `weights[r * cols + c]`.
    weights: Vec<Trit>,
    /// Word-major packed mask form of the columns across the `rows`
    /// output lanes, the [`simd::matvec`] operand.
    packed: PackedWeights,
}

impl TernaryMatrix {
    /// Builds a matrix from row-major ternary weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != rows * cols` or either dimension is
    /// zero.
    pub fn new(rows: usize, cols: usize, weights: Vec<Trit>) -> Self {
        assert!(rows > 0 && cols > 0, "empty ternary matrix");
        assert_eq!(weights.len(), rows * cols, "row-major rows×cols weights");
        let col_masks: Vec<LaneWeights> = (0..cols)
            .map(|c| {
                let column: Vec<Trit> = (0..rows).map(|r| weights[r * cols + c]).collect();
                LaneWeights::new(&column)
            })
            .collect();
        Self {
            rows,
            cols,
            weights,
            packed: PackedWeights::from_columns(&col_masks),
        }
    }

    /// A seeded random ternary matrix (weights uniform over {−1, 0, +1}).
    pub fn seeded(rows: usize, cols: usize, seed: u64) -> Self {
        let weights = lcg_values(seed, rows * cols, -1, 1)
            .into_iter()
            .map(trit_of)
            .collect();
        Self::new(rows, cols, weights)
    }

    /// Number of rows (output neurons).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (input activations).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The weight at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range.
    pub fn weight(&self, row: usize, col: usize) -> Trit {
        assert!(row < self.rows && col < self.cols);
        self.weights[row * self.cols + col]
    }

    /// Scalar golden path: `y = W · x` one [`Word9`] at a time — for
    /// each output row, walk the columns and add, subtract or skip
    /// `x[c]` by the weight. This is the baseline the SIMD path is
    /// benchmarked against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_scalar(&self, x: &[Word9]) -> Vec<Word9> {
        assert_eq!(x.len(), self.cols, "input length must match columns");
        (0..self.rows)
            .map(|r| {
                let mut acc = Word9::ZERO;
                for (c, xc) in x.iter().enumerate() {
                    match self.weights[r * self.cols + c] {
                        Trit::P => acc = acc.wrapping_add(*xc),
                        Trit::N => acc = acc.wrapping_sub(*xc),
                        Trit::Z => {}
                    }
                }
                acc
            })
            .collect()
    }

    /// SIMD golden path: the output rows live in [`simd::Word9xN`] lanes and
    /// the whole product runs through the word-major carry-save
    /// kernel [`simd::matvec`] against the precomputed column masks —
    /// no per-trit, per-row, or carry-propagation loops; one full add
    /// per plane word at the very end.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_simd(&self, x: &[Word9]) -> Vec<Word9> {
        assert_eq!(x.len(), self.cols, "input length must match columns");
        simd::matvec(x, &self.packed).to_words()
    }
}

/// A two-layer ternary-weight MLP with sign activations:
/// `y = W2 · sign(W1 · x)`.
///
/// All hidden activations are themselves trits, so the second layer is
/// again pure ternary arithmetic — the "fully ternarized" inference
/// the associative-processing literature targets.
#[derive(Debug, Clone)]
pub struct TernaryMlp {
    /// First layer, `hidden × input`.
    pub w1: TernaryMatrix,
    /// Second layer, `output × hidden`.
    pub w2: TernaryMatrix,
}

impl TernaryMlp {
    /// A seeded square `n → n → n` MLP.
    pub fn seeded(n: usize, seed: u64) -> Self {
        Self {
            w1: TernaryMatrix::seeded(n, n, split_seed(seed, 1)),
            w2: TernaryMatrix::seeded(n, n, split_seed(seed, 2)),
        }
    }

    /// Scalar inference through [`TernaryMatrix::matvec_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn infer_scalar(&self, x: &[Word9]) -> Vec<Word9> {
        let h = sign_words(&self.w1.matvec_scalar(x));
        self.w2.matvec_scalar(&h)
    }

    /// SIMD inference: both layers through
    /// [`TernaryMatrix::matvec_simd`], with the same scalar sign
    /// activation between them as [`TernaryMlp::infer_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the input width.
    pub fn infer_simd(&self, x: &[Word9]) -> Vec<Word9> {
        self.w2.matvec_simd(&sign_words(&self.w1.matvec_simd(x)))
    }
}

/// Sign activation on scalar words.
fn sign_words(v: &[Word9]) -> Vec<Word9> {
    v.iter()
        .map(|w| Word9::from_i64_wrapping(w.sign().value() as i64))
        .collect()
}

fn trit_of(v: i64) -> Trit {
    match v.signum() {
        1 => Trit::P,
        -1 => Trit::N,
        _ => Trit::Z,
    }
}

/// Ternary-weight MLP inference (`y = W2 · sign(W1 · x)`) over an
/// `n → n → n` network, inputs in [−7, 7], with the paper-style
/// self-checking contract: golden outputs recomputed host-side.
///
/// # Panics
///
/// Panics if `n` is outside `1..=10` (three `n`-vectors plus two `n×n`
/// matrices must fit the 256-word TDM; outputs `|y| ≤ n` always fit
/// 9 trits).
pub fn nn_mlp(n: usize) -> Workload {
    nn_mlp_seeded(n, 47)
}

/// [`nn_mlp`] with weights and inputs drawn from `seed`.
///
/// # Panics
///
/// As [`nn_mlp`].
pub fn nn_mlp_seeded(n: usize, seed: u64) -> Workload {
    assert!(
        MLP_SIZES.contains(&n),
        "nn-mlp data must fit the default TDM"
    );
    let mlp = TernaryMlp::seeded(n, seed);
    let xs = lcg_values(split_seed(seed, 0), n, -7, 7);

    // Golden outputs in plain integers (the SIMD and scalar Word9
    // paths are pinned to this in the tests).
    let h: Vec<i64> = (0..n)
        .map(|r| {
            let acc: i64 = (0..n)
                .map(|c| mlp.w1.weight(r, c).value() as i64 * xs[c])
                .sum();
            acc.signum()
        })
        .collect();
    let expected: Vec<i64> = (0..n)
        .map(|r| {
            (0..n)
                .map(|c| mlp.w2.weight(r, c).value() as i64 * h[c])
                .sum()
        })
        .collect();

    let fmt = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
    let row_major = |m: &TernaryMatrix| -> Vec<i64> {
        (0..n)
            .flat_map(|r| (0..n).map(move |c| m.weight(r, c).value() as i64))
            .collect()
    };
    let source = format!(
        "
# ternary-weight MLP inference: out = w2 x sign(w1 x x), {n}-{n}-{n}
        .data
x:      .word {wx}
w1:     .word {w1}
w2:     .word {w2}
h:      .zero {nb}
out:    .zero {nb}
        .text
        # layer 1: h = sign(w1 x x)
        la   a0, w1             # weight walk (row-major)
        la   a1, h
        li   t0, {n}            # rows remaining
l1_row:
        la   a2, x
        li   a3, 0              # acc
        li   t1, {n}            # cols remaining
l1_col:
        lw   a4, 0(a0)          # ternary weight
        lw   a5, 0(a2)          # activation
        mul  a4, a4, a5
        add  a3, a3, a4
        addi a0, a0, 4
        addi a2, a2, 4
        addi t1, t1, -1
        bgtz t1, l1_col
        # sign activation onto {{-1, 0, +1}}
        li   a4, 0
        bltz a3, l1_neg
        bgtz a3, l1_pos
        j    l1_store
l1_neg:
        li   a4, -1
        j    l1_store
l1_pos:
        li   a4, 1
l1_store:
        sw   a4, 0(a1)
        addi a1, a1, 4
        addi t0, t0, -1
        bgtz t0, l1_row
        # layer 2: out = w2 x h
        la   a0, w2
        la   a1, out
        li   t0, {n}
l2_row:
        la   a2, h
        li   a3, 0
        li   t1, {n}
l2_col:
        lw   a4, 0(a0)
        lw   a5, 0(a2)
        mul  a4, a4, a5
        add  a3, a3, a4
        addi a0, a0, 4
        addi a2, a2, 4
        addi t1, t1, -1
        bgtz t1, l2_col
        sw   a3, 0(a1)
        addi a1, a1, 4
        addi t0, t0, -1
        bgtz t0, l2_row
        ebreak
",
        wx = fmt(&xs),
        w1 = fmt(&row_major(&mlp.w1)),
        w2 = fmt(&row_major(&mlp.w2)),
        nb = 4 * n,
    );

    Workload {
        generator: Some(Generator::NnMlp { n }),
        name: "nn-mlp",
        description: format!("ternary-weight {n}-{n}-{n} MLP inference, sign activations"),
        source,
        // x, w1, w2 and the hidden scratch precede the output buffer.
        output_offset: 4 * (2 * n * n + 2 * n),
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    fn words(v: &[i64]) -> Vec<Word9> {
        v.iter().map(|&x| Word9::from_i64_wrapping(x)).collect()
    }

    #[test]
    fn matvec_simd_matches_scalar_and_integers() {
        for (rows, cols, seed) in [
            (1, 1, 7u64),
            (5, 3, 11),
            (6, 6, 13),
            (13, 9, 17),
            (40, 25, 19),
        ] {
            let m = TernaryMatrix::seeded(rows, cols, seed);
            let x = words(&lcg_values(seed ^ 0xABCD, cols, -7, 7));
            let scalar = m.matvec_scalar(&x);
            let simd = m.matvec_simd(&x);
            assert_eq!(simd, scalar, "{rows}x{cols}");
            for (r, got) in simd.iter().enumerate() {
                let expect: i64 = (0..cols)
                    .map(|c| m.weight(r, c).value() as i64 * x[c].to_i64())
                    .sum();
                assert_eq!(got.to_i64(), expect, "row {r}");
            }
        }
    }

    #[test]
    fn mlp_simd_and_scalar_inference_agree() {
        for seed in 0..20 {
            let mlp = TernaryMlp::seeded(9, seed);
            let x = words(&lcg_values(seed.wrapping_mul(77), 9, -7, 7));
            assert_eq!(mlp.infer_simd(&x), mlp.infer_scalar(&x), "seed {seed}");
        }
    }

    #[test]
    fn workload_expected_matches_both_golden_paths() {
        let w = nn_mlp(8);
        let Some(Generator::NnMlp { n }) = w.generator else {
            panic!("nn generator");
        };
        let mlp = TernaryMlp::seeded(n, 47);
        let x = words(&lcg_values(split_seed(47, 0), n, -7, 7));
        let simd: Vec<i64> = mlp.infer_simd(&x).iter().map(Word9::to_i64).collect();
        let scalar: Vec<i64> = mlp.infer_scalar(&x).iter().map(Word9::to_i64).collect();
        assert_eq!(simd, w.expected);
        assert_eq!(scalar, w.expected);
    }

    #[test]
    fn reseeding_changes_inputs_and_stays_self_consistent() {
        let w = nn_mlp(5);
        let w2 = w.with_input_seed(99);
        assert_ne!(w.source, w2.source);
        assert_eq!(w2.name, "nn-mlp");
        // The reseeded instance still verifies end to end.
        let mut m = Machine::new(&w2.rv32_program().unwrap());
        m.run(10_000_000).unwrap();
        w2.verify_rv32(&m).unwrap();
    }
}
