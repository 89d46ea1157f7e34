//! Bitplane-SIMD lanes: many 9-trit words computed on at once.
//!
//! [`Word9xN`] packs `N` [`Word9`] lanes across wide `pos`/`neg`
//! bitplanes (a `Vec<u64>` per plane). Each lane occupies a 10-bit
//! stride — 9 data bits plus one *guard* bit — so six lanes share one
//! `u64` and the word-parallel carry loop of
//! [`Trits::carrying_add`](crate::Trits::carrying_add) runs unchanged
//! across all of them: a carry rippling out of a lane's top trit lands
//! on the guard bit and is masked off before it can leak into the
//! neighbouring lane, which is exactly the per-lane wrap-around the
//! scalar adder implements by discarding its carry-out.
//!
//! The headline operation is the ternary-weight matrix-vector product
//! ([`matvec`]): a weight in {−1, 0, +1} per lane multiplies by
//! selecting the negated planes (swap), nothing (zero), or the original
//! planes — pure masking, no per-trit loops anywhere — and a carry-save
//! accumulator adds the products without a carry loop per column. This
//! is the host mirror of in-memory associative processing (Hout et al.,
//! arXiv:2110.09643) and the golden path of the `nn-mlp` workload in
//! the `workloads` crate, whose sign activation is a lane-parallel
//! [`Word9xN::compare`] against zero.
//!
//! Both kernels have per-lane references built from the per-trit
//! algorithms in [`crate::arith`] (`compare_lanewise`, and a chain of
//! `mac_lanewise` for `matvec`); the property tests in
//! `tests/properties.rs` and the `--oracle simd` fuzz row pin the two
//! to each other.
//!
//! # Examples
//!
//! ```
//! use ternary::{simd::{self, LaneWeights, PackedWeights, Word9xN}, Trit, Word9};
//!
//! // Three output lanes, two weight columns: y = 100·w0 + 42·w1.
//! let m = PackedWeights::from_columns(&[
//!     LaneWeights::new(&[Trit::P, Trit::N, Trit::Z]),
//!     LaneWeights::new(&[Trit::N, Trit::Z, Trit::Z]),
//! ]);
//! let y = simd::matvec(&[Word9::from_i64(100)?, Word9::from_i64(42)?], &m);
//! assert_eq!(
//!     y.to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(),
//!     vec![58, -100, 0],
//! );
//! // The sign of every lane at once.
//! assert_eq!(y.compare(&Word9xN::zero(3)).lane_lsts(), vec![Trit::P, Trit::N, Trit::Z]);
//! # Ok::<(), ternary::TernaryError>(())
//! ```

use crate::trit::Trit;
use crate::word::Word9;

/// Bits per lane: 9 data trit-bits plus one guard bit for the adder's
/// per-lane carry-out.
const STRIDE: usize = 10;

/// Lanes packed into each `u64` of a plane (6 × 10 bits; the top 4 bits
/// of every plane word are never set).
const LANES_PER_WORD: usize = 6;

/// The 9 data bits of a single lane.
const LANE_DATA: u64 = 0x1FF;

/// Repeats a per-lane bit pattern across all six lane positions.
const fn repeat6(m: u64) -> u64 {
    let mut acc = 0u64;
    let mut i = 0;
    while i < LANES_PER_WORD {
        acc |= m << (i * STRIDE);
        i += 1;
    }
    acc
}

/// Data bits of every lane (guard bits excluded).
const DATA_MASK: u64 = repeat6(LANE_DATA);

/// Legal destinations of a shifted carry: bits 1..=9 of each lane. A
/// carry generated on a guard bit would shift into the next lane's bit
/// 0; masking with this drops it — the per-lane analogue of the scalar
/// adder discarding its carry-out trit.
const CARRY_MASK: u64 = repeat6(0x3FE);

/// Bit 0 of every lane — where the comparison/sign ladders accumulate
/// their per-lane verdicts.
const LSB_MASK: u64 = repeat6(1);

/// One carry-loop round lifted to six lanes at once: identical digit-sum
/// formulas to [`Trits::carrying_add`](crate::Trits::carrying_add), with
/// the shifted carries clipped at lane boundaries. Returns the per-lane
/// wrapped sums, guard bits cleared.
#[inline]
fn add_planes(ap: u64, an: u64, bp: u64, bn: u64) -> (u64, u64) {
    let (mut sp, mut sn) = (ap, an);
    let (mut cp, mut cn) = (bp, bn);
    while cp | cn != 0 {
        let (np, nn, gp, gn) = crate::planes::digit_sum(sp, sn, cp, cn);
        cp = (gp << 1) & CARRY_MASK;
        cn = (gn << 1) & CARRY_MASK;
        sp = np;
        sn = nn;
    }
    (sp & DATA_MASK, sn & DATA_MASK)
}

/// One 3:2 carry-save compression round over six lanes: folds addend
/// `(bp, bn)` into the redundant pair `(s, c)` without propagating any
/// carry. Two applications of the two-digit sum formulas run back to
/// back — `s + c`, then that partial sum plus `b` — and the two round
/// carries merge by pure cancellation: a digit position can never
/// produce two same-sign carries (a `+1` carry forces the partial sum
/// digit to `−1`, which cannot carry `+1` again), so their digit sum
/// is OR minus the positions where they cancel. Dropped bits (lane
/// boundary clips via [`CARRY_MASK`]) are multiples of 3⁹ per lane —
/// exactly the per-lane wrap-around.
#[inline]
fn compress_planes(sp: u64, sn: u64, cp: u64, cn: u64, bp: u64, bn: u64) -> (u64, u64, u64, u64) {
    let (up, un, gp, gn) = crate::planes::compress(sp, sn, cp, cn, bp, bn);
    (up, un, (gp << 1) & CARRY_MASK, (gn << 1) & CARRY_MASK)
}

/// `N` balanced-ternary 9-trit words computed on lane-parallel.
///
/// The lane count is a runtime value (the NN workloads size it to the
/// layer width); storage is two `Vec<u64>` bitplanes of
/// `ceil(N / 6)` words each. Invariants: `pos & neg == 0` bitwise,
/// guard bits are never set between operations, and lanes at or above
/// the lane count are all-zero.
///
/// # Examples
///
/// ```
/// use ternary::{simd::{self, LaneWeights, PackedWeights}, Trit, Word9};
///
/// let ones = LaneWeights::new(&[Trit::P; 8]);
/// let m = PackedWeights::from_columns(&[ones.clone(), ones]);
/// // Eight lanes wrap past +9841 simultaneously.
/// let y = simd::matvec(&[Word9::MAX, Word9::from_i64(1)?], &m);
/// assert!(y.to_words().iter().all(|w| w.to_i64() == -9841));
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word9xN {
    lanes: usize,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl Word9xN {
    /// The all-zero vector of `lanes` lanes.
    pub fn zero(lanes: usize) -> Self {
        let words = lanes.div_ceil(LANES_PER_WORD);
        Self {
            lanes,
            pos: vec![0; words],
            neg: vec![0; words],
        }
    }

    /// Packs a slice of scalar words, one per lane, in order.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{simd::Word9xN, Word9};
    ///
    /// let words: Vec<Word9> = (0..13).map(|v| Word9::from_i64_wrapping(v * v)).collect();
    /// let v = Word9xN::from_words(&words);
    /// assert_eq!(v.lanes(), 13);
    /// assert_eq!(v.to_words(), words); // pack/unpack round-trips
    /// ```
    pub fn from_words(words: &[Word9]) -> Self {
        let mut v = Self::zero(words.len());
        for (i, w) in words.iter().enumerate() {
            let (p, n) = w.bitplanes();
            let shift = (i % LANES_PER_WORD) * STRIDE;
            v.pos[i / LANES_PER_WORD] |= p << shift;
            v.neg[i / LANES_PER_WORD] |= n << shift;
        }
        v
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Extracts lane `i` as a scalar word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.lanes()`.
    #[inline]
    fn lane(&self, i: usize) -> Word9 {
        assert!(
            i < self.lanes,
            "lane {i} out of a {}-lane vector",
            self.lanes
        );
        let shift = (i % LANES_PER_WORD) * STRIDE;
        let p = (self.pos[i / LANES_PER_WORD] >> shift) & LANE_DATA;
        let n = (self.neg[i / LANES_PER_WORD] >> shift) & LANE_DATA;
        Word9::from_bitplanes(p, n).expect("lane planes stay disjoint and in range")
    }

    /// Unpacks every lane back into scalar words, in lane order.
    pub fn to_words(&self) -> Vec<Word9> {
        (0..self.lanes).map(|i| self.lane(i)).collect()
    }

    /// Lane-parallel COMP: each lane's result trit (in its least
    /// significant position, like the scalar
    /// [`Word9::compare`]) is +1 / 0 / −1 as the lane of `self` is
    /// greater / equal / less than the lane of `rhs`.
    ///
    /// Runs the trit-serial comparator of the TALU — most significant
    /// trit first, first difference decides — as a fixed 9-round ladder
    /// over all lanes at once. Use [`Word9xN::lane_lsts`] to read the
    /// verdicts out.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{simd::Word9xN, Trit, Word9};
    ///
    /// let a = Word9xN::from_words(&[Word9::from_i64(5)?, Word9::ZERO, Word9::from_i64(-9)?]);
    /// let b = Word9xN::zero(3);
    /// assert_eq!(a.compare(&b).lane_lsts(), vec![Trit::P, Trit::Z, Trit::N]);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[must_use]
    pub fn compare(&self, rhs: &Self) -> Self {
        assert_eq!(self.lanes, rhs.lanes, "compare requires equal lane counts");
        let mut out = Self::zero(self.lanes);
        for w in 0..self.pos.len() {
            let (ap, an) = (self.pos[w], self.neg[w]);
            let (bp, bn) = (rhs.pos[w], rhs.neg[w]);
            let mut undecided = LSB_MASK;
            let (mut gt, mut lt) = (0u64, 0u64);
            for k in (0..Word9::WIDTH).rev() {
                let apk = (ap >> k) & LSB_MASK;
                let ank = (an >> k) & LSB_MASK;
                let bpk = (bp >> k) & LSB_MASK;
                let bnk = (bn >> k) & LSB_MASK;
                // Per lane-lsb bit: a > b at this trit, or a < b.
                let g = (apk & !bpk) | (!(apk | ank) & bnk);
                let l = (bpk & !apk) | (!(bpk | bnk) & ank);
                gt |= undecided & g;
                lt |= undecided & l;
                undecided &= !(g | l);
            }
            out.pos[w] = gt;
            out.neg[w] = lt;
        }
        out
    }

    /// The least significant trit of every lane — the per-lane branch
    /// condition a [`Word9xN::compare`] result carries.
    pub fn lane_lsts(&self) -> Vec<Trit> {
        (0..self.lanes).map(|i| self.lane(i).lst()).collect()
    }
}

/// A per-lane ternary weight vector in mask form — one column of a
/// [`PackedWeights`] matrix: full-lane masks of the +1 lanes (`pos`)
/// and the −1 lanes (`neg`). Zero-weight lanes appear in neither, so
/// the select clears them.
///
/// # Examples
///
/// ```
/// use ternary::{simd::{self, LaneWeights, PackedWeights}, Trit, Word9};
///
/// let w = LaneWeights::new(&[Trit::P, Trit::Z, Trit::N]);
/// let y = simd::matvec(&[Word9::from_i64(7)?], &PackedWeights::from_columns(&[w]));
/// assert_eq!(
///     y.to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(),
///     vec![7, 0, -7],
/// );
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneWeights {
    lanes: usize,
    pos: Vec<u64>,
    neg: Vec<u64>,
}

impl LaneWeights {
    /// Builds the mask form of a ternary weight vector, one trit per
    /// lane.
    pub fn new(weights: &[Trit]) -> Self {
        let words = weights.len().div_ceil(LANES_PER_WORD);
        let mut pos = vec![0u64; words];
        let mut neg = vec![0u64; words];
        for (i, t) in weights.iter().enumerate() {
            let mask = LANE_DATA << ((i % LANES_PER_WORD) * STRIDE);
            match t {
                Trit::P => pos[i / LANES_PER_WORD] |= mask,
                Trit::N => neg[i / LANES_PER_WORD] |= mask,
                Trit::Z => {}
            }
        }
        Self {
            lanes: weights.len(),
            pos,
            neg,
        }
    }

    /// Number of weight lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

/// A whole ternary weight matrix in *word-major* packed-mask form:
/// for each plane word index, the `(pos, neg)` mask words of every
/// column sit contiguously. [`matvec`] streams these rows strictly
/// sequentially — one flat allocation instead of a pointer chase
/// through per-column [`LaneWeights`] vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWeights {
    lanes: usize,
    cols: usize,
    /// `planes[w * cols + c]` = plane word `w` of column `c`.
    planes: Vec<(u64, u64)>,
}

impl PackedWeights {
    /// Re-packs per-column masks word-major.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty or the columns disagree on lane
    /// count.
    pub fn from_columns(columns: &[LaneWeights]) -> Self {
        assert!(!columns.is_empty(), "a weight matrix needs columns");
        let lanes = columns[0].lanes;
        let words = lanes.div_ceil(LANES_PER_WORD);
        let mut planes = Vec::with_capacity(words * columns.len());
        for w in 0..words {
            for col in columns {
                assert_eq!(
                    col.lanes, lanes,
                    "weight mask built for {} lanes, matrix has {}",
                    col.lanes, lanes
                );
                planes.push((col.pos[w], col.neg[w]));
            }
        }
        Self {
            lanes,
            cols: columns.len(),
            planes,
        }
    }

    /// Number of output lanes (matrix rows).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Number of weight columns (input activations).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
}

/// Word-major carry-save matvec kernel: `Σ_c column_c ⊙ x[c]` over the
/// matrix's output lanes, the fast path of a ternary matrix-vector
/// product. Column-major accumulation (one carry-save round over every
/// plane word per column) streams the whole redundant accumulator
/// through memory on every step; this kernel flips the loop nest so
/// each plane word's sum/carry pair stays in registers across *all*
/// columns — per column-word step only the two packed weight words are
/// loaded (sequentially), everything else is ~30 register-resident
/// logic ops. Three plane words run per pass: each word's compression
/// is one serial dependency chain, so interleaving independent chains
/// multiplies the instruction-level parallelism the host can extract
/// until its ALU ports saturate.
///
/// # Panics
///
/// Panics if `x.len() != weights.cols()`.
///
/// # Examples
///
/// ```
/// use ternary::{simd::{self, LaneWeights, PackedWeights}, Trit, Word9};
///
/// // [ +1 −1 ] [40]   [ 38]
/// // [  0 +1 ] [ 2] = [  2]
/// let m = PackedWeights::from_columns(&[
///     LaneWeights::new(&[Trit::P, Trit::Z]),
///     LaneWeights::new(&[Trit::N, Trit::P]),
/// ]);
/// let y = simd::matvec(&[Word9::from_i64(40)?, Word9::from_i64(2)?], &m);
/// assert_eq!(y.to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(), vec![38, 2]);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[must_use]
pub fn matvec(x: &[Word9], weights: &PackedWeights) -> Word9xN {
    assert_eq!(
        x.len(),
        weights.cols,
        "one input activation per weight column"
    );
    // Broadcast every activation once, up front.
    let splats: Vec<(u64, u64)> = x
        .iter()
        .map(|w| {
            let (p, n) = w.bitplanes();
            (repeat6(p), repeat6(n))
        })
        .collect();
    let mut out = Word9xN::zero(weights.lanes);
    let words = out.pos.len();
    let mut w = 0;
    // Passes of 3 or 4 plane words, never leaving a lone serial word:
    // 7 words run as 3 + 4, 8 as 3 + 3 + 2, and so on.
    let mut rem = words;
    while rem >= 5 {
        matvec_pass::<3>(&splats, weights, w, &mut out);
        w += 3;
        rem -= 3;
    }
    match rem {
        4 => matvec_pass::<4>(&splats, weights, w, &mut out),
        3 => matvec_pass::<3>(&splats, weights, w, &mut out),
        2 => matvec_pass::<2>(&splats, weights, w, &mut out),
        1 => matvec_pass::<1>(&splats, weights, w, &mut out),
        _ => {}
    }
    out
}

/// One [`matvec`] pass over plane words `w .. w + K`: `K` independent
/// compression chains interleaved so the host can overlap them.
#[inline(always)]
fn matvec_pass<const K: usize>(
    splats: &[(u64, u64)],
    weights: &PackedWeights,
    w: usize,
    out: &mut Word9xN,
) {
    let cols = weights.cols;
    let rows: [&[(u64, u64)]; K] =
        core::array::from_fn(|k| &weights.planes[(w + k) * cols..(w + k + 1) * cols]);
    let mut s = [[0u64; 4]; K];
    for (c, &(rp, rn)) in splats.iter().enumerate() {
        for k in 0..K {
            let (p, n) = rows[k][c];
            s[k] = compress_step(s[k], rp, rn, p, n);
        }
    }
    for (k, &[sp, sn, cp, cn]) in s.iter().enumerate() {
        (out.pos[w + k], out.neg[w + k]) = add_planes(sp, sn, cp, cn);
    }
}

/// One weight-select + 3:2 compression round on a packed `[sp, sn,
/// cp, cn]` accumulator state — the register-resident inner step of
/// [`matvec`].
#[inline(always)]
fn compress_step(s: [u64; 4], rp: u64, rn: u64, wp: u64, wn: u64) -> [u64; 4] {
    let bp = (rp & wp) | (rn & wn);
    let bn = (rn & wp) | (rp & wn);
    let (sp, sn, cp, cn) = compress_planes(s[0], s[1], s[2], s[3], bp, bn);
    [sp, sn, cp, cn]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{arith, pow3, ALL_TRITS};

    /// The adversarial value pool: every ±3^k carry corner, the range
    /// extremes, and their neighbours.
    fn corners() -> Vec<i64> {
        let mut v = vec![0, 1, -1, 9841, -9841, 9840, -9840];
        for k in 0..9 {
            let p = pow3(k);
            v.extend([p, -p, p - 1, -(p - 1), (p - 1) / 2, -(p - 1) / 2]);
        }
        v
    }

    fn pack(values: &[i64]) -> Word9xN {
        Word9xN::from_words(
            &values
                .iter()
                .map(|&v| Word9::from_i64_wrapping(v))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn pack_unpack_roundtrip_at_awkward_lane_counts() {
        for lanes in [0usize, 1, 5, 6, 7, 12, 13, 20] {
            let words: Vec<Word9> = (0..lanes as i64)
                .map(|v| Word9::from_i64_wrapping(v * 1103 - 5000))
                .collect();
            let v = Word9xN::from_words(&words);
            assert_eq!(v.lanes(), lanes);
            assert_eq!(v.to_words(), words);
        }
    }

    #[test]
    fn add_matches_scalar_on_all_corner_pairs() {
        // Nine lanes take every signed combination ±a ±b of a corner
        // pair (zero weights included), so the lane adder meets every
        // carry corner as a sum, a difference and a negation.
        let signs: Vec<(Trit, Trit)> = ALL_TRITS
            .iter()
            .flat_map(|&u| ALL_TRITS.map(|v| (u, v)))
            .collect();
        let m = PackedWeights::from_columns(&[
            LaneWeights::new(&signs.iter().map(|s| s.0).collect::<Vec<_>>()),
            LaneWeights::new(&signs.iter().map(|s| s.1).collect::<Vec<_>>()),
        ]);
        let term = |w: Word9, t: Trit| match t {
            Trit::P => w,
            Trit::Z => Word9::ZERO,
            Trit::N => w.negate(),
        };
        let c = corners();
        for &a in &c {
            for &b in &c {
                let (wa, wb) = (Word9::from_i64_wrapping(a), Word9::from_i64_wrapping(b));
                let y = matvec(&[wa, wb], &m);
                for (i, &(u, v)) in signs.iter().enumerate() {
                    let expect = term(wa, u).wrapping_add(term(wb, v));
                    assert_eq!(y.lane(i), expect, "lane {i}: {u:?}·{a} + {v:?}·{b}");
                }
            }
        }
    }

    #[test]
    fn sub_and_negate_match_scalar() {
        // Lane 0 weighs (+1, −1) for a − b; lane 1 weighs (−1, 0) for −a.
        let m = PackedWeights::from_columns(&[
            LaneWeights::new(&[Trit::P, Trit::N]),
            LaneWeights::new(&[Trit::N, Trit::Z]),
        ]);
        let c = corners();
        for (&a, &b) in c.iter().zip(c.iter().rev()) {
            let (wa, wb) = (Word9::from_i64_wrapping(a), Word9::from_i64_wrapping(b));
            let y = matvec(&[wa, wb], &m);
            assert_eq!(y.lane(0), wa.wrapping_sub(wb), "{a} - {b}");
            assert_eq!(y.lane(1), wa.negate(), "-{a}");
        }
    }

    #[test]
    fn compare_matches_scalar_comp() {
        let c = corners();
        let rev: Vec<i64> = c.iter().rev().copied().collect();
        let a = pack(&c);
        let b = pack(&rev);
        let cmp = a.compare(&b);
        for i in 0..c.len() {
            let wa = Word9::from_i64_wrapping(c[i]);
            let wb = Word9::from_i64_wrapping(rev[i]);
            assert_eq!(cmp.lane(i).lst(), wa.compare(wb).lst(), "lane {i}");
        }
    }

    #[test]
    fn carries_never_leak_between_lanes() {
        // Neighbouring lanes at the extremes: every lane must wrap
        // independently, as if computed scalar. Lane values are
        // ±MAX + (±1 or ±MAX), built from three weight columns.
        let (p, z, n) = (Trit::P, Trit::Z, Trit::N);
        let m = PackedWeights::from_columns(&[
            LaneWeights::new(&[p, p, n, n, p, n, p]),
            LaneWeights::new(&[p, z, n, z, z, z, p]),
            LaneWeights::new(&[z, p, z, n, n, p, z]),
        ]);
        let y = matvec(&[Word9::MAX, Word9::from_i64(1).unwrap(), Word9::MAX], &m);
        let expect = [-9841, -1, 9841, 1, 0, 0, -9841];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(y.lane(i).to_i64(), e, "lane {i}");
        }
    }

    #[test]
    #[should_panic(expected = "equal lane counts")]
    fn mismatched_lane_counts_panic() {
        let _ = Word9xN::zero(3).compare(&Word9xN::zero(4));
    }

    #[test]
    fn matvec_wraps_every_lane_at_every_pass_shape() {
        // 1..=54 lanes are 1..=9 plane words: every pass width (1 to 4
        // words) and every 3 + … split runs. Saturated activations on
        // all-+1 and all-−1 columns add ±MAX to every lane six times, so
        // every lane wraps; a last column cycling +1/0/−1 across lanes
        // keeps neighbours apart, so a carry leaking over a lane
        // boundary cannot hide.
        let x = [
            Word9::MAX,
            Word9::MAX,
            Word9::MIN,
            Word9::MAX,
            Word9::MAX,
            Word9::MIN,
            Word9::MIN,
        ];
        for lanes in 1..=54 {
            let mut columns: Vec<Vec<Trit>> = (0..6)
                .map(|c| vec![if c % 3 == 2 { Trit::N } else { Trit::P }; lanes])
                .collect();
            columns.push((0..lanes).map(|l| ALL_TRITS[l % 3]).collect());
            let masks: Vec<LaneWeights> = columns.iter().map(|w| LaneWeights::new(w)).collect();
            let y = matvec(&x, &PackedWeights::from_columns(&masks)).to_words();
            let chained = columns
                .iter()
                .zip(&x)
                .fold(vec![Word9::ZERO; lanes], |acc, (w, &xc)| {
                    arith::mac_lanewise(&acc, &vec![xc; lanes], w)
                });
            assert_eq!(y, chained, "{lanes} lanes");
            for l in 0..lanes {
                let exact: i64 = columns
                    .iter()
                    .zip(&x)
                    .map(|(w, xc)| i64::from(w[l].value()) * xc.to_i64())
                    .sum();
                assert!(exact.abs() > Word9::MAX.to_i64(), "lane {l} must wrap");
            }
        }
    }
}
