//! Bitplane-SIMD lanes: many 9-trit words computed on at once.
//!
//! [`Word9xN`] packs `N` [`Word9`] lanes across wide `pos`/`neg`
//! bitplanes (a `Vec<u64>` per plane) and lifts the word-level kernels
//! of [`Word9`] to every lane simultaneously. Each lane occupies
//! a 10-bit stride — 9 data bits plus one *guard* bit — so six lanes
//! share one `u64` and the word-parallel carry loop of
//! [`Trits::carrying_add`](crate::Trits::carrying_add) runs unchanged
//! across all of them: a carry rippling out of a lane's top trit lands
//! on the guard bit and is masked off before it can leak into the
//! neighbouring lane, which is exactly the per-lane wrap-around the
//! scalar adder implements by discarding its carry-out.
//!
//! The headline operation is the ternary-weight multiply-accumulate
//! ([`Word9xN::mac`]): a weight in {−1, 0, +1} per lane multiplies by
//! selecting the negated planes (swap), nothing (zero), or the original
//! planes — pure masking, no per-trit loops anywhere. This is the host
//! mirror of in-memory associative processing (Hout et al.,
//! arXiv:2110.09643), and the substrate for the ternary-NN workloads
//! in the `workloads` crate.
//!
//! Every lane operation has a per-lane reference built from the
//! per-trit algorithms in [`crate::arith`]; property tests pin the two
//! to each other (see `tests/properties.rs` and the `--oracle simd`
//! fuzz campaign).
//!
//! # Examples
//!
//! ```
//! use ternary::{simd::Word9xN, Trit, Word9};
//!
//! let x = Word9xN::from_words(&[
//!     Word9::from_i64(100)?,
//!     Word9::from_i64(-42)?,
//!     Word9::from_i64(9841)?,
//! ]);
//! let acc = Word9xN::zero(3);
//! // One MAC: every lane picks +x, −x or 0 by weight, then adds.
//! let acc = acc.mac_trits(&x, &[Trit::P, Trit::N, Trit::Z]);
//! assert_eq!(
//!     acc.to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(),
//!     vec![100, 42, 0],
//! );
//! assert_eq!(acc.reduce_add().to_i64(), 142);
//! # Ok::<(), ternary::TernaryError>(())
//! ```

use crate::trit::Trit;
use crate::word::Word9;

/// Bits per lane: 9 data trit-bits plus one guard bit for the adder's
/// per-lane carry-out.
const STRIDE: usize = 10;

/// Lanes packed into each `u64` of a plane (6 × 10 bits; the top 4 bits
/// of every plane word are never set).
pub const LANES_PER_WORD: usize = 6;

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
/// use ternary::{simd::Word9xN, Word9};
///
/// let a = Word9xN::splat(Word9::from_i64(9841)?, 8);
/// let b = Word9xN::splat(Word9::from_i64(1)?, 8);
/// // Eight lanes wrap past +9841 simultaneously.
/// assert!(a.wrapping_add(&b).to_words().iter().all(|w| w.to_i64() == -9841));
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

    /// Broadcasts one scalar word into every lane.
    pub fn splat(w: Word9, lanes: usize) -> Self {
        let (p, n) = w.bitplanes();
        let (full_p, full_n) = (repeat6(p), repeat6(n));
        let mut v = Self::zero(lanes);
        for i in 0..v.pos.len() {
            v.pos[i] = full_p;
            v.neg[i] = full_n;
        }
        // Clear the inactive tail lanes of the last plane word.
        if let Some(mask) = tail_mask(lanes) {
            if let (Some(p), Some(n)) = (v.pos.last_mut(), v.neg.last_mut()) {
                *p &= mask;
                *n &= mask;
            }
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
    pub fn lane(&self, i: usize) -> Word9 {
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

    /// Lane-parallel negation (trit-wise STI): one plane swap for all
    /// lanes, exactly like the scalar [`Word9::negate`].
    #[must_use]
    pub fn negate(&self) -> Self {
        Self {
            lanes: self.lanes,
            pos: self.neg.clone(),
            neg: self.pos.clone(),
        }
    }

    /// Lane-parallel ternary AND (minimum), every lane at once.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    #[must_use]
    pub fn and(&self, rhs: &Self) -> Self {
        self.zip(rhs, |ap, an, bp, bn| (ap & bp, an | bn))
    }

    /// Lane-parallel ternary OR (maximum), every lane at once.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    #[must_use]
    pub fn or(&self, rhs: &Self) -> Self {
        self.zip(rhs, |ap, an, bp, bn| (ap | bp, an & bn))
    }

    /// Lane-parallel ternary XOR (`−(a·b)` per trit), every lane at once.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    #[must_use]
    pub fn xor(&self, rhs: &Self) -> Self {
        self.zip(rhs, |ap, an, bp, bn| {
            ((ap & bn) | (an & bp), (ap & bp) | (an & bn))
        })
    }

    /// Lane-parallel wrapping addition: the word-parallel carry loop of
    /// the scalar adder run across all lanes at once, with carries
    /// clipped at lane boundaries (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{simd::Word9xN, Word9};
    ///
    /// let a = Word9xN::from_words(&[Word9::from_i64(9841)?, Word9::from_i64(-3)?]);
    /// let b = Word9xN::from_words(&[Word9::from_i64(1)?, Word9::from_i64(-9841)?]);
    /// let s = a.wrapping_add(&b);
    /// assert_eq!(s.lane(0).to_i64(), -9841); // wrapped, no leak into lane 1
    /// assert_eq!(s.lane(1).to_i64(), 9839);  // wrapped the other way
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[must_use]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.zip(rhs, add_planes)
    }

    /// Lane-parallel wrapping subtraction: `a − b = a + STI(b)`, the
    /// plane swap making per-lane negation free.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts differ.
    #[must_use]
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.zip(rhs, |ap, an, bp, bn| add_planes(ap, an, bn, bp))
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
    /// let b = Word9xN::splat(Word9::ZERO, 3);
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

    /// Per-lane multiply by a ternary weight: −1 swaps the lane's
    /// planes, 0 clears them, +1 passes them through — four ANDs and
    /// two ORs per plane word, no arithmetic at all.
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different lane count.
    #[must_use]
    fn weight_select(&self, weights: &LaneWeights) -> Self {
        assert_eq!(
            self.lanes, weights.lanes,
            "weight mask built for {} lanes, vector has {}",
            weights.lanes, self.lanes
        );
        let mut out = Self::zero(self.lanes);
        for w in 0..self.pos.len() {
            out.pos[w] = (self.pos[w] & weights.pos[w]) | (self.neg[w] & weights.neg[w]);
            out.neg[w] = (self.neg[w] & weights.pos[w]) | (self.pos[w] & weights.neg[w]);
        }
        out
    }

    /// Ternary-weight multiply-accumulate: `self + w ⊙ x` with
    /// `w ∈ {−1, 0, +1}` per lane — a per-lane weight select (a plane
    /// swap or clear) followed by one lane-parallel add. This is the inner loop of the
    /// ternary-NN matmul: one call per input activation updates every
    /// output lane.
    ///
    /// # Panics
    ///
    /// Panics if the lane counts disagree.
    #[must_use]
    pub fn mac(&self, x: &Self, weights: &LaneWeights) -> Self {
        self.wrapping_add(&x.weight_select(weights))
    }

    /// In-place MAC of a *broadcast* scalar: `self += w ⊙ splat(x)`,
    /// fused so the inner loop of a ternary matvec touches each plane
    /// word once and allocates nothing. The weight masks already clear
    /// inactive tail lanes, so no explicit splat (or tail masking) is
    /// materialized.
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different lane count.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{simd::{LaneWeights, Word9xN}, Trit, Word9};
    ///
    /// let mut acc = Word9xN::zero(3);
    /// acc.mac_splat(Word9::from_i64(40)?, &LaneWeights::new(&[Trit::P, Trit::N, Trit::Z]));
    /// acc.mac_splat(Word9::from_i64(2)?, &LaneWeights::new(&[Trit::P, Trit::P, Trit::N]));
    /// assert_eq!(
    ///     acc.to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(),
    ///     vec![42, -38, -2],
    /// );
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    pub fn mac_splat(&mut self, x: Word9, weights: &LaneWeights) {
        assert_eq!(
            self.lanes, weights.lanes,
            "weight mask built for {} lanes, accumulator has {}",
            weights.lanes, self.lanes
        );
        let (p, n) = x.bitplanes();
        let (rp, rn) = (repeat6(p), repeat6(n));
        for w in 0..self.pos.len() {
            let bp = (rp & weights.pos[w]) | (rn & weights.neg[w]);
            let bn = (rn & weights.pos[w]) | (rp & weights.neg[w]);
            (self.pos[w], self.neg[w]) = add_planes(self.pos[w], self.neg[w], bp, bn);
        }
    }

    /// [`Word9xN::mac`] with the weight mask built on the fly; prefer
    /// pre-building a [`LaneWeights`] when the same weights are reused.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len()` differs from the lane count.
    #[must_use]
    pub fn mac_trits(&self, x: &Self, weights: &[Trit]) -> Self {
        self.mac(x, &LaneWeights::new(weights))
    }

    /// Horizontal reduce: the wrapping sum of every lane as one scalar
    /// word. Plane words are folded lane-parallel first (six lanes per
    /// round), then the final six lanes are summed scalar.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{simd::Word9xN, Word9};
    ///
    /// let v = Word9xN::from_words(
    ///     &(1..=20).map(Word9::from_i64).collect::<Result<Vec<_>, _>>()?,
    /// );
    /// assert_eq!(v.reduce_add().to_i64(), 210);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    pub fn reduce_add(&self) -> Word9 {
        let (mut ap, mut an) = (0u64, 0u64);
        for w in 0..self.pos.len() {
            (ap, an) = add_planes(ap, an, self.pos[w], self.neg[w]);
        }
        let mut acc = Word9::ZERO;
        for l in 0..LANES_PER_WORD {
            let shift = l * STRIDE;
            let lane = Word9::from_bitplanes((ap >> shift) & LANE_DATA, (an >> shift) & LANE_DATA)
                .expect("fold keeps planes disjoint");
            acc = acc.wrapping_add(lane);
        }
        acc
    }

    /// Applies `f` to corresponding plane words of two equal-length
    /// vectors.
    fn zip(&self, rhs: &Self, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) -> Self {
        assert_eq!(
            self.lanes, rhs.lanes,
            "lane-parallel ops require equal lane counts"
        );
        let mut out = Self::zero(self.lanes);
        for w in 0..self.pos.len() {
            (out.pos[w], out.neg[w]) = f(self.pos[w], self.neg[w], rhs.pos[w], rhs.neg[w]);
        }
        out
    }
}

/// Mask keeping only the active lanes of the *last* plane word, or
/// `None` when every lane of it is active.
fn tail_mask(lanes: usize) -> Option<u64> {
    let tail = lanes % LANES_PER_WORD;
    if lanes == 0 || tail == 0 {
        return None;
    }
    let mut m = 0u64;
    for i in 0..tail {
        m |= LANE_DATA << (i * STRIDE);
    }
    Some(m)
}

/// A per-lane ternary weight vector in mask form, precomputed once and
/// reused across [`Word9xN::mac`] calls: full-lane masks of the +1
/// lanes (`pos`) and the −1 lanes (`neg`). Zero-weight lanes appear in
/// neither, so the select clears them.
///
/// # Examples
///
/// ```
/// use ternary::{simd::{LaneWeights, Word9xN}, Trit, Word9};
///
/// let w = LaneWeights::new(&[Trit::P, Trit::Z, Trit::N]);
/// let x = Word9xN::splat(Word9::from_i64(7)?, 3);
/// let y = Word9xN::zero(3).mac(&x, &w);
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
/// product. Column-major accumulation ([`CsaAccumulator`] driven one
/// `mac_splat` per column) streams the whole redundant accumulator
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

/// Carry-save MAC accumulator: the lanes are held as a *redundant*
/// sum/carry pair so each [`CsaAccumulator::mac_splat`] step is one 3:2
/// compression round — a fixed ~20 logic ops per plane word, **no**
/// carry-propagation loop. Only [`CsaAccumulator::resolve`] pays for a
/// full lane-parallel add, once, after the whole dot-product chain.
///
/// This is the balanced-ternary analogue of a binary carry-save adder
/// tree and the intended accumulator for long MAC chains (the ternary-NN
/// matvec inner loop); for a handful of adds, [`Word9xN::mac_splat`] is
/// simpler and just as fast.
///
/// # Examples
///
/// ```
/// use ternary::{simd::{CsaAccumulator, LaneWeights, Word9xN}, Trit, Word9};
///
/// let mut acc = CsaAccumulator::zero(3);
/// acc.mac_splat(Word9::from_i64(40)?, &LaneWeights::new(&[Trit::P, Trit::N, Trit::Z]));
/// acc.mac_splat(Word9::from_i64(2)?, &LaneWeights::new(&[Trit::P, Trit::P, Trit::N]));
/// assert_eq!(
///     acc.resolve().to_words().iter().map(Word9::to_i64).collect::<Vec<_>>(),
///     vec![42, -38, -2],
/// );
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CsaAccumulator {
    lanes: usize,
    /// Redundant pair: the true lane value is `s + c` (wrapping).
    sp: Vec<u64>,
    sn: Vec<u64>,
    cp: Vec<u64>,
    cn: Vec<u64>,
}

impl CsaAccumulator {
    /// An all-zero accumulator over `lanes` lanes.
    #[must_use]
    pub fn zero(lanes: usize) -> Self {
        let words = lanes.div_ceil(LANES_PER_WORD);
        Self {
            lanes,
            sp: vec![0; words],
            sn: vec![0; words],
            cp: vec![0; words],
            cn: vec![0; words],
        }
    }

    /// Number of lanes.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Carry-save MAC of a broadcast scalar: `self += w ⊙ splat(x)` as
    /// one compression round per plane word. The weight masks clear
    /// inactive tail lanes, so nothing leaks past [`Self::lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different lane count.
    pub fn mac_splat(&mut self, x: Word9, weights: &LaneWeights) {
        assert_eq!(
            self.lanes, weights.lanes,
            "weight mask built for {} lanes, accumulator has {}",
            weights.lanes, self.lanes
        );
        let (p, n) = x.bitplanes();
        let (rp, rn) = (repeat6(p), repeat6(n));
        for w in 0..self.sp.len() {
            let bp = (rp & weights.pos[w]) | (rn & weights.neg[w]);
            let bn = (rn & weights.pos[w]) | (rp & weights.neg[w]);
            (self.sp[w], self.sn[w], self.cp[w], self.cn[w]) =
                compress_planes(self.sp[w], self.sn[w], self.cp[w], self.cn[w], bp, bn);
        }
    }

    /// Collapses the redundant pair into a plain vector with one full
    /// carry-propagating add per plane word.
    #[must_use]
    pub fn resolve(&self) -> Word9xN {
        let mut out = Word9xN::zero(self.lanes);
        for w in 0..self.sp.len() {
            (out.pos[w], out.neg[w]) = add_planes(self.sp[w], self.sn[w], self.cp[w], self.cn[w]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pow3;

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
        let c = corners();
        let a = pack(&c);
        for &offset in &c {
            let shifted: Vec<i64> = c.iter().map(|&v| v.wrapping_add(offset)).collect();
            let b = pack(&shifted);
            let sum = a.wrapping_add(&b);
            for (i, (&x, &y)) in c.iter().zip(&shifted).enumerate() {
                let expect = Word9::from_i64_wrapping(x).wrapping_add(Word9::from_i64_wrapping(y));
                assert_eq!(sum.lane(i), expect, "lane {i}: {x} + {y}");
            }
        }
    }

    #[test]
    fn carries_never_leak_between_lanes() {
        // Neighbouring lanes at the extremes: every lane must wrap
        // independently, as if computed scalar.
        let a = pack(&[9841, 9841, -9841, -9841, 9841, -9841, 9841]);
        let b = pack(&[1, 9841, -1, -9841, -9841, 9841, 1]);
        let s = a.wrapping_add(&b);
        let expect = [-9841, -1, 9841, 1, 0, 0, -9841];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(s.lane(i).to_i64(), e, "lane {i}");
        }
    }

    #[test]
    fn sub_and_negate_match_scalar() {
        let c = corners();
        let a = pack(&c);
        let rev: Vec<i64> = c.iter().rev().copied().collect();
        let b = pack(&rev);
        let d = a.wrapping_sub(&b);
        let n = a.negate();
        for i in 0..c.len() {
            let wa = Word9::from_i64_wrapping(c[i]);
            let wb = Word9::from_i64_wrapping(rev[i]);
            assert_eq!(d.lane(i), wa.wrapping_sub(wb));
            assert_eq!(n.lane(i), wa.negate());
        }
    }

    #[test]
    fn logic_matches_scalar() {
        let c = corners();
        let rev: Vec<i64> = c.iter().rev().copied().collect();
        let a = pack(&c);
        let b = pack(&rev);
        for i in 0..c.len() {
            let wa = Word9::from_i64_wrapping(c[i]);
            let wb = Word9::from_i64_wrapping(rev[i]);
            assert_eq!(a.and(&b).lane(i), wa.and(wb), "and lane {i}");
            assert_eq!(a.or(&b).lane(i), wa.or(wb), "or lane {i}");
            assert_eq!(a.xor(&b).lane(i), wa.xor(wb), "xor lane {i}");
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
    fn mac_applies_each_weight_kind() {
        let x = pack(&[11, 12, 13, 14, 15, 16, 17]);
        let weights = [
            Trit::P,
            Trit::N,
            Trit::Z,
            Trit::P,
            Trit::N,
            Trit::Z,
            Trit::P,
        ];
        let acc = Word9xN::splat(Word9::from_i64(100).unwrap(), 7);
        let out = acc.mac_trits(&x, &weights);
        let expect = [111, 88, 100, 114, 85, 100, 117];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(out.lane(i).to_i64(), e, "lane {i}");
        }
    }

    #[test]
    fn mac_splat_agrees_with_mac_of_an_explicit_splat() {
        let weights: Vec<Trit> = (0..13)
            .map(|i| match i % 3 {
                0 => Trit::P,
                1 => Trit::N,
                _ => Trit::Z,
            })
            .collect();
        let masks = LaneWeights::new(&weights);
        for &x in &[0i64, 1, -1, 9841, -9841, 3280, -4921] {
            let xw = Word9::from_i64_wrapping(x);
            let acc = pack(&(0..13).map(|i| i * 731 - 4000).collect::<Vec<_>>());
            let via_splat = acc.mac(&Word9xN::splat(xw, 13), &masks);
            let mut fused = acc.clone();
            fused.mac_splat(xw, &masks);
            assert_eq!(fused, via_splat, "x = {x}");
        }
    }

    #[test]
    fn all_zero_weights_are_the_identity_mac() {
        let x = pack(&corners());
        let acc = pack(&corners().iter().map(|v| v / 2).collect::<Vec<_>>());
        let w = vec![Trit::Z; x.lanes()];
        assert_eq!(acc.mac_trits(&x, &w), acc);
    }

    #[test]
    fn reduce_add_matches_wrapped_integer_sum() {
        for values in [
            vec![],
            vec![9841],
            vec![9841, 9841, 9841],
            corners(),
            (0..23).map(|i| i * 997 - 9000).collect(),
        ] {
            let total: i64 = values
                .iter()
                .map(|&v| Word9::from_i64_wrapping(v).to_i64())
                .sum();
            assert_eq!(
                pack(&values).reduce_add(),
                Word9::from_i64_wrapping(total),
                "{values:?}"
            );
        }
    }

    #[test]
    fn splat_fills_every_lane_and_masks_the_tail() {
        for lanes in [1usize, 6, 7, 11] {
            let v = Word9xN::splat(Word9::from_i64(-1234).unwrap(), lanes);
            assert_eq!(v.lanes(), lanes);
            assert!(v.to_words().iter().all(|w| w.to_i64() == -1234));
            // Inactive tail lanes stay zero so reduce sees nothing extra.
            assert_eq!(
                v.reduce_add().to_i64(),
                Word9::from_i64_wrapping(-1234 * lanes as i64).to_i64()
            );
        }
    }

    #[test]
    #[should_panic(expected = "equal lane counts")]
    fn mismatched_lane_counts_panic() {
        let _ = Word9xN::zero(3).wrapping_add(&Word9xN::zero(4));
    }

    #[test]
    fn csa_chain_matches_carry_propagating_chain() {
        // A long MAC chain over adversarial scalars: the carry-save
        // accumulator must resolve to exactly what the plain
        // carry-propagating mac_splat chain produces, at lane counts
        // that exercise the word tail.
        for lanes in [1usize, 5, 6, 7, 13] {
            let mut csa = CsaAccumulator::zero(lanes);
            let mut plain = Word9xN::zero(lanes);
            let mut seed = 0x9e37_79b9_7f4a_7c15u64;
            for (step, &x) in corners().iter().enumerate() {
                let weights: Vec<Trit> = (0..lanes)
                    .map(|i| {
                        seed = seed
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        match (seed >> 33).wrapping_add((step + i) as u64) % 3 {
                            0 => Trit::P,
                            1 => Trit::N,
                            _ => Trit::Z,
                        }
                    })
                    .collect();
                let masks = LaneWeights::new(&weights);
                let xw = Word9::from_i64_wrapping(x);
                csa.mac_splat(xw, &masks);
                plain.mac_splat(xw, &masks);
                assert_eq!(csa.resolve(), plain, "lanes {lanes}, step {step} (x = {x})");
            }
        }
    }

    #[test]
    fn csa_saturating_same_sign_chain_wraps_per_lane() {
        // Repeatedly adding MAX drives every digit through its deepest
        // carry chains; the redundant pair must still wrap per lane.
        let masks = LaneWeights::new(&[
            Trit::P,
            Trit::N,
            Trit::P,
            Trit::Z,
            Trit::P,
            Trit::N,
            Trit::P,
        ]);
        let mut csa = CsaAccumulator::zero(7);
        let mut expect = Word9xN::zero(7);
        for _ in 0..50 {
            csa.mac_splat(Word9::MAX, &masks);
            expect.mac_splat(Word9::MAX, &masks);
        }
        assert_eq!(csa.resolve(), expect);
        assert_eq!(csa.lanes(), 7);
    }

    #[test]
    #[should_panic(expected = "weight mask built for")]
    fn csa_lane_mismatch_panics() {
        CsaAccumulator::zero(3).mac_splat(Word9::ZERO, &LaneWeights::new(&[Trit::P; 4]));
    }
}
