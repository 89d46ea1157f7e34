//! Fixed-width balanced-ternary words ([`Trits<N>`]) and the 9-trit
//! machine word ([`Word9`]) of the ART-9 processor.
//!
//! A word stores its trits little-endian: index 0 is the least significant
//! trit (LST in the paper's terminology). An `N`-trit balanced word covers
//! the symmetric integer range `[-(3^N-1)/2, +(3^N-1)/2]`; for the ART-9
//! machine word (`N = 9`) that is −9841..=9841.
//!
//! Arithmetic wraps modulo `3^N` onto the symmetric range — the balanced
//! analogue of two's-complement wrap-around — which is exactly what a
//! ripple-carry ternary adder that discards its carry-out computes.
//!
//! ## Packed representation
//!
//! Since PR 2 a word is **not** stored as an array of [`Trit`] enums but
//! as two binary *bitplanes* (see `docs/PERFORMANCE.md`):
//!
//! * `pos` — bit `i` set ⇔ trit `i` is +1,
//! * `neg` — bit `i` set ⇔ trit `i` is −1,
//!
//! with the invariant `pos & neg == 0` and both masked to the low `N`
//! bits. This is the software mirror of the paper's binary-coded-ternary
//! FPGA mapping (§III-B): every trit-wise operation becomes a handful of
//! word-level boolean instructions instead of an `N`-step loop, and
//! negation is a single plane swap. The per-trit reference algorithms
//! are retained in [`crate::arith`] and property-tested equivalent.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, Neg, Sub};
use std::str::FromStr;

use crate::error::TernaryError;
use crate::planes;
use crate::trit::Trit;

/// Returns 3^n as an `i64`.
///
/// # Panics
///
/// Panics if `n > 39` (3^40 overflows `i64`).
#[inline]
pub const fn pow3(n: usize) -> i64 {
    assert!(n <= 39, "3^n overflows i64 for n > 39");
    let mut acc = 1i64;
    let mut i = 0;
    while i < n {
        acc *= 3;
        i += 1;
    }
    acc
}

/// The population count of every 9-bit value: the trits that differ in
/// one 9-trit chunk of a differing-trit mask ([`Trits::flips_from`]).
static FLIPS_9: [u8; 512] = {
    let mut table = [0; 512];
    let mut i = 0;
    while i < 512 {
        table[i] = (i as u32).count_ones() as u8;
        i += 1;
    }
    table
};

/// A fixed-width balanced-ternary word of `N` trits, little-endian,
/// stored as two packed binary bitplanes (`pos`/`neg`, one bit per trit).
///
/// The workhorse instantiation is [`Word9`], the ART-9 machine word; the
/// assembler and the gate-level analyzer also use narrower widths for
/// instruction fields (e.g. `Trits<2>` register indices, `Trits<5>`
/// immediates).
///
/// Widths are bounded to `N ≤ 20` at compile time, far inside the
/// `i64` range, so every conversion computes exactly in `i64`. The
/// machine word is 9 trits wide.
///
/// # Examples
///
/// ```
/// use ternary::{Trit, Word9};
///
/// let a = Word9::from_i64(100)?;
/// let b = Word9::from_i64(-42)?;
/// assert_eq!((a + b).to_i64(), 58);
/// assert_eq!((-a).to_i64(), -100);
/// assert_eq!(a.trit(0), Trit::P); // 100 = +1 -1 0 +1 0 +1 reading down
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Trits<const N: usize> {
    /// Bit `i` set ⇔ trit `i` = +1. Disjoint from `neg`, masked to `N` bits.
    pos: u64,
    /// Bit `i` set ⇔ trit `i` = −1. Disjoint from `pos`, masked to `N` bits.
    neg: u64,
}

/// The 9-trit machine word of the ART-9 processor (range −9841..=9841).
///
/// # Examples
///
/// ```
/// use ternary::Word9;
///
/// // Exact round-trip inside the 9-trit range…
/// let w = Word9::from_i64(-4821)?;
/// assert_eq!(w.to_i64(), -4821);
/// assert_eq!(w.to_string().parse::<Word9>()?, w);
///
/// // …and modular wrapping outside it (symmetric, ±9841).
/// assert_eq!(Word9::from_i64_wrapping(9842).to_i64(), -9841);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub type Word9 = Trits<9>;

impl<const N: usize> Default for Trits<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

/// The `(pos, neg)` bitplanes of the three balanced trits `d − 1` of
/// each base-3 digit `d` of `0..27`, low digit first.
const TRIPLES: [(u8, u8); 27] = {
    let mut table = [(0u8, 0u8); 27];
    let mut v = 0;
    while v < 27 {
        let (mut x, mut k) = (v, 0);
        while k < 3 {
            match x % 3 {
                0 => table[v].1 |= 1 << k,
                2 => table[v].0 |= 1 << k,
                _ => {}
            }
            x /= 3;
            k += 1;
        }
        v += 1;
    }
    table
};

/// The value of a 3-trit chunk, indexed by `pos | neg << 3` of its
/// bitplanes (indices with a bit set in both planes never occur).
const CHUNK_VALUES: [i8; 64] = {
    // The value of a 3-bit plane read as base-3 digits 0/1.
    const fn plane(bits: usize) -> i8 {
        (bits & 1) as i8 + 3 * ((bits >> 1) & 1) as i8 + 9 * ((bits >> 2) & 1) as i8
    }
    let mut table = [0i8; 64];
    let mut i = 0;
    while i < 64 {
        table[i] = plane(i & 7) - plane(i >> 3);
        i += 1;
    }
    table
};

impl<const N: usize> Trits<N> {
    /// Low-`N`-bits mask both bitplanes are kept under.
    const MASK: u64 = {
        assert!(N <= 20, "Trits<N> supports at most 20 trits");
        (1u64 << N) - 1
    };

    /// The all-zero word.
    pub const ZERO: Self = Self { pos: 0, neg: 0 };

    /// The most positive representable word, `(3^N − 1) / 2` (all trits +1).
    pub const MAX: Self = Self {
        pos: Self::MASK,
        neg: 0,
    };

    /// The most negative representable word, `−(3^N − 1) / 2` (all trits −1).
    pub const MIN: Self = Self {
        pos: 0,
        neg: Self::MASK,
    };

    /// Number of distinct values, `3^N`.
    pub const MODULUS: i64 = {
        // Naming MASK applies its width bound to every conversion.
        let _ = Self::MASK;
        pow3(N)
    };

    /// Largest magnitude representable: `(3^N − 1) / 2`.
    pub const MAX_VALUE: i64 = (Self::MODULUS - 1) / 2;

    /// Width of the word in trits.
    pub const WIDTH: usize = N;

    /// Builds a word directly from its trits (index 0 = least significant).
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trit, Trits};
    /// let w = Trits::<3>::from_trits([Trit::P, Trit::Z, Trit::N]);
    /// assert_eq!(w.to_i64(), 1 + 0 * 3 - 9);
    /// ```
    #[inline]
    pub const fn from_trits(trits: [Trit; N]) -> Self {
        let mut pos = 0u64;
        let mut neg = 0u64;
        let mut i = 0;
        while i < N {
            match trits[i] {
                Trit::P => pos |= 1 << i,
                Trit::N => neg |= 1 << i,
                Trit::Z => {}
            }
            i += 1;
        }
        Self { pos, neg }
    }

    /// The trits of the word, index 0 least significant.
    ///
    /// Since the packed-bitplane refactor this unpacks into a fresh
    /// array (the word no longer stores one); prefer [`Trits::trit`] or
    /// [`Trits::bitplanes`] on hot paths.
    #[inline]
    pub const fn trits(&self) -> [Trit; N] {
        let mut out = [Trit::Z; N];
        let mut i = 0;
        while i < N {
            if (self.pos >> i) & 1 == 1 {
                out[i] = Trit::P;
            } else if (self.neg >> i) & 1 == 1 {
                out[i] = Trit::N;
            }
            i += 1;
        }
        out
    }

    /// Builds a word from its two packed bitplanes — the zero-cost
    /// entry point for code that already holds data in binary-coded
    /// form (FPGA memory images, the lanes of [`crate::simd`]).
    ///
    /// Bit `i` of `pos` makes trit `i` equal +1, bit `i` of `neg` makes
    /// it −1.
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::InvalidBctPair`] (with the offending trit
    /// index) when a bit is set in both planes — the same impossible
    /// state as the BCT pair `11` — or in either plane at position `N`
    /// or above.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Trits;
    ///
    /// // pos = 0b011 (trits 0,1 = +1), neg = 0b100 (trit 2 = −1): 1+3−9.
    /// let w = Trits::<3>::from_bitplanes(0b011, 0b100)?;
    /// assert_eq!(w.to_i64(), -5);
    /// assert!(Trits::<3>::from_bitplanes(0b001, 0b001).is_err()); // overlap
    /// assert!(Trits::<3>::from_bitplanes(0b1000, 0).is_err());    // too wide
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    pub const fn from_bitplanes(pos: u64, neg: u64) -> Result<Self, TernaryError> {
        let bad = (pos & neg) | ((pos | neg) & !Self::MASK);
        if bad != 0 {
            return Err(TernaryError::InvalidBctPair {
                index: bad.trailing_zeros() as usize,
            });
        }
        Ok(Self { pos, neg })
    }

    /// The two packed bitplanes `(pos, neg)` of the word — the inverse
    /// of [`Trits::from_bitplanes`], and the representation every
    /// word-level kernel in this module computes on directly.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Trits;
    ///
    /// let w = Trits::<3>::from_i64(-5)?; // trits (lsb first): +, +, −
    /// assert_eq!(w.bitplanes(), (0b011, 0b100));
    /// let (pos, neg) = w.bitplanes();
    /// assert_eq!(pos & neg, 0); // planes are always disjoint
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub const fn bitplanes(&self) -> (u64, u64) {
        (self.pos, self.neg)
    }

    /// Converts an integer that must fit the word exactly.
    ///
    /// # Errors
    ///
    /// Returns [`TernaryError::WordRange`] when `v` is outside
    /// `[-MAX_VALUE, MAX_VALUE]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// assert_eq!(Word9::from_i64(9841)?.to_i64(), 9841);
    /// assert!(Word9::from_i64(9842).is_err());
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    pub fn from_i64(v: i64) -> Result<Self, TernaryError> {
        if !(-Self::MAX_VALUE..=Self::MAX_VALUE).contains(&v) {
            return Err(TernaryError::WordRange {
                value: v,
                width: N,
                max: Self::MAX_VALUE,
            });
        }
        Ok(Self::from_i64_wrapping(v))
    }

    /// Converts an integer, wrapping modulo `3^N` onto the symmetric range.
    ///
    /// This is the balanced-ternary analogue of `as` casts between binary
    /// integer widths and models what the datapath registers actually hold
    /// after an overflowing operation.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// // 9842 wraps to the bottom of the range.
    /// assert_eq!(Word9::from_i64_wrapping(9842).to_i64(), -9841);
    /// ```
    pub fn from_i64_wrapping(v: i64) -> Self {
        let m = Self::MODULUS;
        let max = Self::MAX_VALUE;
        // Shift into [0, m), then back to the symmetric range.
        let mut rem = ((v % m) + m) % m; // non-negative residue
        if rem > max {
            rem -= m;
        }
        // Biased digit extraction: rem + MAX_VALUE has plain (unbalanced)
        // base-3 digits d ∈ {0,1,2}; the balanced trit is d − 1. This
        // avoids the per-digit rebalancing branches of the textbook loop,
        // and a table turns each base-27 digit into three trits at once.
        // The digits above trit N − 1 are 0, which the table reads as
        // −1, so the mask drops them.
        let mut u = (rem + max) as u64;
        let mut pos = 0u64;
        let mut neg = 0u64;
        let mut i = 0;
        while i < N {
            let (p, n) = TRIPLES[(u % 27) as usize];
            u /= 27;
            pos |= u64::from(p) << i;
            neg |= u64::from(n) << i;
            i += 3;
        }
        debug_assert_eq!(u, 0, "value fits after wrapping");
        Self {
            pos: pos & Self::MASK,
            neg: neg & Self::MASK,
        }
    }

    /// The numeric value of the word.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trit, Trits};
    /// let w = Trits::<4>::from_trits([Trit::N, Trit::Z, Trit::Z, Trit::P]);
    /// assert_eq!(w.to_i64(), -1 + 27);
    /// ```
    #[inline]
    pub fn to_i64(&self) -> i64 {
        // Horner in base 27: one table read per 3-trit chunk, top chunk
        // first. The planes are zero above trit `N − 1`, so a partial
        // top chunk reads its missing trits as 0. The loop bound is a
        // const generic, so this fully unrolls (three reads for `Word9`).
        let mut acc = 0i64;
        let mut i = N.div_ceil(3) * 3;
        while i > 0 {
            i -= 3;
            let chunk = ((self.pos >> i) & 7) | ((self.neg >> i) & 7) << 3;
            acc = acc * 27 + i64::from(CHUNK_VALUES[chunk as usize]);
        }
        acc
    }

    /// The trit at position `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    #[inline]
    pub fn trit(&self, i: usize) -> Trit {
        assert!(i < N, "trit index {i} out of a {N}-trit word");
        if (self.pos >> i) & 1 == 1 {
            Trit::P
        } else if (self.neg >> i) & 1 == 1 {
            Trit::N
        } else {
            Trit::Z
        }
    }

    /// Returns a copy with the trit at position `i` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    #[inline]
    #[must_use]
    pub fn with_trit(self, i: usize, t: Trit) -> Self {
        assert!(i < N, "trit index {i} out of a {N}-trit word");
        let bit = 1u64 << i;
        let (mut pos, mut neg) = (self.pos & !bit, self.neg & !bit);
        match t {
            Trit::P => pos |= bit,
            Trit::N => neg |= bit,
            Trit::Z => {}
        }
        Self { pos, neg }
    }

    /// The least significant trit — the paper's "LST", used by COMP/BEQ/BNE.
    #[inline]
    pub fn lst(&self) -> Trit {
        self.trit(0)
    }

    /// Extracts `M` consecutive trits starting at position `lo` as a
    /// narrower word; the paper's field notation `X[hi:lo]` is
    /// `x.field::<{hi - lo + 1}>(lo)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo + M > N`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// let w = Word9::from_i64(121)?; // 121 = +++++0000 little-endian
    /// assert_eq!(w.field::<2>(0).to_i64(), 4); // low two trits: ++
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub fn field<const M: usize>(&self, lo: usize) -> Trits<M> {
        assert!(
            lo + M <= N,
            "field [{}..{}] out of a {N}-trit word",
            lo,
            lo + M
        );
        Trits::<M> {
            pos: (self.pos >> lo) & Trits::<M>::MASK,
            neg: (self.neg >> lo) & Trits::<M>::MASK,
        }
    }

    /// Returns a copy with `M` consecutive trits starting at `lo` replaced
    /// by `value` — the store counterpart of [`Trits::field`]. Used by the
    /// LI/LUI semantics that splice immediates into a register.
    ///
    /// # Panics
    ///
    /// Panics if `lo + M > N`.
    #[inline]
    #[must_use]
    pub fn with_field<const M: usize>(self, lo: usize, value: Trits<M>) -> Self {
        assert!(
            lo + M <= N,
            "field [{}..{}] out of a {N}-trit word",
            lo,
            lo + M
        );
        let clear = !(Trits::<M>::MASK << lo);
        Self {
            pos: (self.pos & clear) | (value.pos << lo),
            neg: (self.neg & clear) | (value.neg << lo),
        }
    }

    /// Widens (sign-extends) or narrows (truncates) to another width.
    ///
    /// Widening preserves the value exactly (balanced words need no
    /// explicit sign trit — zero-fill *is* sign extension). Narrowing
    /// keeps the low trits, wrapping the value like the hardware would.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trits, Word9};
    /// let imm = Trits::<3>::from_i64(-13)?;
    /// assert_eq!(imm.resize::<9>().to_i64(), -13);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub fn resize<const M: usize>(&self) -> Trits<M> {
        Trits::<M> {
            pos: self.pos & Trits::<M>::MASK,
            neg: self.neg & Trits::<M>::MASK,
        }
    }

    /// `true` when every trit is zero.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.pos | self.neg == 0
    }

    /// The sign of the word as a trit: the most significant non-zero trit,
    /// or zero for the zero word. In balanced ternary this equals the sign
    /// of the numeric value.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trit, Word9};
    /// assert_eq!(Word9::from_i64(-5)?.sign(), Trit::N);
    /// assert_eq!(Word9::ZERO.sign(), Trit::Z);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub fn sign(&self) -> Trit {
        let nonzero = self.pos | self.neg;
        if nonzero == 0 {
            return Trit::Z;
        }
        let top = 63 - nonzero.leading_zeros();
        if (self.pos >> top) & 1 == 1 {
            Trit::P
        } else {
            Trit::N
        }
    }

    /// Wrapping addition; returns the sum and the carry-out trit of the
    /// ripple adder (`a + b = sum + 3^N · carry`).
    ///
    /// Computed word-parallel on the bitplanes: each round forms all
    /// `N` digit sums at once (a handful of boolean ops) and re-adds the
    /// carries one position up, exactly like the binary `xor`/`and`
    /// addition idiom. The carry word gains a trailing zero every round,
    /// so at most `N + 1` rounds run; random operands settle in two or
    /// three. The per-trit reference this is property-tested against is
    /// [`crate::arith::add_tritwise`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trit, Word9};
    /// let (s, c) = Word9::MAX.carrying_add(Word9::from_i64(1)?);
    /// assert_eq!(s, Word9::MIN); // wrapped
    /// assert_eq!(c, Trit::P);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    pub fn carrying_add(&self, rhs: Self) -> (Self, Trit) {
        // (sp, sn): running digit sums; (cp, cn): carries still to add.
        // Both live in N+1-bit planes — the bound |a + b| < 3^(N+1)/2
        // keeps bit N+1 from ever being produced (see docs/PERFORMANCE.md).
        let (mut sp, mut sn) = (self.pos, self.neg);
        let (mut cp, mut cn) = (rhs.pos, rhs.neg);
        while cp | cn != 0 {
            let (np, nn, gp, gn) = planes::digit_sum(sp, sn, cp, cn);
            sp = np;
            sn = nn;
            cp = gp << 1;
            cn = gn << 1;
        }
        let carry = if (sp >> N) & 1 == 1 {
            Trit::P
        } else if (sn >> N) & 1 == 1 {
            Trit::N
        } else {
            Trit::Z
        };
        (
            Self {
                pos: sp & Self::MASK,
                neg: sn & Self::MASK,
            },
            carry,
        )
    }

    /// Wrapping addition (discards the carry-out).
    #[inline]
    #[must_use]
    pub fn wrapping_add(&self, rhs: Self) -> Self {
        self.carrying_add(rhs).0
    }

    /// Wrapping subtraction: `a − b = a + STI(b)` — exact in balanced
    /// ternary (the paper's "conversion-based negation property", §II-A).
    #[inline]
    #[must_use]
    pub fn wrapping_sub(&self, rhs: Self) -> Self {
        self.wrapping_add(rhs.negate())
    }

    /// Exact negation: trit-wise STI. Unlike two's complement there is no
    /// asymmetric edge case — `negate` is a true involution. On the
    /// packed representation it is a single bitplane swap.
    #[inline]
    #[must_use]
    pub fn negate(&self) -> Self {
        Self {
            pos: self.neg,
            neg: self.pos,
        }
    }

    /// Shift left by `k` trit positions: multiply by 3^k, dropping high
    /// trits (wrapping). `k ≥ N` yields zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// assert_eq!(Word9::from_i64(5)?.shl(2).to_i64(), 45);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn shl(&self, k: usize) -> Self {
        if k >= N {
            return Self::ZERO;
        }
        Self {
            pos: (self.pos << k) & Self::MASK,
            neg: (self.neg << k) & Self::MASK,
        }
    }

    /// Shift right by `k` trit positions: discards the low `k` trits.
    ///
    /// In balanced ternary dropping low trits rounds the value to the
    /// *nearest* multiple of 3^k (ties cannot occur), so `shr(k)` computes
    /// `round(x / 3^k)` — subtly different from the binary arithmetic
    /// shift's floor, and property-tested as such. `k ≥ N` yields zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// assert_eq!(Word9::from_i64(5)?.shr(1).to_i64(), 2);  // 5/3 = 1.67 -> 2
    /// assert_eq!(Word9::from_i64(-5)?.shr(1).to_i64(), -2);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn shr(&self, k: usize) -> Self {
        if k >= N {
            return Self::ZERO;
        }
        Self {
            pos: self.pos >> k,
            neg: self.neg >> k,
        }
    }

    /// Trit-wise ternary AND (minimum), the TALU `AND` operation.
    ///
    /// On bitplanes: the result is −1 wherever either operand is −1,
    /// +1 where both are +1.
    #[inline]
    #[must_use]
    pub fn and(&self, rhs: Self) -> Self {
        Self {
            pos: self.pos & rhs.pos,
            neg: self.neg | rhs.neg,
        }
    }

    /// Trit-wise ternary OR (maximum), the TALU `OR` operation.
    #[inline]
    #[must_use]
    pub fn or(&self, rhs: Self) -> Self {
        Self {
            pos: self.pos | rhs.pos,
            neg: self.neg & rhs.neg,
        }
    }

    /// Trit-wise ternary XOR, the TALU `XOR` operation: `−(a·b)` per trit.
    #[inline]
    #[must_use]
    pub fn xor(&self, rhs: Self) -> Self {
        // Product planes: + where signs agree, − where they differ;
        // XOR is the negation of the product, so the planes swap.
        Self {
            pos: (self.pos & rhs.neg) | (self.neg & rhs.pos),
            neg: (self.pos & rhs.pos) | (self.neg & rhs.neg),
        }
    }

    /// Trit-wise standard ternary inversion (same as [`Trits::negate`]).
    #[inline]
    #[must_use]
    pub fn sti(&self) -> Self {
        self.negate()
    }

    /// Trit-wise negative ternary inversion (0 ↦ −1, ±1 ↦ ∓1 except
    /// +1 ↦ −1): the output is +1 only where the input was −1.
    #[inline]
    #[must_use]
    pub fn nti(&self) -> Self {
        Self {
            pos: self.neg,
            neg: !self.neg & Self::MASK,
        }
    }

    /// Trit-wise positive ternary inversion (0 ↦ +1, +1 ↦ −1, −1 ↦ +1):
    /// the output is −1 only where the input was +1.
    #[inline]
    #[must_use]
    pub fn pti(&self) -> Self {
        Self {
            pos: !self.pos & Self::MASK,
            neg: self.pos,
        }
    }

    /// Number of trit positions whose value differs from `prev` — the
    /// switching activity a register or bus holding `prev` exhibits when
    /// it is overwritten with `self`.
    ///
    /// On the packed representation a trit differs exactly when either
    /// bitplane differs at its position (the balanced encoding is
    /// unique), so the count is the population count of one XOR + OR
    /// mask — the same differing-trit mask [`Ord::cmp`] scans. The
    /// count is one lookup per 9-trit chunk of that mask in a 512-entry
    /// table (a single lookup for [`Word9`]): the x86-64 baseline target
    /// has no `POPCNT` instruction, and `count_ones` there compiles to
    /// a shift, mask and multiply sequence of over a dozen
    /// instructions. This is the primitive the
    /// dynamic energy model (`art9-hw`) is built on; the per-trit
    /// reference it is property-tested against is
    /// [`crate::arith::flips_tritwise`].
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    ///
    /// let a = Word9::from_i64(8)?;  // 000000+0-
    /// assert_eq!(a.flips_from(&a), 0);
    /// assert_eq!(a.flips_from(&Word9::ZERO), 2); // trits 0 and 2 switch
    /// assert_eq!(Word9::MAX.flips_from(&Word9::MIN), 9); // every trit
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn flips_from(&self, prev: &Self) -> u32 {
        let mut differ = ((self.pos ^ prev.pos) | (self.neg ^ prev.neg)) & Self::MASK;
        let mut flips = 0;
        for _ in 0..N.div_ceil(9) {
            flips += u32::from(FLIPS_9[(differ & 0x1ff) as usize]);
            differ >>= 9;
        }
        flips
    }

    /// The COMP result of the paper (§IV-A): a word whose every-trit value
    /// is the comparison sign — zero when equal, +1 when `self > rhs`,
    /// −1 when `self < rhs` — so its LST is the 1-trit branch condition.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::{Trit, Word9};
    /// let a = Word9::from_i64(7)?;
    /// let b = Word9::from_i64(9)?;
    /// assert_eq!(a.compare(b).lst(), Trit::N);
    /// assert_eq!(a.compare(a).lst(), Trit::Z);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    #[inline]
    #[must_use]
    pub fn compare(&self, rhs: Self) -> Self {
        // The TALU uses a dedicated trit-serial comparator (most
        // significant trit first), which in balanced ternary is exactly
        // numeric comparison.
        match self.cmp(&rhs) {
            Ordering::Less => Self {
                pos: 0,
                neg: 1 & Self::MASK,
            },
            Ordering::Equal => Self::ZERO,
            Ordering::Greater => Self {
                pos: 1 & Self::MASK,
                neg: 0,
            },
        }
    }
}

impl<const N: usize> PartialOrd for Trits<N> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Trits<N> {
    /// Words order by numeric value (not lexicographically by storage).
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // The most significant differing trit decides (balanced
        // representation is unique): one leading-zeros scan instead of
        // a trit loop.
        let differ = (self.pos ^ other.pos) | (self.neg ^ other.neg);
        if differ == 0 {
            return Ordering::Equal;
        }
        let top = 63 - differ.leading_zeros();
        let a = ((self.pos >> top) & 1) as i8 - ((self.neg >> top) & 1) as i8;
        let b = ((other.pos >> top) & 1) as i8 - ((other.neg >> top) & 1) as i8;
        a.cmp(&b)
    }
}

impl<const N: usize> Add for Trits<N> {
    type Output = Self;

    /// Wrapping addition (hardware register semantics).
    #[inline]
    fn add(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }
}

impl<const N: usize> Sub for Trits<N> {
    type Output = Self;

    /// Wrapping subtraction (hardware register semantics).
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }
}

impl<const N: usize> Neg for Trits<N> {
    type Output = Self;

    /// Exact negation (trit-wise STI).
    #[inline]
    fn neg(self) -> Self {
        self.negate()
    }
}

impl<const N: usize> fmt::Debug for Trits<N> {
    /// Shows the trit string and the decimal value, e.g.
    /// `Trits<9>("0000000+0-" = 8)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Trits<{N}>(\"{self}\" = {})", self.to_i64())
    }
}

impl<const N: usize> fmt::Display for Trits<N> {
    /// Writes the trits most-significant first, e.g. `000000+0-` for 8.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..N).rev() {
            write!(f, "{}", self.trit(i))?;
        }
        Ok(())
    }
}

impl<const N: usize> FromStr for Trits<N> {
    type Err = TernaryError;

    /// Parses exactly `N` trit characters, most significant first;
    /// underscores are ignored as digit separators.
    ///
    /// # Examples
    ///
    /// ```
    /// use ternary::Word9;
    /// let w: Word9 = "0000_00+0-".parse()?;
    /// assert_eq!(w.to_i64(), 8);
    /// # Ok::<(), ternary::TernaryError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let chars: Vec<char> = s.chars().filter(|c| *c != '_').collect();
        if chars.len() != N {
            return Err(TernaryError::WordLength {
                found: chars.len(),
                expected: N,
            });
        }
        let mut out = Self::ZERO;
        for (i, c) in chars.iter().enumerate() {
            out = out.with_trit(N - 1 - i, Trit::try_from_char(*c)?);
        }
        Ok(out)
    }
}

impl<const N: usize> TryFrom<i64> for Trits<N> {
    type Error = TernaryError;

    fn try_from(v: i64) -> Result<Self, Self::Error> {
        Self::from_i64(v)
    }
}

impl<const N: usize> From<Trits<N>> for i64 {
    fn from(w: Trits<N>) -> i64 {
        w.to_i64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants() {
        assert_eq!(Word9::MAX_VALUE, 9841);
        assert_eq!(Word9::MODULUS, 19683);
        assert_eq!(Word9::MAX.to_i64(), 9841);
        assert_eq!(Word9::MIN.to_i64(), -9841);
        assert_eq!(Word9::ZERO.to_i64(), 0);
        assert_eq!(Word9::WIDTH, 9);
    }

    #[test]
    fn roundtrip_full_range_small_width() {
        // Exhaustive over a 5-trit word.
        for v in -121i64..=121 {
            let w = Trits::<5>::from_i64(v).unwrap();
            assert_eq!(w.to_i64(), v);
        }
    }

    #[test]
    fn from_i64_rejects_out_of_range() {
        assert!(Word9::from_i64(9842).is_err());
        assert!(Word9::from_i64(-9842).is_err());
        assert!(Word9::from_i64(9841).is_ok());
    }

    #[test]
    fn wrapping_conversion_matches_trit_by_trit_digits() {
        // The textbook balanced conversion, one trit at a time.
        fn digits<const N: usize>(v: i64) -> Trits<N> {
            let m = Trits::<N>::MODULUS;
            let mut r = v.rem_euclid(m);
            let mut trits = [Trit::Z; N];
            for t in trits.iter_mut() {
                let d = r % 3;
                r /= 3;
                *t = match d {
                    0 => Trit::Z,
                    1 => Trit::P,
                    _ => {
                        r += 1;
                        Trit::N
                    }
                };
            }
            Trits::from_trits(trits)
        }
        for v in -2 * Word9::MODULUS..=2 * Word9::MODULUS {
            assert_eq!(Word9::from_i64_wrapping(v), digits::<9>(v), "{v}");
        }
        for v in -300..=300 {
            assert_eq!(Trits::<1>::from_i64_wrapping(v), digits::<1>(v), "{v}");
            assert_eq!(Trits::<4>::from_i64_wrapping(v), digits::<4>(v), "{v}");
            assert_eq!(Trits::<5>::from_i64_wrapping(v), digits::<5>(v), "{v}");
        }
        for v in [i64::MIN + 1, -(1 << 40), 1 << 40, i64::MAX] {
            assert_eq!(Trits::<20>::from_i64_wrapping(v), digits::<20>(v), "{v}");
        }
    }

    #[test]
    fn wrapping_conversion() {
        assert_eq!(Word9::from_i64_wrapping(9842).to_i64(), -9841);
        assert_eq!(Word9::from_i64_wrapping(-9842).to_i64(), 9841);
        assert_eq!(Word9::from_i64_wrapping(19683).to_i64(), 0);
        assert_eq!(Word9::from_i64_wrapping(19684).to_i64(), 1);
    }

    #[test]
    fn bitplanes_roundtrip_and_invariants() {
        for v in -121i64..=121 {
            let w = Trits::<5>::from_i64(v).unwrap();
            let (pos, neg) = w.bitplanes();
            assert_eq!(pos & neg, 0, "planes overlap for {v}");
            assert_eq!(pos | neg, (pos | neg) & 0b11111, "stray high bits for {v}");
            assert_eq!(Trits::<5>::from_bitplanes(pos, neg).unwrap(), w);
        }
    }

    #[test]
    fn from_bitplanes_rejects_bad_planes() {
        match Trits::<5>::from_bitplanes(0b00100, 0b00100) {
            Err(TernaryError::InvalidBctPair { index }) => assert_eq!(index, 2),
            other => panic!("expected InvalidBctPair, got {other:?}"),
        }
        match Trits::<5>::from_bitplanes(1 << 5, 0) {
            Err(TernaryError::InvalidBctPair { index }) => assert_eq!(index, 5),
            other => panic!("expected InvalidBctPair, got {other:?}"),
        }
    }

    #[test]
    fn trits_array_roundtrip() {
        for v in [-9841i64, -100, 0, 8, 9841] {
            let w = Word9::from_i64(v).unwrap();
            assert_eq!(Word9::from_trits(w.trits()), w);
            for (i, t) in w.trits().iter().enumerate() {
                assert_eq!(w.trit(i), *t);
            }
        }
    }

    #[test]
    fn addition_matches_integers() {
        for a in [-9841i64, -100, -1, 0, 1, 100, 9841] {
            for b in [-9841i64, -50, 0, 3, 9841] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(
                    (wa + wb).to_i64(),
                    Word9::from_i64_wrapping(a + b).to_i64(),
                    "{a} + {b}"
                );
            }
        }
    }

    #[test]
    fn addition_exhaustive_small_width() {
        // The packed carry loop agrees with integer addition on every
        // pair of 3-trit words (worst-case carry chains included).
        for a in -13i64..=13 {
            for b in -13i64..=13 {
                let wa = Trits::<3>::from_i64(a).unwrap();
                let wb = Trits::<3>::from_i64(b).unwrap();
                let (s, c) = wa.carrying_add(wb);
                assert_eq!(a + b, s.to_i64() + 27 * c.value() as i64, "{a} + {b}");
            }
        }
    }

    #[test]
    fn carry_out_identity() {
        let one = Word9::from_i64(1).unwrap();
        let (s, c) = Word9::MAX.carrying_add(one);
        assert_eq!(
            Word9::MAX.to_i64() + 1,
            s.to_i64() + Word9::MODULUS * c.value() as i64
        );
    }

    #[test]
    fn negation_is_exact_involution() {
        for v in [-9841i64, -4921, -1, 0, 1, 4921, 9841] {
            let w = Word9::from_i64(v).unwrap();
            assert_eq!(w.negate().to_i64(), -v);
            assert_eq!(w.negate().negate(), w);
        }
    }

    #[test]
    fn subtraction_matches_integers() {
        let a = Word9::from_i64(123).unwrap();
        let b = Word9::from_i64(456).unwrap();
        assert_eq!((a - b).to_i64(), -333);
        assert_eq!((b - a).to_i64(), 333);
    }

    #[test]
    fn shifts() {
        let w = Word9::from_i64(5).unwrap();
        assert_eq!(w.shl(1).to_i64(), 15);
        assert_eq!(w.shl(2).to_i64(), 45);
        assert_eq!(w.shl(9).to_i64(), 0);
        // Balanced right shift rounds to nearest.
        assert_eq!(w.shr(1).to_i64(), 2); // 5/3 rounds to 2
        assert_eq!(Word9::from_i64(4).unwrap().shr(1).to_i64(), 1); // 4/3 -> 1
        assert_eq!(Word9::from_i64(-5).unwrap().shr(1).to_i64(), -2);
        assert_eq!(w.shr(9).to_i64(), 0);
    }

    #[test]
    fn shr_rounds_to_nearest_exhaustive_small() {
        for v in -121i64..=121 {
            let w = Trits::<5>::from_i64(v).unwrap();
            let shifted = w.shr(1).to_i64();
            // round-half-never-happens nearest of v/3
            let expect = (v as f64 / 3.0).round() as i64;
            assert_eq!(shifted, expect, "shr(1) of {v}");
        }
    }

    #[test]
    fn logic_ops_tritwise() {
        let a: Word9 = "0000000+-".parse().unwrap();
        let b: Word9 = "0000000--".parse().unwrap();
        assert_eq!(a.and(b).to_string(), "0000000--");
        assert_eq!(a.or(b).to_string(), "0000000+-");
        // xor: t1 = xor(+,-) = +1 (signs differ), t0 = xor(-,-) = -1 (agree)
        assert_eq!(a.xor(b).to_string(), "0000000+-");
        assert_eq!(a.sti().to_string(), "0000000-+");
        assert_eq!(a.nti().to_string(), "--------+"); // zeros -> -1
        assert_eq!(a.pti().to_string(), "+++++++-+"); // zeros -> +1
    }

    #[test]
    fn logic_ops_match_trit_tables_exhaustive() {
        // Word-level bit twiddling vs. the Fig. 1 truth tables, over
        // every pair of 2-trit words.
        for a in -4i64..=4 {
            for b in -4i64..=4 {
                let wa = Trits::<2>::from_i64(a).unwrap();
                let wb = Trits::<2>::from_i64(b).unwrap();
                for i in 0..2 {
                    assert_eq!(wa.and(wb).trit(i), wa.trit(i).and(wb.trit(i)));
                    assert_eq!(wa.or(wb).trit(i), wa.trit(i).or(wb.trit(i)));
                    assert_eq!(wa.xor(wb).trit(i), wa.trit(i).xor(wb.trit(i)));
                    assert_eq!(wa.sti().trit(i), wa.trit(i).sti());
                    assert_eq!(wa.nti().trit(i), wa.trit(i).nti());
                    assert_eq!(wa.pti().trit(i), wa.trit(i).pti());
                }
            }
        }
    }

    #[test]
    fn flips_count_differing_trits() {
        let a = Word9::from_i64(8).unwrap(); // 000000+0-
        assert_eq!(a.flips_from(&a), 0);
        assert_eq!(a.flips_from(&Word9::ZERO), 2);
        assert_eq!(Word9::ZERO.flips_from(&a), 2); // symmetric
        assert_eq!(Word9::MAX.flips_from(&Word9::MIN), 9);
        // −8 = 000000-0+: both nonzero trits swap sign, both count.
        assert_eq!(a.flips_from(&a.negate()), 2);
        // Exhaustive against the unpacked definition on a 3-trit word.
        for x in -13i64..=13 {
            for y in -13i64..=13 {
                let wx = Trits::<3>::from_i64(x).unwrap();
                let wy = Trits::<3>::from_i64(y).unwrap();
                let expect = (0..3).filter(|&i| wx.trit(i) != wy.trit(i)).count() as u32;
                assert_eq!(wx.flips_from(&wy), expect, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn compare_semantics() {
        let a = Word9::from_i64(7).unwrap();
        let b = Word9::from_i64(9).unwrap();
        assert_eq!(a.compare(b).lst(), Trit::N);
        assert_eq!(b.compare(a).lst(), Trit::P);
        assert_eq!(a.compare(a).lst(), Trit::Z);
        assert_eq!(a.compare(b).to_i64(), -1);
    }

    #[test]
    fn ordering_is_numeric() {
        let mut vals: Vec<Word9> = [-5i64, 3, -9841, 9841, 0]
            .iter()
            .map(|v| Word9::from_i64(*v).unwrap())
            .collect();
        vals.sort();
        let sorted: Vec<i64> = vals.iter().map(Word9::to_i64).collect();
        assert_eq!(sorted, vec![-9841, -5, 0, 3, 9841]);
    }

    #[test]
    fn field_extraction_and_splice() {
        let w = Word9::from_i64(8).unwrap(); // +0- in low trits
        assert_eq!(w.field::<2>(0).trits(), [Trit::N, Trit::Z]);
        assert_eq!(w.field::<3>(0).to_i64(), 8);
        let spliced = Word9::ZERO.with_field::<3>(0, Trits::<3>::from_i64(8).unwrap());
        assert_eq!(spliced.to_i64(), 8);
        // LUI-style: imm[3:0] into positions 5..9
        let hi = Word9::ZERO.with_field::<4>(5, Trits::<4>::from_i64(40).unwrap());
        assert_eq!(hi.to_i64(), 40 * 243);
    }

    #[test]
    fn resize_sign_extends_exactly() {
        for v in -13i64..=13 {
            let imm = Trits::<3>::from_i64(v).unwrap();
            assert_eq!(imm.resize::<9>().to_i64(), v);
        }
        // Narrowing keeps low trits.
        let w = Word9::from_i64(100).unwrap();
        assert_eq!(
            w.resize::<3>().to_i64(),
            Trits::<3>::from_i64_wrapping(100).to_i64()
        );
    }

    #[test]
    fn display_parse_roundtrip() {
        for v in [-9841i64, -1, 0, 8, 9841] {
            let w = Word9::from_i64(v).unwrap();
            let s = w.to_string();
            assert_eq!(s.parse::<Word9>().unwrap(), w);
            assert_eq!(s.len(), 9);
        }
        assert!("++".parse::<Word9>().is_err());
        assert!("0000000x+".parse::<Word9>().is_err());
    }

    #[test]
    fn debug_shows_trits_and_value() {
        let w = Word9::from_i64(8).unwrap();
        let s = format!("{w:?}");
        assert!(s.contains("+0-"), "{s}");
        assert!(s.contains('8'), "{s}");
    }

    #[test]
    fn sign_matches_value_sign() {
        for v in [-9841i64, -3, 0, 2, 9841] {
            let w = Word9::from_i64(v).unwrap();
            assert_eq!(w.sign().value() as i64, v.signum());
        }
    }

    #[test]
    fn pow3_table() {
        assert_eq!(pow3(0), 1);
        assert_eq!(pow3(9), 19683);
        assert_eq!(pow3(2), 9);
    }
}
