//! Pure trit-domain addition, multiplication and division.
//!
//! The fast kernels on [`Trits`] work on packed binary bitplanes
//! ([`carrying_add`](crate::Trits::carrying_add)) or
//! convert through `i64` ([`Trits::wrapping_mul`](crate::Trits::wrapping_mul),
//! [`Trits::div_rem`](crate::Trits::div_rem)); the algorithms here stay
//! entirely in the trit domain — the same ripple-carry adder, balanced
//! base-3 shift-and-add and restoring long division the hardware (and
//! the compiler's `__mul`/`__div` runtime) would use. They exist both
//! as executable documentation of those circuits and as an independent
//! cross-check: property tests assert they agree with the packed and
//! integer-domain versions everywhere.

use crate::error::TernaryError;
use crate::trit::Trit;
use crate::wide::WideTrits;
use crate::word::{pow3_i128, Trits, Word9};

/// Trit-serial ripple-carry addition: the per-trit reference for the
/// packed word-parallel adder behind
/// [`Trits::carrying_add`](crate::Trits::carrying_add).
///
/// Chains [`Trit::full_add`] from the least significant position up —
/// exactly the ternary ripple adder of the paper's TALU — and returns
/// `(sum, carry_out)` with `a + b = sum + 3^N · carry_out`. Property
/// tests assert it agrees with the bitplane kernel everywhere.
///
/// # Examples
///
/// ```
/// use ternary::{arith, Trit, Word9};
///
/// let a = Word9::from_i64(9000)?;
/// let b = Word9::from_i64(900)?;
/// let (sum, carry) = arith::add_tritwise(a, b);
/// assert_eq!(sum, a.wrapping_add(b));
/// assert_eq!(carry, Trit::P); // 9900 wrapped past +9841
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn add_tritwise<const N: usize>(a: Trits<N>, b: Trits<N>) -> (Trits<N>, Trit) {
    let at = a.trits();
    let bt = b.trits();
    let mut out = [Trit::Z; N];
    let mut carry = Trit::Z;
    for i in 0..N {
        let (s, c) = at[i].full_add(bt[i], carry);
        out[i] = s;
        carry = c;
    }
    (Trits::from_trits(out), carry)
}

/// Trit-serial negation: STI applied to every trit — the per-trit
/// reference for the packed plane-swap behind
/// [`Trits::negate`](crate::Trits::negate).
///
/// # Examples
///
/// ```
/// use ternary::{arith, Word9};
///
/// let a = Word9::from_i64(-4821)?;
/// assert_eq!(arith::negate_tritwise(a), a.negate());
/// assert_eq!(arith::negate_tritwise(arith::negate_tritwise(a)), a);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn negate_tritwise<const N: usize>(a: Trits<N>) -> Trits<N> {
    let mut out = a.trits();
    for t in &mut out {
        *t = t.sti();
    }
    Trits::from_trits(out)
}

/// Trit-serial subtraction: `a − b = a + STI(b)` chained through the
/// ripple adder — the per-trit reference for
/// [`Trits::wrapping_sub`](crate::Trits::wrapping_sub).
fn sub_tritwise<const N: usize>(a: Trits<N>, b: Trits<N>) -> Trits<N> {
    add_tritwise(a, negate_tritwise(b)).0
}

/// Balanced base-3 shift-and-add multiplication, entirely on trits.
///
/// For each trit of the multiplier (least significant first), the
/// shifted multiplicand is added, subtracted, or skipped. Wraps like
/// the hardware (modulo 3^N).
///
/// # Examples
///
/// ```
/// use ternary::{arith, Word9};
///
/// let a = Word9::from_i64(123)?;
/// let b = Word9::from_i64(-45)?;
/// assert_eq!(arith::mul_tritwise(a, b).to_i64(), -5535);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn mul_tritwise<const N: usize>(a: Trits<N>, b: Trits<N>) -> Trits<N> {
    let mut acc = Trits::<N>::ZERO;
    let mut shifted = a;
    for i in 0..N {
        match b.trit(i) {
            Trit::P => acc = acc.wrapping_add(shifted),
            Trit::N => acc = acc.wrapping_sub(shifted),
            Trit::Z => {}
        }
        shifted = shifted.shl(1);
    }
    acc
}

/// Trit-serial switching-activity count: compares the words one trit at
/// a time — the per-trit reference for the packed XOR+popcount behind
/// [`Trits::flips_from`](crate::Trits::flips_from), used by the
/// differential energy oracle in `art9-fuzz`.
///
/// # Examples
///
/// ```
/// use ternary::{arith, Word9};
///
/// let a = Word9::from_i64(8)?;
/// let b = Word9::from_i64(-8)?;
/// assert_eq!(arith::flips_tritwise(a, b), a.flips_from(&b));
/// assert_eq!(arith::flips_tritwise(a, a), 0);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn flips_tritwise<const N: usize>(next: Trits<N>, prev: Trits<N>) -> u32 {
    let nt = next.trits();
    let pt = prev.trits();
    let mut flips = 0u32;
    for i in 0..N {
        if nt[i] != pt[i] {
            flips += 1;
        }
    }
    flips
}

/// Restoring long division in the trit domain, truncating toward zero
/// (matching [`Trits::div_rem`](crate::Trits::div_rem)).
///
/// Sign-normalizes both operands with the balanced system's exact
/// negation, then builds the quotient digit by digit from the most
/// significant position: at each step the scaled divisor is subtracted
/// up to twice (digits 0..2 in the unsigned intermediate form), and
/// the result is converted back to balanced digits at the end via
/// ordinary re-encoding.
///
/// # Errors
///
/// [`TernaryError::DivisionByZero`] when `b` is zero.
///
/// # Examples
///
/// ```
/// use ternary::{arith, Word9};
///
/// let (q, r) = arith::div_rem_tritwise(Word9::from_i64(-7)?, Word9::from_i64(2)?)?;
/// assert_eq!((q.to_i64(), r.to_i64()), (-3, -1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn div_rem_tritwise<const N: usize>(
    a: Trits<N>,
    b: Trits<N>,
) -> Result<(Trits<N>, Trits<N>), TernaryError> {
    if b.is_zero() {
        return Err(TernaryError::DivisionByZero);
    }
    // Sign-normalize (negation is exact in balanced ternary).
    let neg_a = a.sign() == Trit::N;
    let neg_b = b.sign() == Trit::N;
    let mut rem = if neg_a { a.negate() } else { a };
    let divisor = if neg_b { b.negate() } else { b };

    // Build the quotient by trial-subtracting 3^k * divisor from the
    // most significant scale downward; each scale's digit is 0..=2 and
    // is accumulated as repeated addition of 3^k (which re-balances
    // automatically through the ripple adder).
    let mut quotient = Trits::<N>::ZERO;
    for k in (0..N).rev() {
        // scaled = divisor * 3^k; skip scales that overflow into the
        // sign region (their trial subtraction can never succeed for
        // in-range operands).
        if leading_zero_trits(divisor) < k {
            continue;
        }
        let scaled = divisor.shl(k);
        let mut unit = Trits::<N>::ZERO.with_trit(k, Trit::P);
        let mut digit = 0;
        while digit < 2 && ge(rem, scaled) {
            rem = rem.wrapping_sub(scaled);
            quotient = quotient.wrapping_add(unit);
            digit += 1;
            // `unit` is re-used; keep it identical for the second add.
            unit = Trits::<N>::ZERO.with_trit(k, Trit::P);
        }
    }

    let q = if neg_a != neg_b {
        quotient.negate()
    } else {
        quotient
    };
    let r = if neg_a { rem.negate() } else { rem };
    Ok((q, r))
}

// ---- Per-lane references for the bitplane-SIMD subsystem ------------
//
// `crate::simd::Word9xN` computes on many 9-trit lanes at once; these
// references perform the same operations one lane at a time through the
// per-trit algorithms above (and the packed scalar kernels they are
// already pinned to). The `--oracle simd` fuzz campaign and the
// property tests compare the two everywhere.

/// Per-lane reference for [`crate::simd::Word9xN::wrapping_add`]: each
/// lane added independently through the trit-serial ripple adder
/// [`add_tritwise`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use ternary::{arith, simd::Word9xN, Word9};
///
/// let a = [Word9::from_i64(9841)?, Word9::from_i64(-7)?];
/// let b = [Word9::from_i64(1)?, Word9::from_i64(7)?];
/// let reference = arith::add_lanewise(&a, &b);
/// let packed = Word9xN::from_words(&a).wrapping_add(&Word9xN::from_words(&b));
/// assert_eq!(reference, packed.to_words());
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn add_lanewise(a: &[Word9], b: &[Word9]) -> Vec<Word9> {
    assert_eq!(a.len(), b.len(), "lanewise add requires equal lane counts");
    a.iter()
        .zip(b)
        .map(|(x, y)| add_tritwise(*x, *y).0)
        .collect()
}

/// Per-lane reference for [`crate::simd::Word9xN::negate`]: STI applied
/// to every trit of every lane via [`negate_tritwise`].
pub fn negate_lanewise(a: &[Word9]) -> Vec<Word9> {
    a.iter().map(|x| negate_tritwise(*x)).collect()
}

/// Per-lane reference for the [`crate::simd::Word9xN`] logic operations:
/// applies `f` trit by trit to each lane pair. Pass [`Trit::and`],
/// [`Trit::or`] or [`Trit::xor`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn logic_lanewise(a: &[Word9], b: &[Word9], f: fn(Trit, Trit) -> Trit) -> Vec<Word9> {
    assert_eq!(
        a.len(),
        b.len(),
        "lanewise logic requires equal lane counts"
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let xt = x.trits();
            let yt = y.trits();
            let mut out = [Trit::Z; 9];
            for i in 0..9 {
                out[i] = f(xt[i], yt[i]);
            }
            Trits::from_trits(out)
        })
        .collect()
}

/// Per-lane reference for [`crate::simd::Word9xN::compare`]: the
/// trit-serial comparator (most significant trit first, first
/// difference decides) run on each lane pair.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn compare_lanewise(a: &[Word9], b: &[Word9]) -> Vec<Trit> {
    assert_eq!(
        a.len(),
        b.len(),
        "lanewise compare requires equal lane counts"
    );
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            for i in (0..9).rev() {
                let (xt, yt) = (x.trit(i), y.trit(i));
                if xt != yt {
                    return if xt.value() > yt.value() {
                        Trit::P
                    } else {
                        Trit::N
                    };
                }
            }
            Trit::Z
        })
        .collect()
}

/// Per-lane reference for [`crate::simd::Word9xN::mac`]: each lane's
/// ternary weight selects add, subtract or skip through the trit-serial
/// adder — the scalar loop the SIMD plane-masked MAC replaces.
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// use ternary::{arith, Trit, Word9};
///
/// let acc = [Word9::ZERO, Word9::ZERO];
/// let x = [Word9::from_i64(5)?, Word9::from_i64(5)?];
/// let out = arith::mac_lanewise(&acc, &x, &[Trit::P, Trit::N]);
/// assert_eq!(out[0].to_i64(), 5);
/// assert_eq!(out[1].to_i64(), -5);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn mac_lanewise(acc: &[Word9], x: &[Word9], weights: &[Trit]) -> Vec<Word9> {
    assert_eq!(
        acc.len(),
        x.len(),
        "lanewise mac requires equal lane counts"
    );
    assert_eq!(acc.len(), weights.len(), "one weight per lane");
    acc.iter()
        .zip(x)
        .zip(weights)
        .map(|((a, v), w)| match w {
            Trit::P => add_tritwise(*a, *v).0,
            Trit::N => sub_tritwise(*a, *v),
            Trit::Z => *a,
        })
        .collect()
}

/// Per-lane reference for [`crate::simd::Word9xN::reduce_add`]: folds
/// the lanes through the trit-serial adder in lane order.
pub fn reduce_add_lanewise(lanes: &[Word9]) -> Word9 {
    lanes
        .iter()
        .fold(Word9::ZERO, |acc, w| add_tritwise(acc, *w).0)
}

/// Trit-serial ripple-carry addition on multi-plane words: the
/// per-trit reference for
/// [`WideTrits::carrying_add`](crate::WideTrits::carrying_add).
///
/// Identical circuit to [`add_tritwise`], chained across however many
/// plane words the width needs — at 81 trits this is the only oracle
/// that never leaves the trit domain, since `Word81` values exceed
/// `i128`.
///
/// # Examples
///
/// ```
/// use ternary::{arith, Trit, Word81};
///
/// let a = Word81::from_i128(1i128 << 100)?;
/// let b = Word81::from_i128(-(1i128 << 99))?;
/// assert_eq!(arith::wide_add_tritwise(a, b), a.carrying_add(b));
/// let (_, carry) = arith::wide_add_tritwise(Word81::MAX, Word81::MAX);
/// assert_eq!(carry, Trit::P);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn wide_add_tritwise<const N: usize, const W: usize>(
    a: WideTrits<N, W>,
    b: WideTrits<N, W>,
) -> (WideTrits<N, W>, Trit) {
    let mut out = WideTrits::<N, W>::ZERO;
    let mut carry = Trit::Z;
    for i in 0..N {
        let (s, c) = a.trit(i).full_add(b.trit(i), carry);
        out = out.with_trit(i, s);
        carry = c;
    }
    (out, carry)
}

/// Trit-serial negation on multi-plane words: STI per trit, the
/// reference for the plane-array swap behind
/// [`WideTrits::negate`](crate::WideTrits::negate).
pub fn wide_negate_tritwise<const N: usize, const W: usize>(a: WideTrits<N, W>) -> WideTrits<N, W> {
    let mut out = WideTrits::<N, W>::ZERO;
    for i in 0..N {
        out = out.with_trit(i, a.trit(i).sti());
    }
    out
}

/// Trit-serial balanced shift-and-add multiplication on multi-plane
/// words: the reference for
/// [`WideTrits::wrapping_mul`](crate::WideTrits::wrapping_mul), built
/// entirely on [`wide_add_tritwise`] so it shares nothing with the
/// packed carry loop.
pub fn wide_mul_tritwise<const N: usize, const W: usize>(
    a: WideTrits<N, W>,
    b: WideTrits<N, W>,
) -> WideTrits<N, W> {
    let mut acc = WideTrits::<N, W>::ZERO;
    let mut shifted = a;
    for i in 0..N {
        match b.trit(i) {
            Trit::P => acc = wide_add_tritwise(acc, shifted).0,
            Trit::N => acc = wide_add_tritwise(acc, wide_negate_tritwise(shifted)).0,
            Trit::Z => {}
        }
        shifted = shifted.shl(1);
    }
    acc
}

/// Trit-serial logic on multi-plane words: applies a binary trit
/// function at every position, the reference for
/// [`WideTrits::and`](crate::WideTrits::and) /
/// [`or`](crate::WideTrits::or) / [`xor`](crate::WideTrits::xor).
pub fn wide_logic_tritwise<const N: usize, const W: usize>(
    a: WideTrits<N, W>,
    b: WideTrits<N, W>,
    f: fn(Trit, Trit) -> Trit,
) -> WideTrits<N, W> {
    let mut out = WideTrits::<N, W>::ZERO;
    for i in 0..N {
        out = out.with_trit(i, f(a.trit(i), b.trit(i)));
    }
    out
}

/// Trit-serial comparison on multi-plane words: the most significant
/// differing trit decides, the reference for the plane-scanning `Ord`
/// of [`WideTrits`].
pub fn wide_compare_tritwise<const N: usize, const W: usize>(
    a: WideTrits<N, W>,
    b: WideTrits<N, W>,
) -> std::cmp::Ordering {
    for i in (0..N).rev() {
        let (da, db) = (a.trit(i).value(), b.trit(i).value());
        if da != db {
            return da.cmp(&db);
        }
    }
    std::cmp::Ordering::Equal
}

/// Trit-serial flip count on multi-plane words: the reference for
/// [`WideTrits::flips_from`](crate::WideTrits::flips_from).
pub fn wide_flips_tritwise<const N: usize, const W: usize>(
    next: WideTrits<N, W>,
    prev: WideTrits<N, W>,
) -> u32 {
    (0..N).filter(|&i| next.trit(i) != prev.trit(i)).count() as u32
}

/// Reference result of a [`TernaryReal`](crate::TernaryReal) operation:
/// the normalized `(significand, exponent)` pair, with the significand
/// as its integer value (27 balanced trits always fit an `i64`).
pub type RealParts = (i64, i32);

/// The `(significand, exponent)` decomposition of a
/// [`TernaryReal`](crate::TernaryReal), for comparing against the
/// reference results below.
pub fn real_parts(x: &crate::TernaryReal) -> RealParts {
    (x.significand().to_i64(), x.exponent())
}

/// Reference tapered-real addition: exact integer arithmetic with
/// explicit round-to-nearest division, sharing no code with the packed
/// 55-trit intermediate of [`TernaryReal::add`](crate::TernaryReal::add).
///
/// When the exponents differ by 28 or more the smaller operand is below
/// half an ulp of the larger and the correctly rounded sum *is* the
/// larger operand — the reference encodes that bound independently.
///
/// # Examples
///
/// ```
/// use ternary::{arith, TernaryReal};
///
/// let a = TernaryReal::from_int(3i64.pow(26));
/// let b = TernaryReal::from_int(2);
/// assert_eq!(arith::real_parts(&a.add(&b)), arith::real_add_ref(&a, &b));
/// ```
pub fn real_add_ref(a: &crate::TernaryReal, b: &crate::TernaryReal) -> RealParts {
    if a.is_zero() {
        return real_parts(b);
    }
    if b.is_zero() {
        return real_parts(a);
    }
    let (hi, lo) = if a.exponent() >= b.exponent() {
        (a, b)
    } else {
        (b, a)
    };
    let shift = i64::from(hi.exponent()) - i64::from(lo.exponent());
    if shift >= 28 {
        return real_parts(hi);
    }
    let exact = i128::from(hi.significand().to_i64()) * pow3_i128(shift as usize)
        + i128::from(lo.significand().to_i64());
    real_round_ref(exact, lo.exponent() - 26)
}

/// Reference tapered-real multiplication: the exact double-width
/// significand product rounded once (see [`real_add_ref`]).
pub fn real_mul_ref(a: &crate::TernaryReal, b: &crate::TernaryReal) -> RealParts {
    if a.is_zero() || b.is_zero() {
        return (0, 0);
    }
    let exact = i128::from(a.significand().to_i64()) * i128::from(b.significand().to_i64());
    real_round_ref(exact, a.exponent() + b.exponent() - 52)
}

/// Normalizes `m · 3^exp_lsb` to a 27-trit significand by explicit
/// round-to-nearest integer division — the arithmetic definition the
/// packed truncating shift must match. Ties cannot occur: the divisor
/// 3^k is odd, so no remainder equals half of it.
fn real_round_ref(m: i128, exp_lsb: i32) -> RealParts {
    if m == 0 {
        return (0, 0);
    }
    // Top balanced-trit position: smallest p with |m| ≤ (3^(p+1) − 1)/2.
    let mut p = 0usize;
    while m.unsigned_abs() > (pow3_i128(p + 1) as u128 - 1) / 2 {
        p += 1;
    }
    let sig = if p > 26 {
        let d = pow3_i128(p - 26);
        let q = m / d;
        let r = m - q * d;
        if 2 * r > d {
            q + 1
        } else if 2 * r < -d {
            q - 1
        } else {
            q
        }
    } else {
        m * pow3_i128(26 - p)
    };
    (sig as i64, exp_lsb + p as i32)
}

/// Non-negative comparison helper: `x >= y` for sign-normalized words.
fn ge<const N: usize>(x: Trits<N>, y: Trits<N>) -> bool {
    x.cmp(&y) != std::cmp::Ordering::Less
}

/// Number of leading zero trits (above the most significant non-zero).
fn leading_zero_trits<const N: usize>(x: Trits<N>) -> usize {
    for i in (0..N).rev() {
        if !x.trit(i).is_zero() {
            return N - 1 - i;
        }
    }
    N
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Word9;

    #[test]
    fn add_matches_packed_adder() {
        for a in [-9841i64, -4921, -1, 0, 1, 123, 9841] {
            for b in [-9841i64, -123, 0, 1, 4921, 9841] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(add_tritwise(wa, wb), wa.carrying_add(wb), "{a} + {b}");
            }
        }
    }

    #[test]
    fn negate_and_sub_match_packed() {
        for a in [-9841i64, -4921, -1, 0, 1, 123, 9841] {
            for b in [-9841i64, -123, 0, 1, 4921, 9841] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(negate_tritwise(wa), wa.negate(), "-{a}");
                assert_eq!(sub_tritwise(wa, wb), wa.wrapping_sub(wb), "{a} - {b}");
            }
        }
    }

    #[test]
    fn mul_matches_integer_domain() {
        for a in [-9841i64, -123, -1, 0, 1, 81, 4921] {
            for b in [-121i64, -2, 0, 3, 27, 121] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(mul_tritwise(wa, wb), wa.wrapping_mul(wb), "{a} * {b}");
            }
        }
    }

    #[test]
    fn mul_wraps_like_hardware() {
        let a = Word9::from_i64(5000).unwrap();
        let b = Word9::from_i64(5000).unwrap();
        assert_eq!(mul_tritwise(a, b), a.wrapping_mul(b));
    }

    #[test]
    fn div_matches_integer_domain() {
        for a in [-9841i64, -100, -7, -1, 0, 1, 7, 100, 9841] {
            for b in [-121i64, -3, -1, 1, 2, 3, 7, 121] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                let (q, r) = div_rem_tritwise(wa, wb).unwrap();
                assert_eq!(q.to_i64(), a / b, "{a} / {b}");
                assert_eq!(r.to_i64(), a % b, "{a} % {b}");
            }
        }
    }

    #[test]
    fn flips_match_packed_count() {
        for a in [-9841i64, -4921, -1, 0, 1, 123, 9841] {
            for b in [-9841i64, -123, 0, 1, 4921, 9841] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(flips_tritwise(wa, wb), wa.flips_from(&wb), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn div_by_zero_rejected() {
        assert!(div_rem_tritwise(Word9::from_i64(5).unwrap(), Word9::ZERO).is_err());
    }

    #[test]
    fn wide_references_match_packed_at_81_trits() {
        use crate::wide::Word81;
        let samples: Vec<Word81> = [
            -(1i128 << 120),
            -(3i128.pow(64)),
            -12345,
            -1,
            0,
            1,
            54321,
            3i128.pow(64) + 7,
            1i128 << 120,
        ]
        .iter()
        .map(|&v| Word81::from_i128(v).unwrap())
        .chain([Word81::MAX, Word81::MIN])
        .collect();
        for &a in &samples {
            assert_eq!(wide_negate_tritwise(a), a.negate());
            for &b in &samples {
                assert_eq!(wide_add_tritwise(a, b), a.carrying_add(b), "{a:?} + {b:?}");
                assert_eq!(wide_mul_tritwise(a, b), a.wrapping_mul(b), "{a:?} * {b:?}");
                assert_eq!(wide_compare_tritwise(a, b), a.cmp(&b));
                assert_eq!(wide_flips_tritwise(a, b), a.flips_from(&b));
                assert_eq!(wide_logic_tritwise(a, b, Trit::and), a.and(b));
                assert_eq!(wide_logic_tritwise(a, b, Trit::or), a.or(b));
                assert_eq!(wide_logic_tritwise(a, b, Trit::xor), a.xor(b));
            }
        }
    }

    #[test]
    fn real_references_match_packed() {
        use crate::TernaryReal;
        let samples: Vec<TernaryReal> = [
            -(3i64.pow(30)),
            -1_000_003,
            -2,
            -1,
            0,
            1,
            2,
            5,
            999_999,
            3i64.pow(26) + 1,
            3i64.pow(33),
        ]
        .iter()
        .map(|&v| TernaryReal::from_int(v))
        .collect();
        for a in &samples {
            for b in &samples {
                assert_eq!(real_parts(&a.add(b)), real_add_ref(a, b), "{a:?} + {b:?}");
                assert_eq!(real_parts(&a.mul(b)), real_mul_ref(a, b), "{a:?} * {b:?}");
            }
        }
    }

    #[test]
    fn real_reference_covers_the_sticky_shortcut() {
        use crate::TernaryReal;
        // Exponent gaps straddling the shift-28 cutoff, where the
        // smaller operand stops affecting the rounded sum.
        let big = TernaryReal::from_int(3i64.pow(30));
        for gap in [26u32, 27, 28, 29, 30] {
            let small = TernaryReal::from_int(3i64.pow(30 - gap) * 2);
            let sum = big.add(&small);
            assert_eq!(real_parts(&sum), real_add_ref(&big, &small), "gap {gap}");
            if gap >= 28 {
                assert_eq!(sum, big, "gap {gap} must be absorbed");
            } else {
                assert_ne!(sum, big, "gap {gap} must contribute");
            }
        }
    }

    #[test]
    fn exhaustive_small_width() {
        // Every pair of 3-trit words: the trit-domain algorithms agree
        // with integer arithmetic everywhere.
        for a in -13i64..=13 {
            for b in -13i64..=13 {
                let wa = Trits::<3>::from_i64(a).unwrap();
                let wb = Trits::<3>::from_i64(b).unwrap();
                assert_eq!(mul_tritwise(wa, wb), wa.wrapping_mul(wb), "{a}*{b}");
                if b != 0 {
                    let (q, r) = div_rem_tritwise(wa, wb).unwrap();
                    assert_eq!((q.to_i64(), r.to_i64()), (a / b, a % b), "{a}/{b}");
                }
            }
        }
    }
}
