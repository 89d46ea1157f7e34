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
use crate::word::{Trits, Word9};

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
