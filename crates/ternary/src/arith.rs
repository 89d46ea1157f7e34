//! Pure trit-domain addition, negation, integer conversion and
//! switching-activity count.
//!
//! The fast kernels on [`Trits`] work on packed binary bitplanes
//! ([`carrying_add`](crate::Trits::carrying_add),
//! [`flips_from`](crate::Trits::flips_from),
//! [`to_i64`](crate::Trits::to_i64)); the algorithms here stay
//! entirely in the trit domain — the same ripple-carry adder the
//! hardware's TALU uses. They exist both as executable documentation of
//! those circuits and as an independent cross-check: property tests
//! assert they agree with the packed versions everywhere.

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

/// Trit-serial switching-activity count: compares the words one trit at
/// a time — the per-trit reference for the packed XOR and table lookup
/// behind [`Trits::flips_from`](crate::Trits::flips_from), used by the
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

/// Trit-serial conversion to an integer: a Horner walk from the most
/// significant trit down — the per-trit reference for the chunk-table
/// lookup behind [`Trits::to_i64`](crate::Trits::to_i64).
///
/// # Examples
///
/// ```
/// use ternary::{arith, Word9};
///
/// let a = Word9::from_i64(-4821)?;
/// assert_eq!(arith::to_i64_tritwise(a), a.to_i64());
/// assert_eq!(arith::to_i64_tritwise(a), -4821);
/// assert_eq!(arith::to_i64_tritwise(Word9::MAX), 9841);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn to_i64_tritwise<const N: usize>(a: Trits<N>) -> i64 {
    a.trits()
        .iter()
        .rev()
        .fold(0, |acc, t| acc * 3 + i64::from(t.value()))
}

// ---- Per-lane references for the bitplane-SIMD subsystem ------------
//
// `crate::simd` computes on many 9-trit lanes at once; these references
// perform the same operations one lane at a time through the per-trit
// algorithms above (and the packed scalar kernels they are already
// pinned to). The `--oracle simd` fuzz row and the property tests
// compare the two everywhere.

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

/// One column step of the per-lane reference for [`crate::simd::matvec`]:
/// each lane's ternary weight selects add, subtract or skip of `x`
/// through the trit-serial adder — the scalar loop the plane-masked,
/// carry-save matvec replaces. Chaining it over the weight columns from
/// an all-zero `acc` gives the matvec result lane by lane.
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
    fn chunk_table_matches_horner_on_every_word9() {
        for v in -Word9::MAX_VALUE..=Word9::MAX_VALUE {
            let w = Word9::from_i64(v).unwrap();
            assert_eq!(to_i64_tritwise(w), v, "{w}");
            assert_eq!(w.to_i64(), v, "{w}");
        }
    }

    #[test]
    fn exhaustive_small_width() {
        // Every pair of 3-trit words: the trit-domain adder and
        // subtractor agree with wrapped integer arithmetic everywhere.
        for a in -13i64..=13 {
            for b in -13i64..=13 {
                let wa = Trits::<3>::from_i64(a).unwrap();
                let wb = Trits::<3>::from_i64(b).unwrap();
                let sum = Trits::<3>::from_i64_wrapping(a + b);
                assert_eq!(add_tritwise(wa, wb).0, sum, "{a}+{b}");
                let difference = Trits::<3>::from_i64_wrapping(a - b);
                assert_eq!(sub_tritwise(wa, wb), difference, "{a}-{b}");
            }
        }
    }
}
