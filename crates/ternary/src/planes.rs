//! Word-parallel bitplane kernels shared by every packed representation.
//!
//! A balanced-ternary digit vector is stored as two binary planes
//! (`pos`, `neg`) with `pos & neg == 0`. Addition of two such vectors
//! runs in *rounds*: each round forms all digit sums at once with a
//! handful of boolean operations and emits a carry plane one position
//! up. These formulas are the common core of two consumers, which
//! differ only in how they place and clip the carry shift:
//!
//! * [`Trits`](crate::Trits) — one `u64` per plane, carries shift
//!   freely within the word ([`Trits::carrying_add`](crate::Trits::carrying_add)).
//! * [`crate::simd::Word9xN`] — six 9-trit lanes per `u64`, carries
//!   clipped at lane boundaries.
//!
//! Keeping the digit-sum algebra here means a fix or optimization in
//! the formulas lands in both layers at once, and the per-trit
//! references in [`crate::arith`] pin a single implementation.

/// One digit-sum round: `s + c` rewritten as `sum + 3·carry`, all
/// positions at once.
///
/// The digit sum `d = s_i + c_i ∈ [−2, 2]` decomposes as
/// `d = s' + 3·c'`:
///
/// * `d = ±1` → `s' = d`,  `c' = 0`
/// * `d = ±2` → `s' = ∓1`, `c' = ±1`
///
/// Returns `(sum_pos, sum_neg, carry_pos, carry_neg)` with the carry
/// planes **unshifted** — the caller shifts them one digit position up
/// in whatever geometry it owns (plain `<< 1` or lane-clipped).
#[inline]
pub(crate) fn digit_sum(sp: u64, sn: u64, cp: u64, cn: u64) -> (u64, u64, u64, u64) {
    let np = ((sp ^ cp) & !(sn | cn)) | (sn & cn);
    let nn = ((sn ^ cn) & !(sp | cp)) | (sp & cp);
    (np, nn, sp & cp, sn & cn)
}

/// One 3:2 carry-save compression round: folds addend `(bp, bn)` into
/// the redundant pair `(s, c)` without propagating any carry.
///
/// Two applications of [`digit_sum`] run back to back — `s + c`, then
/// that partial sum plus `b` — and the two round carries merge by pure
/// cancellation: a digit position can never produce two same-sign
/// carries (a `+1` carry forces the partial-sum digit to `−1`, which
/// cannot carry `+1` again), so their digit sum is OR minus the
/// positions where they cancel.
///
/// Returns `(sum_pos, sum_neg, carry_pos, carry_neg)` with the merged
/// carry planes **unshifted**, like [`digit_sum`].
#[inline]
pub(crate) fn compress(
    sp: u64,
    sn: u64,
    cp: u64,
    cn: u64,
    bp: u64,
    bn: u64,
) -> (u64, u64, u64, u64) {
    let (tp, tn, g1p, g1n) = digit_sum(sp, sn, cp, cn);
    let (up, un, g2p, g2n) = digit_sum(tp, tn, bp, bn);
    let gp = (g1p | g2p) & !(g1n | g2n);
    let gn = (g1n | g2n) & !(g1p | g2p);
    (up, un, gp, gn)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digit value at bit `i` of a plane pair.
    fn digit(p: u64, n: u64, i: usize) -> i32 {
        ((p >> i) & 1) as i32 - ((n >> i) & 1) as i32
    }

    #[test]
    fn digit_sum_decomposes_every_pair() {
        // All nine digit pairs at once across nine bit positions.
        let mut sp = 0u64;
        let mut sn = 0u64;
        let mut cp = 0u64;
        let mut cn = 0u64;
        let mut i = 0;
        for s in [-1i32, 0, 1] {
            for c in [-1i32, 0, 1] {
                match s {
                    1 => sp |= 1 << i,
                    -1 => sn |= 1 << i,
                    _ => {}
                }
                match c {
                    1 => cp |= 1 << i,
                    -1 => cn |= 1 << i,
                    _ => {}
                }
                i += 1;
            }
        }
        let (np, nn, gp, gn) = digit_sum(sp, sn, cp, cn);
        let mut i = 0;
        for s in [-1i32, 0, 1] {
            for c in [-1i32, 0, 1] {
                let sum = digit(np, nn, i);
                let carry = digit(gp, gn, i);
                assert_eq!(s + c, sum + 3 * carry, "digit pair ({s}, {c})");
                assert!(sum.abs() <= 1 && carry.abs() <= 1);
                i += 1;
            }
        }
    }

    #[test]
    fn compress_preserves_three_way_sums() {
        // All 27 digit triples, one per bit position.
        let mut planes = [[0u64; 2]; 3];
        let mut i = 0;
        let mut triples = Vec::new();
        for a in [-1i32, 0, 1] {
            for b in [-1i32, 0, 1] {
                for c in [-1i32, 0, 1] {
                    for (k, v) in [(0, a), (1, b), (2, c)] {
                        match v {
                            1 => planes[k][0] |= 1 << i,
                            -1 => planes[k][1] |= 1 << i,
                            _ => {}
                        }
                    }
                    triples.push((a, b, c));
                    i += 1;
                }
            }
        }
        let (up, un, gp, gn) = compress(
            planes[0][0],
            planes[0][1],
            planes[1][0],
            planes[1][1],
            planes[2][0],
            planes[2][1],
        );
        assert_eq!(up & un, 0);
        assert_eq!(gp & gn, 0, "merged carries must stay disjoint");
        for (i, (a, b, c)) in triples.iter().enumerate() {
            let sum = digit(up, un, i);
            let carry = digit(gp, gn, i);
            assert_eq!(a + b + c, sum + 3 * carry, "triple ({a}, {b}, {c})");
        }
    }
}
