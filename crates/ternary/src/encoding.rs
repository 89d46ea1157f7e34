//! Binary-coded balanced ternary (BCT) packing, after Frieder & Luk
//! ("Algorithms for binary coded balanced and ordinary ternary
//! operations", IEEE Trans. Comput., 1975 — reference \[27\] of the paper).
//!
//! The FPGA verification platform of the paper emulates every ternary
//! building block with binary modules by encoding each trit in two bits:
//!
//! | trit | bits (`hi`,`lo`) |
//! |------|------------------|
//! |  0   | `00`             |
//! | +1   | `01`             |
//! | −1   | `10`             |
//!
//! The pair `11` is unused and decodes to an error. A 9-trit word packs
//! into 18 bits — this is where Table V's 9 216 RAM bits
//! (2 memories × 256 words × 18 bits) come from.
//!
//! Since the packed-bitplane refactor (see `docs/PERFORMANCE.md`) a
//! [`Trits<N>`] *is already* binary-coded internally — as two separate
//! bitplanes rather than interleaved pairs — so the conversions here
//! are pure bit shuffles (a Morton-style interleave) with no per-trit
//! loop, and [`packed_add`] runs the word-parallel carry loop directly
//! on the deinterleaved planes.

use crate::error::TernaryError;
use crate::trit::Trit;
use crate::word::Trits;

/// Even-bit mask: the `lo` bit of every BCT pair in a packed `u64`.
const EVEN: u64 = 0x5555_5555_5555_5555;

/// Spreads the low 32 bits of `x` onto the even bit positions of a
/// `u64` (Morton interleave half).
const fn spread(x: u64) -> u64 {
    let mut x = x & 0xFFFF_FFFF;
    x = (x | (x << 16)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x << 8)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x << 2)) & 0x3333_3333_3333_3333;
    x = (x | (x << 1)) & EVEN;
    x
}

/// Gathers the even bit positions of `x` into the low 32 bits — the
/// inverse of [`spread`].
const fn compress(x: u64) -> u64 {
    let mut x = x & EVEN;
    x = (x | (x >> 1)) & 0x3333_3333_3333_3333;
    x = (x | (x >> 2)) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | (x >> 4)) & 0x00FF_00FF_00FF_00FF;
    x = (x | (x >> 8)) & 0x0000_FFFF_0000_FFFF;
    x = (x | (x >> 16)) & 0xFFFF_FFFF;
    x
}

/// Encodes one trit as its 2-bit BCT pair (`hi << 1 | lo`).
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Trit};
/// assert_eq!(encoding::trit_to_bits(Trit::Z), 0b00);
/// assert_eq!(encoding::trit_to_bits(Trit::P), 0b01);
/// assert_eq!(encoding::trit_to_bits(Trit::N), 0b10);
/// ```
#[inline]
pub const fn trit_to_bits(t: Trit) -> u8 {
    match t {
        Trit::Z => 0b00,
        Trit::P => 0b01,
        Trit::N => 0b10,
    }
}

/// Decodes a 2-bit BCT pair back to a trit.
///
/// # Errors
///
/// Returns [`TernaryError::InvalidBctPair`] for the unused pair `0b11`
/// (reported at trit index 0) and for any value above `0b11`.
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Trit};
/// assert_eq!(encoding::bits_to_trit(0b10)?, Trit::N);
/// assert!(encoding::bits_to_trit(0b11).is_err());
/// # Ok::<(), ternary::TernaryError>(())
/// ```
#[inline]
pub const fn bits_to_trit(bits: u8) -> Result<Trit, TernaryError> {
    match bits {
        0b00 => Ok(Trit::Z),
        0b01 => Ok(Trit::P),
        0b10 => Ok(Trit::N),
        _ => Err(TernaryError::InvalidBctPair { index: 0 }),
    }
}

/// Packs an `N`-trit word into the low `2N` bits of a `u64`, trit 0 in
/// the two least-significant bits.
///
/// With the bitplane word representation this is a branch-free bit
/// interleave: the `pos` plane becomes the even (`lo`) bits, the `neg`
/// plane the odd (`hi`) bits.
///
/// # Panics
///
/// Panics if `2 * N > 64` (words wider than 32 trits).
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Word9};
/// let w = Word9::from_i64(8)?; // trits (lsb first): -, 0, +
/// assert_eq!(encoding::pack(&w), 0b01_00_10);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn pack<const N: usize>(word: &Trits<N>) -> u64 {
    assert!(2 * N <= 64, "BCT packing supports at most 32 trits");
    let (pos, neg) = word.bitplanes();
    spread(pos) | (spread(neg) << 1)
}

/// Unpacks a BCT-encoded `u64` (as produced by [`pack`]) into a word.
///
/// Bits above position `2N − 1` are ignored, matching the behaviour of
/// a `2N`-bit FPGA RAM port.
///
/// # Errors
///
/// Returns [`TernaryError::InvalidBctPair`] (with the offending trit
/// index) when any 2-bit pair is `11`.
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Word9};
/// let w = Word9::from_i64(-1234)?;
/// assert_eq!(encoding::unpack::<9>(encoding::pack(&w))?, w);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn unpack<const N: usize>(bits: u64) -> Result<Trits<N>, TernaryError> {
    assert!(2 * N <= 64, "BCT packing supports at most 32 trits");
    let window = if 2 * N == 64 {
        !0
    } else {
        (1u64 << (2 * N)) - 1
    };
    let bits = bits & window;
    let invalid = bits & (bits >> 1) & EVEN;
    if invalid != 0 {
        return Err(TernaryError::InvalidBctPair {
            index: invalid.trailing_zeros() as usize / 2,
        });
    }
    Trits::from_bitplanes(compress(bits), compress(bits >> 1))
}

/// Number of bits a BCT-encoded `N`-trit word occupies (2 bits per trit).
///
/// This is the unit behind the paper's FPGA RAM accounting (Table V).
///
/// # Examples
///
/// ```
/// use ternary::encoding;
/// assert_eq!(encoding::packed_bits(9), 18);
/// ```
#[inline]
pub const fn packed_bits(trits: usize) -> usize {
    2 * trits
}

/// BCT addition performed purely on packed operands: the operands are
/// deinterleaved into bitplanes and summed with the word-parallel carry
/// loop — no per-trit work anywhere on the path. Returns the packed
/// wrapped sum.
///
/// # Errors
///
/// Returns [`TernaryError::InvalidBctPair`] if either operand contains an
/// invalid pair.
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Word9};
/// let a = encoding::pack(&Word9::from_i64(700)?);
/// let b = encoding::pack(&Word9::from_i64(-512)?);
/// let s = encoding::packed_add::<9>(a, b)?;
/// assert_eq!(encoding::unpack::<9>(s)?.to_i64(), 188);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn packed_add<const N: usize>(a: u64, b: u64) -> Result<u64, TernaryError> {
    let wa = unpack::<N>(a)?;
    let wb = unpack::<N>(b)?;
    Ok(pack(&wa.wrapping_add(wb)))
}

/// BCT negation on a packed operand: in binary-coded balanced ternary,
/// negation is exactly the swap of the `hi` and `lo` bit of every pair,
/// so it needs no decoding (and cannot fail — the invalid pair `11`
/// maps to itself).
///
/// # Examples
///
/// ```
/// use ternary::{encoding, Word9};
/// let w = Word9::from_i64(700)?;
/// let negated = encoding::packed_negate::<9>(encoding::pack(&w));
/// assert_eq!(encoding::unpack::<9>(negated)?.to_i64(), -700);
/// # Ok::<(), ternary::TernaryError>(())
/// ```
pub fn packed_negate<const N: usize>(bits: u64) -> u64 {
    assert!(2 * N <= 64, "BCT packing supports at most 32 trits");
    ((bits & EVEN) << 1) | ((bits >> 1) & EVEN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::Word9;

    #[test]
    fn single_trit_encodings() {
        assert_eq!(trit_to_bits(Trit::Z), 0b00);
        assert_eq!(trit_to_bits(Trit::P), 0b01);
        assert_eq!(trit_to_bits(Trit::N), 0b10);
        for t in crate::trit::ALL_TRITS {
            assert_eq!(bits_to_trit(trit_to_bits(t)).unwrap(), t);
        }
        assert!(bits_to_trit(0b11).is_err());
    }

    #[test]
    fn pack_matches_per_trit_definition() {
        for v in [-9841i64, -100, -1, 0, 1, 8, 100, 9841] {
            let w = Word9::from_i64(v).unwrap();
            let mut expect = 0u64;
            for i in 0..9 {
                expect |= (trit_to_bits(w.trit(i)) as u64) << (2 * i);
            }
            assert_eq!(pack(&w), expect, "pack({v})");
        }
    }

    #[test]
    fn pack_unpack_roundtrip_word9() {
        for v in [-9841i64, -100, -1, 0, 1, 8, 100, 9841] {
            let w = Word9::from_i64(v).unwrap();
            let packed = pack(&w);
            assert!(packed < (1 << 18), "9 trits fit in 18 bits");
            assert_eq!(unpack::<9>(packed).unwrap(), w);
        }
    }

    #[test]
    fn unpack_reports_invalid_pair_index() {
        // Pair `11` at trit 2.
        let bad = 0b11 << 4;
        match unpack::<9>(bad) {
            Err(TernaryError::InvalidBctPair { index }) => assert_eq!(index, 2),
            other => panic!("expected InvalidBctPair, got {other:?}"),
        }
    }

    #[test]
    fn unpack_ignores_bits_above_the_word() {
        let w = Word9::from_i64(77).unwrap();
        let packed = pack(&w) | (0b11 << 18); // garbage beyond 18 bits
        assert_eq!(unpack::<9>(packed).unwrap(), w);
    }

    #[test]
    fn packed_bits_accounting_matches_table5() {
        // Table V: two 256-word memories of 9-trit words = 9216 bits.
        assert_eq!(2 * 256 * packed_bits(9), 9216);
    }

    #[test]
    fn packed_add_matches_word_add() {
        for (a, b) in [(700i64, -512i64), (9841, 1), (-9841, -1), (0, 0)] {
            let wa = Word9::from_i64_wrapping(a);
            let wb = Word9::from_i64_wrapping(b);
            let s = packed_add::<9>(pack(&wa), pack(&wb)).unwrap();
            assert_eq!(unpack::<9>(s).unwrap(), wa.wrapping_add(wb));
        }
    }

    #[test]
    fn packed_negate_is_pair_swap() {
        for v in [-9841i64, -1, 0, 1, 700, 9841] {
            let w = Word9::from_i64(v).unwrap();
            let n = packed_negate::<9>(pack(&w));
            assert_eq!(unpack::<9>(n).unwrap().to_i64(), -v, "negate({v})");
        }
    }
}
