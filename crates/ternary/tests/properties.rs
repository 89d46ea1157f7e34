//! Property-based tests for the balanced ternary substrate.
//!
//! These pin the algebraic contracts that the rest of the workspace
//! (ISA semantics, pipeline datapath, gate-level models) relies on.

use proptest::prelude::*;
use ternary::simd::Word9xN;
use ternary::{arith, pow3, Trit, Trits, Word9};

const W9_MAX: i64 = 9841;

fn word9() -> impl Strategy<Value = Word9> {
    (-W9_MAX..=W9_MAX).prop_map(|v| Word9::from_i64(v).expect("in range"))
}

fn trit() -> impl Strategy<Value = Trit> {
    prop_oneof![Just(Trit::N), Just(Trit::Z), Just(Trit::P)]
}

proptest! {
    #[test]
    fn roundtrip_i64(v in -W9_MAX..=W9_MAX) {
        prop_assert_eq!(Word9::from_i64(v).unwrap().to_i64(), v);
    }

    #[test]
    fn wrapping_is_mod_3n(v in proptest::num::i64::ANY) {
        let w = Word9::from_i64_wrapping(v);
        let m = pow3(9);
        // Same residue class, symmetric range.
        prop_assert_eq!(((w.to_i64() - v) % m + m) % m, 0);
        prop_assert!((-W9_MAX..=W9_MAX).contains(&w.to_i64()));
    }

    #[test]
    fn add_commutative_associative(a in word9(), b in word9(), c in word9()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn add_matches_wrapped_integer_add(a in word9(), b in word9()) {
        prop_assert_eq!(
            (a + b).to_i64(),
            Word9::from_i64_wrapping(a.to_i64() + b.to_i64()).to_i64()
        );
    }

    #[test]
    fn sub_is_add_of_negation(a in word9(), b in word9()) {
        prop_assert_eq!(a - b, a + (-b));
        prop_assert_eq!((a - b) + b, a);
    }

    #[test]
    fn negation_exact_and_involutive(a in word9()) {
        prop_assert_eq!((-a).to_i64(), -a.to_i64()); // no edge case, unlike two's complement
        prop_assert_eq!(-(-a), a);
    }

    #[test]
    fn shl_multiplies_by_three(a in word9(), k in 0usize..4) {
        let shifted = a.shl(k);
        prop_assert_eq!(
            shifted.to_i64(),
            Word9::from_i64_wrapping(a.to_i64().wrapping_mul(pow3(k))).to_i64()
        );
    }

    #[test]
    fn shr_rounds_to_nearest(a in word9(), k in 0usize..5) {
        let shifted = a.shr(k).to_i64();
        let div = pow3(k) as f64;
        let expect = (a.to_i64() as f64 / div).round() as i64;
        prop_assert_eq!(shifted, expect);
    }

    #[test]
    fn shr_then_shl_bounds_error(a in word9(), k in 0usize..5) {
        // |x - (x >> k) << k| <= (3^k - 1) / 2: right shift loses at most
        // half a unit in the last place (nearest rounding).
        let approx = a.shr(k).shl(k).to_i64();
        prop_assert!((a.to_i64() - approx).abs() <= (pow3(k) - 1) / 2);
    }

    #[test]
    fn compare_matches_ord(a in word9(), b in word9()) {
        let c = a.compare(b);
        prop_assert_eq!(c.lst().value() as i64, {
            use std::cmp::Ordering::*;
            match a.to_i64().cmp(&b.to_i64()) { Less => -1, Equal => 0, Greater => 1 }
        });
        prop_assert_eq!(c.to_i64().signum(), (a.to_i64() - b.to_i64()).signum());
    }

    #[test]
    fn logic_de_morgan_min_max(a in word9(), b in word9()) {
        // STI(min(a,b)) = max(STI(a), STI(b)) trit-wise.
        prop_assert_eq!(a.and(b).sti(), a.sti().or(b.sti()));
        prop_assert_eq!(a.or(b).sti(), a.sti().and(b.sti()));
    }

    #[test]
    fn logic_idempotent_absorbing(a in word9(), b in word9()) {
        prop_assert_eq!(a.and(a), a);
        prop_assert_eq!(a.or(a), a);
        prop_assert_eq!(a.and(b).or(a), a); // absorption
    }

    #[test]
    fn xor_properties(a in word9(), b in word9()) {
        prop_assert_eq!(a.xor(b), b.xor(a));
        prop_assert_eq!(a.xor(Word9::ZERO), Word9::ZERO); // zero absorbs (MVL XOR)
    }

    #[test]
    fn full_adder_identity(a in trit(), b in trit(), c in trit()) {
        let (s, k) = a.full_add(b, c);
        prop_assert_eq!(
            a.value() + b.value() + c.value(),
            s.value() + 3 * k.value()
        );
    }

    #[test]
    fn display_parse_roundtrip(a in word9()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Word9>().unwrap(), a);
    }

    #[test]
    fn field_splice_roundtrip(a in word9(), lo in 0usize..7) {
        let f = a.field::<3>(lo.min(6));
        let back = a.with_field::<3>(lo.min(6), f);
        prop_assert_eq!(back, a);
    }

    #[test]
    fn sign_extension_via_resize(v in -13i64..=13) {
        let narrow = Trits::<3>::from_i64(v).unwrap();
        prop_assert_eq!(narrow.resize::<9>().to_i64(), v);
    }

    #[test]
    fn ordering_total_and_numeric(a in word9(), b in word9()) {
        prop_assert_eq!(a.cmp(&b), a.to_i64().cmp(&b.to_i64()));
    }

    // ---- Packed bitplane kernels vs. retained per-trit references ----
    //
    // The word kernels operate on two packed binary bitplanes (PR 2);
    // `ternary::arith` keeps the per-trit algorithms as executable
    // specifications. These properties pin the two implementations to
    // each other over random `Trits<9>` pairs.

    #[test]
    fn packed_add_agrees_with_tritwise_reference(a in word9(), b in word9()) {
        let (packed_sum, packed_carry) = a.carrying_add(b);
        let (ref_sum, ref_carry) = ternary::arith::add_tritwise(a, b);
        prop_assert_eq!(packed_sum, ref_sum);
        prop_assert_eq!(packed_carry, ref_carry);
    }

    #[test]
    fn packed_add_carry_identity(a in word9(), b in word9()) {
        // a + b = sum + 3^9 * carry, exactly.
        let (sum, carry) = a.carrying_add(b);
        prop_assert_eq!(
            a.to_i64() + b.to_i64(),
            sum.to_i64() + pow3(9) * carry.value() as i64
        );
    }

    #[test]
    fn packed_logic_agrees_with_trit_tables(a in word9(), b in word9(), i in 0usize..9) {
        // Word-level bit twiddling vs. the Fig. 1 truth tables per trit.
        prop_assert_eq!(a.and(b).trit(i), a.trit(i).and(b.trit(i)));
        prop_assert_eq!(a.or(b).trit(i), a.trit(i).or(b.trit(i)));
        prop_assert_eq!(a.xor(b).trit(i), a.trit(i).xor(b.trit(i)));
        prop_assert_eq!(a.sti().trit(i), a.trit(i).sti());
        prop_assert_eq!(a.nti().trit(i), a.trit(i).nti());
        prop_assert_eq!(a.pti().trit(i), a.trit(i).pti());
    }

    #[test]
    fn bitplanes_roundtrip_and_disjoint(a in word9()) {
        let (pos, neg) = a.bitplanes();
        prop_assert_eq!(pos & neg, 0);
        prop_assert_eq!(pos | neg, (pos | neg) & 0x1FF); // 9 low bits only
        prop_assert_eq!(Word9::from_bitplanes(pos, neg).unwrap(), a);
    }

    #[test]
    fn trits_array_roundtrip(a in word9()) {
        prop_assert_eq!(Word9::from_trits(a.trits()), a);
    }

    #[test]
    fn packed_flips_agree_with_tritwise_reference(a in word9(), b in word9()) {
        prop_assert_eq!(a.flips_from(&b), ternary::arith::flips_tritwise(a, b));
        prop_assert_eq!(a.flips_from(&b), b.flips_from(&a)); // symmetric
        prop_assert_eq!(a.flips_from(&a), 0);
    }

    #[test]
    fn packed_flips_agree_every_width(
        a in flip_operand(9841),
        b in flip_operand(9841),
        c in width_operand(),
        d in width_operand(),
    ) {
        // Every `Trits<N>` width the workspace instantiates (register
        // indices, immediates, LI payloads, the machine word), with the
        // operand pool biased toward the ±3^k carry/borrow corners where
        // many trits change at once.
        check_flips::<2>(a, b);
        check_flips::<3>(a, b);
        check_flips::<4>(a, b);
        check_flips::<5>(a, b);
        check_flips::<9>(a, b);
        // Widths past one 9-trit chunk of the flip table, with operands
        // that reach every trit.
        check_flips::<10>(c, d);
        check_flips::<13>(c, d);
        check_flips::<18>(c, d);
        check_flips::<20>(c, d);
    }

    #[test]
    fn flips_bounded_by_width(a in word9(), b in word9()) {
        prop_assert!(a.flips_from(&b) <= 9);
    }
}

// ---- Bitplane-SIMD lanes vs. the per-lane reference -----------------
//
// `simd::Word9xN::compare` runs the trit-serial comparator across many
// lanes at once; `arith::compare_lanewise` performs the same work one
// lane at a time. Lane counts straddle the 6-lanes-per-u64 packing
// boundary on purpose.

proptest! {
    #[test]
    fn simd_compare_agrees_with_lanewise_reference((a, b) in lane_pair(1..=14)) {
        let va = Word9xN::from_words(&a);
        let vb = Word9xN::from_words(&b);
        prop_assert_eq!(va.compare(&vb).lane_lsts(), arith::compare_lanewise(&a, &b));
    }
}

/// Strategy: two equal-length lane vectors (generated as a vector of
/// lane pairs, then unzipped).
fn lane_pair(
    lanes: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = (Vec<Word9>, Vec<Word9>)> {
    let word = || flip_operand(9841).prop_map(Word9::from_i64_wrapping);
    proptest::collection::vec((word(), word()), lanes).prop_map(|pairs| pairs.into_iter().unzip())
}

/// Operand strategy for the flips properties: uniform values mixed with
/// the adversarial ±3^k corners (and their ±1 neighbours), where a
/// single increment flips a long run of trits at once.
fn flip_operand(max: i64) -> impl Strategy<Value = i64> {
    let corners: Vec<i64> = (0..9)
        .flat_map(|k| {
            let p = pow3(k);
            [p - 1, p, p + 1, -p + 1, -p, -p - 1]
        })
        .filter(move |v| v.abs() <= max)
        .collect();
    let len = corners.len();
    prop_oneof![
        3 => -max..=max,
        2 => (0usize..len).prop_map(move |i| corners[i]),
    ]
}

/// Every `Word9` against the all-zero, all-plus and all-minus words: each
/// entry of the 9-trit flip table is reached, and the count is pinned to
/// the per-trit reference.
#[test]
fn word9_flips_exhaustive_against_the_extremes() {
    for v in -Word9::MAX_VALUE..=Word9::MAX_VALUE {
        let w = Word9::from_i64(v).unwrap();
        for extreme in [Word9::ZERO, Word9::MAX, Word9::MIN] {
            assert_eq!(
                w.flips_from(&extreme),
                arith::flips_tritwise(w, extreme),
                "{v} vs {extreme}"
            );
        }
    }
}

/// Pins packed `flips_from` to the per-trit reference at one width, with
/// both operands wrapped into range like the datapath would.
fn check_flips<const N: usize>(a: i64, b: i64) {
    let wa = Trits::<N>::from_i64_wrapping(a);
    let wb = Trits::<N>::from_i64_wrapping(b);
    let packed = wa.flips_from(&wb);
    let reference = ternary::arith::flips_tritwise(wa, wb);
    assert_eq!(packed, reference, "width {N} with {a} vs {b}");
    assert!(packed <= N as u32);
}

// ---- Width-parametric: packed kernels vs per-trit references --------
//
// The same carry-loop, shift-and-add and plane-swap kernels must hold
// at every width, not only the 9-trit machine word: 1 and 13 trits
// bracket it. Each check pins the packed operation against the
// trit-serial reference in `arith`.

proptest! {
    #[test]
    fn packed_matches_tritwise_every_width(a in width_operand(), b in width_operand()) {
        check_width::<1>(a, b);
        check_width::<13>(a, b);
    }
}

proptest! {
    #[test]
    fn to_i64_matches_tritwise_every_width(a in width_operand()) {
        check_to_i64::<1>(a);
        check_to_i64::<2>(a);
        check_to_i64::<3>(a);
        check_to_i64::<4>(a);
        check_to_i64::<5>(a);
        check_to_i64::<6>(a);
        check_to_i64::<7>(a);
        check_to_i64::<8>(a);
        check_to_i64::<9>(a);
        check_to_i64::<10>(a);
        check_to_i64::<11>(a);
        check_to_i64::<12>(a);
        check_to_i64::<13>(a);
        check_to_i64::<14>(a);
        check_to_i64::<15>(a);
        check_to_i64::<16>(a);
        check_to_i64::<17>(a);
        check_to_i64::<18>(a);
        check_to_i64::<19>(a);
        check_to_i64::<20>(a);
    }
}

/// Pins the chunk-table `to_i64` to the per-trit Horner walk at one
/// width, on `a` wrapped into range and on both extremes.
fn check_to_i64<const N: usize>(a: i64) {
    let w = Trits::<N>::from_i64_wrapping(a);
    let expected = a.rem_euclid(Trits::<N>::MODULUS);
    let expected = if expected > Trits::<N>::MAX_VALUE {
        expected - Trits::<N>::MODULUS
    } else {
        expected
    };
    assert_eq!(w.to_i64(), expected, "width {N} value of {a}");
    assert_eq!(w.to_i64(), arith::to_i64_tritwise(w), "width {N} {a}");
    for (extreme, value) in [
        (Trits::<N>::MAX, Trits::<N>::MAX_VALUE),
        (Trits::<N>::MIN, -Trits::<N>::MAX_VALUE),
    ] {
        assert_eq!(extreme.to_i64(), value, "width {N} extreme");
        assert_eq!(arith::to_i64_tritwise(extreme), value, "width {N} extreme");
    }
}

/// Operand strategy for the width-parametric checks: uniform `i64`
/// values mixed with the ±3^k carry corners (and neighbours).
fn width_operand() -> impl Strategy<Value = i64> {
    let corners: Vec<i64> = (0..=20)
        .flat_map(|k| {
            let p = pow3(k);
            [p - 1, p, p + 1, -p + 1, -p, -p - 1]
        })
        .chain([i64::MIN, i64::MAX, 0])
        .collect();
    let len = corners.len();
    prop_oneof![
        3 => proptest::num::i64::ANY,
        2 => (0usize..len).prop_map(move |i| corners[i]),
    ]
}

/// Pins every packed `Trits<N>` kernel to its trit-serial reference at
/// one width, operands wrapped into range.
fn check_width<const N: usize>(a: i64, b: i64) {
    let wa = Trits::<N>::from_i64_wrapping(a);
    let wb = Trits::<N>::from_i64_wrapping(b);
    assert_eq!(
        Trits::<N>::from_i64_wrapping(wa.to_i64()),
        wa,
        "width {N} roundtrip of {a}"
    );
    assert_eq!(
        wa.carrying_add(wb),
        arith::add_tritwise(wa, wb),
        "width {N} add {a} {b}"
    );
    assert_eq!(wa.negate(), arith::negate_tritwise(wa), "width {N} neg");
    assert_eq!(
        wa.flips_from(&wb),
        arith::flips_tritwise(wa, wb),
        "width {N} flips"
    );
    assert_eq!(wa.cmp(&wb), wa.to_i64().cmp(&wb.to_i64()), "width {N} ord");
}
