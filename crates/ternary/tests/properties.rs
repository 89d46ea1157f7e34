//! Property-based tests for the balanced ternary substrate.
//!
//! These pin the algebraic contracts that the rest of the workspace
//! (ISA semantics, pipeline datapath, gate-level models) relies on.

use proptest::prelude::*;
use ternary::simd::Word9xN;
use ternary::{arith, encoding, pow3, Trit, Trits, Word9};

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
    fn mul_matches_wrapped_integer_mul(a in word9(), b in word9()) {
        prop_assert_eq!(
            a.wrapping_mul(b).to_i64(),
            Word9::from_i128_like(a.to_i64() as i128 * b.to_i64() as i128)
        );
    }

    #[test]
    fn div_rem_reconstructs(a in word9(), b in word9().prop_filter("nonzero", |w| !w.is_zero())) {
        let (q, r) = a.div_rem(b).unwrap();
        prop_assert_eq!(q.to_i64() * b.to_i64() + r.to_i64(), a.to_i64());
        prop_assert!(r.to_i64().abs() < b.to_i64().abs());
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
    fn bct_roundtrip(a in word9()) {
        let packed = encoding::pack(&a);
        prop_assert!(packed < (1u64 << 18));
        prop_assert_eq!(encoding::unpack::<9>(packed).unwrap(), a);
    }

    #[test]
    fn bct_packed_add_matches(a in word9(), b in word9()) {
        let s = encoding::packed_add::<9>(encoding::pack(&a), encoding::pack(&b)).unwrap();
        prop_assert_eq!(encoding::unpack::<9>(s).unwrap(), a.wrapping_add(b));
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
    fn bct_packed_negate_negates(a in word9()) {
        let n = encoding::packed_negate::<9>(encoding::pack(&a));
        prop_assert_eq!(encoding::unpack::<9>(n).unwrap(), a.negate());
    }

    #[test]
    fn tritwise_mul_agrees_with_integer_mul(a in word9(), b in word9()) {
        prop_assert_eq!(ternary::arith::mul_tritwise(a, b), a.wrapping_mul(b));
    }

    #[test]
    fn packed_flips_agree_with_tritwise_reference(a in word9(), b in word9()) {
        prop_assert_eq!(a.flips_from(&b), ternary::arith::flips_tritwise(a, b));
        prop_assert_eq!(a.flips_from(&b), b.flips_from(&a)); // symmetric
        prop_assert_eq!(a.flips_from(&a), 0);
    }

    #[test]
    fn packed_flips_agree_every_width(a in flip_operand(9841), b in flip_operand(9841)) {
        // Every `Trits<N>` width the workspace instantiates (register
        // indices, immediates, LI payloads, the machine word), with the
        // operand pool biased toward the ±3^k carry/borrow corners where
        // many trits change at once.
        check_flips::<2>(a, b);
        check_flips::<3>(a, b);
        check_flips::<4>(a, b);
        check_flips::<5>(a, b);
        check_flips::<9>(a, b);
    }

    #[test]
    fn flips_bounded_by_width(a in word9(), b in word9()) {
        prop_assert!(a.flips_from(&b) <= 9);
    }

    #[test]
    fn tritwise_div_agrees_with_integer_div(
        a in word9(),
        b in word9().prop_filter("nonzero", |w| !w.is_zero())
    ) {
        let (q, r) = ternary::arith::div_rem_tritwise(a, b).unwrap();
        let (qi, ri) = a.div_rem(b).unwrap();
        prop_assert_eq!(q, qi);
        prop_assert_eq!(r, ri);
    }
}

// ---- Bitplane-SIMD lanes vs. the per-lane references ----------------
//
// `simd::Word9xN` runs the word kernels across many lanes at once;
// `arith::{add,mac,compare,...}_lanewise` perform the same work one
// lane at a time through the per-trit algorithms. Lane counts straddle
// the 6-lanes-per-u64 packing boundary on purpose.

proptest! {
    #[test]
    fn simd_add_sub_agree_with_lanewise_reference(
        (a, b) in lane_pair(1..=14)
    ) {
        let va = Word9xN::from_words(&a);
        let vb = Word9xN::from_words(&b);
        prop_assert_eq!(va.wrapping_add(&vb).to_words(), arith::add_lanewise(&a, &b));
        prop_assert_eq!(
            va.wrapping_sub(&vb).to_words(),
            arith::add_lanewise(&a, &arith::negate_lanewise(&b))
        );
        prop_assert_eq!(va.negate().to_words(), arith::negate_lanewise(&a));
    }

    #[test]
    fn simd_logic_agrees_with_lanewise_reference((a, b) in lane_pair(1..=14)) {
        let va = Word9xN::from_words(&a);
        let vb = Word9xN::from_words(&b);
        prop_assert_eq!(va.and(&vb).to_words(), arith::logic_lanewise(&a, &b, Trit::and));
        prop_assert_eq!(va.or(&vb).to_words(), arith::logic_lanewise(&a, &b, Trit::or));
        prop_assert_eq!(va.xor(&vb).to_words(), arith::logic_lanewise(&a, &b, Trit::xor));
    }

    #[test]
    fn simd_compare_agrees_with_lanewise_reference((a, b) in lane_pair(1..=14)) {
        let va = Word9xN::from_words(&a);
        let vb = Word9xN::from_words(&b);
        prop_assert_eq!(va.compare(&vb).lane_lsts(), arith::compare_lanewise(&a, &b));
    }

    #[test]
    fn simd_mac_agrees_with_lanewise_reference(
        (acc, x) in lane_pair(1..=14),
        seed in proptest::num::u64::ANY
    ) {
        // Weights derived from the seed so every {−1,0,+1} mix occurs.
        let weights: Vec<Trit> = (0..acc.len())
            .map(|i| match (seed >> (2 * (i % 32))) % 3 {
                0 => Trit::N,
                1 => Trit::Z,
                _ => Trit::P,
            })
            .collect();
        let out = Word9xN::from_words(&acc).mac_trits(&Word9xN::from_words(&x), &weights);
        prop_assert_eq!(out.to_words(), arith::mac_lanewise(&acc, &x, &weights));
    }

    #[test]
    fn simd_reduce_agrees_with_lanewise_reference(a in lane_words(0..=20)) {
        prop_assert_eq!(
            Word9xN::from_words(&a).reduce_add(),
            arith::reduce_add_lanewise(&a)
        );
    }

    #[test]
    fn simd_splat_lane_roundtrip(v in -W9_MAX..=W9_MAX, lanes in 1usize..=13) {
        let w = Word9::from_i64(v).unwrap();
        let s = Word9xN::splat(w, lanes);
        prop_assert_eq!(s.lanes(), lanes);
        for i in 0..lanes {
            prop_assert_eq!(s.lane(i), w);
        }
    }
}

/// Strategy: a lane vector of corner-biased words (see [`flip_operand`]).
fn lane_words(lanes: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Word9>> {
    proptest::collection::vec(flip_operand(9841).prop_map(Word9::from_i64_wrapping), lanes)
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
    assert_eq!(
        wa.wrapping_mul(wb),
        arith::mul_tritwise(wa, wb),
        "width {N} mul {a} {b}"
    );
    assert_eq!(wa.negate(), arith::negate_tritwise(wa), "width {N} neg");
    assert_eq!(
        wa.flips_from(&wb),
        arith::flips_tritwise(wa, wb),
        "width {N} flips"
    );
    assert_eq!(wa.cmp(&wb), wa.to_i64().cmp(&wb.to_i64()), "width {N} ord");
    if !wb.is_zero() {
        let (q, r) = wa.div_rem(wb).unwrap();
        let (qr, rr) = arith::div_rem_tritwise(wa, wb).unwrap();
        assert_eq!((q, r), (qr, rr), "width {N} div {a} {b}");
    }
}

/// Helper used by `mul_matches_wrapped_integer_mul`: an i128 wrap without
/// exposing the crate-private helper.
trait WrapI128 {
    fn from_i128_like(v: i128) -> i64;
}

impl WrapI128 for Word9 {
    fn from_i128_like(v: i128) -> i64 {
        let m = pow3(9) as i128;
        let mut rem = ((v % m) + m) % m;
        if rem > 9841 {
            rem -= m;
        }
        rem as i64
    }
}
