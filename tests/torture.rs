//! ISA torture test: one hand-written ART-9 program that executes all
//! 24 instructions and folds every intermediate result into a checksum
//! register, verified against an independently computed value on both
//! simulators. This is the workspace's version of the paper's
//! "successfully verified by a number of test programs" claim, in one
//! self-checking binary.

use art9_isa::assemble;
use art9_sim::{Core, SimBuilder};
use ternary::Word9;

/// The torture program. Register roles: t3 = checksum accumulator,
/// t4/t5 = operands, t6 = scratch, t2 = memory base, t1 = link.
const TORTURE: &str = "
        .data
seed:   .word 1234, -567, 89
buf:    .zero 4
        .text
        ; --- I-type constants -------------------------------------
        LUI  t4, 7              ; t4 = 7 * 243 = 1701
        LI   t4, 100            ; splice low trits: 1701 -> 1801? no:
                                ; {t4[8:5], 100} = 1701-keeps-upper
        SUB  t3, t3             ; checksum = 0
        ADD  t3, t4
        ; --- memory ------------------------------------------------
        SUB  t2, t2             ; base = 0
        LOAD t5, t2, 0          ; 1234
        ADD  t3, t5
        LOAD t6, t2, 1          ; -567
        ADD  t3, t6
        STORE t3, t2, 3         ; buf[0] = running sum
        LOAD t5, t2, 3
        SUB  t3, t5             ; checksum -= itself => 0
        ADD  t3, t5             ; restore
        ; --- R-type logic -----------------------------------------
        LOAD t4, t2, 2          ; 89
        MV   t5, t4
        AND  t5, t3
        ADD  t3, t5
        MV   t5, t4
        OR   t5, t3
        ADD  t3, t5
        MV   t5, t4
        XOR  t5, t3
        ADD  t3, t5
        PTI  t5, t4
        ADD  t3, t5
        NTI  t5, t4
        ADD  t3, t5
        STI  t5, t4
        ADD  t3, t5
        ; --- shifts ------------------------------------------------
        MV   t5, t4
        SLI  t5, 2              ; 89 * 9
        ADD  t3, t5
        MV   t5, t4
        SRI  t5, 1              ; round(89/3) = 30
        ADD  t3, t5
        LI   t6, 1
        MV   t5, t4
        SL   t5, t6             ; 89 * 3
        ADD  t3, t5
        MV   t5, t4
        SR   t5, t6             ; 30 again
        ADD  t3, t5
        ; --- compare / branches ------------------------------------
        MV   t5, t4
        COMP t5, t3             ; sign(89 - checksum)
        ADD  t3, t5
        MV   t6, t3
        COMP t6, t0
        BEQ  t6, +, positive
        ADDI t3, 13             ; (taken only if checksum <= 0)
positive:
        BNE  t6, 0, nonzero
        ADDI t3, -13            ; (skipped when checksum != 0)
nonzero:
        ANDI t3, 12             ; fold through an I-type logic op? no:
                                ; ANDI is min() with 12 - keep value small
        ; --- calls -------------------------------------------------
        JAL  t1, leaf
        ADDI t3, 1
        JAL  t0, 0              ; halt
leaf:
        ADDI t3, 2
        JALR t6, t1, 0          ; return (link dumped to t6)
";

/// Independent model of the torture program, in plain Rust on the
/// ternary substrate.
fn expected_checksum() -> i64 {
    let w = |v: i64| Word9::from_i64_wrapping(v);
    let seed = [w(1234), w(-567), w(89)];

    // LUI/LI on t4.
    let t4 = Word9::ZERO.with_field::<4>(5, ternary::Trits::<4>::from_i64(7).unwrap());
    let t4 = t4.with_field::<5>(0, ternary::Trits::<5>::from_i64(100).unwrap());
    let mut sum = Word9::ZERO.wrapping_add(t4);

    // Memory.
    sum = sum.wrapping_add(seed[0]).wrapping_add(seed[1]);
    // store/load/sub/add cancel.

    // Logic over t4 = 89.
    let t4 = seed[2];
    sum = sum.wrapping_add(t4.and(sum));
    sum = sum.wrapping_add(t4.or(sum));
    sum = sum.wrapping_add(t4.xor(sum));
    sum = sum.wrapping_add(t4.pti());
    sum = sum.wrapping_add(t4.nti());
    sum = sum.wrapping_add(t4.sti());

    // Shifts.
    sum = sum.wrapping_add(t4.shl(2));
    sum = sum.wrapping_add(t4.shr(1));
    sum = sum.wrapping_add(t4.shl(1));
    sum = sum.wrapping_add(t4.shr(1));

    // Compare.
    sum = sum.wrapping_add(t4.compare(sum));

    // Branches: t6 = sign(sum).
    let sign = sum.compare(Word9::ZERO);
    if sign.lst() != ternary::Trit::P {
        sum = sum.wrapping_add(w(13));
    }
    if sign.lst() == ternary::Trit::Z {
        sum = sum.wrapping_sub(w(13));
    }
    // ANDI 12 = trit-wise min with 12.
    sum = sum.and(w(12));

    // Call: leaf adds 2, return, then +1.
    sum = sum.wrapping_add(w(2)).wrapping_add(w(1));
    sum.to_i64()
}

#[test]
fn torture_program_checksums_on_both_simulators() {
    let p = assemble(TORTURE).expect("torture program assembles");
    // All 24 mnemonics present.
    let mnemonics: std::collections::BTreeSet<&str> =
        p.text().iter().map(|i| i.mnemonic()).collect();
    assert_eq!(mnemonics.len(), 24, "program must use all 24 instructions");

    let expected = expected_checksum();

    let mut f = SimBuilder::new(&p).build_functional();
    f.run(100_000).expect("functional completes");
    assert_eq!(
        f.state().reg("t3".parse().unwrap()).to_i64(),
        expected,
        "functional checksum"
    );

    let mut pipe = SimBuilder::new(&p).build_pipelined();
    pipe.run(100_000).expect("pipelined completes");
    assert_eq!(
        pipe.state().reg("t3".parse().unwrap()).to_i64(),
        expected,
        "pipelined checksum"
    );

    // And once more with forwarding disabled.
    let mut slow = SimBuilder::new(&p).forwarding(false).build_pipelined();
    slow.run(200_000).expect("no-forwarding completes");
    assert_eq!(
        slow.state().reg("t3".parse().unwrap()).to_i64(),
        expected,
        "no-forwarding checksum"
    );
}
