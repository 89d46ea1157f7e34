//! A Dhrystone-2.1-shaped kernel (paper §V-A, Tables II/III).
//!
//! The original Dhrystone cannot run unmodified on a 9-trit machine
//! (32-bit constants, byte strings), so this kernel reproduces its
//! *structure and operation mix* per York's analysis — global/record/
//! string traffic, a procedure-call chain over the stack, word-wise
//! string comparison, and exactly one multiply and one divide per
//! iteration — scaled to the translation contract (word-addressed
//! data, values within ±9841). DESIGN.md §3.3 records the
//! substitution; DMIPS arithmetic (÷1757) is unchanged.
//!
//! Per iteration (mirroring Dhrystone's `main` loop):
//!
//! 1. `Proc_5`/`Proc_4`: character globals and the boolean global;
//! 2. `Func_2`-style word-string comparison of two 12-word strings;
//! 3. `Proc_7`: `int3 = int1 + 2 + int2` through argument registers;
//! 4. `Proc_8`: array writes through a scaled index plus an 8-word
//!    sweep over the second array;
//! 5. `Proc_1`: 12-word record copy with field fix-ups;
//! 6. `Proc_2`: conditional integer update against a char global;
//! 7. the `Int_2_Loc * Int_1_Loc` / division tail of the original.

use std::ops::RangeInclusive;

use crate::{lcg_values, Generator, Workload};

/// Iteration counts [`dhrystone`] accepts (cycle budget).
pub(crate) const ITERATIONS: RangeInclusive<usize> = 1..=5000;

/// Dhrystone's DMIPS divisor: VAX 11/780 Dhrystones per second.
pub const DHRYSTONE_DIVISOR: f64 = 1757.0;

const STR_WORDS: usize = 12;
const REC_WORDS: usize = 12;
const ARR2_WORDS: usize = 64;

/// Builds the Dhrystone-style kernel running `iterations` times.
///
/// # Panics
///
/// Panics if `iterations` is 0 or greater than 5000 (cycle budget).
pub fn dhrystone(iterations: usize) -> Workload {
    dhrystone_seeded(iterations, 31)
}

/// [`dhrystone`] with the string contents drawn from `seed` (the
/// record and array data are structural and stay fixed).
///
/// # Panics
///
/// As [`dhrystone`].
pub fn dhrystone_seeded(iterations: usize, seed: u64) -> Workload {
    assert!(
        ITERATIONS.contains(&iterations),
        "dhrystone supports {ITERATIONS:?} iterations"
    );

    // Strings: equal for six words, then diverge (Func_2 comparison
    // runs seven words deep every iteration).
    let mut str1 = lcg_values(seed, STR_WORDS, 65, 90);
    let mut str2 = str1.clone();
    str1[6] = 70;
    str2[6] = 81;
    let rec_a: Vec<i64> = (0..REC_WORDS as i64).map(|k| 10 + k).collect();

    // --- golden reference (mirrors the assembly exactly) --------------
    #[allow(unused_assignments)] // globals are rewritten at each iteration start
    let (int1, int2, int3, int_glob, bool_glob, ch1, ch2, rec_b) = {
        let (mut int1, mut int2, mut int3);
        let mut int_glob = 0i64;
        let mut bool_glob = 0i64;
        let mut ch1 = 0i64;
        let mut ch2 = 0i64;
        let mut arr1 = [0i64; 8];
        let mut arr2 = [0i64; ARR2_WORDS];
        let mut rec_b = vec![0i64; REC_WORDS];
        let mut iters = iterations;
        loop {
            // Proc_5 / Proc_4.
            ch1 = 65;
            bool_glob = 0;
            if ch1 == 65 {
                bool_glob = 1;
            }
            ch2 = 66;
            int1 = 2;
            int2 = 3;
            // Func_2: word-wise string comparison.
            let equal = str1 == str2;
            if !equal {
                int2 += 1;
            }
            // Proc_7.
            int3 = int1 + 2 + int2;
            // Proc_8.
            arr1[int1 as usize] = int3;
            arr1[int1 as usize + 1] = arr1[int1 as usize];
            for k in 0..8 {
                arr2[int1 as usize + k] = int3 + k as i64;
            }
            int_glob = 5;
            // Proc_1: record copy + fix-ups.
            rec_b.copy_from_slice(&rec_a);
            rec_b[2] = 5;
            rec_b[3] = rec_a[3] + 1;
            // Proc_2.
            if ch1 == 65 {
                int1 = int1 + 9 - int2;
            }
            // Multiply/divide tail.
            int2 *= int1;
            let q = int2 / int3;
            int2 %= int3;
            int1 = q;
            iters -= 1;
            if iters == 0 {
                let _ = (arr1, arr2); // architectural state, not checked
                break (int1, int2, int3, int_glob, bool_glob, ch1, ch2, rec_b);
            }
        }
    };
    let expected = vec![int_glob, bool_glob, ch1, ch2, int1, int2, int3, rec_b[3]];

    let fmt = |v: &[i64]| v.iter().map(i64::to_string).collect::<Vec<_>>().join(", ");
    let (s1, s2, ra) = (fmt(&str1), fmt(&str2), fmt(&rec_a));

    let source = format!(
        "
# dhrystone-shaped kernel, {iterations} iterations
        .data
glob:   .word 0, 0, 0, 0        # int_glob, bool_glob, ch1, ch2
arr1:   .zero 32
arr2:   .zero {arr2_bytes}
rec_a:  .word {ra}
rec_b:  .zero {rec_bytes}
str1:   .word {s1}
str2:   .word {s2}
outbuf: .zero 32
        .text
        li   s4, {iterations}
main_loop:
        # Proc_5: ch1 = 'A'; bool_glob = false
        la   a0, glob
        li   a4, 65
        sw   a4, 8(a0)
        sw   zero, 4(a0)
        # Proc_4: bool_glob |= (ch1 == 'A'); ch2 = 'B'
        lw   a4, 8(a0)
        li   a5, 65
        bne  a4, a5, p4_done
        li   a4, 1
        sw   a4, 4(a0)
p4_done:
        li   a4, 66
        sw   a4, 12(a0)
        li   s2, 2              # int1
        li   s3, 3              # int2
        # Func_2: compare str1/str2 word-wise
        la   a0, str1
        la   a1, str2
        li   a3, 1              # equal so far
        li   a7, {str_words}
f2_loop:
        lw   a4, 0(a0)
        lw   a5, 0(a1)
        bne  a4, a5, f2_differ
        addi a0, a0, 4
        addi a1, a1, 4
        addi a7, a7, -1
        bgtz a7, f2_loop
        j    f2_done
f2_differ:
        li   a3, 0
f2_done:
        bnez a3, f2_equal
        addi s3, s3, 1          # strings differ: int2 += 1
f2_equal:
        # Proc_7(int1, int2) -> int3
        mv   a4, s2
        mv   a5, s3
        call proc7
        call proc8
        call proc1
        # Proc_2: if ch1 == 'A' then int1 += 9 - int2
        la   a0, glob
        lw   a4, 8(a0)
        li   a5, 65
        bne  a4, a5, p2_done
        addi s2, s2, 9
        sub  s2, s2, s3
p2_done:
        # int2 *= int1; int1 = int2 / int3; int2 = int2 % int3
        mul  s3, s3, s2
        div  a4, s3, a2
        rem  s3, s3, a2
        mv   s2, a4
        addi s4, s4, -1
        bgtz s4, main_loop
        # publish results
        la   a0, glob
        la   a1, outbuf
        lw   a4, 0(a0)
        sw   a4, 0(a1)
        lw   a4, 4(a0)
        sw   a4, 4(a1)
        lw   a4, 8(a0)
        sw   a4, 8(a1)
        lw   a4, 12(a0)
        sw   a4, 12(a1)
        sw   s2, 16(a1)
        sw   s3, 20(a1)
        sw   a2, 24(a1)
        la   a0, rec_b
        lw   a4, 12(a0)
        sw   a4, 28(a1)
        ebreak

proc7:                          # int3 = int1 + 2 + int2 (in a2)
        addi a2, a4, 2
        add  a2, a2, a5
        ret

proc8:                          # array traffic through a scaled index
        addi sp, sp, -4
        sw   ra, 0(sp)
        slli a6, s2, 2
        la   a0, arr1
        add  a0, a0, a6
        sw   a2, 0(a0)          # arr1[int1] = int3
        lw   a4, 0(a0)
        sw   a4, 4(a0)          # arr1[int1+1] = arr1[int1]
        la   a0, arr2
        slli a6, s2, 2
        add  a0, a0, a6
        mv   a4, a2
        li   a7, 8
p8_loop:
        sw   a4, 0(a0)
        addi a4, a4, 1
        addi a0, a0, 4
        addi a7, a7, -1
        bgtz a7, p8_loop
        la   a0, glob
        li   a4, 5
        sw   a4, 0(a0)          # int_glob = 5
        lw   ra, 0(sp)
        addi sp, sp, 4
        ret

proc1:                          # record copy rec_a -> rec_b + fix-ups
        la   a0, rec_a
        la   a1, rec_b
        li   a7, {rec_words}
p1_loop:
        lw   a4, 0(a0)
        sw   a4, 0(a1)
        addi a0, a0, 4
        addi a1, a1, 4
        addi a7, a7, -1
        bgtz a7, p1_loop
        la   a0, rec_a
        la   a1, rec_b
        li   a4, 5
        sw   a4, 8(a1)          # rec_b.field2 = 5
        lw   a4, 12(a0)
        addi a4, a4, 1
        sw   a4, 12(a1)         # rec_b.field3 = rec_a.field3 + 1
        ret
",
        arr2_bytes = 4 * ARR2_WORDS,
        rec_bytes = 4 * REC_WORDS,
        str_words = STR_WORDS,
        rec_words = REC_WORDS,
    );

    // outbuf byte offset within the data section.
    let output_offset = 16 + 32 + 4 * ARR2_WORDS + 4 * REC_WORDS * 2 + 4 * STR_WORDS * 2;

    Workload {
        generator: Some(Generator::Dhrystone { iterations }),
        name: "dhrystone",
        description: format!("dhrystone-2.1-shaped kernel, {iterations} iterations"),
        source,
        output_offset,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    #[test]
    fn runs_on_rv32() {
        let w = dhrystone(3);
        let mut m = Machine::new(&w.rv32_program().unwrap());
        m.run(10_000_000).unwrap();
        w.verify_rv32(&m).unwrap();
    }

    #[test]
    fn expected_values_are_the_dhrystone_invariants() {
        let w = dhrystone(100);
        // int_glob, bool_glob, ch1, ch2, int1, int2, int3, rec_b[3].
        assert_eq!(w.expected, vec![5, 1, 65, 66, 3, 4, 8, 14]);
    }

    #[test]
    fn iteration_count_scales_runtime() {
        let w1 = dhrystone(1);
        let w5 = dhrystone(5);
        let mut m1 = Machine::new(&w1.rv32_program().unwrap());
        m1.run(10_000_000).unwrap();
        let mut m5 = Machine::new(&w5.rv32_program().unwrap());
        m5.run(10_000_000).unwrap();
        assert!(m5.instret() > 4 * m1.instret());
    }
}
