//! Sobel edge filter (paper §V-A, third Table III column).
//!
//! 3×3 Sobel over an 8×8 image, 6×6 interior output, gradient
//! magnitude approximated as |gx| + |gy| (the standard integer form).
//! The ×2 kernel coefficients are realized with doubling adds, so the
//! RV32 source needs no multiplier and the ternary translation needs
//! no `__mul` — the contrast with GEMM is the point of this workload.

use crate::{lcg_values, Generator, Workload};

const W: usize = 8;
const OUT: usize = W - 2;

/// Builds the 8×8 Sobel workload with the paper suite's canonical
/// input image.
pub fn sobel() -> Workload {
    sobel_seeded(23)
}

/// [`sobel`] over an input image drawn from `seed`.
pub fn sobel_seeded(seed: u64) -> Workload {
    let img = lcg_values(seed, W * W, 0, 9);
    let mut expected = Vec::with_capacity(OUT * OUT);
    for r in 1..W - 1 {
        for c in 1..W - 1 {
            let p = |dr: isize, dc: isize| -> i64 {
                img[((r as isize + dr) as usize) * W + (c as isize + dc) as usize]
            };
            let gx = (p(-1, 1) + 2 * p(0, 1) + p(1, 1)) - (p(-1, -1) + 2 * p(0, -1) + p(1, -1));
            let gy = (p(1, -1) + 2 * p(1, 0) + p(1, 1)) - (p(-1, -1) + 2 * p(-1, 0) + p(-1, 1));
            expected.push(gx.abs() + gy.abs());
        }
    }

    let words = img
        .iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(", ");

    // Byte offsets of the 3x3 neighbourhood around the centre pointer.
    let (nw, n, ne) = (-36, -32, -28);
    let (w_, e) = (-4, 4);
    let (sw, s, se) = (28, 32, 36);

    let source = format!(
        "
# sobel 3x3 over an 8x8 image, |gx|+|gy|, 6x6 output
        .data
img:    .word {words}
out:    .zero {out_bytes}
        .text
        la   a0, img
        addi a0, a0, 36         # centre of pixel (1,1)
        la   a1, out
        li   s3, 6
        li   a5, 0              # row
row_loop:
        li   a6, 0              # col
col_loop:
        # gx = (NE + 2E + SE) - (NW + 2W + SW)
        lw   a4, {ne}(a0)
        lw   a7, {e}(a0)
        add  a4, a4, a7
        add  a4, a4, a7
        lw   a7, {se}(a0)
        add  a4, a4, a7
        lw   a2, {nw}(a0)
        lw   a7, {w_}(a0)
        add  a2, a2, a7
        add  a2, a2, a7
        lw   a7, {sw}(a0)
        add  a2, a2, a7
        sub  a2, a4, a2
        # gy = (SW + 2S + SE) - (NW + 2N + NE)
        lw   a4, {sw}(a0)
        lw   a7, {s}(a0)
        add  a4, a4, a7
        add  a4, a4, a7
        lw   a7, {se}(a0)
        add  a4, a4, a7
        lw   a3, {nw}(a0)
        lw   a7, {n}(a0)
        add  a3, a3, a7
        add  a3, a3, a7
        lw   a7, {ne}(a0)
        add  a3, a3, a7
        sub  a3, a4, a3
        # |gx| + |gy|
        bgez a2, gx_done
        neg  a2, a2
gx_done:
        bgez a3, gy_done
        neg  a3, a3
gy_done:
        add  a2, a2, a3
        sw   a2, 0(a1)
        addi a1, a1, 4
        addi a0, a0, 4
        addi a6, a6, 1
        blt  a6, s3, col_loop
        addi a0, a0, 8          # skip the two border pixels
        addi a5, a5, 1
        blt  a5, s3, row_loop
        ebreak
",
        out_bytes = 4 * OUT * OUT,
    );

    Workload {
        generator: Some(Generator::Sobel),
        name: "sobel",
        description: "3x3 Sobel filter, 8x8 image, |gx|+|gy| magnitude".to_string(),
        source,
        output_offset: 4 * W * W,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rv32::Machine;

    #[test]
    fn filters_on_rv32() {
        let w = sobel();
        let mut m = Machine::new(&w.rv32_program().unwrap());
        m.run(1_000_000).unwrap();
        w.verify_rv32(&m).unwrap();
    }

    #[test]
    fn output_is_nonnegative_and_bounded() {
        let w = sobel();
        assert_eq!(w.expected.len(), 36);
        assert!(w.expected.iter().all(|v| (0..=72).contains(v)));
    }
}
