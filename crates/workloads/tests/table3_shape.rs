//! Table III shape check: the pipelined ART-9 beats the non-pipelined
//! PicoRV32 on every workload, with the smallest margin on GEMM (the
//! software-multiply case) — the paper's headline comparison.

use art9_compiler::translate;
use art9_sim::{Core, SimBuilder};
use rv32::{simulate_cycles, PicoRv32Model};
use workloads::paper_suite;

#[test]
fn art9_vs_picorv32_shape() {
    let mut rows = Vec::new();
    for w in paper_suite() {
        let rv = w.rv32_program().unwrap();
        let pico = simulate_cycles(&rv, &mut PicoRv32Model::new(), 200_000_000).unwrap();

        let t = translate(&rv).unwrap();
        let mut pipe = SimBuilder::new(&t.program).build_pipelined();
        pipe.run(200_000_000).unwrap();
        w.verify_art9(pipe.state()).unwrap();
        let stats = pipe.pipeline_stats().expect("pipelined backend");

        println!(
            "{:<12} ART-9 {:>9} cycles (CPI {:.2})   PicoRV32 {:>9} cycles (CPI {:.2})   ratio {:.2}",
            w.name,
            stats.cycles,
            stats.cpi(),
            pico.cycles,
            pico.cpi(),
            pico.cycles as f64 / stats.cycles as f64,
        );
        rows.push((w.name, stats.cycles, pico.cycles));
    }

    // Shape assertions (Table III): ART-9 clearly wins the three
    // multiplier-free workloads…
    let ratio = |i: usize| rows[i].2 as f64 / rows[i].1 as f64;
    for i in [0usize, 2, 3] {
        assert!(
            ratio(i) > 1.2,
            "{}: PicoRV32/ART-9 ratio {:.2} should exceed 1.2",
            rows[i].0,
            ratio(i)
        );
    }
    // …while GEMM sits at the crossover: software __mul against the
    // sequential hardware multiplier lands near parity (paper: 1.05).
    let gemm_ratio = ratio(1);
    assert!(
        (0.7..=1.4).contains(&gemm_ratio),
        "gemm ratio {gemm_ratio:.2} should sit near parity"
    );
    // GEMM is the narrowest margin of the four.
    for i in [0usize, 2, 3] {
        assert!(ratio(i) > gemm_ratio);
    }
}
