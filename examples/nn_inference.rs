//! Ternary-NN inference end to end: the same ternary-weight MLP
//! (`y = W2 · sign(W1 · x)`) evaluated three ways — the host scalar
//! reference, the host bitplane-SIMD lane subsystem, and the generated
//! kernel on the simulated ART-9 core with energy accounting attached.
//! The subsystem tour is in docs/WORKLOADS.md.
//!
//! ```sh
//! cargo run --release --example nn_inference
//! ```

use std::sync::{Arc, Mutex};

use art9_compiler::translate;
use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, SimBuilder};
use ternary::Word9;
use workloads::nn::TernaryMlp;
use workloads::nn_mlp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- Host inference: scalar reference vs the SIMD lanes --------
    // This is the exact network behind the `nn-mlp` workload at its
    // default size and seed (8 -> 8 -> 8, ternary weights).
    let n = 8;
    let mlp = TernaryMlp::seeded(n, 47);
    let x: Vec<Word9> = (0..n as i64)
        .map(|i| Word9::from_i64_wrapping((i * 5) % 15 - 7))
        .collect();

    let scalar = mlp.infer_scalar(&x);
    let simd = mlp.infer_simd(&x);
    assert_eq!(scalar, simd, "SIMD path is pinned to the reference");

    let fmt = |v: &[Word9]| {
        v.iter()
            .map(|w| w.to_i64().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!("ternary MLP, {n}-{n}-{n}, y = W2 x sign(W1 x x)");
    println!("  x = [{}]", fmt(&x));
    println!("  y = [{}]   (scalar and SIMD paths agree)", fmt(&simd));
    println!(
        "  SIMD path: 6 lanes per plane word, ternary MAC by plane \
         masking, carry-save matvec (docs/WORKLOADS.md)\n"
    );

    // ---- The same inference as a simulated ART-9 run ---------------
    // The workload carries its own seeded inputs and golden outputs;
    // the pipelined core runs it with the trit-flip observer attached,
    // so one verified execution yields timing and switching activity.
    let w = nn_mlp(n);
    println!("running `{}` on the pipelined ART-9 core...", w.name);
    let t = translate(&w.rv32_program()?)?;
    let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let mut core = SimBuilder::new(&t.program)
        .backend(Backend::Pipelined)
        .observer(energy.clone())
        .build();
    let summary = core.run(10_000_000)?;
    w.verify_art9(core.state())?;

    let stats = core.pipeline_stats().expect("pipelined backend is timed");
    let accounting = energy.lock().expect("observer lock").clone();
    let totals = accounting.totals();
    println!(
        "  verified: {} instructions in {} cycles (CPI {:.2})",
        summary.retired,
        stats.cycles,
        stats.cycles as f64 / summary.retired as f64
    );
    println!(
        "  switching activity: {} regfile + {} tdm + {} fetch + {} alu trit flips",
        totals.regfile, totals.tdm, totals.fetch, totals.alu
    );
    Ok(())
}
