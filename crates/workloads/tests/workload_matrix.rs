//! Every registered workload, at a small size, verifies under every
//! configuration of the comparison matrix plus the per-trit reference
//! backend, with the energy observer attached to every ART-9 core —
//! one registry-driven batch instead of a run-and-verify copy per
//! workload module.

use art9_compiler::translate;
use art9_sim::Backend;
use workloads::batch::{BatchRunner, ExecConfig};
use workloads::{by_name, dot_product, gemm, sobel, WORKLOAD_NAMES};

/// The small size each workload runs at (`None` for the fixed-size
/// sobel filter).
fn small(name: &str) -> Option<usize> {
    match name {
        "bubble-sort" => Some(12),
        "gemm" => Some(4),
        "dhrystone" => Some(3),
        "fibonacci" => Some(15),
        "dot-product" => Some(12),
        "nn-mlp" => Some(6),
        "assoc-match" => Some(24),
        _ => None,
    }
}

#[test]
fn every_registered_workload_verifies_on_every_config() {
    let workloads = WORKLOAD_NAMES
        .iter()
        .map(|name| by_name(name, small(name)).expect("admitted size"))
        // The one-element edge case of the dot-product loop.
        .chain([dot_product(1)]);
    let report = BatchRunner::new()
        .workloads(workloads)
        .configs(ExecConfig::FULL_MATRIX)
        .config(ExecConfig::art9(Backend::Reference))
        .max_steps(20_000_000)
        .measure_energy(true)
        .try_run()
        .expect("every workload verifies on every config");
    assert_eq!(
        report.runs.len(),
        (WORKLOAD_NAMES.len() + 1) * (ExecConfig::FULL_MATRIX.len() + 1)
    );

    // Taken branches cost one bubble each, so CPI stays near 1.
    let sort = report
        .find("bubble-sort", ExecConfig::art9_pipelined(true))
        .expect("bubble-sort ran pipelined");
    let cpi = sort.cpi().expect("pipelined runs are timed");
    assert!(cpi < 2.0, "pipelined CPI stays near 1: {cpi}");

    // The multiply runtime is linked exactly where the source multiplies.
    for (w, multiplies) in [(gemm(4), true), (sobel(), false)] {
        let t = translate(&w.rv32_program().unwrap()).unwrap();
        assert_eq!(
            t.report.art9_builtin_instructions > 0,
            multiplies,
            "{}",
            w.name
        );
    }
}
