//! Batch-driver and energy-accounting integration for the NN /
//! associative workload family: the architectural activity counters
//! must be bit-identical between the functional and direct-threaded
//! backends (the counts are derived from the retirement stream, so any
//! divergence is a backend bug, not a measurement artifact).

use art9_sim::Backend;
use workloads::batch::{BatchRunner, ExecConfig};
use workloads::{assoc_match, nn_mlp};

#[test]
fn energy_counters_are_bit_identical_functional_vs_threaded() {
    let report = BatchRunner::new()
        .workload(nn_mlp(6))
        .workload(assoc_match(24))
        .config(ExecConfig::art9(Backend::Functional))
        .config(ExecConfig::art9(Backend::Threaded))
        .max_steps(20_000_000)
        .measure_energy(true)
        .try_run()
        .expect("functional and threaded must both verify");

    for name in ["nn-mlp", "assoc-match"] {
        let f = report
            .find(name, ExecConfig::art9(Backend::Functional))
            .unwrap();
        let t = report
            .find(name, ExecConfig::art9(Backend::Threaded))
            .unwrap();

        // Identical instruction mixes: same retirement stream, so the
        // dynamic counts must agree to the last trit flip.
        assert_eq!(f.instructions, t.instructions, "{name}: retired count");
        let fe = f.energy.as_ref().expect("functional energy measured");
        let te = t.energy.as_ref().expect("threaded energy measured");
        assert_eq!(
            fe.per_opcode(),
            te.per_opcode(),
            "{name}: per-opcode activity diverged between backends"
        );
        let totals = fe.totals();
        assert_eq!(totals.retired, f.instructions, "{name}: retired total");
        assert!(
            totals.regfile + totals.tdm + totals.fetch + totals.alu > 0,
            "{name}: expected nonzero switching activity"
        );
    }
}
