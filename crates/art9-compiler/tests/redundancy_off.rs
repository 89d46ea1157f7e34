//! The redundancy-checking pass is an optimisation, not a correctness
//! step: with `TranslateOptions { redundancy: false }` every paper
//! workload must still run to halt and produce its expected output,
//! and the unoptimised program must be longer than the default
//! translation by exactly the instructions the pass reports removing.

use art9_compiler::{translate_with_options, TranslateOptions};
use art9_sim::{Core, SimBuilder};
use workloads::batch::DEFAULT_MAX_STEPS;
use workloads::paper_suite;

#[test]
fn redundancy_off_runs_and_differs_by_removed_count() {
    for w in paper_suite() {
        let rv = w.rv32_program().expect("parses");
        let on = translate_with_options(&rv, TranslateOptions::default()).expect("translates");
        let off = translate_with_options(
            &rv,
            TranslateOptions {
                redundancy: false,
                ..Default::default()
            },
        )
        .expect("translates");

        assert_eq!(off.report.redundant_removed, 0, "{}", w.name);
        assert!(on.report.redundant_removed > 0, "{}", w.name);
        assert_eq!(
            off.program.text().len(),
            on.program.text().len() + on.report.redundant_removed,
            "{}: redundancy-off length",
            w.name
        );

        let mut core = SimBuilder::new(&off.program).build_functional();
        core.run(DEFAULT_MAX_STEPS)
            .expect("redundancy-off run halts");
        w.verify_art9(core.state())
            .unwrap_or_else(|e| panic!("{}: redundancy-off output: {e}", w.name));
    }
}
