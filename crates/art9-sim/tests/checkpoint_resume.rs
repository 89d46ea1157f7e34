//! Snapshot/resume must be invisible: taking a [`Checkpoint`] at an
//! arbitrary point mid-run, restoring it into a *fresh* core (via the
//! serialized text form, so the on-disk format is exercised too) and
//! continuing must yield a bit-identical final [`CoreState`] — and, for
//! the pipelined backend, identical [`PipelineStats`] — versus a run
//! that was never interrupted. This is the property preemptible/sharded
//! batch serving rests on.

mod common;

use proptest::prelude::*;

use art9_sim::{Backend, Budget, Checkpoint, SimBuilder};
use common::looped_program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn snapshot_restore_resume_is_bit_identical(p in looped_program(), cut in 0u64..160) {
        for backend in Backend::ALL {
            let builder = SimBuilder::new(&p).backend(backend);

            // The uninterrupted run.
            let mut base = builder.build();
            let summary = base.run_for(Budget::Steps(1_000_000)).expect("base run completes");
            prop_assert!(summary.halt.is_some(), "{backend}: did not halt");

            // Run to an arbitrary cut point, snapshot, serialize.
            let mut first = builder.build();
            first.run_for(Budget::Steps(cut)).expect("first half completes");
            let text = first.snapshot().to_text();

            // Restore into a fresh core through the text format, resume.
            let checkpoint = Checkpoint::from_text(&text).expect("parses back");
            prop_assert_eq!(&checkpoint, &first.snapshot(), "text roundtrip inexact");
            let mut resumed = builder.build();
            resumed.restore(&checkpoint).expect("restores");
            let resumed_summary =
                resumed.run_for(Budget::Steps(1_000_000)).expect("resumed run completes");

            // Bit-identical outcome: halt reason, architectural state
            // (registers, memory, PC), retirement counters, mix — and
            // for the pipelined backend the full cycle/stall accounting.
            prop_assert_eq!(summary.halt, resumed_summary.halt, "{}", backend);
            prop_assert_eq!(
                base.state().first_difference(resumed.state()),
                None,
                "{} diverged after resume", backend
            );
            prop_assert_eq!(base.state().pc, resumed.state().pc, "{}", backend);
            prop_assert_eq!(base.retired(), resumed.retired(), "{}", backend);
            prop_assert_eq!(base.instruction_mix(), resumed.instruction_mix(), "{}", backend);
            prop_assert_eq!(base.pipeline_stats(), resumed.pipeline_stats(), "{}", backend);
        }
    }

    #[test]
    fn architectural_checkpoints_cross_restore_between_backends(
        p in looped_program(),
        cut in 0u64..160,
    ) {
        // An architectural checkpoint is backend-portable: a snapshot
        // cut anywhere in a threaded run restores into a fresh
        // functional (or reference) core and vice versa, and the
        // cross-restored run is indistinguishable from one that ran on
        // the destination backend from reset — final state, counters,
        // and the serialized checkpoint itself.
        let builder = SimBuilder::new(&p);
        for (from, to) in [
            (Backend::Threaded, Backend::Functional),
            (Backend::Functional, Backend::Threaded),
            (Backend::Threaded, Backend::Reference),
        ] {
            // The uninterrupted run on the destination backend.
            let mut base = builder.clone().backend(to).build();
            let summary = base.run_for(Budget::Steps(1_000_000)).expect("base run completes");
            prop_assert!(summary.halt.is_some(), "{}: did not halt", to);

            // Source backend to an arbitrary cut; serialize the
            // checkpoint so the on-disk format crosses backends too.
            let mut first = builder.clone().backend(from).build();
            first.run_for(Budget::Steps(cut)).expect("first half completes");
            let checkpoint =
                Checkpoint::from_text(&first.snapshot().to_text()).expect("parses back");

            let mut resumed = builder.clone().backend(to).build();
            resumed.restore(&checkpoint).expect("cross-restore accepted");
            let resumed_summary =
                resumed.run_for(Budget::Steps(1_000_000)).expect("resumed run completes");

            prop_assert_eq!(summary.halt, resumed_summary.halt, "{} -> {}", from, to);
            prop_assert_eq!(
                base.state().first_difference(resumed.state()),
                None,
                "{} -> {} diverged after cross-restore", from, to
            );
            prop_assert_eq!(base.state().pc, resumed.state().pc, "{} -> {}", from, to);
            prop_assert_eq!(base.retired(), resumed.retired(), "{} -> {}", from, to);
            prop_assert_eq!(
                base.instruction_mix(),
                resumed.instruction_mix(),
                "{} -> {}", from, to
            );
            // Bit-identical serialized checkpoints at halt: the digest
            // preemptible batch serving keys on.
            prop_assert_eq!(
                base.snapshot().to_text(),
                resumed.snapshot().to_text(),
                "{} -> {}", from, to
            );
        }
    }

    #[test]
    fn budgeted_halves_equal_one_whole_run(p in looped_program(), slice in 1u64..40) {
        // Chained run_for calls on ONE core (no snapshot at all) must
        // also agree with a single-budget run — the preemption
        // primitive itself.
        let builder = SimBuilder::new(&p).backend(Backend::Pipelined);
        let mut whole = builder.build();
        whole.run_for(Budget::Steps(1_000_000)).expect("completes");

        let mut sliced = builder.build();
        let mut guard = 0u64;
        while sliced.run_for(Budget::Steps(slice)).expect("slice completes").halt.is_none() {
            guard += 1;
            prop_assert!(guard < 2_000_000, "did not converge");
        }
        prop_assert_eq!(whole.state().first_difference(sliced.state()), None);
        prop_assert_eq!(whole.pipeline_stats(), sliced.pipeline_stats());
    }
}
