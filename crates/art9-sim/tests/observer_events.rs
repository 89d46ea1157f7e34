//! Energy accounting is architectural: for the same program, all four
//! backends must count bit-identical per-opcode switching activity.
//! The functional, pipelined and reference backends count from their
//! write-back records (whose identity the crate's unit tests pin), the
//! threaded backend inside its counted compiled code. This is what the
//! whole measured-energy path of Table IV rests on, so it is
//! property-tested on random looped programs the same way
//! `checkpoint_resume` pins snapshot invisibility.

mod common;

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, Budget, SimBuilder};
use common::looped_program;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn energy_totals_are_backend_independent(p in looped_program()) {
        // The flip accumulators are a pure function of the write-back
        // stream, so identical streams must give identical energy — the
        // in-process counterpart of the `energy` fuzz oracle.
        let mut per_backend = Vec::new();
        for backend in Backend::ALL {
            let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
            let mut core = SimBuilder::new(&p)
                .backend(backend)
                .observer(energy.clone())
                .build();
            core.run_for(Budget::Steps(1_000_000)).expect("run completes");
            let snapshot = energy.lock().unwrap().clone();
            prop_assert_eq!(
                snapshot.totals().retired,
                core.retired(),
                "{} missed retirements", backend
            );
            per_backend.push(*snapshot.per_opcode());
        }
        for (i, later) in per_backend.iter().enumerate().skip(1) {
            prop_assert_eq!(&per_backend[0], later, "backend #{} diverged", i);
        }
    }
}
