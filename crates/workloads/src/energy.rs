//! Measured switching activity of the paper workloads.
//!
//! The dynamic half of Table IV: each workload is translated, run on
//! the **cycle-accurate pipelined** core with the
//! [`EnergyAccounting`] observer attached, and verified — yielding the
//! trit-flip counts (per opcode, per datapath structure) plus the
//! cycle count of one and the same execution. `art9-bench` feeds these
//! into `art9_hw::activity` to produce energy-per-workload, per-class
//! EPI and the measured DMIPS/W (see `docs/ENERGY.md`).
//!
//! The pipelined backend is deliberate: it exercises the write-back
//! side channel of the 5-stage model, and the flip counts are
//! architectural — any backend reports the same ones (property-tested
//! in `art9-sim` and fuzzed by the `energy` oracle), so the cycle
//! count is the only backend-specific ingredient.

use std::error::Error;
use std::sync::{Arc, Mutex};

use art9_sim::observers::EnergyAccounting;
use art9_sim::{Backend, SimBuilder};

use crate::batch::DEFAULT_MAX_STEPS;
use crate::Workload;

/// One workload's measured execution: timing plus switching activity.
#[derive(Debug, Clone)]
pub struct MeasuredActivity {
    /// Workload name.
    pub workload: &'static str,
    /// Pipelined cycles of the measured (and verified) run.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// The flip accumulators, per opcode and structure.
    pub accounting: EnergyAccounting,
}

/// Runs `w` on the pipelined core with energy accounting attached,
/// verifies the output, and returns timing + activity
/// (budget: [`DEFAULT_MAX_STEPS`]).
///
/// # Errors
///
/// Translation errors, simulator faults/timeout, or output
/// verification failure.
pub fn measure_activity(w: &Workload) -> Result<MeasuredActivity, Box<dyn Error>> {
    measure_activity_with(w, DEFAULT_MAX_STEPS)
}

/// [`measure_activity`] with an explicit cycle budget.
///
/// # Errors
///
/// As [`measure_activity`].
pub fn measure_activity_with(
    w: &Workload,
    max_cycles: u64,
) -> Result<MeasuredActivity, Box<dyn Error>> {
    let rv = w.rv32_program()?;
    let t = art9_compiler::translate(&rv)?;
    let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
    let mut core = SimBuilder::new(&t.program)
        .backend(Backend::Pipelined)
        .observer(energy.clone())
        .build();
    let summary = core.run(max_cycles)?;
    w.verify_art9(core.state())?;
    let stats = core.pipeline_stats().expect("pipelined backend is timed");
    let accounting = energy.lock().expect("observer lock").clone();
    Ok(MeasuredActivity {
        workload: w.name,
        cycles: stats.cycles,
        instructions: summary.retired,
        accounting,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bubble_sort, dot_product};

    #[test]
    fn measured_run_is_verified_and_consistent() {
        let m = measure_activity_with(&dot_product(6), 10_000_000).unwrap();
        assert_eq!(m.workload, "dot-product");
        assert!(m.cycles >= m.instructions, "pipeline cannot beat 1 CPI");
        let totals = m.accounting.totals();
        assert_eq!(totals.retired, m.instructions);
        assert!(totals.regfile > 0, "a real run flips register trits");
        assert!(totals.fetch > 0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let a = measure_activity_with(&bubble_sort(8), 10_000_000).unwrap();
        let b = measure_activity_with(&bubble_sort(8), 10_000_000).unwrap();
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.accounting.per_opcode(), b.accounting.per_opcode());
    }

    #[test]
    fn activity_tracks_workload_size() {
        let small = measure_activity_with(&bubble_sort(6), 10_000_000).unwrap();
        let large = measure_activity_with(&bubble_sort(12), 10_000_000).unwrap();
        assert!(large.accounting.totals().regfile > small.accounting.totals().regfile);
        assert!(large.accounting.totals().tdm > small.accounting.totals().tdm);
    }
}
