//! The measured Table IV: switching activity → energy, per workload
//! and per instruction class.
//!
//! A pipelined [`RunRecord`] from a `BatchRunner` built with
//! `measure_energy(true)` carries the trit flips and cycles of one
//! verified run; this module converts them through `art9_hw::activity`
//! (the same cntfet-32nm technology table the static Table IV uses)
//! into energy-per-workload, per-class EPI, average power and — for
//! the Dhrystone kernel — the measured DMIPS/W. Schema and model are
//! documented in `docs/ENERGY.md`.

use art9_hw::activity::{
    dynamic_energy, measured_dmips_per_watt, measured_power, ActivityCounts, InstrClass,
    ALL_CLASSES,
};
use art9_hw::analyzer::GateAnalysis;
use art9_hw::tech::TechLibrary;
use art9_isa::Instruction;
use art9_sim::observers::EnergyAccounting;
use workloads::batch::RunRecord;

/// One workload's measured-energy report row.
#[derive(Debug, Clone)]
pub struct EnergyRow {
    /// Workload name.
    pub workload: &'static str,
    /// Total dynamic switching energy, nJ.
    pub energy_nj: f64,
    /// Energy per instruction over the whole run, pJ.
    pub epi_pj: f64,
    /// Per-class EPI, pJ, in [`ALL_CLASSES`] order.
    pub class_epi_pj: [f64; 5],
    /// Average dynamic power over the run at the analyzer's clock, µW.
    pub dynamic_uw: f64,
    /// Dynamic plus static leakage, µW.
    pub total_uw: f64,
    /// Measured Dhrystone DMIPS (Dhrystone rows only).
    pub dmips: Option<f64>,
    /// Measured DMIPS/W (Dhrystone rows only).
    pub dmips_per_watt: Option<f64>,
}

/// Folds the per-opcode flip accumulators into per-class
/// [`ActivityCounts`], in [`ALL_CLASSES`] order.
pub fn class_counts(accounting: &EnergyAccounting) -> [ActivityCounts; 5] {
    let mut per_class = [ActivityCounts::default(); 5];
    for (opcode, acc) in accounting.per_opcode().iter().enumerate() {
        if acc.retired == 0 {
            continue;
        }
        let mnemonic = Instruction::MNEMONICS[opcode];
        let class = InstrClass::classify(mnemonic)
            .unwrap_or_else(|| panic!("unclassified mnemonic {mnemonic}"));
        let slot = ALL_CLASSES
            .iter()
            .position(|c| *c == class)
            .expect("listed");
        per_class[slot].add(&ActivityCounts {
            retired: acc.retired,
            regfile: acc.regfile,
            tdm: acc.tdm,
            fetch: acc.fetch,
            alu: acc.alu,
        });
    }
    per_class
}

/// Builds the energy row for one pipelined run measured with energy
/// on. Pass the Dhrystone iteration count to get the measured DMIPS/W
/// on that row.
///
/// # Panics
///
/// Panics if the record has no cycle count or no energy accounting
/// (a run on an untimed backend, or a batch without energy
/// measurement).
pub fn energy_row(
    r: &RunRecord,
    analysis: &GateAnalysis,
    lib: &TechLibrary,
    dhrystone_iterations: Option<u64>,
) -> EnergyRow {
    let cycles = r.cycles.expect("energy rows come from timed runs");
    let accounting = r
        .energy
        .as_ref()
        .expect("batch ran with energy measurement");
    let per_class = class_counts(accounting);
    let mut total = ActivityCounts::default();
    for c in &per_class {
        total.add(c);
    }
    debug_assert_eq!(total.retired, r.instructions, "classes must partition");

    let e = dynamic_energy(&total, lib);
    let power = measured_power(analysis, &e, cycles);
    let mut class_epi_pj = [0.0; 5];
    for (slot, counts) in per_class.iter().enumerate() {
        class_epi_pj[slot] = dynamic_energy(counts, lib).per_instruction_pj(counts.retired);
    }
    let dhrystone =
        dhrystone_iterations.map(|iters| measured_dmips_per_watt(analysis, &e, cycles, iters));

    EnergyRow {
        workload: r.workload,
        energy_nj: e.total_nj(),
        epi_pj: e.per_instruction_pj(r.instructions),
        class_epi_pj,
        dynamic_uw: power.dynamic_uw,
        total_uw: power.total_uw,
        dmips: dhrystone.map(|d| d.dmips),
        dmips_per_watt: dhrystone.map(|d| d.dmips_per_watt),
    }
}

/// Renders the measured-energy table for stdout.
pub fn render(rows: &[EnergyRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>12} {:>10} {:>8} {:>10} {:>10}",
        "workload", "energy (nJ)", "EPI (pJ)", "dyn µW", "total µW", "DMIPS/W"
    );
    for r in rows {
        let dpw = r
            .dmips_per_watt
            .map_or_else(|| "-".to_string(), |v| format!("{v:.3e}"));
        let _ = writeln!(
            out,
            "{:<14} {:>12.4} {:>10.4} {:>8.3} {:>10.3} {:>10}",
            r.workload, r.energy_nj, r.epi_pj, r.dynamic_uw, r.total_uw, dpw
        );
    }
    let _ = writeln!(
        out,
        "per-class EPI (pJ): {}",
        ALL_CLASSES
            .iter()
            .map(|c| c.name())
            .collect::<Vec<_>>()
            .join(" / ")
    );
    for r in rows {
        let cells: Vec<String> = r.class_epi_pj.iter().map(|v| format!("{v:.4}")).collect();
        let _ = writeln!(out, "  {:<14} {}", r.workload, cells.join(" / "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_hw::analyzer::analyze;
    use art9_hw::datapath::Datapath;
    use art9_hw::tech::cntfet32;
    use workloads::batch::{BatchRunner, ExecConfig};
    use workloads::Workload;

    /// One verified pipelined run with energy measurement on, as
    /// `report` measures every paper workload.
    fn measured(w: Workload) -> RunRecord {
        BatchRunner::new()
            .workload(w)
            .config(ExecConfig::art9_pipelined(true))
            .measure_energy(true)
            .try_run()
            .unwrap()
            .runs
            .remove(0)
    }

    fn totals(r: &RunRecord) -> art9_sim::observers::OpcodeActivity {
        r.energy.as_ref().unwrap().totals()
    }

    #[test]
    fn measured_run_is_verified_and_consistent() {
        let r = measured(workloads::dot_product(6));
        assert_eq!(r.workload, "dot-product");
        assert!(
            r.cycles.unwrap() >= r.instructions,
            "pipeline cannot beat 1 CPI"
        );
        let totals = totals(&r);
        assert_eq!(totals.retired, r.instructions);
        assert!(totals.regfile > 0, "a real run flips register trits");
        assert!(totals.fetch > 0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let (a, b) = (
            measured(workloads::bubble_sort(8)),
            measured(workloads::bubble_sort(8)),
        );
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(
            a.energy.unwrap().per_opcode(),
            b.energy.unwrap().per_opcode()
        );
    }

    #[test]
    fn activity_tracks_workload_size() {
        let small = totals(&measured(workloads::bubble_sort(6)));
        let large = totals(&measured(workloads::bubble_sort(12)));
        assert!(large.regfile > small.regfile);
        assert!(large.tdm > small.tdm);
    }

    #[test]
    fn classes_partition_the_retired_instructions() {
        let r = measured(workloads::dot_product(6));
        let per_class = class_counts(r.energy.as_ref().unwrap());
        let retired: u64 = per_class.iter().map(|c| c.retired).sum();
        assert_eq!(retired, r.instructions);
        let flips: u64 = per_class.iter().map(ActivityCounts::total_flips).sum();
        assert_eq!(flips, {
            let t = totals(&r);
            t.regfile + t.tdm + t.fetch + t.alu
        });
    }

    #[test]
    fn energy_row_is_positive_and_consistent() {
        let m = measured(workloads::dot_product(6));
        let a = analyze(&Datapath::art9(), &cntfet32());
        let r = energy_row(&m, &a, &cntfet32(), None);
        assert!(r.energy_nj > 0.0);
        assert!(r.epi_pj > 0.0);
        assert!(r.total_uw > r.dynamic_uw, "leakage adds on top");
        assert_eq!(r.dmips, None);
        // The overall EPI is a retirement-weighted mean of the class
        // EPIs, so it lies within their span.
        let per_class = class_counts(m.energy.as_ref().unwrap());
        let populated: Vec<f64> = ALL_CLASSES
            .iter()
            .enumerate()
            .filter(|(i, _)| per_class[*i].retired > 0)
            .map(|(i, _)| r.class_epi_pj[i])
            .collect();
        let lo = populated.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = populated.iter().cloned().fold(0.0, f64::max);
        assert!(
            r.epi_pj >= lo && r.epi_pj <= hi,
            "{lo} <= {} <= {hi}",
            r.epi_pj
        );
    }

    #[test]
    fn dhrystone_row_carries_measured_dmips_per_watt() {
        let iters = 5u64;
        let m = measured(workloads::dhrystone(iters as usize));
        let a = analyze(&Datapath::art9(), &cntfet32());
        let r = energy_row(&m, &a, &cntfet32(), Some(iters));
        let dmips = r.dmips.unwrap();
        let dpw = r.dmips_per_watt.unwrap();
        assert!(dmips > 0.0);
        // DMIPS/W must equal DMIPS / total power (W) exactly.
        assert!((dpw - dmips / (r.total_uw * 1e-6)).abs() / dpw < 1e-12);
        assert!(render(&[r]).contains("dhrystone"));
    }
}
