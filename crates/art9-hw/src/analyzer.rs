//! The gate-level analyzer (paper Fig. 3): estimates critical delay
//! and power of a datapath under a technology library.

use crate::datapath::Datapath;
use crate::tech::TechLibrary;

/// Analysis results for one design/technology pairing.
#[derive(Debug, Clone)]
pub struct GateAnalysis {
    /// Technology name.
    pub technology: String,
    /// Operating voltage (V).
    pub voltage: f64,
    /// Total combinational gates.
    pub gates: usize,
    /// Sequential trits (flip-flops).
    pub state_trits: usize,
    /// Critical path delay (ps) over all blocks.
    pub critical_path_ps: f64,
    /// Static power of the datapath (µW).
    pub static_uw: f64,
    /// Dynamic power of the datapath at `fmax` (µW).
    pub dynamic_uw: f64,
}

impl GateAnalysis {
    /// Maximum clock frequency implied by the critical path, MHz.
    pub fn fmax_mhz(&self) -> f64 {
        1.0e6 / self.critical_path_ps
    }

    /// Total datapath power at `fmax`, µW.
    pub fn total_power_uw(&self) -> f64 {
        self.static_uw + self.dynamic_uw
    }
}

/// Runs the analyzer over a datapath.
///
/// The critical path is the worst stage delay across blocks (stages
/// are register-bounded, so blocks time independently); power sums
/// leakage over all gates plus switching power at the implied `fmax`.
pub fn analyze(datapath: &Datapath, lib: &TechLibrary) -> GateAnalysis {
    let params = lib.params();

    let critical_path_ps = datapath
        .blocks()
        .iter()
        .map(|b| b.critical_path_ps(&params))
        .fold(0.0f64, f64::max);

    let static_nw: f64 = datapath
        .blocks()
        .iter()
        .map(|b| b.static_power_nw(&params))
        .sum();

    let fmax_mhz = 1.0e6 / critical_path_ps;
    let dynamic_nw: f64 = datapath
        .blocks()
        .iter()
        .map(|b| b.dynamic_power_nw(&params, fmax_mhz, lib.activity()))
        .sum();

    GateAnalysis {
        technology: lib.name().to_string(),
        voltage: lib.voltage(),
        gates: datapath.datapath_gates(),
        state_trits: datapath.state_trits(),
        critical_path_ps,
        static_uw: static_nw / 1000.0,
        dynamic_uw: dynamic_nw / 1000.0,
    }
}

/// The block that limits the clock: name and its path delay. This is
/// the first thing a designer asks the analyzer ("what do I pipeline
/// next?").
pub fn critical_block<'a>(datapath: &'a Datapath, lib: &TechLibrary) -> (&'a str, f64) {
    let params = lib.params();
    datapath
        .blocks()
        .iter()
        .map(|b| (b.name(), b.critical_path_ps(&params)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("datapath has blocks")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::{cntfet32, generic_cmos_ternary};

    #[test]
    fn cntfet_datapath_lands_near_table4() {
        let d = Datapath::art9();
        let a = analyze(&d, &cntfet32());
        // Table IV: 652 gates, 42.7 µW, with DMIPS/W implying ~300 MHz.
        assert!((550..=750).contains(&a.gates), "gates {}", a.gates);
        let p = a.total_power_uw();
        assert!((20.0..=80.0).contains(&p), "power {p} µW");
        let f = a.fmax_mhz();
        assert!((150.0..=600.0).contains(&f), "fmax {f} MHz");
    }

    #[test]
    fn slower_library_means_lower_fmax_higher_power() {
        let d = Datapath::art9();
        let fast = analyze(&d, &cntfet32());
        let slow = analyze(&d, &generic_cmos_ternary());
        assert!(slow.fmax_mhz() < fast.fmax_mhz());
        assert!(slow.static_uw > fast.static_uw);
    }

    #[test]
    fn block_analysis_is_consistent() {
        let d = Datapath::art9();
        let total: usize = d.blocks().iter().map(|b| b.gate_count()).sum();
        assert_eq!(total, d.datapath_gates());
    }

    #[test]
    fn critical_block_is_the_slowest_and_matches_overall() {
        let d = Datapath::art9();
        let lib = cntfet32();
        let (name, delay) = critical_block(&d, &lib);
        let a = analyze(&d, &lib);
        assert!((delay - a.critical_path_ps).abs() < 1e-9);
        // The ripple carry chain dominates a 9-trit in-order core.
        assert!(
            name == "adder-subtractor" || name == "branch-unit" || name == "array-multiplier",
            "unexpected critical block {name}"
        );
    }
}
