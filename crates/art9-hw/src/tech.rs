//! Technology libraries — the "property description of the design
//! technology" input of the gate-level analyzer (paper §III-B, Fig. 3).
//!
//! A library characterizes each ternary standard cell with delay,
//! leakage and switching energy. The 32 nm CNTFET library reproduces
//! the simplified model of references \[7\]/\[8\] (no parasitic wire
//! capacitance, as the paper states for Table IV); absolute values are
//! calibrated so the 652-gate datapath lands at Table IV's magnitude
//! (≈ 43 µW at 0.9 V, several-hundred-MHz critical path) — DESIGN.md
//! §3.3 records the substitution.

use std::collections::BTreeMap;

use crate::gate::{CellParams, GateKind, ALL_KINDS};

/// A named cell library at a fixed operating voltage.
#[derive(Debug, Clone)]
pub struct TechLibrary {
    name: String,
    voltage: f64,
    cells: BTreeMap<GateKind, CellParams>,
    /// Average switching activity assumed by the power roll-up.
    activity: f64,
}

impl TechLibrary {
    /// Builds a library from explicit cell parameters.
    ///
    /// # Panics
    ///
    /// Panics if any [`GateKind`] is missing — a library must
    /// characterize every cell the netlists can instantiate.
    pub fn new(
        name: impl Into<String>,
        voltage: f64,
        cells: BTreeMap<GateKind, CellParams>,
        activity: f64,
    ) -> Self {
        for k in ALL_KINDS {
            assert!(cells.contains_key(&k), "library misses cell {k}");
        }
        Self {
            name: name.into(),
            voltage,
            cells,
            activity,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Operating voltage in volts.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Assumed average switching activity.
    pub fn activity(&self) -> f64 {
        self.activity
    }

    /// Parameters of one cell kind.
    ///
    /// # Panics
    ///
    /// Never — construction guarantees completeness.
    pub fn cell(&self, kind: GateKind) -> CellParams {
        self.cells[&kind]
    }

    /// A closure view for the netlist analysis functions.
    pub fn params(&self) -> impl Fn(GateKind) -> CellParams + '_ {
        move |k| self.cell(k)
    }
}

/// The 32 nm CNTFET ternary library at 0.9 V (Table IV's technology).
///
/// Relative cell costs follow the synthesis results of \[8\]: inverters
/// are the cheapest, min/max gates moderate, the XOR/sum/carry cells
/// the largest; flip-flops cost roughly four inverter equivalents.
pub fn cntfet32() -> TechLibrary {
    let mut cells = BTreeMap::new();
    let mut put = |k: GateKind, d: f64, s: f64, e: f64| {
        cells.insert(
            k,
            CellParams {
                delay_ps: d,
                static_nw: s,
                switch_energy_fj: e,
            },
        );
    };
    // kind, delay ps, leakage nW, switch energy fJ.
    put(GateKind::Sti, 95.0, 28.0, 0.28);
    put(GateKind::Nti, 85.0, 24.0, 0.24);
    put(GateKind::Pti, 85.0, 24.0, 0.24);
    put(GateKind::Tand, 130.0, 42.0, 0.42);
    put(GateKind::Tor, 130.0, 42.0, 0.42);
    put(GateKind::Txor, 180.0, 58.0, 0.60);
    put(GateKind::Tnand, 120.0, 38.0, 0.38);
    put(GateKind::Tnor, 120.0, 38.0, 0.38);
    put(GateKind::Tmux, 140.0, 44.0, 0.45);
    put(GateKind::Tsum, 200.0, 62.0, 0.66);
    put(GateKind::Tcarry, 170.0, 52.0, 0.55);
    put(GateKind::Tcmp, 150.0, 46.0, 0.48);
    put(GateKind::Tbuf, 70.0, 20.0, 0.20);
    put(GateKind::Tdff, 220.0, 80.0, 0.90);
    TechLibrary::new("cntfet-32nm", 0.9, cells, 0.12)
}

/// A deliberately slow/leaky "generic ternary CMOS" library, used by
/// the `report` binary's Ablations section to show the analyzer
/// separating technologies.
pub fn generic_cmos_ternary() -> TechLibrary {
    let base = cntfet32();
    let mut cells = BTreeMap::new();
    for k in ALL_KINDS {
        let c = base.cell(k);
        cells.insert(
            k,
            CellParams {
                delay_ps: c.delay_ps * 3.0,
                static_nw: c.static_nw * 8.0,
                switch_energy_fj: c.switch_energy_fj * 5.0,
            },
        );
    }
    TechLibrary::new("generic-cmos-ternary", 0.9, cells, 0.12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cntfet_is_complete_and_ordered() {
        let lib = cntfet32();
        assert_eq!(lib.voltage(), 0.9);
        // Inverters are cheaper than arithmetic cells.
        assert!(lib.cell(GateKind::Sti).delay_ps < lib.cell(GateKind::Tsum).delay_ps);
        assert!(lib.cell(GateKind::Nti).static_nw < lib.cell(GateKind::Tdff).static_nw);
    }

    #[test]
    fn generic_cmos_is_strictly_worse() {
        let fast = cntfet32();
        let slow = generic_cmos_ternary();
        for k in ALL_KINDS {
            assert!(slow.cell(k).delay_ps > fast.cell(k).delay_ps);
            assert!(slow.cell(k).static_nw > fast.cell(k).static_nw);
        }
    }

    #[test]
    #[should_panic(expected = "misses cell")]
    fn incomplete_library_rejected() {
        let _ = TechLibrary::new("bad", 0.9, BTreeMap::new(), 0.1);
    }
}
