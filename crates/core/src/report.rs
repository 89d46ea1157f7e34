//! Human-readable evaluation reports in the shape of the paper's
//! tables.

use crate::hardware::Evaluation;
use crate::software::MemoryComparison;

/// Renders Table IV (CNTFET implementation).
pub fn table4(e: &Evaluation) -> String {
    let c = &e.cntfet;
    let mut s = String::new();
    s.push_str("Table IV — implementation results using CNTFET ternary gates\n");
    s.push_str("Voltage  Total gates  Power      DMIPS/W\n");
    s.push_str(&format!(
        "{:.1}V     {:<11}  {:.1} µW   {:.2e}\n",
        c.voltage, c.total_gates, c.power_uw, c.dmips_per_watt
    ));
    s.push_str(&format!(
        "(fmax {:.0} MHz, {:.1} DMIPS)\n",
        c.fmax_mhz, c.dmips
    ));
    s
}

/// Renders Table V (FPGA implementation).
pub fn table5(e: &Evaluation) -> String {
    let f = &e.fpga;
    let r = &f.report;
    let mut s = String::new();
    s.push_str("Table V — implementation results using FPGA-based ternary logics\n");
    s.push_str("Voltage  Frequency  ALMs  Registers  RAM        Power\n");
    s.push_str(&format!(
        "{:.1}V     {:.0} MHz    {:<5} {:<10} {} bits  {:.2} W\n",
        r.voltage, r.frequency_mhz, r.alms, r.registers, r.ram_bits, r.power_w
    ));
    s.push_str(&format!(
        "({:.1} DMIPS, {:.1} DMIPS/W)\n",
        f.dmips, f.dmips_per_watt
    ));
    s
}

/// Renders the Fig. 5 memory-cell comparison.
pub fn fig5(rows: &[MemoryComparison]) -> String {
    let mut s = String::new();
    s.push_str("Fig. 5 — memory cells for storing benchmark programs\n");
    s.push_str(&format!(
        "{:<14} {:>14} {:>14} {:>14} {:>10} {:>10}\n",
        "benchmark", "ART-9 (trits)", "RV-32I (bits)", "ARMv6-M (bits)", "vs RV32", "vs ARM"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<14} {:>14} {:>14} {:>14} {:>9.0}% {:>9.0}%\n",
            r.name,
            r.art9_cells,
            r.rv32_bits,
            r.thumb_bits,
            100.0 * r.saving_vs_rv32(),
            100.0 * r.saving_vs_thumb()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareFramework;

    #[test]
    fn tables_render_key_fields() {
        let e = HardwareFramework::new().evaluate(1355.0);
        let t4 = table4(&e);
        assert!(t4.contains("CNTFET"));
        assert!(t4.contains("0.9V"));
        let t5 = table5(&e);
        assert!(t5.contains("9216"));
        let f5 = fig5(&[MemoryComparison {
            name: "dhrystone".into(),
            art9_cells: 11600,
            rv32_bits: 25400,
            thumb_bits: 23700,
        }]);
        assert!(f5.contains("dhrystone"));
        assert!(f5.contains("54%"));
        assert!(f5.contains("51%"));
    }
}
