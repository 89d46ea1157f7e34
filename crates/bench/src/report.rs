//! The paper results that compose several crates: the Fig. 3
//! hardware-level evaluation flow, the Fig. 5 memory-cell comparison,
//! and the renderers that print Tables IV and V and Fig. 5.
//!
//! The software-level compiling framework (Fig. 2) is
//! `art9_compiler::translate`; cycle-accurate simulation is
//! `art9_sim::SimBuilder`. This module adds only what combines them
//! with `art9_hw` and `rv32`.
//!
//! ```
//! use art9_bench::report::{evaluate, table4};
//! use art9_sim::{Core, SimBuilder};
//! use rv32::parse_program;
//!
//! // Software level: compile an RV32 program to ternary.
//! let rv = parse_program("
//!     li a0, 10
//!     li a1, 0
//! loop:
//!     add a1, a1, a0
//!     addi a0, a0, -1
//!     bnez a0, loop
//!     ebreak
//! ")?;
//! let translation = art9_compiler::translate(&rv)?;
//!
//! // Hardware level: run it cycle-accurately, then estimate silicon.
//! let mut core = SimBuilder::new(&translation.program).build_pipelined();
//! core.run(100_000)?;
//! let cycles = core.pipeline_stats().expect("pipelined backend").cycles;
//! let evaluation = evaluate(cycles as f64); // 1 "iteration"
//! println!("{}", table4(&evaluation));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use art9_compiler::CompileError;
use art9_hw::analyzer::{analyze, GateAnalysis};
use art9_hw::datapath::Datapath;
use art9_hw::estimator::{
    estimate_cntfet, estimate_fpga, CntfetEstimate, DhrystoneResult, FpgaEstimate,
};
use art9_hw::fpga::{map_to_fpga, MemoryConfig};
use art9_hw::tech::cntfet32;
use rv32::{estimate_thumb, Rv32Program};

/// Everything the Fig. 3 flow produces for the ART-9 design point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Gate-level analysis under the ternary library.
    pub gate_analysis: GateAnalysis,
    /// Table IV-style CNTFET estimate.
    pub cntfet: CntfetEstimate,
    /// Table V-style FPGA estimate.
    pub fpga: FpgaEstimate,
}

/// The complete Fig. 3 flow over the ART-9 datapath, the 32 nm CNTFET
/// library and the Table V FPGA configuration (256-word memories,
/// 150 MHz), given Dhrystone cycles-per-iteration from a pipelined run
/// of the Dhrystone program.
pub fn evaluate(dhrystone_cycles_per_iteration: f64) -> Evaluation {
    let dhrystone = DhrystoneResult {
        cycles_per_iteration: dhrystone_cycles_per_iteration,
    };
    let datapath = Datapath::art9();
    let gate_analysis = analyze(&datapath, &cntfet32());
    let cntfet = estimate_cntfet(&gate_analysis, dhrystone);
    let fpga_report = map_to_fpga(&datapath, MemoryConfig::default(), 150.0);
    let fpga = estimate_fpga(&fpga_report, dhrystone);
    Evaluation {
        gate_analysis,
        cntfet,
        fpga,
    }
}

/// One row of the Fig. 5 memory-cell comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryComparison {
    /// Program name.
    pub name: String,
    /// ART-9 storage: ternary memory cells (trits), instructions + data.
    pub art9_cells: usize,
    /// RV-32I storage: bits, instructions + data.
    pub rv32_bits: usize,
    /// ARMv6-M estimate: bits, instructions + data.
    pub thumb_bits: usize,
}

impl MemoryComparison {
    /// Cell-count reduction of ART-9 vs RV-32I (the paper quotes 54 %
    /// for Dhrystone). Compares raw storage-cell counts, as Fig. 5
    /// does: a ternary cell stores one trit, a binary cell one bit.
    pub fn saving_vs_rv32(&self) -> f64 {
        1.0 - self.art9_cells as f64 / self.rv32_bits as f64
    }

    /// Cell-count reduction vs the ARMv6-M estimate.
    fn saving_vs_thumb(&self) -> f64 {
        1.0 - self.art9_cells as f64 / self.thumb_bits as f64
    }
}

/// Produces one Fig. 5 row: the same program's storage on the three
/// ISAs.
///
/// # Errors
///
/// Any [`CompileError`] from the translation.
pub fn memory_comparison(
    name: impl Into<String>,
    program: &Rv32Program,
) -> Result<MemoryComparison, CompileError> {
    let t = art9_compiler::translate(program)?;
    Ok(MemoryComparison {
        name: name.into(),
        // Instructions + initial data, in storage cells.
        art9_cells: t.program.instruction_cells() + program.data().len() * 9,
        rv32_bits: program.memory_bits(),
        thumb_bits: estimate_thumb(program).memory_bits(),
    })
}

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
    use rv32::parse_program;

    #[test]
    fn full_flow_produces_consistent_tables() {
        let e = evaluate(1355.0);
        assert_eq!(e.gate_analysis.gates, e.cntfet.total_gates);
        assert!(e.cntfet.dmips_per_watt > e.fpga.dmips_per_watt * 1e3);
        assert_eq!(e.fpga.report.ram_bits, 9216);
    }

    #[test]
    fn comparison_row_has_all_three_columns() {
        let rv = parse_program(
            ".data\nv: .word 1, 2, 3\n.text\nla a0, v\nlw a1, 0(a0)\nadd a1, a1, a1\nebreak\n",
        )
        .unwrap();
        let row = memory_comparison("demo", &rv).unwrap();
        assert!(row.art9_cells > 0);
        assert!(row.rv32_bits > 0);
        assert!(row.thumb_bits > 0);
        // Thumb is denser than RV32 in bits.
        assert!(row.thumb_bits < row.rv32_bits);
    }

    #[test]
    fn art9_saves_cells_on_loopy_code() {
        // Branch-heavy code is where 9-trit instructions pay off.
        let rv = parse_program(
            "
            li a0, 9
            li a1, 0
            loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            ebreak
            ",
        )
        .unwrap();
        let row = memory_comparison("loop", &rv).unwrap();
        assert!(
            row.saving_vs_rv32() > 0.0,
            "expected cell saving, got {:.2}",
            row.saving_vs_rv32()
        );
    }

    #[test]
    fn tables_render_key_fields() {
        let e = evaluate(1355.0);
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
