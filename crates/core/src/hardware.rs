//! The hardware-level evaluation framework, end to end (paper Fig. 3):
//! cycle-accurate simulation → gate-level analysis → performance
//! estimation.

use art9_hw::analyzer::{analyze, GateAnalysis};
use art9_hw::datapath::Datapath;
use art9_hw::estimator::{
    estimate_cntfet, estimate_fpga, CntfetEstimate, DhrystoneResult, FpgaEstimate,
};
use art9_hw::fpga::{map_to_fpga, MemoryConfig};
use art9_hw::tech::{cntfet32, TechLibrary};
use art9_isa::Program;
use art9_sim::{Core, PipelineStats, SimBuilder, SimError};

/// Front door of the hardware-level framework.
///
/// # Examples
///
/// ```
/// use art9_core::HardwareFramework;
/// use art9_isa::assemble;
///
/// let fw = HardwareFramework::new();
/// let p = assemble("LI t3, 3\nADDI t3, -1\nJAL t0, 0\n")?;
/// let stats = fw.run_cycles(&p, 10_000)?;
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct HardwareFramework {
    datapath: Datapath,
    library: TechLibrary,
    fpga_mem: MemoryConfig,
    fpga_mhz: f64,
}

/// Everything the framework produces for one design point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Gate-level analysis under the ternary library.
    pub gate_analysis: GateAnalysis,
    /// Table IV-style CNTFET estimate.
    pub cntfet: CntfetEstimate,
    /// Table V-style FPGA estimate.
    pub fpga: FpgaEstimate,
}

impl Default for HardwareFramework {
    fn default() -> Self {
        Self::new()
    }
}

impl HardwareFramework {
    /// Framework over the ART-9 datapath, the 32 nm CNTFET library and
    /// the Table V FPGA configuration (256-word memories, 150 MHz).
    pub fn new() -> Self {
        Self {
            datapath: Datapath::art9(),
            library: cntfet32(),
            fpga_mem: MemoryConfig::default(),
            fpga_mhz: 150.0,
        }
    }

    /// Swaps the technology library (for ablations).
    #[must_use]
    pub fn with_library(mut self, library: TechLibrary) -> Self {
        self.library = library;
        self
    }

    /// The modelled datapath.
    pub fn datapath(&self) -> &Datapath {
        &self.datapath
    }

    /// Cycle-accurate simulation of a program on the pipelined core.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] (faults, timeout).
    pub fn run_cycles(
        &self,
        program: &Program,
        max_cycles: u64,
    ) -> Result<PipelineStats, SimError> {
        let mut core = SimBuilder::new(program).build_pipelined();
        core.run(max_cycles)?;
        Ok(core.pipeline_stats().expect("pipelined backend"))
    }

    /// The complete Fig. 3 flow, given Dhrystone cycles-per-iteration
    /// from [`HardwareFramework::run_cycles`] on the Dhrystone program.
    pub fn evaluate(&self, dhrystone_cycles_per_iteration: f64) -> Evaluation {
        let dhrystone = DhrystoneResult {
            cycles_per_iteration: dhrystone_cycles_per_iteration,
        };
        let gate_analysis = analyze(&self.datapath, &self.library);
        let cntfet = estimate_cntfet(&gate_analysis, dhrystone);
        let fpga_report = map_to_fpga(&self.datapath, self.fpga_mem, self.fpga_mhz);
        let fpga = estimate_fpga(&fpga_report, dhrystone);
        Evaluation {
            gate_analysis,
            cntfet,
            fpga,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::assemble;

    #[test]
    fn full_flow_produces_consistent_tables() {
        let fw = HardwareFramework::new();
        let e = fw.evaluate(1355.0);
        assert_eq!(e.gate_analysis.gates, e.cntfet.total_gates);
        assert!(e.cntfet.dmips_per_watt > e.fpga.dmips_per_watt * 1e3);
        assert_eq!(e.fpga.report.ram_bits, 9216);
    }

    #[test]
    fn cycle_run_smoke() {
        let fw = HardwareFramework::new();
        let p = assemble("LI t3, 5\nADD t3, t3\nJAL t0, 0\n").unwrap();
        let stats = fw.run_cycles(&p, 1000).unwrap();
        assert_eq!(stats.instructions, 3);
    }

    #[test]
    fn library_swap_changes_results() {
        let fast = HardwareFramework::new().evaluate(1000.0);
        let slow = HardwareFramework::new()
            .with_library(art9_hw::tech::generic_cmos_ternary())
            .evaluate(1000.0);
        assert!(slow.cntfet.fmax_mhz < fast.cntfet.fmax_mhz);
        assert!(slow.cntfet.dmips_per_watt < fast.cntfet.dmips_per_watt);
    }
}
