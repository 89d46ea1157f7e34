//! Cycle and stall accounting for the pipelined model.

use std::fmt;

/// Cycle-accurate statistics collected by
/// [`PipelinedSim`](crate::PipelinedSim).
///
/// The paper's pipeline inserts hardware stalls in exactly two cases
/// (§IV-B): load-use data hazards and taken branches; this struct
/// additionally separates the ID-use stalls (a branch waiting for its
/// condition/base register) that fall under the load-use umbrella when
/// the producer is a LOAD.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Total clock cycles from reset until the pipeline drained.
    pub cycles: u64,
    /// Instructions retired (completed WB).
    pub instructions: u64,
    /// Stalls from load-use hazards feeding the EX stage.
    pub load_use_stalls: u64,
    /// Stalls from B-type instructions waiting in ID for an operand that
    /// is still in flight.
    pub id_use_stalls: u64,
    /// Bubbles from taken branches and jumps (one squashed fetch each).
    pub control_flush_bubbles: u64,
    /// Taken control transfers (taken branches + JAL + JALR).
    pub taken_transfers: u64,
    /// Conditional branches that were not taken (no penalty).
    pub untaken_branches: u64,
}

impl PipelineStats {
    /// Cycles per instruction.
    ///
    /// Returns `0.0` before any instruction retires (never `NaN`).
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.cycles as f64 / self.instructions as f64
    }

    /// Total stall/bubble cycles of all causes.
    pub fn lost_cycles(&self) -> u64 {
        self.load_use_stalls + self.id_use_stalls + self.control_flush_bubbles
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "cycles:              {}", self.cycles)?;
        writeln!(f, "instructions:        {}", self.instructions)?;
        writeln!(f, "CPI:                 {:.3}", self.cpi())?;
        writeln!(f, "load-use stalls:     {}", self.load_use_stalls)?;
        writeln!(f, "ID-use stalls:       {}", self.id_use_stalls)?;
        writeln!(f, "control bubbles:     {}", self.control_flush_bubbles)?;
        writeln!(f, "taken transfers:     {}", self.taken_transfers)?;
        write!(f, "untaken branches:    {}", self.untaken_branches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = PipelineStats {
            cycles: 120,
            instructions: 100,
            load_use_stalls: 5,
            id_use_stalls: 3,
            control_flush_bubbles: 8,
            taken_transfers: 8,
            untaken_branches: 2,
        };
        assert!((s.cpi() - 1.2).abs() < 1e-9);
        assert_eq!(s.lost_cycles(), 16);
        let text = s.to_string();
        assert!(text.contains("CPI"));
        assert!(text.contains("120"));
    }

    #[test]
    fn zero_counters_yield_finite_metrics() {
        let s = PipelineStats::default();
        assert_eq!(s.cpi(), 0.0);
        assert!(s.cpi().is_finite());
    }
}
