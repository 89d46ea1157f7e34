//! Assembly of the full ART-9 datapath netlist (paper Fig. 4) from the
//! structural blocks — the "synthesizable RTL description" input of the
//! gate-level analyzer, §III-B.

use crate::blocks::{
    adder_subtractor, array_multiplier, branch_unit, comparator, forwarding_muxes, hazard_unit,
    immediate_unit, inverter_unit, logic_unit, main_decoder, memory_interface, pc_incrementer,
    pc_source_mux, regindex_decoder, result_mux, shifter, storage, trf_read_ports, writeback_mux,
    WIDTH,
};
use crate::netlist::Netlist;

/// The ART-9 core as a set of named gate-level blocks.
#[derive(Debug, Clone)]
pub struct Datapath {
    blocks: Vec<Netlist>,
    storage: Netlist,
}

impl Datapath {
    /// Builds the 5-stage ART-9 datapath.
    pub fn art9() -> Self {
        let blocks = vec![
            // EX: the ternary ALU.
            adder_subtractor(WIDTH),
            logic_unit(WIDTH),
            inverter_unit(WIDTH),
            shifter(WIDTH),
            comparator(WIDTH),
            result_mux(WIDTH, 8),
            forwarding_muxes(WIDTH),
            // IF/ID: fetch and decode.
            pc_incrementer(WIDTH),
            pc_source_mux(WIDTH),
            branch_unit(WIDTH),
            main_decoder(),
            immediate_unit(WIDTH),
            hazard_unit(),
            trf_read_ports(WIDTH),
            regindex_decoder(),
            // MEM/WB.
            memory_interface(WIDTH),
            writeback_mux(WIDTH),
        ];
        Self {
            blocks,
            storage: storage(),
        }
    }

    /// The ART-9 extended with a hardware array multiplier — the design
    /// point the paper deliberately rejected (Table II: "Multiplier ✗").
    /// Used by the `report` binary's Ablations section to quantify
    /// what software multiplication saves in gates, power and cycle
    /// time.
    pub fn art9_with_multiplier() -> Self {
        let mut dp = Self::art9();
        dp.blocks.push(array_multiplier(WIDTH));
        dp
    }

    /// A hypothetical ART-core with a different word width — the
    /// design-space-exploration axis the parametric block generators
    /// enable ("why 9 trits?"). Control blocks (decoder, hazard unit)
    /// keep their ART-9 shape; all word-width datapath scales.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 19 (3^20 overflows the
    /// substrate's `i64` value domain during analysis).
    pub fn art_with_width(width: usize) -> Self {
        assert!((1..=19).contains(&width), "width must be 1..=19 trits");
        let blocks = vec![
            adder_subtractor(width),
            logic_unit(width),
            inverter_unit(width),
            shifter(width),
            comparator(width),
            result_mux(width, 8),
            forwarding_muxes(width),
            pc_incrementer(width),
            pc_source_mux(width),
            branch_unit(width),
            main_decoder(),
            immediate_unit(width),
            hazard_unit(),
            trf_read_ports(width),
            regindex_decoder(),
            memory_interface(width),
            writeback_mux(width),
        ];
        Self {
            blocks,
            storage: storage(),
        }
    }

    /// The combinational blocks (Table IV's gate population).
    pub fn blocks(&self) -> &[Netlist] {
        &self.blocks
    }

    /// The sequential state (PC, TRF, pipeline registers).
    pub fn storage(&self) -> &Netlist {
        &self.storage
    }

    /// Total combinational (datapath) gates — the paper's 652-gate
    /// metric.
    pub fn datapath_gates(&self) -> usize {
        self.blocks.iter().map(Netlist::gate_count).sum()
    }

    /// Sequential trits (TDFF count).
    pub fn state_trits(&self) -> usize {
        self.storage.gate_count()
    }

    /// One merged netlist over all combinational blocks.
    pub fn merged(&self) -> Netlist {
        let refs: Vec<&Netlist> = self.blocks.iter().collect();
        Netlist::merged("art9-datapath", &refs)
    }

    /// Per-block gate counts for reports.
    pub fn block_summary(&self) -> Vec<(String, usize)> {
        self.blocks
            .iter()
            .map(|n| (n.name().to_string(), n.gate_count()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datapath_gate_count_near_paper() {
        let d = Datapath::art9();
        let total = d.datapath_gates();
        // Table IV reports 652 standard ternary gates; the structural
        // decomposition here must land in the same region.
        assert!(
            (500..=850).contains(&total),
            "datapath gates {total} should be near the paper's 652"
        );
    }

    #[test]
    fn state_matches_storage_plan() {
        let d = Datapath::art9();
        assert_eq!(d.state_trits(), 9 + 81 + 82);
    }

    #[test]
    fn summary_covers_all_blocks() {
        let d = Datapath::art9();
        let summary = d.block_summary();
        assert_eq!(summary.len(), 17);
        assert_eq!(
            summary.iter().map(|(_, c)| *c).sum::<usize>(),
            d.datapath_gates()
        );
    }

    #[test]
    fn merged_preserves_count() {
        let d = Datapath::art9();
        assert_eq!(d.merged().gate_count(), d.datapath_gates());
    }

    #[test]
    fn width_sweep_is_monotone() {
        let g6 = Datapath::art_with_width(6).datapath_gates();
        let g9 = Datapath::art_with_width(9).datapath_gates();
        let g12 = Datapath::art_with_width(12).datapath_gates();
        assert!(g6 < g9 && g9 < g12, "{g6} < {g9} < {g12}");
        // The 9-trit point matches the flagship constructor.
        assert_eq!(g9, Datapath::art9().datapath_gates());
    }

    #[test]
    fn multiplier_variant_is_substantially_larger() {
        let base = Datapath::art9();
        let with_mul = Datapath::art9_with_multiplier();
        let delta = with_mul.datapath_gates() - base.datapath_gates();
        // A 9x9 array multiplier dwarfs most single blocks — the
        // quantified reason Table II ships without one.
        assert!(
            delta > 250,
            "multiplier adds {delta} gates; expected a large block"
        );
        assert!(with_mul
            .block_summary()
            .iter()
            .any(|(n, _)| n == "array-multiplier"));
    }
}
