//! Gate netlists and their structural/timing analysis.
//!
//! A [`Netlist`] is a DAG of [`GateKind`] instances built through
//! [`NetlistBuilder`]; fan-ins always reference already-created nodes,
//! so the storage order is a topological order and longest-path timing
//! is a single sweep.

use std::collections::BTreeMap;

use crate::gate::{CellParams, GateKind};

/// Handle to a node (gate, primary input or register output).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

#[derive(Debug, Clone)]
struct Node {
    kind: Option<GateKind>, // None = primary input / register output
    fanins: Vec<NodeId>,
}

/// A named gate-level netlist.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

/// Incremental netlist construction.
#[derive(Debug)]
pub struct NetlistBuilder {
    netlist: Netlist,
}

impl NetlistBuilder {
    /// Starts a netlist with the given block name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            netlist: Netlist {
                name: name.into(),
                nodes: Vec::new(),
                outputs: Vec::new(),
            },
        }
    }

    /// Adds a primary input (or pipeline-register output) node.
    pub fn input(&mut self) -> NodeId {
        self.netlist.nodes.push(Node {
            kind: None,
            fanins: Vec::new(),
        });
        NodeId(self.netlist.nodes.len() as u32 - 1)
    }

    /// Adds a vector of `n` inputs (a trit bus).
    pub fn inputs(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Instantiates a gate.
    ///
    /// # Panics
    ///
    /// Panics if a fan-in refers to a node that does not exist yet
    /// (construction must be topological).
    pub fn gate(&mut self, kind: GateKind, fanins: &[NodeId]) -> NodeId {
        for f in fanins {
            assert!(
                (f.0 as usize) < self.netlist.nodes.len(),
                "fan-in {f:?} does not exist"
            );
        }
        self.netlist.nodes.push(Node {
            kind: Some(kind),
            fanins: fanins.to_vec(),
        });
        NodeId(self.netlist.nodes.len() as u32 - 1)
    }

    /// Marks a node as a block output (timing endpoint).
    pub fn output(&mut self, id: NodeId) {
        self.netlist.outputs.push(id);
    }

    /// Finishes construction.
    pub fn build(self) -> Netlist {
        self.netlist
    }
}

impl Netlist {
    /// The block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gate instances (inputs are free).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_some()).count()
    }

    /// Gate-count histogram by cell kind.
    pub fn histogram(&self) -> BTreeMap<GateKind, usize> {
        let mut h = BTreeMap::new();
        for n in &self.nodes {
            if let Some(k) = n.kind {
                *h.entry(k).or_insert(0) += 1;
            }
        }
        h
    }

    /// Longest combinational path in picoseconds under `params`
    /// (sequential cells contribute their clk→Q delay at path starts
    /// and end paths at their D input).
    pub fn critical_path_ps(&self, params: &dyn Fn(GateKind) -> CellParams) -> f64 {
        let mut arrival = vec![0.0f64; self.nodes.len()];
        let mut worst: f64 = 0.0;
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(kind) = node.kind else {
                arrival[i] = 0.0;
                continue;
            };
            let input_arrival = node
                .fanins
                .iter()
                .map(|f| arrival[f.0 as usize])
                .fold(0.0f64, f64::max);
            let p = params(kind);
            if kind.is_sequential() {
                // Timing endpoint: path ends at D; Q launches fresh.
                worst = worst.max(input_arrival);
                arrival[i] = p.delay_ps; // clk -> Q
            } else {
                arrival[i] = input_arrival + p.delay_ps;
                worst = worst.max(arrival[i]);
            }
        }
        worst
    }

    /// Static (leakage) power in nanowatts.
    pub fn static_power_nw(&self, params: &dyn Fn(GateKind) -> CellParams) -> f64 {
        self.nodes
            .iter()
            .filter_map(|n| n.kind)
            .map(|k| params(k).static_nw)
            .sum()
    }

    /// Dynamic power in nanowatts at `freq_mhz` with the given average
    /// switching activity (transitions per cell per cycle).
    pub fn dynamic_power_nw(
        &self,
        params: &dyn Fn(GateKind) -> CellParams,
        freq_mhz: f64,
        activity: f64,
    ) -> f64 {
        // nW = fJ * MHz * activity  (1e-15 J * 1e6 1/s = 1e-9 W).
        self.nodes
            .iter()
            .filter_map(|n| n.kind)
            .map(|k| params(k).switch_energy_fj * freq_mhz * activity)
            .sum()
    }

    /// Merges several netlists into one (for whole-datapath totals).
    pub fn merged(name: impl Into<String>, parts: &[&Netlist]) -> Netlist {
        let mut merged = Netlist {
            name: name.into(),
            nodes: Vec::new(),
            outputs: Vec::new(),
        };
        for part in parts {
            let base = merged.nodes.len() as u32;
            for node in &part.nodes {
                merged.nodes.push(Node {
                    kind: node.kind,
                    fanins: node.fanins.iter().map(|f| NodeId(f.0 + base)).collect(),
                });
            }
            merged
                .outputs
                .extend(part.outputs.iter().map(|f| NodeId(f.0 + base)));
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_params(_: GateKind) -> CellParams {
        CellParams {
            delay_ps: 10.0,
            static_nw: 2.0,
            switch_energy_fj: 0.5,
        }
    }

    #[test]
    fn counts_and_histogram() {
        let mut b = NetlistBuilder::new("t");
        let a = b.input();
        let c = b.input();
        let x = b.gate(GateKind::Tand, &[a, c]);
        let y = b.gate(GateKind::Sti, &[x]);
        b.output(y);
        let n = b.build();
        assert_eq!(n.gate_count(), 2);
        assert_eq!(n.histogram()[&GateKind::Tand], 1);
        assert_eq!(n.histogram()[&GateKind::Sti], 1);
    }

    #[test]
    fn critical_path_is_longest_chain() {
        let mut b = NetlistBuilder::new("chain");
        let mut x = b.input();
        for _ in 0..5 {
            x = b.gate(GateKind::Sti, &[x]);
        }
        // A short parallel branch.
        let y = b.input();
        let _short = b.gate(GateKind::Tand, &[y, y]);
        b.output(x);
        let n = b.build();
        assert!((n.critical_path_ps(&unit_params) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn dff_cuts_paths() {
        let mut b = NetlistBuilder::new("pipe");
        let mut x = b.input();
        for _ in 0..3 {
            x = b.gate(GateKind::Sti, &[x]);
        }
        let q = b.gate(GateKind::Tdff, &[x]);
        let mut y = q;
        for _ in 0..2 {
            y = b.gate(GateKind::Sti, &[y]);
        }
        b.output(y);
        let n = b.build();
        // Longest stage: 3 gates before the register = 30 ps
        // (after the register: clk->Q 10 + 2 gates = 30 too).
        assert!((n.critical_path_ps(&unit_params) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn power_scales_with_gates_and_frequency() {
        let mut b = NetlistBuilder::new("p");
        let a = b.input();
        let mut x = a;
        for _ in 0..10 {
            x = b.gate(GateKind::Tnand, &[x, a]);
        }
        let n = b.build();
        assert!((n.static_power_nw(&unit_params) - 20.0).abs() < 1e-9);
        let d1 = n.dynamic_power_nw(&unit_params, 100.0, 0.2);
        let d2 = n.dynamic_power_nw(&unit_params, 200.0, 0.2);
        assert!((d2 - 2.0 * d1).abs() < 1e-9);
    }

    #[test]
    fn merged_preserves_totals() {
        let mk = |n: usize| {
            let mut b = NetlistBuilder::new("part");
            let a = b.input();
            for _ in 0..n {
                b.gate(GateKind::Sti, &[a]);
            }
            b.build()
        };
        let x = mk(3);
        let y = mk(4);
        let m = Netlist::merged("whole", &[&x, &y]);
        assert_eq!(m.gate_count(), 7);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_references_rejected() {
        let mut b = NetlistBuilder::new("bad");
        let ghost = NodeId(99);
        b.gate(GateKind::Sti, &[ghost]);
    }
}
