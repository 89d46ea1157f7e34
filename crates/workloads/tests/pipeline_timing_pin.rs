//! Pins the cycle model's timing: every [`PipelineStats`] field of
//! every registry workload at its default size, with forwarding on and
//! off, and the per-cycle trace of one small program.
//!
//! The fuzz oracles compare the pipelined backend's architectural state
//! at halt, and only an aggregate cycle count reaches their report, so
//! a hazard-detection change that moves a stall from one cycle (or one
//! counter) to another would pass them. These tables catch it.

use art9_isa::assemble;
use art9_sim::{Core, PipelineStats, SimBuilder};
use workloads::{by_name, prepare, WORKLOAD_NAMES};

/// `(workload, forwarding, [cycles, instructions, load-use stalls,
/// ID-use stalls, control bubbles, taken transfers, untaken branches])`.
const PINNED: [(&str, bool, [u64; 7]); 16] = [
    ("bubble-sort", true, [3961, 3177, 555, 0, 225, 226, 384]),
    ("bubble-sort", false, [6242, 3177, 1998, 838, 225, 226, 384]),
    ("gemm", true, [16632, 14084, 1194, 0, 1350, 1351, 905]),
    ("gemm", false, [25967, 14084, 7807, 2722, 1350, 1351, 905]),
    ("sobel", true, [3074, 2383, 601, 0, 86, 87, 63]),
    ("sobel", false, [5212, 2383, 2441, 298, 86, 87, 63]),
    (
        "dhrystone",
        true,
        [67742, 57230, 4708, 100, 5700, 5701, 2599],
    ),
    (
        "dhrystone",
        false,
        [113070, 57230, 37038, 13098, 5700, 5701, 2599],
    ),
    ("fibonacci", true, [167, 152, 0, 0, 11, 12, 1]),
    ("fibonacci", false, [293, 152, 102, 24, 11, 12, 1]),
    ("dot-product", true, [1134, 979, 48, 0, 103, 104, 80]),
    ("dot-product", false, [1768, 979, 474, 208, 103, 104, 80]),
    ("nn-mlp", true, [8881, 7614, 566, 0, 697, 698, 558]),
    ("nn-mlp", false, [13755, 7614, 3990, 1450, 697, 698, 558]),
    ("assoc-match", true, [2727, 2057, 412, 0, 254, 255, 13]),
    ("assoc-match", false, [4251, 2057, 1402, 534, 254, 255, 13]),
];

fn fields(s: PipelineStats) -> [u64; 7] {
    [
        s.cycles,
        s.instructions,
        s.load_use_stalls,
        s.id_use_stalls,
        s.control_flush_bubbles,
        s.taken_transfers,
        s.untaken_branches,
    ]
}

#[test]
fn every_registry_workload_keeps_its_pipeline_stats() {
    assert_eq!(
        PINNED.map(|(name, _, _)| name),
        WORKLOAD_NAMES.map(|n| [n, n]).concat().as_slice(),
        "one row per registry workload and forwarding setting"
    );
    let mut mismatches = Vec::new();
    for (name, forwarding, want) in PINNED {
        let w = by_name(name, None).expect("registry workload");
        let image = prepare(&w).expect("parses").image.expect("translates");
        let mut core = SimBuilder::new(&image)
            .forwarding(forwarding)
            .build_pipelined();
        core.run(100_000_000).expect("halts");
        let got = fields(core.pipeline_stats().expect("pipelined backend"));
        if got != want {
            mismatches.push(format!("(\"{name}\", {forwarding}, {got:?}),"));
        }
    }
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}

/// A load-use stall (`ADDI` on the loaded `t3`), an ID-use stall pair
/// (`BEQ` on the loaded `t4`) and a taken branch (`BEQ` over `LI t5`).
const TRACED: &str = "
.data
v: .word 41, 0
.text
    LI   t2, 0
    LOAD t3, t2, 0
    ADDI t3, 1
    LOAD t4, t2, 1
    BEQ  t4, 0, skip
    LI   t5, -1
skip:
    LI   t6, 9
    JAL  t0, 0
";

/// The trace of [`TRACED`], one line per cycle (cells are padded, so
/// lines end in spaces).
const TRACE: [&str; 15] = [
    "c    1 | IF   0:LI     | EX   --       | MEM   --       | WB   --      ",
    "c    2 | IF   1:LOAD   | EX   0:LI     | MEM   --       | WB   --      ",
    "c    3 | IF   2:ADDI   | EX   1:LOAD   | MEM   0:LI     | WB   --      ",
    "c    4 | IF   2:ADDI   | EX   --       | MEM   1:LOAD   | WB   0:LI    ",
    "c    5 | IF   3:LOAD   | EX   2:ADDI   | MEM   --       | WB   1:LOAD  ",
    "c    6 | IF   4:BEQ    | EX   3:LOAD   | MEM   2:ADDI   | WB   --      ",
    "c    7 | IF   4:BEQ    | EX   --       | MEM   3:LOAD   | WB   2:ADDI  ",
    "c    8 | IF   4:BEQ    | EX   --       | MEM   --       | WB   3:LOAD  ",
    "c    9 | IF   --       | EX   4:BEQ    | MEM   --       | WB   --      ",
    "c   10 | IF   6:LI     | EX   --       | MEM   4:BEQ    | WB   --      ",
    "c   11 | IF   7:JAL    | EX   6:LI     | MEM   --       | WB   4:BEQ   ",
    "c   12 | IF   --       | EX   7:JAL    | MEM   6:LI     | WB   --      ",
    "c   13 | IF   --       | EX   --       | MEM   7:JAL    | WB   6:LI    ",
    "c   14 | IF   --       | EX   --       | MEM   --       | WB   7:JAL   ",
    "c   15 | IF   --       | EX   --       | MEM   --       | WB   --      ",
];

#[test]
fn a_small_program_keeps_its_cycle_trace() {
    let program = assemble(TRACED).expect("assembles");
    let mut core = SimBuilder::new(&program).trace(true).build_pipelined();
    core.run(1_000).expect("halts");
    let lines: Vec<String> = core
        .trace()
        .expect("tracing on")
        .iter()
        .map(ToString::to_string)
        .collect();
    assert_eq!(lines, TRACE, "\n{}", lines.join("\n"));
    let s = core.pipeline_stats().expect("pipelined backend");
    assert_eq!(
        (s.load_use_stalls, s.id_use_stalls, s.control_flush_bubbles),
        (1, 2, 1)
    );
}
