//! Workspace integration tests: every benchmark through the full
//! two-framework flow — RV32 source → software-level compiling
//! framework → cycle-accurate ART-9 pipeline → verified output —
//! cross-checked against the native RV32 machine and the baseline
//! cycle models.

use art9_bench::report::{evaluate, memory_comparison};
use art9_compiler::translate;
use art9_sim::{Core, SimBuilder};
use rv32::{simulate_cycles, Machine, PicoRv32Model, VexRiscvModel};
use workloads::{bubble_sort, dhrystone, gemm, paper_suite, sobel};

/// Every workload: RV32 native run agrees with the translated ternary
/// run, on both the functional and the pipelined simulator.
#[test]
fn all_workloads_agree_across_isas_and_simulators() {
    for w in paper_suite() {
        let rv = w.rv32_program().expect("parses");

        let mut machine = Machine::new(&rv);
        machine.run(500_000_000).expect("rv32 completes");
        w.verify_rv32(&machine).expect("rv32 output");

        let t = translate(&rv).expect("translates");

        let mut functional = SimBuilder::new(&t.program).build_functional();
        functional.run(500_000_000).expect("functional completes");
        w.verify_art9(functional.state())
            .expect("functional output");

        let mut pipelined = SimBuilder::new(&t.program).build_pipelined();
        pipelined.run(500_000_000).expect("pipelined completes");
        w.verify_art9(pipelined.state()).expect("pipelined output");
        let stats = pipelined.pipeline_stats().expect("pipelined backend");

        assert_eq!(
            functional.state().trf,
            pipelined.state().trf,
            "{}: simulators diverge",
            w.name
        );
        assert!(
            stats.cpi() < 2.0,
            "{}: pipelined CPI {:.2} should stay near 1",
            w.name,
            stats.cpi()
        );
    }
}

/// Table II ordering: VexRiscv > ART-9 > PicoRV32 in DMIPS/MHz.
#[test]
fn table2_dmips_ordering() {
    let iterations = 30;
    let w = dhrystone(iterations);
    let rv = w.rv32_program().expect("parses");

    let t = translate(&rv).expect("translates");
    let mut art9 = SimBuilder::new(&t.program).build_pipelined();
    art9.run(500_000_000).expect("completes");
    let art9_stats = art9.pipeline_stats().expect("pipelined backend");

    let vex = simulate_cycles(&rv, &mut VexRiscvModel::new(), 500_000_000).expect("completes");
    let pico = simulate_cycles(&rv, &mut PicoRv32Model::new(), 500_000_000).expect("completes");

    // Fewer cycles = more DMIPS/MHz for the same iteration count.
    assert!(vex.cycles < art9_stats.cycles, "VexRiscv leads");
    assert!(art9_stats.cycles < pico.cycles, "ART-9 beats PicoRV32");
}

/// Fig. 5: the ternary program needs fewer storage cells than both
/// binary encodings on every benchmark; the dhrystone row, at the size
/// `report` prints, is the one EXPERIMENTS.md records.
#[test]
fn fig5_art9_uses_fewest_cells() {
    for w in paper_suite() {
        let rv = w.rv32_program().expect("parses");
        let row = memory_comparison(w.name, &rv).expect("translates");
        if w.name == "dhrystone" {
            let cells = (row.art9_cells, row.rv32_bits, row.thumb_bits);
            assert_eq!(cells, (4329, 8096, 7072), "dhrystone Fig. 5 row");
        }
        assert!(
            row.art9_cells < row.rv32_bits,
            "{}: {} trits vs {} bits",
            w.name,
            row.art9_cells,
            row.rv32_bits
        );
        assert!(
            row.art9_cells < row.thumb_bits,
            "{}: {} trits vs {} thumb bits",
            w.name,
            row.art9_cells,
            row.thumb_bits
        );
    }
}

/// Tables IV/V: the full hardware flow stays at the paper's
/// magnitudes and keeps CNTFET orders of magnitude ahead of FPGA.
#[test]
fn hardware_flow_magnitudes() {
    let iterations = 10;
    let w = dhrystone(iterations);
    let t = translate(&w.rv32_program().expect("parses")).expect("translates");

    let mut core = SimBuilder::new(&t.program).build_pipelined();
    core.run(500_000_000).expect("completes");
    let stats = core.pipeline_stats().expect("pipelined backend");
    let e = evaluate(stats.cycles as f64 / iterations as f64);

    assert!((500..=800).contains(&e.cntfet.total_gates));
    assert!((10.0..=100.0).contains(&e.cntfet.power_uw));
    assert_eq!(e.fpga.report.ram_bits, 9216);
    assert!((250..=450).contains(&e.fpga.report.registers));
    assert!(e.cntfet.dmips_per_watt > 1e5);
    assert!(e.fpga.dmips_per_watt < 1e4);
}

/// Workload parameters scale sensibly (guards the generators).
#[test]
fn workload_scaling() {
    for n in [4, 8, 16] {
        let w = bubble_sort(n);
        assert_eq!(w.expected.len(), n);
    }
    for n in [2, 4, 6] {
        let w = gemm(n);
        assert_eq!(w.expected.len(), n * n);
    }
    assert_eq!(sobel().expected.len(), 36);
}

/// The compiling framework refuses what it cannot translate instead of
/// miscompiling (the "semantic narrowing" contract).
#[test]
fn untranslatable_programs_are_rejected() {
    for (name, src) in [
        ("big constant", "li a0, 100000\nebreak\n"),
        (
            "subword",
            ".data\nv: .word 0\n.text\nla a0, v\nlb a1, 0(a0)\nebreak\n",
        ),
        (
            "unaligned",
            ".data\nv: .word 0\n.text\nla a0, v\nlw a1, 2(a0)\nebreak\n",
        ),
    ] {
        let rv = rv32::parse_program(src).expect("parses");
        assert!(translate(&rv).is_err(), "{name} must be rejected");
    }
}
