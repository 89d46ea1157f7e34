//! Regenerates every table, figure and ablation of the paper in one
//! run, and writes the host-performance ledger `BENCH_ternary.json`.
//!
//! The batch driver executes the paper suite under the full simulator
//! matrix exactly once; Tables II and III are derived from its records
//! rather than re-simulating.
//!
//! ```sh
//! cargo run --release -p art9-bench --bin report
//! ```

use std::time::Duration;

use art9_bench::{dmips_per_mhz, energy, perf, report};
use art9_compiler::{translate_with_options, TranslateOptions};
use art9_hw::analyzer::analyze;
use art9_hw::datapath::Datapath;
use art9_hw::fpga::{map_to_fpga, MemoryConfig};
use art9_hw::tech::{cntfet32, generic_cmos_ternary};
use ternary::{Trit, ALL_TRITS};
use workloads::batch::{BatchRunner, ExecConfig};
use workloads::{dhrystone, paper_suite};

const PIPELINED: ExecConfig = ExecConfig::art9_pipelined(true);

/// A named binary trit operation.
type BinOp = (&'static str, fn(Trit, Trit) -> Trit);
/// A named unary trit operation.
type UnOp = (&'static str, fn(Trit) -> Trit);

fn main() {
    // ---- Fig. 1 -------------------------------------------------------
    println!("=== Fig. 1: truth tables of ternary logic operations ===");
    let ops: [BinOp; 3] = [("AND", Trit::and), ("OR", Trit::or), ("XOR", Trit::xor)];
    for (name, f) in ops {
        println!("{name}: rows a = -,0,+ / cols b = -,0,+");
        for a in ALL_TRITS {
            let row: Vec<String> = ALL_TRITS.iter().map(|b| f(a, *b).to_string()).collect();
            println!("   {}", row.join(" "));
        }
    }
    let invs: [UnOp; 3] = [("STI", Trit::sti), ("NTI", Trit::nti), ("PTI", Trit::pti)];
    for (name, f) in invs {
        let row: Vec<String> = ALL_TRITS
            .iter()
            .map(|t| format!("{t}->{}", f(*t)))
            .collect();
        println!("{name}: {}", row.join("  "));
    }

    // ---- Batch simulation: every (workload, config) cell, once --------
    let batch = BatchRunner::new()
        .workloads(paper_suite())
        .configs(ExecConfig::FULL_MATRIX)
        .measure_energy(true)
        .run();
    assert_eq!(
        batch.failures(),
        0,
        "batch contains failing runs:\n{}",
        batch.render()
    );
    let cell = |w: &str, c: ExecConfig| {
        batch
            .find(w, c)
            .unwrap_or_else(|| panic!("batch is missing {w}/{}", c.name()))
    };

    // ---- Table III + Fig. 5 over the whole suite ----------------------
    println!("\n=== Table III: processing cycles ===");
    println!(
        "{:<14} {:>12} {:>12} {:>8}",
        "benchmark", "ART-9", "PicoRV32", "ratio"
    );
    let mut fig5_rows = Vec::new();
    for w in paper_suite() {
        let art9 = cell(w.name, PIPELINED)
            .cycles
            .expect("pipelined run is timed");
        let pico = cell(w.name, ExecConfig::rv32_picorv32())
            .cycles
            .expect("cycle model is timed");
        println!(
            "{:<14} {:>12} {:>12} {:>8.2}",
            w.name,
            art9,
            pico,
            pico as f64 / art9 as f64
        );
        let rv = w.rv32_program().expect("parses");
        fig5_rows.push(report::memory_comparison(w.name, &rv).expect("translates"));
    }

    println!("\n=== Fig. 5: memory cells ===");
    print!("{}", report::fig5(&fig5_rows));

    // ---- Table II ------------------------------------------------------
    let iterations = workloads::PAPER_DHRYSTONE_ITERATIONS;
    println!("\n=== Table II: dhrystone ({iterations} iterations) ===");
    println!(
        "{:<22} {:>10} {:>8} {:>12}",
        "core", "cycles", "CPI", "DMIPS/MHz"
    );
    let rows = [
        ("ART-9 (5-stage)", cell("dhrystone", PIPELINED)),
        (
            "VexRiscv (5-stage)",
            cell("dhrystone", ExecConfig::rv32_vexriscv()),
        ),
        (
            "PicoRV32 (non-pipe)",
            cell("dhrystone", ExecConfig::rv32_picorv32()),
        ),
    ];
    for (label, r) in rows {
        let cycles = r.cycles.expect("timed");
        println!(
            "{:<22} {:>10} {:>8.2} {:>12.2}",
            label,
            cycles,
            r.cpi().expect("instructions retired"),
            dmips_per_mhz(cycles, iterations)
        );
    }
    // Memory cells are the dhrystone row of Fig. 5: instructions plus
    // initial data, as the paper's Table II counts them.
    let mem = fig5_rows
        .iter()
        .find(|r| r.name == "dhrystone")
        .expect("paper suite has dhrystone");
    println!(
        "memory cells: ART-9 {} trits vs RV32I {} bits vs ARMv6-M {} bits",
        mem.art9_cells, mem.rv32_bits, mem.thumb_bits
    );

    // ---- Tables IV & V --------------------------------------------------
    let dhrystone_cycles_per_iter =
        cell("dhrystone", PIPELINED).cycles.expect("timed") as f64 / iterations as f64;
    let e = report::evaluate(dhrystone_cycles_per_iter);
    println!("\n=== Table IV ===\n{}", report::table4(&e));
    println!("=== Table V ===\n{}", report::table5(&e));

    // ---- Measured Table IV: dynamic energy from execution --------------
    // The batch above ran with energy measurement on, so each pipelined
    // cell already carries its EnergyAccounting snapshot — no
    // re-simulation. The measured trit flips go through the same
    // cntfet-32nm table as the static estimate above (model and schema
    // in docs/ENERGY.md).
    let analysis = &e.gate_analysis;
    let lib = cntfet32();
    let energy_rows: Vec<energy::EnergyRow> = paper_suite()
        .iter()
        .map(|w| {
            let iters = (w.name == "dhrystone").then_some(iterations as u64);
            energy::energy_row(cell(w.name, PIPELINED), analysis, &lib, iters)
        })
        .collect();
    println!("\n=== Measured Table IV: dynamic energy from execution ===");
    print!("{}", energy::render(&energy_rows));

    println!("per-block gate counts:");
    let datapath = Datapath::art9();
    for (name, gates) in datapath.block_summary() {
        println!("  {name:<20} {gates}");
    }
    println!("  {:<20} {}", "TOTAL", datapath.datapath_gates());

    // ---- Ablations ------------------------------------------------------
    // The design choices the paper argues for, each switched off or
    // swept. Forwarding reuses the batch's bubble-sort cells.
    println!("\n=== Ablations ===");
    let (fwd, nofwd) = (
        cell("bubble-sort", PIPELINED),
        cell("bubble-sort", ExecConfig::art9_pipelined(false)),
    );
    let (c1, c2) = (fwd.cycles.expect("timed"), nofwd.cycles.expect("timed"));
    println!(
        "forwarding (bubble-sort): {c1} cycles with vs {c2} without ({:+.0}% cycles, CPI {:.2} -> {:.2})",
        100.0 * (c2 as f64 / c1 as f64 - 1.0),
        fwd.cpi().expect("instructions retired"),
        nofwd.cpi().expect("instructions retired")
    );

    let rv = dhrystone(1).rv32_program().expect("parses");
    let on = translate_with_options(&rv, TranslateOptions::default()).expect("translates");
    let off = translate_with_options(
        &rv,
        TranslateOptions {
            redundancy: false,
            ..Default::default()
        },
    )
    .expect("translates");
    let (n_on, n_off) = (on.program.text().len(), off.program.text().len());
    println!(
        "redundancy checking (dhrystone): {n_on} instrs with vs {n_off} without ({} removed, {:.1}% smaller)",
        on.report.redundant_removed,
        100.0 * (1.0 - n_on as f64 / n_off as f64)
    );

    let slow = analyze(&Datapath::art9(), &generic_cmos_ternary());
    println!(
        "technology: CNTFET {:.0} MHz / {:.1} µW  vs  generic CMOS ternary {:.0} MHz / {:.1} µW",
        analysis.fmax_mhz(),
        analysis.total_power_uw(),
        slow.fmax_mhz(),
        slow.total_power_uw()
    );

    // The design point Table II rejects.
    let m = analyze(&Datapath::art9_with_multiplier(), &lib);
    println!(
        "hardware multiplier: {} -> {} gates ({:+.0}%), {:.1} -> {:.1} µW, fmax {:.0} -> {:.0} MHz",
        analysis.gates,
        m.gates,
        100.0 * (m.gates as f64 / analysis.gates as f64 - 1.0),
        analysis.total_power_uw(),
        m.total_power_uw(),
        analysis.fmax_mhz(),
        m.fmax_mhz()
    );

    let widths: Vec<String> = [3usize, 6, 9, 12, 15]
        .iter()
        .map(|&w| format!("{w}t={}", Datapath::art_with_width(w).datapath_gates()))
        .collect();
    println!("width sweep (gates @ width): {}", widths.join("  "));

    // Table V's RAM column scales with the TIM/TDM size.
    let sizes: Vec<String> = [128usize, 256, 512]
        .iter()
        .map(|&words| {
            let config = MemoryConfig {
                words,
                trits_per_word: 9,
            };
            let r = map_to_fpga(&Datapath::art9(), config, 150.0);
            format!("{words}w={}b/{:.2}W", r.ram_bits, r.power_w)
        })
        .collect();
    println!(
        "memory sweep (RAM bits / power @ words): {}",
        sizes.join("  ")
    );

    // ---- The batch's own aggregate view -------------------------------
    println!("\n=== Batch simulation: paper suite x full simulator matrix ===");
    print!("{}", batch.render());

    // ---- Host performance: word ops + simulator throughput ------------
    // Written to BENCH_ternary.json so the perf trajectory is diffable
    // across PRs (schema documented in docs/PERFORMANCE.md).
    println!("\n=== Host performance (see docs/PERFORMANCE.md) ===");
    let word_ops = perf::measure_word_ops(Duration::from_millis(40));
    for op in &word_ops {
        println!("  word9/{:<18} {:>8.2} ns/op", op.name, op.ns_per_op);
    }
    let prep: Vec<perf::PrepTimes> = paper_suite()
        .iter()
        .map(|w| perf::measure_prep(w, Duration::from_millis(100)))
        .collect();
    println!(
        "  {:<14} {:>10} {:>10} {:>10} {:>10}  (us per pass)",
        "workload", "parse", "translate", "predecode", "threaded"
    );
    for p in &prep {
        println!(
            "  {:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            p.workload, p.parse_us, p.translate_us, p.predecode_us, p.threaded_compile_us
        );
    }
    let sims: Vec<perf::SimThroughput> = paper_suite()
        .iter()
        .map(|w| perf::measure_sim_throughput(w, Duration::from_millis(150)))
        .collect();
    println!(
        "  {:<14} {:>14} {:>14} {:>14} {:>10} {:>10}",
        "workload", "functional", "threaded", "pipelined", "thr/fun", "energy"
    );
    for s in &sims {
        println!(
            "  {:<14} {:>10.3e} i/s {:>10.3e} i/s {:>10.3e} c/s {:>9.2}x {:>9.2}x",
            s.workload,
            s.functional_ips,
            s.threaded_ips,
            s.pipelined_cps,
            s.threaded_ips / s.functional_ips,
            s.threaded_ips / s.energy_ips
        );
    }
    // ---- Service scheduler throughput ---------------------------------
    // An in-process multi-tenant load run (docs/SERVICE.md): hundreds
    // of budget-sliced sessions over the full worker fleet, every one
    // checked for exact completion.
    println!("\n=== Service scheduler (multi-tenant load, see docs/SERVICE.md) ===");
    let service = perf::measure_service(512);
    println!(
        "  {} sessions on {} workers: {:.1} sessions/s, {:.3e} retired i/s per worker",
        service.sessions, service.workers, service.sessions_per_second, service.per_worker_ips
    );
    println!(
        "  p99 slice {:.1}us, {} migrations, {} steals",
        service.p99_slice_us, service.migrations, service.steals
    );

    // ---- Ternary-NN throughput ----------------------------------------
    // The SIMD-vs-scalar speedup of the host golden path plus simulator
    // throughput of the nn-mlp workload (docs/WORKLOADS.md).
    println!("\n=== Ternary NN (bitplane SIMD, see docs/WORKLOADS.md) ===");
    let nn = perf::measure_nn(Duration::from_millis(300));
    println!(
        "  {}x{} ternary matvec: scalar {:.0} ns, simd {:.0} ns, speedup {:.2}x",
        nn.rows, nn.cols, nn.scalar_ns_per_matvec, nn.simd_ns_per_matvec, nn.simd_speedup
    );
    println!(
        "  {} on art9: {:.3e} i/s functional, {:.3e} i/s threaded",
        nn.sim.workload, nn.sim.functional_ips, nn.sim.threaded_ips
    );

    // ---- Wide words and tapered reals ---------------------------------
    // Etiemble-style per-operation costs of the multi-plane 27/81-trit
    // words and the tapered-precision reals (docs/ARITHMETIC.md).
    println!("\n=== Wide ternary words (multi-plane, see docs/ARITHMETIC.md) ===");
    let wide = perf::measure_wide(Duration::from_millis(40));
    for op in &wide {
        println!("  wide/{:<26} {:>8.2} ns/op", op.name, op.ns_per_op);
    }

    let json = perf::bench_json(&word_ops, &prep, &sims, &energy_rows, &service, &nn, &wide);
    std::fs::write("BENCH_ternary.json", &json).expect("write BENCH_ternary.json");
    println!("wrote BENCH_ternary.json");
}
