//! Table II reproduced live: the Dhrystone-style kernel on the three
//! cores — pipelined ART-9, VexRiscv-style 5-stage, and the
//! non-pipelined PicoRV32.
//!
//! ```sh
//! cargo run --release --example dhrystone_run
//! ```

use art9_compiler::translate;
use art9_sim::{Core, SimBuilder};
use rv32::{simulate_cycles, PicoRv32Model, VexRiscvModel};
use workloads::{dhrystone, DHRYSTONE_DIVISOR};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iterations = 50usize;
    let w = dhrystone(iterations);
    let rv = w.rv32_program()?;

    // ART-9: translate, then run cycle-accurately.
    let t = translate(&rv)?;
    let mut art9 = SimBuilder::new(&t.program).build_pipelined();
    art9.run(100_000_000)?;
    w.verify_art9(art9.state())?;
    let stats = art9.pipeline_stats().expect("pipelined backend");

    // Binary baselines: cycle models over the same source.
    let vex = simulate_cycles(&rv, &mut VexRiscvModel::new(), 100_000_000)?;
    let pico = simulate_cycles(&rv, &mut PicoRv32Model::new(), 100_000_000)?;

    let dmips_mhz = |cycles: u64| 1.0e6 / (cycles as f64 / iterations as f64 * DHRYSTONE_DIVISOR);

    println!(
        "Table II — simulation results of the Dhrystone benchmark ({iterations} iterations)\n"
    );
    println!(
        "{:<22} {:>10} {:>8} {:>12}",
        "core", "cycles", "CPI", "DMIPS/MHz"
    );
    println!(
        "{:<22} {:>10} {:>8.2} {:>12.2}",
        "ART-9 (5-stage)",
        stats.cycles,
        stats.cpi(),
        dmips_mhz(stats.cycles)
    );
    println!(
        "{:<22} {:>10} {:>8.2} {:>12.2}",
        "VexRiscv (5-stage)",
        vex.cycles,
        vex.cpi(),
        dmips_mhz(vex.cycles)
    );
    println!(
        "{:<22} {:>10} {:>8.2} {:>12.2}",
        "PicoRV32 (non-pipe)",
        pico.cycles,
        pico.cpi(),
        dmips_mhz(pico.cycles)
    );

    println!(
        "\nmemory: ART-9 {} instr trits vs RV32 {} instr bits",
        t.report.art9_instruction_cells(),
        t.report.rv32_instruction_bits()
    );
    println!("(paper: 0.42 vs 0.65 vs 0.31 DMIPS/MHz — same ordering)");

    // Dynamic operation mix on the ternary side (York-style analysis).
    let total: u64 = art9.instruction_mix().values().sum();
    let mut mix: Vec<(&str, u64)> = art9
        .instruction_mix()
        .iter()
        .map(|(m, n)| (*m, *n))
        .collect();
    mix.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("\nART-9 dynamic instruction mix (top 8 of {total} retired):");
    for (mnemonic, count) in mix.iter().take(8) {
        println!(
            "  {mnemonic:<6} {count:>8}  ({:.1}%)",
            100.0 * *count as f64 / total as f64
        );
    }
    Ok(())
}
