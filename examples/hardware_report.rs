//! The hardware-level evaluation framework end to end: run Dhrystone
//! cycle-accurately, analyze the datapath under the CNTFET library,
//! map to the FPGA model, and print Tables IV and V.
//!
//! ```sh
//! cargo run --release --example hardware_report
//! ```

use art9_bench::report;
use art9_hw::datapath::Datapath;
use art9_sim::{Core, SimBuilder};
use workloads::dhrystone;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iterations = 20;
    let w = dhrystone(iterations);
    let rv = w.rv32_program()?;

    let translation = art9_compiler::translate(&rv)?;

    let mut core = SimBuilder::new(&translation.program).build_pipelined();
    core.run(50_000_000)?;
    let stats = core.pipeline_stats().expect("pipelined backend");
    let cycles_per_iteration = stats.cycles as f64 / iterations as f64;
    println!(
        "dhrystone: {} cycles for {iterations} iterations ({cycles_per_iteration:.0} cycles/iter, CPI {:.2})",
        stats.cycles,
        stats.cpi()
    );
    println!(
        "DMIPS/MHz = {:.2}\n",
        1.0e6 / (cycles_per_iteration * workloads::DHRYSTONE_DIVISOR)
    );

    let evaluation = report::evaluate(cycles_per_iteration);

    println!("== per-block gate counts (datapath) ==");
    let datapath = Datapath::art9();
    for (name, gates) in datapath.block_summary() {
        println!("  {name:<20} {gates}");
    }
    println!("  {:<20} {}\n", "TOTAL", datapath.datapath_gates());

    let lib = art9_hw::tech::cntfet32();
    let (slowest, delay) = art9_hw::analyzer::critical_block(&datapath, &lib);
    println!("critical block: {slowest} ({delay:.0} ps) — the fmax limiter\n");

    println!("{}", report::table4(&evaluation));
    println!("{}", report::table5(&evaluation));
    Ok(())
}
