//! Dynamic energy accounting end to end: run a paper workload on the
//! cycle-accurate pipelined core through the batch driver with energy
//! measurement on (as `report` does), convert the measured switching
//! activity through the CNTFET library, and print the measured
//! Table IV row (model in docs/ENERGY.md).
//!
//! ```sh
//! cargo run --release --example energy
//! ```

use art9_bench::energy::{class_counts, energy_row, render};
use art9_hw::activity::ALL_CLASSES;
use art9_hw::analyzer::analyze;
use art9_hw::datapath::Datapath;
use art9_hw::tech::cntfet32;
use workloads::batch::{BatchRunner, ExecConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let iterations = 20;

    // One verified pipelined run measures flips and cycles together.
    let batch = BatchRunner::new()
        .workload(workloads::dhrystone(iterations))
        .config(ExecConfig::art9_pipelined(true))
        .measure_energy(true)
        .try_run()?;
    let run = &batch.runs[0];
    let accounting = run.energy.as_ref().expect("energy measurement is on");
    let totals = accounting.totals();
    println!(
        "{}: {} instructions in {} cycles (CPI {:.2})",
        run.workload,
        run.instructions,
        run.cycles.expect("pipelined run is timed"),
        run.cpi().expect("instructions retired")
    );
    println!(
        "switching activity: {} regfile + {} tdm + {} fetch + {} alu trit flips\n",
        totals.regfile, totals.tdm, totals.fetch, totals.alu
    );

    println!("== flips by instruction class ==");
    for (class, counts) in ALL_CLASSES.iter().zip(class_counts(accounting)) {
        println!(
            "  {class:<8} {:>8} retired  {:>10} flips",
            counts.retired,
            counts.total_flips()
        );
    }

    // The same cntfet-32nm table the static Table IV estimate uses.
    let analysis = analyze(&Datapath::art9(), &cntfet32());
    let row = energy_row(run, &analysis, &cntfet32(), Some(iterations as u64));
    println!("\n== measured Table IV row ==");
    print!("{}", render(std::slice::from_ref(&row)));
    Ok(())
}
