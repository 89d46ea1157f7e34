//! The software-level compiling framework on a real workload:
//! RV32 bubble sort in, ART-9 ternary assembly out — with the
//! conversion statistics and the Fig. 5 memory-cell comparison.
//!
//! ```sh
//! cargo run --example compile_rv32
//! ```

use art9_bench::report::memory_comparison;
use art9_sim::{Core, SimBuilder};
use workloads::bubble_sort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workload = bubble_sort(12);
    println!("== RV32 source ==\n{}", workload.source);

    let rv = workload.rv32_program()?;
    let translation = art9_compiler::translate(&rv)?;

    println!("== translation report ==\n{}", translation.report);
    println!("== register renaming (operand conversion) ==");
    for (reg, loc) in translation.allocation.iter() {
        println!("  {reg:<5} -> {loc:?}");
    }

    println!(
        "\n== side-by-side listing (instruction mapping) ==\n{}",
        translation.listing(&rv)
    );

    // Prove it still sorts.
    let mut sim = SimBuilder::new(&translation.program).build_functional();
    sim.run(2_000_000)?;
    workload.verify_art9(sim.state())?;
    println!("verification: sorted output confirmed on the ternary machine");

    // Fig. 5-style comparison for this program.
    let row = memory_comparison(workload.name, &rv)?;
    println!(
        "\nmemory cells: ART-9 {} trits | RV-32I {} bits | ARMv6-M {} bits ({:.0}% saving vs RV32)",
        row.art9_cells,
        row.rv32_bits,
        row.thumb_bits,
        100.0 * row.saving_vs_rv32()
    );
    Ok(())
}
