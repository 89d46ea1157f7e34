//! Watch the pipeline work: bubble sort with per-cycle tracing over
//! the first cycles, stall accounting, and the sorted result.
//!
//! ```sh
//! cargo run --example sort_demo
//! ```

use art9_compiler::translate;
use art9_sim::{Core, SimBuilder};
use workloads::bubble_sort;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = bubble_sort(8);
    let t = translate(&w.rv32_program()?)?;

    let mut core = SimBuilder::new(&t.program).trace(true).build_pipelined();
    core.run(1_000_000)?;
    w.verify_art9(core.state())?;
    let stats = core.pipeline_stats().expect("pipelined backend");

    println!("first 25 cycles of the 5-stage pipeline:");
    for cycle in core.trace().expect("tracing enabled").iter().take(25) {
        println!("{cycle}");
    }

    println!("\n{stats}");
    println!(
        "\nsorted: {:?}",
        (0..8)
            .map(|i| core
                .state()
                .tdm
                .read(art9_compiler::analysis::DATA_WORD_BASE as usize + i)
                .map(|w| w.to_i64()))
            .collect::<Result<Vec<_>, _>>()?
    );
    Ok(())
}
