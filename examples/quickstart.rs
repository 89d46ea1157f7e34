//! Quickstart: assemble a ternary program, run it through the unified
//! `Core` execution API on every backend, watch a memory cell from a
//! step loop, and checkpoint/resume a run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use art9_isa::{assemble, disassemble_image};
use art9_sim::{Backend, Budget, Checkpoint, SimBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Sum the numbers 1..=10 and store the running total — note the
    // ternary branching idiom: conditional branches test a single
    // trit, so the loop guard goes through COMP (paper §IV-A).
    let program = assemble(
        "
        LI   t3, 10          ; counter
        LI   t4, 0           ; accumulator
        LI   t2, 0           ; memory base
    loop:
        ADD  t4, t3
        STORE t4, t2, 0      ; running total -> TDM[0]
        ADDI t3, -1
        MV   t7, t3
        COMP t7, t0          ; t7 = sign(t3)
        BEQ  t7, +, loop     ; continue while t3 > 0
    halt:
        JAL  t0, 0           ; jump-to-self halts the core
    ",
    )?;

    println!("TIM image ({} trits):", program.instruction_cells());
    println!("{}", disassemble_image(&program.tim_image()));

    // One builder, four backends, one code path.
    let builder = SimBuilder::new(&program);
    for backend in Backend::ALL {
        let mut core = builder.clone().backend(backend).build();
        let summary = core.run_for(Budget::Steps(10_000))?;
        let timing = match core.pipeline_stats() {
            Some(s) => format!(
                "{} cycles (CPI {:.2}, {} stalls/bubbles)",
                s.cycles,
                s.cpi(),
                s.lost_cycles()
            ),
            None => "no timing model".to_string(),
        };
        println!(
            "{backend:<10}  t4 = {}  |  {} instructions  |  {timing}",
            core.state().reg("t4".parse()?).to_i64(),
            summary.retired,
        );
    }

    // A watchpoint is a step loop: record the storing PC and the new
    // value of every step that changes TDM[0]. (Each store here writes
    // a new running total, so every store changes the cell.)
    let mut watched = builder.build();
    let mut hits = Vec::new();
    for _ in 0..10_000 {
        let (pc, before) = (watched.state().pc, watched.state().tdm.read(0)?);
        let halt = watched.step()?;
        let after = watched.state().tdm.read(0)?;
        if after != before {
            hits.push((pc, after));
        }
        if halt.is_some() {
            break;
        }
    }
    if hits.is_empty() {
        return Err("the watchpoint on TDM[0] recorded no store".into());
    }
    println!(
        "\nwatchpoint on TDM[0]: {} stores, last value {}",
        hits.len(),
        hits.last().map_or(0, |(_, value)| value.to_i64())
    );

    // Snapshot/resume: run 7 cycles on the pipeline, serialize the
    // checkpoint, restore it into a fresh core and finish — the result
    // is bit-identical to an uninterrupted run.
    let pipelined = builder.clone().backend(Backend::Pipelined);
    let mut first = pipelined.build();
    first.run_for(Budget::Steps(7))?;
    let text = first.snapshot().to_text();
    println!(
        "\ncheckpoint after 7 cycles: {} bytes of `art9-checkpoint v1`",
        text.len()
    );

    let mut resumed = pipelined.build();
    resumed.restore(&Checkpoint::from_text(&text)?)?;
    resumed.run_for(Budget::Steps(10_000))?;

    let mut uninterrupted = pipelined.build();
    uninterrupted.run_for(Budget::Steps(10_000))?;
    assert_eq!(
        resumed.state().first_difference(uninterrupted.state()),
        None
    );
    assert_eq!(resumed.pipeline_stats(), uninterrupted.pipeline_stats());
    println!("resumed run is bit-identical to the uninterrupted run");
    Ok(())
}
