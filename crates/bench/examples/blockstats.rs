//! Quick superblock statistics + threaded-vs-functional timing probe
//! for the paper suite (a profiling aid; the canonical numbers come
//! from `--bin report`).
//!
//! ```sh
//! cargo run --release -p art9-bench --example blockstats
//! ```

use std::time::Instant;

use art9_sim::{Backend, Budget, Core, SimBuilder};
use workloads::paper_suite;

fn time_ns_per_instr(b: &SimBuilder, backend: Backend, instrs: u64) -> f64 {
    let run = || {
        let mut sim = b.clone().backend(backend).build();
        sim.run_for(Budget::Steps(100_000_000)).unwrap();
        assert!(sim.halted().is_some());
    };
    // Warm up, then take the best of 7 batches to suppress host noise.
    run();
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let reps = 3;
        let t0 = Instant::now();
        for _ in 0..reps {
            run();
        }
        let ns = t0.elapsed().as_nanos() as f64 / (reps as f64 * instrs as f64);
        best = best.min(ns);
    }
    best
}

/// Mirrors the compiler's fusion predicate by mnemonic, to report
/// which adjacent pairs stay unfused.
fn fusible(a: &str, b: &str) -> bool {
    matches!(
        (a, b),
        ("AND" | "OR" | "XOR" | "MV" | "ADD" | "SUB", "COMP")
            | ("MV", "MV" | "ADDI")
            | ("ADDI", "MV" | "ADDI")
            | ("ADD", "ADD")
            | ("SUB", "LI")
            | ("LI", "SUB")
            | ("ADD" | "ADDI" | "MV", "STORE" | "LOAD")
            | ("LOAD", "LOAD" | "STORE" | "MV" | "COMP" | "ADD" | "ADDI")
            | ("STORE", "LOAD" | "STORE" | "MV")
            | ("COMP", "BEQ" | "BNE")
    )
}

fn main() {
    for w in paper_suite() {
        let image = workloads::prepare(&w)
            .expect("workload parses")
            .image
            .expect("workload translates");
        let b = SimBuilder::new(&image);
        let mut sim = b.build_threaded();
        sim.run_for(Budget::Steps(100_000_000)).unwrap();
        let blocks = sim.superblocks();
        let static_instrs: usize = blocks.iter().map(|(_, l)| *l).sum();

        // Greedy-fuse each block by mnemonic and count the leftover
        // adjacent pairs — fusion candidates the compiler passes on.
        let mn: Vec<&str> = image.text().iter().map(|i| i.mnemonic()).collect();
        let mut leftovers: std::collections::BTreeMap<(String, String), usize> =
            std::collections::BTreeMap::new();
        for &(start, len) in &blocks {
            let mut i = start;
            let end = start + len;
            while i < end {
                if i + 1 < end && fusible(mn[i], mn[i + 1]) {
                    i += 2;
                    continue;
                }
                if i + 1 < end {
                    *leftovers
                        .entry((mn[i].to_string(), mn[i + 1].to_string()))
                        .or_default() += 1;
                }
                i += 1;
            }
        }
        let mut lv: Vec<_> = leftovers.into_iter().collect();
        lv.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
        print!("{:<12} unfused:", w.name);
        for ((a, b), c) in lv.iter().take(8) {
            print!(" {a}+{b}x{c}");
        }
        println!();
        let f_ns = time_ns_per_instr(&b, Backend::Functional, sim.retired());
        let t_ns = time_ns_per_instr(&b, Backend::Threaded, sim.retired());
        println!(
            "{:<12} blocks {:>3} avg len {:>5.2} fused {:>3} retired {:>6} | fun {:>6.2} ns/i  thr {:>6.2} ns/i  ratio {:.2}x",
            w.name,
            blocks.len(),
            static_instrs as f64 / blocks.len() as f64,
            sim.fused_pairs(),
            sim.retired(),
            f_ns,
            t_ns,
            f_ns / t_ns,
        );
    }
}
