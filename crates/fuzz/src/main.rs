//! The `art9-fuzz` command-line driver.
//!
//! ```sh
//! # Default campaign (seed 42, 1000 iterations, balanced mix):
//! cargo run --release -p art9-fuzz
//!
//! # The CI gate:
//! cargo run --release -p art9-fuzz -- --smoke
//!
//! # A specific campaign:
//! cargo run --release -p art9-fuzz -- --seed 7 --iterations 5000 --mix memory
//!
//! # One-command repro of a recorded failure:
//! cargo run --release -p art9-fuzz -- --replay fuzz-failures/case-000.art9
//! ```
//!
//! Exit status: `0` when every oracle agreed, `1` on any divergence,
//! `2` on usage errors.

use std::path::PathBuf;
use std::process::ExitCode;

use art9_fuzz::{
    check_compiler_lockstep, is_rv32_replay, parse_replay, parse_replay_header, run_fuzz,
    run_replay, FuzzConfig, Mix, Oracle, OracleStats, Rv32Mix,
};

const USAGE: &str = "\
art9-fuzz: differential fuzzing of the ART-9 simulators and toolchain

USAGE:
    art9-fuzz [OPTIONS]

OPTIONS:
    --seed N          Master seed (default 42); same seed => same programs
    --iterations N    Programs to generate and co-simulate (default 1000)
    --mix NAME        Instruction mix: balanced | alu | memory | control
                      (ART-9 programs) or rv-balanced | rv-alu | rv-memory |
                      rv-control | rv-spill (RV32 programs for the
                      compiler-lockstep oracle)
    --oracle NAME     Run only one oracle (functional-vs-reference |
                      functional-vs-threaded | energy | slice-migrate |
                      pipelined-fwd | pipelined-nofwd | toolchain-roundtrip |
                      arithmetic | simd | wide | compiler-lockstep) —
                      for triaging a campaign or a replay file
    --max-len N       Upper bound on generated body length (default 160)
    --smoke           CI budget: 150 small programs across the mixes
    --fail-dir DIR    Write minimized replay files here (default fuzz-failures)
    --no-fail-dir     Do not write replay files
    --replay FILE     Re-run the oracles on one replay file and exit
    --help            Show this message
";

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)) {
        Ok(Cmd::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Cmd::Replay { path, oracle }) => replay_one(&path, oracle),
        Ok(Cmd::Run(cfg)) => campaign(&cfg),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Cmd {
    Run(Box<FuzzConfig>),
    Replay {
        path: PathBuf,
        oracle: Option<Oracle>,
    },
    Help,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut smoke = false;
    let mut replay = None;
    let mut oracle = None;
    let mut fail_dir = Some(PathBuf::from("fuzz-failures"));
    // Explicit flags always win over the chosen profile, whatever the
    // flag order.
    let mut explicit_seed = None;
    let mut explicit_iterations = None;
    let mut explicit_max_len = None;
    let mut explicit_mix = None;
    let mut explicit_rv_mix = None;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--help" | "-h" => return Ok(Cmd::Help),
            "--smoke" => smoke = true,
            "--seed" => explicit_seed = Some(parse_num(&value("--seed")?)?),
            "--iterations" => explicit_iterations = Some(parse_num(&value("--iterations")?)?),
            "--max-len" => {
                let n = parse_num(&value("--max-len")?)? as usize;
                if n < 9 {
                    return Err("--max-len must be at least 9".into());
                }
                explicit_max_len = Some(n);
            }
            "--mix" => {
                let v = value("--mix")?;
                match (v.parse::<Mix>(), v.parse::<Rv32Mix>()) {
                    (Ok(m), _) => explicit_mix = Some(m),
                    (_, Ok(m)) => explicit_rv_mix = Some(m),
                    (Err(_), Err(_)) => {
                        let names: Vec<&str> = Mix::ALL
                            .iter()
                            .map(Mix::name)
                            .chain(Rv32Mix::ALL.iter().map(Rv32Mix::name))
                            .collect();
                        return Err(format!(
                            "unknown mix {v:?} (expected one of {})",
                            names.join(", ")
                        ));
                    }
                }
            }
            "--oracle" => oracle = Some(value("--oracle")?.parse::<Oracle>()?),
            "--fail-dir" => fail_dir = Some(PathBuf::from(value("--fail-dir")?)),
            "--no-fail-dir" => fail_dir = None,
            "--replay" => replay = Some(PathBuf::from(value("--replay")?)),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if let Some(path) = replay {
        return Ok(Cmd::Replay { path, oracle });
    }
    let mut cfg = if smoke {
        FuzzConfig::smoke()
    } else {
        FuzzConfig::default()
    };
    cfg.oracle = oracle;
    cfg.fail_dir = fail_dir;
    if let Some(seed) = explicit_seed {
        cfg.seed = seed;
    }
    if let Some(n) = explicit_iterations {
        cfg.iterations = n;
    }
    if let Some(n) = explicit_max_len {
        cfg.gen.max_len = n;
        cfg.rv_gen.max_len = n;
    }
    // A pinned mix replaces the smoke profile's rotation.
    if explicit_mix.is_some() || explicit_rv_mix.is_some() {
        cfg.sweep_mixes = false;
    }
    if let Some(mix) = explicit_mix {
        cfg.gen.mix = mix;
    }
    if let Some(mix) = explicit_rv_mix {
        cfg.rv_gen.mix = mix;
    }
    Ok(Cmd::Run(Box::new(cfg)))
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.parse().map_err(|_| format!("not a number: {s:?}"))
}

fn campaign(cfg: &FuzzConfig) -> ExitCode {
    let mix = if cfg.sweep_mixes {
        "sweep (all)"
    } else if cfg.oracle == Some(Oracle::CompilerLockstep) {
        cfg.rv_gen.mix.name()
    } else {
        cfg.gen.mix.name()
    };
    let oracle = cfg.oracle.map_or("all", |o| o.name());
    println!(
        "art9-fuzz: seed {}, {} iterations, mix {}, max-len {}, oracle {}",
        cfg.seed, cfg.iterations, mix, cfg.gen.max_len, oracle
    );
    let start = std::time::Instant::now();
    let report = run_fuzz(cfg);
    print!("{}", report.render());
    println!("wall time {:.1}s", start.elapsed().as_secs_f64());
    if report.divergences.is_empty() {
        ExitCode::SUCCESS
    } else {
        for f in &report.divergences {
            if f.replay_path.is_none() {
                eprintln!(
                    "--- minimized case (iteration {}) ---\n{}",
                    f.iteration, f.replay_text
                );
            }
        }
        ExitCode::FAILURE
    }
}

/// The triage summary of a replayed divergence: which oracle flagged
/// it and the first differing state field, plus the provenance the
/// replay file recorded when it was written.
fn triage(text: &str, divergence: &art9_fuzz::Divergence) {
    let recorded = parse_replay_header(text);
    println!("DIVERGENCE: {divergence}");
    println!("triage: flagged by oracle `{}`", divergence.oracle.name());
    if let Some(first) = divergence.detail.lines().next() {
        println!("triage: first differing state field: {first}");
    }
    if let Some(o) = recorded.oracle {
        let verdict = if o == divergence.oracle {
            "matches"
        } else {
            "DIFFERS from"
        };
        println!(
            "triage: recorded oracle `{}` {} the fresh result",
            o.name(),
            verdict
        );
    }
    if let (Some(seed), Some(iteration)) = (recorded.seed, recorded.iteration) {
        println!("triage: originally found at seed {seed}, iteration {iteration}");
    }
}

fn replay_one(path: &std::path::Path, oracle: Option<Oracle>) -> ExitCode {
    if let Some(o) = oracle.filter(|o| o.is_value_level()) {
        eprintln!(
            "error: the {} oracle is value-level and has no program replay; \
             reproduce it with --seed/--iterations instead",
            o.name()
        );
        return ExitCode::from(2);
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };

    // RV32-flavored replays (compiler-lockstep) carry RV32 source.
    if is_rv32_replay(&text) {
        if oracle.is_some_and(|o| o != Oracle::CompilerLockstep) {
            eprintln!(
                "error: {} is an rv32 replay; only the compiler-lockstep oracle applies",
                path.display()
            );
            return ExitCode::from(2);
        }
        println!(
            "replaying {} (rv32 source, oracle compiler-lockstep)",
            path.display()
        );
        let mut stats = OracleStats::default();
        // A replayed source may not obey the generator's termination
        // invariants (it could be hand-edited), so give it a generous
        // fixed budget rather than the campaign's computed bound.
        let divergence = check_compiler_lockstep(&text, 2_000_000, &mut stats);
        println!(
            "{} rv32 instructions; summed over the functional, threaded and pipelined \
             passes: {} art9 instructions, {} sync points",
            stats.cosim_rv32_instructions, stats.cosim_art9_instructions, stats.cosim_sync_points
        );
        return match divergence {
            None => {
                println!("all oracles agree");
                ExitCode::SUCCESS
            }
            Some(d) => {
                triage(&text, &d);
                ExitCode::FAILURE
            }
        };
    }

    if oracle == Some(Oracle::CompilerLockstep) {
        eprintln!(
            "error: {} is an art9 replay; the compiler-lockstep oracle replays rv32 \
             sources (case-*.rv32)",
            path.display()
        );
        return ExitCode::from(2);
    }
    let program = match parse_replay(&text) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {} is not a valid replay file: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    println!(
        "replaying {} ({} instructions, {} data words, oracle {})",
        path.display(),
        program.text().len(),
        program.data().len(),
        oracle.map_or("all", |o| o.name())
    );
    let (stats, divergence) = run_replay(&program, oracle);
    println!(
        "{} functional instructions, {} threaded instructions, {} pipelined cycles, \
         {} roundtrip checks",
        stats.functional_instructions,
        stats.threaded_instructions,
        stats.pipelined_cycles,
        stats.roundtrip_checks
    );
    match divergence {
        None => {
            println!("all oracles agree");
            ExitCode::SUCCESS
        }
        Some(d) => {
            triage(&text, &d);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cfg(args: &[&str]) -> FuzzConfig {
        match parse_args(args.iter().map(|a| a.to_string())) {
            Ok(Cmd::Run(cfg)) => *cfg,
            _ => panic!("{args:?} is not a campaign"),
        }
    }

    #[test]
    fn smoke_flag_runs_the_smoke_profile_under_explicit_flags() {
        // `--smoke` is `FuzzConfig::smoke()` as a whole, apart from the
        // replay directory, which is a command-line default.
        let cli = run_cfg(&["--smoke"]);
        let profile = FuzzConfig {
            fail_dir: Some(PathBuf::from("fuzz-failures")),
            ..FuzzConfig::smoke()
        };
        assert_eq!(format!("{cli:?}"), format!("{profile:?}"));

        // Explicit flags win, before or after `--smoke`.
        let cli = run_cfg(&[
            "--iterations",
            "7",
            "--smoke",
            "--seed",
            "3",
            "--mix",
            "alu",
        ]);
        assert_eq!((cli.iterations, cli.seed), (7, 3));
        assert_eq!(cli.gen.mix, Mix::ALU);
        assert!(!cli.sweep_mixes);
        assert_eq!(cli.arith_pairs, FuzzConfig::smoke().arith_pairs);
    }
}
