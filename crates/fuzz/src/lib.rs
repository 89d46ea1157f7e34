//! # `art9-fuzz` — differential fuzzing for the ART-9 frameworks
//!
//! The paper's evaluation rests on executions of the same program
//! agreeing across machines — the functional model, the pipelined
//! model, the ternary arithmetic layer, and (its headline §III-A
//! claim) the RV32 source a translation came from. This crate turns
//! those claims into generative checks: a seeded random
//! [ART-9 program generator](generate) over the full 24-instruction
//! ISA, co-simulated through seven program-level
//! [oracles](check_program) (functional vs a per-trit
//! [`ReferenceSim`] and vs the direct-threaded
//! [`art9_sim::ThreadedSim`] in lockstep, differential energy
//! accounting, sliced-and-migrated execution, pipelined with
//! forwarding on and off, and the encode/decode/disassemble/reassemble
//! toolchain), one table of [value-level](Oracle::is_value_level)
//! oracles checking the packed arithmetic and SIMD-lane kernels
//! against their per-trit references, and a seeded
//! [RV32 generator](generate_rv32) whose output runs on the
//! `rv32::Machine` and — translated by `art9-compiler` — on an ART-9
//! core, compared at every RV32 instruction boundary by the
//! [compiler-lockstep oracle](CoSim). Failures are
//! [minimized](minimize) by greedy NOP substitution (at the RV32
//! source level for cross-ISA cases) and written as one-command
//! [replay files](render_replay).
//!
//! Design notes (generator invariants, the oracle matrix, the replay
//! format) live in `docs/FUZZING.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use art9_fuzz::{run_fuzz, FuzzConfig};
//!
//! let mut cfg = FuzzConfig::default();
//! cfg.iterations = 10;
//! let report = run_fuzz(&cfg);
//! assert_eq!(report.divergences.len(), 0, "{}", report.render());
//! // Determinism: the same seed reproduces the same programs.
//! assert_eq!(report.digest, run_fuzz(&cfg).digest);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cosim;
mod gen;
mod minimize;
mod oracle;
mod replay;
mod rng;
mod rv32gen;

/// The per-trit reference interpreter now lives in `art9-sim` (it
/// implements the unified `Core` API); re-exported here for
/// compatibility.
pub use art9_sim::ReferenceSim;
pub use cosim::{check_compiler_lockstep, cosim_mem_bytes, CoSim, COSIM_TDM_WORDS};
pub use gen::{generate, step_budget, GenConfig, Mix, MIN_TDM_WORDS};
pub use minimize::{minimize, minimize_rv32, Minimized, MinimizedRv32};
pub use oracle::{
    check_program, check_program_filtered, lockstep, random_word, Divergence, DivergenceKind,
    LockstepOutcome, Oracle, OracleStats, ORACLE_TDM_WORDS,
};
pub use replay::{
    is_rv32_replay, parse_replay, parse_replay_header, render_replay, render_replay_rv32,
    write_replay, write_replay_rv32, RecordedMeta, ReplayMeta, REPLAY_MAGIC, REPLAY_MAGIC_RV32,
};
pub use rng::FuzzRng;
pub use rv32gen::{generate_rv32, rv32_step_budget, Rv32GenConfig, Rv32Mix};

use art9_isa::{encode, Program};
use rayon::prelude::*;

/// A whole fuzz campaign's configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed: the campaign is a pure function of this value (and
    /// the other knobs), independent of thread scheduling.
    pub seed: u64,
    /// Number of generated programs.
    pub iterations: u64,
    /// Generator tuning (mix, lengths, loop budget).
    pub gen: GenConfig,
    /// Random word pairs per iteration for the arithmetic oracle.
    pub arith_pairs: usize,
    /// RV32 generator tuning for the compiler-lockstep oracle.
    pub rv_gen: Rv32GenConfig,
    /// Rotate through every named [`Mix`] (and [`Rv32Mix`]) by
    /// iteration index instead of using the configured mix for all
    /// iterations (the smoke profile does this so CI exercises the
    /// memory/control paths too).
    pub sweep_mixes: bool,
    /// Directory to write replay files for minimized failures;
    /// `None` keeps failures in the report only.
    pub fail_dir: Option<std::path::PathBuf>,
    /// Restrict the campaign to one oracle (the `--oracle` triage
    /// filter); `None` runs them all.
    pub oracle: Option<Oracle>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            iterations: 1000,
            gen: GenConfig::default(),
            rv_gen: Rv32GenConfig::default(),
            arith_pairs: 32,
            sweep_mixes: false,
            fail_dir: None,
            oracle: None,
        }
    }
}

impl FuzzConfig {
    /// The CI smoke budget: 150 small programs in a few seconds,
    /// rotating through every named mix (and hitting both halt
    /// styles) so the memory and control paths get CI coverage too.
    pub fn smoke() -> Self {
        Self {
            iterations: 150,
            gen: GenConfig {
                max_len: 80,
                ..GenConfig::default()
            },
            rv_gen: Rv32GenConfig {
                max_len: 40,
                ..Rv32GenConfig::default()
            },
            arith_pairs: 16,
            sweep_mixes: true,
            ..Self::default()
        }
    }
}

/// One minimized failure.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Iteration index the case was generated at.
    pub iteration: u64,
    /// The (minimized) divergence.
    pub divergence: Divergence,
    /// The minimized program, rendered as replayable assembly.
    pub replay_text: String,
    /// Where the replay file was written, when a `fail_dir` was set.
    pub replay_path: Option<std::path::PathBuf>,
}

/// Aggregate result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Programs generated and checked.
    pub programs: u64,
    /// Folded oracle work counters.
    pub stats: OracleStats,
    /// Every divergence found (minimized).
    pub divergences: Vec<Failure>,
    /// Order-independent digest of every generated program: two runs
    /// with the same config produce the same digest regardless of
    /// `rayon` scheduling — the reproducibility check.
    pub digest: u64,
}

impl FuzzReport {
    /// Renders the human-readable campaign summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} programs | {} functional instructions, {} threaded instructions, {} pipelined \
             cycles",
            self.programs,
            self.stats.functional_instructions,
            self.stats.threaded_instructions,
            self.stats.pipelined_cycles
        );
        let _ = writeln!(
            out,
            "{} roundtrip checks, {} arithmetic checks, {} simd-lane checks, \
             {} energy flips cross-checked | digest {:016x}",
            self.stats.roundtrip_checks,
            self.stats.arith_checks,
            self.stats.simd_checks,
            self.stats.energy_flips,
            self.digest
        );
        if self.stats.slice_migrate_slices > 0 {
            let _ = writeln!(
                out,
                "slice-migrate: {} slices, {} cross-backend migrations",
                self.stats.slice_migrate_slices, self.stats.slice_migrate_migrations
            );
        }
        if self.stats.cosim_sync_points > 0 {
            let _ = writeln!(
                out,
                "compiler lockstep: {} rv32 instructions; summed over the functional, threaded \
                 and pipelined passes: {} art9 instructions, {} sync points",
                self.stats.cosim_rv32_instructions,
                self.stats.cosim_art9_instructions,
                self.stats.cosim_sync_points
            );
        }
        if self.divergences.is_empty() {
            let _ = writeln!(out, "no divergences");
        } else {
            let _ = writeln!(out, "{} DIVERGENCES:", self.divergences.len());
            for f in &self.divergences {
                let _ = writeln!(out, "  iteration {}: {}", f.iteration, f.divergence);
                if let Some(p) = &f.replay_path {
                    let _ = writeln!(out, "    replay: {}", p.display());
                }
            }
        }
        out
    }
}

/// FNV-1a over a program's canonical encoding (TIM words + data).
fn program_digest(p: &Program) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: i64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for i in p.text() {
        eat(encode(i).to_i64());
    }
    eat(-1); // text/data separator
    for w in p.data() {
        eat(w.to_i64());
    }
    h
}

/// FNV-1a over an RV32 source's bytes.
fn source_digest(src: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in src.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The thing a failing iteration minimizes and replays: an ART-9
/// program (simulator/toolchain oracles) or RV32 source (the
/// compiler-lockstep oracle).
enum CaseArtifact {
    Art9(Program),
    Rv32(String),
}

/// Outcome of one iteration (collected in index order).
struct IterOutcome {
    stats: OracleStats,
    digest: u64,
    failure: Option<(u64, Divergence, CaseArtifact)>,
}

/// Runs a full fuzz campaign.
///
/// Iterations fan out across `rayon` worker threads; each derives its
/// own RNG stream from `(seed, index)` and results are folded in index
/// order, so the report (digest included) is bit-identical run-to-run
/// for a fixed config.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let budget = step_budget(&cfg.gen);
    let rv_budget = rv32_step_budget(&cfg.rv_gen);
    // compiler-lockstep runs on RV32 programs, so restricting the
    // campaign to it skips the ART-9 generation entirely.
    let cosim_only = cfg.oracle == Some(Oracle::CompilerLockstep);
    let run_cosim = cfg.oracle.is_none() || cosim_only;
    let indices: Vec<u64> = (0..cfg.iterations).collect();
    let outcomes: Vec<IterOutcome> = indices
        .into_par_iter()
        .map(|i| {
            let mut digest = 0u64;
            let mut stats = OracleStats::default();
            let mut divergence = None;
            let mut artifact = None;
            if !cosim_only {
                let mut gen_cfg = cfg.gen;
                if cfg.sweep_mixes {
                    gen_cfg.mix = Mix::ALL[(i % Mix::ALL.len() as u64) as usize];
                }
                let program = generate(&mut FuzzRng::for_iteration(cfg.seed, i), &gen_cfg);
                digest = program_digest(&program);
                let (s, d) = check_program_filtered(&program, budget, cfg.oracle);
                stats = s;
                divergence = d.or_else(|| oracle::check_values(cfg.seed, i, cfg, &mut stats));
                if divergence.is_some() {
                    artifact = Some(CaseArtifact::Art9(program));
                }
            }
            if run_cosim && divergence.is_none() {
                let mut rv_cfg = cfg.rv_gen;
                if cfg.sweep_mixes {
                    rv_cfg.mix = Rv32Mix::ALL[(i % Rv32Mix::ALL.len() as u64) as usize];
                }
                // A fresh stream for the RV32 program: the same as a
                // filtered `--oracle compiler-lockstep` run.
                let src = generate_rv32(&mut FuzzRng::for_iteration(cfg.seed, i), &rv_cfg);
                digest ^= source_digest(&src).rotate_left(31);
                divergence = check_compiler_lockstep(&src, rv_budget, &mut stats);
                if divergence.is_some() {
                    artifact = Some(CaseArtifact::Rv32(src));
                }
            }
            let failure = divergence.zip(artifact).map(|(d, a)| (i, d, a));
            IterOutcome {
                stats,
                digest,
                failure,
            }
        })
        .collect();

    let mut stats = OracleStats::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut divergences = Vec::new();
    for o in &outcomes {
        stats.absorb(&o.stats);
        // Fold per-iteration digests in index order (collect preserves
        // input order, so this is schedule-independent).
        digest ^= o.digest;
        digest = digest.wrapping_mul(0x0000_0100_0000_01B3).rotate_left(17);
    }
    for o in outcomes {
        let Some((iteration, divergence, artifact)) = o.failure else {
            continue;
        };
        // Writing the (unrelated) generated program as the replay of a
        // value-level finding would record a "repro" that passes.
        if divergence.oracle.is_value_level() {
            divergences.push(Failure {
                iteration,
                replay_text: format!(
                    "; {} finding — no program replay; re-run with \
                     --seed {} --iterations {} to reproduce\n; {}",
                    divergence.oracle.name(),
                    cfg.seed,
                    cfg.iterations,
                    divergence.detail
                ),
                divergence,
                replay_path: None,
            });
            continue;
        }
        // Minimize findings by re-running the flagging oracle
        // (restricted to it, so minimization cost scales with one
        // oracle, not the whole matrix). RV32 cases minimize at the
        // source level; ART-9 cases at the instruction level; the
        // replay metadata and failure record are shared below.
        let (final_divergence, artifact) = match artifact {
            CaseArtifact::Rv32(src) => match minimize_rv32(&src, |s| {
                let mut scratch = OracleStats::default();
                check_compiler_lockstep(s, rv_budget, &mut scratch)
            }) {
                Some(m) => (m.divergence, CaseArtifact::Rv32(m.source)),
                None => (divergence, CaseArtifact::Rv32(src)),
            },
            CaseArtifact::Art9(program) => {
                let flagging = divergence.oracle;
                match minimize(&program, |p| {
                    check_program_filtered(p, budget, Some(flagging)).1
                }) {
                    Some(m) => (m.divergence, CaseArtifact::Art9(m.program)),
                    None => (divergence, CaseArtifact::Art9(program)),
                }
            }
        };
        let meta = ReplayMeta {
            seed: cfg.seed,
            iteration,
            divergence: final_divergence.clone(),
        };
        let dir = cfg.fail_dir.as_deref();
        let (replay_text, replay_path) = match &artifact {
            CaseArtifact::Rv32(src) => (
                render_replay_rv32(&meta, src),
                dir.and_then(|d| write_replay_rv32(d, &meta, src).ok()),
            ),
            CaseArtifact::Art9(program) => (
                render_replay(&meta, program),
                dir.and_then(|d| write_replay(d, &meta, program).ok()),
            ),
        };
        divergences.push(Failure {
            iteration,
            divergence: final_divergence,
            replay_text,
            replay_path,
        });
    }

    FuzzReport {
        programs: cfg.iterations,
        stats,
        divergences,
        digest,
    }
}

/// Re-runs the program-level oracles on a replay file's program —
/// all of them, or just `only` when triaging a single oracle.
///
/// Returns the campaign-style report for the single case.
pub fn run_replay(program: &Program, only: Option<Oracle>) -> (OracleStats, Option<Divergence>) {
    // A replayed program may not obey the generator's termination
    // invariants (it could be hand-edited), so give it a generous
    // fixed budget.
    check_program_filtered(program, 2_000_000, only)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            iterations: 25,
            gen: GenConfig {
                max_len: 60,
                ..GenConfig::default()
            },
            arith_pairs: 8,
            ..FuzzConfig::default()
        }
    }

    #[test]
    fn campaign_is_clean_and_deterministic() {
        let cfg = tiny();
        let a = run_fuzz(&cfg);
        assert!(a.divergences.is_empty(), "{}", a.render());
        assert!(a.stats.functional_instructions > 0);
        assert!(a.stats.threaded_instructions > 0);
        let b = run_fuzz(&cfg);
        assert_eq!(a.digest, b.digest);
        assert_eq!(
            a.stats.functional_instructions,
            b.stats.functional_instructions
        );
        assert_eq!(a.stats.threaded_instructions, b.stats.threaded_instructions);
        assert_eq!(a.stats.pipelined_cycles, b.stats.pipelined_cycles);
        assert_eq!(a.stats.roundtrip_checks, b.stats.roundtrip_checks);
    }

    #[test]
    fn different_seeds_generate_different_campaigns() {
        let a = run_fuzz(&tiny());
        let mut cfg = tiny();
        cfg.seed = 43;
        let b = run_fuzz(&cfg);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn filtered_runs_do_the_same_work_as_the_full_run() {
        // Every program-level oracle, run alone, reports the counter it
        // contributes to the full campaign: one dispatch list serves
        // both.
        let cfg = FuzzConfig {
            sweep_mixes: true,
            ..tiny()
        };
        let full = run_fuzz(&cfg).stats;
        let only = |o: Oracle| {
            let r = run_fuzz(&FuzzConfig {
                oracle: Some(o),
                ..cfg.clone()
            });
            assert!(r.divergences.is_empty(), "{}", r.render());
            r.stats
        };
        assert!(full.functional_instructions > 0);
        let reference = only(Oracle::FunctionalVsReference);
        assert_eq!(
            reference.functional_instructions,
            full.functional_instructions
        );
        let threaded = only(Oracle::FunctionalVsThreaded);
        assert_eq!(threaded.threaded_instructions, full.threaded_instructions);
        assert_eq!(only(Oracle::Energy).energy_flips, full.energy_flips);
        let sliced = only(Oracle::SliceMigrate);
        assert_eq!(sliced.slice_migrate_slices, full.slice_migrate_slices);
        assert_eq!(
            sliced.slice_migrate_migrations,
            full.slice_migrate_migrations
        );
        let (fwd, nofwd) = (
            only(Oracle::PipelinedForwarding),
            only(Oracle::PipelinedNoForwarding),
        );
        for pipelined in [fwd, nofwd] {
            assert_eq!(
                pipelined.functional_instructions,
                full.functional_instructions
            );
        }
        assert_eq!(
            fwd.pipelined_cycles + nofwd.pipelined_cycles,
            full.pipelined_cycles
        );
        let roundtrip = only(Oracle::ToolchainRoundtrip);
        assert_eq!(roundtrip.roundtrip_checks, full.roundtrip_checks);
        // Each value row draws from its own stream, so alone it checks
        // the full campaign's operands.
        assert_eq!(only(Oracle::Arithmetic).arith_checks, full.arith_checks);
        assert_eq!(only(Oracle::Simd).simd_checks, full.simd_checks);
        // The full campaign runs the filtered run's RV32 programs.
        let cosim = only(Oracle::CompilerLockstep);
        assert!(full.cosim_sync_points > 0);
        assert_eq!(cosim.cosim_rv32_instructions, full.cosim_rv32_instructions);
        assert_eq!(cosim.cosim_art9_instructions, full.cosim_art9_instructions);
        assert_eq!(cosim.cosim_sync_points, full.cosim_sync_points);
    }

    #[test]
    fn report_renders_counts() {
        let r = run_fuzz(&FuzzConfig {
            iterations: 3,
            ..tiny()
        });
        let text = r.render();
        assert!(text.contains("3 programs"), "{text}");
        assert!(text.contains("no divergences"), "{text}");
        assert!(text.contains("digest"), "{text}");
    }
}
