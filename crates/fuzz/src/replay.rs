//! Replay files: any fuzz failure is a one-command repro.
//!
//! A replay file is plain ART-9 assembly (the assembler's own syntax,
//! produced by [`Program`]'s `Display`) preceded by `;`-comment
//! headers recording how the case was found. Re-running it needs no
//! generator state:
//!
//! ```sh
//! cargo run --release -p art9-fuzz -- --replay fuzz-failures/case-000.art9
//! ```

use std::fmt::Write as _;
use std::path::Path;

use art9_isa::{assemble, IsaError, Program};

use crate::oracle::Divergence;

/// Format marker written as the first header line.
pub const REPLAY_MAGIC: &str = "; art9-fuzz replay v1";

/// Format marker of the RV32-flavored replay files the
/// compiler-lockstep oracle writes. The headers use `#` comments (the
/// RV32 assembler's syntax), so the whole file feeds straight into
/// `rv32::parse_program` — an RV32 replay is also a valid `.s` source.
pub const REPLAY_MAGIC_RV32: &str = "# art9-fuzz replay v2 (rv32 compiler-lockstep)";

/// `true` when `text` is an RV32-flavored replay file (the
/// compiler-lockstep format) rather than ART-9 assembly.
pub fn is_rv32_replay(text: &str) -> bool {
    text.starts_with(REPLAY_MAGIC_RV32)
}

/// Provenance recorded in a replay file's header.
#[derive(Debug, Clone)]
pub struct ReplayMeta {
    /// The fuzzer seed the case was found under.
    pub seed: u64,
    /// The iteration index within that seed.
    pub iteration: u64,
    /// The oracle that flagged it and the first difference observed.
    pub divergence: Divergence,
}

/// Renders a replay file for `program`.
///
/// # Examples
///
/// ```
/// use art9_fuzz::{render_replay, parse_replay, ReplayMeta, Divergence, DivergenceKind, Oracle};
///
/// let program = art9_isa::assemble("LI t3, 7\nJAL t0, 0\n")?;
/// let meta = ReplayMeta {
///     seed: 42,
///     iteration: 17,
///     divergence: Divergence {
///         oracle: Oracle::PipelinedForwarding,
///         kind: DivergenceKind::Disagreement,
///         detail: "t3 = 7 vs 8".into(),
///     },
/// };
/// let text = render_replay(&meta, &program);
/// let back = parse_replay(&text)?;
/// assert_eq!(back.text(), program.text());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn render_replay(meta: &ReplayMeta, program: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{REPLAY_MAGIC}");
    let _ = writeln!(out, "; seed={} iteration={}", meta.seed, meta.iteration);
    let _ = writeln!(out, "; oracle={}", meta.divergence.oracle.name());
    for line in meta.divergence.detail.lines() {
        let _ = writeln!(out, "; {line}");
    }
    let _ = writeln!(out);
    let _ = write!(out, "{program}");
    out
}

/// Parses a replay file back into a program.
///
/// The headers are ordinary `;` comments, so the whole file goes
/// straight through the assembler — a replay file is also a valid
/// assembly source.
///
/// # Errors
///
/// Propagates assembler errors for malformed files.
pub fn parse_replay(text: &str) -> Result<Program, IsaError> {
    assemble(text)
}

/// Renders an RV32-flavored replay file for the compiler-lockstep
/// oracle: `#`-comment headers followed by the RV32 assembly source.
///
/// # Examples
///
/// ```
/// use art9_fuzz::{render_replay_rv32, is_rv32_replay, ReplayMeta, Divergence, DivergenceKind, Oracle};
///
/// let meta = ReplayMeta {
///     seed: 42,
///     iteration: 3,
///     divergence: Divergence {
///         oracle: Oracle::CompilerLockstep,
///         kind: DivergenceKind::Disagreement,
///         detail: "a0 (Data) = 7 (art9) vs 8 (rv32)".into(),
///     },
/// };
/// let text = render_replay_rv32(&meta, "li a0, 8\nebreak\n");
/// assert!(is_rv32_replay(&text));
/// rv32::parse_program(&text)?; // headers are ordinary comments
/// # Ok::<(), rv32::Rv32Error>(())
/// ```
pub fn render_replay_rv32(meta: &ReplayMeta, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{REPLAY_MAGIC_RV32}");
    let _ = writeln!(out, "# seed={} iteration={}", meta.seed, meta.iteration);
    let _ = writeln!(out, "# oracle={}", meta.divergence.oracle.name());
    for line in meta.divergence.detail.lines() {
        let _ = writeln!(out, "# {line}");
    }
    let _ = writeln!(out);
    out.push_str(source);
    if !source.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Writes `content` under `dir` as `case-<n>.<ext>` with the first
/// free `n` across *both* extensions (so `.art9` and `.rv32` cases
/// share one numbering).
fn write_case(dir: &Path, ext: &str, content: &str) -> std::io::Result<std::path::PathBuf> {
    std::fs::create_dir_all(dir)?;
    for n in 0..10_000 {
        let path = dir.join(format!("case-{n:03}.{ext}"));
        let sibling = dir.join(format!(
            "case-{n:03}.{}",
            if ext == "art9" { "rv32" } else { "art9" }
        ));
        if path.exists() || sibling.exists() {
            continue;
        }
        std::fs::write(&path, content)?;
        return Ok(path);
    }
    Err(std::io::Error::other("no free replay slot under 10000"))
}

/// Writes a replay file under `dir`, named `case-<n>.art9` with the
/// first free `n`. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation included).
pub fn write_replay(
    dir: &Path,
    meta: &ReplayMeta,
    program: &Program,
) -> std::io::Result<std::path::PathBuf> {
    write_case(dir, "art9", &render_replay(meta, program))
}

/// Writes an RV32-flavored replay file under `dir`, named
/// `case-<n>.rv32`. Returns the path written.
///
/// # Errors
///
/// Propagates filesystem errors (directory creation included).
pub fn write_replay_rv32(
    dir: &Path,
    meta: &ReplayMeta,
    source: &str,
) -> std::io::Result<std::path::PathBuf> {
    write_case(dir, "rv32", &render_replay_rv32(meta, source))
}

/// The provenance recorded in a replay file's headers, parsed back out
/// (either flavor) — the `--replay` triage summary prints it next to
/// the freshly observed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedMeta {
    /// The recorded seed, when present.
    pub seed: Option<u64>,
    /// The recorded iteration, when present.
    pub iteration: Option<u64>,
    /// The recorded flagging oracle, when present and recognizable.
    pub oracle: Option<crate::oracle::Oracle>,
}

/// Extracts the recorded seed/iteration/oracle from a replay file's
/// comment headers (either flavor). Unrecognized or absent fields are
/// `None` — hand-edited files stay replayable.
pub fn parse_replay_header(text: &str) -> RecordedMeta {
    let mut meta = RecordedMeta {
        seed: None,
        iteration: None,
        oracle: None,
    };
    for line in text.lines().take(16) {
        let Some(body) = line.strip_prefix("; ").or_else(|| line.strip_prefix("# ")) else {
            continue;
        };
        for token in body.split_whitespace() {
            if let Some(v) = token.strip_prefix("seed=") {
                meta.seed = v.parse().ok();
            } else if let Some(v) = token.strip_prefix("iteration=") {
                meta.iteration = v.parse().ok();
            } else if let Some(v) = token.strip_prefix("oracle=") {
                meta.oracle = v.parse().ok();
            }
        }
    }
    meta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DivergenceKind, Oracle};

    fn meta() -> ReplayMeta {
        ReplayMeta {
            seed: 7,
            iteration: 3,
            divergence: Divergence {
                oracle: Oracle::FunctionalVsReference,
                kind: DivergenceKind::Disagreement,
                detail: "t4 = 1 vs 2\nsecond line".into(),
            },
        }
    }

    #[test]
    fn roundtrips_text_and_data() {
        let p = assemble(".data\nv: .word 5, -5, 0\n.text\nLI t3, 1\nLOAD t4, t3, 0\nJAL t0, 0\n")
            .unwrap();
        let text = render_replay(&meta(), &p);
        assert!(text.starts_with(REPLAY_MAGIC));
        assert!(text.contains("; seed=7 iteration=3"));
        assert!(text.contains("; oracle=functional-vs-reference"));
        let back = parse_replay(&text).unwrap();
        assert_eq!(back.text(), p.text());
        assert_eq!(back.data(), p.data());
    }

    #[test]
    fn multiline_detail_stays_commented() {
        let p = assemble("NOP\n").unwrap();
        let text = render_replay(&meta(), &p);
        // Every detail line must be a comment, or reassembly would fail.
        assert!(text.contains("; second line"));
        parse_replay(&text).unwrap();
    }

    #[test]
    fn writes_sequential_case_files() {
        let dir = std::env::temp_dir().join(format!("art9-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = assemble("NOP\n").unwrap();
        let first = write_replay(&dir, &meta(), &p).unwrap();
        let second = write_replay(&dir, &meta(), &p).unwrap();
        assert_ne!(first, second);
        assert!(first.ends_with("case-000.art9"));
        assert!(second.ends_with("case-001.art9"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
