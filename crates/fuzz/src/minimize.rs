//! Automatic test-case minimization: greedy instruction deletion.
//!
//! Instructions are *replaced with the canonical NOP* rather than
//! removed — deleting a word would shift every later address and break
//! the PC-relative control flow of the very structure that exposed the
//! bug. After the NOP pass reaches a fixpoint the trailing NOPs (and
//! any unused data words) are truncated when the divergence survives
//! the cut.

use art9_isa::{Instruction, Program, NOP};
use ternary::Word9;

use crate::oracle::Divergence;

/// A candidate edit must reproduce the same failure, not just *a*
/// failure: the same oracle and the same [`DivergenceKind`](crate::DivergenceKind).
fn same_kind(d: &Divergence, original: &Divergence) -> bool {
    d.oracle == original.oracle && d.kind == original.kind
}

/// Outcome of a minimization run.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The reduced program (still diverging).
    pub program: Program,
    /// The divergence the reduced program still exhibits.
    pub divergence: Divergence,
    /// Instructions in the original program.
    pub original_len: usize,
    /// Non-NOP instructions that survived.
    pub active_len: usize,
}

/// Greedily minimizes `program` while `check` keeps reporting **the
/// same kind of** divergence.
///
/// `check` must be the same oracle that flagged the original program;
/// it is re-run after every candidate edit, so the reduced program is
/// guaranteed to still diverge. An edit is only kept when the new
/// divergence comes from the same oracle as the original *and* has
/// the same kind — otherwise a NOP that, say, breaks a counted loop's
/// decrement would turn a real pipelined bug into an unrelated
/// infinite-loop timeout, or one that breaks the generated control
/// structure would turn it into a functional-baseline fault, and
/// minimize *that* instead. Returns `None` when the original program
/// does not diverge under `check` (nothing to minimize).
pub fn minimize<F>(program: &Program, check: F) -> Option<Minimized>
where
    F: Fn(&Program) -> Option<Divergence>,
{
    let mut divergence = check(program)?;
    let original_len = program.text().len();
    let mut text: Vec<Instruction> = program.text().to_vec();
    let mut data: Vec<Word9> = program.data().to_vec();

    // Pass 1: NOP substitution to fixpoint. Scanning back-to-front
    // tends to release dependent chains faster (consumers go first).
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..text.len()).rev() {
            if text[i] == NOP {
                continue;
            }
            let saved = text[i];
            text[i] = NOP;
            match check(&rebuild(&text, &data)) {
                Some(d) if same_kind(&d, &divergence) => {
                    divergence = d;
                    changed = true;
                }
                _ => text[i] = saved,
            }
        }
    }

    // Pass 2: truncate trailing NOPs (one by one — an earlier branch
    // may legally target the instruction just past the end).
    while text.last() == Some(&NOP) {
        let saved = text.pop().expect("nonempty");
        match check(&rebuild(&text, &data)) {
            Some(d) if same_kind(&d, &divergence) => divergence = d,
            _ => {
                text.push(saved);
                break;
            }
        }
    }

    // Pass 3: drop the data image if the divergence is not about it.
    if !data.is_empty() {
        let saved = std::mem::take(&mut data);
        match check(&rebuild(&text, &data)) {
            Some(d) if same_kind(&d, &divergence) => divergence = d,
            _ => data = saved,
        }
    }

    let active_len = text.iter().filter(|i| **i != NOP).count();
    Some(Minimized {
        program: rebuild(&text, &data),
        divergence,
        original_len,
        active_len,
    })
}

/// Outcome of an RV32 source-level minimization run (the
/// compiler-lockstep oracle's counterpart of [`Minimized`]).
#[derive(Debug, Clone)]
pub struct MinimizedRv32 {
    /// The reduced source (still diverging; still a valid `.s` file).
    pub source: String,
    /// The divergence the reduced source still exhibits.
    pub divergence: Divergence,
    /// Instruction lines in the original source.
    pub original_instructions: usize,
    /// Non-`nop` instruction lines that survived.
    pub active_instructions: usize,
}

/// `true` for a source line that is an instruction (not a label,
/// directive, comment or blank) — the only lines minimization edits.
/// A `label: .word …` data line is a directive, not an instruction.
fn is_instruction_line(line: &str) -> bool {
    let mut t = line.trim();
    if let Some((head, rest)) = t.split_once(':') {
        if !head.contains(char::is_whitespace) {
            t = rest.trim(); // inline label prefix
        }
    }
    !(t.is_empty() || t.starts_with('#') || t.starts_with('.'))
}

/// Lines the NOP pass never touches: `la` pointer establishment.
/// NOPing it leaves a null pointer whose dereference compares memory
/// the two machines address differently — the reduced case would
/// diverge for a contract-violating reason instead of the real bug.
fn is_protected_line(line: &str) -> bool {
    let t = line.trim();
    t == "la" || t.starts_with("la ") || t.starts_with("la\t")
}

/// Greedily minimizes RV32 assembly `source` while `check` keeps
/// reporting the same kind of divergence.
///
/// The reduction is line-based: instruction lines are replaced with
/// `nop` (labels stay, so control flow cannot dangle), then trailing
/// `nop`s are dropped. As with [`minimize`], an edit is kept only when
/// the divergence keeps its oracle and its kind — a `nop` that breaks
/// a loop's decrement (budget exhaustion) or splits an `la` pair (a
/// harness-kind translate rejection) must not replace the real finding.
pub fn minimize_rv32<F>(source: &str, check: F) -> Option<MinimizedRv32>
where
    F: Fn(&str) -> Option<Divergence>,
{
    let mut divergence = check(source)?;
    let mut lines: Vec<String> = source.lines().map(str::to_string).collect();
    let original_instructions = lines.iter().filter(|l| is_instruction_line(l)).count();

    let render = |lines: &[String]| lines.join("\n") + "\n";

    // Pass 1: nop substitution to fixpoint, consumers first.
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..lines.len()).rev() {
            if !is_instruction_line(&lines[i])
                || is_protected_line(&lines[i])
                || lines[i].trim() == "nop"
            {
                continue;
            }
            let saved = std::mem::replace(&mut lines[i], "nop".to_string());
            match check(&render(&lines)) {
                Some(d) if same_kind(&d, &divergence) => {
                    divergence = d;
                    changed = true;
                }
                _ => lines[i] = saved,
            }
        }
    }

    // Pass 2: drop trailing nops (labels at the end may go with them).
    while let Some(last) = lines.iter().rposition(|l| is_instruction_line(l)) {
        if lines[last].trim() != "nop" {
            break;
        }
        let saved = lines.clone();
        lines.truncate(last);
        match check(&render(&lines)) {
            Some(d) if same_kind(&d, &divergence) => divergence = d,
            _ => {
                lines = saved;
                break;
            }
        }
    }

    let active_instructions = lines
        .iter()
        .filter(|l| is_instruction_line(l) && l.trim() != "nop")
        .count();
    Some(MinimizedRv32 {
        source: render(&lines),
        divergence,
        original_instructions,
        active_instructions,
    })
}

/// Builds a bare program from reduced parts.
fn rebuild(text: &[Instruction], data: &[Word9]) -> Program {
    Program::new(
        text.to_vec(),
        data.to_vec(),
        std::collections::BTreeMap::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{DivergenceKind, Oracle};
    use art9_isa::assemble;
    use art9_sim::{Core, SimBuilder};
    use ternary::Word9;

    /// A synthetic oracle: "diverges" whenever the program leaves 42 in
    /// t3 at halt — stands in for a real simulator disagreement so the
    /// minimizer's contract can be tested without planting a bug.
    fn t3_is_42(p: &Program) -> Option<Divergence> {
        let mut sim = SimBuilder::new(p).build_functional();
        sim.run(10_000).ok()?;
        if sim.state().reg(art9_isa::TReg::T3) == Word9::from_i64(42).unwrap() {
            Some(Divergence {
                oracle: Oracle::FunctionalVsReference,
                kind: DivergenceKind::Disagreement,
                detail: "t3 == 42".into(),
            })
        } else {
            None
        }
    }

    #[test]
    fn strips_irrelevant_instructions() {
        // Only `LI t3, 42` matters; the rest is noise the minimizer
        // must remove.
        let p = assemble(
            ".data\n.word 7, 8, 9\n.text\nLI t4, 3\nADD t4, t4\nLI t3, 42\n\
             LI t5, 9\nSUB t5, t4\nXOR t5, t5\nJAL t0, 0\n",
        )
        .unwrap();
        let m = minimize(&p, t3_is_42).expect("diverges");
        assert_eq!(m.original_len, 7);
        // LI t3,42 must survive; the halt jump may or may not (falling
        // off the end halts too).
        assert!(m.active_len <= 2, "kept {} instructions", m.active_len);
        assert!(m
            .program
            .text()
            .iter()
            .any(|i| matches!(i, Instruction::Li { a, .. } if *a == art9_isa::TReg::T3)));
        assert!(m.program.data().is_empty(), "unused data image kept");
        assert!(
            t3_is_42(&m.program).is_some(),
            "reduction no longer diverges"
        );
    }

    #[test]
    fn refuses_to_trade_the_failure_kind_during_reduction() {
        use DivergenceKind::*;
        // Synthetic oracle keyed on which marker instructions survive:
        // `ADDI t5, 1` present => the real finding, of kind `real`;
        // otherwise `ADDI t5, 2` present => a finding of kind `other`
        // (as if the edit made the program non-terminating, or made the
        // other side fault).
        fn marked(p: &Program, real: DivergenceKind, other: DivergenceKind) -> Option<Divergence> {
            let marker = |imm: i64| {
                p.text().iter().any(|i| {
                    matches!(i, Instruction::Addi { a: art9_isa::TReg::T5, imm: v } if v.to_i64() == imm)
                })
            };
            let kind = if marker(1) {
                real
            } else if marker(2) {
                other
            } else {
                return None;
            };
            Some(Divergence {
                oracle: Oracle::PipelinedForwarding,
                kind,
                detail: format!("{kind:?}"),
            })
        }
        // Back-to-front scanning tries to NOP `ADDI t5, 1` first; that
        // edit turns the finding into another kind and must be
        // rejected, or the minimizer would happily minimize the wrong
        // failure.
        let p = assemble("ADDI t5, 2\nADDI t5, 1\nJAL t0, 0\n").unwrap();
        for (real, other) in [
            (Disagreement, BudgetExhausted),
            (Disagreement, BaselineFault),
            (Disagreement, CandidateFault),
            (Disagreement, Harness),
            (CandidateFault, BaselineFault),
            (BaselineFault, CandidateFault),
        ] {
            let m = minimize(&p, |p| marked(p, real, other)).expect("diverges");
            assert_eq!(m.divergence.kind, real, "{real:?} traded for {other:?}");
            assert_eq!(
                m.program.text()[1],
                p.text()[1],
                "{real:?}: real marker lost"
            );
            assert_eq!(m.program.text()[0], NOP, "{real:?}: noise kept");
        }
    }

    #[test]
    fn non_diverging_program_returns_none() {
        let p = assemble("LI t3, 1\nJAL t0, 0\n").unwrap();
        assert!(minimize(&p, t3_is_42).is_none());
    }

    #[test]
    fn preserves_control_flow_structure() {
        // The 42 is produced inside a loop; the loop scaffolding must
        // survive minimization since removing it changes the result.
        let p = assemble(
            "LUI t7, 0\nLI t7, 6\nLI t3, 0\nloop:\nADDI t3, 7\nADDI t7, -1\n\
             MV t6, t7\nCOMP t6, t8\nBEQ t6, +, loop\nJAL t0, 0\n",
        )
        .unwrap();
        let m = minimize(&p, t3_is_42).expect("diverges: 6 * 7 == 42");
        assert!(t3_is_42(&m.program).is_some());
        // The backward branch must still be there.
        assert!(m.program.text().iter().any(|i| i.is_conditional_branch()));
    }
}
