//! # `art9-compiler` — the software-level compiling framework
//!
//! Implements the paper's §III-A pipeline (Fig. 2): given an RV32
//! assembly program (the output boundary of a stock binary toolchain),
//! produce an executable ART-9 ternary program through
//!
//! 1. **instruction mapping** — each RV32 instruction becomes a
//!    sequence of ternary instructions ([`mapping`]), with runtime
//!    "primitive sequences" for multiply/divide/shifts ([`runtime`]);
//! 2. **operand conversion** — address re-scaling from byte to word
//!    addressing ([`analysis`]) and 32→9 register renaming with TDM
//!    spill slots ([`regalloc`]);
//! 3. **redundancy checking** — peephole elimination of the mapping's
//!    dead artifacts ([`redundancy`]) followed by branch-target
//!    re-calculation and relaxation ([`relax`]).
//!
//! ## Quick start
//!
//! ```
//! use art9_compiler::translate;
//! use art9_sim::{Core, SimBuilder};
//! use rv32::parse_program;
//!
//! let rv = parse_program("
//!     li   a0, 10
//!     li   a1, 0
//! loop:
//!     add  a1, a1, a0
//!     addi a0, a0, -1
//!     bnez a0, loop
//!     ebreak
//! ")?;
//!
//! let out = translate(&rv)?;
//! let mut sim = SimBuilder::new(&out.program).build_functional();
//! sim.run(100_000)?;
//! // a1 lives wherever the renamer put it; ask the translation.
//! assert_eq!(out.read_rv_reg(sim.state(), "a1".parse()?), 55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod error;
pub mod items;
pub mod mapping;
pub mod redundancy;
pub mod regalloc;
pub mod relax;
mod report;
pub mod runtime;

use art9_isa::Program;
use rv32::{Reg, Rv32Program};
use ternary::Word9;

use crate::analysis::{analyze, DATA_WORD_BASE};
use crate::items::{Item, Sourced};
use crate::mapping::Mapper;
use crate::regalloc::{allocate, Allocation, Loc};
use crate::relax::resolve;
use crate::runtime::builtin_items;

pub use error::CompileError;
pub use items::Origin;
pub use regalloc::Loc as RegisterLocation;
pub use report::{SoftwareReport, Warning, WarningKind};

/// Default TDM size assumed by translated programs (matches the
/// 256-word memories of Table V).
pub const DEFAULT_TDM_WORDS: usize = 256;

/// A finished translation: the executable ART-9 program plus the
/// renaming decisions and statistics.
#[derive(Debug, Clone)]
pub struct Translation {
    /// The executable ART-9 program (text + initial TDM image).
    pub program: Program,
    /// Where each RV32 register was placed.
    pub allocation: Allocation,
    /// Counts, expansion factor and semantic warnings.
    pub report: SoftwareReport,
    /// ART-9 address where the translation of RV32 instruction `k`
    /// begins; one extra entry marks the end of the program body
    /// (before the linked builtins).
    rv_boundaries: Vec<usize>,
    /// Per-instruction provenance: `provenance[a]` names the source
    /// construct `program.text()[a]` was emitted for.
    provenance: Vec<Origin>,
}

impl Translation {
    /// Reads the value an RV32 register holds after a run, wherever the
    /// renamer placed it (direct ternary register or TDM spill slot).
    ///
    /// # Panics
    ///
    /// Panics if `reg` never appeared in the translated program.
    pub fn read_rv_reg(&self, state: &art9_sim_state::CoreState, reg: Reg) -> i64 {
        match self.allocation.loc(reg) {
            Loc::Zero => 0,
            Loc::Direct(t) => state.reg(t).to_i64(),
            Loc::Spill(s) => state
                .tdm
                .read(s as usize)
                .expect("spill slot in range")
                .to_i64(),
        }
    }

    /// ART-9 address where the translation of RV32 instruction `k`
    /// starts (for setting ternary breakpoints on source lines).
    pub fn address_of_rv(&self, k: usize) -> Option<usize> {
        self.rv_boundaries.get(k).copied()
    }

    /// The provenance map: one [`Origin`] per emitted instruction,
    /// threaded through instruction mapping, redundancy elimination and
    /// relaxation. `provenance()[a]` tells which RV32 instruction (or
    /// prologue / halt / builtin) produced `program.text()[a]` — the
    /// sync-point structure the cross-ISA lockstep oracle drives on.
    pub fn provenance(&self) -> &[Origin] {
        &self.provenance
    }

    /// Renders a side-by-side listing: each RV32 instruction followed
    /// by the ternary sequence it mapped to — the inspectable artifact
    /// of the paper's Fig. 2 flow.
    pub fn listing(&self, source: &Rv32Program) -> String {
        let mut out = String::new();
        let text = self.program.text();
        for (k, rv) in source.text().iter().enumerate() {
            let start = self.rv_boundaries.get(k).copied().unwrap_or(0);
            let end = self
                .rv_boundaries
                .get(k + 1)
                .copied()
                .unwrap_or(start)
                .max(start);
            out.push_str(&format!("; rv32 #{k}: {rv}\n"));
            for (addr, instr) in text.iter().enumerate().take(end).skip(start) {
                out.push_str(&format!("  {addr:4}: {instr}\n"));
            }
        }
        let body_end = self.rv_boundaries.last().copied().unwrap_or(text.len());
        if body_end < text.len() {
            out.push_str("; runtime library (__mul/__div/__rem)\n");
            for (addr, instr) in text.iter().enumerate().skip(body_end) {
                out.push_str(&format!("  {addr:4}: {instr}\n"));
            }
        }
        out
    }
}

/// Re-export of the simulator state type used by
/// [`Translation::read_rv_reg`] (kept in a private-looking module path
/// to avoid a hard public dependency elsewhere).
pub mod art9_sim_state {
    pub use art9_sim::CoreState;
}

/// Translates an RV32 program to ART-9 with the default TDM size.
///
/// # Errors
///
/// Any [`CompileError`]: untranslatable constructs are rejected, never
/// silently miscompiled.
pub fn translate(program: &Rv32Program) -> Result<Translation, CompileError> {
    translate_with_tdm(program, DEFAULT_TDM_WORDS)
}

/// Translates with an explicit TDM size (the stack convention and data
/// placement depend on it).
///
/// # Errors
///
/// See [`translate`].
pub fn translate_with_tdm(
    program: &Rv32Program,
    tdm_words: usize,
) -> Result<Translation, CompileError> {
    translate_with_options(
        program,
        TranslateOptions {
            tdm_words,
            redundancy: true,
        },
    )
}

/// Tuning knobs for [`translate_with_options`].
#[derive(Debug, Clone, Copy)]
pub struct TranslateOptions {
    /// TDM size in words (data placement + stack convention).
    pub tdm_words: usize,
    /// Run the redundancy-checking pass (Fig. 2's last stage). Turning
    /// it off quantifies the pass — the `report` binary's Ablations
    /// section uses this.
    pub redundancy: bool,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        Self {
            tdm_words: DEFAULT_TDM_WORDS,
            redundancy: true,
        }
    }
}

/// Translation with explicit options.
///
/// # Errors
///
/// See [`translate`].
pub fn translate_with_options(
    program: &Rv32Program,
    options: TranslateOptions,
) -> Result<Translation, CompileError> {
    let tdm_words = options.tdm_words;
    let analysis = analyze(program)?;
    let alloc = allocate(program)?;

    // Instruction mapping.
    let mapper = Mapper::new(&alloc, &analysis, tdm_words);
    let mut out = mapper.map_program(program.text())?;

    // Link the runtime builtins the program needs, each body tagged
    // with its builtin origin.
    let body_items = out.items.len();
    for id in std::mem::take(&mut out.used_builtins) {
        out.items.extend(
            builtin_items(id, &mut out.labels)
                .into_iter()
                .map(|item| Sourced::new(item, Origin::Builtin(id))),
        );
    }
    let builtin_items_len = out.items.len() - body_items;

    // Redundancy checking.
    let removed = if options.redundancy {
        redundancy::eliminate(&mut out.items)
    } else {
        0
    };

    // Branch re-targeting / relaxation.
    let resolved = resolve(&out.items)?;

    // Data image: runtime scratch + converted data words.
    let mut data = Vec::with_capacity(DATA_WORD_BASE as usize + program.data().len());
    data.resize(DATA_WORD_BASE as usize, Word9::ZERO);
    for (i, w) in program.data().iter().enumerate() {
        let v = *w as i32 as i64;
        let word =
            Word9::from_i64(v).map_err(|_| CompileError::ConstantRange { at: i, value: v })?;
        data.push(word);
    }

    let total_instructions = resolved.text.len();
    // Approximate the body/builtin split from pre-elimination counts.
    let pre_total: usize = out
        .items
        .iter()
        .filter(|s| !matches!(s.item, Item::Mark(_)))
        .count();
    let builtin_share = if pre_total == 0 {
        0.0
    } else {
        builtin_items_len as f64 / (pre_total + removed) as f64
    };
    let builtin_instructions = (total_instructions as f64 * builtin_share).round() as usize;

    let report = SoftwareReport {
        rv32_instructions: program.text().len(),
        art9_body_instructions: total_instructions - builtin_instructions,
        art9_builtin_instructions: builtin_instructions,
        redundant_removed: removed,
        data_words: program.data().len(),
        warnings: std::mem::take(&mut out.warnings),
    };

    // RV32-index → ART-9-address boundaries (for listings/breakpoints).
    let rv_boundaries: Vec<usize> = (0..=program.text().len())
        .map(|k| {
            resolved
                .addresses
                .get(crate::items::Label::Rv(k))
                .unwrap_or(resolved.text.len())
        })
        .collect();

    Ok(Translation {
        program: Program::new(resolved.text, data, Default::default()),
        allocation: alloc,
        report,
        rv_boundaries,
        provenance: resolved.origins,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_sim::{Core, SimBuilder};
    use rv32::parse_program;

    fn run_translated(src: &str) -> (Translation, art9_sim::FunctionalSim) {
        let rv = parse_program(src).unwrap();
        let t = translate(&rv).unwrap();
        let mut sim = SimBuilder::new(&t.program).build_functional();
        sim.run(1_000_000).unwrap();
        (t, sim)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (t, sim) = run_translated("li a0, 100\nli a1, -42\nadd a2, a0, a1\nebreak\n");
        assert_eq!(t.read_rv_reg(sim.state(), "a2".parse().unwrap()), 58);
    }

    #[test]
    fn loop_matches_rv32() {
        let src = "
            li a0, 10
            li a1, 0
        loop:
            add a1, a1, a0
            addi a0, a0, -1
            bnez a0, loop
            ebreak
        ";
        let (t, sim) = run_translated(src);
        // Cross-check against the RV32 machine.
        let rv = parse_program(src).unwrap();
        let mut m = rv32::Machine::new(&rv);
        m.run(100_000).unwrap();
        assert_eq!(
            t.read_rv_reg(sim.state(), "a1".parse().unwrap()),
            m.reg("a1".parse().unwrap()) as i64
        );
    }

    #[test]
    fn memory_translation() {
        let src = "
            .data
            arr: .word 5, -3, 9, 0
            .text
            la   a0, arr
            lw   a1, 0(a0)
            lw   a2, 4(a0)
            add  a1, a1, a2
            sw   a1, 12(a0)
            ebreak
        ";
        let (t, sim) = run_translated(src);
        assert_eq!(t.read_rv_reg(sim.state(), "a1".parse().unwrap()), 2);
        // arr[3] lives at TDM word DATA_WORD_BASE + 3.
        assert_eq!(sim.state().tdm.read(16 + 3).unwrap().to_i64(), 2);
    }

    #[test]
    fn multiplication_via_builtin() {
        let (t, sim) = run_translated("li a0, 37\nli a1, -21\nmul a2, a0, a1\nebreak\n");
        assert_eq!(t.read_rv_reg(sim.state(), "a2".parse().unwrap()), -777);
    }

    #[test]
    fn division_via_builtin() {
        let (t, sim) =
            run_translated("li a0, 100\nli a1, 7\ndiv a2, a0, a1\nrem a3, a0, a1\nebreak\n");
        assert_eq!(t.read_rv_reg(sim.state(), "a2".parse().unwrap()), 14);
        assert_eq!(t.read_rv_reg(sim.state(), "a3".parse().unwrap()), 2);
    }

    #[test]
    fn division_signs_match_rv32() {
        for (a, b) in [(-100i64, 7i64), (100, -7), (-100, -7), (99, 9)] {
            let src = format!("li a0, {a}\nli a1, {b}\ndiv a2, a0, a1\nrem a3, a0, a1\nebreak\n");
            let (t, sim) = run_translated(&src);
            assert_eq!(
                t.read_rv_reg(sim.state(), "a2".parse().unwrap()),
                a / b,
                "{a}/{b}"
            );
            assert_eq!(
                t.read_rv_reg(sim.state(), "a3".parse().unwrap()),
                a % b,
                "{a}%{b}"
            );
        }
    }

    #[test]
    fn calls_and_stack() {
        let src = "
            li   a0, 5
            call double
            call double
            ebreak
        double:
            addi sp, sp, -4
            sw   ra, 0(sp)
            add  a0, a0, a0
            lw   ra, 0(sp)
            addi sp, sp, 4
            ret
        ";
        let (t, sim) = run_translated(src);
        assert_eq!(t.read_rv_reg(sim.state(), "a0".parse().unwrap()), 20);
    }

    #[test]
    fn division_by_zero_matches_rv32_convention() {
        // RISC-V: x/0 = -1 (all ones), x%0 = x. The builtin must agree
        // so the cross-ISA lockstep oracle has no blessed divergences.
        for a in [0i64, 7, -7, 100] {
            let src = format!("li a0, {a}\nli a1, 0\ndiv a2, a0, a1\nrem a3, a0, a1\nebreak\n");
            let (t, sim) = run_translated(&src);
            assert_eq!(
                t.read_rv_reg(sim.state(), "a2".parse().unwrap()),
                -1,
                "{a}/0"
            );
            assert_eq!(
                t.read_rv_reg(sim.state(), "a3".parse().unwrap()),
                a,
                "{a}%0"
            );
        }
    }

    #[test]
    fn provenance_covers_every_instruction_and_respects_boundaries() {
        let src = "
            addi sp, sp, -4
            li   a0, 3
            li   a1, 4
            mul  a2, a0, a1
            sw   a2, 0(sp)
            ebreak
        ";
        let rv = parse_program(src).unwrap();
        let t = translate(&rv).unwrap();
        let prov = t.provenance();
        assert_eq!(prov.len(), t.program.text().len());

        // The sp prologue precedes the first boundary and is tagged.
        let b0 = t.address_of_rv(0).unwrap();
        assert!(b0 > 0, "uses_sp forces a prologue");
        for (a, o) in prov.iter().enumerate().take(b0) {
            assert_eq!(*o, Origin::Prologue, "address {a}");
        }
        // Between boundaries k and k+1, every instruction is tagged
        // with Rv(k).
        for k in 0..rv.text().len() {
            let (lo, hi) = (t.address_of_rv(k).unwrap(), t.address_of_rv(k + 1).unwrap());
            for (a, o) in prov.iter().enumerate().take(hi).skip(lo) {
                assert_eq!(*o, Origin::Rv(k), "address {a} in rv #{k}");
            }
        }
        // After the body: the halt sequence, then the builtin bodies.
        let body_end = t.address_of_rv(rv.text().len()).unwrap();
        assert!(prov[body_end..]
            .iter()
            .all(|o| matches!(o, Origin::Halt | Origin::Builtin(_))));
        assert!(
            prov.iter()
                .any(|o| matches!(o, Origin::Builtin(items::BuiltinId::Mul))),
            "mul links __mul"
        );
    }

    #[test]
    fn provenance_survives_redundancy_and_relaxation() {
        // A long program forces branch relaxation (long forms expand to
        // several instructions — all must inherit the branch's origin),
        // and rd==rs1 adds exercise redundancy deletions.
        let mut src = String::from("li a0, 1\nli a1, 0\n");
        src.push_str("top:\n");
        for _ in 0..60 {
            src.push_str("add a1, a1, a0\n");
        }
        src.push_str("addi a0, a0, -1\nbgtz a0, top\nebreak\n");
        let rv = parse_program(&src).unwrap();
        let t = translate(&rv).unwrap();
        assert_eq!(t.provenance().len(), t.program.text().len());
        for k in 0..rv.text().len() {
            let (lo, hi) = (t.address_of_rv(k).unwrap(), t.address_of_rv(k + 1).unwrap());
            for a in lo..hi {
                assert_eq!(t.provenance()[a], Origin::Rv(k));
            }
        }
    }

    #[test]
    fn constant_out_of_range_rejected() {
        let rv = parse_program("li a0, 100000\nebreak\n").unwrap();
        assert!(matches!(
            translate(&rv),
            Err(CompileError::ConstantRange { .. })
        ));
    }

    #[test]
    fn data_out_of_range_rejected() {
        let rv = parse_program(".data\nv: .word 99999\n.text\nnop\nebreak\n").unwrap();
        assert!(matches!(
            translate(&rv),
            Err(CompileError::ConstantRange { .. })
        ));
    }

    #[test]
    fn report_counts_are_consistent() {
        let (t, _) = run_translated("li a0, 3\nli a1, 4\nmul a2, a0, a1\nebreak\n");
        let r = &t.report;
        assert_eq!(r.rv32_instructions, 4);
        assert!(r.art9_builtin_instructions > 0, "mul links __mul");
        assert_eq!(
            r.art9_instructions(),
            t.program.text().len(),
            "report total must match emitted text"
        );
        assert!(r.expansion() > 1.0);
    }

    #[test]
    fn slt_family() {
        let (t, sim) = run_translated(
            "li a0, -3\nli a1, 5\nslt a2, a0, a1\nslt a3, a1, a0\nseqz a4, a2\nebreak\n",
        );
        assert_eq!(t.read_rv_reg(sim.state(), "a2".parse().unwrap()), 1);
        assert_eq!(t.read_rv_reg(sim.state(), "a3".parse().unwrap()), 0);
        assert_eq!(t.read_rv_reg(sim.state(), "a4".parse().unwrap()), 0);
    }

    #[test]
    fn listing_covers_every_instruction_in_order() {
        let src = "li a0, 3\nli a1, 4\nmul a2, a0, a1\nebreak\n";
        let rv = parse_program(src).unwrap();
        let t = translate(&rv).unwrap();
        let listing = t.listing(&rv);
        // Every RV32 source line appears…
        for k in 0..rv.text().len() {
            assert!(listing.contains(&format!("; rv32 #{k}:")), "{listing}");
        }
        // …the runtime section exists (mul links __mul)…
        assert!(listing.contains("runtime library"));
        // …and every emitted ART-9 address appears exactly once.
        for addr in 0..t.program.text().len() {
            assert_eq!(
                listing.matches(&format!("  {addr:4}: ")).count(),
                1,
                "address {addr} in listing"
            );
        }
        // Boundaries are monotone.
        let bounds: Vec<usize> = (0..=rv.text().len())
            .map(|k| t.address_of_rv(k).unwrap())
            .collect();
        assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn branch_variants_match_rv32() {
        for (op, a, b) in [
            ("beq", 5i64, 5i64),
            ("beq", 5, 6),
            ("bne", 5, 6),
            ("bne", 5, 5),
            ("blt", -1, 1),
            ("blt", 1, -1),
            ("bge", 4, 4),
            ("bge", 3, 4),
        ] {
            let src = format!(
                "li a0, {a}\nli a1, {b}\n{op} a0, a1, yes\nli a2, 0\nebreak\nyes:\nli a2, 1\nebreak\n"
            );
            let rv = parse_program(&src).unwrap();
            let mut m = rv32::Machine::new(&rv);
            m.run(10_000).unwrap();
            let (t, sim) = run_translated(&src);
            assert_eq!(
                t.read_rv_reg(sim.state(), "a2".parse().unwrap()),
                m.reg("a2".parse().unwrap()) as i64,
                "{op} {a} {b}"
            );
        }
    }
}
