//! Seeded random program generation over the full 24-instruction ISA.
//!
//! Generated programs are **terminating and fault-free by
//! construction**, so any simulator error or any disagreement between
//! simulators is a real finding, never generator noise:
//!
//! * **Control flow** — forward branches are emitted as self-contained
//!   *skip templates* (a conditional branch over freshly generated
//!   filler), backward branches only as *counted-loop templates* whose
//!   trip count lives in a register the loop body can never write, and
//!   `JALR` only inside a *call template* whose link register is
//!   protected. Every backward edge therefore executes a bounded
//!   number of times (the "bounded backward-branch budget").
//! * **Memory** — `LOAD`/`STORE` go through a tracked base register
//!   established with a `LUI 0` + `LI` pair, keeping every effective
//!   address inside the TDM window for any 3-trit displacement.
//! * **Register discipline** — the generator reserves `T7` (loop
//!   counter) and `T8` (pinned zero) and uses `T6` as template
//!   scratch; random instructions write only `T0..=T5` (and read
//!   anything), so the termination invariants survive arbitrary bodies.
//!
//! Everything else — operands, immediates, branch polarities, data
//! images, program length — is uniformly random under the weighted
//! [`Mix`], driven by a [`FuzzRng`] stream: the same `(seed, index)`
//! always yields the same program.

use art9_isa::{Imm3, Imm4, Imm5, Instruction, Program, TReg};
use ternary::{Trit, Trits, Word9};

use crate::rng::FuzzRng;

/// Registers random instructions may write (`T6..T8` are reserved for
/// the termination templates).
const BODY_REGS: [TReg; 6] = [TReg::T0, TReg::T1, TReg::T2, TReg::T3, TReg::T4, TReg::T5];

/// Template scratch: call link register, loop compare scratch, halt link.
const SCRATCH: TReg = TReg::T6;
/// The loop counter register; never written by generated bodies.
const COUNTER: TReg = TReg::T7;
/// Pinned to zero in the prologue; never written again.
const ZERO: TReg = TReg::T8;

/// Lowest value a memory base register is set to: any 3-trit
/// displacement (−13..=13) stays non-negative.
const BASE_LO: i64 = 13;
/// Highest base value (`LI` can splice at most ±121); `BASE_HI + 13`
/// must stay inside the TDM window.
const BASE_HI: i64 = 108;

/// Smallest TDM (in words) a generated program can touch:
/// `BASE_HI + 13 + 1`.
pub const MIN_TDM_WORDS: usize = (BASE_HI + 13 + 1) as usize;

/// The generator action classes a [`Mix`] weights against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// One R-type register-register instruction.
    Alu,
    /// One I-type immediate instruction.
    Imm,
    /// A `LOAD`/`STORE` through the tracked base register (establishing
    /// it first when needed).
    Mem,
    /// A conditional forward branch over freshly generated filler.
    Skip,
    /// A counted loop with a straight-line body.
    Loop,
    /// A `JAL`/`JALR` call-and-return template.
    Call,
}

const ACTIONS: [Action; 6] = [
    Action::Alu,
    Action::Imm,
    Action::Mem,
    Action::Skip,
    Action::Loop,
    Action::Call,
];

/// A weighted instruction mix: how often the generator picks each
/// action class. Weights are relative, not percentages.
///
/// # Examples
///
/// ```
/// use art9_fuzz::Mix;
///
/// let mix: Mix = "memory".parse()?;
/// assert_eq!(mix.name(), "memory");
/// assert!("bogus".parse::<Mix>().is_err());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    name: &'static str,
    /// Relative weight per [`Action`], in `ACTIONS` order.
    weights: [u32; 6],
}

impl Mix {
    /// Even coverage of every instruction class (the default).
    pub const BALANCED: Mix = Mix {
        name: "balanced",
        weights: [6, 5, 4, 2, 2, 1],
    };
    /// Mostly register-register arithmetic and logic: stresses the
    /// packed-bitplane TALU against the per-trit reference.
    pub const ALU: Mix = Mix {
        name: "alu",
        weights: [10, 6, 1, 1, 1, 0],
    };
    /// Mostly `LOAD`/`STORE`: stresses TDM addressing and the pipeline's
    /// load-use hazard paths.
    pub const MEMORY: Mix = Mix {
        name: "memory",
        weights: [2, 3, 10, 1, 2, 0],
    };
    /// Mostly branches, loops and calls: stresses the ID-stage branch
    /// unit, flush behaviour and the link-register paths.
    pub const CONTROL: Mix = Mix {
        name: "control",
        weights: [2, 2, 1, 6, 4, 3],
    };

    /// Every named mix.
    pub const ALL: [Mix; 4] = [Mix::BALANCED, Mix::ALU, Mix::MEMORY, Mix::CONTROL];

    /// The mix's name (accepted back by `FromStr`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Picks one action according to the weights.
    fn pick(&self, rng: &mut FuzzRng) -> Action {
        let total: u32 = self.weights.iter().sum();
        let mut roll = rng.below(u64::from(total)) as u32;
        for (action, w) in ACTIONS.iter().zip(self.weights) {
            if roll < w {
                return *action;
            }
            roll -= w;
        }
        Action::Alu
    }
}

impl std::str::FromStr for Mix {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Mix::ALL
            .iter()
            .find(|m| m.name == s)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = Mix::ALL.iter().map(|m| m.name).collect();
                format!("unknown mix {s:?} (expected one of {})", names.join(", "))
            })
    }
}

/// Tuning knobs for the generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Upper bound on generated body length (instructions, excluding
    /// the prologue and the halt).
    pub max_len: usize,
    /// The weighted instruction mix.
    pub mix: Mix,
    /// Maximum counted loops per program (the backward-branch budget).
    pub loop_budget: usize,
    /// Maximum random words in the initial TDM image.
    pub max_data_words: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            max_len: 160,
            mix: Mix::BALANCED,
            loop_budget: 6,
            max_data_words: 48,
        }
    }
}

/// Worst-case *executed* instructions for a program from `cfg`
/// (prologue + body, with every loop at its maximum trip count), plus
/// slack. Use it as the functional-simulator step budget.
pub fn step_budget(cfg: &GenConfig) -> u64 {
    // Each loop-body slot can emit up to 3 instructions (a memory
    // access re-establishing its base costs LUI + LI + LOAD/STORE),
    // plus 4 of loop bookkeeping, and the whole body runs up to
    // LOOP_COUNT_MAX times. Straight-line text executes at most once
    // per instruction; templates can overshoot `max_len` by one
    // template, covered by doubling the term.
    let per_loop = (LOOP_BODY_MAX as u64 * 3 + 4) * LOOP_COUNT_MAX as u64;
    128 + 2 * cfg.max_len as u64 + cfg.loop_budget as u64 * per_loop
}

const LOOP_BODY_MAX: usize = 12;
const LOOP_COUNT_MAX: i64 = 6;
const CALL_BODY_MAX: usize = 8;
const SKIP_SPAN_MAX: i64 = 6;

/// The incremental generator state.
struct Gen<'a> {
    rng: &'a mut FuzzRng,
    text: Vec<Instruction>,
    /// Register currently holding a known in-window memory base, if any.
    base: Option<TReg>,
}

impl Gen<'_> {
    /// Appends one instruction, invalidating the tracked memory base if
    /// the instruction overwrites it.
    fn push(&mut self, i: Instruction) {
        if let (Some(base), Some(dest)) = (self.base, i.writes()) {
            if base == dest {
                self.base = None;
            }
        }
        self.text.push(i);
    }

    fn body_reg(&mut self) -> TReg {
        BODY_REGS[self.rng.index(BODY_REGS.len())]
    }

    fn any_reg(&mut self) -> TReg {
        art9_isa::ALL_REGS[self.rng.index(9)]
    }

    fn trit(&mut self) -> Trit {
        match self.rng.below(3) {
            0 => Trit::N,
            1 => Trit::Z,
            _ => Trit::P,
        }
    }

    fn imm<const N: usize>(&mut self) -> Trits<N> {
        let max = Trits::<N>::MAX_VALUE;
        Trits::from_i64(self.rng.range_i64(-max, max)).expect("in range by construction")
    }

    /// One random R-type instruction (writes a body register, reads
    /// anything).
    fn alu(&mut self) -> Instruction {
        use Instruction::*;
        let a = self.body_reg();
        let b = self.any_reg();
        match self.rng.below(12) {
            0 => Mv { a, b },
            1 => Pti { a, b },
            2 => Nti { a, b },
            3 => Sti { a, b },
            4 => And { a, b },
            5 => Or { a, b },
            6 => Xor { a, b },
            7 => Add { a, b },
            8 => Sub { a, b },
            9 => Sr { a, b },
            10 => Sl { a, b },
            _ => Comp { a, b },
        }
    }

    /// One random I-type instruction.
    fn imm_instr(&mut self) -> Instruction {
        use Instruction::*;
        let a = self.body_reg();
        match self.rng.below(6) {
            0 => Andi { a, imm: self.imm() },
            1 => Addi { a, imm: self.imm() },
            2 => Sri { a, imm: self.imm() },
            3 => Sli { a, imm: self.imm() },
            4 => Lui { a, imm: self.imm() },
            _ => Li { a, imm: self.imm() },
        }
    }

    /// A straight-line instruction (no control flow, no memory).
    fn plain(&mut self) -> Instruction {
        if self.rng.chance(1, 2) {
            self.alu()
        } else {
            self.imm_instr()
        }
    }

    /// Ensures a register holds a known in-window memory base,
    /// emitting `LUI r, 0` + `LI r, k` when none is tracked.
    fn ensure_base(&mut self) -> TReg {
        if let Some(b) = self.base {
            // Occasionally re-establish anyway, to vary the base value.
            if !self.rng.chance(1, 8) {
                return b;
            }
        }
        let r = self.body_reg();
        let k = self.rng.range_i64(BASE_LO, BASE_HI);
        // LUI fully defines the word (upper = imm, lower = 0); LI then
        // splices the low five trits, so `r == k` exactly.
        self.push(Instruction::Lui {
            a: r,
            imm: Imm4::ZERO,
        });
        self.push(Instruction::Li {
            a: r,
            imm: Imm5::from_i64(k).expect("base in LI range"),
        });
        self.base = Some(r);
        r
    }

    /// A `LOAD` or `STORE` through the tracked base.
    fn mem(&mut self) {
        let b = self.ensure_base();
        let offset: Imm3 = self.imm();
        let a = self.body_reg();
        let instr = if self.rng.chance(1, 2) {
            Instruction::Load { a, b, offset }
        } else {
            Instruction::Store { a, b, offset }
        };
        self.push(instr);
    }

    /// A conditional forward branch over `d − 1` freshly generated
    /// filler instructions — self-contained, so the target always
    /// exists and is always forward.
    fn skip(&mut self) {
        let d = self.rng.range_i64(2, SKIP_SPAN_MAX);
        let b = self.any_reg();
        let cond = self.trit();
        let offset = Imm4::from_i64(d).expect("skip span fits Imm4");
        let branch = if self.rng.chance(1, 2) {
            Instruction::Beq { b, cond, offset }
        } else {
            Instruction::Bne { b, cond, offset }
        };
        self.push(branch);
        for _ in 0..d - 1 {
            let filler = self.plain();
            self.push(filler);
        }
    }

    /// A counted loop:
    ///
    /// ```text
    ///         LUI  t7, 0         ; counter := k (fully defined)
    ///         LI   t7, k
    /// top:    <body: straight-line / memory instructions>
    ///         ADDI t7, -1
    ///         MV   t6, t7
    ///         COMP t6, t8        ; t6 := sign(counter)
    ///         BEQ  t6, +, top    ; loop while counter > 0
    /// ```
    ///
    /// The body cannot write `t7`/`t8`, so the counter strictly
    /// decreases and the backward branch runs at most `k` times.
    fn counted_loop(&mut self) {
        let k = self.rng.range_i64(1, LOOP_COUNT_MAX);
        self.push(Instruction::Lui {
            a: COUNTER,
            imm: Imm4::ZERO,
        });
        self.push(Instruction::Li {
            a: COUNTER,
            imm: Imm5::from_i64(k).expect("small count"),
        });
        let top = self.text.len() as i64;
        // A base tracked from before the loop must not be trusted
        // inside it: a body instruction could clobber it and the
        // backward edge would re-run an earlier LOAD/STORE with the
        // clobbered value. Forcing re-establishment *inside* the body
        // keeps every access preceded by its own LUI/LI pair on every
        // iteration.
        self.base = None;
        let body_len = self.rng.range_i64(1, LOOP_BODY_MAX as i64);
        for _ in 0..body_len {
            if self.rng.chance(1, 4) {
                self.mem();
            } else {
                let i = self.plain();
                self.push(i);
            }
        }
        self.push(Instruction::Addi {
            a: COUNTER,
            imm: Imm3::from_i64(-1).expect("-1"),
        });
        self.push(Instruction::Mv {
            a: SCRATCH,
            b: COUNTER,
        });
        self.push(Instruction::Comp {
            a: SCRATCH,
            b: ZERO,
        });
        let offset = top - self.text.len() as i64;
        debug_assert!(offset >= -(Imm4::MAX_VALUE), "loop body too long: {offset}");
        self.push(Instruction::Beq {
            b: SCRATCH,
            cond: Trit::P,
            offset: Imm4::from_i64(offset).expect("loop offset fits Imm4"),
        });
    }

    /// A call-and-return template:
    ///
    /// ```text
    /// c:      JAL  t6, 2         ; call the sub at c+2, link in t6
    /// c+1:    JAL  rS, m+2       ; on return, jump past the sub
    /// c+2:    <sub body: m straight-line instructions>
    /// c+2+m:  JALR rL, t6, 0     ; return to c+1
    /// ```
    ///
    /// Every instruction executes exactly once; the sub cannot be
    /// re-entered because the return lands on the jump that skips it.
    fn call(&mut self) {
        let m = self.rng.range_i64(1, CALL_BODY_MAX as i64);
        let skip_link = self.body_reg();
        let ret_link = self.body_reg();
        self.push(Instruction::Jal {
            a: SCRATCH,
            offset: Imm5::from_i64(2).expect("2"),
        });
        self.push(Instruction::Jal {
            a: skip_link,
            offset: Imm5::from_i64(m + 2).expect("call span fits Imm5"),
        });
        for _ in 0..m {
            let i = self.plain();
            self.push(i);
        }
        self.push(Instruction::Jalr {
            a: ret_link,
            b: SCRATCH,
            offset: Imm3::ZERO,
        });
    }
}

/// Generates one random, terminating, fault-free ART-9 program.
///
/// # Examples
///
/// ```
/// use art9_fuzz::{generate, FuzzRng, GenConfig};
///
/// let cfg = GenConfig::default();
/// let a = generate(&mut FuzzRng::for_iteration(42, 0), &cfg);
/// let b = generate(&mut FuzzRng::for_iteration(42, 0), &cfg);
/// assert_eq!(a.text(), b.text()); // same (seed, index) => same program
/// assert!(!a.text().is_empty());
/// ```
pub fn generate(rng: &mut FuzzRng, cfg: &GenConfig) -> Program {
    let target = 8 + rng.index(cfg.max_len.max(9) - 8);
    let mut g = Gen {
        rng,
        text: Vec::with_capacity(target + 16),
        base: None,
    };

    // Prologue: pin the zero register, then give a few body registers
    // fully defined random values (LUI defines all nine trits, LI
    // splices the low five).
    g.push(Instruction::Lui {
        a: ZERO,
        imm: Imm4::ZERO,
    });
    let seeded = 2 + g.rng.index(4);
    for _ in 0..seeded {
        let r = g.body_reg();
        let hi: Imm4 = g.imm();
        let lo: Imm5 = g.imm();
        g.push(Instruction::Lui { a: r, imm: hi });
        g.push(Instruction::Li { a: r, imm: lo });
    }

    let mut loops_left = cfg.loop_budget;
    while g.text.len() < target {
        match cfg.mix.pick(g.rng) {
            Action::Alu => {
                let i = g.alu();
                g.push(i);
            }
            Action::Imm => {
                let i = g.imm_instr();
                g.push(i);
            }
            Action::Mem => g.mem(),
            Action::Skip => g.skip(),
            Action::Loop => {
                if loops_left > 0 {
                    loops_left -= 1;
                    g.counted_loop();
                } else {
                    let i = g.plain();
                    g.push(i);
                }
            }
            Action::Call => g.call(),
        }
    }

    // Epilogue: either an explicit jump-to-self halt or a clean fall
    // off the end (both are architectural halt conditions).
    if g.rng.chance(3, 4) {
        g.push(Instruction::Jal {
            a: SCRATCH,
            offset: Imm5::ZERO,
        });
    }

    let data_words = g.rng.index(cfg.max_data_words + 1);
    let data: Vec<Word9> = (0..data_words)
        .map(|_| Word9::from_i64_wrapping(g.rng.range_i64(-9841, 9841)))
        .collect();

    let text = g.text;
    Program::new(text, data, std::collections::BTreeMap::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(seed: u64, i: u64) -> Program {
        generate(&mut FuzzRng::for_iteration(seed, i), &GenConfig::default())
    }

    #[test]
    fn reproducible_per_seed_and_iteration() {
        for i in 0..20 {
            let a = gen(42, i);
            let b = gen(42, i);
            assert_eq!(a.text(), b.text());
            assert_eq!(a.data(), b.data());
        }
        assert_ne!(gen(42, 0).text(), gen(43, 0).text());
    }

    #[test]
    fn reserved_registers_only_written_by_templates() {
        // T8 is written exactly once (the prologue LUI); T7 only by the
        // loop template's LUI/LI/ADDI.
        for i in 0..50 {
            let p = gen(7, i);
            let zero_writes = p
                .text()
                .iter()
                .filter(|ins| ins.writes() == Some(ZERO))
                .count();
            assert_eq!(zero_writes, 1, "iteration {i}");
            for ins in p.text() {
                if ins.writes() == Some(COUNTER) {
                    assert!(
                        matches!(
                            ins,
                            Instruction::Lui { .. }
                                | Instruction::Li { .. }
                                | Instruction::Addi { .. }
                        ),
                        "unexpected counter writer {ins} in iteration {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn branch_targets_stay_in_bounds() {
        for i in 0..50 {
            let p = gen(11, i);
            let len = p.text().len() as i64;
            for (pc, ins) in p.text().iter().enumerate() {
                // The static target of a taken branch or JAL (JALR's is
                // dynamic; a branch not taken falls through to pc + 1).
                let t = pc as i64
                    + match ins {
                        Instruction::Beq { offset, .. } | Instruction::Bne { offset, .. } => {
                            offset.to_i64()
                        }
                        Instruction::Jal { offset, .. } => offset.to_i64(),
                        _ => continue,
                    };
                assert!(
                    (0..=len).contains(&t),
                    "iteration {i}: {ins} at {pc} targets {t} (len {len})"
                );
            }
        }
    }

    #[test]
    fn every_mix_parses_and_generates() {
        for mix in Mix::ALL {
            let parsed: Mix = mix.name().parse().unwrap();
            assert_eq!(parsed, mix);
            let cfg = GenConfig {
                mix,
                ..GenConfig::default()
            };
            let p = generate(&mut FuzzRng::for_iteration(1, 0), &cfg);
            assert!(p.text().len() >= 8);
        }
        assert!("nope".parse::<Mix>().is_err());
    }

    #[test]
    fn memory_mix_emits_loads_and_stores() {
        let cfg = GenConfig {
            mix: Mix::MEMORY,
            ..GenConfig::default()
        };
        let mut mem_ops = 0;
        for i in 0..10 {
            let p = generate(&mut FuzzRng::for_iteration(3, i), &cfg);
            mem_ops += p
                .text()
                .iter()
                .filter(|ins| matches!(ins, Instruction::Load { .. } | Instruction::Store { .. }))
                .count();
        }
        assert!(
            mem_ops > 10,
            "memory mix produced only {mem_ops} memory ops"
        );
    }

    #[test]
    fn generated_programs_terminate_within_budget() {
        let cfg = GenConfig::default();
        let budget = step_budget(&cfg);
        for i in 0..30 {
            let p = generate(&mut FuzzRng::for_iteration(99, i), &cfg);
            let mut sim = art9_sim::SimBuilder::new(&p)
                .tdm_words(MIN_TDM_WORDS.max(256))
                .build();
            sim.run(budget)
                .unwrap_or_else(|e| panic!("iteration {i} failed: {e}\n{p}"));
        }
    }
}
