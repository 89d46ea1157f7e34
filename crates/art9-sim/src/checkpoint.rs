//! Serializable execution checkpoints: [`Core::snapshot`] /
//! [`Core::restore`](crate::Core::restore).
//!
//! A [`Checkpoint`] captures the **complete** execution state of a
//! backend — the architectural [`CoreState`] (PC, TRF, TDM), the
//! retirement counters and instruction mix, and the backend-specific
//! microarchitectural state (for the pipelined backend: the fetch
//! engine, all four pipeline latches, the stall accounting and the
//! forwarding setting). Restoring it into a fresh core of the same
//! backend over the same program image continues the run
//! **bit-identically** to one that was never interrupted — the
//! primitive sharded/preemptible batch serving needs. Architectural
//! checkpoints additionally cross-restore between the architectural
//! backends (functional ↔ reference ↔ threaded), since they carry no
//! microarchitectural state.
//!
//! Checkpoints serialize to a line-oriented text format
//! ([`Checkpoint::to_text`] / [`Checkpoint::from_text`]) so they can be
//! written to disk, shipped between hosts and diffed. Instructions in
//! pipeline latches are stored as their canonical 9-trit encodings (the
//! same words the TIM holds), every `Word9` as its balanced value — both
//! bijective, so the round-trip is exact.
//!
//! ```
//! use art9_isa::assemble;
//! use art9_sim::{Backend, Budget, Checkpoint, Core, SimBuilder};
//!
//! let p = assemble("LI t3, 10\nloop:\nADDI t3, -1\nMV t7, t3\n\
//!                   COMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n")?;
//! let builder = SimBuilder::new(&p).backend(Backend::Pipelined);
//!
//! // Run 7 cycles, checkpoint, serialize.
//! let mut a = builder.build();
//! a.run_for(Budget::Steps(7))?;
//! let text = a.snapshot().to_text();
//!
//! // Resume in a fresh core (possibly another process) and finish.
//! let mut b = builder.build();
//! b.restore(&Checkpoint::from_text(&text)?)?;
//! let summary = b.run_for(Budget::Steps(100_000))?;
//! assert!(summary.halt.is_some());
//!
//! // Bit-identical to an uninterrupted run, timing included.
//! let mut c = builder.build();
//! c.run_for(Budget::Steps(100_000))?;
//! assert_eq!(b.state().first_difference(c.state()), None);
//! assert_eq!(b.pipeline_stats(), c.pipeline_stats());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use art9_isa::{decode, encode, Instruction};
use ternary::{TernaryMemory, Word9};

use crate::core::Backend;
use crate::error::SimError;
use crate::functional::{CoreState, HaltReason};
use crate::pipeline::{ExMem, IdEx, MemWb};
use crate::stats::PipelineStats;

/// First line of the text serialization (version-gated).
const MAGIC: &str = "art9-checkpoint v1";

/// Backend-specific microarchitectural state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Micro {
    /// The architectural backends (functional, reference, threaded)
    /// carry no state beyond [`CoreState`] and the counters.
    Architectural,
    /// The pipelined backend's fetch engine, latches and accounting
    /// (boxed: it dwarfs the architectural variant).
    Pipelined(Box<PipelineMicro>),
}

/// The pipelined backend's complete microarchitectural state. Each
/// occupied latch is stored with the instruction it carries (the core
/// itself keeps only the PC), so the text format can write it and a
/// restore can check it against the program.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PipelineMicro {
    pub fetch_pc: usize,
    pub halting: Option<HaltReason>,
    pub forwarding: bool,
    pub stats: PipelineStats,
    /// IF/ID: the fetched instruction and its PC.
    pub if_id: Option<(Instruction, usize)>,
    pub id_ex: Option<(Instruction, IdEx)>,
    pub ex_mem: Option<(Instruction, ExMem)>,
    pub mem_wb: Option<(Instruction, MemWb)>,
}

impl PipelineMicro {
    /// Every occupied latch: its name, PC and instruction.
    pub(crate) fn latches(&self) -> impl Iterator<Item = (&'static str, usize, Instruction)> {
        [
            self.if_id.map(|(i, pc)| ("if-id", pc, i)),
            self.id_ex.map(|(i, e)| ("id-ex", e.pc, i)),
            self.ex_mem.map(|(i, x)| ("ex-mem", x.pc, i)),
            self.mem_wb.map(|(i, w)| ("mem-wb", w.pc, i)),
        ]
        .into_iter()
        .flatten()
    }
}

/// A complete, serializable execution checkpoint capturing the
/// architectural state, the retirement counters, and the
/// backend-specific microarchitectural state.
///
/// Produced by [`Core::snapshot`](crate::Core::snapshot); consumed by
/// [`Core::restore`](crate::Core::restore). The per-cycle trace buffer
/// ([`SimBuilder::trace`](crate::SimBuilder::trace)) is deliberately
/// *not* part of a checkpoint: it is an observation artifact, not
/// execution state.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The backend this checkpoint was taken from. Restores into the
    /// same backend, and — for the architectural backends (functional,
    /// reference, threaded), whose checkpoints carry no
    /// microarchitectural state — into any other architectural backend.
    pub backend: Backend,
    /// TIM length of the program the core was running — a shape check
    /// against restoring into a different program.
    pub text_len: usize,
    /// The architectural state (PC, TRF, TDM).
    pub state: CoreState,
    /// Instructions retired at snapshot time.
    pub retired: u64,
    /// Whether (and why) the machine had halted.
    pub halted: Option<HaltReason>,
    pub(crate) mix: [u64; Instruction::OPCODE_COUNT],
    pub(crate) micro: Micro,
}

impl Checkpoint {
    /// The dynamic instruction mix at snapshot time (retired count per
    /// mnemonic, absent when zero).
    pub fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.mix)
    }

    /// Serializes to the line-oriented `art9-checkpoint v1` text format.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{MAGIC}");
        let _ = writeln!(out, "backend {}", self.backend.name());
        let _ = writeln!(out, "text-len {}", self.text_len);
        let _ = writeln!(out, "retired {}", self.retired);
        let _ = writeln!(out, "halted {}", halt_name(self.halted));
        let _ = writeln!(out, "pc {}", self.state.pc);
        out.push_str("trf");
        for w in &self.state.trf {
            let _ = write!(out, " {}", w.to_i64());
        }
        out.push('\n');
        let _ = write!(out, "tdm {}", self.state.tdm.size());
        for w in self.state.tdm.iter() {
            let _ = write!(out, " {}", w.to_i64());
        }
        out.push('\n');
        out.push_str("mix");
        for c in &self.mix {
            let _ = write!(out, " {c}");
        }
        out.push('\n');
        match &self.micro {
            Micro::Architectural => {
                let _ = writeln!(out, "micro architectural");
            }
            Micro::Pipelined(m) => {
                let _ = writeln!(out, "micro pipelined");
                let _ = writeln!(out, "fetch-pc {}", m.fetch_pc);
                let _ = writeln!(out, "halting {}", halt_name(m.halting));
                let _ = writeln!(out, "forwarding {}", u8::from(m.forwarding));
                let s = m.stats;
                let _ = writeln!(
                    out,
                    "stats {} {} {} {} {} {} {}",
                    s.cycles,
                    s.instructions,
                    s.load_use_stalls,
                    s.id_use_stalls,
                    s.control_flush_bubbles,
                    s.taken_transfers,
                    s.untaken_branches
                );
                let instr_word = |i: &Instruction| encode(i).to_i64();
                match &m.if_id {
                    None => {
                        let _ = writeln!(out, "if-id none");
                    }
                    Some((instr, pc)) => {
                        let _ = writeln!(out, "if-id {pc} {}", instr_word(instr));
                    }
                }
                match &m.id_ex {
                    None => {
                        let _ = writeln!(out, "id-ex none");
                    }
                    Some((instr, e)) => {
                        let _ = writeln!(
                            out,
                            "id-ex {} {} {} {}",
                            e.pc,
                            instr_word(instr),
                            e.a_val.to_i64(),
                            e.b_val.to_i64()
                        );
                    }
                }
                match &m.ex_mem {
                    None => {
                        let _ = writeln!(out, "ex-mem none");
                    }
                    Some((instr, x)) => {
                        let _ = writeln!(
                            out,
                            "ex-mem {} {} {} {}",
                            x.pc,
                            instr_word(instr),
                            x.result.to_i64(),
                            x.store_val.to_i64()
                        );
                    }
                }
                match &m.mem_wb {
                    None => {
                        let _ = writeln!(out, "mem-wb none");
                    }
                    Some((instr, w)) => {
                        let _ = writeln!(
                            out,
                            "mem-wb {} {} {}",
                            w.pc,
                            instr_word(instr),
                            w.value.to_i64()
                        );
                    }
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses the `art9-checkpoint v1` text format.
    ///
    /// # Errors
    ///
    /// [`SimError::Checkpoint`] on any malformed, truncated or
    /// out-of-range input.
    pub fn from_text(text: &str) -> Result<Self, SimError> {
        let mut lines = text.lines();
        let bad = |detail: &str| SimError::Checkpoint {
            detail: detail.to_string(),
        };
        if lines.next().map(str::trim) != Some(MAGIC) {
            return Err(bad("missing `art9-checkpoint v1` header"));
        }
        let mut fields = Fields { lines };
        let backend: Backend = fields
            .one("backend")?
            .parse()
            .map_err(|e: String| SimError::Checkpoint { detail: e })?;
        let text_len = parse_num::<usize>(&fields.one("text-len")?)?;
        let retired = parse_num::<u64>(&fields.one("retired")?)?;
        let halted = parse_halt(&fields.one("halted")?)?;
        let pc = parse_num::<usize>(&fields.one("pc")?)?;
        let trf_vals = fields.many("trf")?;
        if trf_vals.len() != 9 {
            return Err(bad("trf line must hold 9 values"));
        }
        let mut trf = [Word9::ZERO; 9];
        for (slot, v) in trf.iter_mut().zip(&trf_vals) {
            *slot = parse_word(v)?;
        }
        let tdm_vals = fields.many("tdm")?;
        let (tdm_len, tdm_words) = tdm_vals
            .split_first()
            .ok_or_else(|| bad("tdm line must hold a length"))?;
        let tdm_len = parse_num::<usize>(tdm_len)?;
        if tdm_words.len() != tdm_len {
            return Err(bad("tdm word count does not match its declared length"));
        }
        let mut image = Vec::with_capacity(tdm_len);
        for v in tdm_words {
            image.push(parse_word(v)?);
        }
        let mix_vals = fields.many("mix")?;
        if mix_vals.len() != Instruction::OPCODE_COUNT {
            return Err(bad("mix line must hold one count per opcode"));
        }
        let mut mix = [0u64; Instruction::OPCODE_COUNT];
        for (slot, v) in mix.iter_mut().zip(&mix_vals) {
            *slot = parse_num(v)?;
        }
        let micro = match fields.one("micro")?.as_str() {
            "architectural" => Micro::Architectural,
            "pipelined" => {
                let fetch_pc = parse_num::<usize>(&fields.one("fetch-pc")?)?;
                let halting = parse_halt(&fields.one("halting")?)?;
                let forwarding = match fields.one("forwarding")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("forwarding must be 0 or 1")),
                };
                let sv = fields.many("stats")?;
                if sv.len() != 7 {
                    return Err(bad("stats line must hold 7 counters"));
                }
                let stats = PipelineStats {
                    cycles: parse_num(&sv[0])?,
                    instructions: parse_num(&sv[1])?,
                    load_use_stalls: parse_num(&sv[2])?,
                    id_use_stalls: parse_num(&sv[3])?,
                    control_flush_bubbles: parse_num(&sv[4])?,
                    taken_transfers: parse_num(&sv[5])?,
                    untaken_branches: parse_num(&sv[6])?,
                };
                let if_id = fields
                    .latch("if-id", 2)?
                    .map(|v| Ok::<_, SimError>((parse_instr(&v[1])?, parse_num(&v[0])?)));
                let id_ex = fields.latch("id-ex", 4)?.map(|v| {
                    let latch = IdEx {
                        pc: parse_num(&v[0])?,
                        a_val: parse_word(&v[2])?,
                        b_val: parse_word(&v[3])?,
                    };
                    Ok::<_, SimError>((parse_instr(&v[1])?, latch))
                });
                let ex_mem = fields.latch("ex-mem", 4)?.map(|v| {
                    let latch = ExMem {
                        pc: parse_num(&v[0])?,
                        result: parse_word(&v[2])?,
                        store_val: parse_word(&v[3])?,
                    };
                    Ok::<_, SimError>((parse_instr(&v[1])?, latch))
                });
                let mem_wb = fields.latch("mem-wb", 3)?.map(|v| {
                    let latch = MemWb {
                        pc: parse_num(&v[0])?,
                        value: parse_word(&v[2])?,
                    };
                    Ok::<_, SimError>((parse_instr(&v[1])?, latch))
                });
                Micro::Pipelined(Box::new(PipelineMicro {
                    fetch_pc,
                    halting,
                    forwarding,
                    stats,
                    if_id: if_id.transpose()?,
                    id_ex: id_ex.transpose()?,
                    ex_mem: ex_mem.transpose()?,
                    mem_wb: mem_wb.transpose()?,
                }))
            }
            other => {
                return Err(SimError::Checkpoint {
                    detail: format!("unknown micro kind {other:?}"),
                })
            }
        };
        if fields.one("end").is_err() {
            return Err(bad("missing `end` line"));
        }
        let state = CoreState {
            pc,
            trf,
            tdm: TernaryMemory::with_image(tdm_len, &image),
        };
        let cp = Checkpoint {
            backend,
            text_len,
            state,
            retired,
            halted,
            mix,
            micro,
        };
        let micro_matches = matches!(
            (cp.backend, &cp.micro),
            (Backend::Pipelined, Micro::Pipelined(_))
                | (
                    Backend::Functional | Backend::Reference | Backend::Threaded,
                    Micro::Architectural
                )
        );
        if !micro_matches {
            return Err(bad("micro section does not match the declared backend"));
        }
        Ok(cp)
    }

    /// The shape/backend guard every `restore` implementation applies.
    ///
    /// Architectural checkpoints (`Micro::Architectural`) cross-restore
    /// between the architectural backends — a functional snapshot
    /// resumes on the threaded backend and vice versa — because they
    /// capture nothing beyond the software-visible machine and the
    /// retirement counters. Pipelined checkpoints restore only into the
    /// pipelined backend, and the pipelined backend accepts only them.
    /// An architectural checkpoint's PC, and a pipelined checkpoint's
    /// fetch PC, must address an instruction or be the text length (the
    /// fell-off-end state); every occupied pipeline latch must hold an
    /// instruction address.
    pub(crate) fn guard(&self, backend: Backend, text_len: usize) -> Result<(), SimError> {
        let compatible = self.backend == backend
            || (matches!(self.micro, Micro::Architectural) && backend != Backend::Pipelined);
        if !compatible {
            return Err(SimError::Checkpoint {
                detail: format!(
                    "checkpoint is from the {} backend, cannot restore into {}",
                    self.backend, backend
                ),
            });
        }
        if self.text_len != text_len {
            return Err(SimError::Checkpoint {
                detail: format!(
                    "checkpoint was taken over a {}-instruction program, this core runs {}",
                    self.text_len, text_len
                ),
            });
        }
        let past_end = |what: &str, pc: usize| SimError::Checkpoint {
            detail: format!(
                "checkpoint {what} {pc} lies past the end of the {text_len}-instruction program"
            ),
        };
        match &self.micro {
            Micro::Architectural if self.state.pc > text_len => Err(past_end("pc", self.state.pc)),
            Micro::Architectural => Ok(()),
            Micro::Pipelined(m) => {
                if m.fetch_pc > text_len {
                    return Err(past_end("fetch pc", m.fetch_pc));
                }
                match m.latches().find(|&(_, pc, _)| pc >= text_len) {
                    Some((latch, pc, _)) => Err(past_end(&format!("{latch} latch pc"), pc)),
                    None => Ok(()),
                }
            }
        }
    }
}

/// Line-cursor over the serialized form.
struct Fields<'a> {
    lines: std::str::Lines<'a>,
}

impl Fields<'_> {
    /// Next line, which must start with `key`; returns the rest.
    fn next_line(&mut self, key: &str) -> Result<String, SimError> {
        let line = self.lines.next().ok_or_else(|| SimError::Checkpoint {
            detail: format!("truncated: expected `{key}`"),
        })?;
        let line = line.trim();
        if line == key {
            return Ok(String::new());
        }
        line.strip_prefix(key)
            .and_then(|rest| rest.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| SimError::Checkpoint {
                detail: format!("expected `{key} …`, found {line:?}"),
            })
    }

    /// A `key value` line.
    fn one(&mut self, key: &str) -> Result<String, SimError> {
        self.next_line(key)
    }

    /// A `key v1 v2 …` line, split on whitespace.
    fn many(&mut self, key: &str) -> Result<Vec<String>, SimError> {
        Ok(self
            .next_line(key)?
            .split_whitespace()
            .map(str::to_string)
            .collect())
    }

    /// A latch line: `key none` or `key v1 … vn`.
    fn latch(&mut self, key: &str, n: usize) -> Result<Option<Vec<String>>, SimError> {
        let vals = self.many(key)?;
        if vals == ["none"] {
            return Ok(None);
        }
        if vals.len() != n {
            return Err(SimError::Checkpoint {
                detail: format!("{key} line must hold `none` or {n} values"),
            });
        }
        Ok(Some(vals))
    }
}

fn halt_name(h: Option<HaltReason>) -> &'static str {
    match h {
        None => "none",
        Some(HaltReason::JumpToSelf) => "jump-to-self",
        Some(HaltReason::FellOffEnd) => "fell-off-end",
    }
}

fn parse_halt(s: &str) -> Result<Option<HaltReason>, SimError> {
    match s {
        "none" => Ok(None),
        "jump-to-self" => Ok(Some(HaltReason::JumpToSelf)),
        "fell-off-end" => Ok(Some(HaltReason::FellOffEnd)),
        other => Err(SimError::Checkpoint {
            detail: format!("unknown halt reason {other:?}"),
        }),
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, SimError> {
    s.parse().map_err(|_| SimError::Checkpoint {
        detail: format!("not a number: {s:?}"),
    })
}

fn parse_word(s: &str) -> Result<Word9, SimError> {
    let v = parse_num::<i64>(s)?;
    Word9::from_i64(v).map_err(|_| SimError::Checkpoint {
        detail: format!("{v} does not fit a 9-trit word"),
    })
}

fn parse_instr(s: &str) -> Result<Instruction, SimError> {
    decode(parse_word(s)?).map_err(|e| SimError::Checkpoint {
        detail: format!("latch holds an undecodable instruction word: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::core::{Budget, RunSummary, SimBuilder};
    use crate::observer::observers::EnergyAccounting;
    use art9_isa::assemble;

    fn program() -> art9_isa::Program {
        assemble(
            ".data\nv: .word 7\n.text\nLI t2, 0\nLOAD t3, t2, 0\nloop:\nADDI t3, -1\n\
             STORE t3, t2, 0\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n",
        )
        .unwrap()
    }

    #[test]
    fn text_roundtrip_is_exact_for_every_backend() {
        for backend in Backend::ALL {
            let mut core = SimBuilder::new(&program()).backend(backend).build();
            core.run_for(Budget::Steps(4)).unwrap();
            let cp = core.snapshot();
            let back = Checkpoint::from_text(&cp.to_text()).unwrap();
            assert_eq!(cp, back, "{backend}");
        }
    }

    #[test]
    fn mid_pipeline_latches_survive_the_roundtrip() {
        // After 4 cycles the pipeline latches are occupied; the
        // serialized form must preserve them exactly.
        let mut core = SimBuilder::new(&program())
            .backend(Backend::Pipelined)
            .build();
        core.run_for(Budget::Steps(4)).unwrap();
        let cp = core.snapshot();
        let Micro::Pipelined(m) = &cp.micro else {
            panic!("pipelined micro expected");
        };
        assert!(m.id_ex.is_some() || m.ex_mem.is_some(), "latches occupied");
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        assert_eq!(cp, back);
    }

    #[test]
    fn restore_rejects_backend_and_shape_mismatches() {
        let p = program();
        let mut func = SimBuilder::new(&p).build();
        func.run_for(Budget::Steps(2)).unwrap();
        let cp = func.snapshot();

        let mut pipe = SimBuilder::new(&p).backend(Backend::Pipelined).build();
        assert!(matches!(
            pipe.restore(&cp),
            Err(SimError::Checkpoint { .. })
        ));

        let other = assemble("NOP\nJAL t0, 0\n").unwrap();
        let mut short = SimBuilder::new(&other).build();
        assert!(matches!(
            short.restore(&cp),
            Err(SimError::Checkpoint { .. })
        ));
    }

    /// The checkpoint text of `core` with the first value of its `key`
    /// line (`pc`, `fetch-pc` or a latch) set to `pc`.
    fn with_pc(core: &dyn crate::Core, key: &str, pc: usize) -> String {
        let prefix = format!("{key} ");
        core.snapshot()
            .to_text()
            .lines()
            .map(|l| match l.strip_prefix(&prefix) {
                Some(rest) => {
                    let tail = rest.split_once(' ').map_or("", |(_, tail)| tail);
                    format!("{key} {pc} {tail}").trim_end().to_string() + "\n"
                }
                None => format!("{l}\n"),
            })
            .collect()
    }

    #[test]
    fn restore_rejects_a_pc_past_the_end_of_text() {
        let p = program();
        let len = p.text().len();
        // The threaded backend twice: plain, and with one packed
        // accountant, which it counts on a compiled twin.
        for (backend, energy) in [
            (Backend::Functional, false),
            (Backend::Threaded, false),
            (Backend::Reference, false),
            (Backend::Threaded, true),
        ] {
            let mut builder = SimBuilder::new(&p).backend(backend);
            if energy {
                builder = builder.observer(Arc::new(Mutex::new(EnergyAccounting::new())));
            }
            let mut core = builder.build();
            core.run_for(Budget::Steps(2)).unwrap();

            let wild = Checkpoint::from_text(&with_pc(&*core, "pc", len + 1)).unwrap();
            assert_eq!(wild.state.pc, len + 1);
            let mut fresh = builder.build();
            assert!(
                matches!(fresh.restore(&wild), Err(SimError::Checkpoint { .. })),
                "{backend}"
            );

            // `pc == text_len` is the fell-off-end state: it restores,
            // and the next step halts cleanly, retiring nothing.
            let end = Checkpoint::from_text(&with_pc(&*core, "pc", len)).unwrap();
            fresh.restore(&end).unwrap();
            assert_eq!(
                fresh.step().unwrap(),
                Some(HaltReason::FellOffEnd),
                "{backend}"
            );
            let mut fresh = builder.build();
            fresh.restore(&end).unwrap();
            assert_eq!(
                fresh.run_for(Budget::Steps(5)).unwrap(),
                RunSummary {
                    steps: 1,
                    retired: core.retired(),
                    halt: Some(HaltReason::FellOffEnd),
                },
                "{backend}, energy {energy}"
            );
        }

        // Pipelined: the fetch PC may sit at the end of the text, but
        // not past it, and no latch may hold a PC outside the text.
        // After three cycles IF/ID, ID/EX and EX/MEM are occupied.
        let builder = SimBuilder::new(&p).backend(Backend::Pipelined);
        let mut core = builder.build();
        core.run_for(Budget::Steps(3)).unwrap();
        for (key, pc) in [
            ("fetch-pc", len + 1),
            ("if-id", len),
            ("id-ex", len),
            ("ex-mem", len),
        ] {
            let wild = Checkpoint::from_text(&with_pc(&*core, key, pc)).unwrap();
            let mut fresh = builder.build();
            assert!(
                matches!(fresh.restore(&wild), Err(SimError::Checkpoint { .. })),
                "{key} {pc}"
            );
        }
        let end = Checkpoint::from_text(&with_pc(&*core, "fetch-pc", len)).unwrap();
        let mut fresh = builder.build();
        fresh.restore(&end).unwrap();
        assert!(fresh.run_for(Budget::Steps(100)).unwrap().halt.is_some());
    }

    #[test]
    fn restore_rejects_a_latch_word_the_program_does_not_hold() {
        let p = assemble("LI t3, 1\nADDI t3, 1\nADDI t3, 1\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        let builder = SimBuilder::new(&p).backend(Backend::Pipelined);
        let mut core = builder.build();
        core.run_for(Budget::Steps(3)).unwrap();
        let text = core.snapshot().to_text();

        // Swap the ID/EX word (pc 1, `ADDI t3, 1`) for `LUI t3, 13`.
        let lui = encode(&assemble("LUI t3, 13").unwrap().text()[0]).to_i64();
        let forged: String = text
            .lines()
            .map(|l| match l.strip_prefix("id-ex ") {
                Some(rest) => {
                    let v: Vec<&str> = rest.split(' ').collect();
                    assert_eq!(v[0], "1", "ADDI sits in ID/EX after 3 cycles");
                    format!("id-ex {} {lui} {} {}\n", v[0], v[2], v[3])
                }
                None => format!("{l}\n"),
            })
            .collect();
        assert_ne!(forged, text);
        let forged = Checkpoint::from_text(&forged).expect("well-formed text");
        let mut fresh = builder.build();
        let err = fresh.restore(&forged).expect_err("forged latch word");
        assert!(matches!(err, SimError::Checkpoint { .. }), "{err}");
        assert!(err.to_string().contains("id-ex"), "{err}");

        // The genuine checkpoint restores and finishes the program.
        let mut resumed = builder.build();
        resumed
            .restore(&Checkpoint::from_text(&text).unwrap())
            .unwrap();
        resumed.run_for(Budget::Steps(100)).unwrap();
        assert_eq!(resumed.state().reg(art9_isa::TReg::T3).to_i64(), 4);
    }

    #[test]
    fn malformed_text_is_rejected_with_detail() {
        for text in [
            "",
            "not a checkpoint",
            "art9-checkpoint v1\nbackend warp-drive\n",
            "art9-checkpoint v1\nbackend functional\ntext-len x\n",
        ] {
            assert!(
                matches!(
                    Checkpoint::from_text(text),
                    Err(SimError::Checkpoint { .. })
                ),
                "{text:?}"
            );
        }
    }

    #[test]
    fn checkpoint_reports_the_mix() {
        let mut core = SimBuilder::new(&program()).build();
        core.run_for(Budget::Steps(3)).unwrap();
        let cp = core.snapshot();
        assert_eq!(cp.instruction_mix(), core.instruction_mix());
        assert_eq!(cp.retired, 3);
    }
}
