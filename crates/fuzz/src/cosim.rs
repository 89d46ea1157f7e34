//! The cross-ISA **compiler-lockstep** oracle: translation validation
//! by co-simulating the RV32 source machine and the translated ART-9
//! program side by side, at **RV32-instruction granularity**.
//!
//! This is the evaluation methodology behind the paper's Tables II–V —
//! the same workload executed on the binary baseline and on the ternary
//! machine must agree — turned into a generative check over random
//! programs. After every retired RV32 instruction the ART-9 core is
//! advanced through exactly the instructions the compiler's
//! [provenance map](art9_compiler::Translation::provenance) attributes
//! to that source instruction (runtime-builtin calls included), and the
//! full RV32-visible architectural state is compared:
//!
//! * every allocated register, read through
//!   [`Translation::read_rv_reg`] (direct ternary register or TDM
//!   spill slot) and compared **in its value domain** — plain data
//!   equals the sign-extended RV32 value; pointers map through the
//!   affine byte→word address re-scaling; link registers map through
//!   the RV32-index → ART-9-address boundary table; scaled indices
//!   (`slli ×4`) are the RV32 value divided by 4;
//! * every data word the RV32 side wrote since the last sync point
//!   (the dirty set), through the same address map — plus the whole
//!   memory window once at halt.
//!
//! The pointer domains line up because the RV32 machine is given
//! exactly [`cosim_mem_bytes`] bytes of memory: one affine map
//! `word = (byte − DATA_BASE)/4 + DATA_WORD_BASE` then covers the data
//! section *and* the descending stack.
//!
//! The architectural backends (functional, reference, threaded) are
//! compared state-for-state at every sync point. The pipelined backend
//! exposes architectural state only at retirement, so it runs to halt
//! with its cycle trace on instead: the sequence of RV32-boundary
//! crossings its retirements make ([`crossings`], read off the trace's
//! WB stage) must equal the boundary sequence the RV32 machine's own
//! execution path predicts, and the final state must match in full.
//! Since retirement is in order, the boundary a retirement enters is
//! the pc of the next retirement (or its own, at a jump-to-self
//! halt).

use std::collections::BTreeSet;

use art9_compiler::analysis::{analyze, Action, Analysis, DATA_WORD_BASE};
use art9_compiler::{translate_with_tdm, Origin, Translation};
use art9_sim::{Backend, Core, CycleTrace, HaltReason, SimBuilder};
use rv32::{parse_program, Instr, Machine, Reg, Rv32Program, DATA_BASE};

use crate::oracle::{run_to_halt, Divergence, DivergenceKind, Finding, Oracle, OracleStats};

/// TDM size the oracle translates and simulates with.
pub const COSIM_TDM_WORDS: usize = 256;

/// ART-9 step budget per RV32 instruction: generous enough for the
/// worst runtime-builtin call (`__div` is O(|dividend|) with in-window
/// operands) plus the mapped sequence itself.
const PER_SYNC_BUDGET: u64 = 250_000;

/// Marker prefix for harness-level failures (parse/translate errors)
/// as opposed to genuine state divergences — the minimizer refuses to
/// trade one for the other.
pub(crate) const HARNESS_MARKER: &str = "harness:";

/// The RV32 data-memory size that makes one affine map cover both the
/// data section and the stack: bytes `DATA_BASE..mem_bytes` correspond
/// exactly to TDM words `DATA_WORD_BASE..tdm_words`.
pub fn cosim_mem_bytes(tdm_words: usize) -> usize {
    DATA_BASE as usize + 4 * (tdm_words - DATA_WORD_BASE as usize)
}

/// How an RV32 register's value maps into the ART-9 domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegClass {
    /// Plain data: equal as sign-extended integers.
    Data,
    /// Byte address: maps through the affine byte→word re-scaling.
    Pointer,
    /// Code address (link register): maps through the RV32-index →
    /// ART-9-address boundary table.
    Link,
    /// Scaled index (`slli …, 2` feeding a pointer add): the RV32 value
    /// is 4× the ART-9 word index.
    Index4,
}

/// The memory words written so far and the value domain of the last
/// register stored to each (a spilled `ra` holds a code address on
/// both sides, in different domains).
#[derive(Default)]
struct MemTracker {
    dirty: BTreeSet<usize>,
    class: std::collections::BTreeMap<usize, RegClass>,
}

impl MemTracker {
    fn record(&mut self, word: usize, class: RegClass) {
        self.dirty.insert(word);
        self.class.insert(word, class);
    }

    fn class_of(&self, word: usize) -> RegClass {
        self.class.get(&word).copied().unwrap_or(RegClass::Data)
    }
}

/// The per-program comparison plan: which registers to compare and in
/// which value domain, plus the analysis actions (needed to skip the
/// half-materialized destination of a split `la` pair).
struct Plan {
    entries: Vec<(Reg, RegClass)>,
    analysis: Analysis,
    tdm_words: usize,
}

fn build_plan(rv: &Rv32Program, t: &Translation, tdm_words: usize) -> Result<Plan, String> {
    let analysis = analyze(rv).map_err(|e| format!("analysis failed after translate: {e}"))?;

    let mut link_regs: BTreeSet<Reg> = BTreeSet::new();
    link_regs.insert(Reg::RA);
    let mut index_regs: BTreeSet<Reg> = BTreeSet::new();
    for (k, i) in rv.text().iter().enumerate() {
        match i {
            Instr::Jal { rd, .. } | Instr::Jalr { rd, .. } if !rd.is_zero() => {
                link_regs.insert(*rd);
            }
            Instr::AluImm { rd, .. } if analysis.actions[k] == Some(Action::IndexToMove) => {
                index_regs.insert(*rd);
            }
            _ => {}
        }
    }

    let mut entries = Vec::new();
    for (reg, _loc) in t.allocation.iter() {
        if reg == Reg::SP && !analysis.uses_sp {
            // sp differs at reset (rv32 initializes it in hardware, the
            // translation only when the program uses a stack).
            continue;
        }
        let class = if analysis.is_pointer(reg) {
            if link_regs.contains(&reg) {
                return Err(format!("{reg} is both pointer- and link-typed"));
            }
            RegClass::Pointer
        } else if index_regs.contains(&reg) {
            RegClass::Index4
        } else if link_regs.contains(&reg) {
            RegClass::Link
        } else {
            RegClass::Data
        };
        entries.push((reg, class));
    }
    Ok(Plan {
        entries,
        analysis,
        tdm_words,
    })
}

impl Plan {
    /// Expected ART-9 value for an RV32 register value, or `None` when
    /// the value has no image in the ternary domain.
    fn expected(&self, class: RegClass, rv_val: u32, t: &Translation) -> Option<i64> {
        let signed = rv_val as i32 as i64;
        match class {
            RegClass::Data => Some(signed),
            RegClass::Index4 => Some(signed / 4),
            RegClass::Pointer => {
                if rv_val == 0 {
                    Some(0) // never materialized on either side
                } else {
                    Some((signed - DATA_BASE as i64) / 4 + DATA_WORD_BASE)
                }
            }
            RegClass::Link => {
                if rv_val == 0 {
                    Some(0)
                } else {
                    t.address_of_rv((rv_val / 4) as usize).map(|a| a as i64)
                }
            }
        }
    }

    /// The static value domain of a register (Data when unallocated —
    /// e.g. `x0` — whose stores carry plain zeros).
    fn class_of(&self, reg: Reg) -> RegClass {
        self.entries
            .iter()
            .find(|(r, _)| *r == reg)
            .map(|(_, c)| *c)
            .unwrap_or(RegClass::Data)
    }

    /// Compares every planned register plus the dirty memory words.
    /// `just_executed` is the RV32 instruction that retired into this
    /// sync point (`None` for the initial and final states).
    fn compare(
        &self,
        t: &Translation,
        rv_text: &[Instr],
        core: &dyn Core,
        m: &Machine,
        mem: &MemTracker,
        just_executed: Option<usize>,
    ) -> Result<(), String> {
        // A split `la` (lui+addi AddressPair) holds the full word
        // address on the ART-9 side after the lui half alone — skip its
        // destination until the absorbed addi completes the pair.
        let mid_pair: Option<Reg> = just_executed.and_then(|k| {
            if let Some(Some(Action::AddressPair { .. })) = self.analysis.actions.get(k) {
                if let Some(Instr::Lui { rd, .. }) = rv_text.get(k) {
                    return Some(*rd);
                }
            }
            None
        });

        let state = core.state();
        for (reg, class) in &self.entries {
            if mid_pair == Some(*reg) {
                continue;
            }
            let rv_val = m.reg(*reg);
            let art_val = t.read_rv_reg(state, *reg);
            match self.expected(*class, rv_val, t) {
                Some(expected) if expected == art_val => {}
                Some(expected) => {
                    return Err(format!(
                        "{reg} ({class:?}) = {art_val} (art9) vs {} (rv32, expects {expected})",
                        rv_val as i32
                    ));
                }
                None => {
                    return Err(format!(
                        "{reg} ({class:?}) holds untranslatable rv32 value {}",
                        rv_val as i32
                    ));
                }
            }
        }

        for &word in &mem.dirty {
            self.compare_word(word, mem.class_of(word), t, core, m)?;
        }
        Ok(())
    }

    /// Compares one TDM word against its RV32 memory image, in the
    /// value domain of the register last stored there (a spilled `ra`
    /// holds a code address on both sides — in different domains).
    fn compare_word(
        &self,
        word: usize,
        class: RegClass,
        t: &Translation,
        core: &dyn Core,
        m: &Machine,
    ) -> Result<(), String> {
        let byte = DATA_BASE as usize + 4 * (word - DATA_WORD_BASE as usize);
        let rv_val = m
            .load_word(byte as u32)
            .map_err(|e| format!("rv32 memory read at {byte:#x} failed: {e}"))?;
        let art_val = core
            .state()
            .tdm
            .read(word)
            .map_err(|e| format!("art9 TDM read at word {word} failed: {e}"))?
            .to_i64();
        match self.expected(class, rv_val, t) {
            Some(expected) if expected == art_val => Ok(()),
            Some(expected) => Err(format!(
                "mem word {word} (byte {byte:#x}, {class:?}) = {art_val} (art9) vs {} \
                 (rv32, expects {expected})",
                rv_val as i32
            )),
            None => Err(format!(
                "mem word {word} (byte {byte:#x}, {class:?}) holds untranslatable rv32 \
                 value {}",
                rv_val as i32
            )),
        }
    }
}

/// One full co-simulation of an RV32 source program against its
/// translation.
pub struct CoSim<'a> {
    rv: &'a Rv32Program,
    t: &'a Translation,
    plan: Plan,
    budget: u64,
}

impl<'a> CoSim<'a> {
    /// Builds the co-simulator for a source program and its translation
    /// (use [`check_compiler_lockstep`] for the one-call
    /// source-to-verdict path).
    ///
    /// # Errors
    ///
    /// Returns a harness-level description when the comparison plan
    /// cannot be built (e.g. a register is both pointer- and
    /// link-typed).
    pub fn new(rv: &'a Rv32Program, t: &'a Translation, rv32_budget: u64) -> Result<Self, String> {
        let tdm_words = COSIM_TDM_WORDS.max(t.program.data().len());
        let plan = build_plan(rv, t, tdm_words)?;
        Ok(Self {
            rv,
            t,
            plan,
            budget: rv32_budget,
        })
    }

    /// The TDM size the comparison plan assumes (pass it to
    /// [`SimBuilder::tdm_words`] when building the core yourself).
    pub fn tdm_words(&self) -> usize {
        self.plan.tdm_words
    }

    /// The RV32 machine sized so byte and word address domains line up.
    pub fn machine(&self) -> Machine {
        Machine::with_mem_size(self.rv, cosim_mem_bytes(self.plan.tdm_words))
    }

    /// Records the TDM word an RV32 store is about to write (computed
    /// *before* the step, from the pre-state registers) together with
    /// the stored register's value domain.
    fn dirty_word_of(&self, m: &Machine, k: usize) -> Option<(usize, RegClass)> {
        if let Some(Instr::Store {
            rs2, rs1, offset, ..
        }) = self.rv.text().get(k)
        {
            let byte = m.reg(*rs1).wrapping_add(*offset as u32) as i64;
            let word = (byte - DATA_BASE as i64) / 4 + DATA_WORD_BASE;
            if (DATA_WORD_BASE..self.plan.tdm_words as i64).contains(&word) {
                return Some((word as usize, self.plan.class_of(*rs2)));
            }
        }
        None
    }

    /// Runs the lockstep comparison on an architectural core
    /// (functional or reference backend). Returns the first divergence.
    pub fn run(&self, core: &mut dyn Core, stats: &mut OracleStats) -> Option<Divergence> {
        Oracle::CompilerLockstep.verdict(self.stepwise(core, stats))
    }

    /// [`CoSim::run`]'s comparison; `Err` is the finding.
    fn stepwise(&self, core: &mut dyn Core, stats: &mut OracleStats) -> Result<(), Finding> {
        if core.backend() == Backend::Pipelined {
            return Err(Finding::new(
                DivergenceKind::Harness,
                format!(
                    "{HARNESS_MARKER} the pipelined backend cannot step at instruction \
                     granularity; use pipelined_trace"
                ),
            ));
        }
        let mut m = self.machine();
        let mut mem = MemTracker::default();

        // Run the translator prologue (sp init) up to the first
        // boundary, then compare the reset states.
        self.advance(core, |o| o == Origin::Prologue)?;
        stats.cosim_sync_points += 1;
        self.plan
            .compare(self.t, self.rv.text(), core, &m, &mem, None)
            .map_err(|d| format!("at reset: {d}"))?;

        for _ in 0..self.budget {
            let k = (m.pc() / 4) as usize;
            let store_word = self.dirty_word_of(&m, k);
            match m.step() {
                Err(e) => return Err(rv32_fault(e)),
                Ok(Err(_halt)) => return self.finish(core, &m, &mem, stats),
                Ok(Ok(_retire)) => {
                    stats.cosim_rv32_instructions += 1;
                    if let Some((w, class)) = store_word {
                        mem.record(w, class);
                    }
                    // Advance the ART-9 core through everything the
                    // compiler attributes to source instruction k.
                    let inside = |o: Origin| matches!(o, Origin::Builtin(_)) || o == Origin::Rv(k);
                    self.advance(core, inside).map_err(|f| {
                        f.context(format!("during rv32 #{k} ({})", self.rv.text()[k]))
                    })?;
                    if core.halted().is_some() {
                        return Err(format!(
                            "art9 halted after rv32 #{k} while the rv32 machine continues"
                        )
                        .into());
                    }
                    // The core must now sit exactly at the boundary of
                    // the next source instruction.
                    let next_k = (m.pc() / 4) as usize;
                    let expected = self.t.address_of_rv(next_k);
                    if expected != Some(core.state().pc) {
                        return Err(format!(
                            "after rv32 #{k} ({}): art9 pc {} is not the boundary of rv32 \
                             #{next_k} ({expected:?})",
                            self.rv.text()[k],
                            core.state().pc
                        )
                        .into());
                    }
                    stats.cosim_sync_points += 1;
                    self.plan
                        .compare(self.t, self.rv.text(), core, &m, &mem, Some(k))
                        .map_err(|d| format!("after rv32 #{k} ({}): {d}", self.rv.text()[k]))?;
                    if m.halted().is_some() {
                        // FellOffEnd is detected eagerly after a retire.
                        return self.finish(core, &m, &mem, stats);
                    }
                }
            }
        }
        Err(self.rv32_budget_exhausted())
    }

    /// The finding of an RV32 run that did not halt within its budget.
    fn rv32_budget_exhausted(&self) -> Finding {
        Finding::new(
            DivergenceKind::BudgetExhausted,
            format!(
                "rv32 program {} {} steps",
                Divergence::BUDGET_MARKER,
                self.budget
            ),
        )
    }

    /// Steps the core while the instruction at its PC satisfies
    /// `inside` (and it has not halted). Returns a finding on fault
    /// or budget exhaustion.
    fn advance(&self, core: &mut dyn Core, inside: impl Fn(Origin) -> bool) -> Result<(), Finding> {
        let prov = self.t.provenance();
        for _ in 0..PER_SYNC_BUDGET {
            if core.halted().is_some() {
                return Ok(()); // callers decide whether halting is legal
            }
            let pc = core.state().pc;
            match prov.get(pc) {
                Some(o) if inside(*o) => {}
                _ => return Ok(()), // reached foreign territory: a boundary
            }
            core.step().map_err(|e| {
                Finding::new(
                    DivergenceKind::CandidateFault,
                    format!("art9 core faulted: {e}"),
                )
            })?;
        }
        Err(Finding::new(
            DivergenceKind::BudgetExhausted,
            format!(
                "art9 sequence {} {PER_SYNC_BUDGET} steps",
                Divergence::BUDGET_MARKER
            ),
        ))
    }

    /// The RV32 machine halted: drive the ART-9 core to its own halt
    /// and compare the complete final state.
    fn finish(
        &self,
        core: &mut dyn Core,
        m: &Machine,
        mem: &MemTracker,
        stats: &mut OracleStats,
    ) -> Result<(), Finding> {
        let side = format!("art9 core after the rv32 machine halted ({:?})", m.halted());
        run_to_halt(core, PER_SYNC_BUDGET, &side, DivergenceKind::CandidateFault)?;
        stats.cosim_art9_instructions += core.retired();
        Ok(self
            .compare_at_halt(core, m, mem)
            .map_err(|d| format!("at halt ({:?}): {d}", m.halted()))?)
    }

    /// The complete final-state comparison: every planned register and
    /// the whole RV32-visible memory window.
    fn compare_at_halt(
        &self,
        core: &dyn Core,
        m: &Machine,
        mem: &MemTracker,
    ) -> Result<(), String> {
        self.plan
            .compare(self.t, self.rv.text(), core, m, mem, None)?;
        for word in DATA_WORD_BASE as usize..self.plan.tdm_words {
            self.plan
                .compare_word(word, mem.class_of(word), self.t, core, m)?;
        }
        Ok(())
    }

    /// The pipelined variant of [`CoSim::run`]: predicts the boundary
    /// crossings from the RV32 path ([`CoSim::boundary_path`]), runs
    /// the pipelined core to halt ([`CoSim::pipelined_crossings`]),
    /// and compares the crossing traces plus the full final state.
    /// `Err` is the finding.
    fn pipelined_trace(&self, stats: &mut OracleStats) -> Result<(), Finding> {
        let path = self.boundary_path(stats)?;
        let (core, crossings) = self.pipelined_crossings(&path.watched)?;
        stats.cosim_art9_instructions += core.retired();
        crossing_difference(&crossings, &path.expected)?;
        stats.cosim_sync_points += crossings.len() as u64;
        Ok(self
            .compare_at_halt(&*core, &path.machine, &path.mem)
            .map_err(|d| format!("at halt: {d}"))?)
    }

    /// Runs the RV32 machine to halt, predicting the sequence of
    /// boundary addresses the translated program must enter.
    fn boundary_path(&self, stats: &mut OracleStats) -> Result<BoundaryPath, Finding> {
        let len = self.rv.text().len();
        let b = |k: usize| self.t.address_of_rv(k).expect("boundary in range");
        // Watch every distinct boundary except the halt sequence's own
        // address (the final jump-to-self would record spurious entries
        // there).
        let watched: BTreeSet<usize> = (0..len).map(b).filter(|a| *a != b(len)).collect();

        // Predict the crossing sequence from the RV32 execution path.
        let mut expected: Vec<usize> = Vec::new();
        if b(0) != 0 && watched.contains(&b(0)) {
            expected.push(b(0)); // entered from the prologue
        }
        let nonempty = |k: usize| b(k) != b(k + 1);
        let mut m = self.machine();
        let mut mem = MemTracker::default();
        let mut halt = None;
        for _ in 0..self.budget {
            let k = (m.pc() / 4) as usize;
            if let Some((w, class)) = self.dirty_word_of(&m, k) {
                mem.record(w, class);
            }
            match m.step() {
                Err(e) => return Err(rv32_fault(e)),
                Ok(Err(reason)) => {
                    // ebreak maps to a jump-to-self at its own boundary:
                    // that retirement re-enters b(k).
                    if matches!(
                        reason,
                        rv32::HaltReason::Break | rv32::HaltReason::JumpToSelf
                    ) && nonempty(k)
                        && watched.contains(&b(k))
                    {
                        expected.push(b(k));
                    }
                    halt = Some(reason);
                    break;
                }
                Ok(Ok(_)) => {
                    stats.cosim_rv32_instructions += 1;
                    let next_k = (m.pc() / 4) as usize;
                    if nonempty(k) && watched.contains(&b(next_k)) {
                        expected.push(b(next_k));
                    }
                    if m.halted().is_some() {
                        halt = m.halted();
                        break;
                    }
                }
            }
        }
        if halt.is_none() {
            return Err(self.rv32_budget_exhausted());
        }
        Ok(BoundaryPath {
            watched,
            expected,
            machine: m,
            mem,
        })
    }

    /// Runs the pipelined core to halt with its cycle trace on: the
    /// core and the `watched` addresses its retirements entered.
    fn pipelined_crossings(
        &self,
        watched: &BTreeSet<usize>,
    ) -> Result<(Box<dyn Core>, Vec<usize>), Finding> {
        let mut core = SimBuilder::new(&self.t.program)
            .tdm_words(self.plan.tdm_words)
            .backend(Backend::Pipelined)
            .trace(true)
            .build();
        let cycle_budget = PER_SYNC_BUDGET.saturating_mul(4).max(1 << 20);
        let halt = run_to_halt(
            &mut *core,
            cycle_budget,
            "pipelined art9",
            DivergenceKind::CandidateFault,
        )?;
        let trace = core.trace().expect("the core traces");
        let crossings = crossings(trace, watched, halt);
        Ok((core, crossings))
    }
}

/// The RV32 side of the pipelined check: the watched boundary
/// addresses, the crossings the RV32 path predicts, and the machine and
/// dirty words at its halt.
struct BoundaryPath {
    watched: BTreeSet<usize>,
    expected: Vec<usize>,
    machine: Machine,
    mem: MemTracker,
}

/// The `watched` addresses a run to `halt` entered, in order, read off
/// its cycle trace: the WB stage holds each instruction once, in
/// retirement order. Entering address `b` means a retired instruction's
/// successor was `b`, and retirement is in order, so each retirement's
/// successor is the pc of the next one. A crossing is therefore a
/// watched pc on every retirement after the run's first, plus the last
/// retired pc at a jump-to-self halt (its own successor). The initial
/// fetch at address 0 is *not* an entry, and an address at or past the
/// end of the text is never entered, not even by falling off the end.
fn crossings(trace: &[CycleTrace], watched: &BTreeSet<usize>, halt: HaltReason) -> Vec<usize> {
    let retired: Vec<usize> = trace
        .iter()
        .filter_map(|c| c.wb_stage)
        .map(|s| s.pc)
        .collect();
    let mut entered: Vec<usize> = retired.iter().skip(1).copied().collect();
    if halt == HaltReason::JumpToSelf {
        entered.extend(retired.last());
    }
    entered.retain(|pc| watched.contains(pc));
    entered
}

/// The first difference between the pipelined core's crossing trace and
/// the one the RV32 path predicts (`Ok` when identical).
fn crossing_difference(crossings: &[usize], expected: &[usize]) -> Result<(), String> {
    if crossings == expected {
        return Ok(());
    }
    let first = crossings
        .iter()
        .zip(expected)
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| crossings.len().min(expected.len()));
    Err(format!(
        "boundary-crossing trace diverges at entry {first}: pipelined {:?} vs rv32 \
         path {:?} ({} vs {} crossings)",
        crossings.get(first),
        expected.get(first),
        crossings.len(),
        expected.len()
    ))
}

/// Translates `src` and runs the compiler-lockstep oracle on the
/// functional backend, again with the direct-threaded backend as the
/// architectural core, then on the pipelined backend's
/// boundary-crossing trace — the campaign entry point. Parse/translate
/// failures are reported as harness-marked divergences (the generator
/// is supposed to make them impossible).
pub fn check_compiler_lockstep(
    src: &str,
    rv32_budget: u64,
    stats: &mut OracleStats,
) -> Option<Divergence> {
    Oracle::CompilerLockstep.verdict(compiler_lockstep(src, rv32_budget, stats))
}

/// A harness finding: the comparison could not be set up.
fn harness(detail: impl std::fmt::Display) -> Finding {
    Finding::new(
        DivergenceKind::Harness,
        format!("{HARNESS_MARKER} {detail}"),
    )
}

/// The finding of an RV32 machine fault (the reference side of the
/// comparison, so a harness finding).
fn rv32_fault(e: impl std::fmt::Display) -> Finding {
    harness(format!("rv32 machine faulted: {e}"))
}

/// [`check_compiler_lockstep`]'s comparison; `Err` is the finding.
fn compiler_lockstep(src: &str, rv32_budget: u64, stats: &mut OracleStats) -> Result<(), Finding> {
    let rv = parse_program(src).map_err(|e| harness(format!("source failed to parse: {e}")))?;
    let t = translate_with_tdm(&rv, COSIM_TDM_WORDS)
        .map_err(|e| harness(format!("translation failed: {e}")))?;
    let cosim = CoSim::new(&rv, &t, rv32_budget).map_err(harness)?;
    let builder = SimBuilder::new(&t.program).tdm_words(cosim.tdm_words());
    cosim.stepwise(&mut builder.build_functional(), stats)?;
    // The later passes replay the RV32 path the first one counted:
    // only their ART-9 instructions and sync points are new work.
    let mut replay = OracleStats::default();
    let result = cosim
        // Second pass with the threaded backend: translation validation
        // at RV32-instruction granularity doubles as a conformance check
        // of its compiled-op stepping path on real (non-random) control
        // flow.
        .stepwise(&mut builder.build_threaded(), &mut replay)
        .map_err(|f| f.context("threaded backend"))
        // Third pass: the cycle model, checked at the boundaries it
        // crosses.
        .and_then(|()| {
            cosim
                .pipelined_trace(&mut replay)
                .map_err(|f| f.context("pipelined backend"))
        });
    stats.cosim_art9_instructions += replay.cosim_art9_instructions;
    stats.cosim_sync_points += replay.cosim_sync_points;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rv32gen::{generate_rv32, rv32_step_budget, Rv32GenConfig, Rv32Mix};
    use crate::FuzzRng;
    use art9_isa::{Instruction, Program};

    fn clean(src: &str) {
        let mut stats = OracleStats::default();
        let d = check_compiler_lockstep(src, 100_000, &mut stats);
        assert!(d.is_none(), "{}\n{src}", d.unwrap());
        assert!(stats.cosim_sync_points > 0);
    }

    #[test]
    fn campaign_entry_checks_functional_threaded_and_pipelined() {
        let src = "li a0, 10\nli a1, 0\nloop:\nadd a1, a1, a0\naddi a0, a0, -1\n\
                   bnez a0, loop\nebreak\n";
        let mut all = OracleStats::default();
        assert!(check_compiler_lockstep(src, 100_000, &mut all).is_none());
        let rv = parse_program(src).unwrap();
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
        let cosim = CoSim::new(&rv, &t, 100_000).unwrap();
        let mut stepwise = OracleStats::default();
        let builder = SimBuilder::new(&t.program).tdm_words(cosim.tdm_words());
        cosim
            .stepwise(&mut builder.build_functional(), &mut stepwise)
            .unwrap();
        let mut pipelined = OracleStats::default();
        cosim.pipelined_trace(&mut pipelined).unwrap();
        // The RV32 program retires once per program, not once per pass.
        let (s, p) = (&stepwise, &pipelined);
        assert_eq!(all.cosim_rv32_instructions, s.cosim_rv32_instructions);
        assert_eq!(s.cosim_rv32_instructions, p.cosim_rv32_instructions);
        // Two stepwise passes (functional, threaded) plus the pipelined
        // one for the ART-9 side.
        assert_eq!(
            all.cosim_art9_instructions,
            2 * s.cosim_art9_instructions + p.cosim_art9_instructions
        );
        assert_eq!(
            all.cosim_sync_points,
            2 * s.cosim_sync_points + p.cosim_sync_points
        );
        assert!(p.cosim_sync_points > 0);
    }

    #[test]
    fn straight_line_and_control_flow_agree() {
        clean("li a0, 100\nli a1, -42\nadd a2, a0, a1\nebreak\n");
        clean(
            "li a0, 10\nli a1, 0\nloop:\nadd a1, a1, a0\naddi a0, a0, -1\n\
             bnez a0, loop\nebreak\n",
        );
        clean("li a0, 37\nli a1, -21\nmul a2, a0, a1\ndiv a3, a0, a1\nrem a4, a0, a1\nebreak\n");
        // Division by zero: both sides must agree on the RISC-V corner.
        clean("li a0, 55\nli a1, 0\ndiv a2, a0, a1\nrem a3, a0, a1\nebreak\n");
        // Calls, the stack, and falling off the end.
        clean(
            "li a0, 5\ncall double\nebreak\ndouble:\naddi sp, sp, -4\nsw ra, 0(sp)\n\
             add a0, a0, a0\nlw ra, 0(sp)\naddi sp, sp, 4\nret\n",
        );
        clean("li a0, 1\nli a1, 2\nadd a2, a0, a1\n");
        // Memory plus the scaled-index conversion.
        clean(
            ".data\narr: .word 5, -3, 9, 0\n.text\nla a5, arr\nlw a1, 0(a5)\n\
             li a0, 2\nslli a7, a0, 2\nadd a6, a5, a7\nlw a2, 0(a6)\n\
             add a1, a1, a2\nsw a1, 12(a5)\nebreak\n",
        );
    }

    #[test]
    fn generated_programs_are_clean_on_every_architectural_backend() {
        for mix in Rv32Mix::ALL {
            let cfg = Rv32GenConfig {
                mix,
                ..Rv32GenConfig::default()
            };
            for i in 0..8 {
                let src = generate_rv32(&mut FuzzRng::for_iteration(13, i), &cfg);
                let rv = parse_program(&src).unwrap();
                let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
                let cosim = CoSim::new(&rv, &t, rv32_step_budget(&cfg)).unwrap();
                for backend in [Backend::Functional, Backend::Reference, Backend::Threaded] {
                    let mut stats = OracleStats::default();
                    let mut core = SimBuilder::new(&t.program)
                        .tdm_words(cosim.tdm_words())
                        .backend(backend)
                        .build();
                    let d = cosim.run(&mut *core, &mut stats);
                    assert!(
                        d.is_none(),
                        "{} iter {i} on {backend}: {}\n{src}",
                        mix.name(),
                        d.unwrap()
                    );
                }
                let mut stats = OracleStats::default();
                let d = Oracle::CompilerLockstep.verdict(cosim.pipelined_trace(&mut stats));
                assert!(
                    d.is_none(),
                    "{} iter {i} pipelined: {}\n{src}",
                    mix.name(),
                    d.unwrap()
                );
                assert!(stats.cosim_sync_points > 0);
            }
        }
    }

    /// Rebuilds a translation's program with one instruction mutated —
    /// a stand-in for a mapping/redundancy/relaxation bug downstream of
    /// the provenance map.
    fn corrupt(t: &Translation, pick: impl Fn(&Instruction) -> Option<Instruction>) -> Translation {
        let mut t = t.clone();
        let mut text = t.program.text().to_vec();
        let at = text
            .iter()
            .position(|i| pick(i).is_some())
            .expect("mutable instruction present");
        text[at] = pick(&text[at]).unwrap();
        t.program = Program::new(text, t.program.data().to_vec(), Default::default());
        t
    }

    #[test]
    fn injected_wrong_immediate_is_caught_at_the_first_sync_point() {
        let src = "li a0, 5\nli a1, 7\nadd a2, a0, a1\nebreak\n";
        let rv = parse_program(src).unwrap();
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
        // Flip the first LI immediate: 5 materializes as 6.
        let bad = corrupt(&t, |i| match i {
            Instruction::Li { a, imm } if imm.to_i64() == 5 => Some(Instruction::Li {
                a: *a,
                imm: ternary::Trits::from_i64(6).unwrap(),
            }),
            _ => None,
        });
        let cosim = CoSim::new(&rv, &bad, 10_000).unwrap();
        let mut stats = OracleStats::default();
        let mut core = SimBuilder::new(&bad.program)
            .tdm_words(cosim.tdm_words())
            .build_functional();
        let d = cosim
            .run(&mut core, &mut stats)
            .expect("bug must be caught");
        assert_eq!(d.oracle, Oracle::CompilerLockstep);
        assert!(d.detail.contains("a0"), "{d}");
        assert!(d.detail.contains("rv32 #0"), "flagged at the boundary: {d}");
    }

    #[test]
    fn injected_memory_bug_is_caught() {
        let src = ".data\narr: .word 1, 2, 3, 4\n.text\nla a5, arr\nli a0, 9\n\
                   sw a0, 4(a5)\nlw a1, 4(a5)\nebreak\n";
        let rv = parse_program(src).unwrap();
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
        // Shift the translated store's displacement by one word.
        let bad = corrupt(&t, |i| match i {
            Instruction::Store { a, b, offset } if offset.to_i64() == 1 => {
                Some(Instruction::Store {
                    a: *a,
                    b: *b,
                    offset: ternary::Trits::from_i64(2).unwrap(),
                })
            }
            _ => None,
        });
        let cosim = CoSim::new(&rv, &bad, 10_000).unwrap();
        let mut stats = OracleStats::default();
        let mut core = SimBuilder::new(&bad.program)
            .tdm_words(cosim.tdm_words())
            .build_functional();
        let d = cosim
            .run(&mut core, &mut stats)
            .expect("bug must be caught");
        assert!(
            d.detail.contains("mem word") || d.detail.contains("a1"),
            "{d}"
        );
    }

    #[test]
    fn injected_control_bug_is_caught_by_the_pipelined_trace() {
        let src = "li a0, 3\nli a1, 0\nloop:\nadd a1, a1, a0\naddi a0, a0, -1\n\
                   bnez a0, loop\nebreak\n";
        let rv = parse_program(src).unwrap();
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
        // Invert the translated loop branch (bnez maps to a BNE).
        let bad = corrupt(&t, |i| match i {
            Instruction::Bne { b, cond, offset } if offset.to_i64() < 0 => Some(Instruction::Beq {
                b: *b,
                cond: *cond,
                offset: *offset,
            }),
            _ => None,
        });
        let cosim = CoSim::new(&rv, &bad, 10_000).unwrap();
        let mut stats = OracleStats::default();
        let d = Oracle::CompilerLockstep
            .verdict(cosim.pipelined_trace(&mut stats))
            .expect("bug must be caught");
        assert!(
            d.detail.contains("trace") || d.detail.contains("crossings") || d.detail.contains("a1"),
            "{d}"
        );
    }

    #[test]
    fn a_looped_program_records_crossings_and_a_dropped_one_is_a_finding() {
        let src = "li a0, 3\nli a1, 0\nloop:\nadd a1, a1, a0\naddi a0, a0, -1\n\
                   bnez a0, loop\nebreak\n";
        let rv = parse_program(src).unwrap();
        let t = translate_with_tdm(&rv, COSIM_TDM_WORDS).unwrap();
        let cosim = CoSim::new(&rv, &t, 10_000).unwrap();
        let path = cosim.boundary_path(&mut OracleStats::default()).unwrap();
        let (_, crossings) = cosim.pipelined_crossings(&path.watched).unwrap();
        // Each of the three passes enters the loop body's boundaries.
        assert!(crossings.len() >= 3 * 3, "{crossings:?}");
        assert_eq!(crossing_difference(&crossings, &path.expected), Ok(()));
        for planted in 0..crossings.len() {
            let mut dropped = crossings.clone();
            dropped.remove(planted);
            let d = crossing_difference(&dropped, &path.expected).expect_err("dropped boundary");
            assert!(d.contains("diverges"), "{d}");
        }
    }

    /// The crossings of `src`'s pipelined run to halt into `watched`.
    fn traced_crossings(src: &str, watched: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let p = art9_isa::assemble(src).unwrap();
        let mut core = SimBuilder::new(&p)
            .backend(Backend::Pipelined)
            .trace(true)
            .build();
        let halt = core.run(100_000).unwrap().halt.unwrap();
        crossings(core.trace().unwrap(), &watched.into_iter().collect(), halt)
    }

    const LOOPED: &str = "LI t2, 5\nLI t3, 3\nloop:\nSTORE t3, t2, 0\nADDI t3, -1\n\
                          MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n";

    #[test]
    fn crossings_count_every_entry_of_a_watched_loop_head() {
        // The loop head (pc 2) is entered by LI t3 (pc 1 -> 2) and by
        // two taken loop-backs.
        assert_eq!(traced_crossings(LOOPED, [2]), [2, 2, 2]);
    }

    #[test]
    fn crossings_enter_a_watched_jump_to_self_twice() {
        // The halting JAL at pc 7 is entered from the BEQ's final
        // fall-through, then once more by its own transfer to itself;
        // the initial fetch at pc 0 is no entry.
        assert_eq!(traced_crossings(LOOPED, [0, 7]), [7, 7]);
    }

    #[test]
    fn crossings_never_enter_the_end_of_the_text() {
        // The loop falls through its BEQ off the end at pc 5: every pc
        // after the first is entered, the end of the text never is.
        let src = "LI t3, 2\nloop:\nADDI t3, -1\nMV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\n";
        assert_eq!(traced_crossings(src, 0..=6), [1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    fn harness_failures_are_marked() {
        let mut stats = OracleStats::default();
        let d = check_compiler_lockstep("not rv32 at all\n", 1_000, &mut stats).unwrap();
        assert!(d.detail.starts_with(HARNESS_MARKER), "{d}");
        assert_eq!(d.kind, DivergenceKind::Harness);
        // auipc parses but cannot translate.
        let d = check_compiler_lockstep("auipc a0, 1\nebreak\n", 1_000, &mut stats).unwrap();
        assert!(d.detail.starts_with(HARNESS_MARKER), "{d}");
        assert_eq!(d.kind, DivergenceKind::Harness);
        assert!(d.detail.contains("translation failed"), "{d}");
    }

    #[test]
    fn memory_map_constants_line_up() {
        // The affine map must send DATA_BASE to DATA_WORD_BASE and the
        // top of rv32 memory to the top of the TDM.
        let bytes = cosim_mem_bytes(COSIM_TDM_WORDS);
        assert_eq!(
            (bytes - DATA_BASE as usize) / 4 + DATA_WORD_BASE as usize,
            COSIM_TDM_WORDS
        );
    }
}
