//! A deliberately slow per-trit reference interpreter.
//!
//! One corner of the differential-testing triangle (see
//! `docs/FUZZING.md`): where [`FunctionalSim`](crate::FunctionalSim)
//! and [`PipelinedSim`](crate::PipelinedSim) execute through the shared
//! [`crate::talu`] on packed bitplanes, this interpreter re-derives
//! every instruction's semantics **trit by trit** from the paper —
//! ripple-carry addition via [`ternary::arith::add_tritwise`], per-trit
//! inversions and logic via the [`Trit`] truth tables, shifts and field
//! splices as explicit trit-array surgery, comparison as a
//! most-significant-trit-first scan — so a bug in the packed carry-loop
//! kernels (the place Etiemble's adder comparisons say ternary
//! arithmetic goes wrong: carry chains and sign boundaries) cannot hide
//! in both simulators at once.
//!
//! The interpreter intentionally shares **no** execution code with the
//! other backends: only the instruction enum, the architectural
//! containers ([`CoreState`]), and the halt convention are common
//! vocabulary. It lives in `art9-sim` (promoted out of `art9-fuzz`) so
//! it can implement the unified [`Core`](crate::Core) API and be driven
//! by any consumer — most importantly the generic fuzz lockstep oracle.

use art9_isa::Instruction;
use ternary::{arith, Trit, Trits, Word9};

use crate::checkpoint::{Checkpoint, Micro};
use crate::core::{Backend, Budget, Core, RunSummary, SinkStep};
use crate::error::SimError;
use crate::exec::OPCODES;
use crate::functional::{CoreState, HaltReason};
use crate::observer::{fetch_words, Accountant, MemWrite, RegWrite, Sink, Writeback};
use crate::predecode::PredecodedProgram;

/// The per-trit reference interpreter.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Backend, Budget, Core, SimBuilder};
///
/// let p = assemble("LI t3, 20\nADDI t3, 1\nADD t3, t3\nJAL t0, 0\n")?;
/// let mut r = SimBuilder::new(&p).backend(Backend::Reference).build();
/// r.run_for(Budget::Steps(100))?;
/// assert_eq!(r.state().reg("t3".parse()?).to_i64(), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceSim {
    text: Vec<Instruction>,
    state: CoreState,
    instructions: u64,
    halted: Option<HaltReason>,
    mix: [u64; Instruction::OPCODE_COUNT],
    energy: Option<Accountant>,
}

impl ReferenceSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        energy: Option<Accountant>,
    ) -> Self {
        Self {
            text: image.text().to_vec(),
            state: CoreState::with_image(image.data(), tdm_words),
            instructions: 0,
            halted: None,
            mix: [0; Instruction::OPCODE_COUNT],
            energy,
        }
    }

    /// Resolves a signed address value to a TDM index.
    fn resolve(&self, addr: i64, pc: usize) -> Result<usize, SimError> {
        self.state
            .tdm
            .index_of(addr)
            .map_err(|cause| SimError::MemoryFault { pc, cause })
    }
}

impl SinkStep for ReferenceSim {
    /// Flips are counted per trit too, so the `energy` fuzz oracle
    /// checks the packed kernel against this one.
    fn flips(next: Word9, prev: Word9) -> u32 {
        arith::flips_tritwise(next, prev)
    }

    fn accountant(&mut self) -> &mut Option<Accountant> {
        &mut self.energy
    }

    /// Executes one instruction; mirrors the architectural contract of
    /// the functional backend's step (halt detection order included)
    /// while computing every result per trit.
    fn step_with<E: Sink>(&mut self, sink: &mut E) -> Result<Option<HaltReason>, SimError> {
        if let Some(r) = self.halted {
            return Ok(Some(r));
        }
        let pc = self.state.pc;
        if pc == self.text.len() {
            self.halted = Some(HaltReason::FellOffEnd);
            sink.halt();
            return Ok(Some(HaltReason::FellOffEnd));
        }
        let instr = self.text[pc];
        self.instructions += 1;
        self.mix[instr.opcode()] += 1;

        use Instruction::*;
        let link = word_from_value(pc as i64 + 1);

        // Write-back observation inputs, captured before execution:
        // the old destination value and the per-trit result-bus value
        // (the execute arms below mutate the register file in place).
        let old_reg = if E::ON {
            instr.writes().map(|dest| self.state.reg(dest))
        } else {
            None
        };
        let bus = if E::ON {
            Some(bus_tritwise(&instr, &self.state.trf, pc))
        } else {
            None
        };
        let mut mem_write = None;

        // Destination value (per-trit), memory effects, and branch
        // decision, all re-derived from the paper's semantics.
        let trf = &mut self.state.trf;
        match instr {
            Mv { a, b } => trf[a.index()] = trf[b.index()],
            Pti { a, b } => trf[a.index()] = map_trits(trf[b.index()], Trit::pti),
            Nti { a, b } => trf[a.index()] = map_trits(trf[b.index()], Trit::nti),
            Sti { a, b } => trf[a.index()] = map_trits(trf[b.index()], Trit::sti),
            And { a, b } => trf[a.index()] = zip_trits(trf[a.index()], trf[b.index()], Trit::and),
            Or { a, b } => trf[a.index()] = zip_trits(trf[a.index()], trf[b.index()], Trit::or),
            Xor { a, b } => trf[a.index()] = zip_trits(trf[a.index()], trf[b.index()], Trit::xor),
            Add { a, b } => {
                trf[a.index()] = arith::add_tritwise(trf[a.index()], trf[b.index()]).0;
            }
            Sub { a, b } => {
                let neg_b = map_trits(trf[b.index()], Trit::sti);
                trf[a.index()] = arith::add_tritwise(trf[a.index()], neg_b).0;
            }
            Sr { a, b } => {
                let amount = low2_value(trf[b.index()]);
                trf[a.index()] = shift_trits(trf[a.index()], -amount);
            }
            Sl { a, b } => {
                let amount = low2_value(trf[b.index()]);
                trf[a.index()] = shift_trits(trf[a.index()], amount);
            }
            Comp { a, b } => {
                trf[a.index()] = compare_trits(trf[a.index()], trf[b.index()]);
            }
            Andi { a, imm } => {
                trf[a.index()] = zip_trits(trf[a.index()], extend(imm), Trit::and);
            }
            Addi { a, imm } => {
                trf[a.index()] = arith::add_tritwise(trf[a.index()], extend(imm)).0;
            }
            Sri { a, imm } => {
                trf[a.index()] = shift_trits(trf[a.index()], -signed_value(imm));
            }
            Sli { a, imm } => {
                trf[a.index()] = shift_trits(trf[a.index()], signed_value(imm));
            }
            Lui { a, imm } => {
                // {imm[3:0], 00000}: low five trits zero.
                let mut out = [Trit::Z; 9];
                for (i, t) in imm.trits().iter().enumerate() {
                    out[5 + i] = *t;
                }
                trf[a.index()] = Trits::from_trits(out);
            }
            Li { a, imm } => {
                // {TRF[Ta][8:5], imm[4:0]}: upper trits preserved.
                let mut out = trf[a.index()].trits();
                for (i, t) in imm.trits().iter().enumerate() {
                    out[i] = *t;
                }
                trf[a.index()] = Trits::from_trits(out);
            }
            // B-type register effects (the links) are handled together
            // with the control transfer below, so `JALR tX, tX, k`
            // reads its base before the link overwrites it.
            Beq { .. } | Bne { .. } | Jal { .. } | Jalr { .. } => {}
            Load { a, b, offset } => {
                let addr = address_value(trf[b.index()], offset);
                let idx = self.resolve(addr, pc)?;
                let v = self.state.tdm.read(idx).expect("resolved in range");
                self.state.trf[a.index()] = v;
            }
            Store { a, b, offset } => {
                let addr = address_value(trf[b.index()], offset);
                let idx = self.resolve(addr, pc)?;
                let v = self.state.trf[a.index()];
                let old_cell = self.state.tdm.read(idx).expect("resolved in range");
                self.state.tdm.write(idx, v).expect("resolved in range");
                if E::ON {
                    mem_write = Some(MemWrite {
                        old: old_cell,
                        new: v,
                    });
                }
            }
        }

        // Control flow (per-trit address arithmetic for JALR).
        let trf = &mut self.state.trf;
        let next: i64 = match instr {
            Beq { b, cond, offset } => {
                if trf[b.index()].trits()[0] == cond {
                    pc as i64 + signed_value(offset)
                } else {
                    pc as i64 + 1
                }
            }
            Bne { b, cond, offset } => {
                if trf[b.index()].trits()[0] != cond {
                    pc as i64 + signed_value(offset)
                } else {
                    pc as i64 + 1
                }
            }
            Jal { a, offset } => {
                let target = pc as i64 + signed_value(offset);
                trf[a.index()] = link;
                target
            }
            Jalr { a, b, offset } => {
                // Target = base + offset computed tritwise *before* the
                // link write, so `JALR tX, tX, k` uses the old base.
                let target = address_value(trf[b.index()], offset);
                trf[a.index()] = link;
                target
            }
            _ => pc as i64 + 1,
        };

        if next < 0 || next as usize > self.text.len() {
            return Err(SimError::PcOutOfRange {
                at: self.instructions,
                pc: next,
                tim_size: self.text.len(),
            });
        }
        if E::ON {
            sink.writeback(&Writeback {
                pc,
                op: OPCODES[instr.opcode()],
                // Encoded here rather than read from the image's table,
                // so the cross-backend checks cover that table too.
                fetch: fetch_words(pc, &instr),
                reg: instr.writes().map(|dest| RegWrite {
                    reg: dest.index() as u8,
                    old: old_reg.expect("captured above"),
                    new: self.state.reg(dest),
                }),
                mem: mem_write,
                bus: bus.expect("captured above"),
            });
        }
        let next = next as usize;
        let halt = if next == pc {
            Some(HaltReason::JumpToSelf)
        } else if next == self.text.len() {
            self.state.pc = next;
            Some(HaltReason::FellOffEnd)
        } else {
            self.state.pc = next;
            None
        };
        if let Some(reason) = halt {
            self.halted = Some(reason);
            sink.halt();
        }
        Ok(halt)
    }
}

impl Core for ReferenceSim {
    fn backend(&self) -> Backend {
        Backend::Reference
    }

    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        crate::core::step(self)
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        crate::core::run_for(self, budget)
    }

    fn state(&self) -> &CoreState {
        &self.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.state
    }

    fn halted(&self) -> Option<HaltReason> {
        self.halted
    }

    fn retired(&self) -> u64 {
        self.instructions
    }

    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.mix)
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            backend: Backend::Reference,
            text_len: self.text.len(),
            state: self.state.clone(),
            retired: self.instructions,
            halted: self.halted,
            mix: self.mix,
            micro: Micro::Architectural,
        }
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        checkpoint.guard(Backend::Reference, self.text.len())?;
        self.state = checkpoint.state.clone();
        self.instructions = checkpoint.retired;
        self.halted = checkpoint.halted;
        self.mix = checkpoint.mix;
        Ok(())
    }
}

/// The value the TALU drives onto the result bus for `instr`, re-derived
/// per trit from the pre-execution register file — the reference
/// counterpart of the packed ALU's return value, for the write-back
/// record. Only runs when an energy accountant is attached.
fn bus_tritwise(instr: &Instruction, trf: &[Word9; 9], pc: usize) -> Word9 {
    use Instruction::*;
    match instr {
        Mv { b, .. } => trf[b.index()],
        Pti { b, .. } => map_trits(trf[b.index()], Trit::pti),
        Nti { b, .. } => map_trits(trf[b.index()], Trit::nti),
        Sti { b, .. } => map_trits(trf[b.index()], Trit::sti),
        And { a, b } => zip_trits(trf[a.index()], trf[b.index()], Trit::and),
        Or { a, b } => zip_trits(trf[a.index()], trf[b.index()], Trit::or),
        Xor { a, b } => zip_trits(trf[a.index()], trf[b.index()], Trit::xor),
        Add { a, b } => arith::add_tritwise(trf[a.index()], trf[b.index()]).0,
        Sub { a, b } => {
            let neg_b = map_trits(trf[b.index()], Trit::sti);
            arith::add_tritwise(trf[a.index()], neg_b).0
        }
        Sr { a, b } => shift_trits(trf[a.index()], -low2_value(trf[b.index()])),
        Sl { a, b } => shift_trits(trf[a.index()], low2_value(trf[b.index()])),
        Comp { a, b } => compare_trits(trf[a.index()], trf[b.index()]),
        Andi { a, imm } => zip_trits(trf[a.index()], extend(*imm), Trit::and),
        Addi { a, imm } => arith::add_tritwise(trf[a.index()], extend(*imm)).0,
        Sri { a, imm } => shift_trits(trf[a.index()], -signed_value(*imm)),
        Sli { a, imm } => shift_trits(trf[a.index()], signed_value(*imm)),
        Lui { imm, .. } => {
            let mut out = [Trit::Z; 9];
            for (i, t) in imm.trits().iter().enumerate() {
                out[5 + i] = *t;
            }
            Trits::from_trits(out)
        }
        Li { a, imm } => {
            let mut out = trf[a.index()].trits();
            for (i, t) in imm.trits().iter().enumerate() {
                out[i] = *t;
            }
            Trits::from_trits(out)
        }
        Beq { .. } | Bne { .. } => Word9::ZERO,
        Jal { .. } | Jalr { .. } => word_from_value(pc as i64 + 1),
        Load { b, offset, .. } => arith::add_tritwise(trf[b.index()], extend(*offset)).0,
        Store { b, offset, .. } => arith::add_tritwise(trf[b.index()], extend(*offset)).0,
    }
}

/// Applies a per-trit unary function.
fn map_trits(w: Word9, f: fn(Trit) -> Trit) -> Word9 {
    let mut out = w.trits();
    for t in &mut out {
        *t = f(*t);
    }
    Trits::from_trits(out)
}

/// Applies a per-trit binary function.
fn zip_trits(a: Word9, b: Word9, f: fn(Trit, Trit) -> Trit) -> Word9 {
    let at = a.trits();
    let bt = b.trits();
    let mut out = [Trit::Z; 9];
    for i in 0..9 {
        out[i] = f(at[i], bt[i]);
    }
    Trits::from_trits(out)
}

/// The signed value of a small immediate, summed per trit
/// (`Σ tᵢ·3^i`) rather than through the packed `to_i64` path.
fn signed_value<const N: usize>(imm: Trits<N>) -> i64 {
    let mut v = 0i64;
    let mut scale = 1i64;
    for t in imm.trits() {
        v += i64::from(t.value()) * scale;
        scale *= 3;
    }
    v
}

/// The balanced value of the low two trits of `w` (the hardware's
/// shift-amount field).
fn low2_value(w: Word9) -> i64 {
    let t = w.trits();
    i64::from(t[0].value()) + 3 * i64::from(t[1].value())
}

/// Builds a [`Word9`] from an in-range signed value one trit at a
/// time — the balanced-ternary digit expansion, not the packed
/// converter. (Used for link values, which are always small and
/// non-negative.)
fn word_from_value(v: i64) -> Word9 {
    canonical_balanced(v)
}

/// Canonical balanced-ternary expansion of `v ∈ [−9841, 9841]`.
fn canonical_balanced(v: i64) -> Word9 {
    debug_assert!((-9841..=9841).contains(&v), "{v} outside the 9-trit range");
    let mut out = [Trit::Z; 9];
    let mut rest = v;
    for slot in &mut out {
        // Truncating remainder is in {-2..=2}; fold ±2 into ∓1 with a
        // carry, giving the balanced digit set {-1, 0, +1}.
        let mut digit = rest % 3;
        rest /= 3;
        if digit == 2 {
            digit = -1;
            rest += 1;
        } else if digit == -2 {
            digit = 1;
            rest -= 1;
        }
        *slot = match digit {
            -1 => Trit::N,
            0 => Trit::Z,
            _ => Trit::P,
        };
    }
    Trits::from_trits(out)
}

/// Per-trit comparison, most significant trit first (the TALU's
/// trit-serial comparator): the first differing trit decides.
fn compare_trits(a: Word9, b: Word9) -> Word9 {
    let at = a.trits();
    let bt = b.trits();
    let mut sign = Trit::Z;
    for i in (0..9).rev() {
        if at[i] != bt[i] {
            sign = if at[i].value() > bt[i].value() {
                Trit::P
            } else {
                Trit::N
            };
            break;
        }
    }
    let mut out = [Trit::Z; 9];
    out[0] = sign;
    Trits::from_trits(out)
}

/// Shift by a signed trit count: positive = left (toward the MST),
/// negative = right; explicit trit-array surgery.
fn shift_trits(w: Word9, amount: i64) -> Word9 {
    let t = w.trits();
    let mut out = [Trit::Z; 9];
    if amount >= 0 {
        let k = amount as usize;
        for i in 0..9 {
            if i >= k {
                out[i] = t[i - k];
            }
        }
    } else {
        let k = (-amount) as usize;
        for i in 0..9 {
            if i + k < 9 {
                out[i] = t[i + k];
            }
        }
    }
    Trits::from_trits(out)
}

/// Sign-extends an immediate to nine trits (in balanced ternary that
/// is literal zero-padding of the upper trits).
fn extend<const N: usize>(imm: Trits<N>) -> Word9 {
    let src = imm.trits();
    let mut out = [Trit::Z; 9];
    out[..N].copy_from_slice(&src);
    Trits::from_trits(out)
}

/// Effective address `base + offset`, added tritwise, read as a signed
/// per-trit value.
fn address_value<const N: usize>(base: Word9, offset: Trits<N>) -> i64 {
    let (sum, _) = arith::add_tritwise(base, extend(offset));
    signed_value(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;
    use art9_isa::TReg;

    fn run(src: &str) -> ReferenceSim {
        let p = assemble(src).unwrap();
        let mut r = SimBuilder::new(&p).build_reference();
        r.run(100_000).unwrap();
        r
    }

    #[test]
    fn countdown_loop_matches_functional_semantics() {
        let r = run("LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n");
        assert_eq!(r.state().reg(TReg::T4).to_i64(), 55);
        assert_eq!(r.halted(), Some(HaltReason::JumpToSelf));
    }

    #[test]
    fn load_store_roundtrip() {
        let r = run(
            ".data\nv: .word 41, 0\n.text\nLI t2, 0\nLOAD t3, t2, 0\nADDI t3, 1\n\
             STORE t3, t2, 1\nLOAD t4, t2, 1\nJAL t0, 0\n",
        );
        assert_eq!(r.state().reg(TReg::T4).to_i64(), 42);
        assert_eq!(r.state().tdm.read(1).unwrap().to_i64(), 42);
    }

    #[test]
    fn memory_fault_detected() {
        let p = assemble("LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\n").unwrap();
        let mut r = SimBuilder::new(&p).build_reference();
        assert!(matches!(
            r.run(10),
            Err(SimError::MemoryFault { pc: 2, .. })
        ));
    }

    #[test]
    fn canonical_balanced_round_trips() {
        for v in [-9841i64, -4821, -100, -1, 0, 1, 5, 100, 4821, 9841] {
            assert_eq!(canonical_balanced(v).to_i64(), v, "{v}");
        }
    }

    #[test]
    fn compare_matches_packed() {
        for a in [-9841i64, -100, -1, 0, 1, 100, 9841] {
            for b in [-9841i64, -2, 0, 2, 9841] {
                let wa = Word9::from_i64(a).unwrap();
                let wb = Word9::from_i64(b).unwrap();
                assert_eq!(compare_trits(wa, wb), wa.compare(wb), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn shift_matches_packed() {
        for v in [-9841i64, -121, -5, 0, 5, 121, 9841] {
            let w = Word9::from_i64(v).unwrap();
            for k in 0..=4i64 {
                assert_eq!(shift_trits(w, k), w.shl(k as usize), "{v} shl {k}");
                assert_eq!(shift_trits(w, -k), w.shr(k as usize), "{v} shr {k}");
            }
        }
    }
}
