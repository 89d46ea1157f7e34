//! The direct-threaded execution backend.
//!
//! [`ThreadedSim`] compiles a [`PredecodedProgram`] **once** into
//! direct-threaded host code and then executes that, instead of
//! re-interpreting `Instruction` values every step the way
//! [`FunctionalSim`](crate::FunctionalSim) does. Every instruction has
//! exactly one *kernel*: an always-inlined body that reads its operands
//! — register indices, pre-resized immediates, precomputed link words,
//! integer offsets — from a pre-extracted operand record, its *slot*.
//! The compiled form is an array of ops, each a host function pointer
//! plus one slot, so the hot loop is an indirect call per op with no
//! decode, no `match`, and no immediate conversion work.
//!
//! Three further techniques stack on top (see `docs/PERFORMANCE.md`):
//!
//! * **Superblock formation** over the precomputed link table: the
//!   program is partitioned into maximal straight-line runs
//!   (*superblocks*) whose boundaries are the static control-flow
//!   targets and successors. Inside a block there is no per-instruction
//!   budget check, halt check or PC update — those happen only at block
//!   boundaries, which is exactly where control can transfer.
//! * **Fused pairs** for the adjacent shapes of one pair table (logic +
//!   compare, address compute + LOAD/STORE, the `ADDI`/`MV`/`COMP` loop
//!   idiom, …): one host call retires two architectural instructions.
//!   A pair op carries both components' slots and its body is composed
//!   from their two kernels, so it cannot drift from unfused execution.
//! * **Inline-cached TDM bases**: each static LOAD/STORE site caches
//!   the last base-register word next to its resolved integer value, so
//!   the common in-loop case skips the balanced-ternary address
//!   conversion entirely.
//!
//! Budget checks run only at superblock boundaries, but
//! [`Core::run_for`] stays *exact*: a block is entered through the fast
//! path only when the remaining budget covers the whole block, and the
//! tail (or any entry at a non-head PC, e.g. right after a mid-block
//! [`Checkpoint`] restore) falls back to precise single-op stepping.
//! `Budget::Steps`/`Budget::Retired` therefore cut at the same
//! instruction boundaries as the architectural interpreters.
//!
//! The backend is a compiled accelerator over the functional core: a
//! `ThreadedSim` embeds one [`FunctionalSim`](crate::FunctionalSim),
//! which owns the architectural state, the retired count, the halt
//! reason, the observers and the only observed interpreter. The
//! compiled paths update that state in place; with observers attached,
//! every step *is* the functional core's `step`, so event order is identical
//! to the functional backend by construction. `instruction_mix` stays
//! exact across fused ops, and [`Checkpoint`] snapshot/restore is
//! bit-identical at any architectural boundary — checkpoints
//! cross-restore between the architectural backends.

use std::sync::Arc;

use art9_isa::{Instruction, TReg};
use ternary::{TernaryError, Trit, Word9};

use crate::checkpoint::Checkpoint;
use crate::core::{Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::shift;
use crate::functional::{CoreState, FunctionalSim, HaltReason};
use crate::observer::ObserverSet;
use crate::predecode::PredecodedProgram;

/// How control leaves a compiled op. Deliberately register-sized: this
/// is the return value of every indirect call in the hot loop, so the
/// fat fault payload lives on the [`Machine`] instead (the cold path
/// parks it there and returns the bare [`Step::Fault`] tag).
#[derive(Clone, Copy)]
enum Step {
    /// Fall through to the next instruction (non-control ops, and a
    /// branch not taken).
    Next,
    /// Transfer to an in-range instruction address.
    Jump(u32),
    /// The machine halted; the second field is the final architectural
    /// PC (the transfer's own address for jump-to-self, the text length
    /// for falling off the end).
    Halt(HaltReason, u32),
    /// The op faulted; the payload is in [`Machine::fault`].
    Fault,
}

/// A fault raised by a compiled op, converted to [`SimError`] by the
/// engine once the retirement counters are settled.
enum Fault {
    /// TDM access violation at instruction address `pc`. `retired` is
    /// how many architectural instructions of the faulting (possibly
    /// fused) op retired, including the faulting one — 1 when the
    /// first component faulted, 2 when the second did — so partial
    /// fused pairs settle exactly.
    Mem {
        pc: usize,
        cause: TernaryError,
        retired: u8,
    },
    /// Control transfer left the instruction memory; `at_pc` is the
    /// address of the transferring instruction (which may be the second
    /// component of a fused pair).
    Wild { target: i64, at_pc: u32 },
}

/// The host code behind one compiled op.
type ExecFn = fn(&mut Machine<'_>, &Op) -> Step;

/// The mutable execution context handed to every [`ExecFn`].
struct Machine<'m> {
    state: &'m mut CoreState,
    icache: &'m mut [InlineCache],
    text_len: usize,
    /// Fault payload parked by an op that returned [`Step::Fault`].
    fault: Option<Fault>,
}

/// One inline-cache entry for a static LOAD/STORE/JALR site: the last
/// base word seen there, next to its resolved integer value. Keyed purely on
/// the word value, so it never needs invalidation — not even across
/// [`Core::restore`].
#[derive(Debug, Clone, Copy)]
struct InlineCache {
    base: Word9,
    value: i64,
}

impl Default for InlineCache {
    /// `ZERO ↦ 0` is itself a valid mapping, so the cold state needs no
    /// sentinel.
    fn default() -> Self {
        InlineCache {
            base: Word9::ZERO,
            value: 0,
        }
    }
}

/// One instruction's pre-extracted operands: everything its kernel
/// reads besides the machine. Which fields are live is determined by
/// the kernel; the rest stay zero.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Pre-resized immediate, link word, LUI constant, or LOAD/STORE
    /// offset word.
    imm: Word9,
    /// The offset of a branch, JAL, JALR, LOAD or STORE as an integer,
    /// or the resolved count of a constant shift.
    off: i32,
    /// Inline-cache site of a LOAD, STORE or JALR.
    site: u32,
    /// Address of the instruction.
    pc: u32,
    /// `Ta` register index.
    a: u8,
    /// `Tb` register index.
    b: u8,
    /// Branch condition trit.
    cond: Trit,
    /// Dense opcode, for the instruction mix.
    opcode: u8,
}

/// One compiled op: a single instruction (`n == 1`, slot 0) or a fused
/// pair (`n == 2`, slots 0 and 1 in program order).
#[derive(Debug, Clone, Copy)]
struct Op {
    exec: ExecFn,
    s: [Slot; 2],
    /// Architectural instructions this op retires.
    n: u8,
}

/// One superblock: a maximal straight-line run of instructions entered
/// only at its head. Only its last instruction can transfer control;
/// when none does, execution continues at `start + len` (halting when
/// that is the end of the text).
#[derive(Debug)]
struct Block {
    /// Address of the block head.
    start: usize,
    /// Architectural instructions the block covers (and retires, every
    /// time it executes — the terminator retires whether or not it
    /// takes its transfer).
    len: usize,
    /// The fused op sequence the hot path runs.
    fused: Vec<Op>,
    /// Sparse per-opcode retirement counts (sums to `len`), applied in
    /// one shot when the block completes.
    mix: Vec<(u8, u32)>,
}

/// The compiled program: shared, immutable, compiled once per
/// [`PredecodedProgram`] image (cached on the image itself) and reused
/// by every [`ThreadedSim`] built from it.
#[derive(Debug)]
pub(crate) struct ThreadedCode {
    /// One unfused op per pc — the precise path and the budget tail.
    ops: Vec<Op>,
    blocks: Vec<Block>,
    /// pc → index of the covering block, for every pc (a head is the
    /// pc equal to its block's `start`). Lets a dynamic mid-block
    /// landing (a JALR target that isn't a static head) dispatch the
    /// unfused tail of its block instead of falling back to per-step
    /// execution.
    block_of: Vec<u32>,
    /// Number of inline-cache sites (static LOAD/STORE/JALR
    /// occurrences).
    sites: usize,
}

// --- kernels ---------------------------------------------------------------
//
// Each kernel mirrors `talu` + the functional step for exactly one
// instruction, with every decode-time quantity pre-extracted into its
// `Slot`. Kernels are the only instruction semantics in this backend:
// `single` turns one into an unfused op body, and `pair` composes two
// into a fused one. The differential fuzz oracles and the cross-backend
// property tests hold them to the shared semantics in `exec.rs`.

/// One instruction's compiled semantics. `pos` is the instruction's
/// position in its op — 1, or 2 for the second component of a pair —
/// and is how many of the op's instructions a fault in it retires.
trait Kernel {
    fn run(m: &mut Machine<'_>, s: &Slot, pos: u8) -> Step;
}

/// The body of an unfused op.
fn single<K: Kernel>(m: &mut Machine<'_>, op: &Op) -> Step {
    K::run(m, &op.s[0], 1)
}

/// The body of a fused pair: the components run in program order, so
/// intra-pair register dependencies behave exactly as in sequential
/// execution, and the second runs only when the first falls through —
/// a fault in the first retires just that one.
fn pair<K1: Kernel, K2: Kernel>(m: &mut Machine<'_>, op: &Op) -> Step {
    match K1::run(m, &op.s[0], 1) {
        Step::Next => K2::run(m, &op.s[1], 2),
        step => step,
    }
}

/// Defines kernels as unit types. A register kernel `Name(t, s) = expr;`
/// sets `Ta` to `expr` over the register file `t` and falls through;
/// any other kernel is `Name(m, s, pos) { body }`.
macro_rules! kernels {
    () => {};
    ($name:ident($t:pat_param, $s:ident) = $e:expr; $($rest:tt)*) => {
        kernels! {
            $name(m, $s, _) {
                let t = &mut m.state.trf;
                let v = {
                    let $t = &*t;
                    $e
                };
                t[$s.a as usize] = v;
                Step::Next
            }
            $($rest)*
        }
    };
    ($name:ident($m:ident, $s:ident, $pos:pat_param) $body:block $($rest:tt)*) => {
        pub(super) struct $name;

        impl Kernel for $name {
            #[inline(always)]
            fn run($m: &mut Machine<'_>, $s: &Slot, $pos: u8) -> Step $body
        }

        kernels! { $($rest)* }
    };
}

/// The kernels, named after their instructions; SRI and SLI share the
/// two constant shifts their direction resolves to at compile time.
mod kernel {
    use super::*;

    kernels! {
        Mv(t, s) = t[s.b as usize];
        Pti(t, s) = t[s.b as usize].pti();
        Nti(t, s) = t[s.b as usize].nti();
        Sti(t, s) = t[s.b as usize].sti();
        And(t, s) = t[s.a as usize].and(t[s.b as usize]);
        Or(t, s) = t[s.a as usize].or(t[s.b as usize]);
        Xor(t, s) = t[s.a as usize].xor(t[s.b as usize]);
        Add(t, s) = t[s.a as usize].wrapping_add(t[s.b as usize]);
        Sub(t, s) = t[s.a as usize].wrapping_sub(t[s.b as usize]);
        Sr(t, s) = shift(t[s.a as usize], false, t[s.b as usize].field::<2>(0));
        Sl(t, s) = shift(t[s.a as usize], true, t[s.b as usize].field::<2>(0));
        Comp(t, s) = t[s.a as usize].compare(t[s.b as usize]);
        Andi(t, s) = t[s.a as usize].and(s.imm);
        Addi(t, s) = t[s.a as usize].wrapping_add(s.imm);
        ShlConst(t, s) = t[s.a as usize].shl(s.off as usize);
        ShrConst(t, s) = t[s.a as usize].shr(s.off as usize);
        // LUI's whole result is a compile-time constant.
        Lui(_, s) = s.imm;
        Li(t, s) = t[s.a as usize].with_field::<5>(0, s.imm.field::<5>(0));

        Beq(m, s, _) {
            let taken = m.state.trf[s.b as usize].lst() == s.cond;
            branch(m, s, taken)
        }
        Bne(m, s, _) {
            let taken = m.state.trf[s.b as usize].lst() != s.cond;
            branch(m, s, taken)
        }
        Jal(m, s, _) {
            m.state.trf[s.a as usize] = s.imm; // link = pc + 1, precomputed
            resolve_next(m, s.pc as i64 + s.off as i64, s.pc as usize)
        }
        Jalr(m, s, _) {
            // Target reads Tb before the link write lands in Ta (a == b
            // case). Each JALR site inline-caches its last base word
            // next to the computed target (return addresses repeat
            // heavily), skipping the balanced-ternary conversion on a
            // hit.
            let w = m.state.trf[s.b as usize];
            let ic = &mut m.icache[s.site as usize];
            let target = if ic.base == w {
                ic.value
            } else {
                let t = wrap9(w.to_i64() + s.off as i64);
                *ic = InlineCache { base: w, value: t };
                t
            };
            m.state.trf[s.a as usize] = s.imm;
            resolve_next(m, target, s.pc as usize)
        }
        Load(m, s, pos) {
            let Some(i) = tdm_index(m, s, pos) else {
                return Step::Fault;
            };
            match m.state.tdm.read(i) {
                Ok(v) => {
                    m.state.trf[s.a as usize] = v;
                    Step::Next
                }
                Err(cause) => mem_fault(m, s, pos, cause),
            }
        }
        Store(m, s, pos) {
            let v = m.state.trf[s.a as usize];
            let Some(i) = tdm_index(m, s, pos) else {
                return Step::Fault;
            };
            match m.state.tdm.write(i, v) {
                Ok(()) => Step::Next,
                Err(cause) => mem_fault(m, s, pos, cause),
            }
        }
    }
}

/// Wraps the integer sum of two 9-trit values back into the balanced
/// word range, exactly as `Word9::wrapping_add` does.
#[inline]
fn wrap9(v: i64) -> i64 {
    if v > Word9::MAX_VALUE {
        v - Word9::MODULUS
    } else if v < -Word9::MAX_VALUE {
        v + Word9::MODULUS
    } else {
        v
    }
}

/// Classifies a computed next-PC exactly like the functional step:
/// in-range → jump, own address → jump-to-self halt, text length →
/// fell-off-end halt, anything else → wild-transfer fault.
#[inline]
fn resolve_next(m: &mut Machine, target: i64, pc: usize) -> Step {
    if target < 0 || target as usize > m.text_len {
        m.fault = Some(Fault::Wild {
            target,
            at_pc: pc as u32,
        });
        return Step::Fault;
    }
    let t = target as usize;
    if t == pc {
        Step::Halt(HaltReason::JumpToSelf, pc as u32)
    } else if t == m.text_len {
        Step::Halt(HaltReason::FellOffEnd, t as u32)
    } else {
        Step::Jump(t as u32)
    }
}

/// A conditional branch: to `pc + offset` when taken, else on to
/// `pc + 1` like any fall-through. (Kept a host branch on purpose: the
/// dispatcher's next PC is then predicted instead of waiting on the
/// compared register, as a branchless select of the target would.)
#[inline(always)]
fn branch(m: &mut Machine, s: &Slot, taken: bool) -> Step {
    if taken {
        resolve_next(m, s.pc as i64 + s.off as i64, s.pc as usize)
    } else {
        Step::Next
    }
}

/// Resolves a LOAD/STORE effective address through the site's inline
/// cache: on a base-word hit the address is an integer add with one
/// conditional balanced wrap (matching `wrapping_add` exactly); on a
/// miss, the full ternary resolve runs and refills the cache. `None`
/// parks the fault on the machine. (An `Option` rather than a
/// `Result`: it comes back in registers on the hot path.)
#[inline]
fn tdm_index(m: &mut Machine, s: &Slot, pos: u8) -> Option<usize> {
    let base = m.state.trf[s.b as usize];
    let off = s.off as i64;
    let ic = &mut m.icache[s.site as usize];
    if ic.base == base {
        let v = wrap9(ic.value + off);
        let size = m.state.tdm.size();
        if v < 0 || v as usize >= size {
            mem_fault(m, s, pos, TernaryError::AddressRange { address: v, size });
            return None;
        }
        Some(v as usize)
    } else {
        match m.state.tdm.resolve(base.wrapping_add(s.imm)) {
            Ok(idx) => {
                // The base's integer value is derived from the resolved
                // index arithmetically (undoing the offset modulo the
                // balanced word range) instead of a second ternary
                // conversion.
                *ic = InlineCache {
                    base,
                    value: wrap9(idx as i64 - off),
                };
                Some(idx)
            }
            Err(cause) => {
                mem_fault(m, s, pos, cause);
                None
            }
        }
    }
}

/// Parks a TDM fault raised by the instruction in `s`.
#[cold]
fn mem_fault(m: &mut Machine, s: &Slot, pos: u8, cause: TernaryError) -> Step {
    m.fault = Some(Fault::Mem {
        pc: s.pc as usize,
        cause,
        retired: pos,
    });
    Step::Fault
}

// --- compilation -----------------------------------------------------------

/// Compiles one instruction into its unfused op, pre-extracting every
/// decode-time quantity into slot 0.
fn compile_op(instr: &Instruction, pc: usize, link: Word9, sites: &mut u32) -> Op {
    use Instruction::*;
    let r = |t: TReg| t.index() as u8;
    let mut site = || {
        let s = *sites;
        *sites += 1;
        s
    };
    let mut s = Slot {
        pc: pc as u32,
        opcode: instr.opcode() as u8,
        ..Slot::default()
    };
    match *instr {
        Mv { a, b }
        | Pti { a, b }
        | Nti { a, b }
        | Sti { a, b }
        | And { a, b }
        | Or { a, b }
        | Xor { a, b }
        | Add { a, b }
        | Sub { a, b }
        | Sr { a, b }
        | Sl { a, b }
        | Comp { a, b } => (s.a, s.b) = (r(a), r(b)),
        Andi { a, imm } | Addi { a, imm } => (s.a, s.imm) = (r(a), imm.resize::<9>()),
        // Balanced shift amounts resolve at compile time: a negative
        // amount reverses the direction (DESIGN.md §3.2), which picks
        // the kernel below; the slot keeps the magnitude.
        Sri { a, imm } | Sli { a, imm } => (s.a, s.off) = (r(a), imm.to_i64().abs() as i32),
        Lui { a, imm } => (s.a, s.imm) = (r(a), Word9::ZERO.with_field::<4>(5, imm)),
        Li { a, imm } => (s.a, s.imm) = (r(a), Word9::ZERO.with_field::<5>(0, imm)),
        Beq { b, cond, offset } | Bne { b, cond, offset } => {
            (s.b, s.cond, s.off) = (r(b), cond, offset.to_i64() as i32)
        }
        Jal { a, offset } => (s.a, s.imm, s.off) = (r(a), link, offset.to_i64() as i32),
        Jalr { a, b, offset } => {
            (s.a, s.b, s.imm, s.off) = (r(a), r(b), link, offset.to_i64() as i32);
            s.site = site();
        }
        Load { a, b, offset } | Store { a, b, offset } => {
            (s.a, s.b, s.imm, s.off) = (r(a), r(b), offset.resize::<9>(), offset.to_i64() as i32);
            s.site = site();
        }
    }
    let exec: ExecFn = match *instr {
        Mv { .. } => single::<kernel::Mv>,
        Pti { .. } => single::<kernel::Pti>,
        Nti { .. } => single::<kernel::Nti>,
        Sti { .. } => single::<kernel::Sti>,
        And { .. } => single::<kernel::And>,
        Or { .. } => single::<kernel::Or>,
        Xor { .. } => single::<kernel::Xor>,
        Add { .. } => single::<kernel::Add>,
        Sub { .. } => single::<kernel::Sub>,
        Sr { .. } => single::<kernel::Sr>,
        Sl { .. } => single::<kernel::Sl>,
        Comp { .. } => single::<kernel::Comp>,
        Andi { .. } => single::<kernel::Andi>,
        Addi { .. } => single::<kernel::Addi>,
        Sri { imm, .. } if imm.to_i64() < 0 => single::<kernel::ShlConst>,
        Sli { imm, .. } if imm.to_i64() >= 0 => single::<kernel::ShlConst>,
        Sri { .. } | Sli { .. } => single::<kernel::ShrConst>,
        Lui { .. } => single::<kernel::Lui>,
        Li { .. } => single::<kernel::Li>,
        Beq { .. } => single::<kernel::Beq>,
        Bne { .. } => single::<kernel::Bne>,
        Jal { .. } => single::<kernel::Jal>,
        Jalr { .. } => single::<kernel::Jalr>,
        Load { .. } => single::<kernel::Load>,
        Store { .. } => single::<kernel::Store>,
    };
    Op {
        exec,
        s: [s, Slot::default()],
        n: 1,
    }
}

/// Expands the pair table into [`fuse`] (and, for the tests, the list
/// of its shapes): each row `First + Second` fuses that adjacent pair
/// into one op running `pair::<kernel::First, kernel::Second>`.
macro_rules! pair_table {
    ($($first:ident + $second:ident),* $(,)?) => {
        /// Fuses two adjacent unfused ops into one when their
        /// instructions form a shape of the pair table. Components keep
        /// program order inside the fused body, so `None` is only about
        /// profitability, never correctness.
        fn fuse(first: &Op, second: &Op, i1: &Instruction, i2: &Instruction) -> Option<Op> {
            let exec: ExecFn = match (i1, i2) {
                $(
                    (Instruction::$first { .. }, Instruction::$second { .. }) => {
                        pair::<kernel::$first, kernel::$second>
                    }
                )*
                _ => return None,
            };
            Some(Op {
                exec,
                s: [first.s[0], second.s[0]],
                n: 2,
            })
        }

        /// Every shape of the pair table, as `(first, second)`
        /// instruction names.
        #[cfg(test)]
        const PAIR_SHAPES: &[(&str, &str)] = &[$((stringify!($first), stringify!($second))),*];
    };
}

// The pair table: the adjacent shapes that occur in compiled programs
// (docs/PERFORMANCE.md §8 has their traffic). Fusion is greedy in
// program order within a superblock.
pair_table! {
    Mv + Comp,
    Mv + Addi,
    Addi + Mv,
    Addi + Addi,
    Add + Add,
    Sub + Li,
    Li + Sub,
    Add + Store,
    Addi + Store,
    Mv + Store,
    Add + Load,
    Addi + Load,
    Mv + Load,
    Load + Load,
    Load + Store,
    Store + Load,
    Store + Store,
    Load + Mv,
    Store + Mv,
    Load + Comp,
    Load + Add,
    Load + Addi,
    Comp + Beq,
    Comp + Bne,
}

impl ThreadedCode {
    /// Compiles the whole image: unfused ops, block heads over the link
    /// table, superblocks, and the fused hot sequences.
    pub(crate) fn compile(image: &PredecodedProgram) -> Self {
        let text = image.text_arc();
        let links = image.links_arc();
        let len = text.len();
        let mut sites: u32 = 0;
        let ops: Vec<Op> = text
            .iter()
            .enumerate()
            .map(|(pc, i)| compile_op(i, pc, links[pc], &mut sites))
            .collect();

        // Block heads: the entry point, every static in-range control
        // target, and every successor of a control transfer (JALR
        // targets are dynamic; landing mid-block runs the unfused tail
        // of the covering block up to the next head).
        let mut head = vec![false; len];
        if len > 0 {
            head[0] = true;
        }
        for (pc, instr) in text.iter().enumerate() {
            if !instr.is_control_flow() {
                continue;
            }
            if pc + 1 < len {
                head[pc + 1] = true;
            }
            let target = match instr {
                Instruction::Beq { offset, .. } | Instruction::Bne { offset, .. } => {
                    Some(pc as i64 + offset.to_i64())
                }
                Instruction::Jal { offset, .. } => Some(pc as i64 + offset.to_i64()),
                _ => None,
            };
            if let Some(t) = target {
                if t >= 0 && (t as usize) < len {
                    head[t as usize] = true;
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![u32::MAX; len];
        let mut start = 0usize;
        while start < len {
            // `end` is the inclusive index of the block's last
            // instruction: extend until a control-flow terminator, the
            // next head, or the end of text.
            let mut end = start;
            while !text[end].is_control_flow() && end + 1 < len && !head[end + 1] {
                end += 1;
            }
            let mut fused = Vec::new();
            let mut i = start;
            while i <= end {
                if i < end {
                    if let Some(f) = fuse(&ops[i], &ops[i + 1], &text[i], &text[i + 1]) {
                        fused.push(f);
                        i += 2;
                        continue;
                    }
                }
                fused.push(ops[i]);
                i += 1;
            }

            let mut counts = [0u32; Instruction::OPCODE_COUNT];
            for instr in text[start..=end].iter() {
                counts[instr.opcode()] += 1;
            }
            let mix: Vec<(u8, u32)> = counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(o, &c)| (o as u8, c))
                .collect();

            for slot in block_of.iter_mut().take(end + 1).skip(start) {
                *slot = blocks.len() as u32;
            }
            blocks.push(Block {
                start,
                len: end - start + 1,
                fused,
                mix,
            });
            start = end + 1;
        }

        ThreadedCode {
            ops,
            blocks,
            block_of,
            sites: sites as usize,
        }
    }
}

/// The direct-threaded instruction-set simulator — architecturally
/// identical to [`FunctionalSim`](crate::FunctionalSim), several times
/// faster. The module-level docs describe the compilation pipeline.
///
/// # Examples
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Backend, Budget, Core, SimBuilder};
///
/// let program = assemble("
///     LI   t3, 10
///     LI   t4, 0
/// loop:
///     ADD  t4, t3
///     ADDI t3, -1
///     MV   t7, t3
///     COMP t7, t0
///     BEQ  t7, +, loop
///     JAL  t0, 0
/// ")?;
/// let mut sim = SimBuilder::new(&program)
///     .backend(Backend::Threaded)
///     .build();
/// sim.run_for(Budget::Steps(10_000))?;
/// assert_eq!(sim.state().reg("t4".parse()?).to_i64(), 55);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ThreadedSim {
    code: Arc<ThreadedCode>,
    /// The architectural core: state, retired count, halt reason, the
    /// directly-credited mix (the precise step path and partial blocks)
    /// and the observers. Observed steps run through `arch.step()`.
    arch: FunctionalSim,
    icache: Vec<InlineCache>,
    /// Completed executions per superblock. The hot loop bumps one
    /// counter per block run; the per-opcode mix is materialized
    /// lazily by `full_mix`.
    block_execs: Vec<u64>,
}

impl ThreadedSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        observers: ObserverSet,
    ) -> Self {
        let code = image.threaded_code();
        let icache = vec![InlineCache::default(); code.sites];
        let block_execs = vec![0; code.blocks.len()];
        Self {
            code,
            arch: FunctionalSim::build(image, tdm_words, observers),
            icache,
            block_execs,
        }
    }

    /// Materializes the dynamic mix: the directly-counted portion (the
    /// precise step path and partial blocks) plus each block's sparse
    /// static mix scaled by how many times it ran to completion.
    fn full_mix(&self) -> [u64; Instruction::OPCODE_COUNT] {
        let mut mix = self.arch.mix;
        for (block, &execs) in self.code.blocks.iter().zip(&self.block_execs) {
            if execs == 0 {
                continue;
            }
            for &(opcode, count) in &block.mix {
                mix[opcode as usize] += count as u64 * execs;
            }
        }
        mix
    }

    /// The superblock spans the compiler formed, as `(start_pc, len)`
    /// pairs in address order. Block boundaries are the static
    /// control-flow targets and successors; every instruction belongs
    /// to exactly one block.
    pub fn superblocks(&self) -> Vec<(usize, usize)> {
        self.code.blocks.iter().map(|b| (b.start, b.len)).collect()
    }

    /// Number of fused instruction pairs across the compiled hot
    /// sequences (each retires two architectural instructions per
    /// execution).
    pub fn fused_pairs(&self) -> usize {
        self.code
            .blocks
            .iter()
            .flat_map(|b| b.fused.iter())
            .filter(|op| op.n == 2)
            .count()
    }

    /// Number of inline-cache sites: one per static LOAD/STORE
    /// occurrence (a TDM base) and one per static JALR (a return
    /// target).
    pub fn inline_cache_sites(&self) -> usize {
        self.code.sites
    }

    fn convert_fault(&self, fault: Fault) -> SimError {
        match fault {
            Fault::Mem { pc, cause, .. } => SimError::MemoryFault { pc, cause },
            Fault::Wild { target, .. } => SimError::PcOutOfRange {
                at: self.arch.instructions,
                pc: target,
                tim_size: self.code.ops.len(),
            },
        }
    }

    /// Precise single-instruction step through the unfused compiled
    /// ops: the budget tail, mid-block entry (after restore or a wild
    /// landing), and [`Core::step`] when no observers are attached.
    fn step_ops(&mut self) -> Result<Option<HaltReason>, SimError> {
        if let Some(reason) = self.arch.halted {
            return Ok(Some(reason));
        }
        let code = Arc::clone(&self.code);
        let len = code.ops.len();
        let pc = self.arch.state.pc;
        if pc == len {
            self.arch.halted = Some(HaltReason::FellOffEnd);
            return Ok(Some(HaltReason::FellOffEnd));
        }
        let op = &code.ops[pc];
        self.arch.instructions += 1;
        self.arch.mix[op.s[0].opcode as usize] += 1;
        let mut m = Machine {
            state: &mut self.arch.state,
            icache: &mut self.icache,
            text_len: len,
            fault: None,
        };
        let step = (op.exec)(&mut m, op);
        if let Step::Fault = step {
            let fault = m.fault.take().expect("a faulting op parks its fault");
            return Err(self.convert_fault(fault));
        }
        let (next, halt) = next_pc(step, pc + 1, len);
        self.arch.state.pc = next;
        self.arch.halted = halt;
        Ok(halt)
    }

    /// The block-dispatch hot loop: executes whole superblocks for as
    /// long as the remaining budget covers the next one. The PC, the
    /// budget countdown and the step count live in locals (and the
    /// [`Machine`] is constructed once), so block-to-block transfers
    /// cost no memory round-trips through `self`.
    ///
    /// Returns the halt reason if the machine halted, or `None` when it
    /// stopped because the fast path cannot continue — a budget smaller
    /// than the next block (or block tail) — in which case the caller
    /// falls back to precise stepping.
    fn run_fast(
        &mut self,
        steps: &mut u64,
        remaining: &mut u64,
    ) -> Result<Option<HaltReason>, SimError> {
        let code = Arc::clone(&self.code);
        let text_len = code.ops.len();
        let mut retired = 0u64;
        let mut halt = None;
        let mut failed = None;
        {
            let mut m = Machine {
                state: &mut self.arch.state,
                icache: &mut self.icache,
                text_len,
                fault: None,
            };
            let mut pc = m.state.pc;
            while pc < text_len {
                // A block head runs its block's fused ops. A mid-block
                // landing (a dynamic JALR target that isn't a static
                // head) runs the unfused tail of the covering block,
                // then rejoins fused block dispatch at the next head.
                let bi = code.block_of[pc] as usize;
                let block = &code.blocks[bi];
                let head = pc == block.start;
                let fall = block.start + block.len;
                let ops = if head {
                    &block.fused[..]
                } else {
                    &code.ops[pc..fall]
                };
                let n = (fall - pc) as u64;
                if n > *remaining {
                    break;
                }
                let step = match run_ops(&mut m, ops) {
                    Ok(step) => step,
                    Err(i) => {
                        let fault = m.fault.take().expect("a faulting op parks its fault");
                        failed = Some((ops, i, fault));
                        break;
                    }
                };
                retired += n;
                *steps += n;
                *remaining -= n;
                if head {
                    // Mix accounting is deferred: one counter bump per
                    // block, the sparse per-opcode counts are folded in
                    // lazily by `full_mix`.
                    self.block_execs[bi] += 1;
                } else {
                    // The deferred block counters only describe
                    // whole-block executions, so a tail counts per op.
                    for op in ops {
                        self.arch.mix[op.s[0].opcode as usize] += 1;
                    }
                }
                let (next, h) = next_pc(step, fall, text_len);
                pc = next;
                if h.is_some() {
                    halt = h;
                    break;
                }
            }
            m.state.pc = pc;
        }
        self.arch.instructions += retired;
        if let Some((ops, i, fault)) = failed {
            // A fault settles its partial run precisely: every op
            // before the faulting one in full, plus however many of the
            // faulting op's components retired (the faulting
            // instruction counts as retired, matching the functional
            // backend).
            let partial = match &fault {
                Fault::Mem { retired, .. } => *retired,
                Fault::Wild { .. } => ops[i].n,
            };
            let done = ops[..i]
                .iter()
                .flat_map(|op| &op.s[..op.n as usize])
                .chain(&ops[i].s[..partial as usize]);
            for s in done {
                self.arch.instructions += 1;
                self.arch.mix[s.opcode as usize] += 1;
            }
            self.arch.state.pc = match &fault {
                Fault::Mem { pc, .. } => *pc,
                Fault::Wild { at_pc, .. } => *at_pc as usize,
            };
            return Err(self.convert_fault(fault));
        }
        if let Some(reason) = halt {
            self.arch.halted = Some(reason);
        }
        Ok(halt)
    }
}

/// Runs a straight-line op sequence (a block's fused ops, or the
/// unfused tail of a block). Only its last op can transfer control, so
/// any step but a fault means every op ran; a fault returns the index
/// of the faulting op.
#[inline(always)]
fn run_ops(m: &mut Machine<'_>, ops: &[Op]) -> Result<Step, usize> {
    for op in ops {
        match (op.exec)(m, op) {
            Step::Next => {}
            // The index is recovered from the reference offset — only
            // this cold path pays for it, not the hot loop.
            Step::Fault => {
                let offset = op as *const Op as usize - ops.as_ptr() as usize;
                return Err(offset / std::mem::size_of::<Op>());
            }
            step => return Ok(step),
        }
    }
    Ok(Step::Next)
}

/// Where control goes after an op, a block or a block tail that ended
/// in `step` (never [`Step::Fault`]): `fall` is the address just past
/// it, where a fall-through continues — or halts, at the end of the
/// text. Returns the next PC and the halt reason, if any.
#[inline(always)]
fn next_pc(step: Step, fall: usize, text_len: usize) -> (usize, Option<HaltReason>) {
    match step {
        Step::Next => (fall, (fall == text_len).then_some(HaltReason::FellOffEnd)),
        Step::Jump(pc) => (pc as usize, None),
        Step::Halt(reason, pc) => (pc as usize, Some(reason)),
        Step::Fault => unreachable!("a fault is settled before control resolves"),
    }
}

impl Core for ThreadedSim {
    fn backend(&self) -> Backend {
        Backend::Threaded
    }

    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        if self.arch.observers.is_empty() {
            self.step_ops()
        } else {
            self.arch.step()
        }
    }

    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        if !self.arch.observers.is_empty() {
            return self.arch.run_for(budget);
        }
        let mut steps = 0u64;
        // Steps and retired instructions advance in lockstep (every
        // architectural instruction is one step), so either budget
        // collapses to a single countdown computed once up front.
        let mut remaining = match budget {
            Budget::Steps(n) => n,
            Budget::Retired(n) => n.saturating_sub(self.arch.instructions),
        };
        loop {
            if let Some(halt) = self.arch.halted {
                return Ok(RunSummary {
                    steps,
                    retired: self.arch.instructions,
                    halt: Some(halt),
                });
            }
            if remaining == 0 {
                return Ok(RunSummary {
                    steps,
                    retired: self.arch.instructions,
                    halt: None,
                });
            }
            // Whole superblocks — and unfused block tails after a
            // dynamic mid-block landing — while the budget covers them
            // (the only budget checks are at those boundaries)…
            let halt = self.run_fast(&mut steps, &mut remaining)?;
            if halt.is_some() {
                return Ok(RunSummary {
                    steps,
                    retired: self.arch.instructions,
                    halt,
                });
            }
            if remaining == 0 {
                continue;
            }
            // …then one precise step: the budget is smaller than the
            // next dispatch unit (the budget tail).
            let halt = self.step_ops()?;
            steps += 1;
            remaining -= 1;
            if halt.is_some() {
                return Ok(RunSummary {
                    steps,
                    retired: self.arch.instructions,
                    halt,
                });
            }
        }
    }

    fn state(&self) -> &CoreState {
        &self.arch.state
    }

    fn state_mut(&mut self) -> &mut CoreState {
        &mut self.arch.state
    }

    fn halted(&self) -> Option<HaltReason> {
        self.arch.halted
    }

    fn retired(&self) -> u64 {
        self.arch.instructions
    }

    /// Fused ops contribute one count per architectural component, so
    /// the mix always matches unfused execution exactly.
    fn instruction_mix(&self) -> std::collections::BTreeMap<&'static str, u64> {
        crate::core::mix_map(&self.full_mix())
    }

    fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            backend: Backend::Threaded,
            mix: self.full_mix(),
            ..self.arch.snapshot()
        }
    }

    fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), SimError> {
        checkpoint.guard(Backend::Threaded, self.code.ops.len())?;
        self.arch.restore(checkpoint)?;
        // The restored mix is fully materialized, so the deferred
        // block counters start over from zero.
        self.block_execs.fill(0);
        // The inline caches are keyed purely on base-word values, so
        // stale entries stay correct across a restore.
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::SimBuilder;
    use art9_isa::assemble;

    fn pair(src: &str) -> (crate::FunctionalSim, ThreadedSim) {
        let p = assemble(src).unwrap();
        let b = SimBuilder::new(&p);
        (b.build_functional(), b.build_threaded())
    }

    const COUNTDOWN: &str = "LI t3, 10\nLI t4, 0\nloop:\nADD t4, t3\nADDI t3, -1\n\
                             MV t7, t3\nCOMP t7, t0\nBEQ t7, +, loop\nJAL t0, 0\n";

    #[test]
    fn countdown_matches_functional_exactly() {
        let (mut f, mut t) = pair(COUNTDOWN);
        f.run(1_000_000).unwrap();
        t.run(1_000_000).unwrap();
        assert_eq!(t.state().reg(TReg::T4).to_i64(), 55);
        assert_eq!(t.halted(), Some(HaltReason::JumpToSelf));
        assert_eq!(f.state().first_difference(t.state()), None);
        assert_eq!(f.state().pc, t.state().pc);
        assert_eq!(f.retired(), t.retired());
        assert_eq!(f.instruction_mix(), t.instruction_mix());
    }

    #[test]
    fn fused_hot_path_and_precise_stepping_agree() {
        // Whole-run fused execution vs pure step() must retire the same
        // counts, mix and state.
        let p = assemble(COUNTDOWN).unwrap();
        let b = SimBuilder::new(&p);
        let mut hot = b.build_threaded();
        hot.run(1_000_000).unwrap();
        let mut precise = b.build_threaded();
        while Core::step(&mut precise).unwrap().is_none() {}
        assert_eq!(hot.state().first_difference(precise.state()), None);
        assert_eq!(hot.state().pc, precise.state().pc);
        assert_eq!(hot.retired(), precise.retired());
        assert_eq!(hot.instruction_mix(), precise.instruction_mix());
        assert!(hot.fused_pairs() > 0, "countdown loop has fusable pairs");
    }

    #[test]
    fn budget_cuts_are_exact_even_mid_block() {
        let p = assemble(COUNTDOWN).unwrap();
        let b = SimBuilder::new(&p);
        for cut in 0..30u64 {
            let mut sim = b.build_threaded();
            let summary = Core::run_for(&mut sim, Budget::Steps(cut)).unwrap();
            if summary.halt.is_none() {
                assert_eq!(sim.retired(), cut, "steps budget is exact");
                assert_eq!(summary.steps, cut);
            }
            let mut sim = b.build_threaded();
            let summary = Core::run_for(&mut sim, Budget::Retired(cut)).unwrap();
            if summary.halt.is_none() {
                assert_eq!(sim.retired(), cut, "retired budget is exact");
            }
            // Resuming after any cut still finishes identically.
            let mut rest = b.build_functional();
            rest.run(1_000_000).unwrap();
            let mut sliced = b.build_threaded();
            Core::run_for(&mut sliced, Budget::Steps(cut)).unwrap();
            Core::run_for(&mut sliced, Budget::Steps(1_000_000)).unwrap();
            assert_eq!(rest.state().first_difference(sliced.state()), None);
            assert_eq!(rest.retired(), sliced.retired());
        }
    }

    #[test]
    fn load_store_uses_the_inline_cache() {
        let src = "
            .data
            v: .word 41, 0
            .text
            LI t2, 0
            LOAD t3, t2, 0
            ADDI t3, 1
            STORE t3, t2, 1
            LOAD t4, t2, 1
            JAL t0, 0
        ";
        let (mut f, mut t) = pair(src);
        f.run(1_000).unwrap();
        t.run(1_000).unwrap();
        assert_eq!(t.state().reg(TReg::T4).to_i64(), 42);
        assert_eq!(t.inline_cache_sites(), 3);
        assert_eq!(f.state().first_difference(t.state()), None);
    }

    #[test]
    fn memory_fault_matches_functional() {
        let src = "LI t2, 121\nLUI t2, 40\nLOAD t3, t2, 0\n";
        let (mut f, mut t) = pair(src);
        let fe = f.run(100).unwrap_err();
        let te = t.run(100).unwrap_err();
        assert_eq!(fe, te);
        assert_eq!(f.retired(), t.retired());
        assert_eq!(f.state().pc, t.state().pc);
    }

    #[test]
    fn wild_jump_matches_functional() {
        let src = "LI t2, 121\nJALR t0, t2, 0\n";
        let (mut f, mut t) = pair(src);
        let fe = f.run(100).unwrap_err();
        let te = t.run(100).unwrap_err();
        assert_eq!(fe, te);
        assert_eq!(f.retired(), t.retired());
    }

    #[test]
    fn inline_cache_hits_in_a_loop_match_functional() {
        // The same static LOAD/STORE site executes five times with a
        // constant base: one cold miss, then four cache hits. The hit
        // path must read/write the exact words the full ternary resolve
        // would.
        let src = "
            LI t3, 5
            LI t2, 100
        loop:
            LOAD t4, t2, 1
            ADDI t4, 1
            STORE t4, t2, 1
            ADDI t3, -1
            MV t7, t3
            COMP t7, t0
            BEQ t7, +, loop
            JAL t0, 0
        ";
        let (mut f, mut t) = pair(src);
        f.run(10_000).unwrap();
        t.run(10_000).unwrap();
        assert_eq!(t.state().tdm.read(101).unwrap().to_i64(), 5);
        assert_eq!(f.state().first_difference(t.state()), None);
        assert_eq!(f.instruction_mix(), t.instruction_mix());
    }

    #[test]
    fn empty_program_halts_cleanly() {
        let image = PredecodedProgram::from_tim_image(&[], &[]).unwrap();
        let mut sim = SimBuilder::new(&image).build_threaded();
        assert_eq!(Core::step(&mut sim).unwrap(), Some(HaltReason::FellOffEnd));
        assert_eq!(sim.retired(), 0);
        let summary = Core::run_for(&mut sim, Budget::Steps(10)).unwrap();
        assert_eq!(summary.halt, Some(HaltReason::FellOffEnd));
    }

    #[test]
    fn superblocks_partition_the_text() {
        let p = assemble(COUNTDOWN).unwrap();
        let sim = SimBuilder::new(&p).build_threaded();
        let blocks = sim.superblocks();
        // Blocks tile [0, len) without gaps or overlaps.
        let mut next = 0usize;
        for (start, len) in &blocks {
            assert_eq!(*start, next);
            assert!(*len > 0);
            next = start + len;
        }
        assert_eq!(next, p.text().len());
    }

    /// Address of the pair's first component in [`shape_program`].
    const PAIR_PC: usize = 6;

    /// One component of a pair shape as assembly. Where it can, the
    /// second component reads what the first wrote, so out-of-order
    /// application shows.
    /// Memory components use the in-range base `t2`, or `t1` (9841,
    /// past the end of the TDM) when `fault` is set.
    fn component(mnemonic: &str, pos: u8, fault: bool) -> String {
        let m = mnemonic.to_uppercase();
        let base = if fault { "t1" } else { "t2" };
        match (m.as_str(), pos) {
            ("LOAD", 1) => format!("LOAD t3, {base}, 1"),
            ("LOAD", _) => format!("LOAD t4, {base}, 0"),
            ("STORE", 1) => format!("STORE t4, {base}, 2"),
            ("STORE", _) => format!("STORE t3, {base}, 0"),
            ("ADDI", 1) => "ADDI t3, -2".into(),
            ("ADDI", _) => "ADDI t3, 4".into(),
            ("LI", 1) => "LI t3, 7".into(),
            ("LI", _) => "LI t3, -7".into(),
            ("BEQ" | "BNE", _) => format!("{m} t3, +, 2"),
            (_, 1) => format!("{m} t3, t4"),
            _ => format!("{m} t4, t3"),
        }
    }

    /// A program whose only fusable pair is `first`+`second`, placed at
    /// a block head by the preceding `JAL t0, 1`. A taken branch skips
    /// the `LI t6, 1`.
    fn shape_program(first: &str, second: &str, fault_at: Option<u8>) -> String {
        format!(
            ".data\nv: .word 41, 7, -5\n.text\n\
             LI t2, 1\nLI t1, 121\nLUI t1, 40\nLI t3, 5\nLI t4, 3\nJAL t0, 1\n\
             {}\n{}\nLI t6, 1\nJAL t0, 0\n",
            component(first, 1, fault_at == Some(1)),
            component(second, 2, fault_at == Some(2)),
        )
    }

    #[test]
    fn every_pair_shape_matches_functional_fused_and_stepped() {
        let is_mem = |m: &str| matches!(m, "Load" | "Store");
        for &(first, second) in PAIR_SHAPES {
            let faults = [(1, first), (2, second)]
                .into_iter()
                .filter(|&(_, m)| is_mem(m))
                .map(|(k, _)| Some(k));
            for fault_at in std::iter::once(None).chain(faults) {
                let ctx = format!("{first}+{second}, fault at {fault_at:?}");
                let p = assemble(&shape_program(first, second, fault_at)).unwrap();
                let b = SimBuilder::new(&p);
                let mut f = b.build_functional();
                let want = f.run(1_000);
                match (&want, fault_at) {
                    (Err(SimError::MemoryFault { pc, .. }), Some(k)) => {
                        assert_eq!(*pc, PAIR_PC + k as usize - 1, "{ctx}")
                    }
                    (Ok(_), None) => {}
                    _ => panic!("{ctx}: unexpected functional outcome {want:?}"),
                }
                let mut free = b.build_threaded();
                assert_eq!(free.fused_pairs(), 1, "{ctx}");
                assert_eq!(free.run(1_000), want, "{ctx}");
                let mut stepped = b.build_threaded();
                let stepped_err = loop {
                    match Core::step(&mut stepped) {
                        Ok(None) => {}
                        done => break done.err(),
                    }
                };
                assert_eq!(stepped_err, want.clone().err(), "{ctx}");
                for t in [&free, &stepped] {
                    assert_eq!(f.state().first_difference(t.state()), None, "{ctx}");
                    assert_eq!(f.state().pc, t.state().pc, "{ctx}");
                    assert_eq!(f.retired(), t.retired(), "{ctx}");
                    assert_eq!(f.instruction_mix(), t.instruction_mix(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn shift_immediates_compile_to_constant_shifts() {
        // SLI/SRI with positive and negative amounts (negative reverses
        // direction) against the shared `shift` semantics.
        let src = "LI t3, 10\nSLI t3, 2\nSRI t3, 1\nMV t4, t3\nSLI t4, -1\nJAL t0, 0\n";
        let (mut f, mut t) = pair(src);
        f.run(100).unwrap();
        t.run(100).unwrap();
        assert_eq!(f.state().first_difference(t.state()), None);
    }
}
