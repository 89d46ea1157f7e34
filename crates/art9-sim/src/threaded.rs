//! The direct-threaded execution backend.
//!
//! [`ThreadedSim`] compiles a [`PredecodedProgram`] **once** into
//! direct-threaded host code and then executes that, instead of
//! dispatching on each instruction's opcode every step the way
//! [`FunctionalSim`](crate::FunctionalSim) does. Every instruction has
//! exactly one *kernel*: an always-inlined body that reads its operands
//! — register indices, pre-resized immediates, precomputed link words,
//! integer offsets and targets — from a pre-extracted operand record,
//! its *slot*, copied from the instruction's execution row.
//! The compiled form is an array of ops, each a host function pointer
//! plus one slot, so the hot loop is an indirect call per op with no
//! decode, no `match`, and no immediate conversion work.
//!
//! Three further techniques stack on top (see `docs/PERFORMANCE.md`):
//!
//! * **Superblock formation** over the static control targets: the
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
//! One dispatch loop runs all compiled code. A *dispatch unit* runs
//! from the current PC to the end of its superblock: the block's fused
//! ops when the PC is the block head and the remaining budget covers
//! the whole block, else the unfused ops up to the block end or the
//! budget, whichever comes first. Budget checks therefore run only
//! between units, yet [`Core::run_for`] stays *exact*: a budget tail,
//! an entry at a non-head PC (a mid-block JALR landing, or a
//! [`Checkpoint`] restored mid-block) and [`Core::step`] are all
//! shorter units of unfused ops, and `Budget::Steps`/`Budget::Retired`
//! cut at the same instruction boundaries as the architectural
//! interpreters.
//!
//! The backend is a compiled accelerator over the functional core: a
//! `ThreadedSim` embeds one [`FunctionalSim`](crate::FunctionalSim),
//! which owns the architectural state, the retired count, the halt
//! reason and the energy accountant slot. The compiled code updates
//! that state in place and never runs the functional core's step body,
//! so a threaded core never builds the image's execution rows.
//! `instruction_mix` stays exact across fused ops, and [`Checkpoint`]
//! snapshot/restore is bit-identical at any architectural boundary —
//! checkpoints cross-restore between the architectural backends.
//!
//! With an `observers::EnergyAccounting` attached, `run_for` and `step`
//! run the same dispatch loop over a *counted twin* of the compiled
//! code, built lazily once per image by the same constructor from the
//! same kernels and pair table, each kernel wrapped to add its
//! instruction's register, TDM and result-bus flips to the accountant
//! with the packed `Word9::flips_from`. The fetch flips between
//! consecutive instructions of a block are static, so they are
//! precomputed per block and added per execution like the mix; only
//! the entry transition of each dispatch unit is computed as it runs.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use art9_isa::Instruction;
use ternary::{TernaryError, TernaryMemory, Trit, Word9};

use crate::checkpoint::Checkpoint;
use crate::core::{Backend, Budget, Core, RunSummary};
use crate::error::SimError;
use crate::exec::{shift, wrap9, Opcode, Row};
use crate::functional::{CoreState, FunctionalSim, HaltReason};
use crate::observer::observers::EnergyAccounting;
use crate::observer::{fetch_words, lock, Accountant, FetchWords};
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

/// A fault raised by a compiled op, converted to [`SimError`] by
/// [`settle`] along with the retirement counters.
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
type ExecFn<T = ()> = fn(&mut Machine<'_, T>, &Op<T>) -> Step;

/// The mutable execution context handed to every [`ExecFn`].
struct Machine<'m, T: Tally = ()> {
    state: &'m mut CoreState,
    icache: &'m mut [InlineCache],
    text_len: usize,
    /// Fault payload parked by an op that returned [`Step::Fault`].
    fault: Option<Fault>,
    /// What the tally counts into ([`Counting`]); nothing for the plain
    /// code.
    tally: T::Live<'m>,
}

/// The tally of the counted twin: trit flips, into the attached
/// `EnergyAccounting` ([`Counting`]).
#[derive(Debug)]
enum Flips {}

/// What a counted machine counts into: the attached accountant's
/// counters and datapath history, borrowed for one `run_for`, and the
/// core's [`CountScratch`].
struct Counting<'m> {
    acc: &'m mut EnergyAccounting,
    scratch: &'m mut CountScratch,
    /// The effective-address word of the LOAD/STORE running now, which
    /// it drives onto the result bus.
    address: Word9,
    /// The TDM cell the STORE running now overwrites.
    cell: Word9,
}

/// A counted core's bookkeeping between runs, kept so that a short run
/// (a [`Core::step`], a small budget slice) allocates nothing.
#[derive(Debug, Default)]
struct CountScratch {
    /// Whole executions per superblock in the current run; zero between
    /// runs. Their retirements and static fetch flips are folded in on
    /// the way out.
    execs: Vec<u64>,
    /// The superblocks with a nonzero `execs` entry, so the fold visits
    /// only those.
    ran: Vec<u32>,
    /// Per inline-cache site: the effective-address word of the base
    /// word its [`InlineCache`] entry holds, so a hit knows the
    /// result-bus word without a ternary add. Only the counted code
    /// fills a counted core's inline caches, so the two stay in step.
    addresses: Vec<Word9>,
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
    /// [`Row::imm`]: pre-resized immediate, link word, LUI/LI
    /// constant, or LOAD/STORE offset word.
    imm: Word9,
    /// [`Row::off`]: the absolute target of a branch or JAL, the offset
    /// of a JALR, LOAD or STORE, or the count of a constant shift.
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
#[derive(Debug)]
struct Op<T: Tally = ()> {
    exec: ExecFn<T>,
    s: [Slot; 2],
    /// Architectural instructions this op retires.
    n: u8,
}

// Copyable whatever the tally: an op only names its machine type.
impl<T: Tally> Clone for Op<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Tally> Copy for Op<T> {}

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
    /// Sparse per-opcode retirement counts (sums to `len`), applied in
    /// one shot when the block completes.
    mix: Vec<(u8, u32)>,
}

/// The compiled program: shared, immutable, compiled once per
/// [`PredecodedProgram`] image (cached on the image itself) and reused
/// by every [`ThreadedSim`] built from it.
#[derive(Debug)]
pub(crate) struct ThreadedCode {
    text: Arc<[Instruction]>,
    blocks: Vec<Block>,
    /// pc → index of the covering block, for every pc (a head is the
    /// pc equal to its block's `start`).
    block_of: Vec<u32>,
    /// Number of inline-cache sites (static LOAD/STORE/JALR
    /// occurrences).
    sites: usize,
    /// The plain code.
    plain: Compiled<()>,
    /// The counted twin, compiled on first use. Only a core with an
    /// `EnergyAccounting` attached runs it.
    counted: OnceLock<Compiled<Flips>>,
}

/// The image compiled for tally `T`: the plain code, or its counted
/// twin. Both come from one constructor, so they number the
/// inline-cache sites alike and fuse the same pairs.
#[derive(Debug)]
struct Compiled<T: Tally> {
    /// One unfused op per pc, for dispatch units that are not a whole
    /// block.
    ops: Vec<Op<T>>,
    /// Per superblock, indexed like [`ThreadedCode::blocks`]: the fused
    /// op sequence a whole execution runs.
    fused: Vec<Vec<Op<T>>>,
    /// What the tally's hooks read.
    tables: T::Tables,
}

/// The counted twin's static tables.
#[derive(Debug)]
struct CountTables {
    /// Per pc.
    fetch: Vec<Fetch>,
    /// Per superblock: sparse per-opcode sums of [`Fetch::inner`]. Like
    /// [`Block::mix`], applied per completed execution.
    blocks: Vec<Vec<(u8, u32)>>,
    /// Per inline-cache site, the effective-address word of the cold
    /// entry's base, `ZERO`: a LOAD/STORE's offset word. The first
    /// value of [`CountScratch::addresses`].
    addresses: Vec<Word9>,
}

/// What the fetch path switches at one pc.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    /// The instruction and pc words ([`fetch_words`]).
    words: FetchWords,
    /// Their flips against the previous pc's words when both lie in
    /// one superblock, zero at a head. Inside a block the predecessor
    /// is static, so only a dispatch unit's entry transition depends on
    /// the path taken.
    inner: u32,
}

// --- kernels ---------------------------------------------------------------
//
// Each kernel mirrors `talu` + the functional step for exactly one
// instruction, with every decode-time quantity pre-extracted into its
// `Slot`. Kernels are the only instruction semantics in this backend:
// `single` turns one into an unfused op body, and `pair` composes two
// into a fused one. The differential fuzz oracles and the cross-backend
// property tests hold them to the shared semantics in `exec.rs`.

/// One instruction's compiled semantics, on a machine with tally `T`.
/// `pos` is the instruction's position in its op — 1, or 2 for the
/// second component of a pair — and is how many of the op's
/// instructions a fault in it retires.
trait Kernel<T: Tally = ()> {
    /// What the instruction writes, which fixes the flips [`Counted`]
    /// adds for it.
    const EFFECT: Effect;

    fn run(m: &mut Machine<'_, T>, s: &Slot, pos: u8) -> Step;
}

/// The architectural writes of one instruction, as the energy model
/// sees them (the functional step's write-back event).
#[derive(Clone, Copy)]
enum Effect {
    /// Writes `Ta` and drives its new value onto the result bus: every
    /// register kernel, and JAL/JALR, whose link is both.
    Reg,
    /// LOAD: writes `Ta`; the bus carries the effective address.
    Load,
    /// STORE: writes a TDM cell; the bus carries the effective address.
    Store,
    /// BEQ/BNE: no write; the bus carries zero.
    Branch,
}

/// The body of an unfused op.
fn single<T: Tally, K: Kernel<T>>(m: &mut Machine<'_, T>, op: &Op<T>) -> Step {
    K::run(m, &op.s[0], 1)
}

/// The body of a fused pair: the components run in program order, so
/// intra-pair register dependencies behave exactly as in sequential
/// execution, and the second runs only when the first falls through —
/// a fault in the first retires just that one.
fn pair<T: Tally, K1: Kernel<T>, K2: Kernel<T>>(m: &mut Machine<'_, T>, op: &Op<T>) -> Step {
    match K1::run(m, &op.s[0], 1) {
        Step::Next => K2::run(m, &op.s[1], 2),
        step => step,
    }
}

/// A machine's tally type: what compiling for it makes of each kernel,
/// and what the dispatch loop counts besides the kernels. The plain
/// code runs kernels bare and counts nothing; the counted twin runs
/// them [`Counted`] and adds the fetch activity and retirements here.
/// Every hook is empty for the plain code.
trait Tally: Sized {
    type Of<K: Kernel<Self>>: Kernel<Self>;

    /// Static tables the hooks read, built with the compiled code.
    type Tables: std::fmt::Debug;

    /// What a machine running this tally's code counts into.
    type Live<'m>;

    fn tables(text: &[Instruction], blocks: &[Block], ops: &[Op<Self>]) -> Self::Tables;

    /// The image's code compiled for this tally.
    fn compiled(code: &ThreadedCode) -> &Compiled<Self>;

    /// Narrows a live tally to a shorter borrow (every `Live` is
    /// covariant), so it can sit next to the machine's own borrows.
    fn narrow<'a: 'b, 'b>(live: Self::Live<'a>) -> Self::Live<'b>;

    /// The dispatch unit `span` ran to its end as `ops`: the fused ops
    /// of the whole block `whole`, or unfused ops.
    #[inline(always)]
    fn ran(
        _: &mut Self::Live<'_>,
        _: &Self::Tables,
        _ops: &[Op<Self>],
        _span: Range<usize>,
        _whole: Option<usize>,
    ) {
    }

    /// A dispatch unit faulted; `wrote` are the instructions before the
    /// faulting one, which retired with a write-back.
    #[inline(always)]
    fn faulted<'s>(
        _: &mut Self::Live<'_>,
        _: &Self::Tables,
        _wrote: impl Iterator<Item = &'s Slot>,
    ) {
    }

    /// The LOAD/STORE at inline-cache site `site` resolved its
    /// effective address: on a cache miss `missed` is the address word
    /// it computed; on a hit it is `None`.
    #[inline(always)]
    fn resolved(_: &mut Self::Live<'_>, _site: u32, _missed: Option<Word9>) {}

    /// A STORE is about to overwrite the in-range TDM cell `i`.
    #[inline(always)]
    fn overwriting(_: &mut Self::Live<'_>, _tdm: &TernaryMemory, _i: usize) {}
}

impl Tally for () {
    type Of<K: Kernel<()>> = K;
    type Tables = ();
    type Live<'m> = ();

    fn tables(_: &[Instruction], _: &[Block], _: &[Op]) {}

    fn compiled(code: &ThreadedCode) -> &Compiled<()> {
        &code.plain
    }

    fn narrow<'a: 'b, 'b>(_: ()) {}
}

impl Tally for Flips {
    type Of<K: Kernel<Flips>> = Counted<K>;
    type Tables = CountTables;
    type Live<'m> = Counting<'m>;

    fn tables(text: &[Instruction], blocks: &[Block], ops: &[Op<Flips>]) -> CountTables {
        let mut fetch: Vec<Fetch> = Vec::with_capacity(text.len());
        // The blocks tile the text in address order, so this visits
        // every pc in turn.
        let blocks = blocks
            .iter()
            .map(|b| {
                let mut sums = [0u32; Instruction::OPCODE_COUNT];
                for pc in b.start..b.start + b.len {
                    let words = fetch_words(pc, &text[pc]);
                    let inner = match fetch.last() {
                        Some(prev) if pc > b.start => {
                            words.0.flips_from(&prev.words.0) + words.1.flips_from(&prev.words.1)
                        }
                        _ => 0,
                    };
                    sums[text[pc].opcode()] += inner;
                    fetch.push(Fetch { words, inner });
                }
                sparse(&sums)
            })
            .collect();
        // Sites number the LOAD, STORE and JALR ops in address order;
        // a JALR's entry is never read.
        let addresses = text
            .iter()
            .zip(ops)
            .filter_map(|(instr, op)| match instr {
                Instruction::Load { .. } | Instruction::Store { .. } => Some(op.s[0].imm),
                Instruction::Jalr { .. } => Some(Word9::ZERO),
                _ => None,
            })
            .collect();
        CountTables {
            fetch,
            blocks,
            addresses,
        }
    }

    fn compiled(code: &ThreadedCode) -> &Compiled<Flips> {
        code.counted()
    }

    fn narrow<'a: 'b, 'b>(live: Counting<'a>) -> Counting<'b> {
        live
    }

    /// Adds the unit's entry fetch flips, the one fetch transition that
    /// depends on the path taken. A whole block's retirements and
    /// static fetch flips wait for `run_counted`; a partial unit's are
    /// added here.
    #[inline(always)]
    fn ran(
        c: &mut Counting<'_>,
        t: &CountTables,
        ops: &[Op<Flips>],
        span: Range<usize>,
        whole: Option<usize>,
    ) {
        let acc = &mut *c.acc;
        let (i1, p1) = t.fetch[span.start].words;
        acc.per_opcode[ops[0].s[0].opcode as usize].fetch +=
            u64::from(i1.flips_from(&acc.prev_instr) + p1.flips_from(&acc.prev_pc));
        (acc.prev_instr, acc.prev_pc) = t.fetch[span.end - 1].words;
        match whole {
            Some(block) => {
                let scratch = &mut *c.scratch;
                if scratch.execs[block] == 0 {
                    scratch.ran.push(block as u32);
                }
                scratch.execs[block] += 1;
            }
            None => {
                for (k, op) in ops.iter().enumerate() {
                    let activity = &mut acc.per_opcode[op.s[0].opcode as usize];
                    activity.retired += 1;
                    if k > 0 {
                        activity.fetch += u64::from(t.fetch[span.start + k].inner);
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn faulted<'s>(c: &mut Counting<'_>, t: &CountTables, wrote: impl Iterator<Item = &'s Slot>) {
        let acc = &mut *c.acc;
        for s in wrote {
            let (i1, p1) = t.fetch[s.pc as usize].words;
            let activity = &mut acc.per_opcode[s.opcode as usize];
            activity.retired += 1;
            activity.fetch +=
                u64::from(i1.flips_from(&acc.prev_instr) + p1.flips_from(&acc.prev_pc));
            (acc.prev_instr, acc.prev_pc) = (i1, p1);
        }
    }

    /// Keeps the site's address word in step with its inline-cache
    /// entry, and notes it for [`Counted`].
    #[inline(always)]
    fn resolved(c: &mut Counting<'_>, site: u32, missed: Option<Word9>) {
        let cached = &mut c.scratch.addresses[site as usize];
        if let Some(word) = missed {
            *cached = word;
        }
        c.address = *cached;
    }

    #[inline(always)]
    fn overwriting(c: &mut Counting<'_>, tdm: &TernaryMemory, i: usize) {
        c.cell = tdm.read(i).expect("a resolved address is in range");
    }
}

/// Kernel `K` plus the trit flips of its instruction, added to the
/// attached accountant after `K` succeeds: the destination register,
/// the overwritten TDM cell and the result bus, exactly as the energy
/// accountant counts them from the functional step's write-back
/// event. A LOAD or STORE leaves its address word and a STORE its old
/// cell on the machine ([`Tally::resolved`], [`Tally::overwriting`]),
/// so neither is computed twice. A faulting instruction has no
/// write-back, so it adds nothing. (Fetch flips and retirements are
/// counted per dispatch unit, by the other [`Tally`] hooks.)
struct Counted<K>(PhantomData<K>);

impl<K: Kernel<Flips>> Kernel<Flips> for Counted<K> {
    const EFFECT: Effect = K::EFFECT;

    #[inline(always)]
    fn run(m: &mut Machine<'_, Flips>, s: &Slot, pos: u8) -> Step {
        let old = m.state.trf[s.a as usize];
        let step = K::run(m, s, pos);
        if let Step::Fault = step {
            return step;
        }
        let new = m.state.trf[s.a as usize];
        let c = &mut m.tally;
        let acc = &mut c.acc.per_opcode[s.opcode as usize];
        let bus = match K::EFFECT {
            Effect::Reg => {
                acc.regfile += u64::from(new.flips_from(&old));
                new
            }
            Effect::Load => {
                acc.regfile += u64::from(new.flips_from(&old));
                c.address
            }
            Effect::Store => {
                acc.tdm += u64::from(new.flips_from(&c.cell));
                c.address
            }
            Effect::Branch => Word9::ZERO,
        };
        acc.alu += u64::from(bus.flips_from(&c.acc.prev_bus));
        c.acc.prev_bus = bus;
        step
    }
}

/// Defines kernels as unit types. A register kernel `Name(t, s) = expr;`
/// sets `Ta` to `expr` over the register file `t` and falls through;
/// any other kernel is `Name(m, s, pos) -> Effect { body }`.
macro_rules! kernels {
    () => {};
    ($name:ident($t:pat_param, $s:ident) = $e:expr; $($rest:tt)*) => {
        kernels! {
            $name(m, $s, _) -> Reg {
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
    ($name:ident($m:ident, $s:ident, $pos:pat_param) -> $effect:ident $body:block $($rest:tt)*) => {
        pub(super) struct $name;

        impl<T: Tally> Kernel<T> for $name {
            const EFFECT: Effect = Effect::$effect;

            #[inline(always)]
            fn run($m: &mut Machine<'_, T>, $s: &Slot, $pos: u8) -> Step $body
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

        Beq(m, s, _) -> Branch {
            let taken = m.state.trf[s.b as usize].lst() == s.cond;
            branch(m, s, taken)
        }
        Bne(m, s, _) -> Branch {
            let taken = m.state.trf[s.b as usize].lst() != s.cond;
            branch(m, s, taken)
        }
        Jal(m, s, _) -> Reg {
            m.state.trf[s.a as usize] = s.imm; // link = pc + 1, precomputed
            resolve_next(m, s.off as i64, s.pc as usize)
        }
        Jalr(m, s, _) -> Reg {
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
        Load(m, s, pos) -> Load {
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
        Store(m, s, pos) -> Store {
            let v = m.state.trf[s.a as usize];
            let Some(i) = tdm_index(m, s, pos) else {
                return Step::Fault;
            };
            T::overwriting(&mut m.tally, &m.state.tdm, i);
            match m.state.tdm.write(i, v) {
                Ok(()) => Step::Next,
                Err(cause) => mem_fault(m, s, pos, cause),
            }
        }
    }
}

/// Classifies a computed next-PC exactly like the functional step:
/// in-range → jump, own address → jump-to-self halt, text length →
/// fell-off-end halt, anything else → wild-transfer fault.
#[inline]
fn resolve_next<T: Tally>(m: &mut Machine<'_, T>, target: i64, pc: usize) -> Step {
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

/// A conditional branch: to its target when taken, else on to
/// `pc + 1` like any fall-through. (Kept a host branch on purpose: the
/// dispatcher's next PC is then predicted instead of waiting on the
/// compared register, as a branchless select of the target would.)
#[inline(always)]
fn branch<T: Tally>(m: &mut Machine<'_, T>, s: &Slot, taken: bool) -> Step {
    if taken {
        resolve_next(m, s.off as i64, s.pc as usize)
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
fn tdm_index<T: Tally>(m: &mut Machine<'_, T>, s: &Slot, pos: u8) -> Option<usize> {
    let base = m.state.trf[s.b as usize];
    let off = s.off as i64;
    let ic = &mut m.icache[s.site as usize];
    if ic.base == base {
        match m.state.tdm.index_of(wrap9(ic.value + off)) {
            Ok(idx) => {
                T::resolved(&mut m.tally, s.site, None);
                Some(idx)
            }
            Err(cause) => {
                mem_fault(m, s, pos, cause);
                None
            }
        }
    } else {
        let address = base.wrapping_add(s.imm);
        match m.state.tdm.resolve(address) {
            Ok(idx) => {
                // The base's integer value is derived from the resolved
                // index arithmetically (undoing the offset modulo the
                // balanced word range) instead of a second ternary
                // conversion.
                *ic = InlineCache {
                    base,
                    value: wrap9(idx as i64 - off),
                };
                T::resolved(&mut m.tally, s.site, Some(address));
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
fn mem_fault<T: Tally>(m: &mut Machine<'_, T>, s: &Slot, pos: u8, cause: TernaryError) -> Step {
    m.fault = Some(Fault::Mem {
        pc: s.pc as usize,
        cause,
        retired: pos,
    });
    Step::Fault
}

// --- compilation -----------------------------------------------------------

/// Compiles one instruction into its unfused op, copying its execution
/// [`Row`] into slot 0.
fn compile_op<T: Tally>(instr: &Instruction, pc: usize, sites: &mut u32) -> Op<T> {
    let r = Row::of(instr, pc);
    let mut s = Slot {
        imm: r.imm,
        off: r.off,
        site: 0,
        pc: pc as u32,
        a: r.a,
        b: r.b,
        cond: r.cond,
        opcode: r.op as u8,
    };
    match r.op {
        // Balanced shift amounts resolve at compile time: a negative
        // amount reverses the direction (DESIGN.md §3.2), which picks
        // the kernel below; the slot keeps the magnitude.
        Opcode::Sri | Opcode::Sli => s.off = r.off.abs(),
        Opcode::Jalr | Opcode::Load | Opcode::Store => {
            s.site = *sites;
            *sites += 1;
        }
        _ => {}
    }
    use Instruction::*;
    let exec: ExecFn<T> = match *instr {
        Mv { .. } => single::<T, T::Of<kernel::Mv>>,
        Pti { .. } => single::<T, T::Of<kernel::Pti>>,
        Nti { .. } => single::<T, T::Of<kernel::Nti>>,
        Sti { .. } => single::<T, T::Of<kernel::Sti>>,
        And { .. } => single::<T, T::Of<kernel::And>>,
        Or { .. } => single::<T, T::Of<kernel::Or>>,
        Xor { .. } => single::<T, T::Of<kernel::Xor>>,
        Add { .. } => single::<T, T::Of<kernel::Add>>,
        Sub { .. } => single::<T, T::Of<kernel::Sub>>,
        Sr { .. } => single::<T, T::Of<kernel::Sr>>,
        Sl { .. } => single::<T, T::Of<kernel::Sl>>,
        Comp { .. } => single::<T, T::Of<kernel::Comp>>,
        Andi { .. } => single::<T, T::Of<kernel::Andi>>,
        Addi { .. } => single::<T, T::Of<kernel::Addi>>,
        Sri { imm, .. } if imm.to_i64() < 0 => single::<T, T::Of<kernel::ShlConst>>,
        Sli { imm, .. } if imm.to_i64() >= 0 => single::<T, T::Of<kernel::ShlConst>>,
        Sri { .. } | Sli { .. } => single::<T, T::Of<kernel::ShrConst>>,
        Lui { .. } => single::<T, T::Of<kernel::Lui>>,
        Li { .. } => single::<T, T::Of<kernel::Li>>,
        Beq { .. } => single::<T, T::Of<kernel::Beq>>,
        Bne { .. } => single::<T, T::Of<kernel::Bne>>,
        Jal { .. } => single::<T, T::Of<kernel::Jal>>,
        Jalr { .. } => single::<T, T::Of<kernel::Jalr>>,
        Load { .. } => single::<T, T::Of<kernel::Load>>,
        Store { .. } => single::<T, T::Of<kernel::Store>>,
    };
    Op {
        exec,
        s: [s, Slot::default()],
        n: 1,
    }
}

/// Expands the pair table into [`fuse`] (and, for the tests, the list
/// of its shapes): each row `First + Second` fuses that adjacent pair
/// into one op running [`pair`] over `kernel::First` and
/// `kernel::Second`, as the tally type wraps them.
macro_rules! pair_table {
    ($($first:ident + $second:ident),* $(,)?) => {
        /// Fuses two adjacent unfused ops into one when their
        /// instructions form a shape of the pair table. Components keep
        /// program order inside the fused body, so `None` is only about
        /// profitability, never correctness.
        fn fuse<T: Tally>(
            first: &Op<T>,
            second: &Op<T>,
            i1: &Instruction,
            i2: &Instruction,
        ) -> Option<Op<T>> {
            let exec: ExecFn<T> = match (i1, i2) {
                $(
                    (Instruction::$first { .. }, Instruction::$second { .. }) => {
                        pair::<T, T::Of<kernel::$first>, T::Of<kernel::$second>>
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

/// The nonzero entries of a per-opcode count table, as
/// `(opcode, count)`.
fn sparse(counts: &[u32; Instruction::OPCODE_COUNT]) -> Vec<(u8, u32)> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(o, &c)| (o as u8, c))
        .collect()
}

impl<T: Tally> Compiled<T> {
    /// Compiles `text` for tally `T`: one unfused op per instruction,
    /// numbering the inline-cache sites in address order, then greedy
    /// fusion in program order within each block. Returns the code and
    /// the site count.
    fn new(text: &[Instruction], blocks: &[Block]) -> (Self, usize) {
        let mut sites: u32 = 0;
        let ops: Vec<Op<T>> = text
            .iter()
            .enumerate()
            .map(|(pc, i)| compile_op(i, pc, &mut sites))
            .collect();
        let fused = blocks
            .iter()
            .map(|b| {
                let end = b.start + b.len;
                let mut fused = Vec::new();
                let mut pc = b.start;
                while pc < end {
                    let pair = (pc + 1 < end)
                        .then(|| fuse(&ops[pc], &ops[pc + 1], &text[pc], &text[pc + 1]))
                        .flatten();
                    let op = pair.unwrap_or(ops[pc]);
                    pc += op.n as usize;
                    fused.push(op);
                }
                fused
            })
            .collect();
        let tables = T::tables(text, blocks, &ops);
        let code = Compiled { ops, fused, tables };
        (code, sites as usize)
    }
}

impl ThreadedCode {
    /// Compiles the whole image: block heads, superblocks, and the
    /// plain code.
    pub(crate) fn compile(image: &PredecodedProgram) -> Self {
        let text = image.text_arc();
        let len = text.len();

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
            let mut counts = [0u32; Instruction::OPCODE_COUNT];
            for instr in text[start..=end].iter() {
                counts[instr.opcode()] += 1;
            }

            for slot in block_of.iter_mut().take(end + 1).skip(start) {
                *slot = blocks.len() as u32;
            }
            blocks.push(Block {
                start,
                len: end - start + 1,
                mix: sparse(&counts),
            });
            start = end + 1;
        }

        let (plain, sites) = Compiled::new(&text, &blocks);
        ThreadedCode {
            text,
            blocks,
            block_of,
            sites,
            plain,
            counted: OnceLock::new(),
        }
    }

    /// The counted twin, compiled on first use and then shared by every
    /// core built from this image.
    fn counted(&self) -> &Compiled<Flips> {
        self.counted
            .get_or_init(|| Compiled::new(&self.text, &self.blocks).0)
    }
}

/// The direct-threaded instruction-set simulator — architecturally
/// identical to [`FunctionalSim`](crate::FunctionalSim), about twice as
/// fast. The module-level docs describe the compilation pipeline.
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
    /// directly-credited mix (partial dispatch units and faults) and
    /// the accountant slot.
    arch: FunctionalSim,
    icache: Vec<InlineCache>,
    /// Completed executions per superblock. The hot loop bumps one
    /// counter per block run; the per-opcode mix is materialized
    /// lazily by `full_mix`.
    block_execs: Vec<u64>,
    /// The counted twin's bookkeeping; empty until the first counted
    /// run.
    scratch: CountScratch,
}

impl ThreadedSim {
    /// The one real constructor, reached through
    /// [`SimBuilder`](crate::SimBuilder).
    pub(crate) fn build(
        image: &PredecodedProgram,
        tdm_words: usize,
        energy: Option<Accountant>,
    ) -> Self {
        let code = image.threaded_code();
        let icache = vec![InlineCache::default(); code.sites];
        let block_execs = vec![0; code.blocks.len()];
        Self {
            code,
            arch: FunctionalSim::build(image, tdm_words, energy),
            icache,
            block_execs,
            scratch: CountScratch::default(),
        }
    }

    /// Materializes the dynamic mix: the directly-counted portion
    /// (partial dispatch units and faults) plus each block's sparse
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
            .plain
            .fused
            .iter()
            .flatten()
            .filter(|op| op.n == 2)
            .count()
    }

    /// The dispatch loop, over the plain code or its counted twin. A
    /// dispatch unit runs from `pc` to the end of its superblock: the
    /// block's fused ops when `pc` is the head and the budget covers
    /// the whole block, else the unfused ops `pc..min(block end, pc +
    /// remaining)`. Budget, halt and PC checks happen only between
    /// units, where control can transfer; the PC, the budget countdown
    /// and the step count live in locals, and the [`Machine`] is built
    /// once, so unit-to-unit transfers cost no memory round-trips
    /// through `self`.
    fn dispatch<T: Tally>(
        &mut self,
        tally: T::Live<'_>,
        budget: Budget,
    ) -> Result<RunSummary, SimError> {
        let code = &*self.code;
        let compiled = T::compiled(code);
        let text_len = code.text.len();
        // Steps and retired instructions advance in lockstep (every
        // architectural instruction is one step), so either budget
        // collapses to a single countdown computed once up front.
        let mut remaining = match budget {
            Budget::Steps(n) => n,
            Budget::Retired(n) => n.saturating_sub(self.arch.instructions),
        };
        let (mut steps, mut retired) = (0u64, 0u64);
        let mut halt = self.arch.halted;
        let mut failed = None;
        let mut m = Machine {
            state: &mut self.arch.state,
            icache: &mut self.icache,
            text_len,
            fault: None,
            tally: T::narrow(tally),
        };
        let mut pc = m.state.pc;
        if pc == text_len && halt.is_none() && remaining > 0 {
            // Only a core restored at the end of the text starts here
            // (reaching it halts); like the functional core, it halts
            // in one step.
            steps = 1;
            halt = Some(HaltReason::FellOffEnd);
        }
        while halt.is_none() && remaining > 0 {
            let bi = code.block_of[pc] as usize;
            let block = &code.blocks[bi];
            let n = remaining.min((block.start + block.len - pc) as u64) as usize;
            let whole = pc == block.start && n == block.len;
            let ops = if whole {
                &compiled.fused[bi][..]
            } else {
                &compiled.ops[pc..pc + n]
            };
            let step = match run_ops(&mut m, ops) {
                Ok(step) => step,
                Err(i) => {
                    failed = Some((ops, i));
                    break;
                }
            };
            T::ran(
                &mut m.tally,
                &compiled.tables,
                ops,
                pc..pc + n,
                whole.then_some(bi),
            );
            if whole {
                // Mix accounting is deferred: one counter bump per
                // block, the sparse per-opcode counts are folded in
                // lazily by `full_mix`.
                self.block_execs[bi] += 1;
            } else {
                for op in ops {
                    self.arch.mix[op.s[0].opcode as usize] += 1;
                }
            }
            retired += n as u64;
            steps += n as u64;
            remaining -= n as u64;
            (pc, halt) = next_pc(step, pc + n, text_len);
        }
        m.state.pc = pc;
        let failed = failed.map(|(ops, i)| {
            let fault = m.fault.take().expect("a faulting op parks its fault");
            // The faulting instruction itself has no write-back.
            let wrote = retired_slots(ops, i, &fault).count() - 1;
            let wrote = retired_slots(ops, i, &fault).take(wrote);
            T::faulted(&mut m.tally, &compiled.tables, wrote);
            (ops, i, fault)
        });
        // The tally may share the machine's borrow of the state.
        drop(m);
        self.arch.instructions += retired;
        if let Some((ops, i, fault)) = failed {
            return Err(settle(&mut self.arch, ops, i, fault, text_len));
        }
        self.arch.halted = halt;
        Ok(RunSummary {
            steps,
            retired: self.arch.instructions,
            halt,
        })
    }

    /// `run_for` with an `EnergyAccounting` attached: one dispatch over
    /// the counted twin, counting straight into the accountant. The
    /// retirements and static fetch flips of the blocks that ran whole
    /// are added once, on the way out.
    fn run_counted(
        &mut self,
        budget: Budget,
        acc: &mut EnergyAccounting,
    ) -> Result<RunSummary, SimError> {
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.execs.len() != self.code.blocks.len() {
            // The first counted run: every inline-cache entry is still
            // cold.
            scratch.execs = vec![0; self.code.blocks.len()];
            scratch.addresses = self.code.counted().tables.addresses.clone();
        }
        let was_halted = self.arch.halted.is_some();
        let counting = Counting {
            acc: &mut *acc,
            scratch: &mut scratch,
            address: Word9::ZERO,
            cell: Word9::ZERO,
        };
        let out = self.dispatch::<Flips>(counting, budget);
        let code = &*self.code;
        let fetch = &code.counted().tables.blocks;
        for block in scratch.ran.drain(..) {
            let block = block as usize;
            let execs = std::mem::take(&mut scratch.execs[block]);
            for &(opcode, count) in &code.blocks[block].mix {
                acc.per_opcode[opcode as usize].retired += count as u64 * execs;
            }
            for &(opcode, flips) in &fetch[block] {
                acc.per_opcode[opcode as usize].fetch += flips as u64 * execs;
            }
        }
        self.scratch = scratch;
        if matches!(out, Ok(RunSummary { halt: Some(_), .. })) && !was_halted {
            // The accountant resets its history on halt, as on every
            // other path.
            acc.halted();
        }
        out
    }
}

/// Settles a fault raised by op `i` of the straight-line run `ops` on
/// `arch` precisely: every instruction [`retired_slots`] names counts
/// as retired, and the pc rests on the faulting instruction.
fn settle<T: Tally>(
    arch: &mut FunctionalSim,
    ops: &[Op<T>],
    i: usize,
    fault: Fault,
    text_len: usize,
) -> SimError {
    for s in retired_slots(ops, i, &fault) {
        arch.instructions += 1;
        arch.mix[s.opcode as usize] += 1;
    }
    match fault {
        Fault::Mem { pc, cause, .. } => {
            arch.state.pc = pc;
            SimError::MemoryFault { pc, cause }
        }
        Fault::Wild { target, at_pc } => {
            arch.state.pc = at_pc as usize;
            SimError::PcOutOfRange {
                at: arch.instructions,
                pc: target,
                tim_size: text_len,
            }
        }
    }
}

/// The instructions that count as retired when op `i` of the
/// straight-line run `ops` faults: every op before it in full, plus the
/// faulting op's components up to and including the faulting one (the
/// functional backend counts a faulting instruction as retired).
fn retired_slots<'o, T: Tally>(
    ops: &'o [Op<T>],
    i: usize,
    fault: &Fault,
) -> impl Iterator<Item = &'o Slot> {
    let partial = match fault {
        Fault::Mem { retired, .. } => *retired,
        Fault::Wild { .. } => ops[i].n,
    };
    ops[..i]
        .iter()
        .flat_map(|op| &op.s[..op.n as usize])
        .chain(&ops[i].s[..partial as usize])
}

/// Runs a dispatch unit's straight-line op sequence: a block's fused
/// ops, or unfused ops within one block. Only its last op can transfer
/// control, so any step but a fault means every op ran; a fault returns
/// the index of the faulting op.
#[inline(always)]
fn run_ops<T: Tally>(m: &mut Machine<'_, T>, ops: &[Op<T>]) -> Result<Step, usize> {
    for op in ops {
        match (op.exec)(m, op) {
            Step::Next => {}
            // The index is recovered from the reference offset — only
            // this cold path pays for it, not the hot loop.
            Step::Fault => {
                let offset = op as *const Op<T> as usize - ops.as_ptr() as usize;
                return Err(offset / std::mem::size_of::<Op<T>>());
            }
            step => return Ok(step),
        }
    }
    Ok(Step::Next)
}

/// Where control goes after a dispatch unit that ended in `step`
/// (never [`Step::Fault`]): `fall` is the address just past it, where a
/// fall-through continues — or halts, at the end of the text. Returns
/// the next PC and the halt reason, if any.
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

    /// One instruction: a dispatch unit of one on the compiled paths.
    fn step(&mut self) -> Result<Option<HaltReason>, SimError> {
        self.run_for(Budget::Steps(1)).map(|summary| summary.halt)
    }

    /// With no accountant: the plain code. With one: the counted twin,
    /// with the accountant locked for the call (and moved out of the
    /// core meanwhile, so a panic leaves the core without it).
    fn run_for(&mut self, budget: Budget) -> Result<RunSummary, SimError> {
        let Some(energy) = self.arch.energy.take() else {
            return self.dispatch::<()>((), budget);
        };
        let out = self.run_counted(budget, &mut lock(&energy));
        self.arch.energy = Some(energy);
        out
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
        checkpoint.guard(Backend::Threaded, self.code.text.len())?;
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
    use std::sync::Mutex;

    use super::*;
    use crate::core::SimBuilder;
    use crate::observer::observers::OpcodeActivity;
    use art9_isa::{assemble, TReg};

    fn pair(src: &str) -> (crate::FunctionalSim, ThreadedSim) {
        let p = assemble(src).unwrap();
        let b = SimBuilder::new(&p);
        (b.build_functional(), b.build_threaded())
    }

    type Activity = [OpcodeActivity; Instruction::OPCODE_COUNT];

    /// A fresh accountant.
    fn packed() -> Arc<Mutex<EnergyAccounting>> {
        Arc::new(Mutex::new(EnergyAccounting::new()))
    }

    fn activity(energy: &Mutex<EnergyAccounting>) -> Activity {
        *energy.lock().unwrap().per_opcode()
    }

    /// The reference: `b`'s program on the functional core with a
    /// packed accountant, run to halt (or fault).
    fn functional_activity(b: &SimBuilder) -> Activity {
        let energy = packed();
        let _ = b
            .clone()
            .observer(energy.clone())
            .build_functional()
            .run(100_000);
        activity(&energy)
    }

    /// Whether the core's image has compiled its counted twin.
    fn counted(sim: &ThreadedSim) -> bool {
        sim.code.counted.get().is_some()
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
        assert_eq!(t.code.sites, 3);
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
    /// past the end of the TDM) when `fault` is set; a faulting branch
    /// jumps out of the text.
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
            // Wild: taken (the preceding COMP leaves LST + in t3) to
            // pc 7 - 40, before the text.
            ("BEQ", _) if fault => "BEQ t3, +, -40".into(),
            ("BNE", _) if fault => "BNE t3, -, -40".into(),
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
        // Memory components fault on a bad address; a branch, always
        // second, on a wild target.
        let can_fault = |k: u8, m: &str| {
            matches!(m, "Load" | "Store") || (k == 2 && matches!(m, "Beq" | "Bne"))
        };
        for &(first, second) in PAIR_SHAPES {
            let faults = [(1, first), (2, second)]
                .into_iter()
                .filter(|&(k, m)| can_fault(k, m))
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
                    (Err(SimError::PcOutOfRange { pc: -33, .. }), Some(2)) => {}
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
                // Counted: the same run, and the accountant's counters
                // bit-identical to the functional core's.
                let energy = packed();
                let mut counting = b.clone().observer(energy.clone()).build_threaded();
                assert_eq!(counting.run(1_000), want, "{ctx}");
                assert!(counted(&counting), "{ctx}: ran the counted twin");
                assert_eq!(activity(&energy), functional_activity(&b), "{ctx}");
                for t in [&free, &stepped, &counting] {
                    assert_eq!(f.state().first_difference(t.state()), None, "{ctx}");
                    assert_eq!(f.state().pc, t.state().pc, "{ctx}");
                    assert_eq!(f.retired(), t.retired(), "{ctx}");
                    assert_eq!(f.instruction_mix(), t.instruction_mix(), "{ctx}");
                }
            }
        }
    }

    #[test]
    fn counted_energy_is_exact_under_every_retired_slicing() {
        let p = assemble(COUNTDOWN).unwrap();
        let b = SimBuilder::new(&p);
        let want = functional_activity(&b);
        // One instruction at a time, first: the image has not compiled
        // its counted twin yet, so only `step` can compile it here.
        let energy = packed();
        let mut sim = b.clone().observer(energy.clone()).build_threaded();
        while Core::step(&mut sim).unwrap().is_none() {}
        assert!(counted(&sim), "step runs the counted twin");
        assert_eq!(activity(&energy), want, "stepped");
        // Slices of every length up to past the whole run (53
        // instructions).
        for cut in 1..=60u64 {
            let energy = packed();
            let mut sim = b.clone().observer(energy.clone()).build_threaded();
            loop {
                let target = sim.retired() + cut;
                let summary = Core::run_for(&mut sim, Budget::Retired(target)).unwrap();
                if summary.halt.is_some() {
                    break;
                }
                assert_eq!(sim.retired(), target, "slices of {cut}");
            }
            assert_eq!(activity(&energy), want, "slices of {cut}");
        }
    }

    #[test]
    fn counted_energy_is_exact_after_a_mid_block_jalr_landing() {
        // JALR jumps to pc 5 each iteration, the middle of the block
        // 3..=9, whose counted tail then runs up to the loop's branch.
        let src = "LI t3, 3
LI t1, 5
loop:
JALR t2, t1, 0
ADDI t4, 1
ADDI t4, 1
                   ADDI t4, 2
ADDI t3, -1
MV t7, t3
COMP t7, t0
BEQ t7, +, loop
JAL t0, 0
";
        let p = assemble(src).unwrap();
        let b = SimBuilder::new(&p);
        let energy = packed();
        let mut sim = b.clone().observer(energy.clone()).build_threaded();
        assert!(
            sim.superblocks().contains(&(3, 7)),
            "{:?}",
            sim.superblocks()
        );
        sim.run(1_000).unwrap();
        assert!(counted(&sim));
        assert_eq!(sim.state().reg(TReg::T4).to_i64(), 6);
        assert_eq!(activity(&energy), functional_activity(&b));
    }

    #[test]
    fn counted_energy_is_exact_on_cold_inline_cache_hits() {
        // A cold inline-cache entry keys the base `ZERO`, so the first
        // LOAD and STORE at each site below, whose base t5 is still
        // `ZERO`, hit it: their result-bus word is then the offset
        // word, not `ZERO`. The second pass misses on base 1. The
        // second LOAD overwrites its own base register, so its bus
        // word is the address it resolved before the write.
        let src = "
            .data
            v: .word 5, -7, 11, 0
            .text
            LI t3, 2
        loop:
            LOAD t4, t5, 1
            STORE t4, t5, 3
            LI t6, 2
            LOAD t6, t6, -1
            ADDI t3, -1
            MV t5, t3
            MV t7, t3
            COMP t7, t0
            BEQ t7, +, loop
            JAL t0, 0
        ";
        let p = assemble(src).unwrap();
        let b = SimBuilder::new(&p);
        let want = functional_activity(&b);
        let energy = packed();
        let mut run = b.clone().observer(energy.clone()).build_threaded();
        run.run(1_000).unwrap();
        assert!(counted(&run));
        assert_eq!(run.state().reg(TReg::T6).to_i64(), -7);
        assert_eq!(activity(&energy), want, "run");
        let energy = packed();
        let mut stepped = b.clone().observer(energy.clone()).build_threaded();
        while Core::step(&mut stepped).unwrap().is_none() {}
        assert_eq!(activity(&energy), want, "stepped");
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
