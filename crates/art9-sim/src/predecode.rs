//! Decode-once program images shared across simulator instances.
//!
//! An ART-9 core fetches 9-trit TIM words and decodes them in ID every
//! cycle; a software simulator has no reason to. [`PredecodedProgram`]
//! decodes every TIM word exactly once into a dense instruction vector
//! and hands it out behind an `Arc`, so any number of cores (across
//! threads) fetch from the same image with no per-simulator copy.
//!
//! Each execution form is derived from that vector once per image, on
//! first use, and shared by every clone through an `Arc`'d `OnceLock`:
//!
//! * the per-PC execution rows ([`Row`]): opcode, register indices,
//!   hazard slots, and the immediate, link word and target resolved to
//!   the form the shared ALU consumes. The functional core builds them
//!   on its first step and the pipelined core when it is built, so a
//!   threaded-only preparation never pays for them;
//! * the direct-threaded compilation, built by the first threaded core.
//!
//! The batch driver (`workloads::batch::BatchRunner`) builds one
//! predecoded image per workload in its prepare stage and shares it
//! across every simulator configuration of the run matrix.

use std::sync::{Arc, OnceLock};

use art9_isa::{decode, Instruction, IsaError, Program};
use ternary::Word9;

use crate::exec::Row;
use crate::threaded::ThreadedCode;

/// An ART-9 program decoded once into simulator-ready form.
///
/// Cloning is O(1): the instruction image, the data image and the
/// derived execution forms are all behind `Arc`s, which is what lets a
/// batch run share one decode across its whole simulator matrix.
///
/// # Examples
///
/// Build once, run under any backend without re-decoding (the builder
/// shares the image by `Arc`):
///
/// ```
/// use art9_isa::assemble;
/// use art9_sim::{Backend, Budget, Core, PredecodedProgram, SimBuilder};
///
/// let program = assemble("LI t3, 41\nADDI t3, 1\nJAL t0, 0\n")?;
/// let image = PredecodedProgram::new(&program);
///
/// let builder = SimBuilder::new(&image);
/// let mut fast = builder.build();
/// fast.run_for(Budget::Steps(1_000))?;
/// let mut timed = builder.clone().backend(Backend::Pipelined).build();
/// timed.run_for(Budget::Steps(1_000))?;
///
/// assert_eq!(fast.state().trf, timed.state().trf);
/// assert_eq!(fast.state().reg("t3".parse()?).to_i64(), 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PredecodedProgram {
    text: Arc<[Instruction]>,
    data: Arc<[Word9]>,
    /// Direct-threaded compilation of this image, filled on the first
    /// `build_threaded` and shared (the cell itself is behind an `Arc`,
    /// so every clone of the image sees one compilation).
    threaded: Arc<OnceLock<Arc<ThreadedCode>>>,
    /// The per-PC execution rows, filled on the first functional step
    /// or `build_pipelined` and shared the same way.
    rows: Arc<OnceLock<Arc<[Row]>>>,
}

impl PredecodedProgram {
    /// Predecodes an assembled [`Program`] (whose text is already a
    /// decoded instruction list — this builds the shared image around
    /// it).
    pub fn new(program: &Program) -> Self {
        Self::from_parts(program.text().to_vec(), program.data().to_vec())
    }

    /// Decodes a raw TIM word image — e.g. one loaded from an FPGA
    /// `.mif` — exactly once, together with its initial TDM image.
    ///
    /// # Errors
    ///
    /// Propagates the first [`IsaError`] from an undecodable word.
    ///
    /// # Examples
    ///
    /// ```
    /// use art9_isa::assemble;
    /// use art9_sim::PredecodedProgram;
    ///
    /// let program = assemble("LI t3, 7\nJAL t0, 0\n")?;
    /// let image = PredecodedProgram::from_tim_image(&program.tim_image(), &[])?;
    /// assert_eq!(image.text(), program.text());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn from_tim_image(tim: &[Word9], data: &[Word9]) -> Result<Self, IsaError> {
        let text = tim
            .iter()
            .map(|w| decode(*w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_parts(text, data.to_vec()))
    }

    fn from_parts(text: Vec<Instruction>, data: Vec<Word9>) -> Self {
        Self {
            text: text.into(),
            data: data.into(),
            threaded: Arc::new(OnceLock::new()),
            rows: Arc::new(OnceLock::new()),
        }
    }

    /// Number of instructions in the image.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// `true` when the image holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The decoded instruction sequence (TIM contents, in order).
    pub fn text(&self) -> &[Instruction] {
        &self.text
    }

    /// The initial TDM image.
    pub fn data(&self) -> &[Word9] {
        &self.data
    }

    /// Content hash of the image (FNV-1a over the encoded TIM words
    /// and the initial TDM words). Two programs hash equal exactly
    /// when their instruction text and initial data are identical, so
    /// a cache keyed on this value holds **one image per distinct
    /// program** however many sessions submit it — the multi-tenant
    /// analogue of the per-image `OnceLock` threaded-code cache.
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: i64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        eat(self.text.len() as i64);
        for instr in self.text.iter() {
            eat(art9_isa::encode(instr).to_i64());
        }
        for word in self.data.iter() {
            eat(word.to_i64());
        }
        h
    }

    /// Shared handle to the instruction image (O(1) clone).
    pub(crate) fn text_arc(&self) -> Arc<[Instruction]> {
        Arc::clone(&self.text)
    }

    /// The direct-threaded compilation of this image, compiled exactly
    /// once however many `ThreadedSim`s are built from it (or from its
    /// clones).
    pub(crate) fn threaded_code(&self) -> Arc<ThreadedCode> {
        Arc::clone(
            self.threaded
                .get_or_init(|| Arc::new(ThreadedCode::compile(self))),
        )
    }

    /// The execution row of every instruction, built exactly once per
    /// image on the first call (so preparing an image that never runs
    /// on the functional or pipelined core does not pay for it).
    #[inline]
    pub(crate) fn rows(&self) -> &Arc<[Row]> {
        self.rows.get_or_init(|| {
            let rows = self.text.iter().enumerate();
            rows.map(|(pc, instr)| Row::of(instr, pc)).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use art9_isa::assemble;

    #[test]
    fn new_matches_program_text_and_data() {
        let p = assemble(".data\nv: .word 3, 4\n.text\nLI t3, 1\nJAL t0, 0\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        assert_eq!(pd.text(), p.text());
        assert_eq!(pd.data(), p.data());
        assert_eq!(pd.len(), 2);
        assert!(!pd.is_empty());
    }

    #[test]
    fn from_tim_image_decodes_once() {
        let p = assemble("LI t3, 7\nADD t3, t4\nSTORE t3, t2, 1\n").unwrap();
        let pd = PredecodedProgram::from_tim_image(&p.tim_image(), p.data()).unwrap();
        assert_eq!(pd.text(), p.text());
    }

    #[test]
    fn rows_are_built_once_and_shared() {
        let p = assemble("JAL t1, 1\nNOP\nJAL t0, 0\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        let clone = pd.clone();
        assert!(pd.rows.get().is_none(), "rows are built on demand");
        assert!(Arc::ptr_eq(pd.rows(), clone.rows()));
        for (pc, row) in pd.rows().iter().enumerate() {
            assert_eq!(*row, Row::of(&p.text()[pc], pc));
        }
    }

    #[test]
    fn only_cores_that_step_the_rows_build_them() {
        use crate::observers::EnergyAccounting;
        use crate::{Budget, Core, SimBuilder};
        use std::sync::Mutex;
        let p = assemble("LI t3, 2\nADDI t3, 1\nJAL t0, 0\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        let mut threaded = SimBuilder::new(pd.clone()).build_threaded();
        threaded.run_for(Budget::Steps(100)).unwrap();
        threaded.step().unwrap();
        assert!(pd.rows.get().is_none(), "compiled code needs no rows");
        // Nor does the counted code, stepped or run.
        let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
        let counted = SimBuilder::new(pd.clone()).observer(energy.clone());
        let mut stepped = counted.build_threaded();
        stepped.step().unwrap();
        let mut run = counted.build_threaded();
        run.run_for(Budget::Steps(100)).unwrap();
        assert_eq!(energy.lock().unwrap().totals().retired, 1 + 3);
        assert!(pd.rows.get().is_none(), "counted code needs no rows");
        let mut functional = SimBuilder::new(pd.clone()).build_functional();
        assert!(pd.rows.get().is_none(), "built on the first step");
        functional.step().unwrap();
        assert!(pd.rows.get().is_some());
    }

    #[test]
    fn rows_hold_pc_plus_one_links() {
        let p = assemble("JAL t1, 1\nJALR t1, t2, 0\nJAL t0, 0\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        for (pc, row) in pd.rows().iter().enumerate() {
            assert_eq!(row.imm.to_i64(), pc as i64 + 1);
        }
        // A JAL's target is absolute.
        assert_eq!(pd.rows()[0].off, 1);
    }

    #[test]
    fn clones_share_storage() {
        let p = assemble("NOP\nJAL t0, 0\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        let clone = pd.clone();
        assert!(Arc::ptr_eq(&pd.text, &clone.text));
        assert!(Arc::ptr_eq(&pd.data, &clone.data));
    }

    #[test]
    fn content_hash_tracks_text_and_data() {
        let a = PredecodedProgram::new(&assemble("LI t3, 1\nJAL t0, 0\n").unwrap());
        let same = PredecodedProgram::new(&assemble("LI t3, 1\nJAL t0, 0\n").unwrap());
        assert_eq!(a.content_hash(), same.content_hash());
        // A different instruction, different data, or a length change
        // all move the hash.
        let text = PredecodedProgram::new(&assemble("LI t3, 2\nJAL t0, 0\n").unwrap());
        assert_ne!(a.content_hash(), text.content_hash());
        let data = PredecodedProgram::new(
            &assemble(".data\nv: .word 9\n.text\nLI t3, 1\nJAL t0, 0\n").unwrap(),
        );
        assert_ne!(a.content_hash(), data.content_hash());
        let longer = PredecodedProgram::new(&assemble("LI t3, 1\nNOP\nJAL t0, 0\n").unwrap());
        assert_ne!(a.content_hash(), longer.content_hash());
    }

    #[test]
    fn empty_program() {
        let pd = PredecodedProgram::from_tim_image(&[], &[]).unwrap();
        assert!(pd.is_empty());
        assert_eq!(pd.len(), 0);
    }
}
