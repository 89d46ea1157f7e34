//! Decode-once program images shared across simulator instances.
//!
//! An ART-9 core fetches 9-trit TIM words and decodes them in ID every
//! cycle; a software simulator has no reason to. [`PredecodedProgram`]
//! decodes every TIM word exactly once into a dense instruction vector,
//! precomputes the per-PC link values (`PC + 1` as a [`Word9`], the
//! JAL/JALR link every [`crate::talu`] call needs), and hands both out
//! behind `Arc`s — so any number of [`FunctionalSim`](crate::FunctionalSim)
//! and [`PipelinedSim`](crate::PipelinedSim) instances (across threads)
//! fetch from the same image with no per-simulator copy and no
//! per-step decode or conversion work.
//!
//! The batch driver (`workloads::batch::BatchRunner`) builds one
//! predecoded image per workload in its prepare stage and shares it
//! across every simulator configuration of the run matrix.

use std::sync::{Arc, OnceLock};

use art9_isa::{decode, Instruction, IsaError, Program};
use ternary::Word9;

use crate::pipeline::Hazard;
use crate::threaded::ThreadedCode;

/// An ART-9 program decoded once into simulator-ready form.
///
/// Cloning is O(1): the instruction image, the link table and the data
/// image are all behind `Arc`s, which is what lets a batch run share
/// one decode across its whole simulator matrix.
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
    links: Arc<[Word9]>,
    data: Arc<[Word9]>,
    /// Direct-threaded compilation of this image, filled on the first
    /// `build_threaded` and shared (the cell itself is behind an `Arc`,
    /// so every clone of the image sees one compilation).
    threaded: Arc<OnceLock<Arc<ThreadedCode>>>,
    /// The pipeline's per-PC hazard rows, filled on the first
    /// `build_pipelined` and shared the same way.
    hazards: Arc<OnceLock<Arc<[Hazard]>>>,
}

impl PredecodedProgram {
    /// Predecodes an assembled [`Program`] (whose text is already a
    /// decoded instruction list — this builds the shared image and the
    /// link table around it).
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
        let links: Vec<Word9> = (0..text.len())
            .map(|pc| Word9::from_i64_wrapping(pc as i64 + 1))
            .collect();
        Self {
            text: text.into(),
            links: links.into(),
            data: data.into(),
            threaded: Arc::new(OnceLock::new()),
            hazards: Arc::new(OnceLock::new()),
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

    /// Shared handle to the per-PC link table (O(1) clone).
    pub(crate) fn links_arc(&self) -> Arc<[Word9]> {
        Arc::clone(&self.links)
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

    /// The pipeline's hazard row of every instruction, built exactly
    /// once per image (so preparing an image that never runs on the
    /// pipelined backend does not pay for it).
    pub(crate) fn hazards(&self) -> Arc<[Hazard]> {
        Arc::clone(
            self.hazards
                .get_or_init(|| self.text.iter().map(Hazard::of).collect()),
        )
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
    fn link_table_holds_pc_plus_one() {
        let p = assemble("NOP\nNOP\nNOP\n").unwrap();
        let pd = PredecodedProgram::new(&p);
        for pc in 0..pd.len() {
            assert_eq!(pd.links_arc()[pc].to_i64(), pc as i64 + 1);
        }
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
