//! # `art9-sim` — ART-9 processor simulators
//!
//! The simulation half of the paper's hardware-level evaluation
//! framework (§III-B): **one execution API, four backends**. Every
//! backend implements the [`Core`] trait and is built through the one
//! [`SimBuilder`]:
//!
//! * [`Backend::Functional`] → [`FunctionalSim`] — architecture-level
//!   reference simulator (one instruction per step, no timing).
//! * [`Backend::Pipelined`] → [`PipelinedSim`] — the cycle-accurate
//!   model of the 5-stage pipeline of Fig. 4, with the hazard detection
//!   unit, full forwarding, the ID-stage branch unit, and the exact
//!   stall behaviour the paper claims (load-use hazards and taken
//!   branches only).
//! * [`Backend::Reference`] → [`ReferenceSim`] — a deliberately slow
//!   per-trit interpreter sharing no execution code with the others;
//!   the third corner of the differential-fuzzing triangle.
//! * [`Backend::Threaded`] → [`ThreadedSim`] — the throughput backend:
//!   the program is compiled once into direct-threaded host code with
//!   superblock formation, fused op pairs and inline-cached TDM bases,
//!   architecturally identical to the functional backend (and fuzzed
//!   against it in lockstep).
//!
//! Around the trait:
//!
//! * Energy accounting — one [`observers::EnergyAccounting`] per
//!   core, attached with [`SimBuilder::observer`], counting the trit
//!   flips of every retirement on any backend.
//! * [`Checkpoint`] — serializable snapshot/resume
//!   ([`Core::snapshot`]/[`Core::restore`]) that continues
//!   bit-identically, microarchitectural state included.
//! * [`PipelineStats`] — cycle/stall accounting feeding the DMIPS and
//!   DMIPS/W numbers of Tables II–V.
//! * [`PredecodedProgram`] — a decode-once, `Arc`-shared program image
//!   every backend fetches from, with its per-PC execution rows and its
//!   threaded compilation built once on first use; the throughput path
//!   for batch runs (see `docs/PERFORMANCE.md`).
//!
//! The functional and pipelined backends execute through one ALU and
//! one branch unit over those rows, the threaded backend's kernels are
//! compiled from the same rows (with the public [`shift`]), and all four
//! backends are property-tested to agree architecturally against the
//! reference, which shares none of that code. The full API contract
//! lives in `docs/API.md`.
//!
//! ## Quick start
//!
//! ```
//! use art9_isa::assemble;
//! use art9_sim::{Backend, Budget, Core, SimBuilder};
//!
//! let program = assemble("
//!     LI   t3, 100
//!     LI   t4, 0
//! loop:
//!     ADD  t4, t3
//!     ADDI t3, -1
//!     MV   t7, t3
//!     COMP t7, t0          ; branches test one trit: preset it via COMP
//!     BEQ  t7, +, loop
//!     JAL  t0, 0
//! ")?;
//!
//! let mut core = SimBuilder::new(&program)
//!     .backend(Backend::Pipelined)
//!     .build();
//! let summary = core.run_for(Budget::Steps(100_000))?;
//! assert!(summary.halt.is_some());
//! assert_eq!(core.state().reg("t4".parse()?).to_i64(), 5050);
//! let stats = core.pipeline_stats().expect("pipelined backend");
//! println!("CPI = {:.2}", stats.cpi());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
mod core;
mod error;
mod exec;
mod functional;
mod observer;
mod pipeline;
mod predecode;
mod reference;
mod stats;
mod threaded;
mod trace;

pub use crate::core::{Backend, Budget, Core, RunSummary, SimBuilder};
pub use checkpoint::Checkpoint;
pub use error::SimError;
pub use exec::shift;
pub use functional::{CoreState, FunctionalSim, HaltReason, DEFAULT_TDM_WORDS};
pub use observer::observers;
pub use pipeline::PipelinedSim;
pub use predecode::PredecodedProgram;
pub use reference::ReferenceSim;
pub use stats::PipelineStats;
pub use threaded::ThreadedSim;
pub use trace::{CycleTrace, StageSnapshot};
