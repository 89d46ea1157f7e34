//! # `ternary` — the balanced ternary number system
//!
//! Substrate crate of the ART-9 reproduction ("Design and Evaluation
//! Frameworks for Advanced RISC-based Ternary Processor", DATE 2022).
//! Everything the ternary processor computes with lives here:
//!
//! * [`Trit`] — the balanced ternary digit (−1/0/+1) with the logic
//!   operations of the paper's Fig. 1 (AND/OR/XOR/STI/NTI/PTI) and the
//!   ternary full-adder cell.
//! * [`Trits<N>`](Trits) / [`Word9`] — fixed-width little-endian trit
//!   words with wrapping arithmetic, balanced shifts, trit-wise logic and
//!   field extraction/splicing for instruction encoding. Words are
//!   stored as two packed binary bitplanes and every kernel is
//!   word-level bit-twiddling (see `docs/PERFORMANCE.md`); the per-trit
//!   reference algorithms live in [`arith`].
//! * [`encoding`] — binary-coded balanced ternary (2 bits/trit), the
//!   representation the paper's FPGA verification platform uses.
//! * [`simd`] — bitplane-SIMD lanes ([`simd::Word9xN`]): many 9-trit
//!   words packed across wide bitplanes, with the word-parallel kernels
//!   lifted to every lane at once and a ternary-weight
//!   multiply-accumulate for the NN workloads.
//! * [`TernaryMemory`] — word-addressed TIM/TDM models with memory-cell
//!   (trit) accounting for Fig. 5.
//!
//! ## Quick start
//!
//! ```
//! use ternary::{Trit, Word9};
//!
//! // 9-trit balanced words cover −9841..=9841.
//! let a = Word9::from_i64(1000)?;
//! let b = Word9::from_i64(-250)?;
//!
//! assert_eq!((a + b).to_i64(), 750);
//! assert_eq!((-a).to_i64(), -1000);      // negation = trit-wise STI
//! assert_eq!(a.shl(1).to_i64(), 3000);   // shift = ×3
//! assert_eq!(a.compare(b).lst(), Trit::P); // COMP semantics
//! # Ok::<(), ternary::TernaryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arith;
pub mod encoding;
mod error;
mod memory;
mod planes;
pub mod simd;
mod trit;
mod word;

pub use error::TernaryError;
pub use memory::TernaryMemory;
pub use trit::{Trit, ALL_TRITS};
pub use word::{pow3, Trits, Word9};
