//! # `art9-isa` — the ART-9 instruction set architecture
//!
//! The 9-trit, 24-instruction ternary ISA of the paper's Table I:
//!
//! * [`TReg`] — the nine general-purpose ternary registers with their
//!   2-trit balanced index encoding.
//! * [`Instruction`] — the 24 instructions (R/I/B/M formats) with
//!   operand-exact immediate widths.
//! * [`encode`] / [`decode`] — the trit-level prefix-code layout
//!   (DESIGN.md §3.1); exact inverses, property-tested.
//! * [`assemble`] — a two-pass assembler with labels, sections, data
//!   directives and `hi()`/`lo()` immediate splitting.
//! * [`Program`] — assembled TIM/TDM images with the memory-cell (trit)
//!   accounting used by the paper's Fig. 5.
//!
//! A narrative reference for the whole instruction set — machine
//! model, per-instruction semantics, encoding scheme and assembler
//! syntax — lives in `docs/ISA.md` at the repository root.
//!
//! ## Quick start
//!
//! ```
//! use art9_isa::{assemble, disassemble_image};
//!
//! let program = assemble("
//!     LI   t3, 10          ; counter
//! loop:
//!     ADDI t3, -1
//!     BNE  t3, 0, loop     ; spin down to zero
//! ")?;
//!
//! assert_eq!(program.text().len(), 3);
//! assert_eq!(program.instruction_cells(), 27); // 3 x 9 trits
//! println!("{}", disassemble_image(&program.tim_image()));
//! # Ok::<(), art9_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod decode;
mod disasm;
mod encode;
mod error;
mod instr;
mod program;
mod reg;

pub use asm::assemble;
pub use decode::decode;
pub use disasm::{disassemble_image, disassemble_word};
pub use encode::encode;
pub use error::{AsmErrorKind, IsaError};
pub use instr::{imm, Format, Imm2, Imm3, Imm4, Imm5, Instruction, NOP};
pub use program::{Program, Section, Symbol};
pub use reg::{TReg, ALL_REGS};
