//! # `art9` — umbrella crate of the ART-9 reproduction
//!
//! Re-exports the whole workspace so examples and downstream users can
//! depend on one crate:
//!
//! * [`ternary`] — balanced ternary number system;
//! * [`art9_isa`] — the 24-instruction 9-trit ISA, assembler and
//!   disassembler;
//! * [`art9_sim`] — functional and cycle-accurate 5-stage simulators;
//! * [`rv32`] — the RV32I/M substrate with PicoRV32/VexRiscv cycle
//!   models;
//! * [`art9_compiler`] — the software-level compiling framework;
//! * [`art9_hw`] — the gate-level analyzer, technology libraries and
//!   FPGA model;
//! * [`workloads`] — the paper's benchmark programs.
//!
//! The paper's two frameworks are [`art9_compiler`] (software level,
//! Fig. 2) and [`art9_hw`] with [`art9_sim`] (hardware level, Fig. 3).
//! The `art9-bench` crate composes them into the paper's tables: its
//! `report` module holds the Fig. 3 evaluation flow and the Fig. 5
//! comparison, and its `report` binary prints every table and figure.
//!
//! See `examples/quickstart.rs` for a three-minute tour, and
//! EXPERIMENTS.md for the paper-vs-measured record of every table and
//! figure.

#![forbid(unsafe_code)]

pub use art9_compiler;
pub use art9_hw;
pub use art9_isa;
pub use art9_sim;
pub use rv32;
pub use ternary;
pub use workloads;
