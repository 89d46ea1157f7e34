//! Faults are architectural too. The fuzz generator builds fault-free
//! programs, so no random program reaches a backend's fault paths;
//! this table drives each of them by hand. For every case the
//! functional, threaded and per-trit reference backends must raise
//! the same [`SimError`] and leave the same retired count, instruction
//! mix, PC and register file — including a JAL/JALR link already
//! written when the transfer itself faults. The pipelined backend
//! counts cycles, not instructions, in `PcOutOfRange::at`, so it must
//! match the error's variant and its faulting `pc` (and `cause`).

use art9_isa::assemble;
use art9_sim::{Backend, SimBuilder, SimError};

/// `(name, program, fault site)`: each program faults within a few
/// instructions, at the site [`site`] names.
const CASES: &[(&str, &str, &str)] = &[
    // t2 = 243 + 13 = 256, one word above the default 256-word TDM.
    (
        "load above TDM",
        "LUI t2, 1\nLI t2, 13\nLOAD t3, t2, 0\nJAL t0, 0\n",
        "memory-fault at 2: AddressRange { address: 256, size: 256 }",
    ),
    (
        "store below TDM",
        "LI t3, 7\nLI t2, -1\nSTORE t3, t2, 0\nJAL t0, 0\n",
        "memory-fault at 2: AddressRange { address: -1, size: 256 }",
    ),
    (
        "load at 0 - 1",
        "LI t3, 5\nLOAD t3, t4, -1\nJAL t0, 0\n",
        "memory-fault at 1: AddressRange { address: -1, size: 256 }",
    ),
    // t2 = 40·243 + 121 = 9841, the largest word: the address wraps
    // past it to the most negative one, as `Word9::wrapping_add` does.
    (
        "load wraps past 9841",
        "LUI t2, 40\nLI t2, 121\nLOAD t3, t2, 1\nJAL t0, 0\n",
        "memory-fault at 2: AddressRange { address: -9841, size: 256 }",
    ),
    (
        "jalr to 121",
        "LI t2, 121\nJALR t1, t2, 0\nJAL t0, 0\n",
        "pc-out-of-range 121 of 3",
    ),
    (
        "jalr to -2",
        "LI t2, -2\nJALR t1, t2, 0\nJAL t0, 0\n",
        "pc-out-of-range -2 of 3",
    ),
    (
        "jalr with a == b",
        "LI t2, 121\nJALR t2, t2, 0\nJAL t0, 0\n",
        "pc-out-of-range 121 of 3",
    ),
    (
        "jal past the end",
        "NOP\nJAL t1, 5\nJAL t0, 0\n",
        "pc-out-of-range 6 of 3",
    ),
    (
        "beq to -9",
        "NOP\nBEQ t0, 0, -10\nJAL t0, 0\n",
        "pc-out-of-range -9 of 3",
    ),
    (
        "bne past the end",
        "LI t3, 1\nBNE t0, +, 30\nJAL t0, 0\n",
        "pc-out-of-range 31 of 3",
    ),
];

/// The error's variant with its faulting PC (the computed target for
/// `PcOutOfRange`) and cause: what the pipelined backend must share.
fn site(err: &SimError) -> String {
    match err {
        SimError::PcOutOfRange { pc, tim_size, .. } => {
            format!("pc-out-of-range {pc} of {tim_size}")
        }
        SimError::MemoryFault { pc, cause } => format!("memory-fault at {pc}: {cause:?}"),
        other => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn every_backend_faults_alike() {
    for (name, src, want) in CASES {
        let program = assemble(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let builder = SimBuilder::new(&program);
        let mut expected = None;
        for backend in [Backend::Functional, Backend::Threaded, Backend::Reference] {
            let mut core = builder.clone().backend(backend).build();
            let err = core.run(100).expect_err(name);
            let outcome = (
                err,
                core.retired(),
                core.instruction_mix(),
                core.state().pc,
                core.state().trf,
            );
            match &expected {
                None => expected = Some(outcome),
                Some(functional) => {
                    assert_eq!(&outcome, functional, "{name}: {backend:?} vs functional")
                }
            }
        }
        let (err, ..) = expected.expect("functional ran");
        assert_eq!(site(&err), *want, "{name}");
        let mut pipe = builder.clone().backend(Backend::Pipelined).build();
        let pipe_err = pipe.run(100).expect_err(name);
        assert_eq!(
            site(&pipe_err),
            site(&err),
            "{name}: pipelined vs functional"
        );
    }
}

#[test]
fn faulting_transfers_keep_their_link() {
    // The link lands before the target is checked, on every backend.
    let program = assemble("LI t2, 121\nJALR t1, t2, 0\nJAL t0, 0\n").unwrap();
    for backend in [Backend::Functional, Backend::Threaded, Backend::Reference] {
        let mut core = SimBuilder::new(&program).backend(backend).build();
        assert!(matches!(
            core.run(100),
            Err(SimError::PcOutOfRange { pc: 121, .. })
        ));
        assert_eq!(
            core.state().reg("t1".parse().unwrap()).to_i64(),
            2,
            "{backend:?}"
        );
    }
}
