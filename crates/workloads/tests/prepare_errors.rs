//! One preparation path, one failure type: each way a workload can
//! fail to become runnable gives the same [`WorkloadError`] from
//! [`workloads::prepare`], from a batch ([`BatchRunner::try_run`]) and
//! from a service job ([`JobSpec::prepare`]).

use std::collections::HashMap;

use art9_service::{ImageCache, JobSpec};
use art9_sim::Backend;
use workloads::batch::{BatchRunner, ExecConfig};
use workloads::{bubble_sort, Workload, WorkloadError};

/// A bubble sort whose source does not assemble.
fn unparsable() -> Workload {
    let mut w = bubble_sort(4);
    w.source = "this is not assembly".into();
    w
}

/// A hand-built workload that runs on RV32 but loads a byte, which the
/// word-addressed translator refuses (`CompileError::SubWordAccess`).
fn byte_load() -> Workload {
    Workload {
        name: "byte-load",
        description: "one byte loaded and stored back as a word".into(),
        source: "
        .data
in:     .word 7
out:    .zero 4
        .text
        la   a0, in
        lb   a1, 0(a0)
        sw   a1, 4(a0)
        ebreak
"
        .into(),
        output_offset: 4,
        expected: vec![7],
        generator: None,
    }
}

#[test]
fn a_parse_error_is_the_same_from_prepare_and_from_a_batch() {
    let w = unparsable();
    let prepared = workloads::prepare(&w).expect_err("the source does not parse");
    assert!(
        matches!(prepared, WorkloadError::Parse { .. }),
        "{prepared}"
    );
    let batch = BatchRunner::new()
        .workload(w)
        .config(ExecConfig::art9(Backend::Functional))
        .try_run()
        .expect_err("a parse failure fails the batch");
    assert_eq!(batch, prepared);
}

#[test]
fn a_translate_error_fails_only_the_art9_cells() {
    let w = byte_load();
    let image = workloads::prepare(&w)
        .expect("the source parses")
        .image
        .expect_err("lb does not translate");
    assert!(matches!(image, WorkloadError::Translate { .. }), "{image}");
    assert!(image.to_string().contains("lb"), "{image}");

    let runner = BatchRunner::new().workload(w).configs([
        ExecConfig::rv32_picorv32(),
        ExecConfig::art9(Backend::Functional),
    ]);
    assert_eq!(runner.try_run().expect_err("the ART-9 cell fails"), image);
    let report = runner.run();
    let cell = |config| &report.find("byte-load", config).expect("cell").outcome;
    assert_eq!(cell(ExecConfig::rv32_picorv32()), &Ok(()));
    assert_eq!(cell(ExecConfig::art9(Backend::Functional)), &Err(image));
}

#[test]
fn a_job_for_a_workload_that_cannot_be_built_is_unavailable() {
    let cache = ImageCache::new();
    // An unknown name, one past gemm's largest size (7), and a size for
    // the fixed-size sobel filter.
    for (name, n) in [("quux", None), ("gemm", Some("8")), ("sobel", Some("999"))] {
        let mut args = HashMap::from([("workload".to_string(), name.to_string())]);
        if let Some(n) = n {
            args.insert("n".into(), n.into());
        }
        let spec = JobSpec::from_args(&args, None).expect("a well-formed SUBMIT");
        match spec.prepare(&cache) {
            Err(WorkloadError::Unavailable { workload, .. }) => assert_eq!(workload, name),
            other => panic!("{name} n={n:?}: expected Unavailable, got {other:?}"),
        }
    }
}
