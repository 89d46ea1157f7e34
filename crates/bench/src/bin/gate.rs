//! Bench regression gate: compares a regenerated `BENCH_ternary.json`
//! against the committed baseline and fails when a gated row moved the
//! wrong way past its own tolerance or disappeared.
//!
//! ```sh
//! cp BENCH_ternary.json /tmp/bench-baseline.json
//! cargo run --release -p art9-bench --bin report   # rewrites BENCH_ternary.json
//! cargo run --release -p art9-bench --bin gate -- \
//!     --baseline /tmp/bench-baseline.json --current BENCH_ternary.json
//! ```

use std::process::ExitCode;

use art9_bench::gate::{compare, parse};

const USAGE: &str = "\
usage: gate --baseline FILE --current FILE

Fails (exit 1) when a gated row of BASELINE is missing from CURRENT or
moved the wrong way by more than the baseline row's tolerance.
";

fn main() -> ExitCode {
    let mut baseline = None;
    let mut current = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--baseline" => &mut baseline,
            "--current" => &mut current,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown option {other:?}\n\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        let Some(value) = args.next() else {
            eprintln!("error: {arg} needs a value\n\n{USAGE}");
            return ExitCode::from(2);
        };
        *slot = Some(value);
    }
    let (Some(baseline), Some(current)) = (baseline, current) else {
        eprintln!("error: --baseline and --current are both required\n\n{USAGE}");
        return ExitCode::from(2);
    };

    let load = |path: &str| match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(rows) => rows,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };

    let result = compare(&load(&baseline), &load(&current));
    print!("{}", result.render());
    if result.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
