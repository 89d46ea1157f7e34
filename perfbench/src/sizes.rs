//! Every program size the benchmark can draw or send.
//!
//! `workloads::by_name` admits some sizes its constructors then reject
//! with a panic (bubble-sort n=1 and 49–64, gemm n=1 and 8, dhrystone
//! 5001–10000, fibonacci n=1, dot-product 41–100). Over the wire such a
//! `SUBMIT` kills the connection thread. The ranges below stay inside
//! the constructors' own limits, and the test at the bottom builds every
//! size the benchmark can use.

use workloads::Workload;

use crate::stats::Rng;

/// Size ranges the `prep-churn` stream draws from, per registry name:
/// small programs, so preparation dominates execution. `None` marks a
/// workload without a size parameter.
pub const PREP_SIZES: [(&str, Option<(usize, usize)>); 8] = [
    ("bubble-sort", Some((2, 16))),
    ("gemm", Some((2, 4))),
    ("sobel", None),
    ("dhrystone", Some((1, 4))),
    ("fibonacci", Some((2, 20))),
    ("dot-product", Some((1, 24))),
    ("nn-mlp", Some((1, 8))),
    ("assoc-match", Some((1, 48))),
];

/// The fixed `sim-long` program set.
pub const SIM_PROGRAMS: [(&str, usize); 5] = [
    ("dhrystone", 500),
    ("gemm", 7),
    ("nn-mlp", 10),
    ("bubble-sort", 48),
    ("assoc-match", 128),
];

/// The two `service-mixed` session classes, as `SUBMIT` arguments.
pub const LONG_SESSION: (&str, usize) = ("dhrystone", 2000);
pub const SHORT_SESSION: &str = "fibonacci";

/// Builds `name` at size `n` with inputs drawn from `seed`.
///
/// # Panics
///
/// On a name or size outside the tables above (a benchmark bug).
pub fn build(name: &str, n: Option<usize>, seed: u64) -> Workload {
    workloads::by_name(name, n)
        .unwrap_or_else(|| panic!("{name} n={n:?} is not in the registry"))
        .with_input_seed(seed)
}

/// Draws the `index`-th `prep-churn` program: a registry name (in turn,
/// so every stretch of the stream has the same mix), a size and a fresh
/// input seed.
pub fn draw_prep(index: u64, rng: &mut Rng) -> (&'static str, Option<usize>, u64) {
    let (name, range) = PREP_SIZES[(index % PREP_SIZES.len() as u64) as usize];
    let n = range.map(|(lo, hi)| rng.range(lo, hi));
    (name, n, rng.next_u64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_drawable_size_builds() {
        for (name, range) in PREP_SIZES {
            match range {
                None => assert_eq!(build(name, None, 1).name, name),
                Some((lo, hi)) => {
                    for n in lo..=hi {
                        assert_eq!(build(name, Some(n), 1).name, name);
                    }
                }
            }
        }
        for (name, n) in SIM_PROGRAMS {
            build(name, Some(n), 1);
        }
        build(LONG_SESSION.0, Some(LONG_SESSION.1), 1);
        build(SHORT_SESSION, None, 1);
    }

    #[test]
    fn draws_cover_the_table_and_repeat_per_seed() {
        let mut a = Rng::new(3);
        let mut b = Rng::new(3);
        let draws: Vec<_> = (0..400).map(|i| draw_prep(i, &mut a)).collect();
        assert_eq!(
            draws,
            (0..400).map(|i| draw_prep(i, &mut b)).collect::<Vec<_>>()
        );
        for (name, _) in PREP_SIZES {
            assert!(draws.iter().any(|d| d.0 == name), "{name} never drawn");
        }
    }
}
