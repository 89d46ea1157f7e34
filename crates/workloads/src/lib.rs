//! # `workloads` — the paper's benchmark programs
//!
//! The four programs of §V-A — bubble sort, general matrix
//! multiplication, a Sobel filter and a Dhrystone-style kernel — as
//! RV32I assembly sources (the input boundary of the software-level
//! compiling framework), each with a golden Rust reference and
//! verification helpers for both machines.
//!
//! Every workload is parameterized and self-checking:
//!
//! ```
//! use workloads::bubble_sort;
//!
//! let w = bubble_sort(8);
//! let mut machine = rv32::Machine::new(&w.rv32_program()?);
//! machine.run(1_000_000)?;
//! w.verify_rv32(&machine)?;   // sorted output in data memory
//!
//! let t = art9_compiler::translate(&w.rv32_program()?)?;
//! let mut sim = art9_sim::SimBuilder::new(&t.program).build();
//! sim.run(1_000_000)?;
//! w.verify_art9(sim.state())?; // same values, word-addressed TDM
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`prepare`] is the one path from a workload to a runnable ART-9
//! image, and [`WorkloadError`] the one type for every way a workload
//! fails, from parsing to verification.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod error;

pub mod assoc;
mod bubble;
mod dhrystone;
mod extras;
mod gemm;
pub mod nn;
mod sobel;

pub use error::WorkloadError;

use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::time::{Duration, Instant};

use art9_sim::{CoreState, PredecodedProgram};
use rv32::{Machine, Rv32Error, Rv32Program};

pub use assoc::{assoc_match, assoc_match_seeded};
pub use bubble::{bubble_sort, bubble_sort_seeded};
pub use dhrystone::{dhrystone, dhrystone_seeded, DHRYSTONE_DIVISOR};
pub use extras::{dot_product, dot_product_seeded, fibonacci};
pub use gemm::{gemm, gemm_seeded};
pub use nn::{nn_mlp, nn_mlp_seeded};
pub use sobel::{sobel, sobel_seeded};

/// How a workload's random inputs were generated, so the batch driver
/// can deterministically *reseed* it (same shape, fresh input data)
/// without knowing each constructor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Generator {
    /// [`bubble_sort`] over `n` elements.
    BubbleSort {
        /// Array length.
        n: usize,
    },
    /// [`gemm`] over `n×n` matrices.
    Gemm {
        /// Matrix dimension.
        n: usize,
    },
    /// [`sobel`] (fixed 8×8 image).
    Sobel,
    /// [`dhrystone`] with the given iteration count.
    Dhrystone {
        /// Iteration count.
        iterations: usize,
    },
    /// [`fibonacci`] (no random inputs; reseeding is the identity).
    Fibonacci {
        /// Number of terms.
        n: usize,
    },
    /// [`dot_product`] over `n`-vectors.
    DotProduct {
        /// Vector length.
        n: usize,
    },
    /// [`nn_mlp`]: ternary-weight `n → n → n` MLP inference.
    NnMlp {
        /// Layer width.
        n: usize,
    },
    /// [`assoc_match`]: associative search over an `n`-entry table.
    AssocMatch {
        /// Table size.
        n: usize,
    },
}

/// A benchmark program: RV32 source, input data, and the expected
/// output region.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name ("bubble-sort", "gemm", …).
    pub name: &'static str,
    /// One-line description with the chosen parameters.
    pub description: String,
    /// RV32 assembly source (consumed by `rv32::parse_program` and by
    /// the compiling framework).
    pub source: String,
    /// Byte offset of the output region within the data section.
    pub output_offset: usize,
    /// Expected output values (word-wise).
    pub expected: Vec<i64>,
    /// The parameterized generator behind this workload, when it was
    /// built by one of the crate's constructors (`None` for hand-built
    /// workloads, which cannot be reseeded).
    pub generator: Option<Generator>,
}

/// Verification failure: which word of the output region diverged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Workload name.
    pub workload: &'static str,
    /// Word index within the output region.
    pub index: usize,
    /// Expected value.
    pub expected: i64,
    /// Observed value.
    pub found: i64,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: output[{}] = {}, expected {}",
            self.workload, self.index, self.found, self.expected
        )
    }
}

impl Error for VerifyError {}

impl Workload {
    /// Parses the RV32 source.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors (should not happen for generated
    /// sources; surfaced for debuggability).
    pub fn rv32_program(&self) -> Result<Rv32Program, Rv32Error> {
        rv32::parse_program(&self.source)
    }

    /// Checks the output region in RV32 data memory.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Verify`] on the first mismatching word;
    /// [`WorkloadError::Unavailable`] on an unreadable address.
    pub fn verify_rv32(&self, machine: &Machine) -> Result<(), WorkloadError> {
        self.verify(|i| {
            let addr = rv32::DATA_BASE + (self.output_offset + 4 * i) as u32;
            machine.load_word(addr).map(|w| w as i32 as i64)
        })
    }

    /// Checks the output region in ART-9 data memory (word-addressed,
    /// after the translator's 16-word runtime scratch area).
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Verify`] on the first mismatching word;
    /// [`WorkloadError::Unavailable`] on an unreadable address.
    pub fn verify_art9(&self, state: &CoreState) -> Result<(), WorkloadError> {
        self.verify(|i| {
            let word =
                art9_compiler::analysis::DATA_WORD_BASE as usize + self.output_offset / 4 + i;
            state.tdm.read(word).map(|w| w.to_i64())
        })
    }

    /// Compares each expected output word with `read(index)`.
    fn verify<E: fmt::Display>(
        &self,
        read: impl Fn(usize) -> Result<i64, E>,
    ) -> Result<(), WorkloadError> {
        for (index, &expected) in self.expected.iter().enumerate() {
            let found = read(index).map_err(|e| WorkloadError::Unavailable {
                workload: self.name.to_string(),
                detail: format!("verify: {e}"),
            })?;
            if found != expected {
                return Err(WorkloadError::Verify(VerifyError {
                    workload: self.name,
                    index,
                    expected,
                    found,
                }));
            }
        }
        Ok(())
    }

    /// Rebuilds this workload with inputs drawn from `seed` (the same
    /// shape and parameters, fresh deterministic data, recomputed
    /// golden outputs). Returns a clone unchanged when the workload
    /// has no [`Generator`] or no random inputs.
    ///
    /// # Examples
    ///
    /// ```
    /// use workloads::bubble_sort;
    ///
    /// let w = bubble_sort(8);
    /// assert_eq!(w.with_input_seed(5).source, w.with_input_seed(5).source);
    /// assert_ne!(w.with_input_seed(5).source, w.with_input_seed(6).source);
    /// ```
    pub fn with_input_seed(&self, seed: u64) -> Workload {
        match self.generator {
            Some(Generator::BubbleSort { n }) => bubble_sort_seeded(n, seed),
            Some(Generator::Gemm { n }) => gemm_seeded(n, seed),
            Some(Generator::Sobel) => sobel_seeded(seed),
            Some(Generator::Dhrystone { iterations }) => dhrystone_seeded(iterations, seed),
            Some(Generator::DotProduct { n }) => dot_product_seeded(n, seed),
            Some(Generator::NnMlp { n }) => nn_mlp_seeded(n, seed),
            Some(Generator::AssocMatch { n }) => assoc_match_seeded(n, seed),
            // Fibonacci has no random inputs; hand-built workloads
            // cannot be regenerated.
            Some(Generator::Fibonacci { .. }) | None => self.clone(),
        }
    }
}

/// A workload made runnable by [`prepare`]: the parsed RV32 program,
/// the predecoded ART-9 image, and the host time of each pass.
#[derive(Debug)]
pub struct Prepared {
    /// The parsed RV32 program, for `rv32::Machine` and its cycle models.
    pub rv32: Rv32Program,
    /// The translated program predecoded into the shared simulator
    /// image, or the [`WorkloadError::Translate`] that stopped it
    /// (which leaves [`Prepared::rv32`] usable).
    pub image: Result<PredecodedProgram, WorkloadError>,
    /// Host time of `rv32::parse_program`.
    pub parse: Duration,
    /// Host time of `art9_compiler::translate`, failed or not.
    pub translate: Duration,
    /// Host time of `PredecodedProgram::new` (zero when translation
    /// failed).
    pub predecode: Duration,
}

/// Parses, translates and predecodes `w`: the one path from a workload
/// to a runnable image, shared by the batch driver, the `art9-service`
/// job schema and the preparation timings of the host ledger. The
/// threaded code is compiled later, by the image's first
/// `build_threaded`.
///
/// # Errors
///
/// [`WorkloadError::Parse`] when the source does not parse. A
/// translation failure is not an error here: it is the image's.
pub fn prepare(w: &Workload) -> Result<Prepared, WorkloadError> {
    let t0 = Instant::now();
    let rv32 = w.rv32_program().map_err(|e| WorkloadError::Parse {
        workload: w.name.to_string(),
        detail: e.to_string(),
    })?;
    let t1 = Instant::now();
    let translation = art9_compiler::translate(&rv32);
    let t2 = Instant::now();
    let image = translation
        .as_ref()
        .map(|t| PredecodedProgram::new(&t.program));
    let t3 = Instant::now();
    let image = image.map_err(|e| WorkloadError::Translate {
        workload: w.name.to_string(),
        detail: e.to_string(),
    });
    Ok(Prepared {
        rv32,
        image,
        parse: t1 - t0,
        translate: t2 - t1,
        predecode: t3 - t2,
    })
}

/// Dhrystone iteration count the paper suite runs (Tables II/III);
/// shared so table renderers divide by the same number the suite ran.
pub const PAPER_DHRYSTONE_ITERATIONS: usize = 100;

/// The paper's benchmark suite at the parameters used for Table III
/// and Fig. 5 (DESIGN.md §3.4).
pub fn paper_suite() -> Vec<Workload> {
    vec![
        bubble_sort(20),
        gemm(6),
        sobel(),
        dhrystone(PAPER_DHRYSTONE_ITERATIONS),
    ]
}

/// Wire names accepted by [`by_name`], in registry order — what the
/// `art9-service` job schema advertises to clients.
pub const WORKLOAD_NAMES: [&str; 8] = [
    "bubble-sort",
    "gemm",
    "sobel",
    "dhrystone",
    "fibonacci",
    "dot-product",
    "nn-mlp",
    "assoc-match",
];

/// A sized workload constructor.
type Constructor = fn(usize) -> Workload;

/// The size-parameterized registry entries: wire name, the paper's
/// default size, the sizes the constructor accepts (the same `const`
/// its assert reads) and the constructor.
const SIZED: [(&str, usize, RangeInclusive<usize>, Constructor); 7] = [
    ("bubble-sort", 20, bubble::SIZES, bubble_sort),
    ("gemm", 6, gemm::SIZES, gemm),
    (
        "dhrystone",
        PAPER_DHRYSTONE_ITERATIONS,
        dhrystone::ITERATIONS,
        dhrystone,
    ),
    ("fibonacci", 12, extras::FIBONACCI_SIZES, fibonacci),
    ("dot-product", 16, extras::DOT_PRODUCT_SIZES, dot_product),
    ("nn-mlp", 8, nn::MLP_SIZES, nn_mlp),
    ("assoc-match", 32, assoc::SIZES, assoc_match),
];

/// Builds a workload from its wire name — how the `art9-service` job
/// schema references this library. `n` overrides the size parameter
/// (array length, matrix dimension, iteration count, …) and is bounded
/// by exactly the range the workload's constructor accepts, so a
/// remote job cannot request an image that overflows the default TDM
/// or the 9-trit word range; `None` picks the paper's defaults.
/// Returns `None` for unknown names or out-of-range sizes (`sobel` has
/// a fixed image, so it admits no size at all).
pub fn by_name(name: &str, n: Option<usize>) -> Option<Workload> {
    if name == "sobel" {
        return n.is_none().then(sobel);
    }
    let (_, default, sizes, build) = SIZED.iter().find(|entry| entry.0 == name)?;
    let n = n.unwrap_or(*default);
    sizes.contains(&n).then(|| build(n))
}

/// Derives an independent sub-seed for `lane` under `seed` (a
/// SplitMix64 round): how the batch driver hands every workload its
/// own input stream, and how multi-stream constructors split one seed.
pub(crate) fn split_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed.wrapping_add(lane.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic pseudo-random small integers for workload inputs
/// (LCG; keeps the crate free of a hard `rand` dependency and the
/// tables reproducible).
pub(crate) fn lcg_values(seed: u64, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let span = (hi - lo + 1) as u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lo + ((state >> 33) % span) as i64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_four_workloads() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 4);
        let names: Vec<&str> = suite.iter().map(|w| w.name).collect();
        assert_eq!(names, vec!["bubble-sort", "gemm", "sobel", "dhrystone"]);
    }

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let a = lcg_values(42, 100, -5, 9);
        let b = lcg_values(42, 100, -5, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-5..=9).contains(v)));
        // Different seed differs.
        assert_ne!(a, lcg_values(43, 100, -5, 9));
    }

    #[test]
    fn by_name_covers_the_registry_and_bounds_sizes() {
        for name in WORKLOAD_NAMES {
            let w = by_name(name, None).expect("every registered name builds");
            assert_eq!(w.name, name);
        }
        assert!(by_name("quux", None).is_none());
        // Every admitted size builds (the constructors would panic on
        // any other), and one past either end is refused.
        for (name, _, sizes, _) in &SIZED {
            for n in sizes.clone() {
                assert_eq!(by_name(name, Some(n)).expect("admitted").name, *name);
            }
            assert!(by_name(name, Some(sizes.start() - 1)).is_none(), "{name}");
            assert!(by_name(name, Some(sizes.end() + 1)).is_none(), "{name}");
        }
        // Sobel's image is fixed: any size is refused.
        assert!(by_name("sobel", Some(8)).is_none());
        assert!(by_name("sobel", Some(999)).is_none());
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError {
            workload: "gemm",
            index: 3,
            expected: 7,
            found: 9,
        };
        assert!(e.to_string().contains("gemm"));
        assert!(e.to_string().contains('3'));
    }
}
