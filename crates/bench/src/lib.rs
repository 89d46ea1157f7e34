//! Shared helpers behind the `report` and `gate` binaries.
//!
//! `report` is the one reproduction path: it prints every table,
//! figure and ablation of the paper and writes the host-performance
//! ledger `BENCH_ternary.json`, whose timings all come from [`perf`].
//! `gate` compares two ledgers ([`gate`]). [`report`] holds the paper
//! results that compose the compiler, the simulators and the hardware
//! models: the Fig. 3 evaluation flow and the Fig. 5 comparison.

pub mod energy;
pub mod gate;
pub mod report;

/// DMIPS/MHz from total cycles over `iterations` Dhrystone iterations.
pub fn dmips_per_mhz(cycles: u64, iterations: usize) -> f64 {
    1.0e6 / (cycles as f64 / iterations as f64 * workloads::DHRYSTONE_DIVISOR)
}

pub mod perf {
    //! Host-performance measurement behind `BENCH_ternary.json`.
    //!
    //! The report binary regenerates the paper's tables *and* tracks
    //! how fast the framework itself runs; this module measures the
    //! two layers the packed-BCT refactor targets — word-level ternary
    //! operations and whole-simulator throughput — and renders them as
    //! a machine-readable JSON document so the performance trajectory
    //! is diffable across PRs. Methodology and schema are documented
    //! in `docs/PERFORMANCE.md`.

    use std::hint::black_box;
    use std::sync::{Arc, Mutex};
    use std::time::{Duration, Instant};

    use art9_sim::observers::EnergyAccounting;
    use art9_sim::{Core, SimBuilder};
    use ternary::{arith, Word9};
    use workloads::batch::DEFAULT_MAX_STEPS;
    use workloads::Workload;

    /// One measured `Word9` operation cost.
    #[derive(Debug, Clone)]
    pub struct WordOp {
        /// Operation name: the `Word9` method (`add_tritwise_ref` is
        /// the per-trit reference adder).
        pub name: &'static str,
        /// Mean nanoseconds per operation.
        pub ns_per_op: f64,
    }

    /// Measured simulator throughput for one workload.
    #[derive(Debug, Clone)]
    pub struct SimThroughput {
        /// Workload name.
        pub workload: &'static str,
        /// Instructions one functional run retires.
        pub instructions: u64,
        /// Cycles one pipelined run takes.
        pub cycles: u64,
        /// Functional simulator instructions per host second.
        pub functional_ips: f64,
        /// Direct-threaded simulator instructions per host second.
        pub threaded_ips: f64,
        /// Pipelined simulator cycles per host second.
        pub pipelined_cps: f64,
        /// Direct-threaded simulator instructions per host second with
        /// an `observers::EnergyAccounting` attached.
        pub energy_ips: f64,
    }

    /// Mean ns per call of `f`, measured over roughly `budget`.
    fn ns_per_call<R>(budget: Duration, mut f: impl FnMut() -> R) -> f64 {
        // Warm-up probe sizes the batch so the clock is read rarely.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let per_batch = (Duration::from_millis(2).as_nanos() / once.as_nanos()).clamp(1, 1 << 22);
        // The minimum over batch means is the robust throughput
        // estimator: host noise (scheduling, frequency excursions)
        // only ever slows a batch down, so the fastest batch is the
        // closest observation of the undisturbed rate.
        let start = Instant::now();
        let mut best = f64::INFINITY;
        while start.elapsed() < budget {
            let b0 = Instant::now();
            for _ in 0..per_batch {
                black_box(f());
            }
            best = best.min(b0.elapsed().as_nanos() as f64 / per_batch as f64);
        }
        best
    }

    /// A deterministic spread of operands over the full symmetric
    /// `Word9` range, so carry-chain lengths and sign mixes are averaged
    /// rather than fixed by one operand pair.
    fn operand_pool() -> Vec<Word9> {
        let mut seed = 0x9E37_79B9_7F4A_7C15u64;
        (0..64)
            .map(|_| {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                Word9::from_i64_wrapping((seed >> 16) as i64 % 19683 - 9841)
            })
            .collect()
    }

    /// Measures the word-operation suite (`budget` per operation).
    pub fn measure_word_ops(budget: Duration) -> Vec<WordOp> {
        let pool = operand_pool();
        let mut k = 0usize;
        let next_pair = move || {
            k = (k + 1) % 63;
            (pool[k], pool[k + 1])
        };
        let mut ops: Vec<WordOp> = Vec::new();
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "add",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.wrapping_add(b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "add_tritwise_ref",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    arith::add_tritwise(a, b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "compare",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.compare(b)
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "logic_and_or_xor",
                ns_per_op: ns_per_call(budget, move || {
                    let (a, b) = p();
                    a.and(b).or(b.xor(a))
                }),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "negate",
                ns_per_op: ns_per_call(budget, move || next_tuple_first(&mut p).negate()),
            });
        }
        {
            let mut p = next_pair.clone();
            ops.push(WordOp {
                name: "to_i64",
                ns_per_op: ns_per_call(budget, move || next_tuple_first(&mut p).to_i64()),
            });
        }
        ops.push(WordOp {
            name: "from_i64_wrapping",
            ns_per_op: {
                let mut v = 0i64;
                ns_per_call(budget, move || {
                    v = v.wrapping_add(104729);
                    Word9::from_i64_wrapping(v)
                })
            },
        });
        ops
    }

    fn next_tuple_first(p: &mut impl FnMut() -> (Word9, Word9)) -> Word9 {
        p().0
    }

    /// Measures functional, threaded, pipelined and threaded-with-energy
    /// throughput of one workload on its shared predecoded image
    /// (`budget` in all).
    ///
    /// # Panics
    ///
    /// Panics when the workload does not translate or a run faults —
    /// the paper workloads are correct by construction.
    pub fn measure_sim_throughput(w: &Workload, budget: Duration) -> SimThroughput {
        let image = workloads::prepare(w)
            .expect("workload parses")
            .image
            .expect("workload translates");

        let builder = SimBuilder::new(&image);
        let mut probe = builder.build_functional();
        let instructions = probe.run(DEFAULT_MAX_STEPS).expect("completes").retired;
        // The threaded backend must retire exactly what the functional
        // one does — measured on the same shared image, construction
        // (compilation included) inside the timed call like the others.
        let mut probe = builder.build_threaded();
        let threaded_instructions = probe.run(DEFAULT_MAX_STEPS).expect("completes").retired;
        assert_eq!(
            threaded_instructions, instructions,
            "threaded and functional retirement counts diverged"
        );
        let mut probe = builder.build_pipelined();
        probe.run(DEFAULT_MAX_STEPS).expect("completes");
        let cycles = probe.pipeline_stats().expect("pipelined backend").cycles;

        // The four configurations are measured in interleaved rounds
        // (each keeping its fastest round) rather than one contiguous
        // window apiece: a host-frequency excursion then degrades all
        // four equally instead of silently skewing the cross-backend
        // ratios the report exists to track.
        let rounds = 3u32;
        let slice = budget / (4 * rounds);
        let mut functional_ns = f64::INFINITY;
        let mut threaded_ns = f64::INFINITY;
        let mut pipelined_ns = f64::INFINITY;
        let mut energy_ns = f64::INFINITY;
        for _ in 0..rounds {
            functional_ns = functional_ns.min(ns_per_call(slice, || {
                let mut sim = builder.build_functional();
                sim.run(DEFAULT_MAX_STEPS).expect("completes")
            }));
            threaded_ns = threaded_ns.min(ns_per_call(slice, || {
                let mut sim = builder.build_threaded();
                sim.run(DEFAULT_MAX_STEPS).expect("completes")
            }));
            pipelined_ns = pipelined_ns.min(ns_per_call(slice, || {
                let mut core = builder.build_pipelined();
                core.run(DEFAULT_MAX_STEPS).expect("completes")
            }));
            energy_ns = energy_ns.min(ns_per_call(slice, || {
                let energy = Arc::new(Mutex::new(EnergyAccounting::new()));
                let mut sim = builder.clone().observer(energy.clone()).build_threaded();
                sim.run(DEFAULT_MAX_STEPS).expect("completes");
                energy
            }));
        }
        let functional_ips = instructions as f64 * 1e9 / functional_ns;
        let threaded_ips = instructions as f64 * 1e9 / threaded_ns;
        let pipelined_cps = cycles as f64 * 1e9 / pipelined_ns;
        let energy_ips = instructions as f64 * 1e9 / energy_ns;

        SimThroughput {
            workload: w.name,
            instructions,
            cycles,
            functional_ips,
            threaded_ips,
            pipelined_cps,
            energy_ips,
        }
    }

    /// Per-pass program-preparation times for one workload — the
    /// `prep/*` rows of `BENCH_ternary.json`, named like perfbench's
    /// per-layer metrics. The first three are the pass times
    /// [`workloads::prepare`] records.
    #[derive(Debug, Clone)]
    pub struct PrepTimes {
        /// Workload name.
        pub workload: &'static str,
        /// µs of `rv32::parse_program` on the workload source.
        pub parse_us: f64,
        /// µs of `art9_compiler::translate`.
        pub translate_us: f64,
        /// µs of `PredecodedProgram::new`.
        pub predecode_us: f64,
        /// µs of the first `build_threaded` on a fresh image (which
        /// compiles the threaded code).
        pub threaded_compile_us: f64,
    }

    /// Measures the four preparation passes of one workload in a chain
    /// repeated for roughly `budget`: [`workloads::prepare`] times
    /// parse, translate and predecode, and the first `build_threaded`
    /// on its image is timed here. Every pass sees the caches the others
    /// leave, as in a real preparation. Each pass reports its fastest
    /// chain: host noise only ever slows a chain down (the same
    /// estimator as the other ledger timings).
    ///
    /// # Panics
    ///
    /// Panics when the workload does not parse or translate.
    pub fn measure_prep(w: &Workload, budget: Duration) -> PrepTimes {
        let mut samples: [Vec<f64>; 4] = Default::default();
        let start = Instant::now();
        while samples[0].len() < 3 || start.elapsed() < budget {
            let p = workloads::prepare(w).expect("workload parses");
            let image = p.image.expect("workload translates");
            let t0 = Instant::now();
            let core = SimBuilder::new(&image).build_threaded();
            let threaded_compile = t0.elapsed();
            black_box(core);
            let passes = [p.parse, p.translate, p.predecode, threaded_compile];
            for (s, d) in samples.iter_mut().zip(passes) {
                s.push(d.as_secs_f64() * 1e6);
            }
        }
        let [parse_us, translate_us, predecode_us, threaded_compile_us] =
            samples.map(|s| s.into_iter().fold(f64::INFINITY, f64::min));
        PrepTimes {
            workload: w.name,
            parse_us,
            translate_us,
            predecode_us,
            threaded_compile_us,
        }
    }

    /// Scheduler throughput of one in-process service load run — the
    /// `service/*` rows of `BENCH_ternary.json`.
    #[derive(Debug, Clone)]
    pub struct ServicePerf {
        /// Concurrent sessions submitted (all completed exactly).
        pub sessions: u64,
        /// Worker threads the scheduler ran.
        pub workers: u64,
        /// Sessions completed per wall-clock second.
        pub sessions_per_second: f64,
        /// Aggregate retired instructions per second per worker.
        pub per_worker_ips: f64,
        /// p99 slice latency in microseconds.
        pub p99_slice_us: f64,
        /// Cross-worker checkpoint migrations across all sessions.
        pub migrations: u64,
        /// Work-steals across all workers.
        pub steals: u64,
    }

    /// Measures scheduler throughput by flooding an in-process service
    /// with `sessions` budget-sliced spin sessions. The fairness and
    /// latency acceptance bounds are disabled — this is a measurement,
    /// not the load smoke — but the exact-completion check stays on.
    ///
    /// # Panics
    ///
    /// Panics when the service fails to start or any session does not
    /// finish with its exact retirement count.
    pub fn measure_service(sessions: usize) -> ServicePerf {
        use art9_service::loadtest::{run_self_contained, LoadConfig};
        let report = run_self_contained(&LoadConfig {
            sessions,
            target_retired: 50_000,
            quantum: 1_000,
            fairness_ratio: f64::INFINITY,
            p99_slice_ms: f64::INFINITY,
            ..LoadConfig::default()
        })
        .expect("service load runs");
        assert!(
            report.passed(),
            "service load violations: {:?}",
            report.violations
        );
        ServicePerf {
            sessions: report.sessions as u64,
            workers: report.workers,
            sessions_per_second: report.sessions_per_second,
            per_worker_ips: report.per_worker_ips,
            p99_slice_us: report.p99_slice_us,
            migrations: report.migrations,
            steals: report.steals,
        }
    }

    /// SIMD-vs-scalar ternary-NN measurement — the `nn/*` rows of
    /// `BENCH_ternary.json`.
    #[derive(Debug, Clone)]
    pub struct NnPerf {
        /// Ternary weight matrix rows (output neurons).
        pub rows: usize,
        /// Ternary weight matrix columns (input activations).
        pub cols: usize,
        /// Mean ns per scalar (one-`Word9`-at-a-time) matrix–vector
        /// product.
        pub scalar_ns_per_matvec: f64,
        /// Mean ns per bitplane-SIMD matrix–vector product.
        pub simd_ns_per_matvec: f64,
        /// Host speedup of the SIMD golden path over the scalar loop.
        pub simd_speedup: f64,
        /// Per-backend throughput of the `nn-mlp` workload kernel.
        pub sim: SimThroughput,
    }

    /// Measures the ternary-NN layer: the host SIMD matvec against the
    /// scalar one-word-at-a-time loop (the ISSUE's ≥4× golden path),
    /// plus per-backend simulator throughput of the `nn-mlp` workload.
    ///
    /// # Panics
    ///
    /// Panics if the two golden paths disagree (they are cross-checked
    /// before timing) or the workload run faults.
    pub fn measure_nn(budget: Duration) -> NnPerf {
        use workloads::nn::TernaryMatrix;

        // Large enough that lane parallelism dominates loop overhead,
        // deliberately not a multiple of the 6-lane word width.
        let (rows, cols) = (40, 40);
        let m = TernaryMatrix::seeded(rows, cols, 0x05ee_d001);
        let pool = operand_pool();
        let x: Vec<Word9> = (0..cols).map(|i| pool[i % pool.len()]).collect();
        assert_eq!(
            m.matvec_simd(&x),
            m.matvec_scalar(&x),
            "SIMD and scalar golden paths diverged"
        );

        // Interleaved rounds, like the simulator measurement: a host
        // frequency excursion degrades both sides equally instead of
        // skewing the speedup ratio.
        let rounds = 3u32;
        let slice = budget / (2 * rounds);
        let mut scalar_ns = f64::INFINITY;
        let mut simd_ns = f64::INFINITY;
        for _ in 0..rounds {
            scalar_ns = scalar_ns.min(ns_per_call(slice, || m.matvec_scalar(black_box(&x))));
            simd_ns = simd_ns.min(ns_per_call(slice, || m.matvec_simd(black_box(&x))));
        }

        NnPerf {
            rows,
            cols,
            scalar_ns_per_matvec: scalar_ns,
            simd_ns_per_matvec: simd_ns,
            simd_speedup: scalar_ns / simd_ns,
            sim: measure_sim_throughput(&workloads::nn_mlp(8), budget),
        }
    }

    /// Turns the measurements into the rows of `BENCH_ternary.json` and
    /// renders the document with [`crate::gate::render`] (schema in
    /// `docs/PERFORMANCE.md`). Values keep six significant digits.
    ///
    /// Gated rows: the simulated `instructions` and `cycles` of every
    /// paper workload and of `nn-mlp` (exact, at 0%), every paper
    /// workload's three backend rates, its
    /// `energy_overhead_x` (threaded-with-energy time over threaded
    /// time), its `energy_nj` and Dhrystone's `dmips_per_watt`, the NN SIMD
    /// speedup and `nn-mlp` functional rate (all at 25%), the
    /// scheduler's per-worker rate (at 50%: a threaded scheduler is
    /// noisier on shared runners than a whole-simulator loop). The
    /// energy layer does not repeat the execution layer's instruction
    /// and cycle counts. Everything else,
    /// the per-pass preparation times included, is reported only.
    pub fn bench_json(
        word_ops: &[WordOp],
        prep: &[PrepTimes],
        sims: &[SimThroughput],
        energy: &[crate::energy::EnergyRow],
        service: &ServicePerf,
        nn: &NnPerf,
    ) -> String {
        use crate::gate::Better::{self, Higher, Lower};
        use crate::gate::{render, Row};

        // Simulated counts are deterministic, so they are gated with no
        // slack: one more instruction or cycle fails the gate.
        const EXACT: Option<f64> = Some(0.0);
        const GATED: Option<f64> = Some(0.25);
        const GATED_NOISY: Option<f64> = Some(0.5);
        let mut rows = Vec::new();
        // Appends `<subject>/<metric>` rows: (metric, value, unit,
        // better, tolerance).
        let mut push = |layer: &'static str,
                        subject: &str,
                        metrics: &[(&str, f64, &str, Better, Option<f64>)]| {
            for &(metric, value, unit, better, tolerance) in metrics {
                rows.push(Row {
                    layer,
                    name: format!("{subject}/{metric}"),
                    value: format!("{value:.5e}").parse().expect("round-trips"),
                    unit: unit.into(),
                    better,
                    tolerance,
                });
            }
        };

        for op in word_ops {
            let metric = [("ns_per_op", op.ns_per_op, "ns", Lower, None)];
            push("kernel", &format!("word9/{}", op.name), &metric);
        }
        let (scalar, simd) = (nn.scalar_ns_per_matvec, nn.simd_ns_per_matvec);
        push(
            "kernel",
            "nn",
            &[
                ("rows", nn.rows as f64, "count", Higher, None),
                ("cols", nn.cols as f64, "count", Higher, None),
                ("scalar_ns_per_matvec", scalar, "ns", Lower, None),
                ("simd_ns_per_matvec", simd, "ns", Lower, None),
                ("simd_speedup", nn.simd_speedup, "x", Higher, GATED),
            ],
        );

        for p in prep {
            push(
                "prep",
                &format!("prep/{}", p.workload),
                &[
                    ("parse_us", p.parse_us, "us", Lower, None),
                    ("translate_us", p.translate_us, "us", Lower, None),
                    ("predecode_us", p.predecode_us, "us", Lower, None),
                    (
                        "threaded_compile_us",
                        p.threaded_compile_us,
                        "us",
                        Lower,
                        None,
                    ),
                ],
            );
        }

        for s in sims {
            let w = s.workload;
            let ratio = s.threaded_ips / s.functional_ips;
            // Pipelined host time per cycle over functional host time per
            // instruction: what the cycle model costs beyond the ISA.
            let pipelined_x = s.functional_ips / s.pipelined_cps;
            let overhead = s.threaded_ips / s.energy_ips;
            push(
                "execution",
                w,
                &[
                    ("instructions", s.instructions as f64, "count", Lower, EXACT),
                    ("cycles", s.cycles as f64, "count", Lower, EXACT),
                    ("functional_ips", s.functional_ips, "instr/s", Higher, GATED),
                    ("threaded_ips", s.threaded_ips, "instr/s", Higher, GATED),
                    ("threaded_speedup_vs_functional", ratio, "x", Higher, None),
                    ("pipelined_vs_functional_x", pipelined_x, "x", Lower, None),
                    ("pipelined_cps", s.pipelined_cps, "cycles/s", Higher, GATED),
                    ("energy_overhead_x", overhead, "x", Lower, GATED),
                ],
            );
        }
        let n = &nn.sim;
        push(
            "execution",
            "nn",
            &[
                ("instructions", n.instructions as f64, "count", Lower, EXACT),
                ("cycles", n.cycles as f64, "count", Lower, EXACT),
                ("functional_ips", n.functional_ips, "instr/s", Higher, GATED),
                ("threaded_ips", n.threaded_ips, "instr/s", Higher, None),
                ("pipelined_cps", n.pipelined_cps, "cycles/s", Higher, None),
            ],
        );

        for e in energy {
            let w = e.workload;
            push(
                "energy",
                w,
                &[
                    ("energy_nj", e.energy_nj, "nJ", Lower, GATED),
                    ("epi_pj", e.epi_pj, "pJ", Lower, None),
                ],
            );
            for (class, epi) in art9_hw::activity::ALL_CLASSES.iter().zip(e.class_epi_pj) {
                let metric = format!("epi_{}_pj", class.name());
                push("energy", w, &[(&metric, epi, "pJ", Lower, None)]);
            }
            push(
                "energy",
                w,
                &[
                    ("dynamic_uw", e.dynamic_uw, "uW", Lower, None),
                    ("total_uw", e.total_uw, "uW", Lower, None),
                ],
            );
            if let (Some(dmips), Some(dpw)) = (e.dmips, e.dmips_per_watt) {
                push(
                    "energy",
                    w,
                    &[
                        ("dmips", dmips, "DMIPS", Higher, None),
                        ("dmips_per_watt", dpw, "DMIPS/W", Higher, GATED),
                    ],
                );
            }
        }

        let sv = service;
        let (rate, ipw) = (sv.sessions_per_second, sv.per_worker_ips);
        push(
            "service",
            "service",
            &[
                ("sessions", sv.sessions as f64, "count", Higher, None),
                ("workers", sv.workers as f64, "count", Higher, None),
                ("sessions_per_second", rate, "1/s", Higher, None),
                ("per_worker_ips", ipw, "instr/s", Higher, GATED_NOISY),
                ("p99_slice_us", sv.p99_slice_us, "us", Lower, None),
                ("migrations", sv.migrations as f64, "count", Lower, None),
                ("steals", sv.steals as f64, "count", Lower, None),
            ],
        );

        render(&rows)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn word_ops_measure_quickly_and_positively() {
            let ops = measure_word_ops(Duration::from_millis(2));
            assert!(ops.iter().any(|o| o.name == "add"));
            assert!(ops.iter().all(|o| o.ns_per_op > 0.0));
        }

        #[test]
        fn sim_throughput_counts_match_direct_run() {
            let w = workloads::dot_product(4);
            let s = measure_sim_throughput(&w, Duration::from_millis(5));
            assert!(s.functional_ips > 0.0 && s.pipelined_cps > 0.0);
            assert!(s.threaded_ips > 0.0 && s.energy_ips > 0.0);
            assert!(s.instructions > 0 && s.cycles >= s.instructions);
        }

        #[test]
        fn json_has_schema_and_balanced_braces() {
            let ops = vec![WordOp {
                name: "add",
                ns_per_op: 3.25,
            }];
            let sims = vec![SimThroughput {
                workload: "dhrystone",
                instructions: 100,
                cycles: 120,
                functional_ips: 6.6e7,
                threaded_ips: 2.2e8,
                pipelined_cps: 2.1e7,
                energy_ips: 2.0e7,
            }];
            let energy = vec![crate::energy::EnergyRow {
                workload: "dhrystone",
                energy_nj: 1.5e-3,
                epi_pj: 1.5e-2,
                class_epi_pj: [0.016, 0.014, 0.012, 0.02, 0.018],
                dynamic_uw: 3.0,
                total_uw: 20.0,
                dmips: Some(150.0),
                dmips_per_watt: Some(7.5e6),
            }];
            let service = ServicePerf {
                sessions: 512,
                workers: 8,
                sessions_per_second: 130.5,
                per_worker_ips: 4.2e6,
                p99_slice_us: 210.25,
                migrations: 97,
                steals: 41,
            };
            let nn = NnPerf {
                rows: 40,
                cols: 40,
                scalar_ns_per_matvec: 4000.0,
                simd_ns_per_matvec: 500.0,
                simd_speedup: 8.0,
                sim: SimThroughput {
                    workload: "nn-mlp",
                    instructions: 5000,
                    cycles: 7000,
                    functional_ips: 5.5e7,
                    threaded_ips: 1.8e8,
                    pipelined_cps: 1.9e7,
                    energy_ips: 1.5e7,
                },
            };
            let prep = vec![PrepTimes {
                workload: "dhrystone",
                parse_us: 30.5,
                translate_us: 40.25,
                predecode_us: 4.5,
                threaded_compile_us: 9.75,
            }];
            let json = bench_json(&ops, &prep, &sims, &energy, &service, &nn);
            assert!(json.contains("\"schema\": \"art9-bench-ternary/v2\""));
            assert_eq!(
                json.matches('{').count(),
                json.matches('}').count(),
                "unbalanced braces:\n{json}"
            );
            assert_eq!(json.matches('[').count(), json.matches(']').count());
            let rows = crate::gate::parse(&json).expect("the emitted document parses");
            let value = |name: &str| {
                rows.iter()
                    .find(|r| r.name == name)
                    .unwrap_or_else(|| panic!("no row {name}"))
                    .value
            };
            assert_eq!(value("word9/add/ns_per_op"), 3.25);
            assert_eq!(value("dhrystone/threaded_speedup_vs_functional"), 3.33333);
            assert_eq!(value("dhrystone/pipelined_vs_functional_x"), 3.14286);
            assert_eq!(value("dhrystone/energy_overhead_x"), 11.0);
            assert_eq!(value("dhrystone/epi_control_pj"), 0.018);
            assert_eq!(value("dhrystone/dmips_per_watt"), 7.5e6);
            assert_eq!(value("service/p99_slice_us"), 210.25);
            assert_eq!(value("nn/simd_speedup"), 8.0);
            assert_eq!(value("prep/dhrystone/parse_us"), 30.5);
            assert_eq!(value("prep/dhrystone/translate_us"), 40.25);
            assert_eq!(value("prep/dhrystone/predecode_us"), 4.5);
            assert_eq!(value("prep/dhrystone/threaded_compile_us"), 9.75);
            assert!(rows
                .iter()
                .filter(|r| r.layer == "prep")
                .all(|r| r.tolerance.is_none() && r.better == crate::gate::Better::Lower));
            // One workload: its two exact counts, three rates, the
            // energy overhead and the energy pair (its two cross-backend
            // ratios are reported only), plus the NN counts, the two NN
            // rates and the scheduler rate.
            let gated = rows.iter().filter(|r| r.tolerance.is_some()).count();
            assert_eq!(gated, 2 + 4 + 2 + 2 + 2 + 1);
            for name in ["instructions", "cycles"] {
                for subject in ["dhrystone", "nn"] {
                    let row = rows.iter().find(|r| r.name == format!("{subject}/{name}"));
                    assert_eq!(row.and_then(|r| r.tolerance), Some(0.0), "{subject}/{name}");
                }
            }
            // Each name is kept once: no layer repeats another's row.
            let mut names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "a row name appears twice");
        }

        #[test]
        fn prep_times_are_positive() {
            let p = measure_prep(&workloads::dot_product(4), Duration::from_millis(5));
            assert_eq!(p.workload, "dot-product");
            for us in [
                p.parse_us,
                p.translate_us,
                p.predecode_us,
                p.threaded_compile_us,
            ] {
                assert!(us > 0.0);
            }
        }

        #[test]
        fn nn_measurement_agrees_and_shows_simd_speedup() {
            let n = measure_nn(Duration::from_millis(30));
            assert_eq!((n.rows, n.cols), (40, 40));
            assert!(n.scalar_ns_per_matvec > 0.0 && n.simd_ns_per_matvec > 0.0);
            // The acceptance bar is 4x, measured and pinned in release
            // (the report binary and the gate); an unoptimized build
            // distorts the ratio, so debug only sanity-checks that the
            // SIMD path wins at all.
            let bar = if cfg!(debug_assertions) { 2.0 } else { 4.0 };
            assert!(
                n.simd_speedup >= bar,
                "SIMD matvec only {:.1}x faster than scalar (bar {bar}x)",
                n.simd_speedup
            );
            assert!(n.sim.functional_ips > 0.0 && n.sim.threaded_ips > 0.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dmips_arithmetic() {
        // 1355 cycles/iteration -> 0.42 DMIPS/MHz (Table II).
        assert!((dmips_per_mhz(1355 * 10, 10) - 0.42).abs() < 0.01);
    }
}
