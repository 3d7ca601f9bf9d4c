//! Sweep deterministic fault injection across the five-way backend
//! matrix: every registered backend × tree depth × thread count, at fault
//! rates {0, 1e-3, 1e-1}, each cell run **twice with the same seed**.
//!
//! ```text
//! cargo run --release -p bench --features fault-inject --bin fault_matrix
//! cargo run --release -p bench --features fault-inject --bin fault_matrix -- --smoke
//! ```
//!
//! Three properties are asserted for every cell (any violation aborts):
//!
//! 1. **Determinism** — same seed ⇒ byte-identical per-thread checksums
//!    and the same injected allocation-failure count across the two runs;
//!    in one-thread cells all five injected counts repeat.
//! 2. **Graceful degradation** — the faulted checksums equal the
//!    fault-free baseline's: injection degrades the allocator, never the
//!    result, and nothing panics.
//! 3. **Balance** — allocs == frees and zero live bytes after every run;
//!    the heap-fallback path leaks nothing.
//!
//! Each cell prints its injected counts per site
//! (`fresh/carve/retry/bump/flush`). In cells with more than one thread
//! only `fresh` (and the `fallbacks` it produces) repeats from run to
//! run: the `carve`, `retry`, `bump` and `flush` draws happen only when
//! racy fast-path state (depot occupancy, magazine fill) reaches them,
//! so those four columns may vary between runs of one build there.
//!
//! With `--metrics-out <path>` the sweep is written as a `telemetry-v1`
//! report whose `native_runs` carry one cell per (backend, depth,
//! threads, rate), the rate encoded in the workload label
//! (`tree/d3/fault1e-1`). Built without the `fault-inject` feature the
//! bin prints a note and exits 0, so CI can invoke it unconditionally.

#[cfg(not(feature = "fault-inject"))]
fn main() {
    eprintln!("{}", bench::feature_gate_hint("fault_matrix", "fault-inject"));
}

#[cfg(feature = "fault-inject")]
fn main() {
    imp::main()
}

#[cfg(feature = "fault-inject")]
mod imp {
    use mem_api::BackendRegistry;
    use pools::fault::{self, FaultConfig};
    use telemetry::report::NativeRun;
    use workloads::exec::run_workload;
    use workloads::tree::{PoolTree, TreeWorkload};

    /// One fixed seed: the whole sweep (and any re-run of it) replays the
    /// same fault schedule.
    const SEED: u64 = 0xFA17_5EED;

    /// The swept rates. Keep in sync with [`rate_label`].
    const RATES: [f64; 3] = [0.0, 1e-3, 1e-1];

    fn rate_label(rate: f64) -> &'static str {
        if rate == 0.0 {
            "fault0"
        } else if rate == 1e-3 {
            "fault1e-3"
        } else {
            "fault1e-1"
        }
    }

    pub fn main() {
        let smoke = std::env::args().any(|a| a == "--smoke");
        let (depths, threads, iterations): (Vec<u32>, Vec<u32>, u32) =
            if smoke { (vec![1, 3], vec![1, 2], 200) } else { (vec![1, 3, 5], vec![1, 4], 2_000) };

        let registry: BackendRegistry<PoolTree> = BackendRegistry::standard();
        let mut runs: Vec<NativeRun> = Vec::new();
        let mut cells = 0u64;
        let mut total_fallbacks = 0u64;

        println!(
            "== fault matrix: rates {{0, 1e-3, 1e-1}}, seed {SEED:#x}, \
             {iterations} trees/thread, two same-seed runs per cell =="
        );
        for name in registry.names() {
            for &depth in &depths {
                for &t in &threads {
                    let w = TreeWorkload { depth, iterations, threads: t };

                    // The fault-free baseline pins this cell's checksums.
                    fault::clear();
                    let clean = run_workload(&*registry.build(name).unwrap(), &w);

                    for &rate in &RATES {
                        fault::install(FaultConfig::uniform(SEED, rate));

                        fault::reset_counts();
                        let r1 = run_workload(&*registry.build(name).unwrap(), &w);
                        let injected1 = fault::injected_counts();

                        fault::reset_counts();
                        let r2 = run_workload(&*registry.build(name).unwrap(), &w);
                        let injected2 = fault::injected_counts();
                        fault::clear();

                        let cell = format!("{name} d{depth} t{t} rate {rate}");

                        // Determinism: same seed ⇒ same checksums, same
                        // injected allocation-failure count. Site 0
                        // (fail-fresh) draws once per acquire *entry*, so
                        // its total is a pure function of (seed, thread
                        // ordinal, op sequence). The other sites draw only
                        // when racy fast-path state (depot occupancy,
                        // magazine fill) reaches them, so their totals
                        // repeat only when one thread runs the cell.
                        assert_eq!(
                            r1.checksums, r2.checksums,
                            "{cell}: checksums diverged across same-seed runs"
                        );
                        assert_eq!(
                            r1.stats.fallback_allocs(),
                            r2.stats.fallback_allocs(),
                            "{cell}: fallback counts diverged across same-seed runs"
                        );
                        assert_eq!(
                            injected1.fail_fresh, injected2.fail_fresh,
                            "{cell}: injected fail-fresh counts diverged"
                        );
                        if t == 1 {
                            assert_eq!(
                                injected1, injected2,
                                "{cell}: injected counts diverged in a one-thread cell"
                            );
                        }
                        assert_eq!(
                            r1.stats.fallback_allocs(),
                            injected1.fail_fresh,
                            "{cell}: every injected failure must surface as a FallbackAlloc"
                        );

                        // Graceful degradation: identical results, and at
                        // rate 0 the schedule must be entirely silent.
                        assert_eq!(
                            r1.checksums, clean.checksums,
                            "{cell}: faulted checksums differ from the fault-free baseline"
                        );
                        if rate == 0.0 {
                            assert_eq!(injected1.total(), 0, "{cell}: rate 0 injected a fault");
                        }

                        // Balance: the fallback path leaks nothing.
                        assert_eq!(r1.stats.allocs(), r1.stats.frees(), "{cell}: unbalanced");
                        assert_eq!(r1.stats.live_bytes(), 0, "{cell}: live bytes leaked");

                        println!(
                            "  {name:<18} d{depth} t{t} {:<10} fallbacks {:>6} \
                             injected(fresh/carve/retry/bump/flush) \
                             {}/{}/{}/{}/{}",
                            rate_label(rate),
                            r1.stats.fallback_allocs(),
                            injected1.fail_fresh,
                            injected1.fail_carve,
                            injected1.depot_retry,
                            injected1.epoch_bump,
                            injected1.flush_delay,
                        );

                        cells += 1;
                        total_fallbacks += r1.stats.fallback_allocs();
                        runs.push(NativeRun {
                            backend: name.to_string(),
                            workload: format!("tree/d{depth}/{}", rate_label(rate)),
                            threads: t,
                            elapsed_ns: r1.elapsed.as_nanos() as u64,
                            structures: r1.stats.allocs(),
                            pool_hits: r1.stats.pool_hits(),
                            fresh_allocs: r1.stats.fresh_allocs(),
                            contention_events: r1.stats.contention_events(),
                        });
                    }
                }
            }
        }

        println!(
            "fault_matrix: {cells} cells x 2 same-seed runs, {total_fallbacks} heap fallbacks, \
             all determinism/degradation/balance assertions passed"
        );

        if let Some(path) = bench::metrics::metrics_out_from_args() {
            let mut report = bench::metrics::gather("fault_matrix");
            report.native_runs = runs;
            debug_assert!(report.validate().is_ok());
            match bench::metrics::write_report(&path, &report) {
                Ok(()) => eprintln!("[fault_matrix] telemetry report -> {}", path.display()),
                Err(e) => eprintln!("[fault_matrix] cannot write {}: {e}", path.display()),
            }
        }
    }
}
