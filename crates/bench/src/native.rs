//! The native five-way comparison: every registered [`mem_api`] backend
//! runs the paper's tree workloads on the real runtime (no simulator),
//! through the one generic executor.
//!
//! Where the simulated figures answer "how would this scale on the
//! paper's 8-CPU machine", the native matrix answers "what does each
//! strategy's alloc/free path actually cost on this host" — per-structure
//! nanoseconds, hit rates and contention counts per
//! backend × depth × thread-count cell. Cells are keyed by the same
//! backend names as the simulator's `ModelKind` table (via
//! [`mem_api::sim_name`]), so native and simulated rows join cleanly.

use mem_api::BackendRegistry;
use pools::{PoolConfig, ShardedPool, DEFAULT_MAGAZINE_CAP};
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use telemetry::report::NativeRun;
use workloads::exec::run_workload;
use workloads::tree::{PoolTree, TreeWorkload};

/// The swept grid: backend × tree depth × thread count.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Tree depths (the paper's test cases use 1, 3 and 5).
    pub depths: Vec<u32>,
    /// Worker thread counts per cell.
    pub threads: Vec<u32>,
    /// Trees allocated and freed per thread.
    pub iterations: u32,
}

impl MatrixConfig {
    /// The full sweep: the paper's three depths, up to 8 threads.
    pub fn standard() -> Self {
        MatrixConfig { depths: vec![1, 3, 5], threads: vec![1, 2, 4, 8], iterations: 10_000 }
    }

    /// A CI-sized sweep (`--smoke`): same shape, two thread counts, few
    /// iterations.
    pub fn smoke() -> Self {
        MatrixConfig { depths: vec![1, 3, 5], threads: vec![1, 2], iterations: 200 }
    }
}

/// Run the whole matrix: every standard backend, every depth, every
/// thread count — a fresh backend per cell (no state leaks between
/// cells). Results are in grid order: backend-major, then depth, then
/// threads.
pub fn run_matrix(config: &MatrixConfig) -> Vec<NativeRun> {
    let registry: BackendRegistry<PoolTree> = BackendRegistry::standard();
    let mut runs = Vec::new();
    for name in registry.names() {
        for &depth in &config.depths {
            for &threads in &config.threads {
                let backend = registry.build(name).expect("registered backend");
                let w = TreeWorkload { depth, iterations: config.iterations, threads };
                let r = run_workload(&*backend, &w);
                assert_eq!(
                    r.stats.allocs(),
                    r.stats.frees(),
                    "{name}: unbalanced run (d{depth}, t{threads})"
                );
                runs.push(NativeRun {
                    backend: name.to_string(),
                    workload: format!("tree/d{depth}"),
                    threads,
                    elapsed_ns: r.elapsed.as_nanos() as u64,
                    structures: r.stats.allocs(),
                    pool_hits: r.stats.pool_hits(),
                    fresh_allocs: r.stats.fresh_allocs(),
                    contention_events: r.stats.contention_events(),
                });
            }
        }
    }
    runs
}

/// Render the matrix as paper-style tables: one table per depth, one row
/// per backend, one ns-per-structure column per thread count.
pub fn ascii_tables(runs: &[NativeRun], config: &MatrixConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for &depth in &config.depths {
        let workload = format!("tree/d{depth}");
        let _ = writeln!(
            out,
            "== native matrix: tree depth {depth} ({} trees/thread, ns/structure) ==",
            config.iterations
        );
        let _ = write!(out, "{:<18}", "backend");
        for &t in &config.threads {
            let _ = write!(out, "{:>10}", format!("t{t}"));
        }
        let _ = writeln!(out, "{:>9}{:>12}", "hit%", "contention");
        for run_group in runs.chunks(config.depths.len() * config.threads.len()) {
            let row: Vec<&NativeRun> =
                run_group.iter().filter(|r| r.workload == workload).collect();
            let Some(first) = row.first() else { continue };
            let _ = write!(out, "{:<18}", first.backend);
            for r in &row {
                let _ = write!(out, "{:>10.1}", r.ns_per_structure());
            }
            // Hit rate and contention at the widest thread count.
            let last = row.last().expect("non-empty row");
            let _ =
                writeln!(out, "{:>8.1}%{:>12}", 100.0 * last.hit_rate(), last.contention_events);
        }
        out.push('\n');
    }
    out
}

/// The CSV behind the tables: one line per matrix cell.
pub fn csv_string(runs: &[NativeRun]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(
        "backend,workload,threads,elapsed_ns,structures,ns_per_structure,\
         pool_hits,fresh_allocs,contention_events,hit_rate\n",
    );
    for r in runs {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{:.2},{},{},{},{:.4}",
            r.backend,
            r.workload,
            r.threads,
            r.elapsed_ns,
            r.structures,
            r.ns_per_structure(),
            r.pool_hits,
            r.fresh_allocs,
            r.contention_events,
            r.hit_rate()
        );
    }
    out
}

/// Write the matrix CSV as `<dir>/native_matrix.csv`.
pub fn write_csv(runs: &[NativeRun], dir: &Path) -> std::io::Result<std::path::PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join("native_matrix.csv");
    let mut f = fs::File::create(&path)?;
    write!(f, "{}", csv_string(runs))?;
    Ok(path)
}

/// The recorded hit-pair cost from `BENCH_pools.json` for this build's
/// feature mode (ns per acquire/release pair on the sharded+magazine
/// layout, `[u8; 64]`, 4 shards).
pub fn expected_hit_pair_ns() -> f64 {
    if cfg!(feature = "telemetry") {
        35.25
    } else {
        35.77
    }
}

/// The recorded acquire-miss cost from `BENCH_pools.json` for this
/// build's feature mode (ns per acquire-and-drop on an always-empty
/// sharded+magazine pool: the depot-swap/slab-carve cold path).
pub fn expected_miss_pair_ns() -> f64 {
    if cfg!(feature = "telemetry") {
        42.97
    } else {
        42.2
    }
}

/// The recorded alloc/dealloc pair cost from `BENCH_global_alloc.json`
/// for this build's feature mode (ns per `pools::global` raw pair on a
/// 64-byte layout, thread-cache hit). With `global-alloc` on the same
/// path also serves the harness's own allocations, so the envelope is
/// recorded per feature mode like the pool-pair envelopes above.
pub fn expected_global_pair_ns() -> f64 {
    // Currently identical in both feature modes (the installed build's
    // extra harness traffic no longer shows on this floor); kept as a
    // function so the modes can diverge again when re-recorded.
    5.70
}

/// Outcome of an envelope check against a recorded `BENCH_pools.json`
/// number.
#[derive(Debug, Clone, Copy)]
pub struct EnvelopeCheck {
    /// Which recorded number this checks ("hit-pair" or "miss-pair").
    pub label: &'static str,
    pub measured_ns: f64,
    pub expected_ns: f64,
    /// Allowed relative deviation (0.10 = ±10%).
    pub tolerance: f64,
    pub pass: bool,
}

impl EnvelopeCheck {
    /// One status line, PASS or WARN (never fatal: the envelope was
    /// recorded on a particular host; a drift is a signal, not an error).
    pub fn render(&self) -> String {
        format!(
            "{} envelope: {} measured {:.2} ns vs recorded {:.2} ns (tolerance ±{:.0}%)",
            self.label,
            if self.pass { "PASS" } else { "WARN" },
            self.measured_ns,
            self.expected_ns,
            100.0 * self.tolerance
        )
    }

    /// True when the measurement is *slower* than the envelope allows — a
    /// regression, as opposed to merely running on a faster host. This is
    /// what the CI envelope gate fails on.
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.measured_ns > self.expected_ns * (1.0 + tolerance)
    }

    fn against(label: &'static str, measured: f64, expected: f64) -> Self {
        let tolerance = 0.10;
        EnvelopeCheck {
            label,
            measured_ns: measured,
            expected_ns: expected,
            tolerance,
            pass: (measured - expected).abs() <= tolerance * expected,
        }
    }
}

/// Measure the sharded+magazine acquire/release hit pair exactly as
/// `BENCH_pools.json` records it (`[u8; 64]`, 4 shards, default magazine
/// cap, primed magazines, best-of-5) and compare against the recorded
/// envelope.
pub fn check_hit_pair_envelope(pairs: u64) -> EnvelopeCheck {
    let pool: ShardedPool<[u8; 64]> =
        ShardedPool::with_magazines(4, PoolConfig::default(), DEFAULT_MAGAZINE_CAP);
    let seed: Vec<_> = (0..8).map(|_| pool.acquire(|| [0u8; 64])).collect();
    for x in seed {
        pool.release(x);
    }
    for _ in 0..(pairs / 20).max(1_000) {
        let x = pool.acquire(|| [0u8; 64]);
        black_box(&x);
        pool.release(x);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let x = pool.acquire(|| [0u8; 64]);
            black_box(&x);
            pool.release(x);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    EnvelopeCheck::against("hit-pair", best, expected_hit_pair_ns())
}

/// Measure the acquire-miss path exactly as `BENCH_pools.json` records
/// it: acquire-and-drop on a sharded+magazine pool that is never released
/// into, so every acquire walks the cold path (magazine miss → depot
/// miss → shard skip → slab slot), and compare against the recorded
/// envelope.
pub fn check_miss_pair_envelope(pairs: u64) -> EnvelopeCheck {
    let pool: ShardedPool<[u8; 64]> =
        ShardedPool::with_magazines(4, PoolConfig::default(), DEFAULT_MAGAZINE_CAP);
    for _ in 0..(pairs / 20).max(1_000) {
        let x = pool.acquire(|| [0u8; 64]);
        black_box(&x);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let x = pool.acquire(|| [0u8; 64]);
            black_box(&x);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    EnvelopeCheck::against("miss-pair", best, expected_miss_pair_ns())
}

/// Measure the size-class front-end's alloc/dealloc pair exactly as
/// `BENCH_global_alloc.json` records it (`pools::global::raw_alloc` /
/// `raw_dealloc` on a 64-byte, 8-aligned layout — a thread-cache hit
/// after priming — best-of-5) and compare against the recorded envelope.
pub fn check_global_pair_envelope(pairs: u64) -> EnvelopeCheck {
    let layout = std::alloc::Layout::from_size_align(64, 8).expect("bench layout");
    // Prime: fill the 64-byte class's thread-local list so the timed loop
    // measures the hit path, not slab carving.
    for _ in 0..(pairs / 20).max(1_000) {
        let p = pools::global::raw_alloc(layout);
        black_box(p);
        unsafe { pools::global::raw_dealloc(p, layout) };
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let p = pools::global::raw_alloc(layout);
            black_box(p);
            unsafe { pools::global::raw_dealloc(p, layout) };
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    EnvelopeCheck::against("global-pair", best, expected_global_pair_ns())
}

/// The same pair loop as [`check_global_pair_envelope`], but with the
/// heap profiler *enabled* (site sampling at the bench default period),
/// checked against the same recorded baseline: the profiled-mode tax
/// must stay within the envelope's +10%. The idle-profiler cost is
/// covered by [`check_global_pair_envelope`] itself — the countdown
/// check is compiled into the pair path unconditionally.
pub fn check_profiled_global_pair_envelope(pairs: u64) -> EnvelopeCheck {
    let layout = std::alloc::Layout::from_size_align(64, 8).expect("bench layout");
    pools::heap_profile::set_sample_period(crate::heapprof::DEFAULT_SAMPLE_PERIOD);
    for _ in 0..(pairs / 20).max(1_000) {
        let p = pools::global::raw_alloc(layout);
        black_box(p);
        unsafe { pools::global::raw_dealloc(p, layout) };
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let p = pools::global::raw_alloc(layout);
            black_box(p);
            unsafe { pools::global::raw_dealloc(p, layout) };
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    pools::heap_profile::set_sample_period(0);
    EnvelopeCheck::against("global-pair-profiled", best, expected_global_pair_ns())
}

/// The recorded global pair with the RSS reclaimer sweeping
/// concurrently. Retirement's whole fast-path footprint is the epoch
/// check at the *cold* refill/flush points — a primed pair loop never
/// reaches them — so the reclaim-active pair shares the untuned
/// envelope.
pub fn expected_reclaim_global_pair_ns() -> f64 {
    expected_global_pair_ns()
}

/// [`check_global_pair_envelope`] with an aggressive reclaimer hammering
/// the allocator from another thread: a scratch thread loops
/// [`pools::reclaim::reclaim_all`] (full sweep passes, epoch bumps,
/// `madvise` on whatever idles) for the whole measurement. The timed
/// thread's cache is hot the entire time, so its blocks never idle into
/// a sweep — the check proves concurrent retirement costs the hit path
/// nothing (the ISSUE's "reclamation must not regress the 5.70 ns pair
/// beyond ±10%" gate).
pub fn check_reclaim_global_pair_envelope(pairs: u64) -> EnvelopeCheck {
    use std::sync::atomic::{AtomicBool, Ordering};
    let layout = std::alloc::Layout::from_size_align(64, 8).expect("bench layout");
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    let first_pass = std::sync::Arc::new(AtomicBool::new(false));
    let (stop2, first_pass2) = (std::sync::Arc::clone(&stop), std::sync::Arc::clone(&first_pass));
    let sweeper = std::thread::spawn(move || {
        let mut passes = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            pools::reclaim::reclaim_all();
            passes += 1;
            first_pass2.store(true, Ordering::Release);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        passes
    });
    for _ in 0..(pairs / 20).max(1_000) {
        let p = pools::global::raw_alloc(layout);
        black_box(p);
        unsafe { pools::global::raw_dealloc(p, layout) };
    }
    // Handshake: a short pair loop can finish before the sweeper is ever
    // scheduled, so time nothing until one full pass has completed.
    while !first_pass.load(Ordering::Acquire) {
        std::thread::yield_now();
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let p = pools::global::raw_alloc(layout);
            black_box(p);
            unsafe { pools::global::raw_dealloc(p, layout) };
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    stop.store(true, Ordering::Relaxed);
    let passes = sweeper.join().expect("reclaim sweeper");
    assert!(passes > 0, "the sweeper must have actually run during the measurement");
    EnvelopeCheck::against("reclaim-global-pair", best, expected_reclaim_global_pair_ns())
}

/// The recorded acquire/release hit pair under a *tuned* pool shape —
/// the configuration the offline tuner's winners converge to on the
/// tree families (doubled magazine cap, doubled carve batch; see
/// `BENCH_tuning.json`). Tuning must never tax the hit path: the pool
/// knobs are read only at the cold decision points, so the tuned pair
/// runs the same pop/push instructions as the default one.
pub fn expected_tuned_hit_pair_ns() -> f64 {
    31.2
}

/// [`check_hit_pair_envelope`] under the tuned configuration.
pub fn check_tuned_hit_pair_envelope(pairs: u64) -> EnvelopeCheck {
    let pool: ShardedPool<[u8; 64]> = ShardedPool::with_magazines(
        4,
        PoolConfig::default().with_tuning(1, 0, 4 * DEFAULT_MAGAZINE_CAP),
        2 * DEFAULT_MAGAZINE_CAP,
    );
    let seed: Vec<_> = (0..8).map(|_| pool.acquire(|| [0u8; 64])).collect();
    for x in seed {
        pool.release(x);
    }
    for _ in 0..(pairs / 20).max(1_000) {
        let x = pool.acquire(|| [0u8; 64]);
        black_box(&x);
        pool.release(x);
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..pairs {
            let x = pool.acquire(|| [0u8; 64]);
            black_box(&x);
            pool.release(x);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / pairs as f64);
    }
    EnvelopeCheck::against("tuned-hit-pair", best, expected_tuned_hit_pair_ns())
}

/// The recorded deterministic engine throughput from `BENCH_sim.json`:
/// real nanoseconds per engine dispatch event on the
/// [`sim_reference_run`] workload. Lower is faster; the envelope gate
/// fails only on *slower*.
pub fn expected_sim_ns_per_event() -> f64 {
    90.0
}

/// The `BENCH_sim.json` reference workload: the serial backend (the
/// most contended, event-densest configuration) with 32 threads on a
/// 16-CPU / 2-node machine, deterministic or fuzzed per `policy`.
/// Returns `(elapsed_ms, metrics)` for one run.
pub fn sim_reference_run(policy: smp_sim::SchedPolicy) -> (f64, smp_sim::RunMetrics) {
    use smp_sim::run::{run_tree_with, ModelKind, TreeExperiment};
    let exp = TreeExperiment {
        depth: 3,
        total_trees: 640,
        cpus: 16,
        params: smp_sim::CostParams::default(),
    };
    let t = Instant::now();
    let m = run_tree_with(ModelKind::Serial, 32, &exp, policy, 8);
    (t.elapsed().as_secs_f64() * 1e3, m)
}

/// Measure the deterministic reference workload (best of `rounds`) and
/// compare its ns-per-event against the recorded engine envelope.
pub fn check_sim_engine_envelope(rounds: u32) -> EnvelopeCheck {
    let mut best = f64::INFINITY;
    for _ in 0..rounds.max(1) {
        let (ms, m) = sim_reference_run(smp_sim::SchedPolicy::Deterministic);
        best = best.min(ms * 1e6 / m.events.max(1) as f64);
    }
    EnvelopeCheck::against("sim-engine", best, expected_sim_ns_per_event())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_api::STANDARD_BACKENDS;

    fn tiny() -> MatrixConfig {
        MatrixConfig { depths: vec![1, 3], threads: vec![1, 2], iterations: 20 }
    }

    #[test]
    fn matrix_covers_every_backend_and_cell() {
        let config = tiny();
        let runs = run_matrix(&config);
        assert_eq!(runs.len(), STANDARD_BACKENDS.len() * 2 * 2);
        for name in STANDARD_BACKENDS {
            let rows: Vec<&NativeRun> = runs.iter().filter(|r| r.backend == name).collect();
            assert_eq!(rows.len(), 4, "{name}");
            for r in rows {
                assert!(r.structures > 0, "{name}");
                assert_eq!(r.pool_hits + r.fresh_allocs, r.structures, "{name}");
            }
        }
    }

    #[test]
    fn pooled_rows_hit_and_malloc_rows_do_not() {
        let runs = run_matrix(&tiny());
        let hits = |name: &str| {
            runs.iter().filter(|r| r.backend == name).map(|r| r.pool_hits).sum::<u64>()
        };
        assert_eq!(hits("solaris-default"), 0);
        assert_eq!(hits("ptmalloc"), 0);
        assert_eq!(hits("hoard"), 0);
        // The size-class front-end reuses *blocks*, not structures: every
        // structure is fresh, like the malloc rows.
        assert_eq!(hits("global"), 0);
        assert!(hits("amplify") > 0);
        assert!(hits("handmade") > 0);
    }

    #[test]
    fn tables_and_csv_mention_every_backend() {
        let config = tiny();
        let runs = run_matrix(&config);
        let tables = ascii_tables(&runs, &config);
        let csv = csv_string(&runs);
        for name in STANDARD_BACKENDS {
            assert!(tables.contains(name), "table missing {name}:\n{tables}");
            assert!(csv.contains(name), "csv missing {name}");
        }
        assert!(tables.contains("tree depth 1"));
        assert!(tables.contains("tree depth 3"));
        assert!(csv.starts_with("backend,workload,threads,"));
        assert_eq!(csv.lines().count(), 1 + runs.len());
    }

    #[test]
    fn envelope_check_reports_without_failing() {
        // Tiny pair count: correctness of the plumbing, not the timing.
        let check = check_hit_pair_envelope(10_000);
        assert!(check.measured_ns > 0.0);
        let line = check.render();
        assert!(line.starts_with("hit-pair envelope:"), "{line}");
        assert!(line.contains("PASS") || line.contains("WARN"), "{line}");
    }

    #[test]
    fn miss_envelope_check_reports_without_failing() {
        let check = check_miss_pair_envelope(10_000);
        assert!(check.measured_ns > 0.0);
        let line = check.render();
        assert!(line.starts_with("miss-pair envelope:"), "{line}");
        assert!(line.contains("PASS") || line.contains("WARN"), "{line}");
    }

    #[test]
    fn global_envelope_check_reports_without_failing() {
        let check = check_global_pair_envelope(10_000);
        assert!(check.measured_ns > 0.0);
        let line = check.render();
        assert!(line.starts_with("global-pair envelope:"), "{line}");
        assert!(line.contains("PASS") || line.contains("WARN"), "{line}");
    }

    #[test]
    fn profiled_envelope_check_reports_without_failing() {
        let check = check_profiled_global_pair_envelope(10_000);
        assert!(check.measured_ns > 0.0);
        let line = check.render();
        assert!(line.starts_with("global-pair-profiled envelope:"), "{line}");
    }

    #[test]
    fn reclaim_envelope_check_reports_without_failing() {
        let check = check_reclaim_global_pair_envelope(10_000);
        assert!(check.measured_ns > 0.0);
        let line = check.render();
        assert!(line.starts_with("reclaim-global-pair envelope:"), "{line}");
    }

    #[test]
    fn regressed_only_flags_slower_measurements() {
        let fast = EnvelopeCheck::against("hit-pair", 10.0, 40.0);
        assert!(!fast.regressed(0.10), "faster than recorded is not a regression");
        let slow = EnvelopeCheck::against("hit-pair", 80.0, 40.0);
        assert!(slow.regressed(0.50));
        assert!(!slow.regressed(1.50));
    }
}
