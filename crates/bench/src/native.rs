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
//!
//! The module also holds the recorded-envelope gate `envelope_check`
//! runs: the micro paths in `ENVELOPE_PATHS`, timed as ratios to an
//! in-run reference pair by [`measure_envelopes`].

use mem_api::BackendRegistry;
use pools::{PoolConfig, ShardedPool, DEFAULT_MAGAZINE_CAP};
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;
use telemetry::report::NativeRun;
use workloads::exec::run_workload;
use workloads::tree::{PoolTree, TreeParams, TreeWorkload};

/// The swept grid: backend × tree depth × thread count.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Tree depths (the paper's test cases use 1, 3 and 5).
    pub(crate) depths: Vec<u32>,
    /// Worker thread counts per cell.
    pub(crate) threads: Vec<u32>,
    /// Trees allocated and freed per thread.
    pub(crate) iterations: u32,
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
pub(crate) fn csv_string(runs: &[NativeRun]) -> String {
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

// ------------------------------------------------------------ envelopes

// The benchmark's own median/quartile summary, shared so the gate and the
// end-to-end record compute their statistics one way. The file belongs to
// the benchmark package, whose `pub` items are its bin's API, not this
// crate's.
#[allow(dead_code, unreachable_pub)]
#[path = "bin/benchmark/record.rs"]
mod record;

pub(crate) use record::Summary;

/// The CPU model `/proc/cpuinfo` names ("unknown" elsewhere), for the
/// host line every timing bin prints.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Trials per envelope run. Each runs every path once, in turn, plus one
/// reference pair.
pub const TRIALS: usize = 11;

/// Timed operations per path per trial (the miss path times a quarter of
/// them; the sim path runs its fixed reference workload).
pub const PAIRS: u64 = 2_000_000;

/// A path fails when its median ratio to the reference exceeds the
/// recorded ratio by more than this share (+100%: loose enough for
/// shared runners, tight enough for a 3x cliff on any one path).
pub const GATE: f64 = 1.0;

/// One gated micro-timing path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EnvelopePath {
    pub(crate) label: &'static str,
    /// Median ratio of this path's ns per operation to the reference
    /// pair's, recorded for this build's feature mode (EXPERIMENTS.md,
    /// "Envelope gate").
    pub(crate) recorded: f64,
    /// Times `pairs` operations and returns ns per operation.
    pub(crate) run: fn(u64) -> f64,
}

/// The recorded ratio for this build: `global-alloc` routes the
/// harness's own allocations through the size-class engine.
const fn by_mode(off: f64, global_alloc: f64) -> f64 {
    if cfg!(feature = "global-alloc") {
        global_alloc
    } else {
        off
    }
}

/// Every gated path, in the order a trial runs them.
pub(crate) const ENVELOPE_PATHS: [EnvelopePath; 9] = [
    EnvelopePath { label: "hit-pair", recorded: by_mode(0.64, 0.64), run: hit_pair },
    EnvelopePath { label: "miss-pair", recorded: by_mode(2.64, 2.68), run: miss_pair },
    EnvelopePath { label: "global-pair", recorded: by_mode(0.63, 0.65), run: global_pair },
    EnvelopePath {
        label: "global-pair-profiled",
        recorded: by_mode(0.67, 0.68),
        run: profiled_global_pair,
    },
    EnvelopePath {
        label: "reclaim-global-pair",
        recorded: by_mode(0.67, 0.69),
        run: reclaim_global_pair,
    },
    EnvelopePath {
        label: "producer-consumer",
        recorded: by_mode(315.0, 321.0),
        run: producer_consumer,
    },
    EnvelopePath { label: "sim-engine", recorded: by_mode(10.45, 10.71), run: sim_engine },
    EnvelopePath { label: "tuned-hit-pair", recorded: by_mode(0.64, 0.64), run: tuned_hit_pair },
    EnvelopePath { label: "mem-api-pair", recorded: by_mode(1.35, 1.29), run: mem_api_pair },
];

/// ns per call of `op`, over `ops` calls.
fn ns_per_op(ops: u64, mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..ops {
        op();
    }
    t.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// Untimed warm-up before each timed loop.
fn warm_ops(pairs: u64) -> u64 {
    (pairs / 20).max(1_000)
}

/// The in-run reference: a `System` alloc/free pair on a 64-byte layout.
/// Every path is judged by its ratio to this, so a slower or busier host
/// moves both sides of the ratio.
fn reference_pair(pairs: u64) -> f64 {
    use std::alloc::{GlobalAlloc, Layout, System};
    let layout = Layout::from_size_align(64, 8).expect("bench layout");
    let mut pair = || unsafe {
        let p = System.alloc(layout);
        black_box(p);
        System.dealloc(p, layout);
    };
    ns_per_op(warm_ops(pairs), &mut pair);
    ns_per_op(pairs, pair)
}

/// Acquire/release hit pairs on `pool` (`[u8; 64]`, primed magazines).
fn typed_hit_pair(pool: ShardedPool<[u8; 64]>, pairs: u64) -> f64 {
    let seed: Vec<_> = (0..8).map(|_| pool.acquire(|| [0u8; 64])).collect();
    for x in seed {
        pool.release(x);
    }
    let mut pair = || {
        let x = pool.acquire(|| [0u8; 64]);
        black_box(&x);
        pool.release(x);
    };
    ns_per_op(warm_ops(pairs), &mut pair);
    ns_per_op(pairs, pair)
}

/// The sharded+magazine hit pair: 4 shards, default magazine cap.
fn hit_pair(pairs: u64) -> f64 {
    typed_hit_pair(
        ShardedPool::with_magazines(4, PoolConfig::default(), DEFAULT_MAGAZINE_CAP),
        pairs,
    )
}

/// The hit pair under the shape the offline tuner's winners converge to
/// on the tree families (doubled magazine cap). The layout is read only at
/// the cold decision points, so tuning must not tax the hit path.
fn tuned_hit_pair(pairs: u64) -> f64 {
    typed_hit_pair(
        ShardedPool::with_magazines(4, PoolConfig::default(), 2 * DEFAULT_MAGAZINE_CAP),
        pairs,
    )
}

/// One alloc → free pair through `&dyn MemBackend` on the registry's
/// `amplify` backend: a depth-1 tree, primed so every alloc is a magazine
/// hit. The layer both typed benchmark workloads pay for — the backend's
/// dispatch, the two-word `Allocation` and the structure's `reinit` on top
/// of the typed hit pair.
fn mem_api_pair(pairs: u64) -> f64 {
    let backend = BackendRegistry::<PoolTree>::standard().build("amplify").expect("registered");
    let backend: &dyn mem_api::MemBackend<PoolTree> = &*backend;
    let params = TreeParams { depth: 1, seed: 7 };
    let seed: Vec<_> = (0..8).map(|_| backend.alloc(&params)).collect();
    seed.into_iter().for_each(|a| backend.free(a));
    let mut pair = || {
        let a = backend.alloc(black_box(&params));
        black_box(&a);
        backend.free(a);
    };
    ns_per_op(warm_ops(pairs), &mut pair);
    ns_per_op(pairs, pair)
}

/// The acquire-miss path: acquire-and-drop on a sharded+magazine pool
/// that is never released into, so every acquire walks the cold path
/// (magazine miss, depot miss, slab slot).
fn miss_pair(pairs: u64) -> f64 {
    let pool: ShardedPool<[u8; 64]> =
        ShardedPool::with_magazines(4, PoolConfig::default(), DEFAULT_MAGAZINE_CAP);
    let op = || {
        let x = pool.acquire(|| [0u8; 64]);
        black_box(&x);
    };
    ns_per_op(warm_ops(pairs / 4), op);
    ns_per_op(pairs / 4, op)
}

/// The size-class engine's raw alloc/dealloc pair on a 64-byte layout: a
/// thread-cache hit after the warm-up.
fn global_pair(pairs: u64) -> f64 {
    let layout = std::alloc::Layout::from_size_align(64, 8).expect("bench layout");
    let pair = || {
        let p = pools::global::raw_alloc(layout);
        black_box(p);
        unsafe { pools::global::raw_dealloc(p, layout) };
    };
    ns_per_op(warm_ops(pairs), pair);
    ns_per_op(pairs, pair)
}

/// [`global_pair`] with the heap profiler sampling at the bench default
/// period. The idle profiler's cost is in [`global_pair`] itself: the
/// countdown is compiled into the pair path unconditionally.
fn profiled_global_pair(pairs: u64) -> f64 {
    pools::heap_profile::set_sample_period(crate::heapprof::DEFAULT_SAMPLE_PERIOD);
    let ns = global_pair(pairs);
    pools::heap_profile::set_sample_period(0);
    ns
}

/// [`global_pair`] while another thread loops full reclaim passes
/// (sweeps, epoch bumps, `madvise`). The timed thread's cache stays hot,
/// so its blocks never idle into a sweep: concurrent retirement must cost
/// the hit path nothing.
fn reclaim_global_pair(pairs: u64) -> f64 {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    let stop = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pools::reclaim::reclaim_all();
                passes.fetch_add(1, Ordering::Release);
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
        // Time nothing until the sweeper has completed one pass: a short
        // loop can otherwise finish before it is ever scheduled.
        while passes.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let ns = global_pair(pairs);
        stop.store(true, Ordering::Relaxed);
        ns
    })
}

/// A 24-byte tree node in a raw size-class block, the benchmark's
/// `xthread-heap` node.
#[repr(C)]
struct RawNode {
    left: *mut RawNode,
    right: *mut RawNode,
    data: u64,
}

const RAW_NODE: std::alloc::Layout = std::alloc::Layout::new::<RawNode>();

/// Levels below the root of a handed-over tree: 63 nodes.
const HANDOFF_DEPTH: u32 = 5;
const PRODUCERS: u64 = 2;
/// Trees per channel message: a handover per tree would time the
/// channel's wake-ups more than the frees.
const HANDOFF_BATCH: usize = 8;

/// A complete binary tree of `depth` levels below its root, built from
/// `raw_alloc` blocks.
fn raw_tree(depth: u32) -> *mut RawNode {
    let n = pools::global::raw_alloc(RAW_NODE).cast::<RawNode>();
    assert!(!n.is_null(), "raw_alloc failed");
    let (left, right) = if depth > 0 {
        (raw_tree(depth - 1), raw_tree(depth - 1))
    } else {
        (std::ptr::null_mut(), std::ptr::null_mut())
    };
    // SAFETY: `n` is a fresh block with `RawNode`'s layout.
    unsafe { n.write(RawNode { left, right, data: depth as u64 }) };
    n
}

fn free_raw_tree(n: *mut RawNode) {
    if n.is_null() {
        return;
    }
    // SAFETY: every link of a handed-over tree points at a live node of
    // it, and the tree is freed once, by its one receiver.
    unsafe {
        free_raw_tree((*n).left);
        free_raw_tree((*n).right);
        pools::global::raw_dealloc(n.cast(), RAW_NODE);
    }
}

/// Producer/consumer frees through the size-class engine: [`PRODUCERS`]
/// threads build depth-5 trees of 24-byte `raw_alloc` blocks and hand
/// them, [`HANDOFF_BATCH`] to a message, over one bounded channel to a
/// consumer that frees them. Every free is cross-thread, so the blocks
/// get back to their producers only through the consumer's flushes onto
/// the central stacks and the producers' refills from them. ns per tree, over about `pairs / 128`
/// trees (one alloc and one free per node), after an untimed run of a
/// twentieth of them.
fn producer_consumer(pairs: u64) -> f64 {
    let trees = (pairs / 128).max(PRODUCERS * HANDOFF_BATCH as u64);
    handoff(warm_ops(trees).min(trees));
    handoff(trees)
}

/// One timed producer/consumer run of about `trees` trees; ns per tree.
fn handoff(trees: u64) -> f64 {
    let messages = trees / PRODUCERS / HANDOFF_BATCH as u64;
    let (tx, rx) = std::sync::mpsc::sync_channel::<[usize; HANDOFF_BATCH]>(8);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..PRODUCERS {
            let tx = tx.clone();
            s.spawn(move || {
                for _ in 0..messages {
                    let batch = std::array::from_fn(|_| raw_tree(HANDOFF_DEPTH) as usize);
                    tx.send(batch).expect("the consumer is alive");
                }
            });
        }
        drop(tx);
        s.spawn(move || {
            // A thread's first classed allocation gives it a thread
            // cache, and real consumers allocate: without one, every free
            // would take the cache-less path, one remote push per block.
            let warm = pools::global::raw_alloc(RAW_NODE);
            // SAFETY: `warm` was just allocated with this layout.
            unsafe { pools::global::raw_dealloc(warm, RAW_NODE) };
            for root in rx.into_iter().flatten() {
                free_raw_tree(root as *mut RawNode);
            }
        });
    });
    t.elapsed().as_nanos() as f64 / (messages * PRODUCERS * HANDOFF_BATCH as u64) as f64
}

/// The simulation engine's real ns per dispatch event on its reference
/// workload: the serial backend (the most contended, event-densest
/// model), 32 threads on a 16-CPU / 2-node machine, deterministic
/// schedule. Catches event-loop or bus regressions the allocator paths
/// cannot see. Runs the fixed workload whatever `pairs` says.
fn sim_engine(_pairs: u64) -> f64 {
    use smp_sim::run::{run_tree_with, ModelKind, TreeExperiment};
    let exp = TreeExperiment {
        depth: 3,
        total_trees: 640,
        cpus: 16,
        params: smp_sim::CostParams::default(),
    };
    let t = Instant::now();
    let m = run_tree_with(ModelKind::Serial, 32, &exp, smp_sim::SchedPolicy::Deterministic, 8);
    t.elapsed().as_nanos() as f64 / m.events.max(1) as f64
}

/// One trial's timing of a path and of the reference pair that ran in
/// the same trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Sample {
    pub(crate) path_ns: f64,
    pub(crate) reference_ns: f64,
}

/// A path's verdict over all trials.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvelopeCheck {
    pub label: &'static str,
    pub(crate) recorded: f64,
    /// Per-trial ratios of path to reference.
    pub(crate) ratio: Summary,
    /// Median ns per operation of the path and of the reference.
    pub(crate) path_ns: f64,
    pub(crate) reference_ns: f64,
}

impl EnvelopeCheck {
    /// Summarise `samples`: each path time is divided by the reference
    /// time of its own trial, never another trial's.
    pub(crate) fn judge(label: &'static str, recorded: f64, samples: &[Sample]) -> Self {
        let ratios: Vec<f64> = samples.iter().map(|s| s.path_ns / s.reference_ns).collect();
        let median =
            |f: fn(&Sample) -> f64| Summary::of(&samples.iter().map(f).collect::<Vec<_>>()).median;
        EnvelopeCheck {
            label,
            recorded,
            ratio: Summary::of(&ratios),
            path_ns: median(|s| s.path_ns),
            reference_ns: median(|s| s.reference_ns),
        }
    }

    /// The largest median ratio that still passes.
    pub(crate) fn limit(&self) -> f64 {
        self.recorded * (1.0 + GATE)
    }

    /// True when the median ratio is over the limit. Being faster than
    /// the record never fails.
    pub fn regressed(&self) -> bool {
        self.ratio.median > self.limit()
    }

    /// One status line: the verdict, the median ratio with its quartiles
    /// against the record, and the raw medians behind it.
    pub fn render(&self) -> String {
        format!(
            "{:<21} {} ratio {:.3} [q1 {:.3}, q3 {:.3}] vs recorded {:.3} (limit {:.3}); \
             {:.2} ns/op, reference {:.2} ns",
            self.label,
            if self.regressed() { "FAIL" } else { "PASS" },
            self.ratio.median,
            self.ratio.q1,
            self.ratio.q3,
            self.recorded,
            self.limit(),
            self.path_ns,
            self.reference_ns
        )
    }
}

/// Run `trials` trials of every path in `ENVELOPE_PATHS`, each trial
/// timing one reference pair loop beside them, and judge each path.
pub fn measure_envelopes(trials: usize, pairs: u64) -> Vec<EnvelopeCheck> {
    let mut samples = vec![Vec::with_capacity(trials); ENVELOPE_PATHS.len()];
    for _ in 0..trials {
        let reference_ns = reference_pair(pairs);
        for (path, s) in ENVELOPE_PATHS.iter().zip(&mut samples) {
            s.push(Sample { path_ns: (path.run)(pairs), reference_ns });
        }
    }
    ENVELOPE_PATHS
        .iter()
        .zip(samples)
        .map(|(path, s)| EnvelopeCheck::judge(path.label, path.recorded, &s))
        .collect()
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

    fn samples(pairs: &[(f64, f64)]) -> Vec<Sample> {
        pairs.iter().map(|&(path_ns, reference_ns)| Sample { path_ns, reference_ns }).collect()
    }

    #[test]
    fn gate_fails_only_a_median_ratio_over_the_limit() {
        // Faster than the record never fails, however much faster.
        let fast =
            EnvelopeCheck::judge("p", 1.0, &samples(&[(1.0, 10.0), (2.0, 10.0), (1.0, 5.0)]));
        assert!(fast.ratio.median < 1.0 && !fast.regressed());
        // Median ratio 2.1 against recorded 1.0 is over the +100% limit;
        // 1.9 is not, nor is one slow trial beside two at the record.
        let limit = 1.0 + GATE;
        let over = EnvelopeCheck::judge("p", 1.0, &samples(&[(21.0, 10.0); 3]));
        assert!(over.ratio.median > limit && over.regressed(), "{}", over.render());
        let under = EnvelopeCheck::judge("p", 1.0, &samples(&[(19.0, 10.0); 3]));
        assert!(!under.regressed(), "{}", under.render());
        let one_slow =
            EnvelopeCheck::judge("p", 1.0, &samples(&[(10.0, 10.0), (90.0, 10.0), (10.0, 10.0)]));
        assert!(!one_slow.regressed(), "{}", one_slow.render());
        // Ratios pair within a trial. Four of these five trials ran the
        // path at its own reference's speed, so the median ratio is 1.0
        // and the path passes; the median path time over the median
        // reference time, which pairs across trials, reads 3.0.
        let paired = EnvelopeCheck::judge(
            "p",
            1.0,
            &samples(&[(1.0, 1.0), (1.0, 1.0), (3.0, 1.0), (10.0, 10.0), (10.0, 10.0)]),
        );
        assert_eq!(paired.ratio.median, 1.0);
        assert_eq!(paired.path_ns / paired.reference_ns, 3.0);
        assert!(!paired.regressed(), "{}", paired.render());
    }

    /// One tiny trial of the row labelled `label`, judged like a full
    /// run: the plumbing of that row, not its timing.
    fn check_one_row(label: &str) -> EnvelopeCheck {
        let path = ENVELOPE_PATHS.iter().find(|p| p.label == label).expect("row in the table");
        let pairs = 10_000;
        let reference_ns = reference_pair(pairs);
        let sample = Sample { path_ns: (path.run)(pairs), reference_ns };
        let check = EnvelopeCheck::judge(path.label, path.recorded, &[sample]);
        assert!(check.path_ns > 0.0 && check.reference_ns > 0.0, "{}", check.render());
        assert!(check.ratio.median.is_finite() && check.ratio.median > 0.0, "{}", check.render());
        let line = check.render();
        assert!(line.starts_with(label), "{line}");
        assert!(line.contains("PASS") || line.contains("FAIL"), "{line}");
        check
    }

    #[test]
    fn envelope_check_reports_without_failing() {
        check_one_row("hit-pair");
    }

    #[test]
    fn miss_envelope_check_reports_without_failing() {
        check_one_row("miss-pair");
    }

    #[test]
    fn global_envelope_check_reports_without_failing() {
        check_one_row("global-pair");
    }

    #[test]
    fn profiled_envelope_check_reports_without_failing() {
        check_one_row("global-pair-profiled");
    }

    #[test]
    fn reclaim_envelope_check_reports_without_failing() {
        check_one_row("reclaim-global-pair");
    }

    #[test]
    fn every_envelope_path_measures_a_positive_ratio() {
        // One tiny trial: the plumbing of every table row, not its timing.
        let checks = measure_envelopes(1, 10_000);
        assert_eq!(checks.len(), ENVELOPE_PATHS.len());
        for (check, path) in checks.iter().zip(&ENVELOPE_PATHS) {
            assert_eq!(check.label, path.label);
            assert!(
                check.ratio.median.is_finite() && check.ratio.median > 0.0,
                "{}",
                check.render()
            );
            assert!(path.recorded > 0.0, "{} has no recorded ratio", path.label);
        }
    }
}
