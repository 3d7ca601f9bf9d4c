//! The `BENCH_global_alloc.json` comparison: the same allocation-heavy
//! tree churn ([`workloads::heap::HeapTree`] — plain `Box` nodes, no
//! pools) timed under whatever `#[global_allocator]` this build carries.
//!
//! Each invocation fills the half it was compiled as (`system_alloc`
//! without the feature, `global_alloc` with `--features global-alloc`,
//! which installs [`pools::GlobalPool`]) and carries the other half over
//! from an existing `BENCH_global_alloc.json`; run both builds back to
//! back to get the `speedup_pct` comparison:
//!
//! ```text
//! cargo run --release -p bench --bin global_alloc_bench
//! cargo run --release -p bench --features global-alloc --bin global_alloc_bench
//! ```
//!
//! The workload: producer threads build full depth-5 binary trees
//! (63 × 32-byte nodes each); half of every producer's trees are handed
//! to consumer threads over *bounded* channels and dropped *there*, so
//! half the frees are cross-thread — the traffic the front-end's
//! remote-free queues exist for — while backpressure keeps the live set
//! steady. Checksums are asserted identical across compile states (same
//! seeds ⇒ same trees, whoever allocates them).
//!
//! Every invocation times 5 rounds (2 with `--smoke`) and records the
//! median round with its quartiles, plus the host it ran on.
//!
//! `--smoke` shrinks the run for CI; `[output_dir]` defaults to `.`.
//! `--heap-profile` samples allocation sites while the workload runs;
//! `--sample-period N` (power of two, default 64) sets its 1-in-N rate.

use bench::native::{cpu_model, Summary};
use serde::Value;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::heap::HeapTree;

/// Producers (also the "≥ 4 threads" of the recorded claim).
const PRODUCERS: usize = 4;
/// Consumers draining the cross-thread half.
const CONSUMERS: usize = 2;
const DEPTH: u32 = 5;
/// Nodes per tree: 2^(DEPTH+1) - 1.
const NODES_PER_TREE: u64 = (1 << (DEPTH + 1)) - 1;
/// In-flight trees per consumer channel. Bounded so producers cannot run
/// arbitrarily far ahead of the frees: backpressure keeps the live set
/// (and thus the comparison) about allocator throughput, not about how
/// gracefully each allocator degrades under an ever-growing heap.
const CHANNEL_BACKLOG: usize = 256;

struct RunResult {
    elapsed: Duration,
    trees: u64,
    nodes: u64,
    checksum: u64,
}

/// One timed run: `PRODUCERS` threads each build `trees_per_thread`
/// depth-`DEPTH` trees; odd-indexed trees are checksummed and dropped
/// locally, even-indexed ones are sent to a consumer and dropped there.
fn run_once(trees_per_thread: u64) -> RunResult {
    let t0 = Instant::now();
    let mut consumer_txs = Vec::with_capacity(CONSUMERS);
    let consumers: Vec<_> = (0..CONSUMERS)
        .map(|_| {
            let (tx, rx) = mpsc::sync_channel::<HeapTree>(CHANNEL_BACKLOG);
            consumer_txs.push(tx);
            std::thread::spawn(move || {
                let _tag = pools::heap_profile::TagGuard::new(pools::heap_profile::register_tag(
                    "tree-consumer",
                ));
                let mut sum = 0u64;
                for tree in rx {
                    sum = sum.wrapping_add(tree.checksum());
                    drop(tree);
                }
                sum
            })
        })
        .collect();

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let txs = consumer_txs.clone();
            std::thread::spawn(move || {
                // Attribute this thread's sampled allocations (free when
                // `--heap-profile` is off: sampling never ticks).
                let _tag = pools::heap_profile::TagGuard::new(pools::heap_profile::register_tag(
                    "tree-producer",
                ));
                let mut sum = 0u64;
                for i in 0..trees_per_thread {
                    let seed = (p as u64 * trees_per_thread + i) as u32;
                    let tree = HeapTree::build(DEPTH, seed);
                    if i % 2 == 0 {
                        // Cross-thread half: the consumer checksums and
                        // frees this tree's 63 nodes remotely.
                        txs[(p + i as usize) % CONSUMERS].send(tree).expect("consumer alive");
                    } else {
                        sum = sum.wrapping_add(tree.checksum());
                    }
                }
                sum
            })
        })
        .collect();
    drop(consumer_txs);

    let mut checksum = 0u64;
    for h in producers {
        checksum = checksum.wrapping_add(h.join().expect("producer"));
    }
    for h in consumers {
        checksum = checksum.wrapping_add(h.join().expect("consumer"));
    }
    let trees = PRODUCERS as u64 * trees_per_thread;
    RunResult { elapsed: t0.elapsed(), trees, nodes: trees * NODES_PER_TREE, checksum }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn round2(v: f64) -> Value {
    Value::Float((v * 100.0).round() / 100.0)
}

/// The other compile state's half, carried over from an existing
/// `BENCH_global_alloc.json` — but only when it measured the same
/// workload shape (a stale smoke half must not fake a comparison).
fn carried_over(path: &std::path::Path, half: &str, workload: &str) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    let v: Value = serde_json::from_str(&text).ok()?;
    let h = &v[half];
    match &h["workload"] {
        Value::String(w) if w == workload => Some(h.clone()),
        _ => None,
    }
}

fn half_f64(half: &Value, key: &str) -> Option<f64> {
    match half[key] {
        Value::Float(f) => Some(f),
        Value::UInt(u) => Some(u as f64),
        _ => None,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let profile = bench::heapprof::heap_profile_from(&args);
    let sample_period = match bench::heapprof::sample_period_from(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("[global_alloc_bench] {e}");
            std::process::exit(2);
        }
    };
    // The output dir is the first free-standing operand: not a flag, and
    // not the value of a value-taking flag like `--metrics-out <path>`.
    let dir = args
        .iter()
        .enumerate()
        .skip(1)
        .find(|(i, a)| {
            !a.starts_with("--")
                && args.get(i - 1).is_none_or(|p| p != "--metrics-out" && p != "--sample-period")
        })
        .map(|(_, a)| a.clone());
    let dir = std::path::Path::new(dir.as_deref().unwrap_or("."));

    let feature_on = cfg!(feature = "global-alloc");
    let (this_half, other_half) = if feature_on {
        ("global_alloc", "system_alloc")
    } else {
        ("system_alloc", "global_alloc")
    };
    let trees_per_thread: u64 = if smoke { 200 } else { 20_000 };
    let rounds = if smoke { 2 } else { 5 };
    let workload = format!(
        "heap-tree d{DEPTH} x{trees_per_thread}/thread, {PRODUCERS} producers + {CONSUMERS} \
         consumers, half the frees cross-thread, backlog {CHANNEL_BACKLOG}"
    );

    let host = format!(
        "{}, {} CPUs",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    eprintln!("[global_alloc_bench] host: {host}");
    eprintln!(
        "[global_alloc_bench] allocator: {} ({this_half}); {workload}; median of {rounds} rounds",
        if feature_on { "pools::GlobalPool" } else { "system" }
    );

    let stats_before = pools::global::stats();
    let profiler = profile.then(|| {
        bench::heapprof::HeapProfiler::start(sample_period, bench::heapprof::DEFAULT_CAPTURE_EVERY)
    });
    let mut first: Option<RunResult> = None;
    let mut round_ms = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let r = run_once(trees_per_thread);
        eprintln!(
            "[global_alloc_bench]   round {}: {:.1} ms, {:.2} ns/node pair",
            round + 1,
            r.elapsed.as_secs_f64() * 1e3,
            r.elapsed.as_nanos() as f64 / r.nodes as f64
        );
        if let Some(f) = &first {
            assert_eq!(r.checksum, f.checksum, "checksums must not vary across rounds");
        }
        round_ms.push(r.elapsed.as_secs_f64() * 1e3);
        first.get_or_insert(r);
    }
    let run = first.expect("at least one round");
    let ms = Summary::of(&round_ms);
    let heap_profile = profiler.map(bench::heapprof::HeapProfiler::finish);
    let stats_after = pools::global::stats();
    let ns_per_pair = ms.median * 1e6 / run.nodes as f64;

    // With the allocator installed, the run's node traffic shows up on the
    // size-class ledger; feature-off the heap trees never touch it.
    let allocator = if feature_on {
        let d = |a: u64, b: u64| Value::UInt(a.saturating_sub(b));
        obj(vec![
            ("class_allocs", d(stats_after.class_allocs, stats_before.class_allocs)),
            ("cache_hits", d(stats_after.cache_hits, stats_before.cache_hits)),
            ("class_refills", d(stats_after.class_refills, stats_before.class_refills)),
            ("remote_frees", d(stats_after.remote_frees, stats_before.remote_frees)),
            ("remote_drained", d(stats_after.remote_drained, stats_before.remote_drained)),
            ("slabs_carved", Value::UInt(stats_after.slabs_carved)),
        ])
    } else {
        Value::Null
    };

    let mine = obj(vec![
        ("workload", Value::String(workload.clone())),
        ("host", Value::String(host)),
        ("rounds", Value::UInt(rounds as u64)),
        ("elapsed_ms", round2(ms.median)),
        ("elapsed_ms_q1", round2(ms.q1)),
        ("elapsed_ms_q3", round2(ms.q3)),
        ("trees", Value::UInt(run.trees)),
        ("nodes", Value::UInt(run.nodes)),
        ("ns_per_node_pair", round2(ns_per_pair)),
        ("checksum", Value::UInt(run.checksum)),
    ]);

    let out_path = dir.join("BENCH_global_alloc.json");
    let theirs = carried_over(&out_path, other_half, &workload);
    let speedup_pct = match &theirs {
        Some(other) => {
            // Same seeds must mean the same trees under either allocator.
            if let Value::UInt(c) = other["checksum"] {
                assert_eq!(c, run.checksum, "checksum differs across compile states");
            }
            let (sys, glo) = if feature_on {
                (half_f64(other, "ns_per_node_pair"), Some(ns_per_pair))
            } else {
                (Some(ns_per_pair), half_f64(other, "ns_per_node_pair"))
            };
            match (sys, glo) {
                (Some(sys), Some(glo)) if sys > 0.0 => {
                    Value::Float(((1.0 - glo / sys) * 1000.0).round() / 10.0)
                }
                _ => Value::Null,
            }
        }
        None => Value::Null,
    };

    let (system_half, global_half) = {
        let theirs = theirs.unwrap_or(Value::Null);
        if feature_on {
            (theirs, mine)
        } else {
            (mine, theirs)
        }
    };
    let report = obj(vec![
        ("schema", Value::String("global-alloc-bench-v2".into())),
        ("measured", Value::String(this_half.into())),
        ("system_alloc", system_half),
        ("global_alloc", global_half),
        ("speedup_pct", speedup_pct.clone()),
        ("allocator", allocator),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("bench json");
    json.push('\n');
    std::fs::create_dir_all(dir).expect("create output dir");
    std::fs::write(&out_path, &json).expect("write BENCH_global_alloc.json");

    eprintln!(
        "[global_alloc_bench] median round: {:.1} ms [{:.1}, {:.1}], {ns_per_pair:.2} ns/node pair \
         -> {}",
        ms.median,
        ms.q1,
        ms.q3,
        out_path.display()
    );
    match speedup_pct {
        Value::Float(pct) => {
            eprintln!("[global_alloc_bench] front-end vs system: {pct:+.1}% wall-clock")
        }
        _ => eprintln!(
            "[global_alloc_bench] `{this_half}` measured; run the {} build to complete \
             the comparison",
            if feature_on { "feature-off" } else { "`--features global-alloc`" }
        ),
    }

    if let Some(hp) = &heap_profile {
        write_heap_baseline(dir, &workload, hp);
    }

    bench::metrics::emit_with_heap_profile("global_alloc_bench", Vec::new(), heap_profile);
}

/// The occupancy baseline (`BENCH_heap_profile.json`): peak mapped/live
/// bytes per class on the depth-5 cross-thread workload — the seed
/// trajectory for Mesh-style reclamation work (ROADMAP item 2).
fn write_heap_baseline(
    dir: &std::path::Path,
    workload: &str,
    hp: &telemetry::report::HeapProfileSection,
) {
    let classes: Vec<Value> = hp
        .classes
        .iter()
        .filter(|c| c.mapped_bytes > 0 || c.peak_live_bytes > 0)
        .map(|c| {
            obj(vec![
                ("class", Value::UInt(c.class as u64)),
                ("block_bytes", Value::UInt(c.block_bytes)),
                ("peak_mapped_bytes", Value::UInt(c.mapped_bytes)),
                ("peak_live_bytes", Value::UInt(c.peak_live_bytes)),
                ("end_live_bytes", Value::UInt(c.live_bytes)),
                ("parked_bytes", Value::UInt(c.parked_bytes)),
            ])
        })
        .collect();
    let peak_live: u64 = hp.classes.iter().map(|c| c.peak_live_bytes).sum();
    let report = obj(vec![
        ("schema", Value::String("heap-profile-baseline-v1".into())),
        (
            "measured",
            Value::String(
                if cfg!(feature = "global-alloc") { "global_alloc" } else { "system_alloc" }.into(),
            ),
        ),
        ("workload", Value::String(workload.into())),
        ("sample_period", Value::UInt(hp.sample_period)),
        ("snapshots", Value::UInt(hp.timeline.len() as u64)),
        ("total_mapped_bytes", Value::UInt(hp.total_mapped_bytes())),
        ("total_peak_live_bytes", Value::UInt(peak_live)),
        ("classes", Value::Array(classes)),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("baseline json");
    json.push('\n');
    let path = dir.join("BENCH_heap_profile.json");
    std::fs::write(&path, &json).expect("write BENCH_heap_profile.json");
    eprintln!("[global_alloc_bench] heap-occupancy baseline -> {}", path.display());
}
