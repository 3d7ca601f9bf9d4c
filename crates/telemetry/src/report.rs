//! The unified `telemetry-v1` report: one JSON document aggregating pool
//! statistics, event totals, histograms and simulator runs.
//!
//! Emitted by every bench figure/ablation binary behind `--metrics-out`,
//! rendered by the `pool_report` binary, and mirrored line-for-line by the
//! machine-readable output of the generated C++ runtime header (so C++-side
//! and Rust-side stats can be diffed by the same tooling).

use crate::event::EventKind;
use serde::{Deserialize, Serialize, Value};
use smp_sim::metrics::RunMetrics;

/// The schema tag every report carries. Bump on breaking field changes.
pub(crate) const SCHEMA: &str = "telemetry-v1";

/// The schema tag of the embedded heap-profile section. Versioned
/// independently of the outer report: the section is optional, so old
/// readers skip it and old reports simply lack it.
pub const HEAP_PROFILE_SCHEMA: &str = "heap-profile-v1";

/// The schema tag of the embedded pool-tuning section emitted by the
/// offline tuner (`pool_tune`). Versioned independently of the outer
/// report, exactly like the heap profile.
pub const POOL_TUNE_SCHEMA: &str = "pool-tune-v1";

/// Event kinds reports no longer list, still accepted in reports written
/// while they did: the Level 3 magazine refill and the shadow slots, then
/// the typed pools' per-event totals, which a compile-time feature counted
/// a second time beside their always-on counters (a report's `pools` and
/// `native_runs` sections carry those counts).
const RETIRED_EVENT_KINDS: [&str; 13] = [
    "magazine_refill",
    "shadow_park",
    "shadow_reuse",
    "acquire_hit",
    "acquire_miss",
    "release",
    "drop",
    "magazine_flush",
    "epoch_invalidation",
    "shard_lock_contention",
    "depot_swap",
    "depot_park",
    "slab_carve",
];

/// Buckets a histogram may have (see [`HistogramReport`]): 65 cover every
/// `u64`.
const HISTOGRAM_BUCKETS: usize = 65;

/// Aggregated statistics for one named pool, shards and magazines included.
/// Field names are the `telemetry-v1` wire names; the generated C++ runtime
/// emits the same names (`pool_misses` maps to `fresh_allocs`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolSnapshot {
    pub name: String,
    /// Dead objects currently parked (free lists plus magazines).
    pub parked: u64,
    pub pool_hits: u64,
    pub fresh_allocs: u64,
    pub releases: u64,
    pub dropped: u64,
    pub failed_locks: u64,
    pub lock_acquisitions: u64,
}

impl PoolSnapshot {
    /// Fraction of allocations served by reuse, in `[0, 1]`.
    pub(crate) fn hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.fresh_allocs;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Fraction of lock probes that found the lock held.
    pub(crate) fn contention_rate(&self) -> f64 {
        let probes = self.failed_locks + self.lock_acquisitions;
        if probes == 0 {
            0.0
        } else {
            self.failed_locks as f64 / probes as f64
        }
    }

    /// Deterministic tuning fitness, lower is better. A pure counter
    /// blend — no wall clock — so the offline tuner's verdicts are exactly
    /// reproducible in CI: fresh allocations dominate (each one is the
    /// malloc the pool exists to avoid), failed lock probes price
    /// contention, acquisitions price depot round-trips even when
    /// uncontended, and parked objects price the memory a config wastes
    /// to get its hit rate.
    pub fn tuning_fitness(&self) -> u64 {
        self.fresh_allocs
            .saturating_mul(100)
            .saturating_add(self.failed_locks.saturating_mul(50))
            .saturating_add(self.lock_acquisitions)
            .saturating_add(self.parked.saturating_mul(10))
    }
}

/// One per-kind event total (see `EventKind::name`; reports written
/// before a kind retired may list it too).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCount {
    pub kind: String,
    pub count: u64,
}

/// One named histogram: bucket 0 counts the value 0 and bucket `i ≥ 1`
/// the values of bit length `i`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct HistogramReport {
    pub(crate) name: String,
    pub(crate) buckets: Vec<u64>,
}

/// One simulator run embedded in a report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRun {
    /// What the run was (`"amplify/t8"`, `"shards=4"`, ...).
    pub label: String,
    pub metrics: RunMetrics,
}

/// One native (real-runtime) execution embedded in a report: a
/// backend × workload cell of the five-way comparison matrix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NativeRun {
    /// Backend registry name (`"solaris-default"`, `"amplify"`, ...).
    pub backend: String,
    /// Workload label (`"tree/d3"`, `"bgw"`, ...).
    pub workload: String,
    pub threads: u32,
    pub elapsed_ns: u64,
    /// Structures allocated (and freed — native runs are balanced).
    pub structures: u64,
    pub pool_hits: u64,
    pub fresh_allocs: u64,
    pub contention_events: u64,
}

impl NativeRun {
    /// Nanoseconds per structure alloc/free pair.
    pub fn ns_per_structure(&self) -> f64 {
        if self.structures == 0 {
            0.0
        } else {
            self.elapsed_ns as f64 / self.structures as f64
        }
    }

    /// Fraction of structure allocations served by reuse, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.fresh_allocs;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Point-in-time occupancy gauges for one allocator size class, all in
/// bytes. `mapped - live` is the fragmentation the mapped/live ratio
/// reads; `parked` splits out the part held in reuse caches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapClassGauges {
    /// Size-class index (ascending block size).
    pub class: u32,
    /// The class's block size.
    pub block_bytes: u64,
    /// Slab bytes mapped for this class.
    pub mapped_bytes: u64,
    /// Bytes in live (allocated, not yet freed) blocks.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` across collections.
    pub peak_live_bytes: u64,
    /// Bytes parked in reuse caches (thread magazines + central stacks +
    /// remote queues).
    pub parked_bytes: u64,
    /// Outstanding fault-fallback bytes (outside `mapped`/`live`).
    pub fallback_bytes: u64,
}

impl HeapClassGauges {
    /// Live fraction of mapped memory, in `[0, 1]` (0 when unmapped).
    pub(crate) fn occupancy(&self) -> f64 {
        if self.mapped_bytes == 0 {
            0.0
        } else {
            self.live_bytes as f64 / self.mapped_bytes as f64
        }
    }
}

/// One sampled allocation site: a size-class row of the "where is the
/// heap" table.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapSiteSample {
    pub class: u32,
    pub block_bytes: u64,
    /// Caller-tag name: `"untagged"` in current reports (the sampler keys
    /// by size class and thread); older reports may carry other names.
    pub tag: String,
    pub samples: u64,
    /// `samples × period × block_bytes`: estimated allocation volume.
    pub est_bytes: u64,
}

/// One timeline point from the snapshot ring (whole-heap totals; `seq` is
/// the capture's process-wide sequence number).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeapTimelinePoint {
    pub seq: u64,
    pub mapped_bytes: u64,
    pub live_bytes: u64,
}

/// The versioned `heap-profile-v1` section: per-class occupancy gauges,
/// top sampled sites, the occupancy-over-time timeline, and cumulative
/// slab-retirement totals.
///
/// Serde impls are manual for the same reason [`Report`]'s are: the
/// `reclaimed_*` counters were added after the schema shipped, so they
/// must parse as 0 when absent (reports from pre-reclaimer binaries),
/// and the vendored derive has no `#[serde(default)]`.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapProfileSection {
    /// Always [`HEAP_PROFILE_SCHEMA`] for sections this crate emits.
    pub schema: String,
    /// 1-in-N sample period the sites were collected under (0 = sampling
    /// was disabled; gauges are exact either way).
    pub sample_period: u64,
    pub classes: Vec<HeapClassGauges>,
    pub sites: Vec<HeapSiteSample>,
    pub timeline: Vec<HeapTimelinePoint>,
    /// Slabs retired to the OS over the process lifetime (0 on reports
    /// from binaries without the reclaimer).
    pub reclaimed_slabs: u64,
    /// Bytes those retirements returned via `madvise(MADV_DONTNEED)`.
    pub reclaimed_bytes: u64,
}

impl Serialize for HeapProfileSection {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), self.schema.to_value()),
            ("sample_period".to_string(), self.sample_period.to_value()),
            ("classes".to_string(), self.classes.to_value()),
            ("sites".to_string(), self.sites.to_value()),
            ("timeline".to_string(), self.timeline.to_value()),
            ("reclaimed_slabs".to_string(), self.reclaimed_slabs.to_value()),
            ("reclaimed_bytes".to_string(), self.reclaimed_bytes.to_value()),
        ])
    }
}

impl Deserialize for HeapProfileSection {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        // Reclaim counters postdate the schema: absent means "emitter
        // predates the reclaimer", i.e. nothing was ever reclaimed.
        let tolerant_u64 = |name: &str| -> Result<u64, serde::Error> {
            match v.field(name) {
                Ok(val) => u64::from_value(val),
                Err(_) => Ok(0),
            }
        };
        Ok(HeapProfileSection {
            schema: String::from_value(v.field("schema")?)?,
            sample_period: u64::from_value(v.field("sample_period")?)?,
            classes: Vec::from_value(v.field("classes")?)?,
            sites: Vec::from_value(v.field("sites")?)?,
            timeline: Vec::from_value(v.field("timeline")?)?,
            reclaimed_slabs: tolerant_u64("reclaimed_slabs")?,
            reclaimed_bytes: tolerant_u64("reclaimed_bytes")?,
        })
    }
}

impl HeapProfileSection {
    pub(crate) fn total_mapped_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.mapped_bytes).sum()
    }

    pub(crate) fn total_live_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.live_bytes).sum()
    }
}

/// One evolved pool parameter vector — the genome the offline tuner
/// searches over. Wire names match the tuner's field names; genes that
/// older reports still carry parse and are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TunedGenome {
    /// Per-thread magazine capacity (objects).
    pub magazine_cap: u32,
    /// Depot shard count.
    pub shards: u32,
}

/// One generation of the evolutionary search. Fitness is a deterministic
/// counter blend (see [`PoolSnapshot::tuning_fitness`]); lower is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GenerationEntry {
    pub generation: u32,
    pub best_fitness: u64,
    pub median_fitness: u64,
    pub best: TunedGenome,
}

/// One workload family's tuning outcome: the hand-tuned default genome's
/// fitness against the evolved winner's, plus the full generation log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FamilyTuning {
    /// Workload family label (`"tree/d3"`, ...).
    pub family: String,
    pub default_fitness: u64,
    pub tuned_fitness: u64,
    pub winner: TunedGenome,
    pub generations: Vec<GenerationEntry>,
}

impl FamilyTuning {
    /// Did evolution strictly beat the hand-tuned default?
    pub fn improved(&self) -> bool {
        self.tuned_fitness < self.default_fitness
    }

    /// Fitness reduction relative to the default genome, in percent
    /// (positive means the evolved config wins; fitness is
    /// lower-is-better, so the reduction *is* the improvement).
    pub fn improvement_pct(&self) -> f64 {
        if self.default_fitness == 0 {
            0.0
        } else {
            100.0 * (self.default_fitness as f64 - self.tuned_fitness as f64)
                / self.default_fitness as f64
        }
    }
}

/// The versioned `pool-tune-v1` section: one seeded evolutionary search
/// per workload family, with enough detail to replay the verdict.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolTuneSection {
    /// Always [`POOL_TUNE_SCHEMA`] for sections this crate emits.
    pub schema: String,
    /// SplitMix64 seed the whole search derives from.
    pub seed: u64,
    /// Individuals per generation.
    pub population: u32,
    pub families: Vec<FamilyTuning>,
}

impl PoolTuneSection {
    /// How many families the evolved config strictly beat the default on.
    pub fn improved_families(&self) -> usize {
        self.families.iter().filter(|f| f.improved()).count()
    }
}

/// The versioned snapshot the whole stack reports through.
///
/// Serde impls are manual (not derived) for one reason: `heap_profile`
/// must stay *optional on the wire* — absent in reports from older
/// binaries and from the generated C++ runtime, and omitted (not
/// `null`) when empty so those emitters' output stays byte-identical.
/// The vendored derive has no `#[serde(default)]`, so the tolerance is
/// spelled out in `from_value` below.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Always [`SCHEMA`] for reports produced by this crate version.
    pub(crate) schema: String,
    /// Producing binary or subsystem.
    pub source: String,
    pub pools: Vec<PoolSnapshot>,
    pub events: Vec<EventCount>,
    /// Empty in reports this crate builds; reports written while the
    /// runtime recorded histograms still carry theirs, and render them.
    pub(crate) histograms: Vec<HistogramReport>,
    pub sim_runs: Vec<SimRun>,
    /// Native backend × workload executions (the `native_matrix` bench).
    pub native_runs: Vec<NativeRun>,
    /// Heap-profiling section (`--heap-profile` runs only).
    pub heap_profile: Option<HeapProfileSection>,
    /// Offline tuning section (`pool_tune` runs only).
    pub pool_tune: Option<PoolTuneSection>,
}

impl Serialize for Report {
    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("schema".to_string(), self.schema.to_value()),
            ("source".to_string(), self.source.to_value()),
            ("pools".to_string(), self.pools.to_value()),
            ("events".to_string(), self.events.to_value()),
            ("histograms".to_string(), self.histograms.to_value()),
            ("sim_runs".to_string(), self.sim_runs.to_value()),
            ("native_runs".to_string(), self.native_runs.to_value()),
        ];
        if let Some(hp) = &self.heap_profile {
            obj.push(("heap_profile".to_string(), hp.to_value()));
        }
        if let Some(pt) = &self.pool_tune {
            obj.push(("pool_tune".to_string(), pt.to_value()));
        }
        Value::Object(obj)
    }
}

impl Deserialize for Report {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Report {
            schema: String::from_value(v.field("schema")?)?,
            source: String::from_value(v.field("source")?)?,
            pools: Vec::from_value(v.field("pools")?)?,
            events: Vec::from_value(v.field("events")?)?,
            histograms: Vec::from_value(v.field("histograms")?)?,
            sim_runs: Vec::from_value(v.field("sim_runs")?)?,
            native_runs: Vec::from_value(v.field("native_runs")?)?,
            // Optional on the wire: absent or null both mean "no profile".
            heap_profile: match v.field("heap_profile") {
                Ok(val) => Option::from_value(val)?,
                Err(_) => None,
            },
            pool_tune: match v.field("pool_tune") {
                Ok(val) => Option::from_value(val)?,
                Err(_) => None,
            },
        })
    }
}

impl Report {
    /// An empty report for `source`.
    pub fn new(source: &str) -> Self {
        Report {
            schema: SCHEMA.to_string(),
            source: source.to_string(),
            pools: Vec::new(),
            events: Vec::new(),
            histograms: Vec::new(),
            sim_runs: Vec::new(),
            native_runs: Vec::new(),
            heap_profile: None,
            pool_tune: None,
        }
    }

    /// A report listing every [`EventKind`] with the total `count` reads
    /// for it. Pool snapshots and sim runs are supplied by the caller
    /// (`pools::PoolRegistry::pool_snapshots`, bench drivers).
    pub fn with_events(source: &str, count: impl Fn(EventKind) -> u64) -> Self {
        let mut r = Report::new(source);
        r.events = EventKind::ALL
            .iter()
            .map(|&k| EventCount { kind: k.name().to_string(), count: count(k) })
            .collect();
        r
    }

    /// Serialize as pretty JSON (deterministic: field order is declaration
    /// order, event order is [`EventKind::ALL`]'s).
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).expect("report serializes");
        s.push('\n');
        s
    }

    /// Parse a report from JSON.
    pub fn from_json(json: &str) -> Result<Report, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    /// Check the schema tag and structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != SCHEMA {
            return Err(format!("unsupported schema `{}` (expected `{SCHEMA}`)", self.schema));
        }
        for h in &self.histograms {
            if h.buckets.len() > HISTOGRAM_BUCKETS {
                return Err(format!(
                    "histogram `{}` has {} buckets (max {HISTOGRAM_BUCKETS})",
                    h.name,
                    h.buckets.len()
                ));
            }
        }
        for ev in &self.events {
            let known = EventKind::ALL.iter().any(|k| k.name() == ev.kind);
            if !known && !RETIRED_EVENT_KINDS.contains(&ev.kind.as_str()) {
                return Err(format!("unknown event kind `{}`", ev.kind));
            }
        }
        if let Some(hp) = &self.heap_profile {
            if hp.schema != HEAP_PROFILE_SCHEMA {
                return Err(format!(
                    "unsupported heap-profile schema `{}` (expected `{HEAP_PROFILE_SCHEMA}`)",
                    hp.schema
                ));
            }
            for c in &hp.classes {
                // The collector's fold order guarantees this bound in
                // every snapshot; a violating report is corrupt.
                if c.live_bytes > c.mapped_bytes {
                    return Err(format!(
                        "heap-profile class {}: live {} exceeds mapped {}",
                        c.class, c.live_bytes, c.mapped_bytes
                    ));
                }
            }
        }
        if let Some(pt) = &self.pool_tune {
            if pt.schema != POOL_TUNE_SCHEMA {
                return Err(format!(
                    "unsupported pool-tune schema `{}` (expected `{POOL_TUNE_SCHEMA}`)",
                    pt.schema
                ));
            }
            for f in &pt.families {
                // Elitist evolution never loses its best individual, so a
                // winner worse than some logged generation is corrupt.
                if f.generations.iter().any(|g| g.best_fitness < f.tuned_fitness) {
                    return Err(format!(
                        "pool-tune family `{}`: winner fitness {} worse than a logged generation",
                        f.family, f.tuned_fitness
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render as a human-readable text summary: hit rates, contention hot
    /// spots, histogram and timeline sparklines.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry report: {} ({}) ==", self.source, self.schema);

        if !self.pools.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<16}{:>10}{:>12}{:>10}{:>9}{:>10}{:>9}",
                "pool", "parked", "hits", "fresh", "hit%", "releases", "dropped"
            );
            for p in &self.pools {
                let _ = writeln!(
                    out,
                    "{:<16}{:>10}{:>12}{:>10}{:>8.1}%{:>10}{:>9}",
                    p.name,
                    p.parked,
                    p.pool_hits,
                    p.fresh_allocs,
                    100.0 * p.hit_rate(),
                    p.releases,
                    p.dropped
                );
            }
            let mut hot: Vec<&PoolSnapshot> =
                self.pools.iter().filter(|p| p.failed_locks > 0).collect();
            hot.sort_by_key(|p| std::cmp::Reverse(p.failed_locks));
            if hot.is_empty() {
                let _ = writeln!(out, "contention: none (no failed lock probes)");
            } else {
                let _ = writeln!(out, "contention hot spots:");
                for p in hot {
                    let _ = writeln!(
                        out,
                        "  {:<16}{} failed locks ({:.2}% of probes)",
                        p.name,
                        p.failed_locks,
                        100.0 * p.contention_rate()
                    );
                }
            }
        }

        let nonzero: Vec<&EventCount> = self.events.iter().filter(|e| e.count > 0).collect();
        if !nonzero.is_empty() {
            let _ = writeln!(out, "\nevents:");
            for e in nonzero {
                let _ = writeln!(out, "  {:<24}{}", e.kind, e.count);
            }
        }

        for h in &self.histograms {
            let total: u64 = h.buckets.iter().sum();
            if total == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "\nhistogram {} (n={total}, log2 buckets 0..{}):",
                h.name,
                h.buckets.len().saturating_sub(1)
            );
            let _ = writeln!(out, "  {}", sparkline(&h.buckets));
        }

        if !self.sim_runs.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<24}{:>12}{:>14}{:>14}{:>12}{:>10}",
                "sim run", "wall ms", "lock wait ms", "failed locks", "coherence", "events"
            );
            for run in &self.sim_runs {
                let m = &run.metrics;
                let _ = writeln!(
                    out,
                    "{:<24}{:>12.2}{:>14.2}{:>14}{:>12}{:>10}",
                    run.label,
                    m.wall_ns as f64 / 1e6,
                    m.lock_wait_ns as f64 / 1e6,
                    m.failed_locks,
                    m.coherence_misses,
                    m.events
                );
                if m.timeline.len() >= 2 {
                    // Per-interval lock waiting (the timeline samples are
                    // cumulative, so render the deltas). The sampler doubles
                    // its period when the timeline buffer decimates, so name
                    // the effective grid.
                    let deltas: Vec<u64> = m
                        .timeline
                        .windows(2)
                        .map(|w| w[1].lock_wait_ns.saturating_sub(w[0].lock_wait_ns))
                        .collect();
                    let _ = writeln!(
                        out,
                        "  lock-wait timeline  {} ({:.1} ms/sample)",
                        sparkline(&deltas),
                        m.sample_interval_ns as f64 / 1e6
                    );
                }
            }
        }

        if !self.native_runs.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<18}{:<12}{:>8}{:>12}{:>12}{:>9}{:>12}",
                "native run", "workload", "threads", "ms", "ns/struct", "hit%", "contention"
            );
            for run in &self.native_runs {
                let _ = writeln!(
                    out,
                    "{:<18}{:<12}{:>8}{:>12.2}{:>12.1}{:>8.1}%{:>12}",
                    run.backend,
                    run.workload,
                    run.threads,
                    run.elapsed_ns as f64 / 1e6,
                    run.ns_per_structure(),
                    100.0 * run.hit_rate(),
                    run.contention_events
                );
            }
        }

        if let Some(hp) = &self.heap_profile {
            let _ = writeln!(
                out,
                "\nheap profile ({}, sample period {}):",
                hp.schema, hp.sample_period
            );
            let _ = writeln!(
                out,
                "{:<7}{:>9}{:>12}{:>12}{:>12}{:>10}{:>10}{:>7}  occupancy",
                "class", "block", "mapped", "live", "peak", "parked", "fallback", "occ%",
            );
            for c in hp.classes.iter().filter(|c| c.mapped_bytes > 0 || c.fallback_bytes > 0) {
                let _ = writeln!(
                    out,
                    "{:<7}{:>9}{:>12}{:>12}{:>12}{:>10}{:>10}{:>6.1}%  {}",
                    c.class,
                    c.block_bytes,
                    c.mapped_bytes,
                    c.live_bytes,
                    c.peak_live_bytes,
                    c.parked_bytes,
                    c.fallback_bytes,
                    100.0 * c.occupancy(),
                    occupancy_bar(c.occupancy())
                );
            }
            let mapped = hp.total_mapped_bytes();
            let live = hp.total_live_bytes();
            if live > 0 {
                let _ = writeln!(
                    out,
                    "fragmentation: {mapped} mapped / {live} live = {:.2}x",
                    mapped as f64 / live as f64
                );
            }
            if hp.reclaimed_slabs > 0 {
                let _ = writeln!(
                    out,
                    "reclaimed: {} slabs / {} bytes returned to the OS",
                    hp.reclaimed_slabs, hp.reclaimed_bytes
                );
            }
            if !hp.sites.is_empty() {
                let _ = writeln!(out, "top sampled sites (where is the heap):");
                for s in hp.sites.iter().take(10) {
                    let _ = writeln!(
                        out,
                        "  {:<20}{:>7}B x{:<10} ~{} bytes",
                        s.tag, s.block_bytes, s.samples, s.est_bytes
                    );
                }
            }
            if hp.timeline.len() >= 2 {
                let lives: Vec<u64> = hp.timeline.iter().map(|p| p.live_bytes).collect();
                let mapped: Vec<u64> = hp.timeline.iter().map(|p| p.mapped_bytes).collect();
                let _ = writeln!(out, "live over time    {}", sparkline(&lives));
                let _ = writeln!(out, "mapped over time  {}", sparkline(&mapped));
            }
        }

        if let Some(pt) = &self.pool_tune {
            let _ = writeln!(
                out,
                "\npool tuning ({}, seed {}, population {}):",
                pt.schema, pt.seed, pt.population
            );
            let _ = writeln!(
                out,
                "{:<12}{:>14}{:>14}{:>10}",
                "family", "default fit", "tuned fit", "delta"
            );
            for f in &pt.families {
                let _ = writeln!(
                    out,
                    "{:<12}{:>14}{:>14}{:>9.1}%",
                    f.family,
                    f.default_fitness,
                    f.tuned_fitness,
                    -f.improvement_pct()
                );
            }
            let _ = writeln!(
                out,
                "winning genomes ({}/{} families improved):",
                pt.improved_families(),
                pt.families.len()
            );
            let _ = writeln!(out, "  {:<12}{:>8}{:>8}", "family", "mag_cap", "shards");
            for f in &pt.families {
                let w = &f.winner;
                let _ = writeln!(out, "  {:<12}{:>8}{:>8}", f.family, w.magazine_cap, w.shards);
            }
            for f in &pt.families {
                if f.generations.is_empty() {
                    continue;
                }
                let _ = writeln!(out, "generation log {} (best/median fitness):", f.family);
                for g in &f.generations {
                    let _ = writeln!(
                        out,
                        "  g{:<3} best {:<12} median {}",
                        g.generation, g.best_fitness, g.median_fitness
                    );
                }
            }
        }
        out
    }

    /// Per-counter deltas between two reports (`self` = old, `new` = new):
    /// pools matched by name, events by kind, native runs by
    /// backend × workload, heap-profile gauges by class. Counters present
    /// on only one side are shown as appearing/disappearing rather than
    /// silently dropped.
    pub fn diff(&self, new: &Report) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== telemetry diff: {} -> {} ==", self.source, new.source);

        fn d(new: u64, old: u64) -> String {
            match new.cmp(&old) {
                std::cmp::Ordering::Greater => format!("+{}", new - old),
                std::cmp::Ordering::Less => format!("-{}", old - new),
                std::cmp::Ordering::Equal => "0".to_string(),
            }
        }

        let mut pool_lines = String::new();
        for np in &new.pools {
            let zero = PoolSnapshot {
                name: np.name.clone(),
                parked: 0,
                pool_hits: 0,
                fresh_allocs: 0,
                releases: 0,
                dropped: 0,
                failed_locks: 0,
                lock_acquisitions: 0,
            };
            let op = self.pools.iter().find(|p| p.name == np.name).unwrap_or(&zero);
            let fields = [
                ("parked", np.parked, op.parked),
                ("hits", np.pool_hits, op.pool_hits),
                ("fresh", np.fresh_allocs, op.fresh_allocs),
                ("releases", np.releases, op.releases),
                ("dropped", np.dropped, op.dropped),
                ("failed_locks", np.failed_locks, op.failed_locks),
            ];
            let changed: Vec<String> = fields
                .iter()
                .filter(|(_, n, o)| n != o)
                .map(|(k, n, o)| format!("{k} {}", d(*n, *o)))
                .collect();
            if !changed.is_empty() {
                let _ = writeln!(pool_lines, "  {:<16}{}", np.name, changed.join(", "));
            }
        }
        for op in &self.pools {
            if new.pools.iter().all(|p| p.name != op.name) {
                let _ = writeln!(pool_lines, "  {:<16}(gone)", op.name);
            }
        }
        if !pool_lines.is_empty() {
            let _ = writeln!(out, "pools:");
            out.push_str(&pool_lines);
        }

        let mut event_lines = String::new();
        for ne in &new.events {
            let old = self.events.iter().find(|e| e.kind == ne.kind).map_or(0, |e| e.count);
            if ne.count != old {
                let _ = writeln!(event_lines, "  {:<24}{}", ne.kind, d(ne.count, old));
            }
        }
        // A kind only the old report lists (retired since) is announced
        // when it counted anything.
        for oe in &self.events {
            if oe.count > 0 && new.events.iter().all(|e| e.kind != oe.kind) {
                let _ = writeln!(event_lines, "  {:<24}(gone, was {})", oe.kind, oe.count);
            }
        }
        if !event_lines.is_empty() {
            let _ = writeln!(out, "events:");
            out.push_str(&event_lines);
        }

        let mut run_lines = String::new();
        for nr in &new.native_runs {
            let old = self.native_runs.iter().find(|r| {
                r.backend == nr.backend && r.workload == nr.workload && r.threads == nr.threads
            });
            let cell = format!("t{}", nr.threads);
            match old {
                Some(or) => {
                    let dn = nr.ns_per_structure() - or.ns_per_structure();
                    if dn.abs() > f64::EPSILON {
                        let _ = writeln!(
                            run_lines,
                            "  {:<18}{:<12}{cell:<5}ns/struct {:.1} -> {:.1} ({:+.1})",
                            nr.backend,
                            nr.workload,
                            or.ns_per_structure(),
                            nr.ns_per_structure(),
                            dn
                        );
                    }
                }
                None => {
                    let _ = writeln!(
                        run_lines,
                        "  {:<18}{:<12}{cell:<5}(new) ns/struct {:.1}",
                        nr.backend,
                        nr.workload,
                        nr.ns_per_structure()
                    );
                }
            }
        }
        if !run_lines.is_empty() {
            let _ = writeln!(out, "native runs:");
            out.push_str(&run_lines);
        }

        match (&self.heap_profile, &new.heap_profile) {
            (old_hp, Some(nh)) => {
                let mut hp_lines = String::new();
                for nc in &nh.classes {
                    let oc = old_hp
                        .as_ref()
                        .and_then(|h| h.classes.iter().find(|c| c.class == nc.class));
                    let (om, ol, of) =
                        oc.map_or((0, 0, 0), |c| (c.mapped_bytes, c.live_bytes, c.fallback_bytes));
                    if (nc.mapped_bytes, nc.live_bytes, nc.fallback_bytes) != (om, ol, of) {
                        let _ = writeln!(
                            hp_lines,
                            "  class {:<4}mapped {}, live {}, fallback {}",
                            nc.class,
                            d(nc.mapped_bytes, om),
                            d(nc.live_bytes, ol),
                            d(nc.fallback_bytes, of)
                        );
                    }
                }
                let (ors, orb) =
                    old_hp.as_ref().map_or((0, 0), |h| (h.reclaimed_slabs, h.reclaimed_bytes));
                if (nh.reclaimed_slabs, nh.reclaimed_bytes) != (ors, orb) {
                    let _ = writeln!(
                        hp_lines,
                        "  reclaimed {} slabs, {} bytes",
                        d(nh.reclaimed_slabs, ors),
                        d(nh.reclaimed_bytes, orb)
                    );
                }
                // A section present on only the new side is a change in
                // itself: announce it even if every gauge is zero, so a
                // one-sided diff never reads as "no heap changes".
                if old_hp.is_none() {
                    let _ = writeln!(out, "heap profile: (new in new report)");
                    out.push_str(&hp_lines);
                } else if !hp_lines.is_empty() {
                    let _ = writeln!(out, "heap profile:");
                    out.push_str(&hp_lines);
                }
            }
            (Some(_), None) => {
                let _ = writeln!(out, "heap profile: (dropped in new report)");
            }
            (None, None) => {}
        }

        match (&self.pool_tune, &new.pool_tune) {
            (old_pt, Some(nt)) => {
                let mut pt_lines = String::new();
                for nf in &nt.families {
                    let of = old_pt
                        .as_ref()
                        .and_then(|t| t.families.iter().find(|f| f.family == nf.family));
                    match of {
                        Some(of) => {
                            if (of.default_fitness, of.tuned_fitness)
                                != (nf.default_fitness, nf.tuned_fitness)
                            {
                                let _ = writeln!(
                                    pt_lines,
                                    "  {:<12}default {}, tuned {} ({:+.1}% -> {:+.1}%)",
                                    nf.family,
                                    d(nf.default_fitness, of.default_fitness),
                                    d(nf.tuned_fitness, of.tuned_fitness),
                                    -of.improvement_pct(),
                                    -nf.improvement_pct()
                                );
                            }
                        }
                        None => {
                            let _ = writeln!(
                                pt_lines,
                                "  {:<12}(new) tuned fitness {} ({:+.1}%)",
                                nf.family,
                                nf.tuned_fitness,
                                -nf.improvement_pct()
                            );
                        }
                    }
                }
                if let Some(ot) = old_pt {
                    for of in &ot.families {
                        if nt.families.iter().all(|f| f.family != of.family) {
                            let _ = writeln!(pt_lines, "  {:<12}(gone)", of.family);
                        }
                    }
                }
                if !pt_lines.is_empty() {
                    let _ = writeln!(out, "pool tuning:");
                    out.push_str(&pt_lines);
                }
            }
            (Some(_), None) => {
                let _ = writeln!(out, "pool tuning: (dropped in new report)");
            }
            (None, None) => {}
        }

        if out.lines().count() == 1 {
            let _ = writeln!(out, "no counter changes");
        }
        out
    }
}

/// A 10-cell occupancy bar: `#` for live tenths, `.` for the rest.
fn occupancy_bar(occ: f64) -> String {
    let filled = (occ.clamp(0.0, 1.0) * 10.0).round() as usize;
    format!("[{}{}]", "#".repeat(filled), ".".repeat(10 - filled))
}

/// Render counts as a unicode sparkline (empty input gives an empty string).
pub(crate) fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    if max == 0 {
        return values.iter().map(|_| BARS[0]).collect();
    }
    values
        .iter()
        .map(|&v| {
            if v == 0 {
                BARS[0]
            } else {
                let idx = ((v as f64 / max as f64) * (BARS.len() - 1) as f64).ceil() as usize;
                BARS[idx.clamp(1, BARS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("test");
        r.pools.push(PoolSnapshot {
            name: "trees".into(),
            parked: 5,
            pool_hits: 90,
            fresh_allocs: 10,
            releases: 95,
            dropped: 0,
            failed_locks: 3,
            lock_acquisitions: 97,
        });
        r.events.push(EventCount { kind: "acquire_hit".into(), count: 90 });
        r.histograms.push(HistogramReport { name: "lat".into(), buckets: vec![0, 2, 5, 1] });
        r.sim_runs.push(SimRun {
            label: "amplify/t8".into(),
            metrics: RunMetrics {
                wall_ns: 2_000_000,
                busy_ns: 1_500_000,
                lock_wait_ns: 100_000,
                failed_locks: 7,
                migrations: 1,
                ctx_switches: 9,
                events: 40,
                cache_hits: 100,
                mem_misses: 10,
                coherence_misses: 2,
                model_counters: vec![("pool_hits".into(), 42)],
                sample_interval_ns: 0,
                timeline: Vec::new(),
            },
        });
        r.native_runs.push(NativeRun {
            backend: "amplify".into(),
            workload: "tree/d3".into(),
            threads: 4,
            elapsed_ns: 4_000_000,
            structures: 100_000,
            pool_hits: 99_996,
            fresh_allocs: 4,
            contention_events: 12,
        });
        r
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let json = r.to_json();
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), json, "serialization is stable");
        back.validate().unwrap();
    }

    #[test]
    fn schema_is_enforced() {
        let mut r = sample();
        r.schema = "telemetry-v0".into();
        assert!(r.validate().unwrap_err().contains("telemetry-v0"));
        let mut r = sample();
        r.events[0].kind = "not_a_kind".into();
        assert!(r.validate().is_err());
        let mut r = sample();
        r.histograms[0].buckets = vec![1; HISTOGRAM_BUCKETS + 1];
        assert!(r.validate().unwrap_err().contains("66 buckets"));
        r.histograms[0].buckets.pop();
        r.validate().unwrap();
    }

    #[test]
    fn retired_event_kinds_still_validate_but_are_no_longer_listed() {
        // A report written while the typed pools' events were recorded
        // lists all 14 kinds plus a histogram; one written while
        // `magazine_refill` existed lists that too.
        const OLD_KINDS: [&str; 14] = [
            "acquire_hit",
            "acquire_miss",
            "release",
            "drop",
            "magazine_flush",
            "epoch_invalidation",
            "shard_lock_contention",
            "depot_swap",
            "depot_park",
            "slab_carve",
            "fallback_alloc",
            "fault_injected",
            "remote_free",
            "class_refill",
        ];
        let mut old = Report::new("old");
        for (i, kind) in OLD_KINDS.iter().chain(["magazine_refill"].iter()).enumerate() {
            old.events.push(EventCount { kind: kind.to_string(), count: 10 + i as u64 });
        }
        old.histograms.push(HistogramReport {
            name: "pools.depot_swap_objects".into(),
            buckets: vec![0, 0, 3],
        });
        let back = Report::from_json(&old.to_json()).unwrap();
        back.validate().unwrap();
        let text = back.render();
        for kind in OLD_KINDS {
            assert!(text.contains(kind), "{kind} missing from:\n{text}");
        }
        assert!(text.contains("histogram pools.depot_swap_objects (n=3"), "{text}");
        // A fresh report lists exactly the live kinds, none retired.
        let fresh = Report::with_events("unit", |_| 0);
        let kinds: Vec<&str> = fresh.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["fallback_alloc", "fault_injected", "remote_free", "class_refill"]);
        assert!(kinds.iter().all(|k| !RETIRED_EVENT_KINDS.contains(k)));
        assert!(fresh.histograms.is_empty());
        fresh.validate().unwrap();
        // Diffed against the fresh report, a retired kind that counted
        // something is announced as gone, not silently dropped.
        let diff = back.diff(&fresh);
        assert!(diff.contains("acquire_hit") && diff.contains("(gone, was 10)"), "{diff}");
        assert!(diff.contains("remote_free") && diff.contains("-22"), "{diff}");
    }

    #[test]
    fn with_events_lists_every_live_kind_with_its_count() {
        let r = Report::with_events("unit", |k| k as u64 + 1);
        assert_eq!(r.schema, SCHEMA);
        assert_eq!(r.events.len(), EventKind::ALL.len());
        for (e, k) in r.events.iter().zip(EventKind::ALL) {
            assert_eq!((e.kind.as_str(), e.count), (k.name(), k as u64 + 1));
        }
        r.validate().unwrap();
    }

    #[test]
    fn render_mentions_the_interesting_numbers() {
        let text = sample().render();
        assert!(text.contains("trees"), "{text}");
        assert!(text.contains("90.0%"), "{text}");
        assert!(text.contains("contention hot spots"), "{text}");
        assert!(text.contains("acquire_hit"), "{text}");
        assert!(text.contains("amplify/t8"), "{text}");
        assert!(text.contains('█'), "{text}");
        assert!(text.contains("tree/d3"), "{text}");
        assert!(text.contains("40.0"), "{text}"); // ns per structure
    }

    #[test]
    fn native_run_derived_rates() {
        let run = sample().native_runs[0].clone();
        assert!((run.ns_per_structure() - 40.0).abs() < 1e-12);
        assert!(run.hit_rate() > 0.9999);
    }

    #[test]
    fn sparkline_shapes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        let s = sparkline(&[1, 8]);
        assert_eq!(s.chars().count(), 2);
        assert!(s.ends_with('█'));
    }

    #[test]
    fn rates() {
        let p = sample().pools[0].clone();
        assert!((p.hit_rate() - 0.9).abs() < 1e-12);
        assert!((p.contention_rate() - 0.03).abs() < 1e-12);
    }

    fn sample_heap_profile() -> HeapProfileSection {
        HeapProfileSection {
            schema: HEAP_PROFILE_SCHEMA.into(),
            sample_period: 64,
            classes: vec![
                HeapClassGauges {
                    class: 2,
                    block_bytes: 48,
                    mapped_bytes: 65536,
                    live_bytes: 48000,
                    peak_live_bytes: 50160,
                    parked_bytes: 960,
                    fallback_bytes: 0,
                },
                HeapClassGauges {
                    class: 5,
                    block_bytes: 128,
                    mapped_bytes: 131072,
                    live_bytes: 12800,
                    peak_live_bytes: 96000,
                    parked_bytes: 2560,
                    fallback_bytes: 128,
                },
            ],
            sites: vec![HeapSiteSample {
                class: 2,
                block_bytes: 48,
                tag: "tree-nodes".into(),
                samples: 17,
                est_bytes: 17 * 64 * 48,
            }],
            timeline: vec![
                HeapTimelinePoint { seq: 1, mapped_bytes: 65536, live_bytes: 9600 },
                HeapTimelinePoint { seq: 2, mapped_bytes: 196608, live_bytes: 60800 },
            ],
            reclaimed_slabs: 3,
            reclaimed_bytes: 3 * 65536,
        }
    }

    #[test]
    fn heap_profile_round_trips_and_validates() {
        let mut r = sample();
        r.heap_profile = Some(sample_heap_profile());
        r.validate().unwrap();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn reports_without_heap_profile_still_parse() {
        // Old emitters (and the generated C++ runtime) omit the field
        // entirely; absence must parse as None, not error.
        let r = sample();
        let json = r.to_json();
        assert!(!json.contains("heap_profile"), "None must be omitted, not null");
        let back = Report::from_json(&json).unwrap();
        assert_eq!(back.heap_profile, None);
    }

    #[test]
    fn heap_profile_without_reclaim_counters_parses_as_zero() {
        // Reports written before the reclaimer existed carry the same
        // heap-profile-v1 schema but no reclaimed_* fields: strip them
        // from the wire value and the section must parse with zeros.
        let Value::Object(fields) = sample_heap_profile().to_value() else {
            panic!("sections serialize as objects");
        };
        let old_wire = Value::Object(
            fields.into_iter().filter(|(k, _)| !k.starts_with("reclaimed_")).collect(),
        );
        let hp = HeapProfileSection::from_value(&old_wire).unwrap();
        assert_eq!(hp.reclaimed_slabs, 0);
        assert_eq!(hp.reclaimed_bytes, 0);
        assert_eq!(hp.classes, sample_heap_profile().classes);
    }

    #[test]
    fn heap_profile_schema_and_bounds_are_enforced() {
        let mut r = sample();
        let mut hp = sample_heap_profile();
        hp.schema = "heap-profile-v0".into();
        r.heap_profile = Some(hp);
        assert!(r.validate().unwrap_err().contains("heap-profile-v0"));

        let mut hp = sample_heap_profile();
        hp.classes[0].live_bytes = hp.classes[0].mapped_bytes + 1;
        r.heap_profile = Some(hp);
        assert!(r.validate().unwrap_err().contains("exceeds mapped"));
    }

    #[test]
    fn render_shows_the_heap_profile() {
        let mut r = sample();
        r.heap_profile = Some(sample_heap_profile());
        let text = r.render();
        assert!(text.contains("heap profile (heap-profile-v1, sample period 64)"), "{text}");
        assert!(text.contains("tree-nodes"), "{text}");
        assert!(text.contains("73.2%"), "{text}"); // 48000/65536
        assert!(text.contains("[#######...]"), "{text}"); // 0.732 -> 7 cells
        assert!(text.contains("live over time"), "{text}");
        assert!(text.contains("fragmentation:"), "{text}");
    }

    #[test]
    fn diff_reports_per_counter_deltas() {
        let old = {
            let mut r = sample();
            r.heap_profile = Some(sample_heap_profile());
            r
        };
        let new = {
            let mut r = old.clone();
            r.pools[0].pool_hits += 10;
            r.pools[0].fresh_allocs += 2;
            r.events[0].count = 40; // acquire_hit 90 -> 40
            r.native_runs[0].elapsed_ns = 5_000_000; // 40 -> 50 ns/struct
            let hp = r.heap_profile.as_mut().unwrap();
            hp.classes[1].live_bytes += 256;
            r
        };
        let text = old.diff(&new);
        assert!(text.contains("hits +10"), "{text}");
        assert!(text.contains("fresh +2"), "{text}");
        assert!(text.contains("acquire_hit"), "{text}");
        assert!(text.contains("-50"), "{text}");
        assert!(text.contains("40.0 -> 50.0 (+10.0)"), "{text}");
        assert!(text.contains("class 5"), "{text}");
        assert!(text.contains("live +256"), "{text}");
        assert!(!text.contains("class 2"), "unchanged class must not appear: {text}");
    }

    #[test]
    fn diff_matches_native_runs_by_thread_count() {
        // One backend/workload at 1 and 2 threads: each new cell is diffed
        // against the old cell of its own thread count, never the other.
        let cell = |threads: u32, elapsed_ns: u64| NativeRun {
            backend: "amplify".into(),
            workload: "tree/d1".into(),
            threads,
            elapsed_ns,
            structures: 100_000,
            pool_hits: 99_000,
            fresh_allocs: 1_000,
            contention_events: 0,
        };
        let mut old = Report::new("old");
        old.native_runs = vec![cell(1, 1_000_000), cell(2, 3_000_000)];
        let mut new = Report::new("new");
        new.native_runs = vec![cell(1, 2_000_000), cell(2, 4_000_000)];
        let text = old.diff(&new);
        let rows: Vec<&str> = text.lines().filter(|l| l.contains("ns/struct")).collect();
        assert_eq!(rows.len(), 2, "{text}");
        assert!(rows[0].contains("t1") && rows[0].contains("10.0 -> 20.0 (+10.0)"), "{text}");
        assert!(rows[1].contains("t2") && rows[1].contains("30.0 -> 40.0 (+10.0)"), "{text}");

        // A thread count only the new report has is a new cell.
        new.native_runs.push(cell(4, 5_000_000));
        let text = old.diff(&new);
        assert!(text.contains("t4   (new) ns/struct 50.0"), "{text}");
    }

    #[test]
    fn diff_of_identical_reports_is_quiet() {
        let r = sample();
        assert!(r.diff(&r.clone()).contains("no counter changes"));
    }

    #[test]
    fn diff_announces_one_sided_heap_profiles() {
        // Section present on exactly one side: both directions must say
        // so instead of silently skipping (or pretending quiet).
        let bare = sample();
        let profiled = {
            let mut r = sample();
            r.heap_profile = Some(sample_heap_profile());
            r
        };
        let appeared = bare.diff(&profiled);
        assert!(appeared.contains("heap profile: (new in new report)"), "{appeared}");
        assert!(!appeared.contains("no counter changes"), "{appeared}");
        let dropped = profiled.diff(&bare);
        assert!(dropped.contains("heap profile: (dropped in new report)"), "{dropped}");

        // Even a profile of all-zero gauges must announce its appearance.
        let empty_profiled = {
            let mut r = sample();
            r.heap_profile = Some(HeapProfileSection {
                schema: HEAP_PROFILE_SCHEMA.into(),
                sample_period: 0,
                classes: Vec::new(),
                sites: Vec::new(),
                timeline: Vec::new(),
                reclaimed_slabs: 0,
                reclaimed_bytes: 0,
            });
            r
        };
        let text = bare.diff(&empty_profiled);
        assert!(text.contains("heap profile: (new in new report)"), "{text}");
    }

    #[test]
    fn diff_and_render_track_reclaim_totals() {
        let old = {
            let mut r = sample();
            r.heap_profile = Some(sample_heap_profile());
            r
        };
        let new = {
            let mut r = old.clone();
            let hp = r.heap_profile.as_mut().unwrap();
            hp.reclaimed_slabs += 2;
            hp.reclaimed_bytes += 2 * 65536;
            r
        };
        let text = old.diff(&new);
        assert!(text.contains("reclaimed +2 slabs, +131072 bytes"), "{text}");
        assert!(old.diff(&old.clone()).contains("no counter changes"));

        let rendered = new.render();
        assert!(
            rendered.contains("reclaimed: 5 slabs / 327680 bytes returned to the OS"),
            "{rendered}"
        );
    }

    fn sample_pool_tune() -> PoolTuneSection {
        let default = TunedGenome { magazine_cap: 32, shards: 8 };
        let winner = TunedGenome { magazine_cap: 64, shards: 4 };
        PoolTuneSection {
            schema: POOL_TUNE_SCHEMA.into(),
            seed: 42,
            population: 16,
            families: vec![
                FamilyTuning {
                    family: "tree/d5".into(),
                    default_fitness: 20_000,
                    tuned_fitness: 15_000,
                    winner,
                    generations: vec![
                        GenerationEntry {
                            generation: 0,
                            best_fitness: 18_000,
                            median_fitness: 25_000,
                            best: default,
                        },
                        GenerationEntry {
                            generation: 1,
                            best_fitness: 15_000,
                            median_fitness: 19_000,
                            best: winner,
                        },
                    ],
                },
                FamilyTuning {
                    family: "tree/d1".into(),
                    default_fitness: 900,
                    tuned_fitness: 900,
                    winner: default,
                    generations: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn pool_tune_round_trips_and_validates() {
        let mut r = sample();
        r.pool_tune = Some(sample_pool_tune());
        r.validate().unwrap();
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.pool_tune.unwrap().improved_families(), 1);

        // Older pool-tune-v1 reports carry genes the tuner no longer
        // searches, `carve_batch`, `depot_gate` and `ship_batch`: they must
        // parse and be dropped.
        let old = r.to_json().replace(
            "\"shards\": 8\n",
            "\"shards\": 8,\n          \"carve_batch\": 64,\n          \"depot_gate\": 4,\n          \"ship_batch\": 32\n",
        );
        assert!(old.contains("\"carve_batch\": 64") && old.contains("\"ship_batch\": 32"), "{old}");
        assert_eq!(Report::from_json(&old).unwrap(), r);
    }

    #[test]
    fn reports_without_pool_tune_still_parse() {
        let json = sample().to_json();
        assert!(!json.contains("pool_tune"), "None must be omitted, not null");
        assert_eq!(Report::from_json(&json).unwrap().pool_tune, None);
    }

    #[test]
    fn pool_tune_schema_and_elitism_are_enforced() {
        let mut r = sample();
        let mut pt = sample_pool_tune();
        pt.schema = "pool-tune-v0".into();
        r.pool_tune = Some(pt);
        assert!(r.validate().unwrap_err().contains("pool-tune-v0"));

        let mut pt = sample_pool_tune();
        pt.families[0].tuned_fitness = 19_000; // worse than gen 1's best
        r.pool_tune = Some(pt);
        assert!(r.validate().unwrap_err().contains("worse than a logged generation"));
    }

    #[test]
    fn improvement_pct_is_signed_reduction() {
        let pt = sample_pool_tune();
        assert!((pt.families[0].improvement_pct() - 25.0).abs() < 1e-12);
        assert!(pt.families[0].improved());
        assert!(!pt.families[1].improved(), "a tie is not an improvement");
    }

    #[test]
    fn render_shows_the_tuning_section() {
        let mut r = sample();
        r.pool_tune = Some(sample_pool_tune());
        let text = r.render();
        assert!(text.contains("pool tuning (pool-tune-v1, seed 42, population 16)"), "{text}");
        assert!(text.contains("tree/d5"), "{text}");
        assert!(text.contains("-25.0%"), "{text}");
        assert!(text.contains("winning genomes (1/2 families improved)"), "{text}");
        assert!(text.contains("generation log tree/d5"), "{text}");
        assert!(text.contains("g0   best 18000        median 25000"), "{text}");
    }

    #[test]
    fn diff_tracks_tuning_fitness_and_drops() {
        let old = {
            let mut r = sample();
            r.pool_tune = Some(sample_pool_tune());
            r
        };
        let new = {
            let mut r = old.clone();
            let pt = r.pool_tune.as_mut().unwrap();
            pt.families[0].tuned_fitness = 12_000;
            pt.families[0].generations.clear(); // keep validate() happy
            pt.families[1].family = "bgw".into();
            r
        };
        let text = old.diff(&new);
        assert!(text.contains("pool tuning:"), "{text}");
        assert!(text.contains("tuned -3000"), "{text}");
        assert!(text.contains("bgw"), "{text}");
        assert!(text.contains("(new)"), "{text}");
        assert!(text.contains("tree/d1"), "{text}");
        assert!(text.contains("(gone)"), "{text}");

        let mut dropped = old.clone();
        dropped.pool_tune = None;
        assert!(old.diff(&dropped).contains("pool tuning: (dropped in new report)"));
    }

    #[test]
    fn tuning_fitness_blend_is_deterministic() {
        let p = sample().pools[0].clone();
        // 10 fresh * 100 + 3 failed * 50 + 97 acquisitions + 5 parked * 10
        assert_eq!(p.tuning_fitness(), 1000 + 150 + 97 + 50);
    }
}
