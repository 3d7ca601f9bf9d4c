//! The offline half of the automatic tuning loop: a seeded evolutionary
//! search over pool configurations, evaluated by replaying recorded
//! workload traces and scoring the resulting telemetry counters.
//!
//! The genome is the typed pool's layout — magazine capacity and shard
//! count. Fitness is a pure counter blend —
//! [`PoolSnapshot::tuning_fitness`] (fresh allocations, lock traffic,
//! parked waste) plus the depot churn the snapshot can't see (magazine
//! parks and swaps: the flush/refill rate, see `replay_fitness`) —
//! never wall-clock, so a given `(seed, traces)` pair produces the same
//! verdict on every host. That is what lets CI *assert* that evolved
//! configs beat the hand-tuned defaults instead of merely hoping the
//! timing noise cooperates.
//!
//! Trace replay is single-threaded but **interleaved**: one op per thread
//! trace per round, round-robin. That collapses the multi-threaded
//! cadence (the combined live set, the flush/refill churn it causes) onto
//! one OS thread deterministically, where a real concurrent replay would
//! let the scheduler pick which shard races happen.

use pools::PoolBox;
use telemetry::report::{
    FamilyTuning, GenerationEntry, PoolSnapshot, PoolTuneSection, TunedGenome, POOL_TUNE_SCHEMA,
};
use workloads::trace::{Chunk, Trace, TraceOp};

/// SplitMix64: the tuner's only randomness source. Seeded, splittable by
/// XOR-ing in a stream label, and wall-clock free.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// True with probability `num/den`.
    pub(crate) fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Legal knob ranges the search stays inside (the same ranges the
/// differential proptest covers).
pub(crate) const MAGAZINE_CAP_RANGE: (u32, u32) = (1, 512);
pub(crate) const SHARDS_RANGE: (u32, u32) = (1, 16);

/// One candidate pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Genome {
    pub(crate) magazine_cap: u32,
    pub(crate) shards: u32,
}

impl Genome {
    /// The hand-tuned defaults the runtime ships with: the `amplify`
    /// backend's layout (4 shards, [`pools::DEFAULT_MAGAZINE_CAP`]
    /// magazines).
    pub(crate) fn baseline() -> Genome {
        Genome { magazine_cap: pools::DEFAULT_MAGAZINE_CAP as u32, shards: 4 }
    }

    /// Clamp every field into its legal range.
    pub(crate) fn clamped(self) -> Genome {
        Genome {
            magazine_cap: self.magazine_cap.clamp(MAGAZINE_CAP_RANGE.0, MAGAZINE_CAP_RANGE.1),
            shards: self.shards.clamp(SHARDS_RANGE.0, SHARDS_RANGE.1),
        }
    }

    /// A uniformly random legal genome.
    pub(crate) fn random(rng: &mut SplitMix64) -> Genome {
        let draw = |rng: &mut SplitMix64, (lo, hi): (u32, u32)| {
            lo + rng.below((hi - lo + 1) as u64) as u32
        };
        Genome { magazine_cap: draw(rng, MAGAZINE_CAP_RANGE), shards: draw(rng, SHARDS_RANGE) }
    }

    /// Uniform crossover: each field from one parent or the other.
    pub(crate) fn crossover(a: &Genome, b: &Genome, rng: &mut SplitMix64) -> Genome {
        let pick = |rng: &mut SplitMix64, x, y| if rng.chance(1, 2) { x } else { y };
        Genome {
            magazine_cap: pick(rng, a.magazine_cap, b.magazine_cap),
            shards: pick(rng, a.shards, b.shards),
        }
    }

    /// Multiplicative mutation: each field independently doubles or
    /// halves with probability 1/3 (the knobs are all power-of-two-ish
    /// scales, so ×2 steps cover the range in a few generations).
    pub(crate) fn mutated(mut self, rng: &mut SplitMix64) -> Genome {
        let mut step = |v: &mut u32| {
            if rng.chance(1, 3) {
                *v = if rng.chance(1, 2) { v.saturating_mul(2) } else { (*v / 2).max(1) };
            }
        };
        step(&mut self.magazine_cap);
        step(&mut self.shards);
        self.clamped()
    }

    /// How far a genome sits from the baseline (sum of absolute field
    /// deltas). Used as a deterministic tie-break: among equally fit
    /// genomes, prefer the least surprising one, so knobs the trace
    /// replay is flat in stay at their defaults instead of drifting.
    pub(crate) fn distance_from_baseline(&self) -> u64 {
        let b = Genome::baseline();
        let d = |x: u32, y: u32| x.abs_diff(y) as u64;
        d(self.magazine_cap, b.magazine_cap) + d(self.shards, b.shards)
    }

    /// The pool this genome describes, over trace [`Chunk`]s.
    pub(crate) fn build_pool(&self) -> pools::StructurePool<Chunk> {
        pools::StructurePool::new_sharded_with_magazines(
            self.shards as usize,
            pools::PoolConfig::default(),
            self.magazine_cap as usize,
        )
    }

    /// The wire form for `pool-tune-v1` reports.
    pub(crate) fn to_wire(self) -> TunedGenome {
        TunedGenome { magazine_cap: self.magazine_cap, shards: self.shards }
    }
}

/// Replay `traces` against a pool built from `genome` — interleaved
/// round-robin on the calling thread (see the module docs) — and return
/// the configuration's fitness (lower is better).
///
/// # Panics
/// Panics if a trace is malformed (frees a dead handle).
pub(crate) fn evaluate(genome: &Genome, traces: &[Trace]) -> u64 {
    let pool = genome.build_pool();
    let mut live: Vec<Vec<Option<PoolBox<Chunk>>>> = traces
        .iter()
        .map(|t| {
            let slots = t
                .ops
                .iter()
                .map(|op| {
                    let (TraceOp::Alloc { id, .. } | TraceOp::Free { id }) = op;
                    id + 1
                })
                .max()
                .unwrap_or(0);
            (0..slots).map(|_| None).collect()
        })
        .collect();
    let mut cursors = vec![0usize; traces.len()];
    let mut remaining = traces.iter().map(|t| t.ops.len()).sum::<usize>();
    while remaining > 0 {
        for (t, trace) in traces.iter().enumerate() {
            let Some(&op) = trace.ops.get(cursors[t]) else { continue };
            cursors[t] += 1;
            remaining -= 1;
            match op {
                TraceOp::Alloc { id, size } => {
                    let prev = live[t][id as usize].replace(pool.alloc(&size));
                    assert!(prev.is_none(), "trace {t}: alloc of live handle {id}");
                }
                TraceOp::Free { id } => {
                    let obj = live[t][id as usize].take().expect("trace frees a dead handle");
                    pool.free(obj);
                }
            }
        }
    }
    let s = pool.stats();
    let snapshot = PoolSnapshot {
        name: "tuned".to_string(),
        parked: pool.len() as u64,
        pool_hits: s.pool_hits(),
        fresh_allocs: s.fresh_allocs(),
        releases: s.releases(),
        dropped: s.dropped(),
        failed_locks: s.failed_locks(),
        lock_acquisitions: s.lock_acquisitions(),
    };
    replay_fitness(&snapshot, s.depot_swaps(), s.depot_parks())
}

/// Weight of one depot round-trip: a magazine park or swap is one CAS
/// plus the coherence traffic of handing a whole magazine across the
/// cache hierarchy. This is the flush/refill-rate term of the fitness —
/// an undersized magazine shows up here long before it shows up in
/// `fresh_allocs`.
pub(crate) const DEPOT_CHURN_WEIGHT: u64 = 20;

/// The replay's full fitness (lower is better): the snapshot's counter
/// blend plus the depot-level churn counters a [`PoolSnapshot`] does not
/// carry.
pub(crate) fn replay_fitness(snapshot: &PoolSnapshot, depot_swaps: u64, depot_parks: u64) -> u64 {
    snapshot
        .tuning_fitness()
        .saturating_add((depot_swaps + depot_parks).saturating_mul(DEPOT_CHURN_WEIGHT))
}

/// Search-budget knobs for one `evolve_family` run.
#[derive(Debug, Clone, Copy)]
pub struct TunerConfig {
    pub(crate) seed: u64,
    pub population: usize,
    pub generations: u32,
}

impl TunerConfig {
    /// The default budget the `pool_tune` bin runs with.
    pub fn standard(seed: u64) -> Self {
        TunerConfig { seed, population: 16, generations: 10 }
    }

    /// The CI smoke budget: smaller, still enough generations for the
    /// ×2-step mutations to reach the winning capacities.
    pub fn smoke(seed: u64) -> Self {
        TunerConfig { seed, population: 8, generations: 6 }
    }
}

/// FNV-1a over the family label: gives each family its own deterministic
/// random stream under one user-facing seed.
fn family_stream(seed: u64, family: &str) -> u64 {
    let h = family
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
    seed ^ h
}

/// Evolve a pool configuration for one workload family: μ+λ with elitism
/// (the two best individuals survive verbatim), tournament selection from
/// the fitter half, uniform crossover and multiplicative mutation. The
/// baseline genome is seeded into generation zero, so the winner can
/// never be *worse* than the shipped defaults — only equal or better.
pub(crate) fn evolve_family(family: &str, traces: &[Trace], cfg: &TunerConfig) -> FamilyTuning {
    const ELITES: usize = 2;
    let population = cfg.population.max(ELITES + 1);
    let mut rng = SplitMix64::new(family_stream(cfg.seed, family));
    let default_fitness = evaluate(&Genome::baseline(), traces);

    let mut pop: Vec<Genome> = Vec::with_capacity(population);
    pop.push(Genome::baseline());
    while pop.len() < population {
        pop.push(Genome::random(&mut rng));
    }

    let mut log: Vec<GenerationEntry> = Vec::with_capacity(cfg.generations as usize);
    let mut scored: Vec<(u64, Genome)> = Vec::new();
    for generation in 0..cfg.generations.max(1) {
        scored = pop.iter().map(|g| (evaluate(g, traces), *g)).collect();
        // Deterministic order: fitness, then distance from the baseline,
        // then the field tuple — no dependence on Vec layout or hashing.
        scored.sort_by_key(|(f, g)| (*f, g.distance_from_baseline(), *g));
        log.push(GenerationEntry {
            generation,
            best_fitness: scored[0].0,
            median_fitness: scored[scored.len() / 2].0,
            best: scored[0].1.to_wire(),
        });
        if generation + 1 == cfg.generations.max(1) {
            break;
        }
        let mut next: Vec<Genome> = scored.iter().take(ELITES).map(|(_, g)| *g).collect();
        let parents = &scored[..population.div_ceil(2)];
        while next.len() < population {
            let pick = |rng: &mut SplitMix64| {
                let a = rng.below(parents.len() as u64) as usize;
                let b = rng.below(parents.len() as u64) as usize;
                parents[a.min(b)].1 // lower index = fitter (tournament of 2)
            };
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            next.push(Genome::crossover(&a, &b, &mut rng).mutated(&mut rng));
        }
        pop = next;
    }

    let (tuned_fitness, winner) = scored[0];
    FamilyTuning {
        family: family.to_string(),
        default_fitness,
        tuned_fitness,
        winner: winner.to_wire(),
        generations: log,
    }
}

/// Evolve every `(family, traces)` pair under one seed and assemble the
/// `pool-tune-v1` report section.
pub fn tune_families(families: &[(String, Vec<Trace>)], cfg: &TunerConfig) -> PoolTuneSection {
    PoolTuneSection {
        schema: POOL_TUNE_SCHEMA.to_string(),
        seed: cfg.seed,
        population: cfg.population as u32,
        families: families.iter().map(|(name, traces)| evolve_family(name, traces, cfg)).collect(),
    }
}

/// Render a section as `BENCH_tuning.json`: the `pool-tune-v1` wire form
/// with the tuned-vs-default delta spelled out per family
/// (`improvement_pct`, `improved`) so the perf trajectory is greppable
/// without recomputing fitness ratios.
pub fn bench_tuning_json(section: &PoolTuneSection) -> String {
    use serde::{Serialize as _, Value};
    let mut v = section.to_value();
    if let Value::Object(fields) = &mut v {
        if let Some((_, Value::Array(fams))) = fields.iter_mut().find(|(k, _)| k == "families") {
            for (fam, f) in fams.iter_mut().zip(&section.families) {
                if let Value::Object(ff) = fam {
                    let pct = (f.improvement_pct() * 10.0).round() / 10.0;
                    ff.push(("improvement_pct".to_string(), Value::Float(pct)));
                    ff.push(("improved".to_string(), Value::Bool(f.improved())));
                }
            }
        }
    }
    let mut s = serde_json::to_string_pretty(&v).expect("tuning json");
    s.push('\n');
    s
}

/// The standard tuning corpus: the paper's three tree depths at node
/// granularity (each tree node is one pool object, as in the generated
/// C++ runtime), four threads' traces each. Depth 1's combined live set
/// fits any magazine; depths 3 and 5 overflow the default capacity when
/// interleaved, which is exactly the headroom the search exploits.
pub fn standard_families(iterations: u32) -> Vec<(String, Vec<Trace>)> {
    [1u32, 3, 5]
        .iter()
        .map(|&depth| {
            let traces: Vec<Trace> = (0..4)
                .map(|_| Trace::tree(depth, iterations, workloads::tree::NODE_BYTES))
                .collect();
            (format!("tree/d{depth}"), traces)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spread() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<u64> = xs.iter().copied().collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn random_and_mutated_genomes_stay_legal() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..200 {
            let g = Genome::random(&mut rng).mutated(&mut rng);
            assert!((MAGAZINE_CAP_RANGE.0..=MAGAZINE_CAP_RANGE.1).contains(&g.magazine_cap));
            assert!((SHARDS_RANGE.0..=SHARDS_RANGE.1).contains(&g.shards));
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let traces: Vec<Trace> = (0..4).map(|_| Trace::tree(3, 10, 20)).collect();
        let g = Genome::baseline();
        assert_eq!(evaluate(&g, &traces), evaluate(&g, &traces));
    }

    #[test]
    fn bigger_magazines_win_on_overflowing_live_sets() {
        // Four interleaved depth-5 trees keep 252 objects live; a
        // 32-object magazine churns flushes and refills, a 512-object one
        // holds the whole set after warm-up.
        let traces: Vec<Trace> = (0..4).map(|_| Trace::tree(5, 20, 20)).collect();
        let small = evaluate(&Genome { magazine_cap: 32, ..Genome::baseline() }, &traces);
        let big = evaluate(&Genome { magazine_cap: 512, ..Genome::baseline() }, &traces);
        assert!(big < small, "cap 512 fitness {big} must beat cap 32 fitness {small}");
    }

    #[test]
    fn evolution_never_loses_to_the_seeded_baseline() {
        let families = standard_families(6);
        let cfg = TunerConfig { seed: 3, population: 6, generations: 3 };
        for (name, traces) in &families {
            let outcome = evolve_family(name, traces, &cfg);
            assert!(
                outcome.tuned_fitness <= outcome.default_fitness,
                "{name}: elitism keeps the baseline in play"
            );
            assert_eq!(outcome.generations.len(), 3);
            let bests: Vec<u64> = outcome.generations.iter().map(|g| g.best_fitness).collect();
            assert!(bests.windows(2).all(|w| w[1] <= w[0]), "{name}: best is monotone: {bests:?}");
        }
    }

    #[test]
    fn smoke_budget_beats_defaults_on_two_families() {
        // The exact assertion the CI pool-tune job makes, at test scale.
        let section = tune_families(&standard_families(12), &TunerConfig::smoke(42));
        assert!(
            section.improved_families() >= 2,
            "expected >= 2 improved families, got {} of {}",
            section.improved_families(),
            section.families.len()
        );
        // And it validates as a report section end to end.
        let mut report = telemetry::Report::new("tuner-test");
        report.pool_tune = Some(section);
        report.validate().expect("section validates");
        let back = telemetry::Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
    }

    #[test]
    fn tuning_is_seed_deterministic() {
        let families = standard_families(6);
        let cfg = TunerConfig { seed: 9, population: 6, generations: 3 };
        let a = tune_families(&families, &cfg);
        let b = tune_families(&families, &cfg);
        assert_eq!(a, b, "same seed, same traces, same verdict");
    }
}
