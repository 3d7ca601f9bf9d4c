//! Cross-backend differential property: any well-formed trace, replayed
//! through every registered backend, produces identical counts and
//! checksums, leaves no live bytes behind, and (for pooled strategies)
//! accounts every allocation as either a hit or a fresh build.

use mem_api::{BackendRegistry, PooledBackend};
use pools::{PoolConfig, StructurePool};
use proptest::prelude::*;
use std::sync::Mutex;
use workloads::exec::run_workload;
use workloads::trace::{Chunk, Trace, TraceOp, TraceWorkload};

/// Fault-injection state is process-global, so every test in this binary
/// serializes on this lock: the fault-free differential property must not
/// observe a schedule installed by the determinism test below.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Random well-formed traces: interleaved alloc/free bursts over a small
/// slot space, closed out so every handle dies before the trace ends.
fn trace_strategy() -> impl Strategy<Value = Trace> {
    // Flat word stream decoded into (allocs, frees, size) bursts — the
    // vendored proptest subset has no tuple strategies.
    proptest::collection::vec(0u32..4096, 3..36).prop_map(|words| {
        let mut ops = Vec::new();
        let mut live: Vec<u32> = Vec::new();
        let mut next_id = 0u32;
        for chunk in words.chunks(3) {
            let allocs = chunk[0] % 7 + 1;
            let frees = chunk.get(1).copied().unwrap_or(1) % 11 + 1;
            let size = chunk.get(2).copied().unwrap_or(64) % 120 + 8;
            for _ in 0..allocs {
                ops.push(TraceOp::Alloc { id: next_id, size });
                live.push(next_id);
                next_id += 1;
            }
            for _ in 0..frees {
                if let Some(id) = live.pop() {
                    ops.push(TraceOp::Free { id });
                }
            }
        }
        while let Some(id) = live.pop() {
            ops.push(TraceOp::Free { id });
        }
        Trace { ops }
    })
}

/// Legal tuning genomes — the offline tuner's full search space (magazine
/// caps 1..=512, shards 1..=16, depot gates 1..=8, carve batches
/// 2..=1024), decoded from a flat word stream like [`trace_strategy`].
fn genome_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
    proptest::collection::vec(0u32..65536, 3..4).prop_map(|w| {
        let cap = w[0] as usize % 512 + 1;
        let shards = w[1] as usize % 16 + 1;
        let carve = w[2] as usize % 1023 + 2;
        (cap, shards, carve)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend agrees on every trace.
    #[test]
    fn all_backends_agree_on_any_trace(traces in proptest::collection::vec(trace_strategy(), 1..4)) {
        let _g = fault_lock();
        for t in &traces {
            prop_assert!(t.validate().is_ok());
        }
        let workload = TraceWorkload::new(&traces);
        let registry: BackendRegistry<Chunk> = BackendRegistry::standard();
        let expected_allocs: u64 = traces.iter().map(|t| t.alloc_count() as u64).sum();

        let reference = run_workload(&*registry.build("solaris-default").unwrap(), &workload);
        prop_assert_eq!(reference.stats.allocs(), expected_allocs);

        for name in registry.names() {
            let backend = registry.build(name).unwrap();
            let r = run_workload(&*backend, &workload);
            // Identical traffic volume on every strategy.
            prop_assert_eq!(r.stats.allocs(), expected_allocs, "{}", name);
            prop_assert_eq!(r.stats.allocs(), r.stats.frees(), "{}", name);
            // Identical results: same per-thread checksums as the baseline.
            prop_assert_eq!(&r.checksums, &reference.checksums, "{}", name);
            // Balanced runs leave nothing behind.
            prop_assert_eq!(r.stats.live_bytes(), 0, "{}", name);
            // Hit/fresh accounting covers every allocation for the pooled
            // strategies (malloc backends report everything as fresh).
            prop_assert_eq!(
                r.stats.pool_hits() + r.stats.fresh_allocs(),
                r.stats.allocs(),
                "{}", name
            );
        }
    }

    /// Any legal genome preserves the differential invariant: a pool
    /// built from arbitrary tuned parameters replays any trace with the
    /// same checksums as the reference backend, balanced alloc/free
    /// accounting, no live bytes left behind, and every allocation
    /// accounted as a hit or a fresh build. Tuning may move the
    /// performance envelope, never the results.
    #[test]
    fn any_legal_genome_preserves_the_differential_invariant(
        traces in proptest::collection::vec(trace_strategy(), 1..3),
        genome in genome_strategy(),
    ) {
        let _g = fault_lock();
        let (cap, shards, carve) = genome;
        let workload = TraceWorkload::new(&traces);
        let registry: BackendRegistry<Chunk> = BackendRegistry::standard();
        let reference = run_workload(&*registry.build("solaris-default").unwrap(), &workload);

        let config = PoolConfig::default().with_tuning(carve);
        let pool: StructurePool<Chunk> =
            StructurePool::new_sharded_with_magazines(shards, config, cap);
        let backend = PooledBackend::from_pool("tuned-genome", pool);
        let r = run_workload(&backend, &workload);

        let expected_allocs: u64 = traces.iter().map(|t| t.alloc_count() as u64).sum();
        prop_assert_eq!(r.stats.allocs(), expected_allocs, "cap {} shards {}", cap, shards);
        prop_assert_eq!(r.stats.allocs(), r.stats.frees());
        prop_assert_eq!(&r.checksums, &reference.checksums, "cap {} shards {}", cap, shards);
        prop_assert_eq!(r.stats.live_bytes(), 0);
        prop_assert_eq!(r.stats.pool_hits() + r.stats.fresh_allocs(), r.stats.allocs());
    }
}

/// The defaults-equivalence half of the tuning contract: a pool tuned
/// with the *explicit* default knob (the derived carve batch) must
/// reproduce the plainly-constructed pool's statistics bit for bit on the
/// same deterministic trace — the runtime
/// parameterization changed where the constants live, not what they do.
#[test]
fn explicitly_tuned_defaults_match_the_standard_constructor_bit_for_bit() {
    let _g = fault_lock();
    let mut ops = Vec::new();
    for burst in 0..40u32 {
        for id in 0..12 {
            ops.push(TraceOp::Alloc { id: burst * 12 + id, size: 48 + (id % 5) * 16 });
        }
        for id in (0..12).rev() {
            ops.push(TraceOp::Free { id: burst * 12 + id });
        }
    }
    let trace = Trace { ops };
    trace.validate().expect("well-formed trace");
    let traces = [trace];
    let workload = TraceWorkload::new(&traces);

    let run = |config: PoolConfig| {
        let pool: StructurePool<Chunk> =
            StructurePool::new_sharded_with_magazines(4, config, pools::DEFAULT_MAGAZINE_CAP);
        let backend = PooledBackend::from_pool("defaults-equiv", pool);
        let r = run_workload(&backend, &workload);
        (backend.pool().stats(), r.checksums.clone())
    };

    let (plain_stats, plain_sums) = run(PoolConfig::default());
    // `with_tuning(0)` spells out the default: a carve batch derived from
    // the magazine cap exactly as the untuned pool derives it.
    let (tuned_stats, tuned_sums) = run(PoolConfig::default().with_tuning(0));

    assert_eq!(plain_stats, tuned_stats, "explicit defaults changed pool behaviour");
    assert_eq!(plain_sums, tuned_sums);
    assert_eq!(
        plain_stats.pool_hits() + plain_stats.fresh_allocs(),
        480,
        "hit/fresh accounting must cover every allocation: {plain_stats:?}"
    );
}

// Under `fault-inject`, replaying the same trace twice with the same seed
// must be *bitwise* reproducible: identical per-thread checksums (the
// heap fallback hands back indistinguishable structures) and an identical
// number of injected allocation failures per backend. The fault-free run
// pins the checksums themselves: injection degrades the allocator, never
// the result.
#[cfg(feature = "fault-inject")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_fault_schedule_replays_identically(
        traces in proptest::collection::vec(trace_strategy(), 1..3)
    ) {
        use pools::fault::{self, FaultConfig};

        let _g = fault_lock();
        let workload = TraceWorkload::new(&traces);
        let registry: BackendRegistry<Chunk> = BackendRegistry::standard();
        for name in registry.names() {
            fault::clear();
            let clean = run_workload(&*registry.build(name).unwrap(), &workload);

            fault::install(FaultConfig::uniform(0xD1FF_5EED, 0.1));
            let r1 = run_workload(&*registry.build(name).unwrap(), &workload);
            let r2 = run_workload(&*registry.build(name).unwrap(), &workload);
            fault::clear();

            // Same seed ⇒ byte-identical checksums and the same number of
            // injected allocation failures (site 0 draws once per acquire
            // *entry*, so the count is interleaving-independent).
            prop_assert_eq!(&r1.checksums, &r2.checksums, "{}", name);
            prop_assert_eq!(
                r1.stats.fallback_allocs(),
                r2.stats.fallback_allocs(),
                "{}", name
            );
            // Degradation is invisible in the results: the faulted runs
            // produce exactly the fault-free checksums.
            prop_assert_eq!(&r1.checksums, &clean.checksums, "{}", name);
            // And the runs stay balanced — no leak on the fallback path.
            prop_assert_eq!(r1.stats.allocs(), r1.stats.frees(), "{}", name);
            prop_assert_eq!(r1.stats.live_bytes(), 0, "{}", name);
        }
    }
}
