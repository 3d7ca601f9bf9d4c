//! Depot correctness under *injected* fault schedules (`fault-inject`).
//!
//! The plain `depot_stress` suite relies on the scheduler to produce the
//! interesting interleavings; here the fault layer forces them: every depot
//! swap risks a forced CAS retry (the ABA window) and an epoch bump landing
//! exactly between the pop and the validate — the trim-vs-swap race a
//! version-tagged Treiber stack must win — while allocation failures check
//! the graceful-degradation ladder end to end.
//!
//! Lives in its own test binary: the fault configuration is process-global,
//! and cargo runs test binaries one at a time, so schedules installed here
//! cannot leak into the rest of the suite. Within the binary a mutex
//! serializes the tests.

#![cfg(feature = "fault-inject")]

use pools::fault::{self, FaultConfig, FaultCounts};
use pools::{PoolBox, PoolConfig, ShardedPool};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The fault configuration is global: one test drives it at a time.
static FAULTS: Mutex<()> = Mutex::new(());

/// An injected epoch bump between `pop_full` and the node-epoch validate —
/// plus forced CAS retries and delayed flushes, under concurrent trims —
/// must never let a trimmed (stale) magazine serve objects, and must never
/// hand the same object to two owners.
#[test]
fn injected_epoch_bump_between_pop_and_validate_cannot_double_hand_out() {
    let _serialize = FAULTS.lock().unwrap();
    const THREADS: usize = 4;
    const CYCLES: usize = 20;
    const BURST: usize = 40;
    const CAP: usize = 8;
    let pool: Arc<ShardedPool<u64>> =
        Arc::new(ShardedPool::with_magazines(2, PoolConfig::default(), CAP));

    // Forced window, before any thread races: park a full magazine on the
    // depot, empty the live one, then acquire with both depot faults
    // certain. The acquire misses the magazine, pops the parked node (and
    // is forced to retry the pop once), and the epoch moves between the
    // pop and the validate — whatever the scheduler does later.
    let forced = {
        let p = Arc::clone(&pool);
        std::thread::spawn(move || {
            fault::set_thread_ordinal(THREADS as u64);
            for v in 0..=CAP as u64 {
                p.release(PoolBox::new(u64::MAX - 1 - v)); // the ninth parks the first eight
            }
            let last = p.acquire(|| unreachable!("the magazine holds one object"));
            assert_eq!(p.depot_parked(), CAP, "a full magazine waits on the depot");
            fault::install(FaultConfig { depot_retry: 1.0, epoch_bump: 1.0, ..FaultConfig::off() });
            let swapped = p.acquire(|| unreachable!("the depot holds a full magazine"));
            let counts = fault::injected_counts();
            fault::clear();
            assert_eq!(p.depot_parked(), 0, "the swap took the parked magazine");
            p.release(last);
            p.release(swapped);
            counts
        })
        .join()
        .unwrap()
    };
    assert_eq!(forced.depot_retry, 1, "the forced acquire retried its pop");
    assert_eq!(forced.epoch_bump, 1, "the forced acquire hit the pop/validate window");

    fault::install(FaultConfig {
        seed: 0xDEAD_BEEF,
        fail_fresh: 0.0,
        fail_carve: 0.0,
        depot_retry: 0.3,
        epoch_bump: 0.3,
        flush_delay: 0.1,
    });
    let barrier = Arc::new(Barrier::new(THREADS));
    let stop = Arc::new(AtomicBool::new(false));
    let trimmer = {
        let p = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                p.trim();
                std::thread::yield_now();
            }
        })
    };
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let p = Arc::clone(&pool);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                fault::set_thread_ordinal(t as u64);
                b.wait();
                // Disjoint value ranges: every fresh object is globally
                // unique, so a double handout is detectable by value.
                let mut counter = (t as u64) << 32;
                for _ in 0..CYCLES {
                    let mut held: Vec<PoolBox<u64>> = Vec::with_capacity(BURST);
                    for _ in 0..BURST {
                        counter += 1;
                        let v = counter;
                        held.push(p.acquire(move || v));
                    }
                    let distinct: HashSet<u64> = held.iter().map(|b| **b).collect();
                    assert_eq!(distinct.len(), held.len(), "object handed out twice in a burst");
                    for obj in held {
                        p.release(obj);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    trimmer.join().unwrap();

    // `install` zeroed the totals, so add the forced phase back in.
    let threaded = fault::injected_counts();
    let injected = FaultCounts {
        epoch_bump: forced.epoch_bump + threaded.epoch_bump,
        depot_retry: forced.depot_retry + threaded.depot_retry,
        ..threaded
    };
    assert!(injected.epoch_bump > 0, "the schedule must hit the pop/validate window");
    assert!(injected.depot_retry > 0, "the schedule must force CAS retries");
    fault::clear();

    // End drain, fault-free: if a trimmed magazine was ever served after
    // its epoch moved, or an object reached two owners, the same value
    // comes back twice here (a double release makes both copies parkable).
    let parked = pool.len();
    let mut drained: Vec<PoolBox<u64>> = Vec::with_capacity(parked);
    for _ in 0..parked {
        drained.push(pool.acquire(|| u64::MAX));
    }
    let values: HashSet<u64> = drained.iter().map(|b| **b).collect();
    assert_eq!(values.len(), parked, "an object was handed out twice");
    assert!(!values.contains(&u64::MAX), "drain must be served entirely from caches");
}

/// Injected allocation failures must degrade to a fresh slot — counted as
/// fresh + fallback, never a panic — and the `hits + fresh == allocs`
/// identity must survive any schedule. A failed carve under a fresh slot is
/// the size-class engine's own fallback, which `slab_arena` checks.
#[test]
fn injected_allocation_failure_degrades_to_heap_without_panics() {
    let _serialize = FAULTS.lock().unwrap();
    fault::reset_counts();
    fault::install(FaultConfig::uniform(42, 0.15));
    fault::set_thread_ordinal(0);
    let pool: ShardedPool<u64> = ShardedPool::with_magazines(2, PoolConfig::default(), 8);
    let mut held = Vec::new();
    for cycle in 0..30u64 {
        for i in 0..40u64 {
            held.push(pool.acquire(move || cycle * 100 + i));
        }
        for obj in held.drain(..) {
            pool.release(obj);
        }
    }
    let stats = pool.stats();
    let injected = fault::injected_counts();
    fault::clear();
    assert_eq!(stats.total_allocs(), 30 * 40, "hits + fresh == allocs under faults");
    assert!(stats.fallback_allocs() > 0, "the schedule must inject some failures");
    assert!(stats.fallback_allocs() <= stats.fresh_allocs(), "fallbacks are a subset of fresh");
    assert_eq!(
        stats.fallback_allocs(),
        injected.fail_fresh,
        "every injected alloc failure must surface as exactly one fallback"
    );
}
