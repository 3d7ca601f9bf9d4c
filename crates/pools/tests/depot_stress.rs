//! Depot correctness under contention: many threads cycling their
//! magazines through empty → depot-swap → slab-carve transitions, with
//! barrier-phased quiescent points where the conservation invariant
//!
//! `magazine_parked + depot_parked == fresh_allocs`
//!
//! must hold exactly (uncapped pool: nothing is ever dropped), and an end
//! drain that proves no object was ever handed out twice.

use pools::{PoolBox, PoolConfig, ShardedPool};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

/// Acquire-burst / release-burst cycles across threads. Each burst spans
/// several magazines (cap 8, burst 50), so every cycle exercises depot
/// parks on the release side and depot swaps on the acquire side.
#[test]
fn conservation_holds_at_every_quiescent_point() {
    const THREADS: usize = 8;
    const CYCLES: usize = 30;
    const BURST: usize = 50;
    let pool: Arc<ShardedPool<u64>> =
        Arc::new(ShardedPool::with_magazines(4, PoolConfig::default(), 8));
    let barrier = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let p = Arc::clone(&pool);
            let b = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Disjoint value ranges per thread: every fresh object is
                // globally unique, so duplicates are detectable later.
                let mut counter = (t as u64) << 32;
                for _ in 0..CYCLES {
                    b.wait(); // phase 1: churn
                    let mut held: Vec<PoolBox<u64>> = Vec::with_capacity(BURST);
                    for _ in 0..BURST {
                        counter += 1;
                        let v = counter;
                        held.push(p.acquire(move || v));
                    }
                    for obj in held.drain(..) {
                        p.release(obj);
                    }
                    b.wait(); // phase 2: quiescent, main checks conservation
                    b.wait(); // phase 3: released for the next cycle
                }
            })
        })
        .collect();

    for _ in 0..CYCLES {
        barrier.wait(); // phase 1
        barrier.wait(); // phase 2: every worker parked everything it held
        let stats = pool.stats();
        let parked = pool.magazine_parked() + pool.depot_parked();
        assert_eq!(
            parked as u64,
            stats.fresh_allocs(),
            "each fresh object must sit in exactly one cache level while quiescent \
             (magazines {}, depot {})",
            pool.magazine_parked(),
            pool.depot_parked(),
        );
        assert_eq!(pool.len() as u64, stats.fresh_allocs());
        barrier.wait(); // phase 3
    }
    for h in handles {
        h.join().unwrap();
    }

    // End drain: exited workers flushed their magazines; everything parked
    // must come back exactly once, all values distinct.
    let stats = pool.stats();
    assert!(stats.depot_parks() > 0, "the workload must exercise depot parks");
    assert!(stats.depot_swaps() > 0, "the workload must exercise depot swaps");
    let parked = pool.len();
    assert_eq!(parked as u64, stats.fresh_allocs());
    let mut drained: Vec<PoolBox<u64>> = Vec::with_capacity(parked);
    for _ in 0..parked {
        drained.push(pool.acquire(|| u64::MAX));
    }
    let values: HashSet<u64> = drained.iter().map(|b| **b).collect();
    assert_eq!(values.len(), parked, "an object was handed out twice");
    assert!(!values.contains(&u64::MAX), "drain must be served entirely from caches");
    assert_eq!(pool.stats().fresh_allocs(), stats.fresh_allocs());
    assert_eq!(pool.len(), 0);
}

/// A cold pool goes empty → (depot empty) → slab carve on every magazine's
/// worth of misses; once primed, the same traffic is all depot swaps.
#[test]
fn empty_swap_carve_cycle_single_thread() {
    let pool: ShardedPool<[u8; 64]> = ShardedPool::with_magazines(2, PoolConfig::default(), 8);
    let n = 64;
    let first: Vec<_> = (0..n).map(|i| pool.acquire(move || [i as u8; 64])).collect();
    let stats = pool.stats();
    assert_eq!(stats.fresh_allocs(), n as u64);
    assert!(stats.slab_carves() > 0, "cold misses must carve slabs");
    assert!(
        stats.slab_carves() < n as u64 / 2,
        "one carve must serve many misses (got {} carves for {} misses)",
        stats.slab_carves(),
        n,
    );
    for obj in first {
        pool.release(obj);
    }
    let again: Vec<_> = (0..n).map(|_| pool.acquire(|| [0xFF; 64])).collect();
    let stats = pool.stats();
    assert_eq!(stats.fresh_allocs(), n as u64, "warm traffic is all hits");
    assert!(stats.depot_swaps() > 0, "refills must come from depot swaps");
    assert!(again.iter().all(|b| b[0] != 0xFF));
    drop(again);
}

/// Trim must reclaim depot-parked magazines and keep counters consistent
/// while other threads keep churning.
#[test]
fn trim_reclaims_depot_under_churn() {
    const THREADS: usize = 4;
    let pool: Arc<ShardedPool<u64>> =
        Arc::new(ShardedPool::with_magazines(2, PoolConfig::default(), 8));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let p = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut counter = (t as u64) << 32;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let mut held = Vec::with_capacity(24);
                    for _ in 0..24 {
                        counter += 1;
                        let v = counter;
                        held.push(p.acquire(move || v));
                    }
                    for obj in held {
                        p.release(obj);
                    }
                }
            })
        })
        .collect();
    for _ in 0..50 {
        pool.trim();
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Workers exited (magazines flushed); one more trim empties the world.
    pool.trim();
    assert_eq!(pool.len(), 0);
    assert_eq!(pool.depot_parked(), 0);
    assert_eq!(pool.magazine_parked(), 0);
}
