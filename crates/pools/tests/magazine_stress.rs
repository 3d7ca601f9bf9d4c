//! Multi-thread stress tests for the magazine fast path: no object is ever
//! lost or duplicated across depot swaps, overflow parks, thread-exit
//! parks, capped admission and concurrent trims, and the hit/fresh
//! accounting stays exact.

use pools::{PoolConfig, ShardedPool};
use std::collections::HashSet;
use std::sync::{Arc, Barrier};

/// Deterministic per-thread op stream (xorshift) — no external RNG needed.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Churn the pool from `threads` threads with a mixed acquire/hold/release
/// pattern; returns the total acquires. With a `midpoint` barrier (of
/// `threads + 1`), every worker waits on it twice halfway through, so one
/// more party can look at the pool while all of them are paused.
fn churn(pool: &Arc<ShardedPool<u64>>, threads: u64, ops: u32, midpoint: Option<&Barrier>) -> u64 {
    let mut total_acquires = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let p = Arc::clone(pool);
                s.spawn(move || {
                    let mut rng = Lcg(t * 2 + 1);
                    let mut held: Vec<pools::PoolBox<u64>> = Vec::new();
                    let mut counter = 0u64;
                    let mut acquires = 0u64;
                    for op in 0..ops {
                        if let Some(midpoint) = midpoint.filter(|_| op == ops / 2) {
                            midpoint.wait();
                            midpoint.wait();
                        }
                        // Bias towards acquire so the held set grows and
                        // shrinks, exercising refill and overflow paths.
                        if !rng.next().is_multiple_of(3) || held.is_empty() {
                            let value = (t << 32) | counter;
                            counter += 1;
                            held.push(p.acquire(move || value));
                            acquires += 1;
                        } else {
                            let idx = (rng.next() as usize) % held.len();
                            p.release(held.swap_remove(idx));
                        }
                    }
                    for obj in held {
                        p.release(obj);
                    }
                    acquires
                })
            })
            .collect();
        for h in handles {
            total_acquires += h.join().expect("stress worker panicked");
        }
    });
    total_acquires
}

#[test]
fn no_object_lost_or_duplicated_under_churn() {
    let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::new(4));
    let acquires = churn(&pool, 8, 3_000, None);

    let stats = pool.stats();
    assert_eq!(
        stats.pool_hits() + stats.fresh_allocs(),
        acquires,
        "every acquire is exactly one hit or one fresh alloc"
    );
    // Everything was released and every worker thread has exited (its
    // magazine flushed), so the pool holds every object ever created.
    assert_eq!(pool.len() as u64, stats.fresh_allocs());

    // Drain the pool and check for duplication: each fresh value is unique,
    // so seeing a value twice would mean an object was double-parked.
    let mut seen = HashSet::new();
    for _ in 0..pool.len() {
        let obj = pool.acquire(|| u64::MAX);
        assert_ne!(*obj, u64::MAX, "drain must not run dry early");
        assert!(seen.insert(*obj), "object {:#x} served twice", *obj);
    }
    assert_eq!(seen.len() as u64, stats.fresh_allocs());
}

#[test]
fn concurrent_trims_keep_accounting_exact() {
    let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::new(2));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let trimmer = {
        let p = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut trimmed = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                trimmed += p.trim();
                std::thread::yield_now();
            }
            trimmed
        })
    };
    let acquires = churn(&pool, 4, 2_000, None);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let trimmed = trimmer.join().expect("trimmer panicked");

    let stats = pool.stats();
    assert_eq!(
        stats.pool_hits() + stats.fresh_allocs(),
        acquires,
        "trims must not break per-acquire accounting"
    );
    // Every object created is accounted for: reclaimed by some trim, or
    // still parked now that all churn threads have exited and flushed.
    // (Stale-epoch drops happen on the owning thread, reducing len there.)
    let _ = trimmed;
    // A final trim from this thread reclaims whatever is left.
    pool.trim();
    assert_eq!(pool.len(), 0);
}

/// A capped pool under 4-thread churn: a sampler checks the depot's exact
/// population against its bound (`max_objects × shards`) once while every
/// worker is paused mid-churn and then as often as it is scheduled, every
/// free is counted once, and every object built is parked or dropped by
/// the cap — never served twice.
#[test]
fn capped_depot_drops_overflow_but_never_duplicates() {
    const SHARDS: usize = 2;
    const MAX: usize = 8;
    let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::with_magazines(
        SHARDS,
        PoolConfig { max_objects: Some(MAX), ..Default::default() },
        4,
    ));
    const THREADS: u64 = 4;
    let midpoint = Arc::new(Barrier::new(THREADS as usize + 1));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sampler = {
        let (p, stop, midpoint) = (Arc::clone(&pool), Arc::clone(&stop), Arc::clone(&midpoint));
        std::thread::spawn(move || {
            // Read while every worker waits between the two midpoint
            // waits; release them before asserting, so a failure cannot
            // leave them blocked.
            midpoint.wait();
            let paused = p.depot_parked();
            midpoint.wait();
            assert!(paused <= SHARDS * MAX, "depot over its bound mid-churn: {paused}");
            let mut samples = 1u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let parked = p.depot_parked();
                assert!(parked <= SHARDS * MAX, "depot over its bound: {parked}");
                samples += 1;
                std::thread::yield_now();
            }
            samples
        })
    };
    let acquires = churn(&pool, THREADS, 1_000, Some(&midpoint));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(sampler.join().expect("the bound held") > 0);
    let stats = pool.stats();
    assert_eq!(stats.frees(), acquires, "each free is counted once");
    assert_eq!(stats.pool_hits() + stats.fresh_allocs(), acquires);
    // Magazines are gone (threads exited): everything left is in the depot.
    assert_eq!(pool.magazine_parked(), 0);
    assert!(pool.len() <= SHARDS * MAX, "cap must bound residency, len={}", pool.len());
    assert!(stats.dropped() > 0, "the cap must have dropped overflow");
    assert_eq!(pool.len() as u64 + stats.dropped(), stats.fresh_allocs(), "parked or dropped");
    assert_eq!(stats.lock_acquisitions(), 0, "no tier takes a lock");
    let mut seen = HashSet::new();
    let n = pool.len();
    for _ in 0..n {
        let obj = pool.acquire(|| u64::MAX);
        assert_ne!(*obj, u64::MAX);
        assert!(seen.insert(*obj), "object {:#x} served twice", *obj);
    }
}
