//! A registry of live pools, for fleet-wide trimming and statistics.
//!
//! The paper's answer to pool memory overhead is "returning memory from
//! the pools to the operating system on demand, or when the pools exceed a
//! certain limit" (§5.1). Per-pool caps live in
//! [`crate::limits::PoolConfig`]; the *on demand* part needs something that
//! can reach every pool — this registry.

use crate::stats::StatsSnapshot;
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

/// Implemented by every pool kind that can be registered.
pub trait Trimmable: Send + Sync {
    /// Drop all parked objects; returns how many were released.
    fn trim(&self) -> usize;
    /// Parked objects currently held.
    fn parked(&self) -> usize;
    /// Statistics snapshot.
    fn snapshot(&self) -> StatsSnapshot;
}

impl<T: crate::structure_pool::Reusable + Send + 'static> Trimmable
    for crate::structure_pool::StructurePool<T>
where
    T::Params: Sync,
{
    fn trim(&self) -> usize {
        self.trim()
    }
    fn parked(&self) -> usize {
        self.len()
    }
    fn snapshot(&self) -> StatsSnapshot {
        self.stats()
    }
}

impl<T: Send + 'static> Trimmable for crate::sharded::ShardedPool<T> {
    fn trim(&self) -> usize {
        self.trim()
    }
    fn parked(&self) -> usize {
        self.len()
    }
    fn snapshot(&self) -> StatsSnapshot {
        self.stats()
    }
}

/// A set of weakly-held pools. Dropped pools unregister themselves
/// implicitly (their weak references expire).
#[derive(Default)]
pub struct PoolRegistry {
    pools: Mutex<Vec<(String, Weak<dyn Trimmable>)>>,
}

impl PoolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a pool under a display name.
    pub fn register(&self, name: impl Into<String>, pool: &Arc<impl Trimmable + 'static>) {
        let weak: Weak<dyn Trimmable> = Arc::downgrade(pool) as Weak<dyn Trimmable>;
        self.pools.lock().push((name.into(), weak));
    }

    /// Number of live registered pools (expired entries are pruned).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        let mut pools = self.pools.lock();
        pools.retain(|(_, w)| w.strong_count() > 0);
        pools.len()
    }

    /// Trim every live pool — the "on demand" memory release. Returns the
    /// total number of objects released.
    pub fn trim_all(&self) -> usize {
        let live: Vec<Arc<dyn Trimmable>> = {
            let mut pools = self.pools.lock();
            pools.retain(|(_, w)| w.strong_count() > 0);
            pools.iter().filter_map(|(_, w)| w.upgrade()).collect()
        };
        live.iter().map(|p| p.trim()).sum()
    }

    /// Total parked objects across live pools.
    pub fn total_parked(&self) -> usize {
        let live: Vec<Arc<dyn Trimmable>> = {
            let pools = self.pools.lock();
            pools.iter().filter_map(|(_, w)| w.upgrade()).collect()
        };
        live.iter().map(|p| p.parked()).sum()
    }

    /// Aggregate statistics across live pools.
    pub fn aggregate_stats(&self) -> StatsSnapshot {
        let live: Vec<Arc<dyn Trimmable>> = {
            let pools = self.pools.lock();
            pools.iter().filter_map(|(_, w)| w.upgrade()).collect()
        };
        let mut agg = StatsSnapshot::default();
        for p in &live {
            agg.merge(&p.snapshot());
        }
        agg
    }

    /// Snapshot every live pool as a `telemetry-v1` pool entry, in
    /// registration order (so reports are deterministic for a fixed
    /// registration sequence). This is how a [`telemetry::Report`] gets its
    /// `pools` section, read from the pools' always-on counters.
    pub fn pool_snapshots(&self) -> Vec<telemetry::report::PoolSnapshot> {
        let entries: Vec<(String, Arc<dyn Trimmable>)> = {
            let pools = self.pools.lock();
            pools.iter().filter_map(|(n, w)| w.upgrade().map(|p| (n.clone(), p))).collect()
        };
        entries
            .iter()
            .map(|(name, p)| {
                let s = p.snapshot();
                telemetry::report::PoolSnapshot {
                    name: name.clone(),
                    parked: p.parked() as u64,
                    pool_hits: s.pool_hits(),
                    fresh_allocs: s.fresh_allocs(),
                    releases: s.releases(),
                    dropped: s.dropped(),
                    failed_locks: s.failed_locks(),
                    lock_acquisitions: s.lock_acquisitions(),
                }
            })
            .collect()
    }

    /// Per-pool report lines (`name: parked, hits, misses`).
    pub fn report(&self) -> Vec<String> {
        let entries: Vec<(String, Arc<dyn Trimmable>)> = {
            let pools = self.pools.lock();
            pools.iter().filter_map(|(n, w)| w.upgrade().map(|p| (n.clone(), p))).collect()
        };
        entries
            .iter()
            .map(|(name, p)| {
                let s = p.snapshot();
                format!(
                    "{name}: parked={}, hits={}, fresh={}, dropped={}",
                    p.parked(),
                    s.pool_hits(),
                    s.fresh_allocs(),
                    s.dropped()
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::limits::PoolConfig;
    use crate::sharded::ShardedPool;

    /// A one-list pool: one shard, no magazines.
    fn local<T>() -> Arc<ShardedPool<T>> {
        Arc::new(ShardedPool::with_magazines(1, PoolConfig::default(), 0))
    }

    #[test]
    fn registered_pools_are_trimmed_together() {
        let reg = PoolRegistry::new();
        let a: Arc<ShardedPool<u32>> = local();
        let b: Arc<ShardedPool<String>> = local();
        reg.register("ints", &a);
        reg.register("strings", &b);
        for i in 0..5 {
            a.release(Box::new(i));
        }
        b.release(Box::new("x".into()));
        assert_eq!(reg.total_parked(), 6);
        assert_eq!(reg.trim_all(), 6);
        assert_eq!(reg.total_parked(), 0);
    }

    #[test]
    fn dropped_pools_expire() {
        let reg = PoolRegistry::new();
        let a: Arc<ShardedPool<u32>> = local();
        reg.register("a", &a);
        assert_eq!(reg.len(), 1);
        drop(a);
        assert_eq!(reg.len(), 0);
        assert_eq!(reg.trim_all(), 0);
    }

    #[test]
    fn aggregate_stats_merge() {
        let reg = PoolRegistry::new();
        let a: Arc<ShardedPool<u32>> = local();
        reg.register("a", &a);
        let x = a.acquire(|| 1);
        a.release(x);
        let _y = a.acquire(|| 2);
        let agg = reg.aggregate_stats();
        assert_eq!(agg.pool_hits(), 1);
        assert_eq!(agg.fresh_allocs(), 1);
    }

    #[test]
    fn report_names_pools() {
        let reg = PoolRegistry::new();
        let a: Arc<ShardedPool<u8>> = local();
        reg.register("bytes", &a);
        a.release(Box::new(0));
        let lines = reg.report();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("bytes: parked=1"));
    }

    #[test]
    fn pool_snapshots_feed_telemetry_reports() {
        let reg = PoolRegistry::new();
        let a: Arc<ShardedPool<u32>> = local();
        reg.register("nodes", &a);
        let x = a.acquire(|| 1);
        a.release(x);
        let _y = a.acquire(|| 2);
        let snaps = reg.pool_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].name, "nodes");
        assert_eq!(snaps[0].pool_hits, 1);
        assert_eq!(snaps[0].fresh_allocs, 1);
        assert_eq!(snaps[0].releases, 1);
        assert_eq!(snaps[0].parked, 0);
        // The snapshot drops into a report and survives the JSON round trip.
        let mut report = telemetry::Report::new("registry-test");
        report.pools = snaps;
        let back = telemetry::Report::from_json(&report.to_json()).unwrap();
        assert_eq!(back.pools[0].pool_hits, 1);
    }

    #[test]
    fn structure_pools_register_too() {
        use crate::structure_pool::{Reusable, StructurePool};
        struct S(u32);
        impl Reusable for S {
            type Params = u32;
            fn fresh(p: &u32) -> Self {
                S(*p)
            }
            fn reinit(&mut self, p: &u32) {
                self.0 = *p;
            }
        }
        let reg = PoolRegistry::new();
        let pool: Arc<StructurePool<S>> = Arc::new(StructurePool::new());
        reg.register("structs", &pool);
        let s = pool.alloc(&1);
        pool.free(s);
        assert_eq!(reg.total_parked(), 1);
        assert_eq!(reg.trim_all(), 1);
    }

    #[test]
    fn sharded_magazines_are_reclaimable_after_thread_exit() {
        let reg = PoolRegistry::new();
        let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::new(2));
        reg.register("sharded", &pool);
        let p = Arc::clone(&pool);
        std::thread::spawn(move || {
            for i in 0..6 {
                p.release(Box::new(i));
            }
        })
        .join()
        .unwrap();
        // The exited thread's magazine flushed back to the shards, so the
        // registry sees every object and trim reclaims all of them.
        assert_eq!(reg.total_parked(), 6);
        assert_eq!(reg.trim_all(), 6);
        assert_eq!(pool.len(), 0);
    }
}
