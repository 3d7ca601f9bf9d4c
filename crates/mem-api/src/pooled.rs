//! The Amplify backend: a [`StructurePool`] behind the uniform
//! [`MemBackend`] interface. Its three layouts are `(shards, magazine_cap)`
//! settings of the one typed pool, `pools::ShardedPool`:
//!
//! * **local** `(1, 0)` — one shared locked free list (the single-threaded
//!   layout; the paper's Figure 4 configuration);
//! * **sharded** `(N, 0)` — ptmalloc-style try-lock-and-spill shards, no
//!   thread caches (§3.2 as published);
//! * **sharded+magazines** `(N, 32)` — shards fronted by lock-free
//!   thread-local magazines (the layout Amplify's threaded builds use; the
//!   hit path `envelope_check`'s `hit-pair` envelope measures).

use crate::backend::{Allocation, BackendStats, MemBackend, Structured, Tail};
use pools::{PoolBox, PoolConfig, StructurePool, DEFAULT_MAGAZINE_CAP};

/// A [`MemBackend`] over a [`StructurePool`]. Holds no counters of its own:
/// frees and live bytes come from the pool's ledger, which the magazine hit
/// path keeps in owner-written cells (plain stores, no locked RMW).
pub struct PooledBackend<T: Structured> {
    name: &'static str,
    pool: StructurePool<T>,
}

impl<T: Structured> PooledBackend<T> {
    /// The local layout: one shared free list, no sharding.
    pub fn local() -> Self {
        Self::layout("amplify-local", 1, 0)
    }

    /// The bare sharded layout: `shards` try-lock free lists, magazines
    /// disabled (capacity 0).
    pub fn sharded(shards: usize) -> Self {
        Self::layout("amplify-sharded", shards, 0)
    }

    /// The full layout: shards fronted by thread-local magazines — what
    /// the registry registers as plain "amplify".
    pub fn with_magazines(shards: usize) -> Self {
        Self::layout("amplify", shards, DEFAULT_MAGAZINE_CAP)
    }

    /// An unbounded pool in the `(shards, magazine_cap)` layout.
    fn layout(name: &'static str, shards: usize, magazine_cap: usize) -> Self {
        let pool =
            StructurePool::new_sharded_with_magazines(shards, PoolConfig::default(), magazine_cap);
        Self::from_pool(name, pool)
    }

    /// Wrap an explicitly configured pool under a display name.
    pub fn from_pool(name: &'static str, pool: StructurePool<T>) -> Self {
        PooledBackend { name, pool }
    }

    #[cold]
    #[inline(never)]
    fn free_with_nodes(&self, obj: PoolBox<T>, tail: Tail) {
        let bytes = tail.bytes();
        drop(tail);
        self.pool.free_sized(obj, bytes);
    }

    /// The wrapped pool.
    pub fn pool(&self) -> &StructurePool<T> {
        &self.pool
    }
}

impl<T: Structured> MemBackend<T> for PooledBackend<T>
where
    T::Params: Sync,
{
    fn name(&self) -> &str {
        self.name
    }

    fn alloc(&self, params: &T::Params) -> Allocation<T> {
        let bytes = T::footprint(params);
        let obj = self.pool.alloc_sized(params, bytes);
        // No per-node handles: the pool parks/revives whole structures.
        Allocation::new(obj, Vec::new(), bytes)
    }

    fn free(&self, allocation: Allocation<T>) {
        let Allocation { obj, tail } = allocation;
        match tail.into_pooled_bytes() {
            Ok(bytes) => self.pool.free_sized(obj, bytes),
            // Not a pooled allocation's shape: drop its handles out of
            // line, so the hit path keeps no registers across a call.
            Err(tail) => self.free_with_nodes(obj, tail),
        }
    }

    fn stats(&self) -> BackendStats {
        let s = self.pool.stats();
        BackendStats::new(
            s.total_allocs(),
            s.frees(),
            s.pool_hits(),
            s.fresh_allocs(),
            s.failed_locks(),
            s.live_bytes(),
        )
        .with_depot_detail(s.depot_swaps(), s.depot_parks(), s.slab_carves())
        .with_fallbacks(s.fallback_allocs())
    }

    fn trim(&self) {
        self.pool.trim();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pools::structure_pool::Reusable;

    struct Blob(Vec<u8>);
    impl Reusable for Blob {
        type Params = u32;
        fn fresh(p: &u32) -> Self {
            Blob(vec![7; *p as usize])
        }
        fn reinit(&mut self, p: &u32) {
            self.0.resize(*p as usize, 7);
        }
    }
    impl Structured for Blob {
        fn node_count(_: &u32) -> u32 {
            1
        }
        fn node_size(p: &u32, _: u32) -> u32 {
            *p
        }
        fn checksum(&self) -> u64 {
            self.0.iter().map(|&b| b as u64).sum()
        }
    }

    fn exercise(backend: &dyn MemBackend<Blob>) {
        let a = backend.alloc(&32);
        backend.free(a);
        let b = backend.alloc(&32);
        let s = backend.stats();
        assert_eq!(s.allocs(), 2, "{}", backend.name());
        assert_eq!(s.pool_hits(), 1, "{}", backend.name());
        assert_eq!(s.fresh_allocs(), 1, "{}", backend.name());
        assert_eq!(s.live_bytes(), 32, "{}", backend.name());
        backend.free(b);
        assert_eq!(backend.stats().live_bytes(), 0);
        assert_eq!(backend.stats().frees(), 2);
    }

    #[test]
    fn all_three_layouts_pool() {
        exercise(&PooledBackend::local());
        exercise(&PooledBackend::sharded(4));
        exercise(&PooledBackend::with_magazines(4));
    }

    /// Every layout, uncapped and with a population cap of 2 (so frees
    /// past the cap drop: at release time in the local and direct
    /// layouts, at flush time behind magazines).
    fn every_layout() -> Vec<PooledBackend<Blob>> {
        let capped = PoolConfig { max_objects: Some(2), ..Default::default() };
        vec![
            PooledBackend::local(),
            PooledBackend::sharded(4),
            PooledBackend::with_magazines(4),
            PooledBackend::from_pool("capped-local", StructurePool::with_config(capped)),
            PooledBackend::from_pool(
                "capped-sharded",
                StructurePool::new_sharded_with_magazines(2, capped, 0),
            ),
            PooledBackend::from_pool(
                "capped-magazines",
                StructurePool::new_sharded_with_magazines(2, capped, 4),
            ),
        ]
    }

    /// The quiescent ledger: `allocs` and `frees` as given, nothing live,
    /// every alloc a hit or a fresh build.
    fn assert_exact(backend: &PooledBackend<Blob>, allocs: u64, frees: u64, live_bytes: u64) {
        let s = backend.stats();
        let name = backend.name;
        assert_eq!(s.allocs(), allocs, "{name}: allocs");
        assert_eq!(s.frees(), frees, "{name}: frees");
        assert_eq!(s.live_bytes(), live_bytes, "{name}: live_bytes");
        assert_eq!(s.pool_hits() + s.fresh_allocs(), s.allocs(), "{name}: hits + fresh");
    }

    #[test]
    fn ledger_is_exact_when_another_thread_frees() {
        for backend in every_layout() {
            let held: Vec<_> = std::thread::scope(|scope| {
                scope.spawn(|| (0..20).map(|_| backend.alloc(&32)).collect()).join().unwrap()
            });
            assert_exact(&backend, 20, 0, 20 * 32);
            std::thread::scope(|scope| {
                scope.spawn(|| held.into_iter().for_each(|a| backend.free(a)));
            });
            assert_exact(&backend, 20, 20, 0);
        }
    }

    #[test]
    fn ledger_is_exact_after_a_thread_exits_with_cached_objects() {
        for backend in every_layout() {
            // The worker's last frees stay cached in its magazine until
            // the thread exits and folds its counts into the pool. The
            // explicit join waits for that exit: the scope's implicit join
            // returns before the worker's TLS destructors run.
            std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        for _ in 0..3 {
                            let held: Vec<_> = (0..10).map(|_| backend.alloc(&16)).collect();
                            held.into_iter().for_each(|a| backend.free(a));
                        }
                    })
                    .join()
                    .expect("worker");
            });
            assert_exact(&backend, 30, 30, 0);
            let kept = backend.alloc(&16);
            assert_exact(&backend, 31, 30, 16);
            backend.free(kept);
            assert_exact(&backend, 31, 31, 0);
        }
    }

    #[test]
    fn capped_drops_count_each_free_once() {
        for backend in every_layout().into_iter().skip(3) {
            let held: Vec<_> = (0..20).map(|_| backend.alloc(&8)).collect();
            held.into_iter().for_each(|a| backend.free(a));
            assert_exact(&backend, 20, 20, 0);
            assert!(backend.pool().stats().dropped() > 0, "{}: the cap must drop", backend.name);
        }
    }

    #[test]
    fn layout_names() {
        let l: PooledBackend<Blob> = PooledBackend::local();
        let s: PooledBackend<Blob> = PooledBackend::sharded(2);
        let m: PooledBackend<Blob> = PooledBackend::with_magazines(2);
        assert_eq!(MemBackend::<Blob>::name(&l), "amplify-local");
        assert_eq!(MemBackend::<Blob>::name(&s), "amplify-sharded");
        assert_eq!(MemBackend::<Blob>::name(&m), "amplify");
        assert_eq!(s.pool().stats().lock_acquisitions(), 0);
    }
}
