//! The `global` backend: per-node traffic through the size-class malloc
//! front-end ([`pools::global`]).
//!
//! Where [`crate::MallocBackend`] models the paper's baseline allocators
//! through handle-based [`allocators::ParallelAllocator`]s, this backend
//! performs *real* allocations through [`pools::global::raw_alloc`] — the
//! same code path a `#[global_allocator]` installation routes every heap
//! request through (the `global-alloc` feature). Registered as `"global"`
//! in [`crate::BackendRegistry::standard`], it puts the front-end in the
//! native comparison matrix next to the strategies it aims to beat, with
//! or without the feature enabled.
//!
//! Node blocks are freed newest-first, as destructors run; a structure's
//! blocks may be freed by a different thread than allocated them, which
//! parks them in the freeing thread's cache.

use crate::backend::{Allocation, BackendStats, MemBackend, Nodes, Structured};
use pools::PoolBox;
use std::alloc::Layout;
use std::sync::atomic::{AtomicU64, Ordering};

/// Modeled node alignment: pointer-aligned, like the `Box`ed nodes the
/// workloads build for real.
const NODE_ALIGN: usize = 8;

fn node_layout(size: u32) -> Layout {
    Layout::from_size_align(size.max(1) as usize, NODE_ALIGN).expect("node layout")
}

/// A [`MemBackend`] over the size-class front-end. Like the malloc
/// backends it has no structure-reuse layer (every structure is fresh);
/// unlike them the per-node cost is the front-end's thread-cache hit, not
/// a modeled arena.
pub(crate) struct GlobalBackend {
    structures_allocated: AtomicU64,
    structures_freed: AtomicU64,
    fallback_allocs: AtomicU64,
    live_bytes: AtomicU64,
}

impl GlobalBackend {
    pub(crate) fn new() -> Self {
        GlobalBackend {
            structures_allocated: AtomicU64::new(0),
            structures_freed: AtomicU64::new(0),
            fallback_allocs: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
        }
    }
}

impl Default for GlobalBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Structured> MemBackend<T> for GlobalBackend {
    fn name(&self) -> &str {
        "global"
    }

    fn alloc(&self, params: &T::Params) -> Allocation<T> {
        self.structures_allocated.fetch_add(1, Ordering::Relaxed);
        if pools::fault::fail_fresh_alloc() {
            // Decided at entry, like every backend: the fallback count is
            // a pure function of (seed, thread, op index), which the
            // differential replay test asserts. Degrades to a plain heap
            // object with no front-end traffic.
            self.fallback_allocs.fetch_add(1, Ordering::Relaxed);
            return Allocation::new(
                PoolBox::new(T::fresh(params)),
                Vec::new(),
                T::footprint(params),
            );
        }
        let nodes = T::node_count(params);
        let raw = (0..nodes)
            .map(|i| {
                let size = T::node_size(params, i);
                let ptr = pools::global::raw_alloc(node_layout(size));
                assert!(!ptr.is_null(), "size-class front-end returned null");
                (ptr as usize, size)
            })
            .collect::<Vec<_>>();
        let bytes = T::footprint(params);
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        Allocation::with_nodes(PoolBox::new(T::fresh(params)), Nodes::Raw(raw), bytes)
    }

    fn free(&self, allocation: Allocation<T>) {
        let bytes = allocation.bytes();
        let Allocation { mut obj, tail } = allocation;
        let raw = match tail.into_nodes() {
            Some(Nodes::Raw(raw)) => raw,
            _ => Vec::new(),
        };
        let had_nodes = !raw.is_empty();
        obj.recycle();
        drop(obj);
        for (addr, size) in raw.into_iter().rev() {
            // SAFETY: each (addr, size) came from raw_alloc(node_layout(
            // size)) in `alloc` and is freed exactly once, here.
            unsafe { pools::global::raw_dealloc(addr as *mut u8, node_layout(size)) };
        }
        if had_nodes {
            self.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        }
        self.structures_freed.fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> BackendStats {
        let allocs = self.structures_allocated.load(Ordering::Relaxed);
        BackendStats::new(
            allocs,
            self.structures_freed.load(Ordering::Relaxed),
            0,
            allocs,
            // Lock-free front-end: nothing to count as a blocked lock.
            0,
            self.live_bytes.load(Ordering::Relaxed),
        )
        .with_fallbacks(self.fallback_allocs.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pools::structure_pool::Reusable;

    struct Pair(u64);
    impl Reusable for Pair {
        type Params = u64;
        fn fresh(p: &u64) -> Self {
            Pair(*p)
        }
        fn reinit(&mut self, p: &u64) {
            self.0 = *p;
        }
    }
    impl Structured for Pair {
        fn node_count(_: &u64) -> u32 {
            2
        }
        fn node_size(_: &u64, _: u32) -> u32 {
            20
        }
        fn checksum(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn alloc_free_balances_and_reports_fresh() {
        let b = GlobalBackend::new();
        let backend: &dyn MemBackend<Pair> = &b;
        let a = backend.alloc(&7);
        assert_eq!(a.checksum(), 7);
        assert_eq!(a.bytes(), 40);
        let s = backend.stats();
        assert_eq!(s.allocs(), 1);
        assert_eq!(s.fresh_allocs(), 1);
        assert_eq!(s.pool_hits(), 0);
        assert_eq!(s.live_bytes(), 40);
        backend.free(a);
        let s = backend.stats();
        assert_eq!(s.frees(), 1);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(<dyn MemBackend<Pair>>::name(&b), "global");
    }

    #[test]
    fn nodes_ride_the_size_class_ledger() {
        let before = pools::global::stats();
        let b = GlobalBackend::new();
        let backend: &dyn MemBackend<Pair> = &b;
        let allocations: Vec<_> = (0..50).map(|i| backend.alloc(&(i as u64))).collect();
        for a in allocations.into_iter().rev() {
            backend.free(a);
        }
        let after = pools::global::stats();
        // 50 structures x 2 nodes, at least (>=: parallel tests share the
        // process-wide ledger).
        assert!(after.class_allocs - before.class_allocs >= 100);
        assert!(after.class_frees - before.class_frees >= 100);
    }

    #[test]
    fn cross_thread_structure_free_balances() {
        // One thread allocates a structure, another frees it: the nodes
        // land in the freeing thread's cache and reach the central stacks
        // when it flushes. The backend's ledger balances, and the engine
        // counts nothing remote.
        let b = std::sync::Arc::new(GlobalBackend::new());
        let alloc_b = std::sync::Arc::clone(&b);
        let allocation = std::thread::spawn(move || {
            let backend: &dyn MemBackend<Pair> = &*alloc_b;
            backend.alloc(&3)
        })
        .join()
        .unwrap();
        let backend: &dyn MemBackend<Pair> = &*b;
        backend.free(allocation);
        pools::global::flush_thread_cache();
        let s = backend.stats();
        assert_eq!((s.allocs(), s.frees(), s.live_bytes()), (1, 1, 0));
        assert_eq!(pools::global::stats().remote_frees, 0);
    }
}
