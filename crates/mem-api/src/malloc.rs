//! Malloc-style backends: any [`ParallelAllocator`] lifted to the
//! structure-level [`MemBackend`] interface.
//!
//! Allocating a structure performs one handle-based allocator call per
//! node (exactly the traffic the paper's baseline programs generate —
//! "each node was 20 bytes") and builds the real object alongside for
//! checksum determinism. Freeing releases the nodes in reverse order, as
//! destructors run.

use crate::backend::{Allocation, BackendStats, MemBackend, Nodes, Structured};
use allocators::ParallelAllocator;
use pools::PoolBox;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A [`MemBackend`] over a handle-based allocator (serial, ptmalloc,
/// hoard). Every structure allocation is "fresh" by definition — there is
/// no reuse layer in front of the heap.
pub struct MallocBackend {
    name: String,
    inner: Arc<dyn ParallelAllocator>,
    structures_allocated: AtomicU64,
    structures_freed: AtomicU64,
    fallback_allocs: AtomicU64,
}

impl MallocBackend {
    /// Wrap `inner`, displaying the allocator's own name.
    pub fn new(inner: Arc<dyn ParallelAllocator>) -> Self {
        Self::named(inner.name(), inner)
    }

    /// Wrap `inner` under an explicit registry name (e.g. the paper calls
    /// the serial allocator "solaris-default").
    pub(crate) fn named(name: impl Into<String>, inner: Arc<dyn ParallelAllocator>) -> Self {
        MallocBackend {
            name: name.into(),
            inner,
            structures_allocated: AtomicU64::new(0),
            structures_freed: AtomicU64::new(0),
            fallback_allocs: AtomicU64::new(0),
        }
    }
}

impl<T: Structured> MemBackend<T> for MallocBackend {
    fn name(&self) -> &str {
        &self.name
    }

    fn alloc(&self, params: &T::Params) -> Allocation<T> {
        self.structures_allocated.fetch_add(1, Ordering::Relaxed);
        if pools::fault::fail_fresh_alloc() {
            // Injected failure of the modeled allocator: degrade to a plain
            // heap object with no per-node handles. The caller sees the
            // same structure (same checksum), just without the modeled
            // arena traffic.
            self.fallback_allocs.fetch_add(1, Ordering::Relaxed);
            return Allocation::new(
                PoolBox::new(T::fresh(params)),
                Vec::new(),
                T::footprint(params),
            );
        }
        let nodes = T::node_count(params);
        let blocks =
            (0..nodes).map(|i| self.inner.alloc(T::node_size(params, i))).collect::<Vec<_>>();
        Allocation::new(PoolBox::new(T::fresh(params)), blocks, T::footprint(params))
    }

    fn free(&self, allocation: Allocation<T>) {
        let Allocation { mut obj, tail } = allocation;
        let blocks = match tail.into_nodes() {
            Some(Nodes::Blocks(blocks)) => blocks,
            _ => Vec::new(),
        };
        obj.recycle();
        drop(obj);
        // Nodes are freed newest-first, as destructors run.
        for block in blocks.into_iter().rev() {
            self.inner.free(block);
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
            self.inner.contention_events(),
            self.inner.live_bytes(),
        )
        .with_fallbacks(self.fallback_allocs.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use allocators::SerialAllocator;
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
    fn alloc_free_balances_the_heap() {
        let b = MallocBackend::named("solaris-default", Arc::new(SerialAllocator::new()));
        let backend: &dyn MemBackend<Pair> = &b;
        let a = backend.alloc(&7);
        assert_eq!(a.checksum(), 7);
        assert_eq!(a.bytes(), 40);
        let s = backend.stats();
        assert_eq!(s.allocs(), 1);
        assert_eq!(s.fresh_allocs(), 1);
        assert_eq!(s.pool_hits(), 0);
        // Allocator-tracked bytes: at least the payload (alignment may pad).
        assert!(s.live_bytes() >= 40, "live {}", s.live_bytes());
        backend.free(a);
        let s = backend.stats();
        assert_eq!(s.frees(), 1);
        assert_eq!(s.live_bytes(), 0);
        assert_eq!(backend.name(), "solaris-default");
    }
}
