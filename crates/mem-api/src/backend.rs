//! The core traits and value types of the backend layer.

use allocators::BlockRef;
use pools::structure_pool::Reusable;
use pools::PoolBox;
use std::ops::{Deref, DerefMut};

/// A workload's unit of allocation: a whole object structure (§2.1) whose
/// heap shape is known from its construction parameters.
///
/// Extends [`Reusable`] (the pool-side contract: `fresh`/`reinit`/
/// `recycle`) with the shape information malloc-style backends need to
/// model per-node allocator traffic, plus a checksum for determinism
/// assertions across backends.
pub trait Structured: Reusable + Send + 'static {
    /// Heap nodes a fresh structure with these parameters contains.
    fn node_count(params: &Self::Params) -> u32;

    /// Size in bytes of node `index` (`0..node_count`).
    fn node_size(params: &Self::Params, index: u32) -> u32;

    /// Deterministic digest of the structure's contents. Two structures
    /// built from equal parameters must have equal checksums, whichever
    /// backend allocated them.
    fn checksum(&self) -> u64;

    /// Total payload bytes of the structure (default: sum of node sizes).
    fn footprint(params: &Self::Params) -> u64 {
        (0..Self::node_count(params)).map(|i| Self::node_size(params, i) as u64).sum()
    }
}

/// A live structure handed out by a [`MemBackend`]: the object itself plus
/// one word the backend needs to take it back — two words in all, so it
/// is returned in registers.
///
/// Pool backends store the structure's byte count in the word, tagged;
/// their free path parks the whole object, so a hit builds and drops no
/// handle storage at all. Malloc-style backends store a pointer to their
/// boxed per-node handles and the byte count.
pub struct Allocation<T> {
    pub(crate) obj: PoolBox<T>,
    pub(crate) tail: Tail,
}

/// The per-node handles of a malloc-style allocation.
pub(crate) enum Nodes {
    /// One [`BlockRef`] per node (the modeled allocator traffic).
    Blocks(Vec<BlockRef>),
    /// The size-class front-end's raw blocks, `(address, size)`, for the
    /// `global` backend (`usize` addresses keep the allocation `Send`).
    Raw(Vec<(usize, u32)>),
}

/// What a malloc-style allocation boxes beside its object.
struct Detail {
    nodes: Nodes,
    bytes: u64,
}

/// An [`Allocation`]'s second word: `bytes << 1 | 1` for a pooled
/// allocation, or the address of a boxed [`Detail`] (aligned, so its low
/// bit is 0).
pub(crate) struct Tail(usize);

impl Tail {
    /// A byte count, tagged. Counts past 63 bits are boxed instead.
    #[inline(always)]
    fn pooled(bytes: u64) -> Self {
        if bytes >> (usize::BITS - 1) != 0 {
            return Self::boxed(Nodes::Blocks(Vec::new()), bytes);
        }
        Tail((bytes as usize) << 1 | 1)
    }

    fn boxed(nodes: Nodes, bytes: u64) -> Self {
        Tail(Box::into_raw(Box::new(Detail { nodes, bytes })) as usize)
    }

    /// The byte count, when nothing is boxed: the pool backends' free path.
    #[inline(always)]
    pub(crate) fn pooled_bytes(&self) -> Option<u64> {
        (self.0 & 1 == 1).then_some((self.0 >> 1) as u64)
    }

    /// The byte count of a pooled tail, consumed without a drop call; the
    /// tail itself back otherwise.
    #[inline(always)]
    pub(crate) fn into_pooled_bytes(self) -> Result<u64, Tail> {
        match self.pooled_bytes() {
            Some(bytes) => {
                std::mem::forget(self);
                Ok(bytes)
            }
            None => Err(self),
        }
    }

    pub(crate) fn bytes(&self) -> u64 {
        match self.pooled_bytes() {
            Some(bytes) => bytes,
            // SAFETY: an untagged word is a live `Box<Detail>` this tail owns.
            None => unsafe { &*(self.0 as *const Detail) }.bytes,
        }
    }

    /// The per-node handles, taking them out of the box (none for a pooled
    /// allocation).
    pub(crate) fn into_nodes(self) -> Option<Nodes> {
        if self.0 & 1 == 1 {
            return None;
        }
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: an untagged word is a live `Box<Detail>`, owned here.
        Some(unsafe { Box::from_raw(this.0 as *mut Detail) }.nodes)
    }
}

impl Drop for Tail {
    #[inline]
    fn drop(&mut self) {
        if self.0 & 1 == 0 {
            // SAFETY: an untagged word is a live `Box<Detail>`, owned here.
            drop(unsafe { Box::from_raw(self.0 as *mut Detail) });
        }
    }
}

impl<T> Allocation<T> {
    /// Assemble an allocation (for backend implementations). Accepts a
    /// plain `Box<T>` (moved into a standalone slot) or a pool-served
    /// [`PoolBox<T>`].
    #[inline(always)]
    pub(crate) fn new(obj: impl Into<PoolBox<T>>, blocks: Vec<BlockRef>, bytes: u64) -> Self {
        let tail = if blocks.is_empty() {
            Tail::pooled(bytes)
        } else {
            Tail::boxed(Nodes::Blocks(blocks), bytes)
        };
        Allocation { obj: obj.into(), tail }
    }

    /// An allocation carrying the size-class front-end's raw blocks.
    pub(crate) fn with_nodes(obj: PoolBox<T>, nodes: Nodes, bytes: u64) -> Self {
        Allocation { obj, tail: Tail::boxed(nodes, bytes) }
    }

    /// Payload bytes this structure accounts for.
    pub fn bytes(&self) -> u64 {
        self.tail.bytes()
    }

    /// Take the object out, discarding the backend bookkeeping. Only for
    /// backends consuming an allocation inside `free`.
    pub(crate) fn into_object(self) -> PoolBox<T> {
        self.obj
    }
}

impl<T> Deref for Allocation<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.obj
    }
}

impl<T> DerefMut for Allocation<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.obj
    }
}

/// A uniform, method-based statistics snapshot every backend reports
/// through — the single stats surface the executors and reports consume
/// (no more `stats().pool_hits()` vs `stats.pool_hits` split).
///
/// Counts are in *structure* units: one `alloc`/`free` call is one unit,
/// however many heap nodes the structure contains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    allocs: u64,
    frees: u64,
    pool_hits: u64,
    fresh_allocs: u64,
    contention_events: u64,
    live_bytes: u64,
    depot_swaps: u64,
    depot_parks: u64,
    fallback_allocs: u64,
}

impl BackendStats {
    /// Assemble a snapshot (for backend implementations). Depot counters
    /// start at zero; pool backends attach them with
    /// [`BackendStats::with_depot_detail`].
    pub(crate) fn new(
        allocs: u64,
        frees: u64,
        pool_hits: u64,
        fresh_allocs: u64,
        contention_events: u64,
        live_bytes: u64,
    ) -> Self {
        BackendStats {
            allocs,
            frees,
            pool_hits,
            fresh_allocs,
            contention_events,
            live_bytes,
            depot_swaps: 0,
            depot_parks: 0,
            fallback_allocs: 0,
        }
    }

    /// Attach the magazine-depot counters (builder style, so the 6-field
    /// constructor keeps working for backends without a depot).
    pub(crate) fn with_depot_detail(mut self, depot_swaps: u64, depot_parks: u64) -> Self {
        self.depot_swaps = depot_swaps;
        self.depot_parks = depot_parks;
        self
    }

    /// Attach the count of acquires that degraded to a plain heap `Box`
    /// under injected allocation failure (builder style; stays 0 without
    /// the `fault-inject` feature).
    pub(crate) fn with_fallbacks(mut self, fallback_allocs: u64) -> Self {
        self.fallback_allocs = fallback_allocs;
        self
    }

    /// Structure allocations performed.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Structure frees performed.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Allocations served by reuse (always 0 for malloc-style backends).
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Allocations that paid for fresh heap work.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Lock acquisitions that found the lock contended (arena locks for
    /// malloc backends, failed shard try-locks for pooled ones; always 0
    /// for the handmade pool, which never locks).
    pub fn contention_events(&self) -> u64 {
        self.contention_events
    }

    /// Payload bytes currently held by callers.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Full magazines swapped in from the depot (0 for depot-less
    /// backends).
    pub fn depot_swaps(&self) -> u64 {
        self.depot_swaps
    }

    /// Full magazines parked on the depot.
    pub fn depot_parks(&self) -> u64 {
        self.depot_parks
    }

    /// Always 0: the typed pools have no carve of their own. Every fresh
    /// slot is a block of the size-class engine, whose carves
    /// `pools::global::stats` counts. Kept for the callers that still
    /// report the column, such as the end-to-end benchmark's
    /// `pools.pool_box.slab_carves` row.
    pub fn slab_carves(&self) -> u64 {
        0
    }

    /// Allocations that degraded gracefully to a plain heap `Box` under an
    /// injected failure (a subset of `fresh_allocs`; deterministic for a
    /// fixed fault seed, which the differential tests assert).
    pub fn fallback_allocs(&self) -> u64 {
        self.fallback_allocs
    }
}

/// One memory-management strategy, pluggable under every executor.
///
/// Object-safe: executors hold `Arc<dyn MemBackend<T>>` and the registry
/// builds them by name. All methods take `&self` — implementations are
/// internally synchronized (or, like the handmade pool, thread-private by
/// construction) so one backend instance serves all worker threads.
pub trait MemBackend<T: Structured>: Send + Sync {
    /// Registry/display name ("ptmalloc", "amplify", …).
    fn name(&self) -> &str;

    /// Allocate one structure.
    fn alloc(&self, params: &T::Params) -> Allocation<T>;

    /// Free a structure previously returned by [`MemBackend::alloc`].
    fn free(&self, allocation: Allocation<T>);

    /// Uniform statistics snapshot.
    fn stats(&self) -> BackendStats;

    /// Release parked/cached memory where the strategy supports it.
    fn trim(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Blob(Vec<u8>);
    impl Reusable for Blob {
        type Params = u32;
        fn fresh(p: &u32) -> Self {
            Blob(vec![0; *p as usize])
        }
        fn reinit(&mut self, p: &u32) {
            self.0.resize(*p as usize, 0);
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
            self.0.len() as u64
        }
    }

    #[test]
    fn footprint_sums_node_sizes() {
        assert_eq!(Blob::footprint(&64), 64);
    }

    #[test]
    fn allocation_is_two_words_and_keeps_its_byte_count() {
        assert_eq!(std::mem::size_of::<PoolBox<Blob>>(), 8);
        assert_eq!(std::mem::size_of::<Allocation<Blob>>(), 16);
        let pooled = Allocation::new(PoolBox::new(Blob::fresh(&4)), Vec::new(), 1 << 40);
        assert_eq!((pooled.bytes(), pooled.tail.pooled_bytes()), (1 << 40, Some(1 << 40)));
        let huge = Allocation::new(PoolBox::new(Blob::fresh(&4)), Vec::new(), u64::MAX);
        assert_eq!((huge.bytes(), huge.tail.pooled_bytes()), (u64::MAX, None));
        let raw =
            Allocation::with_nodes(PoolBox::new(Blob::fresh(&4)), Nodes::Raw(vec![(8, 4)]), 4);
        assert_eq!(raw.bytes(), 4);
        assert!(matches!(raw.tail.into_nodes(), Some(Nodes::Raw(v)) if v == [(8, 4)]));
    }

    #[test]
    fn allocation_derefs_to_object() {
        let a = Allocation::new(Box::new(Blob::fresh(&8)), Vec::new(), 8);
        assert_eq!(a.checksum(), 8);
        assert_eq!(a.bytes(), 8);
        assert_eq!(a.into_object().0.len(), 8);
    }

    #[test]
    fn stats_accessors_and_hit_rate() {
        let s = BackendStats::new(10, 9, 6, 4, 2, 128);
        assert_eq!(s.allocs(), 10);
        assert_eq!(s.frees(), 9);
        assert_eq!(s.pool_hits(), 6);
        assert_eq!(s.fresh_allocs(), 4);
        assert_eq!(s.contention_events(), 2);
        assert_eq!(s.live_bytes(), 128);
    }
}
