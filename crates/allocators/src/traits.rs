//! The common interface of the baseline parallel allocators.

use crate::heap::HeapStats;

/// A handle to an allocated block: which internal arena/heap it lives in and
/// the payload offset inside that arena.
///
/// Handle-based rather than pointer-based so the allocators stay in safe
/// Rust; a handle plays the role of the `void*` a C allocator returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockRef {
    /// Index of the owning arena within the allocator.
    pub(crate) arena: u32,
    /// Payload byte offset within that arena.
    pub(crate) offset: u32,
}

/// A thread-safe allocator with malloc/free semantics.
///
/// The three implementations mirror the paper's comparison set:
///
/// * [`crate::serial::SerialAllocator`] — one heap under one lock (the
///   Solaris default allocator's behaviour);
/// * [`crate::ptmalloc::PtmallocAllocator`] — multiple arenas, try-lock
///   spill to the next arena on contention (Gloger's ptmalloc);
/// * [`crate::hoard::HoardAllocator`] — per-CPU heaps selected by thread-id
///   modulation (Berger et al.'s Hoard, as characterized in §5.1/§6).
pub trait ParallelAllocator: Send + Sync {
    /// Short display name (used by benchmark output).
    fn name(&self) -> &'static str;

    /// Allocate `size` bytes; never fails (arenas grow).
    fn alloc(&self, size: u32) -> BlockRef;

    /// Free a block previously returned by [`ParallelAllocator::alloc`].
    /// Blocks may be freed from any thread.
    fn free(&self, block: BlockRef);

    /// Number of lock acquisitions that found the lock contended.
    fn contention_events(&self) -> u64;

    /// Per-arena heap statistics.
    fn heap_stats(&self) -> Vec<HeapStats>;

    /// Total allocations across arenas.
    fn total_allocs(&self) -> u64 {
        self.heap_stats().iter().map(|s| s.allocs).sum()
    }

    /// Total frees across arenas.
    fn total_frees(&self) -> u64 {
        self.heap_stats().iter().map(|s| s.frees).sum()
    }

    /// Total live payload bytes across arenas.
    fn live_bytes(&self) -> u64 {
        self.heap_stats().iter().map(|s| s.live_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_ref_is_copy_and_hashable() {
        use std::collections::HashSet;
        let a = BlockRef { arena: 0, offset: 8 };
        let b = a;
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
