//! Simulated address-space bookkeeping for allocator models.
//!
//! Models hand out *addresses* (not storage) so that the cache model can
//! price the application's memory touches. An [`AddrSpace`] behaves like a
//! simple size-classed freelist allocator: freed blocks of a size are
//! reused LIFO, fresh blocks bump-allocate. This reproduces the address
//! *reuse geometry* of a real allocator — in particular, small blocks
//! allocated back-to-back by different threads from a shared space end up
//! on the same cache lines, which is where false sharing comes from.

use std::collections::BTreeMap;

/// One contiguous simulated region with freelist reuse.
#[derive(Debug)]
pub(crate) struct AddrSpace {
    base: u64,
    next: u64,
    free: BTreeMap<u32, Vec<u64>>,
}

impl AddrSpace {
    /// Create the address space for `region` (regions are 4 GiB apart so
    /// different arenas never share cache lines).
    pub(crate) fn new(region: u32) -> Self {
        let base = (region as u64) << 32;
        AddrSpace { base, next: base, free: BTreeMap::new() }
    }

    /// Allocate `size` bytes, 8-byte aligned; reuses a freed block of the
    /// same (rounded) size if available.
    pub(crate) fn alloc(&mut self, size: u32) -> u64 {
        let size = Self::round(size);
        if let Some(list) = self.free.get_mut(&size) {
            if let Some(addr) = list.pop() {
                return addr;
            }
        }
        let addr = self.next;
        self.next += size as u64;
        addr
    }

    /// Return a block for later reuse.
    pub(crate) fn free(&mut self, addr: u64, size: u32) {
        let size = Self::round(size);
        debug_assert!(addr >= self.base && addr < self.next, "foreign address");
        self.free.entry(size).or_default().push(addr);
    }

    /// Total bytes ever bump-allocated (footprint).
    pub(crate) fn footprint(&self) -> u64 {
        self.next - self.base
    }

    #[inline]
    fn round(size: u32) -> u32 {
        ((size.max(1)) + 7) & !7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_then_reuse_lifo() {
        let mut a = AddrSpace::new(0);
        let x = a.alloc(20);
        let y = a.alloc(20);
        assert_eq!(y - x, 24, "8-byte rounding");
        a.free(x, 20);
        a.free(y, 20);
        assert_eq!(a.alloc(20), y, "LIFO reuse");
        assert_eq!(a.alloc(20), x);
        assert_eq!(a.footprint(), 48);
    }

    #[test]
    fn different_sizes_do_not_alias() {
        let mut a = AddrSpace::new(0);
        let x = a.alloc(16);
        a.free(x, 16);
        let y = a.alloc(32);
        assert_ne!(x, y, "different size class must not reuse the block");
    }

    #[test]
    fn interleaved_small_blocks_share_cache_lines() {
        // The false-sharing geometry: two "threads" allocating small
        // blocks back-to-back from one space end up with blocks *spanning*
        // shared 64-byte lines at the boundary.
        let mut a = AddrSpace::new(0);
        let t0: Vec<u64> = (0..3).map(|_| a.alloc(20)).collect();
        let t1: Vec<u64> = (0..3).map(|_| a.alloc(20)).collect();
        let lines = |v: &[u64]| -> std::collections::HashSet<u64> {
            v.iter().flat_map(|&x| [x / 64, (x + 19) / 64]).collect()
        };
        assert!(
            !lines(&t0).is_disjoint(&lines(&t1)),
            "expected a line shared across the thread boundary"
        );
    }
}
