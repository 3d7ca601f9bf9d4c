//! Shared building block for the allocator models: one locked heap with
//! its own address space and metadata cache line.

use crate::addr::AddrSpace;
use crate::engine::LockId;
use crate::model::MicroOp;

/// Region ids 500+ are reserved for allocator metadata so metadata lines
/// never collide with application data.
const META_REGION_BASE: u64 = 500;

/// The metadata address (free-list head) of heap `index`. Each heap's
/// metadata lives on its own cache line; every malloc/free writes it, so
/// cross-CPU use of one heap ping-pongs this line — the cache cost of a
/// shared allocator.
pub(crate) fn meta_addr(index: usize) -> u64 {
    (META_REGION_BASE + index as u64) << 32
}

/// One lockable heap: a lock id, an address space, and its metadata line.
#[derive(Debug)]
pub(crate) struct HeapCore {
    pub(crate) lock: LockId,
    pub(crate) space: AddrSpace,
    pub(crate) meta: u64,
}

impl HeapCore {
    /// Create heap `index` using lock id `lock` and address region
    /// `region`.
    pub(crate) fn new(index: usize, lock: LockId, region: u32) -> Self {
        HeapCore { lock, space: AddrSpace::new(region), meta: meta_addr(index) }
    }

    /// Emit the micro-ops for one malloc of `size` bytes under this heap's
    /// lock and return the block address. `cost` is the allocator's
    /// per-call work.
    pub(crate) fn malloc_ops(&mut self, ops: &mut Vec<MicroOp>, size: u32, cost: u64) -> u64 {
        let addr = self.space.alloc(size);
        ops.push(MicroOp::Acquire(self.lock));
        ops.push(MicroOp::Work(cost));
        ops.push(MicroOp::Touch { addr: self.meta, write: true });
        ops.push(MicroOp::Release(self.lock));
        addr
    }

    /// Emit the micro-ops for one free.
    pub(crate) fn free_ops(&mut self, ops: &mut Vec<MicroOp>, addr: u64, size: u32, cost: u64) {
        self.space.free(addr, size);
        ops.push(MicroOp::Acquire(self.lock));
        ops.push(MicroOp::Work(cost));
        ops.push(MicroOp::Touch { addr: self.meta, write: true });
        ops.push(MicroOp::Release(self.lock));
    }
}

/// A monotonically increasing handle generator.
#[derive(Debug, Default)]
pub(crate) struct HandleGen(u64);

impl HandleGen {
    /// Next unique handle. (Not an `Iterator`: handles are infinite and
    /// never `None`.)
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn next(&mut self) -> u64 {
        self.0 += 1;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_addrs_are_distinct_lines() {
        assert_ne!(meta_addr(0) / 64, meta_addr(1) / 64);
    }

    #[test]
    fn malloc_free_ops_shape() {
        let mut h = HeapCore::new(0, 7, 3);
        let mut ops = Vec::new();
        let addr = h.malloc_ops(&mut ops, 20, 900);
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], MicroOp::Acquire(7)));
        assert!(matches!(ops[3], MicroOp::Release(7)));
        h.free_ops(&mut ops, addr, 20, 700);
        assert_eq!(ops.len(), 8);
    }

    #[test]
    fn handles_are_unique() {
        let mut g = HandleGen::default();
        let a = g.next();
        let b = g.next();
        assert_ne!(a, b);
    }
}
