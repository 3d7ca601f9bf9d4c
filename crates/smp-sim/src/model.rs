//! The allocator-model interface: how a memory-management strategy plugs
//! into the simulator.
//!
//! A model does **real bookkeeping** — arenas, free lists, pools with
//! actual (simulated) addresses — and expands each application-level
//! request into *micro-ops* (work, lock traffic, memory touches) whose
//! timing the engine accounts. Reuse behaviour, contention and false
//! sharing therefore emerge from mechanism rather than from curve fitting.

use crate::engine::LockId;

/// A single timed action issued by a model or by the application layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Busy CPU time in nanoseconds.
    Work(u64),
    /// Acquire a mutex (blocks if held).
    Acquire(LockId),
    /// Release a mutex.
    Release(LockId),
    /// Access one byte address (the cache model prices it).
    Touch { addr: u64, write: bool },
}

/// The shape of one object structure to allocate: `nodes` objects of
/// `node_size` bytes each, rooted in class `class_id` (Table 1: depth-d
/// binary trees have `2^(d+1)-1` nodes of 20 bytes — 28 when amplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StructShape {
    pub class_id: u32,
    pub nodes: u32,
    pub node_size: u32,
}

impl StructShape {
    /// A binary tree of the given depth, as in the paper's test cases.
    /// Depth 1 → 3 nodes, depth 3 → 15, depth 5 → 63.
    pub fn binary_tree(depth: u32, node_size: u32) -> Self {
        StructShape { class_id: 0, nodes: (1u32 << (depth + 1)) - 1, node_size }
    }
}

/// Owned result of expanding a structure allocation (the
/// [`AllocModelExt`] convenience form; the engine itself uses the
/// buffer-based trait methods to avoid per-event allocations).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct StructAlloc {
    /// The timed operations to execute.
    pub(crate) ops: Vec<MicroOp>,
    /// Opaque handle the model will receive back on free.
    pub(crate) handle: u64,
    /// Addresses of the structure's nodes (the application layer touches
    /// these during init/destroy).
    pub(crate) node_addrs: Vec<u64>,
}

/// Owned result of expanding a raw array allocation (BGw data-type
/// arrays).
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct ArrayAlloc {
    pub(crate) handle: u64,
    /// Base address of the array.
    pub(crate) addr: u64,
}

/// Read access to simulator state at model-decision time, plus the
/// failed-lock counter models bump when a try-lock probe finds an arena
/// busy (the signal ptmalloc keys on).
pub trait SimView {
    /// True if the given lock is currently held by any thread.
    fn lock_held(&self, lock: LockId) -> bool;
    /// Record a failed try-lock probe.
    fn record_failed_lock(&mut self);
}

/// A memory-management strategy under simulation.
///
/// The expansion methods **append** to caller-provided buffers instead of
/// returning fresh `Vec`s: the engine recycles those buffers across
/// events, so a steady-state simulation step performs no heap allocation
/// for micro-op plumbing. Buffers may arrive non-empty (layered models
/// pass the same buffers through to their base model) — only ever append.
pub trait AllocModel: Send {
    /// Display name for benchmark output.
    fn name(&self) -> &'static str;

    /// Expand "allocate one structure of `shape`" for `thread`: append
    /// the timed operations to `ops` and the structure's node addresses
    /// (which the application layer touches during init/destroy) to
    /// `addrs`. Returns the opaque handle passed back on free.
    fn alloc_structure(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> u64;

    /// Expand "free the structure previously returned with `handle`",
    /// appending the timed operations to `ops`.
    fn free_structure(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    );

    /// Expand "allocate a `size`-byte data array in shadow slot `slot`"
    /// (BGw extension), appending timed operations to `ops`; `addrs` is
    /// scratch space for delegation. Returns `(handle, base_address)`.
    /// Default: a 1-node structure of class `ARRAY_CLASS` — i.e. a plain
    /// malloc.
    fn alloc_array(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        size: u32,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> (u64, u64) {
        let _ = slot;
        let shape = StructShape { class_id: ARRAY_CLASS, nodes: 1, node_size: size };
        let mark = addrs.len();
        let handle = self.alloc_structure(view, thread, &shape, ops, addrs);
        (handle, addrs[mark])
    }

    /// Expand "free the data array `handle` from shadow slot `slot`",
    /// appending the timed operations to `ops`.
    fn free_array(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        let _ = slot;
        self.free_structure(view, thread, handle, ops);
    }

    /// Model-specific counters for reports (pool hits, arena switches, ...).
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Owned-result convenience wrappers over the buffer-based [`AllocModel`]
/// methods — handy in tests and one-off callers where the per-call `Vec`
/// cost does not matter.
#[cfg(test)]
pub(crate) trait AllocModelExt: AllocModel {
    /// [`AllocModel::alloc_structure`] returning owned buffers.
    fn alloc_structure_owned(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
    ) -> StructAlloc {
        let mut ops = Vec::new();
        let mut node_addrs = Vec::new();
        let handle = self.alloc_structure(view, thread, shape, &mut ops, &mut node_addrs);
        StructAlloc { ops, handle, node_addrs }
    }

    /// [`AllocModel::free_structure`] returning owned ops.
    fn free_structure_owned(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        handle: u64,
    ) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        self.free_structure(view, thread, handle, &mut ops);
        ops
    }

    /// [`AllocModel::alloc_array`] returning owned ops.
    fn alloc_array_owned(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        size: u32,
    ) -> ArrayAlloc {
        let mut ops = Vec::new();
        let mut scratch = Vec::new();
        let (handle, addr) = self.alloc_array(view, thread, slot, size, &mut ops, &mut scratch);
        ArrayAlloc { handle, addr }
    }

    /// [`AllocModel::free_array`] returning owned ops.
    fn free_array_owned(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        handle: u64,
    ) -> Vec<MicroOp> {
        let mut ops = Vec::new();
        self.free_array(view, thread, slot, handle, &mut ops);
        ops
    }
}

#[cfg(test)]
impl<M: AllocModel + ?Sized> AllocModelExt for M {}

/// Pseudo class id used for raw data arrays.
pub(crate) const ARRAY_CLASS: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_tree_shapes_match_table_1() {
        assert_eq!(StructShape::binary_tree(1, 20).nodes, 3);
        assert_eq!(StructShape::binary_tree(3, 20).nodes, 15);
        assert_eq!(StructShape::binary_tree(5, 20).nodes, 63);
    }
}
