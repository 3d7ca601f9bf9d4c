//! The ptmalloc model: multiple arenas; a thread sticks to an arena until a
//! try-lock probe finds it busy, then spins to the next one (§6).

use crate::model::{AllocModel, MicroOp, SimView, StructShape};
use crate::models::common::{HandleGen, HeapCore};
use crate::params::CostParams;
use std::collections::HashMap;

/// Multi-arena allocator model.
#[derive(Debug)]
pub(crate) struct PtmallocModel {
    arenas: Vec<HeapCore>,
    /// thread → current arena.
    current: HashMap<usize, usize>,
    handles: HandleGen,
    /// handle → blocks as (arena, addr, size).
    live: HashMap<u64, Vec<(usize, u64, u32)>>,
    /// Recycled block lists (freed structures donate their `Vec`).
    spare: Vec<Vec<(usize, u64, u32)>>,
    params: CostParams,
    arena_switches: u64,
    mallocs: u64,
    frees: u64,
}

impl PtmallocModel {
    /// Model with `arenas` sub-heaps (ptmalloc sizes this near the CPU
    /// count).
    #[cfg(test)]
    pub(crate) fn new(arenas: usize) -> Self {
        Self::with_params(arenas, CostParams::default())
    }

    /// Model with explicit costs.
    pub(crate) fn with_params(arenas: usize, params: CostParams) -> Self {
        assert!(arenas >= 1);
        PtmallocModel {
            arenas: (0..arenas).map(|i| HeapCore::new(i, i, i as u32 + 1)).collect(),
            current: HashMap::new(),
            handles: HandleGen::default(),
            live: HashMap::new(),
            spare: Vec::new(),
            params,
            arena_switches: 0,
            mallocs: 0,
            frees: 0,
        }
    }

    /// Pick the arena for `thread`, spinning past locked arenas, appending
    /// probe ops to `ops`. As in real ptmalloc, every thread starts on the
    /// main arena and only spreads out when it observes contention.
    fn select_arena(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        ops: &mut Vec<MicroOp>,
    ) -> usize {
        let n = self.arenas.len();
        let start = *self.current.entry(thread).or_insert(0);
        for off in 0..n {
            let idx = (start + off) % n;
            if view.lock_held(self.arenas[idx].lock) {
                // Busy: record the failed probe and spin onward.
                view.record_failed_lock();
                ops.push(MicroOp::Work(self.params.probe_ns));
                continue;
            }
            if off != 0 {
                self.current.insert(thread, idx);
                self.arena_switches += 1;
            }
            return idx;
        }
        // Everything looked busy: stay with the current arena and wait.
        start
    }
}

impl AllocModel for PtmallocModel {
    fn name(&self) -> &'static str {
        "ptmalloc"
    }

    fn alloc_structure(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> u64 {
        let arena = self.select_arena(view, thread, ops);
        let mut blocks = self.spare.pop().unwrap_or_default();
        for _ in 0..shape.nodes {
            let addr =
                self.arenas[arena].malloc_ops(ops, shape.node_size, self.params.malloc_arena_ns);
            addrs.push(addr);
            blocks.push((arena, addr, shape.node_size));
            self.mallocs += 1;
        }
        let handle = self.handles.next();
        self.live.insert(handle, blocks);
        handle
    }

    fn free_structure(
        &mut self,
        _view: &mut dyn SimView,
        _thread: usize,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        let mut blocks = self.live.remove(&handle).expect("free of unknown handle");
        for &(arena, addr, size) in &blocks {
            // Frees are pinned to the owning arena.
            self.arenas[arena].free_ops(ops, addr, size, self.params.free_arena_ns);
            self.frees += 1;
        }
        blocks.clear();
        self.spare.push(blocks);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mallocs", self.mallocs),
            ("frees", self.frees),
            ("arena_switches", self.arena_switches),
            ("footprint_bytes", self.arenas.iter().map(|a| a.space.footprint()).sum()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AllocModelExt;

    struct FakeView {
        held: Vec<usize>,
        failed: u64,
    }

    impl SimView for FakeView {
        fn lock_held(&self, lock: usize) -> bool {
            self.held.contains(&lock)
        }
        fn record_failed_lock(&mut self) {
            self.failed += 1;
        }
    }

    #[test]
    fn uncontended_threads_share_the_main_arena() {
        // Real ptmalloc: everyone starts on the main arena; spreading only
        // happens under observed contention.
        let mut m = PtmallocModel::new(4);
        let mut v = FakeView { held: vec![], failed: 0 };
        let shape = StructShape::binary_tree(1, 20);
        let a0 = m.alloc_structure_owned(&mut v, 0, &shape);
        let a1 = m.alloc_structure_owned(&mut v, 1, &shape);
        assert_eq!(a0.node_addrs[0] >> 32, a1.node_addrs[0] >> 32);
    }

    #[test]
    fn busy_arena_causes_spill_and_failed_lock() {
        let mut m = PtmallocModel::new(4);
        // Thread 0's home arena (index 0, lock 0) is busy.
        let mut v = FakeView { held: vec![0], failed: 0 };
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut v, 0, &shape);
        assert_eq!(v.failed, 1);
        assert_eq!(m.arena_switches, 1);
        // A probe Work op precedes the usual malloc ops.
        assert!(matches!(a.ops[0], MicroOp::Work(_)));
        // Thread 0 now sticks to the new arena even after lock 0 frees.
        v.held.clear();
        let b = m.alloc_structure_owned(&mut v, 0, &shape);
        assert_eq!(b.node_addrs[0] >> 32, a.node_addrs[0] >> 32);
    }

    #[test]
    fn free_returns_to_owning_arena() {
        let mut m = PtmallocModel::new(2);
        let mut v = FakeView { held: vec![], failed: 0 };
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut v, 0, &shape);
        let home_lock = m.current[&0];
        let ops = m.free_structure_owned(&mut v, 0, a.handle);
        for op in &ops {
            if let MicroOp::Acquire(l) = op {
                assert_eq!(*l, home_lock);
            }
        }
    }

    #[test]
    fn all_arenas_busy_falls_back_to_waiting() {
        let mut m = PtmallocModel::new(2);
        let mut v = FakeView { held: vec![0, 1], failed: 0 };
        let shape = StructShape::binary_tree(1, 20);
        let _a = m.alloc_structure_owned(&mut v, 0, &shape);
        assert_eq!(v.failed, 2, "both probes failed");
    }
}
