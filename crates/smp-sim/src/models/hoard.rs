//! The Hoard model: one heap per processor, selected by **thread-id
//! modulation** — the detail the paper singles out (§5.1) as the reason
//! Hoard stops scaling once threads outnumber processors: two threads whose
//! ids collide modulo the heap count always share a lock.

use crate::model::{AllocModel, MicroOp, SimView, StructShape};
use crate::models::common::{HandleGen, HeapCore};
use crate::params::CostParams;
use std::collections::HashMap;

/// Per-processor-heap allocator model.
#[derive(Debug)]
pub(crate) struct HoardModel {
    heaps: Vec<HeapCore>,
    handles: HandleGen,
    live: HashMap<u64, Vec<(usize, u64, u32)>>,
    /// Recycled block lists (freed structures donate their `Vec`).
    spare: Vec<Vec<(usize, u64, u32)>>,
    params: CostParams,
    mallocs: u64,
    frees: u64,
    remote_frees: u64,
}

impl HoardModel {
    /// One heap per processor.
    #[cfg(test)]
    pub(crate) fn new(processors: usize) -> Self {
        Self::with_params(processors, CostParams::default())
    }

    /// Model with explicit costs.
    pub(crate) fn with_params(processors: usize, params: CostParams) -> Self {
        assert!(processors >= 1);
        HoardModel {
            heaps: (0..processors).map(|i| HeapCore::new(i, i, i as u32 + 1)).collect(),
            handles: HandleGen::default(),
            live: HashMap::new(),
            spare: Vec::new(),
            params,
            mallocs: 0,
            frees: 0,
            remote_frees: 0,
        }
    }

    /// Thread-id modulation.
    fn heap_for(&self, thread: usize) -> usize {
        thread % self.heaps.len()
    }
}

impl AllocModel for HoardModel {
    fn name(&self) -> &'static str {
        "hoard"
    }

    fn alloc_structure(
        &mut self,
        _view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> u64 {
        let heap = self.heap_for(thread);
        let mut blocks = self.spare.pop().unwrap_or_default();
        for _ in 0..shape.nodes {
            let addr =
                self.heaps[heap].malloc_ops(ops, shape.node_size, self.params.malloc_arena_ns);
            addrs.push(addr);
            blocks.push((heap, addr, shape.node_size));
            self.mallocs += 1;
        }
        let handle = self.handles.next();
        self.live.insert(handle, blocks);
        handle
    }

    fn free_structure(
        &mut self,
        _view: &mut dyn SimView,
        thread: usize,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        let mut blocks = self.live.remove(&handle).expect("free of unknown handle");
        let my_heap = self.heap_for(thread);
        for &(heap, addr, size) in &blocks {
            if heap != my_heap {
                self.remote_frees += 1;
            }
            self.heaps[heap].free_ops(ops, addr, size, self.params.free_arena_ns);
            self.frees += 1;
        }
        blocks.clear();
        self.spare.push(blocks);
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("mallocs", self.mallocs),
            ("frees", self.frees),
            ("remote_frees", self.remote_frees),
            ("footprint_bytes", self.heaps.iter().map(|h| h.space.footprint()).sum()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AllocModelExt;

    struct NullView;
    impl SimView for NullView {
        fn lock_held(&self, _: usize) -> bool {
            false
        }
        fn record_failed_lock(&mut self) {}
    }

    #[test]
    fn threads_collide_modulo_heaps() {
        let m = HoardModel::new(8);
        assert_eq!(m.heap_for(0), m.heap_for(8));
        assert_eq!(m.heap_for(3), m.heap_for(11));
        assert_ne!(m.heap_for(0), m.heap_for(1));
    }

    #[test]
    fn colliding_threads_share_lock() {
        let mut m = HoardModel::new(2);
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        let b = m.alloc_structure_owned(&mut NullView, 2, &shape);
        let lock_of = |ops: &[MicroOp]| {
            ops.iter()
                .find_map(|o| match o {
                    MicroOp::Acquire(l) => Some(*l),
                    _ => None,
                })
                .unwrap()
        };
        assert_eq!(lock_of(&a.ops), lock_of(&b.ops));
    }

    #[test]
    fn cross_heap_free_is_counted_remote() {
        let mut m = HoardModel::new(2);
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        // Thread 1 (heap 1) frees thread 0's structure (heap 0).
        m.free_structure_owned(&mut NullView, 1, a.handle);
        assert_eq!(m.remote_frees, 3, "all 3 nodes were remote");
    }
}
