//! The handmade structure pool: the paper's "theoretical maximum of what an
//! optimizing pre-processor could do" (Figure 10).
//!
//! The programmer writing pools by hand (§3.1) knows things the
//! pre-processor cannot: which thread uses which pool (so no locks are
//! needed at all — "the programmer keeps track of which pools are used by
//! which threads and manually avoids simultaneous allocations"), and the
//! exact template shapes (so there is no shard-probing or reorganization
//! overhead).

use crate::addr::AddrSpace;
use crate::model::{AllocModel, MicroOp, SimView, StructShape};
use crate::models::common::{meta_addr, HandleGen};
use crate::params::CostParams;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Parked {
    node_size: u32,
    node_addrs: Vec<u64>,
}

/// Per-thread, lock-free structure pools with `init()`-style private
/// pre-allocation.
///
/// Unlike Amplify (which starts with empty pools and falls back to the
/// shared `malloc`, interleaving neighbouring threads' structures in
/// memory), the handmade pools pre-allocate each pool's templates in bulk
/// from per-thread arenas — so no lock is ever taken and no cache line is
/// shared between threads. Structure misses still pay the allocation
/// *work*, but privately.
pub(crate) struct HandmadeModel {
    /// Per-thread private address regions (4000+t to stay clear of the
    /// other models' regions).
    spaces: HashMap<usize, AddrSpace>,
    /// (class, thread) → parked structures.
    pools: HashMap<(u32, usize), Vec<Parked>>,
    handles: HandleGen,
    live: HashMap<u64, (u32, Parked)>,
    params: CostParams,
    pool_hits: u64,
    misses: u64,
}

impl Default for HandmadeModel {
    fn default() -> Self {
        Self::new()
    }
}

impl HandmadeModel {
    /// New model with calibrated costs.
    pub(crate) fn new() -> Self {
        Self::with_params(CostParams::default())
    }

    /// New model with explicit costs.
    pub(crate) fn with_params(params: CostParams) -> Self {
        HandmadeModel {
            spaces: HashMap::new(),
            pools: HashMap::new(),
            handles: HandleGen::default(),
            live: HashMap::new(),
            params,
            pool_hits: 0,
            misses: 0,
        }
    }

    /// The private metadata line of one thread's pool set.
    fn pool_meta(thread: usize) -> u64 {
        meta_addr(3000 + thread)
    }

    /// Allocate a fresh structure from the thread's private arena: the
    /// allocation work is charged, but there is no lock and no sharing.
    fn fresh(&mut self, thread: usize, shape: &StructShape, ops: &mut Vec<MicroOp>) -> Parked {
        let space =
            self.spaces.entry(thread).or_insert_with(|| AddrSpace::new(4000 + thread as u32));
        let node_addrs: Vec<u64> = (0..shape.nodes).map(|_| space.alloc(shape.node_size)).collect();
        ops.push(MicroOp::Work(self.params.malloc_serial_ns * shape.nodes as u64));
        Parked { node_size: shape.node_size, node_addrs }
    }
}

impl AllocModel for HandmadeModel {
    fn name(&self) -> &'static str {
        "handmade"
    }

    fn alloc_structure(
        &mut self,
        _view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> u64 {
        ops.push(MicroOp::Work(self.params.pool_op_ns));
        ops.push(MicroOp::Touch { addr: Self::pool_meta(thread), write: true });
        let popped = self.pools.entry((shape.class_id, thread)).or_default().pop();
        let parked = match popped {
            Some(p)
                if p.node_size == shape.node_size && p.node_addrs.len() >= shape.nodes as usize =>
            {
                self.pool_hits += 1;
                p
            }
            Some(mut p) if p.node_size == shape.node_size => {
                // Template smaller than requested: extend (cold-path only —
                // the programmer's template normally covers the common case).
                self.pool_hits += 1;
                let missing = shape.nodes as usize - p.node_addrs.len();
                let delta = StructShape {
                    class_id: shape.class_id,
                    nodes: missing as u32,
                    node_size: shape.node_size,
                };
                let extra = self.fresh(thread, &delta, ops);
                p.node_addrs.extend(extra.node_addrs);
                p
            }
            _ => {
                self.misses += 1;
                self.fresh(thread, shape, ops)
            }
        };
        addrs.extend_from_slice(&parked.node_addrs[..shape.nodes as usize]);
        let handle = self.handles.next();
        self.live.insert(handle, (shape.class_id, parked));
        handle
    }

    fn free_structure(
        &mut self,
        _view: &mut dyn SimView,
        thread: usize,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        let (class, parked) = self.live.remove(&handle).expect("free of unknown handle");
        self.pools.entry((class, thread)).or_default().push(parked);
        ops.push(MicroOp::Work(self.params.pool_op_ns));
        ops.push(MicroOp::Touch { addr: Self::pool_meta(thread), write: true });
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pool_hits", self.pool_hits),
            ("misses", self.misses),
            ("footprint_bytes", self.spaces.values().map(|s| s.footprint()).sum()),
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
    fn hit_path_has_no_locks_at_all() {
        let mut m = HandmadeModel::new();
        let shape = StructShape::binary_tree(3, 20);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert!(b.ops.iter().all(|o| !matches!(o, MicroOp::Acquire(_))));
        assert_eq!(m.pool_hits, 1);
    }

    #[test]
    fn pools_are_private_per_thread() {
        let mut m = HandmadeModel::new();
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        // Thread 1 cannot reuse thread 0's structure.
        let _b = m.alloc_structure_owned(&mut NullView, 1, &shape);
        assert_eq!(m.pool_hits, 0);
        assert_eq!(m.misses, 2);
    }

    #[test]
    fn hit_is_cheaper_than_amplify_hit() {
        // Two ops (work + touch) versus Amplify's four (lock, work, touch,
        // unlock) — the gap Figure 10 shows.
        let mut m = HandmadeModel::new();
        let shape = StructShape::binary_tree(1, 20);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert_eq!(b.ops.len(), 2);
    }
}
