//! The Amplify model: per-class structure pools sharded ptmalloc-style,
//! shadow-reallocated data arrays, lock elision in single-threaded runs,
//! and a pluggable *base* allocator for pool misses and for the
//! non-preprocessable "library" allocations of §5.2.
//!
//! Bookkeeping is real: pools hold actual parked structures with their node
//! addresses, so reuse (and the resulting cache behaviour) emerges from the
//! workload's temporal locality rather than from an assumed hit rate.

use crate::model::{AllocModel, MicroOp, SimView, StructShape, ARRAY_CLASS};
use crate::models::common::{meta_addr, HandleGen};
use crate::params::CostParams;
use std::collections::HashMap;

/// Class id the BGw workload uses for allocations made from library code
/// that the pre-processor cannot see; Amplify passes them straight to the
/// base allocator.
pub(crate) const LIBRARY_CLASS: u32 = u32::MAX - 1;

/// Lock ids 100+ belong to Amplify's shard locks (base models use 0..100).
const SHARD_LOCK_BASE: usize = 100;

/// A parked structure: everything needed to revive it or hand it back to
/// the base allocator.
#[derive(Debug, Clone)]
struct Parked {
    node_size: u32,
    base_handles: Vec<u64>,
    node_addrs: Vec<u64>,
}

/// A parked (shadowed) data array.
#[derive(Debug, Clone, Copy)]
struct ParkedArray {
    base_handle: u64,
    addr: u64,
    cap: u32,
}

#[derive(Debug)]
enum Record {
    Structure { class: u32, parked: Parked },
    Library { base_handle: u64 },
    Array { base_handle: u64, addr: u64, cap: u32 },
}

/// Configuration for the Amplify model (§5.2's overhead controls).
#[derive(Debug, Clone, Copy)]
pub struct AmplifyConfig {
    /// Number of simulated application threads (1 ⇒ locks are elided, as
    /// the pre-processor does for non-threaded programs).
    pub(crate) threads: usize,
    /// Pool shards per class (the ptmalloc-style spreading).
    pub(crate) shards: usize,
    /// Maximum parked structures per (class, shard).
    pub max_per_pool: Option<usize>,
    /// Maximum shadowed array size in bytes.
    pub(crate) max_shadow_bytes: Option<u32>,
    /// The half-size reuse rule for shadowed arrays.
    pub(crate) half_size_rule: bool,
    /// Pool object structures. When `false`, only data-type arrays are
    /// shadowed (the §5.2 variant: "if only data type arrays were
    /// shadowed") and object allocations pass through to the base.
    pub(crate) amplify_objects: bool,
}

impl AmplifyConfig {
    /// The synthetic-benchmark configuration: unbounded pools.
    pub fn synthetic(threads: usize, shards: usize) -> Self {
        AmplifyConfig {
            threads,
            shards,
            max_per_pool: None,
            max_shadow_bytes: None,
            half_size_rule: true,
            amplify_objects: true,
        }
    }

    /// The BGw configuration with the §5.2 caps.
    pub(crate) fn bgw(threads: usize, shards: usize) -> Self {
        AmplifyConfig {
            threads,
            shards,
            max_per_pool: Some(256),
            max_shadow_bytes: Some(64 * 1024),
            half_size_rule: true,
            amplify_objects: true,
        }
    }

    /// The §5.2 arrays-only variant: shadow data-type arrays, pass object
    /// allocations through to the base allocator.
    pub(crate) fn bgw_arrays_only(threads: usize, shards: usize) -> Self {
        AmplifyConfig { amplify_objects: false, ..Self::bgw(threads, shards) }
    }
}

/// The Amplify allocator model.
pub struct AmplifyModel {
    base: Box<dyn AllocModel>,
    cfg: AmplifyConfig,
    params: CostParams,
    /// (class, shard) → parked structures, LIFO.
    pools: HashMap<(u32, usize), Vec<Parked>>,
    /// thread → preferred shard.
    preferred: HashMap<usize, usize>,
    /// (thread, slot) → parked array shadow.
    shadows: HashMap<(usize, u64), ParkedArray>,
    /// thread → consecutive times its home shard was observed locked.
    fail_streak: HashMap<usize, u32>,
    handles: HandleGen,
    live: HashMap<u64, Record>,
    pool_hits: u64,
    partial_hits: u64,
    misses: u64,
    lib_allocs: u64,
    shadow_hits: u64,
    shadow_misses: u64,
    dropped: u64,
    waste_nodes: u64,
}

impl AmplifyModel {
    /// Build over a base allocator model (what `malloc` resolves to when a
    /// pool is empty — the paper's "normal dynamic memory manager").
    #[cfg(test)]
    pub(crate) fn new(cfg: AmplifyConfig, base: Box<dyn AllocModel>) -> Self {
        Self::with_params(cfg, base, CostParams::default())
    }

    /// Build with explicit costs.
    pub fn with_params(cfg: AmplifyConfig, base: Box<dyn AllocModel>, params: CostParams) -> Self {
        assert!(cfg.shards >= 1);
        AmplifyModel {
            base,
            cfg,
            params,
            pools: HashMap::new(),
            preferred: HashMap::new(),
            shadows: HashMap::new(),
            fail_streak: HashMap::new(),
            handles: HandleGen::default(),
            live: HashMap::new(),
            pool_hits: 0,
            partial_hits: 0,
            misses: 0,
            lib_allocs: 0,
            shadow_hits: 0,
            shadow_misses: 0,
            dropped: 0,
            waste_nodes: 0,
        }
    }

    fn shard_lock(&self, class: u32, shard: usize) -> usize {
        SHARD_LOCK_BASE + (class as usize) * self.cfg.shards + shard
    }

    fn pool_meta(&self, class: u32, shard: usize) -> u64 {
        meta_addr(1000 + (class as usize) * self.cfg.shards + shard)
    }

    /// Pick a shard, spinning past locked ones — ptmalloc's strategy:
    /// every thread starts on the main pool (shard 0) and only moves when a
    /// try-lock probe finds it busy. Amplify's critical sections are so
    /// short that probes rarely fail, so threads tend to *stay together* on
    /// few shards — "no failed locks, but undesirable cache effects" is the
    /// paper's own diagnosis of test case 1 (§5.1), and it emerges here.
    fn select_shard(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        class: u32,
        ops: &mut Vec<MicroOp>,
    ) -> usize {
        /// Consecutive failed probes before a thread re-homes — the
        /// "blocked too often" frequency criterion. Because Amplify's
        /// critical sections are short, this threshold is rarely reached
        /// and failed-lock counts stay very low (§5.1's measurement); the
        /// scalability limit that remains is cache-line sharing between
        /// neighbouring threads' structures, not locking.
        const MOVE_THRESHOLD: u32 = 4;

        let n = self.cfg.shards;
        let home = *self.preferred.entry(thread).or_insert(thread % n);
        if self.cfg.threads == 1 {
            return home;
        }
        if !view.lock_held(self.shard_lock(class, home)) {
            self.fail_streak.insert(thread, 0);
            return home;
        }
        view.record_failed_lock();
        ops.push(MicroOp::Work(self.params.probe_ns));
        let streak = self.fail_streak.entry(thread).or_insert(0);
        *streak += 1;
        if *streak < MOVE_THRESHOLD {
            // Tolerate the contention: wait on the home shard.
            return home;
        }
        *streak = 0;
        // Re-home: spin to the next unlocked shard.
        for off in 1..n {
            let idx = (home + off) % n;
            if view.lock_held(self.shard_lock(class, idx)) {
                view.record_failed_lock();
                ops.push(MicroOp::Work(self.params.probe_ns));
                continue;
            }
            self.preferred.insert(thread, idx);
            return idx;
        }
        home
    }

    /// Emit one pool critical section (lock elided for 1 thread).
    fn pool_section(&self, ops: &mut Vec<MicroOp>, class: u32, shard: usize) {
        if self.cfg.threads > 1 {
            ops.push(MicroOp::Acquire(self.shard_lock(class, shard)));
        }
        ops.push(MicroOp::Work(self.params.pool_op_ns));
        ops.push(MicroOp::Touch { addr: self.pool_meta(class, shard), write: true });
        if self.cfg.threads > 1 {
            ops.push(MicroOp::Release(self.shard_lock(class, shard)));
        }
    }

    fn base_fresh(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
    ) -> Parked {
        let mut node_addrs = Vec::with_capacity(shape.nodes as usize);
        let handle = self.base.alloc_structure(view, thread, shape, ops, &mut node_addrs);
        Parked { node_size: shape.node_size, base_handles: vec![handle], node_addrs }
    }

    fn base_release(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        parked: Parked,
        ops: &mut Vec<MicroOp>,
    ) {
        for h in parked.base_handles {
            self.base.free_structure(view, thread, h, ops);
        }
    }
}

impl AllocModel for AmplifyModel {
    fn name(&self) -> &'static str {
        "amplify"
    }

    fn alloc_structure(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        shape: &StructShape,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> u64 {
        // Library code was not pre-processed — and in the arrays-only
        // variant no object class is: straight to the base allocator.
        if shape.class_id == LIBRARY_CLASS || !self.cfg.amplify_objects {
            if shape.class_id == LIBRARY_CLASS {
                self.lib_allocs += 1;
            }
            let base_handle = self.base.alloc_structure(view, thread, shape, ops, addrs);
            let handle = self.handles.next();
            self.live.insert(handle, Record::Library { base_handle });
            return handle;
        }

        let shard = self.select_shard(view, thread, shape.class_id, ops);
        self.pool_section(ops, shape.class_id, shard);
        let popped = self.pools.entry((shape.class_id, shard)).or_default().pop();

        let parked = match popped {
            Some(p)
                if p.node_size == shape.node_size && p.node_addrs.len() >= shape.nodes as usize =>
            {
                // Temporal-locality hit: the whole structure is revived in
                // one pool operation. Surplus nodes stay attached (the
                // paper's eight-wheel template overhead).
                self.pool_hits += 1;
                self.waste_nodes += (p.node_addrs.len() - shape.nodes as usize) as u64;
                p
            }
            Some(mut p) if p.node_size == shape.node_size => {
                // Smaller structure parked: reuse it and extend with fresh
                // nodes — the "overhead of reorganizing the structure".
                self.partial_hits += 1;
                let missing = shape.nodes as usize - p.node_addrs.len();
                let delta = StructShape {
                    class_id: shape.class_id,
                    nodes: missing as u32,
                    node_size: shape.node_size,
                };
                let extra = self.base_fresh(view, thread, &delta, ops);
                p.base_handles.extend(extra.base_handles);
                p.node_addrs.extend(extra.node_addrs);
                p
            }
            Some(p) => {
                // Node size mismatch (different instantiation of the class):
                // return the parked structure to the heap and start over.
                self.misses += 1;
                self.base_release(view, thread, p, ops);
                self.base_fresh(view, thread, shape, ops)
            }
            None => {
                // Pool empty: the normal dynamic memory manager serves the
                // request (§3.2).
                self.misses += 1;
                self.base_fresh(view, thread, shape, ops)
            }
        };

        addrs.extend_from_slice(&parked.node_addrs[..shape.nodes as usize]);
        let handle = self.handles.next();
        self.live.insert(handle, Record::Structure { class: shape.class_id, parked });
        handle
    }

    fn free_structure(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        match self.live.remove(&handle).expect("free of unknown handle") {
            Record::Library { base_handle } => {
                self.base.free_structure(view, thread, base_handle, ops)
            }
            Record::Structure { class, parked } => {
                let shard = self.select_shard(view, thread, class, ops);
                self.pool_section(ops, class, shard);
                let pool = self.pools.entry((class, shard)).or_default();
                let at_cap = self.cfg.max_per_pool.is_some_and(|max| pool.len() >= max);
                if at_cap {
                    self.dropped += 1;
                    self.base_release(view, thread, parked, ops);
                } else {
                    pool.push(parked);
                }
            }
            Record::Array { base_handle, .. } => {
                // A structure-free of an array handle: treat as real free.
                self.base.free_structure(view, thread, base_handle, ops)
            }
        }
    }

    fn alloc_array(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        size: u32,
        ops: &mut Vec<MicroOp>,
        addrs: &mut Vec<u64>,
    ) -> (u64, u64) {
        if let Some(parked) = self.shadows.remove(&(thread, slot)) {
            let fits = size <= parked.cap;
            let rule = !self.cfg.half_size_rule || size >= parked.cap / 2;
            if fits && rule {
                // `buffer = realloc(bufferShadow, length)` reusing the
                // shadow block: no lock, no heap traffic.
                self.shadow_hits += 1;
                ops.push(MicroOp::Work(self.params.pool_op_ns));
                let handle = self.handles.next();
                self.live.insert(
                    handle,
                    Record::Array {
                        base_handle: parked.base_handle,
                        addr: parked.addr,
                        cap: parked.cap,
                    },
                );
                return (handle, parked.addr);
            }
            // Shadow unusable: really free it, then allocate fresh.
            self.base.free_structure(view, thread, parked.base_handle, ops);
        }
        self.shadow_misses += 1;
        let shape = StructShape { class_id: ARRAY_CLASS, nodes: 1, node_size: size };
        let mark = addrs.len();
        let base_handle = self.base.alloc_structure(view, thread, &shape, ops, addrs);
        let addr = addrs[mark];
        let handle = self.handles.next();
        self.live.insert(handle, Record::Array { base_handle, addr, cap: size });
        (handle, addr)
    }

    fn free_array(
        &mut self,
        view: &mut dyn SimView,
        thread: usize,
        slot: u64,
        handle: u64,
        ops: &mut Vec<MicroOp>,
    ) {
        match self.live.remove(&handle).expect("free of unknown array handle") {
            Record::Array { base_handle, addr, cap } => {
                ops.push(MicroOp::Work(self.params.pool_op_ns / 2));
                let cap_ok = self.cfg.max_shadow_bytes.is_none_or(|max| cap <= max);
                if cap_ok {
                    // `bufferShadow = buffer`: park it. A displaced previous
                    // shadow (possible after slot reuse races) is freed.
                    if let Some(old) =
                        self.shadows.insert((thread, slot), ParkedArray { base_handle, addr, cap })
                    {
                        self.base.free_structure(view, thread, old.base_handle, ops);
                    }
                } else {
                    // Oversized: delete as normal (§5.2's maximum size for
                    // shadowed memory).
                    self.dropped += 1;
                    self.base.free_structure(view, thread, base_handle, ops);
                }
            }
            other => {
                // Tolerate a structure handle routed here.
                self.live.insert(handle, other);
                self.free_structure(view, thread, handle, ops);
            }
        }
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        let parked_structures: u64 = self.pools.values().map(|p| p.len() as u64).sum();
        let parked_nodes: u64 =
            self.pools.values().flat_map(|p| p.iter().map(|s| s.node_addrs.len() as u64)).sum();
        let mut v = vec![
            ("pool_hits", self.pool_hits),
            ("partial_hits", self.partial_hits),
            ("misses", self.misses),
            ("lib_allocs", self.lib_allocs),
            ("shadow_hits", self.shadow_hits),
            ("shadow_misses", self.shadow_misses),
            ("dropped", self.dropped),
            ("waste_nodes", self.waste_nodes),
            ("parked_structures", parked_structures),
            ("parked_nodes", parked_nodes),
        ];
        for (k, val) in self.base.counters() {
            v.push((k, val));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AllocModelExt;
    use crate::models::serial::SerialModel;

    struct NullView;
    impl SimView for NullView {
        fn lock_held(&self, _: usize) -> bool {
            false
        }
        fn record_failed_lock(&mut self) {}
    }

    fn model(threads: usize) -> AmplifyModel {
        AmplifyModel::new(AmplifyConfig::synthetic(threads, 4), Box::new(SerialModel::new()))
    }

    fn lock_ops(ops: &[MicroOp]) -> usize {
        ops.iter().filter(|o| matches!(o, MicroOp::Acquire(_))).count()
    }

    #[test]
    fn miss_then_hit_reuses_node_addresses() {
        let mut m = model(2);
        let shape = StructShape::binary_tree(3, 28);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert_eq!(m.misses, 1);
        let addrs = a.node_addrs.clone();
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert_eq!(m.pool_hits, 1);
        assert_eq!(b.node_addrs, addrs, "temporal locality: same structure back");
        // The hit path is one pool section — exactly one lock round-trip.
        assert_eq!(lock_ops(&b.ops), 1);
    }

    #[test]
    fn single_thread_elides_locks() {
        let mut m = model(1);
        let shape = StructShape::binary_tree(1, 28);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        // Fresh path still uses the base allocator's lock (3 nodes), but
        // the pool section itself adds none.
        let first_locks = lock_ops(&a.ops);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert_eq!(lock_ops(&b.ops), 0, "hit path is completely lock-free");
        assert_eq!(first_locks, 3, "cold path delegates to serial malloc per node");
    }

    #[test]
    fn oversized_parked_structure_reused_with_waste() {
        let mut m = model(2);
        let big = StructShape::binary_tree(3, 28); // 15 nodes
        let small = StructShape::binary_tree(1, 28); // 3 nodes
        let a = m.alloc_structure_owned(&mut NullView, 0, &big);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &small);
        assert_eq!(m.pool_hits, 1);
        assert_eq!(b.node_addrs.len(), 3);
        assert_eq!(m.waste_nodes, 12);
        // Freeing the small structure parks all 15 nodes again.
        m.free_structure_owned(&mut NullView, 0, b.handle);
        let c = m.alloc_structure_owned(&mut NullView, 0, &big);
        assert_eq!(c.node_addrs.len(), 15);
        assert_eq!(m.pool_hits, 2);
    }

    #[test]
    fn undersized_parked_structure_extends() {
        let mut m = model(2);
        let small = StructShape::binary_tree(1, 28);
        let big = StructShape::binary_tree(3, 28);
        let a = m.alloc_structure_owned(&mut NullView, 0, &small);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let b = m.alloc_structure_owned(&mut NullView, 0, &big);
        assert_eq!(m.partial_hits, 1);
        assert_eq!(b.node_addrs.len(), 15);
    }

    #[test]
    fn pool_cap_spills_to_base() {
        let mut cfg = AmplifyConfig::synthetic(2, 1);
        cfg.max_per_pool = Some(1);
        let mut m = AmplifyModel::new(cfg, Box::new(SerialModel::new()));
        let shape = StructShape::binary_tree(1, 28);
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        let b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        m.free_structure_owned(&mut NullView, 0, b.handle);
        assert_eq!(m.dropped, 1);
    }

    #[test]
    fn library_allocations_bypass_pools() {
        let mut m = model(2);
        let shape = StructShape { class_id: LIBRARY_CLASS, nodes: 2, node_size: 32 };
        let a = m.alloc_structure_owned(&mut NullView, 0, &shape);
        m.free_structure_owned(&mut NullView, 0, a.handle);
        let _b = m.alloc_structure_owned(&mut NullView, 0, &shape);
        assert_eq!(m.pool_hits, 0);
        assert_eq!(m.lib_allocs, 2);
    }

    #[test]
    fn shadow_array_half_size_rule() {
        let mut m = model(2);
        let a = m.alloc_array_owned(&mut NullView, 0, 7, 1000);
        m.free_array_owned(&mut NullView, 0, 7, a.handle);
        // Within [cap/2, cap]: reuse.
        let b = m.alloc_array_owned(&mut NullView, 0, 7, 600);
        assert_eq!(m.shadow_hits, 1);
        assert_eq!(b.addr, a.addr);
        m.free_array_owned(&mut NullView, 0, 7, b.handle);
        // Below half: fresh allocation.
        let c = m.alloc_array_owned(&mut NullView, 0, 7, 100);
        assert_eq!(m.shadow_hits, 1);
        assert_eq!(m.shadow_misses, 2, "initial allocation + below-half request");
        let _ = c;
    }

    #[test]
    fn max_shadow_size_limits_parking() {
        let mut cfg = AmplifyConfig::synthetic(2, 1);
        cfg.max_shadow_bytes = Some(512);
        let mut m = AmplifyModel::new(cfg, Box::new(SerialModel::new()));
        let a = m.alloc_array_owned(&mut NullView, 0, 1, 4096);
        m.free_array_owned(&mut NullView, 0, 1, a.handle);
        let b = m.alloc_array_owned(&mut NullView, 0, 1, 4096);
        assert_eq!(m.shadow_hits, 0, "oversized blocks are never shadowed");
        assert_eq!(m.dropped, 1);
        let _ = b;
    }
}
