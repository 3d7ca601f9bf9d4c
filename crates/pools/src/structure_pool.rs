//! Structure pools: free lists whose reusable unit is a whole *object
//! structure* — a root object keeping its references to children intact
//! (§2.1 of the paper).
//!
//! Compared to a per-class object pool, acquiring a `Car` from a structure
//! pool yields the complete car with engine, wheels and chassis in **one**
//! pool operation instead of one per sub-object. The
//! [`Reusable`] trait supplies the two member functions handmade pools add
//! to every class (§3.1): `recycle` (the `destroy()` replacement for the
//! destructor) and `reinit` (the `init()` replacement for the constructor).
//!
//! The pool behind it is one [`ShardedPool`], in any of its layouts:
//! [`StructurePool::new`] and [`StructurePool::with_config`] build the
//! single locked free list (one shard, no magazines); the sharded
//! constructors pick the shard count and magazine capacity.
//!
//! `alloc` goes through the pool's acquire entry, so under the
//! `fault-inject` feature an injected allocation failure degrades to a
//! freshly built structure there (see [`crate::fault`]) — `alloc` never
//! fails and never panics, whatever the fault schedule.

use crate::limits::PoolConfig;
use crate::pool_box::PoolBox;
use crate::sharded::ShardedPool;
use crate::stats::StatsSnapshot;

/// Implemented by types whose instances can be parked and revived with
/// their internal structure intact.
pub trait Reusable {
    /// The parameters `init()` takes (e.g. `numberOfWheels` for a `Car`).
    type Params;

    /// Build a fresh structure on the heap (the pool-miss path).
    fn fresh(params: &Self::Params) -> Self;

    /// Re-initialize a parked structure for new use (the pool-hit path).
    /// Must leave `self` indistinguishable from `Self::fresh(params)` from
    /// the caller's point of view, while reusing as much of the existing
    /// structure as possible.
    fn reinit(&mut self, params: &Self::Params);

    /// Release external resources (files, sockets) before parking — the
    /// `destroy()` of handmade pools. Memory and child links must be kept.
    fn recycle(&mut self) {}
}

/// A thread-safe pool of whole structures.
#[derive(Debug)]
pub struct StructurePool<T: Reusable> {
    pool: ShardedPool<T>,
}

impl<T: Reusable> Default for StructurePool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Reusable> StructurePool<T> {
    /// An empty, unbounded structure pool: one locked free list.
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// An empty single-list structure pool with limits.
    pub fn with_config(config: PoolConfig) -> Self {
        Self::new_sharded_with_magazines(1, config, 0)
    }

    /// An empty structure pool sharded over `shards` depot stacks with
    /// thread-local magazines in front — the configuration for structures
    /// allocated and freed concurrently from many threads.
    pub fn new_sharded(shards: usize) -> Self {
        StructurePool { pool: ShardedPool::new(shards) }
    }

    /// A sharded structure pool with an explicit per-thread magazine
    /// capacity; `magazine_cap == 0` disables the thread caches and yields
    /// bare try-lock-and-spill sharding over locked free lists (the
    /// pre-magazine Amplify layout, kept as a comparison backend).
    pub fn new_sharded_with_magazines(
        shards: usize,
        config: PoolConfig,
        magazine_cap: usize,
    ) -> Self {
        StructurePool { pool: ShardedPool::with_magazines(shards, config, magazine_cap) }
    }
}

impl<T: Reusable + 'static> StructurePool<T> {
    /// Allocate a structure: one pool access regardless of how many
    /// sub-objects the structure contains.
    pub fn alloc(&self, params: &T::Params) -> PoolBox<T> {
        self.alloc_sized(params, 0)
    }

    /// [`StructurePool::alloc`] that also books `bytes` (the structure's
    /// footprint, say) in the pool's net byte ledger, reported as
    /// `StatsSnapshot::live_bytes`. Free it with
    /// [`StructurePool::free_sized`] and the same count.
    #[inline(always)]
    pub fn alloc_sized(&self, params: &T::Params, bytes: u64) -> PoolBox<T> {
        self.pool.acquire_sized(|| T::fresh(params), |t| t.reinit(params), bytes)
    }

    /// Free a structure: run `recycle` (the destructor chain) and park the
    /// whole thing, links intact.
    pub fn free(&self, structure: impl Into<PoolBox<T>>) {
        self.free_sized(structure, 0);
    }

    /// [`StructurePool::free`] that also takes `bytes` out of the net byte
    /// ledger.
    #[inline(always)]
    pub fn free_sized(&self, structure: impl Into<PoolBox<T>>, bytes: u64) {
        let mut structure = structure.into();
        structure.recycle();
        self.pool.release_sized(structure, bytes);
    }

    /// Number of parked structures, in every tier.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True if no structures are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all parked structures.
    pub fn trim(&self) -> usize {
        self.pool.trim()
    }

    /// Pool statistics, aggregated across shards and magazines.
    pub fn stats(&self) -> StatsSnapshot {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature of the paper's Figure 1 car: a root with nested
    /// heap-allocated parts.
    #[derive(Debug)]
    struct Car {
        // Boxed on purpose: tests assert wheel *addresses* survive reuse.
        #[allow(clippy::vec_box)]
        wheels: Vec<Box<Wheel>>,
        engine: Option<Box<Engine>>,
        doors: u32,
    }

    #[derive(Debug)]
    struct Wheel {
        #[allow(dead_code)] // payload only; tests assert on identity
        radius: u32,
    }

    #[derive(Debug)]
    struct Engine {
        name: String,
    }

    struct CarParams {
        wheels: usize,
        engine: &'static str,
        doors: u32,
    }

    impl Reusable for Car {
        type Params = CarParams;

        fn fresh(p: &CarParams) -> Self {
            Car {
                wheels: (0..p.wheels).map(|_| Box::new(Wheel { radius: 16 })).collect(),
                engine: Some(Box::new(Engine { name: p.engine.to_string() })),
                doors: p.doors,
            }
        }

        fn reinit(&mut self, p: &CarParams) {
            // Reuse existing wheels; adjust the count if it differs (the
            // "overhead of reorganizing the structure" — §3.2).
            while self.wheels.len() > p.wheels {
                self.wheels.pop();
            }
            while self.wheels.len() < p.wheels {
                self.wheels.push(Box::new(Wheel { radius: 16 }));
            }
            match &mut self.engine {
                Some(e) => {
                    e.name.clear();
                    e.name.push_str(p.engine);
                }
                none => *none = Some(Box::new(Engine { name: p.engine.to_string() })),
            }
            self.doors = p.doors;
        }

        fn recycle(&mut self) {
            // Nothing external to release; structure is kept as-is.
        }
    }

    #[test]
    fn structure_reuse_is_one_pool_op() {
        let pool: StructurePool<Car> = StructurePool::new();
        let p = CarParams { wheels: 4, engine: "V8", doors: 5 };
        let car = pool.alloc(&p);
        assert_eq!(car.wheels.len(), 4);
        pool.free(car);
        let car2 = pool.alloc(&p);
        assert_eq!(pool.stats().pool_hits(), 1);
        assert_eq!(pool.stats().fresh_allocs(), 1);
        assert_eq!(car2.wheels.len(), 4);
        assert_eq!(car2.engine.as_ref().unwrap().name, "V8");
    }

    #[test]
    fn child_allocations_survive_reuse() {
        let pool: StructurePool<Car> = StructurePool::new();
        let p = CarParams { wheels: 2, engine: "I4", doors: 3 };
        let car = pool.alloc(&p);
        let wheel_addr = &*car.wheels[0] as *const Wheel;
        pool.free(car);
        let car2 = pool.alloc(&p);
        // Temporal locality: identical structure → same child allocation.
        assert_eq!(&*car2.wheels[0] as *const Wheel, wheel_addr);
    }

    #[test]
    fn structure_shape_change_reorganizes() {
        let pool: StructurePool<Car> = StructurePool::new();
        let car = pool.alloc(&CarParams { wheels: 8, engine: "V8", doors: 2 });
        pool.free(car);
        let car2 = pool.alloc(&CarParams { wheels: 4, engine: "I4", doors: 5 });
        assert_eq!(car2.wheels.len(), 4);
        assert_eq!(car2.engine.as_ref().unwrap().name, "I4");
        assert_eq!(car2.doors, 5);
        assert_eq!(pool.stats().pool_hits(), 1);
    }

    #[test]
    fn pool_cap_applies_to_structures() {
        let pool: StructurePool<Car> =
            StructurePool::with_config(PoolConfig { max_objects: Some(1), ..Default::default() });
        let p = CarParams { wheels: 1, engine: "E", doors: 1 };
        let a = pool.alloc(&p);
        let b = pool.alloc(&p);
        pool.free(a);
        pool.free(b);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.stats().dropped(), 1);
    }

    #[test]
    fn sharded_backend_reuses_whole_structures() {
        let pool: StructurePool<Car> = StructurePool::new_sharded(2);
        let p = CarParams { wheels: 4, engine: "V8", doors: 5 };
        let car = pool.alloc(&p);
        pool.free(car);
        let car2 = pool.alloc(&p);
        assert_eq!(pool.stats().pool_hits(), 1);
        assert_eq!(car2.wheels.len(), 4);
        pool.free(car2);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.trim(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn trim_returns_memory() {
        let pool: StructurePool<Car> = StructurePool::new();
        let p = CarParams { wheels: 4, engine: "V8", doors: 5 };
        let car = pool.alloc(&p);
        pool.free(car);
        assert_eq!(pool.trim(), 1);
        assert!(pool.is_empty());
    }
}
