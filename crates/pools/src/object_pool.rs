//! Per-class object pools: the free list behind Amplify's generated
//! `operator new` / `operator delete`. The list is intrusive, threaded
//! through the parked objects' slot headers ([`SlotList`]), so a parked
//! object keeps its own contents — links to children included — intact.

use crate::fault;
use crate::limits::PoolConfig;
use crate::pool_box::{PoolBox, SlotList};
use crate::stats::PoolStats;
use parking_lot::Mutex;
use std::sync::Arc;

/// A thread-safe object pool for values of type `T`.
///
/// `acquire` pops a dead object from the free list (a *pool hit*) or builds
/// a fresh one with the supplied closure (a *fresh alloc* — the paper's
/// "only if the free list is empty a new piece of memory is allocated on
/// the heap"). `release` parks the object for later reuse, subject to the
/// [`PoolConfig`] population cap.
#[derive(Debug)]
pub struct ObjectPool<T> {
    free: Mutex<SlotList<T>>,
    config: PoolConfig,
    stats: Arc<PoolStats>,
}

impl<T> Default for ObjectPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ObjectPool<T> {
    /// An empty, unbounded pool. Pools start empty — Amplify performs no
    /// `init()` pre-allocation (§3.2).
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// An empty pool with explicit limits.
    pub fn with_config(config: PoolConfig) -> Self {
        ObjectPool { free: Mutex::new(SlotList::new()), config, stats: Arc::new(PoolStats::new()) }
    }

    /// Take an object from the pool, or build one with `fresh`.
    ///
    /// The returned box keeps whatever state the last release left in it
    /// when served from the pool; callers re-initialize, mirroring the
    /// `init()` discipline of handmade pools.
    pub fn acquire(&self, fresh: impl FnOnce() -> T) -> PoolBox<T> {
        if fault::fail_fresh_alloc() {
            return self.acquire_fallback(fresh);
        }
        self.acquire_with_inner(fresh, |_| {}).0
    }

    /// Like [`ObjectPool::acquire`], but re-initializes reused objects with
    /// `reinit` so callers always get a ready object.
    pub fn acquire_with(
        &self,
        fresh: impl FnOnce() -> T,
        reinit: impl FnOnce(&mut T),
    ) -> PoolBox<T> {
        if fault::fail_fresh_alloc() {
            return self.acquire_fallback(fresh);
        }
        self.acquire_with_inner(fresh, reinit).0
    }

    /// [`ObjectPool::acquire_with`] minus the fault-site draw, reporting
    /// whether the object came from the free list. Used by the sharded
    /// blocking fallback, which draws its fault decision at *its* entry —
    /// a second draw here would make the injection schedule depend on
    /// which shards happened to be contended.
    pub(crate) fn acquire_with_inner(
        &self,
        fresh: impl FnOnce() -> T,
        reinit: impl FnOnce(&mut T),
    ) -> (PoolBox<T>, bool) {
        let popped = {
            let mut free = self.free.lock();
            self.stats.record_lock();
            free.pop()
        };
        match popped {
            Some(mut b) => {
                self.stats.record_hit();
                reinit(&mut b);
                (b, true)
            }
            None => {
                self.stats.record_fresh();
                (PoolBox::new(fresh()), false)
            }
        }
    }

    /// Graceful degradation under an injected allocation failure: bypass
    /// the free list entirely and hand back a plain heap object, counted
    /// as a fresh alloc *plus* a fallback (see [`crate::fault`]).
    #[cold]
    fn acquire_fallback(&self, fresh: impl FnOnce() -> T) -> PoolBox<T> {
        self.stats.record_fresh();
        self.stats.record_fallback();
        PoolBox::new(fresh())
    }

    /// Try to take an object without blocking. Returns `Err(())` if the
    /// pool lock is currently held (counted as a failed lock attempt —
    /// the signal ptmalloc-style sharding keys on). The unit error carries
    /// exactly the information there is: "contended, try elsewhere".
    #[allow(clippy::result_unit_err)]
    pub fn try_acquire(&self) -> Result<Option<PoolBox<T>>, ()> {
        match self.free.try_lock() {
            Some(mut free) => {
                self.stats.record_lock();
                match free.pop() {
                    Some(b) => {
                        self.stats.record_hit();
                        Ok(Some(b))
                    }
                    None => Ok(None),
                }
            }
            None => {
                self.stats.record_failed_lock();
                Err(())
            }
        }
    }

    /// Return an object to the free list. If the pool is at its population
    /// cap the object is dropped (freed) instead.
    pub fn release(&self, obj: impl Into<PoolBox<T>>) {
        let obj = obj.into();
        let mut free = self.free.lock();
        self.stats.record_lock();
        if self.config.accepts_object(free.len()) {
            free.push(obj);
            self.stats.record_release();
        } else {
            drop(free);
            self.stats.record_refused();
            // obj drops here, returning memory to the system allocator —
            // the paper's "returning memory from the pools ... when the
            // pools exceed a certain limit".
        }
    }

    /// Try to return an object without blocking. On lock failure the object
    /// is handed back to the caller.
    pub fn try_release(&self, obj: PoolBox<T>) -> Result<(), PoolBox<T>> {
        match self.free.try_lock() {
            Some(mut free) => {
                self.stats.record_lock();
                if self.config.accepts_object(free.len()) {
                    free.push(obj);
                    self.stats.record_release();
                } else {
                    drop(free);
                    self.stats.record_refused();
                }
                Ok(())
            }
            None => {
                self.stats.record_failed_lock();
                Err(obj)
            }
        }
    }

    /// Number of dead objects currently parked.
    pub fn len(&self) -> usize {
        self.free.lock().len()
    }

    /// True if no objects are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all parked objects, returning their memory to the system —
    /// the paper's "returning memory from the pools to the operating system
    /// on demand".
    pub fn trim(&self) -> usize {
        // Destructors run after the lock is released.
        let parked = std::mem::take(&mut *self.free.lock());
        parked.len()
    }

    /// Shared statistics handle.
    pub fn stats(&self) -> &PoolStats {
        &self.stats
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_allocates_fresh() {
        let pool: ObjectPool<u64> = ObjectPool::new();
        assert!(pool.is_empty());
        let x = pool.acquire(|| 7);
        assert_eq!(*x, 7);
        assert_eq!(pool.stats().fresh_allocs(), 1);
        assert_eq!(pool.stats().pool_hits(), 0);
    }

    #[test]
    fn lifo_reuse() {
        let pool: ObjectPool<u64> = ObjectPool::new();
        let a = pool.acquire(|| 1);
        let b = pool.acquire(|| 2);
        pool.release(a);
        pool.release(b);
        // LIFO: most recently released comes back first (cache-warm reuse).
        let x = pool.acquire(|| 99);
        assert_eq!(*x, 2);
        let y = pool.acquire(|| 99);
        assert_eq!(*y, 1);
        assert_eq!(pool.stats().pool_hits(), 2);
    }

    #[test]
    fn reused_object_keeps_state_unless_reinit() {
        let pool: ObjectPool<Vec<u8>> = ObjectPool::new();
        let mut v = pool.acquire(Vec::new);
        v.extend_from_slice(&[1, 2, 3]);
        pool.release(v);
        let v2 = pool.acquire(Vec::new);
        assert_eq!(&*v2, &[1, 2, 3]);
        pool.release(v2);
        let v3 = pool.acquire_with(Vec::new, |v| v.clear());
        assert!(v3.is_empty());
    }

    #[test]
    fn population_cap_drops_excess() {
        let pool: ObjectPool<u64> =
            ObjectPool::with_config(PoolConfig { max_objects: Some(2), ..Default::default() });
        for i in 0..5 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().releases(), 2);
        assert_eq!(pool.stats().dropped(), 3);
    }

    #[test]
    fn trim_empties_pool() {
        let pool: ObjectPool<u64> = ObjectPool::new();
        for i in 0..4 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.trim(), 4);
        assert!(pool.is_empty());
    }

    #[test]
    fn try_acquire_counts_contention() {
        let pool: ObjectPool<u64> = ObjectPool::new();
        pool.release(Box::new(5));
        // Hold the lock on another thread and observe try_acquire failing.
        let guard = pool.free.lock();
        assert!(pool.try_acquire().is_err());
        assert_eq!(pool.stats().failed_locks(), 1);
        drop(guard);
        assert_eq!(pool.try_acquire().unwrap().map(|b| *b), Some(5));
    }

    #[test]
    fn concurrent_acquire_release() {
        use std::sync::Arc;
        let pool: Arc<ObjectPool<u64>> = Arc::new(ObjectPool::new());
        let mut handles = Vec::new();
        for t in 0..4 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    let b = p.acquire(|| t * 1000 + i);
                    p.release(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().total_allocs(), 2000);
        // Everything released: pool holds every distinct box created.
        assert_eq!(pool.len() as u64, pool.stats().fresh_allocs());
    }
}
