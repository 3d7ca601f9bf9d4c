//! Per-class object pools: the free list behind Amplify's generated
//! `operator new` / `operator delete`. The list is intrusive, threaded
//! through the parked objects' slot headers ([`SlotList`]), so a parked
//! object keeps its own contents — links to children included — intact.

use crate::fault;
use crate::limits::PoolConfig;
use crate::obs::pool_hist;
use crate::pool_box::{PoolBox, SlotList};
use crate::stats::PoolStats;
use parking_lot::Mutex;
use std::cell::RefCell;
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
        self.release_parked(obj.into());
    }

    /// [`ObjectPool::release`], reporting whether the object was parked
    /// (`false`: the cap dropped it).
    pub(crate) fn release_parked(&self, obj: PoolBox<T>) -> bool {
        let mut free = self.free.lock();
        self.stats.record_lock();
        if self.config.accepts_object(free.len()) {
            free.push(obj);
            self.stats.record_release();
            true
        } else {
            drop(free);
            self.stats.record_refused();
            // obj drops here, returning memory to the system allocator —
            // the paper's "returning memory from the pools ... when the
            // pools exceed a certain limit".
            false
        }
    }

    /// Try to return an object without blocking. On lock failure the object
    /// is handed back to the caller.
    pub fn try_release(&self, obj: PoolBox<T>) -> Result<(), PoolBox<T>> {
        self.try_release_parked(obj).map(|_| ())
    }

    /// [`ObjectPool::try_release`], reporting whether the object was parked.
    pub(crate) fn try_release_parked(&self, obj: PoolBox<T>) -> Result<bool, PoolBox<T>> {
        match self.free.try_lock() {
            Some(mut free) => {
                self.stats.record_lock();
                let parked = self.config.accepts_object(free.len());
                if parked {
                    free.push(obj);
                    self.stats.record_release();
                } else {
                    self.stats.record_refused();
                }
                Ok(parked)
            }
            None => {
                self.stats.record_failed_lock();
                Err(obj)
            }
        }
    }

    /// Take up to `max` parked objects under one lock, from the top of the
    /// free list (the most recently released, cache-warm end). Batch
    /// transfers count one lock acquisition and no per-object hits — the
    /// magazine layer does its own hit accounting.
    pub(crate) fn take_batch(&self, max: usize) -> SlotList<T> {
        let mut free = self.free.lock();
        self.stats.record_lock();
        Self::split_top(&mut free, max)
    }

    /// Non-blocking [`ObjectPool::take_batch`]. `Err(())` means the shard
    /// lock is held (recorded as a failed lock attempt).
    #[allow(clippy::result_unit_err)]
    pub(crate) fn try_take_batch(&self, max: usize) -> Result<SlotList<T>, ()> {
        match self.free.try_lock() {
            Some(mut free) => {
                self.stats.record_lock();
                Ok(Self::split_top(&mut free, max))
            }
            None => {
                self.stats.record_failed_lock();
                Err(())
            }
        }
    }

    /// The top `max` objects of `free`.
    fn split_top(free: &mut SlotList<T>, max: usize) -> SlotList<T> {
        let rest = free.split_off(max);
        let batch = std::mem::replace(free, rest);
        pool_hist!("pools.free_list_len", free.len());
        batch
    }

    /// Park a whole batch under one lock. Objects over the population cap
    /// are dropped (outside the lock — their destructors may be arbitrary
    /// user code). Returns how many were parked.
    pub(crate) fn put_batch(&self, items: SlotList<T>) -> usize {
        let free = self.free.lock();
        self.stats.record_lock();
        self.admit(free, items)
    }

    /// Non-blocking [`ObjectPool::put_batch`]. On contention the items come
    /// back and the caller can spill to another shard.
    pub(crate) fn try_put_batch(&self, items: SlotList<T>) -> Result<usize, SlotList<T>> {
        match self.free.try_lock() {
            Some(free) => {
                self.stats.record_lock();
                Ok(self.admit(free, items))
            }
            None => {
                self.stats.record_failed_lock();
                Err(items)
            }
        }
    }

    /// Put the top of `items` on the free list as far as the cap admits;
    /// the rest drops after the lock is released.
    fn admit(
        &self,
        mut free: parking_lot::MutexGuard<'_, SlotList<T>>,
        mut items: SlotList<T>,
    ) -> usize {
        let room = match self.config.max_objects {
            Some(max) => max.saturating_sub(free.len()),
            None => usize::MAX,
        };
        let rejected = items.split_off(room);
        let parked = items.len();
        free.append(items);
        pool_hist!("pools.free_list_len", free.len());
        drop(free);
        if !rejected.is_empty() {
            self.stats.record_dropped_many(rejected.len() as u64);
        }
        drop(rejected);
        parked
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

/// A single-threaded pool with no locking at all.
///
/// The pre-processor "automatically removes all unnecessary locks" when the
/// program is not threaded (§5.1) — this type is that code path, and the
/// reason Amplify beats every allocator even at one thread in Figures 4–6.
#[derive(Debug)]
pub struct LocalPool<T> {
    free: RefCell<Vec<Box<T>>>,
    config: PoolConfig,
    hits: std::cell::Cell<u64>,
    fresh: std::cell::Cell<u64>,
}

impl<T> Default for LocalPool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> LocalPool<T> {
    /// An empty, unbounded, lock-free (single-thread) pool.
    pub fn new() -> Self {
        Self::with_config(PoolConfig::default())
    }

    /// An empty pool with explicit limits.
    pub fn with_config(config: PoolConfig) -> Self {
        LocalPool {
            free: RefCell::new(Vec::new()),
            config,
            hits: std::cell::Cell::new(0),
            fresh: std::cell::Cell::new(0),
        }
    }

    /// Take an object from the pool, or build one with `fresh`.
    pub fn acquire(&self, fresh: impl FnOnce() -> T) -> Box<T> {
        match self.free.borrow_mut().pop() {
            Some(b) => {
                self.hits.set(self.hits.get() + 1);
                b
            }
            None => {
                self.fresh.set(self.fresh.get() + 1);
                Box::new(fresh())
            }
        }
    }

    /// Return an object to the free list (or drop it at the cap).
    pub fn release(&self, obj: Box<T>) {
        let mut free = self.free.borrow_mut();
        if self.config.accepts_object(free.len()) {
            free.push(obj);
        }
    }

    /// Number of parked objects.
    pub fn len(&self) -> usize {
        self.free.borrow().len()
    }

    /// True if no objects are parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocations served by reuse.
    pub fn pool_hits(&self) -> u64 {
        self.hits.get()
    }

    /// Allocations that built a fresh object.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh.get()
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

    #[test]
    fn local_pool_reuses_without_locks() {
        let pool: LocalPool<String> = LocalPool::new();
        let s = pool.acquire(|| "hello".to_string());
        pool.release(s);
        let s2 = pool.acquire(String::new);
        assert_eq!(&*s2, "hello");
        assert_eq!(pool.pool_hits(), 1);
        assert_eq!(pool.fresh_allocs(), 1);
    }

    #[test]
    fn local_pool_respects_cap() {
        let pool: LocalPool<u8> =
            LocalPool::with_config(PoolConfig { max_objects: Some(1), ..Default::default() });
        pool.release(Box::new(1));
        pool.release(Box::new(2));
        assert_eq!(pool.len(), 1);
    }
}
