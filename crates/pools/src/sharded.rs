//! The typed object pool: the ptmalloc-derived sharding Amplify uses to
//! "spread the threads over a number of pools to avoid lock contention on
//! a multiprocessor" (§3.2), optionally fronted by lock-free thread-local
//! magazines (`crate::magazine`).
//!
//! Every Amplify layout is a `(shards, magazine_cap)` setting of
//! [`ShardedPool`]:
//!
//! | layout            | shards | magazine_cap | shared tier                |
//! |-------------------|--------|--------------|----------------------------|
//! | `amplify-local`   | 1      | 0            | one locked free list       |
//! | `amplify-sharded` | N      | 0            | N locked free lists        |
//! | `amplify`         | N      | 32           | N lock-free depot stacks   |
//!
//! **Magazine mode** (`magazine_cap > 0`): each thread gets a home shard
//! assigned round-robin on first touch and a small magazine of parked
//! objects. Steady-state acquire/release never locks: it pops/pushes the
//! magazine. Behind the magazines, each shard is a lock-free depot stack
//! of whole parked lists: a full magazine parks on its home shard's stack
//! in one CAS, an empty one swaps a list back in with one CAS (probing the
//! other shards' stacks after its own), and a miss there takes a fresh slot
//! from the size-class engine. No path takes a lock.
//!
//! **Direct mode** (`magazine_cap == 0`) is the bare §3.2 layout: one
//! locked free list per shard, try-lock-and-spill. Each thread has one
//! home cursor for every direct-mode pool, ptmalloc's per-thread arena:
//! contention *spins* the thread to the next shard, which becomes its
//! home. Direct mode never touches the magazine table.

use crate::fault;
use crate::limits::PoolConfig;
use crate::magazine::{self, Depot, Refill, DEFAULT_MAGAZINE_CAP};
use crate::pool_box::{PoolBox, SlotList};
use crate::stats::{PoolStats, StatsSnapshot};
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A typed object pool split into `n` shards: lock-free depot stacks
/// behind thread-local magazines, or locked free lists in direct mode.
#[derive(Debug)]
pub struct ShardedPool<T> {
    depot: Arc<Depot<T>>,
}

impl<T> ShardedPool<T> {
    /// Create a pool with `shards` shards (must be ≥ 1) and the default
    /// magazine capacity.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, PoolConfig::default())
    }

    /// Create a sharded pool with a population cap (see
    /// [`PoolConfig::max_objects`]).
    pub fn with_config(shards: usize, config: PoolConfig) -> Self {
        Self::with_magazines(shards, config, DEFAULT_MAGAZINE_CAP)
    }

    /// Create a sharded pool with an explicit per-thread magazine capacity.
    /// `magazine_cap == 0` disables magazines: every operation goes straight
    /// to locked shard free lists (direct mode; `(1, 0)` is one shared free
    /// list).
    pub fn with_magazines(shards: usize, config: PoolConfig, magazine_cap: usize) -> Self {
        ShardedPool { depot: Arc::new(Depot::new(shards, config, magazine_cap)) }
    }

    /// Number of shards.
    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.depot.shard_count()
    }

    /// Objects a thread's magazine may cache (0 = magazines disabled).
    #[cfg(test)]
    pub(crate) fn magazine_capacity(&self) -> usize {
        self.depot.magazine_cap
    }

    /// Total parked objects: the depot's parked lists, all thread
    /// magazines, and direct mode's shard free lists.
    pub fn len(&self) -> usize {
        self.depot.shards.iter().map(Shard::len).sum::<usize>()
            + self.depot.depot_parked()
            + self.depot.magazine_parked()
    }

    /// Objects cached in thread magazines (conservation diagnostics).
    pub fn magazine_parked(&self) -> usize {
        self.depot.magazine_parked()
    }

    /// Objects parked in lists on the depot (conservation diagnostics;
    /// exact at every instant in a capped pool).
    pub fn depot_parked(&self) -> usize {
        self.depot.depot_parked()
    }

    /// True if no tier holds a parked object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Aggregate statistics: per-shard counters plus the magazine fast
    /// path's hit/fresh/release counts and the net byte ledger.
    pub fn stats(&self) -> StatsSnapshot {
        self.depot.snapshot()
    }

    /// Direct mode's per-shard free-list lengths (for balance
    /// diagnostics); empty in magazine mode, which has no shard free lists.
    #[cfg(test)]
    pub(crate) fn shard_lengths(&self) -> Vec<usize> {
        self.depot.shards.iter().map(Shard::len).collect()
    }
}
impl<T: 'static> ShardedPool<T> {
    /// Acquire an object: magazine pop on the fast path, a one-CAS swap of
    /// a parked list from the depot on a miss, and a fresh slot from the
    /// size-class engine last.
    pub fn acquire(&self, fresh: impl FnOnce() -> T) -> PoolBox<T> {
        self.acquire_with(fresh, |_| {})
    }

    /// Like [`ShardedPool::acquire`], but re-initializes reused objects
    /// with `reinit` so callers always get a ready object.
    pub(crate) fn acquire_with(
        &self,
        fresh: impl FnOnce() -> T,
        reinit: impl FnOnce(&mut T),
    ) -> PoolBox<T> {
        self.acquire_sized(fresh, reinit, 0)
    }

    /// [`ShardedPool::acquire_with`] that also books `bytes` in the pool's
    /// net byte ledger ([`StatsSnapshot::live_bytes`]); release the object
    /// with [`ShardedPool::release_sized`] and the same count.
    #[inline(always)]
    pub(crate) fn acquire_sized(
        &self,
        fresh: impl FnOnce() -> T,
        reinit: impl FnOnce(&mut T),
        bytes: u64,
    ) -> PoolBox<T> {
        // The fault decision is drawn once, at entry, so an injection
        // schedule depends only on (seed, thread, op ordinal) — never on
        // which cache level would have served the request.
        if fault::fail_fresh_alloc() {
            return self.acquire_fallback(fresh, bytes);
        }
        if let Some(mut obj) = magazine::pop(&self.depot, bytes) {
            // The hit and its bytes were counted inside `pop` (the
            // magazine's owner-written cells).
            reinit(&mut obj);
            return obj;
        }
        self.acquire_cold(fresh, reinit, bytes)
    }

    /// Every acquire miss, outlined: a depot swap, or fresh allocation
    /// after it; direct mode goes to the shards, and a thread past TLS
    /// teardown takes one object from the depot. A swap books its bytes in
    /// the magazine's cells, the other paths after their hit or fresh
    /// count.
    #[cold]
    #[inline(never)]
    fn acquire_cold(
        &self,
        fresh: impl FnOnce() -> T,
        reinit: impl FnOnce(&mut T),
        bytes: u64,
    ) -> PoolBox<T> {
        let obj = match self.depot.magazine_cap {
            0 => self.acquire_direct(fresh, reinit),
            _ => match magazine::refill(&self.depot, bytes) {
                // The empty magazine swapped for a parked list from the
                // depot — one CAS, no locks, no per-object moves.
                Refill::Hit(mut obj) => {
                    reinit(&mut obj);
                    return obj;
                }
                Refill::Miss => self.acquire_fresh(fresh),
                Refill::Dead => match self.depot.acquire_dead() {
                    Some(mut obj) => {
                        reinit(&mut obj);
                        obj
                    }
                    None => self.acquire_fresh(fresh),
                },
            },
        };
        self.depot.stats.add_live_bytes(bytes as i64);
        obj
    }

    /// Fresh allocation: a new slot from the size-class engine. The
    /// constructor runs outside the magazine table hold (it is user code).
    fn acquire_fresh(&self, fresh: impl FnOnce() -> T) -> PoolBox<T> {
        self.depot.stats.record_fresh();
        PoolBox::new(fresh())
    }

    /// Graceful degradation under an injected allocation failure: skip
    /// every cache level and hand back a fresh slot, counted as a
    /// fresh alloc *plus* a fallback (see [`crate::fault`]) — never a
    /// panic, and never a change to what the caller observes.
    #[cold]
    #[inline(never)]
    fn acquire_fallback(&self, fresh: impl FnOnce() -> T, bytes: u64) -> PoolBox<T> {
        self.depot.stats.record_fresh();
        self.depot.stats.record_fallback();
        self.depot.stats.add_live_bytes(bytes as i64);
        PoolBox::new(fresh())
    }

    /// Release an object into the thread's magazine; a full magazine parks
    /// wholesale on the depot (one CAS; a capped pool drops what its bound
    /// does not admit).
    pub fn release(&self, obj: impl Into<PoolBox<T>>) {
        self.release_sized(obj, 0);
    }

    /// [`ShardedPool::release`] that also takes `bytes` out of the net byte
    /// ledger (the count the object was acquired with).
    #[inline(always)]
    pub(crate) fn release_sized(&self, obj: impl Into<PoolBox<T>>, bytes: u64) {
        // Counted inside `push` (the magazine's cells).
        if let Some(obj) = magazine::push(&self.depot, obj.into(), bytes) {
            self.release_cold(obj, bytes);
        }
    }

    /// Every release miss: magazine overflow, the shards (direct mode), or
    /// a one-object depot node (a thread past TLS teardown).
    #[cold]
    #[inline(never)]
    fn release_cold(&self, obj: PoolBox<T>, bytes: u64) {
        if self.depot.magazine_cap == 0 {
            return self.release_direct(obj, bytes);
        }
        if let Some(obj) = magazine::push_cold(&self.depot, obj, bytes) {
            self.depot.release_dead(obj, bytes);
        }
    }

    /// Drop all parked objects: direct mode's shards, or the calling
    /// thread's magazine and the depot. Objects cached by *other* threads
    /// are invalidated and drop lazily on those threads' next pool
    /// operation (they are still counted by [`ShardedPool::len`] until
    /// then, because they are still resident).
    pub fn trim(&self) -> usize {
        if self.depot.magazine_cap == 0 {
            let n: usize = self.depot.shards.iter().map(Shard::trim).sum();
            self.depot.guard.record_reclaim(n);
            return n;
        }
        let local = magazine::drain_local(&self.depot);
        let n_local = local.len();
        self.depot.guard.record_reclaim(n_local);
        drop(local);
        // Drain the depot stacks before bumping the epoch: a magazine
        // parked concurrently with the drain still carries the old epoch,
        // so the next swap recognizes it as stale and drops it then.
        let n_depot = self.depot.drain_depot();
        self.depot.bump_trim_epoch();
        n_local + n_depot
    }

    /// Park the calling thread's magazine contents on the depot as one
    /// parked list (without dropping them, unless a cap turns some away).
    /// Returns how many objects left the magazine (0 in direct mode).
    /// Useful before handing a pool's contents to another thread, and in
    /// tests.
    pub fn flush_local_magazine(&self) -> usize {
        if self.depot.magazine_cap == 0 {
            return 0;
        }
        magazine::flush_local(&self.depot)
    }

    /// Direct mode's acquire: pop from the shard [`Self::lock_shard`]
    /// picks, or build fresh on an empty one ("this arena").
    fn acquire_direct(&self, fresh: impl FnOnce() -> T, reinit: impl FnOnce(&mut T)) -> PoolBox<T> {
        let (shard, mut free) = self.lock_shard();
        let popped = free.pop();
        drop(free);
        match popped {
            Some(mut obj) => {
                shard.stats.record_hit();
                self.depot.guard.record_unpark();
                reinit(&mut obj);
                obj
            }
            None => {
                shard.stats.record_fresh();
                PoolBox::new(fresh())
            }
        }
    }

    /// Direct mode's release: park on the shard [`Self::lock_shard`]
    /// picks, or drop the object (after unlocking) past the cap.
    fn release_direct(&self, obj: PoolBox<T>, bytes: u64) {
        // Booked before the shard counts the release (see
        // `PoolStats::add_live_bytes`).
        self.depot.stats.add_live_bytes(-(bytes as i64));
        self.depot.guard.record_park();
        let (shard, mut free) = self.lock_shard();
        if shard.config.accepts_object(free.len()) {
            free.push(obj);
            shard.stats.record_release();
        } else {
            drop(free);
            shard.stats.record_refused();
            // `obj` drops here, returning its memory to the allocator —
            // the paper's "returning memory from the pools ... when the
            // pools exceed a certain limit".
        }
    }

    /// ptmalloc's arena rule: try-lock the thread's home shard, spill to
    /// the next one on contention (which becomes the home), and block on
    /// the home shard when every shard is held.
    fn lock_shard(&self) -> (&Shard<T>, MutexGuard<'_, SlotList<T>>) {
        let shards = &self.depot.shards;
        let home = HOME.with(|h| {
            if h.get() == usize::MAX {
                h.set(NEXT_HOME.fetch_add(1, Ordering::Relaxed));
            }
            h.get() % shards.len()
        });
        for idx in (home..shards.len()).chain(0..home) {
            if let Some(free) = shards[idx].try_lock() {
                if idx != home {
                    HOME.with(|h| h.set(idx));
                }
                return (&shards[idx], free);
            }
        }
        let shard = &shards[home];
        let free = shard.free.lock();
        shard.stats.record_lock();
        (shard, free)
    }
}

/// Round-robin source of the threads' direct-mode home cursors.
static NEXT_HOME: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The calling thread's direct-mode home, taken modulo a pool's shard
    /// count; `usize::MAX` until first use. Const-init with no destructor,
    /// so it reads the same during TLS teardown.
    static HOME: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// One direct-mode shard: a locked free list with its own counters, so
/// the shards share no counter line.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Shard<T> {
    free: Mutex<SlotList<T>>,
    /// Its [`PoolConfig::max_objects`] caps this list.
    config: PoolConfig,
    pub(crate) stats: PoolStats,
}

impl<T> Shard<T> {
    pub(crate) fn new(config: PoolConfig) -> Self {
        Shard { free: Mutex::new(SlotList::new()), config, stats: PoolStats::new() }
    }

    /// The list, if its lock is free; a held lock counts as a failed lock
    /// attempt (the signal ptmalloc-style sharding keys on).
    fn try_lock(&self) -> Option<MutexGuard<'_, SlotList<T>>> {
        let free = self.free.try_lock();
        match free {
            Some(_) => self.stats.record_lock(),
            None => self.stats.record_failed_lock(),
        }
        free
    }

    /// Objects parked on this list.
    pub(crate) fn len(&self) -> usize {
        self.free.lock().len()
    }

    /// Drop every parked object (destructors run after the unlock).
    fn trim(&self) -> usize {
        let parked = std::mem::take(&mut *self.free.lock());
        parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    /// The `amplify-local` layout: one shard, no magazines.
    fn local<T>() -> ShardedPool<T> {
        ShardedPool::with_magazines(1, PoolConfig::default(), 0)
    }

    /// The calling thread's direct-mode home shard in `pool`.
    fn home_of<T>(pool: &ShardedPool<T>) -> usize {
        HOME.with(Cell::get) % pool.shard_count()
    }

    #[test]
    fn local_layout_starts_empty_and_allocates_fresh() {
        let pool: ShardedPool<u64> = local();
        assert!(pool.is_empty());
        let x = pool.acquire(|| 7);
        assert_eq!(*x, 7);
        assert_eq!((pool.stats().fresh_allocs(), pool.stats().pool_hits()), (1, 0));
    }

    #[test]
    fn local_layout_reuses_lifo() {
        let pool: ShardedPool<u64> = local();
        let a = pool.acquire(|| 1);
        let b = pool.acquire(|| 2);
        assert_eq!((pool.stats().fresh_allocs(), pool.stats().pool_hits()), (2, 0));
        pool.release(a);
        pool.release(b);
        // LIFO: most recently released comes back first (cache-warm reuse).
        assert_eq!(*pool.acquire(|| 99), 2);
        assert_eq!(*pool.acquire(|| 99), 1);
        assert_eq!(pool.stats().pool_hits(), 2);
    }

    #[test]
    fn local_layout_keeps_state_unless_reinit() {
        let pool: ShardedPool<Vec<u8>> = local();
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
    fn local_layout_cap_drops_excess() {
        let config = PoolConfig { max_objects: Some(2), ..Default::default() };
        let pool: ShardedPool<u64> = ShardedPool::with_magazines(1, config, 0);
        for i in 0..5 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.stats().releases(), 2);
        assert_eq!(pool.stats().dropped(), 3);
        assert_eq!(pool.stats().frees(), 5);
    }

    #[test]
    fn local_layout_trim_empties_pool() {
        let pool: ShardedPool<u64> = local();
        for i in 0..4 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.trim(), 4);
        assert!(pool.is_empty());
    }

    #[test]
    fn local_layout_counts_try_lock_contention() {
        let pool: Arc<ShardedPool<u64>> = Arc::new(local());
        pool.release(Box::new(5));
        // Hold the only shard's lock; another thread's acquire fails its
        // try-lock once, then blocks on the home shard until it is free.
        let held = pool.depot.shards[0].free.lock();
        let p = Arc::clone(&pool);
        let t = std::thread::spawn(move || *p.acquire(|| 99));
        while pool.depot.shards[0].stats.failed_locks() == 0 {
            std::thread::yield_now();
        }
        drop(held);
        assert_eq!(t.join().unwrap(), 5, "the blocked acquire takes the parked object");
        assert_eq!(pool.stats().failed_locks(), 1);
        assert_eq!(pool.stats().pool_hits(), 1);
    }

    #[test]
    fn local_layout_conserves_across_four_threads() {
        let pool: Arc<ShardedPool<u64>> = Arc::new(local());
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let p = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let b = p.acquire(|| t * 1000 + i);
                        p.release(b);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().total_allocs(), 2000);
        // Everything released: the pool holds every distinct box created.
        assert_eq!(pool.len() as u64, pool.stats().fresh_allocs());
    }

    #[test]
    fn direct_mode_spills_past_a_held_home_and_moves_it() {
        let pool: ShardedPool<u32> = ShardedPool::with_magazines(2, PoolConfig::default(), 0);
        let obj = pool.acquire(|| 1); // assigns this thread's home cursor
        let home = home_of(&pool);
        let next = (home + 1) % 2;
        // This thread holds its home shard's lock, so the release's
        // try-lock there fails and it parks on the next shard instead.
        let held = pool.depot.shards[home].free.lock();
        pool.release(obj);
        drop(held);
        assert_eq!(pool.stats().failed_locks(), 1);
        let mut lengths = vec![0, 0];
        lengths[next] = 1;
        assert_eq!(pool.shard_lengths(), lengths, "the object spilled to the next shard");
        assert_eq!(home_of(&pool), next, "the shard that was free becomes the home");
        assert_eq!(*pool.acquire(|| 2), 1, "the next acquire starts at the new home");
        assert_eq!(pool.stats().pool_hits(), 1);
        assert_eq!(pool.depot.magazine_cells(), 0, "direct traffic registers no magazine cell");
    }

    /// A thread-local destructor's direct-mode traffic still finds the
    /// home cursor (no destructor of its own) and takes no magazine.
    #[test]
    fn direct_mode_serves_a_thread_local_destructor() {
        struct Late(Arc<ShardedPool<u32>>);
        impl Drop for Late {
            fn drop(&mut self) {
                for i in 0..3 {
                    self.0.release(Box::new(i));
                }
                assert_eq!(*self.0.acquire(|| 99), 2, "the home shard's newest object");
            }
        }
        thread_local! {
            static LATE: std::cell::RefCell<Option<Late>> = const { std::cell::RefCell::new(None) };
        }
        let pool: Arc<ShardedPool<u32>> =
            Arc::new(ShardedPool::with_magazines(2, PoolConfig::default(), 0));
        let p = Arc::clone(&pool);
        std::thread::spawn(move || LATE.with(|l| *l.borrow_mut() = Some(Late(p)))).join().unwrap();
        assert_eq!(pool.len(), 2);
        let s = pool.stats();
        assert_eq!((s.releases(), s.pool_hits(), s.fresh_allocs()), (3, 1, 0));
        assert_eq!(pool.depot.magazine_cells(), 0);
    }

    #[test]
    fn single_shard_magazine_pool_reuses() {
        let pool: ShardedPool<u32> = ShardedPool::new(1);
        let a = pool.acquire(|| 1);
        pool.release(a);
        let b = pool.acquire(|| 2);
        assert_eq!(*b, 1);
        assert_eq!(pool.stats().pool_hits(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _: ShardedPool<u32> = ShardedPool::new(0);
    }

    #[test]
    fn same_thread_reuses_same_shard() {
        let pool: ShardedPool<u32> = ShardedPool::new(8);
        let a = pool.acquire(|| 1);
        pool.release(a);
        let b = pool.acquire(|| 2);
        // Uncontended: the release is cached and the acquire reuses it.
        assert_eq!(*b, 1);
    }

    #[test]
    fn concurrent_threads_spread_and_survive() {
        let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::new(4));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let p = Arc::clone(&pool);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    let b = p.acquire(|| t * 1000 + i);
                    p.release(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = pool.stats();
        assert_eq!(stats.pool_hits() + stats.fresh_allocs(), 8 * 200);
        // All objects came back (exited threads flush their magazines).
        assert_eq!(pool.len() as u64, stats.fresh_allocs());
    }

    #[test]
    fn trim_across_shards() {
        let pool: ShardedPool<u8> = ShardedPool::new(4);
        for i in 0..10 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.trim(), 10);
        assert!(pool.is_empty());
    }

    #[test]
    fn distinct_pools_have_independent_preferences() {
        let p1: ShardedPool<u8> = ShardedPool::new(4);
        let p2: ShardedPool<u8> = ShardedPool::new(4);
        p1.release(Box::new(1));
        p2.release(Box::new(2));
        assert_eq!(p1.len(), 1);
        assert_eq!(p2.len(), 1);
        assert_eq!(*p1.acquire(|| 9), 1);
        assert_eq!(*p2.acquire(|| 9), 2);
    }

    #[test]
    fn magazine_overflow_parks_on_depot() {
        let pool: ShardedPool<u32> = ShardedPool::with_magazines(2, PoolConfig::default(), 4);
        for i in 0..10 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.len(), 10, "nothing lost across overflow parks");
        assert!(pool.depot_parked() > 0, "overflow must park whole magazines on the depot");
        assert!(pool.magazine_parked() <= pool.magazine_capacity());
        assert_eq!(pool.len(), pool.magazine_parked() + pool.depot_parked(), "tiers partition len");
        // A miss swaps a parked magazine back in without touching a shard.
        let mut drained = Vec::new();
        for _ in 0..10 {
            drained.push(pool.acquire(|| 999));
        }
        let mut got: Vec<u32> = drained.iter().map(|b| **b).collect();
        got.sort_unstable();
        assert_eq!(got, (0..10).collect::<Vec<u32>>(), "every object comes back exactly once");
        assert_eq!(pool.stats().fresh_allocs(), 0, "depot swaps avoid fresh allocation");
    }

    #[test]
    fn capped_magazine_overflow_parks_on_the_depot() {
        let config = PoolConfig { max_objects: Some(64), ..Default::default() };
        let pool: ShardedPool<u32> = ShardedPool::with_magazines(2, config, 4);
        for i in 0..10 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.len(), 10, "nothing lost across overflow parks");
        assert!(pool.depot_parked() > 0, "overflow must park on the depot");
        assert!(pool.shard_lengths().is_empty(), "magazine mode has no shard free lists");
        assert!(pool.len() - pool.depot_parked() <= pool.magazine_capacity());
        assert_eq!(pool.stats().lock_acquisitions(), 0);
    }

    #[test]
    fn flush_local_magazine_moves_objects_without_dropping() {
        let pool: ShardedPool<u32> = ShardedPool::new(2);
        for i in 0..5 {
            pool.release(Box::new(i));
        }
        assert_eq!(pool.depot_parked(), 0);
        assert_eq!(pool.flush_local_magazine(), 5);
        assert_eq!((pool.depot_parked(), pool.magazine_parked()), (5, 0));
        assert_eq!(pool.len(), 5);
        assert_eq!(pool.stats().dropped(), 0);
    }

    #[test]
    fn direct_mode_still_pools() {
        let pool: ShardedPool<u32> = ShardedPool::with_magazines(4, PoolConfig::default(), 0);
        let a = pool.acquire(|| 1);
        pool.release(a);
        assert_eq!(pool.shard_lengths().iter().sum::<usize>(), 1);
        let b = pool.acquire(|| 2);
        assert_eq!(*b, 1, "direct mode reuses via the home shard");
        assert_eq!(pool.stats().pool_hits(), 1);
        pool.release(b);
        let shards: usize = pool.shard_lengths().iter().sum();
        assert_eq!(pool.len(), shards + pool.magazine_parked() + pool.depot_parked());
        assert_eq!(pool.flush_local_magazine(), 0, "direct mode has no magazine to flush");
        assert_eq!(pool.trim(), 1);
        assert!(pool.is_empty());
    }

    #[test]
    fn panicking_thread_still_folds_magazine_counts() {
        let pool: Arc<ShardedPool<u64>> = Arc::new(ShardedPool::new(2));
        let p = Arc::clone(&pool);
        let t = std::thread::spawn(move || {
            for i in 0..100 {
                let b = p.acquire(|| i);
                p.release(b);
            }
            panic!("worker dies mid-churn");
        });
        assert!(t.join().is_err());
        // The worker's magazine folded its locally-counted hits and
        // releases during the panic's TLS teardown — none may be lost.
        let stats = pool.stats();
        assert_eq!(
            stats.pool_hits() + stats.fresh_allocs(),
            100,
            "hits + fresh must equal allocs even when the thread panicked"
        );
        assert_eq!(stats.releases(), 100);
    }

    #[test]
    fn trim_invalidates_remote_magazines_lazily() {
        let pool: Arc<ShardedPool<u32>> = Arc::new(ShardedPool::new(2));
        let barrier = Arc::new(Barrier::new(2));
        let (p, b) = (Arc::clone(&pool), Arc::clone(&barrier));
        let t = std::thread::spawn(move || {
            for i in 0..5 {
                p.release(Box::new(i));
            }
            b.wait(); // A: five objects cached in this thread's magazine
            b.wait(); // B: main has trimmed
            let obj = p.acquire(|| 99);
            assert_eq!(*obj, 99, "a stale cache must not serve pre-trim objects");
        });
        barrier.wait(); // A
        assert_eq!(pool.len(), 5);
        // Remote caches can't be drained from here; trim reports what it
        // actually reclaimed and invalidates the rest.
        assert_eq!(pool.trim(), 0);
        barrier.wait(); // B
        t.join().unwrap();
        assert_eq!(pool.len(), 0, "stale magazine drops its objects on next use");
    }

    /// Past TLS teardown a thread's releases park one-object depot nodes
    /// and its acquires take one object from a node, and `len()` stays
    /// exact through them.
    #[test]
    fn traffic_after_teardown_keeps_len_exact() {
        struct Late(Arc<ShardedPool<u32>>);
        impl Drop for Late {
            fn drop(&mut self) {
                // Runs after the magazine table's guard (registered later).
                for i in 0..3 {
                    self.0.release(Box::new(100 + i));
                }
                let back = self.0.acquire(|| unreachable!("the depot holds eight objects"));
                assert_eq!(*back, 102, "the newest node's object");
            }
        }
        thread_local! {
            static LATE: std::cell::RefCell<Option<Late>> = const { std::cell::RefCell::new(None) };
        }
        let pool: Arc<ShardedPool<u32>> = Arc::new(ShardedPool::new(2));
        let p = Arc::clone(&pool);
        std::thread::spawn(move || {
            LATE.with(|l| *l.borrow_mut() = Some(Late(Arc::clone(&p))));
            for i in 0..5 {
                p.release(Box::new(i));
            }
        })
        .join()
        .unwrap();
        let parked = pool.depot_parked();
        assert_eq!(parked, 5 + 3 - 1, "the magazine's five parked, then DEAD traffic");
        assert_eq!(pool.len(), parked);
        let s = pool.stats();
        assert_eq!((s.releases(), s.pool_hits(), s.fresh_allocs()), (8, 1, 0));
        assert_eq!(s.lock_acquisitions(), 0);
        let mut got: Vec<u32> = (0..parked).map(|_| *pool.acquire(|| 999)).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 100, 101], "every parked object, once");
    }
}
