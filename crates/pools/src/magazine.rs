//! Thread-local magazines: the lock-free fast path in front of a sharded
//! pool (the tcmalloc/Hoard thread-cache idea applied to object pools),
//! backed by a Bonwick-style **magazine depot**.
//!
//! Each thread keeps a small bounded cache — a *magazine* — of parked
//! objects per pool. Steady-state acquire/release is a thread-local vector
//! pop/push: no mutex, no hash lookup. When a magazine runs empty or full
//! the thread first tries the *depot*: per-shard Treiber stacks of whole
//! full magazines ([`crate::depot`]), exchanged in one CAS — an O(1)
//! refill/flush no matter the magazine capacity. Shard locks are only taken
//! when the depot has nothing to offer (refill) or the pool is capped
//! (flush must consult the population limit), and fresh allocation carves
//! objects out of contiguous slabs ([`crate::pool_box::SlabReserve`]) so
//! one heap call serves a whole magazine's worth of misses.
//!
//! A thread finds its magazines in a slot table named by two const-init
//! cells (pointer and length, the size-class engine's `CACHE` idiom). A
//! length of 0 sends every operation to the cold path: before first use,
//! while a cold path holds the table (re-entry panics), and after TLS
//! teardown (DEAD, when operations go straight to the shards).
//!
//! Invariants the rest of the crate (and the stress tests) rely on:
//!
//! * every object is in exactly one place at any time — held by a caller,
//!   cached in one magazine, parked in one depot node, or parked in one
//!   shard free list;
//! * [`Depot::magazine_parked`] equals the summed size of all live
//!   magazines, [`Depot::depot_parked`] the objects inside parked depot
//!   magazines, and [`Depot::shard_parked`] the shard free-list population
//!   (exact in magazine mode, where shards gain/lose objects only through
//!   the counted batch and DEAD paths) — so `ShardedPool::len()` is
//!   accurate without reaching into other threads' caches;
//! * a magazine's buffer has room for more than `cap` objects;
//! * a thread's magazines flush back to the shards when the thread exits
//!   (TLS destructor), so no object leaks and `trim` can still reclaim it;
//! * `trim` drains the *calling* thread's magazine, empties the depot, and
//!   bumps [`Depot::trim_epoch`]; other threads observe the stale epoch on
//!   their next operation and drop their cached objects lazily (a trim
//!   cannot safely touch another thread's table). Depot nodes carry the
//!   epoch they were parked under, so a node that raced past the drain is
//!   recognized as stale at swap time and discarded then.

use crate::depot::{DepotNode, MagStack};
use crate::fault;
use crate::guard;
use crate::limits::PoolConfig;
use crate::object_pool::ObjectPool;
use crate::obs::{pool_event, pool_hist};
use crate::pool_box::{PoolBox, SlabReserve, SlabSlot};
use crate::stats::{PoolStats, StatsSnapshot};
use parking_lot::Mutex;
use std::cell::Cell;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Default objects a magazine may hold (per thread, per pool).
pub const DEFAULT_MAGAZINE_CAP: usize = 32;

/// Upper bound on one carved slab's backing buffer. Keeps a cold pool of
/// large objects from committing megabytes on its first miss.
const MAX_SLAB_BYTES: usize = 64 * 1024;

/// Pool ids double as thread-local slot indices, so they are never reused.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// [`Table::ptr`]'s tag bit while a cold path holds the table, and its
/// post-teardown sentinel (never dereferenced).
const HELD: usize = 1;
const DEAD: *mut MagSlot = usize::MAX as *mut MagSlot;

/// One thread's magazine for one pool, type-erased (`None` until first
/// use). Pool ids are never reused and a slot is only filled by the pool
/// owning its index, so the id fixes the type: the paths cast.
type MagSlot = Option<NonNull<dyn std::any::Any>>;

/// This thread's magazines, indexed by pool id: a leaked boxed slice of
/// [`MagSlot`]s. Const-init and no destructor, so reading it is a plain
/// TLS load at any point in the thread's life, teardown included.
struct Table {
    ptr: Cell<*mut MagSlot>,
    /// 0 whenever the hit paths must miss: no table yet, held, or DEAD.
    len: Cell<usize>,
}

thread_local! {
    static TABLE: Table =
        const { Table { ptr: Cell::new(ptr::null_mut()), len: Cell::new(0) } };
    // Registered on the table's first use; its destructor frees the
    // magazines at thread exit and leaves the table DEAD.
    static TABLE_GUARD: TableGuard = const { TableGuard };
}

struct TableGuard;

impl Drop for TableGuard {
    fn drop(&mut self) {
        let (ptr, len) = TABLE.with(|t| (t.ptr.replace(DEAD), t.len.replace(0)));
        debug_assert!(ptr == DEAD || ptr as usize & HELD == 0, "teardown while a cold path holds");
        if !ptr.is_null() && ptr != DEAD {
            // SAFETY: the boxed slice `Hold::grow` leaked, of leaked boxes.
            // Magazine drops may run user code; it finds the table DEAD.
            let slots = unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(ptr, len)) };
            slots.iter().flatten().for_each(|m| drop(unsafe { Box::from_raw(m.as_ptr()) }));
        }
    }
}

/// The calling thread's magazine for pool `id`, or null: the whole lookup.
///
/// # Safety
/// `T` must be pool `id`'s type; no pool code may run while it is in use.
#[inline(always)]
unsafe fn hot_magazine<T: 'static>(id: usize) -> *mut Magazine<T> {
    TABLE.with(|t| {
        if id >= t.len.get() {
            return ptr::null_mut();
        }
        // SAFETY: a non-zero len means the table is live and not held.
        unsafe { *t.ptr.get().add(id) }.map_or(ptr::null_mut(), |m| m.as_ptr().cast())
    })
}

/// A cold path's exclusive hold on the table. While it lives the table
/// reads length 0 (the hit paths miss) and a tagged pointer (another cold
/// access panics); dropping it, also on unwind, puts the table back.
struct Hold {
    ptr: *mut MagSlot,
    len: usize,
}

impl Hold {
    /// Take the table; `None` once it is torn down (DEAD).
    #[inline]
    fn take() -> Option<Hold> {
        TABLE.with(|t| {
            let ptr = t.ptr.get();
            if ptr == DEAD {
                return None;
            }
            assert!(
                ptr as usize & HELD == 0,
                "magazine table re-entered: pool code ran inside a magazine cold path"
            );
            // First use: register the teardown guard. If the thread is past
            // that point already, run DEAD from here on.
            if ptr.is_null() && TABLE_GUARD.try_with(|_| ()).is_err() {
                t.ptr.set(DEAD);
                return None;
            }
            t.ptr.set((ptr as usize | HELD) as *mut MagSlot);
            Some(Hold { ptr, len: t.len.replace(0) })
        })
    }

    /// Slot `id`, growing the table to reach it.
    #[inline]
    fn slot(&mut self, id: usize) -> &mut MagSlot {
        if id >= self.len {
            (self.ptr, self.len) = Self::grow(self.ptr, self.len, id);
        }
        // SAFETY: in bounds after the growth above; the hold is exclusive.
        unsafe { &mut *self.ptr.add(id) }
    }

    /// A table with room for slot `id`, the old slots moved in. By value,
    /// so the hold itself stays in registers.
    #[cold]
    fn grow(ptr: *mut MagSlot, len: usize, id: usize) -> (*mut MagSlot, usize) {
        let mut slots = vec![None; (id + 1).max(2 * len)].into_boxed_slice();
        if !ptr.is_null() {
            // SAFETY: a non-null table is the boxed slice leaked below.
            let old = unsafe { Box::from_raw(ptr::slice_from_raw_parts_mut(ptr, len)) };
            slots[..len].copy_from_slice(&old);
        }
        let len = slots.len();
        (Box::into_raw(slots).cast(), len)
    }
}

impl Drop for Hold {
    #[inline]
    fn drop(&mut self) {
        TABLE.with(|t| {
            t.ptr.set(self.ptr);
            t.len.set(self.len);
        });
    }
}

/// The shared half of a magazine-fronted pool: the shard array, the
/// full-magazine depot stacks, and the counters magazines coordinate
/// through.
#[derive(Debug)]
pub(crate) struct Depot<T> {
    id: usize,
    pub(crate) shards: Box<[ObjectPool<T>]>,
    /// Objects a magazine may hold; 0 disables magazines (direct mode).
    pub(crate) magazine_cap: usize,
    /// Round-robin cursor assigning home shards to new magazines — the
    /// one-time replacement for hashing the thread id on every operation.
    next_shard: AtomicUsize,
    /// Bumped by `trim`; magazines with an older epoch discard their cache.
    trim_epoch: AtomicU64,
    /// The address of every live magazine's [`MagCells`], registered at
    /// creation and removed (under this lock) before the magazine is freed.
    /// Readers lock the list and sum.
    mag_counts: Mutex<Vec<usize>>,
    /// Objects parked inside full magazines on the depot stacks.
    depot_parked: AtomicUsize,
    /// Shard free-list population, maintained by the counted batch paths
    /// (exact in magazine mode; direct mode bypasses it and uses
    /// [`ObjectPool::len`] instead).
    shard_parked: AtomicUsize,
    /// Full-magazine Treiber stacks, one per shard (locality: a magazine
    /// parks on and swaps from its home shard's stack first).
    full: Box<[MagStack<T>]>,
    /// Recycled empty node shells, ready for the next park.
    free_nodes: MagStack<T>,
    /// Every node ever allocated for this depot, by address. Nodes are
    /// type-stable while the depot lives (the lock-free pop relies on it)
    /// and are freed here, in `Drop`, when the depot is the sole owner.
    nodes: Mutex<Vec<usize>>,
    /// Whole-magazine depot exchange enabled: magazines on and the pool
    /// uncapped. Capped pools keep the half-flush through the shard locks,
    /// where the population limit is enforced.
    depot_enabled: bool,
    /// Slots per carved slab (0 disables slab carving).
    pub(crate) slab_objects: usize,
    /// Minimum shard free-list population before a cold acquire tries a
    /// batched shard refill (historically 1, i.e. `shard_parked() > 0`).
    pub(crate) depot_gate: usize,
    /// Objects moved per batched shard refill (historically
    /// `magazine_cap / 2`, at least 1).
    pub(crate) refill_target: usize,
    /// Hits/fresh/releases recorded by the magazine fast path (shard-level
    /// stats only see batch lock traffic).
    pub(crate) stats: PoolStats,
    /// Park/unpark/reclaim books, reconciled at drop (zero-sized no-op in
    /// default release builds — see [`crate::guard`]).
    pub(crate) guard: guard::Ledger,
}

impl<T> Depot<T> {
    pub(crate) fn new(shards: usize, config: PoolConfig, magazine_cap: usize) -> Self {
        assert!(shards >= 1, "a sharded pool needs at least one shard");
        let per_slab_cap = if std::mem::size_of::<T>() == 0 {
            0
        } else {
            MAX_SLAB_BYTES / std::mem::size_of::<T>()
        };
        let carve_want = match config.carve_batch {
            Some(n) => n.max(2),
            None => magazine_cap * 2,
        };
        let slab_objects = if magazine_cap == 0 || per_slab_cap < 2 {
            0 // slabs can't amortize anything here; plain boxing instead
        } else {
            carve_want.min(per_slab_cap)
        };
        Depot {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..shards).map(|_| ObjectPool::with_config(config)).collect(),
            magazine_cap,
            next_shard: AtomicUsize::new(0),
            trim_epoch: AtomicU64::new(0),
            mag_counts: Mutex::new(Vec::new()),
            depot_parked: AtomicUsize::new(0),
            shard_parked: AtomicUsize::new(0),
            full: (0..shards).map(|_| MagStack::new()).collect(),
            free_nodes: MagStack::new(),
            nodes: Mutex::new(Vec::new()),
            depot_enabled: magazine_cap > 0 && config.max_objects.is_none(),
            slab_objects,
            depot_gate: config.depot_gate.max(1),
            refill_target: config.refill_target(magazine_cap),
            stats: PoolStats::new(),
            guard: guard::Ledger::default(),
        }
    }

    /// The registered counter cells.
    fn cells(addrs: &[usize]) -> impl Iterator<Item = &MagCells> {
        // SAFETY: an address stays registered only while its magazine lives
        // (`FoldOnDrop` removes it under the lock the caller holds).
        addrs.iter().map(|&a| unsafe { &*(a as *const MagCells) })
    }

    /// Objects cached in magazines across all threads (sum of the live
    /// magazines' count cells).
    pub(crate) fn magazine_parked(&self) -> usize {
        let addrs = self.mag_counts.lock();
        Self::cells(&addrs).map(|c| c.parked.load(Ordering::Relaxed)).sum()
    }

    /// Aggregate statistics: the shared counters, every shard's, and the
    /// counts live magazines hold but have not folded yet. Taken under the
    /// cell lock, so a magazine retiring concurrently (which folds and
    /// drops its cell in one critical section) is counted exactly once.
    /// Every source is read in the three phases [`StatsSnapshot`] documents
    /// — frees, net bytes, allocations — and the owners write their cells
    /// in the matching order (see [`pop`] and [`push`]).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let addrs = self.mag_counts.lock();
        let sources = || std::iter::once(&self.stats).chain(self.shards.iter().map(|s| s.stats()));
        let mut s = StatsSnapshot::default();
        sources().for_each(|p| s.add_frees_of(p));
        let releases = Self::cells(&addrs).map(|c| c.releases.load(Ordering::Relaxed)).sum();
        sources().for_each(|p| s.add_bytes_of(p));
        let bytes = Self::cells(&addrs).map(|c| c.bytes.load(Ordering::Relaxed)).sum();
        sources().for_each(|p| s.add_allocs_of(p));
        let hits = Self::cells(&addrs).map(|c| c.hits.load(Ordering::Relaxed)).sum();
        s.add_magazine_counts(hits, releases, bytes);
        s
    }

    /// Objects parked in full magazines on the depot stacks.
    pub(crate) fn depot_parked(&self) -> usize {
        self.depot_parked.load(Ordering::Relaxed)
    }

    /// Shard free-list population as tracked by the batch paths.
    pub(crate) fn shard_parked(&self) -> usize {
        self.shard_parked.load(Ordering::Relaxed)
    }

    /// Book a direct-path park (+1) or take (−1, a wrapping add): magazine
    /// mode keeps [`Depot::shard_parked`], and goes direct only when DEAD.
    pub(crate) fn count_direct(&self, delta: isize) {
        if self.magazine_cap > 0 {
            self.shard_parked.fetch_add(delta as usize, Ordering::Relaxed);
        }
    }

    /// Invalidate every thread's magazine for this pool. Remote threads
    /// notice on their next operation and drop their cache.
    pub(crate) fn bump_trim_epoch(&self) {
        self.trim_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// An empty node shell to park a magazine in: recycled if possible,
    /// freshly allocated (and registered for eventual free) otherwise.
    fn alloc_node(&self) -> NonNull<DepotNode<T>> {
        if let Some(node) = self.free_nodes.pop() {
            return node;
        }
        let node = NonNull::from(Box::leak(Box::new(DepotNode::new())));
        self.nodes.lock().push(node.as_ptr() as usize);
        node
    }

    /// Pop a full magazine, probing each shard's stack once from `start`.
    fn pop_full(&self, start: usize) -> Option<NonNull<DepotNode<T>>> {
        let n = self.full.len();
        for off in 0..n {
            let idx = (start + off) % n;
            if let Some(node) = self.full[idx].pop() {
                return Some(node);
            }
        }
        None
    }

    /// True when no stack holds a full magazine (racy hint; a stale answer
    /// only costs the caller the probe a miss would have done anyway).
    fn depot_empty_hint(&self) -> bool {
        self.full.iter().all(MagStack::is_empty_hint)
    }

    /// Pop every parked magazine off every stack and drop the contents
    /// (trim support). Returns how many objects were reclaimed.
    pub(crate) fn drain_depot(&self) -> usize {
        let mut reclaimed: Vec<PoolBox<T>> = Vec::new();
        for stack in self.full.iter() {
            while let Some(node_ptr) = stack.pop() {
                // We own the node after a successful pop; the depot is
                // alive (we are a method on it), so the deref is safe.
                let node = unsafe { &mut *node_ptr.as_ptr() };
                reclaimed.append(&mut node.items);
                self.free_nodes.push(node_ptr);
            }
        }
        let n = reclaimed.len();
        self.depot_parked.fetch_sub(n, Ordering::Relaxed);
        self.guard.record_reclaim(n);
        drop(reclaimed); // user destructors run here, outside any stack op
        n
    }

    /// Trim every shard's free list, keeping `shard_parked` in step.
    pub(crate) fn trim_shards(&self) -> usize {
        let mut total = 0;
        for shard in self.shards.iter() {
            let n = shard.trim();
            self.shard_parked.fetch_sub(n, Ordering::Relaxed);
            total += n;
        }
        self.guard.record_reclaim(total);
        total
    }

    /// Park `items` into shards starting at `start`, spilling to the next
    /// shard on lock contention (ptmalloc's arena rule), blocking on the
    /// home shard if every shard is contended.
    pub(crate) fn park_batch(&self, start: usize, items: &mut Vec<PoolBox<T>>) {
        let n = self.shards.len();
        for off in 0..n {
            let idx = (start + off) % n;
            if let Ok(parked) = self.shards[idx].try_put_batch(items) {
                self.shard_parked.fetch_add(parked, Ordering::Relaxed);
                return;
            }
        }
        let parked = self.shards[start].put_batch(items);
        self.shard_parked.fetch_add(parked, Ordering::Relaxed);
    }

    /// Move up to `max` objects into `out` from the first shard that has
    /// any, probing each shard once starting at `start` (empty and
    /// contended shards are skipped). Returns the shard that supplied the
    /// batch. When every shard was visited and nothing was found, `out`
    /// stays empty and the caller allocates fresh; if *all* shards were
    /// contended the refill blocks on the home shard instead (ptmalloc
    /// ultimately waits too).
    pub(crate) fn refill_batch(
        &self,
        start: usize,
        max: usize,
        out: &mut Vec<PoolBox<T>>,
    ) -> usize {
        let n = self.shards.len();
        let mut all_contended = true;
        for off in 0..n {
            let idx = (start + off) % n;
            match self.shards[idx].try_take_batch(max, out) {
                Ok(k) if k > 0 => {
                    self.shard_parked.fetch_sub(k, Ordering::Relaxed);
                    return idx;
                }
                Ok(_) => all_contended = false, // unlocked but empty
                Err(()) => {}
            }
        }
        if all_contended {
            let k = self.shards[start].take_batch(max, out);
            self.shard_parked.fetch_sub(k, Ordering::Relaxed);
        }
        start
    }
}

impl<T> Drop for Depot<T> {
    fn drop(&mut self) {
        // Exact live-object accounting (guarded builds only): when no
        // foreign magazine is still live, every parked object is visible
        // from here — the shard free lists plus the items inside parked
        // depot nodes — and the guard ledger must balance against that
        // population and the cap-drop counters.
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        if self.mag_counts.get_mut().is_empty() {
            let mut physically_parked: usize = self.shards.iter().map(ObjectPool::len).sum();
            for &addr in self.nodes.get_mut().iter() {
                // Sole owner: the node is ours to read.
                physically_parked += unsafe { &*(addr as *const DepotNode<T>) }.items.len();
            }
            let cap_dropped =
                self.stats.dropped() + self.shards.iter().map(|s| s.stats().dropped()).sum::<u64>();
            self.guard.reconcile(physically_parked, cap_dropped);
        }
        // Sole owner now: no thread can race a stack operation. Free every
        // node ever allocated; full ones drop their objects with their Vec.
        for &addr in self.nodes.get_mut().iter() {
            drop(unsafe { Box::from_raw(addr as *mut DepotNode<T>) });
        }
    }
}

/// One magazine's counters, the only copy. The owning thread updates them
/// with relaxed loads and *stores* (no locked RMW on the fast paths): an
/// acquire writes `hits` before `bytes`, a release `bytes` before
/// `releases`, matching [`Depot::snapshot`]'s read order. Readers see
/// values exact at quiescent points (a join or barrier orders the stores
/// before the reads). Folded into [`Depot::stats`] when the magazine drops.
#[derive(Debug, Default)]
struct MagCells {
    /// Mirrors `Magazine::items.len()`.
    parked: AtomicUsize,
    /// Magazine acquire hits.
    hits: AtomicU64,
    /// Magazine releases.
    releases: AtomicU64,
    /// Net bytes of this magazine's hits (+) and releases (−), as passed by
    /// sized callers. Negative when the thread frees more than it reuses
    /// (its allocs took cold paths, which book their bytes in the shared
    /// ledger).
    bytes: AtomicI64,
}

impl MagCells {
    /// Owner-only `cell += 1`: a load and a store, no locked RMW.
    #[inline(always)]
    fn bump(cell: &AtomicU64) {
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    #[inline(always)]
    fn add_bytes(&self, delta: i64) {
        self.bytes.store(self.bytes.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
    }
}

/// One thread's cache of parked objects for one pool.
pub(crate) struct Magazine<T> {
    items: Vec<PoolBox<T>>,
    /// Copy of [`Depot::magazine_cap`]; `items` always has room for more.
    cap: usize,
    /// Copy of [`Depot::trim_epoch`] from the last (in)validation.
    epoch: u64,
    /// This magazine's counters, registered in [`Depot::mag_counts`].
    cells: MagCells,
    /// Home shard for refills and flushes.
    shard: usize,
    depot: Weak<Depot<T>>,
    /// Empty node shell kept back from the last depot exchange, so the
    /// steady empty↔full cycle never touches the free-node stack.
    spare: Option<NonNull<DepotNode<T>>>,
    /// Recycled overflow-flush buffer (capped pools), so the flush slow
    /// path does not allocate a fresh `Vec` per overflow.
    flush_buf: Vec<PoolBox<T>>,
    /// Private cursor over the unused tail of the last carved slab.
    reserve: Option<SlabReserve<T>>,
}

impl<T> Magazine<T> {
    /// A new magazine for `depot` (home shard assigned round-robin), its
    /// cells registered.
    fn new(depot: &Arc<Depot<T>>) -> Box<Self> {
        let mag = Box::new(Magazine {
            items: Vec::with_capacity(depot.magazine_cap + 1),
            cap: depot.magazine_cap,
            epoch: depot.trim_epoch.load(Ordering::Relaxed),
            cells: MagCells::default(),
            shard: depot.next_shard.fetch_add(1, Ordering::Relaxed) % depot.shards.len(),
            depot: Arc::downgrade(depot),
            spare: None,
            flush_buf: Vec::new(),
            reserve: None,
        });
        depot.mag_counts.lock().push(&mag.cells as *const MagCells as usize);
        mag
    }
}

impl<T> Drop for Magazine<T> {
    fn drop(&mut self) {
        // Thread exit (TLS teardown): hand cached objects back to the
        // shards, reachable by `trim`, and the spare shell to the depot. If
        // the pool is gone the objects simply drop (and the depot freed
        // every node, spare included — don't touch it).
        if let Some(depot) = self.depot.upgrade() {
            // Fold-on-drop must be panic-safe: parking the cached objects
            // can run arbitrary user destructors (a capped shard drops the
            // overflow), and if one of them panics the counts must still
            // reach the shared stats. The fold lives in this guard's own
            // `Drop`, which runs even while `park_batch` unwinds.
            struct FoldOnDrop<'a, T> {
                depot: &'a Depot<T>,
                cells: &'a MagCells,
            }
            impl<T> Drop for FoldOnDrop<'_, T> {
                fn drop(&mut self) {
                    // Fold and retire the cell in one critical section: a
                    // stats reader (also under the lock) counts it once and
                    // never reads it after it is freed.
                    let mut addrs = self.depot.mag_counts.lock();
                    let c = self.cells;
                    self.depot.stats.fold_magazine_counts(
                        c.hits.load(Ordering::Relaxed),
                        c.releases.load(Ordering::Relaxed),
                        c.bytes.load(Ordering::Relaxed),
                    );
                    addrs.retain(|&a| a != c as *const MagCells as usize);
                }
            }
            let _fold = FoldOnDrop { depot: &depot, cells: &self.cells };
            if let Some(node) = self.spare.take() {
                depot.free_nodes.push(node);
            }
            if !self.items.is_empty() {
                let mut items = std::mem::take(&mut self.items);
                depot.park_batch(self.shard, &mut items);
            }
        }
    }
}

/// Run `f` on the calling thread's magazine for `depot`, creating it on
/// first touch when `create` is set. `None` when there is no magazine: not
/// created, or the table is DEAD. Publishes the magazine's length after.
///
/// `f` must not run user code (constructors, destructors) — the table is
/// held for its duration, and a pooled type whose `Drop` touches another
/// pool would otherwise re-enter it.
fn with_mag<T: 'static, R>(
    depot: &Arc<Depot<T>>,
    create: bool,
    f: impl FnOnce(&mut Magazine<T>) -> R,
) -> Option<R> {
    let mut hold = Hold::take()?;
    let slot = hold.slot(depot.id);
    if slot.is_none() && create {
        let mag: Box<dyn std::any::Any> = Magazine::new(depot);
        *slot = NonNull::new(Box::into_raw(mag));
    }
    // SAFETY: the slot at this pool's id holds this pool's magazine, and
    // the hold makes this the only reference.
    let mag = unsafe { &mut *(*slot)?.as_ptr() };
    debug_assert!(mag.is::<Magazine<T>>(), "pool ids are never reused, so the slot type matches");
    // SAFETY: checked above in debug builds; the id fixes the type.
    let mag = unsafe { &mut *(mag as *mut dyn std::any::Any).cast::<Magazine<T>>() };
    let r = f(mag);
    mag.cells.parked.store(mag.items.len(), Ordering::Relaxed);
    Some(r)
}

/// If a trim happened since this magazine last looked, surrender the cached
/// objects (returned for the caller to drop outside the hold) and the slab
/// reserve (raw memory — safe to release in place).
#[inline(always)]
fn invalidate_if_stale<T>(mag: &mut Magazine<T>, depot: &Depot<T>) -> Vec<PoolBox<T>> {
    let epoch = depot.trim_epoch.load(Ordering::Relaxed);
    if mag.epoch == epoch {
        return Vec::new();
    }
    invalidate(mag, epoch)
}

#[cold]
fn invalidate<T>(mag: &mut Magazine<T>, epoch: u64) -> Vec<PoolBox<T>> {
    mag.epoch = epoch;
    mag.reserve = None; // uninitialized slots: releasing them runs no user code
    if mag.items.is_empty() {
        return Vec::new();
    }
    let stale: Vec<PoolBox<T>> = mag.items.drain(..).collect();
    pool_event!(EpochInvalidation, stale.len());
    stale
}

/// Drop objects a trim made stale, outside the hold (user destructors).
fn drop_stale<T>(depot: &Depot<T>, stale: Vec<PoolBox<T>>) {
    depot.guard.record_reclaim(stale.len());
    drop(stale);
}

/// Keep a popped-and-emptied node as the magazine's spare shell, or return
/// it to the depot's free-node stack if a spare is already parked.
fn recycle_node<T>(mag: &mut Magazine<T>, depot: &Depot<T>, node: NonNull<DepotNode<T>>) {
    if mag.spare.is_none() {
        mag.spare = Some(node);
    } else {
        depot.free_nodes.push(node);
    }
}

/// Pop one cached object — the lock-free acquire hit path, booking `bytes`
/// in the magazine's cells. `None` is a miss: no magazine (or no table), a
/// stale epoch, or an empty magazine; the caller goes to [`refresh`].
#[inline(always)]
pub(crate) fn pop<T: 'static>(depot: &Depot<T>, bytes: u64) -> Option<PoolBox<T>> {
    // SAFETY: this pool's id, this pool's type; no pool code runs below.
    let mag = unsafe { hot_magazine::<T>(depot.id).as_mut() }?;
    if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed) {
        return None;
    }
    let obj = mag.items.pop()?;
    mag.cells.parked.store(mag.items.len(), Ordering::Relaxed);
    MagCells::bump(&mag.cells.hits);
    mag.cells.add_bytes(bytes as i64);
    depot.guard.record_unpark();
    Some(obj)
}

/// The magazine side of an acquire miss: create the thread's magazine on
/// first touch, or surrender a cache a trim made stale. `false` when the
/// table is DEAD: the caller goes straight to the shards.
pub(crate) fn refresh<T: 'static>(depot: &Arc<Depot<T>>) -> bool {
    let Some(stale) = with_mag(depot, true, |mag| invalidate_if_stale(mag, depot)) else {
        return false;
    };
    drop_stale(depot, stale);
    true
}

/// Swap the (empty) magazine for a full one parked on the depot: one CAS
/// pop plus a `Vec` swap, no locks, no per-object moves. Returns the first
/// object out of the swapped-in magazine, or `None` when the depot had
/// nothing valid. Nodes parked before the last trim are recognized by
/// their stale epoch and their contents dropped (epoch invalidation
/// extends to parked magazines).
pub(crate) fn depot_swap<T: 'static>(depot: &Arc<Depot<T>>) -> Option<PoolBox<T>> {
    if depot.depot_empty_hint() {
        return None;
    }
    let (obj, stale) = with_mag(depot, true, |mag| {
        let mut stale = invalidate_if_stale(mag, depot);
        let mut got = None;
        let mut forced_retry = fault::retry_depot();
        while let Some(node_ptr) = depot.pop_full(mag.shard) {
            if forced_retry {
                // Injected CAS race: hand the node straight back and pop
                // again, exercising the version-tag (ABA) protection the
                // way a concurrent winner would.
                forced_retry = false;
                depot.full[mag.shard].push(node_ptr);
                continue;
            }
            if fault::bump_epoch() {
                // Injected trim racing the swap: the epoch moves in the
                // window between pop and validate. The popped node stays
                // valid — its ownership transferred at the pop CAS, exactly
                // as if the swap had completed before the trim began.
                depot.bump_trim_epoch();
            }
            // Owned after a successful pop; the depot keeps it allocated.
            let node = unsafe { &mut *node_ptr.as_ptr() };
            let n = node.items.len();
            depot.depot_parked.fetch_sub(n, Ordering::Relaxed);
            if node.epoch != mag.epoch {
                stale.append(&mut node.items);
                pool_event!(EpochInvalidation, n);
                recycle_node(mag, depot, node_ptr);
                continue;
            }
            debug_assert!(mag.items.is_empty(), "depot_swap is only called on a miss");
            std::mem::swap(&mut mag.items, &mut node.items);
            debug_assert!(mag.items.capacity() > mag.cap, "parked buffers were magazine buffers");
            recycle_node(mag, depot, node_ptr);
            got = mag.items.pop();
            depot.stats.record_depot_swap();
            pool_event!(DepotSwap, n);
            pool_hist!("pools.depot_swap_objects", n);
            break;
        }
        (got, stale)
    })?;
    if obj.is_some() {
        depot.guard.record_unpark();
    }
    drop_stale(depot, stale);
    obj
}

/// Cache one released object — the lock-free release path, booking
/// `bytes` out of the magazine's cells. Hands the object back on a miss
/// (no magazine, a stale epoch, or a full magazine): the caller goes to
/// [`push_cold`], or to the shards in direct mode.
#[inline(always)]
pub(crate) fn push<T: 'static>(
    depot: &Depot<T>,
    obj: PoolBox<T>,
    bytes: u64,
) -> Option<PoolBox<T>> {
    // SAFETY: this pool's id, this pool's type; no pool code runs below.
    let Some(mag) = (unsafe { hot_magazine::<T>(depot.id).as_mut() }) else {
        return Some(obj);
    };
    let len = mag.items.len();
    if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed) || len >= mag.cap {
        return Some(obj);
    }
    debug_assert!(mag.items.capacity() > mag.cap, "magazine buffers hold more than `cap` slots");
    // SAFETY: `len < cap < capacity`.
    unsafe {
        mag.items.as_mut_ptr().add(len).write(obj);
        mag.items.set_len(len + 1);
    }
    mag.cells.parked.store(len + 1, Ordering::Relaxed);
    mag.cells.add_bytes(-(bytes as i64));
    MagCells::bump(&mag.cells.releases);
    depot.guard.record_park();
    None
}

/// The release miss path in magazine mode: a full magazine in an uncapped
/// pool parks *whole* on the depot (one CAS); in a capped pool its older
/// half flushes through the shard locks, where the population cap is
/// enforced. Hands the object back when the table is DEAD.
#[cold]
#[inline(never)]
pub(crate) fn push_cold<T: 'static>(
    depot: &Arc<Depot<T>>,
    obj: PoolBox<T>,
    bytes: u64,
) -> Option<PoolBox<T>> {
    let mut obj = Some(obj);
    let Some((stale, flush)) = with_mag(depot, true, |mag| {
        pool_event!(Release);
        let stale = invalidate_if_stale(mag, depot);
        let cap = mag.cap;
        let mut flush = None;
        if mag.items.len() < cap || fault::delay_flush() {
            // Room after all (a stale cache emptied), or an injected flush
            // delay: the magazine runs past capacity, and a later release
            // handles the larger overflow below (any length ≥ cap works).
        } else if depot.depot_enabled {
            // Park the whole magazine: swap its Vec into an empty node
            // shell and CAS the node onto the home shard's stack. The
            // magazine continues with the node's (empty) Vec, so the two
            // buffers ping-pong and no allocation happens in steady state.
            let n = mag.items.len();
            let node_ptr = mag.spare.take().unwrap_or_else(|| depot.alloc_node());
            let node = unsafe { &mut *node_ptr.as_ptr() };
            debug_assert!(node.items.is_empty(), "spare/free nodes are empty shells");
            std::mem::swap(&mut node.items, &mut mag.items);
            if mag.items.capacity() <= cap {
                mag.items.reserve_exact(cap + 1); // a fresh shell's buffer
            }
            node.epoch = mag.epoch;
            depot.depot_parked.fetch_add(n, Ordering::Relaxed);
            depot.full[mag.shard].push(node_ptr);
            depot.stats.record_depot_park();
            pool_event!(DepotPark, n);
            pool_hist!("pools.depot_park_objects", n);
        } else {
            // Keep the newest (cache-warm) half; the rest leaves in the
            // recycled flush buffer. `cap` is at least 1 here, so at least
            // one slot frees up.
            let keep = (cap - cap / 2).min(cap - 1);
            let split = mag.items.len() - keep;
            let mut buf = std::mem::take(&mut mag.flush_buf);
            buf.extend(mag.items.drain(..split));
            flush = Some((buf, mag.shard));
        }
        mag.items.push(obj.take().expect("taken once"));
        mag.cells.add_bytes(-(bytes as i64));
        MagCells::bump(&mag.cells.releases);
        (stale, flush)
    }) else {
        return obj; // DEAD: untouched, for the caller's direct path
    };
    depot.guard.record_park();
    drop_stale(depot, stale);
    if let Some((mut buf, shard)) = flush {
        // Outside the hold: the cap may drop objects, running user code.
        pool_event!(MagazineFlush, buf.len());
        pool_hist!("pools.magazine_occupancy", (depot.magazine_cap + 1).saturating_sub(buf.len()));
        depot.park_batch(shard, &mut buf);
        with_mag(depot, false, |mag| mag.flush_buf = buf);
    }
    None
}

/// Take one uninitialized slot from the thread's slab reserve, if any.
pub(crate) fn take_reserve_slot<T: 'static>(depot: &Arc<Depot<T>>) -> Option<SlabSlot<T>> {
    let (slot, stale) = with_mag(depot, true, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        let slot = mag.reserve.as_mut().and_then(SlabReserve::take);
        if mag.reserve.as_ref().is_some_and(SlabReserve::is_exhausted) {
            mag.reserve = None;
        }
        (slot, stale)
    })?;
    drop_stale(depot, stale);
    slot
}

/// Park a freshly carved slab's remaining slots as the thread's reserve.
pub(crate) fn stash_reserve<T: 'static>(depot: &Arc<Depot<T>>, reserve: SlabReserve<T>) {
    let stale = with_mag(depot, true, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        mag.reserve = Some(reserve); // the old one's slots are uninitialized
        stale
    });
    drop_stale(depot, stale.unwrap_or_default());
}

/// Store objects refilled from shard `shard` in the magazine, and make that
/// shard the new home (the spill-updates-preference arena rule).
pub(crate) fn stash<T: 'static>(depot: &Arc<Depot<T>>, shard: usize, items: Vec<PoolBox<T>>) {
    let stale = with_mag(depot, true, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        mag.shard = shard;
        mag.items.extend(items);
        stale
    });
    // Only a refill reaches here, after `refresh` found the table live.
    drop_stale(depot, stale.expect("the table is live within a refill"));
}

/// The calling thread's home shard for this pool, assigned round-robin on
/// first touch — no hashing, no per-operation map lookup. Shard 0 once
/// the table is DEAD.
pub(crate) fn home_shard<T: 'static>(depot: &Arc<Depot<T>>) -> usize {
    with_mag(depot, true, |mag| mag.shard).unwrap_or(0)
}

/// Move the thread's home shard (after a contention spill).
pub(crate) fn set_home_shard<T: 'static>(depot: &Arc<Depot<T>>, shard: usize) {
    with_mag(depot, true, |mag| mag.shard = shard);
}

/// Remove and return everything the calling thread has cached for this pool
/// (trim/flush support), dropping its slab reserve too. Does not create a
/// magazine on threads that never touched the pool.
pub(crate) fn drain_local<T: 'static>(depot: &Arc<Depot<T>>) -> Vec<PoolBox<T>> {
    with_mag(depot, false, |mag| {
        mag.reserve = None;
        let items: Vec<PoolBox<T>> = mag.items.drain(..).collect();
        items
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn depot(shards: usize, cap: usize) -> Arc<Depot<u32>> {
        Arc::new(Depot::new(shards, PoolConfig::default(), cap))
    }

    fn capped_depot(shards: usize, cap: usize, max: usize) -> Arc<Depot<u32>> {
        let config = PoolConfig { max_objects: Some(max), ..Default::default() };
        Arc::new(Depot::new(shards, config, cap))
    }

    /// A magazine-mode release: the hit path, then the miss path. True
    /// when the hit path took it.
    fn put<T: 'static>(d: &Arc<Depot<T>>, obj: PoolBox<T>) -> bool {
        match push(d, obj, 0) {
            None => true,
            Some(obj) => {
                assert!(push_cold(d, obj, 0).is_none(), "the table is live");
                false
            }
        }
    }

    /// A magazine-mode acquire from the magazine alone: the hit path, or
    /// a refresh (creating the magazine, dropping a stale cache) and a
    /// second look.
    fn take(d: &Arc<Depot<u32>>) -> Option<u32> {
        pop(d, 0)
            .or_else(|| {
                assert!(refresh(d));
                pop(d, 0)
            })
            .map(|b| *b)
    }

    /// The calling thread's magazine, read under a hold.
    fn peek<R>(d: &Arc<Depot<u32>>, f: impl FnOnce(&mut Magazine<u32>) -> R) -> Option<R> {
        with_mag(d, false, f)
    }

    #[test]
    fn pop_empty_then_push_then_pop() {
        let d = depot(2, 4);
        assert!(take(&d).is_none());
        assert!(put(&d, PoolBox::new(7)), "the magazine exists: the hit path caches");
        assert_eq!(d.magazine_parked(), 1);
        assert_eq!(take(&d), Some(7));
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn overflow_parks_whole_magazine_on_depot() {
        let d = depot(1, 4);
        for i in 0..4 {
            put(&d, PoolBox::new(i));
        }
        assert!(!put(&d, PoolBox::new(99)), "a full magazine misses the hit path");
        assert_eq!(d.depot_parked(), 4, "the full magazine moved wholesale");
        assert_eq!(d.magazine_parked(), 1, "the incoming object starts the next one");
        assert_eq!(d.stats.depot_parks(), 1);
    }

    #[test]
    fn depot_swap_returns_parked_magazine() {
        let d = depot(1, 4);
        for i in 0..5 {
            put(&d, PoolBox::new(i)); // fifth push parks [0,1,2,3]
        }
        // Empty the live magazine first (holds only `4`).
        assert_eq!(take(&d), Some(4));
        assert!(take(&d).is_none());
        let got = depot_swap(&d).expect("a full magazine is parked");
        assert_eq!(*got, 3, "LIFO within the swapped magazine");
        assert_eq!(d.depot_parked(), 0);
        assert_eq!(d.magazine_parked(), 3);
        assert_eq!(d.stats.depot_swaps(), 1);
        for want in [2, 1, 0] {
            assert_eq!(take(&d), Some(want));
        }
    }

    #[test]
    fn capped_pool_flushes_older_half_with_recycled_buffer() {
        let d = capped_depot(1, 4, 64);
        for i in 0..4 {
            put(&d, PoolBox::new(i));
        }
        assert!(!put(&d, PoolBox::new(99)), "a full magazine misses the hit path");
        // Keep = 2 newest + the incoming object; the 2 oldest flushed.
        assert_eq!(d.magazine_parked(), 3);
        let mut flushed = Vec::new();
        d.refill_batch(0, 64, &mut flushed);
        assert_eq!(flushed.iter().map(|b| **b).collect::<Vec<_>>(), vec![0, 1]);
        d.park_batch(0, &mut flushed);
        let buf = peek(&d, |m| (m.flush_buf.as_ptr(), m.flush_buf.capacity())).unwrap();
        assert!(buf.1 >= 2, "the drained flush buffer came back to the magazine");
        // Next overflow reuses the same buffer: no fresh allocation.
        put(&d, PoolBox::new(100)); // magazine back at cap
        assert!(!put(&d, PoolBox::new(101)));
        assert_eq!(d.shard_parked(), 4, "the second overflow flushed two more");
        let again = peek(&d, |m| (m.flush_buf.as_ptr(), m.flush_buf.capacity())).unwrap();
        assert_eq!(again, buf, "flush buffer must be recycled");
    }

    #[test]
    fn cap_one_magazine_never_exceeds_one() {
        let d = depot(1, 1);
        put(&d, PoolBox::new(1));
        assert!(!put(&d, PoolBox::new(2)), "a full magazine parks");
        assert_eq!(d.magazine_parked(), 1);
        assert_eq!(d.depot_parked(), 1);
    }

    #[test]
    fn stale_epoch_drops_cache() {
        let d = depot(1, 8);
        for i in 0..3 {
            put(&d, PoolBox::new(i));
        }
        d.bump_trim_epoch();
        assert!(pop(&d, 0).is_none(), "post-trim cache must not serve");
        assert!(take(&d).is_none());
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn stale_depot_node_is_discarded_on_swap() {
        let d = depot(1, 2);
        for i in 0..3 {
            put(&d, PoolBox::new(i)); // parks [0,1]
        }
        assert_eq!(d.depot_parked(), 2);
        d.bump_trim_epoch();
        // The live magazine invalidates; the parked node's epoch is stale
        // too, so the swap must refuse to serve it.
        assert!(take(&d).is_none());
        assert!(depot_swap(&d).is_none(), "pre-trim depot magazines must drop");
        assert_eq!(d.depot_parked(), 0);
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn round_robin_home_shards() {
        // Four threads touching a 4-shard depot get four distinct homes.
        let d = depot(4, 8);
        let mut homes: Vec<usize> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                std::thread::spawn(move || home_shard(&d)).join().unwrap()
            })
            .collect();
        homes.sort_unstable();
        assert_eq!(homes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn thread_exit_flushes_to_shards() {
        let d = depot(2, 8);
        let d2 = Arc::clone(&d);
        std::thread::spawn(move || {
            for i in 0..5 {
                put(&d2, PoolBox::new(i));
            }
        })
        .join()
        .unwrap();
        assert_eq!(d.magazine_parked(), 0, "exited thread's cache must flush");
        let shard_total: usize = d.shards.iter().map(ObjectPool::len).sum();
        assert_eq!(shard_total, 5, "flushed objects land in the shards");
        assert_eq!(d.shard_parked(), 5, "the batch path counts the flush");
    }

    #[test]
    fn drain_local_does_not_create_magazines() {
        let d = depot(1, 8);
        assert!(drain_local(&d).is_empty());
        assert!(peek(&d, |_| ()).is_none());
        put(&d, PoolBox::new(1));
        assert_eq!(drain_local(&d).len(), 1);
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn fold_survives_park_panic() {
        struct Bomb;
        impl Drop for Bomb {
            fn drop(&mut self) {
                if !std::thread::panicking() {
                    panic!("bomb: destructor panics during park");
                }
            }
        }

        // Zero-capacity pool: parking rejects everything, and dropping the
        // rejected Bomb panics in the middle of `park_batch`.
        let config = PoolConfig { max_objects: Some(0), ..Default::default() };
        let d: Arc<Depot<Bomb>> = Arc::new(Depot::new(1, config, 4));
        let mut mag = Magazine::new(&d);
        d.guard.record_park(); // the magazine below caches one object
        mag.items.push(PoolBox::new(Bomb));
        mag.cells.hits.store(5, Ordering::Relaxed);
        mag.cells.releases.store(7, Ordering::Relaxed);
        assert_eq!(d.mag_counts.lock().len(), 1, "the cell is registered by address");
        assert!(catch_unwind(AssertUnwindSafe(|| drop(mag))).is_err());
        // The panic unwound out of `park_batch`, but the counts must have
        // folded into the shared stats anyway, and the magazine's counter
        // cell must be retired.
        assert_eq!(d.stats.pool_hits(), 5);
        assert_eq!(d.stats.releases(), 7);
        assert!(d.mag_counts.lock().is_empty(), "cell must retire despite the panic");
    }

    #[test]
    fn reserve_slots_hand_out_distinct_objects() {
        let d = depot(1, 4);
        assert!(take_reserve_slot(&d).is_none());
        let mut reserve = SlabReserve::carve(d.slab_objects).expect("u32 slab");
        let first = reserve.take().unwrap().fill(10);
        stash_reserve(&d, reserve);
        let second = take_reserve_slot(&d).expect("stashed reserve").fill(20);
        assert_eq!((*first, *second), (10, 20));
        // A trim clears the reserve along with the cache.
        d.bump_trim_epoch();
        assert!(take_reserve_slot(&d).is_none());
    }

    #[test]
    fn nested_cold_access_panics_and_the_hold_is_restored() {
        let (d, other) = (depot(1, 4), depot(1, 4));
        put(&d, PoolBox::new(1));
        let nested = catch_unwind(AssertUnwindSafe(|| {
            with_mag(&d, true, |_| {
                assert!(pop(&d, 0).is_none(), "a held table misses on the hit paths");
                with_mag(&other, true, |_| ())
            })
        }));
        let payload = nested.expect_err("re-entry must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("magazine table re-entered"), "unexpected panic: {msg}");
        // The outer hold put the table back while unwinding.
        assert_eq!(pop(&d, 0).map(|b| *b), Some(1), "the hit path serves again");
    }

    /// True when the calling thread's magazine (if any) has room for more
    /// than `cap` objects — the invariant behind the unchecked hit push.
    fn room_ok(d: &Arc<Depot<u32>>) -> bool {
        peek(d, |m| m.items.capacity() > m.cap).unwrap_or(true)
    }

    #[test]
    fn buffers_keep_room_past_cap_across_every_cold_path() {
        for (cap, max) in [(1, None), (2, None), (32, None), (2, Some(8)), (32, Some(40))] {
            let config = PoolConfig { max_objects: max, ..Default::default() };
            let d: Arc<Depot<u32>> = Arc::new(Depot::new(2, config, cap));
            let mut held: Vec<PoolBox<u32>> = Vec::new();
            let (mut refills, mut delays) = (0, 0);
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
            for step in 0..8_000u32 {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                // Phases of 128 steps, release-heavy then acquire-heavy, so
                // magazines fill (park, flush) and empty (swap, refill).
                let op = match (rng % 32, (step / 128) % 2 == 0) {
                    (0..=23, true) | (24..=26, false) => 0,
                    (0..=23, false) | (24..=26, true) => 1,
                    (r, _) => r,
                };
                match op {
                    // Releases: hit pushes, parks and flushes.
                    0 => {
                        put(&d, held.pop().unwrap_or_else(|| PoolBox::new(step)));
                    }
                    // Acquires: hit pops, depot swaps, shard refills with a
                    // stash, and fresh objects.
                    1 => {
                        let obj = pop(&d, 0)
                            .or_else(|| {
                                refresh(&d);
                                depot_swap(&d)
                            })
                            .or_else(|| {
                                let mut batch = Vec::new();
                                let home = home_shard(&d);
                                let used = d.refill_batch(home, cap.div_ceil(2), &mut batch);
                                let obj = batch.pop();
                                if obj.is_some() {
                                    d.guard.record_unpark();
                                    refills += 1;
                                }
                                stash(&d, used, batch);
                                obj
                            });
                        held.push(obj.unwrap_or_else(|| PoolBox::new(step)));
                    }
                    // What an injected flush delay does: a full magazine
                    // takes one object past capacity.
                    27 => {
                        let mut obj = Some(held.pop().unwrap_or_else(|| PoolBox::new(step)));
                        if peek(&d, |m| m.items.len() >= cap).unwrap_or(false) {
                            peek(&d, |m| m.items.push(obj.take().expect("pushed once")));
                            d.guard.record_park();
                            delays += 1;
                        }
                        drop(obj);
                    }
                    // A trim from this thread.
                    28 => {
                        let local = drain_local(&d);
                        d.guard.record_reclaim(local.len());
                        drop(local);
                        d.drain_depot();
                        d.bump_trim_epoch();
                        d.trim_shards();
                    }
                    // A trim from elsewhere: only the epoch moves.
                    29 => d.bump_trim_epoch(),
                    // The magazine's contents to the shards, for refills.
                    30 => d.park_batch(home_shard(&d), &mut drain_local(&d)),
                    _ => drop(held.pop()),
                }
                assert!(room_ok(&d), "cap {cap}, max {max:?}: no room past cap at step {step}");
            }
            // Every cold path ran: depot parks and swaps (uncapped) or
            // flushes (capped), shard refills with a stash, and delays.
            if max.is_none() {
                assert!(d.stats.depot_parks() > 0 && d.stats.depot_swaps() > 0, "cap {cap}");
            }
            assert!(refills > 0 && delays > 0, "cap {cap}, max {max:?}: {refills} {delays}");
            held.into_iter().for_each(|obj| {
                put(&d, obj);
            });
            assert!(room_ok(&d));
            let local = drain_local(&d);
            d.guard.record_reclaim(local.len());
        }
    }
}
