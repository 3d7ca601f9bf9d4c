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
//! Invariants the rest of the crate (and the stress tests) rely on:
//!
//! * every object is in exactly one place at any time — held by a caller,
//!   cached in one magazine, parked in one depot node, or parked in one
//!   shard free list;
//! * [`Depot::magazine_parked`] equals the summed size of all live
//!   magazines, [`Depot::depot_parked`] the objects inside parked depot
//!   magazines, and [`Depot::shard_parked`] the shard free-list population
//!   (exact in magazine mode, where shards gain/lose objects only through
//!   the counted batch paths) — so `ShardedPool::len()` is accurate without
//!   reaching into other threads' caches;
//! * a thread's magazines flush back to the shards when the thread exits
//!   (TLS destructor), so no object leaks and `trim` can still reclaim it;
//! * `trim` drains the *calling* thread's magazine, empties the depot, and
//!   bumps [`Depot::trim_epoch`]; other threads observe the stale epoch on
//!   their next operation and drop their cached objects lazily (a trim
//!   cannot safely touch another thread's `RefCell`). Depot nodes carry the
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
use std::cell::RefCell;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Default objects a magazine may hold (per thread, per pool).
pub const DEFAULT_MAGAZINE_CAP: usize = 32;

/// Upper bound on one carved slab's backing buffer. Keeps a cold pool of
/// large objects from committing megabytes on its first miss.
const MAX_SLAB_BYTES: usize = 64 * 1024;

/// Pool ids double as thread-local slot indices, so they are never reused.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's magazines, indexed by pool id. The `RefCell` borrow is
    /// the reentrancy guard (see [`with_magazine`]).
    static MAGAZINES: RefCell<Vec<Option<MagSlot>>> = const { RefCell::new(Vec::new()) };
}

/// One thread's magazine for one pool, its object type erased: a pointer to
/// a boxed `Magazine<T>` plus the function that drops it. A slot is only
/// ever filled by the pool owning its index, and pool ids are never reused,
/// so the id alone fixes `T` — the fast paths cast instead of downcasting.
struct MagSlot {
    mag: NonNull<()>,
    drop_mag: unsafe fn(NonNull<()>),
    #[cfg(debug_assertions)]
    type_id: std::any::TypeId,
}

impl MagSlot {
    fn new<T: 'static>(mag: Magazine<T>) -> Self {
        /// # Safety
        /// `mag` must be the pointer a `MagSlot::new::<T>` leaked, not yet
        /// dropped.
        unsafe fn drop_mag<T>(mag: NonNull<()>) {
            // SAFETY: `mag` came from `Box::leak` in `MagSlot::new::<T>`.
            drop(unsafe { Box::from_raw(mag.cast::<Magazine<T>>().as_ptr()) });
        }
        MagSlot {
            mag: NonNull::from(Box::leak(Box::new(mag))).cast(),
            drop_mag: drop_mag::<T>,
            #[cfg(debug_assertions)]
            type_id: std::any::TypeId::of::<Magazine<T>>(),
        }
    }

    /// The typed magazine.
    ///
    /// # Safety
    /// `T` must be the type the slot was created with: the caller indexes
    /// the slot by its own pool's id.
    #[inline(always)]
    unsafe fn magazine<T: 'static>(&mut self) -> &mut Magazine<T> {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.type_id == std::any::TypeId::of::<Magazine<T>>(),
            "pool ids are never reused, so the slot type matches"
        );
        // SAFETY: per the contract, the pointee is a live `Magazine<T>`,
        // borrowed through `&mut self`.
        unsafe { &mut *self.mag.cast::<Magazine<T>>().as_ptr() }
    }
}

impl Drop for MagSlot {
    fn drop(&mut self) {
        // SAFETY: `drop_mag` is the drop function for this pointee's type.
        unsafe { (self.drop_mag)(self.mag) }
    }
}

/// The shared half of a magazine-fronted pool: the shard array, the
/// full-magazine depot stacks, and the counters magazines coordinate
/// through.
#[derive(Debug)]
pub(crate) struct Depot<T> {
    id: u64,
    pub(crate) shards: Box<[ObjectPool<T>]>,
    /// Objects a magazine may hold; 0 disables magazines (direct mode).
    pub(crate) magazine_cap: usize,
    /// Round-robin cursor assigning home shards to new magazines — the
    /// one-time replacement for hashing the thread id on every operation.
    next_shard: AtomicUsize,
    /// Bumped by `trim`; magazines with an older epoch discard their cache.
    trim_epoch: AtomicU64,
    /// One [`MagCells`] per live magazine, each written only by its owning
    /// thread with relaxed *stores* (plain `mov`s — no locked RMW on the
    /// acquire/release fast paths). Readers lock the list and sum.
    mag_counts: Mutex<Vec<Arc<MagCells>>>,
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

    /// Objects cached in magazines across all threads (sum of the live
    /// magazines' count cells).
    pub(crate) fn magazine_parked(&self) -> usize {
        self.mag_counts.lock().iter().map(|c| c.parked.load(Ordering::Relaxed)).sum()
    }

    /// Aggregate statistics: the shared counters, every shard's, and the
    /// counts live magazines hold but have not folded yet. Taken under the
    /// cell lock, so a magazine retiring concurrently (which folds and
    /// drops its cell in one critical section) is counted exactly once.
    /// Every source is read in the three phases [`StatsSnapshot`] documents
    /// — frees, net bytes, allocations — and the owners publish in the
    /// matching order (see [`publish_cells`]).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let cells = self.mag_counts.lock();
        let sources = || std::iter::once(&self.stats).chain(self.shards.iter().map(|s| s.stats()));
        let mut s = StatsSnapshot::default();
        sources().for_each(|p| s.add_frees_of(p));
        let releases = cells.iter().map(|c| c.releases.load(Ordering::Relaxed)).sum();
        sources().for_each(|p| s.add_bytes_of(p));
        let bytes = cells.iter().map(|c| c.bytes.load(Ordering::Relaxed)).sum();
        sources().for_each(|p| s.add_allocs_of(p));
        let hits = cells.iter().map(|c| c.hits.load(Ordering::Relaxed)).sum();
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

/// One magazine's shared counter cell. The owning thread publishes with
/// relaxed *stores* after every operation (see [`publish_cells`]) — plain
/// `mov`s to a line no other thread writes, so the fast paths carry no
/// locked RMW at all. Cross-thread readers go through [`Depot::mag_counts`]
/// and see values exact at quiescent points (thread-join or barrier
/// synchronization orders the stores before the reads).
#[derive(Debug, Default)]
struct MagCells {
    /// Mirrors `Magazine::items.len()`.
    parked: AtomicUsize,
    /// Magazine fast-path acquire hits (mirrors `Magazine::hits`).
    hits: AtomicU64,
    /// Magazine releases (mirrors `Magazine::releases`).
    releases: AtomicU64,
    /// Net bytes of this magazine's hits and releases (mirrors
    /// `Magazine::bytes`).
    bytes: AtomicI64,
}

/// One thread's cache of parked objects for one pool.
pub(crate) struct Magazine<T> {
    depot: Weak<Depot<T>>,
    items: Vec<PoolBox<T>>,
    /// This magazine's entry in [`Depot::mag_counts`].
    cells: Arc<MagCells>,
    /// Acquire hits served by this magazine, counted as a plain field and
    /// published through `cells`; folded into [`Depot::stats`] on drop.
    hits: u64,
    /// Releases accepted by this magazine; same lifecycle as `hits`.
    releases: u64,
    /// Net byte ledger of this magazine's hits (+) and releases (−), as
    /// passed by sized callers; same lifecycle as `hits`. Negative when
    /// the thread frees more than it reuses (its allocs took cold paths,
    /// which book their bytes in the shared ledger).
    bytes: i64,
    /// Home shard for refills and flushes.
    shard: usize,
    /// Copy of [`Depot::trim_epoch`] from the last (in)validation.
    epoch: u64,
    /// Empty node shell kept back from the last depot exchange, so the
    /// steady empty↔full cycle never touches the free-node stack.
    spare: Option<NonNull<DepotNode<T>>>,
    /// Recycled overflow-flush buffer (capped pools), so the flush slow
    /// path does not allocate a fresh `Vec` per overflow.
    flush_buf: Vec<PoolBox<T>>,
    /// Private cursor over the unused tail of the last carved slab.
    reserve: Option<SlabReserve<T>>,
}

impl<T> Drop for Magazine<T> {
    fn drop(&mut self) {
        // Thread exit (TLS teardown): hand cached objects back to the
        // shards so they stay reachable by `trim` instead of leaking, and
        // return the spare node shell to the depot. If the pool itself is
        // already gone, the objects simply drop (and the depot has already
        // freed every node, spare included — don't touch it).
        if let Some(depot) = self.depot.upgrade() {
            // Fold-on-drop must be panic-safe: parking the cached objects
            // can run arbitrary user destructors (a capped shard drops the
            // overflow), and if one of them panics the locally-counted
            // hits/releases must still reach the shared stats. The fold
            // lives in this guard's own `Drop`, which runs even while
            // `park_batch` unwinds.
            struct FoldOnDrop<'a, T> {
                depot: &'a Depot<T>,
                cells: &'a Arc<MagCells>,
                hits: u64,
                releases: u64,
                bytes: i64,
            }
            impl<T> Drop for FoldOnDrop<'_, T> {
                fn drop(&mut self) {
                    // Fold the counts into the shared stats and retire the
                    // cell in one critical section, so a stats reader
                    // (which also locks `mag_counts`) never counts them
                    // twice — and never loses them to a mid-park panic.
                    let mut cells = self.depot.mag_counts.lock();
                    self.depot.stats.fold_magazine_counts(self.hits, self.releases, self.bytes);
                    cells.retain(|c| !Arc::ptr_eq(c, self.cells));
                }
            }
            let _fold = FoldOnDrop {
                depot: &depot,
                cells: &self.cells,
                hits: self.hits,
                releases: self.releases,
                bytes: self.bytes,
            };
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
/// first touch (home shard assigned round-robin).
///
/// `f` must not run user code (constructors, destructors) — the thread-local
/// registry is borrowed for its duration, and a pooled type whose `Drop`
/// touches another pool would otherwise re-enter the borrow.
fn with_magazine<T: 'static, R>(depot: &Arc<Depot<T>>, f: impl FnOnce(&mut Magazine<T>) -> R) -> R {
    let idx = depot.id as usize;
    MAGAZINES.with(|slots| {
        let mut slots = slots.borrow_mut();
        if slots.len() <= idx {
            slots.resize_with(idx + 1, || None);
        }
        let slot = slots[idx].get_or_insert_with(|| {
            let shard = depot.next_shard.fetch_add(1, Ordering::Relaxed) % depot.shards.len();
            let cells = Arc::new(MagCells::default());
            depot.mag_counts.lock().push(Arc::clone(&cells));
            MagSlot::new(Magazine {
                depot: Arc::downgrade(depot),
                items: Vec::with_capacity(depot.magazine_cap),
                cells,
                hits: 0,
                releases: 0,
                bytes: 0,
                shard,
                epoch: depot.trim_epoch.load(Ordering::Relaxed),
                spare: None,
                flush_buf: Vec::new(),
                reserve: None,
            })
        });
        // SAFETY: the slot at this pool's id holds this pool's magazine.
        let mag = unsafe { slot.magazine::<T>() };
        let r = f(mag);
        publish_cells(mag);
        r
    })
}

/// Publish a magazine's local counters to its shared cell — relaxed stores
/// to one thread-owned line, the whole cost of cross-thread counter
/// visibility. The order pairs with [`Depot::snapshot`]'s reads: an
/// acquire's `hits` before its `bytes`, a release's `bytes` before its
/// `releases`.
#[inline(always)]
fn publish_cells<T>(mag: &Magazine<T>) {
    mag.cells.parked.store(mag.items.len(), Ordering::Relaxed);
    mag.cells.hits.store(mag.hits, Ordering::Relaxed);
    mag.cells.bytes.store(mag.bytes, Ordering::Relaxed);
    mag.cells.releases.store(mag.releases, Ordering::Relaxed);
}

/// Run `f` on the calling thread's magazine for `depot` if it has one —
/// the fast paths' entry: one registry borrow and a cast, no creation, no
/// publish (`f` publishes what it changed).
#[inline(always)]
fn with_existing<T: 'static, R>(
    depot: &Depot<T>,
    f: impl FnOnce(&mut Magazine<T>) -> Option<R>,
) -> Option<R> {
    MAGAZINES.with(|slots| {
        let mut slots = slots.borrow_mut();
        // SAFETY: the slot at this pool's id holds this pool's magazine.
        let mag = unsafe { slots.get_mut(depot.id as usize)?.as_mut()?.magazine::<T>() };
        f(mag)
    })
}

/// Like [`with_magazine`] but without creating a missing magazine.
fn with_magazine_opt<T: 'static, R>(
    depot: &Arc<Depot<T>>,
    f: impl FnOnce(&mut Magazine<T>) -> R,
) -> Option<R> {
    with_existing(depot, |mag| {
        let r = f(mag);
        publish_cells(mag);
        Some(r)
    })
}

/// If a trim happened since this magazine last looked, surrender the cached
/// objects (returned for the caller to drop outside the TLS borrow) and the
/// slab reserve (raw memory — safe to release in place).
///
/// Split hot/cold: the epoch compare sits on the acquire/release fast
/// paths, so it must inline to a load-and-branch; the surrender itself is
/// outlined.
#[inline(always)]
fn invalidate_if_stale<T>(mag: &mut Magazine<T>, depot: &Depot<T>) -> Vec<PoolBox<T>> {
    let epoch = depot.trim_epoch.load(Ordering::Relaxed);
    if mag.epoch == epoch {
        return Vec::new();
    }
    invalidate_stale(mag, epoch)
}

#[cold]
fn invalidate_stale<T>(mag: &mut Magazine<T>, epoch: u64) -> Vec<PoolBox<T>> {
    mag.epoch = epoch;
    mag.reserve = None; // uninitialized slots: releasing them runs no user code
    if mag.items.is_empty() {
        return Vec::new();
    }
    let stale: Vec<PoolBox<T>> = mag.items.drain(..).collect();
    // Recorded here rather than at the call sites: this branch is already
    // cold and call-heavy, so the event costs nothing on the fast paths.
    pool_event!(EpochInvalidation, stale.len());
    stale
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
/// in the magazine's own ledger. `None` means the magazine is empty and the
/// caller should try the depot.
///
/// Split hot/cold: the inlined part is one registry borrow, the epoch
/// compare, the pop and the owner-counter stores. A missing magazine, a
/// stale epoch or an empty magazine is a miss, handled by [`pop_cold`].
#[inline]
pub(crate) fn pop<T: 'static>(depot: &Arc<Depot<T>>, bytes: u64) -> Option<PoolBox<T>> {
    let hit = with_existing(depot, |mag| {
        if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed) {
            return None;
        }
        let obj = mag.items.pop()?;
        mag.hits += 1;
        mag.bytes = mag.bytes.wrapping_add(bytes as i64);
        mag.cells.parked.store(mag.items.len(), Ordering::Relaxed);
        mag.cells.hits.store(mag.hits, Ordering::Relaxed);
        mag.cells.bytes.store(mag.bytes, Ordering::Relaxed);
        Some(obj)
    });
    match hit {
        Some(obj) => {
            depot.guard.record_unpark();
            Some(obj)
        }
        None => {
            pop_cold(depot);
            None
        }
    }
}

/// The magazine side of an acquire miss: create the thread's magazine on
/// first touch, or surrender a cache a trim made stale. Nothing is left to
/// pop — the hot path served any valid cached object.
#[cold]
#[inline(never)]
fn pop_cold<T: 'static>(depot: &Arc<Depot<T>>) {
    let stale = with_magazine(depot, |mag| invalidate_if_stale(mag, depot));
    depot.guard.record_reclaim(stale.len());
    drop(stale); // outside the borrow: destructors may re-enter pool code
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
    let (obj, stale) = with_magazine(depot, |mag| {
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
            recycle_node(mag, depot, node_ptr);
            got = mag.items.pop();
            depot.stats.record_depot_swap();
            pool_event!(DepotSwap, n);
            pool_hist!("pools.depot_swap_objects", n);
            break;
        }
        (got, stale)
    });
    if obj.is_some() {
        depot.guard.record_unpark();
    }
    depot.guard.record_reclaim(stale.len());
    drop(stale);
    obj
}

/// What [`push`] asks the caller to do after the fast path.
pub(crate) enum PushOutcome<T> {
    /// The full magazine was parked on the depot in one CAS — done.
    Parked,
    /// Capped pool: the older half must go through the shard locks (where
    /// the population cap is enforced). `buf` is the magazine's recycled
    /// flush buffer; hand it back with [`restore_flush_buf`] once drained.
    Flush {
        /// Older half of the full magazine.
        buf: Vec<PoolBox<T>>,
        /// Home shard to start parking at.
        shard: usize,
    },
}

/// Cache one released object — the lock-free release path, booking
/// `bytes` out of the magazine's ledger. A full magazine in an uncapped
/// pool parks *whole* on the depot (one CAS); in a capped pool the older
/// half is handed back for the caller to park in a shard.
///
/// Split hot/cold like [`pop`]: the inlined part caches the object below
/// capacity; a missing magazine, a stale epoch or a full magazine (and
/// with it the flush-delay fault draw) falls to [`push_cold`].
#[inline]
pub(crate) fn push<T: 'static>(
    depot: &Arc<Depot<T>>,
    obj: PoolBox<T>,
    bytes: u64,
) -> Option<PushOutcome<T>> {
    // Taken by the closure only when it caches the object.
    let mut obj = Some(obj);
    with_existing(depot, |mag| {
        if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed)
            || mag.items.len() >= depot.magazine_cap
        {
            return None;
        }
        mag.items.push(obj.take()?);
        mag.releases += 1;
        mag.bytes = mag.bytes.wrapping_sub(bytes as i64);
        mag.cells.parked.store(mag.items.len(), Ordering::Relaxed);
        mag.cells.bytes.store(mag.bytes, Ordering::Relaxed);
        mag.cells.releases.store(mag.releases, Ordering::Relaxed);
        Some(())
    });
    match obj {
        None => {
            depot.guard.record_park();
            None
        }
        Some(obj) => push_cold(depot, obj, bytes),
    }
}

#[cold]
#[inline(never)]
fn push_cold<T: 'static>(
    depot: &Arc<Depot<T>>,
    obj: PoolBox<T>,
    bytes: u64,
) -> Option<PushOutcome<T>> {
    let (outcome, stale) = with_magazine(depot, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        let cap = depot.magazine_cap;
        let outcome = if mag.items.len() < cap {
            None
        } else if fault::delay_flush() {
            // Injected flush delay: skip the park/flush once. The magazine
            // runs past capacity; the next release sees it full again and
            // handles the (now larger) overflow through the normal paths,
            // which tolerate any length ≥ cap.
            None
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
            node.epoch = mag.epoch;
            depot.depot_parked.fetch_add(n, Ordering::Relaxed);
            depot.full[mag.shard].push(node_ptr);
            depot.stats.record_depot_park();
            pool_event!(DepotPark, n);
            pool_hist!("pools.depot_park_objects", n);
            Some(PushOutcome::Parked)
        } else {
            // Keep the newest (cache-warm) half, flush the rest through
            // the shard locks. `cap` is at least 1 here, so at least one
            // slot frees up. The buffer is recycled across overflows.
            let keep = (cap - cap / 2).min(cap - 1);
            let split = mag.items.len() - keep;
            let mut buf = std::mem::take(&mut mag.flush_buf);
            buf.extend(mag.items.drain(..split));
            Some(PushOutcome::Flush { buf, shard: mag.shard })
        };
        mag.items.push(obj);
        mag.releases += 1;
        mag.bytes = mag.bytes.wrapping_sub(bytes as i64);
        (outcome, stale)
    });
    depot.guard.record_park();
    depot.guard.record_reclaim(stale.len());
    drop(stale);
    outcome
}

/// Return the (drained) flush buffer after a [`PushOutcome::Flush`], so the
/// next overflow reuses its capacity instead of allocating.
pub(crate) fn restore_flush_buf<T: 'static>(depot: &Arc<Depot<T>>, buf: Vec<PoolBox<T>>) {
    debug_assert!(buf.is_empty(), "flush buffers come back drained");
    with_magazine_opt(depot, |mag| mag.flush_buf = buf);
}

/// Take one uninitialized slot from the thread's slab reserve, if any.
pub(crate) fn take_reserve_slot<T: 'static>(depot: &Arc<Depot<T>>) -> Option<SlabSlot<T>> {
    let (slot, stale) = with_magazine(depot, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        let slot = mag.reserve.as_mut().and_then(SlabReserve::take);
        if mag.reserve.as_ref().is_some_and(SlabReserve::is_exhausted) {
            mag.reserve = None;
        }
        (slot, stale)
    });
    depot.guard.record_reclaim(stale.len());
    drop(stale);
    slot
}

/// Park a freshly carved slab's remaining slots as the thread's reserve.
pub(crate) fn stash_reserve<T: 'static>(depot: &Arc<Depot<T>>, reserve: SlabReserve<T>) {
    let (old, stale) = with_magazine(depot, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        (mag.reserve.replace(reserve), stale)
    });
    depot.guard.record_reclaim(stale.len());
    drop(old);
    drop(stale);
}

/// Store objects refilled from shard `shard` in the magazine, and make that
/// shard the new home (the spill-updates-preference arena rule).
pub(crate) fn stash<T: 'static>(depot: &Arc<Depot<T>>, shard: usize, items: Vec<PoolBox<T>>) {
    let stale = with_magazine(depot, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        mag.shard = shard;
        mag.items.extend(items);
        stale
    });
    depot.guard.record_reclaim(stale.len());
    drop(stale);
}

/// The calling thread's home shard for this pool, assigned round-robin on
/// first touch — no hashing, no per-operation map lookup.
pub(crate) fn home_shard<T: 'static>(depot: &Arc<Depot<T>>) -> usize {
    with_magazine(depot, |mag| mag.shard)
}

/// Move the thread's home shard (after a contention spill).
pub(crate) fn set_home_shard<T: 'static>(depot: &Arc<Depot<T>>, shard: usize) {
    with_magazine(depot, |mag| mag.shard = shard);
}

/// Remove and return everything the calling thread has cached for this pool
/// (trim/flush support), dropping its slab reserve too. Does not create a
/// magazine on threads that never touched the pool.
pub(crate) fn drain_local<T: 'static>(depot: &Arc<Depot<T>>) -> Vec<PoolBox<T>> {
    with_magazine_opt(depot, |mag| {
        mag.reserve = None;
        let items: Vec<PoolBox<T>> = mag.items.drain(..).collect();
        items
    })
    .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn depot(shards: usize, cap: usize) -> Arc<Depot<u32>> {
        Arc::new(Depot::new(shards, PoolConfig::default(), cap))
    }

    fn capped_depot(shards: usize, cap: usize, max: usize) -> Arc<Depot<u32>> {
        let config = PoolConfig { max_objects: Some(max), ..Default::default() };
        Arc::new(Depot::new(shards, config, cap))
    }

    #[test]
    fn pop_empty_then_push_then_pop() {
        let d = depot(2, 4);
        assert!(pop(&d, 0).is_none());
        assert!(push(&d, PoolBox::new(7), 0).is_none());
        assert_eq!(d.magazine_parked(), 1);
        assert_eq!(pop(&d, 0).map(|b| *b), Some(7));
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn overflow_parks_whole_magazine_on_depot() {
        let d = depot(1, 4);
        for i in 0..4 {
            assert!(push(&d, PoolBox::new(i), 0).is_none());
        }
        match push(&d, PoolBox::new(99), 0) {
            Some(PushOutcome::Parked) => {}
            _ => panic!("uncapped pool must park on the depot"),
        }
        assert_eq!(d.depot_parked(), 4, "the full magazine moved wholesale");
        assert_eq!(d.magazine_parked(), 1, "the incoming object starts the next one");
        assert_eq!(d.stats.depot_parks(), 1);
    }

    #[test]
    fn depot_swap_returns_parked_magazine() {
        let d = depot(1, 4);
        for i in 0..5 {
            push(&d, PoolBox::new(i), 0); // fifth push parks [0,1,2,3]
        }
        // Empty the live magazine first (holds only `4`).
        assert_eq!(pop(&d, 0).map(|b| *b), Some(4));
        assert!(pop(&d, 0).is_none());
        let got = depot_swap(&d).expect("a full magazine is parked");
        assert_eq!(*got, 3, "LIFO within the swapped magazine");
        assert_eq!(d.depot_parked(), 0);
        assert_eq!(d.magazine_parked(), 3);
        assert_eq!(d.stats.depot_swaps(), 1);
        for want in [2, 1, 0] {
            assert_eq!(pop(&d, 0).map(|b| *b), Some(want));
        }
    }

    #[test]
    fn capped_pool_flushes_older_half_with_recycled_buffer() {
        let d = capped_depot(1, 4, 64);
        for i in 0..4 {
            assert!(push(&d, PoolBox::new(i), 0).is_none());
        }
        let Some(PushOutcome::Flush { buf, shard }) = push(&d, PoolBox::new(99), 0) else {
            panic!("capped pool must flush through the shard locks");
        };
        // Keep = 2 newest + the incoming object; flush the 2 oldest.
        assert_eq!(buf.iter().map(|b| **b).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(d.magazine_parked(), 3);
        let mut buf = buf;
        d.park_batch(shard, &mut buf);
        let capacity = buf.capacity();
        restore_flush_buf(&d, buf);
        assert!(capacity >= 2);
        // Next overflow reuses the same buffer: no fresh capacity needed.
        push(&d, PoolBox::new(100), 0); // magazine back at cap
        let Some(PushOutcome::Flush { buf, .. }) = push(&d, PoolBox::new(101), 0) else {
            panic!("second overflow");
        };
        assert_eq!(buf.capacity(), capacity, "flush buffer must be recycled");
    }

    #[test]
    fn cap_one_magazine_never_exceeds_one() {
        let d = depot(1, 1);
        assert!(push(&d, PoolBox::new(1), 0).is_none());
        assert!(matches!(push(&d, PoolBox::new(2), 0), Some(PushOutcome::Parked)));
        assert_eq!(d.magazine_parked(), 1);
        assert_eq!(d.depot_parked(), 1);
    }

    #[test]
    fn stale_epoch_drops_cache() {
        let d = depot(1, 8);
        for i in 0..3 {
            push(&d, PoolBox::new(i), 0);
        }
        d.bump_trim_epoch();
        assert!(pop(&d, 0).is_none(), "post-trim cache must not serve");
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn stale_depot_node_is_discarded_on_swap() {
        let d = depot(1, 2);
        for i in 0..3 {
            push(&d, PoolBox::new(i), 0); // parks [0,1]
        }
        assert_eq!(d.depot_parked(), 2);
        d.bump_trim_epoch();
        // The live magazine invalidates; the parked node's epoch is stale
        // too, so the swap must refuse to serve it.
        assert!(pop(&d, 0).is_none());
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
                push(&d2, PoolBox::new(i), 0);
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
        push(&d, PoolBox::new(1), 0);
        assert_eq!(drain_local(&d).len(), 1);
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn fold_survives_park_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};

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
        let cells = Arc::new(MagCells::default());
        d.mag_counts.lock().push(Arc::clone(&cells));
        d.guard.record_park(); // the hand-built magazine below caches one object
        let mag = Magazine {
            depot: Arc::downgrade(&d),
            items: vec![PoolBox::new(Bomb)],
            cells,
            hits: 5,
            releases: 7,
            bytes: 0,
            shard: 0,
            epoch: 0,
            spare: None,
            flush_buf: Vec::new(),
            reserve: None,
        };
        assert!(catch_unwind(AssertUnwindSafe(|| drop(mag))).is_err());
        // The panic unwound out of `park_batch`, but the locally-counted
        // hits and releases must have folded into the shared stats anyway,
        // and the magazine's counter cell must be retired.
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
}
