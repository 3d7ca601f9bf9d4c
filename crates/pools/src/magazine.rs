//! Thread-local magazines: the lock-free fast path in front of a sharded
//! pool (the tcmalloc/Hoard thread-cache idea applied to object pools),
//! backed by a Bonwick-style **magazine depot**.
//!
//! Each thread keeps a small bounded cache — a *magazine* — of parked
//! objects per pool: an intrusive list threaded through the objects' slot
//! headers ([`SlotList`]), so the whole magazine is `(head, len)`.
//! Steady-state acquire/release is a pop or push on that list: no mutex, no
//! hash lookup, no write into the object. Behind the magazines the *depot*
//! is the only shared tier: one stack of whole parked lists per pool, the
//! size-class engine's stack ([`BlockStack`]) with each list in a node
//! shell, a one-block segment. A full magazine moves its two list words
//! into a shell from the pool's shell stack and pushes it; an empty one
//! pops a node, takes the two words and pushes the shell back. When the
//! depot has nothing to offer, a fresh object takes a slot from the
//! size-class engine ([`crate::pool_box::PoolBox::new`]). A magazine-mode
//! pool takes no lock on any path; the locked shard free lists belong to
//! direct mode (`magazine_cap == 0`) alone, which never creates a magazine.
//!
//! A thread finds its magazines in a slot table named by two const-init
//! cells (pointer and length, the size-class engine's `CACHE` idiom). A
//! length of 0 sends every operation to the cold path: before first use,
//! while a cold path holds the table (re-entry panics), and after TLS
//! teardown (DEAD: a release parks a one-object depot node, an acquire
//! takes one object from a node and parks the rest again). A cold access
//! also frees the table's magazines whose pool was dropped since it last
//! looked, so a dead pool's cache does not wait for the thread to exit.
//!
//! Invariants the rest of the crate (and the stress tests) rely on:
//!
//! * every object is in exactly one place at any time — held by a caller,
//!   cached in one magazine, or parked in one depot node;
//! * [`Depot::magazine_parked`] equals the summed size of all live
//!   magazines and [`Depot::depot_parked`] the objects inside depot nodes,
//!   so `ShardedPool::len()` is accurate at quiescent points without
//!   reaching into other threads' caches;
//! * caps are admitted at park time: a capped pool keeps its exact depot
//!   population in one atomic, reserves room in it before each push, and
//!   drops the older end of a list beyond that room (outside the table
//!   hold: destructors are user code);
//! * every count the magazine paths move — hits, releases, net bytes,
//!   depot swaps and parks, and the uncapped depot population — is written
//!   by the owning thread into its magazine's [`MagCells`] with plain
//!   stores, and folded into the shared counters when the magazine
//!   retires: the hit path takes no locked read-modify-write, and an
//!   uncapped pool's depot exchange none besides its two stack CASes;
//! * a node shell is an engine block on one of the depot's two stacks,
//!   except while an exchange holds it, and goes back to the engine only
//!   when the depot drops: a pop that loses its race still reads live
//!   memory;
//! * a thread's magazines park on the depot when the thread exits (TLS
//!   destructor), so no object leaks and `trim` can still reclaim it;
//! * `trim` drains the *calling* thread's magazine, empties the depot, and
//!   bumps [`Depot::trim_epoch`]; other threads observe the stale epoch on
//!   their next operation and drop their cached objects lazily (a trim
//!   cannot safely touch another thread's table). Depot nodes carry the
//!   epoch they were parked under, so a node that raced past the drain is
//!   recognized as stale at swap time and discarded then.

use crate::block_stack::BlockStack;
use crate::fault;
use crate::global::{raw_alloc, raw_dealloc};
use crate::guard;
use crate::limits::PoolConfig;
use crate::pool_box::{PoolBox, SlotHeader, SlotList};
use crate::sharded::Shard;
use crate::stats::{PoolStats, StatsSnapshot};
use parking_lot::Mutex;
use std::alloc::{handle_alloc_error, Layout};
use std::any::TypeId;
use std::cell::Cell;
use std::mem;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// Default objects a magazine may hold (per thread, per pool).
pub const DEFAULT_MAGAZINE_CAP: usize = 32;

/// Pool ids double as thread-local slot indices, so they are never reused.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// Pools dropped so far, process-wide. A cold table access that sees a new
/// value frees the thread's magazines whose pool is gone.
static DROPPED_POOLS: AtomicUsize = AtomicUsize::new(0);

/// [`Table::ptr`]'s tag bit while a cold path holds the table, and its
/// post-teardown sentinel (never dereferenced).
const HELD: usize = 1;
const DEAD: *mut MagSlot = usize::MAX as *mut MagSlot;

/// A table slot's view of its magazine, whatever the pool's type.
trait Slot {
    /// True once the magazine's pool has been dropped.
    fn orphaned(&self) -> bool;
    /// The magazine's concrete type (the debug check of the id rule).
    fn magazine_type(&self) -> TypeId;
}

impl<T: 'static> Slot for Magazine<T> {
    fn orphaned(&self) -> bool {
        self.depot.strong_count() == 0
    }

    fn magazine_type(&self) -> TypeId {
        TypeId::of::<Self>()
    }
}

/// One thread's magazine for one pool, type-erased (`None` until first
/// use). Pool ids are never reused and a slot is only filled by the pool
/// owning its index, so the id fixes the type: the paths cast.
type MagSlot = Option<NonNull<dyn Slot>>;

/// This thread's magazines, indexed by pool id: a leaked boxed slice of
/// [`MagSlot`]s. Const-init and no destructor, so reading it is a plain
/// TLS load at any point in the thread's life, teardown included.
struct Table {
    ptr: Cell<*mut MagSlot>,
    /// 0 whenever the hit paths must miss: no table yet, held, or DEAD.
    len: Cell<usize>,
    /// [`DROPPED_POOLS`] as of the last orphan sweep (cold paths only).
    seen: Cell<usize>,
}

thread_local! {
    static TABLE: Table = const {
        Table { ptr: Cell::new(ptr::null_mut()), len: Cell::new(0), seen: Cell::new(0) }
    };
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
            // Acquire: a pool whose drop is counted here reads as orphaned.
            let dropped = DROPPED_POOLS.load(Ordering::Acquire);
            let ptr = if dropped == t.seen.get() { ptr } else { free_orphans(t, dropped) };
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

/// Free the table's magazines whose pool is gone (as of `dropped` pool
/// drops), before a cold path takes the table. Their objects' destructors
/// are user code, so they run with the table in place (a nested cold
/// access works); returns the table pointer as they leave it.
#[cold]
#[inline(never)]
fn free_orphans(t: &Table, dropped: usize) -> *mut MagSlot {
    t.seen.set(dropped);
    let (ptr, len) = (t.ptr.get(), t.len.get());
    let mut orphans = Vec::new();
    for id in 0..len {
        // SAFETY: in bounds of the live table, which no other code touches
        // during the walk; a filled slot holds a live leaked magazine.
        let slot = unsafe { &mut *ptr.add(id) };
        if slot.is_some_and(|m| unsafe { m.as_ref() }.orphaned()) {
            orphans.extend(slot.take());
        }
    }
    // SAFETY: taken out of their slots, so these boxes are ours alone.
    orphans.into_iter().for_each(|m| drop(unsafe { Box::from_raw(m.as_ptr()) }));
    t.ptr.get()
}

/// The shared half of a magazine-fronted pool: the depot's two stacks,
/// direct mode's shard array, and the counters magazines coordinate
/// through.
#[derive(Debug)]
pub(crate) struct Depot<T> {
    id: usize,
    /// Direct mode's locked free lists, one per shard; empty in magazine
    /// mode, whose only shared tier is the depot.
    pub(crate) shards: Box<[Shard<T>]>,
    /// Objects a magazine may hold; 0 disables magazines (direct mode).
    pub(crate) magazine_cap: usize,
    /// Bumped by `trim`; magazines with an older epoch discard their cache.
    trim_epoch: AtomicU64,
    /// The address of every live magazine's [`MagCells`], registered at
    /// creation and removed (under this lock) before the magazine is freed.
    /// Readers lock the list and sum.
    mag_counts: Mutex<Vec<usize>>,
    /// Objects parked inside depot nodes, less what the live magazines'
    /// `depot_net` cells hold: retired magazines fold their net in, the
    /// paths without a magazine (retire, flush, DEAD) book here directly,
    /// and `trim` takes the drained objects out.
    depot_parked: AtomicI64,
    /// Capped pools only: the most objects the depot may hold, the
    /// population cap times the shard count.
    bound: Option<usize>,
    /// Capped pools only: the exact depot population. A park reserves its
    /// room here before the push, and a pop releases it after; uncapped
    /// pools never touch it.
    capped_parked: AtomicUsize,
    /// Parked lists, one [`DepotNode`] each.
    full: BlockStack,
    /// Empty node shells, ready for the next park. A shell is on one of
    /// the two stacks except while an exchange holds it, and is freed only
    /// in `Drop`: shells are type-stable while the depot lives, which the
    /// lock-free pop relies on.
    shells: BlockStack,
    /// Fresh allocations, cap drops, the DEAD path's counts and the folded
    /// counts of retired magazines.
    pub(crate) stats: PoolStats,
    /// Park/unpark/reclaim books, reconciled at drop (zero-sized no-op in
    /// default release builds — see [`crate::guard`]).
    pub(crate) guard: guard::Ledger,
}

impl<T> Depot<T> {
    pub(crate) fn new(shards: usize, config: PoolConfig, magazine_cap: usize) -> Self {
        assert!(shards >= 1, "a sharded pool needs at least one shard");
        let direct_shards = if magazine_cap == 0 { shards } else { 0 };
        Depot {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            shards: (0..direct_shards).map(|_| Shard::new(config)).collect(),
            magazine_cap,
            trim_epoch: AtomicU64::new(0),
            mag_counts: Mutex::new(Vec::new()),
            depot_parked: AtomicI64::new(0),
            bound: config.max_objects.map(|max| max.saturating_mul(shards)),
            capped_parked: AtomicUsize::new(0),
            full: BlockStack::new(),
            shells: BlockStack::new(),
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

    /// Live magazines, counted by their registered cells.
    #[cfg(test)]
    pub(crate) fn magazine_cells(&self) -> usize {
        self.mag_counts.lock().len()
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
    /// in the matching order (see [`pop`], [`push`] and [`refill`]).
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let addrs = self.mag_counts.lock();
        let sources = || std::iter::once(&self.stats).chain(self.shards.iter().map(|s| &s.stats));
        let sum = |cell: fn(&MagCells) -> &AtomicU64| -> u64 {
            Self::cells(&addrs).map(|c| cell(c).load(Ordering::Relaxed)).sum()
        };
        let mut s = StatsSnapshot::default();
        sources().for_each(|p| s.add_frees_of(p));
        let releases = sum(|c| &c.releases);
        sources().for_each(|p| s.add_bytes_of(p));
        let bytes = Self::cells(&addrs).map(|c| c.bytes.load(Ordering::Relaxed)).sum();
        sources().for_each(|p| s.add_allocs_of(p));
        let hits = sum(|c| &c.hits);
        let (swaps, parks) = (sum(|c| &c.swaps), sum(|c| &c.parks));
        s.add_magazine_counts(hits, releases, bytes, swaps, parks);
        s
    }

    /// Objects parked in depot nodes. Exact at every instant in a capped
    /// pool; otherwise the shared count plus the live magazines'
    /// `depot_net` cells, exact at quiescent points (a concurrent read can
    /// transiently miscount).
    pub(crate) fn depot_parked(&self) -> usize {
        if self.bound.is_some() {
            return self.capped_parked.load(Ordering::Relaxed);
        }
        let addrs = self.mag_counts.lock();
        let live: i64 = Self::cells(&addrs).map(|c| c.depot_net.load(Ordering::Relaxed)).sum();
        (self.depot_parked.load(Ordering::Relaxed) + live).max(0) as usize
    }

    /// Invalidate every thread's magazine for this pool. Remote threads
    /// notice on their next operation and drop their cache.
    pub(crate) fn bump_trim_epoch(&self) {
        self.trim_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Empty a node the caller owns (popped, or the depot's sole owner) of
    /// its parked list.
    ///
    /// # Safety
    /// `node` belongs to this depot, whose nodes park `T` slot lists.
    unsafe fn take_list(node: NonNull<DepotNode>) -> (SlotList<T>, u64) {
        let node = node.as_ptr();
        // SAFETY: the node is ours; its stack words stay untouched (a stale
        // pop may still read the link).
        unsafe {
            let list = SlotList::from_raw((*node).head, (*node).len);
            ((*node).head, (*node).len) = (ptr::null_mut(), 0);
            (list, (*node).epoch)
        }
    }

    /// Park `list`, stamped with trim epoch `epoch`, as one node: a shell
    /// from the shell stack (or a fresh one), then one CAS onto the full
    /// stack. A capped pool first reserves room for the list's top;
    /// returns how many objects parked and the older rest, which the
    /// caller drops (and counts) outside any hold.
    fn park(&self, mut list: SlotList<T>, epoch: u64) -> (usize, SlotList<T>) {
        let over = match self.bound {
            Some(bound) if !list.is_empty() => list.split_off(self.reserve_room(bound, list.len())),
            _ => SlotList::new(),
        };
        let n = list.len();
        if n > 0 {
            let node = pop_node(&self.shells).unwrap_or_else(new_shell);
            let (head, len) = list.into_raw();
            // SAFETY: a popped or fresh shell is empty and ours.
            unsafe {
                let node = node.as_ptr();
                debug_assert!((*node).head.is_null(), "shells are empty");
                ((*node).head, (*node).len, (*node).epoch) = (head, len, epoch);
            }
            push_node(&self.full, node);
        }
        (n, over)
    }

    /// Reserve room for up to `want` objects in a capped depot holding at
    /// most `bound`; returns how many fit.
    #[cold]
    fn reserve_room(&self, bound: usize, want: usize) -> usize {
        let fit = |parked: usize| want.min(bound.saturating_sub(parked));
        let update = |parked| Some(parked + fit(parked));
        match self.capped_parked.fetch_update(Ordering::Relaxed, Ordering::Relaxed, update) {
            Ok(parked) | Err(parked) => fit(parked),
        }
    }

    /// Give back a capped depot's room for `n` objects just popped.
    #[inline]
    fn release_room(&self, n: usize) {
        if self.bound.is_some() {
            self.capped_parked.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Drop objects a capped park turned away, counting them.
    fn drop_over(&self, over: SlotList<T>) {
        if !over.is_empty() {
            self.stats.record_dropped_many(over.len() as u64);
        }
        drop(over);
    }

    /// Pop every parked list and drop the contents (trim support).
    /// Returns how many objects were reclaimed.
    pub(crate) fn drain_depot(&self) -> usize {
        let mut reclaimed = SlotList::new();
        while let Some(node) = pop_node(&self.full) {
            // SAFETY: owned after a successful pop; its list is a `T` list.
            let (list, _) = unsafe { Self::take_list(node) };
            push_node(&self.shells, node);
            reclaimed.append(list);
        }
        let n = reclaimed.len();
        self.release_room(n);
        self.depot_parked.fetch_sub(n as i64, Ordering::Relaxed);
        self.guard.record_reclaim(n);
        drop(reclaimed); // user destructors run here, outside any stack op
        n
    }

    /// A release from a thread past TLS teardown: the object parks as a
    /// one-object node (a capped pool may refuse it), counted as a release
    /// in the shared stats.
    pub(crate) fn release_dead(&self, obj: PoolBox<T>, bytes: u64) {
        // Booked before the release counts (see `PoolStats::add_live_bytes`).
        self.stats.add_live_bytes(-(bytes as i64));
        self.guard.record_park();
        let mut list = SlotList::new();
        list.push(obj);
        let epoch = self.trim_epoch.load(Ordering::Relaxed);
        let (parked, refused) = self.park(list, epoch);
        if parked == 0 {
            self.stats.record_refused();
            drop(refused);
            return;
        }
        self.depot_parked.fetch_add(1, Ordering::Relaxed);
        self.stats.record_release();
    }

    /// An acquire from a thread past TLS teardown: pop a node, take its top
    /// object (a hit in the shared stats) and park the rest again. Stale
    /// nodes drop on the way.
    pub(crate) fn acquire_dead(&self) -> Option<PoolBox<T>> {
        let epoch = self.trim_epoch.load(Ordering::Relaxed);
        while let Some(node) = pop_node(&self.full) {
            // SAFETY: owned after a successful pop; its list is a `T` list.
            let (mut list, parked_under) = unsafe { Self::take_list(node) };
            if parked_under != epoch {
                push_node(&self.shells, node);
                self.release_room(list.len());
                self.depot_parked.fetch_sub(list.len() as i64, Ordering::Relaxed);
                self.guard.record_reclaim(list.len());
                continue; // the stale list drops here
            }
            let obj = list.pop();
            self.release_room(1);
            self.depot_parked.fetch_sub(1, Ordering::Relaxed);
            if list.is_empty() {
                push_node(&self.shells, node);
            } else {
                // The rest keeps the room it holds: no second admission.
                let (head, len) = list.into_raw();
                // SAFETY: emptied above and still ours.
                unsafe { ((*node.as_ptr()).head, (*node.as_ptr()).len) = (head, len) };
                push_node(&self.full, node);
            }
            self.guard.record_unpark();
            self.stats.record_hit();
            return obj;
        }
        None
    }
}

impl<T> Drop for Depot<T> {
    fn drop(&mut self) {
        // Release: a cold table access that reads the new count finds this
        // pool's magazines orphaned (their drop touches no depot state).
        DROPPED_POOLS.fetch_add(1, Ordering::Release);
        // Sole owner now: no thread can race a stack operation. Empty both
        // stacks and free every shell; the parked objects drop last.
        let mut parked = SlotList::new();
        while let Some(node) = pop_node(&self.full) {
            // SAFETY: popped, and this depot's nodes park `T` lists.
            parked.append(unsafe { Self::take_list(node) }.0);
            free_shell(node);
        }
        while let Some(node) = pop_node(&self.shells) {
            free_shell(node);
        }
        // Exact live-object accounting (guarded builds only): when no
        // foreign magazine is still live, every parked object is visible
        // from here — direct mode's shard free lists plus the lists just
        // taken off the full stack — and the guard ledger must balance
        // against that population and the cap-drop counters.
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        if self.mag_counts.get_mut().is_empty() {
            let physically_parked =
                parked.len() + self.shards.iter().map(Shard::len).sum::<usize>();
            let cap_dropped =
                self.stats.dropped() + self.shards.iter().map(|s| s.stats.dropped()).sum::<u64>();
            self.guard.reconcile(physically_parked, cap_dropped);
        }
    }
}

/// One parked list in a node shell, a one-block segment of the depot's
/// stacks: [`BlockStack`]'s link word and stamp, then the list (null/0 in
/// an empty shell). Not generic: the depot knows the slots' type.
#[repr(C)]
struct DepotNode {
    _stack_words: [AtomicUsize; 2],
    head: *mut SlotHeader,
    len: usize,
    /// [`Depot::trim_epoch`] value at park time; a mismatch on pop means a
    /// trim intervened and the contents must drop.
    epoch: u64,
}

/// Pop a node off one of a depot's stacks.
#[inline]
fn pop_node(stack: &BlockStack) -> Option<NonNull<DepotNode>> {
    let (node, _, n) = stack.pop_segment()?;
    debug_assert_eq!(n, 1, "depot nodes are one-block segments");
    NonNull::new(node.cast())
}

/// Push a node the caller owns onto one of a depot's stacks.
#[inline]
fn push_node(stack: &BlockStack, node: NonNull<DepotNode>) {
    stack.push_block(node.as_ptr().cast());
}

/// An empty shell, one block of the size-class engine.
#[cold]
fn new_shell() -> NonNull<DepotNode> {
    let layout = Layout::new::<DepotNode>();
    let Some(node) = NonNull::new(raw_alloc(layout).cast::<DepotNode>()) else {
        handle_alloc_error(layout)
    };
    // SAFETY: the block is fresh and ours; all zeros is an empty shell.
    unsafe { node.as_ptr().write_bytes(0, 1) };
    node
}

/// Give an emptied shell back to the engine (depot drop only).
fn free_shell(node: NonNull<DepotNode>) {
    // SAFETY: `new_shell` took the block with this layout, and the depot's
    // sole owner holds the shell.
    unsafe { raw_dealloc(node.as_ptr().cast(), Layout::new::<DepotNode>()) };
}

/// One magazine's counters, the only copy. The owning thread updates them
/// with relaxed loads and *stores* (no locked RMW on the fast paths or the
/// depot exchange): an acquire writes `hits` before `bytes`, a release
/// `bytes` before `releases`, matching [`Depot::snapshot`]'s read order.
/// Readers see values exact at quiescent points (a join or barrier orders
/// the stores before the reads). Folded into [`Depot::stats`] and
/// [`Depot::depot_parked`] when the magazine drops.
#[derive(Debug, Default)]
struct MagCells {
    /// Mirrors the magazine's list length.
    parked: AtomicUsize,
    /// Acquires served by the magazine or a depot swap.
    hits: AtomicU64,
    /// Magazine releases.
    releases: AtomicU64,
    /// Net bytes of this magazine's hits (+) and releases (−), as passed by
    /// sized callers. Negative when the thread frees more than it reuses
    /// (its allocs took cold paths, which book their bytes in the shared
    /// ledger).
    bytes: AtomicI64,
    /// Depot magazines swapped in.
    swaps: AtomicU64,
    /// Full magazines parked on the depot.
    parks: AtomicU64,
    /// Objects this magazine parked on the depot less those it swapped
    /// out (negative when it swaps in what other threads parked).
    depot_net: AtomicI64,
}

impl MagCells {
    /// Owner-only `cell += 1`: a load and a store, no locked RMW.
    #[inline(always)]
    fn bump(cell: &AtomicU64) {
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Owner-only `cell += delta`.
    #[inline(always)]
    fn add(cell: &AtomicI64, delta: i64) {
        cell.store(cell.load(Ordering::Relaxed).wrapping_add(delta), Ordering::Relaxed);
    }
}

/// One thread's cache of parked objects for one pool.
pub(crate) struct Magazine<T> {
    list: SlotList<T>,
    /// Copy of [`Depot::magazine_cap`].
    cap: usize,
    /// Copy of [`Depot::trim_epoch`] from the last (in)validation.
    epoch: u64,
    /// This magazine's counters, registered in [`Depot::mag_counts`].
    cells: MagCells,
    depot: Weak<Depot<T>>,
}

impl<T> Magazine<T> {
    /// A new magazine for `depot`, its cells registered.
    fn new(depot: &Arc<Depot<T>>) -> Box<Self> {
        let mag = Box::new(Magazine {
            list: SlotList::new(),
            cap: depot.magazine_cap,
            epoch: depot.trim_epoch.load(Ordering::Relaxed),
            cells: MagCells::default(),
            depot: Arc::downgrade(depot),
        });
        depot.mag_counts.lock().push(&mag.cells as *const MagCells as usize);
        mag
    }
}

impl<T> Drop for Magazine<T> {
    fn drop(&mut self) {
        // Thread exit (TLS teardown): park the cached objects on the depot
        // as one node, where a later thread's swap and `trim` can reach
        // them. If the pool is gone the objects simply drop with the list.
        if let Some(depot) = self.depot.upgrade() {
            // Fold-on-drop must be panic-safe: dropping what a trim made
            // stale or what a cap turned away runs arbitrary user
            // destructors, and if one of them panics the counts must still
            // reach the shared stats. The fold lives in this guard's own
            // `Drop`, which runs even while those drops unwind.
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
                    let get = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
                    self.depot.stats.fold_magazine_counts(
                        get(&c.hits),
                        get(&c.releases),
                        c.bytes.load(Ordering::Relaxed),
                        get(&c.swaps),
                        get(&c.parks),
                    );
                    let net = c.depot_net.load(Ordering::Relaxed);
                    self.depot.depot_parked.fetch_add(net, Ordering::Relaxed);
                    addrs.retain(|&a| a != c as *const MagCells as usize);
                }
            }
            // A stale cache parks nothing (and a full one is not stale), so
            // at most one of the two drops below runs user code.
            let stale = invalidate_if_stale(self, &depot);
            let (parked, over) = depot.park(mem::take(&mut self.list), self.epoch);
            depot.depot_parked.fetch_add(parked as i64, Ordering::Relaxed);
            let _fold = FoldOnDrop { depot: &depot, cells: &self.cells };
            drop_stale(&depot, stale);
            depot.drop_over(over);
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
        let mag: Box<dyn Slot> = Magazine::new(depot);
        *slot = NonNull::new(Box::into_raw(mag));
    }
    // SAFETY: the slot at this pool's id holds this pool's magazine, and
    // the hold makes this the only reference.
    let mag = unsafe { &mut *(*slot)?.as_ptr() };
    debug_assert!(
        mag.magazine_type() == TypeId::of::<Magazine<T>>(),
        "pool ids are never reused, so the slot type matches"
    );
    // SAFETY: checked above in debug builds; the id fixes the type.
    let mag = unsafe { &mut *(mag as *mut dyn Slot).cast::<Magazine<T>>() };
    let r = f(mag);
    mag.cells.parked.store(mag.list.len(), Ordering::Relaxed);
    Some(r)
}

/// If a trim happened since this magazine last looked, surrender the cached
/// objects (returned for the caller to drop outside the hold).
#[inline(always)]
fn invalidate_if_stale<T>(mag: &mut Magazine<T>, depot: &Depot<T>) -> SlotList<T> {
    let epoch = depot.trim_epoch.load(Ordering::Relaxed);
    if mag.epoch == epoch {
        return SlotList::new();
    }
    invalidate(mag, epoch)
}

#[cold]
fn invalidate<T>(mag: &mut Magazine<T>, epoch: u64) -> SlotList<T> {
    mag.epoch = epoch;
    mem::take(&mut mag.list)
}

/// Drop objects a trim made stale, outside the hold (user destructors).
fn drop_stale<T>(depot: &Depot<T>, stale: SlotList<T>) {
    depot.guard.record_reclaim(stale.len());
    drop(stale);
}

/// Pop one cached object — the lock-free acquire hit path, booking `bytes`
/// in the magazine's cells. `None` is a miss: no magazine (or no table), a
/// stale epoch, or an empty magazine; the caller goes to [`refill`].
#[inline(always)]
pub(crate) fn pop<T: 'static>(depot: &Depot<T>, bytes: u64) -> Option<PoolBox<T>> {
    // SAFETY: this pool's id, this pool's type; no pool code runs below.
    let mag = unsafe { hot_magazine::<T>(depot.id).as_mut() }?;
    if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed) {
        return None;
    }
    let obj = mag.list.pop()?;
    mag.cells.parked.store(mag.list.len(), Ordering::Relaxed);
    MagCells::bump(&mag.cells.hits);
    MagCells::add(&mag.cells.bytes, bytes as i64);
    depot.guard.record_unpark();
    Some(obj)
}

/// What the magazine side of an acquire miss found.
pub(crate) enum Refill<T> {
    /// The table is torn down: the caller takes from the depot directly.
    Dead,
    /// A parked list was swapped in; its top object, hit and bytes booked
    /// in the cells.
    Hit(PoolBox<T>),
    /// The depot had nothing valid: the caller allocates fresh.
    Miss,
}

/// The magazine side of an acquire miss, under one hold of the table:
/// create the thread's magazine on first touch, surrender a cache a trim
/// made stale, and swap the empty magazine for a list parked on the
/// depot — one CAS pop, two list words moved, no locks, no per-object
/// moves. Nodes parked before the last trim are recognized by their stale
/// epoch and their contents dropped (epoch invalidation extends to parked
/// lists).
pub(crate) fn refill<T: 'static>(depot: &Arc<Depot<T>>, bytes: u64) -> Refill<T> {
    let Some((got, stale)) = with_mag(depot, true, |mag| {
        let mut stale = invalidate_if_stale(mag, depot);
        let got = match mag.list.pop() {
            // Only an empty or stale magazine misses; a swap replaces the list.
            Some(obj) => Some(obj),
            // A racy hint: a stale answer costs what a miss would anyway.
            None if depot.full.is_empty_hint() => None,
            None => swap_in(mag, depot, &mut stale),
        };
        if got.is_some() {
            MagCells::bump(&mag.cells.hits);
            MagCells::add(&mag.cells.bytes, bytes as i64);
        }
        (got, stale)
    }) else {
        return Refill::Dead;
    };
    drop_stale(depot, stale);
    match got {
        Some(obj) => {
            depot.guard.record_unpark();
            Refill::Hit(obj)
        }
        None => Refill::Miss,
    }
}

/// Pop parked lists until one is valid, make it the magazine's list and
/// return its top object. Stale ones join `stale`.
fn swap_in<T>(
    mag: &mut Magazine<T>,
    depot: &Depot<T>,
    stale: &mut SlotList<T>,
) -> Option<PoolBox<T>> {
    let mut forced_retry = fault::retry_depot();
    while let Some(node) = pop_node(&depot.full) {
        if forced_retry {
            // Injected CAS race: hand the node straight back and pop
            // again, exercising the version-tag (ABA) protection the way a
            // concurrent winner would.
            forced_retry = false;
            push_node(&depot.full, node);
            continue;
        }
        if fault::bump_epoch() {
            // Injected trim racing the swap: the epoch moves in the window
            // between pop and validate. The popped node stays valid — its
            // ownership transferred at the pop CAS, exactly as if the swap
            // had completed before the trim began.
            depot.bump_trim_epoch();
        }
        // SAFETY: owned after a successful pop; its list is a `T` list.
        let (list, epoch) = unsafe { Depot::take_list(node) };
        push_node(&depot.shells, node);
        let n = list.len();
        depot.release_room(n);
        MagCells::add(&mag.cells.depot_net, -(n as i64));
        if epoch != mag.epoch {
            stale.append(list);
            continue;
        }
        mag.list = list;
        MagCells::bump(&mag.cells.swaps);
        return mag.list.pop();
    }
    None
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
    let len = mag.list.len();
    if mag.epoch != depot.trim_epoch.load(Ordering::Relaxed) || len >= mag.cap {
        return Some(obj);
    }
    mag.list.push(obj);
    mag.cells.parked.store(len + 1, Ordering::Relaxed);
    MagCells::add(&mag.cells.bytes, -(bytes as i64));
    MagCells::bump(&mag.cells.releases);
    depot.guard.record_park();
    None
}

/// The release miss path in magazine mode: a full magazine parks *whole*
/// on the depot (one CAS; a capped pool admits what fits under its bound
/// and drops the older rest after the hold), and the object starts the
/// next one. Hands the object back when the table is DEAD.
#[cold]
#[inline(never)]
pub(crate) fn push_cold<T: 'static>(
    depot: &Arc<Depot<T>>,
    obj: PoolBox<T>,
    bytes: u64,
) -> Option<PoolBox<T>> {
    let mut obj = Some(obj);
    let Some((stale, over)) = with_mag(depot, true, |mag| {
        let stale = invalidate_if_stale(mag, depot);
        let mut over = SlotList::new();
        if mag.list.len() < mag.cap || fault::delay_flush() {
            // Room after all (a stale cache emptied), or an injected flush
            // delay: the magazine runs past capacity, and a later release
            // parks the larger list below (any length ≥ cap works).
        } else {
            // Park the whole magazine: its two list words go into a node
            // shell, and one CAS publishes the node on the full stack. The
            // magazine starts over empty.
            let list = mem::take(&mut mag.list);
            let (n, rest) = depot.park(list, mag.epoch);
            over = rest;
            if n > 0 {
                MagCells::add(&mag.cells.depot_net, n as i64);
                MagCells::bump(&mag.cells.parks);
            }
        }
        mag.list.push(obj.take().expect("taken once"));
        MagCells::add(&mag.cells.bytes, -(bytes as i64));
        MagCells::bump(&mag.cells.releases);
        (stale, over)
    }) else {
        return obj; // DEAD: untouched, for the caller's depot path
    };
    depot.guard.record_park();
    drop_stale(depot, stale);
    depot.drop_over(over);
    None
}

/// Remove and return everything the calling thread has cached for this pool
/// (trim support). Does not create a magazine on threads that never touched
/// the pool.
pub(crate) fn drain_local<T: 'static>(depot: &Arc<Depot<T>>) -> SlotList<T> {
    with_mag(depot, false, |mag| mem::take(&mut mag.list)).unwrap_or_default()
}

/// Park the calling thread's cached objects on the depot as one node,
/// under the magazine's epoch (a capped pool drops what does not fit).
/// Returns how many objects left the magazine. Does not create a magazine.
pub(crate) fn flush_local<T: 'static>(depot: &Arc<Depot<T>>) -> usize {
    let Some((n, over)) = with_mag(depot, false, |mag| {
        let list = mem::take(&mut mag.list);
        let n = list.len();
        let (parked, over) = depot.park(list, mag.epoch);
        MagCells::add(&mag.cells.depot_net, parked as i64);
        (n, over)
    }) else {
        return 0;
    };
    depot.drop_over(over);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn depot<T>(shards: usize, cap: usize) -> Arc<Depot<T>> {
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

    /// A magazine-mode acquire from the magazine side alone: the hit path,
    /// then a refill (creating the magazine, dropping a stale cache,
    /// swapping in a parked list). `None` on a miss.
    fn acquire<T: 'static>(d: &Arc<Depot<T>>) -> Option<PoolBox<T>> {
        pop(d, 0).or_else(|| match refill(d, 0) {
            Refill::Hit(obj) => Some(obj),
            Refill::Miss => None,
            Refill::Dead => panic!("the table is live"),
        })
    }

    fn take(d: &Arc<Depot<u32>>) -> Option<u32> {
        acquire(d).map(|b| *b)
    }

    /// The calling thread's magazine, read under a hold.
    fn peek<T: 'static, R>(d: &Arc<Depot<T>>, f: impl FnOnce(&mut Magazine<T>) -> R) -> Option<R> {
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
        assert_eq!(d.snapshot().depot_parks(), 1);
    }

    #[test]
    fn depot_swap_returns_parked_magazine() {
        let d = depot(1, 4);
        for i in 0..5 {
            put(&d, PoolBox::new(i)); // fifth push parks [0,1,2,3]
        }
        assert_eq!(take(&d), Some(4), "the live magazine's own object first");
        assert_eq!(take(&d), Some(3), "then the swapped-in magazine, LIFO");
        assert_eq!(d.depot_parked(), 0);
        assert_eq!(d.magazine_parked(), 3);
        let s = d.snapshot();
        assert_eq!((s.depot_swaps(), s.pool_hits()), (1, 2));
        for want in [2, 1, 0] {
            assert_eq!(take(&d), Some(want));
        }
        assert!(take(&d).is_none());
    }

    /// The nodes on one of a depot's stacks, top first (popped and pushed
    /// back in order).
    fn nodes_on(stack: &BlockStack) -> Vec<usize> {
        let nodes: Vec<_> = std::iter::from_fn(|| pop_node(stack)).collect();
        nodes.iter().rev().for_each(|&node| push_node(stack, node));
        nodes.iter().map(|node| node.as_ptr() as usize).collect()
    }

    #[test]
    fn swap_keeps_the_shell_for_the_next_park() {
        let d = depot(1, 2);
        for i in 0..3 {
            put(&d, PoolBox::new(i)); // parks [0,1] in a fresh shell
        }
        let full = nodes_on(&d.full);
        assert_eq!(full.len(), 1);
        assert!(nodes_on(&d.shells).is_empty());
        assert_eq!(take(&d), Some(2));
        assert_eq!(take(&d), Some(1), "swapped in");
        assert!(nodes_on(&d.full).is_empty());
        assert_eq!(nodes_on(&d.shells), full, "the popped shell waits on the shell stack");
        for i in 10..13 {
            put(&d, PoolBox::new(i)); // the second release parks again
        }
        assert_eq!(nodes_on(&d.full), full, "the park reused the shell");
        assert!(nodes_on(&d.shells).is_empty());
        assert_eq!(d.depot_parked(), 2);
    }

    #[test]
    fn capped_pool_parks_what_fits_and_drops_the_older_rest() {
        // One shard capped at 6: the depot holds at most 6 objects.
        let d = capped_depot(1, 4, 6);
        for i in 0..4 {
            put(&d, PoolBox::new(i));
        }
        assert!(!put(&d, PoolBox::new(99)), "a full magazine misses the hit path");
        assert_eq!(d.depot_parked(), 4, "the whole magazine fits");
        assert_eq!(d.magazine_parked(), 1, "the incoming object starts the next one");
        for i in 100..103 {
            put(&d, PoolBox::new(i)); // magazine back at cap: [102, 101, 100, 99]
        }
        assert!(!put(&d, PoolBox::new(103)));
        // Room for two: the newest two park, the older two drop.
        assert_eq!(d.depot_parked(), 6, "the bound is exact");
        let s = d.snapshot();
        assert_eq!((s.dropped(), s.depot_parks()), (2, 2));
        assert_eq!(s.lock_acquisitions(), 0, "no tier takes a lock");
        let order: Vec<u32> = std::iter::from_fn(|| take(&d)).collect();
        assert_eq!(order, vec![103, 102, 101, 3, 2, 1, 0], "newest first, each order kept");
        assert_eq!(d.depot_parked(), 0, "swaps give the room back");
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
        // too, so the refill must refuse to serve it.
        assert!(take(&d).is_none(), "pre-trim depot magazines must drop");
        assert_eq!(d.depot_parked(), 0);
        assert_eq!(d.magazine_parked(), 0);
    }

    #[test]
    fn thread_exit_parks_the_magazine_on_the_depot() {
        let d = depot(2, 8);
        let d2 = Arc::clone(&d);
        std::thread::spawn(move || {
            for i in 0..5 {
                put(&d2, PoolBox::new(i));
            }
        })
        .join()
        .unwrap();
        assert_eq!(d.magazine_parked(), 0, "exited thread's cache must park");
        assert_eq!(d.depot_parked(), 5, "parked objects are counted in the depot");
        let order: Vec<u32> = std::iter::from_fn(|| take(&d)).collect();
        assert_eq!(order, vec![4, 3, 2, 1, 0], "a later thread gets them all back");
        let s = d.snapshot();
        assert_eq!((s.depot_swaps(), s.pool_hits()), (1, 5), "through one swap");
        assert_eq!(s.lock_acquisitions(), 0, "no tier takes a lock");
        assert_eq!(d.depot_parked(), 0);
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

        // Zero-capacity pool: the depot admits nothing, and dropping the
        // turned-away Bomb panics while the magazine retires.
        let config = PoolConfig { max_objects: Some(0), ..Default::default() };
        let d: Arc<Depot<Bomb>> = Arc::new(Depot::new(1, config, 4));
        let mut mag = Magazine::new(&d);
        d.guard.record_park(); // the magazine below caches one object
        mag.list.push(PoolBox::new(Bomb));
        mag.cells.hits.store(5, Ordering::Relaxed);
        mag.cells.releases.store(7, Ordering::Relaxed);
        mag.cells.swaps.store(2, Ordering::Relaxed);
        mag.cells.parks.store(3, Ordering::Relaxed);
        mag.cells.depot_net.store(-4, Ordering::Relaxed);
        assert_eq!(d.mag_counts.lock().len(), 1, "the cell is registered by address");
        assert!(catch_unwind(AssertUnwindSafe(|| drop(mag))).is_err());
        // The panic unwound out of the retirement, but the counts must have
        // folded into the shared stats anyway, and the magazine's counter
        // cell must be retired.
        assert_eq!(d.stats.pool_hits(), 5);
        assert_eq!(d.stats.releases(), 7);
        assert_eq!((d.stats.depot_swaps(), d.stats.depot_parks()), (2, 3));
        assert_eq!(d.depot_parked.load(Ordering::Relaxed), -4);
        assert!(d.mag_counts.lock().is_empty(), "cell must retire despite the panic");
        assert_eq!(d.stats.dropped(), 1, "the turned-away object is counted");
        d.depot_parked.store(0, Ordering::Relaxed);
    }

    #[test]
    fn nested_cold_access_panics_and_the_hold_is_restored() {
        let (d, other) = (depot(1, 4), depot::<u32>(1, 4));
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

    /// Every object the test creates and has not destroyed is held by the
    /// test or parked in exactly one tier, after every step of a mix that
    /// drives every cold path.
    #[test]
    fn objects_are_conserved_across_every_cold_path() {
        static LIVE: AtomicUsize = AtomicUsize::new(0);
        struct Counted;
        impl Counted {
            fn boxed() -> PoolBox<Counted> {
                LIVE.fetch_add(1, Ordering::Relaxed);
                PoolBox::new(Counted)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, Ordering::Relaxed);
            }
        }
        for (cap, max) in [(1, None), (2, None), (32, None), (2, Some(8)), (32, Some(40))] {
            let config = PoolConfig { max_objects: max, ..Default::default() };
            let d: Arc<Depot<Counted>> = Arc::new(Depot::new(2, config, cap));
            let mut held: Vec<PoolBox<Counted>> = Vec::new();
            let mut delays = 0;
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
                        put(&d, held.pop().unwrap_or_else(Counted::boxed));
                    }
                    // Acquires: hit pops, depot swaps, and fresh objects.
                    1 => held.push(acquire(&d).unwrap_or_else(Counted::boxed)),
                    // What an injected flush delay does: a full magazine
                    // takes one object past capacity.
                    27 => {
                        let mut obj = Some(held.pop().unwrap_or_else(Counted::boxed));
                        if peek(&d, |m| m.list.len() >= cap).unwrap_or(false) {
                            peek(&d, |m| m.list.push(obj.take().expect("pushed once")));
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
                    }
                    // A trim from elsewhere: only the epoch moves.
                    29 => d.bump_trim_epoch(),
                    // The magazine's contents to the depot, for swaps.
                    30 => {
                        flush_local(&d);
                    }
                    _ => drop(held.pop()),
                }
                let parked = d.magazine_parked() + d.depot_parked();
                assert_eq!(
                    LIVE.load(Ordering::Relaxed),
                    held.len() + parked,
                    "cap {cap}, max {max:?}: an object is lost or doubled at step {step}"
                );
                assert_eq!(peek(&d, |m| m.list.len()).unwrap_or(0), d.magazine_parked());
            }
            // Every cold path ran: depot parks and swaps (capped pools
            // within their bound), and delays.
            let s = d.snapshot();
            assert!(s.depot_parks() > 0 && s.depot_swaps() > 0, "cap {cap}, max {max:?}");
            assert!(delays > 0, "cap {cap}, max {max:?}");
            assert_eq!(s.lock_acquisitions(), 0, "no tier takes a lock");
            held.into_iter().for_each(|obj| {
                put(&d, obj);
            });
            let local = drain_local(&d);
            d.guard.record_reclaim(local.len());
            drop(local);
            drop(d);
            assert_eq!(
                LIVE.load(Ordering::Relaxed),
                0,
                "cap {cap}: the depot's drop frees the rest"
            );
        }
    }
}
