//! The size-class malloc front-end: the typed pools' magazine/depot/slab
//! machinery re-keyed by [`crate::size_class`] instead of `T`, exposed as
//! a [`GlobalAlloc`] so *every* allocation in the process can ride the
//! runtime (ROADMAP item 1).
//!
//! # Shape
//!
//! Requests classed by [`crate::size_class::class_for`] (≤ 4 KiB, align ≤ 16) are
//! served from per-thread caches of untyped blocks; everything else passes
//! straight through to [`System`]. Per class there are three levels, the
//! pool of a free list per size class (Kenwright, PAPERS.md) with a
//! thread-private front:
//!
//! 1. **Thread cache** — one intrusive LIFO list per class (the "magazine"
//!    for untyped blocks: no `Vec`, the link lives in the free block
//!    itself). Hit = two plain loads and a store.
//! 2. **Central free stack** — one version-tagged Treiber stack per class
//!    (`crate::block_stack`, the typed depot's stack too) of stamped
//!    *segments*: flushed surplus, carve remainders, sweep survivors and
//!    cache-less frees, each a chain of at most a refill batch. A refill
//!    pops one whole segment with one CAS and makes it the thread's list
//!    without touching its blocks: the count comes from the segment's
//!    stamp (`seg_stamp`).
//! 3. **Slab carve** — a 64 KiB slab, 64 KiB-*aligned*, is carved into
//!    blocks. The alignment lets `ptr & !(SLAB_BYTES-1)` recover the slab
//!    header (`{magic, class}` plus the sweep's scratch) without a lookup
//!    table; the reclaim sweep buckets blocks by slab with it. Fresh slabs
//!    are bump-cut from 4 MiB segments (one [`System`] allocation per 64
//!    slabs), and a carve prefaults the pages it is about to link with one
//!    `madvise(MADV_POPULATE_WRITE)` instead of a demand fault per page.
//!
//! # Cross-thread free
//!
//! Blocks have no owner. A free with a thread cache is one push onto the
//! freeing thread's list, whichever thread carved the block, and what a
//! thread frees it allocates again: threads that trade blocks evenly never
//! touch the central stack. A list over its cap, or a thread at exit,
//! stamps the blocks it sheds into segments on one walk and pushes them
//! onto the central stack with one CAS. A thread with *no* cache (never
//! allocated, or past TLS teardown) pushes each block alone as a
//! one-block segment — the stack is lock-free from any context.
//!
//! # Re-entrancy rules (why this module looks spartan)
//!
//! Code reachable from `alloc`/`dealloc` must not allocate through the
//! global allocator — that recurses. Hence: intrusive lists instead of
//! collections, all internal storage (thread caches, slab segments)
//! obtained directly from [`System`], plain-field per-thread counters
//! folded into global atomics on thread exit (the `MagCells` idiom); a
//! report reads the aggregates through [`stats`] (its `class_refill` and
//! `fallback_alloc` events). Thread-local state is a const-init `Cell` (no
//! lazy-init allocation, no destructor of its own); a separate drop guard
//! flushes the cache at thread exit and leaves a DEAD sentinel so late
//! frees from TLS teardown degrade to central pushes instead of touching a
//! freed cache.
//!
//! Slab *address space* is process-lifetime, but the pages behind it are
//! not: `sweep_and_retire` drains the shared levels, finds slabs whose
//! entire block population is idle, and returns their pages to the OS
//! with one `madvise(MADV_DONTNEED)` per run of address-adjacent retired
//! slabs — the mapping itself is never unmapped, which preserves the
//! type-stability the Treiber `next` reads rely on (a stale reader can
//! still dereference a retired block's link word; it reads zeros and its
//! tag CAS fails, exactly as for any lost race). Retired slabs sit in a
//! quarantine pool until the retiring pass has fully completed, then
//! `carve_slab` re-stamps them ahead of cutting a fresh slab from the
//! current segment. Policy (the watermark and the pass loop) lives in
//! [`crate::reclaim`]; the mechanism here is DESIGN.md §13.
//!
//! # Observability (the heap-profile layer)
//!
//! Per-class gauges (mapped, live, peak and parked bytes) are derived
//! from the owner-only counters above by `collect_raw_gauges`'s
//! two-pass fold — all alloc counters, then all free counters, then the
//! mapped-slab counts last — which keeps `live_bytes <= mapped_bytes`
//! true for every snapshot without adding a single locked RMW to the
//! alloc/dealloc paths. A sampled allocation-site profiler piggybacks one
//! countdown branch on `alloc_class`; everything user-facing (sample
//! period, the snapshot ring) lives in
//! [`crate::heap_profile`].

use crate::block_stack::{seg_stamp, BlockStack};
use crate::size_class::{class_bytes, class_for, NUM_CLASSES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Slab size and alignment: header-by-address-mask needs them equal.
pub const SLAB_BYTES: usize = 64 * 1024;
const SLAB_MASK: usize = SLAB_BYTES - 1;

/// Slab header bytes; block 0 starts here, preserving [`CLASS_ALIGN`].
const HEADER_BYTES: usize = 16;
const SLAB_MAGIC: u32 = 0x9F00_11AB;
/// Header magic for fault-injected carve fallbacks: System-allocated,
/// slab-aligned single-block carriers (see [`fallback_alloc`]). Distinct
/// from [`SLAB_MAGIC`] so `dealloc` routes them back to [`System`] instead
/// of into slab accounting.
const FALLBACK_MAGIC: u32 = 0xFA11_BACC;

/// Thread-cache capacity per class: about half a slab's worth of small
/// blocks, clamped so big classes still batch and tiny ones don't hoard.
const MAG_CAP: [u32; NUM_CLASSES] = {
    let mut caps = [0u32; NUM_CLASSES];
    let mut c = 0;
    while c < NUM_CLASSES {
        let mut cap = 8192 / crate::size_class::CLASS_BYTES[c];
        if cap < 8 {
            cap = 8;
        }
        if cap > 256 {
            cap = 256;
        }
        caps[c] = cap as u32;
        c += 1;
    }
    caps
};

#[repr(C)]
struct SlabHeader {
    magic: u32,
    class: u16,
    /// Sweep scratch, written only by the (serialized) reclaimer: the
    /// pass id that last visited this slab and how many of its blocks
    /// that pass found idle. Zero fast-path cost — alloc/dealloc never
    /// read or write these — and they fill what used to be header
    /// padding, so the header stays 16 bytes.
    sweep_gen: AtomicU32,
    free_seen: AtomicU32,
}

/// A class's central free stack of stamped segments — flushed surplus,
/// carve remainders, sweep survivors and cache-less frees — with its
/// population.
struct Central {
    free: BlockStack,
    /// Blocks on `free`, kept beside it (the gauges read it).
    free_len: AtomicUsize,
}

impl Central {
    const fn new() -> Self {
        Central { free: BlockStack::new(), free_len: AtomicUsize::new(0) }
    }

    /// Push the stamped private chain `head..=tail` of `n` blocks.
    fn push(&self, head: *mut u8, tail: *mut u8, n: usize) {
        self.free.push_chain(head, tail);
        self.free_len.fetch_add(n, Ordering::Relaxed);
    }

    /// Pop the top segment ([`BlockStack::pop_segment`]).
    fn pop(&self) -> Option<(*mut u8, *mut u8, usize)> {
        let seg = self.free.pop_segment()?;
        self.free_len.fetch_sub(seg.2, Ordering::Relaxed);
        Some(seg)
    }

    /// Blocks on the central stack: `free_len` read as signed and clamped
    /// at 0. Pushers add a segment's count after the push, so a rival's
    /// pop and `fetch_sub` can land first and wrap it below zero for a
    /// moment.
    fn len(&self) -> u64 {
        (self.free_len.load(Ordering::Relaxed) as isize).max(0) as u64
    }
}

static CENTRAL: [Central; NUM_CLASSES] = [const { Central::new() }; NUM_CLASSES];

/// The header of the slab that `block` lies in.
#[inline]
fn header_of(block: *mut u8) -> *const SlabHeader {
    ((block as usize) & !SLAB_MASK) as *const SlabHeader
}

/// Counters that left per-thread caches (exited threads, cache-less
/// paths). `stats()` adds the calling thread's live cache on top.
struct Folded {
    cache_hits: AtomicU64,
    class_refills: AtomicU64,
    slabs_carved: AtomicU64,
    passthrough_allocs: AtomicU64,
    passthrough_frees: AtomicU64,
}

static FOLDED: Folded = Folded {
    cache_hits: AtomicU64::new(0),
    class_refills: AtomicU64::new(0),
    slabs_carved: AtomicU64::new(0),
    passthrough_allocs: AtomicU64::new(0),
    passthrough_frees: AtomicU64::new(0),
};

/// A minimal test-and-set spinlock for the cache registry and the
/// profiler's shared tables. Holders never allocate and never block, so
/// contention is bounded by a registry walk or a ring append.
pub(crate) struct Spin(AtomicBool);

impl Spin {
    pub(crate) const fn new() -> Self {
        Spin(AtomicBool::new(false))
    }

    pub(crate) fn lock(&self) -> SpinGuard<'_> {
        while self
            .0
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        SpinGuard(self)
    }
}

pub(crate) struct SpinGuard<'a>(&'a Spin);

impl Drop for SpinGuard<'_> {
    fn drop(&mut self) {
        (self.0).0.store(false, Ordering::Release);
    }
}

/// Per-class counters folded out of exited caches, plus the cache-less
/// (DEAD-path) increments. Writers use `Release`, the gauge collector
/// reads with `Acquire` — the per-class half of the fold protocol.
struct ClassFold {
    allocs: AtomicU64,
    frees: AtomicU64,
}

static FOLDED_CLASS: [ClassFold; NUM_CLASSES] =
    [const { ClassFold { allocs: AtomicU64::new(0), frees: AtomicU64::new(0) } }; NUM_CLASSES];

/// Slabs carved per class, bumped inside [`carve_slab`] *before* the first
/// block of the slab can be served — so any observer that sees a block's
/// alloc count (via the release/acquire counter chain) also sees its slab
/// mapped. Reading this array *last* in a gauge collection is what makes
/// `live_bytes <= mapped_bytes` hold for every snapshot.
static MAPPED_SLABS: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];

/// High-water mark of the per-class live-byte estimate. Folded on every
/// gauge collection *and* at every thread teardown from the per-thread
/// high-water marks ([`LocalClass::peak_net`]), so a burst that rises and
/// falls entirely between collections still registers — the lag is
/// bounded by one refill batch per thread, not by the snapshot cadence.
static PEAK_LIVE_BYTES: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];

// ------------------------------------------------------------- retirement
//
// The slab-retirement machinery (DESIGN.md §13). Mechanism only — the
// watermark policy and the background reclaimer live in `crate::reclaim`.

/// Serializes reclaim passes: one sweep at a time, so the per-slab sweep
/// scratch in [`SlabHeader`] has a single writer. Alloc/dealloc paths
/// never touch this lock.
static RECLAIM_PASS: Spin = Spin::new();

/// Mutual exclusion between the *retire phase* of a pass (the
/// [`MAPPED_SLABS`] decrements) and a gauge collection. The two-pass
/// gauge fold argues `live <= mapped` from mapped counts being monotone
/// while it runs; retirement breaks monotonicity, so it must not
/// interleave a collection. Lock order: [`RECLAIM_PASS`] → this →
/// (inside collection only) [`REGISTRY`]. Nothing allocates under it.
static RETIRE_GAUGE: Spin = Spin::new();

/// Reclaim pass sequence. `PASS_SEQ` is bumped when a pass begins;
/// `PASS_DONE` is published (release) when its retire phase — header
/// scrubs, `madvise` calls, ledger updates — has fully completed. Slabs
/// retired by pass N enter the quarantine pool only after `PASS_DONE ==
/// N`, so a recarve can never observe a half-retired slab.
static PASS_SEQ: AtomicU64 = AtomicU64::new(0);
static PASS_DONE: AtomicU64 = AtomicU64::new(0);

/// Bumped at the start of every reclaim pass. Threads compare it against
/// their cache's `flush_epoch` at the cold refill/flush points and flush
/// everything they hold when it moved — the epoch-gated excision that
/// lets a pass (the *next* one) sweep blocks parked in other threads'
/// caches without ever touching a foreign cache directly.
static CACHE_FLUSH_EPOCH: AtomicU64 = AtomicU64::new(0);

/// Cumulative retirement ledger: slabs retired per class, slabs whose
/// pages `madvise` actually released, and retired slabs recarved back
/// into service. `reclaimed - recarved` slabs are sitting in quarantine.
static RECLAIMED_SLABS: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];
static ADVISED_SLABS: AtomicU64 = AtomicU64::new(0);
static RECARVED_SLABS: AtomicU64 = AtomicU64::new(0);

/// Quarantine pool of retired slabs: a LIFO of slab base addresses kept
/// in a side table, off slab memory (the slabs' pages were just advised
/// away, and a link written into one would fault a page back in until the
/// slab is recarved). Guarded by [`RETIRED`]; the critical sections are a
/// few loads and stores, plus a table growth from [`System`] — **never**
/// allocate through the global allocator under this lock, `carve_slab`
/// takes it. The table lives as long as the process.
static RETIRED: Spin = Spin::new();
static RETIRED_TABLE: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
static RETIRED_CAP: AtomicUsize = AtomicUsize::new(0);
static RETIRED_LEN: AtomicUsize = AtomicUsize::new(0);

/// `madvise` advice values (Linux UAPI).
const MADV_DONTNEED: usize = 4;
const MADV_POPULATE_WRITE: usize = 23;
/// `-EINVAL`: the kernel does not know the advice (pre-5.14 for
/// [`MADV_POPULATE_WRITE`]).
const NEG_EINVAL: isize = -22;

/// `madvise(base, len, advice)` via raw syscall (no libc in the
/// dependency tree): 0 on success, `-errno` on failure. On other targets
/// it is a no-op that reports `-EINVAL`, so retirement degrades to
/// quarantine-without-release and the carve prefault switches itself off
/// (the accounting stays correct either way).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn madvise(base: *mut u8, len: usize, advice: usize) -> isize {
    const SYS_MADVISE: usize = 28;
    let ret: isize;
    // SAFETY: madvise on a mapping we own; neither advice used here can
    // fault, and the syscall clobbers only rcx/r11 beyond its return
    // register.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE => ret,
            in("rdi") base as usize,
            in("rsi") len,
            in("rdx") advice,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn madvise(_base: *mut u8, _len: usize, _advice: usize) -> isize {
    NEG_EINVAL
}

/// Maximal runs of address-adjacent slabs in `sorted` (ascending bases),
/// as `(first base, slab count)`. A run may cross segment (and class)
/// boundaries: adjacent slabs are always both mapped, so one `madvise`
/// over the run is as valid as one per slab.
fn slab_runs(sorted: &[*mut u8]) -> impl Iterator<Item = (*mut u8, usize)> + '_ {
    sorted
        .chunk_by(|a, b| (*b as usize).wrapping_sub(*a as usize) == SLAB_BYTES)
        .map(|run| (run[0], run.len()))
}

/// Pop a quarantined slab for recarving. Everything in the pool belongs
/// to a completed pass (pushes happen after `PASS_DONE` is published), so
/// no eligibility check is needed beyond the pop itself.
fn retired_pop() -> Option<*mut u8> {
    if RETIRED_LEN.load(Ordering::Relaxed) == 0 {
        return None;
    }
    let _g = RETIRED.lock();
    let len = RETIRED_LEN.load(Ordering::Relaxed);
    if len == 0 {
        return None;
    }
    // SAFETY: the first `len` entries of the table hold pushed bases.
    let base = unsafe { *RETIRED_TABLE.load(Ordering::Relaxed).add(len - 1) };
    RETIRED_LEN.store(len - 1, Ordering::Relaxed);
    RECARVED_SLABS.fetch_add(1, Ordering::Relaxed);
    Some(base as *mut u8)
}

/// Quarantine `bases` (fully retired slabs, exclusively ours), in order:
/// the last one pops first.
fn retired_push_all(bases: &[*mut u8]) {
    if bases.is_empty() {
        return;
    }
    let _g = RETIRED.lock();
    let len = RETIRED_LEN.load(Ordering::Relaxed);
    let cap = RETIRED_CAP.load(Ordering::Relaxed);
    let mut table = RETIRED_TABLE.load(Ordering::Relaxed);
    if len + bases.len() > cap {
        let grown_cap = (len + bases.len()).max(2 * cap).max(64);
        let layout = Layout::array::<usize>(grown_cap).expect("quarantine table layout");
        // SAFETY: a non-zero layout; the old table (if any) holds `len`
        // entries and was allocated from `System` with capacity `cap`.
        unsafe {
            let grown = System.alloc(layout).cast::<usize>();
            if grown.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            if !table.is_null() {
                std::ptr::copy_nonoverlapping(table, grown, len);
                System.dealloc(table.cast(), Layout::array::<usize>(cap).expect("fit before"));
            }
            table = grown;
        }
        RETIRED_TABLE.store(table, Ordering::Relaxed);
        RETIRED_CAP.store(grown_cap, Ordering::Relaxed);
    }
    for (i, &base) in bases.iter().enumerate() {
        // SAFETY: in bounds of the (grown) table.
        unsafe { table.add(len + i).write(base as usize) };
    }
    RETIRED_LEN.store(len + bases.len(), Ordering::Relaxed);
}

/// Slabs currently parked in the retirement quarantine pool.
pub(crate) fn retired_pool_len() -> usize {
    RETIRED_LEN.load(Ordering::Relaxed)
}

/// What one [`sweep_and_retire`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SweepOutcome {
    /// Blocks drained out of the central stacks (survivors were pushed
    /// back).
    pub(crate) swept_blocks: u64,
    /// Fully-idle slabs retired (removed from mapped accounting).
    pub(crate) retired_slabs: u64,
    pub(crate) retired_bytes: u64,
    /// Retired slabs whose pages the kernel confirmed released.
    pub(crate) advised_slabs: u64,
}

/// Cumulative retirement totals:
/// `(reclaimed_slabs, reclaimed_bytes, recarved_slabs, advised_slabs)`.
pub(crate) fn reclaim_totals() -> (u64, u64, u64, u64) {
    let slabs: u64 = RECLAIMED_SLABS.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    (
        slabs,
        slabs * SLAB_BYTES as u64,
        RECARVED_SLABS.load(Ordering::Relaxed),
        ADVISED_SLABS.load(Ordering::Relaxed),
    )
}

/// Sweep-retire bit packed into `SlabHeader::sweep_gen`: set while the
/// current pass has marked the slab for retirement.
const RETIRE_BIT: u32 = 0x8000_0000;

/// One retirement pass. Drains every class's central stack into a private
/// working set, buckets the blocks by slab via the address mask, and
/// retires every slab whose *entire* block population turned up in the
/// sweep — those blocks can have no live owner and no cache seat, because
/// either would have kept at least one block off the central stack.
/// Survivor blocks are pushed back as one stamped chain. Retired slabs
/// leave [`MAPPED_SLABS`] under the [`RETIRE_GAUGE`] lock (so a gauge
/// collection never sees mapped shrink mid-fold). Once every class is
/// swept, their pages are released with one `madvise(MADV_DONTNEED)` per
/// run of address-adjacent slabs, and they enter the quarantine pool once
/// the pass's completion is published.
///
/// Retirement stops once total mapped bytes drop to `target_mapped_bytes`
/// (0 = retire everything idle). Blocks parked in *other* threads'
/// caches are not excised directly — the pass bumps
/// [`CACHE_FLUSH_EPOCH`], those threads flush at their next cold point,
/// and the following pass sweeps what they released (convergence over
/// passes, not blocking excision).
pub(crate) fn sweep_and_retire(target_mapped_bytes: u64) -> SweepOutcome {
    let _pass = RECLAIM_PASS.lock();
    let pass_id = PASS_SEQ.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
    // Ask every thread (including this one, directly) to release its
    // cached blocks: ours join this pass's sweep, theirs the next one's.
    CACHE_FLUSH_EPOCH.fetch_add(1, Ordering::Relaxed);
    flush_thread_cache();

    let mapped_total: u64 =
        MAPPED_SLABS.iter().map(|m| m.load(Ordering::Relaxed)).sum::<u64>() * SLAB_BYTES as u64;
    let mut shed_budget = mapped_total.saturating_sub(target_mapped_bytes) as i64;
    let mut out = SweepOutcome::default();
    if shed_budget <= 0 {
        return out;
    }
    let mut quarantine: Vec<*mut u8> = Vec::new();
    for class in 0..NUM_CLASSES {
        sweep_class(class, pass_id, &mut shed_budget, &mut out, &mut quarantine);
    }
    // Release the pages: one `madvise` per run of address-adjacent
    // retired slabs, across classes, instead of one per slab.
    quarantine.sort_unstable();
    for (first, len) in slab_runs(&quarantine) {
        if madvise(first, len * SLAB_BYTES, MADV_DONTNEED) == 0 {
            ADVISED_SLABS.fetch_add(len as u64, Ordering::Relaxed);
            out.advised_slabs += len as u64;
        }
    }
    // Publish completion, then expose this pass's slabs for recarving:
    // every header scrub and madvise above happened-before the push.
    PASS_DONE.store(pass_id, Ordering::Release);
    retired_push_all(&quarantine);
    out
}

/// The truncated pass id written into headers' `sweep_gen` (31 bits — a
/// stale value can only collide after 2^31 passes visit the same slab
/// without it being carved in between, and a collision merely skips one
/// retirement opportunity).
fn pass_stamp(pass_id: u64) -> u32 {
    (pass_id as u32) & !RETIRE_BIT
}

fn sweep_class(
    class: usize,
    pass_id: u64,
    shed_budget: &mut i64,
    out: &mut SweepOutcome,
    quarantine: &mut Vec<*mut u8>,
) {
    if *shed_budget <= 0 {
        return;
    }
    let stamp = pass_stamp(pass_id);
    let bytes = class_bytes(class);
    let nblocks = ((SLAB_BYTES - HEADER_BYTES) / bytes) as u32;
    let central = &CENTRAL[class];

    // Phase 1: drain the central stack into a private working set, block
    // by block (a sweep touches every block anyway to bucket it by slab).
    // Allocating the Vec is safe here — the alloc paths never take
    // RECLAIM_PASS, and neither RETIRE_GAUGE nor RETIRED is held yet.
    let mut blocks: Vec<*mut u8> = Vec::new();
    let mut slabs: Vec<*mut u8> = Vec::new();
    let mut b = central.free.take_all();
    while !b.is_null() {
        blocks.push(b);
        b = next_of(b);
    }
    if !blocks.is_empty() {
        central.free_len.fetch_sub(blocks.len(), Ordering::Relaxed);
    }
    out.swept_blocks += blocks.len() as u64;

    // Phase 2: bucket by slab. First visit in this pass resets the
    // slab's idle count; `free_seen > nblocks` means the working set
    // held a duplicate (a double-free upstream) — such a slab is never
    // retired, the safe direction.
    for &b in &blocks {
        let header = header_of(b);
        let h = unsafe { &*header };
        if h.sweep_gen.load(Ordering::Relaxed) != stamp {
            h.sweep_gen.store(stamp, Ordering::Relaxed);
            h.free_seen.store(0, Ordering::Relaxed);
            slabs.push(header as *mut u8);
        }
        h.free_seen.store(h.free_seen.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    // Phase 3: mark retirements while the shed budget lasts.
    let mut retiring = 0u64;
    for &base in &slabs {
        if *shed_budget <= 0 {
            break;
        }
        let h = unsafe { &*(base as *const SlabHeader) };
        if h.free_seen.load(Ordering::Relaxed) == nblocks {
            h.sweep_gen.store(stamp | RETIRE_BIT, Ordering::Relaxed);
            retiring += 1;
            *shed_budget -= SLAB_BYTES as i64;
        }
    }

    // Phase 4: push the survivors back as one chain, stamped into
    // segments of `seg_max` blocks as it is built (by prepending). Blocks
    // of retiring slabs simply stay behind.
    let seg = seg_max(class);
    let null = std::ptr::null_mut::<u8>();
    let (mut head, mut tail, mut seg_tail) = (null, null, null);
    let mut count = 0usize;
    for &b in &blocks {
        if unsafe { &*header_of(b) }.sweep_gen.load(Ordering::Relaxed) & RETIRE_BIT != 0 {
            continue;
        }
        unsafe { *(b as *mut *mut u8) = head };
        if head.is_null() {
            tail = b;
        }
        if count.is_multiple_of(seg) {
            seg_tail = b;
        }
        head = b;
        count += 1;
        if count.is_multiple_of(seg) {
            seg_stamp(b, seg_tail, seg as u32);
        }
    }
    if !head.is_null() {
        if !count.is_multiple_of(seg) {
            seg_stamp(head, seg_tail, (count % seg) as u32);
        }
        central.push(head, tail, count);
    }
    if retiring == 0 {
        return;
    }

    // Phase 5: the retire phase proper. Mapped decrements are batched
    // under RETIRE_GAUGE so a concurrent gauge fold sees mapped counts
    // either before or after the whole batch, never mid-shrink.
    {
        let _g = RETIRE_GAUGE.lock();
        MAPPED_SLABS[class].fetch_sub(retiring, Ordering::Relaxed);
    }
    RECLAIMED_SLABS[class].fetch_add(retiring, Ordering::Relaxed);
    out.retired_slabs += retiring;
    out.retired_bytes += retiring * SLAB_BYTES as u64;
    for &base in &slabs {
        let h = unsafe { &*(base as *const SlabHeader) };
        if h.sweep_gen.load(Ordering::Relaxed) & RETIRE_BIT == 0 {
            continue;
        }
        // Scrub the magic so any late header read of a retired slab trips
        // the debug integrity asserts. The pages are released by the
        // caller, once per run of slabs.
        unsafe { (*(base as *mut SlabHeader)).magic = 0 };
        quarantine.push(base);
    }
}

/// Fault-injected carve fallbacks outstanding per class. These chunks
/// never enter slab accounting; the gauge keeps the live/mapped
/// reconciliation exact while faults are armed.
static FALLBACK_ALLOCS: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];
static FALLBACK_FREES: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];

/// Live-cache registry: an intrusive singly-linked list of every
/// registered [`ThreadCache`], guarded by [`REGISTRY`]. Gauge collection
/// walks it to read live threads' owner-only counters; teardown unlinks
/// and folds under the same hold, so a concurrent collection sees each
/// cache's counters exactly once (never both live and folded).
static REGISTRY: Spin = Spin::new();
static REGISTRY_HEAD: AtomicUsize = AtomicUsize::new(0);

struct LocalClass {
    /// The free list, LIFO and null-terminated: this thread's frees
    /// pushed on top of what a refill adopted or a carve linked. An
    /// adopted segment is not walked (see [`adopt`]); each block's link is
    /// read only when the block is handed out — a load on the very line
    /// the caller is about to write.
    head: *mut u8,
    /// Population of `head`'s list. Owner-written with plain load/store
    /// pairs (never a locked RMW); atomic only so gauge collection can
    /// read the parked-magazine population cross-thread.
    count: AtomicU32,
    /// Slab blocks allocated / freed in this class by this thread.
    /// Owner-only writes: a relaxed load and a *release* store — the
    /// release pairs with the collector's acquire read so that any
    /// observed count implies the underlying slab is already visible in
    /// [`MAPPED_SLABS`] (the gauge fold protocol, DESIGN.md §9). Bumped
    /// *after* a block is served, never before.
    allocs: AtomicU64,
    frees: AtomicU64,
    /// High-water mark of this thread's net block balance
    /// (`allocs - frees`), observed at the cold refill points — a refill
    /// fires whenever the cache runs dry, so a rising burst is sampled at
    /// least once per batch and the mark lags the true thread peak by at
    /// most one refill batch. Owner-written; folded into
    /// [`PEAK_LIVE_BYTES`] by gauge collections and the teardown fold
    /// (the inter-snapshot peak fix).
    peak_net: AtomicU64,
    /// Allocations until the next profiler tick; 0 means the next alloc
    /// takes the cold [`sample_tick`] (which resets it).
    sample_down: u32,
}

/// Per-thread state. Allocated from [`System`] on a thread's first classed
/// operation; flushed, folded and freed by the TLS drop guard.
struct ThreadCache {
    classes: [LocalClass; NUM_CLASSES],
    /// The [`CACHE_FLUSH_EPOCH`] this cache last synchronized with
    /// (owner-only, checked at the cold refill/flush points). Zero-init
    /// matches the epoch's initial value.
    flush_epoch: u64,
    /// Registry link (guarded by [`REGISTRY`]).
    next: *mut ThreadCache,
    // Owner-only counters (relaxed load + store, no locked RMW on any
    // alloc path); atomic so gauge collection can read them cross-thread.
    // Cache hits are not counted directly: every classed alloc either
    // pops the local list or takes `refill`, so hits = allocs - refills.
    refills: AtomicU64,
    slabs: AtomicU64,
    /// Sampled allocation counts per class: the profiler's per-thread
    /// table, folded on exit and summed in place by a live collection.
    samples: [AtomicU32; NUM_CLASSES],
}

/// Post-teardown sentinel: "this thread had a cache and it is gone".
/// Never dereferenced.
const DEAD: *mut ThreadCache = usize::MAX as *mut ThreadCache;

thread_local! {
    // Const-init: reading it never allocates and registers no destructor,
    // so it is safe to touch from inside alloc/dealloc at any point in a
    // thread's life, including during TLS teardown.
    static CACHE: Cell<*mut ThreadCache> = const { Cell::new(std::ptr::null_mut()) };
    // The flush guard is a separate, lazily-registered key: its destructor
    // runs at thread exit, after which CACHE holds DEAD.
    static GUARD: CacheGuard = const { CacheGuard };
}

struct CacheGuard;

impl Drop for CacheGuard {
    fn drop(&mut self) {
        teardown_cache();
    }
}

#[cold]
fn init_cache() -> *mut ThreadCache {
    let layout = Layout::new::<ThreadCache>();
    // SAFETY: ThreadCache has a known, non-zero layout; zeroed memory is a
    // valid ThreadCache (null list heads, zero counts).
    let cache = unsafe { System.alloc_zeroed(layout) } as *mut ThreadCache;
    if cache.is_null() {
        return DEAD;
    }
    {
        let _g = REGISTRY.lock();
        unsafe { (*cache).next = REGISTRY_HEAD.load(Ordering::Relaxed) as *mut ThreadCache };
        REGISTRY_HEAD.store(cache as usize, Ordering::Relaxed);
    }
    CACHE.set(cache);
    // Register the flush guard *after* the cache pointer is in place. If
    // the thread is already past TLS teardown the registration fails —
    // flush immediately and run DEAD from here on.
    if GUARD.try_with(|_| ()).is_err() {
        teardown_cache();
        return DEAD;
    }
    cache
}

fn teardown_cache() {
    let cache = CACHE.get();
    CACHE.set(DEAD);
    if cache.is_null() || cache == DEAD {
        return;
    }
    let cache_ref = unsafe { &mut *cache };
    flush_all(cache_ref);
    // Unlink and fold under one registry hold: a concurrent gauge
    // collection sees this cache's counters exactly once — still linked,
    // or already folded, never neither and never both.
    {
        let _g = REGISTRY.lock();
        let mut prev: *mut ThreadCache = std::ptr::null_mut();
        let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *mut ThreadCache;
        while !cur.is_null() {
            if cur == cache {
                let next = unsafe { (*cur).next };
                if prev.is_null() {
                    REGISTRY_HEAD.store(next as usize, Ordering::Relaxed);
                } else {
                    unsafe { (*prev).next = next };
                }
                break;
            }
            prev = cur;
            cur = unsafe { (*cur).next };
        }
        // Record the process high-water before folding this cache away:
        // without this, a burst thread that rose and fell entirely
        // between gauge collections would take its peak to the grave.
        observe_peak_locked(Some(cache_ref));
        let mut allocs_total = 0u64;
        for (class, lc) in cache_ref.classes.iter().enumerate() {
            let a = lc.allocs.load(Ordering::Relaxed);
            allocs_total += a;
            FOLDED_CLASS[class].allocs.fetch_add(a, Ordering::Release);
            FOLDED_CLASS[class]
                .frees
                .fetch_add(lc.frees.load(Ordering::Relaxed), Ordering::Release);
        }
        let refills = cache_ref.refills.load(Ordering::Relaxed);
        FOLDED.cache_hits.fetch_add(allocs_total.saturating_sub(refills), Ordering::Relaxed);
        FOLDED.class_refills.fetch_add(refills, Ordering::Relaxed);
        FOLDED.slabs_carved.fetch_add(cache_ref.slabs.load(Ordering::Relaxed), Ordering::Relaxed);
        crate::heap_profile::fold_thread_samples(&cache_ref.samples);
    }
    unsafe { System.dealloc(cache as *mut u8, Layout::new::<ThreadCache>()) };
}

/// Fold the per-thread high-water marks into [`PEAK_LIVE_BYTES`]: per
/// class, the folded net of exited threads (their real remaining
/// contribution) plus every registered cache's `peak_net` (plus `extra`,
/// a cache mid-teardown that is already unlinked). The sum is a
/// *conservative* watermark — per-thread peaks need not be simultaneous —
/// so it is clamped to the class's currently-mapped bytes, which keeps
/// `peak <= historical max mapped` while still dominating every true
/// live value. Caller must hold [`REGISTRY`].
fn observe_peak_locked(extra: Option<&ThreadCache>) {
    for class in 0..NUM_CLASSES {
        let folded_net = FOLDED_CLASS[class].allocs.load(Ordering::Acquire) as i64
            - FOLDED_CLASS[class].frees.load(Ordering::Acquire) as i64;
        let mut hw = folded_net.max(0) as u64;
        let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *const ThreadCache;
        while !cur.is_null() {
            let cache = unsafe { &*cur };
            hw += cache.classes[class].peak_net.load(Ordering::Relaxed);
            cur = cache.next;
        }
        if let Some(c) = extra {
            hw += c.classes[class].peak_net.load(Ordering::Relaxed);
        }
        if hw > 0 {
            let mapped = MAPPED_SLABS[class].load(Ordering::Relaxed) * SLAB_BYTES as u64;
            let candidate = (hw * class_bytes(class) as u64).min(mapped);
            PEAK_LIVE_BYTES[class].fetch_max(candidate, Ordering::AcqRel);
        }
    }
}

/// Owner-only counter bump: a relaxed load and a release store — one
/// plain increment on x86, never a locked RMW. The release half is what
/// lets the gauge collector's acquire read order this count against the
/// slab-mapping increments that preceded it (DESIGN.md §9).
#[inline]
fn owner_bump(counter: &AtomicU64) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
}

/// Owner-only adjustment of a parked-population gauge (order-insensitive:
/// readers treat these as approximate, so relaxed stores suffice).
#[inline]
fn owner_sub32(counter: &AtomicU32, n: u32) {
    counter.store(counter.load(Ordering::Relaxed).wrapping_sub(n), Ordering::Relaxed);
}

/// While the profiler is disabled, re-check its period only once per this
/// many classed allocs per (thread, class) — the whole disabled-mode cost
/// is one countdown branch per alloc plus that rare cold call.
const SAMPLE_RECHECK: u32 = 512;

/// Profiler tick: reached every `sample_period` classed allocs per
/// (thread, class) while enabled, every [`SAMPLE_RECHECK`] while not.
/// Attributes the sampled alloc to (class, thread). Re-entrancy-safe by
/// construction: it touches only the thread's own cache, never the heap.
#[cold]
fn sample_tick(cache: &mut ThreadCache, class: usize) {
    let period = crate::heap_profile::sample_period();
    if period == 0 {
        cache.classes[class].sample_down = SAMPLE_RECHECK;
        return;
    }
    cache.classes[class].sample_down = period - 1;
    let cell = &cache.samples[class];
    cell.store(cell.load(Ordering::Relaxed).wrapping_add(1), Ordering::Release);
}

/// Classed allocation entry: thread-cache hit or the cold ladder. The
/// per-class alloc count is bumped *after* a block is in hand (and never
/// for fault-fallback chunks), so a counted block always has its slab
/// already visible in [`MAPPED_SLABS`].
#[inline]
fn alloc_class(class: usize) -> *mut u8 {
    let cache = CACHE.get();
    if cache.is_null() || cache == DEAD {
        return alloc_class_cold_entry(class, cache);
    }
    let cache = unsafe { &mut *cache };
    let lc = &mut cache.classes[class];
    let ticked = lc.sample_down == 0;
    if !ticked {
        lc.sample_down -= 1;
    }
    if ticked {
        sample_tick(cache, class);
    }
    let lc = &mut cache.classes[class];
    let head = lc.head;
    if !head.is_null() {
        lc.head = unsafe { *(head as *mut *mut u8) };
        owner_sub32(&lc.count, 1);
        owner_bump(&lc.allocs);
        return head;
    }
    let block = refill(cache, class);
    if !(block.is_null() || (cfg!(feature = "fault-inject") && is_fallback(block))) {
        owner_bump(&cache.classes[class].allocs);
    }
    block
}

#[cold]
fn alloc_class_cold_entry(class: usize, cache: *mut ThreadCache) -> *mut u8 {
    if cache == DEAD {
        // TLS teardown already ran; serve straight from the shared levels
        // and count against the folded ledger.
        FOLDED.class_refills.fetch_add(1, Ordering::Relaxed);
        return alloc_shared_counted(class);
    }
    let cache = init_cache();
    if cache == DEAD {
        FOLDED.class_refills.fetch_add(1, Ordering::Relaxed);
        return alloc_shared_counted(class);
    }
    alloc_class(class)
}

/// DEAD-path alloc, counted against the folded per-class ledger *after*
/// the block exists (mapped-before-counted, like the cached path) and
/// never for fallback chunks.
fn alloc_shared_counted(class: usize) -> *mut u8 {
    let block = alloc_shared(class);
    if !(block.is_null() || (cfg!(feature = "fault-inject") && is_fallback(block))) {
        FOLDED_CLASS[class].allocs.fetch_add(1, Ordering::Release);
    }
    block
}

/// Cache-less single-block acquire (DEAD paths): a central segment, whose
/// head is served and the rest pushed back ([`serve_head`]), else a carve
/// whose surplus all goes central.
fn alloc_shared(class: usize) -> *mut u8 {
    let central = &CENTRAL[class];
    match central.pop() {
        Some((head, tail, n)) => serve_head(central, head, tail, n),
        None => carve_shared(class),
    }
}

/// Serve `head` of a private segment `head..=tail` of `n` blocks and push
/// the other `n - 1` back onto the central stack, re-stamped as one
/// segment.
fn serve_head(central: &Central, head: *mut u8, tail: *mut u8, n: usize) -> *mut u8 {
    if n > 1 {
        let rest = next_of(head);
        seg_stamp(rest, tail, (n - 1) as u32);
        central.push(rest, tail, n - 1);
    }
    head
}

/// The link word of a free block: the next block of its chain.
#[inline]
fn next_of(block: *mut u8) -> *mut u8 {
    // SAFETY: callers pass a free block of a chain they own; blocks are
    // at least 16 bytes and 16-aligned, and the first word is the link.
    unsafe { *(block as *const *mut u8) }
}

/// Walk a detached chain: (length, tail pointer). The chain is private to
/// the caller, so plain loads suffice.
fn chain_measure(head: *mut u8) -> (usize, *mut u8) {
    let mut n = 1usize;
    let mut tail = head;
    while !next_of(tail).is_null() {
        tail = next_of(tail);
        n += 1;
    }
    (n, tail)
}

/// Epoch-gated excision hook, reached only from the already-cold
/// refill/flush paths: when a reclaim pass bumped [`CACHE_FLUSH_EPOCH`]
/// since this cache last looked, release everything the cache holds so
/// the *next* pass can sweep it. Returns whether a flush ran.
#[cold]
fn sync_flush_epoch(cache: &mut ThreadCache) -> bool {
    let epoch = CACHE_FLUSH_EPOCH.load(Ordering::Relaxed);
    if cache.flush_epoch == epoch {
        return false;
    }
    cache.flush_epoch = epoch;
    flush_all(cache);
    true
}

/// Observe this thread's net block balance for `class` and raise its
/// high-water mark. Called at refill time: a refill means the cache ran
/// dry, which every rising burst does at least once per batch.
#[inline]
fn observe_peak_net(lc: &LocalClass) {
    let net = lc.allocs.load(Ordering::Relaxed).wrapping_sub(lc.frees.load(Ordering::Relaxed));
    if (net as i64) > 0 && net > lc.peak_net.load(Ordering::Relaxed) {
        lc.peak_net.store(net, Ordering::Release);
    }
}

/// Thread-cache refill: pop one central segment, else carve a slab.
#[cold]
fn refill(cache: &mut ThreadCache, class: usize) -> *mut u8 {
    sync_flush_epoch(cache);
    observe_peak_net(&cache.classes[class]);
    owner_bump(&cache.refills);
    match CENTRAL[class].pop() {
        Some((head, tail, n)) => {
            // SAFETY: the pop made the segment ours; `tail`'s link still
            // points into the stack.
            unsafe { *(tail as *mut *mut u8) = std::ptr::null_mut() };
            adopt(cache, class, head, tail, n)
        }
        None => carve(cache, class),
    }
}

/// Most blocks in one central segment that a carve, flush or sweep cuts:
/// the class's refill batch (half a magazine, at most 64), which is what
/// one refill then takes.
#[inline]
fn seg_max(class: usize) -> usize {
    (MAG_CAP[class] as usize / 2 + 1).min(64)
}

/// Serve a private, null-terminated segment `head..=tail` of `n` blocks
/// from the thread cache: `head` is returned and the rest becomes the
/// class's (empty) list, with the count its stamp gave — no block walked.
fn adopt(cache: &mut ThreadCache, class: usize, head: *mut u8, tail: *mut u8, n: usize) -> *mut u8 {
    debug_assert_eq!(chain_measure(head), (n, tail), "adopted chain disagrees with its stamp");
    let lc = &mut cache.classes[class];
    debug_assert!(lc.head.is_null(), "refill with a live list");
    lc.head = next_of(head);
    lc.count.store((n - 1) as u32, Ordering::Relaxed);
    head
}

/// Stamp the first `n` blocks of the private chain at `head` as segments
/// of at most `seg` blocks; returns the `n`th block (the last tail).
fn stamp_segments(head: *mut u8, n: usize, seg: usize) -> *mut u8 {
    let (mut first, mut left) = (head, n);
    loop {
        let k = left.min(seg);
        let mut tail = first;
        for _ in 1..k {
            tail = next_of(tail);
        }
        seg_stamp(first, tail, k as u32);
        left -= k;
        if left == 0 {
            return tail;
        }
        first = next_of(tail);
    }
}

/// Carve a slab for the cache: first block served, up to `cap - 1` made
/// the class's list, the rest to the central stack.
fn carve(cache: &mut ThreadCache, class: usize) -> *mut u8 {
    if crate::fault::fail_slab_carve() {
        return fallback_alloc(class);
    }
    owner_bump(&cache.slabs);
    let cap = MAG_CAP[class] as usize;
    let Some(base) = carve_slab(class) else { return std::ptr::null_mut() };
    let bytes = class_bytes(class);
    let nblocks = (SLAB_BYTES - HEADER_BYTES) / bytes;
    let block_at = |i: usize| unsafe { base.add(HEADER_BYTES + i * bytes) };
    let keep = (cap - 1).min(nblocks - 1);
    for i in 1..=keep {
        let next = if i < keep { block_at(i + 1) } else { std::ptr::null_mut() };
        unsafe { *(block_at(i) as *mut *mut u8) = next };
    }
    let lc = &mut cache.classes[class];
    debug_assert!(lc.head.is_null(), "carve with a live list");
    lc.head = block_at(1);
    lc.count.store(keep as u32, Ordering::Relaxed);
    donate_slab_rest(class, base, keep + 1);
    block_at(0)
}

/// Cache-less carve: everything beyond the served block goes central.
fn carve_shared(class: usize) -> *mut u8 {
    if crate::fault::fail_slab_carve() {
        return fallback_alloc(class);
    }
    FOLDED.slabs_carved.fetch_add(1, Ordering::Relaxed);
    let Some(base) = carve_slab(class) else { return std::ptr::null_mut() };
    donate_slab_rest(class, base, 1);
    unsafe { base.add(HEADER_BYTES) }
}

/// Chain blocks `first..` of the freshly carved `class` slab at `base` in
/// place, as stamped segments of at most [`seg_max`] blocks, and push
/// them onto the central stack in one CAS.
fn donate_slab_rest(class: usize, base: *mut u8, first: usize) {
    let bytes = class_bytes(class);
    let nblocks = (SLAB_BYTES - HEADER_BYTES) / bytes;
    if first >= nblocks {
        return;
    }
    let block_at = |i: usize| unsafe { base.add(HEADER_BYTES + i * bytes) };
    let seg = seg_max(class);
    for i in first..nblocks {
        if (i - first).is_multiple_of(seg) {
            let n = seg.min(nblocks - i);
            seg_stamp(block_at(i), block_at(i + n - 1), n as u32);
        }
        if i + 1 < nblocks {
            // SAFETY: the slab was just carved for the caller, and both
            // blocks lie inside it.
            unsafe { *(block_at(i) as *mut *mut u8) = block_at(i + 1) };
        }
    }
    CENTRAL[class].push(block_at(first), block_at(nblocks - 1), nblocks - first);
}

/// Fresh slabs are bump-carved from segments of this many bytes: one
/// [`System`] allocation per 64 slabs. Segments are never freed, so slab
/// memory stays type-stable.
const SEGMENT_BYTES: usize = 4 << 20;

/// The segment fresh slabs are cut from: `[SEGMENT_NEXT, SEGMENT_END)`
/// is its uncarved tail. Both are read and written only under
/// [`SEGMENT`], whose acquire/release orders them (hence `Relaxed`). The
/// critical section is a bump, plus one `System` allocation per segment —
/// never a path back into this allocator.
static SEGMENT: Spin = Spin::new();
static SEGMENT_NEXT: AtomicUsize = AtomicUsize::new(0);
static SEGMENT_END: AtomicUsize = AtomicUsize::new(0);

/// Bump one fresh, slab-aligned slab off the current segment, mapping a
/// new segment when it is used up. `None` on OOM.
fn segment_slab() -> Option<*mut u8> {
    let _g = SEGMENT.lock();
    let mut next = SEGMENT_NEXT.load(Ordering::Relaxed);
    if next == SEGMENT_END.load(Ordering::Relaxed) {
        let layout =
            Layout::from_size_align(SEGMENT_BYTES, SLAB_BYTES).expect("static segment layout");
        // SAFETY: the layout has a non-zero size.
        let base = unsafe { System.alloc(layout) };
        if base.is_null() {
            return None;
        }
        next = base as usize;
        SEGMENT_END.store(next + SEGMENT_BYTES, Ordering::Relaxed);
    }
    SEGMENT_NEXT.store(next + SLAB_BYTES, Ordering::Relaxed);
    Some(next as *mut u8)
}

const PAGE_BYTES: usize = 4096;

/// Bytes at the start of a `class` slab that a carve writes: the header
/// through the last block's link word ([`carve`] and [`carve_shared`]
/// link every block but the served first one), rounded up to a page.
/// This is what [`carve_slab`] prefaults — no more, so a carve never
/// maps a page its own writes would not have faulted in.
fn carve_extent(class: usize) -> usize {
    let bytes = class_bytes(class);
    let nblocks = (SLAB_BYTES - HEADER_BYTES) / bytes;
    let end = HEADER_BYTES + (nblocks - 1) * bytes + std::mem::size_of::<usize>();
    end.next_multiple_of(PAGE_BYTES)
}

/// Latched once the kernel rejects [`MADV_POPULATE_WRITE`] as unknown,
/// so older kernels pay for one failed call, not one per carve. Publishes
/// nothing else, hence `Relaxed`.
static PREFAULT_OFF: AtomicBool = AtomicBool::new(false);

/// Fault in the pages a carve of `class` is about to write with one
/// `MADV_POPULATE_WRITE` instead of one demand fault per page. Advisory:
/// on any failure the carve's own writes fault the pages in anyway.
fn prefault(base: *mut u8, class: usize) {
    if PREFAULT_OFF.load(Ordering::Relaxed) {
        return;
    }
    if madvise(base, carve_extent(class), MADV_POPULATE_WRITE) == NEG_EINVAL {
        PREFAULT_OFF.store(true, Ordering::Relaxed);
    }
}

/// Allocate and stamp one slab: a quarantined retired slab when one is
/// available (its retiring pass has fully completed — pushes happen only
/// after `PASS_DONE` is published), else a fresh one from the current
/// segment. Either way the pages the carve writes are prefaulted in one
/// call first. `None` on OOM (propagates as a null from `alloc`, per the
/// `GlobalAlloc` contract).
fn carve_slab(class: usize) -> Option<*mut u8> {
    let base = match retired_pop() {
        Some(base) => base,
        None => segment_slab()?,
    };
    prefault(base, class);
    let header = base as *mut SlabHeader;
    unsafe {
        (*header).magic = SLAB_MAGIC;
        (*header).class = class as u16;
        (*header).sweep_gen = AtomicU32::new(0);
        (*header).free_seen = AtomicU32::new(0);
    }
    // Mapped before any block can be counted: every alloc-count store is
    // sequenced after this (same thread) or chained through the
    // release/acquire hand-offs of the free stacks (other threads), so a
    // collector that reads counts first and this array last can never see
    // live bytes exceed mapped bytes.
    MAPPED_SLABS[class].fetch_add(1, Ordering::Relaxed);
    Some(base)
}

/// Layout of a fault-fallback chunk for `class`: one block behind a
/// slab-aligned header, so `dealloc`'s address-mask header recovery works
/// on it unchanged.
fn fallback_layout(class: usize) -> Layout {
    Layout::from_size_align(HEADER_BYTES + class_bytes(class), SLAB_BYTES)
        .expect("static fallback layout")
}

/// Injected-carve fallback: serve the request from a [`System`] chunk
/// stamped [`FALLBACK_MAGIC`]. The chunk never enters slab accounting —
/// it is counted on the per-class fallback gauge instead — and never
/// recirculates through caches or central stacks: its free goes straight
/// back to [`System`].
#[cold]
fn fallback_alloc(class: usize) -> *mut u8 {
    let base = unsafe { System.alloc(fallback_layout(class)) };
    if base.is_null() {
        return std::ptr::null_mut();
    }
    let header = base as *mut SlabHeader;
    unsafe {
        (*header).magic = FALLBACK_MAGIC;
        (*header).class = class as u16;
        (*header).sweep_gen = AtomicU32::new(0);
        (*header).free_seen = AtomicU32::new(0);
    }
    FALLBACK_ALLOCS[class].fetch_add(1, Ordering::Release);
    unsafe { base.add(HEADER_BYTES) }
}

/// Whether `ptr` is a fallback chunk's block (one header load). Only ever
/// called under `cfg!(feature = "fault-inject")`; without faults no chunk
/// exists, and the free path reads no header.
#[inline]
fn is_fallback(ptr: *mut u8) -> bool {
    unsafe { (*header_of(ptr)).magic == FALLBACK_MAGIC }
}

#[cold]
fn fallback_free(ptr: *mut u8, class: usize) {
    let base = ((ptr as usize) & !SLAB_MASK) as *mut u8;
    FALLBACK_FREES[class].fetch_add(1, Ordering::Release);
    unsafe { System.dealloc(base, fallback_layout(class)) };
}

/// Classed deallocation. With a thread cache, every free is one push onto
/// the local list, whoever carved the block: no slab-header load (debug
/// builds check the header). Blocks leave the cache only when the list
/// overflows or the thread exits; a cache-less thread pushes each block
/// onto the central stack alone.
#[inline]
fn dealloc_class(ptr: *mut u8, class: usize) {
    // Fault builds only: route fallback chunks straight back to System
    // before they can touch the slab ledger (compiled out otherwise).
    if cfg!(feature = "fault-inject") && is_fallback(ptr) {
        return fallback_free(ptr, class);
    }
    debug_assert!(
        unsafe { (*header_of(ptr)).magic == SLAB_MAGIC },
        "classed free of a non-slab pointer"
    );
    debug_assert_eq!(
        unsafe { (*header_of(ptr)).class } as usize,
        class,
        "freed with a different class layout"
    );
    let cache = CACHE.get();
    if !cache.is_null() && cache != DEAD {
        let cache = unsafe { &mut *cache };
        let lc = &mut cache.classes[class];
        owner_bump(&lc.frees);
        unsafe { *(ptr as *mut *mut u8) = lc.head };
        lc.head = ptr;
        let count = lc.count.load(Ordering::Relaxed) + 1;
        lc.count.store(count, Ordering::Relaxed);
        if count > MAG_CAP[class] {
            flush_surplus(cache, class);
        }
        return;
    }
    // No cache (never allocated) or DEAD (teardown done): a one-block
    // segment on the central stack, where the next refill finds it.
    FOLDED_CLASS[class].frees.fetch_add(1, Ordering::Release);
    seg_stamp(ptr, ptr, 1);
    CENTRAL[class].push(ptr, ptr, 1);
}

/// Stamp the first `n` blocks of the private list at `head` as segments
/// and push them onto `class`'s central stack in one CAS. Returns the
/// block after the `n`th.
fn push_central(class: usize, head: *mut u8, n: usize) -> *mut u8 {
    let tail = stamp_segments(head, n, seg_max(class));
    let rest = next_of(tail);
    CENTRAL[class].push(head, tail, n);
    rest
}

/// Push the top half of the local list onto the central stack.
#[cold]
fn flush_surplus(cache: &mut ThreadCache, class: usize) {
    // A pending reclaim epoch empties the whole cache — nothing left to
    // halve, and the early return keeps the walk below off a null head.
    if sync_flush_epoch(cache) {
        return;
    }
    let lc = &mut cache.classes[class];
    let count = lc.count.load(Ordering::Relaxed);
    let flush = (count / 2).max(1);
    lc.head = push_central(class, lc.head, flush as usize);
    lc.count.store(count - flush, Ordering::Relaxed);
}

/// Empty every local list onto the central stacks. Shared by the exit
/// guard and [`flush_thread_cache`].
fn flush_all(cache: &mut ThreadCache) {
    for (class, lc) in cache.classes.iter_mut().enumerate() {
        if lc.head.is_null() {
            continue;
        }
        let n = lc.count.load(Ordering::Relaxed) as usize;
        debug_assert_eq!(chain_measure(lc.head).0, n, "local list count drifted");
        push_central(class, lc.head, n);
        lc.head = std::ptr::null_mut();
        lc.count.store(0, Ordering::Relaxed);
    }
}

/// Raw entry points: the same block machinery without going through a
/// `#[global_allocator]` installation. `mem-api`'s `global` backend and
/// the bench envelopes call these directly, so the front-end is measurable
/// even in feature-off builds. Inlined so callers in other crates get the
/// classed hit path without a call.
#[inline]
pub fn raw_alloc(layout: Layout) -> *mut u8 {
    match class_for(layout.size(), layout.align()) {
        Some(class) => alloc_class(class),
        None => {
            FOLDED.passthrough_allocs.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
    }
}

/// Free a block obtained from [`raw_alloc`] with the same layout.
///
/// # Safety
/// `ptr` must come from [`raw_alloc`] (or the installed `GlobalPool`)
/// with exactly this `layout`, and must not be freed twice.
#[inline]
pub unsafe fn raw_dealloc(ptr: *mut u8, layout: Layout) {
    match class_for(layout.size(), layout.align()) {
        Some(class) => dealloc_class(ptr, class),
        None => {
            FOLDED.passthrough_frees.fetch_add(1, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

/// Flush the calling thread's cached blocks onto the central stacks (what
/// the exit guard would do, minus the counter fold). Test/bench hook for
/// reasoning about central population at quiescence.
pub fn flush_thread_cache() {
    let cache = CACHE.get();
    if cache.is_null() || cache == DEAD {
        return;
    }
    let cache = unsafe { &mut *cache };
    flush_all(cache);
}

/// A point-in-time ledger of the front-end. Exact at quiescence for the
/// folded side plus the *calling thread's* live cache; other live threads'
/// plain-field counters are invisible until they exit (the `MagCells`
/// publication trade-off, inherited deliberately).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GlobalAllocStats {
    /// Classed allocations / frees (passthroughs excluded).
    pub class_allocs: u64,
    pub class_frees: u64,
    /// Allocations served by a thread-cache list hit.
    pub cache_hits: u64,
    /// Thread-cache refills (central pop or carve).
    pub class_refills: u64,
    /// Always 0: the engine has no remote-free queues (every block freed
    /// without a cache goes to its class's central stack). Kept because
    /// records and readers of the older engine's remote-free ledger,
    /// `remote_frees == remote_drained + remote_pending`, still read
    /// them; the ledger holds as 0 = 0 + 0.
    pub remote_frees: u64,
    /// Always 0 (see `remote_frees`).
    pub remote_drained: u64,
    /// Always 0 (see `remote_frees`).
    pub remote_pending: u64,
    /// 64 KiB slab carves (fresh maps plus quarantine recarves).
    pub slabs_carved: u64,
    /// Bytes currently mapped in slabs (carves minus retirements — no
    /// longer process-lifetime; see `sweep_and_retire`).
    pub slab_bytes: u64,
    /// Fully-idle slabs retired by reclaim passes, and the bytes their
    /// pages returned to the OS (cumulative).
    pub reclaimed_slabs: u64,
    pub reclaimed_bytes: u64,
    /// Retired slabs pulled back out of quarantine by later carves.
    pub recarved_slabs: u64,
    /// Requests that bypassed the classes (too big / over-aligned).
    pub(crate) passthrough_allocs: u64,
    pub(crate) passthrough_frees: u64,
    /// Fault-injected carve fallbacks: classed requests served from
    /// System chunks outside slab accounting (`fault-inject` builds with
    /// an armed schedule only; always zero otherwise).
    pub fallback_allocs: u64,
    pub fallback_frees: u64,
    /// Bytes outstanding in fallback chunks (block payload; headers and
    /// alignment slack excluded).
    pub(crate) fallback_bytes: u64,
}

/// Snapshot the ledger. Unlike the original fold-on-exit-only snapshot,
/// this reads *every* live cache through the registry, so it is exact at
/// quiescence and a bounded-skew estimate mid-run.
pub fn stats() -> GlobalAllocStats {
    let mut s = GlobalAllocStats {
        cache_hits: FOLDED.cache_hits.load(Ordering::Relaxed),
        class_refills: FOLDED.class_refills.load(Ordering::Relaxed),
        slabs_carved: FOLDED.slabs_carved.load(Ordering::Relaxed),
        passthrough_allocs: FOLDED.passthrough_allocs.load(Ordering::Relaxed),
        passthrough_frees: FOLDED.passthrough_frees.load(Ordering::Relaxed),
        ..GlobalAllocStats::default()
    };
    for fold in &FOLDED_CLASS {
        s.class_allocs += fold.allocs.load(Ordering::Acquire);
        s.class_frees += fold.frees.load(Ordering::Acquire);
    }
    {
        let _g = REGISTRY.lock();
        let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *const ThreadCache;
        while !cur.is_null() {
            let cache = unsafe { &*cur };
            let mut allocs = 0u64;
            for lc in &cache.classes {
                allocs += lc.allocs.load(Ordering::Acquire);
                s.class_frees += lc.frees.load(Ordering::Acquire);
            }
            let refills = cache.refills.load(Ordering::Relaxed);
            s.class_allocs += allocs;
            s.cache_hits += allocs.saturating_sub(refills);
            s.class_refills += refills;
            s.slabs_carved += cache.slabs.load(Ordering::Relaxed);
            cur = cache.next;
        }
    }
    for (class, (fa, ff)) in FALLBACK_ALLOCS.iter().zip(FALLBACK_FREES.iter()).enumerate() {
        let fa = fa.load(Ordering::Acquire);
        let ff = ff.load(Ordering::Acquire);
        s.fallback_allocs += fa;
        s.fallback_frees += ff;
        s.fallback_bytes += fa.saturating_sub(ff) * class_bytes(class) as u64;
    }
    s.slab_bytes =
        MAPPED_SLABS.iter().map(|m| m.load(Ordering::Relaxed)).sum::<u64>() * SLAB_BYTES as u64;
    let (reclaimed_slabs, reclaimed_bytes, recarved, _) = reclaim_totals();
    s.reclaimed_slabs = reclaimed_slabs;
    s.reclaimed_bytes = reclaimed_bytes;
    s.recarved_slabs = recarved;
    s
}

/// Raw per-class gauge counters, collected by [`collect_raw_gauges`].
/// Block counts, not bytes — [`crate::heap_profile`] scales them.
pub(crate) struct RawGauges {
    pub(crate) allocs: [u64; NUM_CLASSES],
    pub(crate) frees: [u64; NUM_CLASSES],
    /// Blocks parked in thread-cache lists, summed over live caches.
    pub(crate) cache_parked: [u64; NUM_CLASSES],
    /// Blocks parked on the central free stacks.
    pub(crate) central_parked: [u64; NUM_CLASSES],
    pub(crate) mapped_slabs: [u64; NUM_CLASSES],
    pub(crate) peak_live_bytes: [u64; NUM_CLASSES],
    /// Fault-fallback blocks outstanding (allocs - frees, clamped).
    pub(crate) fallback_blocks: [u64; NUM_CLASSES],
}

/// The two-pass gauge fold (DESIGN.md §9). Read order is the invariant:
///
/// 1. every alloc counter (folded, then each live cache, `Acquire`),
/// 2. every free counter (strictly after all allocs — frees observed
///    beyond pass 1's allocs only *lower* the live estimate),
/// 3. the mapped-slab counts last (monotone; carves between passes only
///    raise the bound).
///
/// So `live = allocs - frees` (clamped at zero) can under- but never
/// over-estimate against the mapped bound: `live_bytes <= mapped_bytes`
/// holds for every snapshot, and both are exact at quiescence. The
/// registry hold spans both counter passes, which also blocks teardown
/// folds from moving counters between the passes.
///
/// The whole fold runs under [`RETIRE_GAUGE`]: mapped counts are only
/// monotone *between* retire phases, so a collection must never
/// interleave one — a slab retired after pass 2 read its (already
/// freed) blocks' counters but before the mapped read would otherwise
/// fake `live > mapped`.
pub(crate) fn collect_raw_gauges() -> RawGauges {
    let mut g = RawGauges {
        allocs: [0; NUM_CLASSES],
        frees: [0; NUM_CLASSES],
        cache_parked: [0; NUM_CLASSES],
        central_parked: [0; NUM_CLASSES],
        mapped_slabs: [0; NUM_CLASSES],
        peak_live_bytes: [0; NUM_CLASSES],
        fallback_blocks: [0; NUM_CLASSES],
    };
    let mut folded_allocs = [0u64; NUM_CLASSES];
    let mut folded_frees = [0u64; NUM_CLASSES];
    let mut thread_hw = [0u64; NUM_CLASSES];
    let _retire_hold = RETIRE_GAUGE.lock();
    {
        let _hold = REGISTRY.lock();
        // Pass 1: allocations (plus the order-insensitive parked gauges
        // and the per-thread high-water marks).
        for (class, fold) in FOLDED_CLASS.iter().enumerate() {
            folded_allocs[class] = fold.allocs.load(Ordering::Acquire);
            g.allocs[class] = folded_allocs[class];
        }
        let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *const ThreadCache;
        while !cur.is_null() {
            let cache = unsafe { &*cur };
            for (class, lc) in cache.classes.iter().enumerate() {
                g.allocs[class] += lc.allocs.load(Ordering::Acquire);
                g.cache_parked[class] += lc.count.load(Ordering::Relaxed) as u64;
                thread_hw[class] += lc.peak_net.load(Ordering::Relaxed);
            }
            cur = cache.next;
        }
        // Pass 2: frees, strictly after every alloc counter.
        for (class, fold) in FOLDED_CLASS.iter().enumerate() {
            folded_frees[class] = fold.frees.load(Ordering::Acquire);
            g.frees[class] = folded_frees[class];
        }
        let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *const ThreadCache;
        while !cur.is_null() {
            let cache = unsafe { &*cur };
            for (class, lc) in cache.classes.iter().enumerate() {
                g.frees[class] += lc.frees.load(Ordering::Acquire);
            }
            cur = cache.next;
        }
    }
    for (class, central) in CENTRAL.iter().enumerate() {
        g.central_parked[class] = central.len();
        g.fallback_blocks[class] = FALLBACK_ALLOCS[class]
            .load(Ordering::Acquire)
            .saturating_sub(FALLBACK_FREES[class].load(Ordering::Acquire));
    }
    // Mapped last (see above), then fold the peak watermark: the live
    // estimate at this instant, and the per-thread high-water sum (folded
    // net of exited threads + each live thread's refill-time peak),
    // clamped to mapped so the non-simultaneous sum stays below the
    // historical mapped ceiling.
    for class in 0..NUM_CLASSES {
        g.mapped_slabs[class] = MAPPED_SLABS[class].load(Ordering::Relaxed);
        let mapped_bytes = g.mapped_slabs[class] * SLAB_BYTES as u64;
        let live_bytes = g.allocs[class].saturating_sub(g.frees[class]) * class_bytes(class) as u64;
        let folded_net = folded_allocs[class].saturating_sub(folded_frees[class]);
        let hw_bytes =
            ((folded_net + thread_hw[class]) * class_bytes(class) as u64).min(mapped_bytes);
        PEAK_LIVE_BYTES[class].fetch_max(live_bytes.max(hw_bytes), Ordering::AcqRel);
        g.peak_live_bytes[class] = PEAK_LIVE_BYTES[class].load(Ordering::Relaxed);
    }
    g
}

/// Add every live cache's sample table into the caller's accumulator —
/// the live half of the profiler's aggregates; [`crate::heap_profile`]
/// owns the folded half.
pub(crate) fn collect_live_samples(sites: &mut [u64; NUM_CLASSES]) {
    let _hold = REGISTRY.lock();
    let mut cur = REGISTRY_HEAD.load(Ordering::Relaxed) as *const ThreadCache;
    while !cur.is_null() {
        let cache = unsafe { &*cur };
        for (site, cell) in sites.iter_mut().zip(&cache.samples) {
            *site += cell.load(Ordering::Acquire) as u64;
        }
        cur = cache.next;
    }
}

/// Whether this build installs `GlobalPool` as `#[global_allocator]`.
pub const fn installed() -> bool {
    cfg!(feature = "global-alloc")
}

/// The size-class front-end as a [`GlobalAlloc`]. A unit struct: all state
/// is in statics and TLS, so the installed instance and ad-hoc instances
/// share one runtime.
#[cfg(any(test, feature = "global-alloc"))]
pub(crate) struct GlobalPool;

#[cfg(any(test, feature = "global-alloc"))]
unsafe impl GlobalAlloc for GlobalPool {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        raw_alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { raw_dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let old_class = class_for(layout.size(), layout.align());
        let new_class = class_for(new_size, layout.align());
        match (old_class, new_class) {
            // Same block still fits (or shrinks within its class): free.
            (Some(a), Some(b)) if a == b => ptr,
            // Passthrough to passthrough: let the system resize in place.
            (None, None) => unsafe { System.realloc(ptr, layout, new_size) },
            _ => {
                let new_layout =
                    unsafe { Layout::from_size_align_unchecked(new_size, layout.align()) };
                let new_ptr = raw_alloc(new_layout);
                if !new_ptr.is_null() {
                    unsafe {
                        std::ptr::copy_nonoverlapping(ptr, new_ptr, layout.size().min(new_size));
                        raw_dealloc(ptr, layout);
                    }
                }
                new_ptr
            }
        }
    }
}

/// With the `global-alloc` feature on, every crate linking `pools` — the
/// bench bins, the workload executor, the whole test workspace — routes
/// its heap through the front-end.
#[cfg(feature = "global-alloc")]
#[global_allocator]
static GLOBAL_POOL: GlobalPool = GlobalPool;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::size_class::{CLASS_ALIGN, MAX_CLASS_BYTES};

    fn layout(size: usize, align: usize) -> Layout {
        Layout::from_size_align(size, align).unwrap()
    }

    #[test]
    fn classed_roundtrip_reuses_blocks() {
        let l = layout(48, 8);
        let a = raw_alloc(l);
        assert!(!a.is_null());
        unsafe {
            std::ptr::write_bytes(a, 0xAB, 48);
            raw_dealloc(a, l);
        }
        // LIFO thread cache: the very next same-class alloc is the block.
        // Only asserted feature-off: with the front-end installed the test
        // harness itself allocates in this class, so the list head can
        // legitimately move (or flush) between the two calls.
        let b = raw_alloc(l);
        if !installed() {
            assert_eq!(a, b, "thread-cache LIFO must hand the block back");
        }
        assert!(!b.is_null());
        unsafe { raw_dealloc(b, l) };
    }

    #[test]
    fn blocks_are_class_aligned_and_slab_stamped() {
        for &size in &[16usize, 64, 1024, 4096] {
            let l = layout(size, 16);
            let p = raw_alloc(l);
            assert!(!p.is_null());
            assert_eq!(p as usize % CLASS_ALIGN, 0, "block under-aligned for size {size}");
            let header = header_of(p);
            unsafe {
                assert_eq!((*header).magic, SLAB_MAGIC);
                assert!(class_bytes((*header).class as usize) >= size);
            }
            unsafe { raw_dealloc(p, l) };
        }
    }

    #[test]
    fn passthrough_sizes_do_not_get_slab_headers() {
        let l = layout(MAX_CLASS_BYTES + 1, 8);
        let before = stats();
        let p = raw_alloc(l);
        assert!(!p.is_null());
        unsafe { raw_dealloc(p, l) };
        let after = stats();
        // >=: sibling tests (and the installed harness) also pass through.
        assert!(after.passthrough_allocs - before.passthrough_allocs >= 1);
        assert!(after.passthrough_frees - before.passthrough_frees >= 1);
    }

    #[test]
    fn over_aligned_requests_pass_through() {
        let l = layout(64, 64);
        let before = stats();
        let p = raw_alloc(l);
        assert!(!p.is_null());
        assert_eq!(p as usize % 64, 0);
        unsafe { raw_dealloc(p, l) };
        let after = stats();
        assert!(after.passthrough_allocs - before.passthrough_allocs >= 1);
    }

    #[test]
    fn ledger_balances_over_a_burst() {
        let before = stats();
        let l = layout(96, 8);
        let mut live = Vec::new();
        for _ in 0..1000 {
            live.push(raw_alloc(l) as usize);
        }
        for p in live.drain(..).rev() {
            unsafe { raw_dealloc(p as *mut u8, l) };
        }
        let after = stats();
        // Lower bounds, not equalities: parallel tests in this binary (and,
        // with `global-alloc` on, the harness itself) share the ledger. The
        // *exact* conservation accounting lives in the dedicated
        // `global_alloc_stress` integration binary, which serializes.
        assert!(after.class_allocs - before.class_allocs >= 1000);
        assert!(after.class_frees - before.class_frees >= 1000);
        assert!(after.cache_hits > before.cache_hits, "steady-state must hit the cache");
    }

    #[test]
    fn retirement_round_trip_returns_and_recarves_slabs() {
        // A dedicated thread bursts ~13 slabs of a quiet class, frees
        // everything, and exits (flushing all blocks to shared levels).
        let l = layout(2048, 8);
        let before = stats();
        std::thread::spawn(move || {
            let mut held: Vec<usize> = (0..400).map(|_| raw_alloc(l) as usize).collect();
            assert!(held.iter().all(|&p| p != 0));
            for p in held.drain(..) {
                unsafe { raw_dealloc(p as *mut u8, l) };
            }
        })
        .join()
        .unwrap();
        let out = sweep_and_retire(0);
        assert!(out.retired_slabs >= 1, "a fully-idle burst must retire slabs: {out:?}");
        assert_eq!(out.retired_bytes, out.retired_slabs * SLAB_BYTES as u64);
        assert!(out.swept_blocks >= 400, "the burst's blocks must be in the sweep");
        let after = stats();
        assert!(
            after.reclaimed_slabs >= before.reclaimed_slabs + out.retired_slabs,
            "retirements must reach the stats ledger"
        );
        // Recarve: the next allocation in the class must be able to pull
        // a quarantined slab back and hand out a valid, writable block.
        let p = raw_alloc(l);
        assert!(!p.is_null());
        unsafe {
            std::ptr::write_bytes(p, 0xC3, 2048);
            raw_dealloc(p, l);
        }
    }

    #[test]
    fn slab_runs_split_sorted_bases_at_every_gap() {
        let runs = |bases: &[usize]| -> Vec<(usize, usize)> {
            let ptrs: Vec<*mut u8> = bases.iter().map(|&b| b as *mut u8).collect();
            slab_runs(&ptrs).map(|(first, len)| (first as usize, len)).collect()
        };
        let s = SLAB_BYTES;
        let at = |i: usize| (1 << 30) + i * s;
        assert_eq!(runs(&[]), []);
        assert_eq!(runs(&[at(3)]), [(at(3), 1)]);
        let long: Vec<usize> = (0..64).map(at).collect();
        assert_eq!(runs(&long), [(at(0), 64)]);
        assert_eq!(
            runs(&[at(0), at(1), at(3), at(5), at(6), at(7), at(9)]),
            [(at(0), 2), (at(3), 1), (at(5), 3), (at(9), 1)]
        );
        // Adjacent slabs on either side of a segment boundary are one run.
        let per_segment = SEGMENT_BYTES / s;
        let seam: Vec<usize> = (per_segment - 2..per_segment + 2).map(at).collect();
        assert_eq!(at(per_segment) % SEGMENT_BYTES, 0);
        assert_eq!(runs(&seam), [(at(per_segment - 2), 4)]);
    }

    #[test]
    fn carve_extent_covers_exactly_the_pages_a_carve_links() {
        for class in 0..NUM_CLASSES {
            let bytes = class_bytes(class);
            let nblocks = (SLAB_BYTES - HEADER_BYTES) / bytes;
            let last_link_end = HEADER_BYTES + (nblocks - 1) * bytes + 8;
            let extent = carve_extent(class);
            assert_eq!(extent % PAGE_BYTES, 0, "class {bytes}: not a page multiple");
            assert!(extent >= last_link_end, "class {bytes}: misses the last link word");
            assert!(extent - last_link_end < PAGE_BYTES, "class {bytes}: a page too many");
            assert!(extent <= SLAB_BYTES, "class {bytes}: exceeds the slab");
        }
        // 15 blocks of 4 KiB: the last link word ends in page 15, and page
        // 16 (the tail of block 14) is left for the caller to touch.
        assert_eq!(carve_extent(class_for(4096, 8).unwrap()), 15 * PAGE_BYTES);
    }

    /// A 16-byte test block. A `Vec` of them outlives every stack op in
    /// its test, standing in for type-stable slab memory.
    #[repr(C, align(16))]
    struct TestBlock([u64; 2]);

    fn test_blocks(n: usize) -> (Vec<TestBlock>, Vec<*mut u8>) {
        let mut mem: Vec<TestBlock> = (0..n).map(|_| TestBlock([0; 2])).collect();
        let ptrs = mem.iter_mut().map(|b| b as *mut TestBlock as *mut u8).collect();
        (mem, ptrs)
    }

    /// Link `blocks` in order, stamp them as one segment and push it.
    fn push_segment(stack: &BlockStack, blocks: &[*mut u8]) {
        for w in blocks.windows(2) {
            // SAFETY: the blocks are test blocks the caller holds.
            unsafe { *(w[0] as *mut *mut u8) = w[1] };
        }
        let (head, tail) = (blocks[0], blocks[blocks.len() - 1]);
        seg_stamp(head, tail, blocks.len() as u32);
        stack.push_chain(head, tail);
    }

    /// The `n` blocks of a popped segment, reached through its `n - 1`
    /// links.
    fn walk(head: *mut u8, n: usize) -> Vec<*mut u8> {
        let mut out = vec![head];
        while out.len() < n {
            out.push(next_of(out[out.len() - 1]));
        }
        out
    }

    #[test]
    fn stamped_segments_pop_whole_in_lifo_order() {
        let (_mem, b) = test_blocks(10);
        let central = Central::new();
        for seg in [&b[0..3], &b[3..4], &b[4..10]] {
            push_segment(&central.free, seg);
        }
        for want in [&b[4..10], &b[3..4], &b[0..3]] {
            let (head, tail, n) = central.free.pop_segment().expect("a stamped segment");
            assert_eq!((head, tail, n), (want[0], want[want.len() - 1], want.len()));
            assert_eq!(walk(head, n), want);
        }
        assert!(central.free.pop_segment().is_none());

        // The DEAD path serves a segment's head and pushes the rest back
        // as one segment, re-stamped from its new head.
        push_segment(&central.free, &b[0..5]);
        let (head, tail, n) = central.free.pop_segment().unwrap();
        assert_eq!(serve_head(&central, head, tail, n), b[0]);
        assert_eq!(central.len(), 4);
        let (head, tail, n) = central.free.pop_segment().expect("the remainder went back");
        assert_eq!((head, tail, n), (b[1], b[4], 4));
        assert_eq!(walk(head, n), &b[1..5]);
        push_segment(&central.free, &b[5..6]);
        let (head, tail, n) = central.free.pop_segment().unwrap();
        assert_eq!(serve_head(&central, head, tail, n), b[5]);
        assert!(central.free.pop_segment().is_none(), "a one-block segment leaves nothing");
    }

    #[test]
    fn one_block_segments_pop_in_lifo_order_until_empty() {
        // One-block segments alone, as the typed depot's nodes use the
        // stack: each pops on its own, newest first.
        let (_mem, b) = test_blocks(3);
        let stack = BlockStack::new();
        assert!(stack.is_empty_hint() && stack.pop_segment().is_none());
        for &block in &b[0..3] {
            stack.push_block(block);
        }
        assert!(!stack.is_empty_hint());
        for &want in b[0..3].iter().rev() {
            assert_eq!(stack.pop_segment(), Some((want, want, 1)));
        }
        assert!(stack.is_empty_hint() && stack.pop_segment().is_none());
    }

    #[test]
    fn a_wrapped_central_count_reads_as_zero() {
        let central = Central::new();
        central.free_len.store(3, Ordering::Relaxed);
        assert_eq!(central.len(), 3);
        // A pop's `fetch_sub` lands before the push's `fetch_add`.
        central.free_len.fetch_sub(5, Ordering::Relaxed);
        assert_eq!(central.len(), 0);
        central.free_len.fetch_add(5, Ordering::Relaxed);
        assert_eq!(central.len(), 3);
    }

    #[test]
    fn segment_stack_hands_out_every_block_exactly_once_under_contention() {
        // Segments of up to 64 blocks, as the engine's central stacks hold.
        hand_out_exactly_once_under_contention(64);
    }

    #[test]
    fn one_block_segments_hand_out_every_block_exactly_once_under_contention() {
        // One-block segments alone, as the typed depot's nodes.
        hand_out_exactly_once_under_contention(1);
    }

    fn hand_out_exactly_once_under_contention(max_seg: usize) {
        // Four threads push random-size stamped segments (at most
        // `max_seg` blocks) of the blocks they hold and pop whatever is on
        // top, keeping what they pop for later pushes, so blocks recycle
        // through every thread (the ABA pattern the tag defeats). A bit
        // per block marks it as on the stack: set before its push,
        // cleared by the pop that takes it, so a block handed out twice
        // trips at once. Popped blocks are scribbled over like user data,
        // so a pop that trusted a stale stamp would chase a wild tail.
        const THREADS: usize = 4;
        const PER_THREAD: usize = 4096;
        const STEPS: usize = 50_000;
        let (_mem, blocks) = test_blocks(THREADS * PER_THREAD);
        // Addresses, not pointers, cross into the threads.
        let base = blocks[0] as usize;
        let stack = BlockStack::new();
        let on_stack: Vec<AtomicU64> =
            (0..(THREADS * PER_THREAD).div_ceil(64)).map(|_| AtomicU64::new(0)).collect();
        let flip = |p: *mut u8, onto: bool| {
            let i = (p as usize - base) / 16;
            let bit = 1u64 << (i % 64);
            let prev = if onto {
                on_stack[i / 64].fetch_or(bit, Ordering::Relaxed)
            } else {
                on_stack[i / 64].fetch_and(!bit, Ordering::Relaxed)
            };
            assert_eq!(prev & bit == 0, onto, "block {i} handed out twice");
        };
        let take = |held: &mut Vec<*mut u8>, (head, tail, n): (*mut u8, *mut u8, usize)| {
            let segment = walk(head, n);
            assert_eq!(segment[n - 1], tail, "a segment's links must end at its stamped tail");
            for &p in &segment {
                flip(p, false);
                for word in 0..2 {
                    // SAFETY: the pop handed this 16-byte block to us.
                    unsafe { &*(p.add(8 * word) as *const AtomicU64) }
                        .store(!0 << 4, Ordering::Relaxed);
                }
            }
            held.extend(segment);
        };
        let start = std::sync::Barrier::new(THREADS);
        let held_at_end: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (stack, flip, take, start) = (&stack, &flip, &take, &start);
                    s.spawn(move || {
                        let mut held: Vec<*mut u8> = (t * PER_THREAD..(t + 1) * PER_THREAD)
                            .map(|i| (base + i * 16) as *mut u8)
                            .collect();
                        let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                        start.wait();
                        for _ in 0..STEPS {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if !held.is_empty() && rng & 1 == 0 {
                                let n = (1 + (rng >> 8) as usize % max_seg).min(held.len());
                                let segment = held.split_off(held.len() - n);
                                for &p in &segment {
                                    flip(p, true);
                                }
                                push_segment(stack, &segment);
                            } else if let Some(popped) = stack.pop_segment() {
                                take(&mut held, popped);
                            }
                        }
                        held.len()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let mut drained = Vec::new();
        while let Some(popped) = stack.pop_segment() {
            take(&mut drained, popped);
        }
        assert_eq!(held_at_end + drained.len(), THREADS * PER_THREAD, "every block must come out");
        assert!(on_stack.iter().all(|w| w.load(Ordering::Relaxed) == 0));
    }

    #[test]
    fn flushed_surplus_comes_back_as_whole_segments() {
        // Freeing far past the magazine cap makes `flush_surplus` cut
        // stamped segments; allocating them all back makes refills pop
        // them, and debug builds walk each adopted segment against its
        // stamp. Carve remainders take the same road on the first round.
        let l = layout(640, 8);
        std::thread::spawn(move || {
            for _ in 0..3 {
                let held: Vec<usize> = (0..600).map(|_| raw_alloc(l) as usize).collect();
                assert!(held.iter().all(|&p| p != 0));
                for &p in &held {
                    unsafe { raw_dealloc(p as *mut u8, l) };
                }
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn the_retired_remote_fields_read_zero() {
        // Blocks freed by a thread that did not allocate them, and by a
        // thread with no cache (feature-off, a thread that never allocates
        // a classed block has none), all end on central stacks: nothing
        // counts as remote.
        let l = layout(80, 8);
        let blocks: Vec<usize> =
            std::thread::spawn(move || (0..300).map(|_| raw_alloc(l) as usize).collect())
                .join()
                .unwrap();
        let (cross, cacheless) = blocks.split_at(200);
        for &p in cross {
            unsafe { raw_dealloc(p as *mut u8, l) };
        }
        let cacheless = cacheless.to_vec();
        std::thread::spawn(move || {
            for p in cacheless {
                unsafe { raw_dealloc(p as *mut u8, l) };
            }
        })
        .join()
        .unwrap();
        flush_thread_cache();
        let s = stats();
        assert_eq!((s.remote_frees, s.remote_drained, s.remote_pending), (0, 0, 0), "{s:?}");
    }

    #[test]
    fn realloc_within_a_class_is_identity() {
        let pool = GlobalPool;
        let l = layout(100, 8);
        unsafe {
            let p = pool.alloc(l);
            // 100 and 112 both land in the 112-byte class.
            let q = pool.realloc(p, l, 112);
            assert_eq!(p, q);
            pool.dealloc(q, layout(112, 8));
        }
    }

    #[test]
    fn realloc_across_the_passthrough_boundary_copies() {
        let pool = GlobalPool;
        let l = layout(64, 8);
        unsafe {
            let p = pool.alloc(l);
            std::ptr::write_bytes(p, 0x5A, 64);
            let q = pool.realloc(p, l, MAX_CLASS_BYTES + 64);
            assert!(!q.is_null());
            for i in 0..64 {
                assert_eq!(*q.add(i), 0x5A, "byte {i} lost in class->passthrough realloc");
            }
            pool.dealloc(q, layout(MAX_CLASS_BYTES + 64, 8));
        }
    }
}
