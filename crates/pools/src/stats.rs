//! Lock-free counters shared by all pool kinds. They are always on;
//! reports read them through [`StatsSnapshot`].

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Counters describing a pool's behaviour. All methods use relaxed atomics —
/// these are statistics, not synchronization.
///
/// The distinction that matters for the paper's evaluation:
///
/// * `pool_hits` — allocations served from the free list (a reused object or
///   structure; no heap traffic);
/// * `fresh_allocs` — allocations that had to fall through to the heap
///   (pool empty, or the parked memory was unusable);
/// * `failed_locks` — try-lock failures; the paper monitors exactly this to
///   argue Amplify's critical sections are short (§5.1).
///
/// Two more figures, read through [`StatsSnapshot`], serve callers that
/// account in bytes (the `mem-api` backends): `frees` counts every release
/// call exactly once, and `live_bytes` is a net ledger of the byte counts
/// callers pass to the sized acquire/release entry points.
#[derive(Debug, Default)]
pub(crate) struct PoolStats {
    pool_hits: AtomicU64,
    fresh_allocs: AtomicU64,
    releases: AtomicU64,
    dropped: AtomicU64,
    /// Objects the population cap turned away at release time (a subset of
    /// `dropped`; the rest are dropped later, by a batch flush).
    refused: AtomicU64,
    /// Net bytes handed out: sized acquires add, sized releases subtract.
    net_bytes: AtomicI64,
    failed_locks: AtomicU64,
    lock_acquisitions: AtomicU64,
    depot_swaps: AtomicU64,
    depot_parks: AtomicU64,
    fallback_allocs: AtomicU64,
}

impl PoolStats {
    /// New zeroed stats.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub(crate) fn record_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Fold a retiring magazine's locally-counted hits, releases, net
    /// bytes and depot exchanges into the shared counters (see
    /// `magazine::MagCells`).
    pub(crate) fn fold_magazine_counts(
        &self,
        hits: u64,
        releases: u64,
        bytes: i64,
        swaps: u64,
        parks: u64,
    ) {
        self.pool_hits.fetch_add(hits, Ordering::Relaxed);
        self.net_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.releases.fetch_add(releases, Ordering::Relaxed);
        self.depot_swaps.fetch_add(swaps, Ordering::Relaxed);
        self.depot_parks.fetch_add(parks, Ordering::Relaxed);
    }

    /// Move the net byte ledger by `delta` (the cold paths' one relaxed
    /// RMW; the magazine hit path keeps its own owner-written cell).
    /// Record an acquire's bytes *after* its hit/fresh count and a
    /// release's bytes *before* its release count: [`PoolStats::snapshot`]
    /// reads frees, then bytes, then allocations, and this order keeps
    /// `live_bytes ≤ (allocs − frees) × size` true for a concurrent reader.
    #[inline]
    pub(crate) fn add_live_bytes(&self, delta: i64) {
        if delta != 0 {
            self.net_bytes.fetch_add(delta, Ordering::Relaxed);
        }
    }

    #[inline]
    pub(crate) fn record_fresh(&self) {
        self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_release(&self) {
        self.releases.fetch_add(1, Ordering::Relaxed);
    }

    /// A release the population cap turned away: the object is dropped
    /// instead of parked, and the release call still counts as a free.
    #[inline]
    pub(crate) fn record_refused(&self) {
        self.refused.fetch_add(1, Ordering::Relaxed);
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_dropped_many(&self, n: u64) {
        self.dropped.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_failed_lock(&self) {
        self.failed_locks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_lock(&self) {
        self.lock_acquisitions.fetch_add(1, Ordering::Relaxed);
    }

    /// An acquire degraded gracefully to a fresh slot past every cache (injected
    /// allocation failure — see [`crate::fault`]). Counted *in addition to*
    /// [`PoolStats::record_fresh`], so `pool_hits + fresh_allocs` still
    /// equals total allocation requests under any fault schedule.
    #[inline]
    pub(crate) fn record_fallback(&self) {
        self.fallback_allocs.fetch_add(1, Ordering::Relaxed);
    }

    /// Allocations served by reuse from the free list.
    pub(crate) fn pool_hits(&self) -> u64 {
        self.pool_hits.load(Ordering::Relaxed)
    }

    /// Allocations that fell through to the underlying allocator.
    pub(crate) fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs.load(Ordering::Relaxed)
    }

    /// Objects returned to the pool.
    pub(crate) fn releases(&self) -> u64 {
        self.releases.load(Ordering::Relaxed)
    }

    /// Objects the pool refused to keep (capacity/size caps) and dropped.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// try-lock attempts that found the lock held.
    pub(crate) fn failed_locks(&self) -> u64 {
        self.failed_locks.load(Ordering::Relaxed)
    }

    /// Successful lock acquisitions.
    pub(crate) fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions.load(Ordering::Relaxed)
    }

    /// Full magazines swapped in from the depot (O(1) cold refills).
    pub(crate) fn depot_swaps(&self) -> u64 {
        self.depot_swaps.load(Ordering::Relaxed)
    }

    /// Full magazines parked on the depot (O(1) overflow flushes).
    pub(crate) fn depot_parks(&self) -> u64 {
        self.depot_parks.load(Ordering::Relaxed)
    }

    /// Acquires that skipped every cache for a fresh slot under injected
    /// allocation failure (a subset of [`PoolStats::fresh_allocs`]; always
    /// 0 without the `fault-inject` feature).
    pub(crate) fn fallback_allocs(&self) -> u64 {
        self.fallback_allocs.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of [`PoolStats`].
///
/// Fields are private on purpose: every pool kind (local, sharded,
/// magazine-fronted) exposes the **same method-based surface** as
/// [`PoolStats`] itself, so call sites never depend on which pool layout
/// produced the numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pool_hits: u64,
    fresh_allocs: u64,
    releases: u64,
    dropped: u64,
    refused: u64,
    net_bytes: i64,
    failed_locks: u64,
    lock_acquisitions: u64,
    depot_swaps: u64,
    depot_parks: u64,
    fallback_allocs: u64,
}

// The loads of a snapshot are not one atomic cut, so an aggregate reads
// every source in three phases: frees, then net bytes, then allocations.
// A release always follows its acquire, and each ledger update is ordered
// after its acquire's count and before its release's count (see
// `PoolStats::add_live_bytes`), so this order keeps `frees ≤ allocs +
// in-flight` and `live_bytes ≤ (allocs − frees + in-flight) × size` true
// for any concurrent observer (asserted by the snapshot-consistency
// integration tests).
impl StatsSnapshot {
    /// Phase 1: the free-side counters of `p`.
    pub(crate) fn add_frees_of(&mut self, p: &PoolStats) {
        self.releases += p.releases();
        self.refused += p.refused.load(Ordering::Relaxed);
    }

    /// Phase 2: the net byte ledger of `p`.
    pub(crate) fn add_bytes_of(&mut self, p: &PoolStats) {
        self.net_bytes += p.net_bytes.load(Ordering::Relaxed);
    }

    /// Phase 3: the allocation side and everything else of `p`.
    pub(crate) fn add_allocs_of(&mut self, p: &PoolStats) {
        self.pool_hits += p.pool_hits();
        self.fresh_allocs += p.fresh_allocs();
        self.dropped += p.dropped();
        self.failed_locks += p.failed_locks();
        self.lock_acquisitions += p.lock_acquisitions();
        self.depot_swaps += p.depot_swaps();
        self.depot_parks += p.depot_parks();
        self.fallback_allocs += p.fallback_allocs();
    }

    /// Add the counts still held in live magazines' cells (published via
    /// `magazine::MagCells`, not yet folded into the shared
    /// [`PoolStats`]); the caller loads them in the three-phase order.
    pub(crate) fn add_magazine_counts(
        &mut self,
        hits: u64,
        releases: u64,
        bytes: i64,
        swaps: u64,
        parks: u64,
    ) {
        self.pool_hits += hits;
        self.releases += releases;
        self.net_bytes += bytes;
        self.depot_swaps += swaps;
        self.depot_parks += parks;
    }

    /// Allocations served by reuse (method form, mirroring [`PoolStats`]).
    pub fn pool_hits(&self) -> u64 {
        self.pool_hits
    }

    /// Allocations that fell through to the underlying allocator.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Objects returned to the pool.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Objects the pool refused to keep and dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Release calls, each counted once: the parked ones (`releases`) plus
    /// those the cap turned away on the spot. An object a magazine accepted
    /// and a later batch flush dropped counts once, as a release.
    pub fn frees(&self) -> u64 {
        self.releases + self.refused
    }

    /// Net bytes handed out through the sized entry points. Exact at
    /// quiescent points; a concurrent read can sum below zero (a free seen
    /// before its remote alloc), which clamps to 0 rather than wrapping.
    pub fn live_bytes(&self) -> u64 {
        self.net_bytes.max(0) as u64
    }

    /// try-lock attempts that found the lock held.
    pub fn failed_locks(&self) -> u64 {
        self.failed_locks
    }

    /// Successful lock acquisitions.
    pub fn lock_acquisitions(&self) -> u64 {
        self.lock_acquisitions
    }

    /// Full magazines swapped in from the depot.
    pub fn depot_swaps(&self) -> u64 {
        self.depot_swaps
    }

    /// Full magazines parked on the depot.
    pub fn depot_parks(&self) -> u64 {
        self.depot_parks
    }

    /// Acquires that skipped every cache for a fresh slot under injected
    /// allocation failure (a subset of `fresh_allocs`).
    pub fn fallback_allocs(&self) -> u64 {
        self.fallback_allocs
    }

    /// Total allocation requests (hits + fresh).
    pub fn total_allocs(&self) -> u64 {
        self.pool_hits + self.fresh_allocs
    }

    /// Merge another snapshot into this one (for aggregating shards).
    pub(crate) fn merge(&mut self, other: &StatsSnapshot) {
        self.pool_hits += other.pool_hits;
        self.fresh_allocs += other.fresh_allocs;
        self.releases += other.releases;
        self.dropped += other.dropped;
        self.refused += other.refused;
        self.net_bytes += other.net_bytes;
        self.failed_locks += other.failed_locks;
        self.lock_acquisitions += other.lock_acquisitions;
        self.depot_swaps += other.depot_swaps;
        self.depot_parks += other.depot_parks;
        self.fallback_allocs += other.fallback_allocs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = PoolStats::new();
        s.record_hit();
        s.record_hit();
        s.record_fresh();
        s.record_release();
        s.record_failed_lock();
        assert_eq!(s.pool_hits(), 2);
        assert_eq!(s.fresh_allocs(), 1);
        assert_eq!(s.releases(), 1);
        assert_eq!(s.failed_locks(), 1);
    }

    #[test]
    fn snapshot_merge() {
        let a = StatsSnapshot { pool_hits: 1, fresh_allocs: 2, ..Default::default() };
        let mut b = StatsSnapshot { pool_hits: 10, dropped: 3, ..Default::default() };
        b.merge(&a);
        assert_eq!(b.pool_hits, 11);
        assert_eq!(b.fresh_allocs, 2);
        assert_eq!(b.dropped, 3);
    }
}
