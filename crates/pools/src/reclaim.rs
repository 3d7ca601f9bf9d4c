//! Watermark-driven RSS reclamation policy over the slab-retirement
//! mechanism in [`crate::global`] (ROADMAP item 2; DESIGN.md §13).
//!
//! The mechanism — [`crate::global::sweep_and_retire`] — is a single
//! pass: drain the shared levels, retire every fully-idle slab down to a
//! mapped-bytes target, release the pages with `madvise(MADV_DONTNEED)`,
//! quarantine the slabs for recarving. This module decides *when* and
//! *how far*:
//!
//! * [`reclaim`] runs passes until the target is met or progress stops —
//!   a pass bumps the cache-flush epoch, so blocks parked in other
//!   threads' caches surface one pass later, and a short pass loop is
//!   what converges on them;
//! * [`reclaim_all`] retires everything idle, and [`totals`] reports the
//!   process-wide retire/recarve ledger.
//!
//! Everything here runs in ordinary (non-allocator) context; nothing is
//! called from alloc/dealloc paths.

use crate::global;
use crate::heap_profile;

/// How many consecutive sweep passes [`reclaim`] chains before giving
/// up on a still-unmet target. Two is the epoch horizon: pass 1 flushes
/// the caller and signals every other thread, pass 2 (and 3) sweep what
/// they released at their next cold point.
const MAX_PASSES: usize = 3;

/// What a [`reclaim`] call accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Total mapped slab bytes before the first and after the last pass.
    pub mapped_before_bytes: u64,
    pub mapped_after_bytes: u64,
    /// Sweep passes actually run (stops early once the target is met or
    /// a pass makes no progress).
    pub passes: u64,
    /// Blocks drained through the sweeps (survivors were pushed back).
    pub swept_blocks: u64,
    /// Slabs retired and the bytes their pages returned to the OS.
    pub reclaimed_slabs: u64,
    pub reclaimed_bytes: u64,
    /// Retired slabs whose pages the kernel confirmed dropping (equals
    /// `reclaimed_slabs` on Linux/x86-64; 0 where `madvise` is stubbed).
    pub advised_slabs: u64,
}

fn mapped_bytes_now() -> u64 {
    heap_profile::gauges().total_mapped_bytes()
}

/// Trim mapped slab memory down toward `watermark_bytes` (0 = retire
/// everything idle). Runs up to [`MAX_PASSES`] sweep passes, stopping
/// early once the watermark is met or a pass retires nothing.
pub fn reclaim(watermark_bytes: u64) -> ReclaimStats {
    let mut stats =
        ReclaimStats { mapped_before_bytes: mapped_bytes_now(), ..ReclaimStats::default() };
    for _ in 0..MAX_PASSES {
        if mapped_bytes_now() <= watermark_bytes {
            break;
        }
        let out = global::sweep_and_retire(watermark_bytes);
        stats.passes += 1;
        stats.swept_blocks += out.swept_blocks;
        stats.reclaimed_slabs += out.retired_slabs;
        stats.reclaimed_bytes += out.retired_bytes;
        stats.advised_slabs += out.advised_slabs;
        if out.retired_slabs == 0 {
            break;
        }
    }
    stats.mapped_after_bytes = mapped_bytes_now();
    stats
}

/// [`reclaim`] with a zero watermark: retire every slab that is fully
/// idle right now.
pub fn reclaim_all() -> ReclaimStats {
    reclaim(0)
}

/// Cumulative process-lifetime retirement totals, independent of any
/// particular [`reclaim`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReclaimTotals {
    pub reclaimed_slabs: u64,
    pub reclaimed_bytes: u64,
    pub recarved_slabs: u64,
    pub advised_slabs: u64,
    /// Retired slabs currently parked in the quarantine pool.
    pub quarantined_slabs: u64,
}

/// Snapshot the cumulative totals.
pub fn totals() -> ReclaimTotals {
    let (reclaimed_slabs, reclaimed_bytes, recarved_slabs, advised_slabs) =
        global::reclaim_totals();
    ReclaimTotals {
        reclaimed_slabs,
        reclaimed_bytes,
        recarved_slabs,
        advised_slabs,
        quarantined_slabs: global::retired_pool_len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    #[test]
    fn reclaim_trims_an_idle_burst_and_reports_totals() {
        let l = Layout::from_size_align(1024, 8).unwrap();
        std::thread::spawn(move || {
            let held: Vec<usize> = (0..512).map(|_| global::raw_alloc(l) as usize).collect();
            assert!(held.iter().all(|&p| p != 0));
            for p in held {
                unsafe { global::raw_dealloc(p as *mut u8, l) };
            }
        })
        .join()
        .unwrap();
        let before = totals();
        let stats = reclaim_all();
        assert!(stats.passes >= 1);
        assert!(
            stats.reclaimed_slabs >= 1,
            "an idle 512-block burst must retire at least one slab: {stats:?}"
        );
        assert_eq!(stats.reclaimed_bytes, stats.reclaimed_slabs * 64 * 1024);
        assert!(stats.mapped_after_bytes <= stats.mapped_before_bytes);
        let after = totals();
        assert!(after.reclaimed_slabs >= before.reclaimed_slabs + stats.reclaimed_slabs);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(stats.advised_slabs, stats.reclaimed_slabs, "madvise must succeed on Linux");
    }

    #[test]
    fn reclaim_respects_the_watermark_floor() {
        // A watermark above everything currently mapped must retire
        // nothing, however idle the heap is.
        let stats = reclaim(u64::MAX);
        assert_eq!(stats.reclaimed_slabs, 0);
        assert_eq!(stats.passes, 0);
    }
}
