//! Heap-profiling observability for the size-class front-end: per-class
//! occupancy gauges, a sampled allocation-site profiler, and a time-series
//! snapshot ring — the measured input that Mesh-style reclamation and
//! profile-guided tuning (ROADMAP items 2 and 4) consume.
//!
//! Three pieces, all built on the front-end's owner-only counters so the
//! alloc/dealloc fast paths stay free of locked RMWs:
//!
//! * **Gauges** ([`gauges`]): per-size-class mapped bytes, live bytes,
//!   peak watermark, parked-magazine bytes (thread caches, central
//!   stacks, remote queues) and the fault-fallback residue. Collected by
//!   the two-pass fold in `pools::global` (DESIGN.md §9), which
//!   guarantees `live_bytes <= mapped_bytes` in every snapshot and
//!   exactness at quiescence.
//! * **Site sampler**: every thread keeps a per-class countdown; each
//!   [`sample_period`]-th classed allocation in a class is counted in the
//!   thread's table for that class, and the tables sum per class across
//!   threads. A report's site table has one row per sampled
//!   class (its wire `tag` field reads `"untagged"`). Determinism: with
//!   the period set before a workload starts, a thread's sample set is a
//!   pure function of its own allocation sequence (countdowns are
//!   per-thread, never shared).
//! * **Snapshot ring** ([`capture_snapshot`]): a fixed static ring of
//!   gauge snapshots (no allocation while holding its lock), rendered as
//!   the occupancy-over-time timeline in the `heap-profile-v1` telemetry
//!   section.
//!
//! Everything here is collection-side and may be called from normal code
//! (bench drivers, sampler threads). Nothing in this module is called on
//! allocator hot paths except [`sample_period`], reached only through the
//! countdown's cold tick.

use crate::global::{self, Spin};
use crate::size_class::{class_bytes, NUM_CLASSES};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Snapshot-ring capacity: old entries are overwritten once the ring is
/// full, so the timeline always covers the most recent captures.
pub(crate) const SNAPSHOT_RING: usize = 64;

// ---------------------------------------------------------------- sampling

/// 1-in-N sample period; 0 = profiler disabled (the compiled-in-but-idle
/// state the envelope gates measure).
static SAMPLE_PERIOD: AtomicU32 = AtomicU32::new(0);

/// Set the allocation-site sample period: every `period`-th classed
/// allocation per (thread, class) is sampled; 0 disables. Threads notice
/// a change within one countdown window (at most 512 allocs per class
/// while disabled, one period while enabled) — for deterministic sample
/// sets, set the period *before* the measured workload starts.
pub fn set_sample_period(period: u32) {
    SAMPLE_PERIOD.store(period, Ordering::Relaxed);
}

/// The current sample period (0 = disabled).
pub fn sample_period() -> u32 {
    SAMPLE_PERIOD.load(Ordering::Relaxed)
}

// Folded sample aggregates: exited threads' tables land here (from the
// front-end's teardown fold); live tables are summed in place at
// collection time.
static FOLDED_SITES: [AtomicU64; NUM_CLASSES] = [const { AtomicU64::new(0) }; NUM_CLASSES];

/// Fold an exiting thread's sample table (called by the front-end's
/// teardown, under the registry hold).
pub(crate) fn fold_thread_samples(samples: &[AtomicU32; NUM_CLASSES]) {
    for (folded, cell) in FOLDED_SITES.iter().zip(samples) {
        let n = cell.load(Ordering::Relaxed) as u64;
        if n > 0 {
            folded.fetch_add(n, Ordering::Release);
        }
    }
}

/// One aggregated allocation-site row: the samples taken in one size
/// class, with the byte estimate implied by the sample period at
/// collection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteSample {
    pub class: usize,
    pub block_bytes: usize,
    pub samples: u64,
    /// `samples * period * block_bytes`: the allocation volume this site
    /// represents (an *allocation-rate* estimate, not a live-set one).
    pub est_bytes: u64,
}

/// Aggregate sampled sites (folded + live threads), non-zero classes only,
/// sorted most-sampled first. `period` scaling uses the current period.
pub fn site_samples() -> Vec<SiteSample> {
    let mut sites = [0u64; NUM_CLASSES];
    for (site, cell) in sites.iter_mut().zip(&FOLDED_SITES) {
        *site = cell.load(Ordering::Acquire);
    }
    global::collect_live_samples(&mut sites);
    let period = sample_period().max(1) as u64;
    let mut out: Vec<SiteSample> = (0..NUM_CLASSES)
        .filter(|&class| sites[class] > 0)
        .map(|class| SiteSample {
            class,
            block_bytes: class_bytes(class),
            samples: sites[class],
            est_bytes: sites[class] * period * class_bytes(class) as u64,
        })
        .collect();
    out.sort_by(|a, b| b.samples.cmp(&a.samples).then(a.class.cmp(&b.class)));
    out
}

// ----------------------------------------------------------------- gauges

/// Point-in-time gauges for one size class, in bytes (block counts are
/// scaled by the class's block size; slab headers count toward mapped
/// bytes only through the slab's fixed 64 KiB footprint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassGauges {
    pub class: usize,
    pub block_bytes: usize,
    pub(crate) mapped_slabs: u64,
    pub mapped_bytes: u64,
    pub(crate) live_blocks: u64,
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`: `fetch_max`ed at every collection
    /// instant *and* fed by owner-folded per-thread net-live peaks
    /// observed at magazine-refill boundaries, so inter-snapshot bursts
    /// are captured too (lag bounded by one refill batch; clamped to
    /// mapped bytes, since non-simultaneous per-thread peaks must not
    /// imply more memory than was ever mapped).
    pub peak_live_bytes: u64,
    /// Blocks parked in thread-cache magazines.
    pub parked_cache_bytes: u64,
    /// Blocks parked on central free stacks.
    pub parked_central_bytes: u64,
    /// Blocks pending on remote-free queues.
    pub parked_remote_bytes: u64,
    /// Outstanding fault-fallback bytes (outside `mapped`/`live`).
    pub fallback_bytes: u64,
}

/// A full gauge sweep: one entry per size class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapGauges {
    pub classes: [ClassGauges; NUM_CLASSES],
}

impl HeapGauges {
    pub fn total_mapped_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.mapped_bytes).sum()
    }

    pub fn total_live_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.live_bytes).sum()
    }

    pub(crate) fn total_parked_bytes(&self) -> u64 {
        self.classes
            .iter()
            .map(|c| c.parked_cache_bytes + c.parked_central_bytes + c.parked_remote_bytes)
            .sum()
    }

    pub(crate) fn total_fallback_bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.fallback_bytes).sum()
    }
}

/// Collect the per-class gauges now (and fold the peak watermark). Safe
/// from any non-allocator context; never called on allocator paths.
pub fn gauges() -> HeapGauges {
    let raw = global::collect_raw_gauges();
    let mut classes = [ClassGauges::default(); NUM_CLASSES];
    for (class, out) in classes.iter_mut().enumerate() {
        let bytes = class_bytes(class) as u64;
        let live_blocks = raw.allocs[class].saturating_sub(raw.frees[class]);
        *out = ClassGauges {
            class,
            block_bytes: bytes as usize,
            mapped_slabs: raw.mapped_slabs[class],
            mapped_bytes: raw.mapped_slabs[class] * crate::global::SLAB_BYTES as u64,
            live_blocks,
            live_bytes: live_blocks * bytes,
            peak_live_bytes: raw.peak_live_bytes[class],
            parked_cache_bytes: raw.cache_parked[class] * bytes,
            parked_central_bytes: raw.central_parked[class] * bytes,
            parked_remote_bytes: raw.remote_pending[class] * bytes,
            fallback_bytes: raw.fallback_blocks[class] * bytes,
        };
    }
    HeapGauges { classes }
}

// ------------------------------------------------------------------- ring

/// One timeline point: per-class live/mapped plus scalar totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotone capture sequence number (process-wide).
    pub seq: u64,
    pub mapped_bytes: u64,
    pub live_bytes: u64,
    pub(crate) parked_bytes: u64,
    pub(crate) fallback_bytes: u64,
    pub(crate) class_live_bytes: [u64; NUM_CLASSES],
    pub(crate) class_mapped_bytes: [u64; NUM_CLASSES],
}

const ZERO_SNAPSHOT: Snapshot = Snapshot {
    seq: 0,
    mapped_bytes: 0,
    live_bytes: 0,
    parked_bytes: 0,
    fallback_bytes: 0,
    class_live_bytes: [0; NUM_CLASSES],
    class_mapped_bytes: [0; NUM_CLASSES],
};

struct Ring {
    lock: Spin,
    data: UnsafeCell<RingData>,
}

// SAFETY: `data` is only touched under `lock`.
unsafe impl Sync for Ring {}

struct RingData {
    len: usize,
    next: usize,
    seq: u64,
    entries: [Snapshot; SNAPSHOT_RING],
}

static RING: Ring = Ring {
    lock: Spin::new(),
    data: UnsafeCell::new(RingData {
        len: 0,
        next: 0,
        seq: 0,
        entries: [ZERO_SNAPSHOT; SNAPSHOT_RING],
    }),
};

/// Collect the gauges and append them to the snapshot ring. Returns the
/// capture's sequence number. The gauge sweep happens before the ring
/// lock is taken; nothing allocates under either lock.
pub fn capture_snapshot() -> u64 {
    let g = gauges();
    let mut snap = ZERO_SNAPSHOT;
    snap.mapped_bytes = g.total_mapped_bytes();
    snap.live_bytes = g.total_live_bytes();
    snap.parked_bytes = g.total_parked_bytes();
    snap.fallback_bytes = g.total_fallback_bytes();
    for (class, cg) in g.classes.iter().enumerate() {
        snap.class_live_bytes[class] = cg.live_bytes;
        snap.class_mapped_bytes[class] = cg.mapped_bytes;
    }
    let _g = RING.lock.lock();
    // SAFETY: RING.lock is held.
    let data = unsafe { &mut *RING.data.get() };
    data.seq += 1;
    snap.seq = data.seq;
    data.entries[data.next] = snap;
    data.next = (data.next + 1) % SNAPSHOT_RING;
    if data.len < SNAPSHOT_RING {
        data.len += 1;
    }
    snap.seq
}

/// The ring's snapshots, oldest first (at most `SNAPSHOT_RING`).
pub fn snapshots() -> Vec<Snapshot> {
    let _g = RING.lock.lock();
    // SAFETY: RING.lock is held.
    let data = unsafe { &*RING.data.get() };
    let mut out = Vec::with_capacity(data.len);
    let start = (data.next + SNAPSHOT_RING - data.len) % SNAPSHOT_RING;
    for i in 0..data.len {
        out.push(data.entries[(start + i) % SNAPSHOT_RING]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::Layout;

    #[test]
    fn gauges_hold_the_occupancy_invariant() {
        // Drive some classed traffic, then check every class's bound.
        let l = Layout::from_size_align(64, 8).unwrap();
        let blocks: Vec<*mut u8> = (0..512).map(|_| crate::global::raw_alloc(l)).collect();
        let g = gauges();
        for c in &g.classes {
            assert!(
                c.live_bytes <= c.mapped_bytes,
                "class {} live {} > mapped {}",
                c.class,
                c.live_bytes,
                c.mapped_bytes
            );
            assert!(c.peak_live_bytes >= c.live_bytes, "peak below current live");
        }
        assert!(g.total_mapped_bytes() > 0, "512 allocs must map at least one slab");
        for p in blocks {
            unsafe { crate::global::raw_dealloc(p, l) };
        }
    }

    #[test]
    fn peak_live_captures_inter_snapshot_bursts() {
        // Regression (ISSUE 10 satellite): peaks used to be `fetch_max`ed
        // only at collection instants, so a burst that lived and died
        // entirely between two collections was invisible — and under-read
        // peaks corrupt the reclamation ratio the RSS bench asserts.
        // Burst on a fresh thread with no collection while it is live,
        // free everything, exit: the owner-folded per-thread high-water
        // mark must still surface through the teardown fold.
        let l = Layout::from_size_align(512, 8).unwrap();
        const BLOCKS: usize = 4096; // ~2 MiB live at the burst peak
        std::thread::spawn(move || {
            let held: Vec<*mut u8> = (0..BLOCKS).map(|_| crate::global::raw_alloc(l)).collect();
            assert!(held.iter().all(|p| !p.is_null()));
            for p in held {
                unsafe { crate::global::raw_dealloc(p, l) };
            }
        })
        .join()
        .unwrap();
        let g = gauges();
        let c = g.classes.iter().find(|c| c.block_bytes == 512).expect("512-byte class");
        // The high-water mark lags by at most a couple of refill batches
        // (observed at cold refill points, not per alloc).
        let floor = ((BLOCKS - 128) * 512) as u64;
        assert!(
            c.peak_live_bytes >= floor,
            "peak {} must cover the {BLOCKS}-block inter-snapshot burst (floor {floor})",
            c.peak_live_bytes
        );
    }

    #[test]
    fn ring_keeps_the_latest_in_order() {
        let first = capture_snapshot();
        let second = capture_snapshot();
        assert_eq!(second, first + 1);
        let snaps = snapshots();
        assert!(snaps.len() >= 2);
        for w in snaps.windows(2) {
            assert!(w[1].seq > w[0].seq, "ring must stay ordered");
        }
        assert_eq!(snaps.last().unwrap().seq, second);
    }

    #[test]
    fn sampling_attributes_to_class_and_thread() {
        // A fresh thread gets a fresh countdown; enable before it runs so
        // its sample set is deterministic (tick on alloc 1, 1+p, ...). No
        // other unit test allocates from the 256-byte class, typed-pool
        // slots included.
        let before: u64 =
            site_samples().iter().filter(|s| s.block_bytes == 256).map(|s| s.samples).sum();
        set_sample_period(16);
        std::thread::spawn(move || {
            let l = Layout::from_size_align(256, 8).unwrap();
            for _ in 0..160 {
                let p = crate::global::raw_alloc(l);
                assert!(!p.is_null());
                unsafe { crate::global::raw_dealloc(p, l) };
            }
        })
        .join()
        .unwrap();
        set_sample_period(0);
        let after: u64 =
            site_samples().iter().filter(|s| s.block_bytes == 256).map(|s| s.samples).sum();
        // 160 allocs at period 16 → ticks at alloc 1, 17, ..., 145: 10
        // samples — but the installed harness can add more in this class.
        let got = after - before;
        assert!(got >= 10, "expected at least 10 samples, got {got}");
        if !crate::global::installed() {
            assert_eq!(got, 10, "sample set must be deterministic feature-off");
        }
    }
}
