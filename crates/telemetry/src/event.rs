//! Typed pool events and the global recording entry point.
//!
//! [`record`] is the single call the instrumented hot paths make. It is
//! built to cost a handful of nanoseconds next to a ~40 ns pool hit:
//!
//! * per-kind totals live on the calling thread's [`EventRing`] and are
//!   bumped with owner-only plain load/store — no shared cache line, no
//!   `lock`-prefixed instruction on the fast path;
//! * the thread's ring is reached through a raw-pointer `Cell` (no TLS
//!   destructor), so the TLS access is one thread-pointer load and stays
//!   usable even while other TLS destructors run;
//! * the ring write (packed event + tick) is *sampled* for the hot
//!   per-allocation kinds — 1 in [`HOT_SAMPLE`] — and unconditional for
//!   the rare slow-path kinds, so the history shows every swap/park/
//!   contention event but only a trace of the bulk traffic. Totals stay
//!   exact either way.
//!
//! Everything is lock-free; the only lock in the module guards the ring
//! *registry*, taken once per thread lifetime.

use crate::ring::EventRing;
use crate::tick;
use std::cell::Cell;
use std::sync::{Arc, Mutex, OnceLock};

/// Events per thread kept in the ring (older events are overwritten).
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// Hot event kinds push to the ring once per this many occurrences (the
/// first occurrence always records). Totals are exact regardless.
pub const HOT_SAMPLE: u64 = 64;

/// The typed pool events the runtime records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Acquire served from a magazine or free list (reuse).
    AcquireHit,
    /// Acquire fell through to a fresh heap allocation.
    AcquireMiss,
    /// Object returned to a magazine or free list.
    Release,
    /// Object refused (population cap) and freed.
    Drop,
    /// Magazine overflow flushed to a shard; payload = objects moved.
    MagazineFlush,
    /// A stale magazine discarded its cache after a trim; payload =
    /// objects dropped.
    EpochInvalidation,
    /// A shard try-lock found the lock held (the §5.1 signal).
    ShardLockContention,
    /// An empty thread magazine swapped for a full one from the depot in
    /// one CAS; payload = objects gained.
    DepotSwap,
    /// A full thread magazine parked on the depot in one CAS; payload =
    /// objects parked.
    DepotPark,
    /// A contiguous slab was carved into fresh-allocation reserve slots;
    /// payload = slots carved.
    SlabCarve,
    /// An acquire degraded gracefully to a plain heap `Box` under injected
    /// allocation failure (the `fault-inject` feature).
    FallbackAlloc,
    /// The fault layer injected a failure; payload = fault-site index
    /// (see `pools::fault`).
    FaultInjected,
    /// A cross-thread `dealloc` in the size-class front-end pushed a block
    /// onto a remote-free queue; payload = blocks pushed (aggregated).
    RemoteFree,
    /// The size-class front-end refilled a thread cache from its depot
    /// levels (remote drain / central stack / slab carve); payload =
    /// refills (aggregated).
    ClassRefill,
}

impl EventKind {
    /// Every kind, in tag order (the order reports list counts in).
    pub const ALL: [EventKind; 14] = [
        EventKind::AcquireHit,
        EventKind::AcquireMiss,
        EventKind::Release,
        EventKind::Drop,
        EventKind::MagazineFlush,
        EventKind::EpochInvalidation,
        EventKind::ShardLockContention,
        EventKind::DepotSwap,
        EventKind::DepotPark,
        EventKind::SlabCarve,
        EventKind::FallbackAlloc,
        EventKind::FaultInjected,
        EventKind::RemoteFree,
        EventKind::ClassRefill,
    ];

    /// Stable wire/report name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::AcquireHit => "acquire_hit",
            EventKind::AcquireMiss => "acquire_miss",
            EventKind::Release => "release",
            EventKind::Drop => "drop",
            EventKind::MagazineFlush => "magazine_flush",
            EventKind::EpochInvalidation => "epoch_invalidation",
            EventKind::ShardLockContention => "shard_lock_contention",
            EventKind::DepotSwap => "depot_swap",
            EventKind::DepotPark => "depot_park",
            EventKind::SlabCarve => "slab_carve",
            EventKind::FallbackAlloc => "fallback_alloc",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RemoteFree => "remote_free",
            EventKind::ClassRefill => "class_refill",
        }
    }

    /// Encoding tag (index into [`EventKind::ALL`]; the variants are
    /// declared in `ALL` order, so the tag is the discriminant).
    #[inline]
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Decode a tag produced by [`EventKind::tag`].
    pub fn from_tag(tag: u8) -> Option<EventKind> {
        EventKind::ALL.get(tag as usize).copied()
    }

    /// True for the per-allocation fast-path kinds, whose ring writes are
    /// sampled 1-in-[`HOT_SAMPLE`]. The slow-path kinds (depot swaps and
    /// parks, flushes, contention) always reach the ring.
    #[inline]
    pub fn is_hot(self) -> bool {
        matches!(
            self,
            EventKind::AcquireHit | EventKind::AcquireMiss | EventKind::Release | EventKind::Drop
        )
    }
}

/// One recorded event: kind, free-form payload (a count or index — 56 bits
/// survive the packed encoding), and the tick it was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEvent {
    pub kind: EventKind,
    pub payload: u64,
    pub tick: u64,
}

const PAYLOAD_BITS: u32 = 56;
const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;

impl PoolEvent {
    /// Pack kind + payload into one word (payload saturates at 56 bits).
    pub fn encode_word(kind: EventKind, payload: u64) -> u64 {
        ((kind.tag() as u64) << PAYLOAD_BITS) | payload.min(PAYLOAD_MASK)
    }

    /// Unpack a word produced by [`PoolEvent::encode_word`].
    pub fn decode_word(word: u64, tick: u64) -> Option<PoolEvent> {
        let kind = EventKind::from_tag((word >> PAYLOAD_BITS) as u8)?;
        Some(PoolEvent { kind, payload: word & PAYLOAD_MASK, tick })
    }
}

/// Every thread's ring, held strongly so events survive thread exit.
/// Entries are appended once per thread lifetime and **never removed** —
/// [`RING_PTR`] caches a raw pointer into this registry, so removal would
/// be a use-after-free.
static RINGS: OnceLock<Mutex<Vec<Arc<EventRing>>>> = OnceLock::new();

thread_local! {
    /// Borrowed pointer to this thread's registry entry. A plain `Cell` of
    /// a raw pointer needs no TLS destructor, so accessing it is a direct
    /// thread-pointer offset — no teardown state machine on the hot path —
    /// and it stays readable even while *other* TLS destructors run (a
    /// magazine flushing on thread exit still records).
    static RING_PTR: Cell<*const EventRing> = const { Cell::new(std::ptr::null()) };
}

fn rings() -> &'static Mutex<Vec<Arc<EventRing>>> {
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

#[cold]
#[inline(never)]
fn init_ring(cell: &Cell<*const EventRing>) -> *const EventRing {
    let ring = Arc::new(EventRing::new(DEFAULT_RING_CAPACITY));
    let ptr = Arc::as_ptr(&ring);
    // The registry's strong reference is what keeps `ptr` valid for the
    // rest of the process (entries are never removed).
    rings().lock().expect("ring registry poisoned").push(ring);
    cell.set(ptr);
    ptr
}

/// Record one event: bump the calling thread's per-kind total, and push
/// the event (with the next tick) to its ring — always for slow-path
/// kinds, 1-in-[`HOT_SAMPLE`] for hot ones.
///
/// The inlined portion is deliberately tiny — TLS lookup, counter bump,
/// sampling branch — so instrumentation does not bloat (and thereby
/// de-optimize) the pool fast paths it lands in. The ring write and the
/// global tick are out of line behind the sampling branch.
#[inline]
pub fn record(kind: EventKind, payload: u64) {
    RING_PTR.with(|cell| {
        let mut ptr = cell.get();
        if ptr.is_null() {
            ptr = init_ring(cell);
        }
        // Safety: `ptr` points at a registry entry, and registry entries
        // are never removed (see `RINGS`), so it is valid for the rest of
        // the process. `EventRing` is `Sync`; only this thread writes it.
        let ring = unsafe { &*ptr };
        let n = ring.bump(kind);
        if !kind.is_hot() || n % HOT_SAMPLE == 1 {
            push_event(ring, kind, payload);
        }
    });
}

/// The sampled ring write: out of line so the hot call sites only carry
/// the bump + branch. Taking the global tick here (not in `record`) keeps
/// the shared `fetch_add` off the unsampled path entirely.
#[cold]
#[inline(never)]
fn push_event(ring: &EventRing, kind: EventKind, payload: u64) {
    ring.push(kind, payload, tick::next());
}

/// Out-of-line [`record`] for rare-path call sites (refills, flushes,
/// invalidations). Inlining `record` into a cold branch of a hot function
/// drags its register pressure into the surrounding fast path; a single
/// never-inlined call keeps the instrumentation footprint at such a site
/// to one predicted-untaken branch.
#[cold]
#[inline(never)]
pub fn record_cold(kind: EventKind, payload: u64) {
    record(kind, payload);
}

/// Per-kind totals since process start (or the last [`reset`]), in
/// [`EventKind::ALL`] order: the sum of every thread's ring totals.
pub fn counts() -> Vec<(EventKind, u64)> {
    let rings = rings().lock().expect("ring registry poisoned");
    EventKind::ALL
        .iter()
        .map(|&k| (k, rings.iter().map(|r| r.kind_count(k)).sum::<u64>()))
        .collect()
}

/// The most recent events across all threads, merged and sorted by tick.
/// Each thread contributes at most its ring capacity.
pub fn recent_events() -> Vec<PoolEvent> {
    let rings = rings().lock().expect("ring registry poisoned");
    let mut all: Vec<PoolEvent> = rings.iter().flat_map(|r| r.snapshot()).collect();
    all.sort_by_key(|e| e.tick);
    all
}

/// Zero the per-kind totals and clear every ring. Intended for tests and
/// report tooling that wants a clean window; racing recorders may land
/// events on either side of the reset.
pub fn reset() {
    let rings = rings().lock().expect("ring registry poisoned");
    for r in rings.iter() {
        r.clear();
        r.clear_counts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(EventKind::from_tag(200), None);
    }

    #[test]
    fn words_round_trip_and_saturate() {
        let ev = PoolEvent::decode_word(PoolEvent::encode_word(EventKind::Release, 42), 7).unwrap();
        assert_eq!(ev, PoolEvent { kind: EventKind::Release, payload: 42, tick: 7 });
        let big = PoolEvent::decode_word(PoolEvent::encode_word(EventKind::Drop, u64::MAX), 0);
        assert_eq!(big.unwrap().payload, (1 << 56) - 1);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }

    #[test]
    fn cross_thread_aggregation() {
        // Record from several threads; the totals must count every event
        // exactly even though the ring writes are sampled. Runs against
        // the global state, so assert on deltas.
        let before: u64 = counts().iter().map(|&(_, n)| n).sum();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..50 {
                        record(EventKind::AcquireHit, i);
                    }
                });
            }
        });
        let after: u64 = counts().iter().map(|&(_, n)| n).sum();
        assert!(after >= before + 200, "before {before} after {after}");
        let hits =
            counts().iter().find(|(k, _)| *k == EventKind::AcquireHit).map(|&(_, n)| n).unwrap();
        assert!(hits >= 200);
        // Each fresh thread's first hit is sampled into its ring, and the
        // merged trace is sorted by tick.
        let recent = recent_events();
        assert!(recent.iter().filter(|e| e.kind == EventKind::AcquireHit).count() >= 4);
        assert!(recent.windows(2).all(|w| w[0].tick <= w[1].tick));
    }

    #[test]
    fn hot_kinds_sample_into_the_ring_but_count_exactly() {
        // Dedicated thread: its ring is fresh, so ring contents are
        // predictable. 2*HOT_SAMPLE hot events should push exactly twice
        // (n == 1 and n == HOT_SAMPLE + 1); slow-path events always push.
        std::thread::spawn(|| {
            for _ in 0..2 * HOT_SAMPLE {
                record(EventKind::Release, 7);
            }
            for _ in 0..3 {
                record(EventKind::MagazineFlush, 9);
            }
            let ptr = RING_PTR.with(|cell| cell.get());
            assert!(!ptr.is_null(), "ring exists after recording");
            let ring = unsafe { &*ptr };
            assert_eq!(ring.kind_count(EventKind::Release), 2 * HOT_SAMPLE);
            assert_eq!(ring.kind_count(EventKind::MagazineFlush), 3);
            let snap = ring.snapshot();
            let releases = snap.iter().filter(|e| e.kind == EventKind::Release).count();
            let flushes = snap.iter().filter(|e| e.kind == EventKind::MagazineFlush).count();
            assert_eq!(releases, 2, "1-in-{HOT_SAMPLE} sampling");
            assert_eq!(flushes, 3, "slow-path events always recorded");
        })
        .join()
        .unwrap();
    }
}
