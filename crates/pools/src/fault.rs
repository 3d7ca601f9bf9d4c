//! Deterministic fault injection for the typed acquire path and the
//! size-class engine's carve (`fault-inject` feature, default off).
//!
//! Faults are decided *statelessly*: each decision hashes
//! `(seed, site, thread ordinal, per-thread per-site counter)` through a
//! SplitMix64 finalizer and compares the result against a per-site
//! threshold. Nothing about the pool's racy runtime state (depot occupancy,
//! shard contention, magazine fill) enters the decision, so the schedule of
//! injected faults on a given thread is a pure function of the seed and
//! that thread's own operation sequence — the property the `fault_matrix`
//! determinism assertion (same seed ⇒ same checksums, same injected-fault
//! counts) rests on.
//!
//! The five sites, one per rung of the degradation ladder plus the flush
//! side:
//!
//! * **fresh-alloc failure** — decided at `acquire` *entry*; the acquire
//!   bypasses every cache level and returns a fresh slot (a
//!   `FallbackAlloc`, counted in the pool's `PoolStats`). Deciding at entry
//!   rather than at the depot miss keeps the fallback count independent of
//!   cross-thread interleaving.
//! * **slab-carve failure** — the size-class engine's carve
//!   (`crate::global`, which also serves every typed slot) hands out a
//!   block of a [`std::alloc::System`] chunk instead of carving a slab,
//!   exercising the engine's fallback ledger. It draws only when a class
//!   runs out of blocks, so its count depends on the engine's state.
//! * **depot CAS retry** — a successful `pop` of a full magazine is pushed
//!   straight back and re-popped, simulating a lost CAS race (and
//!   exercising the version-tag ABA protection).
//! * **epoch bump mid-swap** — `crate::magazine` bumps the trim epoch
//!   between popping a depot node and validating its epoch, the exact
//!   window the trim/swap race argument is about.
//! * **flush delay** — a full magazine skips one park/flush, letting it
//!   exceed its capacity by one before the next release handles it.
//!
//! With the feature disabled this module is an identical-API stub whose
//! predicates are constant `false`, so call sites compile unconditionally
//! and the optimizer removes them from release fast paths.

/// Injection rates for each fault site, in `[0, 1]`, plus the seed the
/// whole schedule derives from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the per-decision hash.
    pub seed: u64,
    /// P(fail an acquire outright → heap fallback).
    pub fail_fresh: f64,
    /// P(fail an engine slab carve → a `System` chunk).
    pub fail_carve: f64,
    /// P(force a depot pop to retry).
    pub depot_retry: f64,
    /// P(bump the trim epoch between depot pop and validate).
    pub epoch_bump: f64,
    /// P(delay a full magazine's park/flush by one release).
    pub flush_delay: f64,
}

impl FaultConfig {
    /// All five sites at the same rate.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            fail_fresh: rate,
            fail_carve: rate,
            depot_retry: rate,
            epoch_bump: rate,
            flush_delay: rate,
        }
    }

    /// Everything off (the state [`clear`] restores).
    pub fn off() -> Self {
        Self::uniform(0, 0.0)
    }
}

/// Injected-fault totals since the last [`install`] / [`reset_counts`],
/// indexed like the config fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Acquires failed outright (each one produced a heap fallback).
    pub fail_fresh: u64,
    /// Slab carves failed.
    pub fail_carve: u64,
    /// Depot pops forced to retry.
    pub depot_retry: u64,
    /// Epoch bumps injected mid-swap.
    pub epoch_bump: u64,
    /// Magazine flushes delayed.
    pub flush_delay: u64,
}

impl FaultCounts {
    /// Total injected faults across all sites.
    pub fn total(&self) -> u64 {
        self.fail_fresh + self.fail_carve + self.depot_retry + self.epoch_bump + self.flush_delay
    }
}

#[cfg(feature = "fault-inject")]
mod imp {
    use super::{FaultConfig, FaultCounts};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    pub(super) const NUM_SITES: usize = 5;

    /// Per-site salts keep the five decision streams independent even when
    /// their counters run in lockstep.
    const SITE_SALTS: [u64; NUM_SITES] = [
        0x9E37_79B9_7F4A_7C15,
        0xC2B2_AE3D_27D4_EB4F,
        0x1656_67B1_9E37_79F9,
        0xFF51_AFD7_ED55_8CCD,
        0xC4CE_B9FE_1A85_EC53,
    ];

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static SEED: AtomicU64 = AtomicU64::new(0);
    static THRESHOLDS: [AtomicU64; NUM_SITES] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    static INJECTED: [AtomicU64; NUM_SITES] = [
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
        AtomicU64::new(0),
    ];
    /// Fallback ordinals for threads that never called
    /// [`super::set_thread_ordinal`].
    static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(1 << 32);

    thread_local! {
        static ORDINAL: Cell<u64> = const { Cell::new(u64::MAX) };
        static COUNTERS: [Cell<u64>; NUM_SITES] =
            const { [Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0)] };
    }

    /// The SplitMix64 output finalizer — a strong 64-bit mix.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn threshold(rate: f64) -> u64 {
        if rate <= 0.0 {
            0
        } else if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        }
    }

    pub(super) fn install(config: FaultConfig) {
        SEED.store(config.seed, Ordering::Relaxed);
        let rates = [
            config.fail_fresh,
            config.fail_carve,
            config.depot_retry,
            config.epoch_bump,
            config.flush_delay,
        ];
        for (slot, rate) in THRESHOLDS.iter().zip(rates) {
            slot.store(threshold(rate), Ordering::Relaxed);
        }
        reset_counts();
        ACTIVE.store(true, Ordering::Release);
    }

    pub(super) fn clear() {
        ACTIVE.store(false, Ordering::Release);
    }

    pub(super) fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    pub(super) fn set_thread_ordinal(ordinal: u64) {
        ORDINAL.with(|o| o.set(ordinal));
        // A new ordinal starts a new deterministic stream: reset the
        // per-site counters so re-used OS threads (and a thread re-running
        // a workload under the same ordinal) replay the same schedule.
        COUNTERS.with(|c| c.iter().for_each(|n| n.set(0)));
    }

    pub(super) fn reset_counts() {
        for n in INJECTED.iter() {
            n.store(0, Ordering::Relaxed);
        }
    }

    pub(super) fn injected_counts() -> FaultCounts {
        let get = |i: usize| INJECTED[i].load(Ordering::Relaxed);
        FaultCounts {
            fail_fresh: get(0),
            fail_carve: get(1),
            depot_retry: get(2),
            epoch_bump: get(3),
            flush_delay: get(4),
        }
    }

    #[cold]
    fn decide_cold(site: usize) -> bool {
        let thr = THRESHOLDS[site].load(Ordering::Relaxed);
        if thr == 0 {
            return false;
        }
        let ordinal = ORDINAL.with(|o| {
            let cur = o.get();
            if cur != u64::MAX {
                return cur;
            }
            let fresh = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            o.set(fresh);
            fresh
        });
        let n = COUNTERS.with(|c| {
            let n = c[site].get();
            c[site].set(n + 1);
            n
        });
        let seed = SEED.load(Ordering::Relaxed);
        let h = mix(seed ^ SITE_SALTS[site] ^ mix(ordinal ^ SITE_SALTS[site]) ^ n);
        if h < thr {
            INJECTED[site].fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    #[inline]
    pub(super) fn decide(site: usize) -> bool {
        if !ACTIVE.load(Ordering::Relaxed) {
            return false;
        }
        decide_cold(site)
    }
}

#[cfg(feature = "fault-inject")]
mod api {
    use super::imp;
    use super::{FaultConfig, FaultCounts};

    /// Install a fault schedule and activate injection process-wide.
    pub fn install(config: FaultConfig) {
        imp::install(config);
    }

    /// Deactivate injection (the installed rates are kept but dormant).
    pub fn clear() {
        imp::clear();
    }

    /// True when a schedule is installed and active.
    pub fn is_active() -> bool {
        imp::is_active()
    }

    /// Pin the calling thread's ordinal (its identity in the decision
    /// hash) and restart its decision counters. Executors call this once
    /// per worker with the worker's stable index, making the schedule
    /// reproducible across runs regardless of OS thread reuse.
    pub fn set_thread_ordinal(ordinal: u64) {
        imp::set_thread_ordinal(ordinal);
    }

    /// Zero the injected-fault totals ([`install`] does this too).
    pub fn reset_counts() {
        imp::reset_counts();
    }

    /// Injected-fault totals since the last [`install`]/[`reset_counts`].
    pub fn injected_counts() -> FaultCounts {
        imp::injected_counts()
    }

    /// Site 0: fail this acquire outright (heap fallback).
    #[inline]
    pub fn fail_fresh_alloc() -> bool {
        imp::decide(0)
    }

    /// Site 1: fail the size-class engine's pending slab carve.
    #[inline]
    pub(crate) fn fail_slab_carve() -> bool {
        imp::decide(1)
    }

    /// Site 2: force the depot pop to retry once.
    #[inline]
    pub(crate) fn retry_depot() -> bool {
        imp::decide(2)
    }

    /// Site 3: bump the trim epoch between depot pop and validate.
    #[inline]
    pub(crate) fn bump_epoch() -> bool {
        imp::decide(3)
    }

    /// Site 4: delay this full magazine's park/flush by one release.
    #[inline]
    pub(crate) fn delay_flush() -> bool {
        imp::decide(4)
    }
}

#[cfg(not(feature = "fault-inject"))]
mod api {
    use super::{FaultConfig, FaultCounts};

    /// No-op without the `fault-inject` feature.
    pub fn install(_config: FaultConfig) {}

    /// No-op without the `fault-inject` feature.
    pub fn clear() {}

    /// Always `false` without the `fault-inject` feature.
    #[inline(always)]
    pub fn is_active() -> bool {
        false
    }

    /// No-op without the `fault-inject` feature.
    #[inline(always)]
    pub fn set_thread_ordinal(_ordinal: u64) {}

    /// No-op without the `fault-inject` feature.
    pub fn reset_counts() {}

    /// Always zero without the `fault-inject` feature.
    pub fn injected_counts() -> FaultCounts {
        FaultCounts::default()
    }

    /// Constant `false`: the predicate (and its branch) compiles out.
    #[inline(always)]
    pub fn fail_fresh_alloc() -> bool {
        false
    }

    /// Constant `false`: the predicate (and its branch) compiles out.
    #[inline(always)]
    pub(crate) fn fail_slab_carve() -> bool {
        false
    }

    /// Constant `false`: the predicate (and its branch) compiles out.
    #[inline(always)]
    pub(crate) fn retry_depot() -> bool {
        false
    }

    /// Constant `false`: the predicate (and its branch) compiles out.
    #[inline(always)]
    pub(crate) fn bump_epoch() -> bool {
        false
    }

    /// Constant `false`: the predicate (and its branch) compiles out.
    #[inline(always)]
    pub(crate) fn delay_flush() -> bool {
        false
    }
}

pub(crate) use api::{bump_epoch, delay_flush, fail_slab_carve, retry_depot};
pub use api::{
    clear, fail_fresh_alloc, injected_counts, install, is_active, reset_counts, set_thread_ordinal,
};

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Fault state is process-global; tests in this module serialize on it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn inactive_by_default_and_after_clear() {
        let _g = LOCK.lock().unwrap();
        clear();
        assert!(!is_active());
        for _ in 0..64 {
            assert!(!fail_fresh_alloc());
        }
        install(FaultConfig::uniform(1, 1.0));
        assert!(is_active());
        clear();
        assert!(!fail_fresh_alloc());
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let _g = LOCK.lock().unwrap();
        install(FaultConfig { fail_carve: 0.0, ..FaultConfig::uniform(7, 1.0) });
        set_thread_ordinal(0);
        for _ in 0..32 {
            assert!(fail_fresh_alloc());
            assert!(!fail_slab_carve());
        }
        let counts = injected_counts();
        assert_eq!(counts.fail_fresh, 32);
        assert_eq!(counts.fail_carve, 0);
        assert_eq!(counts.total(), 32);
        clear();
    }

    #[test]
    fn same_seed_same_ordinal_replays_the_same_schedule() {
        let _g = LOCK.lock().unwrap();
        install(FaultConfig::uniform(42, 0.25));
        set_thread_ordinal(3);
        let first: Vec<bool> = (0..256).map(|_| fail_fresh_alloc()).collect();
        set_thread_ordinal(3); // restart the stream
        let second: Vec<bool> = (0..256).map(|_| fail_fresh_alloc()).collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|&b| b), "rate 0.25 over 256 draws must fire");
        assert!(!first.iter().all(|&b| b));
        // A different ordinal yields a different (deterministic) schedule.
        set_thread_ordinal(4);
        let other: Vec<bool> = (0..256).map(|_| fail_fresh_alloc()).collect();
        assert_ne!(first, other);
        clear();
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let _g = LOCK.lock().unwrap();
        install(FaultConfig::uniform(99, 0.1));
        set_thread_ordinal(0);
        let n = 20_000;
        let fired = (0..n).filter(|_| fail_fresh_alloc()).count();
        let rate = fired as f64 / n as f64;
        assert!((0.05..0.15).contains(&rate), "empirical rate {rate} far from 0.1");
        clear();
    }
}
