//! Debug heap-integrity guard for the pool runtime.
//!
//! Active when either `debug_assertions` or the `fault-inject` feature is
//! on; in a default release build every type here is a zero-sized no-op and
//! every method an empty `#[inline(always)]` body, so the guard adds **no
//! metadata and no instructions** to the fast paths `envelope_check`'s
//! envelopes measure.
//!
//! Two mechanisms:
//!
//! 1. **Slot guards** — `PoolBox` slots are laid out as
//!    `[link, canary, generation, value]` ([`crate::pool_box`]). The
//!    canary is a per-address constant ([`canary_for`]) checked at drop: a
//!    neighbouring overflow or stray write trips it. The generation word's
//!    low bit tracks *live* vs *dead*; dropping a dead slot (a double
//!    release of the same slot through any unsafe path) panics.
//! 2. **The ledger** — a [`Ledger`] on each depot counts every object that
//!    enters a cache level (*park*), leaves it for a caller (*unpark*), or
//!    is destroyed while cached (*reclaim*: trims, epoch invalidations,
//!    stale depot nodes). At depot drop, when no live magazines remain,
//!    [`Ledger::reconcile`] checks the books against the physically parked
//!    population and the cap-drop counters from [`crate::stats::PoolStats`]
//!    — exact live-object accounting: any leak or double-handout that
//!    slipped past the stress tests shows up as an imbalance here.

#![cfg_attr(
    not(any(debug_assertions, feature = "fault-inject")),
    allow(unused_variables, dead_code)
)]

#[cfg(any(debug_assertions, feature = "fault-inject"))]
use std::sync::atomic::{AtomicU64, Ordering};

/// Base constant the per-slot canary derives from (xored with the slot
/// address, so a block copied over another block still trips the check).
#[cfg(any(debug_assertions, feature = "fault-inject"))]
pub(crate) const CANARY: u64 = 0x5AB5_0157_CA4A_AB1E;

/// Low bit of the generation word: slot currently holds a live value.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
pub(crate) const GEN_LIVE: u64 = 1;

/// The canary value a guard slot at `addr` must carry.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
#[inline]
pub(crate) fn canary_for(addr: usize) -> u64 {
    CANARY ^ addr as u64
}

/// Park/unpark/reclaim books for one depot. See the module docs.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    /// Objects released into a cache level (magazine, depot, or shard).
    parks: AtomicU64,
    /// Cached objects handed back out to a caller.
    unparks: AtomicU64,
    /// Cached objects destroyed by trim / epoch invalidation / stale-node
    /// discard (never reached a caller again).
    reclaimed: AtomicU64,
}

#[cfg(any(debug_assertions, feature = "fault-inject"))]
impl Ledger {
    #[inline]
    pub(crate) fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_unpark(&self) {
        self.unparks.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn record_reclaim(&self, n: usize) {
        if n > 0 {
            self.reclaimed.fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Check the books: every park must be accounted for by an unpark, a
    /// reclaim, a cap-drop ([`crate::stats::PoolStats::dropped`]), or an
    /// object still physically parked at drop time. Skipped while a panic
    /// is already unwinding (the books are expected to be torn then).
    pub(crate) fn reconcile(&self, physically_parked: usize, cap_dropped: u64) {
        if std::thread::panicking() {
            return;
        }
        let parks = self.parks.load(Ordering::Relaxed);
        let unparks = self.unparks.load(Ordering::Relaxed);
        let reclaimed = self.reclaimed.load(Ordering::Relaxed);
        let expected = parks
            .checked_sub(unparks)
            .and_then(|v| v.checked_sub(reclaimed))
            .and_then(|v| v.checked_sub(cap_dropped));
        assert_eq!(
            expected,
            Some(physically_parked as u64),
            "pool guard ledger imbalance at depot drop: parks {parks} - unparks {unparks} \
             - reclaimed {reclaimed} - cap drops {cap_dropped} should equal the {physically_parked} \
             objects still parked (double handout or leak in a cache level)",
        );
    }
}

/// Release-build stand-in: zero-sized, every method a no-op that the
/// optimizer deletes along with its call sites' argument computation.
#[cfg(not(any(debug_assertions, feature = "fault-inject")))]
#[derive(Debug, Default)]
pub(crate) struct Ledger;

#[cfg(not(any(debug_assertions, feature = "fault-inject")))]
impl Ledger {
    #[inline(always)]
    pub(crate) fn record_park(&self) {}

    #[inline(always)]
    pub(crate) fn record_unpark(&self) {}

    #[inline(always)]
    pub(crate) fn record_reclaim(&self, _n: usize) {}

    #[inline(always)]
    pub(crate) fn reconcile(&self, _physically_parked: usize, _cap_dropped: u64) {}
}

#[cfg(all(test, any(debug_assertions, feature = "fault-inject")))]
mod tests {
    use super::*;

    #[test]
    fn balanced_books_reconcile() {
        let l = Ledger::default();
        for _ in 0..10 {
            l.record_park();
        }
        for _ in 0..4 {
            l.record_unpark();
        }
        l.record_reclaim(3);
        l.record_reclaim(0); // no-op
        l.reconcile(2, 1); // 10 - 4 - 3 - 1 == 2 parked
    }

    #[test]
    #[should_panic(expected = "ledger imbalance")]
    fn imbalanced_books_panic() {
        let l = Ledger::default();
        l.record_park();
        l.record_park();
        l.reconcile(1, 0); // 2 parks, 1 parked, nothing else: one object lost
    }

    #[test]
    fn canary_differs_per_address() {
        assert_ne!(canary_for(0x1000), canary_for(0x1008));
        assert_eq!(canary_for(0x1000), canary_for(0x1000));
        assert_eq!(GEN_LIVE, 1);
    }
}
