//! The event scheduler: a min-heap of component wake-ups with pluggable
//! tie-break ordering.
//!
//! Heap discipline: entries are keyed `(time, class, rank, seq, comp)`.
//! `time` is the simulated firing instant; `class` puts the timeline
//! sampler ahead of all normal work at the same instant (a sample must
//! observe state *before* anything executes at its deadline); `rank` is
//! the policy's tie-break (always `0` under [`SchedPolicy::Deterministic`],
//! a SplitMix64 permutation under [`SchedPolicy::Fuzzed`]); `seq` is the
//! global submission counter that makes `Deterministic` reproduce the
//! retired monolithic engine's `(time, seq)` order byte-for-byte and keeps
//! `Fuzzed` total even on rank collisions.

use crate::component::ComponentId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Ordering class of a scheduled firing at equal timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum EventClass {
    /// Timeline-sampler deadlines: fire before any `Normal` firing at the
    /// same instant, and are never reordered by fuzzing — sampling is
    /// observation, not execution.
    Sampler = 0,
    /// Everything that executes simulated work (CPU dispatches).
    Normal = 1,
}

/// How the scheduler breaks ties among same-timestamp `Normal` firings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict submission order `(time, seq)` — byte-identical metrics to
    /// the retired monolithic engine (the golden-parity gate asserts it).
    #[default]
    Deterministic,
    /// SplitMix64-permuted tie-breaking among same-timestamp firings,
    /// deterministic per seed: every order produced is a *legal* execution
    /// (time never goes backwards, FIFO queues stay FIFO) but the choice
    /// of which equal-time CPU runs first is adversarially shuffled —
    /// schedule fuzzing for race discovery.
    Fuzzed(u64),
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One popped wake-up.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Firing {
    /// Simulated time of the firing.
    pub(crate) time: u64,
    /// Scheduling class it was pushed with.
    pub(crate) class: EventClass,
    /// The component to tick.
    pub(crate) comp: ComponentId,
}

/// A heap entry: `(time, class, rank, seq, comp)` under `Reverse` so the
/// `BinaryHeap` pops the minimum.
type HeapEntry = Reverse<(u64, u8, u64, u64, ComponentId)>;

/// The min-heap of pending component wake-ups.
pub(crate) struct Scheduler {
    heap: BinaryHeap<HeapEntry>,
    policy: SchedPolicy,
    /// Pending `Normal`-class entries; when this hits zero with all
    /// threads done, only sampler deadlines remain and the run is over.
    normal_pending: usize,
}

impl Scheduler {
    /// An empty scheduler with the given tie-break policy.
    pub(crate) fn new(policy: SchedPolicy) -> Self {
        Scheduler { heap: BinaryHeap::new(), policy, normal_pending: 0 }
    }

    /// Schedule `comp` to tick at `time`. `seq` must come from the bus's
    /// global submission counter — it is the deterministic tie-break and
    /// (mixed with the policy seed) the fuzzed one.
    pub(crate) fn push(&mut self, time: u64, class: EventClass, seq: u64, comp: ComponentId) {
        let rank = match (self.policy, class) {
            (SchedPolicy::Fuzzed(seed), EventClass::Normal) => {
                // Mix everything identifying the firing so equal-time
                // entries land in a seed-dependent but reproducible order.
                splitmix64(
                    seed ^ time.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((comp as u64) << 40) ^ seq,
                )
            }
            _ => 0,
        };
        if class == EventClass::Normal {
            self.normal_pending += 1;
        }
        self.heap.push(Reverse((time, class as u8, rank, seq, comp)));
    }

    /// Pop the earliest pending firing.
    pub(crate) fn pop(&mut self) -> Option<Firing> {
        let Reverse((time, class, _, _, comp)) = self.heap.pop()?;
        let class = if class == EventClass::Sampler as u8 {
            EventClass::Sampler
        } else {
            self.normal_pending -= 1;
            EventClass::Normal
        };
        Some(Firing { time, class, comp })
    }

    /// Number of `Normal`-class firings still queued.
    pub(crate) fn normal_pending(&self) -> usize {
        self.normal_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_orders_by_time_then_seq() {
        let mut s = Scheduler::new(SchedPolicy::Deterministic);
        s.push(20, EventClass::Normal, 1, 7);
        s.push(10, EventClass::Normal, 3, 1);
        s.push(10, EventClass::Normal, 2, 2);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|f| f.comp).collect();
        assert_eq!(order, vec![2, 1, 7]);
    }

    #[test]
    fn sampler_beats_normal_at_equal_time_under_any_policy() {
        for policy in [SchedPolicy::Deterministic, SchedPolicy::Fuzzed(42)] {
            let mut s = Scheduler::new(policy);
            s.push(10, EventClass::Normal, 1, 0);
            s.push(10, EventClass::Sampler, 2, 9);
            let first = s.pop().unwrap();
            assert_eq!(first.class, EventClass::Sampler, "policy {policy:?}");
            assert_eq!(first.comp, 9);
        }
    }

    #[test]
    fn fuzzed_reorders_ties_but_never_time() {
        // Find a seed pair that actually disagrees on tie order.
        let submit = |s: &mut Scheduler| {
            for (seq, comp) in [(1u64, 0u32), (2, 1), (3, 2), (4, 3)] {
                s.push(100, EventClass::Normal, seq, comp);
            }
            s.push(50, EventClass::Normal, 5, 9);
        };
        let order_for = |policy| {
            let mut s = Scheduler::new(policy);
            submit(&mut s);
            std::iter::from_fn(|| s.pop()).map(|f| f.comp).collect::<Vec<_>>()
        };
        let det = order_for(SchedPolicy::Deterministic);
        assert_eq!(det[0], 9, "earlier time always first");
        let mut saw_different = false;
        for seed in 0..16 {
            let fz = order_for(SchedPolicy::Fuzzed(seed));
            assert_eq!(fz[0], 9, "fuzzing must not reorder across time");
            assert_eq!(fz, order_for(SchedPolicy::Fuzzed(seed)), "per-seed reproducible");
            if fz != det {
                saw_different = true;
            }
        }
        assert!(saw_different, "16 seeds never permuted a 4-way tie");
    }

    #[test]
    fn normal_pending_tracks_pushes_and_pops() {
        let mut s = Scheduler::new(SchedPolicy::Deterministic);
        s.push(1, EventClass::Sampler, 1, 0);
        s.push(2, EventClass::Normal, 2, 1);
        assert_eq!(s.normal_pending(), 1);
        s.pop();
        assert_eq!(s.normal_pending(), 1, "sampler pop leaves normal count");
        s.pop();
        assert_eq!(s.normal_pending(), 0);
    }
}
