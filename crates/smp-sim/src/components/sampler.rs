//! The timeline sampler component: records cumulative machine totals on
//! a fixed simulated-time grid, decimating once the timeline fills.
//!
//! It fires in [`EventClass::Sampler`], which sorts *before* any normal
//! firing at the same instant — a sample observes the machine as it was
//! strictly before anything executes at its deadline, and schedule
//! fuzzing never reorders it.

use crate::bus::SystemBus;
use crate::component::{Component, ComponentId};
use crate::metrics::IntervalSample;
use crate::sched::EventClass;

/// Timeline length that triggers decimation.
pub(crate) const MAX_TIMELINE_SAMPLES: usize = 256;

/// The periodic observer of cumulative run totals.
pub(crate) struct TimelineSampler {
    id: ComponentId,
    /// The next sampling deadline (also the `t_ns` the sample records).
    deadline: u64,
}

impl TimelineSampler {
    /// A sampler with its first deadline one period in.
    pub(crate) fn new(id: ComponentId, first_deadline: u64) -> Self {
        debug_assert!(first_deadline > 0, "disabled sampling must not build a sampler");
        TimelineSampler { id, deadline: first_deadline }
    }
}

impl Component for TimelineSampler {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn class(&self) -> EventClass {
        EventClass::Sampler
    }

    fn next_tick(&self) -> Option<u64> {
        Some(self.deadline)
    }

    /// Record one sample (cumulative totals as of the current machine
    /// state) and advance the deadline, decimating once the timeline is
    /// full.
    fn tick(&mut self, now: u64, bus: &mut SystemBus) -> Option<u64> {
        debug_assert_eq!(now, self.deadline);
        bus.timeline.push(IntervalSample {
            t_ns: self.deadline,
            busy_ns: bus.threads.iter().map(|t| t.busy_ns).sum(),
            lock_wait_ns: bus.threads.iter().map(|t| t.wait_ns).sum(),
            coherence_misses: bus.cache.coherence_misses(),
        });
        self.deadline += bus.sample_interval;
        if bus.timeline.len() >= MAX_TIMELINE_SAMPLES {
            // Keep every second sample. The survivors sit on the doubled
            // grid (2i, 4i, ...), so the next sample continues it exactly
            // — and the doubled period lands in
            // `RunMetrics::sample_interval_ns` at run end.
            let mut i = 0usize;
            bus.timeline.retain(|_| {
                i += 1;
                i.is_multiple_of(2)
            });
            bus.sample_interval *= 2;
            self.deadline = match bus.timeline.last() {
                Some(s) => s.t_ns + bus.sample_interval,
                None => bus.sample_interval,
            };
        }
        Some(self.deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AppOp, Program, SimConfig};
    use crate::models::serial::SerialModel;

    struct Nop;
    impl Program for Nop {
        fn next(&mut self) -> AppOp {
            AppOp::End
        }
    }

    /// Boundary behaviour at exactly `MAX_TIMELINE_SAMPLES`: the sample
    /// that fills the buffer decimates it in the same tick, doubles the
    /// recorded period, and lands the next deadline on the doubled grid.
    #[test]
    fn decimates_exactly_at_capacity() {
        let interval = 100u64;
        let mut cfg = SimConfig::new(1);
        cfg.sample_interval_ns = interval;
        let mut bus = SystemBus::new(cfg, Box::new(SerialModel::new()), vec![Box::new(Nop)]);
        let mut s = TimelineSampler::new(1, interval);
        for k in 1..MAX_TIMELINE_SAMPLES {
            let now = s.next_tick().unwrap();
            assert_eq!(now, k as u64 * interval);
            s.tick(now, &mut bus);
            assert_eq!(bus.timeline.len(), k);
            assert_eq!(bus.sample_interval, interval, "no decimation below the cap");
        }
        let now = s.next_tick().unwrap();
        let next = s.tick(now, &mut bus).unwrap();
        assert_eq!(bus.timeline.len(), MAX_TIMELINE_SAMPLES / 2);
        assert_eq!(bus.sample_interval, 2 * interval, "doubled period is recorded");
        for (i, smp) in bus.timeline.iter().enumerate() {
            assert_eq!(smp.t_ns, (i as u64 + 1) * 2 * interval, "survivors on doubled grid");
        }
        assert_eq!(next, bus.timeline.last().unwrap().t_ns + 2 * interval);
    }
}
