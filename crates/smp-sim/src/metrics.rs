//! Aggregate results of one simulation run.

use serde::{Deserialize, Serialize};

/// One point on a run's timeline: cumulative totals as of simulated time
/// `t_ns`. Sampled every `SimConfig::sample_interval_ns` simulated
/// nanoseconds; consumers take deltas between consecutive samples to see
/// per-interval behaviour (contention ramping up, coherence storms, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// Simulated time of the sample.
    pub(crate) t_ns: u64,
    /// Cumulative busy CPU time across threads.
    pub busy_ns: u64,
    /// Cumulative time spent blocked on locks.
    pub lock_wait_ns: u64,
    /// Cumulative coherence misses.
    pub(crate) coherence_misses: u64,
}

/// Everything a run reports. `wall_ns` drives the speedup figures; the rest
/// explains *why* (lock waiting, failed try-locks, migrations, coherence
/// misses — the quantities §5.1 discusses).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Simulated wall-clock time until the last thread finished.
    pub wall_ns: u64,
    /// Total busy CPU time across threads.
    pub busy_ns: u64,
    /// Total time threads spent blocked on locks.
    pub lock_wait_ns: u64,
    /// Failed try-lock probes recorded by the allocator model.
    pub failed_locks: u64,
    /// Thread migrations between CPUs.
    pub migrations: u64,
    /// Thread dispatches.
    pub ctx_switches: u64,
    /// Engine dispatch events processed (scheduler pops that drove CPU
    /// work; timeline-sampler firings are not counted). `events / real
    /// wall-clock` is the engine-throughput figure `envelope_check`'s
    /// `sim-engine` path gates.
    pub events: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Plain memory misses.
    pub mem_misses: u64,
    /// Coherence (dirty-line transfer) misses — the false-sharing signal.
    pub coherence_misses: u64,
    /// Model-specific counters (pool hits, arena switches, ...).
    pub model_counters: Vec<(String, u64)>,
    /// The *effective* timeline sampling period at run end: starts at
    /// `SimConfig::sample_interval_ns` and doubles on every decimation,
    /// so readers of a decimated timeline can recover the grid the
    /// surviving samples sit on. `0` when sampling was disabled.
    pub sample_interval_ns: u64,
    /// Periodic cumulative samples (empty when sampling is disabled).
    pub timeline: Vec<IntervalSample>,
}

impl RunMetrics {
    /// Look up a model counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.model_counters.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunMetrics {
        RunMetrics {
            wall_ns: 2_000_000_000,
            busy_ns: 1,
            lock_wait_ns: 2,
            failed_locks: 3,
            migrations: 4,
            ctx_switches: 5,
            events: 6,
            cache_hits: 90,
            mem_misses: 5,
            coherence_misses: 5,
            model_counters: vec![("pool_hits".into(), 42)],
            sample_interval_ns: 1_000,
            timeline: vec![
                IntervalSample { t_ns: 1_000, busy_ns: 900, lock_wait_ns: 50, coherence_misses: 1 },
                IntervalSample {
                    t_ns: 2_000,
                    busy_ns: 1_800,
                    lock_wait_ns: 120,
                    coherence_misses: 3,
                },
            ],
        }
    }

    #[test]
    fn helpers() {
        let m = sample();
        assert_eq!(m.counter("pool_hits"), Some(42));
        assert_eq!(m.counter("nope"), None);
    }

    #[test]
    fn serializes() {
        let m = sample();
        let j = serde_json::to_string(&m).unwrap();
        let back: RunMetrics = serde_json::from_str(&j).unwrap();
        assert_eq!(m, back);
    }
}
