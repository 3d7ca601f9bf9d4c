//! The discrete-event simulation engine, assembled from components.
//!
//! Everything that evolves over simulated time is a
//! `Component` — one `Cpu` per simulated
//! processor and a `TimelineSampler` — registered with a
//! `Scheduler` that owns the min-heap of
//! pending wake-ups. Components interact only through the
//! `SystemBus`: the shared machine state
//! (threads, FIFO ready queue, `MutexBank`
//! with FIFO handoff, NUMA-aware `CacheSystem`)
//! plus the wake-request outbox the run loop drains into the scheduler
//! after every tick.
//!
//! Determinism: under [`SchedPolicy::Deterministic`] the heap pops in
//! `(time, submission-seq)` order — identical inputs produce identical
//! metrics, which the property tests and the golden-parity gate assert.
//! [`SchedPolicy::Fuzzed`] permutes only the order of *same-timestamp*
//! firings (deterministically per seed), exploring legal alternative
//! schedules without bending time.

use crate::bus::SystemBus;
use crate::component::Component;
use crate::components::{Cpu, TimelineSampler};
use crate::metrics::RunMetrics;
use crate::model::StructShape;
use crate::params::{arch::MAX_CPUS, CostParams};
use crate::sched::{EventClass, SchedPolicy, Scheduler};

pub(crate) use crate::mutex_bank::LockId;

/// An application-level operation issued by a [`Program`]. The engine
/// expands allocation ops through the installed
/// [`AllocModel`](crate::model::AllocModel).
#[derive(Debug, Clone)]
pub enum AppOp {
    /// Pure computation for the given nanoseconds.
    Compute(u64),
    /// Allocate one object structure; remember it under `tag`.
    AllocStruct { shape: StructShape, tag: u64 },
    /// Walk all nodes of structure `tag` (constructor/destructor pass):
    /// one memory access per node plus `work_per_node` ns.
    TouchNodes { tag: u64, write: bool, work_per_node: u64 },
    /// Free structure `tag`.
    FreeStruct { tag: u64 },
    /// Allocate a raw data array (BGw): `slot` identifies the shadowed
    /// parent field.
    AllocArray { slot: u64, size: u32, tag: u64 },
    /// Touch an allocated array `tag`: one access per cache line.
    TouchArray { tag: u64, size: u32, write: bool, work_total: u64 },
    /// Free array `tag`.
    FreeArray { tag: u64 },
    /// Thread is finished.
    End,
}

/// A per-thread workload generator.
pub trait Program: Send {
    /// Produce the next application operation. Called again after `End`
    /// must keep returning `End`.
    fn next(&mut self) -> AppOp;
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Number of processors (up to `MAX_CPUS`).
    pub cpus: u32,
    /// Cost model.
    pub params: CostParams,
    /// Maximum busy time accumulated per event batch; smaller values give
    /// finer preemption granularity at more event overhead.
    pub batch_cap_ns: u64,
    /// Timeline sampling period in simulated nanoseconds; `0` disables the
    /// timeline. Long runs stay bounded: once `MAX_TIMELINE_SAMPLES`
    /// samples accumulate, every other sample is dropped and the period
    /// doubles (samples are cumulative, so decimation loses resolution, not
    /// information); the effective period comes back in
    /// [`RunMetrics::sample_interval_ns`].
    pub sample_interval_ns: u64,
    /// Scheduler tie-break policy; `Deterministic` reproduces the retired
    /// monolithic engine byte-for-byte, `Fuzzed(seed)` explores alternative
    /// same-timestamp orders for race discovery.
    pub policy: SchedPolicy,
    /// CPUs per NUMA node; `0` models uniform memory (the paper's 8-CPU
    /// Enterprise machine). Non-zero groups CPUs into nodes of this size
    /// and charges remote-node surcharges on misses (see
    /// `CacheSystem`).
    pub cpus_per_node: u32,
}

/// Default timeline sampling period: one simulated millisecond.
pub(crate) const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 1_000_000;

impl SimConfig {
    /// A configuration with the calibrated cost model, deterministic
    /// scheduling, and uniform memory.
    pub fn new(cpus: u32) -> Self {
        SimConfig {
            cpus,
            params: CostParams::default(),
            batch_cap_ns: 1_000,
            sample_interval_ns: DEFAULT_SAMPLE_INTERVAL_NS,
            policy: SchedPolicy::Deterministic,
            cpus_per_node: 0,
        }
    }
}

/// The simulator. Build with [`Sim::new`], run with [`Sim::run`].
pub struct Sim {
    bus: SystemBus,
    sched: Scheduler,
    components: Vec<Box<dyn Component>>,
}

impl Sim {
    /// Create a simulation with one program per thread.
    pub fn new(
        cfg: SimConfig,
        model: Box<dyn crate::model::AllocModel>,
        programs: Vec<Box<dyn Program>>,
    ) -> Self {
        assert!(cfg.cpus >= 1 && cfg.cpus <= MAX_CPUS, "1..={MAX_CPUS} CPUs supported");
        assert!(!programs.is_empty(), "need at least one thread");
        let mut components: Vec<Box<dyn Component>> =
            (0..cfg.cpus).map(|c| Box::new(Cpu::new(c)) as Box<dyn Component>).collect();
        if cfg.sample_interval_ns > 0 {
            components.push(Box::new(TimelineSampler::new(cfg.cpus, cfg.sample_interval_ns)));
        }
        Sim {
            bus: SystemBus::new(cfg, model, programs),
            sched: Scheduler::new(cfg.policy),
            components,
        }
    }

    /// Run the simulation to completion and return metrics.
    pub fn run(mut self) -> RunMetrics {
        // Seed self-scheduling components (the sampler's first deadline),
        // then the initial thread dispatch.
        for comp in &self.components {
            if let Some(t) = comp.next_tick() {
                let seq = self.bus.next_seq();
                self.sched.push(t, comp.class(), seq, comp.id());
            }
        }
        self.bus.dispatch_idle();
        self.bus.flush_wakes(&mut self.sched);

        while let Some(f) = self.sched.pop() {
            if f.class == EventClass::Sampler
                && self.bus.done_count == self.bus.threads.len()
                && self.sched.normal_pending() == 0
            {
                // Machine quiesced: only sampler deadlines remain, and a
                // sample past the last real event would record nothing new.
                break;
            }
            self.bus.now = f.time;
            if f.class == EventClass::Normal {
                self.bus.events += 1;
            }
            let next = self.components[f.comp as usize].tick(f.time, &mut self.bus);
            self.bus.flush_wakes(&mut self.sched);
            if let Some(t) = next {
                // The self-reschedule draws its submission seq *after* the
                // wakes issued during the tick, matching the retired
                // engine's schedule-on-return order.
                let seq = self.bus.next_seq();
                self.sched.push(t, f.class, seq, f.comp);
            }
        }
        debug_assert_eq!(
            self.bus.done_count,
            self.bus.threads.len(),
            "deadlock: threads unfinished"
        );

        let bus = self.bus;
        let wall_ns = bus.threads.iter().map(|t| t.finished_at).max().unwrap_or(0);
        RunMetrics {
            wall_ns,
            busy_ns: bus.threads.iter().map(|t| t.busy_ns).sum(),
            lock_wait_ns: bus.threads.iter().map(|t| t.wait_ns).sum(),
            failed_locks: bus.failed_locks,
            migrations: bus.threads.iter().map(|t| t.migrations).sum(),
            ctx_switches: bus.ctx_switches,
            events: bus.events,
            cache_hits: bus.cache.hits(),
            mem_misses: bus.cache.mem_misses(),
            coherence_misses: bus.cache.coherence_misses(),
            model_counters: bus
                .model
                .counters()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            sample_interval_ns: bus.sample_interval,
            timeline: bus.timeline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::MAX_TIMELINE_SAMPLES;
    use crate::models::serial::SerialModel;

    /// A program that computes, allocates, touches and frees `iters`
    /// single-node structures.
    struct MiniProgram {
        iters: u32,
        phase: u32,
    }

    impl Program for MiniProgram {
        fn next(&mut self) -> AppOp {
            if self.iters == 0 {
                return AppOp::End;
            }
            let op = match self.phase {
                0 => AppOp::AllocStruct { shape: StructShape::binary_tree(1, 20), tag: 1 },
                1 => AppOp::TouchNodes { tag: 1, write: true, work_per_node: 50 },
                2 => AppOp::FreeStruct { tag: 1 },
                _ => unreachable!(),
            };
            if self.phase == 2 {
                self.phase = 0;
                self.iters -= 1;
            } else {
                self.phase += 1;
            }
            op
        }
    }

    fn run_mini(cpus: u32, threads: usize, iters: u32) -> RunMetrics {
        run_mini_cfg(SimConfig::new(cpus), threads, iters)
    }

    fn run_mini_cfg(cfg: SimConfig, threads: usize, iters: u32) -> RunMetrics {
        let programs: Vec<Box<dyn Program>> =
            (0..threads).map(|_| Box::new(MiniProgram { iters, phase: 0 }) as _).collect();
        let model = Box::new(SerialModel::new());
        Sim::new(cfg, model, programs).run()
    }

    #[test]
    fn single_thread_completes() {
        let m = run_mini(1, 1, 10);
        assert!(m.wall_ns > 0);
        assert_eq!(m.migrations, 0);
        assert_eq!(m.lock_wait_ns, 0, "one thread never waits");
    }

    #[test]
    fn deterministic_runs() {
        let a = run_mini(4, 6, 50);
        let b = run_mini(4, 6, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn serial_model_serializes_threads() {
        // With a single global lock, adding threads on plenty of CPUs must
        // produce lock waiting.
        let m = run_mini(8, 8, 60);
        assert!(m.lock_wait_ns > 0, "expected contention on the global lock");
    }

    #[test]
    fn more_threads_than_cpus_still_finishes() {
        let m = run_mini(2, 9, 20);
        assert!(m.wall_ns > 0);
        assert!(m.ctx_switches >= 9);
    }

    #[test]
    fn timeline_is_cumulative_and_deterministic() {
        let mut cfg = SimConfig::new(4);
        cfg.sample_interval_ns = 1_000;
        let m = run_mini_cfg(cfg, 6, 50);
        assert!(m.timeline.len() >= 2, "run too short to sample: {:?}", m.timeline);
        for w in m.timeline.windows(2) {
            assert!(w[0].t_ns < w[1].t_ns);
            assert!(w[0].busy_ns <= w[1].busy_ns, "cumulative busy time decreased");
            assert!(w[0].lock_wait_ns <= w[1].lock_wait_ns);
            assert!(w[0].coherence_misses <= w[1].coherence_misses);
        }
        let last = m.timeline.last().unwrap();
        assert!(last.t_ns <= m.wall_ns + cfg.sample_interval_ns);
        assert!(last.busy_ns <= m.busy_ns);
        let again = run_mini_cfg(cfg, 6, 50);
        assert_eq!(m, again, "timeline sampling broke determinism");
    }

    #[test]
    fn timeline_disabled_with_zero_interval() {
        let mut cfg = SimConfig::new(4);
        cfg.sample_interval_ns = 0;
        let m = run_mini_cfg(cfg, 4, 30);
        assert!(m.timeline.is_empty());
        assert_eq!(m.sample_interval_ns, 0);
    }

    #[test]
    fn timeline_decimates_instead_of_growing_unbounded() {
        let mut cfg = SimConfig::new(2);
        cfg.sample_interval_ns = 50; // force far more than MAX_TIMELINE_SAMPLES
        let m = run_mini_cfg(cfg, 4, 200);
        assert!(m.timeline.len() < MAX_TIMELINE_SAMPLES);
        assert!(m.timeline.len() >= MAX_TIMELINE_SAMPLES / 4, "decimated too aggressively");
        for w in m.timeline.windows(2) {
            assert!(w[0].t_ns < w[1].t_ns);
        }
        // The effective period doubled at least once and the surviving
        // samples sit on its grid.
        assert!(m.sample_interval_ns > cfg.sample_interval_ns);
        assert_eq!(m.sample_interval_ns % cfg.sample_interval_ns, 0);
        for w in m.timeline.windows(2) {
            assert_eq!(w[1].t_ns - w[0].t_ns, m.sample_interval_ns);
        }
    }

    #[test]
    fn work_conservation_single_thread() {
        // On one CPU with one thread, wall time ≈ busy time (plus context
        // switch overhead).
        let m = run_mini(1, 1, 20);
        assert!(m.wall_ns >= m.busy_ns);
        assert!(m.wall_ns <= m.busy_ns + 100_000, "unexplained idle time");
    }

    #[test]
    fn scales_to_max_cpus() {
        let mut cfg = SimConfig::new(MAX_CPUS);
        cfg.cpus_per_node = 8;
        let m = run_mini_cfg(cfg, MAX_CPUS as usize + 40, 3);
        assert!(m.wall_ns > 0);
        assert!(m.events > 0);
    }

    #[test]
    fn fuzzed_policy_is_reproducible_per_seed() {
        let mut cfg = SimConfig::new(4);
        cfg.policy = SchedPolicy::Fuzzed(7);
        let a = run_mini_cfg(cfg, 6, 40);
        let b = run_mini_cfg(cfg, 6, 40);
        assert_eq!(a, b, "same seed must reproduce the same run");
    }

    #[test]
    fn numa_config_runs_deterministically_and_differs_from_uma() {
        let uma = SimConfig::new(8);
        let mut numa = uma;
        numa.cpus_per_node = 2; // 4 nodes of 2
        let u = run_mini_cfg(uma, 12, 40);
        let a = run_mini_cfg(numa, 12, 40);
        let b = run_mini_cfg(numa, 12, 40);
        assert_eq!(a, b, "NUMA costing broke determinism");
        assert!(a.wall_ns > 0);
        assert_ne!(a.wall_ns, u.wall_ns, "remote surcharges left no trace");
    }
}
