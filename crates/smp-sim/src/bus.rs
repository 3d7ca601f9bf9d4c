//! The system bus: every piece of simulated-machine state that components
//! share, plus the wake-request outbox that turns component interactions
//! into scheduler events.
//!
//! A [`Component`](crate::component::Component) never touches the event
//! heap directly. During a tick it mutates bus state (threads, ready
//! queue, [`MutexBank`], [`CacheSystem`]) and calls [`SystemBus::wake`]
//! to request other components' wake-ups; the engine drains the outbox
//! into the [`Scheduler`](crate::sched::Scheduler) after the tick.
//! `wake` stamps each request with the global submission counter *at call
//! time*, so under the `Deterministic` policy the event order is exactly
//! the retired monolithic engine's `(time, seq)` order.

use crate::cache::CacheSystem;
use crate::component::{ComponentId, ThreadId};
use crate::engine::{AppOp, Program, SimConfig};
use crate::metrics::IntervalSample;
use crate::model::{AllocModel, MicroOp, SimView};
use crate::mutex_bank::{LockId, MutexBank};
use crate::sched::{EventClass, Scheduler};
use std::collections::{HashMap, VecDeque};

/// Thread run-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    Ready,
    Running,
    Blocked,
    Done,
}

pub(crate) struct ThreadCtx {
    pub(crate) program: Box<dyn Program>,
    pub(crate) pending: VecDeque<MicroOp>,
    /// tag → (model handle, node addresses, node size).
    pub(crate) structs: HashMap<u64, (u64, Vec<u64>, u32)>,
    /// tag → (slot, model handle, base address).
    pub(crate) arrays: HashMap<u64, (u64, u64, u64)>,
    pub(crate) state: TState,
    pub(crate) last_cpu: Option<u32>,
    pub(crate) block_start: u64,
    pub(crate) wait_ns: u64,
    pub(crate) busy_ns: u64,
    pub(crate) migrations: u64,
    pub(crate) finished_at: u64,
}

/// Per-CPU dispatch slot (the scheduling state of one [`Cpu`]
/// component, kept on the bus because `dispatch_idle` assigns across all
/// CPUs at once).
///
/// [`Cpu`]: crate::components::Cpu
pub(crate) struct CpuSlot {
    pub(crate) running: Option<ThreadId>,
    /// Thread that most recently ran here; re-dispatching it is free
    /// (models an adaptive mutex spinning on an otherwise idle CPU
    /// instead of a full context switch).
    pub(crate) last_tid: Option<ThreadId>,
    pub(crate) slice_end: u64,
}

/// A queued wake request: `comp` should tick at `time`.
struct Wake {
    time: u64,
    class: EventClass,
    seq: u64,
    comp: ComponentId,
}

struct BusView<'a> {
    mutexes: &'a MutexBank,
    failed_locks: &'a mut u64,
}

impl SimView for BusView<'_> {
    fn lock_held(&self, lock: LockId) -> bool {
        self.mutexes.held(lock)
    }

    fn record_failed_lock(&mut self) {
        *self.failed_locks += 1;
    }
}

/// Shared state of the simulated machine.
pub(crate) struct SystemBus {
    pub(crate) cfg: SimConfig,
    pub(crate) threads: Vec<ThreadCtx>,
    pub(crate) cpu_slots: Vec<CpuSlot>,
    pub(crate) ready: VecDeque<ThreadId>,
    pub(crate) mutexes: MutexBank,
    pub(crate) cache: CacheSystem,
    pub(crate) model: Box<dyn AllocModel>,
    /// Simulated time of the firing currently being processed.
    pub(crate) now: u64,
    pub(crate) failed_locks: u64,
    pub(crate) ctx_switches: u64,
    /// `Normal`-class firings processed so far (the engine-throughput
    /// numerator reported as `RunMetrics::events`).
    pub(crate) events: u64,
    pub(crate) done_count: usize,
    /// Scratch buffer the model appends micro-ops into; drained into the
    /// issuing thread's pending queue after every expansion. One persistent
    /// allocation instead of one per application op.
    pub(crate) ops_buf: Vec<MicroOp>,
    /// Recycled node-address buffers: structures pass their `Vec<u64>` back
    /// here on free, the next allocation reuses it — the paper's own
    /// parked-structure trick applied to the simulator's bookkeeping.
    pub(crate) addr_pool: Vec<Vec<u64>>,
    /// Cumulative samples taken so far (see `SimConfig::sample_interval_ns`).
    pub(crate) timeline: Vec<IntervalSample>,
    /// Current effective sampling period (doubles on decimation; owned
    /// here rather than by the sampler so metrics assembly can read it).
    pub(crate) sample_interval: u64,
    /// Global submission counter for scheduler entries.
    seq: u64,
    /// Wake requests accumulated during the current tick.
    outbox: Vec<Wake>,
}

impl SystemBus {
    pub(crate) fn new(
        cfg: SimConfig,
        model: Box<dyn AllocModel>,
        programs: Vec<Box<dyn Program>>,
    ) -> Self {
        let threads = programs
            .into_iter()
            .map(|p| ThreadCtx {
                program: p,
                // Sized for a deep structure's expansion so the queue does
                // not regrow during the measured run.
                pending: VecDeque::with_capacity(256),
                structs: HashMap::new(),
                arrays: HashMap::new(),
                state: TState::Ready,
                last_cpu: None,
                block_start: 0,
                wait_ns: 0,
                busy_ns: 0,
                migrations: 0,
                finished_at: 0,
            })
            .collect::<Vec<_>>();
        let n = threads.len();
        SystemBus {
            cpu_slots: (0..cfg.cpus)
                .map(|_| CpuSlot { running: None, last_tid: None, slice_end: 0 })
                .collect(),
            threads,
            ready: (0..n).collect(),
            mutexes: MutexBank::new(),
            cache: CacheSystem::new(cfg.cpus_per_node),
            model,
            now: 0,
            failed_locks: 0,
            ctx_switches: 0,
            events: 0,
            done_count: 0,
            ops_buf: Vec::with_capacity(256),
            addr_pool: Vec::new(),
            timeline: Vec::new(),
            sample_interval: cfg.sample_interval_ns,
            seq: 0,
            outbox: Vec::new(),
            cfg,
        }
    }

    /// Draw the next submission-counter value (the deterministic
    /// tie-break for a scheduler entry).
    pub(crate) fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// Request that component `comp` tick at `time`. The submission
    /// counter is stamped *now*, preserving the order wake requests were
    /// issued in across the tick.
    pub(crate) fn wake(&mut self, comp: ComponentId, time: u64) {
        let seq = self.next_seq();
        self.outbox.push(Wake { time, class: EventClass::Normal, seq, comp });
    }

    /// Move accumulated wake requests onto the event heap.
    pub(crate) fn flush_wakes(&mut self, sched: &mut Scheduler) {
        for w in self.outbox.drain(..) {
            sched.push(w.time, w.class, w.seq, w.comp);
        }
    }

    /// Assign ready threads to idle CPUs (CPU component ids equal their
    /// slot index, so the wake target is the slot number).
    pub(crate) fn dispatch_idle(&mut self) {
        for c in 0..self.cpu_slots.len() {
            if self.cpu_slots[c].running.is_some() {
                continue;
            }
            let Some(tid) = self.ready.pop_front() else {
                break;
            };
            let t = &mut self.threads[tid];
            debug_assert_eq!(t.state, TState::Ready);
            t.state = TState::Running;
            if let Some(prev) = t.last_cpu {
                if prev != c as u32 {
                    t.migrations += 1;
                }
            }
            t.last_cpu = Some(c as u32);
            let resumed_in_place = self.cpu_slots[c].last_tid == Some(tid);
            self.cpu_slots[c].running = Some(tid);
            self.cpu_slots[c].last_tid = Some(tid);
            self.cpu_slots[c].slice_end = self.now + self.cfg.params.quantum_ns;
            let start = if resumed_in_place {
                // Same thread back on its own idle CPU: no switch cost.
                self.now
            } else {
                self.ctx_switches += 1;
                self.now + self.cfg.params.ctx_switch_ns
            };
            self.wake(c as ComponentId, start);
        }
    }

    /// Pop the next micro-op for a thread, expanding the program through
    /// the model as needed. `None` means the thread is finished.
    pub(crate) fn next_micro_op(&mut self, tid: ThreadId) -> Option<MicroOp> {
        loop {
            if let Some(op) = self.threads[tid].pending.pop_front() {
                return Some(op);
            }
            // Expand the next application op.
            let app = self.threads[tid].program.next();
            let mut view = BusView { mutexes: &self.mutexes, failed_locks: &mut self.failed_locks };
            match app {
                AppOp::Compute(d) => return Some(MicroOp::Work(d)),
                AppOp::AllocStruct { shape, tag } => {
                    let mut addrs = self.addr_pool.pop().unwrap_or_default();
                    let handle = self.model.alloc_structure(
                        &mut view,
                        tid,
                        &shape,
                        &mut self.ops_buf,
                        &mut addrs,
                    );
                    let t = &mut self.threads[tid];
                    t.structs.insert(tag, (handle, addrs, shape.node_size));
                    t.pending.extend(self.ops_buf.drain(..));
                }
                AppOp::TouchNodes { tag, write, work_per_node } => {
                    let t = &mut self.threads[tid];
                    if let Some((_, addrs, node_size)) = t.structs.get(&tag) {
                        let size = (*node_size).max(1) as u64;
                        for &a in addrs {
                            // Touch the node's first and (if it straddles a
                            // line boundary) last byte — small heap blocks
                            // sharing a line with a neighbour is exactly how
                            // false sharing arises.
                            t.pending.push_back(MicroOp::Touch { addr: a, write });
                            let last = a + size - 1;
                            if last / crate::params::arch::CACHE_LINE
                                != a / crate::params::arch::CACHE_LINE
                            {
                                t.pending.push_back(MicroOp::Touch { addr: last, write });
                            }
                            if work_per_node > 0 {
                                t.pending.push_back(MicroOp::Work(work_per_node));
                            }
                        }
                    }
                }
                AppOp::FreeStruct { tag } => {
                    let entry = self.threads[tid].structs.remove(&tag);
                    if let Some((handle, mut addrs, _)) = entry {
                        self.model.free_structure(&mut view, tid, handle, &mut self.ops_buf);
                        self.threads[tid].pending.extend(self.ops_buf.drain(..));
                        addrs.clear();
                        self.addr_pool.push(addrs);
                    }
                }
                AppOp::AllocArray { slot, size, tag } => {
                    let mut scratch = self.addr_pool.pop().unwrap_or_default();
                    let (handle, addr) = self.model.alloc_array(
                        &mut view,
                        tid,
                        slot,
                        size,
                        &mut self.ops_buf,
                        &mut scratch,
                    );
                    scratch.clear();
                    self.addr_pool.push(scratch);
                    let t = &mut self.threads[tid];
                    t.arrays.insert(tag, (slot, handle, addr));
                    t.pending.extend(self.ops_buf.drain(..));
                }
                AppOp::TouchArray { tag, size, write, work_total } => {
                    let t = &mut self.threads[tid];
                    if let Some(&(_, _, base)) = t.arrays.get(&tag) {
                        let lines = (size as u64).div_ceil(crate::params::arch::CACHE_LINE).max(1);
                        let per_line_work = work_total / lines;
                        for i in 0..lines {
                            t.pending.push_back(MicroOp::Touch {
                                addr: base + i * crate::params::arch::CACHE_LINE,
                                write,
                            });
                            if per_line_work > 0 {
                                t.pending.push_back(MicroOp::Work(per_line_work));
                            }
                        }
                    }
                }
                AppOp::FreeArray { tag } => {
                    let entry = self.threads[tid].arrays.remove(&tag);
                    if let Some((slot, handle, _)) = entry {
                        self.model.free_array(&mut view, tid, slot, handle, &mut self.ops_buf);
                        self.threads[tid].pending.extend(self.ops_buf.drain(..));
                    }
                }
                AppOp::End => return None,
            }
        }
    }
}
