//! The CPU component: runs its dispatched thread's `Program`, expanding
//! application ops through the installed `AllocModel` via the bus.
//!
//! A CPU has no periodic self-tick; it is woken by thread dispatch
//! ([`SystemBus::dispatch_idle`]) and re-schedules itself only while it
//! has a running thread — at batch-cap boundaries, lock retries, and
//! thread completion. Preemption happens at wake boundaries: a thread
//! whose time slice expired while other work is ready goes back to the
//! tail of the ready queue.

use crate::bus::{SystemBus, TState};
use crate::component::{Component, ComponentId};
use crate::model::MicroOp;

/// One simulated processor. Component id == CPU index == dispatch-slot
/// index on the bus.
pub(crate) struct Cpu {
    id: ComponentId,
}

impl Cpu {
    /// The CPU for dispatch slot `id`.
    pub(crate) fn new(id: ComponentId) -> Self {
        Cpu { id }
    }
}

impl Component for Cpu {
    fn id(&self) -> ComponentId {
        self.id
    }

    fn next_tick(&self) -> Option<u64> {
        None // woken by dispatch, never self-seeded
    }

    fn tick(&mut self, now: u64, bus: &mut SystemBus) -> Option<u64> {
        let c = self.id as usize;
        let Some(tid) = bus.cpu_slots[c].running else {
            // Woken with nothing running (thread finished or blocked at
            // this timestamp): try to grab new work.
            bus.dispatch_idle();
            return None;
        };

        // Quantum preemption at wake boundaries.
        if now >= bus.cpu_slots[c].slice_end && !bus.ready.is_empty() {
            bus.threads[tid].state = TState::Ready;
            bus.ready.push_back(tid);
            bus.cpu_slots[c].running = None;
            bus.dispatch_idle();
            return None;
        }

        let mut elapsed: u64 = 0;
        loop {
            if elapsed >= bus.cfg.batch_cap_ns {
                bus.threads[tid].busy_ns += elapsed;
                return Some(now + elapsed);
            }
            let Some(op) = bus.next_micro_op(tid) else {
                // Program finished and nothing pending.
                let t = &mut bus.threads[tid];
                t.busy_ns += elapsed;
                t.state = TState::Done;
                t.finished_at = now + elapsed;
                bus.done_count += 1;
                bus.cpu_slots[c].running = None;
                return Some(now + elapsed); // free the CPU then
            };
            match op {
                MicroOp::Work(d) => elapsed += d,
                MicroOp::Touch { addr, write } => {
                    elapsed += bus.cache.cost(self.id, addr, write, &bus.cfg.params);
                }
                MicroOp::Acquire(l) => {
                    if bus.mutexes.try_acquire(l, tid) {
                        elapsed += bus.cfg.params.lock_ns;
                    } else if elapsed > 0 {
                        // Charge accumulated time first; retry the acquire
                        // when the batch completes.
                        bus.threads[tid].pending.push_front(MicroOp::Acquire(l));
                        bus.threads[tid].busy_ns += elapsed;
                        return Some(now + elapsed);
                    } else {
                        // Block. If the holder was preempted (sits in the
                        // ready queue), boost it to the front — adaptive
                        // mutexes / priority inheritance keep lock-holder
                        // preemption from stalling a full quantum.
                        if let Some(h) = bus.mutexes.holder(l) {
                            if bus.threads[h].state == TState::Ready {
                                if let Some(pos) = bus.ready.iter().position(|&x| x == h) {
                                    bus.ready.remove(pos);
                                    bus.ready.push_front(h);
                                }
                            }
                        }
                        bus.mutexes.enqueue_waiter(l, tid);
                        let t = &mut bus.threads[tid];
                        t.state = TState::Blocked;
                        t.block_start = now;
                        bus.cpu_slots[c].running = None;
                        bus.dispatch_idle();
                        return None;
                    }
                }
                MicroOp::Release(l) => {
                    elapsed += bus.cfg.params.unlock_ns;
                    if let Some(w) = bus.mutexes.release(l, tid) {
                        // FIFO handoff: the waiter owns the lock when it
                        // resumes.
                        let wt = &mut bus.threads[w];
                        wt.wait_ns += (now + elapsed).saturating_sub(wt.block_start);
                        wt.state = TState::Ready;
                        bus.ready.push_back(w);
                        bus.dispatch_idle();
                    }
                }
            }
        }
    }
}
