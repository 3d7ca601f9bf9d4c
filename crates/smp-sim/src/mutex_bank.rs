//! The bank of simulated mutexes with FIFO handoff.
//!
//! Lock identity is just an index ([`LockId`]); the bank grows on first
//! use. Handoff is FIFO: on release the head waiter *owns* the lock when
//! it resumes (no barging), which keeps contention deterministic and
//! starvation-free — the property tests assert both.

use crate::component::ThreadId;
use std::collections::VecDeque;

/// Index of a simulated mutex.
pub(crate) type LockId = usize;

#[derive(Debug, Default)]
struct LockState {
    holder: Option<ThreadId>,
    waiters: VecDeque<ThreadId>,
}

/// All mutexes of one simulated machine.
#[derive(Debug, Default)]
pub(crate) struct MutexBank {
    locks: Vec<LockState>,
}

impl MutexBank {
    /// An empty bank.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, l: LockId) {
        while self.locks.len() <= l {
            self.locks.push(LockState::default());
        }
    }

    /// Current holder of `l`, if any.
    pub(crate) fn holder(&self, l: LockId) -> Option<ThreadId> {
        self.locks.get(l).and_then(|s| s.holder)
    }

    /// Whether `l` is currently held (the try-lock probe the ptmalloc and
    /// SmartHeap models issue through `SimView`).
    pub(crate) fn held(&self, l: LockId) -> bool {
        self.holder(l).is_some()
    }

    /// Acquire `l` for `tid` if it is free. Returns `false` (without
    /// queueing) when the lock is held.
    pub(crate) fn try_acquire(&mut self, l: LockId, tid: ThreadId) -> bool {
        self.ensure(l);
        if self.locks[l].holder.is_none() {
            self.locks[l].holder = Some(tid);
            true
        } else {
            false
        }
    }

    /// Append `tid` to `l`'s FIFO wait queue (caller blocks the thread).
    pub(crate) fn enqueue_waiter(&mut self, l: LockId, tid: ThreadId) {
        self.ensure(l);
        self.locks[l].waiters.push_back(tid);
    }

    /// Release `l`, handing it to the head waiter if one exists. Returns
    /// the woken thread — the lock is already theirs — or `None` when the
    /// lock simply became free.
    pub(crate) fn release(&mut self, l: LockId, tid: ThreadId) -> Option<ThreadId> {
        self.ensure(l);
        debug_assert_eq!(self.locks[l].holder, Some(tid), "release by non-holder");
        if let Some(w) = self.locks[l].waiters.pop_front() {
            self.locks[l].holder = Some(w);
            Some(w)
        } else {
            self.locks[l].holder = None;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_handoff_order() {
        let mut b = MutexBank::new();
        assert!(b.try_acquire(0, 1));
        assert!(!b.try_acquire(0, 2));
        b.enqueue_waiter(0, 2);
        b.enqueue_waiter(0, 3);
        assert_eq!(b.release(0, 1), Some(2));
        assert_eq!(b.holder(0), Some(2), "waiter owns the lock on handoff");
        assert_eq!(b.release(0, 2), Some(3));
        assert_eq!(b.release(0, 3), None);
        assert!(!b.held(0));
    }

    #[test]
    fn bank_grows_on_demand() {
        let mut b = MutexBank::new();
        assert!(!b.held(17));
        assert!(b.try_acquire(17, 4));
        assert!(b.held(17));
    }
}
