//! The magazine depot's lock-free core: Treiber stacks of *whole full
//! magazines*, exchanged in one CAS (Bonwick's depot layer from the
//! Solaris slab allocator).
//!
//! A [`DepotNode`] is a parked magazine: the `(head, len)` of an intrusive
//! slot list ([`crate::pool_box::SlotList`]) plus the trim epoch it was
//! parked under. Nodes live on per-shard [`MagStack`]s; a full thread
//! magazine moves its two list words into a node shell and pushes it, an
//! empty one pops a node and takes the two words back — O(1) regardless
//! of magazine capacity, and no object is touched either way.
//!
//! Two classic lock-free hazards, and how this module sidesteps them:
//!
//! * **ABA**: the stack head packs a 16-bit version tag into the pointer's
//!   unused high bits (x86-64/AArch64 use 48-bit virtual addresses; the
//!   push path `debug_assert`s this). Every successful CAS bumps the tag,
//!   so a head that was popped and re-pushed between a reader's load and
//!   its CAS no longer compares equal.
//! * **Use-after-free on `node.next`**: nodes are *type-stable* — once
//!   allocated for a depot they are never freed while the depot lives.
//!   Emptied nodes recycle through a free-node stack; every node ever
//!   allocated is remembered in a registry and freed only when the depot
//!   (sole owner by then) drops. A racing `pop` may read `next` from a
//!   node another thread already took, but the read hits live memory and
//!   the stale value is rejected by the tag CAS.

use crate::pool_box::SlotHeader;
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const TAG_SHIFT: u32 = 48;
const PTR_MASK: u64 = (1 << TAG_SHIFT) - 1;
const TAG_ONE: u64 = 1 << TAG_SHIFT;

/// One parked magazine (or a recycled, empty shell awaiting reuse). Not
/// generic: the depot that owns the node knows the slots' type.
#[derive(Debug)]
pub(crate) struct DepotNode {
    /// The parked list's head and length. Null/0 iff the node sits on the
    /// free-node stack or rides along as a thread's spare shell.
    pub(crate) head: *mut SlotHeader,
    pub(crate) len: usize,
    /// [`Depot::trim_epoch`](crate::magazine::Depot) value at park time; a
    /// mismatch on pop means a trim intervened and the contents must drop.
    pub(crate) epoch: u64,
    /// Intrusive link, written only while the owner prepares a push.
    next: AtomicUsize,
}

impl DepotNode {
    pub(crate) fn new() -> Self {
        DepotNode { head: ptr::null_mut(), len: 0, epoch: 0, next: AtomicUsize::new(0) }
    }
}

/// A Treiber stack of [`DepotNode`]s with a version-tagged head.
#[derive(Debug, Default)]
pub(crate) struct MagStack {
    /// Bits 0..48: node address (0 = empty). Bits 48..64: version tag.
    head: AtomicU64,
}

impl MagStack {
    pub(crate) fn new() -> Self {
        MagStack::default()
    }

    /// Push a node the caller owns. Lock-free; never fails.
    pub(crate) fn push(&self, node: NonNull<DepotNode>) {
        let ptr_bits = node.as_ptr() as u64;
        debug_assert_eq!(ptr_bits & !PTR_MASK, 0, "node address exceeds 48 bits");
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // We still own the node: plain store of the link is fine.
            unsafe { node.as_ref() }.next.store((head & PTR_MASK) as usize, Ordering::Relaxed);
            let tagged = ptr_bits | (head & !PTR_MASK).wrapping_add(TAG_ONE);
            match self.head.compare_exchange_weak(
                head,
                tagged,
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    /// Pop the top node, taking ownership of it. `None` when empty.
    pub(crate) fn pop(&self) -> Option<NonNull<DepotNode>> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let node = NonNull::new((head & PTR_MASK) as *mut DepotNode)?;
            // Nodes are type-stable, so this read cannot fault even if a
            // rival pop already won the node; the tag CAS below rejects us.
            let next = unsafe { node.as_ref() }.next.load(Ordering::Relaxed) as u64;
            let tagged = (next & PTR_MASK) | (head & !PTR_MASK).wrapping_add(TAG_ONE);
            match self.head.compare_exchange_weak(head, tagged, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(node),
                Err(current) => head = current,
            }
        }
    }

    /// Cheap emptiness probe (one relaxed load; may race, callers only use
    /// it to skip work that a miss would redo anyway).
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.head.load(Ordering::Relaxed) & PTR_MASK == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A node shell whose `len` word carries a test value.
    fn leak_node(v: usize) -> NonNull<DepotNode> {
        let mut node = DepotNode::new();
        node.len = v;
        NonNull::from(Box::leak(Box::new(node)))
    }

    unsafe fn free_node(n: NonNull<DepotNode>) -> usize {
        unsafe { Box::from_raw(n.as_ptr()) }.len
    }

    #[test]
    fn lifo_order_and_empty() {
        let s = MagStack::new();
        assert!(s.pop().is_none());
        assert!(s.is_empty_hint());
        s.push(leak_node(1));
        s.push(leak_node(2));
        assert!(!s.is_empty_hint());
        let first = s.pop().unwrap();
        let second = s.pop().unwrap();
        assert!(s.pop().is_none());
        assert_eq!(unsafe { (free_node(first), free_node(second)) }, (2, 1), "LIFO");
    }

    #[test]
    fn concurrent_push_pop_conserves_nodes() {
        let s = Arc::new(MagStack::new());
        let threads = 4;
        let per = 200;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    for i in 0..per {
                        s.push(leak_node(t * 10_000 + i));
                        if let Some(n) = s.pop() {
                            got.push(n.as_ptr() as usize); // NonNull is !Send
                        }
                    }
                    got
                })
            })
            .collect();
        let mut values = Vec::new();
        for h in handles {
            for addr in h.join().unwrap() {
                let n = NonNull::new(addr as *mut DepotNode).unwrap();
                values.push(unsafe { free_node(n) });
            }
        }
        while let Some(n) = s.pop() {
            values.push(unsafe { free_node(n) });
        }
        values.sort_unstable();
        let initial = values.len();
        values.dedup();
        assert_eq!(initial, values.len(), "a node was popped twice");
        assert_eq!(initial, threads * per, "a node was lost");
    }
}
