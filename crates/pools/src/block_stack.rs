//! The runtime's one lock-free stack: a version-tagged Treiber stack of
//! stamped *segments*, a block's first word its link. The size-class
//! engine keeps one per class ([`crate::global`]); a magazine-mode typed
//! pool keeps two ([`crate::magazine`]: parked lists and empty node
//! shells, each a one-block segment).
//!
//! * **ABA**: the head packs a 16-bit version tag into the pointer's unused
//!   high bits (48-bit virtual addresses; pushes `debug_assert` it), and
//!   every successful CAS bumps it, so a head popped and re-pushed between
//!   a reader's load and its CAS no longer compares equal.
//! * **Use-after-free on a link**: blocks are *type-stable*. Slab memory is
//!   never unmapped (retired pages read zeros) and a pool frees its node
//!   shells only when it drops, so a pop that read a segment a rival took
//!   reads live memory, and the tag CAS rejects what it read (DESIGN.md §8).

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

// Tagged-pointer packing: 48-bit address, 16-bit version tag bumped by
// every successful CAS. A stamp packs a segment's count where the tag
// goes.
const TAG_SHIFT: u32 = 48;
const PTR_MASK: u64 = (1 << TAG_SHIFT) - 1;
const TAG_ONE: u64 = 1 << TAG_SHIFT;

/// A Treiber stack of raw blocks; the link is the block's first word.
/// Every push is a chain stamped by [`seg_stamp`], so the stack is a
/// stack of *segments*, each tail linking to the next segment's head.
#[derive(Debug)]
pub(crate) struct BlockStack {
    head: AtomicU64,
}

impl BlockStack {
    pub(crate) const fn new() -> Self {
        BlockStack { head: AtomicU64::new(0) }
    }

    #[inline]
    unsafe fn link_of(block: *mut u8) -> &'static AtomicUsize {
        // Blocks are >= 16 bytes and 8-aligned; the first word holds the
        // intrusive link while the block is on a stack.
        unsafe { &*(block as *const AtomicUsize) }
    }

    /// Push a pre-linked chain `head..=tail` (interior links already set,
    /// only `tail`'s link is written here). Lock-free, single CAS loop.
    pub(crate) fn push_chain(&self, chain_head: *mut u8, chain_tail: *mut u8) {
        let ptr_bits = chain_head as u64;
        debug_assert_eq!(ptr_bits & !PTR_MASK, 0, "block address exceeds 48 bits");
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // The chain is still ours: plain store of the tail link.
            unsafe { Self::link_of(chain_tail) }
                .store((head & PTR_MASK) as usize, Ordering::Relaxed);
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

    /// Push one block the caller owns as a one-block segment.
    pub(crate) fn push_block(&self, block: *mut u8) {
        seg_stamp(block, block, 1);
        self.push_chain(block, block);
    }

    /// Pop the top *segment*: `(head, tail, count)` with one CAS, no block
    /// in between touched. `tail`'s link still points into the stack.
    ///
    /// The stamp is read before anything is dereferenced, and the head is
    /// then re-loaded: once a rival pops this segment and hands its head
    /// out, the stamp word is user data. An unchanged tagged head means no
    /// pop intervened (every CAS bumps the tag), so the stamp read is the
    /// pusher's (DESIGN.md §8).
    pub(crate) fn pop_segment(&self) -> Option<(*mut u8, *mut u8, usize)> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let block = (head & PTR_MASK) as *mut u8;
            if block.is_null() {
                return None;
            }
            let (tail, n) = seg_read(block);
            fence(Ordering::Acquire);
            let now = self.head.load(Ordering::Relaxed);
            if now != head {
                head = now;
                continue;
            }
            // SAFETY: the re-check proved the stamp the pusher's, so
            // `tail` is a type-stable block, readable even if a rival wins
            // the segment from here on.
            let next = unsafe { Self::link_of(tail) }.load(Ordering::Relaxed) as u64;
            let tagged = (next & PTR_MASK) | (head & !PTR_MASK).wrapping_add(TAG_ONE);
            match self.head.compare_exchange_weak(head, tagged, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some((block, tail, n)),
                Err(current) => head = current,
            }
        }
    }

    /// Detach the entire stack — the reclaim sweep's drain. Returns the
    /// old chain head (null when empty); the chain is fully linked
    /// because pushers write the link *before* their publishing CAS.
    /// A CAS loop rather than a plain `swap` so the version tag is
    /// *preserved and bumped*, never reset: slab retirement depends on a
    /// drained block's old (ptr, tag) pair staying dead forever, so a
    /// reader whose pop straddled the drain can never win a stale CAS
    /// against a block that has since been retired and recarved.
    pub(crate) fn take_all(&self) -> *mut u8 {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            if head & PTR_MASK == 0 {
                return std::ptr::null_mut();
            }
            let empty = (head & !PTR_MASK).wrapping_add(TAG_ONE);
            match self.head.compare_exchange_weak(head, empty, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return (head & PTR_MASK) as *mut u8,
                Err(current) => head = current,
            }
        }
    }

    /// Cheap emptiness probe (one relaxed load; may race, callers only use
    /// it to skip work that a miss would redo anyway).
    #[inline]
    pub(crate) fn is_empty_hint(&self) -> bool {
        self.head.load(Ordering::Relaxed) & PTR_MASK == 0
    }
}

/// Segment metadata: a segment head's second word packs the tail pointer
/// (low 48 bits) with the block count (high 16), written before the
/// publishing CAS. This keeps a pop one CAS that walks no block.
#[inline]
pub(crate) fn seg_stamp(head: *mut u8, tail: *mut u8, count: u32) {
    debug_assert!(count > 0 && (count as u64) < (1 << (64 - TAG_SHIFT)));
    let packed = (tail as u64 & PTR_MASK) | ((count as u64) << TAG_SHIFT);
    // SAFETY: blocks are at least 16 bytes and 8-aligned, and `head` is a
    // block the caller owns. Relaxed: the push CAS (release) publishes the
    // stamp with the chain.
    unsafe { &*(head.add(8) as *const AtomicU64) }.store(packed, Ordering::Relaxed);
}

/// The (tail, count) a [`seg_stamp`] left in a segment head.
#[inline]
fn seg_read(head: *mut u8) -> (*mut u8, usize) {
    // SAFETY: as in `seg_stamp`; a stale `head` is still a type-stable
    // block, and [`BlockStack::pop_segment`] discards what it read.
    let packed = unsafe { &*(head.add(8) as *const AtomicU64) }.load(Ordering::Relaxed);
    ((packed & PTR_MASK) as *mut u8, (packed >> TAG_SHIFT) as usize)
}
