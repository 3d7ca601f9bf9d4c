//! [`PoolBox`]: the owned-object handle all pools trade in — one pointer
//! to a *slot*, one block of the size-class engine ([`crate::global`])
//! with a header word in front of the value.
//!
//! ```text
//! slot:  [ link | (canary | generation) | value: T ]
//! ```
//!
//! * `link` is the free-list link while the slot is parked. Every free
//!   list in the typed pools — a thread magazine, a parked depot list,
//!   direct mode's shard free list — is an intrusive [`SlotList`] threaded
//!   through it, so parking a structure never writes into the structure
//!   and its internal links survive reuse (the paper's §1 free list).
//! * Every slot comes from [`PoolBox::new`], which takes one engine block
//!   sized for the slot, and goes back to the engine when its handle
//!   drops. Parking and reviving a slot never touch the engine, and a
//!   `PoolBox` that outlives its pool frees its block exactly once —
//!   whether it dies by `trim`, an epoch invalidation, a population cap or
//!   plain `drop`. A slot too large or too aligned for a size class passes
//!   through to the system allocator, as every engine request does.
//! * Guarded builds (debug, or the `fault-inject` feature) add a canary
//!   keyed on the slot address and a generation word that holds only the
//!   live bit ([`guard::GEN_LIVE`]), so a double release panics
//!   before the destructor runs twice. Release builds carry the link word
//!   only.

use crate::global::{raw_alloc, raw_dealloc};
use std::alloc::{handle_alloc_error, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};

#[cfg(any(debug_assertions, feature = "fault-inject"))]
use crate::guard;

/// The words in front of every pooled value.
#[repr(C)]
pub(crate) struct SlotHeader {
    /// Next slot of the free list this slot is parked on (null at the
    /// tail). Meaningless while the slot is held by a caller.
    link: *mut SlotHeader,
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    canary: u64,
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    generation: u64,
}

/// A slot: the header, then the value. Never built as a whole; the paths
/// write its fields through raw pointers.
#[repr(C)]
struct Slot<T> {
    header: SlotHeader,
    value: T,
}

/// Arm a fresh slot's guard words: its canary, and a generation word
/// holding just the live bit.
///
/// # Safety
/// `slot` points at a slot header the caller owns.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
unsafe fn arm_guard(slot: *mut SlotHeader) {
    unsafe {
        ptr::addr_of_mut!((*slot).canary).write(guard::canary_for(slot as usize));
        ptr::addr_of_mut!((*slot).generation).write(guard::GEN_LIVE);
    }
}

/// Validate a guarded slot's canary and liveness before its drop,
/// panicking on corruption or on a dead slot.
///
/// # Safety
/// `slot` points at a slot header whose memory is still mapped.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
unsafe fn check_live(slot: *mut SlotHeader) {
    let canary = unsafe { ptr::addr_of!((*slot).canary).read() };
    assert_eq!(
        canary,
        guard::canary_for(slot as usize),
        "pool guard: slot canary clobbered at drop (heap corruption near {slot:p})",
    );
    let generation = unsafe { ptr::addr_of!((*slot).generation).read() };
    assert!(
        generation & guard::GEN_LIVE != 0,
        "pool guard: drop on a dead slot at {slot:p} \
         (double release, or use of a stale handle after reuse)",
    );
}

/// Read a guarded slot's generation word (tests of the guard machinery).
///
/// # Safety
/// The slot's memory is still mapped: a live slot, or an engine block
/// freed since.
#[cfg(all(test, any(debug_assertions, feature = "fault-inject")))]
pub(crate) unsafe fn slot_generation<T>(b: &PoolBox<T>) -> u64 {
    unsafe { ptr::addr_of!((*b.header()).generation).read() }
}

/// An owned pooled object: `Box`-like, one pointer wide, living in one
/// size-class engine block. Drop runs the destructor in place, then gives
/// the block back to the engine.
pub struct PoolBox<T> {
    slot: NonNull<Slot<T>>,
    _owns: PhantomData<T>,
}

// Same rules as Box<T>: owning a T across threads needs T: Send; sharing
// references needs T: Sync.
unsafe impl<T: Send> Send for PoolBox<T> {}
unsafe impl<T: Sync> Sync for PoolBox<T> {}

impl<T> PoolBox<T> {
    /// Put a fresh value in a slot of its own: one size-class engine
    /// block.
    pub fn new(value: T) -> Self {
        let layout = Layout::new::<Slot<T>>();
        let Some(slot) = NonNull::new(raw_alloc(layout).cast::<Slot<T>>()) else {
            handle_alloc_error(layout)
        };
        let header = slot.as_ptr().cast::<SlotHeader>();
        // SAFETY: the block is fresh, ours and laid out for a `Slot<T>`.
        unsafe {
            ptr::addr_of_mut!((*header).link).write(ptr::null_mut());
            #[cfg(any(debug_assertions, feature = "fault-inject"))]
            arm_guard(header);
            ptr::addr_of_mut!((*slot.as_ptr()).value).write(value);
        }
        PoolBox { slot, _owns: PhantomData }
    }

    fn header(&self) -> *mut SlotHeader {
        self.slot.as_ptr().cast()
    }

    /// Give up the handle without dropping the value: the slot becomes a
    /// free-list node (see [`SlotList`]).
    #[inline(always)]
    fn into_header(self) -> *mut SlotHeader {
        ManuallyDrop::new(self).header()
    }

    /// Take a slot back from a free list.
    ///
    /// # Safety
    /// `header` came from [`PoolBox::into_header`] of a `PoolBox<T>` and
    /// nothing else owns it.
    #[inline(always)]
    unsafe fn from_header(header: *mut SlotHeader) -> Self {
        PoolBox { slot: unsafe { NonNull::new_unchecked(header.cast()) }, _owns: PhantomData }
    }
}

impl<T> From<Box<T>> for PoolBox<T> {
    /// Move a boxed value into a slot of its own (cold paths and the
    /// malloc-style backends only: it costs an allocation and a copy).
    fn from(b: Box<T>) -> Self {
        PoolBox::new(*b)
    }
}

impl<T> Deref for PoolBox<T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        unsafe { &(*self.slot.as_ptr()).value }
    }
}

impl<T> DerefMut for PoolBox<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        unsafe { &mut (*self.slot.as_ptr()).value }
    }
}

impl<T> Drop for PoolBox<T> {
    // Out of line: a slot is dropped only on a pool's cold paths (trims,
    // capped parks, stale magazines), and inlined into `acquire_cold` it
    // reshapes the depot swap path there, which slowed `typed-burst`
    // (EXPERIMENTS.md, "One central stack per size class").
    #[inline(never)]
    fn drop(&mut self) {
        /// Frees the slot once the value's destructor is done, also when
        /// that destructor panics (as `Box` does).
        struct FreeSlot<T>(*mut SlotHeader, PhantomData<T>);

        impl<T> Drop for FreeSlot<T> {
            fn drop(&mut self) {
                // SAFETY: the guard holds the dropping handle's slot, which
                // nothing else owns, and runs once, after the value is gone;
                // `PoolBox::new` took the block with this layout.
                unsafe { raw_dealloc(self.0.cast(), Layout::new::<Slot<T>>()) };
            }
        }

        let header = self.header();
        // Guarded builds verify the canary and the live bit *before*
        // running the destructor: a double release panics here instead of
        // double-dropping the value.
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        unsafe {
            check_live(header);
            ptr::addr_of_mut!((*header).generation).write(0);
        }
        let _free = FreeSlot::<T>(header, PhantomData);
        unsafe { ptr::drop_in_place(ptr::addr_of_mut!((*self.slot.as_ptr()).value)) };
    }
}

impl<T: fmt::Debug> fmt::Debug for PoolBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        T::fmt(self, f)
    }
}

impl<T: fmt::Display> fmt::Display for PoolBox<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        T::fmt(self, f)
    }
}

impl<T> AsRef<T> for PoolBox<T> {
    fn as_ref(&self) -> &T {
        self
    }
}

impl<T> AsMut<T> for PoolBox<T> {
    fn as_mut(&mut self) -> &mut T {
        self
    }
}

/// An intrusive LIFO of parked objects threaded through their slots'
/// `link` words: `(head, len)`, nothing else. Push and pop are a few
/// plain loads and stores; moving a whole list is moving two words.
/// Dropping a list drops every object on it.
pub(crate) struct SlotList<T> {
    head: *mut SlotHeader,
    len: usize,
    _owns: PhantomData<PoolBox<T>>,
}

// A list owns its objects, exactly like a `Vec<PoolBox<T>>` would.
unsafe impl<T: Send> Send for SlotList<T> {}

impl<T> Default for SlotList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotList<T> {
    pub(crate) const fn new() -> Self {
        SlotList { head: ptr::null_mut(), len: 0, _owns: PhantomData }
    }

    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_null()
    }

    /// Park `obj` on top.
    #[inline(always)]
    pub(crate) fn push(&mut self, obj: PoolBox<T>) {
        let header = obj.into_header();
        // SAFETY: we own the slot now; its link word is ours to write.
        unsafe { ptr::addr_of_mut!((*header).link).write(self.head) };
        self.head = header;
        self.len += 1;
    }

    /// Take the top object (the most recently parked).
    #[inline(always)]
    pub(crate) fn pop(&mut self) -> Option<PoolBox<T>> {
        let header = self.head;
        if header.is_null() {
            return None;
        }
        // SAFETY: a non-null head is a slot this list owns.
        self.head = unsafe { ptr::addr_of!((*header).link).read() };
        self.len -= 1;
        Some(unsafe { PoolBox::from_header(header) })
    }

    /// Keep the top `keep` objects and return the rest (the older end).
    pub(crate) fn split_off(&mut self, keep: usize) -> SlotList<T> {
        if keep >= self.len {
            return SlotList::new();
        }
        if keep == 0 {
            return mem::take(self);
        }
        let mut tail = self.head;
        for _ in 1..keep {
            tail = unsafe { (*tail).link };
        }
        // SAFETY: `tail` is the keep-th slot of this list.
        let rest = unsafe { mem::replace(&mut (*tail).link, ptr::null_mut()) };
        let rest_len = self.len - keep;
        self.len = keep;
        SlotList { head: rest, len: rest_len, _owns: PhantomData }
    }

    /// Put `top` on top of this list, keeping its order: a move when this
    /// list is empty, a walk of `top` otherwise.
    pub(crate) fn append(&mut self, top: SlotList<T>) {
        if self.is_empty() {
            // Dropping the empty list frees nothing.
            *self = top;
            return;
        }
        let (head, len) = top.into_raw();
        if head.is_null() {
            return;
        }
        let mut tail = head;
        // SAFETY: every slot of `top` is ours; the walk stops at its tail.
        unsafe {
            while !(*tail).link.is_null() {
                tail = (*tail).link;
            }
            (*tail).link = self.head;
        }
        self.head = head;
        self.len += len;
    }

    /// Give up the list as its raw `(head, len)`, for a depot node.
    pub(crate) fn into_raw(self) -> (*mut SlotHeader, usize) {
        let list = ManuallyDrop::new(self);
        (list.head, list.len)
    }

    /// Take a list back from [`SlotList::into_raw`].
    ///
    /// # Safety
    /// `(head, len)` came from `into_raw` of a `SlotList<T>` and nothing
    /// else owns it.
    pub(crate) unsafe fn from_raw(head: *mut SlotHeader, len: usize) -> Self {
        SlotList { head, len, _owns: PhantomData }
    }
}

impl<T> Drop for SlotList<T> {
    fn drop(&mut self) {
        // Unlink first, so a panicking destructor leaves a consistent list.
        while let Some(obj) = self.pop() {
            drop(obj);
        }
    }
}

impl<T> fmt::Debug for SlotList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlotList").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_roundtrip() {
        let mut b = PoolBox::new(41u64);
        *b += 1;
        assert_eq!(*b, 42);
        let from_box: PoolBox<u64> = Box::new(7).into();
        assert_eq!(*from_box, 7);
        // A zero-sized value takes a header-only slot.
        let _unit = PoolBox::new(());
    }

    #[test]
    fn handle_is_one_pointer() {
        assert_eq!(mem::size_of::<PoolBox<[u8; 64]>>(), mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Option<PoolBox<u8>>>(), mem::size_of::<usize>());
        // One header word (the link) in front of the value; guarded builds
        // add the canary and generation words.
        let header = if cfg!(any(debug_assertions, feature = "fault-inject")) { 24 } else { 8 };
        assert_eq!(mem::size_of::<Slot<u64>>(), header + 8);
    }

    #[test]
    fn slab_slots_are_distinct_and_live() {
        // Each slot is a block of its own in an engine slab.
        let boxes: Vec<PoolBox<u64>> = (0..4).map(PoolBox::new).collect();
        let mut addrs: Vec<usize> = boxes.iter().map(|b| b.header() as usize).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 4);
        assert_eq!(boxes.iter().map(|b| **b).collect::<Vec<u64>>(), [0, 1, 2, 3]);
    }

    #[test]
    fn slot_list_is_lifo_and_splits_the_older_end() {
        let mut list: SlotList<u32> = SlotList::new();
        assert!(list.pop().is_none());
        for i in 0..5 {
            list.push(PoolBox::new(i));
        }
        let older = list.split_off(2);
        assert_eq!((list.len(), older.len()), (2, 3));
        let mut top = SlotList::new();
        top.push(PoolBox::new(9));
        let mut older = older;
        older.append(top);
        let drained: Vec<u32> = std::iter::from_fn(|| older.pop().map(|b| *b)).collect();
        assert_eq!(drained, vec![9, 2, 1, 0]);
        assert_eq!(list.split_off(0).len(), 2);
        assert!(list.is_empty());
    }

    /// A dead slot revived through a forged handle must trip the guard
    /// before the destructor runs twice. The engine keeps a freed block
    /// mapped (its slabs are type-stable) and its free writes only link
    /// and segment words, so the forged drop reads the guard words of a
    /// dead slot.
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    #[test]
    fn guard_detects_double_release_of_a_slab_slot() {
        let b = PoolBox::new(5u64);
        let slot = b.slot;
        drop(b);
        let forged = PoolBox { slot, _owns: PhantomData };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(forged)));
        assert!(outcome.is_err(), "double release must panic in guarded builds");
    }

    /// The generation word is the live bit alone: set when `PoolBox::new`
    /// fills the slot, cleared when the handle drops, so a second drop of
    /// the same slot panics.
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    #[test]
    fn guard_generation_tracks_fill_and_drop() {
        let b = PoolBox::new(1u32);
        assert_eq!(unsafe { slot_generation(&b) }, guard::GEN_LIVE);
        let slot = b.slot;
        drop(b);
        // As above: the engine's free leaves the generation word alone.
        let ghost = ManuallyDrop::new(PoolBox::<u32> { slot, _owns: PhantomData });
        assert_eq!(unsafe { slot_generation(&ghost) }, 0);
        let forged = ManuallyDrop::into_inner(ghost);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(forged)));
        assert!(outcome.is_err(), "a dropped slot must not drop again");
    }

    #[test]
    fn slots_cross_threads() {
        // Made on this thread, read and freed on another (an engine
        // cross-thread free).
        let (a, b) = (PoolBox::new(11u64), PoolBox::new(22u64));
        let h = std::thread::spawn(move || *a + *b);
        assert_eq!(h.join().unwrap(), 33);
    }
}
