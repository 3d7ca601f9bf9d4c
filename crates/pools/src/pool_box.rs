//! [`PoolBox`]: the owned-object handle all pools trade in — one pointer
//! to a *slot*, two header words in front of the value.
//!
//! ```text
//! slot:  [ link | slab | (canary | generation) | value: T ]
//! ```
//!
//! * `link` is the free-list link while the slot is parked. Every free
//!   list in the typed pools — a thread magazine, a parked depot list,
//!   direct mode's shard free list — is an intrusive [`SlotList`] threaded
//!   through it, so parking a structure never writes into the structure
//!   and its internal links survive reuse (the paper's §1 free list).
//! * `slab` is the owning slab, or null for a standalone slot
//!   ([`PoolBox::new`], `From<Box<T>>`). A slab is one heap block of N
//!   slots carved in a single call ([`SlabReserve::carve`]); its header
//!   counts the slots not yet destroyed, plus one while a thread's reserve
//!   cursor holds it. The last one out frees the slab, so a `PoolBox` that
//!   outlives its pool still frees its memory exactly once — whether it
//!   dies by `trim`, an epoch invalidation, a population cap or plain
//!   `drop`. Only destruction touches the count: parking and reviving a
//!   slot never do.
//! * Guarded builds (debug, or the `fault-inject` feature) add a canary
//!   keyed on the slot address and a generation word whose low bit is the
//!   live/dead state ([`guard::GEN_LIVE`]) and whose other bits count
//!   fills, so a stale handle from before a reuse is distinguishable.
//!   Release builds carry the two link words only.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::mem::{self, ManuallyDrop};
use std::ops::{Deref, DerefMut};
use std::ptr::{self, NonNull};
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(any(debug_assertions, feature = "fault-inject"))]
use crate::guard;

/// The words in front of every pooled value.
#[repr(C)]
pub(crate) struct SlotHeader {
    /// Next slot of the free list this slot is parked on (null at the
    /// tail). Meaningless while the slot is held by a caller.
    link: *mut SlotHeader,
    /// The slab this slot was carved from; null for a standalone slot.
    slab: *const SlabHeader,
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

/// The head of a slab: the reference count and the slot count that fixes
/// its layout. The slots follow at [`slab_layout`]'s offset.
#[repr(C)]
struct SlabHeader {
    /// Slots not yet destroyed, plus one while a [`SlabReserve`] holds the
    /// slab.
    refs: AtomicUsize,
    capacity: usize,
}

/// A slab of `objects` slots: its layout and the offset of slot 0.
fn slab_layout<T>(objects: usize) -> Option<(Layout, usize)> {
    let (layout, offset) =
        Layout::new::<SlabHeader>().extend(Layout::array::<Slot<T>>(objects).ok()?).ok()?;
    Some((layout.pad_to_align(), offset))
}

/// Bytes one pooled `T` occupies inside a slab (value plus header).
pub(crate) const fn slot_size<T>() -> usize {
    mem::size_of::<Slot<T>>()
}

/// Drop `n` references to `slab`, freeing it with the last.
///
/// # Safety
/// `slab` is a live slab of `T` slots and the caller owns `n` references.
unsafe fn release_slab<T>(slab: *const SlabHeader, n: usize) {
    // The decrement releases this owner's writes to its slots; the last
    // owner's acquire load orders them before the free. `Arc` uses the same
    // load under ThreadSanitizer, which does not model a standalone fence;
    // on this cold path it costs nothing a fence would not.
    if unsafe { (*slab).refs.fetch_sub(n, Ordering::Release) } == n {
        // SAFETY: this was the last reference, so the slab is still live.
        unsafe { (*slab).refs.load(Ordering::Acquire) };
        let capacity = unsafe { (*slab).capacity };
        let (layout, _) = slab_layout::<T>(capacity).expect("the layout fit at carve time");
        unsafe { dealloc(slab as *mut u8, layout) };
    }
}

/// Arm a slot's guard words for a dead slot with `generation`.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
unsafe fn arm_guard(slot: *mut SlotHeader, generation: u64) {
    unsafe {
        ptr::addr_of_mut!((*slot).canary).write(guard::canary_for(slot as usize));
        ptr::addr_of_mut!((*slot).generation).write(generation);
    }
}

/// Validate a guarded slot's canary and liveness, panicking on corruption,
/// on a dead slot when `expect_live`, or on a live one otherwise. Returns
/// the generation word.
///
/// # Safety
/// `slot` points at a slot header whose memory is still allocated.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
unsafe fn check_slot(slot: *mut SlotHeader, expect_live: bool, what: &str) -> u64 {
    let canary = unsafe { ptr::addr_of!((*slot).canary).read() };
    assert_eq!(
        canary,
        guard::canary_for(slot as usize),
        "pool guard: slot canary clobbered at {what} (heap corruption near {slot:p})",
    );
    let generation = unsafe { ptr::addr_of!((*slot).generation).read() };
    let live = generation & guard::GEN_LIVE != 0;
    assert_eq!(
        live,
        expect_live,
        "pool guard: {what} on a {} slot at {slot:p} \
         (double release, or use of a stale handle after reuse)",
        if live { "live" } else { "dead" },
    );
    generation
}

/// Read a guarded slot's generation word (tests of the guard machinery).
///
/// # Safety
/// The slot's memory is still allocated.
#[cfg(all(test, any(debug_assertions, feature = "fault-inject")))]
pub(crate) unsafe fn slot_generation<T>(b: &PoolBox<T>) -> u64 {
    unsafe { ptr::addr_of!((*b.header()).generation).read() }
}

/// A thread's private cursor over the not-yet-used tail of a slab.
///
/// `take` is a pointer bump — no atomics, no lock: a reserve is owned by
/// exactly one thread's magazine at a time. Dropping the reserve gives up
/// its own reference and those of the slots it never handed out.
pub(crate) struct SlabReserve<T> {
    slab: NonNull<SlabHeader>,
    next: usize,
    _slots: PhantomData<T>,
}

// The reserve only hands out uninitialized slots; values cross threads
// inside `PoolBox`, which carries `T`'s own bounds.
unsafe impl<T> Send for SlabReserve<T> {}

impl<T> SlabReserve<T> {
    /// Allocate one contiguous slab of `objects` uninitialized slots.
    /// Returns `None` when slabs cannot help: zero-sized types, fewer than
    /// two slots (a one-slot slab is just a slow standalone slot), or
    /// allocation failure — callers then fall back to [`PoolBox::new`].
    pub(crate) fn carve(objects: usize) -> Option<Self> {
        if mem::size_of::<T>() == 0 || objects < 2 {
            return None;
        }
        let (layout, _) = slab_layout::<T>(objects)?;
        let slab = NonNull::new(unsafe { alloc(layout) }.cast::<SlabHeader>())?;
        unsafe {
            slab.as_ptr()
                .write(SlabHeader { refs: AtomicUsize::new(objects + 1), capacity: objects })
        };
        Some(SlabReserve { slab, next: 0, _slots: PhantomData })
    }

    fn capacity(&self) -> usize {
        unsafe { self.slab.as_ref() }.capacity
    }

    /// Hand out the next uninitialized slot, or `None` when the slab is
    /// used up.
    pub(crate) fn take(&mut self) -> Option<SlabSlot<T>> {
        if self.is_exhausted() {
            return None;
        }
        let (_, offset) = slab_layout::<T>(self.capacity()).expect("carved");
        // In bounds by the check above; the slot's reference was counted
        // at carve time.
        let slot =
            unsafe { self.slab.as_ptr().cast::<u8>().add(offset + self.next * slot_size::<T>()) }
                .cast::<SlotHeader>();
        unsafe {
            ptr::addr_of_mut!((*slot).link).write(ptr::null_mut());
            ptr::addr_of_mut!((*slot).slab).write(self.slab.as_ptr());
            #[cfg(any(debug_assertions, feature = "fault-inject"))]
            arm_guard(slot, 0);
        }
        self.next += 1;
        Some(SlabSlot { slot: unsafe { NonNull::new_unchecked(slot.cast()) } })
    }

    /// True when every slot has been handed out.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.next >= self.capacity()
    }
}

impl<T> Drop for SlabReserve<T> {
    fn drop(&mut self) {
        let unused = self.capacity() - self.next;
        unsafe { release_slab::<T>(self.slab.as_ptr(), unused + 1) };
    }
}

impl<T> fmt::Debug for SlabReserve<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabReserve")
            .field("next", &self.next)
            .field("capacity", &self.capacity())
            .finish()
    }
}

/// One uninitialized slot taken from a slab, waiting for its value.
///
/// Split from [`SlabReserve::take`] so the user's constructor closure runs
/// *outside* the thread-local magazine table hold (constructors are user
/// code and may re-enter pool operations). If `fill` is never called
/// (the constructor panics, say), dropping the slot gives its slab
/// reference back.
pub(crate) struct SlabSlot<T> {
    slot: NonNull<Slot<T>>,
}

impl<T> SlabSlot<T> {
    /// Placement-write `value` into the slot, producing a live [`PoolBox`].
    pub(crate) fn fill(self, value: T) -> PoolBox<T> {
        let slot = ManuallyDrop::new(self).slot;
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        unsafe {
            // The canary must have survived since `take` (catches a stray
            // write between carve and fill) and the slot must be dead.
            let header = slot.as_ptr().cast::<SlotHeader>();
            let generation = check_slot(header, false, "fill");
            ptr::addr_of_mut!((*header).generation)
                .write(generation.wrapping_add(2) | guard::GEN_LIVE);
        }
        unsafe { ptr::addr_of_mut!((*slot.as_ptr()).value).write(value) };
        PoolBox { slot, _owns: PhantomData }
    }
}

impl<T> Drop for SlabSlot<T> {
    fn drop(&mut self) {
        unsafe { release_slab::<T>((*self.slot.as_ptr()).header.slab, 1) };
    }
}

impl<T> fmt::Debug for SlabSlot<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabSlot").field("slot", &self.slot).finish()
    }
}

/// An owned pooled object: `Box`-like, one pointer wide, living in a
/// standalone slot or a slab slot. Drop runs the destructor in place, then
/// frees the standalone slot or gives the slab reference back.
pub struct PoolBox<T> {
    slot: NonNull<Slot<T>>,
    _owns: PhantomData<T>,
}

// Same rules as Box<T>: owning a T across threads needs T: Send; sharing
// references needs T: Sync. The slab count is atomic.
unsafe impl<T: Send> Send for PoolBox<T> {}
unsafe impl<T: Sync> Sync for PoolBox<T> {}

impl<T> PoolBox<T> {
    /// Put a fresh value in a standalone slot of its own.
    pub fn new(value: T) -> Self {
        let layout = Layout::new::<Slot<T>>();
        let Some(slot) = NonNull::new(unsafe { alloc(layout) }.cast::<Slot<T>>()) else {
            handle_alloc_error(layout)
        };
        let header = slot.as_ptr().cast::<SlotHeader>();
        unsafe {
            ptr::addr_of_mut!((*header).link).write(ptr::null_mut());
            ptr::addr_of_mut!((*header).slab).write(ptr::null());
            #[cfg(any(debug_assertions, feature = "fault-inject"))]
            arm_guard(header, 2 | guard::GEN_LIVE);
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
    /// Move a boxed value into a standalone slot (cold paths and the
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
    fn drop(&mut self) {
        /// Frees the slot once the value's destructor is done, also when
        /// that destructor panics (as `Box` does).
        struct FreeSlot<T>(*mut SlotHeader, PhantomData<T>);

        impl<T> Drop for FreeSlot<T> {
            fn drop(&mut self) {
                // SAFETY: the guard holds the dropping handle's slot, which
                // nothing else owns, and runs once, after the value is gone.
                unsafe {
                    let slab = (*self.0).slab;
                    if slab.is_null() {
                        dealloc(self.0.cast(), Layout::new::<Slot<T>>());
                    } else {
                        release_slab::<T>(slab, 1);
                    }
                }
            }
        }

        let header = self.header();
        // Guarded builds verify the canary and the live bit *before*
        // running the destructor: a double release panics here instead of
        // double-dropping the value.
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        unsafe {
            let generation = check_slot(header, true, "drop");
            ptr::addr_of_mut!((*header).generation).write(generation & !guard::GEN_LIVE);
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
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn boxed_roundtrip() {
        let mut b = PoolBox::new(41u64);
        *b += 1;
        assert_eq!(*b, 42);
        let from_box: PoolBox<u64> = Box::new(7).into();
        assert_eq!(*from_box, 7);
    }

    #[test]
    fn handle_is_one_pointer() {
        assert_eq!(mem::size_of::<PoolBox<[u8; 64]>>(), mem::size_of::<usize>());
        assert_eq!(mem::size_of::<Option<PoolBox<u8>>>(), mem::size_of::<usize>());
    }

    #[test]
    fn slab_slots_are_distinct_and_live() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(4).expect("small slab");
        let a = reserve.take().unwrap().fill(1);
        let b = reserve.take().unwrap().fill(2);
        assert_eq!((*a, *b), (1, 2));
        assert!(!reserve.is_exhausted());
        let _c = reserve.take().unwrap().fill(3);
        let _d = reserve.take().unwrap().fill(4);
        assert!(reserve.is_exhausted());
        assert!(reserve.take().is_none());
    }

    #[test]
    fn slab_frees_after_last_object_and_runs_destructors() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Loud(#[allow(dead_code)] u32);
        impl Drop for Loud {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let mut reserve: SlabReserve<Loud> = SlabReserve::carve(3).expect("small slab");
        let a = reserve.take().unwrap().fill(Loud(1));
        let b = reserve.take().unwrap().fill(Loud(2));
        drop(reserve); // unused tail slot never runs a destructor
        drop(a);
        drop(b);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn carve_rejects_degenerate_requests() {
        assert!(SlabReserve::<u64>::carve(0).is_none());
        assert!(SlabReserve::<u64>::carve(1).is_none());
        assert!(SlabReserve::<()>::carve(16).is_none(), "ZSTs take standalone slots");
    }

    #[test]
    fn unfilled_slot_gives_its_reference_back() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(2).expect("small slab");
        let slab = reserve.slab;
        drop(reserve.take().unwrap()); // a constructor that panicked
        assert_eq!(unsafe { slab.as_ref() }.refs.load(Ordering::Relaxed), 2);
        let kept = reserve.take().unwrap().fill(9);
        drop(reserve);
        assert_eq!(*kept, 9, "the slab lives while a slot does");
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
    /// before the destructor runs twice.
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    #[test]
    fn guard_detects_double_release_of_a_slab_slot() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(2).expect("small slab");
        let b = reserve.take().unwrap().fill(5);
        let slot = b.slot;
        drop(b); // the slot is now dead; the reserve keeps the slab alive
        let forged = PoolBox { slot, _owns: PhantomData };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(forged)));
        assert!(outcome.is_err(), "double release must panic in guarded builds");
    }

    /// The generation tag counts fills and tracks liveness, so a stale
    /// handle from before a reuse is distinguishable from the live one.
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    #[test]
    fn guard_generation_tracks_fill_and_drop() {
        let mut reserve: SlabReserve<u32> = SlabReserve::carve(2).expect("small slab");
        let b = reserve.take().unwrap().fill(1);
        let live_gen = unsafe { slot_generation(&b) };
        assert_eq!(live_gen & guard::GEN_LIVE, guard::GEN_LIVE);
        let slot = b.slot;
        drop(b); // reserve keeps the slab alive; the slot goes dead
        let ghost = ManuallyDrop::new(PoolBox::<u32> { slot, _owns: PhantomData });
        let dead_gen = unsafe { slot_generation(&ghost) };
        assert_eq!(dead_gen, live_gen & !guard::GEN_LIVE);
        assert_eq!(dead_gen >> 1, 1, "one fill so far");
    }

    #[test]
    fn slab_objects_cross_threads() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(2).expect("small slab");
        let a = reserve.take().unwrap().fill(11);
        let b = reserve.take().unwrap().fill(22);
        drop(reserve);
        let h = std::thread::spawn(move || *a + *b);
        assert_eq!(h.join().unwrap(), 33);
    }
}
