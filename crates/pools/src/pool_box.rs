//! [`PoolBox`]: the owned-object handle all pools trade in, backed either
//! by an ordinary heap `Box` or by a slot carved out of a shared slab.
//!
//! The slab half is what makes the fresh-allocation path cheap: instead of
//! one `malloc` per object, a cold pool carves a contiguous slab of N
//! object slots in a single heap call ([`SlabReserve::carve`]) and hands
//! them out one placement-write at a time. Each slot keeps an `Arc` to its
//! [`SlabStorage`], so the slab's backing memory is returned to the system
//! exactly when the last object from it dies — whether that happens via
//! `trim`, an epoch invalidation, a population cap, or plain `drop`. No
//! per-slab bookkeeping is needed anywhere else in the crate: the cap and
//! trim logic count *objects*, and the slab frees itself.
//!
//! `PoolBox<T>` is two words (`NonNull<T>` plus a niche-optimized
//! `Option<Arc<..>>`), behaves like `Box<T>` (`Deref`/`DerefMut`, drops its
//! value), and converts from `Box<T>` at zero cost so existing call sites
//! keep compiling via `impl Into<PoolBox<T>>` on the release paths.

use std::alloc::{alloc, dealloc, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;
use std::sync::Arc;

#[cfg(any(debug_assertions, feature = "fault-inject"))]
use crate::guard;

/// Guarded slab-slot layout (debug / `fault-inject` builds only): the value
/// first — so a `NonNull<T>` to the slot *is* a `NonNull<T>` to the value
/// and the release-build pointer math is unchanged — then a canary word
/// keyed on the slot address and a generation tag whose low bit is the
/// live/dead state ([`guard::GEN_LIVE`]) and whose remaining bits count
/// fills, so a stale handle from before a reuse is distinguishable.
#[cfg(any(debug_assertions, feature = "fault-inject"))]
#[repr(C)]
struct GuardSlot<T> {
    value: std::mem::MaybeUninit<T>,
    canary: u64,
    generation: u64,
}

/// Bytes between consecutive slab slots. With the guard compiled out this
/// is exactly `size_of::<T>()` — guarded builds pay for the two guard words
/// per slot, release builds pay nothing.
#[inline]
fn slot_stride<T>() -> usize {
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    {
        std::mem::size_of::<GuardSlot<T>>()
    }
    #[cfg(not(any(debug_assertions, feature = "fault-inject")))]
    {
        std::mem::size_of::<T>()
    }
}

/// Allocation layout for a slab of `objects` slots (guard-aware).
fn slab_layout<T>(objects: usize) -> Option<Layout> {
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    {
        Layout::array::<GuardSlot<T>>(objects).ok()
    }
    #[cfg(not(any(debug_assertions, feature = "fault-inject")))]
    {
        Layout::array::<T>(objects).ok()
    }
}

/// Read a guarded slot's generation tag (tests of the guard machinery).
///
/// # Safety
/// `ptr` must point at a slot carved by [`SlabReserve::carve`] whose slab
/// is still allocated.
#[cfg(all(test, any(debug_assertions, feature = "fault-inject")))]
pub(crate) unsafe fn slot_generation<T>(ptr: NonNull<T>) -> u64 {
    let slot = ptr.as_ptr().cast::<GuardSlot<T>>();
    unsafe { std::ptr::addr_of!((*slot).generation).read() }
}

/// Validate a guarded slot's canary and liveness, panicking on corruption,
/// on a dead slot when `expect_live`, or on a live one otherwise.
///
/// # Safety
/// Same contract as [`slot_generation`].
#[cfg(any(debug_assertions, feature = "fault-inject"))]
unsafe fn check_slot<T>(ptr: NonNull<T>, expect_live: bool, what: &str) -> u64 {
    let slot = ptr.as_ptr().cast::<GuardSlot<T>>();
    let canary = unsafe { std::ptr::addr_of!((*slot).canary).read() };
    assert_eq!(
        canary,
        guard::canary_for(slot as usize),
        "pool guard: slab slot canary clobbered at {what} (heap corruption near {slot:p})",
    );
    let generation = unsafe { std::ptr::addr_of!((*slot).generation).read() };
    let live = generation & guard::GEN_LIVE != 0;
    assert_eq!(
        live,
        expect_live,
        "pool guard: {what} on a {} slab slot at {slot:p} \
         (double release, or use of a stale handle after reuse)",
        if live { "live" } else { "dead" },
    );
    generation
}

/// The raw backing buffer of one slab: `capacity` uninitialized `T` slots.
///
/// Never touches the slots itself — it is purely a deallocation token.
/// Objects carved from the slab each hold an `Arc<SlabStorage<T>>`; the
/// buffer is freed when the last such object (and any live
/// [`SlabReserve`] cursor) is gone.
pub(crate) struct SlabStorage<T> {
    buf: NonNull<T>,
    capacity: usize,
}

// The storage is only a dealloc token: it never reads or writes a `T`.
// Thread-safety of the *values* is carried by `PoolBox` itself.
unsafe impl<T> Send for SlabStorage<T> {}
unsafe impl<T> Sync for SlabStorage<T> {}

impl<T> Drop for SlabStorage<T> {
    fn drop(&mut self) {
        // All slots are either never initialized (unused reserve) or were
        // dropped in place by their PoolBox before its Arc released.
        let layout = slab_layout::<T>(self.capacity).expect("layout fit at carve time");
        unsafe { dealloc(self.buf.as_ptr().cast(), layout) };
    }
}

impl<T> fmt::Debug for SlabStorage<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlabStorage").field("capacity", &self.capacity).finish()
    }
}

/// A thread's private cursor over the not-yet-used tail of a slab.
///
/// `take` is a pointer bump — no atomics, no lock: a reserve is owned by
/// exactly one thread's magazine at a time.
#[derive(Debug)]
pub(crate) struct SlabReserve<T> {
    slab: Arc<SlabStorage<T>>,
    next: usize,
}

impl<T> SlabReserve<T> {
    /// Allocate one contiguous slab of `objects` uninitialized slots.
    /// Returns `None` when slabs cannot help: zero-sized types, fewer than
    /// two slots (a one-slot slab is just a slow `Box`), or allocation
    /// failure — callers then fall back to plain boxing.
    pub(crate) fn carve(objects: usize) -> Option<Self> {
        if std::mem::size_of::<T>() == 0 || objects < 2 {
            return None;
        }
        let layout = slab_layout::<T>(objects)?;
        let buf = NonNull::new(unsafe { alloc(layout) }.cast::<T>())?;
        Some(SlabReserve { slab: Arc::new(SlabStorage { buf, capacity: objects }), next: 0 })
    }

    /// Hand out the next uninitialized slot, or `None` when the slab is
    /// used up.
    pub(crate) fn take(&mut self) -> Option<SlabSlot<T>> {
        if self.next >= self.slab.capacity {
            return None;
        }
        // In bounds by the check above; the slab outlives the slot via Arc.
        // Slots are `slot_stride` apart — identical to `add(next)` in
        // release builds, guard-word-aware in debug/fault-inject builds.
        let ptr = unsafe {
            NonNull::new_unchecked(
                self.slab.buf.as_ptr().cast::<u8>().add(self.next * slot_stride::<T>()).cast::<T>(),
            )
        };
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        unsafe {
            // Arm the guard words before the slot is ever handed out. Raw
            // field writes: the slot memory is still uninitialized.
            let slot = ptr.as_ptr().cast::<GuardSlot<T>>();
            std::ptr::addr_of_mut!((*slot).canary).write(guard::canary_for(slot as usize));
            std::ptr::addr_of_mut!((*slot).generation).write(0);
        }
        self.next += 1;
        Some(SlabSlot { ptr, slab: Arc::clone(&self.slab) })
    }

    /// True when every slot has been handed out.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.next >= self.slab.capacity
    }
}

/// One uninitialized slot taken from a slab, waiting for its value.
///
/// Split from [`SlabReserve::take`] so the user's constructor closure runs
/// *outside* the thread-local magazine table hold (constructors are user code
/// and may re-enter pool operations). If `fill` is never called (e.g. the
/// constructor panics), the slot's memory is simply never reused; the
/// slab still frees once every sibling is gone — leaked capacity, no UB.
#[derive(Debug)]
pub(crate) struct SlabSlot<T> {
    ptr: NonNull<T>,
    slab: Arc<SlabStorage<T>>,
}

impl<T> SlabSlot<T> {
    /// Placement-write `value` into the slot, producing a live [`PoolBox`].
    pub(crate) fn fill(self, value: T) -> PoolBox<T> {
        #[cfg(any(debug_assertions, feature = "fault-inject"))]
        unsafe {
            // The canary must have survived since `take` (catches a stray
            // write between carve and fill) and the slot must be dead.
            let generation = check_slot(self.ptr, false, "fill");
            let slot = self.ptr.as_ptr().cast::<GuardSlot<T>>();
            std::ptr::addr_of_mut!((*slot).generation)
                .write(generation.wrapping_add(2) | guard::GEN_LIVE);
        }
        unsafe { self.ptr.as_ptr().write(value) };
        PoolBox { ptr: self.ptr, slab: Some(self.slab) }
    }
}

/// An owned pooled object: `Box`-like, but possibly living inside a slab.
///
/// * `slab == None`: the value is an ordinary `Box<T>` allocation and is
///   freed as one on drop.
/// * `slab == Some(..)`: the value occupies a slab slot; drop runs the
///   destructor in place and releases the slab reference (the backing
///   buffer deallocates with the last reference).
pub struct PoolBox<T> {
    ptr: NonNull<T>,
    slab: Option<Arc<SlabStorage<T>>>,
}

// Same rules as Box<T>: owning a T across threads needs T: Send; sharing
// references needs T: Sync. The slab Arc is Send+Sync unconditionally.
unsafe impl<T: Send> Send for PoolBox<T> {}
unsafe impl<T: Sync> Sync for PoolBox<T> {}

impl<T> PoolBox<T> {
    /// Box a fresh value on the plain heap (no slab).
    pub fn new(value: T) -> Self {
        PoolBox::from(Box::new(value))
    }
}

impl<T> From<Box<T>> for PoolBox<T> {
    fn from(b: Box<T>) -> Self {
        // Box never returns null.
        let ptr = unsafe { NonNull::new_unchecked(Box::into_raw(b)) };
        PoolBox { ptr, slab: None }
    }
}

impl<T> Deref for PoolBox<T> {
    type Target = T;
    fn deref(&self) -> &T {
        unsafe { self.ptr.as_ref() }
    }
}

impl<T> DerefMut for PoolBox<T> {
    fn deref_mut(&mut self) -> &mut T {
        unsafe { self.ptr.as_mut() }
    }
}

impl<T> Drop for PoolBox<T> {
    fn drop(&mut self) {
        match self.slab.take() {
            // Reconstitute the Box: value drops and the allocation frees.
            None => drop(unsafe { Box::from_raw(self.ptr.as_ptr()) }),
            Some(slab) => {
                // Guarded builds verify the canary and the live bit *before*
                // running the destructor: a double release panics here
                // instead of double-dropping the value.
                #[cfg(any(debug_assertions, feature = "fault-inject"))]
                unsafe {
                    let generation = check_slot(self.ptr, true, "drop");
                    let slot = self.ptr.as_ptr().cast::<GuardSlot<T>>();
                    std::ptr::addr_of_mut!((*slot).generation).write(generation & !guard::GEN_LIVE);
                }
                unsafe { std::ptr::drop_in_place(self.ptr.as_ptr()) };
                drop(slab); // last sibling out frees the whole slab
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn boxed_roundtrip() {
        let mut b = PoolBox::new(41u64);
        *b += 1;
        assert_eq!(*b, 42);
        let from_box: PoolBox<u64> = Box::new(7).into();
        assert_eq!(*from_box, 7);
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
        assert!(SlabReserve::<()>::carve(16).is_none(), "ZSTs take the Box path");
    }

    /// A dead slot revived through a forged handle must trip the guard
    /// before the destructor runs twice.
    #[cfg(any(debug_assertions, feature = "fault-inject"))]
    #[test]
    fn guard_detects_double_release_of_a_slab_slot() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(2).expect("small slab");
        let b = reserve.take().unwrap().fill(5);
        let (ptr, slab) = (b.ptr, b.slab.clone());
        drop(b); // the slot is now dead (live bit cleared)
        let forged = PoolBox { ptr, slab };
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
        let ptr = b.ptr;
        let live_gen = unsafe { slot_generation(ptr) };
        assert_eq!(live_gen & guard::GEN_LIVE, guard::GEN_LIVE);
        drop(b); // reserve keeps the slab alive; the slot goes dead
        let dead_gen = unsafe { slot_generation(ptr) };
        assert_eq!(dead_gen, live_gen & !guard::GEN_LIVE);
        assert_eq!(dead_gen >> 1, 1, "one fill so far");
    }

    #[test]
    fn slab_objects_cross_threads() {
        let mut reserve: SlabReserve<u64> = SlabReserve::carve(2).expect("small slab");
        let a = reserve.take().unwrap().fill(11);
        let b = reserve.take().unwrap().fill(22);
        let h = std::thread::spawn(move || *a + *b);
        assert_eq!(h.join().unwrap(), 33);
    }
}
