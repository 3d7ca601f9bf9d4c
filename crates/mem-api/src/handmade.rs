//! The handmade structure pool, natively: per-thread private free lists
//! with no locks at all — the paper's "theoretical maximum of what an
//! optimizing pre-processor could do" (Figure 10, §3.1).
//!
//! The hand-pooling programmer knows which thread uses which pool and
//! "manually avoids simultaneous allocations", so the hit path is a plain
//! thread-local vector pop/push: no mutex, no shard probe, no magazine
//! epoch check. Structure misses still pay the full allocation work, but
//! privately — matching `smp-sim`'s `HandmadeModel`, where a miss charges
//! `malloc_serial_ns × nodes` of *work* without ever touching a lock.
//!
//! Cross-thread behaviour is the model's too: a structure freed on thread
//! A is never visible to thread B (`pools_are_private_per_thread` in the
//! simulator), and a thread's parked structures simply drop when the
//! thread exits — there is no shared depot to flush to.

use crate::backend::{Allocation, BackendStats, MemBackend, Structured};
use pools::PoolBox;
use std::any::Any;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Backend ids double as thread-local slot indices, so they are never
/// reused (same scheme as the pool magazines).
static NEXT_BACKEND_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's private free lists, indexed by backend id. `dyn Any`
    /// erases the structure type; a slot is only ever written by the
    /// backend owning that id, so the downcast always succeeds.
    static FREE_LISTS: RefCell<Vec<Option<Box<dyn Any>>>> = const { RefCell::new(Vec::new()) };
}

/// The native handmade pool. Statistics are shared relaxed atomics (they
/// are the only cross-thread state; the free lists themselves are
/// thread-private, so the hot path stays lock-free *and* share-free).
pub(crate) struct HandmadeBackend<T> {
    id: u64,
    pool_hits: AtomicU64,
    fresh_allocs: AtomicU64,
    frees: AtomicU64,
    live_bytes: AtomicU64,
    fallback_allocs: AtomicU64,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Structured> Default for HandmadeBackend<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Structured> HandmadeBackend<T> {
    /// A new backend with empty per-thread pools. The first allocation on
    /// each thread is a private miss — the handmade `init()` pre-allocation
    /// is charged where it happens, exactly like the simulator model.
    pub(crate) fn new() -> Self {
        HandmadeBackend {
            id: NEXT_BACKEND_ID.fetch_add(1, Ordering::Relaxed),
            pool_hits: AtomicU64::new(0),
            fresh_allocs: AtomicU64::new(0),
            frees: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            fallback_allocs: AtomicU64::new(0),
            _marker: PhantomData,
        }
    }

    /// Run `f` on the calling thread's free list for this backend,
    /// creating it on first touch. `f` must not run user code (it only
    /// pushes/pops boxes), so the `RefCell` borrow cannot re-enter.
    fn with_free_list<R>(&self, f: impl FnOnce(&mut Vec<PoolBox<T>>) -> R) -> R {
        let idx = self.id as usize;
        FREE_LISTS.with(|slots| {
            let mut slots = slots.borrow_mut();
            if slots.len() <= idx {
                slots.resize_with(idx + 1, || None);
            }
            let slot = &mut slots[idx];
            if slot.is_none() {
                *slot = Some(Box::new(Vec::<PoolBox<T>>::new()));
            }
            let list = slot
                .as_mut()
                .expect("slot was just filled")
                .downcast_mut::<Vec<PoolBox<T>>>()
                .expect("backend ids are never reused, so the slot type matches");
            f(list)
        })
    }
}

impl<T: Structured> MemBackend<T> for HandmadeBackend<T> {
    fn name(&self) -> &str {
        "handmade"
    }

    fn alloc(&self, params: &T::Params) -> Allocation<T> {
        if pools::fault::fail_fresh_alloc() {
            // Injected failure: a forced miss. The parked structure (if
            // any) stays for the next alloc; this one builds fresh from
            // the plain heap, counted as fresh + fallback.
            self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
            self.fallback_allocs.fetch_add(1, Ordering::Relaxed);
            let bytes = T::footprint(params);
            self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
            return Allocation::new(PoolBox::new(T::fresh(params)), Vec::new(), bytes);
        }
        let reused = self.with_free_list(|list| list.pop());
        let obj = match reused {
            Some(mut obj) => {
                self.pool_hits.fetch_add(1, Ordering::Relaxed);
                obj.reinit(params);
                obj
            }
            None => {
                self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
                PoolBox::new(T::fresh(params))
            }
        };
        let bytes = T::footprint(params);
        self.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        Allocation::new(obj, Vec::new(), bytes)
    }

    fn free(&self, allocation: Allocation<T>) {
        self.live_bytes.fetch_sub(allocation.bytes(), Ordering::Relaxed);
        self.frees.fetch_add(1, Ordering::Relaxed);
        let mut obj = allocation.into_object();
        obj.recycle();
        self.with_free_list(|list| list.push(obj));
    }

    fn stats(&self) -> BackendStats {
        let hits = self.pool_hits.load(Ordering::Relaxed);
        let fresh = self.fresh_allocs.load(Ordering::Relaxed);
        BackendStats::new(
            hits + fresh,
            self.frees.load(Ordering::Relaxed),
            hits,
            fresh,
            0, // by construction: the handmade pool never takes a lock
            self.live_bytes.load(Ordering::Relaxed),
        )
        .with_fallbacks(self.fallback_allocs.load(Ordering::Relaxed))
    }

    fn trim(&self) {
        // Only the calling thread's pool can be reached; remote pools drop
        // with their threads.
        let dropped = self.with_free_list(std::mem::take);
        drop(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pools::structure_pool::Reusable;
    use std::sync::Arc;

    struct Blob(Vec<u8>);
    impl Reusable for Blob {
        type Params = u32;
        fn fresh(p: &u32) -> Self {
            Blob(vec![3; *p as usize])
        }
        fn reinit(&mut self, p: &u32) {
            self.0.resize(*p as usize, 3);
        }
    }
    impl Structured for Blob {
        fn node_count(_: &u32) -> u32 {
            1
        }
        fn node_size(p: &u32, _: u32) -> u32 {
            *p
        }
        fn checksum(&self) -> u64 {
            self.0.len() as u64
        }
    }

    #[test]
    fn same_thread_reuses() {
        let b: HandmadeBackend<Blob> = HandmadeBackend::new();
        let a = b.alloc(&16);
        b.free(a);
        let a2 = b.alloc(&16);
        let s = b.stats();
        assert_eq!(s.pool_hits(), 1);
        assert_eq!(s.fresh_allocs(), 1);
        assert_eq!(s.contention_events(), 0);
        assert_eq!(s.live_bytes(), 16);
        b.free(a2);
        assert_eq!(b.stats().live_bytes(), 0);
    }

    #[test]
    fn pools_are_private_per_thread() {
        let b: Arc<HandmadeBackend<Blob>> = Arc::new(HandmadeBackend::new());
        let a = b.alloc(&8);
        b.free(a);
        let b2 = Arc::clone(&b);
        std::thread::spawn(move || {
            // The other thread cannot see this thread's parked structure.
            let a = b2.alloc(&8);
            b2.free(a);
        })
        .join()
        .unwrap();
        let s = b.stats();
        assert_eq!(s.pool_hits(), 0);
        assert_eq!(s.fresh_allocs(), 2);
    }

    #[test]
    fn distinct_backends_have_distinct_pools() {
        let x: HandmadeBackend<Blob> = HandmadeBackend::new();
        let y: HandmadeBackend<Blob> = HandmadeBackend::new();
        let a = x.alloc(&4);
        x.free(a);
        let c = y.alloc(&4);
        assert_eq!(y.stats().pool_hits(), 0, "y cannot see x's parked structure");
        y.free(c);
        let d = x.alloc(&4);
        assert_eq!(x.stats().pool_hits(), 1);
        x.free(d);
    }

    #[test]
    fn trim_drops_local_pool() {
        let b: HandmadeBackend<Blob> = HandmadeBackend::new();
        let a = b.alloc(&4);
        b.free(a);
        MemBackend::<Blob>::trim(&b);
        let a = b.alloc(&4);
        assert_eq!(b.stats().pool_hits(), 0, "trim emptied the pool");
        assert_eq!(b.stats().fresh_allocs(), 2);
        b.free(a);
    }
}
