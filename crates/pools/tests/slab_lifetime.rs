//! A carved slab is freed exactly once, by the last slot destroyed: when a
//! `PoolBox` outlives its pool and the thread that carved the slab, and
//! when a pool is dropped while the thread whose magazine holds the slab's
//! reserve keeps running (the next cold table access frees that magazine).
//! A destructor that panics still frees its slot. A logging global
//! allocator records every block at least a slab's payload in size; the
//! tests find the slab as the live logged block holding an object. It installs its own global allocator, so it is left
//! out of builds that install the pool runtime as the global allocator.
#![cfg(not(feature = "global-alloc"))]

use pools::{PoolBox, PoolConfig, ShardedPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

type Payload = [u8; 1000];

/// Slots per slab: twice the magazine capacity.
const CAP: usize = 8;

/// Room for every large-block event the test's process sees.
const LOG: usize = 512;

struct Logging;

/// Allocations and frees of blocks at least a slab's payload in size, in
/// order: `(address, size)`, with size 0 for a free.
static EVENTS: [(AtomicUsize, AtomicUsize); LOG] =
    [const { (AtomicUsize::new(0), AtomicUsize::new(0)) }; LOG];
static NEXT: AtomicUsize = AtomicUsize::new(0);

fn log(layout: Layout, addr: *mut u8, size: usize) {
    if layout.size() >= 2 * CAP * std::mem::size_of::<Payload>() {
        let (a, s) = &EVENTS[NEXT.fetch_add(1, Ordering::Relaxed) % LOG];
        a.store(addr as usize, Ordering::Relaxed);
        s.store(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Logging {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        log(layout, p, layout.size());
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        log(layout, ptr, 0);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Logging = Logging;

/// One test at a time: a block freed by one test must not be reused by a
/// concurrent one before the freeing test reads the log.
static SERIAL: Mutex<()> = Mutex::new(());

/// The events so far.
fn events() -> Vec<(usize, usize)> {
    let n = NEXT.load(Ordering::Relaxed);
    assert!(n <= LOG, "the log kept every event");
    EVENTS[..n]
        .iter()
        .map(|(a, s)| (a.load(Ordering::Relaxed), s.load(Ordering::Relaxed)))
        .collect()
}

/// The last allocation holding `addr` (the live block there): its base
/// and how many times it was freed since.
fn holder(addr: usize) -> (usize, usize) {
    let events = events();
    let at = events
        .iter()
        .rposition(|&(b, s)| (b..b + s).contains(&addr))
        .expect("a logged block holds the address");
    let base = events[at].0;
    (base, events[at + 1..].iter().filter(|&&e| e == (base, 0)).count())
}

#[test]
fn a_handle_outliving_its_pool_frees_its_slab_exactly_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let survivor = std::thread::spawn(|| {
        let pool: ShardedPool<Payload> = ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
        let kept = pool.acquire(|| [1; 1000]);
        let parked = pool.acquire(|| [2; 1000]);
        pool.release(parked);
        assert_eq!(pool.stats().slab_carves(), 1, "both came from one carved slab");
        kept
        // The pool drops here, and the thread's magazine (holding the
        // slab's reserve and a parked slot) at thread exit.
    })
    .join()
    .unwrap();
    let addr = &*survivor as *const Payload as usize;
    let (slab, frees) = holder(addr);
    assert_eq!(frees, 0, "the survivor keeps its slab alive");
    assert_eq!(survivor[0], 1);
    drop(survivor);
    assert_eq!(holder(addr), (slab, 1), "the last slot freed the slab, once");
}

#[test]
fn a_dropped_pools_magazine_frees_its_slab_before_the_thread_exits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Carved on this (still running) thread: its magazine keeps the slab's
    // reserve and one parked slot.
    let pool: ShardedPool<Payload> = ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
    let parked = pool.acquire(|| [3; 1000]);
    let addr = &*parked as *const Payload as usize;
    pool.release(parked);
    assert_eq!(pool.stats().slab_carves(), 1);
    let (slab, frees) = holder(addr);
    assert_eq!(frees, 0, "the magazine keeps the slab alive");
    drop(pool);
    assert_eq!(holder(addr), (slab, 0), "nothing frees the magazine with the pool");
    // One cold access on another pool sweeps the orphaned magazine.
    let other: ShardedPool<u8> = ShardedPool::new(1);
    assert_eq!(*other.acquire(|| 5), 5);
    assert_eq!(holder(addr), (slab, 1), "the dead pool's magazine freed the slab, once");
}

/// An `N`-byte payload whose destructor panics.
struct Bomb<const N: usize>([u8; N]);

impl<const N: usize> Drop for Bomb<N> {
    fn drop(&mut self) {
        panic!("bomb destructor");
    }
}

#[test]
fn a_panicking_destructor_still_frees_its_slot() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A standalone slot large enough to be logged on its own.
    let standalone = PoolBox::new(Bomb([0; 2 * CAP * 1000]));
    let addr = &*standalone as *const _ as usize;
    let (slot, frees) = holder(addr);
    assert_eq!(frees, 0);
    assert!(catch_unwind(AssertUnwindSafe(|| drop(standalone))).is_err());
    assert_eq!(holder(addr), (slot, 1), "the standalone slot was freed while unwinding");

    // A slab slot holding the slab's last reference: the pool, its
    // magazine and the slab's reserve are gone with the carving thread.
    let survivor = std::thread::spawn(|| {
        let pool: ShardedPool<Bomb<1000>> =
            ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
        let kept = pool.acquire(|| Bomb([1; 1000]));
        assert_eq!(pool.stats().slab_carves(), 1);
        kept
    })
    .join()
    .unwrap();
    let addr = &*survivor as *const _ as usize;
    let (slab, frees) = holder(addr);
    assert_eq!(frees, 0, "the survivor keeps its slab alive");
    assert!(catch_unwind(AssertUnwindSafe(|| drop(survivor))).is_err());
    assert_eq!(holder(addr), (slab, 1), "the slab slot gave its reference back while unwinding");
}
