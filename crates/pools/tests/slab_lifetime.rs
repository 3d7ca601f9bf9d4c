//! A typed slot is freed exactly once, when its handle drops: when a
//! `PoolBox` outlives its pool and the thread that made it, and when a pool
//! is dropped while the thread whose magazine parks its slot keeps running
//! (the next cold table access frees that magazine). A destructor that
//! panics still frees its slot. Every slot is a block of the size-class
//! engine, so the oracle is the engine's live-block count in the slots'
//! class, read at quiescent points with the scenarios serialized. Builds
//! that install the engine as the global allocator send the test
//! harness's own heap through the same classes, so the count is exact only
//! without `global-alloc`.
#![cfg(not(feature = "global-alloc"))]

use pools::heap_profile;
use pools::size_class::class_for;
use pools::{PoolConfig, ShardedPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

type Payload = [u8; 1000];

/// Magazine capacity of the pools under test.
const CAP: usize = 4;

/// One scenario at a time: each reads the class's ledger before and after.
static SERIAL: Mutex<()> = Mutex::new(());

/// Live engine blocks in the class of the test's slots: a 1,000-byte value
/// behind at most three header words lands in the 1,024-byte class in
/// every build.
fn live_slots() -> u64 {
    let class = class_for(std::mem::size_of::<Payload>() + 24, 8).expect("a classed slot");
    let g = heap_profile::gauges().classes[class];
    g.live_bytes / g.block_bytes as u64
}

#[test]
fn a_handle_outliving_its_pool_frees_its_slot_exactly_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_slots();
    let survivor = std::thread::spawn(|| {
        let pool: ShardedPool<Payload> = ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
        let kept = pool.acquire(|| [1; 1000]);
        let parked = pool.acquire(|| [2; 1000]);
        pool.release(parked);
        kept
        // The pool drops here, and the thread's magazine (holding the
        // parked slot) at thread exit.
    })
    .join()
    .unwrap();
    assert_eq!(live_slots(), before + 1, "only the survivor's slot is live");
    assert_eq!(survivor[0], 1);
    drop(survivor);
    assert_eq!(live_slots(), before, "the survivor freed its slot, once");
}

#[test]
fn a_dropped_pools_magazine_frees_its_slots_before_the_thread_exits() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let before = live_slots();
    // Parked in this (still running) thread's magazine.
    let pool: ShardedPool<Payload> = ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
    let parked = pool.acquire(|| [3; 1000]);
    pool.release(parked);
    assert_eq!(live_slots(), before + 1, "the magazine keeps the slot");
    drop(pool);
    assert_eq!(live_slots(), before + 1, "nothing frees the magazine with the pool");
    // One cold access on another pool sweeps the orphaned magazine.
    let other: ShardedPool<u8> = ShardedPool::new(1);
    assert_eq!(*other.acquire(|| 5), 5);
    assert_eq!(live_slots(), before, "the dead pool's magazine freed the slot, once");
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
    let before = live_slots();
    // The handle is all that is left: the pool and its magazine are gone
    // with the thread that made the slot.
    let survivor = std::thread::spawn(|| {
        let pool: ShardedPool<Bomb<1000>> =
            ShardedPool::with_magazines(1, PoolConfig::default(), CAP);
        pool.acquire(|| Bomb([1; 1000]))
    })
    .join()
    .unwrap();
    assert_eq!(live_slots(), before + 1);
    assert!(catch_unwind(AssertUnwindSafe(|| drop(survivor))).is_err());
    assert_eq!(live_slots(), before, "the slot was freed while unwinding");
}
