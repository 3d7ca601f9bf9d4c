//! A dropped magazine-mode pool gives every engine block back: its slots
//! and its depot's node shells, on the full stack and on the shell stack.
//! The oracle, the size-class engine's `class_allocs − class_frees`, is
//! process-wide: this binary holds one test, and builds that install the
//! engine as the global allocator (the harness's heap then shares it)
//! compile it to nothing.
#![cfg(not(feature = "global-alloc"))]

use pools::global;
use pools::{PoolBox, ShardedPool};
use std::sync::{Arc, Barrier};

fn engine_live() -> u64 {
    let s = global::stats();
    s.class_allocs - s.class_frees
}

fn take(pool: &ShardedPool<[u64; 4]>, n: usize) -> Vec<PoolBox<[u64; 4]>> {
    (0..n).map(|_| pool.acquire(|| [7; 4])).collect()
}

#[test]
fn a_dropped_pool_frees_every_shell_and_slot() {
    let before = engine_live();
    // The `amplify` layout: eight shards, thread magazines of 32.
    let pool = Arc::new(ShardedPool::new(8));
    let turn = Arc::new(Barrier::new(2));
    let worker = {
        let (pool, turn) = (Arc::clone(&pool), Arc::clone(&turn));
        std::thread::spawn(move || {
            for _ in 0..4 {
                // Parks three full magazines for the main thread's swaps.
                take(&pool, 4 * 32).into_iter().for_each(|obj| pool.release(obj));
                turn.wait();
                turn.wait();
            }
        }) // The exit parks the worker's magazine.
    };
    for _ in 0..4 {
        turn.wait();
        take(&pool, 3 * 32).into_iter().for_each(|obj| pool.release(obj));
        turn.wait();
    }
    worker.join().unwrap();
    // Swapped-in lists whose objects are freed outright leave their
    // shells on the shell stack.
    drop(take(&pool, 2 * 32));
    pool.flush_local_magazine();
    let s = pool.stats();
    assert!(s.depot_swaps() > 0 && s.depot_parks() > 0, "both threads exchanged lists");
    assert!(pool.depot_parked() > 0 && pool.len() == pool.depot_parked());
    assert!(engine_live() > before, "slots and shells are engine blocks");
    drop(pool);
    assert_eq!(engine_live(), before, "every slot and shell went back to the engine");
}
