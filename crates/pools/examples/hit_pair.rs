//! The typed hit path's disassembly probe: a `ShardedPool<u64>` acquire
//! and release that the thread's magazine serves, in a function of its own
//! so its code can be read and counted.
//!
//! `check_hit_pair.py`, beside this file, disassembles `hit_pair` from the
//! release build. It fails on a `lock`-prefixed instruction, or on more
//! instructions along the straight-line path (no branch taken) than the
//! count it records:
//!
//! ```text
//! cargo build --release -p pools --example hit_pair
//! python3 crates/pools/examples/check_hit_pair.py target/release/examples/hit_pair
//! ```

use pools::ShardedPool;
use std::hint::black_box;

/// One acquire and one release, both magazine hits once the magazine
/// exists and holds an object.
#[inline(never)]
fn hit_pair(pool: &ShardedPool<u64>) {
    let obj = pool.acquire(|| 0);
    black_box(&obj);
    pool.release(obj);
}

fn main() {
    let pool = ShardedPool::new(4);
    for _ in 0..1_000 {
        hit_pair(&pool);
    }
    let stats = pool.stats();
    println!("hit pairs: {} hits, {} fresh", stats.pool_hits(), stats.fresh_allocs());
}
