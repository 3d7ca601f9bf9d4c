//! Property-based tests for the pool runtime invariants.

use pools::{PoolConfig, ShadowBuf, ShardedPool};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Acquire,
    Release,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(prop_oneof![Just(Op::Acquire), Just(Op::Release)], 1..200)
}

/// The three Amplify layouts as `(shards, magazine_cap)` settings:
/// `amplify-local`, `amplify-sharded` and `amplify`.
const LAYOUTS: [(usize, usize); 3] = [(1, 0), (4, 0), (4, pools::DEFAULT_MAGAZINE_CAP)];

proptest! {
    /// Pool population never exceeds the layout's bound — the cap per
    /// shard, plus a magazine's capacity in magazine mode — and alloc/free
    /// accounting balances, for any acquire/release sequence.
    #[test]
    fn every_layout_respects_its_cap(ops in ops(), cap in 1usize..8) {
        for (shards, magazine_cap) in LAYOUTS {
            let config = PoolConfig { max_objects: Some(cap), ..Default::default() };
            let pool: ShardedPool<u64> = ShardedPool::with_magazines(shards, config, magazine_cap);
            let bound = cap * shards + magazine_cap;
            let mut held: Vec<pools::PoolBox<u64>> = Vec::new();
            for &op in &ops {
                match op {
                    Op::Acquire => held.push(pool.acquire(|| 0)),
                    Op::Release => {
                        if let Some(b) = held.pop() {
                            pool.release(b);
                        }
                    }
                }
                prop_assert!(pool.len() <= bound,
                    "({shards}, {magazine_cap}): {} parked over its bound {bound}", pool.len());
            }
            let s = pool.stats();
            prop_assert_eq!(s.total_allocs() as usize, held.len() + s.frees() as usize);
            prop_assert_eq!(s.fresh_allocs() as usize,
                            held.len() + pool.len() + s.dropped() as usize,
                            "({}, {}): a fresh object is neither held, parked nor dropped",
                            shards, magazine_cap);
        }
    }

    /// LIFO discipline: the most recently released distinct object comes
    /// back first, in every layout.
    #[test]
    fn every_layout_is_lifo(n in 1usize..20) {
        for (shards, magazine_cap) in LAYOUTS {
            let pool: ShardedPool<usize> =
                ShardedPool::with_magazines(shards, PoolConfig::default(), magazine_cap);
            let objs: Vec<pools::PoolBox<usize>> =
                (0..n).map(|i| pool.acquire(move || i)).collect();
            for o in objs {
                pool.release(o);
            }
            for expected in (0..n).rev() {
                prop_assert_eq!(*pool.acquire(|| usize::MAX), expected);
            }
        }
    }

    /// The shadow buffer's steady-state guarantee: if a request is served
    /// by reuse, the block is at most twice the request (the half-size
    /// rule), and released blocks above the cap are never parked.
    #[test]
    fn shadow_buf_bounds(sizes in proptest::collection::vec(1usize..4096, 1..60),
                         cap in proptest::option::of(64usize..2048)) {
        let mut s = ShadowBuf::with_config(PoolConfig {
            max_shadow_bytes: cap,
            ..Default::default()
        });
        for &size in &sizes {
            let before_hits = s.hits();
            let buf = s.acquire(size);
            prop_assert_eq!(buf.len(), size);
            if s.hits() > before_hits {
                // Reuse happened: the half-size rule bounds slack.
                prop_assert!(buf.capacity() <= 2 * size,
                    "reused {} for request {size}", buf.capacity());
            }
            s.release(buf);
            if let Some(max) = cap {
                prop_assert!(s.parked_capacity() <= max,
                    "parked {} over cap {max}", s.parked_capacity());
            }
        }
    }

    /// Sharded pools conserve objects: everything released can be
    /// re-acquired, nothing is duplicated.
    #[test]
    fn sharded_pool_conserves_objects(shards in 1usize..6, n in 1usize..40) {
        let pool: ShardedPool<usize> = ShardedPool::new(shards);
        let objs: Vec<pools::PoolBox<usize>> = (0..n).map(|i| pool.acquire(move || i)).collect();
        let mut values: Vec<usize> = objs.iter().map(|b| **b).collect();
        for o in objs {
            pool.release(o);
        }
        prop_assert_eq!(pool.len(), n);
        let mut back: Vec<usize> = (0..n).map(|_| *pool.acquire(|| usize::MAX)).collect();
        values.sort();
        back.sort();
        prop_assert_eq!(values, back, "objects lost or duplicated across shards");
    }
}
