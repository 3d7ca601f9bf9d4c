//! Invariants of the typed pools' slot layout: structure reuse keeps a
//! parked structure's child links through every tier and across threads,
//! `trim` destroys each parked object exactly once, and the ledger stays
//! exact in direct mode (magazine capacity 0) and in a capped pool.

use pools::structure_pool::Reusable;
use pools::{PoolConfig, ShardedPool, StructurePool};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// The benchmark's shape: a depth-1 binary tree of boxed nodes.
struct Tree {
    root: Box<Node>,
}

struct Node {
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
    data: u64,
}

impl Node {
    fn build(depth: u32, seed: u64) -> Box<Node> {
        let kid = |s| (depth > 0).then(|| Node::build(depth - 1, s));
        Box::new(Node { left: kid(2 * seed + 1), right: kid(2 * seed + 2), data: seed })
    }
}

impl Tree {
    /// The addresses of the root and its two children.
    fn links(&self) -> [usize; 3] {
        let addr = |n: &Option<Box<Node>>| n.as_deref().map_or(0, |n| n as *const Node as usize);
        [&*self.root as *const Node as usize, addr(&self.root.left), addr(&self.root.right)]
    }
}

impl Reusable for Tree {
    type Params = u64;
    fn fresh(seed: &u64) -> Self {
        Tree { root: Node::build(1, *seed) }
    }
    fn reinit(&mut self, seed: &u64) {
        // Data only: the links stay as parked.
        self.root.data = *seed;
        for (n, s) in [(&mut self.root.left, 2 * seed + 1), (&mut self.root.right, 2 * seed + 2)] {
            n.as_mut().expect("a parked tree keeps its children").data = s;
        }
    }
}

#[test]
fn child_links_survive_magazine_depot_and_another_threads_swap() {
    const CAP: usize = 4;
    let pool =
        Arc::new(StructurePool::<Tree>::new_sharded_with_magazines(1, PoolConfig::default(), CAP));
    // Thread A builds CAP + 1 trees and frees them: the first CAP fill its
    // magazine, the last release parks that magazine whole on the depot,
    // and A's exit parks the last tree as a node of its own.
    let parked: HashMap<usize, [usize; 3]> = {
        let p = Arc::clone(&pool);
        std::thread::spawn(move || {
            let trees: Vec<_> = (0..=CAP as u64).map(|s| p.alloc(&s)).collect();
            let links = trees.iter().map(|t| (t.links()[0], t.links())).collect();
            trees.into_iter().for_each(|t| p.free(t));
            links
        })
        .join()
        .unwrap()
    };
    assert_eq!(pool.stats().depot_parks(), 1, "A's full magazine parked on the depot");
    // Thread B misses its (new) magazine and swaps in A's exit node, then
    // A's parked magazine.
    let p = Arc::clone(&pool);
    let revived = std::thread::spawn(move || {
        let trees: Vec<_> = (100..=100 + CAP as u64).map(|s| p.alloc(&s)).collect();
        let links: Vec<_> = trees.iter().map(|t| t.links()).collect();
        for (t, s) in trees.iter().zip(100u64..) {
            assert_eq!(t.root.data, s, "reinit ran");
            assert_eq!(t.root.right.as_ref().unwrap().data, 2 * s + 2);
        }
        trees.into_iter().for_each(|t| p.free(t));
        links
    })
    .join()
    .unwrap();
    for links in &revived {
        assert_eq!(parked.get(&links[0]), Some(links), "a revived tree kept all its links");
    }
    let s = pool.stats();
    assert_eq!(revived.len(), CAP + 1);
    assert_eq!((s.depot_swaps(), s.fresh_allocs()), (2, CAP as u64 + 1), "two swaps, no rebuild");
}

/// A value that records its own destruction.
struct Counted(usize);

static DROPS: Mutex<Vec<usize>> = Mutex::new(Vec::new());

impl Drop for Counted {
    fn drop(&mut self) {
        DROPS.lock().unwrap().push(self.0);
    }
}

#[test]
fn trim_drops_each_parked_object_exactly_once() {
    let pool = Arc::new(ShardedPool::<Counted>::with_magazines(2, PoolConfig::default(), 4));
    let next = AtomicUsize::new(0);
    let fresh = || Counted(next.fetch_add(1, Ordering::Relaxed));
    // Every tier holds some: a flushed depot list, parked depot magazines,
    // this thread's magazine, and a live remote magazine.
    let held: Vec<_> = (0..6).map(|_| pool.acquire(fresh)).collect();
    held.into_iter().for_each(|b| pool.release(b));
    assert_eq!(pool.flush_local_magazine(), 2, "two of six left in the magazine");
    let held: Vec<_> = (0..11).map(|_| pool.acquire(fresh)).collect();
    held.into_iter().for_each(|b| pool.release(b));
    assert!(pool.depot_parked() > 0 && pool.magazine_parked() > 0);
    let barrier = Arc::new(Barrier::new(2));
    let remote = {
        let (p, b) = (Arc::clone(&pool), Arc::clone(&barrier));
        let base = 1000;
        std::thread::spawn(move || {
            for i in 0..3 {
                p.release(Box::new(Counted(base + i)));
            }
            b.wait(); // cached here
            b.wait(); // trimmed elsewhere
            let fresh = p.acquire(|| Counted(base + 3));
            assert_eq!(fresh.0, base + 3, "the stale cache must not serve");
        })
    };
    barrier.wait();
    let before = pool.len();
    let made = next.load(Ordering::Relaxed);
    assert_eq!(before, made + 3, "every object is parked somewhere");
    let trimmed = pool.trim();
    assert_eq!(trimmed, made, "the remote magazine's three drop lazily");
    barrier.wait();
    remote.join().unwrap();
    drop(pool);
    let mut drops = DROPS.lock().unwrap().clone();
    drops.sort_unstable();
    let want: Vec<usize> = (0..made).chain(1000..1004).collect();
    assert_eq!(drops, want, "each object destroyed exactly once");
}

/// Allocate and free from two threads, then check the quiescent ledger.
fn churn(pool: &Arc<StructurePool<Tree>>) {
    // Both threads hold their first round at once: 14 live objects, so a
    // capped pool (2 magazines of 4, a depot bound of 2 × 3) must drop
    // some whatever the schedule.
    let first_round_held = Barrier::new(2);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|t| {
                let first_round_held = &first_round_held;
                scope.spawn(move || {
                    for round in 0..20 {
                        let held: Vec<_> = (0..7)
                            .map(|i| pool.alloc_sized(&(t * 1000 + round * 10 + i), 72))
                            .collect();
                        if round == 0 {
                            first_round_held.wait();
                        }
                        held.into_iter().for_each(|tree| pool.free_sized(tree, 72));
                    }
                })
            })
            .collect();
        // Explicit joins: the scope's implicit join returns before the
        // workers' TLS destructors retire their magazines, and a retiring
        // magazine's list is counted in both it and the depot.
        for h in handles {
            h.join().expect("churn worker");
        }
    });
}

#[test]
fn direct_mode_and_capped_pools_keep_the_ledger_exact() {
    let capped = PoolConfig { max_objects: Some(3), ..Default::default() };
    let layouts = [
        ("direct", StructurePool::new_sharded_with_magazines(2, PoolConfig::default(), 0)),
        ("capped", StructurePool::new_sharded_with_magazines(2, capped, 4)),
        ("capped direct", StructurePool::new_sharded_with_magazines(2, capped, 0)),
    ];
    for (name, pool) in layouts {
        let pool = Arc::new(pool);
        churn(&pool);
        let s = pool.stats();
        assert_eq!(s.total_allocs(), 280, "{name}: allocs");
        assert_eq!(s.frees(), 280, "{name}: frees");
        assert_eq!(s.live_bytes(), 0, "{name}: live bytes");
        assert_eq!(s.pool_hits() + s.fresh_allocs(), s.total_allocs(), "{name}: hits + fresh");
        let kept = pool.alloc_sized(&7, 72);
        assert_eq!(pool.stats().live_bytes(), 72, "{name}: one live structure");
        pool.free_sized(kept, 72);
        assert_eq!((pool.stats().live_bytes(), pool.stats().frees()), (0, 281), "{name}");
        if name.starts_with("capped") {
            assert!(pool.len() <= 2 * 3 + 4, "{name}: the cap bounds residency");
            assert!(pool.stats().dropped() > 0, "{name}: the cap dropped some");
        }
    }
}
