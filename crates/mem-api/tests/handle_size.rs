//! The typed handles stay register-sized: a `PoolBox` is one pointer and
//! an `Allocation` two words, for the benchmark's tree shape.

use mem_api::{Allocation, BackendRegistry, Structured};
use pools::structure_pool::Reusable;
use pools::PoolBox;
use std::mem::size_of;

/// A depth-1 tree of boxed nodes, the typed workloads' structure.
struct Tree {
    root: Box<Node>,
}

struct Node {
    left: Option<Box<Node>>,
    right: Option<Box<Node>>,
    data: u64,
}

impl Reusable for Tree {
    type Params = u64;
    fn fresh(seed: &u64) -> Self {
        let leaf = |d| Some(Box::new(Node { left: None, right: None, data: d }));
        Tree { root: Box::new(Node { left: leaf(seed + 1), right: leaf(seed + 2), data: *seed }) }
    }
    fn reinit(&mut self, seed: &u64) {
        *self = Self::fresh(seed);
    }
}

impl Structured for Tree {
    fn node_count(_: &u64) -> u32 {
        3
    }
    fn node_size(_: &u64, _: u32) -> u32 {
        size_of::<Node>() as u32
    }
    fn checksum(&self) -> u64 {
        let kid = |n: &Option<Box<Node>>| n.as_ref().map_or(0, |n| n.data);
        self.root.data + kid(&self.root.left) + kid(&self.root.right)
    }
}

#[test]
fn pool_box_is_one_word_and_allocation_two() {
    assert_eq!(size_of::<PoolBox<Tree>>(), 8);
    assert_eq!(size_of::<Allocation<Tree>>(), 16);
    assert_eq!(size_of::<Option<Allocation<Tree>>>(), 16, "the handle's niche");
}

#[test]
fn every_backend_reports_the_byte_count_it_was_given() {
    let registry = BackendRegistry::<Tree>::standard();
    for name in registry.names() {
        let backend = registry.build(name).expect("registered");
        let a = backend.alloc(&5);
        assert_eq!((a.bytes(), a.checksum()), (72, 5 + 6 + 7), "{name}");
        backend.free(a);
        assert_eq!(backend.stats().frees(), 1, "{name}");
    }
}
