//! A ptmalloc-like multi-arena allocator.
//!
//! Gloger's ptmalloc (§6): "the allocator is based on a multiple number of
//! sub-heaps. When a thread is about to make an allocation it 'spins' over
//! a number of heaps until it finds an unlocked heap. The thread will use
//! this heap for the allocation and for allocations to come. If an
//! allocation fails, the thread 'spins' for a new heap."
//!
//! Frees must return the block to its *owning* arena (boundary tags live
//! there), which is where cross-thread frees contend.

use crate::heap::{HeapStats, RawHeap};
use crate::traits::{BlockRef, ParallelAllocator};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's current arena per allocator instance.
    static CURRENT_ARENA: RefCell<HashMap<u64, usize>> = RefCell::new(HashMap::new());
}

/// Multi-arena allocator with try-lock arena selection.
#[derive(Debug)]
pub struct PtmallocAllocator {
    id: u64,
    arenas: Vec<Mutex<RawHeap>>,
    contention: AtomicU64,
}

impl PtmallocAllocator {
    /// Create with a fixed number of arenas (ptmalloc sizes this from the
    /// processor count; pass that in).
    pub fn new(arenas: usize) -> Self {
        assert!(arenas >= 1, "need at least one arena");
        PtmallocAllocator {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            arenas: (0..arenas).map(|_| Mutex::new(RawHeap::new())).collect(),
            contention: AtomicU64::new(0),
        }
    }

    fn preferred(&self) -> usize {
        CURRENT_ARENA.with(|c| {
            *c.borrow_mut().entry(self.id).or_insert_with(|| {
                use std::hash::{Hash, Hasher};
                let mut h = std::hash::DefaultHasher::new();
                std::thread::current().id().hash(&mut h);
                (h.finish() as usize) % self.arenas.len()
            })
        })
    }

    fn set_preferred(&self, idx: usize) {
        CURRENT_ARENA.with(|c| {
            c.borrow_mut().insert(self.id, idx);
        });
    }
}

impl ParallelAllocator for PtmallocAllocator {
    fn name(&self) -> &'static str {
        "ptmalloc"
    }

    fn alloc(&self, size: u32) -> BlockRef {
        let n = self.arenas.len();
        let start = self.preferred();
        // Spin over arenas for an unlocked one.
        for off in 0..n {
            let idx = (start + off) % n;
            if let Some(mut heap) = self.arenas[idx].try_lock() {
                if off != 0 {
                    self.set_preferred(idx);
                }
                let offset = heap.alloc(size);
                return BlockRef { arena: idx as u32, offset };
            }
            self.contention.fetch_add(1, Ordering::Relaxed);
        }
        // Everything locked: wait on the preferred arena.
        let offset = self.arenas[start].lock().alloc(size);
        BlockRef { arena: start as u32, offset }
    }

    fn free(&self, block: BlockRef) {
        // Frees are pinned to the owning arena; count the contended path.
        let arena = &self.arenas[block.arena as usize];
        let mut heap = match arena.try_lock() {
            Some(g) => g,
            None => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                arena.lock()
            }
        };
        heap.free(block.offset);
    }

    fn contention_events(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    fn heap_stats(&self) -> Vec<HeapStats> {
        self.arenas.iter().map(|a| a.lock().stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn allocations_carry_arena_index() {
        let a = PtmallocAllocator::new(4);
        let b = a.alloc(64);
        assert!((b.arena as usize) < 4);
        a.free(b);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn same_thread_sticks_to_one_arena() {
        let a = PtmallocAllocator::new(4);
        let b1 = a.alloc(32);
        let b2 = a.alloc(32);
        assert_eq!(b1.arena, b2.arena, "uncontended thread should stay on its arena");
        a.free(b1);
        a.free(b2);
    }

    #[test]
    fn cross_thread_free_goes_to_owning_arena() {
        let a = Arc::new(PtmallocAllocator::new(2));
        let blocks: Vec<BlockRef> = (0..32).map(|_| a.alloc(40)).collect();
        let owner = blocks[0].arena;
        let a2 = Arc::clone(&a);
        std::thread::spawn(move || {
            for b in blocks {
                a2.free(b);
            }
        })
        .join()
        .unwrap();
        assert_eq!(a.live_bytes(), 0);
        // The owning arena performed all the frees.
        let stats = a.heap_stats();
        assert_eq!(stats[owner as usize].frees, 32);
    }

    #[test]
    fn concurrent_stress() {
        let a = Arc::new(PtmallocAllocator::new(4));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                for i in 0..400u32 {
                    live.push(a.alloc(16 + (i % 64) * 4));
                    if i % 3 == 0 {
                        if let Some(b) = live.pop() {
                            a.free(b);
                        }
                    }
                }
                for b in live {
                    a.free(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.total_allocs(), 8 * 400);
        assert_eq!(a.total_frees(), 8 * 400);
        assert_eq!(a.live_bytes(), 0);
    }

    #[test]
    fn single_arena_degenerates_to_serial() {
        let a = PtmallocAllocator::new(1);
        let b1 = a.alloc(100);
        let b2 = a.alloc(100);
        assert_eq!(b1.arena, 0);
        assert_eq!(b2.arena, 0);
        a.free(b1);
        a.free(b2);
    }
}
