//! Concurrent snapshot consistency of the pool backend's ledger: `stats()`
//! taken while worker threads hammer the `amplify` [`MemBackend`] must stay
//! internally coherent.
//!
//! The backend's frees and live bytes come from the pool's own ledger,
//! which is not read as one atomic cut. Two bounds must still hold from any
//! observer (each worker can be one operation ahead of what the snapshot
//! saw of it):
//!
//! * `frees ≤ allocs + WORKERS`;
//! * `live_bytes ≤ (allocs − frees + WORKERS) × footprint`, which also
//!   rules out a ledger that went negative and wrapped.

use mem_api::{BackendRegistry, MemBackend, Structured};
use pools::structure_pool::Reusable;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WORKERS: u64 = 4;
const ROUNDS_PER_WORKER: u64 = 2_000;
/// Structures a worker holds at once in its bursts: over a magazine's
/// worth, so parks, swaps and fresh allocations take the cold paths too.
const BURST: usize = 48;

struct Blob([u64; 4]);

impl Reusable for Blob {
    type Params = u64;
    fn fresh(p: &u64) -> Self {
        Blob([*p; 4])
    }
    fn reinit(&mut self, p: &u64) {
        self.0 = [*p; 4];
    }
}

impl Structured for Blob {
    fn node_count(_: &u64) -> u32 {
        1
    }
    fn node_size(_: &u64, _: u32) -> u32 {
        32
    }
    fn checksum(&self) -> u64 {
        self.0.iter().sum()
    }
}

#[test]
fn backend_ledger_stays_within_bounds_under_concurrent_traffic() {
    let backend: Arc<dyn MemBackend<Blob>> =
        BackendRegistry::<Blob>::standard().build("amplify").expect("a standard backend");
    let footprint = Blob::footprint(&0);
    let start = Arc::new(Barrier::new(WORKERS as usize + 1));
    let workers: Vec<_> = (0..WORKERS)
        .map(|t| {
            let backend = Arc::clone(&backend);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                let mut held = Vec::with_capacity(BURST);
                for round in 0..ROUNDS_PER_WORKER {
                    // Mostly alloc/free pairs (magazine hits), with a burst
                    // every eighth round.
                    let n = if round % 8 == 7 { BURST } else { 1 };
                    for i in 0..n as u64 {
                        held.push(backend.alloc(&(t << 32 | i)));
                    }
                    while let Some(a) = held.pop() {
                        backend.free(a);
                    }
                }
            })
        })
        .collect();

    let done = Arc::new(AtomicBool::new(false));
    let observer = {
        let backend = Arc::clone(&backend);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut taken = 0u64;
            while !done.load(Ordering::Relaxed) || taken == 0 {
                let s = backend.stats();
                assert!(
                    s.frees() <= s.allocs() + WORKERS,
                    "frees {} outran allocs {} by more than the worker count",
                    s.frees(),
                    s.allocs()
                );
                let in_flight = s.allocs() + WORKERS - s.frees();
                assert!(
                    s.live_bytes() <= in_flight * footprint,
                    "live_bytes {} exceeds {in_flight} structures of {footprint} bytes \
                     (allocs {}, frees {})",
                    s.live_bytes(),
                    s.allocs(),
                    s.frees()
                );
                taken += 1;
            }
            taken
        })
    };

    start.wait();
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    assert!(observer.join().unwrap() > 0, "observer never got a snapshot in");

    // Quiescent: the ledger is exact.
    let s = backend.stats();
    assert_eq!(s.allocs(), s.frees());
    assert_eq!(s.allocs(), s.pool_hits() + s.fresh_allocs());
    assert_eq!(s.live_bytes(), 0);
}
