//! The generic executor: ONE runner for every (backend × workload) pair.
//!
//! Any [`MemBackend`] (serial/ptmalloc/hoard malloc, the three Amplify
//! pool layouts, the handmade per-thread pool) executes any [`Workload`]
//! (trees, recorded traces, the BGw CDR pipeline) through
//! [`run_workload`] — the paper's five-way comparison as a single loop,
//! replacing the three near-identical tree runners this module used to
//! carry. (Wall-clock *scalability* comparisons live in the simulator —
//! this host has a single CPU — but per-operation costs and correctness
//! are measured natively here.) The loop times the whole run, never one
//! call: a clock read per call would cost more than the pool hit it timed.

use mem_api::{Allocation, BackendStats, MemBackend, Structured};
use std::time::{Duration, Instant};

/// One step of a workload's per-thread allocation script.
#[derive(Debug, Clone, Copy)]
pub enum StructOp<P> {
    /// Allocate a structure with `params` into slot `slot`.
    Alloc { slot: u32, params: P },
    /// Free the structure in slot `slot`.
    Free { slot: u32 },
}

/// A workload: a deterministic, per-thread script of structure
/// allocations and frees, independent of the backend executing it.
///
/// Determinism contract: `run_thread(t, ...)` must emit the same op
/// sequence every call, so per-thread checksums agree across backends and
/// repeated runs.
pub trait Workload<T: Structured>: Sync {
    /// Worker threads the workload wants.
    fn threads(&self) -> u32;

    /// Concurrent live structures per thread (slot table size).
    fn slots(&self) -> u32;

    /// Emit thread `thread`'s ops in order through `op`.
    fn run_thread(&self, thread: u32, op: &mut dyn FnMut(StructOp<T::Params>));
}

/// Result of one (backend × workload) execution.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub elapsed: Duration,
    /// Per-thread checksums (for cross-backend determinism assertions).
    pub checksums: Vec<u64>,
    /// The backend's uniform counters — hits, fresh allocations and
    /// contention events included, whichever strategy ran.
    pub stats: BackendStats,
}

/// Execute `workload` against `backend`: one OS thread per workload
/// thread, a slot table of live allocations per thread, checksums
/// accumulated at allocation time. Structures still live when a thread's
/// script ends are freed in reverse slot order (as destructors would run),
/// so balanced workloads leave the backend with zero live bytes.
///
/// # Panics
/// Panics if the workload allocates into a live slot or frees an empty
/// one (the trace-validation errors, caught at execution time).
pub fn run_workload<T: Structured>(
    backend: &dyn MemBackend<T>,
    workload: &dyn Workload<T>,
) -> RunResult {
    let threads = workload.threads();
    let slots = workload.slots() as usize;
    let start = Instant::now();
    let mut checksums = vec![0u64; threads as usize];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    // Pin the worker's fault-injection ordinal to its stable
                    // workload index: under `fault-inject` the injected
                    // schedule then depends only on (seed, t, op sequence),
                    // never on OS thread identity. No-op otherwise.
                    pools::fault::set_thread_ordinal(t as u64);
                    let mut live: Vec<Option<Allocation<T>>> = (0..slots).map(|_| None).collect();
                    let mut sum = 0u64;
                    workload.run_thread(t, &mut |op| match op {
                        StructOp::Alloc { slot, params } => {
                            let a = backend.alloc(&params);
                            sum = sum.wrapping_add(a.checksum());
                            let prev = live[slot as usize].replace(a);
                            assert!(prev.is_none(), "workload allocated into live slot {slot}");
                        }
                        StructOp::Free { slot } => {
                            let a =
                                live[slot as usize].take().expect("workload freed an empty slot");
                            backend.free(a);
                        }
                    });
                    for a in live.into_iter().rev().flatten() {
                        backend.free(a);
                    }
                    sum
                })
            })
            .collect();
        for (t, h) in handles.into_iter().enumerate() {
            checksums[t] = h.join().expect("worker panicked");
        }
    });
    RunResult { elapsed: start.elapsed(), checksums, stats: backend.stats() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Chunk, Trace, TraceWorkload};
    use crate::tree::TreeWorkload;
    use allocators::{HoardAllocator, ParallelAllocator, PtmallocAllocator, SerialAllocator};
    use mem_api::{BackendRegistry, MallocBackend};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// Replay one trace per thread against a shared handle-based
    /// allocator: the traces become a [`TraceWorkload`] over [`Chunk`]
    /// structures and run through [`run_workload`] on a [`MallocBackend`].
    fn run_traces(alloc: Arc<dyn ParallelAllocator>, traces: &[Trace]) -> RunResult {
        let workload = TraceWorkload::new(traces);
        let backend = MallocBackend::new(alloc);
        run_workload::<Chunk>(&backend, &workload)
    }

    fn tree_traces(threads: u32) -> Vec<Trace> {
        (0..threads).map(|_| Trace::tree(3, 50, 20)).collect()
    }

    #[test]
    fn traces_replay_on_all_allocators() {
        for alloc in [
            Arc::new(SerialAllocator::new()) as Arc<dyn ParallelAllocator>,
            Arc::new(PtmallocAllocator::new(4)),
            Arc::new(HoardAllocator::new(4)),
        ] {
            let name = alloc.name();
            let r = run_traces(alloc, &tree_traces(4));
            assert_eq!(r.stats.allocs(), 4 * 50 * 15, "{name}");
            assert_eq!(r.stats.allocs(), r.stats.frees(), "{name}");
            assert_eq!(r.stats.live_bytes(), 0, "{name}");
        }
    }

    #[test]
    fn every_standard_backend_agrees_on_tree_checksums() {
        let w = TreeWorkload { depth: 3, iterations: 20, threads: 3 };
        let registry = BackendRegistry::standard();
        let reference = run_workload(&*registry.build("solaris-default").unwrap(), &w);
        for name in registry.names() {
            let backend = registry.build(name).unwrap();
            let r = run_workload(&*backend, &w);
            assert_eq!(r.checksums, reference.checksums, "{name}");
            assert_eq!(r.stats.allocs(), 60, "{name}");
            assert_eq!(r.stats.frees(), 60, "{name}");
            assert_eq!(r.stats.live_bytes(), 0, "{name}");
        }
    }

    #[test]
    fn pooling_turns_allocations_into_hits() {
        let w = TreeWorkload { depth: 3, iterations: 100, threads: 2 };
        let registry = BackendRegistry::standard();
        let backend = registry.build("amplify-local").unwrap();
        let r = run_workload(&*backend, &w);
        let total = (w.iterations * w.threads) as u64;
        assert_eq!(r.stats.pool_hits() + r.stats.fresh_allocs(), total);
        // Shared LIFO pool: after warm-up everything is a hit.
        assert!(r.stats.pool_hits() >= total - 10, "hits {} of {total}", r.stats.pool_hits());
    }

    #[test]
    fn contention_events_are_reported_for_pooled_backends() {
        // The field exists and is coherent for every backend kind — the
        // counter only `run_traces` used to surface.
        let w = TreeWorkload { depth: 1, iterations: 50, threads: 4 };
        let registry = BackendRegistry::standard();
        for name in ["amplify-sharded", "amplify", "handmade", "ptmalloc"] {
            let backend = registry.build(name).unwrap();
            let r = run_workload(&*backend, &w);
            if name == "handmade" {
                assert_eq!(r.stats.contention_events(), 0, "handmade never locks");
            }
            assert!(r.stats.contention_events() <= r.stats.allocs() * 64, "{name}");
        }
    }

    #[test]
    fn seeds_are_distinct_across_threads_and_iterations() {
        // The old runners derived `seed = t * 1000 + i`, which collides
        // across threads once iterations >= 1000. The mixed seeds must be
        // pairwise distinct well past that point.
        let w = TreeWorkload { depth: 1, iterations: 2500, threads: 4 };
        let mut seen = HashSet::new();
        for t in 0..w.threads {
            for i in 0..w.iterations {
                assert!(
                    seen.insert(w.seed_for(t, i)),
                    "seed collision at thread {t}, iteration {i}"
                );
            }
        }
        assert_eq!(seen.len(), 4 * 2500);
    }

    #[test]
    fn distinct_seeds_give_distinct_thread_checksums() {
        let w = TreeWorkload { depth: 2, iterations: 1200, threads: 3 };
        let registry = BackendRegistry::standard();
        let r = run_workload(&*registry.build("handmade").unwrap(), &w);
        let unique: HashSet<u64> = r.checksums.iter().copied().collect();
        assert_eq!(unique.len(), 3, "thread checksums must differ: {:?}", r.checksums);
    }

    #[test]
    #[should_panic(expected = "malformed trace")]
    fn malformed_traces_are_rejected() {
        use crate::trace::TraceOp;
        let bad = Trace { ops: vec![TraceOp::Free { id: 0 }] };
        run_traces(Arc::new(SerialAllocator::new()), &[bad]);
    }
}
