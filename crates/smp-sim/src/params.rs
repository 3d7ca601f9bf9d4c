//! Cost-model parameters for the simulated SMP.
//!
//! The absolute values are calibrated to a late-1990s SMP (the paper's Sun
//! Enterprise 4000/10000 class): a serial `malloc` with coalescing costs
//! most of a microsecond, arena allocators are ~2–3× cheaper per call, and
//! a pool operation ("lock, insert/remove an object into a free list, and
//! then unlock" — §5.1) is an order of magnitude cheaper than a malloc.
//! The reproduced figures depend on the *ratios*, not the absolutes.

use serde::{Deserialize, Serialize};

/// All timing constants, in simulated nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// One allocation in a serial, coalescing allocator (Solaris default).
    pub(crate) malloc_serial_ns: u64,
    /// One free in the serial allocator.
    pub(crate) free_serial_ns: u64,
    /// One allocation in an arena allocator (ptmalloc / Hoard / SmartHeap).
    pub(crate) malloc_arena_ns: u64,
    /// One free in an arena allocator.
    pub(crate) free_arena_ns: u64,
    /// Free-list push/pop inside a pool (excluding the lock).
    pub(crate) pool_op_ns: u64,
    /// Uncontended mutex acquire.
    pub(crate) lock_ns: u64,
    /// Mutex release.
    pub(crate) unlock_ns: u64,
    /// One try-lock probe of a locked arena/shard (ptmalloc spill).
    pub(crate) probe_ns: u64,
    /// Cache hit (line valid in this CPU's cache).
    pub(crate) cache_hit_ns: u64,
    /// Plain memory miss (line not cached anywhere dirty).
    pub(crate) mem_miss_ns: u64,
    /// Coherence miss (line dirty in another CPU's cache) — the cost that
    /// makes false sharing visible.
    pub(crate) coherence_ns: u64,
    /// Per-node application work when initializing a freshly created node
    /// (constructor body).
    pub(crate) node_init_ns: u64,
    /// Per-node application work when destroying a node (destructor body).
    pub(crate) node_destroy_ns: u64,
    /// Scheduler time slice.
    pub(crate) quantum_ns: u64,
    /// Direct cost of a context switch / dispatch.
    pub(crate) ctx_switch_ns: u64,
    /// Extra latency when a memory miss is filled from a remote NUMA
    /// node's memory (charged on top of `mem_miss_ns`; only applies when
    /// `SimConfig::cpus_per_node > 0`).
    pub(crate) numa_remote_mem_ns: u64,
    /// Extra latency when a dirty-line coherence transfer crosses NUMA
    /// nodes (charged on top of `coherence_ns`).
    pub(crate) numa_remote_coherence_ns: u64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            malloc_serial_ns: 900,
            free_serial_ns: 700,
            malloc_arena_ns: 350,
            free_arena_ns: 250,
            pool_op_ns: 40,
            lock_ns: 60,
            unlock_ns: 30,
            probe_ns: 25,
            cache_hit_ns: 2,
            mem_miss_ns: 90,
            coherence_ns: 240,
            node_init_ns: 100,
            node_destroy_ns: 60,
            quantum_ns: 2_000_000, // 2 ms — Solaris-era time slice
            ctx_switch_ns: 3_000,
            // Remote/local latency ratio ≈ 2.7 for fills and ≈ 2 for
            // dirty transfers — the interconnect-hop geometry of
            // directory-based ccNUMA boxes (Origin/E10000 class).
            numa_remote_mem_ns: 150,
            numa_remote_coherence_ns: 260,
        }
    }
}

/// Fixed architectural constants.
pub(crate) mod arch {
    /// Cache line size in bytes (UltraSPARC E-cache line granularity for
    /// coherence; 64 B keeps the false-sharing geometry realistic).
    pub(crate) const CACHE_LINE: u64 = 64;

    /// Largest simulated-machine size the engine supports (sized so the
    /// cache directory's [`CpuSet`](crate::cache::CpuSet) stays a flat
    /// four-word bitmask).
    pub(crate) const MAX_CPUS: u32 = 256;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_op_is_order_of_magnitude_cheaper_than_malloc() {
        let p = CostParams::default();
        assert!(p.malloc_serial_ns >= 10 * p.pool_op_ns);
        assert!(p.malloc_arena_ns >= 5 * p.pool_op_ns);
    }

    #[test]
    fn coherence_miss_dominates_hit() {
        let p = CostParams::default();
        assert!(p.coherence_ns > p.mem_miss_ns);
        assert!(p.mem_miss_ns > p.cache_hit_ns);
    }

    #[test]
    fn serde_round_trip() {
        let p = CostParams::default();
        let json = serde_json::to_string(&p).unwrap();
        let q: CostParams = serde_json::from_str(&json).unwrap();
        assert_eq!(p, q);
    }
}
