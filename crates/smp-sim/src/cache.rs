//! MESI-lite cache-coherence model and the NUMA-aware cost layer.
//!
//! [`CacheModel`] tracks, per 64-byte line, which CPU last wrote it and
//! which CPUs hold a copy. Costs come out as one of three latencies:
//! local hit, memory miss, or **coherence miss** (the line is dirty in
//! another CPU's cache and must be transferred/invalidated). False
//! sharing needs no special casing — it emerges whenever two threads'
//! data land on the same line, which is exactly what happens when a
//! serial heap interleaves small blocks from different threads (§5.1's
//! explanation for Amplify's poor scaleup in test case 1).
//!
//! [`CacheSystem`] wraps the directory with a first-touch NUMA model:
//! when `cpus_per_node > 0`, CPUs are grouped into nodes of that size, a
//! line's *home node* is the node of the CPU that first touched it, and
//! misses served from a remote node pay an extra penalty
//! ([`CostParams::numa_remote_mem_ns`] for memory fills,
//! [`CostParams::numa_remote_coherence_ns`] for dirty-line transfers
//! sourced from another node's cache). `cpus_per_node == 0` models a
//! uniform-memory SMP — the paper's 8-CPU Enterprise machine — with zero
//! cost deltas against the plain directory.

use crate::params::{
    arch::{CACHE_LINE, MAX_CPUS},
    CostParams,
};
use std::collections::HashMap;

/// Outcome classification of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    Hit,
    MemMiss,
    CoherenceMiss,
}

/// A set of CPU indices, sized for [`MAX_CPUS`] simulated cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CpuSet([u64; (MAX_CPUS as usize) / 64]);

impl CpuSet {
    /// The set containing only `cpu`.
    pub(crate) fn only(cpu: u32) -> Self {
        let mut s = Self::default();
        s.insert(cpu);
        s
    }

    #[inline]
    fn slot(cpu: u32) -> (usize, u64) {
        debug_assert!(cpu < MAX_CPUS, "CpuSet supports up to {MAX_CPUS} CPUs");
        ((cpu / 64) as usize, 1u64 << (cpu % 64))
    }

    /// Add `cpu` to the set.
    pub(crate) fn insert(&mut self, cpu: u32) {
        let (w, b) = Self::slot(cpu);
        self.0[w] |= b;
    }

    /// Whether `cpu` is in the set.
    pub(crate) fn contains(&self, cpu: u32) -> bool {
        let (w, b) = Self::slot(cpu);
        self.0[w] & b != 0
    }

    /// Whether any CPU *other than* `cpu` is in the set.
    pub(crate) fn any_other(&self, cpu: u32) -> bool {
        let (w, b) = Self::slot(cpu);
        self.0.iter().enumerate().any(|(i, &word)| if i == w { word & !b != 0 } else { word != 0 })
    }
}

#[derive(Debug, Clone, Default)]
struct Line {
    /// CPU that last wrote the line (line is dirty there), if any.
    dirty_in: Option<u32>,
    /// CPUs holding a (clean or dirty) copy.
    sharers: CpuSet,
}

/// The coherence directory for one simulation run.
#[derive(Debug, Default)]
pub(crate) struct CacheModel {
    lines: HashMap<u64, Line>,
    hits: u64,
    mem_misses: u64,
    coherence_misses: u64,
}

impl CacheModel {
    /// Empty directory.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Classify and record an access by `cpu` to byte address `addr`.
    pub(crate) fn access(&mut self, cpu: u32, addr: u64, write: bool) -> Access {
        self.access_traced(cpu, addr, write).0
    }

    /// Like [`CacheModel::access`], additionally reporting which CPU's
    /// cache sourced a dirty-line transfer (`None` unless the outcome is
    /// a coherence miss with a dirty source; a clean-sharer invalidation
    /// is a coherence miss served by the line's home memory).
    pub(crate) fn access_traced(
        &mut self,
        cpu: u32,
        addr: u64,
        write: bool,
    ) -> (Access, Option<u32>) {
        debug_assert!(cpu < MAX_CPUS, "directory supports up to {MAX_CPUS} CPUs");
        let line = self.lines.entry(addr / CACHE_LINE).or_default();
        let have_copy = line.sharers.contains(cpu);
        let dirty_elsewhere = line.dirty_in.filter(|&d| d != cpu);

        let outcome = if write {
            if line.dirty_in == Some(cpu) {
                Access::Hit
            } else if line.dirty_in.is_some() || line.sharers.any_other(cpu) {
                // Must invalidate other copies / fetch the dirty line.
                Access::CoherenceMiss
            } else if have_copy {
                Access::Hit // clean & exclusive here: silent upgrade
            } else {
                Access::MemMiss
            }
        } else if have_copy && line.dirty_in.is_none_or(|d| d == cpu) {
            Access::Hit
        } else if dirty_elsewhere.is_some() {
            Access::CoherenceMiss
        } else if have_copy {
            Access::Hit
        } else {
            Access::MemMiss
        };
        let source = if outcome == Access::CoherenceMiss { dirty_elsewhere } else { None };

        // State update.
        if write {
            line.dirty_in = Some(cpu);
            line.sharers = CpuSet::only(cpu);
        } else {
            line.sharers.insert(cpu);
            if dirty_elsewhere.is_some() {
                // Reader pulled the dirty line; it is now shared-clean.
                line.dirty_in = None;
            }
        }

        match outcome {
            Access::Hit => self.hits += 1,
            Access::MemMiss => self.mem_misses += 1,
            Access::CoherenceMiss => self.coherence_misses += 1,
        }
        (outcome, source)
    }

    /// Latency of an access under the given parameters (UMA: no NUMA
    /// surcharge — see [`CacheSystem::cost`] for the node-aware version).
    pub(crate) fn cost(&mut self, cpu: u32, addr: u64, write: bool, p: &CostParams) -> u64 {
        match self.access(cpu, addr, write) {
            Access::Hit => p.cache_hit_ns,
            Access::MemMiss => p.mem_miss_ns,
            Access::CoherenceMiss => p.coherence_ns,
        }
    }

    /// Cache hits recorded.
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// Plain memory misses recorded.
    pub(crate) fn mem_misses(&self) -> u64 {
        self.mem_misses
    }

    /// Coherence (dirty-transfer/invalidate) misses recorded.
    pub(crate) fn coherence_misses(&self) -> u64 {
        self.coherence_misses
    }
}

/// The coherence directory plus NUMA topology: the component engine's
/// memory-cost oracle.
#[derive(Debug)]
pub(crate) struct CacheSystem {
    dir: CacheModel,
    /// CPUs per NUMA node; `0` means uniform memory (a single node).
    cpus_per_node: u32,
    /// Line index → home node, assigned on first touch.
    home: HashMap<u64, u32>,
}

impl CacheSystem {
    /// A fresh system. `cpus_per_node == 0` disables NUMA costs entirely.
    pub(crate) fn new(cpus_per_node: u32) -> Self {
        CacheSystem { dir: CacheModel::new(), cpus_per_node, home: HashMap::new() }
    }

    /// NUMA node of `cpu`.
    pub(crate) fn node_of(&self, cpu: u32) -> u32 {
        cpu.checked_div(self.cpus_per_node).unwrap_or(0)
    }

    /// Latency of an access by `cpu` to `addr`: the directory outcome's
    /// base cost plus, off the accessor's node, the remote-node surcharge
    /// (memory fills keyed by the line's first-touch home, dirty
    /// transfers keyed by the sourcing cache's node).
    pub(crate) fn cost(&mut self, cpu: u32, addr: u64, write: bool, p: &CostParams) -> u64 {
        if self.cpus_per_node == 0 {
            return self.dir.cost(cpu, addr, write, p);
        }
        let (outcome, dirty_src) = self.dir.access_traced(cpu, addr, write);
        let node = self.node_of(cpu);
        let home = *self.home.entry(addr / CACHE_LINE).or_insert(node);
        match outcome {
            Access::Hit => p.cache_hit_ns,
            Access::MemMiss => p.mem_miss_ns + if home != node { p.numa_remote_mem_ns } else { 0 },
            Access::CoherenceMiss => {
                let src_node = dirty_src.map_or(home, |d| self.node_of(d));
                p.coherence_ns + if src_node != node { p.numa_remote_coherence_ns } else { 0 }
            }
        }
    }

    /// Cache hits recorded.
    pub(crate) fn hits(&self) -> u64 {
        self.dir.hits()
    }

    /// Plain memory misses recorded.
    pub(crate) fn mem_misses(&self) -> u64 {
        self.dir.mem_misses()
    }

    /// Coherence misses recorded.
    pub(crate) fn coherence_misses(&self) -> u64 {
        self.dir.coherence_misses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_touch_is_mem_miss_then_hit() {
        let mut c = CacheModel::new();
        assert_eq!(c.access(0, 0x100, false), Access::MemMiss);
        assert_eq!(c.access(0, 0x100, false), Access::Hit);
        assert_eq!(c.access(0, 0x108, false), Access::Hit, "same line");
        assert_eq!(c.access(0, 0x140, false), Access::MemMiss, "next line");
    }

    #[test]
    fn write_write_ping_pong_between_cpus() {
        let mut c = CacheModel::new();
        assert_eq!(c.access(0, 0x0, true), Access::MemMiss);
        assert_eq!(c.access(1, 0x0, true), Access::CoherenceMiss);
        assert_eq!(c.access(0, 0x0, true), Access::CoherenceMiss);
        assert_eq!(c.access(0, 0x0, true), Access::Hit);
        assert_eq!(c.coherence_misses(), 2);
    }

    #[test]
    fn false_sharing_on_one_line() {
        let mut c = CacheModel::new();
        // CPU0 writes byte 0, CPU1 writes byte 32: same 64-byte line.
        c.access(0, 0, true);
        assert_eq!(c.access(1, 32, true), Access::CoherenceMiss);
        assert_eq!(c.access(0, 0, true), Access::CoherenceMiss);
    }

    #[test]
    fn read_sharing_is_cheap_after_first_fetch() {
        let mut c = CacheModel::new();
        c.access(0, 0, false);
        assert_eq!(c.access(1, 0, false), Access::MemMiss, "own copy fetch");
        assert_eq!(c.access(0, 0, false), Access::Hit);
        assert_eq!(c.access(1, 0, false), Access::Hit);
    }

    #[test]
    fn reader_of_dirty_line_pays_coherence_once() {
        let mut c = CacheModel::new();
        c.access(0, 0, true);
        assert_eq!(c.access(1, 0, false), Access::CoherenceMiss);
        assert_eq!(c.access(1, 0, false), Access::Hit);
        // Line is now shared-clean; writer must invalidate again.
        assert_eq!(c.access(0, 0, true), Access::CoherenceMiss);
    }

    #[test]
    fn write_upgrade_on_exclusive_clean_copy_is_hit() {
        let mut c = CacheModel::new();
        c.access(0, 0, false); // exclusive clean
        assert_eq!(c.access(0, 0, true), Access::Hit);
    }

    #[test]
    fn costs_follow_params() {
        let p = CostParams::default();
        let mut c = CacheModel::new();
        assert_eq!(c.cost(0, 0, false, &p), p.mem_miss_ns);
        assert_eq!(c.cost(0, 0, false, &p), p.cache_hit_ns);
        assert_eq!(c.cost(1, 0, true, &p), p.coherence_ns);
    }

    #[test]
    fn directory_tracks_cpus_beyond_64() {
        let mut c = CacheModel::new();
        assert_eq!(c.access(200, 0, true), Access::MemMiss);
        assert_eq!(c.access(255, 0, true), Access::CoherenceMiss);
        assert_eq!(c.access(200, 0, true), Access::CoherenceMiss);
        assert_eq!(c.access(200, 0, true), Access::Hit);
    }

    #[test]
    fn traced_access_names_the_dirty_source() {
        let mut c = CacheModel::new();
        c.access(3, 0, true);
        assert_eq!(c.access_traced(9, 0, true), (Access::CoherenceMiss, Some(3)));
        // 9 now owns it dirty; a clean reader then a writer elsewhere:
        // invalidation of clean sharers has no dirty source.
        assert_eq!(c.access_traced(9, 0, false), (Access::Hit, None));
        c.access(4, 0, false); // line becomes shared-clean
        assert_eq!(c.access_traced(5, 0, true), (Access::CoherenceMiss, None));
    }

    #[test]
    fn uma_cache_system_matches_plain_directory_costs() {
        let p = CostParams::default();
        let mut sys = CacheSystem::new(0);
        let mut dir = CacheModel::new();
        let pattern = [(0u32, 0u64, true), (1, 0, true), (1, 64, false), (2, 64, true)];
        for (cpu, addr, write) in pattern {
            assert_eq!(sys.cost(cpu, addr, write, &p), dir.cost(cpu, addr, write, &p));
        }
    }

    #[test]
    fn numa_charges_remote_mem_fill_by_first_touch_home() {
        let p = CostParams::default();
        let mut sys = CacheSystem::new(4); // nodes {0..3}, {4..7}, ...
                                           // CPU 1 first-touches the line: home is node 0.
        assert_eq!(sys.cost(1, 0, false, &p), p.mem_miss_ns);
        // CPU 2 (same node) misses locally...
        assert_eq!(sys.cost(2, 0, false, &p), p.mem_miss_ns);
        // ...but CPU 6 (node 1) pays the remote fill on a clean line it
        // has never seen. (Line is shared-clean in node 0 caches; the
        // model charges memory fill from home, not cache-to-cache.)
        assert_eq!(sys.cost(6, 0, false, &p), p.mem_miss_ns + p.numa_remote_mem_ns);
    }

    #[test]
    fn numa_charges_remote_dirty_transfer_by_source_node() {
        let p = CostParams::default();
        let mut sys = CacheSystem::new(4);
        assert_eq!(sys.cost(0, 0, true, &p), p.mem_miss_ns); // dirty in node 0
                                                             // Same-node dirty transfer: base coherence cost only.
        assert_eq!(sys.cost(1, 0, true, &p), p.coherence_ns);
        // Cross-node dirty transfer: remote surcharge.
        assert_eq!(sys.cost(5, 0, true, &p), p.coherence_ns + p.numa_remote_coherence_ns);
    }
}
