//! Allocation traces: a portable record of a workload's allocator traffic.
//!
//! Traces decouple workload generation from execution: the same trace can
//! be replayed against any [`allocators::ParallelAllocator`] (see
//! [`crate::exec`]).

use crate::exec::{StructOp, Workload};
use mem_api::Structured;
use pools::structure_pool::Reusable;

/// One allocator event. `id`s are trace-local handles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Allocate `size` bytes under handle `id`.
    Alloc { id: u32, size: u32 },
    /// Free the block with handle `id`.
    Free { id: u32 },
}

/// A per-thread sequence of allocator events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    pub ops: Vec<TraceOp>,
}

impl Trace {
    /// The tree workload's trace for one thread: for each iteration,
    /// allocate every node of a depth-`depth` tree, then free them all
    /// (LIFO, as destructors run).
    pub fn tree(depth: u32, iterations: u32, node_size: u32) -> Trace {
        let nodes = (1u32 << (depth + 1)) - 1;
        let mut ops = Vec::with_capacity((nodes as usize * 2) * iterations as usize);
        for _ in 0..iterations {
            for id in 0..nodes {
                ops.push(TraceOp::Alloc { id, size: node_size });
            }
            for id in (0..nodes).rev() {
                ops.push(TraceOp::Free { id });
            }
        }
        Trace { ops }
    }

    /// Number of allocations in the trace.
    pub fn alloc_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Alloc { .. })).count()
    }

    /// Number of frees in the trace.
    #[cfg(test)]
    pub(crate) fn free_count(&self) -> usize {
        self.ops.iter().filter(|o| matches!(o, TraceOp::Free { .. })).count()
    }

    /// Check the trace is well-formed: every free refers to a live handle,
    /// every alloc to a dead one, and nothing is live at the end.
    pub fn validate(&self) -> Result<(), String> {
        let mut live = std::collections::HashSet::new();
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                TraceOp::Alloc { id, .. } => {
                    if !live.insert(*id) {
                        return Err(format!("op {i}: alloc of live handle {id}"));
                    }
                }
                TraceOp::Free { id } => {
                    if !live.remove(id) {
                        return Err(format!("op {i}: free of dead handle {id}"));
                    }
                }
            }
        }
        if live.is_empty() {
            Ok(())
        } else {
            Err(format!("{} handles leaked", live.len()))
        }
    }
}

/// The structure a raw trace allocates: one contiguous block of `size`
/// bytes (`Params = u32`), deterministically filled so replays checksum
/// identically on every backend.
#[derive(Debug)]
pub struct Chunk {
    data: Vec<u8>,
}

impl Chunk {
    fn fill(data: &mut Vec<u8>, size: u32) {
        data.clear();
        data.extend((0..size).map(|i| (i.wrapping_mul(31).wrapping_add(size)) as u8));
    }
}

impl Reusable for Chunk {
    type Params = u32;

    fn fresh(size: &u32) -> Self {
        let mut data = Vec::new();
        Self::fill(&mut data, *size);
        Chunk { data }
    }

    fn reinit(&mut self, size: &u32) {
        Self::fill(&mut self.data, *size);
    }
}

impl Structured for Chunk {
    fn node_count(_: &u32) -> u32 {
        1
    }

    fn node_size(size: &u32, _: u32) -> u32 {
        *size
    }

    fn checksum(&self) -> u64 {
        self.data.iter().fold(self.data.len() as u64, |acc, &b| {
            acc.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64)
        })
    }
}

/// A set of per-thread traces lifted to the generic [`Workload`]
/// interface: thread `t` replays `traces[t]`, trace handles become
/// executor slots one-to-one.
pub struct TraceWorkload<'a> {
    traces: &'a [Trace],
    slots: u32,
}

impl<'a> TraceWorkload<'a> {
    /// Validate and wrap `traces` (one per thread).
    ///
    /// # Panics
    /// Panics with "malformed trace" if any trace double-allocates a
    /// handle, frees a dead one, or leaks.
    pub fn new(traces: &'a [Trace]) -> Self {
        let mut slots = 0;
        for trace in traces {
            trace.validate().expect("malformed trace");
            for op in &trace.ops {
                let (TraceOp::Alloc { id, .. } | TraceOp::Free { id }) = op;
                slots = slots.max(id + 1);
            }
        }
        TraceWorkload { traces, slots }
    }
}

impl Workload<Chunk> for TraceWorkload<'_> {
    fn threads(&self) -> u32 {
        self.traces.len() as u32
    }

    fn slots(&self) -> u32 {
        self.slots
    }

    fn run_thread(&self, thread: u32, op: &mut dyn FnMut(StructOp<u32>)) {
        for trace_op in &self.traces[thread as usize].ops {
            match *trace_op {
                TraceOp::Alloc { id, size } => op(StructOp::Alloc { slot: id, params: size }),
                TraceOp::Free { id } => op(StructOp::Free { slot: id }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_trace_is_balanced_and_valid() {
        let t = Trace::tree(3, 10, 20);
        assert_eq!(t.alloc_count(), 15 * 10);
        assert_eq!(t.free_count(), 15 * 10);
        t.validate().unwrap();
    }

    #[test]
    fn validation_catches_double_alloc() {
        let t = Trace {
            ops: vec![TraceOp::Alloc { id: 1, size: 8 }, TraceOp::Alloc { id: 1, size: 8 }],
        };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_dangling_free() {
        let t = Trace { ops: vec![TraceOp::Free { id: 9 }] };
        assert!(t.validate().is_err());
    }

    #[test]
    fn validation_catches_leak() {
        let t = Trace { ops: vec![TraceOp::Alloc { id: 1, size: 8 }] };
        assert!(t.validate().unwrap_err().contains("leaked"));
    }

    #[test]
    fn chunk_checksums_depend_on_size_only() {
        let a = Chunk::fresh(&64);
        let b = Chunk::fresh(&64);
        assert_eq!(a.checksum(), b.checksum());
        let c = Chunk::fresh(&65);
        assert_ne!(a.checksum(), c.checksum());
        let mut d = Chunk::fresh(&8);
        d.reinit(&64);
        assert_eq!(d.checksum(), a.checksum(), "reinit matches fresh");
    }

    #[test]
    fn trace_workload_sizes_its_slot_table() {
        let traces = vec![Trace::tree(2, 3, 16), Trace::tree(3, 1, 16)];
        let w = TraceWorkload::new(&traces);
        assert_eq!(w.threads(), 2);
        assert_eq!(w.slots(), 15, "deepest tree has handles 0..=14");
    }
}
