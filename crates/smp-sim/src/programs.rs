//! Simulated workload programs: the paper's synthetic binary-tree test
//! suite (§4) and the BGw CDR-processing component (§5.2).

use crate::engine::{AppOp, Program};
use crate::model::StructShape;
use crate::models::amplify::LIBRARY_CLASS;
use crate::params::CostParams;

/// The synthetic test program: repeatedly allocate, initialize, destroy and
/// deallocate one binary tree (100 % temporal locality — "creating the same
/// structure over and over again"). No system calls are made, "making it
/// theoretically possible for ideal scalability".
pub struct TreeProgram {
    shape: StructShape,
    iters: u32,
    init_ns: u64,
    destroy_ns: u64,
    phase: u8,
}

impl TreeProgram {
    /// A thread's share of the workload: `iters` trees of the given shape.
    pub fn new(shape: StructShape, iters: u32, params: &CostParams) -> Self {
        TreeProgram {
            shape,
            iters,
            init_ns: params.node_init_ns,
            destroy_ns: params.node_destroy_ns,
            phase: 0,
        }
    }
}

impl Program for TreeProgram {
    fn next(&mut self) -> AppOp {
        if self.iters == 0 {
            return AppOp::End;
        }
        let op = match self.phase {
            // Allocate the tree (one structure).
            0 => AppOp::AllocStruct { shape: self.shape, tag: 0 },
            // Initialize every node (constructor pass: writes).
            1 => AppOp::TouchNodes { tag: 0, write: true, work_per_node: self.init_ns },
            // Destroy every node (destructor pass: reads).
            2 => AppOp::TouchNodes { tag: 0, write: false, work_per_node: self.destroy_ns },
            // Deallocate.
            _ => AppOp::FreeStruct { tag: 0 },
        };
        if self.phase == 3 {
            self.phase = 0;
            self.iters -= 1;
        } else {
            self.phase += 1;
        }
        op
    }
}

/// A tree workload with *partial* temporal locality: a fraction of the
/// iterations allocates a different tree depth, so structure pools must
/// reorganize. Used by the ablation benches (locality sweep).
pub(crate) struct VariableTreeProgram {
    base_depth: u32,
    alt_depth: u32,
    node_size: u32,
    /// Permille of iterations using the alternate depth.
    alt_permille: u32,
    iters: u32,
    counter: u32,
    init_ns: u64,
    destroy_ns: u64,
    phase: u8,
}

impl VariableTreeProgram {
    /// `alt_permille`/1000 of iterations use `alt_depth` instead of
    /// `base_depth`.
    pub(crate) fn new(
        base_depth: u32,
        alt_depth: u32,
        node_size: u32,
        alt_permille: u32,
        iters: u32,
        params: &CostParams,
    ) -> Self {
        VariableTreeProgram {
            base_depth,
            alt_depth,
            node_size,
            alt_permille,
            iters,
            counter: 0,
            init_ns: params.node_init_ns,
            destroy_ns: params.node_destroy_ns,
            phase: 0,
        }
    }

    fn current_shape(&self) -> StructShape {
        // Low-discrepancy (Weyl) interleaving so alternate iterations are
        // spread evenly — consecutive allocations genuinely alternate
        // shapes instead of forming two contiguous phases.
        let x = (self.counter as u64).wrapping_mul(2654435769) & 0xFFFF_FFFF;
        let threshold = (self.alt_permille as u64) * ((1u64 << 32) / 1000);
        let depth = if x < threshold { self.alt_depth } else { self.base_depth };
        StructShape::binary_tree(depth, self.node_size)
    }
}

impl Program for VariableTreeProgram {
    fn next(&mut self) -> AppOp {
        if self.counter >= self.iters {
            return AppOp::End;
        }
        let shape = self.current_shape();
        let op = match self.phase {
            0 => AppOp::AllocStruct { shape, tag: 0 },
            1 => AppOp::TouchNodes { tag: 0, write: true, work_per_node: self.init_ns },
            2 => AppOp::TouchNodes { tag: 0, write: false, work_per_node: self.destroy_ns },
            _ => AppOp::FreeStruct { tag: 0 },
        };
        if self.phase == 3 {
            self.phase = 0;
            self.counter += 1;
        } else {
            self.phase += 1;
        }
        op
    }
}

/// A bursty tree workload: allocate `burst` trees, use them all, then free
/// them all, repeatedly. Unlike the one-live-tree loop, this parks `burst`
/// structures per pool between cycles — the workload where the §5.2 pool
/// population caps matter.
pub struct BurstTreeProgram {
    shape: StructShape,
    burst: u32,
    cycles: u32,
    init_ns: u64,
    destroy_ns: u64,
    cycle: u32,
    index: u32,
    /// 0: alloc tree, 1: init touch, 2: destroy touch, 3: free tree.
    /// Steps 0–1 run for every index, then 2–3 for every index.
    step: u8,
    freeing: bool,
}

impl BurstTreeProgram {
    /// `cycles` rounds of allocating, using and freeing `burst` trees.
    pub fn new(shape: StructShape, burst: u32, cycles: u32, params: &CostParams) -> Self {
        assert!(burst >= 1);
        BurstTreeProgram {
            shape,
            burst,
            cycles,
            init_ns: params.node_init_ns,
            destroy_ns: params.node_destroy_ns,
            cycle: 0,
            index: 0,
            step: 0,
            freeing: false,
        }
    }

    fn advance(&mut self) {
        self.step += 1;
        if self.step == 2 {
            self.step = 0;
            self.index += 1;
            if self.index >= self.burst {
                self.index = 0;
                if self.freeing {
                    self.cycle += 1;
                }
                self.freeing = !self.freeing;
            }
        }
    }
}

impl Program for BurstTreeProgram {
    fn next(&mut self) -> AppOp {
        if self.cycle >= self.cycles {
            return AppOp::End;
        }
        let tag = self.index as u64;
        let op = match (self.freeing, self.step) {
            (false, 0) => AppOp::AllocStruct { shape: self.shape, tag },
            (false, _) => AppOp::TouchNodes { tag, write: true, work_per_node: self.init_ns },
            (true, 0) => AppOp::TouchNodes { tag, write: false, work_per_node: self.destroy_ns },
            (true, _) => AppOp::FreeStruct { tag },
        };
        self.advance();
        op
    }
}

/// The BGw-like CDR processing program (§5.2): per CDR, a mix of
///
/// * data-type array allocations (`char[]` / `int[]`) with slightly varying
///   lengths — the dominant allocation kind in BGw;
/// * application object structures (the pre-processable half);
/// * library allocations (Tools.h++ etc.) that Amplify cannot touch —
///   class [`LIBRARY_CLASS`];
/// * parsing/processing computation.
pub(crate) struct BgwProgram {
    cdrs: u32,
    processed: u32,
    step: u8,
    params: CostParams,
}

/// Application object class for the CDR record structure.
pub(crate) const CDR_CLASS: u32 = 1;

impl BgwProgram {
    /// Process `cdrs` call-data records.
    pub(crate) fn new(cdrs: u32, params: &CostParams) -> Self {
        BgwProgram { cdrs, processed: 0, step: 0, params: *params }
    }

    /// Array length for buffer `slot` at iteration `i`: a stable base with
    /// a small deterministic wobble, so shadow reuse under the half-size
    /// rule mostly succeeds (matching BGw's observed temporal locality).
    fn buf_len(slot: u64, i: u32) -> u32 {
        let base = match slot {
            0 => 800, // raw CDR bytes
            1 => 256, // field scratch
            _ => 512, // encoded output
        };
        let wobble = ((i.wrapping_mul(2654435761) >> 16) % 100) as i32 - 50; // ±50
        (base + wobble).max(16) as u32
    }
}

impl Program for BgwProgram {
    fn next(&mut self) -> AppOp {
        if self.processed >= self.cdrs {
            return AppOp::End;
        }
        let i = self.processed;
        let op = match self.step {
            // Three data buffers (slots 0..2), tags 10..12.
            0..=2 => {
                let slot = self.step as u64;
                AppOp::AllocArray { slot, size: Self::buf_len(slot, i), tag: 10 + slot }
            }
            // Fill the raw buffer (parse input).
            3 => AppOp::TouchArray {
                tag: 10,
                size: Self::buf_len(0, i),
                write: true,
                work_total: 2_000,
            },
            // The CDR object structure (application code, pre-processable).
            4 => AppOp::AllocStruct {
                shape: StructShape { class_id: CDR_CLASS, nodes: 6, node_size: 48 },
                tag: 1,
            },
            5 => AppOp::TouchNodes { tag: 1, write: true, work_per_node: self.params.node_init_ns },
            // Library allocations: the other half of BGw's allocation
            // volume, invisible to the pre-processor.
            6 => AppOp::AllocStruct {
                shape: StructShape { class_id: LIBRARY_CLASS, nodes: 5, node_size: 32 },
                tag: 2,
            },
            7 => AppOp::TouchNodes { tag: 2, write: true, work_per_node: self.params.node_init_ns },
            // Processing + encoding work over the buffers.
            8 => AppOp::Compute(6_000),
            9 => AppOp::TouchArray {
                tag: 12,
                size: Self::buf_len(2, i),
                write: true,
                work_total: 1_500,
            },
            // Tear-down in reverse order.
            10 => AppOp::FreeStruct { tag: 2 },
            11 => AppOp::FreeStruct { tag: 1 },
            12 => AppOp::FreeArray { tag: 12 },
            13 => AppOp::FreeArray { tag: 11 },
            _ => AppOp::FreeArray { tag: 10 },
        };
        if self.step == 14 {
            self.step = 0;
            self.processed += 1;
        } else {
            self.step += 1;
        }
        op
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_program_cycles_and_ends() {
        let p = CostParams::default();
        let mut prog = TreeProgram::new(StructShape::binary_tree(1, 20), 2, &p);
        let mut allocs = 0;
        let mut frees = 0;
        loop {
            match prog.next() {
                AppOp::AllocStruct { .. } => allocs += 1,
                AppOp::FreeStruct { .. } => frees += 1,
                AppOp::End => break,
                _ => {}
            }
        }
        assert_eq!(allocs, 2);
        assert_eq!(frees, 2);
        assert!(matches!(prog.next(), AppOp::End), "End is sticky");
    }

    #[test]
    fn variable_tree_mixes_depths() {
        let p = CostParams::default();
        let mut prog = VariableTreeProgram::new(3, 1, 20, 500, 10, &p);
        let mut shapes = std::collections::HashSet::new();
        loop {
            match prog.next() {
                AppOp::AllocStruct { shape, .. } => {
                    shapes.insert(shape.nodes);
                }
                AppOp::End => break,
                _ => {}
            }
        }
        assert_eq!(shapes.len(), 2, "both depths must appear");
    }

    #[test]
    fn burst_program_peaks_at_burst_live_structures() {
        let p = CostParams::default();
        let mut prog = BurstTreeProgram::new(StructShape::binary_tree(1, 20), 4, 2, &p);
        let mut live: i32 = 0;
        let mut peak = 0;
        let (mut allocs, mut frees) = (0, 0);
        loop {
            match prog.next() {
                AppOp::AllocStruct { .. } => {
                    live += 1;
                    allocs += 1;
                    peak = peak.max(live);
                }
                AppOp::FreeStruct { .. } => {
                    live -= 1;
                    frees += 1;
                }
                AppOp::End => break,
                _ => {}
            }
        }
        assert_eq!(peak, 4, "whole burst live at once");
        assert_eq!(live, 0);
        assert_eq!(allocs, 8);
        assert_eq!(frees, 8);
    }

    #[test]
    fn variable_tree_interleaves_rather_than_phases() {
        let p = CostParams::default();
        let mut prog = VariableTreeProgram::new(3, 1, 20, 500, 40, &p);
        let mut depths = Vec::new();
        loop {
            match prog.next() {
                AppOp::AllocStruct { shape, .. } => depths.push(shape.nodes),
                AppOp::End => break,
                _ => {}
            }
        }
        // At a 50% mix, any window of 8 consecutive allocations holds both
        // shapes — shapes alternate, they do not cluster.
        for w in depths.windows(8) {
            assert!(w.contains(&15) && w.contains(&3), "clustered window: {w:?}");
        }
    }

    #[test]
    fn bgw_program_balances_allocs_and_frees() {
        let p = CostParams::default();
        let mut prog = BgwProgram::new(3, &p);
        let (mut sa, mut sf, mut aa, mut af, mut lib) = (0, 0, 0, 0, 0);
        loop {
            match prog.next() {
                AppOp::AllocStruct { shape, .. } => {
                    sa += 1;
                    if shape.class_id == LIBRARY_CLASS {
                        lib += 1;
                    }
                }
                AppOp::FreeStruct { .. } => sf += 1,
                AppOp::AllocArray { .. } => aa += 1,
                AppOp::FreeArray { .. } => af += 1,
                AppOp::End => break,
                _ => {}
            }
        }
        assert_eq!(sa, sf);
        assert_eq!(aa, af);
        assert_eq!(sa, 6); // 2 structures x 3 CDRs
        assert_eq!(lib, 3); // 1 library structure per CDR
        assert_eq!(aa, 9); // 3 buffers x 3 CDRs
    }

    #[test]
    fn buffer_lengths_wobble_within_half_size_window() {
        for i in 0..100 {
            let a = BgwProgram::buf_len(0, i);
            let b = BgwProgram::buf_len(0, i + 1);
            // Consecutive lengths stay within a factor of two of each other
            // (so the half-size rule usually allows reuse).
            assert!(a.max(b) <= 2 * a.min(b));
        }
    }
}
