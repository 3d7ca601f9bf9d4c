//! Experiment drivers: build a model + workload, run it, compute the
//! paper's speedup/scaleup numbers.

use crate::engine::{Program, Sim, SimConfig};
use crate::metrics::RunMetrics;
use crate::model::{AllocModel, StructShape};
use crate::models::{
    AmplifyConfig, AmplifyModel, HandmadeModel, HoardModel, PtmallocModel, SerialModel,
    SmartHeapModel,
};
use crate::params::CostParams;
use crate::programs::{BgwProgram, TreeProgram};
use crate::sched::SchedPolicy;

/// Which memory-management strategy to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Solaris-default serial malloc (the speedup baseline).
    Serial,
    /// ptmalloc: multi-arena with try-lock spill.
    Ptmalloc,
    /// Hoard: per-CPU heaps by thread-id modulation.
    Hoard,
    /// SmartHeap for SMP: thread-cached allocator.
    SmartHeap,
    /// Amplify over the serial system malloc (the synthetic-test setup).
    Amplify,
    /// Amplify over SmartHeap (the winning BGw combination, Figure 11).
    AmplifyOverSmartHeap,
    /// Arrays-only Amplify over SmartHeap — the §5.2 variant where only
    /// data-type arrays are shadowed.
    AmplifyArraysOnlyOverSmartHeap,
    /// Handmade structure pools (Figure 10's theoretical maximum).
    Handmade,
}

impl ModelKind {
    /// Every simulated strategy, in the paper's comparison order.
    pub const ALL: [ModelKind; 8] = [
        ModelKind::Serial,
        ModelKind::Ptmalloc,
        ModelKind::Hoard,
        ModelKind::SmartHeap,
        ModelKind::Amplify,
        ModelKind::AmplifyOverSmartHeap,
        ModelKind::AmplifyArraysOnlyOverSmartHeap,
        ModelKind::Handmade,
    ];

    /// Resolve a display name (as produced by [`ModelKind::name`]) back to
    /// its kind. The native backend registry resolves its names through
    /// this, so simulated and native tables stay keyed identically.
    pub fn from_name(name: &str) -> Option<ModelKind> {
        ModelKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Display name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Serial => "solaris-default",
            ModelKind::Ptmalloc => "ptmalloc",
            ModelKind::Hoard => "hoard",
            ModelKind::SmartHeap => "smartheap",
            ModelKind::Amplify => "amplify",
            ModelKind::AmplifyOverSmartHeap => "amplify+smartheap",
            ModelKind::AmplifyArraysOnlyOverSmartHeap => "amplify-arrays+sh",
            ModelKind::Handmade => "handmade",
        }
    }

    /// Node size for the synthetic trees: 20 bytes, or 28 when "amplified"
    /// (the shadow pointers enlarge each node — §4).
    pub(crate) fn node_size(self) -> u32 {
        match self {
            ModelKind::Amplify
            | ModelKind::AmplifyOverSmartHeap
            | ModelKind::AmplifyArraysOnlyOverSmartHeap => 28,
            _ => 20,
        }
    }

    /// Build the model for a run with `threads` threads on `cpus` CPUs.
    pub fn build(self, threads: usize, cpus: u32, params: CostParams) -> Box<dyn AllocModel> {
        match self {
            ModelKind::Serial => Box::new(SerialModel::with_params(params)),
            ModelKind::Ptmalloc => Box::new(PtmallocModel::with_params(cpus as usize, params)),
            ModelKind::Hoard => Box::new(HoardModel::with_params(cpus as usize, params)),
            ModelKind::SmartHeap => Box::new(SmartHeapModel::with_params(params)),
            ModelKind::Amplify => Box::new(AmplifyModel::with_params(
                AmplifyConfig::synthetic(threads, cpus as usize),
                Box::new(SerialModel::with_params(params)),
                params,
            )),
            ModelKind::AmplifyOverSmartHeap => Box::new(AmplifyModel::with_params(
                AmplifyConfig::bgw(threads, cpus as usize),
                Box::new(SmartHeapModel::with_params(params)),
                params,
            )),
            ModelKind::AmplifyArraysOnlyOverSmartHeap => Box::new(AmplifyModel::with_params(
                AmplifyConfig::bgw_arrays_only(threads, cpus as usize),
                Box::new(SmartHeapModel::with_params(params)),
                params,
            )),
            ModelKind::Handmade => Box::new(HandmadeModel::with_params(params)),
        }
    }
}

/// Parameters of one synthetic tree experiment (a point on Figures 4–10).
#[derive(Debug, Clone, Copy)]
pub struct TreeExperiment {
    /// Tree depth (test case 1/2/3 → depth 1/3/5).
    pub depth: u32,
    /// Total trees across all threads (fixed problem size).
    pub total_trees: u32,
    /// Processors in the simulated SMP (the paper uses 8).
    pub cpus: u32,
    /// Cost model.
    pub params: CostParams,
}

/// Run one synthetic tree configuration.
pub fn run_tree(kind: ModelKind, threads: usize, exp: &TreeExperiment) -> RunMetrics {
    run_tree_with(kind, threads, exp, SchedPolicy::Deterministic, 0)
}

/// [`run_tree`] with explicit scheduler policy and NUMA topology — the
/// entry point for schedule fuzzing and the many-core crossover sweeps
/// (`cpus_per_node == 0` keeps uniform memory).
pub fn run_tree_with(
    kind: ModelKind,
    threads: usize,
    exp: &TreeExperiment,
    policy: SchedPolicy,
    cpus_per_node: u32,
) -> RunMetrics {
    let shape = StructShape::binary_tree(exp.depth, kind.node_size());
    let per_thread = exp.total_trees / threads as u32;
    let remainder = exp.total_trees % threads as u32;
    let programs: Vec<Box<dyn Program>> = (0..threads)
        .map(|t| {
            let extra = u32::from((t as u32) < remainder);
            Box::new(TreeProgram::new(shape, per_thread + extra, &exp.params)) as Box<dyn Program>
        })
        .collect();
    let model = kind.build(threads, exp.cpus, exp.params);
    let cfg = SimConfig { params: exp.params, policy, cpus_per_node, ..SimConfig::new(exp.cpus) };
    Sim::new(cfg, model, programs).run()
}

/// Run the tree workload with a caller-built model (for ablations that
/// need non-standard configurations, e.g. custom shard counts).
pub fn run_tree_with_model(
    model: Box<dyn AllocModel>,
    threads: usize,
    exp: &TreeExperiment,
    node_size: u32,
) -> RunMetrics {
    let shape = StructShape::binary_tree(exp.depth, node_size);
    let per_thread = exp.total_trees / threads as u32;
    let remainder = exp.total_trees % threads as u32;
    let programs: Vec<Box<dyn Program>> = (0..threads)
        .map(|t| {
            let extra = u32::from((t as u32) < remainder);
            Box::new(TreeProgram::new(shape, per_thread + extra, &exp.params)) as Box<dyn Program>
        })
        .collect();
    Sim::new(SimConfig { params: exp.params, ..SimConfig::new(exp.cpus) }, model, programs).run()
}

/// Run a *partial-locality* tree workload: `alt_permille`/1000 of the
/// iterations allocate depth `alt_depth` instead of `exp.depth` (the
/// locality-sweep ablation).
pub fn run_tree_with_locality(
    kind: ModelKind,
    threads: usize,
    exp: &TreeExperiment,
    alt_depth: u32,
    alt_permille: u32,
) -> RunMetrics {
    use crate::programs::VariableTreeProgram;
    let per_thread = exp.total_trees / threads as u32;
    let remainder = exp.total_trees % threads as u32;
    let programs: Vec<Box<dyn Program>> = (0..threads)
        .map(|t| {
            let extra = u32::from((t as u32) < remainder);
            Box::new(VariableTreeProgram::new(
                exp.depth,
                alt_depth,
                kind.node_size(),
                alt_permille,
                per_thread + extra,
                &exp.params,
            )) as Box<dyn Program>
        })
        .collect();
    let model = kind.build(threads, exp.cpus, exp.params);
    Sim::new(SimConfig { params: exp.params, ..SimConfig::new(exp.cpus) }, model, programs).run()
}

/// Speedup as the paper defines it: execution time with one thread under
/// the standard (serial) heap manager, divided by this configuration's
/// execution time.
pub fn speedup(baseline_wall_ns: u64, m: &RunMetrics) -> f64 {
    baseline_wall_ns as f64 / m.wall_ns as f64
}

/// The baseline run: 1 thread with the serial allocator.
pub fn baseline_wall_ns(exp: &TreeExperiment) -> u64 {
    run_tree(ModelKind::Serial, 1, exp).wall_ns
}

/// Scaleup (Figures 7–9): each curve normalized to its own 1-thread value.
pub fn scaleup_from_speedup(curve: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let at_one = curve
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|&(_, s)| s)
        .unwrap_or_else(|| curve.first().map(|&(_, s)| s).unwrap_or(1.0));
    curve.iter().map(|&(t, s)| (t, s / at_one)).collect()
}

/// Run one BGw configuration: `threads` worker threads processing
/// `total_cdrs` CDRs in total.
pub fn run_bgw(kind: ModelKind, threads: usize, total_cdrs: u32, cpus: u32) -> RunMetrics {
    let params = CostParams::default();
    let per_thread = total_cdrs / threads as u32;
    let remainder = total_cdrs % threads as u32;
    let programs: Vec<Box<dyn Program>> = (0..threads)
        .map(|t| {
            let extra = u32::from((t as u32) < remainder);
            Box::new(BgwProgram::new(per_thread + extra, &params)) as Box<dyn Program>
        })
        .collect();
    let model = kind.build(threads, cpus, params);
    Sim::new(SimConfig { params, ..SimConfig::new(cpus) }, model, programs).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_name() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(ModelKind::from_name("not-a-model"), None);
    }

    fn small_exp(depth: u32) -> TreeExperiment {
        TreeExperiment { depth, total_trees: 400, cpus: 8, params: CostParams::default() }
    }

    #[test]
    fn amplify_beats_serial_single_thread() {
        // "Amplify increases the performance of sequential as well as
        // parallel programs" (§7).
        let exp = small_exp(3);
        let serial = run_tree(ModelKind::Serial, 1, &exp);
        let amplify = run_tree(ModelKind::Amplify, 1, &exp);
        assert!(
            amplify.wall_ns < serial.wall_ns,
            "amplify {} !< serial {}",
            amplify.wall_ns,
            serial.wall_ns
        );
    }

    #[test]
    fn amplify_hit_rate_is_high_under_full_locality() {
        let exp = small_exp(3);
        let m = run_tree(ModelKind::Amplify, 4, &exp);
        let hits = m.counter("pool_hits").unwrap();
        let misses = m.counter("misses").unwrap();
        assert!(hits > 20 * misses, "hits {hits} vs misses {misses}");
    }

    #[test]
    fn serial_does_not_scale() {
        let exp = small_exp(3);
        let t1 = run_tree(ModelKind::Serial, 1, &exp).wall_ns;
        let t8 = run_tree(ModelKind::Serial, 8, &exp).wall_ns;
        // 8 threads must not be anywhere near 8x faster; the global lock
        // serializes the dominant cost.
        assert!(t8 as f64 > t1 as f64 / 3.0, "serial scaled too well: {t1} -> {t8}");
    }

    #[test]
    fn amplify_scales_on_deep_trees() {
        // Needs enough iterations that the cold start (8 threads' first
        // structures funnelling through the serial base malloc) amortizes.
        let exp =
            TreeExperiment { depth: 5, total_trees: 4000, cpus: 8, params: CostParams::default() };
        let t1 = run_tree(ModelKind::Amplify, 1, &exp).wall_ns;
        let t8 = run_tree(ModelKind::Amplify, 8, &exp).wall_ns;
        let scaleup = t1 as f64 / t8 as f64;
        assert!(scaleup > 3.0, "amplify scaleup only {scaleup:.2}");
    }

    #[test]
    fn amplify_scaleup_worsens_as_structures_get_shallower() {
        // The Figure 7 vs Figure 9 contrast: false sharing between
        // neighbouring threads' small structures limits test case 1.
        let scaleup = |depth| {
            let exp =
                TreeExperiment { depth, total_trees: 4000, cpus: 8, params: CostParams::default() };
            let t1 = run_tree(ModelKind::Amplify, 1, &exp).wall_ns;
            let t8 = run_tree(ModelKind::Amplify, 8, &exp).wall_ns;
            t1 as f64 / t8 as f64
        };
        let shallow = scaleup(1);
        let deep = scaleup(5);
        assert!(
            shallow + 0.5 < deep,
            "expected depth-1 scaleup ({shallow:.2}) well below depth-5 ({deep:.2})"
        );
    }

    #[test]
    fn speedup_and_scaleup_helpers() {
        let curve = vec![(1, 2.0), (2, 3.0), (4, 5.0)];
        let scale = scaleup_from_speedup(&curve);
        assert_eq!(scale, vec![(1, 1.0), (2, 1.5), (4, 2.5)]);
    }

    #[test]
    fn node_sizes_match_paper() {
        assert_eq!(ModelKind::Serial.node_size(), 20);
        assert_eq!(ModelKind::Amplify.node_size(), 28);
    }
}
