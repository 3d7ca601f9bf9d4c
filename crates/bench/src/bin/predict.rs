//! Predict what Amplify would buy for a given C++ code base: analyze the
//! sources, derive each class's structure size from the composition graph,
//! and simulate an allocation-bound workload over those exact shapes on an
//! 8-CPU SMP under every memory-management strategy.
//!
//! ```text
//! cargo run --release -p bench --bin predict -- file1.cpp file2.h ...
//! cargo run --release -p bench --bin predict        # bundled car fixture
//! ```

use amplify::analysis::analyze_project;
use amplify::model::estimate_structures;
use amplify::AmplifyOptions;
use cxx_frontend::parse_source;
use smp_sim::engine::{Program, Sim, SimConfig};
use smp_sim::model::StructShape;
use smp_sim::programs::TreeProgram;
use smp_sim::run::ModelKind;
use smp_sim::CostParams;
use std::path::Path;

const NODE_SIZE: u32 = 32;
const STRUCTURES_PER_THREAD: u32 = 2_000;
const THREADS: usize = 8;

fn simulate(kind: ModelKind, nodes: u32) -> smp_sim::RunMetrics {
    let params = CostParams::default();
    let shape = StructShape { class_id: 0, nodes, node_size: NODE_SIZE };
    let programs: Vec<Box<dyn Program>> = (0..THREADS)
        .map(|_| {
            Box::new(TreeProgram::new(shape, STRUCTURES_PER_THREAD, &params)) as Box<dyn Program>
        })
        .collect();
    Sim::new(SimConfig::new(8), kind.build(THREADS, 8, params), programs).run()
}

/// The non-flag arguments: every positional argument is a source file;
/// `--jobs`/`--metrics-out` (and their values) belong to the harness.
fn file_args() -> Vec<String> {
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--jobs" || a == "-j" || a == "--metrics-out" {
            let _ = args.next();
        } else if !a.starts_with("--jobs=") && !a.starts_with("--metrics-out=") {
            files.push(a);
        }
    }
    files
}

fn main() {
    let args = file_args();
    let files: Vec<(String, String)> = if args.is_empty() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../amplify/testdata/car.cpp");
        vec![("car.cpp".to_string(), std::fs::read_to_string(path).expect("bundled fixture"))]
    } else {
        args.iter()
            .map(|a| {
                let text =
                    std::fs::read_to_string(a).unwrap_or_else(|e| panic!("cannot read {a}: {e}"));
                (a.clone(), text)
            })
            .collect()
    };

    let units: Vec<_> = files.iter().map(|(_, text)| parse_source(text)).collect();
    let analyses = analyze_project(&units, &AmplifyOptions::default());
    let estimates = estimate_structures(&analyses[0]);

    println!(
        "Analyzed {} file(s): {} class(es), {} composition edge(s).\n",
        files.len(),
        analyses[0].classes.len(),
        analyses[0].composition.len()
    );
    println!(
        "Predicted speedup creating each class at high rate on an 8-CPU SMP\n\
         ({} structures x {} threads; speedups relative to the serial-malloc\n\
         run of the same workload):\n",
        STRUCTURES_PER_THREAD, THREADS
    );
    println!(
        "{:<16}{:>12}{:>14}{:>14}{:>14}{:>12}",
        "class", "allocations", "serial", "ptmalloc", "amplify", "amp/pt"
    );

    let baseline_cache: std::collections::HashMap<u32, smp_sim::RunMetrics> = estimates
        .iter()
        .map(|e| e.allocations)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|n| (n, simulate(ModelKind::Serial, n)))
        .collect();

    let mut sim_runs: Vec<(String, smp_sim::RunMetrics)> = Vec::new();
    for est in &estimates {
        let nodes = est.allocations;
        let serial8 = baseline_cache[&nodes].wall_ns;
        let pt = simulate(ModelKind::Ptmalloc, nodes);
        let amp = simulate(ModelKind::Amplify, nodes);
        println!(
            "{:<16}{:>12}{:>13.2}x{:>13.2}x{:>13.2}x{:>11.2}x",
            est.class,
            nodes,
            1.0, // serial at 8 threads normalized to itself
            serial8 as f64 / pt.wall_ns as f64,
            serial8 as f64 / amp.wall_ns as f64,
            pt.wall_ns as f64 / amp.wall_ns as f64,
        );
        sim_runs.push((format!("{}/solaris-default", est.class), baseline_cache[&nodes].clone()));
        sim_runs.push((format!("{}/ptmalloc", est.class), pt));
        sim_runs.push((format!("{}/amplify", est.class), amp));
    }
    println!(
        "\n(\"allocations\" = heap allocations per logical object from the composition\n\
         graph; classes with more composition benefit more from structure pooling —\n\
         the paper's §2 argument, quantified for this code base.)"
    );
    bench::metrics::emit_if_requested("predict", sim_runs);
}
