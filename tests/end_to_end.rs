//! Cross-crate integration: the pre-processor's analysis feeds the
//! simulator; the pool runtime and the workloads agree; the whole pipeline
//! is deterministic.

use amplify::analysis::analyze;
use amplify::model::estimate_structures;
use amplify::{Amplifier, AmplifyOptions};
use cxx_frontend::parse_source;
use mem_api::BackendRegistry;
use smp_sim::engine::{Program, Sim, SimConfig};
use smp_sim::model::StructShape;
use smp_sim::programs::TreeProgram;
use smp_sim::run::{run_tree, ModelKind, TreeExperiment};
use smp_sim::CostParams;
use workloads::exec::run_workload;
use workloads::tree::TreeWorkload;

/// The paper's Figure 1 car, as C++ source.
const CAR_SRC: &str = r#"
class Name { public: Name(); char* text; };
class Engine { public: Engine(); Name* name; };
class Chassis { public: Chassis(); int weight; };
class Wheel { public: Wheel(); int radius; };
class Car {
public:
    Car();
    ~Car();
private:
    Engine* engine;
    Chassis* chassis;
    Wheel* front;
    Wheel* rear;
};
"#;

/// Analyze real C++ → derive the structure size → drive the simulator with
/// that exact shape, and confirm Amplify's advantage grows with it.
#[test]
fn analysis_derived_structure_drives_the_simulator() {
    let unit = parse_source(CAR_SRC);
    let analysis = analyze(&unit, &AmplifyOptions::default());
    let est = estimate_structures(&analysis);
    let car = est.iter().find(|e| e.class == "Car").expect("Car estimated");
    assert_eq!(car.allocations, 6, "Car + Engine + Name + Chassis + 2 Wheels");

    // Simulate "allocating Cars" vs single objects under serial malloc and
    // Amplify: the ratio must grow with the structure size.
    let advantage = |nodes: u32| {
        let shape = StructShape { class_id: 0, nodes, node_size: 32 };
        let mk = |model: Box<dyn smp_sim::AllocModel>| {
            let programs: Vec<Box<dyn Program>> = (0..4)
                .map(|_| {
                    Box::new(TreeProgram::new(shape, 500, &CostParams::default()))
                        as Box<dyn Program>
                })
                .collect();
            Sim::new(SimConfig::new(8), model, programs).run().wall_ns
        };
        let serial = mk(ModelKind::Serial.build(4, 8, CostParams::default()));
        let amplified = mk(ModelKind::Amplify.build(4, 8, CostParams::default()));
        serial as f64 / amplified as f64
    };
    let single = advantage(1);
    let car_sized = advantage(car.allocations);
    assert!(
        car_sized > single,
        "structure pooling must pay more for 6-node cars ({car_sized:.2}) \
         than single objects ({single:.2})"
    );
}

/// The pre-processor's output on the Figure 1 car rewrites every member
/// the analysis found.
#[test]
fn preprocessor_and_analysis_agree() {
    let amp = Amplifier::new(AmplifyOptions::default());
    let out = amp.amplify_source("car.cpp", CAR_SRC);
    // 6 pointer fields across the unit get shadows (Car's four + Engine's
    // name + Name's text as a data array).
    assert_eq!(out.report.shadow_fields + out.report.array_shadow_fields, 6);
    assert_eq!(out.report.classes_amplified, 5);
}

/// Native pool execution and plain allocation agree on results while the
/// pool reuses structures — now through the unified backend registry.
#[test]
fn native_pools_match_plain_allocation() {
    let w = TreeWorkload::test_case(2, 50, 4);
    let registry = BackendRegistry::standard();
    let pooled = run_workload(&*registry.build("amplify").unwrap(), &w);
    let unpooled = run_workload(&*registry.build("solaris-default").unwrap(), &w);
    assert_eq!(pooled.checksums, unpooled.checksums);
    assert!(
        pooled.stats.pool_hits() > 150,
        "expected heavy reuse, got {}",
        pooled.stats.pool_hits()
    );
}

/// Table 1, the workload generator, and the simulator's shape helper all
/// agree on structure sizes.
#[test]
fn table_1_consistency_across_crates() {
    for (case, depth, objects) in [(1u32, 1u32, 3u32), (2, 3, 15), (3, 5, 63)] {
        let w = TreeWorkload::test_case(case, 1, 1);
        assert_eq!(w.depth, depth);
        assert_eq!(w.objects_per_structure(), objects);
        assert_eq!(StructShape::binary_tree(depth, 20).nodes, objects);
    }
}

/// One full simulated experiment is bit-for-bit reproducible.
#[test]
fn simulated_experiments_reproduce() {
    let exp = TreeExperiment { depth: 3, total_trees: 600, cpus: 8, params: CostParams::default() };
    for kind in [ModelKind::Serial, ModelKind::Amplify, ModelKind::Handmade] {
        let a = run_tree(kind, 6, &exp);
        let b = run_tree(kind, 6, &exp);
        assert_eq!(a, b, "{} not deterministic", kind.name());
    }
}
