//! Structure-size modeling: from the analyzed class-composition graph,
//! estimate how many sub-allocations one logical object costs — the
//! quantity that decides how much a structure pool saves (§2: "the total
//! number of allocations is dependent on the composition of the objects").
//!
//! The bench harness uses these estimates to drive the SMP simulator with
//! workload shapes derived from *real* pre-processed source code.

use crate::analysis::Analysis;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Estimated allocation shape of one class when used as a structure root.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructureEstimate {
    pub class: String,
    /// Heap allocations per instance (the root plus every transitively
    /// composed pointee, assuming each pointer field holds one object).
    pub allocations: u32,
    /// True if the composition graph under this root has a cycle (the
    /// estimate then treats back-edges as null pointers).
    pub cyclic: bool,
}

/// Estimate every class's structure size from the composition edges.
pub fn estimate_structures(analysis: &Analysis) -> Vec<StructureEstimate> {
    let mut edges: HashMap<&str, Vec<&str>> = HashMap::new();
    for (owner, _field, pointee) in &analysis.composition {
        edges.entry(owner).or_default().push(pointee);
    }

    let mut out: Vec<StructureEstimate> = analysis
        .classes
        .keys()
        .map(|class| {
            let mut visiting = HashSet::new();
            let mut cyclic = false;
            let allocations = count(class, &edges, &mut visiting, &mut cyclic, 0);
            StructureEstimate { class: class.clone(), allocations, cyclic }
        })
        .collect();
    out.sort_by(|a, b| a.class.cmp(&b.class));
    out
}

fn count<'a>(
    class: &'a str,
    edges: &HashMap<&'a str, Vec<&'a str>>,
    visiting: &mut HashSet<&'a str>,
    cyclic: &mut bool,
    depth: u32,
) -> u32 {
    // Defensive depth cap: a pathological chain cannot overflow the stack.
    if depth > 64 || !visiting.insert(class) {
        if visiting.contains(class) {
            *cyclic = true;
        }
        return 0;
    }
    let mut total = 1;
    if let Some(children) = edges.get(class) {
        for child in children {
            total += count(child, edges, visiting, cyclic, depth + 1);
        }
    }
    visiting.remove(class);
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::config::AmplifyOptions;
    use cxx_frontend::parse_source;

    fn estimates(src: &str) -> HashMap<String, StructureEstimate> {
        let unit = parse_source(src);
        let a = analyze(&unit, &AmplifyOptions::default());
        estimate_structures(&a).into_iter().map(|e| (e.class.clone(), e)).collect()
    }

    #[test]
    fn car_structure_counts_sub_objects() {
        // The paper's Figure 1 car: Car → {Engine, Chassis, Wheel}; the
        // engine owns a name string object.
        let src = r#"
class Name { char* text; };
class Engine { Name* name; };
class Chassis { int weight; };
class Wheel { int radius; };
class Car { Engine* engine; Chassis* chassis; Wheel* wheel; };
"#;
        let e = estimates(src);
        assert_eq!(e["Car"].allocations, 5, "Car + Engine + Name + Chassis + Wheel");
        assert_eq!(e["Engine"].allocations, 2);
        assert_eq!(e["Wheel"].allocations, 1);
        assert!(!e["Car"].cyclic);
    }

    #[test]
    fn recursive_structures_are_flagged_cyclic() {
        let src = "class Node { Node* next; int v; };";
        let e = estimates(src);
        assert_eq!(e["Node"].allocations, 1);
        assert!(e["Node"].cyclic);
    }

    #[test]
    fn binary_tree_self_edges() {
        let src = "class Tree { Tree* left; Tree* right; int data; };";
        let e = estimates(src);
        // Both children are back-edges to the class itself.
        assert!(e["Tree"].cyclic);
        assert_eq!(e["Tree"].allocations, 1);
    }

    #[test]
    fn unknown_pointees_do_not_count() {
        let src = "class A { std::string* s; B* b; };";
        let e = estimates(src);
        assert_eq!(e["A"].allocations, 1);
    }
}
