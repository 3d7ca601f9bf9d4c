//! Pre-process the bundled `car.cpp` fixture and show the full rewritten
//! translation unit, the transformation report, and the structure-size
//! estimates derived from the class-composition graph.
//!
//! ```text
//! cargo run --example preprocess_car
//! ```

use amplify::analysis::analyze;
use amplify::model::estimate_structures;
use amplify::{Amplifier, AmplifyOptions};
use cxx_frontend::parse_source;
use std::path::Path;

fn main() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/amplify/testdata/car.cpp");
    let src = std::fs::read_to_string(&path).expect("bundled fixture");

    let options = AmplifyOptions::default();
    let amp = Amplifier::new(options.clone());
    let out = amp.amplify_source("car.cpp", &src);

    println!("==== rewritten car.cpp ====");
    println!("{}", out.text);
    println!("==== report ====");
    println!("{}", out.report.summary());

    let unit = parse_source(&src);
    let analysis = analyze(&unit, &options);
    println!("\n==== structure estimates (allocations per logical object) ====");
    for est in estimate_structures(&analysis) {
        println!(
            "  {:<10} {} allocation(s){}",
            est.class,
            est.allocations,
            if est.cyclic { " (recursive)" } else { "" }
        );
    }
    println!(
        "\nThe generated runtime header is {} bytes; write it with amplify-cli.",
        amp.runtime_header().len()
    );
}
