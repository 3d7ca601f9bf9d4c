//! Run the native five-way comparison matrix: every registered backend ×
//! tree depth {1,3,5} × thread count, on the real runtime.
//!
//! ```text
//! cargo run --release -p bench --bin native_matrix            # full sweep
//! cargo run --release -p bench --bin native_matrix -- --smoke # CI-sized
//! cargo run --release -p bench --bin native_matrix -- --heap-profile
//! ```
//!
//! Prints the per-depth tables, writes `results/native_matrix.csv`, and
//! (with `--metrics-out <path>`) emits a `telemetry-v1` report whose
//! `native_runs` section carries every cell tagged by backend name.
//! `--heap-profile` runs the matrix under the allocator's heap profiler
//! and attaches the `heap-profile-v1` section (per-class occupancy,
//! sampled sites, occupancy timeline) to that report. `--help` prints
//! the usage and an unknown argument exits 2; neither runs a cell.

use bench::native::{ascii_tables, run_matrix, write_csv, MatrixConfig};
use std::path::Path;

const USAGE: &str = "usage: native_matrix [--smoke] [--heap-profile] [--metrics-out <path>]";

/// Check the arguments before any cell runs: `Err(code)`, with the usage
/// printed, for `--help` (0) or an argument the matrix does not know (2).
fn check_args(args: &[String]) -> Result<(), i32> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--smoke" | "--heap-profile" => {}
            "--metrics-out" => {
                rest.next();
            }
            a if a.starts_with("--metrics-out=") => {}
            "--help" => {
                println!("{USAGE}");
                return Err(0);
            }
            other => {
                eprintln!("[native_matrix] unknown argument `{other}`\n{USAGE}");
                return Err(2);
            }
        }
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Err(code) = check_args(&args) {
        std::process::exit(code);
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let profile = bench::heapprof::heap_profile_from(&args);
    let config = if smoke { MatrixConfig::smoke() } else { MatrixConfig::standard() };

    let profiler = profile.then(bench::heapprof::HeapProfiler::start);
    let runs = run_matrix(&config);
    let heap_profile = profiler.map(bench::heapprof::HeapProfiler::finish);
    print!("{}", ascii_tables(&runs, &config));

    match write_csv(&runs, Path::new("results")) {
        Ok(path) => eprintln!("[native_matrix] csv -> {}", path.display()),
        Err(e) => eprintln!("[native_matrix] cannot write csv: {e}"),
    }

    if let Some(path) = bench::metrics::metrics_out_from_args() {
        let mut report = bench::metrics::gather("native_matrix");
        report.native_runs = runs;
        report.heap_profile = heap_profile;
        debug_assert!(report.validate().is_ok());
        match bench::metrics::write_report(&path, &report) {
            Ok(()) => eprintln!("[native_matrix] telemetry report -> {}", path.display()),
            Err(e) => eprintln!("[native_matrix] cannot write {}: {e}", path.display()),
        }
    }
}
