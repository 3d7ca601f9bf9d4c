//! The offline tuner: evolve pool configurations against recorded
//! workload traces and report whether the winners beat the hand-tuned
//! defaults.
//!
//! ```text
//! cargo run --release -p bench --bin pool_tune                 # full budget
//! cargo run --release -p bench --bin pool_tune -- --smoke      # CI-sized
//! cargo run --release -p bench --bin pool_tune -- metrics --seed 7
//! ```
//!
//! Usage: `pool_tune [output_dir] [--seed N] [--generations N]
//! [--population N] [--iterations N] [--min-improved N] [--smoke]
//! [--metrics-out <path>]`.
//!
//! Writes `BENCH_tuning.json` (schema `pool-tune-v1`, tuned-vs-default
//! deltas per family) and `pool_tune_generations.log` (the rendered
//! generation log) into `output_dir` (default `.`), and — with
//! `--metrics-out` — a full `telemetry-v1` report carrying the
//! `pool_tune` section for `pool_report` to render or diff.
//!
//! Exit code: 0 when the evolved configs beat the defaults on at least
//! `--min-improved` families (default 2, the CI gate), 1 otherwise.

use bench::tuner::{bench_tuning_json, standard_families, tune_families, TunerConfig};
use std::path::Path;

/// `--name N` / `--name=N`, or `default`.
fn arg_u64(args: &[String], name: &str, default: u64) -> u64 {
    let eq = format!("{name}=");
    for (i, a) in args.iter().enumerate() {
        if a == name {
            if let Some(v) = args.get(i + 1).and_then(|s| s.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix(&eq).and_then(|s| s.parse().ok()) {
            return v;
        }
    }
    default
}

/// Flags whose value occupies the following argument (so the positional
/// output-directory scan can skip it).
const VALUE_FLAGS: [&str; 6] =
    ["--seed", "--generations", "--population", "--iterations", "--min-improved", "--metrics-out"];

fn output_dir(args: &[String]) -> String {
    let mut skip = false;
    for a in &args[1..] {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            return a.clone();
        }
    }
    ".".to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed = arg_u64(&args, "--seed", 42);
    let mut cfg = if smoke { TunerConfig::smoke(seed) } else { TunerConfig::standard(seed) };
    cfg.generations = arg_u64(&args, "--generations", cfg.generations as u64) as u32;
    cfg.population = arg_u64(&args, "--population", cfg.population as u64) as usize;
    let iterations = arg_u64(&args, "--iterations", if smoke { 12 } else { 40 }) as u32;
    let min_improved = arg_u64(&args, "--min-improved", 2) as usize;
    let dir = output_dir(&args);
    let dir = Path::new(&dir);

    eprintln!(
        "[pool_tune] evolving pool configs: seed {seed}, population {}, {} generations, \
         tree traces x{iterations} iterations",
        cfg.population, cfg.generations
    );
    let families = standard_families(iterations);
    let section = tune_families(&families, &cfg);

    let mut report = bench::metrics::gather("pool_tune");
    report.pool_tune = Some(section.clone());
    debug_assert!(report.validate().is_ok());
    print!("{}", report.render());

    std::fs::create_dir_all(dir).expect("output dir");
    let tuning_path = dir.join("BENCH_tuning.json");
    std::fs::write(&tuning_path, bench_tuning_json(&section)).expect("write BENCH_tuning.json");
    eprintln!("[pool_tune] tuned-vs-default deltas -> {}", tuning_path.display());
    let log_path = dir.join("pool_tune_generations.log");
    std::fs::write(&log_path, report.render()).expect("write generation log");
    eprintln!("[pool_tune] generation log -> {}", log_path.display());

    if let Some(path) = bench::metrics::metrics_out_from_args() {
        match bench::metrics::write_report(&path, &report) {
            Ok(()) => eprintln!("[pool_tune] telemetry report -> {}", path.display()),
            Err(e) => eprintln!("[pool_tune] cannot write {}: {e}", path.display()),
        }
    }

    let improved = section.improved_families();
    for f in &section.families {
        eprintln!(
            "[pool_tune] {}: fitness {} -> {} ({}{:.1}%)",
            f.family,
            f.default_fitness,
            f.tuned_fitness,
            if f.improved() { "-" } else { "" },
            f.improvement_pct().abs()
        );
    }
    if improved < min_improved {
        eprintln!(
            "[pool_tune] FAIL: evolved configs improved only {improved} of {} families \
             (need >= {min_improved})",
            section.families.len()
        );
        std::process::exit(1);
    }
    eprintln!(
        "[pool_tune] OK: evolved configs beat the defaults on {improved} of {} families",
        section.families.len()
    );
}
