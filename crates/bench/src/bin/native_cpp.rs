//! Native C++ benchmark: real execution of the paper's single-thread
//! comparison (the 1-thread points of Figures 4–6) on this machine.
//!
//! For each test case (tree depth 1/3/5) it compiles three programs with
//! `g++ -O2 -fno-lifetime-dse` and times them:
//!
//! * **original** — plain `new`/`delete` per node (the system allocator);
//! * **amplified** — the same source, rewritten by the pre-processor;
//! * **handmade** — the §3.1 handmade structure pool (Figure 2).
//!
//! Requires `g++`; exits gracefully without it. (This host has one CPU, so
//! only the sequential comparison is made natively — the multiprocessor
//! curves come from the simulator.)

use amplify::{Amplifier, AmplifyOptions};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const ITERS: u32 = 300_000;
const RUNS: usize = 5;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../amplify/testdata").join(name);
    fs::read_to_string(path).expect("bundled fixture")
}

fn compile(dir: &Path, src_name: &str, out_name: &str, depth: u32, iters: u32) -> PathBuf {
    let bin = dir.join(out_name);
    let status = Command::new("g++")
        .current_dir(dir)
        .args([
            "-std=c++11",
            "-O2",
            "-fno-lifetime-dse",
            &format!("-DTREE_DEPTH={depth}"),
            &format!("-DTREE_ITERS={iters}"),
            src_name,
            "-o",
        ])
        .arg(&bin)
        .status()
        .expect("g++");
    assert!(status.success(), "g++ failed on {src_name}");
    bin
}

/// Median wall time over RUNS executions, and the program's stdout.
fn time_program(bin: &Path) -> (f64, String) {
    let mut times = Vec::with_capacity(RUNS);
    let mut stdout = String::new();
    for _ in 0..RUNS {
        let start = Instant::now();
        let out = Command::new(bin).output().expect("run");
        times.push(start.elapsed().as_secs_f64());
        assert!(out.status.success());
        stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[RUNS / 2], stdout)
}

fn checksum_line(output: &str) -> &str {
    output.lines().find(|l| l.starts_with("checksum=")).expect("checksum line")
}

fn main() {
    if Command::new("g++").arg("--version").output().is_err() {
        eprintln!("native_cpp: g++ not found; skipping");
        // Still honour --metrics-out so callers get a (run-less) report.
        bench::metrics::emit_if_requested("native_cpp", Vec::new());
        return;
    }
    let dir = std::env::temp_dir().join(format!("amplify_native_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();

    let original = fixture("tree_bench.cpp");
    let handmade = fixture("tree_bench_handmade.cpp");
    // Single-threaded program: the pre-processor elides all locks (§5.1).
    let amp = Amplifier::new(AmplifyOptions::single_threaded());
    let amplified = amp.amplify_source("tree_bench.cpp", &original);
    fs::write(dir.join("original.cpp"), &original).unwrap();
    fs::write(dir.join("amplified.cpp"), &amplified.text).unwrap();
    fs::write(dir.join("handmade.cpp"), &handmade).unwrap();
    fs::write(dir.join("amplify_runtime.hpp"), amp.runtime_header()).unwrap();

    println!(
        "Native single-thread tree benchmark ({} iterations, median of {} runs, g++ -O2):\n",
        ITERS, RUNS
    );
    println!(
        "{:<8}{:>8}{:>14}{:>14}{:>14}{:>12}{:>12}",
        "depth", "nodes", "original s", "amplified s", "handmade s", "amp speedup", "hm speedup"
    );
    for depth in [1u32, 3, 5] {
        // Scale iterations down for deeper trees so runtimes stay
        // comparable.
        let iters = ITERS / (1 << (depth - 1));
        let orig_bin = compile(&dir, "original.cpp", &format!("orig{depth}"), depth, iters);
        let amp_bin = compile(&dir, "amplified.cpp", &format!("amp{depth}"), depth, iters);
        let hm_bin = compile(&dir, "handmade.cpp", &format!("hm{depth}"), depth, iters);

        let (t_orig, out_orig) = time_program(&orig_bin);
        let (t_amp, out_amp) = time_program(&amp_bin);
        let (t_hm, out_hm) = time_program(&hm_bin);
        assert_eq!(checksum_line(&out_orig), checksum_line(&out_amp), "behaviour changed");
        assert_eq!(checksum_line(&out_orig), checksum_line(&out_hm), "handmade differs");

        println!(
            "{:<8}{:>8}{:>14.3}{:>14.3}{:>14.3}{:>11.2}x{:>11.2}x",
            depth,
            (1u32 << (depth + 1)) - 1,
            t_orig,
            t_amp,
            t_hm,
            t_orig / t_amp,
            t_orig / t_hm,
        );
    }
    println!(
        "\n(The amplified and handmade programs replace one malloc+free per node with\n\
         structure reuse; behaviour checksums are verified identical. Compare with the\n\
         1-thread points of Figures 4–6.)"
    );
    let _ = fs::remove_dir_all(&dir);
    // The native comparison runs no simulator; the report still records
    // the process-wide event totals.
    bench::metrics::emit_if_requested("native_cpp", Vec::new());
}
