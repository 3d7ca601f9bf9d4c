//! End-to-end checks for the `native_matrix` binary: `--help` and an
//! unknown flag both print the usage and stop before any cell runs, so
//! neither writes `results/`; the `--heap-profile` smoke writes a report
//! whose heap-profile section `pool_report` renders.

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("native_matrix_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Run `native_matrix` with `args` in a fresh working directory; returns
/// its output and whether a `results/` directory appeared there.
fn run_in_scratch(name: &str, args: &[&str]) -> (Output, bool) {
    let dir = scratch_dir(name);
    let out = Command::new(env!("CARGO_BIN_EXE_native_matrix"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("run native_matrix");
    let wrote_results = dir.join("results").exists();
    let _ = std::fs::remove_dir_all(&dir);
    (out, wrote_results)
}

#[test]
fn help_prints_usage_and_runs_nothing() {
    // `--smoke` first: were `--help` ignored, the run would stay short.
    let (out, wrote_results) = run_in_scratch("help", &["--smoke", "--help"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("usage: native_matrix"), "{stdout}");
    assert!(!stdout.contains("tree/d"), "a cell ran: {stdout}");
    assert!(!wrote_results, "--help wrote results/");
}

#[test]
fn an_unknown_flag_prints_usage_and_exits_2() {
    let (out, wrote_results) = run_in_scratch("unknown", &["--smoke", "--no-such-flag"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--no-such-flag"), "{stderr}");
    assert!(stderr.contains("usage: native_matrix"), "{stderr}");
    assert!(out.stdout.is_empty(), "a cell ran: {}", String::from_utf8_lossy(&out.stdout));
    assert!(!wrote_results, "an unknown flag wrote results/");
}

#[test]
fn heap_profile_smoke_writes_a_rendered_heap_profile() {
    let dir = scratch_dir("heap_profile");
    let report_path = dir.join("metrics/heap_profile.json");
    let out = Command::new(env!("CARGO_BIN_EXE_native_matrix"))
        .args(["--smoke", "--heap-profile", "--metrics-out"])
        .arg(&report_path)
        .current_dir(&dir)
        .output()
        .expect("run native_matrix");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report_path).expect("the report was written");
    let report = telemetry::Report::from_json(&text).expect("the report parses");
    report.validate().expect("the report validates");
    let hp = report.heap_profile.as_ref().expect("a heap_profile section");
    if cfg!(feature = "global-alloc") {
        // With the front-end installed every cell's heap traffic is
        // sampled and the sampler thread snapshots it while it runs.
        assert!(!hp.sites.is_empty(), "no sampled site: {hp:?}");
        assert!(!hp.timeline.is_empty(), "no timeline point: {hp:?}");
    }

    let rendered = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .arg(&report_path)
        .output()
        .expect("run pool_report");
    let stdout = String::from_utf8_lossy(&rendered.stdout);
    assert!(rendered.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&rendered.stderr));
    assert!(stdout.contains("heap profile (heap-profile-v1"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
