//! End-to-end checks for the `native_matrix` binary's argument handling:
//! `--help` and an unknown flag both print the usage and stop before any
//! cell runs, so neither writes `results/`.

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
