//! `--metrics-out` support for the figure/ablation binaries.
//!
//! Every bin in `src/bin` accepts `--metrics-out <path>` (or
//! `--metrics-out=<path>`) and, when given, writes a `telemetry-v1` JSON
//! report there: the process-wide event totals ([`gather`]) plus the
//! simulator runs the bin performed, labelled `kind/t{threads}` (plus a
//! `baseline` entry where a figure normalizes against one). `pool_report` renders these files back as
//! human-readable text.

use smp_sim::RunMetrics;
use std::path::{Path, PathBuf};
use telemetry::report::SimRun;
use telemetry::{EventKind, Report};

/// A report listing the process-wide event totals, read when it is built
/// from counters that are always on: the size-class engine's
/// (`pools::global::stats`) and the fault layer's injected failures.
/// Per-pool counts go in the `pools` and `native_runs` sections.
pub fn gather(source: &str) -> Report {
    let engine = pools::global::stats();
    let injected = pools::fault::injected_counts().total();
    Report::with_events(source, |kind| match kind {
        EventKind::FallbackAlloc => engine.fallback_allocs,
        EventKind::FaultInjected => injected,
        EventKind::ClassRefill => engine.class_refills,
    })
}

/// Parse `--metrics-out <path>` / `--metrics-out=<path>` from `args`.
pub(crate) fn metrics_out_from(args: &[String]) -> Option<PathBuf> {
    for (i, a) in args.iter().enumerate() {
        if a == "--metrics-out" {
            if let Some(p) = args.get(i + 1) {
                return Some(PathBuf::from(p));
            }
        } else if let Some(p) = a.strip_prefix("--metrics-out=") {
            return Some(PathBuf::from(p));
        }
    }
    None
}

/// `metrics_out_from` over the process arguments. Shared by every bin,
/// mirroring [`crate::parallel::jobs_from_args`].
pub fn metrics_out_from_args() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    metrics_out_from(&args)
}

/// Attach labelled simulator runs to a report.
pub(crate) fn with_runs(mut report: Report, sim_runs: Vec<(String, RunMetrics)>) -> Report {
    report.sim_runs =
        sim_runs.into_iter().map(|(label, metrics)| SimRun { label, metrics }).collect();
    report
}

/// Assemble the standard bin report: the gathered event totals plus the
/// bin's simulator runs.
pub(crate) fn report_for_runs(source: &str, sim_runs: Vec<(String, RunMetrics)>) -> Report {
    with_runs(gather(source), sim_runs)
}

/// Write `report` to `path` as pretty JSON, creating parent directories.
pub fn write_report(path: &Path, report: &Report) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, report.to_json())
}

/// The one call every bin makes after its runs: if `--metrics-out` was
/// passed, gather + write the report (a write failure is reported on
/// stderr, not fatal — the figure itself already printed).
pub fn emit_if_requested(source: &str, sim_runs: Vec<(String, RunMetrics)>) {
    let Some(path) = metrics_out_from_args() else { return };
    let report = report_for_runs(source, sim_runs);
    debug_assert!(report.validate().is_ok());
    match write_report(&path, &report) {
        Ok(()) => eprintln!("[{source}] telemetry report -> {}", path.display()),
        Err(e) => eprintln!("[{source}] cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{speedup_figure_with_metrics, standard_kinds};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn metrics_out_parses_both_spellings() {
        assert_eq!(metrics_out_from(&strs(&["bin"])), None);
        assert_eq!(
            metrics_out_from(&strs(&["bin", "--metrics-out", "a.json"])),
            Some(PathBuf::from("a.json"))
        );
        assert_eq!(
            metrics_out_from(&strs(&["bin", "--jobs", "2", "--metrics-out=out/b.json"])),
            Some(PathBuf::from("out/b.json"))
        );
        // A dangling flag is ignored rather than panicking.
        assert_eq!(metrics_out_from(&strs(&["bin", "--metrics-out"])), None);
    }

    #[test]
    fn report_for_runs_is_schema_valid_and_round_trips() {
        let (_, runs) = speedup_figure_with_metrics("t", 1, &standard_kinds()[..2], 200, 1);
        let report = report_for_runs("metrics-test", runs);
        report.validate().expect("valid report");
        assert!(report.sim_runs.len() >= 2);
        assert!(report.sim_runs.iter().any(|r| r.label == "baseline"));
        let back = Report::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn reports_are_deterministic_across_job_counts() {
        // The full emitted JSON must be byte-identical whether the grid ran
        // serially or fanned out — same guarantee the CSVs already make.
        let kinds = standard_kinds();
        let (fig1, runs1) = speedup_figure_with_metrics("det", 1, &kinds[..2], 200, 1);
        let (fig2, runs2) = speedup_figure_with_metrics("det", 1, &kinds[..2], 200, 2);
        assert_eq!(fig1.csv_string(), fig2.csv_string());
        // Compare via `Report::new` (not `gather`): other tests in this
        // process may be moving the process-wide counters concurrently.
        let a = with_runs(Report::new("det"), runs1).to_json();
        let b = with_runs(Report::new("det"), runs2).to_json();
        assert_eq!(a, b);
    }

    #[test]
    fn gather_reads_class_refills_from_the_size_class_engine() {
        // A thread allocating past its cache through the raw size-class
        // API refills from the engine's shared levels, which the engine
        // counts in every build. Explicit join: the thread's counters are
        // folded before the report is gathered.
        use pools::global::{raw_alloc, raw_dealloc};
        let layout = std::alloc::Layout::from_size_align(48, 8).unwrap();
        std::thread::spawn(move || {
            let blocks: Vec<usize> = (0..256).map(|_| raw_alloc(layout) as usize).collect();
            for b in blocks {
                unsafe { raw_dealloc(b as *mut u8, layout) };
            }
        })
        .join()
        .unwrap();
        let report = gather("class-refill-test");
        report.validate().unwrap();
        let count = |kind: &str| report.events.iter().find(|e| e.kind == kind).unwrap().count;
        assert!(count("class_refill") > 0, "{:?}", report.events);
        assert_eq!(report.events.len(), EventKind::ALL.len());
    }

    #[test]
    fn write_report_creates_parent_dirs() {
        let dir = std::env::temp_dir().join("amplify_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/report.json");
        let report = Report::new("write-test");
        write_report(&path, &report).expect("write");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(Report::from_json(&text).unwrap(), report);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
