//! Figure/table data generation and rendering.
//!
//! The simulator runs behind each figure are pure functions of their
//! parameters, so the (model, thread-count) grid fans out over the
//! [`crate::parallel`] worker pool. Results are reassembled in grid order,
//! which keeps the rendered tables and CSVs byte-identical to a serial
//! run for any `jobs` count.

use crate::parallel;
use smp_sim::metrics::RunMetrics;
use smp_sim::params::CostParams;
use smp_sim::run::{run_bgw, run_tree, scaleup_from_speedup, speedup, ModelKind, TreeExperiment};
use std::fs;
use std::io::Write as _;
use std::path::Path;

/// Thread counts used on the figures' x axes (the paper sweeps past the
/// 8 processors, "a common case for server applications").
pub const THREADS: &[usize] = &[1, 2, 4, 6, 8, 12, 16];

/// Total trees per run: large enough that the cold start (first structures
/// funnelling through the base malloc) amortizes, as in the paper's
/// long-running tests.
pub const TOTAL_TREES: u32 = 16_000;

/// CDRs for the BGw experiment — the paper measures "the time it took to
/// process 5,000 CDR:s".
pub const BGW_CDRS: u32 = 5_000;

/// One line on a figure.
#[derive(Debug, Clone)]
pub(crate) struct Series {
    pub(crate) name: String,
    pub(crate) points: Vec<(usize, f64)>,
}

/// A complete figure: title + series.
#[derive(Debug, Clone)]
pub struct FigureData {
    pub(crate) id: String,
    pub(crate) title: String,
    pub(crate) xlabel: String,
    pub(crate) series: Vec<Series>,
}

impl FigureData {
    /// Render as an aligned ASCII table.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("{:<20}", self.xlabel));
        if let Some(first) = self.series.first() {
            for (x, _) in &first.points {
                out.push_str(&format!("{x:>9}"));
            }
        }
        out.push('\n');
        for s in &self.series {
            out.push_str(&format!("{:<20}", s.name));
            for (_, y) in &s.points {
                out.push_str(&format!("{y:>9.2}"));
            }
            out.push('\n');
        }
        out
    }

    /// Render as CSV (`x,series1,series2,...`). This is the exact byte
    /// content [`Self::write_csv`] puts on disk — the determinism tests
    /// compare it across `jobs` settings.
    pub fn csv_string(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str(&self.xlabel);
        for s in &self.series {
            let _ = write!(out, ",{}", s.name);
        }
        out.push('\n');
        if let Some(first) = self.series.first() {
            for (i, (x, _)) in first.points.iter().enumerate() {
                let _ = write!(out, "{x}");
                for s in &self.series {
                    let _ = write!(out, ",{:.4}", s.points[i].1);
                }
                out.push('\n');
            }
        }
        out
    }

    /// Write as CSV (`x,series1,series2,...`).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = fs::File::create(&path)?;
        write!(f, "{}", self.csv_string())?;
        Ok(path)
    }

    /// Look up a point.
    pub fn value(&self, series: &str, x: usize) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == series)?
            .points
            .iter()
            .find(|(px, _)| *px == x)
            .map(|&(_, y)| y)
    }
}

/// Table 1: size of data structures in the test cases.
pub fn table1() -> String {
    let mut out = String::new();
    out.push_str("== Table 1: Size of data structures in test cases ==\n");
    out.push_str("Test case | Tree depth | Number of objects\n");
    for (case, depth) in [(1u32, 1u32), (2, 3), (3, 5)] {
        let objects = (1u32 << (depth + 1)) - 1;
        out.push_str(&format!("{case:^9} | {depth:^10} | {objects:^17}\n"));
    }
    out
}

fn tree_exp(depth: u32, total_trees: u32) -> TreeExperiment {
    TreeExperiment { depth, total_trees, cpus: 8, params: CostParams::default() }
}

/// A speedup figure (4, 5, 6 or 10) for one tree depth.
///
/// The `kinds × THREADS` grid fans out over `jobs` workers; the series
/// are assembled in grid order, so the result is identical for any
/// `jobs >= 1`.
pub fn speedup_figure(
    id: &str,
    depth: u32,
    kinds: &[ModelKind],
    total_trees: u32,
    jobs: usize,
) -> FigureData {
    speedup_figure_with_metrics(id, depth, kinds, total_trees, jobs).0
}

/// [`speedup_figure`] plus the full [`RunMetrics`] of every run behind it
/// (`kind/t{threads}`, and the serial 1-thread `baseline`), in grid order —
/// the raw material for a `--metrics-out` telemetry report.
pub fn speedup_figure_with_metrics(
    id: &str,
    depth: u32,
    kinds: &[ModelKind],
    total_trees: u32,
    jobs: usize,
) -> (FigureData, Vec<(String, RunMetrics)>) {
    let exp = tree_exp(depth, total_trees);
    let base_run = run_tree(ModelKind::Serial, 1, &exp);
    let base = base_run.wall_ns;
    let cols = THREADS.len();
    let cells = parallel::run_indexed(jobs, kinds.len() * cols, |i| {
        let (kind, t) = (kinds[i / cols], THREADS[i % cols]);
        (t, run_tree(kind, t, &exp))
    });
    let series = kinds
        .iter()
        .enumerate()
        .map(|(k, kind)| Series {
            name: kind.name().to_string(),
            points: cells[k * cols..(k + 1) * cols]
                .iter()
                .map(|(t, m)| (*t, speedup(base, m)))
                .collect(),
        })
        .collect();
    let mut runs = Vec::with_capacity(cells.len() + 1);
    runs.push(("baseline".to_string(), base_run));
    for (i, (t, m)) in cells.into_iter().enumerate() {
        runs.push((format!("{}/t{t}", kinds[i / cols].name()), m));
    }
    let fig = FigureData {
        id: id.to_string(),
        title: format!("Speedup, test case with tree depth {depth} (8 CPUs)"),
        xlabel: "threads".into(),
        series,
    };
    (fig, runs)
}

/// A scaleup figure (7, 8 or 9): the speedup figure normalized per-series
/// to 1 at one thread.
pub fn scaleup_figure(id: &str, speedup_fig: &FigureData, depth: u32) -> FigureData {
    FigureData {
        id: id.to_string(),
        title: format!("Scaleup, test case with tree depth {depth} (8 CPUs)"),
        xlabel: speedup_fig.xlabel.clone(),
        series: speedup_fig
            .series
            .iter()
            .map(|s| Series { name: s.name.clone(), points: scaleup_from_speedup(&s.points) })
            .collect(),
    }
}

/// Figure 11: BGw CDR-processing speedup for the §5.2 configurations.
///
/// Like [`speedup_figure`], the (kind, thread) grid fans out over `jobs`
/// workers with grid-order reassembly.
pub fn bgw_figure(total_cdrs: u32, jobs: usize) -> FigureData {
    bgw_figure_with_metrics(total_cdrs, jobs).0
}

/// [`bgw_figure`] plus the labelled [`RunMetrics`] behind every point,
/// mirroring [`speedup_figure_with_metrics`].
pub fn bgw_figure_with_metrics(
    total_cdrs: u32,
    jobs: usize,
) -> (FigureData, Vec<(String, RunMetrics)>) {
    let threads: &[usize] = &[1, 2, 4, 6, 8];
    let base_run = run_bgw(ModelKind::Serial, 1, total_cdrs, 8);
    let base = base_run.wall_ns;
    let kinds = [
        ModelKind::Serial,
        ModelKind::SmartHeap,
        ModelKind::Amplify,
        ModelKind::AmplifyOverSmartHeap,
    ];
    let cols = threads.len();
    let cells = parallel::run_indexed(jobs, kinds.len() * cols, |i| {
        let (kind, t) = (kinds[i / cols], threads[i % cols]);
        (t, run_bgw(kind, t, total_cdrs, 8))
    });
    let series = kinds
        .iter()
        .enumerate()
        .map(|(k, kind)| Series {
            name: kind.name().to_string(),
            points: cells[k * cols..(k + 1) * cols]
                .iter()
                .map(|(t, m)| (*t, base as f64 / m.wall_ns as f64))
                .collect(),
        })
        .collect();
    let mut runs = Vec::with_capacity(cells.len() + 1);
    runs.push(("baseline".to_string(), base_run));
    for (i, (t, m)) in cells.into_iter().enumerate() {
        runs.push((format!("{}/t{t}", kinds[i / cols].name()), m));
    }
    let fig = FigureData {
        id: "fig11".into(),
        title: format!("Speedup graph for BGw ({total_cdrs} CDRs, 8 CPUs)"),
        xlabel: "threads".into(),
        series,
    };
    (fig, runs)
}

/// The comparison set of Figures 4–9.
pub fn standard_kinds() -> Vec<ModelKind> {
    vec![ModelKind::Serial, ModelKind::Ptmalloc, ModelKind::Hoard, ModelKind::Amplify]
}

/// Figure 10 adds the handmade pool.
pub fn fig10_kinds() -> Vec<ModelKind> {
    vec![
        ModelKind::Serial,
        ModelKind::Ptmalloc,
        ModelKind::Hoard,
        ModelKind::Amplify,
        ModelKind::Handmade,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let t = table1();
        assert!(t.contains('3'));
        assert!(t.contains("15"));
        assert!(t.contains("63"));
    }

    #[test]
    fn figure_rendering_and_csv() {
        let fig = FigureData {
            id: "figX".into(),
            title: "test".into(),
            xlabel: "threads".into(),
            series: vec![Series { name: "a".into(), points: vec![(1, 1.0), (2, 2.5)] }],
        };
        let ascii = fig.ascii();
        assert!(ascii.contains("figX"));
        assert!(ascii.contains("2.50"));
        let dir = std::env::temp_dir().join("amplify_bench_test");
        let path = fig.write_csv(&dir).unwrap();
        let csv = fs::read_to_string(&path).unwrap();
        assert!(csv.starts_with("threads,a\n"));
        assert!(csv.contains("2,2.5000"));
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(fig.value("a", 2), Some(2.5));
        assert_eq!(fig.value("b", 2), None);
    }

    #[test]
    fn small_speedup_figure_has_expected_shape() {
        // A fast smoke run: tiny workload, just verify structure and the
        // amplify-beats-allocators ordering at 8 threads. jobs=2 also
        // exercises the parallel fan-out path.
        let fig = speedup_figure("smoke", 3, &standard_kinds(), 800, 2);
        assert_eq!(fig.series.len(), 4);
        let amplify = fig.value("amplify", 8).unwrap();
        let ptmalloc = fig.value("ptmalloc", 8).unwrap();
        assert!(amplify > ptmalloc);
    }

    #[test]
    fn scaleup_normalizes_to_one() {
        let fig = speedup_figure("smoke", 1, &[ModelKind::Amplify], 400, 1);
        let scale = scaleup_figure("smoke-scale", &fig, 1);
        let at1 = scale.value("amplify", 1).unwrap();
        assert!((at1 - 1.0).abs() < 1e-9);
    }
}
