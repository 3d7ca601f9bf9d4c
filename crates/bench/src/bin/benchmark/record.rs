//! Metric catalog, per-trial results, summaries and the two-record
//! comparison.

use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A change smaller than this, in the metric's unit, is never a
    /// regression, whatever the relative bound says.
    pub floor: f64,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better, floor: 0.0 }
}

use Better::{Higher, Lower};

/// The end-to-end metrics `BENCHMARK.json` bounds, in its order.
pub const END_TO_END: [Metric; 5] = [
    m("mpairs_per_s", "Mpairs/s", Higher),
    m("req_p50_us", "us", Lower),
    m("req_p99_us", "us", Lower),
    Metric { floor: 1.0, ..m("peak_rss_mib", "MiB", Lower) },
    Metric { floor: 0.020, ..m("setup_s", "s", Lower) },
];

/// Failed requests over attempted. Reported by `run` and held to a zero
/// bound by `compare`; not in `BENCHMARK.json`, whose metrics are never 0.
pub const ERROR_RATE: Metric = m("error_rate", "ratio", Lower);

/// The per-layer metrics of a traced trial, in `BENCHMARK.json`'s order.
/// A workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [Metric; 36] = [
    m("mem_api.alloc_ns", "ns", Lower),
    m("mem_api.free_ns", "ns", Lower),
    m("mem_api.share", "ratio", Lower),
    m("pools.magazine.hit_rate", "ratio", Higher),
    m("pools.depot.swaps_per_kop", "1/kop", Lower),
    m("pools.depot.parks_per_kop", "1/kop", Lower),
    m("pools.pool_box.slab_carves", "count", Lower),
    m("pools.sharded.failed_locks", "count", Lower),
    m("pools.global.alloc_ns", "ns", Lower),
    m("pools.global.free_ns", "ns", Lower),
    m("pools.global.alloc_p999_ns", "ns", Lower),
    m("pools.global.share", "ratio", Lower),
    m("pools.global.cache_hit_rate", "ratio", Higher),
    m("pools.global.refills_per_kalloc", "1/kalloc", Lower),
    m("pools.global.remote_share", "ratio", Lower),
    m("pools.global.remote_pending_end", "count", Lower),
    m("pools.global.slabs_carved", "count", Lower),
    m("pools.global.recarved_slabs", "count", Lower),
    m("pools.global.peak_mapped_mib", "MiB", Lower),
    m("pools.global.trough_mapped_mib", "MiB", Lower),
    m("pools.heap_profile.occupancy_at_peak", "ratio", Higher),
    m("pools.reclaim.calls", "count", Lower),
    m("pools.reclaim.total_ms", "ms", Lower),
    m("pools.reclaim.max_ms", "ms", Lower),
    m("pools.reclaim.share", "ratio", Lower),
    m("pools.reclaim.passes", "count", Lower),
    m("pools.reclaim.swept_blocks", "count", Lower),
    m("pools.reclaim.reclaimed_mib", "MiB", Higher),
    m("workloads.use_ns", "ns", Lower),
    m("workloads.use_share", "ratio", Lower),
    m("os.minor_faults", "count", Lower),
    m("os.invol_ctx_switches", "count", Lower),
    m("os.cpu_util", "ratio", Higher),
    m("trace.timer_ns", "ns", Lower),
    m("trace.overhead_pct", "%", Lower),
    m("trace.residual_share", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain([&ERROR_RATE]).find(|m| m.name == name)
}

/// A JSON object from name/value pairs.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(u) => Some(u as f64),
        Value::Int(i) => Some(i as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

/// The fields of a JSON object (none for any other value).
pub fn fields(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Object(f) => f,
        _ => &[],
    }
}

fn named_numbers(v: &Value) -> Vec<(String, f64)> {
    fields(v).iter().filter_map(|(k, v)| num(v).map(|x| (k.clone(), x))).collect()
}

/// One trial, as its child process reports it on its last stdout line.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle breaches, one line each.
    pub failures: Vec<String>,
    pub wall_s: f64,
    /// End-to-end metrics, including `error_rate`.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer metrics (the trace-derived ones only when traced).
    pub layers: Vec<(String, f64)>,
}

impl Trial {
    pub fn to_json(&self) -> Value {
        let numbers = |v: &[(String, f64)]| {
            obj(v.iter().map(|(k, x)| (k.clone(), Value::Float(*x))).collect::<Vec<_>>())
        };
        obj([
            ("workload", Value::String(self.workload.clone())),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("failures", Value::Array(self.failures.iter().cloned().map(Value::String).collect())),
            ("wall_s", Value::Float(self.wall_s)),
            ("metrics", numbers(&self.metrics)),
            ("layers", numbers(&self.layers)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<Trial, String> {
        let count = |k: &str| match v[k] {
            Value::UInt(u) => Ok(u),
            _ => Err(format!("trial record lacks `{k}`")),
        };
        let failures = match &v["failures"] {
            Value::Array(a) => {
                a.iter()
                    .filter_map(|f| if let Value::String(s) = f { Some(s.clone()) } else { None })
            }
            .collect(),
            _ => Vec::new(),
        };
        Ok(Trial {
            workload: match &v["workload"] {
                Value::String(s) => s.clone(),
                _ => return Err("trial record lacks `workload`".into()),
            },
            attempted: count("attempted")?,
            failed: count("failed")?,
            failures,
            wall_s: num(&v["wall_s"]).ok_or("trial record lacks `wall_s`")?,
            metrics: named_numbers(&v["metrics"]),
            layers: named_numbers(&v["layers"]),
        })
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == name).map(|(_, x)| *x)
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, x)| *x)
    }
}

/// Median, the quartiles as Python's `statistics.quantiles(values, n=4)`
/// gives them (its default "exclusive" method), and the values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "a summary needs at least one value");
        let mut d = values.to_vec();
        d.sort_by(f64::total_cmp);
        let n = d.len();
        let median = if n % 2 == 1 { d[n / 2] } else { (d[n / 2 - 1] + d[n / 2]) / 2.0 };
        let quartile = |i: usize| {
            if n == 1 {
                return d[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
        };
        Summary { median, q1: quartile(1), q3: quartile(3), values: values.to_vec() }
    }

    pub fn to_json(&self, unit: &str) -> Value {
        obj([
            ("unit", Value::String(unit.into())),
            ("median", Value::Float(self.median)),
            ("q1", Value::Float(self.q1)),
            ("q3", Value::Float(self.q3)),
            ("n", Value::UInt(self.values.len() as u64)),
            ("values", Value::Array(self.values.iter().map(|x| Value::Float(*x)).collect())),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Summary> {
        let values = match &v["values"] {
            Value::Array(a) => a.iter().map(num).collect::<Option<Vec<f64>>>()?,
            _ => return None,
        };
        (!values.is_empty()).then(|| Summary::of(&values))
    }
}

/// Nearest-rank percentile of sorted values (`q` in `[0, 1]`).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against the baseline `a`. The limit is `bound` (a share of
/// `a`'s median) or the metric's floor, whichever is larger. A median
/// change beyond it is a regression or a gain. When either side's
/// quartile spread exceeds it, the two cannot be told apart, unless every
/// value of `b` beats every value of `a`.
pub fn verdict(metric: &Metric, bound: f64, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = match metric.better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    let limit = (bound * a.median.abs()).max(metric.floor);
    let beats = |x: f64, y: f64| match metric.better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    if (a.q3 - a.q1).max(b.q3 - b.q1) > limit {
        let b_beats_all = b.values.iter().all(|&x| a.values.iter().all(|&y| beats(x, y)));
        return if b_beats_all { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&v, 0.999), 999);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn verdicts_apply_bound_spread_and_floor() {
        let rate = end_to_end("mpairs_per_s").unwrap();
        let a = Summary::of(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = Summary::of(&[100.2, 99.8, 100.9, 99.1, 100.0]);
        let slow = Summary::of(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        let fast = Summary::of(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = Summary::of(&[60.0, 140.0, 100.0, 70.0, 130.0]);
        assert_eq!(verdict(rate, 0.1, &a, &same), Verdict::Unchanged);
        assert_eq!(verdict(rate, 0.1, &a, &slow), Verdict::Worse);
        assert_eq!(verdict(rate, 0.1, &a, &fast), Verdict::Improved);
        assert_eq!(verdict(rate, 0.1, &a, &noisy), Verdict::Unresolved);
        let setup = end_to_end("setup_s").unwrap();
        let quick = Summary::of(&[0.010, 0.011, 0.010]);
        let slower = Summary::of(&[0.015, 0.016, 0.015]);
        assert_eq!(verdict(setup, 0.25, &quick, &slower), Verdict::Unchanged, "inside the floor");
    }

    #[test]
    fn trial_round_trips_through_json() {
        let t = Trial {
            workload: "typed-steady".into(),
            attempted: 7,
            failed: 0,
            failures: vec!["x".into()],
            wall_s: 1.5,
            metrics: vec![("mpairs_per_s".into(), 12.25)],
            layers: vec![("os.cpu_util".into(), 1.0)],
        };
        let text = serde_json::to_string(&t.to_json()).unwrap();
        let back = Trial::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, t);
    }
}
