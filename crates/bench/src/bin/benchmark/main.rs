//! The end-to-end allocator benchmark: four workloads over the typed pools
//! and the size-class engine, end-to-end metrics with bounds, and a traced
//! run that splits the time by layer. See `README.md` beside this file.
//!
//! ```text
//! benchmark run [--seed S] [--trials N] [--out FILE]
//! benchmark compare A.json B.json [--bounds BENCHMARK.json]
//! benchmark --workload W [--seed S] [--seconds T] [--trace 0|1]
//! ```
//!
//! Every trial runs in a fresh child process of this binary
//! (`benchmark trial --workload W --seed S [--trace-out FILE]`), so each
//! starts from a cold allocator and reports its own peak RSS.

mod host;
mod probe;
mod record;
mod workloads;

use probe::{Layer, NoTrace, Recorder};
use record::{obj, percentile, Metric, Summary, Trial, Verdict, END_TO_END, ERROR_RATE, PER_LAYER};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::{Outcome, Size, Workload};

/// Trials a `--workload` run makes even when `--seconds` is shorter.
const MIN_TRIALS: u64 = 3;

/// Traced trials per workload in `run`; the per-layer table is their median.
const RUN_TRACED: u64 = 3;

fn main() -> ExitCode {
    if pools::global::installed() {
        eprintln!(
            "benchmark: this build installs pools::GlobalPool as the global allocator, so the \
             harness's own allocations would run through the layer under test; build without \
             the `global-alloc` feature"
        );
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("trial") => trial_cmd(&args[1..]),
        _ => workload_cmd(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

// ------------------------------------------------------------ arguments

/// `--flag value` pairs, checked against the flags a command takes.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str]) -> Result<(Flags, Vec<String>), String> {
        let (mut flags, mut positional) = (Vec::new(), Vec::new());
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) if known.contains(&name) => {
                    let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), v.clone()));
                }
                Some(name) => return Err(format!("unknown flag --{name}")),
                None => positional.push(a.clone()),
            }
        }
        Ok((Flags(flags), positional))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{name}: cannot parse `{v}`")),
            None => Ok(default),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

fn workload(flags: &Flags) -> Result<Workload, String> {
    let name = flags.text("workload").ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload `{name}`; expected one of {}", names.join(", "))
    })
}

/// The inputs of trial `k` of a run seeded with `seed`.
fn trial_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(k)
}

fn trace_path(w: Workload) -> PathBuf {
    Path::new("bench-traces").join(format!("trace-{}.json", w.name()))
}

// ---------------------------------------------------------------- trials

/// `trial`: run one trial in this process and print it as one JSON line.
fn trial_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, _) = Flags::parse(args, &["workload", "seed", "trace-out"])?;
    let w = workload(&flags)?;
    let seed = flags.get("seed", 1u64)?;
    // Two vCPUs here deliver between one and two CPUs of compute, as the
    // neighbours allow, and two threads that share blocks run up to twice
    // as fast time-sliced on one CPU as spread over two (no cache-line
    // transfers). One CPU makes every trial the same machine.
    if !host::pin_to_one_cpu() {
        eprintln!("benchmark: could not pin the trial to one CPU; it runs unpinned");
    }
    let trial = measure(w, seed, Size::Full, flags.text("trace-out").map(Path::new))?;
    let line = serde_json::to_string(&trial.to_json()).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

/// Run one trial in this process, traced when `trace_out` names a file
/// for the Chrome trace.
fn measure(w: Workload, seed: u64, size: Size, trace_out: Option<&Path>) -> Result<Trial, String> {
    let Some(path) = trace_out else {
        return Ok(score(w, workloads::run(w, seed, size, &mut NoTrace), None));
    };
    let mut rec = Recorder::new();
    let outcome = workloads::run(w, seed, size, &mut rec);
    rec.write_chrome_trace(path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(score(w, outcome, Some(&rec)))
}

/// Apply the oracles and turn an outcome into the trial's metrics. Any
/// breach fails every request of the trial.
fn score(w: Workload, o: Outcome, trace: Option<&Recorder>) -> Trial {
    let mut failures = o.breaches;
    if o.checksum != o.expected {
        failures.push(format!("checksum {:#x} != reference {:#x}", o.checksum, o.expected));
    }
    let failed = if failures.is_empty() { 0 } else { o.requests };
    let mut lat = o.latencies_ns;
    lat.sort_unstable();
    let wall = o.wall.as_secs_f64();
    let metrics = [
        ("mpairs_per_s", o.pairs as f64 / wall / 1e6),
        ("req_p50_us", percentile(&lat, 0.50) as f64 / 1e3),
        ("req_p99_us", percentile(&lat, 0.99) as f64 / 1e3),
        ("peak_rss_mib", host::usage().max_rss_kib as f64 / 1024.0),
        ("setup_s", o.setup.as_secs_f64()),
        (ERROR_RATE.name, failed as f64 / o.requests.max(1) as f64),
    ];
    let mut layers = o.layers;
    if let Some(rec) = trace {
        layers.extend(trace_layers(rec, &layers, o.wall.as_nanos() as u64));
    }
    let named = |v: &[(&str, f64)]| v.iter().map(|(k, x)| (k.to_string(), *x)).collect();
    Trial {
        workload: w.name().into(),
        attempted: o.requests,
        failed,
        failures,
        wall_s: wall,
        metrics: named(&metrics),
        layers: named(&layers),
    }
}

/// The span-derived layer metrics: mean self time per call, each layer's
/// share of the timed wall time (less the tracing's own cost), and the
/// residual no layer accounts for.
fn trace_layers(
    rec: &Recorder,
    counters: &[(&'static str, f64)],
    wall_ns: u64,
) -> Vec<(&'static str, f64)> {
    let traced_ns = wall_ns.saturating_sub(rec.instrumentation_ns()).max(1);
    let share = |ns: f64| ns / traced_ns as f64;
    let layers = |ls: &[Layer]| share(ls.iter().map(|&l| rec.estimate_ns(l)).sum());
    let mem = layers(&[Layer::MemAlloc, Layer::MemFree]);
    let raw = layers(&[Layer::RawAlloc, Layer::RawFree]);
    let used = layers(&[Layer::Use]);
    let reclaim =
        counters.iter().find(|(k, _)| *k == "pools.reclaim.share").map_or(0.0, |(_, x)| *x);
    let p999 = percentile(&rec.raw_alloc_samples_sorted(), 0.999) as f64;
    vec![
        ("mem_api.alloc_ns", rec.per_call_ns(Layer::MemAlloc)),
        ("mem_api.free_ns", rec.per_call_ns(Layer::MemFree)),
        ("mem_api.share", mem),
        ("pools.global.alloc_ns", rec.per_call_ns(Layer::RawAlloc)),
        ("pools.global.free_ns", rec.per_call_ns(Layer::RawFree)),
        ("pools.global.alloc_p999_ns", p999),
        ("pools.global.share", raw),
        ("workloads.use_ns", rec.per_call_ns(Layer::Use)),
        ("workloads.use_share", used),
        ("trace.timer_ns", rec.timer_ns() as f64),
        ("trace.residual_share", 1.0 - (mem + raw + used + reclaim)),
    ]
}

/// Run one trial in a fresh child process of this binary.
fn spawn_trial(w: Workload, seed: u64, trace_out: Option<&Path>) -> Result<Trial, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["trial", "--workload", w.name(), "--seed", &seed.to_string()]);
    if let Some(p) = trace_out {
        cmd.arg("--trace-out").arg(p);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a {} trial: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("the {} trial (seed {seed}) exited with {}", w.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("a trial printed nothing")?;
    let v: Value = serde_json::from_str(line).map_err(|e| format!("trial output: {e}"))?;
    Trial::from_json(&v)
}

fn summarize<'a>(
    trials: impl IntoIterator<Item = &'a Trial>,
    value: impl Fn(&Trial) -> f64,
) -> Summary {
    Summary::of(&trials.into_iter().map(value).collect::<Vec<_>>())
}

/// `trace.overhead_pct`: the traced trials' median wall time against the
/// untraced ones'.
fn overhead_pct(plain: &[Trial], traced: &[Trial]) -> f64 {
    let wall = |t: &Trial| t.wall_s;
    100.0 * (summarize(traced, wall).median / summarize(plain, wall).median - 1.0)
}

/// Medians of every per-layer metric over the traced trials.
fn layer_medians(plain: &[Trial], traced: &[Trial]) -> Vec<(&'static Metric, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let v = if m.name == "trace.overhead_pct" {
                overhead_pct(plain, traced)
            } else {
                summarize(traced, |t| t.layer(m.name).unwrap_or(0.0)).median
            };
            (m, v)
        })
        .collect()
}

/// Print every oracle breach; returns whether there were none.
fn report_failures<'a>(trials: impl IntoIterator<Item = &'a Trial>) -> bool {
    let mut ok = true;
    for t in trials.into_iter().filter(|t| t.failed > 0) {
        ok = false;
        for f in &t.failures {
            eprintln!("benchmark: {} oracle failed: {f}", t.workload);
        }
    }
    ok
}

// ------------------------------------------------------ one workload

/// `--workload W --seed S --seconds T --trace 0|1`: trials of one workload
/// for about `T` seconds (at least [`MIN_TRIALS`]), then one JSON line of
/// medians: the end-to-end metrics, or with `--trace 1` the per-layer ones
/// (each traced trial paired with an untraced one for the overhead).
fn workload_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["workload", "seed", "seconds", "trace"])?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let w = workload(&flags)?;
    let seed = flags.get("seed", 1u64)?;
    let seconds = Duration::from_secs(flags.get("seconds", 10u64)?);
    let traced_run = match flags.get("trace", 0u8)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    println!("host {}", serde_json::to_string(&host::header()).map_err(|e| e.to_string())?);

    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut k = 0;
    while k < MIN_TRIALS || start.elapsed() < seconds {
        let s = trial_seed(seed, k);
        plain.push(spawn_trial(w, s, None)?);
        if traced_run {
            traced.push(spawn_trial(w, s, Some(&trace_path(w)))?);
        }
        k += 1;
    }
    let all = || plain.iter().chain(&traced);
    let correct = report_failures(all());
    let metrics: Vec<(&Metric, f64)> = if traced_run {
        layer_medians(&plain, &traced)
    } else {
        END_TO_END
            .iter()
            .map(|m| (m, summarize(&plain, |t| t.metric(m.name).unwrap_or(0.0)).median))
            .collect()
    };
    println!("{} trials of {} (seed {seed})", plain.len() + traced.len(), w.name());
    for (m, v) in &metrics {
        println!("  {:<38} {:>14.4} {}", m.name, v, m.unit);
    }
    let result = obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(all().map(|t| t.attempted).sum())),
        ("failed", Value::UInt(all().map(|t| t.failed).sum())),
        (
            "metrics",
            obj(metrics.iter().map(|(m, v)| {
                (m.name, obj([("value", Value::Float(*v)), ("unit", Value::String(m.unit.into()))]))
            })),
        ),
    ]);
    println!("{}", serde_json::to_string(&result).map_err(|e| e.to_string())?);
    Ok(ExitCode::SUCCESS)
}

// ------------------------------------------------------------------ run

/// `run`: `--trials` untraced trials of every workload, rotating through
/// the workloads so a slow spell on a shared host hits all of them, then
/// [`RUN_TRACED`] traced trials each. Prints every metric with its spread,
/// checks every oracle, and writes the record to `--out`.
fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, rest) = Flags::parse(args, &["seed", "trials", "out"])?;
    if let Some(extra) = rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let seed = flags.get("seed", 1u64)?;
    let trials = flags.get("trials", 20u64)?.max(1);
    let header = host::header();
    println!("host {}", serde_json::to_string(&header).map_err(|e| e.to_string())?);

    let n = workloads::ALL.len();
    let mut plain: Vec<Vec<Trial>> = vec![Vec::new(); n];
    for k in 0..trials {
        for j in 0..n {
            let i = (j + k as usize) % n;
            let w = workloads::ALL[i];
            let t = spawn_trial(w, trial_seed(seed, k), None)?;
            eprintln!("  {} trial {}: {:.2} s", w.name(), k + 1, t.wall_s);
            plain[i].push(t);
        }
    }
    let mut traced: Vec<Vec<Trial>> = vec![Vec::new(); n];
    for k in trials..trials + RUN_TRACED {
        for (i, w) in workloads::ALL.into_iter().enumerate() {
            let path = trace_path(w);
            traced[i].push(spawn_trial(w, trial_seed(seed, k), Some(&path))?);
            eprintln!("  {} traced -> {}", w.name(), path.display());
        }
    }

    let tables: Vec<_> = (0..n).map(|i| layer_medians(&plain[i], &traced[i])).collect();
    println!("\nend-to-end (median [q1, q3] over N trials)");
    let mut sections = Vec::with_capacity(n);
    for (i, w) in workloads::ALL.into_iter().enumerate() {
        println!("{}", w.name());
        let mut e2e = Vec::new();
        for m in END_TO_END.iter().chain([&ERROR_RATE]) {
            let s = summarize(&plain[i], |t| t.metric(m.name).unwrap_or(0.0));
            println!(
                "  {:<14} {:>12.4} [{:.4}, {:.4}] N={} {}",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.values.len(),
                m.unit
            );
            e2e.push((m.name, s.to_json(m.unit)));
        }
        sections.push((
            w.name(),
            obj([
                ("attempted", Value::UInt(plain[i].iter().map(|t| t.attempted).sum())),
                ("failed", Value::UInt(plain[i].iter().map(|t| t.failed).sum())),
                ("end_to_end", obj(e2e)),
                ("per_layer", obj(tables[i].iter().map(|(m, v)| (m.name, Value::Float(*v))))),
            ]),
        ));
    }

    println!("\nper layer (median of {RUN_TRACED} traced trials)");
    print!("  {:<38} {:>8}", "metric", "unit");
    for w in workloads::ALL {
        print!(" {:>14}", w.name());
    }
    println!();
    for (row, m) in PER_LAYER.iter().enumerate() {
        print!("  {:<38} {:>8}", m.name, m.unit);
        for table in &tables {
            print!(" {:>14.4}", table[row].1);
        }
        println!();
    }

    let correct = report_failures(plain.iter().chain(&traced).flatten());
    println!("\noracles: {}", if correct { "all passed" } else { "FAILED" });
    if let Some(out) = flags.text("out") {
        let record = obj([
            ("schema", Value::String("benchmark-run-v1".into())),
            ("host", header),
            ("seed", Value::UInt(seed)),
            ("trials", Value::UInt(trials)),
            ("workloads", obj(sections)),
        ]);
        let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())? + "\n";
        std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))?;
        println!("record -> {out}");
    }
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

// -------------------------------------------------------------- compare

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// `compare A B`: one row per (metric, workload) of two `run` records,
/// judged against `BENCHMARK.json`'s bounds. Exits non-zero on any
/// regression, a rise in `error_rate` included.
fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let (flags, files) = Flags::parse(args, &["bounds"])?;
    let [a_path, b_path] = files.as_slice() else {
        return Err("compare takes two run records: compare A.json B.json".into());
    };
    let spec = read_json(flags.text("bounds").unwrap_or("BENCHMARK.json"))?;
    let bound_of = |name: &str| match &spec["end_to_end"] {
        Value::Array(ms) => {
            ms.iter().find(|m| m["name"] == name).and_then(|m| record::num(&m["bound"]))
        }
        _ => None,
    };
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    println!(
        "{:<14} {:<14} {:>12} {:>12} {:>8} {:>7}  verdict",
        "metric", "workload", "A median", "B median", "change", "bound"
    );
    let mut regressed = false;
    for (w, wa) in record::fields(&a["workloads"]) {
        for (name, sa) in record::fields(&wa["end_to_end"]) {
            let Some(metric) = record::end_to_end(name) else { continue };
            let (Some(sa), Some(sb)) = (
                Summary::from_json(sa),
                Summary::from_json(&b["workloads"][w.as_str()]["end_to_end"][name.as_str()]),
            ) else {
                println!("{name:<14} {w:<14} missing from {b_path}");
                regressed = true;
                continue;
            };
            let (bound, v) = if metric.name == ERROR_RATE.name {
                // Any rise in failures is a regression, however noisy.
                let mean = |s: &Summary| s.values.iter().sum::<f64>() / s.values.len() as f64;
                let v = match mean(&sb).total_cmp(&mean(&sa)) {
                    std::cmp::Ordering::Greater => Verdict::Worse,
                    std::cmp::Ordering::Less => Verdict::Improved,
                    std::cmp::Ordering::Equal => Verdict::Unchanged,
                };
                (0.0, v)
            } else {
                let bound = bound_of(name)
                    .ok_or_else(|| format!("BENCHMARK.json has no bound for {name}"))?;
                (bound, record::verdict(metric, bound, &sa, &sb))
            };
            regressed |= v == Verdict::Worse;
            let change = if sa.median == 0.0 { 0.0 } else { 100.0 * (sb.median / sa.median - 1.0) };
            println!(
                "{name:<14} {w:<14} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}%  {}",
                sa.median,
                sb.median,
                change,
                100.0 * bound,
                v.name()
            );
        }
    }
    Ok(if regressed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;
    use record::Better;
    use std::sync::Mutex;

    /// The size-class engine's counters are process-wide, so workloads that
    /// read them must not overlap.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn smoke(w: Workload) -> Option<Outcome> {
        if pools::global::installed() {
            // Every allocation of the test harness would hit the ledgers.
            return None;
        }
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        Some(workloads::run(w, 7, Size::Smoke, &mut NoTrace))
    }

    #[test]
    fn every_workload_passes_its_oracles_at_smoke_size() {
        for w in workloads::ALL {
            let Some(o) = smoke(w) else { return };
            let (requests, pairs) = (o.requests, o.pairs);
            let t = score(w, o, None);
            assert_eq!(t.failed, 0, "{}: {:?}", w.name(), t.failures);
            assert_eq!(t.metric("error_rate"), Some(0.0));
            assert!(requests > 0 && pairs >= requests, "{}", w.name());
            for m in END_TO_END {
                let v = t.metric(m.name).unwrap();
                assert!(v > 0.0 && v.is_finite(), "{} {} = {v}", w.name(), m.name);
            }
        }
    }

    #[test]
    fn a_corrupted_checksum_fails_every_request() {
        let Some(mut o) = smoke(Workload::TypedSteady) else { return };
        o.checksum ^= 1;
        let requests = o.requests;
        let t = score(Workload::TypedSteady, o, None);
        assert_eq!(t.failed, requests);
        assert_eq!(t.metric("error_rate"), Some(1.0));
        assert!(t.failures[0].contains("checksum"), "{:?}", t.failures);
    }

    #[test]
    fn traced_run_reports_every_layer_and_writes_a_trace() {
        if pools::global::installed() {
            return;
        }
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let path =
            std::env::temp_dir().join(format!("benchmark-trace-{}.json", std::process::id()));
        let t = measure(Workload::XthreadHeap, 3, Size::Smoke, Some(&path)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans: Value = serde_json::from_str(&text).unwrap();
        let Value::Array(spans) = spans else { panic!("a trace is a JSON array") };
        assert!(spans.iter().any(|s| s["name"] == "request"));
        assert!(spans.iter().any(|s| s["name"] == "pools.global.raw_alloc"));
        assert_eq!(t.failed, 0, "{:?}", t.failures);
        for name in ["pools.global.alloc_ns", "pools.global.alloc_p999_ns", "pools.global.share"] {
            assert!(t.layer(name).unwrap() > 0.0, "{name}");
        }
        assert!(t.layer("trace.residual_share").unwrap() < 1.0);
        let row = layer_medians(std::slice::from_ref(&t), std::slice::from_ref(&t));
        assert_eq!(row.len(), PER_LAYER.len());
        assert!(row.iter().all(|(_, v)| v.is_finite()));
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        // Built standalone or as the `bench` crate's bin, the repository
        // root is an ancestor of the manifest directory.
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.exists())
            .expect("BENCHMARK.json at the repository root");
        let spec = read_json(path.to_str().unwrap()).unwrap();
        let check = |key: &str, catalog: &[Metric]| {
            let Value::Array(listed) = &spec[key] else { panic!("{key} is a list") };
            assert_eq!(listed.len(), catalog.len(), "{key}");
            for (l, m) in listed.iter().zip(catalog) {
                assert_eq!(l["name"], m.name);
                assert_eq!(l["unit"], m.unit, "{}", m.name);
                let better = if m.better == Better::Higher { "higher" } else { "lower" };
                assert_eq!(l["better"], better, "{}", m.name);
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let Value::Array(ws) = &spec["workloads"] else { panic!("workloads is a list") };
        let names: Vec<_> = workloads::ALL.iter().map(|w| Value::String(w.name().into())).collect();
        assert_eq!(ws.iter().map(|w| w["name"].clone()).collect::<Vec<_>>(), names);
    }
}
