//! A tiny bounded worker pool for fanning out independent simulator runs.
//!
//! Every experiment in the harness is a grid of pure function calls
//! (`run_tree`/`run_bgw` hold no global state), so the only thing the pool
//! has to guarantee is that results come back *indexed*: slot `i` of the
//! output always holds `f(i)`, no matter which worker computed it or in
//! what order workers finished. That makes the parallel harness
//! byte-identical to the serial one by construction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The default worker count: one per available core.
pub(crate) fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parse `--jobs N` from the process arguments, defaulting to
/// `default_jobs`. Shared by `repro` and the figure/ablation binaries.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == "--jobs" || a == "-j" {
            if let Some(n) = args.get(i + 1).and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    default_jobs()
}

/// Run `f(0..n)` on at most `jobs` worker threads and return the results
/// in index order.
///
/// Work is claimed dynamically (an atomic next-index counter), so uneven
/// job durations do not idle workers, but the output order is fixed:
/// `result[i] == f(i)` regardless of `jobs`. With `jobs <= 1` (or a single
/// item) everything runs inline on the caller's thread.
pub fn run_indexed<R, F>(jobs: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let jobs = jobs.max(1).min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                if !local.is_empty() {
                    done.lock().unwrap().extend(local);
                }
            });
        }
    });
    let mut pairs = done.into_inner().unwrap();
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    #[test]
    fn results_come_back_in_index_order() {
        for jobs in [1, 2, 4, 7] {
            let got = run_indexed(jobs, 25, |i| i * i);
            let want: Vec<usize> = (0..25).map(|i| i * i).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_items_and_oversized_pools_degrade_cleanly() {
        assert!(run_indexed(8, 0, |i| i).is_empty());
        assert_eq!(run_indexed(16, 1, |i| i + 1), vec![1]);
        assert_eq!(run_indexed(0, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn pool_runs_jobs_workers_concurrently() {
        // Each job spins until it has seen all `JOBS` jobs in flight at
        // once (or a generous deadline passes). If the pool were secretly
        // serial the peak would stay at 1 and the assert would fire.
        const JOBS: usize = 4;
        let active = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let saturated = AtomicBool::new(false);
        run_indexed(JOBS, JOBS, |_| {
            let now = active.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while !saturated.load(Ordering::SeqCst) && Instant::now() < deadline {
                if active.load(Ordering::SeqCst) == JOBS {
                    saturated.store(true, Ordering::SeqCst);
                }
                std::thread::yield_now();
            }
            active.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), JOBS, "all workers must overlap");
    }

    #[test]
    fn dynamic_claiming_still_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run_indexed(4, 100, |i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i} run exactly once");
        }
    }
}
