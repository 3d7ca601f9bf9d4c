//! `--heap-profile` support for the bench bins: turn the allocator's
//! heap-profiling subsystem (`pools::heap_profile`) on around a workload
//! and convert what it collected into the `heap-profile-v1` telemetry
//! section.
//!
//! The profiler itself lives in the allocator; this module is the bench
//! glue — flag parsing, a background sampler thread that captures the
//! occupancy timeline while the workload runs, and the type conversion
//! into `telemetry::report` wire structs.

use pools::heap_profile as hp;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use telemetry::report::{
    HeapClassGauges, HeapProfileSection, HeapSiteSample, HeapTimelinePoint, HEAP_PROFILE_SCHEMA,
};

/// Default 1-in-N allocation-site sample period for `--heap-profile`
/// runs: frequent enough that a smoke run lands samples in every hot
/// class, rare enough to stay inside the +10% profiled-mode envelope.
pub(crate) const DEFAULT_SAMPLE_PERIOD: u32 = 64;

/// How often the sampler thread snapshots the gauges into the timeline.
pub(crate) const DEFAULT_CAPTURE_EVERY: Duration = Duration::from_millis(10);

/// Parse `--heap-profile` from `args`.
pub fn heap_profile_from(args: &[String]) -> bool {
    args.iter().any(|a| a == "--heap-profile")
}

/// A running heap profile: site sampling enabled, a background thread
/// feeding the snapshot ring. [`finish`](Self::finish) stops both and
/// returns the collected section.
pub struct HeapProfiler {
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl HeapProfiler {
    /// Enable sampling at `DEFAULT_SAMPLE_PERIOD` and start capturing
    /// the timeline every `DEFAULT_CAPTURE_EVERY`. Call *before* the
    /// measured workload so per-thread sample sets are deterministic
    /// (threads born after this observe the period from their first
    /// allocation).
    pub fn start() -> Self {
        hp::set_sample_period(DEFAULT_SAMPLE_PERIOD);
        hp::capture_snapshot();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                std::thread::sleep(DEFAULT_CAPTURE_EVERY);
                hp::capture_snapshot();
            }
        });
        HeapProfiler { stop, sampler: Some(sampler) }
    }

    /// Stop sampling, take a final snapshot, and assemble the section.
    pub fn finish(mut self) -> HeapProfileSection {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
        // Sites are scaled by the period at collection time, so collect
        // the section *before* disabling.
        let section = section();
        hp::set_sample_period(0);
        section
    }
}

impl Drop for HeapProfiler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// Capture a final snapshot and convert the profiler's current state
/// (gauges, sampled sites, snapshot ring) into the wire section.
fn section() -> HeapProfileSection {
    hp::capture_snapshot();
    let g = hp::gauges();
    let classes = g
        .classes
        .iter()
        .map(|c| HeapClassGauges {
            class: c.class as u32,
            block_bytes: c.block_bytes as u64,
            mapped_bytes: c.mapped_bytes,
            live_bytes: c.live_bytes,
            peak_live_bytes: c.peak_live_bytes,
            parked_bytes: c.parked_cache_bytes + c.parked_central_bytes,
            fallback_bytes: c.fallback_bytes,
        })
        .collect();
    let sites = hp::site_samples()
        .into_iter()
        .map(|s| HeapSiteSample {
            class: s.class as u32,
            block_bytes: s.block_bytes as u64,
            // The sampler keys by class and thread; the wire keeps the
            // field so reports with caller tags still parse and diff.
            tag: "untagged".to_string(),
            samples: s.samples,
            est_bytes: s.est_bytes,
        })
        .collect();
    let timeline = hp::snapshots()
        .into_iter()
        .map(|s| HeapTimelinePoint {
            seq: s.seq,
            mapped_bytes: s.mapped_bytes,
            live_bytes: s.live_bytes,
        })
        .collect();
    let totals = pools::reclaim::totals();
    HeapProfileSection {
        schema: HEAP_PROFILE_SCHEMA.to_string(),
        sample_period: DEFAULT_SAMPLE_PERIOD as u64,
        classes,
        sites,
        timeline,
        reclaimed_slabs: totals.reclaimed_slabs,
        reclaimed_bytes: totals.reclaimed_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parses() {
        assert!(!heap_profile_from(&strs(&["bin"])));
        assert!(heap_profile_from(&strs(&["bin", "--smoke", "--heap-profile"])));
    }

    #[test]
    fn profiled_run_produces_a_valid_section() {
        let profiler = HeapProfiler::start();
        let mut kept = Vec::new();
        for i in 0..4096usize {
            let mut v: Vec<u8> = Vec::with_capacity(64);
            v.push(i as u8);
            if i % 4 == 0 {
                kept.push(v);
            }
        }
        std::thread::sleep(DEFAULT_CAPTURE_EVERY * 2);
        let section = profiler.finish();
        drop(kept);

        assert_eq!(section.schema, HEAP_PROFILE_SCHEMA);
        assert_eq!(section.sample_period, DEFAULT_SAMPLE_PERIOD as u64);
        assert!(section.timeline.len() >= 2, "sampler thread must have captured");
        for c in &section.classes {
            assert!(c.live_bytes <= c.mapped_bytes, "class {} violates the bound", c.class);
        }
        // Wrap in a report: the section must survive the wire format and
        // the validator regardless of whether the front-end is installed.
        let mut report = telemetry::Report::new("heapprof-test");
        report.heap_profile = Some(section);
        report.validate().expect("section validates");
        let back = telemetry::Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back, report);
    }
}
