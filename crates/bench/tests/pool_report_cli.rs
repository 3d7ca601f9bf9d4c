//! End-to-end checks for the `pool_report` binary: render a report with
//! a heap-profile section, render and diff the offline tuner's
//! `pool-tune-v1` section, and diff two fixture reports.

use std::path::PathBuf;
use std::process::Command;
use telemetry::report::{
    EventCount, FamilyTuning, GenerationEntry, HeapClassGauges, HeapProfileSection, HeapSiteSample,
    HeapTimelinePoint, PoolSnapshot, PoolTuneSection, TunedGenome, HEAP_PROFILE_SCHEMA,
    POOL_TUNE_SCHEMA,
};
use telemetry::Report;

fn fixture_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pool_report_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("fixture dir");
    dir
}

fn base_report() -> Report {
    let mut r = Report::new("fixture");
    r.pools.push(PoolSnapshot {
        name: "trees".into(),
        parked: 4,
        pool_hits: 100,
        fresh_allocs: 10,
        releases: 105,
        dropped: 0,
        failed_locks: 1,
        lock_acquisitions: 109,
    });
    r.events.push(EventCount { kind: "acquire_hit".into(), count: 100 });
    r
}

fn heap_section() -> HeapProfileSection {
    HeapProfileSection {
        schema: HEAP_PROFILE_SCHEMA.into(),
        sample_period: 64,
        classes: vec![HeapClassGauges {
            class: 3,
            block_bytes: 64,
            mapped_bytes: 131072,
            live_bytes: 64000,
            peak_live_bytes: 70016,
            parked_bytes: 1280,
            fallback_bytes: 0,
        }],
        sites: vec![HeapSiteSample {
            class: 3,
            block_bytes: 64,
            tag: "fixture-site".into(),
            samples: 11,
            est_bytes: 11 * 64 * 64,
        }],
        timeline: vec![
            HeapTimelinePoint { seq: 1, mapped_bytes: 65536, live_bytes: 3200 },
            HeapTimelinePoint { seq: 2, mapped_bytes: 131072, live_bytes: 64000 },
        ],
        reclaimed_slabs: 2,
        reclaimed_bytes: 2 * 65536,
    }
}

fn tune_section() -> PoolTuneSection {
    let baseline = TunedGenome { magazine_cap: 32, shards: 4 };
    let winner = TunedGenome { magazine_cap: 128, ..baseline };
    PoolTuneSection {
        schema: POOL_TUNE_SCHEMA.into(),
        seed: 42,
        population: 16,
        families: vec![
            FamilyTuning {
                family: "tree/d1".into(),
                default_fitness: 9000,
                tuned_fitness: 9000,
                winner: baseline,
                generations: Vec::new(),
            },
            FamilyTuning {
                family: "tree/d5".into(),
                default_fitness: 20000,
                tuned_fitness: 12000,
                winner,
                generations: vec![
                    GenerationEntry {
                        generation: 0,
                        best_fitness: 20000,
                        median_fitness: 31000,
                        best: baseline,
                    },
                    GenerationEntry {
                        generation: 1,
                        best_fitness: 12000,
                        median_fitness: 18500,
                        best: winner,
                    },
                ],
            },
        ],
    }
}

#[test]
fn renders_a_report_with_a_heap_profile() {
    let dir = fixture_dir("render");
    let mut r = base_report();
    r.heap_profile = Some(heap_section());
    let path = dir.join("report.json");
    std::fs::write(&path, r.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .arg(&path)
        .output()
        .expect("run pool_report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("heap profile (heap-profile-v1"), "{stdout}");
    assert!(stdout.contains("fixture-site"), "{stdout}");
    assert!(stdout.contains("live over time"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_mode_prints_per_counter_deltas() {
    let dir = fixture_dir("diff");
    let old = {
        let mut r = base_report();
        r.heap_profile = Some(heap_section());
        r
    };
    let new = {
        let mut r = old.clone();
        r.pools[0].pool_hits = 150;
        r.events[0].count = 160;
        let hp = r.heap_profile.as_mut().unwrap();
        hp.classes[0].live_bytes = 32000;
        r
    };
    let old_path = dir.join("old.json");
    let new_path = dir.join("new.json");
    std::fs::write(&old_path, old.to_json()).unwrap();
    std::fs::write(&new_path, new.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .args(["--diff"])
        .args([&old_path, &new_path])
        .output()
        .expect("run pool_report --diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("hits +50"), "{stdout}");
    assert!(stdout.contains("acquire_hit"), "{stdout}");
    assert!(stdout.contains("+60"), "{stdout}");
    assert!(stdout.contains("class 3"), "{stdout}");
    assert!(stdout.contains("live -32000"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_mode_announces_one_sided_heap_profiles() {
    // A heap-profile section present on exactly one side is itself a
    // change: the diff must announce it (both directions), not panic or
    // stay silent.
    let dir = fixture_dir("one_sided_hp");
    let bare = base_report();
    let profiled = {
        let mut r = base_report();
        r.heap_profile = Some(heap_section());
        r
    };
    let bare_path = dir.join("bare.json");
    let profiled_path = dir.join("profiled.json");
    std::fs::write(&bare_path, bare.to_json()).unwrap();
    std::fs::write(&profiled_path, profiled.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .args(["--diff"])
        .args([&bare_path, &profiled_path])
        .output()
        .expect("run pool_report --diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("heap profile: (new in new report)"), "{stdout}");
    assert!(stdout.contains("class 3"), "gauges still diff against zero: {stdout}");
    assert!(stdout.contains("reclaimed +2 slabs"), "{stdout}");

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .args(["--diff"])
        .args([&profiled_path, &bare_path])
        .output()
        .expect("run pool_report --diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("heap profile: (dropped in new report)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn renders_the_tuner_generation_log() {
    let dir = fixture_dir("tune_render");
    let mut r = base_report();
    r.pool_tune = Some(tune_section());
    let path = dir.join("report.json");
    std::fs::write(&path, r.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .arg(&path)
        .output()
        .expect("run pool_report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("pool tuning (pool-tune-v1, seed 42, population 16)"), "{stdout}");
    assert!(stdout.contains("winning genomes (1/2 families improved)"), "{stdout}");
    assert!(stdout.contains("generation log tree/d5"), "{stdout}");
    assert!(stdout.contains("best 12000"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_mode_reports_pool_tune_fitness_deltas() {
    let dir = fixture_dir("tune_diff");
    let old = {
        let mut r = base_report();
        r.pool_tune = Some(tune_section());
        r
    };
    let new = {
        let mut r = old.clone();
        let pt = r.pool_tune.as_mut().unwrap();
        // tree/d5 regresses; tree/d1 is dropped; bgw/cdr appears.
        pt.families[1].tuned_fitness = 15000;
        pt.families[1].generations.clear();
        let mut fresh = pt.families[1].clone();
        fresh.family = "bgw/cdr".into();
        pt.families.remove(0);
        pt.families.push(fresh);
        r
    };
    let old_path = dir.join("old.json");
    let new_path = dir.join("new.json");
    std::fs::write(&old_path, old.to_json()).unwrap();
    std::fs::write(&new_path, new.to_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .args(["--diff"])
        .args([&old_path, &new_path])
        .output()
        .expect("run pool_report --diff");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("pool tuning:"), "{stdout}");
    assert!(stdout.contains("tuned +3000"), "{stdout}");
    assert!(stdout.contains("(new)"), "{stdout}");
    assert!(stdout.contains("(gone)"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn diff_mode_rejects_missing_operands() {
    let out = Command::new(env!("CARGO_BIN_EXE_pool_report"))
        .args(["--diff", "only-one.json"])
        .output()
        .expect("run pool_report --diff");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"), "usage hint expected");
}
