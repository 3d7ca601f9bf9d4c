//! Concurrent consistency checks for the heap-profile gauges: under
//! multi-thread churn with cross-thread frees, *every* snapshot must
//! satisfy `live_bytes <= mapped_bytes` per class (the gauge fold
//! protocol's ordering guarantee, DESIGN.md §9), and at quiesce the
//! gauges must reconcile exactly against an alloc/free ledger kept by
//! the test itself.
//!
//! Exact-equality reconciliation only holds feature-off (with
//! `global-alloc` installed the harness's own heap traffic shares the
//! process-wide counters); installed builds assert the same invariants
//! as floors. The gauges are process-wide, so each test runs in a child
//! process of its own ([`in_own_process`]).

use pools::global;
use pools::heap_profile as hp;
use std::alloc::Layout;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;

/// Set in the child process that runs one test alone.
const CHILD_ENV: &str = "HEAP_PROFILE_STRESS_CHILD";

/// Run test `name` alone in a child process of this binary. With
/// `global-alloc` installed, a sibling test that finishes inside another
/// test's measuring window frees its thread name and handles there and
/// moves that window's live count; in a process of its own the only
/// traffic in the window is the test's own. Returns true in the child,
/// where the caller runs its body; in the parent it asserts the child ran
/// the test and passed, and returns false.
fn in_own_process(name: &str) -> bool {
    if std::env::var_os(CHILD_ENV).is_some() {
        return true;
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", name, "--test-threads=1", "--quiet"])
        .env(CHILD_ENV, "1")
        .output()
        .expect("spawn the child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "{name} failed in its own process:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    false
}

/// Join every producer explicitly. `thread::scope`'s implicit join
/// returns once the closures finish, before the threads' TLS destructors
/// run; with `global-alloc` installed those destructors free blocks after
/// the thread's cache has folded, which lands in a later measurement.
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for h in handles {
        h.join().expect("producer");
    }
}

const BLOCK_LAYOUT: Layout = match Layout::from_size_align(64, 8) {
    Ok(l) => l,
    Err(_) => panic!("static layout"),
};

/// The 64-byte class's index: gauges report per class, the test allocates
/// one layout, so find where its traffic lands.
fn block_class() -> usize {
    pools::size_class::class_for(64, 8).expect("64B is classed")
}

fn class_live_bytes(g: &hp::HeapGauges, class: usize) -> u64 {
    g.classes[class].live_bytes
}

/// Every-snapshot invariant plus quiesce reconciliation, under the same
/// producer/consumer shape as the front-end stress suite: producers
/// allocate, a consumer frees everything cross-thread, and a
/// dedicated observer thread snapshots the gauges as fast as it can the
/// whole time.
#[test]
fn every_snapshot_bounds_live_by_mapped_and_quiesce_reconciles() {
    if !in_own_process("every_snapshot_bounds_live_by_mapped_and_quiesce_reconciles") {
        return;
    }
    let class = block_class();
    let before = hp::gauges();
    let before_stats = global::stats();

    const PRODUCERS: usize = 4;
    const PER: usize = 15_000;

    let stop = AtomicBool::new(false);
    let snapshots_taken = AtomicU64::new(0);
    std::thread::scope(|s| {
        // The observer: concurrent gauge collection against live traffic.
        // Any `live > mapped` observation is a fold-ordering bug.
        let observer = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let g = hp::gauges();
                for c in &g.classes {
                    assert!(
                        c.live_bytes <= c.mapped_bytes,
                        "snapshot violates the bound: class {} live {} > mapped {}",
                        c.class,
                        c.live_bytes,
                        c.mapped_bytes
                    );
                    // Peak is a process-lifetime high-water mark while
                    // retirement can pull mapped back down, so the peak
                    // bound is against *historical* mapped — not
                    // observable here. `peak >= live` still must hold.
                    assert!(
                        c.peak_live_bytes >= c.live_bytes,
                        "peak watermark below current live: class {}",
                        c.class
                    );
                }
                hp::capture_snapshot();
                snapshots_taken.fetch_add(1, Ordering::Relaxed);
            }
        });

        // Start the churn only once the observer has snapshotted: on a
        // loaded host it might otherwise not be scheduled before the churn
        // ends.
        while snapshots_taken.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel::<usize>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let tx = tx.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        let block = global::raw_alloc(BLOCK_LAYOUT);
                        assert!(!block.is_null());
                        tx.send(block as usize).expect("consumer alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let consumer = s.spawn(move || {
            let mut freed = 0usize;
            while let Ok(addr) = rx.recv() {
                unsafe { global::raw_dealloc(addr as *mut u8, BLOCK_LAYOUT) };
                freed += 1;
            }
            freed
        });
        let freed = consumer.join().expect("consumer");
        assert_eq!(freed, PRODUCERS * PER);
        join_all(producers);
        stop.store(true, Ordering::Relaxed);
        observer.join().expect("observer");
    });

    assert!(
        snapshots_taken.load(Ordering::Relaxed) > 0,
        "observer never snapshotted concurrently with the churn"
    );

    // Quiesce: every worker exited (counters folded), every block freed.
    // The gauges must reconcile exactly against the stress ledger.
    let after = hp::gauges();
    let after_stats = global::stats();
    let total = (PRODUCERS * PER) as u64;
    let allocs = after_stats.class_allocs - before_stats.class_allocs;
    let frees = after_stats.class_frees - before_stats.class_frees;
    if global::installed() {
        assert!(allocs >= total);
        assert!(frees >= total);
        // Harness traffic may hold live blocks, but this run's are gone.
        assert!(
            class_live_bytes(&after, class)
                <= class_live_bytes(&before, class) + (allocs - frees) * 64
        );
    } else {
        assert_eq!(allocs, total, "test ledger: allocs");
        assert_eq!(frees, total, "test ledger: frees");
        assert_eq!(
            class_live_bytes(&after, class),
            class_live_bytes(&before, class),
            "live bytes must return to the pre-churn level at quiesce"
        );
    }
    // The run's peak must have registered at least one producer's worth
    // of concurrently-live blocks... conservatively, at least one block.
    assert!(after.classes[class].peak_live_bytes >= 64, "peak watermark never moved");
    assert!(
        after.classes[class].mapped_bytes >= before.classes[class].mapped_bytes,
        "nothing reclaims during this test (it runs in a process of its own), so the \
         mapped gauge cannot shrink mid-test"
    );
}

/// Reclaim-under-churn (ISSUE 10): an aggressive reclaimer loops full
/// sweep passes concurrently with producer/consumer churn and a gauge
/// observer. Every snapshot must still bound live by mapped — the
/// retire-gauge lock protocol makes the mapped decrement atomic with
/// respect to a collector's whole fold — and at quiesce the ledger
/// reconciles exactly (feature-off) even though slabs were retired and
/// recarved mid-run.
#[test]
fn snapshots_hold_while_the_reclaimer_sweeps_the_churn() {
    if !in_own_process("snapshots_hold_while_the_reclaimer_sweeps_the_churn") {
        return;
    }
    const CHURN_LAYOUT: Layout = match Layout::from_size_align(96, 8) {
        Ok(l) => l,
        Err(_) => panic!("static layout"),
    };
    let class = pools::size_class::class_for(96, 8).expect("96B is classed");
    let before_stats = global::stats();
    let reclaimed_before = pools::reclaim::totals().reclaimed_slabs;

    const PRODUCERS: usize = 3;
    const PER: usize = 12_000;
    let stop = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    std::thread::scope(|s| {
        let reclaimer = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pools::reclaim::reclaim_all();
                passes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        let observer = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let g = hp::gauges();
                for c in &g.classes {
                    assert!(
                        c.live_bytes <= c.mapped_bytes,
                        "snapshot under reclaim violates the bound: class {} live {} > mapped {}",
                        c.class,
                        c.live_bytes,
                        c.mapped_bytes
                    );
                }
            }
        });
        // Start the churn only once the reclaimer has swept: on a loaded
        // host it might otherwise not be scheduled before the churn ends.
        while passes.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        let (tx, rx) = mpsc::channel::<usize>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let tx = tx.clone();
                s.spawn(move || {
                    for _ in 0..PER {
                        let block = global::raw_alloc(CHURN_LAYOUT);
                        assert!(!block.is_null());
                        unsafe { std::ptr::write_bytes(block, 0x5A, 96) };
                        tx.send(block as usize).expect("consumer alive");
                    }
                })
            })
            .collect();
        drop(tx);
        let consumer = s.spawn(move || {
            let mut freed = 0usize;
            while let Ok(addr) = rx.recv() {
                unsafe { global::raw_dealloc(addr as *mut u8, CHURN_LAYOUT) };
                freed += 1;
            }
            freed
        });
        let freed = consumer.join().expect("consumer");
        assert_eq!(freed, PRODUCERS * PER);
        join_all(producers);
        stop.store(true, Ordering::Relaxed);
        reclaimer.join().expect("reclaimer");
        observer.join().expect("observer");
    });
    assert!(passes.load(Ordering::Relaxed) > 0, "the reclaimer never got a pass in");

    // Quiesce: exact alloc/free conservation even though the reclaimer
    // retired and recarved slabs in the middle of the churn.
    let after_stats = global::stats();
    let total = (PRODUCERS * PER) as u64;
    let allocs = after_stats.class_allocs - before_stats.class_allocs;
    let frees = after_stats.class_frees - before_stats.class_frees;
    if global::installed() {
        assert!(allocs >= total);
        assert!(frees >= total);
    } else {
        assert_eq!(allocs, total, "retirement must not invent or lose allocs");
        assert_eq!(frees, total, "retirement must not invent or lose frees");
    }

    // A final pass over the now-idle churn trims the class back. The
    // concurrent reclaimer may already have swept the post-quiesce heap
    // clean (its last in-loop pass races the stop flag), so the
    // guarantee is cumulative: across the run plus this trim, at least
    // one slab from the churn was retired.
    let mapped_before_trim = hp::gauges().classes[class].mapped_bytes;
    let trim = pools::reclaim::reclaim_all();
    let reclaimed_after = pools::reclaim::totals().reclaimed_slabs;
    assert!(
        reclaimed_after > reclaimed_before,
        "an idle {}-block churn must leave something to retire \
         ({reclaimed_before} -> {reclaimed_after}, final pass {trim:?})",
        PRODUCERS * PER
    );
    assert!(hp::gauges().classes[class].mapped_bytes <= mapped_before_trim);
}

/// Exact ledger reconciliation with a *held* live set: feature-off, the
/// gauge delta equals the held blocks exactly; installed, it is a floor.
#[test]
fn held_blocks_show_up_in_live_bytes_exactly() {
    if !in_own_process("held_blocks_show_up_in_live_bytes_exactly") {
        return;
    }
    let class = block_class();
    let before = hp::gauges();
    const HELD: usize = 2_048;

    let blocks: Vec<usize> = std::thread::scope(|s| {
        s.spawn(|| {
            (0..HELD)
                .map(|_| {
                    let p = global::raw_alloc(BLOCK_LAYOUT);
                    assert!(!p.is_null());
                    p as usize
                })
                .collect()
        })
        .join()
        .expect("allocator thread")
    });
    // The allocating thread has exited: its counters are folded, so the
    // delta is exact even though the blocks are still live.
    let during = hp::gauges();
    let grew = class_live_bytes(&during, class) - class_live_bytes(&before, class);
    if global::installed() {
        assert!(grew >= (HELD as u64) * 64, "live grew {grew} B for {HELD} held blocks");
    } else {
        assert_eq!(grew, (HELD as u64) * 64, "held blocks must be exactly visible");
    }
    assert!(during.classes[class].live_bytes <= during.classes[class].mapped_bytes);

    for addr in blocks {
        unsafe { global::raw_dealloc(addr as *mut u8, BLOCK_LAYOUT) };
    }
    let after = hp::gauges();
    if !global::installed() {
        assert_eq!(
            class_live_bytes(&after, class),
            class_live_bytes(&before, class),
            "frees must pull live bytes back down exactly"
        );
    }
}

/// Fault-inject interaction (satellite): injected carve failures divert
/// blocks to the System-chunk fallback, which must be *excluded* from
/// slab occupancy (`live_bytes`/`mapped_bytes`) and counted under the
/// `fallback_bytes` gauge instead — and the reconciliation stays exact.
#[cfg(feature = "fault-inject")]
#[test]
fn fallback_blocks_are_excluded_from_slab_occupancy() {
    use pools::fault::{self, FaultConfig};

    if !in_own_process("fallback_blocks_are_excluded_from_slab_occupancy") {
        return;
    }
    let class = block_class();
    fault::clear();
    fault::reset_counts();
    // Half of all slab carves fail: a fresh thread carving dozens of
    // slabs is guaranteed fallback traffic under any seed.
    fault::install(FaultConfig::uniform(0xBAD_CA4E, 0.5));

    let before = hp::gauges();
    let before_stats = global::stats();
    const HELD: usize = 60_000; // ~59 slabs of 64B blocks if none failed

    let blocks: Vec<usize> = std::thread::scope(|s| {
        s.spawn(|| {
            fault::set_thread_ordinal(901);
            (0..HELD)
                .map(|_| {
                    let p = global::raw_alloc(BLOCK_LAYOUT);
                    assert!(!p.is_null(), "carve failure must fall back, not fail");
                    p as usize
                })
                .collect()
        })
        .join()
        .expect("allocator thread")
    });
    fault::clear();

    let during = hp::gauges();
    let during_stats = global::stats();
    let fb_blocks = during_stats.fallback_allocs - before_stats.fallback_allocs;
    assert!(fb_blocks > 0, "0.5 carve-failure rate over ~59 carves must inject");
    assert!(fb_blocks < HELD as u64, "not every alloc can be a fallback");

    // Exclusion: live_bytes grew only by the slab-served blocks; the
    // fallback blocks are on the fallback gauge instead.
    let grew = class_live_bytes(&during, class) - class_live_bytes(&before, class);
    let fb_grew = during.classes[class].fallback_bytes - before.classes[class].fallback_bytes;
    if global::installed() {
        assert!(
            grew >= (HELD as u64 - fb_blocks) * 64,
            "live grew {grew} B for {} slab-served blocks",
            HELD as u64 - fb_blocks
        );
        assert!(fb_grew >= fb_blocks * 64);
    } else {
        assert_eq!(grew, (HELD as u64 - fb_blocks) * 64, "slab live must exclude fallbacks");
        assert_eq!(fb_grew, fb_blocks * 64, "fallback bytes must cover exactly the diverted");
    }
    assert!(during.classes[class].live_bytes <= during.classes[class].mapped_bytes);

    // Frees route by header magic: slab blocks to their slab, fallback
    // blocks back to System — and both gauges return to baseline.
    for addr in blocks {
        unsafe { global::raw_dealloc(addr as *mut u8, BLOCK_LAYOUT) };
    }
    let after = hp::gauges();
    let after_stats = global::stats();
    assert_eq!(
        after_stats.fallback_allocs - before_stats.fallback_allocs,
        after_stats.fallback_frees - before_stats.fallback_frees,
        "every fallback block freed exactly once"
    );
    if !global::installed() {
        assert_eq!(class_live_bytes(&after, class), class_live_bytes(&before, class));
        assert_eq!(
            after.classes[class].fallback_bytes, before.classes[class].fallback_bytes,
            "outstanding fallback bytes must return to baseline"
        );
    }
}
