//! Cross-thread free stress for the size-class front-end: producers
//! allocate, a dedicated consumer frees, so every release rides the
//! remote-free queue (the path `run_workload`'s free-where-you-allocate
//! discipline never exercises).
//!
//! Home-shard pinning makes the ledger exact: producers live on shards
//! 0..P, the consumer on the last shard, and the consumer never performs a
//! classed allocation — so no slab is ever stamped with the consumer's
//! shard, every consumer free files into a foreign bucket, and every
//! bucket ships to a remote queue (at a batch boundary or teardown).
//! Producers never free, so nothing else touches the remote ledger.
//!
//! Exact-equality accounting only holds feature-off (with `global-alloc`
//! installed, the test harness's own heap traffic shares the process-wide
//! ledger); installed builds assert the same invariants as lower bounds.
//! The double-hand-out and id-uniqueness checks are exact in every mode.
//!
//! Tests in this binary serialize on one lock: the ledger is process-wide.

use pools::global::{self, CLASS_SHARDS};
use std::alloc::Layout;
use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, OnceLock};

fn ledger_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|e| e.into_inner())
}

const BLOCK_LAYOUT: Layout = match Layout::from_size_align(64, 8) {
    Ok(l) => l,
    Err(_) => panic!("static layout"),
};

/// Producers alloc + stamp + send; the consumer checks, frees remotely,
/// and tracks liveness. Returns (blocks moved, distinct ids seen).
fn producer_consumer_run(producers: usize, per_producer: usize) -> (usize, usize) {
    assert!(producers < CLASS_SHARDS, "need a consumer shard disjoint from producers");
    let (tx, rx) = mpsc::channel::<usize>();
    std::thread::scope(|s| {
        for p in 0..producers {
            let tx = tx.clone();
            s.spawn(move || {
                assert!(global::pin_home_shard(p), "producer {p} must get a cache");
                for i in 0..per_producer {
                    let block = global::raw_alloc(BLOCK_LAYOUT);
                    assert!(!block.is_null());
                    let id = ((p as u64) << 32) | i as u64;
                    unsafe { *(block as *mut u64) = id };
                    tx.send(block as usize).expect("consumer alive");
                }
            });
        }
        drop(tx);
        let consumer = s.spawn(move || {
            // The consumer allocates nothing classed; its cache exists only
            // so `dealloc` sees home != block-shard and goes remote.
            assert!(global::pin_home_shard(CLASS_SHARDS - 1));
            let mut live: HashSet<usize> = HashSet::new();
            let mut ids: HashSet<u64> = HashSet::new();
            let mut freed = 0usize;
            while let Ok(addr) = rx.recv() {
                assert!(
                    live.insert(addr),
                    "block {addr:#x} handed out twice while live (double hand-out)"
                );
                let id = unsafe { *(addr as *const u64) };
                assert!(ids.insert(id), "id {id:#x} seen twice: two owners stamped one block");
                // Free *before* un-tracking: once freed the block may
                // recirculate, but its re-send is a later message, ordered
                // after the remove below on this single consumer thread.
                unsafe { global::raw_dealloc(addr as *mut u8, BLOCK_LAYOUT) };
                live.remove(&addr);
                freed += 1;
            }
            assert!(live.is_empty(), "{} blocks received but never freed", live.len());
            (freed, ids.len())
        });
        consumer.join().expect("consumer panicked")
    })
}

#[test]
fn cross_thread_frees_conserve_blocks_and_reconcile_the_remote_ledger() {
    let _g = ledger_lock();
    let before = global::stats();
    const PRODUCERS: usize = 4;
    const PER: usize = 20_000;
    let (freed, distinct_ids) = producer_consumer_run(PRODUCERS, PER);
    let total = (PRODUCERS * PER) as u64;
    assert_eq!(freed as u64, total);
    assert_eq!(distinct_ids as u64, total);

    // All workers have exited: their plain-field counters are folded, so
    // the snapshot is exact (feature-off) or a floor (installed harness).
    let after = global::stats();
    let allocs = after.class_allocs - before.class_allocs;
    let frees = after.class_frees - before.class_frees;
    let remote = after.remote_frees - before.remote_frees;
    if global::installed() {
        assert!(allocs >= total, "classed allocs {allocs} < {total}");
        assert!(frees >= total, "classed frees {frees} < {total}");
        assert!(remote >= total, "remote frees {remote} < {total}");
    } else {
        // Conservation: every block allocated was freed, exactly once...
        assert_eq!(allocs, total, "alloc count off");
        assert_eq!(frees, total, "free count off");
        // ...and every single free was a remote push (the consumer's home
        // shard never stamps a slab, so each free files into a foreign
        // bucket and ships to the owner's queue at a batch boundary or
        // teardown), reconciling the `remote_frees` counter exactly against
        // the operation count. Producers only allocate, so they never
        // bucket anything; their flushes all land on central stacks.
        assert_eq!(remote, total, "remote_free ledger must equal consumer frees");
    }
    // The queue ledger itself always balances: pushed = drained + pending.
    assert_eq!(
        after.remote_frees,
        after.remote_drained + after.remote_pending,
        "remote queue ledger out of balance"
    );
    // Zero live bytes from this run's classed traffic: allocs == frees
    // above is exactly that statement (blocks live in slabs either way;
    // slab memory is process-lifetime by design).
}

/// Reclaim-under-churn (ISSUE 10): the cross-thread conservation run
/// with an aggressive reclaimer sweeping the whole time. Sweeps drain
/// remote chains and central stacks, retire idle slabs, and hand them
/// back through the quarantine pool — and none of it may invent, lose,
/// or double-hand-out a block, or unbalance the remote ledger (the
/// sweep's drains are counted as `remote_drained` like an owner's).
#[test]
fn slab_retirement_conserves_the_cross_thread_ledger() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    let _g = ledger_lock();
    let before = global::stats();
    let reclaimed_before = pools::reclaim::totals().reclaimed_slabs;
    const PRODUCERS: usize = 3;
    const PER: usize = 15_000;

    let stop = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    let (freed, distinct) = std::thread::scope(|s| {
        let reclaimer = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                pools::reclaim::reclaim_all();
                passes.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        let result = producer_consumer_run(PRODUCERS, PER);
        stop.store(true, Ordering::Relaxed);
        reclaimer.join().expect("reclaimer panicked");
        result
    });
    assert!(passes.load(Ordering::Relaxed) > 0, "the reclaimer never got a pass in");

    let total = (PRODUCERS * PER) as u64;
    assert_eq!(freed as u64, total);
    assert_eq!(distinct as u64, total, "every handed-out block distinct despite recarves");

    let after = global::stats();
    let allocs = after.class_allocs - before.class_allocs;
    let frees = after.class_frees - before.class_frees;
    if global::installed() {
        assert!(allocs >= total);
        assert!(frees >= total);
    } else {
        assert_eq!(allocs, total, "retirement must not invent or lose allocs");
        assert_eq!(frees, total, "retirement must not invent or lose frees");
    }
    assert_eq!(
        after.remote_frees,
        after.remote_drained + after.remote_pending,
        "sweep drains must keep the remote queue ledger balanced"
    );

    // The churn is idle now. A final pass trims whatever the concurrent
    // reclaimer's last lap left behind (it races the stop flag, so it
    // may already have swept the quiesced heap clean); cumulatively the
    // run must have retired at least one slab, and the retirement
    // ledger must reconcile against the stats surface.
    let trim = pools::reclaim::reclaim_all();
    let reclaimed_after = pools::reclaim::totals().reclaimed_slabs;
    assert!(
        reclaimed_after > reclaimed_before,
        "churn retired nothing ({reclaimed_before} -> {reclaimed_after}, final pass {trim:?})"
    );
    let stats = global::stats();
    let totals = pools::reclaim::totals();
    assert_eq!(stats.reclaimed_slabs, totals.reclaimed_slabs);
    assert_eq!(stats.reclaimed_bytes, totals.reclaimed_bytes);
    assert_eq!(stats.reclaimed_bytes, stats.reclaimed_slabs * 64 * 1024);
}

#[test]
fn exited_threads_fold_their_counters_into_the_snapshot() {
    let _g = ledger_lock();
    let before = global::stats();
    std::thread::spawn(|| {
        for _ in 0..500 {
            let p = global::raw_alloc(BLOCK_LAYOUT);
            assert!(!p.is_null());
            unsafe { global::raw_dealloc(p, BLOCK_LAYOUT) };
        }
    })
    .join()
    .unwrap();
    let after = global::stats();
    // The thread is gone; its 500 pairs must be visible from here.
    assert!(after.class_allocs - before.class_allocs >= 500);
    assert!(after.class_frees - before.class_frees >= 500);
    assert!(after.cache_hits > before.cache_hits, "steady-state loop must hit its cache");
}

/// Reclaimed-then-recarved slabs must never double-hand-out a block,
/// even with carve faults armed (ISSUE 10). Each round bursts a slab's
/// worth of short-lived blocks and retires them, so later rounds carve
/// from quarantine-recycled memory; the consumer's live-set insert is
/// the detector — a recarve that forgot to reset a freelist, or a
/// retire that raced a fault-diverted carve, hands one address out
/// twice while it is still live and trips the assert.
#[cfg(feature = "fault-inject")]
#[test]
fn recarved_slabs_never_double_hand_out_under_faults() {
    use pools::fault::{self, FaultConfig};

    let _g = ledger_lock();
    fault::clear();
    fault::reset_counts();
    fault::install(FaultConfig::uniform(0x9F00_11AB, 0.05));

    let recarved_before = pools::reclaim::totals().recarved_slabs;
    for round in 0..6u64 {
        // A burst big enough to carve fresh slabs, freed in full so the
        // sweep can retire them; the next round's carves pull those
        // pages back out of quarantine.
        std::thread::spawn(move || {
            fault::set_thread_ordinal(700 + round);
            let mut blocks = Vec::with_capacity(2_048);
            for _ in 0..2_048 {
                let p = global::raw_alloc(BLOCK_LAYOUT);
                assert!(!p.is_null());
                blocks.push(p as usize);
            }
            for addr in blocks {
                unsafe { global::raw_dealloc(addr as *mut u8, BLOCK_LAYOUT) };
            }
        })
        .join()
        .expect("burst thread panicked");
        pools::reclaim::reclaim_all();
        // Integrity probe on the recycled pages: cross-thread traffic
        // with the double-hand-out / id-uniqueness detectors live.
        let (freed, distinct) = producer_consumer_run(2, 2_000);
        assert_eq!(freed, 4_000);
        assert_eq!(distinct, 4_000);
    }
    fault::clear();

    let recarved_after = pools::reclaim::totals().recarved_slabs;
    assert!(
        recarved_after > recarved_before,
        "the rounds never recycled a retired slab ({recarved_before} -> {recarved_after}); \
         the probe proved nothing"
    );
    let after = global::stats();
    assert_eq!(after.remote_frees, after.remote_drained + after.remote_pending);
}

/// The acceptance bar: remote-free conservation must survive deterministic
/// fault injection. The injected sites live in the *typed* pool ladder
/// (fresh-alloc failures, depot retries, epoch bumps on trim), so a typed
/// `ShardedPool` churns and trims concurrently with the producer/consumer
/// traffic while a uniform fault schedule is armed — epoch bumps and CAS
/// retries must never leak into the engine's ledger, which counts exactly
/// the producers' blocks plus the typed pool's fresh slots, and the typed
/// pool itself must stay balanced under the same schedule.
#[cfg(feature = "fault-inject")]
#[test]
fn epoch_bumps_under_fault_injection_do_not_disturb_conservation() {
    use pools::fault::{self, FaultConfig};
    use pools::ShardedPool;
    use std::sync::atomic::{AtomicBool, Ordering};

    let _g = ledger_lock();
    fault::clear();
    fault::reset_counts();
    fault::install(FaultConfig::uniform(0xC0FF_EE00, 0.05));

    let before = global::stats();
    let stop = AtomicBool::new(false);
    let (freed, distinct, slots) = std::thread::scope(|s| {
        let churn = s.spawn(|| {
            fault::set_thread_ordinal(900);
            let pool: ShardedPool<[u8; 64]> = ShardedPool::new(4);
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let a = pool.acquire(|| [0u8; 64]);
                let b = pool.acquire(|| [1u8; 64]);
                pool.release(a);
                pool.release(b);
                n += 1;
                if n.is_multiple_of(512) {
                    // Bump the trim epoch: the exact window the injected
                    // epoch-bump site races against.
                    pool.trim();
                }
            }
            pool.trim();
            let stats = pool.stats();
            assert_eq!(
                stats.total_allocs(),
                stats.releases(),
                "typed pool unbalanced under faults"
            );
            // Each fresh acquire took one engine block for its slot.
            stats.fresh_allocs()
        });
        let result = producer_consumer_run(3, 4_000);
        stop.store(true, Ordering::Relaxed);
        let slots = churn.join().expect("churn thread panicked");
        (result.0, result.1, slots)
    });
    fault::clear();

    let total = 3 * 4_000;
    assert_eq!(freed, total);
    assert_eq!(distinct, total);
    // The typed pool's slots, freed by its trims and its thread's exit.
    let classed = total as u64 + slots;
    let after = global::stats();
    let allocs = after.class_allocs - before.class_allocs;
    let frees = after.class_frees - before.class_frees;
    // Injected carve failures divert blocks to the System-chunk fallback,
    // which lives *outside* the classed ledger — conservation holds with
    // the fallback gauges added back in (satellite: fallback exclusion).
    let fb_allocs = after.fallback_allocs - before.fallback_allocs;
    let fb_frees = after.fallback_frees - before.fallback_frees;
    assert_eq!(fb_allocs, fb_frees, "every fallback block was freed at quiesce");
    if global::installed() {
        assert!(allocs + fb_allocs >= classed);
        assert!(frees + fb_frees >= classed);
    } else {
        assert_eq!(allocs + fb_allocs, classed);
        assert_eq!(frees + fb_frees, classed);
    }
    assert_eq!(after.remote_frees, after.remote_drained + after.remote_pending);
}
