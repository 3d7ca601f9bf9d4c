//! Concurrent slab carving: four threads carve across several classes at
//! once while reclaim passes between rounds feed retired slabs back, so
//! quarantine recarves race fresh cuts from the shared segment. In
//! `fault-inject` builds a carve-failure schedule interleaves fallback
//! chunks with real slabs. This binary holds a single test: the slab
//! ledger it checks is process-wide.

use pools::fault::{self, FaultConfig};
use pools::global::{self, SLAB_BYTES};
use pools::reclaim;
use pools::size_class::CLASS_BYTES;
use std::alloc::Layout;
use std::collections::HashMap;

const THREADS: usize = 4;
const ROUNDS: usize = 4;
/// Class sizes exactly, so a block's offset in its slab is a multiple of
/// the requested size.
const SIZES: [usize; 4] = [48, 512, 2048, 4096];
/// Slab header bytes: block 0 of every slab (and every fallback chunk)
/// starts here.
const HEADER: usize = 16;

/// Allocate `slabs` slabs' worth of blocks per size on one thread.
fn burst(thread: usize, round: usize, slabs: usize) -> Vec<(usize, usize)> {
    fault::set_thread_ordinal((round * THREADS + thread) as u64);
    let mut held = Vec::new();
    for &size in &SIZES {
        let l = Layout::from_size_align(size, 8).unwrap();
        for _ in 0..slabs * SLAB_BYTES / size {
            let p = global::raw_alloc(l) as usize;
            assert_ne!(p, 0, "carve failed for {size}-byte blocks");
            held.push((p, size));
        }
    }
    held
}

#[test]
fn concurrent_carves_hand_out_distinct_aligned_slabs() {
    assert!(SIZES.iter().all(|s| CLASS_BYTES.contains(s)));
    fault::install(FaultConfig { fail_carve: 0.2, ..FaultConfig::off() });
    for round in 0..ROUNDS {
        // Later rounds need more slabs than the quarantine holds, so
        // recarves and fresh segment cuts interleave.
        let held: Vec<(usize, usize)> = std::thread::scope(|s| {
            let workers: Vec<_> =
                (0..THREADS).map(|t| s.spawn(move || burst(t, round, round + 2))).collect();
            workers.into_iter().flat_map(|w| w.join().unwrap()).collect()
        });
        // Every block sits at a block boundary of a 64 KiB-aligned base,
        // and no base was handed to two carves: each base serves one
        // size, and never more blocks than a slab holds.
        let mut per_base: HashMap<usize, (usize, usize)> = HashMap::new();
        for &(p, size) in &held {
            let base = p & !(SLAB_BYTES - 1);
            let offset = p - base;
            assert!(offset >= HEADER, "block {p:#x} overlaps its slab header");
            assert_eq!((offset - HEADER) % size, 0, "block {p:#x} off a {size}-byte stride");
            let entry = per_base.entry(base).or_insert((size, 0));
            assert_eq!(entry.0, size, "slab {base:#x} carved for two classes");
            entry.1 += 1;
            assert!(
                entry.1 <= (SLAB_BYTES - HEADER) / size,
                "slab {base:#x} handed out more {size}-byte blocks than it holds"
            );
        }
        let mut addrs: Vec<usize> = held.iter().map(|&(p, _)| p).collect();
        addrs.sort_unstable();
        assert!(addrs.windows(2).all(|w| w[0] != w[1]), "a block was handed out twice");
        for &(p, size) in &held {
            let l = Layout::from_size_align(size, 8).unwrap();
            // SAFETY: every held block is live, from `raw_alloc` with this
            // layout, and freed once.
            unsafe { global::raw_dealloc(p as *mut u8, l) };
        }
        reclaim::reclaim_all();
    }
    fault::clear();
    if cfg!(feature = "fault-inject") {
        assert!(fault::injected_counts().fail_carve > 0, "no carve fallback was injected");
    }
    // Every worker has exited and folded its counters: the mapped gauge
    // is exactly the carves (fresh and recarved) minus the retirements.
    let s = global::stats();
    assert!(s.recarved_slabs > 0, "no retired slab was recarved");
    assert_eq!(
        s.slab_bytes / SLAB_BYTES as u64,
        s.slabs_carved - s.reclaimed_slabs,
        "mapped slabs drifted from carves minus retirements: {s:?}"
    );
}
