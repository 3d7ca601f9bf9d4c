//! The slab-retirement footprint envelope: a burst/quiesce churn through
//! the raw size-class engine, run once without reclaim and once with
//! [`reclaim::reclaim_all`] in every quiet phase, compared on the
//! engine's own mapped-bytes gauge (`madvise(MADV_DONTNEED)` moves it at
//! once, while kernel RSS accounting is lazy).
//!
//! Each phase stands for an hour of diurnal traffic: worker threads
//! allocate a burst of 32 B–4 KiB blocks, hand them to the main thread,
//! which frees all but a contiguous survivor run per worker, so most
//! frees land on another thread than the one that allocated. The
//! survivors live one phase and pin a few slabs across the quiet period.
//!
//! * without reclaim the mapped set ratchets to the peak and stays
//!   there: the peak-to-trough ratio stays under the 2× floor;
//! * with reclaim the trough falls to the survivors' slabs: the ratio
//!   reaches at least 2×;
//! * both runs allocate the same deterministic byte stream (equal
//!   checksums), so reclaim never perturbs the traffic.
//!
//! The gauges are process-wide, so this binary holds a single test.

use pools::global;
use pools::heap_profile;
use pools::reclaim;
use std::alloc::Layout;

/// Burst/quiesce cycles.
const PHASES: usize = 6;
/// Worker threads per burst.
const THREADS: usize = 4;
/// Blocks each worker allocates per burst.
const ALLOCS_PER_THREAD: usize = 2048;
/// Out of 256: the blocks per worker that survive one quiet phase.
const SURVIVORS_PER_256: usize = 12;
const SEED: u64 = 0x9F00_11AB;
/// Block sizes the bursts cycle through, skewed small like real services.
const SIZES: [usize; 6] = [32, 64, 96, 256, 1024, 4096];
/// The reclamation floor: the reclaimed trough sits at least this far
/// under the peak, the unreclaimed one does not.
const MIN_RATIO: f64 = 2.0;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A block from `raw_alloc`, freed on drop on whichever thread drops it.
struct Block {
    ptr: *mut u8,
    layout: Layout,
}

// SAFETY: the block is owned exclusively; `raw_dealloc` accepts frees
// from any thread.
unsafe impl Send for Block {}

impl Block {
    fn new(size: usize, first: u8) -> Block {
        let layout = Layout::from_size_align(size, 8).unwrap();
        let ptr = global::raw_alloc(layout);
        assert!(!ptr.is_null(), "raw_alloc({size}) failed");
        // SAFETY: `ptr` is a live block of `size` bytes.
        unsafe {
            std::ptr::write_bytes(ptr, 0, size);
            *ptr = first;
        }
        Block { ptr, layout }
    }

    fn first(&self) -> u8 {
        // SAFETY: the block is live and initialized.
        unsafe { *self.ptr }
    }
}

impl Drop for Block {
    fn drop(&mut self) {
        // SAFETY: `ptr` came from `raw_alloc(layout)` and is freed once.
        unsafe { global::raw_dealloc(self.ptr, self.layout) };
    }
}

/// What one churn run measured.
struct Envelope {
    /// Fold of every block's first byte and size.
    checksum: u64,
    /// Largest mapped bytes right after a burst.
    peak: u64,
    /// Smallest mapped bytes after a quiesce, phase 0 (warmup) excluded.
    trough: u64,
}

impl Envelope {
    fn ratio(&self) -> f64 {
        self.peak as f64 / self.trough.max(1) as f64
    }
}

fn mapped_now() -> u64 {
    heap_profile::gauges().total_mapped_bytes()
}

/// Run the churn, calling `quiet()` in each quiet phase after the burst
/// has died down to its survivors.
fn churn(mut quiet: impl FnMut()) -> Envelope {
    let mut checksum = 0u64;
    let mut peak = 0u64;
    let mut trough = u64::MAX;
    let mut residue: Vec<Vec<Block>> = Vec::new();
    for phase in 0..PHASES {
        // Explicit joins: each worker has exited (and its cache folded)
        // before the phase's peak is read.
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut rng = SEED.wrapping_add((phase as u64) << 32).wrapping_add(t as u64);
                    let mut sum = 0u64;
                    let blocks: Vec<Block> = (0..ALLOCS_PER_THREAD)
                        .map(|i| {
                            let size = SIZES[(splitmix(&mut rng) % SIZES.len() as u64) as usize];
                            let b = Block::new(size, (i as u8).wrapping_add(t as u8));
                            sum = sum.wrapping_add(b.first() as u64).wrapping_add(size as u64);
                            b
                        })
                        .collect();
                    (blocks, sum)
                })
            })
            .collect();
        let mut kept = Vec::with_capacity(THREADS);
        for w in workers {
            let (blocks, sum) = w.join().expect("churn worker");
            checksum = checksum.wrapping_add(sum);
            kept.push(blocks);
        }
        peak = peak.max(mapped_now());

        // Quiesce: last phase's survivors die first, then all but a
        // contiguous run of each worker's blocks (consecutive blocks
        // share slabs, so the survivors pin few of them).
        residue.clear();
        for mut blocks in kept {
            blocks.truncate(blocks.len() * SURVIVORS_PER_256 / 256);
            residue.push(blocks);
        }
        quiet();
        if phase > 0 {
            trough = trough.min(mapped_now());
        }
    }
    Envelope { checksum, peak, trough }
}

#[test]
fn reclaim_pulls_the_mapped_trough_at_least_2x_under_the_peak() {
    let baseline = churn(|| {});
    eprintln!(
        "without reclaim: peak {} trough {} ratio {:.2}x",
        baseline.peak,
        baseline.trough,
        baseline.ratio()
    );
    // Start the reclaimed run from a clean floor, not from the
    // baseline's idle slabs.
    reclaim::reclaim_all();

    let reclaimed = churn(|| {
        reclaim::reclaim_all();
    });
    eprintln!(
        "with reclaim: peak {} trough {} ratio {:.2}x",
        reclaimed.peak,
        reclaimed.trough,
        reclaimed.ratio()
    );

    assert_eq!(baseline.checksum, reclaimed.checksum, "the two runs' traffic diverged");
    assert!(
        baseline.ratio() < MIN_RATIO,
        "without reclaim the mapped set must ratchet to the peak: {:.2}x",
        baseline.ratio()
    );
    assert!(
        reclaimed.ratio() >= MIN_RATIO,
        "reclaim must pull the trough {MIN_RATIO}x under the peak: {:.2}x",
        reclaimed.ratio()
    );
}
