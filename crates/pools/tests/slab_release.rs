//! Coalesced page release covers every slab of a run: a reclaim pass
//! releases retired slabs with one `madvise(MADV_DONTNEED)` per run of
//! address-adjacent slabs, so a run length one short would leave the
//! run's last slab holding its old bytes — and a recarve would hand them
//! out again. This binary holds a single test so no sibling test shares
//! its heap.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use pools::global::{self, SLAB_BYTES};
use pools::reclaim;
use std::alloc::Layout;

const BLOCK: usize = 4096;
/// Slabs of 4 KiB blocks the burst fills (each slab holds 15).
const SLABS: usize = 16;
const BLOCKS: usize = SLABS * 15;

#[test]
fn reclaim_releases_every_slab_of_a_coalesced_run() {
    let l = Layout::from_size_align(BLOCK, 8).unwrap();
    let held: Vec<usize> = (0..BLOCKS).map(|_| global::raw_alloc(l) as usize).collect();
    assert!(held.iter().all(|&p| p != 0));
    for &p in &held {
        // SAFETY: `p` is a live 4 KiB block from `raw_alloc(l)`, freed once.
        unsafe {
            std::ptr::write_bytes(p as *mut u8, 0xAB, BLOCK);
            global::raw_dealloc(p as *mut u8, l);
        }
    }

    let stats = reclaim::reclaim_all();
    assert_eq!(
        stats.advised_slabs, stats.reclaimed_slabs,
        "every retired slab released: {stats:?}"
    );
    assert!(stats.reclaimed_slabs >= 8, "the idle burst must retire its slabs: {stats:?}");
    if global::installed() {
        // The harness and the reclaim pass's own working set then draw
        // 4 KiB blocks too, so a slab of the burst may rightly stay mapped
        // with its bytes; the byte check below needs a private heap.
        return;
    }

    // Nothing else allocates in this class: the second burst is carved
    // entirely from the retired slabs, which must read back as zeros.
    let again: Vec<usize> = (0..BLOCKS).map(|_| global::raw_alloc(l) as usize).collect();
    for &p in &again {
        // Bytes 0..16 may hold the free-list link and a batch stamp.
        // SAFETY: `p` is a live 4 KiB block from `raw_alloc(l)`.
        let body = unsafe { std::slice::from_raw_parts((p as *const u8).add(16), BLOCK - 16) };
        if let Some(i) = body.iter().position(|&b| b != 0) {
            let slab = p & !(SLAB_BYTES - 1);
            panic!("block {p:#x} of recarved slab {slab:#x}: byte {} survived release", i + 16);
        }
        // SAFETY: as above; freed once.
        unsafe { global::raw_dealloc(p as *mut u8, l) };
    }
}
