//! Reclaim leaves no page of a quarantined slab resident: retired slabs
//! wait for recarving in a side table, so nothing writes into their pages
//! between the pass's `madvise(MADV_DONTNEED)` and the recarve. Residency
//! is read with a raw `mincore` (no libc in the dependency tree). This
//! binary holds a single test so no sibling test shares its heap.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use pools::global::{self, SLAB_BYTES};
use pools::reclaim;
use std::alloc::Layout;
use std::collections::BTreeSet;

const BLOCK: usize = 4096;
const PAGE: usize = 4096;
/// Slabs of 4 KiB blocks the burst fills (each slab holds 15).
const SLABS: usize = 64;
const BLOCKS: usize = SLABS * 15;

/// Resident pages among the slab at `base`, by `mincore` (syscall 27).
fn resident_pages(base: usize) -> usize {
    const SYS_MINCORE: usize = 27;
    let mut vec = [0u8; SLAB_BYTES / PAGE];
    let ret: isize;
    // SAFETY: `base` is page-aligned, the range lies in a mapping the
    // allocator owns, and `vec` has one byte per page of it; the syscall
    // clobbers only rcx/r11 beyond its return register.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MINCORE => ret,
            in("rdi") base,
            in("rsi") SLAB_BYTES,
            in("rdx") vec.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "mincore failed on slab {base:#x}");
    vec.iter().filter(|&&b| b & 1 != 0).count()
}

#[test]
fn reclaim_leaves_no_page_of_a_retired_slab_resident() {
    let l = Layout::from_size_align(BLOCK, 8).unwrap();
    let held: Vec<usize> = (0..BLOCKS).map(|_| global::raw_alloc(l) as usize).collect();
    assert!(held.iter().all(|&p| p != 0));
    let slabs: BTreeSet<usize> = held.iter().map(|&p| p & !(SLAB_BYTES - 1)).collect();
    for &p in &held {
        // SAFETY: `p` is a live 4 KiB block from `raw_alloc(l)`, freed once.
        unsafe {
            std::ptr::write_bytes(p as *mut u8, 0xAB, BLOCK);
            global::raw_dealloc(p as *mut u8, l);
        }
    }
    let stats = reclaim::reclaim_all();
    assert!(stats.reclaimed_slabs >= SLABS as u64 / 2, "the idle burst retires: {stats:?}");
    assert_eq!(stats.advised_slabs, stats.reclaimed_slabs, "every retired slab released");
    if global::installed() {
        // The harness then draws 4 KiB blocks too and may recarve a
        // retired slab of the burst; the exact count needs a private heap.
        return;
    }
    let released = slabs.iter().filter(|&&base| resident_pages(base) == 0).count();
    assert_eq!(
        released as u64,
        stats.reclaimed_slabs,
        "every retired slab of the burst has no resident page (of {} slabs)",
        slabs.len()
    );
}
