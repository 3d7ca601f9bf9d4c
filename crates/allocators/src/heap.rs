//! A dlmalloc-style heap core: segregated free lists with boundary-tag
//! coalescing over a growable byte arena.
//!
//! This is the single-threaded engine behind all three baseline allocators
//! (serial / ptmalloc-like / Hoard-like). It is handle-based — blocks are
//! byte offsets into the arena — which keeps the whole implementation in
//! safe Rust while preserving the algorithmic behaviour of a C allocator:
//! size classes, first-fit within a bin, splitting, and immediate
//! bidirectional coalescing.
//!
//! Block layout (all sizes multiples of 8, minimum block 16 bytes):
//!
//! ```text
//! offset h:   size_flags: u32   — block size in bytes incl. header; bit0 = free
//! offset h+4: prev_size:  u32   — size of the physically preceding block (0 = none)
//! offset h+8: payload (used) | next_free/prev_free links (free)
//! ```

/// Sentinel for "no block" in free-list links.
const NIL: u32 = u32::MAX;
/// Header bytes per block.
const HDR: u32 = 8;
/// Minimum block size (header + room for the two free-list links).
const MIN_BLOCK: u32 = 16;
/// Arena growth quantum.
const GROW_CHUNK: u32 = 64 * 1024;
/// Number of exact-fit small bins (16, 24, ..., 256 bytes).
const SMALL_BINS: usize = 31;
/// Total bins: small bins + log2-spaced large bins.
const NUM_BINS: usize = SMALL_BINS + 24;

/// Statistics for one heap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Successful allocations.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Bytes currently handed out (payload bytes).
    pub live_bytes: u64,
    /// Current arena size in bytes.
    pub(crate) arena_bytes: u64,
    /// Times the arena had to grow.
    pub(crate) grows: u64,
}

/// The heap. See module docs for the block layout.
#[derive(Debug)]
pub struct RawHeap {
    mem: Vec<u8>,
    bins: [u32; NUM_BINS],
    stats: HeapStats,
    /// Size of the physically last block; lets `grow` stamp the new
    /// trailing block's `prev_size` without a walk.
    last_block_size: u32,
}

impl Default for RawHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl RawHeap {
    /// An empty heap (no arena until the first allocation).
    pub fn new() -> Self {
        RawHeap {
            mem: Vec::new(),
            bins: [NIL; NUM_BINS],
            stats: HeapStats::default(),
            last_block_size: 0,
        }
    }

    /// A heap with an initial arena of at least `bytes`.
    #[cfg(test)]
    pub(crate) fn with_capacity(bytes: u32) -> Self {
        let mut h = Self::new();
        if bytes > 0 {
            h.grow(bytes);
        }
        h
    }

    // ----- raw u32 access ----------------------------------------------------

    #[inline]
    fn read_u32(&self, off: u32) -> u32 {
        let o = off as usize;
        u32::from_le_bytes(self.mem[o..o + 4].try_into().unwrap())
    }

    #[inline]
    fn write_u32(&mut self, off: u32, v: u32) {
        let o = off as usize;
        self.mem[o..o + 4].copy_from_slice(&v.to_le_bytes());
    }

    // ----- block header accessors ---------------------------------------------

    #[inline]
    fn block_size(&self, h: u32) -> u32 {
        self.read_u32(h) & !1
    }

    #[inline]
    fn is_free(&self, h: u32) -> bool {
        self.read_u32(h) & 1 == 1
    }

    #[inline]
    fn set_header(&mut self, h: u32, size: u32, free: bool) {
        debug_assert_eq!(size % 8, 0);
        self.write_u32(h, size | free as u32);
    }

    #[inline]
    fn prev_size(&self, h: u32) -> u32 {
        self.read_u32(h + 4)
    }

    #[inline]
    fn set_prev_size(&mut self, h: u32, s: u32) {
        self.write_u32(h + 4, s);
    }

    #[inline]
    fn next_block(&self, h: u32) -> Option<u32> {
        let n = h + self.block_size(h);
        if n < self.mem.len() as u32 {
            Some(n)
        } else {
            None
        }
    }

    #[inline]
    fn prev_block(&self, h: u32) -> Option<u32> {
        let ps = self.prev_size(h);
        if ps == 0 {
            None
        } else {
            Some(h - ps)
        }
    }

    // ----- free list management -----------------------------------------------

    fn bin_index(size: u32) -> usize {
        debug_assert!(size >= MIN_BLOCK);
        if size <= 256 {
            ((size - MIN_BLOCK) / 8) as usize
        } else {
            let log = 31 - size.leading_zeros(); // floor(log2(size)), >= 8
            (SMALL_BINS + (log as usize).saturating_sub(8)).min(NUM_BINS - 1)
        }
    }

    fn push_free(&mut self, h: u32) {
        let size = self.block_size(h);
        let bin = Self::bin_index(size);
        let head = self.bins[bin];
        self.write_u32(h + 8, head); // next
        self.write_u32(h + 12, NIL); // prev
        if head != NIL {
            self.write_u32(head + 12, h);
        }
        self.bins[bin] = h;
    }

    fn unlink_free(&mut self, h: u32) {
        let size = self.block_size(h);
        let bin = Self::bin_index(size);
        let next = self.read_u32(h + 8);
        let prev = self.read_u32(h + 12);
        if prev == NIL {
            debug_assert_eq!(self.bins[bin], h);
            self.bins[bin] = next;
        } else {
            self.write_u32(prev + 8, next);
        }
        if next != NIL {
            self.write_u32(next + 12, prev);
        }
    }

    // ----- growth ---------------------------------------------------------------

    /// Extend the arena by at least `need` bytes, creating (and coalescing)
    /// a trailing free block.
    fn grow(&mut self, need: u32) {
        let old_len = self.mem.len() as u32;
        let add = need.max(GROW_CHUNK);
        let add = (add + 7) & !7;
        self.mem.resize((old_len + add) as usize, 0);
        self.stats.arena_bytes = self.mem.len() as u64;
        self.stats.grows += 1;

        // Previous physical block size, for the new block's prev_size.
        let prev_sz = if old_len == 0 {
            0
        } else {
            // Find the last block by walking back via the trailing block's
            // header — we track it instead: the block ending at old_len has
            // its size recorded as the prev_size we stored at creation.
            // We maintain the invariant that the *last* block's size can be
            // recovered from the `last_block_size` field below.
            self.last_block_size
        };
        let h = old_len;
        self.set_header(h, add, true);
        self.set_prev_size(h, prev_sz);
        self.last_block_size = add;
        self.push_free(h);
        // Coalesce with a free predecessor.
        self.coalesce(h);
    }

    // ----- public API -------------------------------------------------------------

    /// Allocate `size` payload bytes; returns the payload offset.
    pub fn alloc(&mut self, size: u32) -> u32 {
        let need = ((size + HDR + 7) & !7).max(MIN_BLOCK);
        loop {
            if let Some(h) = self.find_fit(need) {
                self.unlink_free(h);
                let total = self.block_size(h);
                // Split if the remainder is a viable block.
                if total - need >= MIN_BLOCK {
                    let rem = h + need;
                    let rem_size = total - need;
                    self.set_header(h, need, false);
                    self.set_header(rem, rem_size, true);
                    self.set_prev_size(rem, need);
                    match self.next_block(rem) {
                        Some(n) => self.set_prev_size(n, rem_size),
                        None => self.last_block_size = rem_size,
                    }
                    self.push_free(rem);
                } else {
                    self.set_header(h, total, false);
                }
                self.stats.allocs += 1;
                self.stats.live_bytes += (self.block_size(h) - HDR) as u64;
                return h + HDR;
            }
            self.grow(need);
        }
    }

    fn find_fit(&self, need: u32) -> Option<u32> {
        let start_bin = Self::bin_index(need);
        for bin in start_bin..NUM_BINS {
            let mut h = self.bins[bin];
            // First-fit scan within the bin (small bins are exact-size, so
            // the scan is O(1) there).
            while h != NIL {
                if self.block_size(h) >= need {
                    return Some(h);
                }
                h = self.read_u32(h + 8);
            }
        }
        None
    }

    /// Free the block whose payload starts at `payload_off`.
    ///
    /// # Panics
    /// Panics (in debug builds) on double free.
    pub fn free(&mut self, payload_off: u32) {
        let h = payload_off - HDR;
        debug_assert!(!self.is_free(h), "double free at {payload_off}");
        self.stats.frees += 1;
        self.stats.live_bytes -= (self.block_size(h) - HDR) as u64;
        let size = self.block_size(h);
        self.set_header(h, size, true);
        self.push_free(h);
        self.coalesce(h);
    }

    /// Merge `h` with free physical neighbours; `h` must be free and
    /// linked. Keeps free lists and boundary tags consistent.
    fn coalesce(&mut self, mut h: u32) {
        // Merge forward.
        while let Some(n) = self.next_block(h) {
            if !self.is_free(n) {
                break;
            }
            self.unlink_free(h);
            self.unlink_free(n);
            let merged = self.block_size(h) + self.block_size(n);
            self.set_header(h, merged, true);
            match self.next_block(h) {
                Some(after) => self.set_prev_size(after, merged),
                None => self.last_block_size = merged,
            }
            self.push_free(h);
        }
        // Merge backward.
        while let Some(p) = self.prev_block(h) {
            if !self.is_free(p) {
                break;
            }
            self.unlink_free(p);
            self.unlink_free(h);
            let merged = self.block_size(p) + self.block_size(h);
            self.set_header(p, merged, true);
            match self.next_block(p) {
                Some(after) => self.set_prev_size(after, merged),
                None => self.last_block_size = merged,
            }
            self.push_free(p);
            h = p;
        }
    }

    /// Payload capacity of an allocated block.
    pub fn usable_size(&self, payload_off: u32) -> u32 {
        self.block_size(payload_off - HDR) - HDR
    }

    /// Read payload bytes (for tests and workload verification).
    pub fn payload(&self, payload_off: u32) -> &[u8] {
        let h = payload_off - HDR;
        let end = h + self.block_size(h);
        &self.mem[payload_off as usize..end as usize]
    }

    /// Write into an allocated block's payload.
    pub fn payload_mut(&mut self, payload_off: u32) -> &mut [u8] {
        let h = payload_off - HDR;
        let end = h + self.block_size(h);
        &mut self.mem[payload_off as usize..end as usize]
    }

    /// Heap statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    /// Walk all blocks and verify structural invariants. Test/debug aid;
    /// returns the number of blocks.
    pub fn check_invariants(&self) -> usize {
        if self.mem.is_empty() {
            return 0;
        }
        let mut h = 0u32;
        let mut prev: Option<(u32, u32, bool)> = None; // (off, size, free)
        let mut count = 0;
        let len = self.mem.len() as u32;
        loop {
            let size = self.block_size(h);
            assert!(size >= MIN_BLOCK, "undersized block at {h}");
            assert_eq!(size % 8, 0, "misaligned block at {h}");
            assert!(h + size <= len, "block at {h} overruns arena");
            match prev {
                None => assert_eq!(self.prev_size(h), 0, "first block prev_size"),
                Some((_, psz, pfree)) => {
                    assert_eq!(self.prev_size(h), psz, "boundary tag mismatch at {h}");
                    // No two adjacent free blocks (coalescing invariant).
                    assert!(!(pfree && self.is_free(h)), "uncoalesced free blocks at {h}");
                }
            }
            count += 1;
            prev = Some((h, size, self.is_free(h)));
            if h + size == len {
                assert_eq!(self.last_block_size, size, "last_block_size stale");
                break;
            }
            h += size;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_roundtrip() {
        let mut h = RawHeap::new();
        let a = h.alloc(20);
        let b = h.alloc(20);
        assert_ne!(a, b);
        assert!(h.usable_size(a) >= 20);
        h.free(a);
        h.free(b);
        assert_eq!(h.stats().allocs, 2);
        assert_eq!(h.stats().frees, 2);
        assert_eq!(h.stats().live_bytes, 0);
        h.check_invariants();
    }

    #[test]
    fn freed_block_is_reused() {
        let mut h = RawHeap::new();
        let a = h.alloc(64);
        h.free(a);
        let b = h.alloc(64);
        assert_eq!(a, b);
    }

    #[test]
    fn blocks_do_not_overlap() {
        let mut h = RawHeap::new();
        let mut blocks = Vec::new();
        for i in 0..100u32 {
            let size = 8 + (i % 50) * 4;
            let off = h.alloc(size);
            blocks.push((off, h.usable_size(off)));
        }
        blocks.sort();
        for w in blocks.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlap: {w:?}");
        }
        h.check_invariants();
    }

    #[test]
    fn coalescing_recovers_large_block() {
        let mut h = RawHeap::with_capacity(4096);
        let grows_before = h.stats().grows;
        let a = h.alloc(1000);
        let b = h.alloc(1000);
        let c = h.alloc(1000);
        h.free(a);
        h.free(c);
        h.free(b); // middle last: must merge all three (plus wilderness)
        let big = h.alloc(3000);
        assert_eq!(h.stats().grows, grows_before, "coalescing failed; arena grew");
        h.free(big);
        h.check_invariants();
    }

    #[test]
    fn split_leaves_viable_remainder() {
        let mut h = RawHeap::with_capacity(1024);
        let a = h.alloc(100);
        h.free(a);
        // Allocating smaller out of the freed+coalesced space must split.
        let b = h.alloc(24);
        let c = h.alloc(24);
        assert_ne!(b, c);
        h.check_invariants();
    }

    #[test]
    fn payload_is_writable_and_stable() {
        let mut h = RawHeap::new();
        let a = h.alloc(32);
        h.payload_mut(a)[..4].copy_from_slice(&[1, 2, 3, 4]);
        let _b = h.alloc(32);
        assert_eq!(&h.payload(a)[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn arena_grows_on_demand() {
        let mut h = RawHeap::new();
        let a = h.alloc(GROW_CHUNK * 2);
        assert!(h.usable_size(a) >= GROW_CHUNK * 2);
        assert!(h.stats().arena_bytes >= (GROW_CHUNK * 2) as u64);
        h.check_invariants();
    }

    #[test]
    fn many_random_ops_keep_invariants() {
        // Deterministic pseudo-random alloc/free torture.
        let mut h = RawHeap::new();
        let mut live: Vec<u32> = Vec::new();
        let mut state = 0x12345678u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..5000 {
            if live.is_empty() || rng() % 3 != 0 {
                let size = (rng() % 500 + 1) as u32;
                live.push(h.alloc(size));
            } else {
                let idx = (rng() as usize) % live.len();
                let off = live.swap_remove(idx);
                h.free(off);
            }
        }
        h.check_invariants();
        for off in live {
            h.free(off);
        }
        assert_eq!(h.stats().live_bytes, 0);
        h.check_invariants();
    }

    #[test]
    fn bin_index_monotone() {
        let mut last = 0;
        for size in (MIN_BLOCK..10_000).step_by(8) {
            let b = RawHeap::bin_index(size);
            assert!(b >= last || b >= SMALL_BINS, "bin regressed at {size}");
            last = last.max(b);
            assert!(b < NUM_BINS);
        }
    }

    #[test]
    fn full_free_coalesces_to_single_block() {
        let mut h = RawHeap::with_capacity(8192);
        let offs: Vec<u32> = (0..20).map(|_| h.alloc(100)).collect();
        for &o in offs.iter().rev() {
            h.free(o);
        }
        // Everything free and coalesced: exactly one block spans the arena.
        assert_eq!(h.check_invariants(), 1);
    }
}
