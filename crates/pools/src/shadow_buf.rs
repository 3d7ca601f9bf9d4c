//! Shadowed data-type arrays: the BGw extension (§5.2).
//!
//! BGw's allocations were dominated by `new char[n]` / `new int[n]` buffers
//! inside pooled parent objects. Amplify rewrites them to
//!
//! ```cpp
//! buffer = realloc(bufferShadow, length);   // allocate
//! bufferShadow = buffer;                    // free
//! ```
//!
//! with a custom `realloc` that (a) reuses the shadow block when the new
//! request is within `[capacity/2, capacity]` — guaranteeing at most 2× the
//! live memory in steady state — and (b) refuses to shadow blocks above a
//! configured maximum, so one huge allocation cannot pin a huge chunk.

use crate::limits::PoolConfig;

/// One shadowed buffer slot — the pair (`buffer`, `bufferShadow`) of a
/// pooled parent object.
#[derive(Debug, Default)]
pub struct ShadowBuf {
    parked: Option<Vec<u8>>,
    config: PoolConfig,
    hits: u64,
    misses: u64,
    dropped: u64,
}

impl ShadowBuf {
    /// An empty slot with default (unbounded, half-size-rule) config.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty slot with explicit limits.
    pub fn with_config(config: PoolConfig) -> Self {
        ShadowBuf { config, ..Default::default() }
    }

    /// The rewritten `buffer = new char[len]` →
    /// `buffer = amplify_realloc(bufferShadow, len)`.
    ///
    /// Returns a zero-length buffer with at least `len` capacity, reusing
    /// the parked block when the reuse rule allows.
    pub fn acquire(&mut self, len: usize) -> Vec<u8> {
        let mut buf = match self.parked.take() {
            Some(parked) if self.config.may_reuse(parked.capacity(), len) => {
                self.hits += 1;
                parked
            }
            Some(parked) => {
                // Reuse rule failed: free the shadow and allocate fresh —
                // the "not reusing unnecessarily large memory blocks" rule.
                drop(parked);
                self.misses += 1;
                Vec::with_capacity(len)
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(len)
            }
        };
        buf.clear();
        buf.resize(len, 0);
        buf
    }

    /// The rewritten `delete[] buffer` → `bufferShadow = buffer`.
    ///
    /// Blocks above `max_shadow_bytes` are freed instead of parked.
    pub fn release(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 {
            // A zero-capacity block owns no allocation and can serve no
            // request better than a fresh `Vec`; parking it would only
            // occupy the shadow slot (and, under the half-size rule, a
            // 0-cap block can serve nothing but another 0-byte request).
            return;
        }
        if self.config.accepts_shadow(buf.capacity()) {
            self.parked = Some(buf);
        } else {
            self.dropped += 1;
        }
    }

    /// True if a block is currently parked.
    #[cfg(test)]
    pub(crate) fn has_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Capacity of the parked block, if any.
    pub fn parked_capacity(&self) -> usize {
        self.parked.as_ref().map(Vec::capacity).unwrap_or(0)
    }

    /// Drop the parked block (trimming).
    pub fn discard(&mut self) {
        self.parked = None;
    }

    /// Requests served by the parked block.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Requests that allocated fresh memory.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Blocks refused parking by the size cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_acquire_allocates_fresh() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(100);
        assert_eq!(b.len(), 100);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.hits(), 0);
    }

    #[test]
    fn release_then_same_size_reuses() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(128);
        let addr = b.as_ptr();
        s.release(b);
        let b2 = s.acquire(128);
        assert_eq!(b2.as_ptr(), addr);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn half_size_rule_boundaries() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(100);
        assert!(b.capacity() >= 100);
        let cap = b.capacity();
        s.release(b);
        // Request exactly half: reused.
        let b2 = s.acquire(cap / 2);
        assert_eq!(s.hits(), 1);
        s.release(b2);
        // Request below half of the parked capacity: fresh allocation.
        let parked = s.parked_capacity();
        let _b3 = s.acquire(parked / 2 - 1);
        assert_eq!(s.hits(), 1);
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn zero_length_request_against_parked_block() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(64);
        s.release(b);
        // A zero-byte request is below half of any parked capacity: the
        // shadow is freed and a fresh empty buffer returned. (No division
        // hazard in the rule — the divisor is the constant 2.)
        let b0 = s.acquire(0);
        assert_eq!(b0.len(), 0);
        assert_eq!(s.hits(), 0);
        assert_eq!(s.misses(), 2);
        assert!(!s.has_parked());
    }

    #[test]
    fn zero_capacity_buffer_is_never_parked() {
        let mut s = ShadowBuf::new();
        let b0 = s.acquire(0);
        assert_eq!(b0.capacity(), 0);
        s.release(b0);
        assert!(!s.has_parked(), "a 0-cap buffer must not occupy the shadow slot");
        assert_eq!(s.dropped(), 0, "nothing was freed by the size cap");
        s.release(Vec::new());
        assert!(!s.has_parked());
    }

    #[test]
    fn capacity_one_block_reuse_window() {
        let mut s = ShadowBuf::new();
        let mut b = s.acquire(1);
        b.shrink_to_fit();
        assert_eq!(b.capacity(), 1);
        s.release(b);
        // Exactly 1 byte reuses the block (ceil(1/2) == 1) ...
        let b1 = s.acquire(1);
        assert_eq!(s.hits(), 1);
        s.release(b1);
        // ... but 0 bytes must not: the parked block is freed instead.
        let _b0 = s.acquire(0);
        assert_eq!(s.hits(), 1);
        assert!(!s.has_parked());
    }

    #[test]
    fn larger_request_than_parked_allocates_fresh() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(64);
        s.release(b);
        let b2 = s.acquire(1024);
        assert_eq!(b2.len(), 1024);
        assert_eq!(s.hits(), 0);
        assert_eq!(s.misses(), 2);
    }

    #[test]
    fn max_shadow_size_prevents_parking() {
        let mut s = ShadowBuf::with_config(PoolConfig {
            max_shadow_bytes: Some(256),
            ..Default::default()
        });
        let big = s.acquire(1024);
        s.release(big);
        assert!(!s.has_parked());
        assert_eq!(s.dropped(), 1);
        let small = s.acquire(128);
        s.release(small);
        assert!(s.has_parked());
    }

    #[test]
    fn reused_buffer_is_zeroed_to_len() {
        let mut s = ShadowBuf::new();
        let mut b = s.acquire(8);
        b.copy_from_slice(&[0xAA; 8]);
        s.release(b);
        let b2 = s.acquire(8);
        assert_eq!(&*b2, &[0u8; 8]);
    }

    #[test]
    fn steady_state_memory_at_most_twice_live() {
        // Repeatedly allocate a shrinking-then-growing series; with the
        // half-size rule the parked capacity never exceeds 2x the request
        // that reused it.
        let mut s = ShadowBuf::new();
        let sizes = [1000usize, 600, 500, 900, 451, 800, 412];
        let mut prev_cap = 0usize;
        for &sz in &sizes {
            let b = s.acquire(sz);
            let cap = b.capacity();
            if prev_cap > 0 && cap == prev_cap {
                // Reuse happened: rule guarantees sz >= cap/2, i.e.
                // cap <= 2*sz.
                assert!(cap <= 2 * sz);
            }
            prev_cap = cap;
            s.release(b);
        }
    }

    #[test]
    fn discard_frees_parked() {
        let mut s = ShadowBuf::new();
        let b = s.acquire(64);
        s.release(b);
        s.discard();
        assert!(!s.has_parked());
        let _ = s.acquire(64);
        assert_eq!(s.hits(), 0);
    }
}
