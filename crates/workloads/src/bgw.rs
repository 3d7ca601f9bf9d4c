//! A Billing-Gateway-like CDR workload (§4, §5.2).
//!
//! BGw "collect\[s\] billing information about calls from mobile phones".
//! This module generates synthetic call-data records with the documented
//! allocation profile — dominated by `char[]`/`int[]` buffers of slightly
//! varying lengths, with roughly half of the allocation volume coming from
//! library code the pre-processor cannot touch — and a processing pipeline
//! that executes them against real [`pools::ShadowBuf`]s.

use bytes::{BufMut, Bytes, BytesMut};
use pools::{PoolConfig, ShadowBuf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One synthetic call-data record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cdr {
    /// Raw record bytes as they would arrive from a mobile switching
    /// center.
    pub raw: Bytes,
    /// Caller id.
    pub(crate) caller: u64,
    /// Call duration in seconds.
    pub(crate) duration: u32,
}

/// Deterministic CDR generator.
#[derive(Debug)]
pub struct CdrGenerator {
    rng: StdRng,
    serial: u64,
}

impl CdrGenerator {
    /// A generator with a fixed seed (reproducible workloads).
    pub fn new(seed: u64) -> Self {
        CdrGenerator { rng: StdRng::seed_from_u64(seed), serial: 0 }
    }

    /// Produce the next record. Record sizes wobble around a stable base —
    /// the temporal locality that lets the shadowed realloc keep reusing
    /// its block.
    pub fn next_cdr(&mut self) -> Cdr {
        self.serial += 1;
        let caller = 46_700_000_000 + self.rng.gen_range(0..10_000_000);
        let duration = self.rng.gen_range(1..3600);
        let payload_len = 600 + self.rng.gen_range(0..200usize);

        let mut buf = BytesMut::with_capacity(24 + payload_len);
        buf.put_u64(self.serial);
        buf.put_u64(caller);
        buf.put_u32(duration);
        buf.put_u32(payload_len as u32);
        for i in 0..payload_len {
            buf.put_u8(((self.serial as usize + i) % 251) as u8);
        }
        Cdr { raw: buf.freeze(), caller, duration }
    }
}

/// Per-record processing statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BgwStats {
    pub(crate) processed: u64,
    pub(crate) bytes_in: u64,
    pub(crate) bytes_out: u64,
    /// Buffer allocations served by shadow reuse.
    pub shadow_hits: u64,
    /// Buffer allocations that hit the heap.
    pub shadow_misses: u64,
}

/// A single-threaded CDR processing pipeline with shadowed work buffers —
/// the "amplified" version of the BGw component. With `shadowing` off it
/// allocates fresh buffers per record, like the original code.
#[derive(Debug)]
pub struct BgwPipeline {
    decode_buf: ShadowBuf,
    encode_buf: ShadowBuf,
    shadowing: bool,
    stats: BgwStats,
}

impl BgwPipeline {
    /// A pipeline with shadow buffers under the given pool config.
    pub fn new(shadowing: bool, config: PoolConfig) -> Self {
        BgwPipeline {
            decode_buf: ShadowBuf::with_config(config),
            encode_buf: ShadowBuf::with_config(config),
            shadowing,
            stats: BgwStats::default(),
        }
    }

    /// Process one record: decode into a work buffer, transform, encode
    /// into an output buffer. Returns the encoded length (consumed by the
    /// caller / next stage).
    pub fn process(&mut self, cdr: &Cdr) -> u64 {
        let raw = &cdr.raw;
        let n = raw.len();

        // The decode buffer: `buffer = new char[n]` in the original.
        let mut decode = if self.shadowing { self.decode_buf.acquire(n) } else { vec![0u8; n] };
        decode.copy_from_slice(raw);

        // Transform (parse + normalize).
        let mut checksum = 0u64;
        for b in decode.iter_mut() {
            *b ^= 0x5A;
            checksum = checksum.wrapping_mul(31).wrapping_add(*b as u64);
        }

        // The encode buffer, roughly half the size.
        let out_len = n / 2 + (checksum % 32) as usize;
        let mut encode =
            if self.shadowing { self.encode_buf.acquire(out_len) } else { vec![0u8; out_len] };
        for (i, b) in encode.iter_mut().enumerate() {
            *b = decode[i % n].wrapping_add(i as u8);
        }

        self.stats.processed += 1;
        self.stats.bytes_in += n as u64;
        self.stats.bytes_out += out_len as u64;

        let digest = encode.iter().fold(0u64, |a, &b| a.wrapping_mul(17).wrapping_add(b as u64));

        if self.shadowing {
            self.decode_buf.release(decode);
            self.encode_buf.release(encode);
            self.stats.shadow_hits = self.decode_buf.hits() + self.encode_buf.hits();
            self.stats.shadow_misses = self.decode_buf.misses() + self.encode_buf.misses();
        } else {
            self.stats.shadow_misses += 2;
        }
        digest
    }

    /// Statistics so far.
    pub fn stats(&self) -> BgwStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let mut a = CdrGenerator::new(42);
        let mut b = CdrGenerator::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_cdr(), b.next_cdr());
        }
        let mut c = CdrGenerator::new(43);
        assert_ne!(a.next_cdr(), c.next_cdr());
    }

    #[test]
    fn record_sizes_wobble_within_half_size_window() {
        let mut g = CdrGenerator::new(1);
        let sizes: Vec<usize> = (0..100).map(|_| g.next_cdr().raw.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max <= 2 * min, "sizes {min}..{max} exceed the half-size window");
    }

    #[test]
    fn shadowed_pipeline_produces_same_digests_as_fresh() {
        let mut gen1 = CdrGenerator::new(7);
        let mut gen2 = CdrGenerator::new(7);
        let mut shadowed = BgwPipeline::new(true, PoolConfig::default());
        let mut fresh = BgwPipeline::new(false, PoolConfig::default());
        for _ in 0..200 {
            let c1 = gen1.next_cdr();
            let c2 = gen2.next_cdr();
            assert_eq!(shadowed.process(&c1), fresh.process(&c2));
        }
    }

    #[test]
    fn shadowing_reuses_buffers() {
        let mut gen = CdrGenerator::new(7);
        let mut p = BgwPipeline::new(true, PoolConfig::default());
        for _ in 0..300 {
            let c = gen.next_cdr();
            p.process(&c);
        }
        let s = p.stats();
        assert_eq!(s.processed, 300);
        // 2 buffers per record; after warm-up nearly everything reuses.
        assert!(s.shadow_hits >= 2 * 280, "hits: {s:?}");
        assert!(s.shadow_misses <= 2 * 20, "misses: {s:?}");
    }

    #[test]
    fn unshadowed_pipeline_always_allocates() {
        let mut gen = CdrGenerator::new(7);
        let mut p = BgwPipeline::new(false, PoolConfig::default());
        for _ in 0..50 {
            let c = gen.next_cdr();
            p.process(&c);
        }
        assert_eq!(p.stats().shadow_hits, 0);
        assert_eq!(p.stats().shadow_misses, 100);
    }

    #[test]
    fn max_shadow_cap_limits_reuse() {
        let mut gen = CdrGenerator::new(7);
        let cfg = PoolConfig { max_shadow_bytes: Some(64), ..Default::default() };
        let mut p = BgwPipeline::new(true, cfg);
        for _ in 0..50 {
            let c = gen.next_cdr();
            p.process(&c);
        }
        assert_eq!(p.stats().shadow_hits, 0, "oversized buffers must not be shadowed");
    }
}
