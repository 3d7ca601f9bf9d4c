//! Pool capacity and shadow-size limits (§5.2 of the paper).
//!
//! The BGw experience taught the authors to bound Amplify's memory
//! overhead in three ways, all represented here:
//!
//! 1. a **maximum number of objects per pool** — excess releases fall back
//!    to the normal allocator;
//! 2. a **maximum size for shadowed memory** — oversized blocks are freed
//!    instead of parked, so one huge allocation cannot pin a huge chunk;
//! 3. the **half-size reuse rule** for shadowed arrays — a parked block is
//!    reused only if the request is not smaller than half the block, which
//!    bounds steady-state consumption to twice the live size.

/// Configuration shared by the pool types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum dead objects kept per free list. A sharded pool keeps
    /// `max_objects × shards` in its shared tier: the depot behind its
    /// magazines (each thread's magazine caches up to its capacity on top),
    /// or `max_objects` per shard free list in direct mode. `None` means
    /// unbounded, the paper's default for the synthetic tests.
    pub max_objects: Option<usize>,
    /// Maximum byte size of a shadowed array block; larger blocks are freed
    /// on release rather than parked.
    pub max_shadow_bytes: Option<usize>,
    /// Reuse a parked array only when `requested >= parked_capacity / 2`
    /// (and `requested <= parked_capacity`). Disabling reuses any
    /// sufficiently large block.
    pub half_size_rule: bool,
    /// Objects carved per fresh slab. `None` derives the historical
    /// `magazine_cap * 2`; either way the value is clamped to what a
    /// 64 KiB slab can hold.
    pub carve_batch: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_objects: None,
            max_shadow_bytes: None,
            half_size_rule: true,
            carve_batch: None,
        }
    }
}

impl PoolConfig {
    /// The BGw configuration: caps on both pool population and shadowed
    /// block size.
    pub fn bgw(max_objects: usize, max_shadow_bytes: usize) -> Self {
        PoolConfig {
            max_objects: Some(max_objects),
            max_shadow_bytes: Some(max_shadow_bytes),
            ..Self::default()
        }
    }

    /// Set the tuning knob the offline tuner searches over besides the
    /// layout: a `carve_batch` of 0 means "derive from the magazine cap"
    /// (the default).
    pub fn with_tuning(mut self, carve_batch: usize) -> Self {
        self.carve_batch = if carve_batch == 0 { None } else { Some(carve_batch) };
        self
    }

    /// True if a pool holding `len` dead objects may accept another.
    pub(crate) fn accepts_object(&self, len: usize) -> bool {
        match self.max_objects {
            Some(max) => len < max,
            None => true,
        }
    }

    /// True if an array block of `capacity` bytes may be parked as shadow
    /// memory.
    pub(crate) fn accepts_shadow(&self, capacity: usize) -> bool {
        match self.max_shadow_bytes {
            Some(max) => capacity <= max,
            None => true,
        }
    }

    /// Decide whether a parked block of `capacity` bytes may serve a
    /// request of `requested` bytes.
    pub(crate) fn may_reuse(&self, capacity: usize, requested: usize) -> bool {
        if requested > capacity {
            return false;
        }
        if self.half_size_rule {
            // Paper: "if the allocated memory is smaller than the shadow
            // memory but not smaller than half the shadow memory, then the
            // shadow memory is reused". Ceiling division keeps the paper's
            // guarantee ("maximum memory consumption is twice the normal")
            // exact for odd capacities.
            requested >= capacity.div_ceil(2)
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unbounded() {
        let c = PoolConfig::default();
        assert!(c.accepts_object(usize::MAX - 1));
        assert!(c.accepts_shadow(usize::MAX));
    }

    #[test]
    fn object_cap() {
        let c = PoolConfig { max_objects: Some(2), ..Default::default() };
        assert!(c.accepts_object(0));
        assert!(c.accepts_object(1));
        assert!(!c.accepts_object(2));
    }

    #[test]
    fn shadow_cap() {
        let c = PoolConfig { max_shadow_bytes: Some(1024), ..Default::default() };
        assert!(c.accepts_shadow(1024));
        assert!(!c.accepts_shadow(1025));
    }

    #[test]
    fn half_size_rule_window() {
        let c = PoolConfig::default();
        assert!(c.may_reuse(100, 100));
        assert!(c.may_reuse(100, 50));
        assert!(!c.may_reuse(100, 49));
        assert!(!c.may_reuse(100, 101));
    }

    #[test]
    fn half_size_rule_disabled() {
        let c = PoolConfig { half_size_rule: false, ..Default::default() };
        assert!(c.may_reuse(100, 1));
        assert!(!c.may_reuse(100, 101));
    }

    #[test]
    fn bgw_preset() {
        let c = PoolConfig::bgw(64, 4096);
        assert_eq!(c.max_objects, Some(64));
        assert_eq!(c.max_shadow_bytes, Some(4096));
        assert!(c.half_size_rule);
        assert_eq!(c.carve_batch, None);
    }

    #[test]
    fn default_tuning_matches_historical_constants() {
        // The historical carve batch is twice the magazine cap.
        let d = crate::magazine::Depot::<u64>::new(4, PoolConfig::default(), 32);
        assert_eq!(d.slab_objects, 64);
        let d = crate::magazine::Depot::<u64>::new(4, PoolConfig::default().with_tuning(0), 32);
        assert_eq!(d.slab_objects, 64, "0 derives the default");
    }

    #[test]
    fn with_tuning_clamps_and_maps_zero_to_default() {
        let c = PoolConfig::default().with_tuning(0);
        assert_eq!(c.carve_batch, None);
        let c = PoolConfig::default().with_tuning(128);
        assert_eq!(c.carve_batch, Some(128));
    }
}
