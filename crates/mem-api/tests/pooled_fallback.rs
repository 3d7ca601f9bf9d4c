//! The pool backends' ledger on the fault fallback path: with every fresh
//! allocation failing (`fail_fresh: 1.0`), each alloc degrades to a plain
//! heap structure, and `allocs`, `frees` and `live_bytes` must still come
//! out exact in every layout.
//!
//! Run with the pools' fault injection compiled in:
//!
//! ```text
//! cargo test -p mem-api --features pools/fault-inject --test pooled_fallback
//! ```
//!
//! Without it the schedule cannot be installed and the test checks the
//! same ledger on the ordinary paths. The fault configuration is
//! process-global, which is why this lives in its own test binary.

use mem_api::{MemBackend, PooledBackend, Structured};
use pools::fault::{self, FaultConfig};
use pools::structure_pool::Reusable;
use pools::{PoolConfig, StructurePool};

struct Blob(u64);

impl Reusable for Blob {
    type Params = u64;
    fn fresh(p: &u64) -> Self {
        Blob(*p)
    }
    fn reinit(&mut self, p: &u64) {
        self.0 = *p;
    }
}

impl Structured for Blob {
    fn node_count(_: &u64) -> u32 {
        1
    }
    fn node_size(_: &u64, _: u32) -> u32 {
        24
    }
    fn checksum(&self) -> u64 {
        self.0
    }
}

#[test]
fn fallback_allocations_keep_the_ledger_exact() {
    const N: u64 = 40;
    fault::install(FaultConfig { fail_fresh: 1.0, ..FaultConfig::off() });
    let injecting = fault::is_active();
    let capped = PoolConfig { max_objects: Some(2), ..Default::default() };
    let backends: Vec<PooledBackend<Blob>> = vec![
        PooledBackend::local(),
        PooledBackend::sharded(4),
        PooledBackend::with_magazines(4),
        PooledBackend::from_pool(
            "capped-magazines",
            StructurePool::new_sharded_with_magazines(2, capped, 4),
        ),
    ];
    for backend in &backends {
        let name = backend.name();
        for round in 0..2 {
            let held: Vec<_> = (0..N).map(|i| backend.alloc(&i)).collect();
            let s = backend.stats();
            assert_eq!(s.live_bytes(), N * 24, "{name}: live_bytes while held");
            held.into_iter().for_each(|a| backend.free(a));
            let s = backend.stats();
            let done = (round + 1) * N;
            assert_eq!(s.allocs(), done, "{name}: allocs");
            assert_eq!(s.frees(), done, "{name}: frees");
            assert_eq!(s.live_bytes(), 0, "{name}: live_bytes");
            assert_eq!(s.pool_hits() + s.fresh_allocs(), done, "{name}: hits + fresh");
            if injecting {
                assert_eq!(s.fallback_allocs(), done, "{name}: every alloc falls back");
                assert_eq!(s.pool_hits(), 0, "{name}: a fallback skips every cache");
            }
        }
    }
    fault::clear();
}
