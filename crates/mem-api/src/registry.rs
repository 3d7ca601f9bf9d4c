//! The string-keyed backend registry: the paper's strategy names resolved
//! to live backends, shared by `workloads`, `bench` and (via [`sim_name`])
//! the simulator's `ModelKind` vocabulary.

use crate::backend::{MemBackend, Structured};
use crate::global::GlobalBackend;
use crate::handmade::HandmadeBackend;
use crate::malloc::MallocBackend;
use crate::pooled::PooledBackend;
use allocators::{HoardAllocator, PtmallocAllocator, SerialAllocator};
use std::sync::Arc;

/// Shards/arenas/CPU-heaps the standard registrations use — the paper's
/// 8-CPU Sun Enterprise 4000 (§4).
pub(crate) const STANDARD_WAYS: usize = 8;

/// Every name [`BackendRegistry::standard`] registers, in table order:
/// the five-way comparison with Amplify split into its three layouts,
/// plus the native size-class front-end (`"global"`).
pub const STANDARD_BACKENDS: [&str; 8] = [
    "solaris-default",
    "ptmalloc",
    "hoard",
    "global",
    "amplify-local",
    "amplify-sharded",
    "amplify",
    "handmade",
];

/// Map a registry backend name onto the simulator's `ModelKind` name (the
/// string `smp_sim::ModelKind::name()` returns), so native rows and
/// simulated rows line up in joint reports. The three Amplify layouts are
/// the same simulated strategy; the size-class front-end simulates as
/// Hoard, whose shape (per-CPU heaps, size classes, cross-thread returns)
/// it implements natively.
pub fn sim_name(backend: &str) -> &str {
    match backend {
        "amplify-local" | "amplify-sharded" | "amplify" => "amplify",
        "global" => "hoard",
        other => other,
    }
}

type Factory<T> = Box<dyn Fn() -> Arc<dyn MemBackend<T>> + Send + Sync>;

/// Named factories for [`MemBackend`]s over one structure type. Factories
/// (not instances) because a fresh backend per run is what experiments
/// need — warm pools would leak state across matrix cells.
pub struct BackendRegistry<T: Structured> {
    entries: Vec<(String, Factory<T>)>,
}

impl<T: Structured> Default for BackendRegistry<T>
where
    T::Params: Sync,
{
    fn default() -> Self {
        Self::standard()
    }
}

impl<T: Structured> BackendRegistry<T> {
    /// An empty registry.
    pub(crate) fn new() -> Self {
        BackendRegistry { entries: Vec::new() }
    }

    /// The full comparison set under the paper's names
    /// ([`STANDARD_BACKENDS`]).
    pub fn standard() -> Self
    where
        T::Params: Sync,
    {
        let mut r = Self::new();
        r.register("solaris-default", || {
            Arc::new(MallocBackend::named("solaris-default", Arc::new(SerialAllocator::new())))
        });
        r.register("ptmalloc", || {
            Arc::new(MallocBackend::new(Arc::new(PtmallocAllocator::new(STANDARD_WAYS))))
        });
        r.register("hoard", || {
            Arc::new(MallocBackend::new(Arc::new(HoardAllocator::new(STANDARD_WAYS))))
        });
        r.register("global", || Arc::new(GlobalBackend::new()));
        r.register("amplify-local", || Arc::new(PooledBackend::local()));
        r.register("amplify-sharded", || Arc::new(PooledBackend::sharded(STANDARD_WAYS)));
        r.register("amplify", || Arc::new(PooledBackend::with_magazines(STANDARD_WAYS)));
        r.register("handmade", || Arc::new(HandmadeBackend::new()));
        r
    }

    /// Register (or override) a backend factory under `name`. Later
    /// registrations win, so experiments can shadow a standard entry.
    pub(crate) fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Arc<dyn MemBackend<T>> + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, Box::new(factory)));
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Build a fresh backend by name.
    pub fn build(&self, name: &str) -> Option<Arc<dyn MemBackend<T>>> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, f)| f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pools::structure_pool::Reusable;

    struct Blob(u32);
    impl Reusable for Blob {
        type Params = u32;
        fn fresh(p: &u32) -> Self {
            Blob(*p)
        }
        fn reinit(&mut self, p: &u32) {
            self.0 = *p;
        }
    }
    impl Structured for Blob {
        fn node_count(_: &u32) -> u32 {
            1
        }
        fn node_size(p: &u32, _: u32) -> u32 {
            *p
        }
        fn checksum(&self) -> u64 {
            self.0 as u64
        }
    }

    #[test]
    fn standard_registry_builds_every_name() {
        let r: BackendRegistry<Blob> = BackendRegistry::standard();
        assert_eq!(r.names(), STANDARD_BACKENDS.to_vec());
        for name in STANDARD_BACKENDS {
            let b = r.build(name).expect(name);
            assert_eq!(b.name(), name, "display name matches registry key");
            let a = b.alloc(&24);
            assert_eq!(a.checksum(), 24);
            b.free(a);
            let s = b.stats();
            assert_eq!(s.allocs(), 1, "{name}");
            assert_eq!(s.frees(), 1, "{name}");
            assert_eq!(s.live_bytes(), 0, "{name}");
        }
        assert!(r.build("smartheap").is_none(), "unknown names resolve to None");
    }

    #[test]
    fn factories_build_fresh_backends() {
        let r: BackendRegistry<Blob> = BackendRegistry::standard();
        let a = r.build("amplify").unwrap();
        let x = a.alloc(&8);
        a.free(x);
        let b = r.build("amplify").unwrap();
        assert_eq!(b.stats().allocs(), 0, "no state leaks between builds");
    }

    #[test]
    fn registration_overrides_and_orders() {
        let mut r: BackendRegistry<Blob> = BackendRegistry::new();
        assert!(r.names().is_empty());
        r.register("amplify", || Arc::new(PooledBackend::local()));
        r.register("amplify", || Arc::new(PooledBackend::with_magazines(2)));
        assert_eq!(r.names(), ["amplify"]);
        let b = r.build("amplify").unwrap();
        assert_eq!(b.name(), "amplify", "latest registration wins");
    }

    #[test]
    fn sim_names_collapse_amplify_layouts() {
        assert_eq!(sim_name("amplify-local"), "amplify");
        assert_eq!(sim_name("amplify-sharded"), "amplify");
        assert_eq!(sim_name("amplify"), "amplify");
        assert_eq!(sim_name("hoard"), "hoard");
        assert_eq!(sim_name("global"), "hoard", "the front-end simulates as Hoard");
        assert_eq!(sim_name("solaris-default"), "solaris-default");
    }
}
