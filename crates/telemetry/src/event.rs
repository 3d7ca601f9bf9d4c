//! The event kinds a report lists.
//!
//! Each kind is a process-wide total that `pools` already keeps on an
//! always-on counter: the size-class engine's `global::stats()` and the
//! fault layer's injected counts. A report reads them when it is built;
//! nothing is recorded on an allocation path. The typed pools' per-event
//! counts (hits, misses, releases, swaps, parks, ...) travel per pool, in
//! a report's `pools` and `native_runs` sections.

/// The event kinds a report lists, each a process-wide total.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A size-class allocation degraded to the system allocator under an
    /// injected failure (the `fault-inject` feature).
    FallbackAlloc,
    /// The fault layer injected a failure, at any site.
    FaultInjected,
    /// The size-class engine refilled a thread cache from its central
    /// stack or a slab carve.
    ClassRefill,
}

impl EventKind {
    /// Every kind, in the order reports list them.
    pub const ALL: [EventKind; 3] =
        [EventKind::FallbackAlloc, EventKind::FaultInjected, EventKind::ClassRefill];

    /// Stable wire/report name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EventKind::FallbackAlloc => "fallback_alloc",
            EventKind::FaultInjected => "fault_injected",
            EventKind::ClassRefill => "class_refill",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
