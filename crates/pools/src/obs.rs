//! Internal instrumentation shim: the crate's only coupling point to the
//! `telemetry` feature.
//!
//! Hot paths call these macros unconditionally; with the feature disabled
//! they expand to nothing, so the default build compiles to exactly the
//! uninstrumented code (`envelope_check` records the hit pair per mode).
//! With the feature enabled, `pool_event!` records into the calling
//! thread's event ring and `pool_hist!` into a process-wide histogram whose
//! handle is resolved once per call site.

#[cfg(feature = "telemetry")]
macro_rules! pool_event {
    // Payload-less form: the per-operation kinds (hits, releases, misses).
    // Fully inlined — a TLS load, a counter bump, and a sampling branch.
    ($kind:ident) => {
        telemetry::event::record(telemetry::EventKind::$kind, 0)
    };
    // Payload form: the rare-path kinds (refills, flushes, invalidations,
    // drops). Routed out of line so the instrumentation does not inflate
    // register pressure in the hot functions these branches live in.
    ($kind:ident, $payload:expr) => {
        telemetry::event::record_cold(telemetry::EventKind::$kind, $payload as u64)
    };
}

#[cfg(not(feature = "telemetry"))]
macro_rules! pool_event {
    ($kind:ident) => {};
    // Capture the payload in a never-called closure: it typechecks but is
    // not evaluated, and the optimizer erases it entirely.
    ($kind:ident, $payload:expr) => {{
        let _ = || $payload;
    }};
}

#[cfg(feature = "telemetry")]
macro_rules! pool_hist {
    ($name:literal, $value:expr) => {{
        static SITE: std::sync::OnceLock<std::sync::Arc<telemetry::Histogram>> =
            std::sync::OnceLock::new();
        SITE.get_or_init(|| telemetry::hist::histogram($name)).record($value as u64);
    }};
}

#[cfg(not(feature = "telemetry"))]
macro_rules! pool_hist {
    ($name:literal, $value:expr) => {{
        let _ = || $value;
    }};
}

pub(crate) use {pool_event, pool_hist};
