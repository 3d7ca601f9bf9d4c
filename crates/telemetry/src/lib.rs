//! Observability for the pool runtime and the experiment harness.
//!
//! The paper's §5.1 argument — that Amplify's critical sections are short
//! enough to scale — rests on *monitoring* the allocator (failed try-locks,
//! pool hit rates). `pools` counts both on always-on counters; this crate
//! holds the report those counters are written into:
//!
//! * [`report`] — the unified [`report::Report`] snapshot with the
//!   versioned `telemetry-v1` JSON schema that bench binaries emit behind
//!   `--metrics-out` and the `pool_report` binary renders;
//! * `event` — the process-wide event kinds a report lists, each read
//!   from a counter when the report is built.
//!
//! The crate records nothing itself and has no cargo features: it builds
//! and parses reports, including ones written by older binaries and by
//! the generated C++ runtime.
#![warn(unreachable_pub)]

mod event;
pub mod report;

pub use event::EventKind;
pub use report::Report;
