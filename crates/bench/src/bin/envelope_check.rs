//! The recorded-envelope gate: times every micro path in
//! `bench::native::ENVELOPE_PATHS` — the typed pools' hit, miss and
//! tuned hit pairs, one alloc → free pair through `&dyn MemBackend`, the
//! size-class engine's raw pair (plain, with the heap profiler sampling,
//! and with the reclaimer sweeping beside it), the engine's
//! producer/consumer frees (ns per tree), and the simulation engine's ns
//! per event — and **exits non-zero when any path regressed**.
//!
//! ```text
//! cargo run --release -p bench [--features global-alloc] --bin envelope_check
//! ```
//!
//! Each of the 11 trials runs every path once, in turn, beside a `System`
//! 64-byte alloc/free pair. A path is judged by the median over trials of
//! its ratio to that reference, against the ratio recorded for this
//! build's feature mode: it fails only when more than +100% over the
//! record. Dividing by an in-run reference takes the host's speed and
//! load out of the number, so the record survives a slower or busier
//! machine, while a 3x cliff on any one path still trips the gate. Being
//! faster than the record never fails.

use bench::native::{cpu_model, measure_envelopes, GATE, PAIRS, TRIALS};

fn main() {
    eprintln!(
        "[envelope_check] host: {}, {} CPUs; global-alloc {}; \
         {TRIALS} trials x {PAIRS} pairs; gate +{:.0}% over the recorded ratio",
        cpu_model(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cfg!(feature = "global-alloc"),
        100.0 * GATE
    );
    let checks = measure_envelopes(TRIALS, PAIRS);
    for check in &checks {
        println!("{}", check.render());
    }
    let failed: Vec<&str> = checks.iter().filter(|c| c.regressed()).map(|c| c.label).collect();
    if !failed.is_empty() {
        eprintln!("[envelope_check] FAIL: {} over the gate", failed.join(", "));
        std::process::exit(1);
    }
    eprintln!("[envelope_check] OK: all paths within the gate");
}
