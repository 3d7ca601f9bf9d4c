//! The recorded-envelope gate: measures the sharded+magazine
//! acquire/release hit pair, the acquire-miss pair (`BENCH_pools.json`),
//! the size-class front-end's raw alloc/dealloc pair
//! (`BENCH_global_alloc.json`), and that same pair with the heap
//! profiler actively sampling, renders each against the recorded
//! envelopes, and **exits non-zero when any path regressed** (measured
//! slower than recorded by more than the gate tolerance). Being faster
//! than the record never fails — the envelopes were taken on a
//! particular host, and a quicker machine is not a bug.
//!
//! ```text
//! cargo run --release -p bench --bin envelope_check                # strict ±10%
//! cargo run --release -p bench --bin envelope_check -- --gate 0.5  # CI: +50% slack
//! cargo run --release -p bench --bin envelope_check -- --pairs 2000000
//! ```
//!
//! CI runs this with a loose `--gate` (shared runners are noisy) in both
//! feature modes: the 3.3× pre-depot miss cliff trips even a generous
//! gate, while ordinary host-to-host jitter does not.
//!
//! The hit pair is also gated under a tuned pool shape (the offline
//! tuner's winner configuration; the tuned-config envelope).

use bench::native::{
    check_global_pair_envelope, check_hit_pair_envelope, check_miss_pair_envelope,
    check_profiled_global_pair_envelope, check_reclaim_global_pair_envelope,
    check_sim_engine_envelope, check_tuned_hit_pair_envelope,
};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let gate: f64 = arg_value("--gate")
        .map(|v| v.parse().expect("--gate takes a fraction, e.g. 0.5"))
        .unwrap_or(0.10);
    let pairs: u64 = arg_value("--pairs")
        .map(|v| v.parse().expect("--pairs takes a count"))
        .unwrap_or(20_000_000);

    eprintln!(
        "[envelope_check] telemetry {}, global-alloc {}, {pairs} pairs, \
         regression gate +{:.0}%",
        cfg!(feature = "telemetry"),
        cfg!(feature = "global-alloc"),
        100.0 * gate
    );
    let hit = check_hit_pair_envelope(pairs);
    println!("{}", hit.render());
    let miss = check_miss_pair_envelope(pairs / 4);
    println!("{}", miss.render());
    let global = check_global_pair_envelope(pairs);
    println!("{}", global.render());
    // Same pair loop with the heap profiler sampling: the profiled-mode
    // tax must fit the same recorded envelope (tentpole acceptance:
    // within +10% on the global pair).
    let profiled = check_profiled_global_pair_envelope(pairs);
    println!("{}", profiled.render());
    // Same pair loop with the RSS reclaimer sweeping from another
    // thread: concurrent slab retirement must not tax the hit path
    // (ISSUE 10 acceptance: global pair within ±10% while reclaiming).
    let reclaim = check_reclaim_global_pair_envelope(pairs);
    println!("{}", reclaim.render());
    // The simulation engine: real ns per dispatch event on the recorded
    // reference workload (`BENCH_sim.json`) — catches event-loop or bus
    // regressions that the allocator-path envelopes cannot see.
    let sim = check_sim_engine_envelope(5);
    println!("{}", sim.render());

    // The hit pair under a tuner-winner pool shape.
    let tuned_hit = check_tuned_hit_pair_envelope(pairs);
    println!("{}", tuned_hit.render());

    let checks = [hit, miss, global, profiled, reclaim, sim, tuned_hit];

    let mut failed = false;
    for check in checks {
        if check.regressed(gate) {
            eprintln!(
                "[envelope_check] FAIL: {} measured {:.2} ns, more than +{:.0}% over the \
                 recorded {:.2} ns",
                check.label,
                check.measured_ns,
                100.0 * gate,
                check.expected_ns
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    eprintln!("[envelope_check] OK: all paths within the regression gate");
}
