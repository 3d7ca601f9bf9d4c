//! The experiment harness: shared machinery for regenerating every table
//! and figure of the paper's evaluation section.
//!
//! The `repro` binary runs the whole evaluation — Table 1 and Figures
//! 4–11, each printed as an ASCII table and written as CSV into
//! `results/` — and checks the paper's headline claims.
#![warn(unreachable_pub)]

pub mod figures;
pub mod heapprof;
pub mod metrics;
pub mod native;
pub mod parallel;
pub mod tuner;

/// The note a feature-gated bench bin prints when built without its
/// feature: names the missing flag and gives the exact rebuild command,
/// so "nothing happened" is never a dead end. Exit code stays 0 — CI
/// invokes these bins unconditionally in both feature modes.
pub fn feature_gate_hint(bin: &str, feature: &str) -> String {
    format!(
        "[{bin}] built without the `{feature}` feature; nothing to do. \
         Rebuild with: cargo run --release -p bench --features {feature} --bin {bin}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_gate_hint_names_the_flag_and_the_rebuild_command() {
        let hint = feature_gate_hint("fault_matrix", "fault-inject");
        assert!(hint.contains("`fault-inject`"), "{hint}");
        assert!(
            hint.contains(
                "cargo run --release -p bench --features fault-inject --bin fault_matrix"
            ),
            "hint must carry a copy-pastable rebuild command: {hint}"
        );
    }
}
