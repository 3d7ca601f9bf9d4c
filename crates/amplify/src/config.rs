//! Configuration of the pre-processor.

use serde::{Deserialize, Serialize};

/// Profile-guided pool parameters fed back from the offline tuner
/// (`pool_tune`'s `BENCH_tuning.json`, schema `pool-tune-v1`): the winning
/// genome's knobs, lowered to what the generated single-free-list-per-class
/// C++ runtime can express. See [`crate::tuning::load_bench_tuning`] for
/// the mapping from genome fields to these.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolTuning {
    /// Parked-object cap for tuned class pools. `0` keeps the run's
    /// global `kMaxPoolObjects` (which is itself 0 = unlimited by
    /// default).
    pub max_objects: usize,
    /// Classes to emit `PoolParams` specializations for. When empty, the
    /// pipeline fills in every class it amplifies (tuned pools per class);
    /// `crate::runtime_hdr::generate` emits no specializations for an
    /// empty list.
    pub classes: Vec<String>,
}

impl PoolTuning {
    /// True when this tuning would generate exactly the untuned pools
    /// (nothing worth specializing).
    pub(crate) fn is_default(&self) -> bool {
        self.max_objects == 0
    }
}

/// Everything the user can tune about a pre-processing run.
///
/// The defaults reproduce the paper's synthetic-benchmark setup: all
/// classes amplified, arrays shadowed, unbounded pools, thread-safe pools.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AmplifyOptions {
    /// Generate thread-safe pools. When `false` the pre-processor
    /// "automatically removes all unnecessary locks" (§5.1) — the reason
    /// Amplify wins even at one thread.
    pub threaded: bool,
    /// Apply the §5.2 data-type array extension (`new char[n]` →
    /// shadowed realloc).
    pub amplify_arrays: bool,
    /// Maximum size in bytes for shadowed arrays; larger blocks are deleted
    /// as normal (§5.2). `None` = unlimited.
    pub max_shadow_bytes: Option<usize>,
    /// Maximum number of dead objects kept per class pool (§5.2).
    /// `None` = unlimited.
    pub max_pool_objects: Option<usize>,
    /// Apply the half-size reuse rule for shadowed arrays (§5.2).
    pub half_size_rule: bool,
    /// Classes that must not be amplified (the designer may "chose not to
    /// 'amplify' objects that can cause \[memory\] overhead" — §5.1).
    pub exclude_classes: Vec<String>,
    /// If non-empty, only these classes are amplified.
    pub include_only: Vec<String>,
    /// Name of the generated runtime header, `#include`d into rewritten
    /// sources.
    pub runtime_header: String,
    /// Insert `::amplify::print_stats();` at the end of `main`, so the
    /// program reports pool/shadow reuse without source changes.
    pub inject_stats: bool,
    /// Profile-guided pool parameters from the offline tuner. `None`
    /// generates exactly the untuned runtime header.
    pub pool_tuning: Option<PoolTuning>,
}

impl Default for AmplifyOptions {
    fn default() -> Self {
        AmplifyOptions {
            threaded: true,
            amplify_arrays: true,
            max_shadow_bytes: None,
            max_pool_objects: None,
            half_size_rule: true,
            exclude_classes: Vec::new(),
            include_only: Vec::new(),
            runtime_header: "amplify_runtime.hpp".to_string(),
            inject_stats: false,
            pool_tuning: None,
        }
    }
}

impl AmplifyOptions {
    /// The single-threaded configuration (locks elided).
    pub fn single_threaded() -> Self {
        AmplifyOptions { threaded: false, ..Default::default() }
    }

    /// The BGw field configuration: arrays shadowed with caps (§5.2).
    pub fn bgw() -> Self {
        AmplifyOptions {
            max_shadow_bytes: Some(64 * 1024),
            max_pool_objects: Some(256),
            ..Default::default()
        }
    }

    /// Whether a class of the given name is eligible for amplification
    /// under the include/exclude lists.
    pub(crate) fn class_enabled(&self, name: &str) -> bool {
        if self.exclude_classes.iter().any(|c| c == name) {
            return false;
        }
        if !self.include_only.is_empty() {
            return self.include_only.iter().any(|c| c == name);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_synthetic_setup() {
        let o = AmplifyOptions::default();
        assert!(o.threaded);
        assert!(o.amplify_arrays);
        assert!(o.half_size_rule);
        assert!(o.max_shadow_bytes.is_none());
    }

    #[test]
    fn exclusion_wins_over_inclusion() {
        let o = AmplifyOptions {
            exclude_classes: vec!["Car".into()],
            include_only: vec!["Car".into(), "Wheel".into()],
            ..Default::default()
        };
        assert!(!o.class_enabled("Car"));
        assert!(o.class_enabled("Wheel"));
        assert!(!o.class_enabled("Engine"));
    }

    #[test]
    fn include_only_restricts() {
        let o = AmplifyOptions { include_only: vec!["A".into()], ..Default::default() };
        assert!(o.class_enabled("A"));
        assert!(!o.class_enabled("B"));
    }
}
