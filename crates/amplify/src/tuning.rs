//! The feedback edge of the automatic tuning loop: load the offline
//! tuner's verdict (`pool_tune`'s `BENCH_tuning.json`, schema
//! `pool-tune-v1`) and lower the winning genome to [`PoolTuning`]
//! parameters the generated C++ runtime header can express.
//!
//! The genome describes the Rust runtime's layout (per-thread magazines
//! over per-shard depot stacks); the generated header implements one free
//! list per class. The lowering keeps the one knob with a direct analog:
//! `magazine_cap × shards` → `PoolParams<T>::kMaxObjects`, the total
//! cached capacity the tuned Rust layout would hold, applied as the
//! per-class parked-object cap.
//!
//! Genes that older reports still carry and the search no longer has
//! parse and are dropped.

use crate::config::PoolTuning;
use serde::Value;

/// One parsed `pool-tune-v1` family: the fitness pair plus the winner's
/// genome fields the lowering uses.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TunedFamily {
    pub(crate) family: String,
    pub(crate) default_fitness: u64,
    pub(crate) tuned_fitness: u64,
    pub(crate) magazine_cap: u64,
    pub(crate) shards: u64,
}

impl TunedFamily {
    /// Did evolution strictly beat the hand-tuned default on this family?
    pub(crate) fn improved(&self) -> bool {
        self.tuned_fitness < self.default_fitness
    }

    /// Relative fitness reduction (0 when the default fitness is 0).
    fn improvement(&self) -> f64 {
        if self.default_fitness == 0 {
            0.0
        } else {
            (self.default_fitness as f64 - self.tuned_fitness as f64) / self.default_fitness as f64
        }
    }

    /// Lower this family's winner to header pool parameters (classes left
    /// empty: the pipeline fills in the classes it amplifies).
    pub(crate) fn to_pool_tuning(&self) -> PoolTuning {
        PoolTuning { max_objects: (self.magazine_cap * self.shards) as usize, classes: Vec::new() }
    }
}

fn num(v: &Value, what: &str) -> Result<u64, String> {
    match v {
        Value::UInt(u) => Ok(*u),
        Value::Int(i) if *i >= 0 => Ok(*i as u64),
        other => Err(format!("{what}: expected a non-negative integer, got {}", other.kind())),
    }
}

fn text(v: &Value, what: &str) -> Result<String, String> {
    match v {
        Value::String(s) => Ok(s.clone()),
        other => Err(format!("{what}: expected a string, got {}", other.kind())),
    }
}

/// Parse a `pool-tune-v1` document. Accepts either the bare section
/// (`BENCH_tuning.json`) or a full `telemetry-v1` report carrying it
/// under `pool_tune` (a `pool_tune --metrics-out` file).
pub(crate) fn parse_families(json: &str) -> Result<Vec<TunedFamily>, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
    // A telemetry report wraps the section; a bare section is the root.
    let section = match root.field("pool_tune") {
        Ok(v) => v,
        Err(_) => &root,
    };
    let schema = text(section.field("schema").map_err(|e| e.to_string())?, "schema")?;
    if schema != "pool-tune-v1" {
        return Err(format!("unsupported tuning schema `{schema}` (expected `pool-tune-v1`)"));
    }
    let Ok(Value::Array(families)) = section.field("families") else {
        return Err("`families` must be an array".to_string());
    };
    families
        .iter()
        .map(|f| {
            let family = text(f.field("family").map_err(|e| e.to_string())?, "family")?;
            let winner = f.field("winner").map_err(|e| e.to_string())?;
            Ok(TunedFamily {
                default_fitness: num(
                    f.field("default_fitness").map_err(|e| e.to_string())?,
                    "default_fitness",
                )?,
                tuned_fitness: num(
                    f.field("tuned_fitness").map_err(|e| e.to_string())?,
                    "tuned_fitness",
                )?,
                magazine_cap: num(
                    winner.field("magazine_cap").map_err(|e| e.to_string())?,
                    "winner.magazine_cap",
                )?,
                shards: num(winner.field("shards").map_err(|e| e.to_string())?, "winner.shards")?,
                family,
            })
        })
        .collect()
}

/// Load pool tuning from a `pool-tune-v1` document: the named family's
/// winner, or — with no name — the winner of the family that improved the
/// most over the defaults. Erring rather than silently keeping the
/// defaults: a profile that beat nothing is a profile the build should
/// not claim to be guided by.
pub fn load_bench_tuning(json: &str, family: Option<&str>) -> Result<PoolTuning, String> {
    let families = parse_families(json)?;
    let chosen = match family {
        Some(name) => families.iter().find(|f| f.family == name).ok_or_else(|| {
            let known: Vec<&str> = families.iter().map(|f| f.family.as_str()).collect();
            format!("no family `{name}` in the tuning report (families: {})", known.join(", "))
        })?,
        None => families
            .iter()
            .filter(|f| f.improved())
            .max_by(|a, b| {
                a.improvement().partial_cmp(&b.improvement()).unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or(
                "no family improved on the hand-tuned defaults; \
                    pick one explicitly with --tuning-family",
            )?,
    };
    Ok(chosen.to_pool_tuning())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        r#"{
            "schema": "pool-tune-v1",
            "seed": 42,
            "population": 16,
            "families": [
                {
                    "family": "tree/d1",
                    "default_fitness": 1000,
                    "tuned_fitness": 1000,
                    "winner": {"magazine_cap": 32, "shards": 4, "depot_gate": 1,
                               "carve_batch": 64, "ship_batch": 32},
                    "generations": [],
                    "improvement_pct": 0.0,
                    "improved": false
                },
                {
                    "family": "tree/d5",
                    "default_fitness": 20000,
                    "tuned_fitness": 12000,
                    "winner": {"magazine_cap": 256, "shards": 2, "depot_gate": 1,
                               "carve_batch": 512, "ship_batch": 32},
                    "generations": [],
                    "improvement_pct": 40.0,
                    "improved": true
                }
            ]
        }"#
        .to_string()
    }

    #[test]
    fn picks_the_most_improved_family_by_default() {
        let t = load_bench_tuning(&sample(), None).unwrap();
        assert_eq!(t.max_objects, 256 * 2);
        assert!(t.classes.is_empty(), "classes are the pipeline's to fill");
    }

    #[test]
    fn named_family_wins_even_unimproved() {
        let t = load_bench_tuning(&sample(), Some("tree/d1")).unwrap();
        assert_eq!(t.max_objects, 32 * 4);
    }

    #[test]
    fn unknown_family_lists_the_known_ones() {
        let err = load_bench_tuning(&sample(), Some("bgw")).unwrap_err();
        assert!(err.contains("bgw"), "{err}");
        assert!(err.contains("tree/d1"), "{err}");
        assert!(err.contains("tree/d5"), "{err}");
    }

    #[test]
    fn no_improvement_is_an_error_not_a_silent_default() {
        let json = sample().replace("\"tuned_fitness\": 12000", "\"tuned_fitness\": 20000");
        let err = load_bench_tuning(&json, None).unwrap_err();
        assert!(err.contains("no family improved"), "{err}");
    }

    #[test]
    fn accepts_a_wrapping_telemetry_report() {
        let wrapped = format!(
            r#"{{"schema": "telemetry-v1", "source": "pool_tune", "pool_tune": {}}}"#,
            sample()
        );
        let t = load_bench_tuning(&wrapped, None).unwrap();
        assert_eq!(t.max_objects, 256 * 2);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let json = sample().replace("pool-tune-v1", "pool-tune-v0");
        assert!(parse_families(&json).unwrap_err().contains("pool-tune-v0"));
    }
}
