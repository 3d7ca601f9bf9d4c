//! The transformation report: what the pre-processor did and what it
//! skipped (and why).

use serde::{Deserialize, Serialize};

/// Reasons a class was not amplified.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum SkipReason {
    /// Excluded by configuration.
    Excluded,
    /// The class already defines `operator new` — the pre-processor
    /// respects it (§3.2) and does not pool the class, though shadow
    /// rewrites inside it still apply.
    HasOperatorNew,
}

/// Aggregated counters over one pre-processing run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Report {
    /// Classes found in the translation units.
    pub(crate) classes_seen: usize,
    /// Classes that received pool operators.
    pub classes_amplified: usize,
    /// Classes skipped, with reasons.
    pub(crate) classes_skipped: Vec<(String, SkipReason)>,
    /// Shadow pointer fields inserted.
    pub shadow_fields: usize,
    /// Shadow slots inserted for data-type arrays.
    pub array_shadow_fields: usize,
    /// `delete member;` statements rewritten to shadow parking.
    pub delete_rewrites: usize,
    /// `member = new T(...)` statements rewritten to placement revival.
    pub new_rewrites: usize,
    /// `member = new T[n]` / `delete[] member` array rewrites (§5.2).
    pub(crate) array_rewrites: usize,
    /// `operator new`/`operator delete` pairs injected.
    pub operators_injected: usize,
    /// Allocation sites that could not be rewritten (left on the normal
    /// path; they still benefit from the injected class operators).
    pub(crate) sites_left_untouched: usize,
    /// Bytes of top-level source the parser passed through verbatim
    /// (templates, unknown declarations) — the part of the file outside
    /// the amplifiable subset.
    pub(crate) unparsed_bytes: u64,
    /// Total source bytes processed.
    pub(crate) source_bytes: u64,
}

impl Report {
    /// Merge counters from another file's report.
    pub(crate) fn merge(&mut self, other: &Report) {
        self.classes_seen += other.classes_seen;
        self.classes_amplified += other.classes_amplified;
        self.classes_skipped.extend(other.classes_skipped.iter().cloned());
        self.shadow_fields += other.shadow_fields;
        self.array_shadow_fields += other.array_shadow_fields;
        self.delete_rewrites += other.delete_rewrites;
        self.new_rewrites += other.new_rewrites;
        self.array_rewrites += other.array_rewrites;
        self.operators_injected += other.operators_injected;
        self.sites_left_untouched += other.sites_left_untouched;
        self.unparsed_bytes += other.unparsed_bytes;
        self.source_bytes += other.source_bytes;
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "classes: {} seen, {} amplified, {} skipped; \
             shadows: {} pointer + {} array; \
             rewrites: {} delete, {} new, {} array; operators injected: {}",
            self.classes_seen,
            self.classes_amplified,
            self.classes_skipped.len(),
            self.shadow_fields,
            self.array_shadow_fields,
            self.delete_rewrites,
            self.new_rewrites,
            self.array_rewrites,
            self.operators_injected,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = Report { classes_seen: 2, shadow_fields: 3, ..Default::default() };
        let b = Report {
            classes_seen: 1,
            shadow_fields: 1,
            classes_skipped: vec![("X".into(), SkipReason::Excluded)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.classes_seen, 3);
        assert_eq!(a.shadow_fields, 4);
        assert_eq!(a.classes_skipped.len(), 1);
    }

    #[test]
    fn summary_mentions_key_counts() {
        let r = Report { classes_amplified: 7, ..Default::default() };
        assert!(r.summary().contains("7 amplified"));
    }
}
