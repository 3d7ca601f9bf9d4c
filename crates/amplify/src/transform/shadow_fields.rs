//! Shadow-pointer field injection.
//!
//! For every single-level pointer member of an amplified class the
//! pre-processor adds a replica field, "completely invisible to the
//! programmer" (§3.2):
//!
//! ```cpp
//! Child* left;            Child* left; Child* leftShadow;
//! char*  buffer;    →     char*  buffer; void* bufferShadow;
//! ```
//!
//! Object pointers get a typed shadow (the paper's `leftShadow`); data
//! arrays get a `void*` shadow consumed by the realloc extension.

use crate::analysis::{Analysis, FieldKind};
use crate::report::Report;
use cxx_frontend::Rewriter;

/// Insert shadow declarations after each candidate member declaration.
/// Multi-declarator groups (`T *a, *b;`) share one statement span; their
/// shadows are all anchored after the shared span, in declaration order.
pub(crate) fn apply(analysis: &Analysis, rw: &mut Rewriter, report: &mut Report) {
    for class in analysis.classes.values() {
        // Class-body spans are relative to the defining unit's text.
        if !class.enabled || class.unit_index != analysis.unit_index {
            continue;
        }
        for field in &class.fields {
            let decl = match field.kind {
                FieldKind::ObjectPtr => {
                    report.shadow_fields += 1;
                    format!(" {}* {};", field.pointee, field.shadow_name)
                }
                FieldKind::DataArrayPtr => {
                    report.array_shadow_fields += 1;
                    format!(" void* {};", field.shadow_name)
                }
            };
            rw.insert_after(field.decl_span, decl);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::config::AmplifyOptions;
    use cxx_frontend::{parse_source, Rewriter, SourceFile};

    fn run(src: &str, opts: &AmplifyOptions) -> (String, Report) {
        let unit = parse_source(src);
        let analysis = analyze(&unit, opts);
        let mut rw = Rewriter::new(SourceFile::new(src));
        let mut report = Report::default();
        apply(&analysis, &mut rw, &mut report);
        (rw.apply().unwrap(), report)
    }

    #[test]
    fn object_pointer_gets_typed_shadow() {
        let (out, r) = run("class A { Child* left; };", &AmplifyOptions::default());
        assert!(out.contains("Child* left; Child* leftShadow;"));
        assert_eq!(r.shadow_fields, 1);
    }

    #[test]
    fn data_array_gets_void_shadow() {
        let (out, r) = run("class A { char* buf; };", &AmplifyOptions::default());
        assert!(out.contains("char* buf; void* bufShadow;"));
        assert_eq!(r.array_shadow_fields, 1);
    }

    #[test]
    fn multi_declarator_group_gets_all_shadows() {
        let (out, _) = run("class A { Child *a, *b; };", &AmplifyOptions::default());
        assert!(out.contains("aShadow"));
        assert!(out.contains("bShadow"));
    }

    #[test]
    fn disabled_class_is_untouched() {
        let opts = AmplifyOptions { exclude_classes: vec!["A".into()], ..Default::default() };
        let (out, r) = run("class A { Child* left; };", &opts);
        assert!(!out.contains("Shadow"));
        assert_eq!(r.shadow_fields, 0);
    }

    #[test]
    fn non_pointer_members_are_untouched() {
        let (out, _) = run("class A { int x; Child c; Child** pp; };", &AmplifyOptions::default());
        assert!(!out.contains("Shadow"));
    }
}
