//! Per-class `operator new` / `operator delete` injection.
//!
//! "Amplify solves this by overloading operator new of each class that is
//! associated with a pool. Operator new redirects all memory requests to
//! the pool's member function alloc()" (§3.2). The matching placement
//! overload implements the shadow-revival path with the paper's type-size
//! check. Classes that already define `operator new` are respected and get
//! no operators (§3.2).

use crate::analysis::Analysis;
use crate::report::{Report, SkipReason};
use cxx_frontend::Rewriter;

/// Inject pool operators into every enabled class, immediately before the
/// class body's closing brace.
pub(crate) fn apply(analysis: &Analysis, rw: &mut Rewriter, report: &mut Report) {
    // Deterministic order for stable output.
    let mut classes: Vec<_> = analysis.classes.values().collect();
    classes.sort_by_key(|a| a.rbrace);

    for class in classes {
        // Only the unit that defines the class receives its operators.
        if class.unit_index != analysis.unit_index {
            continue;
        }
        report.classes_seen += 1;
        if !class.enabled {
            report.classes_skipped.push((class.name.clone(), SkipReason::Excluded));
            continue;
        }
        if class.has_operator_new {
            report.classes_skipped.push((class.name.clone(), SkipReason::HasOperatorNew));
            continue;
        }
        let name = &class.name;
        let mut code = String::new();
        code.push_str("\npublic:\n");
        code.push_str(&format!(
            "    void* operator new(size_t amplify_n) \
             {{ return ::amplify::Pool< {name} >::alloc(amplify_n); }}\n"
        ));
        code.push_str(&format!(
            "    void operator delete(void* amplify_p) \
             {{ ::amplify::Pool< {name} >::release(amplify_p); }}\n"
        ));
        // Shadow revival: `new(fieldShadow) T(...)`. Null or undersized
        // shadows fall back to a fresh block (the paper's "type checking to
        // ensure that there is enough space for the new object").
        code.push_str(
            "    void* operator new(size_t amplify_n, void* amplify_shadow) \
             { return ::amplify::place(amplify_n, amplify_shadow); }\n",
        );
        // Matching placement delete (runs if a constructor throws).
        code.push_str(&format!(
            "    void operator delete(void* amplify_p, void* amplify_shadow) \
             {{ (void)amplify_shadow; ::amplify::Pool< {name} >::release(amplify_p); }}\n"
        ));
        rw.insert_before(class.rbrace, code);
        report.classes_amplified += 1;
        report.operators_injected += 1;
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
    fn operators_are_injected() {
        let (out, r) = run("class Car { int x; };", &AmplifyOptions::default());
        assert!(out.contains("void* operator new(size_t amplify_n)"));
        assert!(out.contains("::amplify::Pool< Car >::alloc"));
        assert!(out.contains("::amplify::Pool< Car >::release"));
        assert!(out.contains("::amplify::place"));
        assert_eq!(r.classes_amplified, 1);
        assert_eq!(r.operators_injected, 1);
    }

    #[test]
    fn existing_operator_new_is_respected() {
        let src = "class Special { void* operator new(size_t n); };";
        let (out, r) = run(src, &AmplifyOptions::default());
        assert!(!out.contains("amplify::Pool"));
        assert_eq!(r.classes_amplified, 0);
        assert_eq!(r.classes_skipped, vec![("Special".to_string(), SkipReason::HasOperatorNew)]);
    }

    #[test]
    fn excluded_class_is_skipped() {
        let opts = AmplifyOptions { exclude_classes: vec!["Car".into()], ..Default::default() };
        let (out, r) = run("class Car { int x; };", &opts);
        assert!(!out.contains("amplify::Pool"));
        assert_eq!(r.classes_skipped, vec![("Car".to_string(), SkipReason::Excluded)]);
    }

    #[test]
    fn injection_is_inside_class_body() {
        let (out, _) = run("class A { int x; };\nint y;", &AmplifyOptions::default());
        let close = out.rfind("};").unwrap();
        let op = out.find("operator new").unwrap();
        assert!(op < close);
    }

    #[test]
    fn multiple_classes_all_amplified() {
        let (out, r) = run("class A { int x; };\nclass B { int y; };", &AmplifyOptions::default());
        assert!(out.contains("Pool< A >"));
        assert!(out.contains("Pool< B >"));
        assert_eq!(r.classes_amplified, 2);
    }
}
