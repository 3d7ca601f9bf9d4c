//! The structure-preserving rewrites for object-pointer members (§3.2):
//!
//! ```cpp
//! delete left;                 if (left) { left->~Child(); leftShadow = left; }
//!                         →
//! left = new Child(...);       left = new(leftShadow) Child(...);
//! ```
//!
//! Both rewrites are gated on the *pointee* class being amplified in the
//! same unit: the placement revival relies on the injected class-level
//! `operator new(size_t, void*)`, and parking memory that no pooled
//! allocator will ever revive would leak.

use crate::analysis::{Analysis, FieldKind};
use crate::report::Report;
use cxx_frontend::Rewriter;

/// True if `ty` names a class that received pool operators.
fn pointee_amplified(analysis: &Analysis, ty: &str) -> bool {
    analysis.classes.get(ty).is_some_and(|c| c.enabled && !c.has_operator_new)
}

/// The shadow expression matching how the member was written:
/// `left` → `leftShadow`, `this->left` → `this->leftShadow`.
fn shadow_expr(member_text: &str, member: &str, shadow: &str) -> String {
    if let Some(prefix) = member_text.strip_suffix(member) {
        format!("{prefix}{shadow}")
    } else {
        shadow.to_string()
    }
}

/// The destructor name for a possibly qualified type (`Ns::Child` →
/// `~Child`).
fn dtor_name(ty: &str) -> String {
    format!("~{}", ty.rsplit("::").next().unwrap_or(ty))
}

/// Decide which members may be shadow-parked at all. Parking is only safe
/// when every later revival consumes it, so a member is eligible iff:
///
/// * its pointee class is amplified,
/// * it has at least one `member = new Pointee(...)` site (something will
///   revive the shadow), and
/// * it has **no** `new` site of a different type (polymorphic members —
///   `Shape* s; s = new Circle();` — would make the static size check
///   wrong and would leak the previously parked object on every cycle).
///
/// Ineligible members keep their plain `delete`, which still routes
/// through the pointee's pooled `operator delete`.
fn eligible_members(analysis: &Analysis) -> std::collections::HashSet<(String, String)> {
    let mut matching = std::collections::HashSet::new();
    let mut mismatching = std::collections::HashSet::new();
    for site in &analysis.news {
        if site.array_len.is_some() {
            continue;
        }
        let Some(class) = analysis.classes.get(&site.class) else {
            continue;
        };
        let Some(field) = class.field(&site.member) else {
            continue;
        };
        if field.kind != FieldKind::ObjectPtr {
            continue;
        }
        let key = (site.class.clone(), site.member.clone());
        if field.pointee == site.ty && pointee_amplified(analysis, &site.ty) {
            matching.insert(key);
        } else {
            mismatching.insert(key);
        }
    }
    matching.retain(|k| !mismatching.contains(k));
    matching
}

/// Apply both rewrites.
pub(crate) fn apply(analysis: &Analysis, rw: &mut Rewriter, report: &mut Report) {
    let eligible = eligible_members(analysis);

    // `delete member;` — park instead of free.
    for site in &analysis.deletes {
        if site.is_array {
            continue; // handled by the array extension
        }
        let class = &analysis.classes[&site.class];
        if !class.enabled {
            continue;
        }
        let Some(field) = class.field(&site.member) else {
            continue;
        };
        if field.kind != FieldKind::ObjectPtr
            || !eligible.contains(&(site.class.clone(), site.member.clone()))
        {
            report.sites_left_untouched += 1;
            continue;
        }
        let m = &site.member_text;
        let shadow = shadow_expr(m, &site.member, &field.shadow_name);
        let replacement = format!(
            "if ({m}) {{ {m}->{dtor}(); {shadow} = {m}; }}",
            dtor = dtor_name(&field.pointee)
        );
        rw.replace(site.span, replacement);
        report.delete_rewrites += 1;
    }

    // `member = new T(...)` — revive from the shadow via placement new.
    for site in &analysis.news {
        if site.array_len.is_some() || site.has_placement {
            continue; // arrays are §5.2; placement means already amplified
        }
        let class = &analysis.classes[&site.class];
        if !class.enabled {
            continue;
        }
        let Some(field) = class.field(&site.member) else {
            continue;
        };
        if field.kind != FieldKind::ObjectPtr
            || field.pointee != site.ty
            || !eligible.contains(&(site.class.clone(), site.member.clone()))
        {
            report.sites_left_untouched += 1;
            continue;
        }
        // Minimal edit: `new` → `new(<shadow>)`, preserving the rest of the
        // expression byte-for-byte.
        let shadow = shadow_expr(&site.member_text, &site.member, &field.shadow_name);
        rw.insert_before(site.new_span.start + 3, format!("({shadow})"));
        report.new_rewrites += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::config::AmplifyOptions;
    use cxx_frontend::{parse_source, Rewriter, SourceFile};

    fn run(src: &str) -> (String, Report) {
        let unit = parse_source(src);
        let analysis = analyze(&unit, &AmplifyOptions::default());
        let mut rw = Rewriter::new(SourceFile::new(src));
        let mut report = Report::default();
        apply(&analysis, &mut rw, &mut report);
        (rw.apply().unwrap(), report)
    }

    const CHILD: &str = "class Child { public: Child(int v); int val; };\n";

    #[test]
    fn delete_becomes_shadow_park() {
        let src = format!(
            "{CHILD}class Root {{ public: ~Root() {{ delete left; }} \
             void f(int v) {{ left = new Child(v); }} Child* left; }};"
        );
        let (out, r) = run(&src);
        assert!(out.contains("if (left) { left->~Child(); leftShadow = left; }"), "got: {out}");
        assert_eq!(r.delete_rewrites, 1);
    }

    #[test]
    fn park_only_member_is_not_rewritten() {
        // A member that is deleted but never re-created in the unit: the
        // parked object would never be revived — a leak per cycle. The
        // delete must stay plain (it still reaches the pooled operator
        // delete).
        let src =
            format!("{CHILD}class Root {{ public: ~Root() {{ delete left; }} Child* left; }};");
        let (out, r) = run(&src);
        assert!(out.contains("delete left;"), "got: {out}");
        assert_eq!(r.delete_rewrites, 0);
    }

    #[test]
    fn polymorphic_member_is_not_parked() {
        // `Shape* s` assigned both Circle and Rect: the static size check
        // cannot hold, so neither parking nor placement revival applies.
        let src = "class Circle { public: Circle(); };\n\
                   class Rect { public: Rect(); };\n\
                   class Canvas { public: void draw(int i) {\n\
                       delete s;\n\
                       if (i) s = new Circle(); else s = new Rect();\n\
                   } Circle* s; };";
        let (out, r) = run(src);
        assert!(out.contains("delete s;"), "got: {out}");
        assert!(out.contains("s = new Circle();"));
        assert!(out.contains("s = new Rect();"));
        assert_eq!(r.delete_rewrites, 0);
        assert_eq!(r.new_rewrites, 0);
    }

    #[test]
    fn new_becomes_placement_revival() {
        let src = format!(
            "{CHILD}class Root {{ public: void f(int v) {{ left = new Child(v); }} Child* left; }};"
        );
        let (out, r) = run(&src);
        assert!(out.contains("left = new(leftShadow) Child(v);"), "got: {out}");
        assert_eq!(r.new_rewrites, 1);
    }

    #[test]
    fn this_prefixed_member_keeps_prefix() {
        let src = format!(
            "{CHILD}class Root {{ public: void f() {{ delete this->left; \
             this->left = new Child(1); }} Child* left; }};"
        );
        let (out, _) = run(&src);
        assert!(
            out.contains(
                "if (this->left) { this->left->~Child(); this->leftShadow = this->left; }"
            ),
            "got: {out}"
        );
    }

    #[test]
    fn unknown_pointee_is_not_rewritten() {
        // `Widget` is not defined in the unit — no pool operators, so the
        // placement revival would hit the standard placement new with a
        // possibly null pointer. Must stay untouched.
        let src = "class Root { public: void f() { delete w; w = new Widget(); } Widget* w; };";
        let (out, r) = run(src);
        assert!(out.contains("delete w;"));
        assert!(out.contains("w = new Widget();"));
        assert_eq!(r.delete_rewrites, 0);
        assert_eq!(r.new_rewrites, 0);
        assert_eq!(r.sites_left_untouched, 2);
    }

    #[test]
    fn pointee_with_own_operator_new_is_not_rewritten() {
        let src = "class Special { public: void* operator new(size_t n); };\n\
                   class Root { public: void f() { delete s; s = new Special(); } Special* s; };";
        let (out, _) = run(src);
        assert!(out.contains("delete s;"));
        assert!(out.contains("s = new Special();"));
    }

    #[test]
    fn existing_placement_new_is_idempotent() {
        let src = format!(
            "{CHILD}class Root {{ public: void f() {{ left = new(leftShadow) Child(1); }} Child* left; }};"
        );
        let (out, r) = run(&src);
        assert!(out.contains("new(leftShadow) Child(1)"));
        assert!(!out.contains("new(leftShadow)(leftShadow)"));
        assert_eq!(r.new_rewrites, 0);
    }

    #[test]
    fn type_mismatch_is_not_rewritten() {
        // Assigning a different type than the field's pointee (base-class
        // field, derived allocation) — size check would be wrong, skip.
        let src = format!(
            "{CHILD}class Root {{ public: void f() {{ left = new Other(); }} Child* left; }};"
        );
        let (out, _) = run(&src);
        assert!(out.contains("left = new Other();"));
    }

    #[test]
    fn ctor_init_list_new_is_rewritten() {
        let src = format!(
            "{CHILD}class Root {{ public: Root(int v) : left(new Child(v)) {{ }} \
             ~Root() {{ delete left; }} Child* left; }};"
        );
        let (out, r) = run(&src);
        assert!(out.contains(": left(new(leftShadow) Child(v))"), "got: {out}");
        assert_eq!(r.new_rewrites, 1);
        // The init-list site makes the member eligible for parking too.
        assert_eq!(r.delete_rewrites, 1);
    }

    #[test]
    fn base_class_initializers_are_untouched() {
        let src = "class Base { public: Base(int v); };\n\
                   class Derived { public: Derived(int v) : Base(v) { } };";
        let (out, r) = run(src);
        assert!(out.contains(": Base(v)"));
        assert_eq!(r.new_rewrites, 0);
    }

    #[test]
    fn qualified_pointee_dtor_uses_last_segment() {
        assert_eq!(dtor_name("Ns::Child"), "~Child");
        assert_eq!(dtor_name("Child"), "~Child");
    }

    #[test]
    fn deletes_inside_control_flow_are_rewritten() {
        let src = format!(
            "{CHILD}class Root {{ public: void f() {{ if (left) delete left; \
             left = new Child(9); }} Child* left; }};"
        );
        let (out, r) = run(&src);
        assert!(out.contains("if (left) if (left) { left->~Child(); leftShadow = left; }"));
        assert_eq!(r.delete_rewrites, 1);
    }
}
