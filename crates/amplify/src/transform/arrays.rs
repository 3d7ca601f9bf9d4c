//! The data-type array extension (§5.2).
//!
//! Half of BGw's allocations were raw `char[]` / `int[]` buffers. For a
//! pointer member of builtin element type in an amplified class:
//!
//! ```cpp
//! buffer = new char[length];     buffer = (char*) ::amplify::array_realloc(
//!                           →        bufferShadow, (length), sizeof(char));
//! delete[] buffer;          →   bufferShadow = ::amplify::shadow_array(buffer);
//! ```
//!
//! `array_realloc` implements the paper's custom realloc: reuse the shadow
//! block when the request is within `[capacity/2, capacity]` (so repeated
//! allocation consumes at most twice the live memory), else allocate
//! fresh. `shadow_array` enforces the maximum shadowed block size.

use crate::analysis::{Analysis, FieldKind};
use crate::report::Report;
use cxx_frontend::Rewriter;

/// The shadow expression matching the member's written form.
fn shadow_expr(member_text: &str, member: &str, shadow: &str) -> String {
    if let Some(prefix) = member_text.strip_suffix(member) {
        format!("{prefix}{shadow}")
    } else {
        shadow.to_string()
    }
}

/// Apply the array rewrites. As with object members, parking is only
/// applied to members that are also re-allocated in the unit (`new T[...]`
/// with matching element type) — a park that nothing consumes would leak
/// the previously parked block on every cycle.
pub(crate) fn apply(analysis: &Analysis, rw: &mut Rewriter, report: &mut Report) {
    let mut eligible = std::collections::HashSet::new();
    for site in &analysis.news {
        if site.array_len.is_none() {
            continue;
        }
        let Some(class) = analysis.classes.get(&site.class) else {
            continue;
        };
        if let Some(field) = class.field(&site.member) {
            if field.kind == FieldKind::DataArrayPtr && field.pointee == site.ty {
                eligible.insert((site.class.clone(), site.member.clone()));
            }
        }
    }

    // `delete[] member;` → park in the shadow.
    for site in &analysis.deletes {
        if !site.is_array {
            continue;
        }
        let class = &analysis.classes[&site.class];
        if !class.enabled {
            continue;
        }
        let Some(field) = class.field(&site.member) else {
            continue;
        };
        if field.kind != FieldKind::DataArrayPtr
            || !eligible.contains(&(site.class.clone(), site.member.clone()))
        {
            report.sites_left_untouched += 1;
            continue;
        }
        let m = &site.member_text;
        let shadow = shadow_expr(m, &site.member, &field.shadow_name);
        rw.replace(site.span, format!("{shadow} = ::amplify::shadow_array({m});"));
        report.array_rewrites += 1;
    }

    // `member = new T[len];` → shadowed realloc.
    for site in &analysis.news {
        let Some(len) = &site.array_len else { continue };
        if site.has_placement {
            continue;
        }
        let class = &analysis.classes[&site.class];
        if !class.enabled {
            continue;
        }
        let Some(field) = class.field(&site.member) else {
            continue;
        };
        if field.kind != FieldKind::DataArrayPtr || field.pointee != site.ty {
            report.sites_left_untouched += 1;
            continue;
        }
        let shadow = shadow_expr(&site.member_text, &site.member, &field.shadow_name);
        let ty = &site.ty;
        rw.replace(
            site.new_span,
            format!("({ty}*) ::amplify::array_realloc({shadow}, ({len}), sizeof({ty}))"),
        );
        report.array_rewrites += 1;
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
    fn new_array_becomes_realloc() {
        let src = "class B { void f(int n) { buf = new char[n * 2]; } char* buf; };";
        let (out, r) = run(src, &AmplifyOptions::default());
        assert!(
            out.contains(
                "buf = (char*) ::amplify::array_realloc(bufShadow, (n * 2), sizeof(char));"
            ),
            "got: {out}"
        );
        assert_eq!(r.array_rewrites, 1);
    }

    #[test]
    fn delete_array_becomes_shadow_park() {
        let src = "class B { ~B() { delete[] buf; } \
                   void f(int n) { buf = new char[n]; } char* buf; };";
        let (out, r) = run(src, &AmplifyOptions::default());
        assert!(out.contains("bufShadow = ::amplify::shadow_array(buf);"), "got: {out}");
        assert_eq!(r.array_rewrites, 2);
    }

    #[test]
    fn park_only_array_member_stays_plain() {
        let src = "class B { ~B() { delete[] buf; } char* buf; };";
        let (out, r) = run(src, &AmplifyOptions::default());
        assert!(out.contains("delete[] buf;"), "got: {out}");
        assert_eq!(r.array_rewrites, 0);
    }

    #[test]
    fn int_arrays_supported() {
        let src = "class B { void f(int n) { counts = new int[n]; } int* counts; };";
        let (out, _) = run(src, &AmplifyOptions::default());
        assert!(out.contains("(int*) ::amplify::array_realloc(countsShadow, (n), sizeof(int))"));
    }

    #[test]
    fn disabled_arrays_leave_source_untouched() {
        let src =
            "class B { void f(int n) { buf = new char[n]; } ~B() { delete[] buf; } char* buf; };";
        let opts = AmplifyOptions { amplify_arrays: false, ..Default::default() };
        let (out, r) = run(src, &opts);
        assert!(out.contains("buf = new char[n];"));
        assert!(out.contains("delete[] buf;"));
        assert_eq!(r.array_rewrites, 0);
    }

    #[test]
    fn object_array_member_is_not_array_rewritten() {
        // `new Child[n]` on an object pointer is outside the §5.2
        // extension (object arrays would need per-element destruction).
        let src = "class Child { int v; };\n\
                   class B { void f(int n) { kids = new Child[n]; } Child* kids; };";
        let (out, r) = run(src, &AmplifyOptions::default());
        assert!(out.contains("kids = new Child[n];"));
        assert_eq!(r.array_rewrites, 0);
        assert_eq!(r.sites_left_untouched, 1);
    }

    #[test]
    fn this_prefix_preserved() {
        let src = "class B { void f(int n) { this->buf = new char[n]; } char* buf; };";
        let (out, _) = run(src, &AmplifyOptions::default());
        assert!(out.contains("this->buf = (char*) ::amplify::array_realloc(this->bufShadow"));
    }
}
