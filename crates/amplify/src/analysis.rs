//! Source analysis: which classes exist, which members are shadow
//! candidates, and where the rewritable allocation/deallocation patterns
//! occur.
//!
//! Faithful to the paper, the analysis does not try to guess which classes
//! are structure roots — "since each object is a potential root node in a
//! structure we can not during pre-processing treat some classes
//! differently from others. Instead we treat every class as if it was a
//! root" (§3.2).

use crate::config::AmplifyOptions;
use cxx_frontend::ast::*;
use cxx_frontend::span::Span;
use cxx_frontend::visit;
use std::collections::HashMap;

/// What kind of shadow a pointer member needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldKind {
    /// Pointer to a (possibly user-defined) object type: gets a typed
    /// shadow pointer and placement-new revival.
    ObjectPtr,
    /// Pointer to a builtin scalar type (`char*`, `int*` ...): gets a
    /// `void*` shadow and the §5.2 realloc treatment.
    DataArrayPtr,
}

/// A shadow-candidate member.
#[derive(Debug, Clone)]
pub(crate) struct ShadowField {
    pub(crate) name: String,
    pub(crate) shadow_name: String,
    /// The pointee type text (e.g. `Child`, `char`).
    pub(crate) pointee: String,
    pub(crate) kind: FieldKind,
    /// Span of the member declaration (insertion anchor).
    pub(crate) decl_span: Span,
}

/// Analysis result for one class.
#[derive(Debug, Clone)]
pub struct ClassModel {
    pub(crate) name: String,
    pub(crate) fields: Vec<ShadowField>,
    pub(crate) has_operator_new: bool,
    /// Offset of the class body's closing brace (injection anchor).
    pub(crate) rbrace: u32,
    /// Whether configuration allows amplifying this class.
    pub(crate) enabled: bool,
    /// Index of the translation unit that defines the class (class-body
    /// edits — shadows, operators — may only be applied to that unit's
    /// rewriter; spans are unit-relative).
    pub(crate) unit_index: usize,
}

impl ClassModel {
    /// Look up a shadow field by member name.
    pub(crate) fn field(&self, name: &str) -> Option<&ShadowField> {
        self.fields.iter().find(|f| f.name == name)
    }
}

/// A rewritable `delete member;` statement.
#[derive(Debug, Clone)]
pub(crate) struct DeleteSite {
    pub(crate) class: String,
    pub(crate) member: String,
    /// Full statement span including the `;`.
    pub(crate) span: Span,
    /// `delete[]` form.
    pub(crate) is_array: bool,
    /// The member expression text as written (`left` or `this->left`).
    pub(crate) member_text: String,
}

/// A rewritable `member = new Type(args);` / `member = new T[len];`
/// statement.
#[derive(Debug, Clone)]
pub(crate) struct NewAssignSite {
    pub(crate) class: String,
    pub(crate) member: String,
    /// The member expression text as written (`left` or `this->left`).
    pub(crate) member_text: String,
    /// Span of the whole `new ...` expression (replacement target).
    pub(crate) new_span: Span,
    /// The allocated type name.
    pub(crate) ty: String,
    /// Array form with this length expression text.
    pub(crate) array_len: Option<String>,
    /// Already placement new (idempotence guard — never rewritten).
    pub(crate) has_placement: bool,
}

/// Whole-unit analysis.
#[derive(Debug, Default)]
pub struct Analysis {
    pub classes: HashMap<String, ClassModel>,
    pub(crate) deletes: Vec<DeleteSite>,
    pub(crate) news: Vec<NewAssignSite>,
    /// Composition edges: (owner class, field, pointee class) for pointee
    /// types that are classes defined in the same unit.
    pub composition: Vec<(String, String, String)>,
    /// `new`/`delete` statements seen but not rewritable (diagnostics).
    pub(crate) untouched_sites: usize,
    /// Which unit this analysis's *sites* belong to (class-body transforms
    /// only touch classes with a matching [`ClassModel::unit_index`]).
    pub(crate) unit_index: usize,
}

/// Analyze a parsed translation unit under the given options.
pub fn analyze(unit: &TranslationUnit, options: &AmplifyOptions) -> Analysis {
    analyze_project(std::slice::from_ref(unit), options)
        .pop()
        .expect("one unit in, one analysis out")
}

/// Analyze several translation units *together*: class declarations from
/// any unit (e.g. a header) are visible when scanning method bodies in
/// every other unit (e.g. the matching `.cpp`) — how a pre-processor sees
/// code after `#include` expansion. Returns one [`Analysis`] per unit, in
/// order; each carries the merged class table but only its own unit's
/// rewrite sites.
pub fn analyze_project(units: &[TranslationUnit], options: &AmplifyOptions) -> Vec<Analysis> {
    // Merged class pass over all units.
    let mut merged = Analysis::default();
    for (index, unit) in units.iter().enumerate() {
        collect_classes(unit, index, options, &mut merged);
    }
    // Resolve composition edges against the complete class table.
    merged.composition.retain({
        let classes: std::collections::HashSet<String> = merged.classes.keys().cloned().collect();
        move |(_, _, pointee)| classes.contains(pointee)
    });
    // Per-unit site pass against the merged table.
    units
        .iter()
        .enumerate()
        .map(|(index, unit)| {
            let mut a = Analysis {
                classes: merged.classes.clone(),
                composition: merged.composition.clone(),
                unit_index: index,
                ..Default::default()
            };
            scan_unit(unit, &mut a);
            a
        })
        .collect()
}

fn collect_classes(
    unit: &TranslationUnit,
    unit_index: usize,
    options: &AmplifyOptions,
    a: &mut Analysis,
) {
    // Pass 1: classes and their shadow candidates.
    for class in unit.classes() {
        let mut fields = Vec::new();
        for f in class.pointer_fields() {
            // Only single-level pointers are shadowed; `T**` stays raw.
            if f.ty.pointers != 1 {
                continue;
            }
            let kind =
                if f.ty.is_builtin() { FieldKind::DataArrayPtr } else { FieldKind::ObjectPtr };
            if kind == FieldKind::DataArrayPtr && !options.amplify_arrays {
                continue;
            }
            fields.push(ShadowField {
                name: f.name.clone(),
                shadow_name: f.shadow_name(),
                pointee: f.ty.name.clone(),
                kind,
                decl_span: f.span,
            });
        }
        a.classes.insert(
            class.name.clone(),
            ClassModel {
                name: class.name.clone(),
                fields,
                has_operator_new: class.has_operator_new(),
                rbrace: class.rbrace,
                enabled: options.class_enabled(&class.name),
                unit_index,
            },
        );
    }

    // Composition candidates (for the structure-size model). Edges may
    // point to classes collected from a *later* unit, so they are resolved
    // against the full class table in `analyze_project`.
    for class in unit.classes() {
        for f in class.pointer_fields() {
            a.composition.push((class.name.clone(), f.name.clone(), f.ty.name.clone()));
        }
    }
}

/// Pass 2: rewritable sites inside method bodies. Bodies come from two
/// places: inline definitions in the class body, and out-of-line
/// `T C::f(...) { ... }` definitions.
fn scan_unit(unit: &TranslationUnit, a: &mut Analysis) {
    for class in unit.classes() {
        for m in class.methods() {
            scan_ctor_inits(unit, a, &class.name, m);
            if let Some(body) = &m.body {
                scan_body(unit, a, &class.name, body);
            }
        }
    }
    for f in unit.functions() {
        if let (Some(q), Some(body)) = (&f.qualifier, &f.body) {
            if a.classes.contains_key(q) {
                scan_ctor_inits(unit, a, q, f);
                scan_body(unit, a, q, body);
            }
        }
    }
}

/// Constructor initializer lists: `Root() : left(new Child(...))` is a
/// rewritable allocation site just like `left = new Child(...);`.
fn scan_ctor_inits(unit: &TranslationUnit, a: &mut Analysis, class: &str, m: &MethodDef) {
    if m.kind != MethodKind::Ctor {
        return;
    }
    let model = &a.classes[class];
    let mut news = Vec::new();
    for init in &m.ctor_inits {
        let Some(n) = &init.new_expr else { continue };
        if model.field(&init.member).is_none() {
            continue; // base-class initializer or unknown member
        }
        news.push(NewAssignSite {
            class: class.to_string(),
            member: init.member.clone(),
            member_text: init.member.clone(),
            new_span: n.span,
            ty: n.ty.name.clone(),
            array_len: n.array_len.map(|s| unit.file.slice(s).to_string()),
            has_placement: n.placement.is_some(),
        });
    }
    a.news.extend(news);
}

fn scan_body(unit: &TranslationUnit, a: &mut Analysis, class: &str, body: &Block) {
    let model = &a.classes[class];
    let mut deletes = Vec::new();
    let mut news = Vec::new();
    let mut untouched = 0usize;

    visit::walk_stmts(body, &mut |stmt| match stmt {
        Stmt::Delete(d) => {
            let member = d
                .target
                .as_path()
                .and_then(|p| p.as_own_member())
                .filter(|m| model.field(m).is_some());
            match member {
                Some(m) => deletes.push(DeleteSite {
                    class: class.to_string(),
                    member: m.to_string(),
                    span: d.span,
                    is_array: d.is_array,
                    member_text: unit.file.slice(d.target.span()).to_string(),
                }),
                None => untouched += 1,
            }
        }
        Stmt::Expr(Expr::Assign(assign), _) => {
            let member = assign
                .lhs
                .as_path()
                .and_then(|p| p.as_own_member())
                .filter(|m| model.field(m).is_some());
            if let Expr::New(n) = &*assign.rhs {
                match member {
                    Some(m) => news.push(NewAssignSite {
                        class: class.to_string(),
                        member: m.to_string(),
                        member_text: unit.file.slice(assign.lhs.span()).to_string(),
                        new_span: n.span,
                        ty: n.ty.name.clone(),
                        array_len: n.array_len.map(|s| unit.file.slice(s).to_string()),
                        has_placement: n.placement.is_some(),
                    }),
                    None => untouched += 1,
                }
            }
        }
        _ => {}
    });

    a.deletes.extend(deletes);
    a.news.extend(news);
    a.untouched_sites += untouched;
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxx_frontend::parse_source;

    const SRC: &str = r#"
class Root {
public:
    Root() { left = 0; right = 0; buffer = 0; }
    ~Root() { delete left; delete right; delete[] buffer; }
    void rebuild(int v) {
        delete left;
        left = new Child(v);
        this->right = new Child(v + 1);
        buffer = new char[v * 2];
    }
private:
    Child* left;
    Child* right;
    char* buffer;
    int data;
    Child** table;
};

class Child {
public:
    Child(int v) { val = v; }
private:
    int val;
};
"#;

    fn analyzed() -> Analysis {
        let unit = parse_source(SRC);
        analyze(&unit, &AmplifyOptions::default())
    }

    #[test]
    fn shadow_candidates_are_found() {
        let a = analyzed();
        let root = &a.classes["Root"];
        let names: Vec<_> = root.fields.iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, vec!["left", "right", "buffer"]);
        assert_eq!(root.field("left").unwrap().kind, FieldKind::ObjectPtr);
        assert_eq!(root.field("buffer").unwrap().kind, FieldKind::DataArrayPtr);
        // `Child** table` is not shadowed (double pointer), `int data` is
        // not a pointer.
        assert!(root.field("table").is_none());
        assert!(root.field("data").is_none());
    }

    #[test]
    fn delete_sites_are_found_including_dtor() {
        let a = analyzed();
        let members: Vec<_> = a.deletes.iter().map(|d| (d.member.clone(), d.is_array)).collect();
        assert!(members.contains(&("left".into(), false)));
        assert!(members.contains(&("right".into(), false)));
        assert!(members.contains(&("buffer".into(), true)));
        // left deleted in dtor AND in rebuild.
        assert_eq!(members.iter().filter(|(m, _)| m == "left").count(), 2);
    }

    #[test]
    fn new_sites_are_found_with_this_prefix() {
        let a = analyzed();
        let members: Vec<_> = a.news.iter().map(|n| n.member.clone()).collect();
        assert!(members.contains(&"left".to_string()));
        assert!(members.contains(&"right".to_string()), "this->right must resolve");
        let buf = a.news.iter().find(|n| n.member == "buffer").unwrap();
        assert_eq!(buf.array_len.as_deref(), Some("v * 2"));
    }

    #[test]
    fn composition_edges() {
        let a = analyzed();
        assert!(a.composition.iter().any(|(o, f, t)| o == "Root" && f == "left" && t == "Child"));
        // `char*` is not a class edge.
        assert!(!a.composition.iter().any(|(_, f, _)| f == "buffer"));
    }

    #[test]
    fn arrays_can_be_disabled() {
        let unit = parse_source(SRC);
        let opts = AmplifyOptions { amplify_arrays: false, ..Default::default() };
        let a = analyze(&unit, &opts);
        assert!(a.classes["Root"].field("buffer").is_none());
    }

    #[test]
    fn out_of_line_methods_are_scanned() {
        let src = r#"
class Box { public: void fill(); private: Item* item; };
void Box::fill() { delete item; item = new Item(); }
"#;
        let unit = parse_source(src);
        let a = analyze(&unit, &AmplifyOptions::default());
        assert_eq!(a.deletes.len(), 1);
        assert_eq!(a.news.len(), 1);
        assert_eq!(a.deletes[0].class, "Box");
    }

    #[test]
    fn foreign_member_deletes_are_untouched() {
        let src = r#"
class A { public: void f(B* other) { delete other->child; delete unknown; } private: C* mine; };
"#;
        let unit = parse_source(src);
        let a = analyze(&unit, &AmplifyOptions::default());
        assert!(a.deletes.is_empty());
        assert_eq!(a.untouched_sites, 2);
    }

    #[test]
    fn placement_new_is_flagged() {
        let src = r#"
class A { public: void f() { p = new(pShadow) T(); } private: T* p; };
"#;
        let unit = parse_source(src);
        let a = analyze(&unit, &AmplifyOptions::default());
        assert_eq!(a.news.len(), 1);
        assert!(a.news[0].has_placement);
    }

    #[test]
    fn project_mode_merges_class_tables() {
        let header = parse_source(
            "class Item { public: Item(int); };\n\
                                          class Box { public: ~Box(); Item* item; };",
        );
        let source = parse_source("Box::~Box() { delete item; item = new Item(1); }");
        let analyses = analyze_project(&[header, source], &AmplifyOptions::default());
        assert_eq!(analyses.len(), 2);
        // Both analyses see both classes.
        assert!(analyses[0].classes.contains_key("Box"));
        assert!(analyses[1].classes.contains_key("Item"));
        // Unit indices distinguish the defining unit.
        assert_eq!(analyses[0].classes["Box"].unit_index, 0);
        assert_eq!(analyses[1].classes["Box"].unit_index, 0);
        // Sites live only in the unit that contains them.
        assert!(analyses[0].deletes.is_empty());
        assert_eq!(analyses[1].deletes.len(), 1);
        assert_eq!(analyses[1].news.len(), 1);
        // Composition resolved across units.
        assert!(analyses[1]
            .composition
            .iter()
            .any(|(o, f, p)| o == "Box" && f == "item" && p == "Item"));
    }

    #[test]
    fn project_mode_resolves_forward_composition() {
        // The pointee class is defined in a *later* unit.
        let a = parse_source("class Owner { Part* part; };");
        let b = parse_source("class Part { int x; };");
        let analyses = analyze_project(&[a, b], &AmplifyOptions::default());
        assert!(analyses[0].composition.iter().any(|(o, _, p)| o == "Owner" && p == "Part"));
    }

    #[test]
    fn exclusion_disables_class() {
        let unit = parse_source(SRC);
        let opts = AmplifyOptions { exclude_classes: vec!["Root".into()], ..Default::default() };
        let a = analyze(&unit, &opts);
        assert!(!a.classes["Root"].enabled);
        assert!(a.classes["Child"].enabled);
    }
}
