//! Parser integration tests: the constructs the Amplify transformations
//! depend on must parse into structured AST; everything else must degrade
//! to raw spans without derailing the rest of the file.

use cxx_frontend::ast::*;
use cxx_frontend::parse_source;

fn only_class(src: &str) -> ClassDef {
    let unit = parse_source(src);
    let mut classes: Vec<_> = unit.classes().cloned().collect();
    assert_eq!(classes.len(), 1, "expected exactly one class in {src:?}");
    classes.pop().unwrap()
}

#[test]
fn class_with_pointer_fields() {
    let c = only_class(
        r#"
class Root {
public:
    void use();
private:
    Child* left;
    Child* right;
    int data;
};
"#,
    );
    assert_eq!(c.name, "Root");
    assert!(!c.is_struct);
    let ptrs: Vec<_> = c.pointer_fields().map(|f| f.name.clone()).collect();
    assert_eq!(ptrs, vec!["left", "right"]);
    let data = c.field("data").unwrap();
    assert_eq!(data.ty.name, "int");
    assert_eq!(data.ty.pointers, 0);
}

#[test]
fn struct_and_bases() {
    let c = only_class("struct Wheel : public Part, private Disposable { int radius; };");
    assert!(c.is_struct);
    assert_eq!(c.bases, vec!["Part", "Disposable"]);
}

#[test]
fn multi_declarator_fields() {
    let c = only_class("class C { Child *a, b, *c; int x, y; };");
    let names: Vec<_> = c.fields().map(|f| (f.name.clone(), f.ty.pointers)).collect();
    assert_eq!(
        names,
        vec![
            ("a".to_string(), 1),
            ("b".to_string(), 0),
            ("c".to_string(), 1),
            ("x".to_string(), 0),
            ("y".to_string(), 0)
        ]
    );
}

#[test]
fn array_fields_are_not_pointer_fields() {
    let c = only_class("class C { char buf[256]; char* name; };");
    assert_eq!(c.pointer_fields().count(), 1);
    let buf = c.field("buf").unwrap();
    assert!(buf.array.is_some());
}

#[test]
fn ctor_dtor_and_methods() {
    let c = only_class(
        r#"
class Car {
public:
    Car(int wheels);
    virtual ~Car();
    void drive(int km);
    static Car* make();
};
"#,
    );
    assert_eq!(c.constructors().count(), 1);
    assert!(c.has_destructor());
    let dtor = c.methods().find(|m| m.kind == MethodKind::Dtor).unwrap();
    assert!(dtor.is_virtual);
    let make = c.methods().find(|m| m.name == "make").unwrap();
    assert!(make.is_static);
}

#[test]
fn operator_new_detection() {
    let c = only_class(
        r#"
class Special {
public:
    void* operator new(size_t n);
    void operator delete(void* p);
};
"#,
    );
    assert!(c.has_operator_new());
    assert!(c.has_operator_delete());
}

#[test]
fn class_without_operator_new() {
    let c = only_class("class Plain { int x; };");
    assert!(!c.has_operator_new());
    assert!(!c.has_operator_delete());
}

#[test]
fn operator_assignment_is_not_operator_new() {
    let c = only_class("class C { C& operator=(const C& o); bool operator==(const C& o); };");
    assert!(!c.has_operator_new());
    let ops: Vec<_> = c
        .methods()
        .filter_map(|m| match &m.kind {
            MethodKind::Operator(op) => Some(op.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(ops, vec!["=", "=="]);
}

#[test]
fn inline_method_body_statements() {
    let c = only_class(
        r#"
class Root {
public:
    void clear() {
        delete left;
        count = 0;
    }
private:
    Child* left;
    int count;
};
"#,
    );
    let clear = c.methods().find(|m| m.name == "clear").unwrap();
    let body = clear.body.as_ref().unwrap();
    assert!(matches!(&body.stmts[0], Stmt::Delete(d) if !d.is_array));
}

#[test]
fn delete_statement_shapes() {
    let unit = parse_source(
        r#"
void f() {
    delete p;
    delete[] arr;
    delete this->left;
    delete obj->child;
}
"#,
    );
    let body = unit.functions().next().unwrap().body.as_ref().unwrap();
    let deletes: Vec<&DeleteStmt> = body
        .stmts
        .iter()
        .filter_map(|s| match s {
            Stmt::Delete(d) => Some(d),
            _ => None,
        })
        .collect();
    assert_eq!(deletes.len(), 4);
    assert!(!deletes[0].is_array);
    assert!(deletes[1].is_array);
    let p2 = deletes[2].target.as_path().unwrap();
    assert!(p2.this_prefix);
    assert_eq!(p2.as_own_member(), Some("left"));
    let p3 = deletes[3].target.as_path().unwrap();
    assert_eq!(p3.segments, vec!["obj", "child"]);
    assert_eq!(p3.as_own_member(), None);
}

#[test]
fn assignment_from_new() {
    let unit = parse_source("void f() { left = new Child(1, 2); }");
    let body = unit.functions().next().unwrap().body.as_ref().unwrap();
    match &body.stmts[0] {
        Stmt::Expr(Expr::Assign(a), _) => {
            assert_eq!(a.lhs.as_path().unwrap().as_own_member(), Some("left"));
            match &*a.rhs {
                Expr::New(n) => {
                    assert_eq!(n.ty.name, "Child");
                    assert!(n.placement.is_none());
                    assert!(!n.is_array());
                }
                other => panic!("expected new, got {other:?}"),
            }
        }
        other => panic!("expected assignment, got {other:?}"),
    }
}

#[test]
fn placement_new_is_recognized() {
    let unit = parse_source("void f() { left = new(leftShadow) Child(); }");
    let body = unit.functions().next().unwrap().body.as_ref().unwrap();
    match &body.stmts[0] {
        Stmt::Expr(Expr::Assign(a), _) => match &*a.rhs {
            Expr::New(n) => {
                let pl = n.placement.unwrap();
                assert_eq!(unit.file.slice(pl), "leftShadow");
            }
            other => panic!("expected new, got {other:?}"),
        },
        other => panic!("expected assignment, got {other:?}"),
    }
}

#[test]
fn array_new_with_length() {
    let unit = parse_source("void f() { buffer = new char[length * 2]; }");
    let body = unit.functions().next().unwrap().body.as_ref().unwrap();
    match &body.stmts[0] {
        Stmt::Expr(Expr::Assign(a), _) => match &*a.rhs {
            Expr::New(n) => {
                assert!(n.is_array());
                assert_eq!(n.ty.name, "char");
                assert!(n.ty.is_builtin());
                assert_eq!(unit.file.slice(n.array_len.unwrap()), "length * 2");
            }
            other => panic!("expected new, got {other:?}"),
        },
        other => panic!("expected assignment, got {other:?}"),
    }
}

#[test]
fn local_decl_with_new() {
    let unit = parse_source("void f() { Child* c = new Child(); }");
    let body = unit.functions().next().unwrap().body.as_ref().unwrap();
    match &body.stmts[0] {
        Stmt::Decl(d) => {
            assert_eq!(d.name, "c");
            assert_eq!(d.ty.pointers, 1);
            assert!(matches!(d.init, Some(Expr::New(_))));
        }
        other => panic!("expected decl, got {other:?}"),
    }
}

#[test]
fn out_of_line_method_definitions() {
    let unit = parse_source(
        r#"
Car::Car(int n) : wheels(0) { count = n; }
Car::~Car() { delete wheels; }
void Car::drive(int km) { pos = pos + km; }
Wheel* Car::wheel(int i) { return 0; }
"#,
    );
    let fns: Vec<_> = unit.functions().collect();
    assert_eq!(fns.len(), 4);
    assert_eq!(fns[0].kind, MethodKind::Ctor);
    assert_eq!(fns[0].qualifier.as_deref(), Some("Car"));
    assert!(fns[0].init_list.is_some());
    assert_eq!(fns[1].kind, MethodKind::Dtor);
    assert_eq!(fns[2].name, "drive");
    assert_eq!(fns[2].qualifier.as_deref(), Some("Car"));
    assert_eq!(fns[3].name, "wheel");
}

#[test]
fn ctor_initializer_lists_are_structured() {
    let unit = parse_source(
        r#"
class Root {
public:
    Root(int v) : base(v), left(new Child(v)), count(0), buf{0} {
        use(v);
    }
private:
    Child* left;
    int base;
    int count;
    int buf;
};
Root::Root() : left(new Child(1)), count(7) { }
"#,
    );
    let c = unit.class("Root").unwrap();
    let ctor = c.constructors().next().unwrap();
    let members: Vec<_> = ctor.ctor_inits.iter().map(|i| i.member.clone()).collect();
    assert_eq!(members, vec!["base", "left", "count", "buf"]);
    let left = &ctor.ctor_inits[1];
    let n = left.new_expr.as_ref().expect("structured new in init list");
    assert_eq!(n.ty.name, "Child");
    assert!(ctor.ctor_inits[0].new_expr.is_none());

    // Out-of-line constructor too.
    let out_of_line = unit.functions().next().unwrap();
    assert_eq!(out_of_line.kind, MethodKind::Ctor);
    assert_eq!(out_of_line.ctor_inits.len(), 2);
    assert!(out_of_line.ctor_inits[0].new_expr.is_some());
}

#[test]
fn free_function() {
    let unit = parse_source("int main() { return 0; }");
    let f = unit.functions().next().unwrap();
    assert_eq!(f.name, "main");
    assert!(f.qualifier.is_none());
}

#[test]
fn includes_are_recorded() {
    let unit = parse_source("#include <vector>\n#include \"car.h\"\n#define N 5\nint x;\n");
    let incs: Vec<_> = unit.includes().collect();
    assert_eq!(incs.len(), 2);
    assert_eq!(incs[0].path, "vector");
    assert!(incs[0].system);
    assert_eq!(incs[1].path, "car.h");
    assert!(!incs[1].system);
}

#[test]
fn namespaces_are_entered() {
    let unit =
        parse_source("namespace billing { class Cdr { char* buf; }; void f() { delete g; } }");
    assert_eq!(unit.classes().count(), 1);
    assert_eq!(unit.class("Cdr").unwrap().pointer_fields().count(), 1);
    assert_eq!(unit.functions().count(), 1);
}

#[test]
fn templates_are_raw() {
    let unit = parse_source("template <class T> class Vec { T* data; };\nclass Normal { int x; };");
    // The template class must NOT appear as a ClassDef; Normal must.
    assert_eq!(unit.classes().count(), 1);
    assert_eq!(unit.classes().next().unwrap().name, "Normal");
}

#[test]
fn forward_declarations_are_raw() {
    let unit = parse_source("class Fwd;\nclass Real { int x; };");
    assert_eq!(unit.classes().count(), 1);
    assert_eq!(unit.classes().next().unwrap().name, "Real");
}

#[test]
fn garbage_between_classes_does_not_derail() {
    let unit = parse_source(
        r#"
class A { int x; };
@@ %% utterly unparsable $$ tokens here ;
class B { char* p; };
"#,
    );
    let names: Vec<_> = unit.classes().map(|c| c.name.clone()).collect();
    assert_eq!(names, vec!["A", "B"]);
}

#[test]
fn nested_types_inside_class_are_raw_members() {
    let c = only_class(
        r#"
class Outer {
    enum Color { Red, Green };
    struct Inner { int y; };
    typedef int MyInt;
    Child* p;
};
"#,
    );
    // Only the pointer field is structured.
    assert_eq!(c.fields().count(), 1);
    assert_eq!(c.pointer_fields().next().unwrap().name, "p");
}

#[test]
fn control_flow_bodies_are_structured() {
    let unit = parse_source(
        r#"
void f() {
    if (a) { delete x; } else delete y;
    while (b) delete z;
    for (int i = 0; i < n; i++) { delete w; }
    do { delete v; } while (c);
}
"#,
    );
    let body = unit.functions().next().unwrap().body.clone().unwrap();
    let n = cxx_frontend::visit::count_stmts(&body, |s| matches!(s, Stmt::Delete(_)));
    assert_eq!(n, 5);
}

#[test]
fn switch_bodies_are_structured() {
    let unit = parse_source(
        r#"
void f(int mode) {
    switch (mode) {
    case 0:
        delete a;
        break;
    case 1:
    case 2: {
        delete b;
        break;
    }
    default:
        delete c;
    }
}
"#,
    );
    let body = unit.functions().next().unwrap().body.clone().unwrap();
    let dels = cxx_frontend::visit::count_stmts(&body, |s| matches!(s, Stmt::Delete(_)));
    assert_eq!(dels, 3, "deletes inside switch arms must be visible");
    let switches = cxx_frontend::visit::count_stmts(&body, |s| matches!(s, Stmt::Switch(_)));
    assert_eq!(switches, 1);
}

#[test]
fn qualified_types_in_fields() {
    let c = only_class("class C { std::string* name; Tools::RWCString label; };");
    let name = c.field("name").unwrap();
    assert_eq!(name.ty.name, "std::string");
    assert_eq!(name.ty.pointers, 1);
    let label = c.field("label").unwrap();
    assert_eq!(label.ty.name, "Tools::RWCString");
}

#[test]
fn builtin_multiword_types() {
    let c = only_class("class C { unsigned long count; signed char* bytes; };");
    assert_eq!(c.field("count").unwrap().ty.name, "unsigned long");
    let bytes = c.field("bytes").unwrap();
    assert_eq!(bytes.ty.name, "signed char");
    assert_eq!(bytes.ty.pointers, 1);
    assert!(bytes.ty.is_builtin());
}

#[test]
fn static_fields_excluded_from_pointer_fields() {
    let c = only_class("class C { static Child* shared; Child* own; };");
    let ptrs: Vec<_> = c.pointer_fields().map(|f| f.name.clone()).collect();
    assert_eq!(ptrs, vec!["own"]);
}

#[test]
fn method_bodies_with_raw_statements_survive() {
    let unit = parse_source(
        r#"
void f() {
    int x = a + b * c;
    printf("%d\n", x);
    delete p;
    obj->method(1, 2)->chain();
}
"#,
    );
    let body = unit.functions().next().unwrap().body.clone().unwrap();
    let dels = cxx_frontend::visit::count_stmts(&body, |s| matches!(s, Stmt::Delete(_)));
    assert_eq!(dels, 1);
    assert_eq!(body.stmts.len(), 4);
}

#[test]
fn class_spans_cover_definition() {
    let src = "class A { int x; };";
    let unit = parse_source(src);
    let c = unit.classes().next().unwrap();
    assert_eq!(unit.file.slice(c.span), src);
    assert_eq!(&src[c.lbrace as usize..=c.lbrace as usize], "{");
    assert_eq!(&src[c.rbrace as usize..=c.rbrace as usize], "}");
}

#[test]
fn unparsed_bytes_measures_raw_items() {
    let unit = parse_source("class A { int x; };");
    assert_eq!(unit.unparsed_bytes(), 0);
    assert_eq!(unit.unparsed_fraction(), 0.0);

    let unit = parse_source("template <class T> struct V { T* p; };");
    assert!(unit.unparsed_fraction() > 0.9, "whole file is a template");

    let unit =
        parse_source("namespace n { template <class T> struct V { T* p; }; class A { int x; }; }");
    let f = unit.unparsed_fraction();
    assert!(f > 0.2 && f < 0.8, "mixed namespace: {f}");
}

#[test]
fn empty_source() {
    let unit = parse_source("");
    assert!(unit.items.is_empty() || unit.items.iter().all(|i| i.span().is_empty()));
}

#[test]
fn bgw_like_component_parses() {
    // A miniature of the BGw shape: parent object owning raw byte buffers.
    let unit = parse_source(
        r#"
#include <string.h>

class CdrBuffer {
public:
    CdrBuffer() { buffer = 0; length = 0; }
    ~CdrBuffer() { delete[] buffer; }
    void fill(const char* src, int len) {
        delete[] buffer;
        buffer = new char[len];
        memcpy(buffer, src, len);
        length = len;
    }
private:
    char* buffer;
    int length;
};
"#,
    );
    let c = unit.class("CdrBuffer").unwrap();
    assert_eq!(c.pointer_fields().count(), 1);
    let fill = c.methods().find(|m| m.name == "fill").unwrap();
    let body = fill.body.clone().unwrap();
    let dels =
        cxx_frontend::visit::count_stmts(&body, |s| matches!(s, Stmt::Delete(d) if d.is_array));
    assert_eq!(dels, 1);
}
