//! AST for the C++ subset the Amplify pre-processor understands.
//!
//! Every node carries the [`Span`] of its original text. Constructs outside
//! the subset are preserved as `Raw` spans — the rewriter copies them through
//! verbatim, exactly like the pattern-matching pre-processor of the paper.

use crate::source::SourceFile;
use crate::span::Span;

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct TranslationUnit {
    pub file: SourceFile,
    pub items: Vec<Item>,
}

impl TranslationUnit {
    /// Iterate over all class definitions, including those nested in
    /// namespaces.
    pub fn classes(&self) -> impl Iterator<Item = &ClassDef> {
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a ClassDef>) {
            for item in items {
                match item {
                    Item::Class(c) => out.push(c),
                    Item::Namespace(ns) => walk(&ns.items, out),
                    _ => {}
                }
            }
        }
        let mut v = Vec::new();
        walk(&self.items, &mut v);
        v.into_iter()
    }

    /// Find a class by name (first match wins).
    pub fn class(&self, name: &str) -> Option<&ClassDef> {
        self.classes().find(|c| c.name == name)
    }

    /// Iterate over all function definitions with bodies, including
    /// out-of-line method definitions and functions in namespaces.
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a FunctionDef>) {
            for item in items {
                match item {
                    Item::Function(f) => out.push(f),
                    Item::Namespace(ns) => walk(&ns.items, out),
                    _ => {}
                }
            }
        }
        let mut v = Vec::new();
        walk(&self.items, &mut v);
        v.into_iter()
    }

    /// All `#include` directives in order of appearance.
    pub fn includes(&self) -> impl Iterator<Item = &IncludeDirective> {
        self.items.iter().filter_map(|i| match i {
            Item::Include(inc) => Some(inc),
            _ => None,
        })
    }

    /// Bytes covered by top-level items the parser kept as raw text
    /// (templates, unknown declarations, recovered garbage). A measure of
    /// how much of the file is outside the amplifiable subset.
    pub fn unparsed_bytes(&self) -> u32 {
        fn walk(items: &[Item]) -> u32 {
            items
                .iter()
                .map(|i| match i {
                    Item::Raw(s) => s.len(),
                    Item::Namespace(ns) => walk(&ns.items),
                    _ => 0,
                })
                .sum()
        }
        walk(&self.items)
    }

    /// Fraction of the file's bytes in unparsed top-level items, in
    /// `[0, 1]`.
    pub fn unparsed_fraction(&self) -> f64 {
        if self.file.is_empty() {
            0.0
        } else {
            self.unparsed_bytes() as f64 / self.file.len() as f64
        }
    }
}

/// Top-level item.
#[derive(Debug, Clone)]
pub enum Item {
    /// `#include` directive (recorded so generated headers can be inserted
    /// after the last include).
    Include(IncludeDirective),
    /// Any other preprocessor directive.
    Directive(Span),
    /// A class or struct definition.
    Class(ClassDef),
    /// A free function or an out-of-line method definition with a body.
    Function(FunctionDef),
    /// `namespace N { ... }`.
    Namespace(NamespaceDef),
    /// Anything the parser did not interpret (declarations, templates,
    /// globals, ...). Preserved verbatim.
    Raw(Span),
}

impl Item {
    /// The span of this item in the original source.
    pub fn span(&self) -> Span {
        match self {
            Item::Include(i) => i.span,
            Item::Directive(s) => *s,
            Item::Class(c) => c.span,
            Item::Function(f) => f.span,
            Item::Namespace(n) => n.span,
            Item::Raw(s) => *s,
        }
    }
}

/// An `#include "..."` or `#include <...>` directive.
#[derive(Debug, Clone)]
pub struct IncludeDirective {
    /// The include path without quotes/brackets.
    pub path: String,
    /// True for `<...>` form.
    pub system: bool,
    pub span: Span,
}

/// `namespace N { ... }`.
#[derive(Debug, Clone)]
pub struct NamespaceDef {
    pub name: String,
    pub items: Vec<Item>,
    pub span: Span,
}

/// Access control levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Public,
    Private,
    Protected,
}

/// A class or struct definition.
#[derive(Debug, Clone)]
pub struct ClassDef {
    pub name: String,
    pub is_struct: bool,
    /// Base class names (access specifiers dropped).
    pub bases: Vec<String>,
    pub members: Vec<Member>,
    /// Whole definition including the trailing `;`.
    pub span: Span,
    /// Offset of the opening `{`.
    pub lbrace: u32,
    /// Offset of the closing `}`.
    pub rbrace: u32,
}

impl ClassDef {
    /// Data members (fields) of this class.
    pub fn fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.members.iter().filter_map(|m| match m {
            Member::Field(f) => Some(f),
            _ => None,
        })
    }

    /// Non-static pointer-typed data members — the candidates for shadow
    /// pointers.
    pub fn pointer_fields(&self) -> impl Iterator<Item = &FieldDecl> {
        self.fields().filter(|f| !f.is_static && f.ty.pointers > 0 && f.array.is_none())
    }

    /// Methods defined or declared in the class body.
    pub fn methods(&self) -> impl Iterator<Item = &MethodDef> {
        self.members.iter().filter_map(|m| match m {
            Member::Method(f) => Some(f),
            _ => None,
        })
    }

    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&FieldDecl> {
        self.fields().find(|f| f.name == name)
    }

    /// True if the class already declares `operator new` (the pre-processor
    /// must respect it and not generate another one — §3.2).
    pub fn has_operator_new(&self) -> bool {
        self.methods().any(|m| matches!(&m.kind, MethodKind::Operator(op) if op == "new"))
    }

    /// True if the class already declares `operator delete`.
    pub fn has_operator_delete(&self) -> bool {
        self.methods().any(|m| matches!(&m.kind, MethodKind::Operator(op) if op == "delete"))
    }

    /// True if the class declares a destructor.
    pub fn has_destructor(&self) -> bool {
        self.methods().any(|m| matches!(m.kind, MethodKind::Dtor))
    }

    /// Constructors declared in the class body.
    pub fn constructors(&self) -> impl Iterator<Item = &MethodDef> {
        self.methods().filter(|m| matches!(m.kind, MethodKind::Ctor))
    }
}

/// A member of a class body.
#[derive(Debug, Clone)]
pub enum Member {
    Field(FieldDecl),
    Method(MethodDef),
    /// `public:`, `private:`, `protected:`.
    Access(Access, Span),
    /// Anything else (nested types, friends, typedefs, ...).
    Raw(Span),
}

/// A single declared data member. `int a, b;` produces two `FieldDecl`s
/// sharing the statement span.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    pub ty: TypeRef,
    pub name: String,
    pub is_static: bool,
    /// `Some(span_of_brackets_contents)` for `char buf[16]`; `None`
    /// otherwise.
    pub array: Option<Span>,
    /// Span of the whole declaration statement (shared by grouped
    /// declarators).
    pub span: Span,
}

impl FieldDecl {
    /// The conventional shadow-field name the pre-processor generates
    /// (`left` → `leftShadow`), as in the paper's Figure in §3.2.
    pub fn shadow_name(&self) -> String {
        format!("{}Shadow", self.name)
    }
}

/// A (possibly qualified) type reference: `const std::string*`,
/// `unsigned long`, `Child*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeRef {
    /// Qualified name with `::` separators; builtin multi-keyword types are
    /// joined with single spaces (`unsigned long`).
    pub name: String,
    pub is_const: bool,
    /// Number of `*`s.
    pub pointers: u8,
    pub is_ref: bool,
    /// Template argument list text (including angle brackets), if any.
    pub template_args: Option<Span>,
    pub span: Span,
}

impl TypeRef {
    /// A simple named type with no qualifiers.
    #[cfg(test)]
    pub(crate) fn named(name: &str, span: Span) -> Self {
        TypeRef {
            name: name.to_string(),
            is_const: false,
            pointers: 0,
            is_ref: false,
            template_args: None,
            span,
        }
    }

    /// True for builtin scalar types (`char`, `unsigned long`, ...) — the
    /// "data types" of the paper's BGw extension (§5.2).
    pub fn is_builtin(&self) -> bool {
        self.name.split(' ').all(|w| {
            matches!(
                w,
                "void"
                    | "bool"
                    | "char"
                    | "short"
                    | "int"
                    | "long"
                    | "float"
                    | "double"
                    | "signed"
                    | "unsigned"
            )
        })
    }
}

/// What kind of method a [`MethodDef`] is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MethodKind {
    /// Constructor (name equals the class name).
    Ctor,
    /// Destructor (`~Name`).
    Dtor,
    /// `operator X` — the string is the operator text (`new`, `delete`,
    /// `new[]`, `=`, `==`, ...).
    Operator(String),
    /// Ordinary named method or free function.
    Normal,
}

/// One entry of a constructor initializer list: `member(args)` or
/// `member{args}`. Base-class initializers take the same shape (the
/// "member" is then a type name; consumers filter by field lookup).
#[derive(Debug, Clone)]
pub struct CtorInit {
    pub member: String,
    /// The initializer parsed as a `new` expression, when it is exactly
    /// one (`left(new Child(...))`) — the shape Amplify rewrites.
    pub new_expr: Option<NewExpr>,
    /// Whole entry span (`member(...)`).
    pub span: Span,
}

/// A method (inline in a class body, or out-of-line `T C::f(...) {...}`),
/// or a free function.
#[derive(Debug, Clone)]
pub struct MethodDef {
    pub name: String,
    pub kind: MethodKind,
    /// For out-of-line definitions: the class the method belongs to.
    /// `None` for inline members (the enclosing [`ClassDef`] is implied) and
    /// free functions.
    pub qualifier: Option<String>,
    pub is_virtual: bool,
    pub is_static: bool,
    /// Span of the parameter list including parentheses.
    pub params: Span,
    /// Constructor initializer list span (`: a(1), b(2)`), if present.
    pub init_list: Option<Span>,
    /// Parsed initializer-list entries (constructors only).
    pub ctor_inits: Vec<CtorInit>,
    /// The body, if this is a definition; `None` for pure declarations.
    pub body: Option<Block>,
    pub span: Span,
}

/// Alias: top-level function definitions reuse the method representation.
pub(crate) type FunctionDef = MethodDef;

impl MethodDef {
    /// True if this defines (rather than merely declares) the function.
    pub(crate) fn is_definition(&self) -> bool {
        self.body.is_some()
    }
}

/// A `{ ... }` block of statements.
#[derive(Debug, Clone)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    /// Span including the braces.
    pub span: Span,
}

/// A statement. The parser recognizes the patterns the Amplify
/// transformations need and falls back to `Raw` for anything else.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `delete x;` or `delete[] x;`.
    Delete(DeleteStmt),
    /// An expression statement (recognized shapes only — see [`Expr`]).
    Expr(Expr, Span),
    /// A local declaration with optional initializer:
    /// `Child* c = new Child(1);`.
    Decl(LocalDecl),
    /// `return expr;` / `return;`.
    Return(Option<Expr>, Span),
    /// `if (...) stmt [else stmt]` — condition kept as raw text.
    If(IfStmt),
    /// `while (...) stmt`.
    While(LoopStmt),
    /// `for (...;...;...) stmt`.
    For(LoopStmt),
    /// `do stmt while (...);`.
    DoWhile(LoopStmt),
    /// `switch (...) { ... }` — condition raw, body structured (case
    /// labels appear as raw statements inside the block).
    Switch(LoopStmt),
    /// A nested `{ ... }` block.
    Block(Block),
    /// Anything else, preserved verbatim.
    Raw(Span),
}

/// `delete x;` / `delete[] x;`.
#[derive(Debug, Clone)]
pub struct DeleteStmt {
    pub is_array: bool,
    pub target: Expr,
    pub span: Span,
}

/// A local variable declaration statement.
#[derive(Debug, Clone)]
pub struct LocalDecl {
    pub ty: TypeRef,
    pub name: String,
    pub init: Option<Expr>,
    pub span: Span,
}

/// `if (...) ... [else ...]`.
#[derive(Debug, Clone)]
pub struct IfStmt {
    /// Condition text including parentheses.
    pub cond: Span,
    pub then_branch: Box<Stmt>,
    pub else_branch: Option<Box<Stmt>>,
    pub span: Span,
}

/// Shared shape for `while` / `for` / `do-while`.
#[derive(Debug, Clone)]
pub struct LoopStmt {
    /// Loop header text including parentheses (condition or for-clauses).
    pub header: Span,
    pub body: Box<Stmt>,
    pub span: Span,
}

/// An expression. Only the shapes the transformations pattern-match on are
/// structured; everything else is `Raw`.
#[derive(Debug, Clone)]
pub enum Expr {
    /// `new T(args)`, `new T[len]`, `new (place) T(args)`.
    New(NewExpr),
    /// `lhs = rhs`.
    Assign(AssignExpr),
    /// An lvalue path: `x`, `this->x`, `a.b->c`.
    Path(PathExpr),
    /// A call whose callee is a path: `f(a, b)`, `obj->m(x)`. Arguments are
    /// kept as raw text.
    Call(CallExpr),
    /// Integer literal (useful for recognizing `= 0` style inits).
    Int(i64, Span),
    /// Anything else, preserved verbatim.
    Raw(Span),
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::New(n) => n.span,
            Expr::Assign(a) => a.span,
            Expr::Path(p) => p.span,
            Expr::Call(c) => c.span,
            Expr::Int(_, s) => *s,
            Expr::Raw(s) => *s,
        }
    }

    /// If this expression is a path, return it.
    pub fn as_path(&self) -> Option<&PathExpr> {
        match self {
            Expr::Path(p) => Some(p),
            _ => None,
        }
    }
}

/// A `new` expression.
#[derive(Debug, Clone)]
pub struct NewExpr {
    /// Placement argument list contents (without parens), if present.
    pub placement: Option<Span>,
    pub ty: TypeRef,
    /// Constructor argument list contents (without parens), if present.
    pub ctor_args: Option<Span>,
    /// Array length expression text for `new T[len]`.
    pub array_len: Option<Span>,
    pub span: Span,
}

impl NewExpr {
    /// True for `new T[...]`.
    pub fn is_array(&self) -> bool {
        self.array_len.is_some()
    }
}

/// `lhs = rhs` (simple assignment only; compound assignments stay raw).
#[derive(Debug, Clone)]
pub struct AssignExpr {
    pub lhs: Box<Expr>,
    pub rhs: Box<Expr>,
    pub span: Span,
}

/// An lvalue path. `this->a.b->c` becomes
/// `{ this_prefix: true, segments: ["a", "b", "c"] }`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpr {
    /// True if the path begins with `this->`.
    pub this_prefix: bool,
    pub segments: Vec<String>,
    pub span: Span,
}

impl PathExpr {
    /// If the path plausibly denotes a direct member of the enclosing class
    /// (`x` or `this->x`), return the member name.
    ///
    /// The pre-processor, like the paper's, only rewrites accesses to the
    /// *own* members of the class whose method it is transforming.
    pub fn as_own_member(&self) -> Option<&str> {
        if self.segments.len() == 1 {
            Some(&self.segments[0])
        } else {
            None
        }
    }
}

/// A call with a path callee.
#[derive(Debug, Clone)]
pub struct CallExpr {
    pub callee: PathExpr,
    /// Argument list contents (without parens).
    pub args: Span,
    pub span: Span,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(a: u32, b: u32) -> Span {
        Span::new(a, b)
    }

    #[test]
    fn shadow_name_convention() {
        let f = FieldDecl {
            ty: TypeRef::named("Child", sp(0, 5)),
            name: "left".into(),
            is_static: false,
            array: None,
            span: sp(0, 12),
        };
        assert_eq!(f.shadow_name(), "leftShadow");
    }

    #[test]
    fn builtin_detection() {
        let mut t = TypeRef::named("unsigned long", sp(0, 13));
        assert!(t.is_builtin());
        t.name = "Engine".into();
        assert!(!t.is_builtin());
        t.name = "std::string".into();
        assert!(!t.is_builtin());
    }

    #[test]
    fn own_member_paths() {
        let p = PathExpr { this_prefix: true, segments: vec!["left".into()], span: sp(0, 10) };
        assert_eq!(p.as_own_member(), Some("left"));
        let q = PathExpr {
            this_prefix: false,
            segments: vec!["car".into(), "engine".into()],
            span: sp(0, 11),
        };
        assert_eq!(q.as_own_member(), None);
    }
}
