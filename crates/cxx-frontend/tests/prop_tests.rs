//! Property-based tests for the front end.

use cxx_frontend::rewrite::Rewriter;
use cxx_frontend::source::SourceFile;
use cxx_frontend::span::Span;
use cxx_frontend::{lexer, parse_source};
use proptest::prelude::*;

proptest! {
    /// The lexer must terminate and cover the input for arbitrary bytes
    /// (valid UTF-8 strings).
    #[test]
    fn lexer_never_panics_and_terminates(src in ".{0,400}") {
        let f = SourceFile::new(&src);
        let toks = lexer::lex(&f);
        prop_assert!(!toks.is_empty());
        // Tokens are ordered and within bounds.
        let mut last_end = 0u32;
        for t in &toks {
            prop_assert!(t.span.start <= t.span.end);
            prop_assert!(t.span.end <= f.len());
            prop_assert!(t.span.start >= last_end);
            last_end = t.span.start;
        }
    }

    /// The parser must never panic on arbitrary input.
    #[test]
    fn parser_never_panics(src in ".{0,400}") {
        let _ = parse_source(&src);
    }

    /// The parser must never panic on "C++-shaped" input assembled from
    /// plausible fragments (more likely to reach deep parser paths than
    /// uniform random text).
    #[test]
    fn parser_never_panics_on_cpp_shaped(parts in proptest::collection::vec(
        prop_oneof![
            Just("class A {"), Just("};"), Just("int x;"), Just("Child* p;"),
            Just("void f() {"), Just("}"), Just("delete p;"), Just("delete[] q;"),
            Just("p = new Child(1);"), Just("a = new(b) C();"), Just("if (x)"),
            Just("while (y)"), Just("for (;;)"), Just("return 0;"),
            Just("public:"), Just("virtual ~A();"), Just("A();"),
            Just("operator new(size_t);"), Just("template <class T>"),
            Just("namespace N {"), Just("#include <v>"), Just("("), Just(")"),
            Just("{"), Just("::"), Just("~"), Just(";"), Just("=")
        ], 0..40))
    {
        let src = parts.join("\n");
        let _ = parse_source(&src);
    }

    /// A rewriter with no edits reproduces the input exactly.
    #[test]
    fn rewrite_identity(src in ".{0,400}") {
        let r = Rewriter::new(SourceFile::new(&src));
        prop_assert_eq!(r.apply().unwrap(), src);
    }

    /// Applying disjoint replacements yields output whose length equals
    /// input length plus the net edit delta, and preserves all untouched
    /// bytes in order.
    #[test]
    fn rewrite_length_arithmetic(
        src in "[a-z]{20,80}",
        cuts in proptest::collection::btree_set(0usize..20, 0..6),
        text in "[A-Z]{0,5}",
    ) {
        let f = SourceFile::new(&src);
        let mut r = Rewriter::new(f);
        // Build disjoint 1-byte replacements at distinct even offsets.
        let mut delta: i64 = 0;
        for c in &cuts {
            let off = (c * 2) as u32;
            if off < src.len() as u32 {
                r.replace(Span::new(off, off + 1), text.clone());
                delta += text.len() as i64 - 1;
            }
        }
        let out = r.apply().unwrap();
        prop_assert_eq!(out.len() as i64, src.len() as i64 + delta);
    }

    /// Insertion order at equal offsets is stable (recording order).
    #[test]
    fn insertions_stable(offs in proptest::collection::vec(0u32..10, 1..8)) {
        let src = "0123456789";
        let mut r = Rewriter::new(SourceFile::new(src));
        for (i, &o) in offs.iter().enumerate() {
            r.insert_before(o, format!("[{i}]"));
        }
        let out = r.apply().unwrap();
        // All markers present exactly once.
        for i in 0..offs.len() {
            prop_assert_eq!(out.matches(&format!("[{i}]")).count(), 1);
        }
        // Markers at the same offset appear in recording order.
        for i in 0..offs.len() {
            for j in (i + 1)..offs.len() {
                if offs[i] == offs[j] {
                    let pi = out.find(&format!("[{i}]")).unwrap();
                    let pj = out.find(&format!("[{j}]")).unwrap();
                    prop_assert!(pi < pj);
                }
            }
        }
    }

    /// Parsed class definitions cover their original text: slicing the
    /// class span out of the source must start with `class`/`struct`.
    #[test]
    fn class_spans_anchor_on_keyword(name in "[A-Z][a-z]{1,8}", n_fields in 0usize..5) {
        let fields: String = (0..n_fields)
            .map(|i| format!("    Child* f{i};\n"))
            .collect();
        let src = format!("class {name} {{\n{fields}}};\n");
        let unit = parse_source(&src);
        let c = unit.classes().next().unwrap();
        prop_assert!(unit.file.slice(c.span).starts_with("class"));
        prop_assert_eq!(c.pointer_fields().count(), n_fields);
    }
}
