//! Property-based tests for the pre-processor.

use amplify::{Amplifier, AmplifyOptions};
use cxx_frontend::parse_source;
use proptest::prelude::*;

/// Build a syntactically plausible class from generated parts.
fn class_source(name: &str, ptr_fields: &[String], has_dtor: bool, rebuilds: &[String]) -> String {
    let mut s = format!("class {name} {{\npublic:\n    {name}() {{\n");
    for f in ptr_fields {
        s.push_str(&format!("        {f} = 0;\n"));
    }
    s.push_str("    }\n");
    if has_dtor {
        s.push_str(&format!("    ~{name}() {{\n"));
        for f in ptr_fields {
            s.push_str(&format!("        delete {f};\n"));
        }
        s.push_str("    }\n");
    }
    s.push_str("    void rebuild(int v) {\n");
    for f in rebuilds {
        s.push_str(&format!("        delete {f};\n"));
        s.push_str(&format!("        {f} = new Part(v);\n"));
    }
    s.push_str("    }\nprivate:\n");
    for f in ptr_fields {
        s.push_str(&format!("    Part* {f};\n"));
    }
    s.push_str("};\n");
    s
}

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}".prop_filter("keyword-free", |s| {
        !matches!(
            s.as_str(),
            "new"
                | "delete"
                | "if"
                | "else"
                | "for"
                | "do"
                | "int"
                | "char"
                | "long"
                | "class"
                | "void"
                | "return"
                | "while"
                | "this"
                | "bool"
                | "true"
                | "false"
                | "signed"
                | "float"
                | "double"
                | "short"
                | "case"
                | "goto"
                | "union"
                | "enum"
                | "struct"
                | "const"
                | "using"
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pre-processor never panics on arbitrary text.
    #[test]
    fn never_panics_on_arbitrary_input(src in ".{0,600}") {
        let amp = Amplifier::new(AmplifyOptions::default());
        let _ = amp.amplify_source("fuzz.cpp", &src);
    }

    /// On generated class-shaped input: the output re-parses, contains one
    /// shadow per pointer field, and the rewritten statement count matches
    /// the field usage.
    #[test]
    fn generated_classes_round_trip(
        fields in proptest::collection::btree_set(ident(), 1..5),
        has_dtor in any::<bool>(),
    ) {
        let fields: Vec<String> = fields.into_iter().collect();
        let src = format!(
            "class Part {{ public: Part(int v) {{ val = v; }} int val; }};\n{}",
            class_source("Root", &fields, has_dtor, &fields)
        );
        let amp = Amplifier::new(AmplifyOptions::default());
        let out = amp.amplify_source("gen.cpp", &src);

        // Re-parses into the same classes.
        let unit = parse_source(&out.text);
        prop_assert!(unit.class("Root").is_some());
        prop_assert!(unit.class("Part").is_some());

        // One shadow per pointer field.
        prop_assert_eq!(out.report.shadow_fields, fields.len());
        for f in &fields {
            let shadow = format!("{f}Shadow");
            prop_assert!(out.text.contains(&shadow), "missing shadow {}", shadow);
        }

        // Every `delete f;` rewritten: dtor (if present) + rebuild.
        let expected_deletes = fields.len() * (1 + usize::from(has_dtor));
        prop_assert_eq!(out.report.delete_rewrites, expected_deletes);
        prop_assert_eq!(out.report.new_rewrites, fields.len());
        prop_assert!(!out.text.contains("delete "), "all deletes rewritten");
    }

    /// Amplification is stable: amplifying the output again never
    /// re-rewrites placements or re-injects operators.
    #[test]
    fn second_pass_adds_no_operators(
        fields in proptest::collection::btree_set(ident(), 1..4),
    ) {
        let fields: Vec<String> = fields.into_iter().collect();
        let src = format!(
            "class Part {{ public: Part(int v) {{ val = v; }} int val; }};\n{}",
            class_source("Root", &fields, true, &fields)
        );
        let amp = Amplifier::new(AmplifyOptions::default());
        let once = amp.amplify_source("gen.cpp", &src);
        let twice = amp.amplify_source("gen.cpp", &once.text);
        prop_assert_eq!(twice.report.operators_injected, 0);
        prop_assert_eq!(twice.report.new_rewrites, 0);
        prop_assert_eq!(twice.report.delete_rewrites, 0);
    }

    /// Unparsed regions pass through byte-for-byte: splicing arbitrary
    /// garbage between two classes never corrupts it.
    #[test]
    fn raw_regions_are_preserved(garbage in "[-+/%!&|0-9 happy=;]{0,80}") {
        let src = format!(
            "class A {{ B* b; }};\nint marker_fn() {{ return 0; {garbage} ; }}\nclass B {{ int v; }};"
        );
        let amp = Amplifier::new(AmplifyOptions::default());
        let out = amp.amplify_source("gen.cpp", &src);
        prop_assert!(out.text.contains(&garbage), "garbage must survive verbatim");
    }
}
