//! The pre-processing pipeline: parse → analyze → transform → rewrite.

use crate::analysis::{analyze_project, Analysis};
use crate::config::{AmplifyOptions, PoolTuning};
use crate::report::Report;
use crate::runtime_hdr;
use crate::transform;
use cxx_frontend::ast::TranslationUnit;
use cxx_frontend::{parse_source, Rewriter};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of amplifying one source file.
#[derive(Debug, Clone)]
pub struct AmplifiedSource {
    /// The rewritten source text.
    pub text: String,
    /// What was transformed.
    pub report: Report,
}

/// The pre-processor. "There is no need for special expertise ... Instead
/// they can go on using the traditional programming and design methods and
/// use the pre-processor when compiling the system" (§1).
#[derive(Debug, Clone, Default)]
pub struct Amplifier {
    options: AmplifyOptions,
}

impl Amplifier {
    /// A pre-processor with the given options.
    pub fn new(options: AmplifyOptions) -> Self {
        Amplifier { options }
    }

    /// Amplify one source string.
    pub fn amplify_source(&self, name: &str, text: &str) -> AmplifiedSource {
        self.amplify_sources(&[(name, text)]).pop().expect("one file in, one out")
    }

    /// Amplify several files as one project: class declarations in any
    /// file (headers) are visible when rewriting method bodies in every
    /// other file — the `.h`/`.cpp` split of real C++ code bases.
    pub fn amplify_sources(&self, files: &[(&str, &str)]) -> Vec<AmplifiedSource> {
        self.amplify_project(files).0
    }

    /// Amplify a project and also report which classes were amplified
    /// (enabled in the project-wide class table), sorted and deduplicated
    /// — the class list profile-guided tuning specializes when the tuning
    /// itself names none.
    fn amplify_project(&self, files: &[(&str, &str)]) -> (Vec<AmplifiedSource>, Vec<String>) {
        let units: Vec<TranslationUnit> =
            files.iter().map(|(_, text)| parse_source(text)).collect();
        let analyses = analyze_project(&units, &self.options);
        let mut amplified: Vec<String> = analyses
            .iter()
            .flat_map(|a| a.classes.values())
            .filter(|c| c.enabled)
            .map(|c| c.name.clone())
            .collect();
        amplified.sort();
        amplified.dedup();
        let outputs = units
            .iter()
            .zip(&analyses)
            .zip(files)
            .map(|((unit, analysis), (_, text))| self.rewrite_unit(unit, analysis, text))
            .collect();
        (outputs, amplified)
    }

    fn rewrite_unit(
        &self,
        unit: &TranslationUnit,
        analysis: &Analysis,
        original: &str,
    ) -> AmplifiedSource {
        let mut rw = Rewriter::new(unit.file.clone());
        let mut report = Report::default();

        transform::shadow_fields::apply(analysis, &mut rw, &mut report);
        transform::operators::apply(analysis, &mut rw, &mut report);
        transform::rewrites::apply(analysis, &mut rw, &mut report);
        if self.options.amplify_arrays {
            transform::arrays::apply(analysis, &mut rw, &mut report);
        }
        transform::include::apply(unit, &mut rw, &self.options.runtime_header);
        if self.options.inject_stats {
            transform::stats_hook::apply(unit, &mut rw);
        }
        report.sites_left_untouched += analysis.untouched_sites;
        report.unparsed_bytes = unit.unparsed_bytes() as u64;
        report.source_bytes = unit.file.len() as u64;

        let text = rw.apply().unwrap_or_else(|e| {
            // An edit conflict is a pre-processor bug; fail safe by
            // returning the original source unmodified.
            debug_assert!(false, "rewrite conflict: {e}");
            original.to_string()
        });
        AmplifiedSource { text, report }
    }

    /// The runtime header matching this configuration.
    pub fn runtime_header(&self) -> String {
        runtime_hdr::generate(&self.options)
    }

    /// The runtime header with profile-guided tuning applied to the given
    /// classes when the tuning itself names none (the `amplify_files`
    /// path, where the amplified class list is known).
    fn runtime_header_for(&self, amplified_classes: &[String]) -> String {
        match &self.options.pool_tuning {
            Some(t) if t.classes.is_empty() && !t.is_default() => {
                let mut options = self.options.clone();
                options.pool_tuning =
                    Some(PoolTuning { classes: amplified_classes.to_vec(), ..t.clone() });
                runtime_hdr::generate(&options)
            }
            _ => self.runtime_header(),
        }
    }

    /// Amplify files on disk into `out_dir` (same file names), writing the
    /// runtime header next to them. All inputs are processed as **one
    /// project** (headers inform the rewriting of sources). Returns the
    /// merged report.
    pub fn amplify_files<P: AsRef<Path>>(
        &self,
        inputs: &[P],
        out_dir: &Path,
    ) -> io::Result<Report> {
        fs::create_dir_all(out_dir)?;
        let mut names = Vec::with_capacity(inputs.len());
        let mut texts = Vec::with_capacity(inputs.len());
        for input in inputs {
            let input = input.as_ref();
            texts.push(fs::read_to_string(input)?);
            names.push(
                input.file_name().and_then(|n| n.to_str()).unwrap_or("input.cpp").to_string(),
            );
        }
        let files: Vec<(&str, &str)> =
            names.iter().map(String::as_str).zip(texts.iter().map(String::as_str)).collect();
        let (outputs, amplified_classes) = self.amplify_project(&files);

        let mut merged = Report::default();
        for (name, out) in names.iter().zip(&outputs) {
            fs::write(out_dir.join(name), &out.text)?;
            merged.merge(&out.report);
        }
        let hdr_path: PathBuf = out_dir.join(&self.options.runtime_header);
        fs::write(hdr_path, self.runtime_header_for(&amplified_classes))?;
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAR: &str = r#"
#include <cstdio>

class Engine {
public:
    Engine(int p) { power = p; }
private:
    int power;
};

class Car {
public:
    Car() { engine = 0; plate = 0; }
    ~Car() {
        delete engine;
        delete[] plate;
    }
    void build(int power, int len) {
        engine = new Engine(power);
        plate = new char[len];
    }
private:
    Engine* engine;
    char* plate;
};
"#;

    #[test]
    fn full_pipeline_applies_all_transforms() {
        let out = Amplifier::new(AmplifyOptions::default()).amplify_source("car.cpp", CAR);
        let t = &out.text;
        assert!(t.contains("Engine* engineShadow;"), "shadow field missing: {t}");
        assert!(t.contains("void* plateShadow;"));
        assert!(t.contains("::amplify::Pool< Car >::alloc"));
        assert!(t.contains("::amplify::Pool< Engine >::alloc"));
        assert!(t.contains("if (engine) { engine->~Engine(); engineShadow = engine; }"));
        assert!(t.contains("engine = new(engineShadow) Engine(power);"));
        assert!(t.contains("plateShadow = ::amplify::shadow_array(plate);"));
        assert!(t.contains(
            "plate = (char*) ::amplify::array_realloc(plateShadow, (len), sizeof(char));"
        ));
        assert!(t.contains("#include \"amplify_runtime.hpp\""));

        let r = &out.report;
        assert_eq!(r.classes_seen, 2);
        assert_eq!(r.classes_amplified, 2);
        assert_eq!(r.shadow_fields, 1);
        assert_eq!(r.array_shadow_fields, 1);
        assert_eq!(r.delete_rewrites, 1);
        assert_eq!(r.new_rewrites, 1);
        assert_eq!(r.array_rewrites, 2);
    }

    #[test]
    fn untouched_code_passes_through_verbatim() {
        let src = "int add(int a, int b) { return a + b; }\n";
        let out = Amplifier::new(AmplifyOptions::default()).amplify_source("f.cpp", src);
        assert!(out.text.ends_with(src));
    }

    #[test]
    fn unparsed_fraction_reported() {
        // A template (outside the subset) plus a parsable class.
        let src = "template <class T> class Vec { T* p; };\nclass A { int x; };\n";
        let out = Amplifier::new(AmplifyOptions::default()).amplify_source("f.cpp", src);
        let unparsed = |r: &Report| r.unparsed_bytes as f64 / r.source_bytes as f64;
        let f = unparsed(&out.report);
        assert!(f > 0.3 && f < 0.8, "fraction {f}");
        // The fully parsable car fixture is almost entirely in-subset.
        let car = Amplifier::new(AmplifyOptions::default()).amplify_source("car.cpp", CAR);
        assert!(unparsed(&car.report) < 0.05);
    }

    #[test]
    fn project_mode_rewrites_cpp_against_header() {
        let header = "class Item { public: Item(int v); int v; };\n\
                      class Box { public: ~Box(); void refill(int v); private: Item* item; };\n";
        let source = "#include \"box.h\"\n\
                      Box::~Box() { delete item; }\n\
                      void Box::refill(int v) { delete item; item = new Item(v); }\n";
        let amp = Amplifier::new(AmplifyOptions::default());
        let outs = amp.amplify_sources(&[("box.h", header), ("box.cpp", source)]);
        // Header: shadows + operators.
        assert!(outs[0].text.contains("Item* itemShadow;"));
        assert!(outs[0].text.contains("::amplify::Pool< Box >::alloc"));
        assert_eq!(outs[0].report.classes_amplified, 2);
        // Source: statement rewrites against the header's class table.
        assert!(outs[1].text.contains("if (item) { item->~Item(); itemShadow = item; }"));
        assert!(outs[1].text.contains("item = new(itemShadow) Item(v);"));
        assert_eq!(outs[1].report.delete_rewrites, 2);
        assert_eq!(outs[1].report.new_rewrites, 1);
        // No class bodies in the .cpp → no operators there.
        assert_eq!(outs[1].report.operators_injected, 0);
    }

    #[test]
    fn pipeline_is_idempotent_on_its_own_output() {
        let amp = Amplifier::new(AmplifyOptions::default());
        let once = amp.amplify_source("car.cpp", CAR);
        let twice = amp.amplify_source("car.cpp", &once.text);
        // Second pass must not re-rewrite placement news or re-add
        // operators (classes now have operator new → respected).
        assert_eq!(twice.report.new_rewrites, 0);
        assert_eq!(twice.report.operators_injected, 0);
        assert!(!twice.text.contains("new(engineShadow)(engineShadow"));
    }

    #[test]
    fn tuning_with_no_classes_specializes_every_amplified_class() {
        let dir = std::env::temp_dir().join("amplify_pipe_tuned_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let input = dir.join("car.cpp");
        fs::write(&input, CAR).unwrap();
        let out_dir = dir.join("out");
        let options = AmplifyOptions {
            pool_tuning: Some(PoolTuning { max_objects: 128, classes: Vec::new() }),
            exclude_classes: vec!["Engine".into()],
            ..Default::default()
        };
        Amplifier::new(options).amplify_files(&[&input], &out_dir).unwrap();
        let hdr = fs::read_to_string(out_dir.join("amplify_runtime.hpp")).unwrap();
        assert!(hdr.contains("struct PoolParams< ::Car >"), "missing Car specialization:\n{hdr}");
        assert!(!hdr.contains("PoolParams< ::Engine >"), "excluded class was specialized");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_round_trip() {
        let dir = std::env::temp_dir().join("amplify_pipe_test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let input = dir.join("car.cpp");
        fs::write(&input, CAR).unwrap();
        let out_dir = dir.join("out");
        let report =
            Amplifier::new(AmplifyOptions::default()).amplify_files(&[&input], &out_dir).unwrap();
        assert_eq!(report.classes_amplified, 2);
        assert!(out_dir.join("car.cpp").exists());
        assert!(out_dir.join("amplify_runtime.hpp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
