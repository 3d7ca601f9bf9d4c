//! Splice the runtime-header `#include` into the rewritten source.

use cxx_frontend::ast::TranslationUnit;
use cxx_frontend::Rewriter;

/// Insert `#include "<header>"` after the last existing include (so any
//  headers the original code needs come first), or at the top of the file
/// if there are none.
pub(crate) fn apply(unit: &TranslationUnit, rw: &mut Rewriter, header: &str) {
    let line = format!("#include \"{header}\"\n");
    match unit.includes().last() {
        Some(inc) => rw.insert_after(inc.span, format!("\n{line}")),
        None => rw.insert_before(0, line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxx_frontend::{parse_source, Rewriter, SourceFile};

    fn run(src: &str) -> String {
        let unit = parse_source(src);
        let mut rw = Rewriter::new(SourceFile::new(src));
        apply(&unit, &mut rw, "amplify_runtime.hpp");
        rw.apply().unwrap()
    }

    #[test]
    fn inserted_after_last_include() {
        let out = run("#include <vector>\n#include \"car.h\"\nint x;\n");
        let pos_car = out.find("car.h").unwrap();
        let pos_rt = out.find("amplify_runtime.hpp").unwrap();
        let pos_x = out.find("int x;").unwrap();
        assert!(pos_car < pos_rt && pos_rt < pos_x);
    }

    #[test]
    fn inserted_at_top_without_includes() {
        let out = run("int x;\n");
        assert!(out.starts_with("#include \"amplify_runtime.hpp\"\n"));
    }
}
