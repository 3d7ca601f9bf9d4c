//! Optional instrumentation: insert `::amplify::print_stats();` before
//! every exit from `main`, so users can verify pool and shadow reuse
//! without editing their program.
//!
//! `main` can return from anywhere — early-outs in `if` branches, returns
//! inside loops or `switch` arms — so the hook walks the body recursively
//! and instruments every `return` it finds, plus the closing brace for the
//! implicit `return 0;` fall-through. Returns hiding in statements the
//! frontend keeps as raw text are not seen (the usual frontend limitation).

use cxx_frontend::ast::{Block, Item, Stmt, TranslationUnit};
use cxx_frontend::Rewriter;

const CALL: &str = "::amplify::print_stats(); ";

/// Walk the statements of a braced block; returns here are in a
/// multi-statement context, so a plain insertion before them is valid.
fn hook_block(block: &Block, rw: &mut Rewriter) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Return(_, span) => rw.insert_before(span.start, CALL),
            other => hook_nested(other, rw),
        }
    }
}

/// Walk a statement in single-statement position (an unbraced `if`/loop
/// branch): a bare `return` there must be brace-wrapped so the branch
/// stays one statement after the insertion.
fn hook_branch(stmt: &Stmt, rw: &mut Rewriter) {
    match stmt {
        Stmt::Return(_, span) => {
            rw.insert_before(span.start, format!("{{ {CALL}"));
            rw.insert_before(span.end, " }");
        }
        other => hook_nested(other, rw),
    }
}

/// Descend into compound statements that can hide a `return`.
fn hook_nested(stmt: &Stmt, rw: &mut Rewriter) {
    match stmt {
        Stmt::Block(b) => hook_block(b, rw),
        Stmt::If(i) => {
            hook_branch(&i.then_branch, rw);
            if let Some(e) = &i.else_branch {
                hook_branch(e, rw);
            }
        }
        Stmt::While(l) | Stmt::For(l) | Stmt::DoWhile(l) | Stmt::Switch(l) => {
            hook_branch(&l.body, rw)
        }
        _ => {}
    }
}

/// Insert the stats call before every `return` in `main` (recursively)
/// and before the closing brace when `main` can fall through. Returns
/// true if a `main` definition was found.
pub(crate) fn apply(unit: &TranslationUnit, rw: &mut Rewriter) -> bool {
    for item in &unit.items {
        let Item::Function(f) = item else { continue };
        if f.name != "main" || f.qualifier.is_some() {
            continue;
        }
        let Some(body) = &f.body else { continue };
        hook_block(body, rw);
        // The implicit `return 0;`: only reachable when the last statement
        // is not itself a return.
        if !matches!(body.stmts.last(), Some(Stmt::Return(..))) {
            rw.insert_before(body.span.end - 1, CALL);
        }
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxx_frontend::{parse_source, Rewriter, SourceFile};

    fn run(src: &str) -> (String, bool) {
        let unit = parse_source(src);
        let mut rw = Rewriter::new(SourceFile::new(src));
        let found = apply(&unit, &mut rw);
        (rw.apply().unwrap(), found)
    }

    #[test]
    fn inserted_before_trailing_return() {
        let (out, found) = run("int main() { work(); return 0; }");
        assert!(found);
        assert!(out.contains("work(); ::amplify::print_stats(); return 0; }"), "got: {out}");
    }

    #[test]
    fn inserted_before_brace_without_return() {
        let (out, found) = run("int main() { work(); }");
        assert!(found);
        assert!(out.contains("work(); ::amplify::print_stats(); }"), "got: {out}");
    }

    #[test]
    fn no_main_no_insertion() {
        let (out, found) = run("int helper() { return 1; }");
        assert!(!found);
        assert!(!out.contains("print_stats"));
    }

    #[test]
    fn member_main_is_not_the_entry_point() {
        let (_, found) = run("class App { }; int App::main() { return 0; }");
        assert!(!found, "App::main is not ::main");
    }

    #[test]
    fn early_return_in_braced_if_is_hooked() {
        let (out, found) = run(
            "int main(int argc, char** argv) { if (argc < 2) { return 1; } work(); return 0; }",
        );
        assert!(found);
        assert!(
            out.contains("if (argc < 2) { ::amplify::print_stats(); return 1; }"),
            "early return missing the hook: {out}"
        );
        assert!(out.contains("work(); ::amplify::print_stats(); return 0; }"), "got: {out}");
    }

    #[test]
    fn unbraced_branch_return_is_brace_wrapped() {
        let (out, found) =
            run("int main(int argc, char** argv) { if (argc < 2) return 1; return 0; }");
        assert!(found);
        assert!(
            out.contains("if (argc < 2) { ::amplify::print_stats(); return 1; }"),
            "unbraced branch must stay a single statement: {out}"
        );
    }

    #[test]
    fn return_inside_loop_and_else_is_hooked() {
        let src = "int main() { for (int i = 0; i < 3; ++i) { if (bad(i)) return i; } \
                   if (x) { go(); } else return 9; }";
        let (out, found) = run(src);
        assert!(found);
        assert!(
            out.contains("if (bad(i)) { ::amplify::print_stats(); return i; }"),
            "loop-nested return: {out}"
        );
        assert!(
            out.contains("else { ::amplify::print_stats(); return 9; }"),
            "else-branch return: {out}"
        );
        // No trailing return: the fall-through exit is hooked too.
        assert!(out.trim_end().ends_with("::amplify::print_stats(); }"), "fall-through: {out}");
    }

    #[test]
    fn every_return_gets_exactly_one_hook() {
        let src = "int main() { while (true) { if (done()) { return 0; } step(); } return 2; }";
        let (out, found) = run(src);
        assert!(found);
        assert_eq!(out.matches("print_stats").count(), 2, "one hook per return: {out}");
        assert!(out.contains("{ ::amplify::print_stats(); return 0; }"), "got: {out}");
        assert!(out.contains("::amplify::print_stats(); return 2; }"), "got: {out}");
    }
}
