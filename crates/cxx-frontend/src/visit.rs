//! Recursive statement walkers used by the Amplify analysis.

use crate::ast::*;

/// Visit every statement in a block, depth-first, including statements
/// nested inside `if` / `while` / `for` / `do` / blocks.
pub fn walk_stmts<'a, F: FnMut(&'a Stmt)>(block: &'a Block, f: &mut F) {
    for stmt in &block.stmts {
        walk_stmt(stmt, f);
    }
}

fn walk_stmt<'a, F: FnMut(&'a Stmt)>(stmt: &'a Stmt, f: &mut F) {
    f(stmt);
    match stmt {
        Stmt::If(i) => {
            walk_stmt(&i.then_branch, f);
            if let Some(e) = &i.else_branch {
                walk_stmt(e, f);
            }
        }
        Stmt::While(l) | Stmt::For(l) | Stmt::DoWhile(l) | Stmt::Switch(l) => walk_stmt(&l.body, f),
        Stmt::Block(b) => {
            for s in &b.stmts {
                walk_stmt(s, f);
            }
        }
        _ => {}
    }
}

/// Count statements matching a predicate (convenience for tests and
/// reports).
pub fn count_stmts(block: &Block, mut pred: impl FnMut(&Stmt) -> bool) -> usize {
    let mut n = 0;
    walk_stmts(block, &mut |s| {
        if pred(s) {
            n += 1;
        }
    });
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_source;

    fn first_body(src: &str) -> Block {
        let unit = parse_source(src);
        let body = unit.functions().next().unwrap().body.clone().unwrap();
        body
    }

    #[test]
    fn walks_nested_statements() {
        let body =
            first_body("void f() { if (x) { delete a; } else { while (y) delete b; } delete c; }");
        let n = count_stmts(&body, |s| matches!(s, Stmt::Delete(_)));
        assert_eq!(n, 3);
    }
}
