//! A fault-tolerant front end for the subset of C++ that the Amplify
//! pre-processor needs to understand.
//!
//! The original Amplify tool (Häggander, Lidén & Lundberg, ICPP 2001) was a
//! pre-processor that pattern-matched on C++ source and inserted
//! structure-pool optimizations before compilation. Faithful to that
//! architecture, this crate does **not** attempt to be a complete C++
//! compiler front end. Instead it provides:
//!
//! * a complete lexer for C++ tokens ([`lexer`]),
//! * a tolerant recursive-descent parser (`parser`) that recognizes the
//!   constructs the transformations need — class/struct definitions, data
//!   members, method bodies, `new` / `delete` expressions — and degrades
//!   gracefully to *raw spans* for anything else,
//! * a span-based [`rewrite::Rewriter`] in the style of clang's `Rewriter`:
//!   transformations are expressed as edits against the original text, so
//!   code the parser did not understand passes through byte-for-byte.
//!
//! # Example
//!
//! ```
//! use cxx_frontend::{parse_source, ast::Item};
//!
//! let src = r#"
//! class Car {
//! public:
//!     Car();
//!     ~Car();
//! private:
//!     Wheel* wheels;
//!     Engine* engine;
//!     int doors;
//! };
//! "#;
//! let unit = parse_source(src);
//! let class = unit
//!     .items
//!     .iter()
//!     .find_map(|i| match i {
//!         Item::Class(c) => Some(c),
//!         _ => None,
//!     })
//!     .unwrap();
//! assert_eq!(class.name, "Car");
//! assert_eq!(class.pointer_fields().count(), 2);
//! ```
#![warn(unreachable_pub)]

pub mod ast;
pub mod lexer;
mod parser;
pub mod rewrite;
pub mod source;
pub mod span;
mod token;
pub mod visit;

use ast::TranslationUnit;
pub use rewrite::Rewriter;
pub use source::SourceFile;

/// Lex and parse a source string into a [`TranslationUnit`].
///
/// This never fails: unrecognized regions are kept as raw spans.
pub fn parse_source(text: &str) -> TranslationUnit {
    let file = SourceFile::new(text);
    let tokens = lexer::lex(&file);
    parser::Parser::new(file, tokens).parse_unit()
}
