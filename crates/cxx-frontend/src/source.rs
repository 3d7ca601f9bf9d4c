//! Source file representation.

use crate::span::Span;
use std::sync::Arc;

/// An immutable source text, cheap to clone (the lexer, parser and
/// rewriter each hold one).
#[derive(Debug, Clone)]
pub struct SourceFile {
    text: Arc<str>,
}

impl SourceFile {
    /// Wrap a source text.
    pub fn new(text: &str) -> Self {
        SourceFile { text: text.into() }
    }

    /// Full source text.
    pub(crate) fn text(&self) -> &str {
        &self.text
    }

    /// Length of the text in bytes.
    pub fn len(&self) -> u32 {
        self.text.len() as u32
    }

    /// True if the file is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Slice the text by span.
    pub fn slice(&self, span: Span) -> &str {
        span.slice(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_file() {
        let f = SourceFile::new("");
        assert!(f.is_empty());
    }
}
