//! Byte-offset spans into a source file.

use serde::{Deserialize, Serialize};

/// A half-open byte range `[start, end)` into the original source text.
///
/// Spans are the currency of the whole front end: the parser attaches them to
/// every node it recognizes, and the [`crate::rewrite::Rewriter`] edits the
/// original text through them. Offsets are `u32` — single translation units
/// beyond 4 GiB are not a realistic input for a pre-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Span {
    pub start: u32,
    pub end: u32,
}

impl Span {
    /// Create a span; panics in debug builds if `start > end`.
    #[inline]
    pub fn new(start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "inverted span {start}..{end}");
        Span { start, end }
    }

    /// The empty span at a given offset (used for pure insertions).
    #[inline]
    pub(crate) fn at(offset: u32) -> Self {
        Span { start: offset, end: offset }
    }

    /// Length in bytes.
    #[inline]
    pub(crate) fn len(&self) -> u32 {
        self.end - self.start
    }

    /// True if the span covers no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if the two spans share at least one byte.
    #[inline]
    pub(crate) fn overlaps(&self, other: Span) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Index into a source string.
    #[inline]
    pub(crate) fn slice<'a>(&self, text: &'a str) -> &'a str {
        &text[self.start as usize..self.end as usize]
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let a = Span::new(2, 5);
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::at(7).is_empty());
    }

    #[test]
    fn containment_and_overlap() {
        let outer = Span::new(0, 10);
        let inner = Span::new(3, 7);
        assert!(outer.overlaps(inner));
        // Touching spans do not overlap (half-open ranges).
        assert!(!Span::new(0, 5).overlaps(Span::new(5, 9)));
    }

    #[test]
    fn slicing() {
        let text = "hello world";
        assert_eq!(Span::new(6, 11).slice(text), "world");
    }
}
