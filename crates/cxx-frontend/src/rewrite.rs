//! Span-based source rewriting, in the style of clang's `Rewriter`.
//!
//! Transformations record edits (replace / insert / delete) against byte
//! spans of the *original* text; [`Rewriter::apply`] splices them into the
//! output in one pass. Unedited bytes — including everything the parser
//! kept as raw spans, plus all comments and whitespace — pass through
//! verbatim. This is what makes the pre-processor safe on code it does not
//! fully understand.

use crate::source::SourceFile;
use crate::span::Span;

/// A single pending edit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Edit {
    pub(crate) span: Span,
    pub(crate) replacement: String,
    /// Tie-break for multiple insertions at the same offset: lower seq
    /// first. Assigned in recording order.
    seq: u32,
}

/// Errors from [`Rewriter::apply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// Two non-insertion edits overlap; carries the two spans.
    Overlap(Span, Span),
    /// An edit extends past the end of the file.
    OutOfBounds(Span),
}

impl std::fmt::Display for RewriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RewriteError::Overlap(a, b) => write!(f, "overlapping edits at {a} and {b}"),
            RewriteError::OutOfBounds(s) => write!(f, "edit span {s} out of bounds"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Accumulates edits against one source file and applies them.
#[derive(Debug, Clone)]
pub struct Rewriter {
    file: SourceFile,
    edits: Vec<Edit>,
}

impl Rewriter {
    /// Start rewriting a file.
    pub fn new(file: SourceFile) -> Self {
        Rewriter { file, edits: Vec::new() }
    }

    /// Replace the text at `span` with `replacement`.
    pub fn replace(&mut self, span: Span, replacement: impl Into<String>) {
        let seq = self.edits.len() as u32;
        self.edits.push(Edit { span, replacement: replacement.into(), seq });
    }

    /// Insert `text` immediately before `offset`.
    pub fn insert_before(&mut self, offset: u32, text: impl Into<String>) {
        self.replace(Span::at(offset), text);
    }

    /// Insert `text` immediately after `span`.
    pub fn insert_after(&mut self, span: Span, text: impl Into<String>) {
        self.replace(Span::at(span.end), text);
    }

    /// Delete the text at `span`.
    pub fn delete(&mut self, span: Span) {
        self.replace(span, "");
    }

    /// Apply all edits and return the rewritten text.
    ///
    /// Insertions at the same offset are emitted in recording order.
    /// Overlapping replacements are an error (a transformation bug).
    pub fn apply(&self) -> Result<String, RewriteError> {
        let src = self.file.text();
        let len = src.len() as u32;
        let mut edits = self.edits.clone();
        edits.sort_by(|a, b| {
            (a.span.start, a.span.end, a.seq).cmp(&(b.span.start, b.span.end, b.seq))
        });

        // Validate.
        for e in &edits {
            if e.span.end > len {
                return Err(RewriteError::OutOfBounds(e.span));
            }
        }
        for w in edits.windows(2) {
            let (a, b) = (&w[0], &w[1]);
            // Insertions (empty spans) may coincide with anything; real
            // replacements must be disjoint.
            if !a.span.is_empty() && !b.span.is_empty() && a.span.overlaps(b.span) {
                return Err(RewriteError::Overlap(a.span, b.span));
            }
            // An insertion strictly inside a replacement is also a conflict.
            if a.span.is_empty() != b.span.is_empty() {
                let (ins, rep) = if a.span.is_empty() { (a, b) } else { (b, a) };
                if ins.span.start > rep.span.start && ins.span.start < rep.span.end {
                    return Err(RewriteError::Overlap(a.span, b.span));
                }
            }
        }

        let extra: usize = edits.iter().map(|e| e.replacement.len()).sum();
        let mut out = String::with_capacity(src.len() + extra);
        let mut cursor = 0usize;
        for e in &edits {
            let start = e.span.start as usize;
            if start > cursor {
                out.push_str(&src[cursor..start]);
            }
            out.push_str(&e.replacement);
            cursor = cursor.max(e.span.end as usize);
        }
        out.push_str(&src[cursor..]);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw(text: &str) -> Rewriter {
        Rewriter::new(SourceFile::new(text))
    }

    #[test]
    fn no_edits_is_identity() {
        let r = rw("int main() { return 0; }");
        assert_eq!(r.apply().unwrap(), "int main() { return 0; }");
    }

    #[test]
    fn replace_middle() {
        let mut r = rw("delete left;");
        r.replace(Span::new(0, 11), "leftShadow = left");
        assert_eq!(r.apply().unwrap(), "leftShadow = left;");
    }

    #[test]
    fn insertions_preserve_order() {
        let mut r = rw("ab");
        r.insert_before(1, "1");
        r.insert_before(1, "2");
        r.insert_before(1, "3");
        assert_eq!(r.apply().unwrap(), "a123b");
    }

    #[test]
    fn mixed_edit_kinds() {
        let mut r = rw("class Car { int x; };");
        r.insert_before(12, "public: ");
        r.delete(Span::new(12, 18));
        r.insert_before(19, " void* shadow;");
        assert_eq!(r.apply().unwrap(), "class Car { public:   void* shadow;};");
    }

    #[test]
    fn overlap_detected() {
        let mut r = rw("abcdef");
        r.replace(Span::new(0, 4), "X");
        r.replace(Span::new(2, 5), "Y");
        assert!(matches!(r.apply(), Err(RewriteError::Overlap(_, _))));
    }

    #[test]
    fn touching_replacements_are_fine() {
        let mut r = rw("abcdef");
        r.replace(Span::new(0, 3), "X");
        r.replace(Span::new(3, 6), "Y");
        assert_eq!(r.apply().unwrap(), "XY");
    }

    #[test]
    fn insertion_at_replacement_boundary_ok() {
        let mut r = rw("abcdef");
        r.replace(Span::new(2, 4), "X");
        r.insert_before(2, "<");
        r.insert_before(4, ">");
        assert_eq!(r.apply().unwrap(), "ab<X>ef");
    }

    #[test]
    fn insertion_inside_replacement_is_conflict() {
        let mut r = rw("abcdef");
        r.replace(Span::new(1, 5), "X");
        r.insert_before(3, "!");
        assert!(matches!(r.apply(), Err(RewriteError::Overlap(_, _))));
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut r = rw("ab");
        r.replace(Span::new(0, 99), "X");
        assert!(matches!(r.apply(), Err(RewriteError::OutOfBounds(_))));
    }
}
