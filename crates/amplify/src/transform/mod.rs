//! The source-to-source transformations, each expressed as span edits
//! against the original text (via [`cxx_frontend::Rewriter`]):
//!
//! * [`shadow_fields`] — add the hidden shadow members;
//! * [`operators`] — inject per-class pool `operator new`/`delete`;
//! * [`rewrites`] — rewrite `delete member;` and `member = new T(...)`
//!   for object pointers;
//! * [`arrays`] — the §5.2 data-type array extension;
//! * [`include`] — splice in the runtime header include.

pub(crate) mod arrays;
pub(crate) mod include;
pub(crate) mod operators;
pub(crate) mod rewrites;
pub(crate) mod shadow_fields;
pub(crate) mod stats_hook;
