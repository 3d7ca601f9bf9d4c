//! Allocator models: the comparison set of the paper's evaluation.

pub(crate) mod amplify;
pub(crate) mod common;
pub(crate) mod handmade;
pub(crate) mod hoard;
pub(crate) mod ptmalloc;
pub(crate) mod serial;
pub(crate) mod smartheap;

pub use amplify::{AmplifyConfig, AmplifyModel};
pub(crate) use handmade::HandmadeModel;
pub(crate) use hoard::HoardModel;
pub(crate) use ptmalloc::PtmallocModel;
pub use serial::SerialModel;
pub(crate) use smartheap::SmartHeapModel;
