//! **Amplify** — a pre-processor that automatically optimizes dynamic
//! memory management in C++ programs, reproducing Häggander, Lidén &
//! Lundberg, *"A Method for Automatic Optimization of Dynamic Memory
//! Management in C++"*, ICPP 2001.
//!
//! Given C++ source code, Amplify rewrites it — in a completely automated
//! procedure — to use *structure pools* that exploit the temporal locality
//! of object-oriented programs:
//!
//! 1. every class gets `operator new` / `operator delete` overloads routing
//!    allocation through a per-class pool (`transform::operators`),
//!    unless the class already defines them;
//! 2. every pointer member gets a hidden *shadow pointer*; `delete field;`
//!    is rewritten to park the object in the shadow, and
//!    `field = new T(...)` to revive it with placement new
//!    (`transform::shadow_fields`, `transform::rewrites`);
//! 3. data-type arrays (`new char[n]`) are recycled through a shadowed
//!    `realloc` with a half-size reuse rule and size caps — the BGw
//!    extension of §5.2 (`transform::arrays`);
//! 4. for single-threaded programs all pool locking is elided
//!    ([`AmplifyOptions::threaded`]).
//!
//! The rewritten translation unit `#include`s a generated, self-contained
//! runtime header (`runtime_hdr`) and compiles with any C++ compiler.
//!
//! # Example
//!
//! ```
//! use amplify::{AmplifyOptions, Amplifier};
//!
//! let src = r#"
//! class Root {
//! public:
//!     Root() { left = 0; }
//!     ~Root() { delete left; }
//!     void rebuild(int v) {
//!         delete left;
//!         left = new Child(v);
//!     }
//! private:
//!     Child* left;
//! };
//! "#;
//! let out = Amplifier::new(AmplifyOptions::default()).amplify_source("root.cpp", src);
//! assert!(out.text.contains("leftShadow"));
//! assert!(out.text.contains("operator new"));
//! assert_eq!(out.report.classes_amplified, 1);
//! ```
#![warn(unreachable_pub)]

pub mod analysis;
mod config;
pub mod model;
mod pipeline;
mod report;
mod runtime_hdr;
mod transform;
pub mod tuning;

pub use config::{AmplifyOptions, PoolTuning};
pub use pipeline::Amplifier;
