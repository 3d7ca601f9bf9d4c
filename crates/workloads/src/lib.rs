//! Workload generators and executors for the Amplify reproduction.
//!
//! Two consumers share these workloads:
//!
//! * the **simulator** (`smp-sim`) regenerates the paper's 8-CPU figures
//!   from workload *shapes*;
//! * the **real runtimes** (`pools`, `allocators`) execute the same
//!   workloads natively — that is what the native matrices and the
//!   umbrella integration tests drive.
//!
//! Modules:
//!
//! * [`tree`] — the synthetic binary-tree test suite (§4, Table 1), with a
//!   real reusable tree type ([`tree::PoolTree`]) for structure pools;
//! * [`bgw`] — a Billing-Gateway-like CDR processing pipeline (§5.2);
//! * [`trace`] — allocation traces (generate, validate, replay);
//! * [`exec`] — the generic executor: any [`mem_api::MemBackend`] runs any
//!   [`exec::Workload`] through one loop.
#![warn(unreachable_pub)]

pub mod bgw;
pub mod exec;
pub mod trace;
pub mod tree;
