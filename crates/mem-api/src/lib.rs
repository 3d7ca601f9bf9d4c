//! The unified `MemBackend` layer: every allocation strategy in the paper's
//! five-way comparison (§4–§6) behind one interface.
//!
//! The paper evaluates Solaris default malloc, ptmalloc, Hoard, Amplify and
//! a handmade structure pool on the same workloads. Natively those
//! strategies used to live behind two disjoint APIs —
//! [`allocators::ParallelAllocator`] (handle-based malloc/free) and
//! [`pools::StructurePool`] (typed structure reuse) — so every comparison
//! needed a hand-written runner per strategy. This crate closes the gap:
//!
//! * [`Structured`] describes a workload's unit of allocation (how many
//!   heap nodes, how big, how to checksum it);
//! * [`MemBackend`] is the one trait all strategies implement:
//!   [`MallocBackend`] wraps any `ParallelAllocator` (serial/ptmalloc/
//!   hoard), [`PooledBackend`] wraps a `StructurePool` in its three Amplify
//!   layouts (local, sharded, sharded+magazines), `GlobalBackend` routes
//!   per-node traffic through the size-class malloc front-end
//!   (`pools::global`, the `#[global_allocator]` candidate), and
//!   `HandmadeBackend` is the native port of the simulator's per-thread
//!   lock-free pool (Figure 10's "theoretical maximum");
//! * [`BackendRegistry`] resolves the paper's strategy names
//!   ("solaris-default", "ptmalloc", "hoard", "amplify", "handmade", …) to
//!   live backends, and [`sim_name`] maps each registry name onto the
//!   simulator's `ModelKind` vocabulary so native and simulated rows line
//!   up in reports.
#![warn(unreachable_pub)]

mod backend;
mod global;
mod handmade;
mod malloc;
mod pooled;
mod registry;

pub use backend::{Allocation, BackendStats, MemBackend, Structured};
pub use malloc::MallocBackend;
pub use pooled::PooledBackend;
pub use registry::{sim_name, BackendRegistry, STANDARD_BACKENDS};
