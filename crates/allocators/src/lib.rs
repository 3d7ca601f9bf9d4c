//! Executable baseline allocators for the Amplify reproduction.
//!
//! The paper compares Amplify against real C allocators on an 8-CPU SMP:
//! the Solaris default (one global lock), Gloger's **ptmalloc** (multiple
//! arenas with try-lock spill-over), and Berger's **Hoard** (per-CPU heaps
//! keyed by thread id). Those binaries are not available here, so this
//! crate implements each allocator's *mechanism* from scratch over a common
//! dlmalloc-style heap core ([`heap::RawHeap`]):
//!
//! * [`serial::SerialAllocator`] — single heap, single mutex;
//! * [`ptmalloc::PtmallocAllocator`] — N arenas, threads spin to an
//!   unlocked arena and stick to it;
//! * [`hoard::HoardAllocator`] — one heap per processor, chosen by
//!   thread-id modulation.
//!
//! All three are handle-based (safe Rust), fully tested, and double as the
//! ground truth for the timing models in the `smp-sim` crate.
#![warn(unreachable_pub)]

mod heap;
mod hoard;
mod ptmalloc;
mod serial;
mod traits;

pub use heap::RawHeap;
pub use hoard::HoardAllocator;
pub use ptmalloc::PtmallocAllocator;
pub use serial::SerialAllocator;
pub use traits::{BlockRef, ParallelAllocator};
