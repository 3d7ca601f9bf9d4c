//! Structure-pool runtime: the semantics that Amplify-generated code runs on,
//! implemented natively in Rust.
//!
//! The ICPP 2001 paper's pre-processor rewrites C++ so that:
//!
//! * every class allocates from its own **object pool** (free list of dead
//!   objects) instead of the heap — [`object_pool`];
//! * whole **object structures** are parked and revived with their internal
//!   links intact, exploiting temporal locality — [`structure_pool`] and the
//!   per-field [`shadow::Shadow`] slot that models the paper's *shadow
//!   pointers*;
//! * raw data arrays (`new char[n]`) are recycled through a shadowed
//!   `realloc` with a half-size reuse rule and size caps (§5.2, the BGw
//!   extension) — [`shadow_buf::ShadowBuf`];
//! * pools are **sharded** across threads ptmalloc-style to avoid lock
//!   contention — [`sharded::ShardedPool`] — and fronted by lock-free
//!   per-thread [`magazine`]s so steady-state acquire/release takes no
//!   lock at all; cold magazines exchange wholesale with a Bonwick-style
//!   [`depot`] of full magazines (one CAS per refill/flush), and fresh
//!   objects are carved from contiguous slabs ([`pool_box::PoolBox`]);
//! * in single-threaded programs all locks are elided
//!   ([`object_pool::LocalPool`]), which is why the paper's Figure 4 shows a
//!   1-thread Amplify advantage;
//! * the same magazine/depot/slab machinery, re-keyed by **size class**
//!   instead of type, serves untyped allocations as a malloc front-end —
//!   [`global::GlobalPool`] — installable process-wide as
//!   `#[global_allocator]` via the `global-alloc` feature, with MPSC
//!   remote-free queues so cross-thread `dealloc` is one CAS.
//!
//! All pools expose [`stats::PoolStats`] counters (hits, misses, failed lock
//! attempts) — the observability the paper used to conclude that Amplify's
//! critical sections are short enough that "threads will seldom or never be
//! blocked".
//!
//! # Quickstart
//!
//! ```
//! use pools::object_pool::ObjectPool;
//!
//! let pool: ObjectPool<Vec<u8>> = ObjectPool::new();
//! let a = pool.acquire(|| vec![0u8; 64]);
//! pool.release(a);
//! let _b = pool.acquire(|| vec![0u8; 64]); // reuses a's allocation
//! assert_eq!(pool.stats().pool_hits(), 1);
//! ```

pub mod bit_shadow;
mod depot;
pub mod fault;
pub mod global;
mod guard;
pub mod heap_profile;
pub mod limits;
pub mod magazine;
pub mod object_pool;
mod obs;
pub mod pool_box;
pub mod reclaim;
pub mod registry;
pub mod shadow;
pub mod shadow_buf;
pub mod sharded;
pub mod size_class;
pub mod stats;
pub mod structure_pool;

pub use bit_shadow::BitShadow;
pub use global::GlobalPool;
pub use limits::PoolConfig;
pub use magazine::DEFAULT_MAGAZINE_CAP;
pub use object_pool::{LocalPool, ObjectPool};
pub use pool_box::PoolBox;
pub use registry::{PoolRegistry, Trimmable};
pub use shadow::Shadow;
pub use shadow_buf::ShadowBuf;
pub use sharded::ShardedPool;
pub use stats::PoolStats;
pub use structure_pool::{Reusable, StructurePool};
