//! Structure-pool runtime: the semantics that Amplify-generated code runs on,
//! implemented natively in Rust.
//!
//! The ICPP 2001 paper's pre-processor rewrites C++ so that:
//!
//! * every class allocates from its own **object pool** (free list of dead
//!   objects) instead of the heap — [`sharded::ShardedPool`], the one typed
//!   pool, whose `(shards, magazine_cap)` settings give every Amplify
//!   layout;
//! * whole **object structures** are parked and revived with their internal
//!   links intact, exploiting temporal locality — [`structure_pool`]; every
//!   free list is intrusive, threaded through a link word in front of the
//!   object (`pool_box`), so parking never writes into the structure;
//! * raw data arrays (`new char[n]`) are recycled through a shadowed
//!   `realloc` with a half-size reuse rule and size caps (§5.2, the BGw
//!   extension) — [`shadow_buf::ShadowBuf`];
//! * pools are **sharded** across threads ptmalloc-style to avoid lock
//!   contention — [`sharded::ShardedPool`], whose direct mode is the
//!   paper's try-lock-and-spill over one locked free list per shard — and
//!   fronted by lock-free per-thread `magazine`s so steady-state
//!   acquire/release takes no lock at all; behind the magazines the only
//!   shared tier is a Bonwick-style depot of whole parked lists, one
//!   lock-free stack per pool (the size-class engine's stack, with each
//!   list a one-block segment), and every fresh object takes one block of
//!   the size-class engine below ([`pool_box::PoolBox`], one pointer per
//!   handle);
//! * in single-threaded programs all locks are elided (§5.1), which is why
//!   the paper's Figure 4 shows a 1-thread Amplify advantage: the
//!   generated C++ runtime header drops its mutex in unthreaded builds,
//!   and the magazine fast path here takes none either;
//! * the size-class engine — thread caches, one central stack per class
//!   and 64 KiB slabs, keyed by **size class** instead of type — is the
//!   only source of fresh memory for the typed pools and serves untyped
//!   allocations as a malloc front-end — [`global`] — installable
//!   process-wide as `#[global_allocator]` via the `global-alloc` feature;
//!   a cross-thread `dealloc` is one push onto the freeing thread's cache,
//!   like any other.
//!
//! All pools report `stats::StatsSnapshot` counters (hits, misses, failed
//! lock attempts) — the observability the paper used to conclude that Amplify's
//! critical sections are short enough that "threads will seldom or never be
//! blocked".
//!
//! # Quickstart
//!
//! ```
//! use pools::{PoolConfig, ShardedPool};
//!
//! // One shard, no magazines: a single locked free list.
//! let pool: ShardedPool<Vec<u8>> = ShardedPool::with_magazines(1, PoolConfig::default(), 0);
//! let a = pool.acquire(|| vec![0u8; 64]);
//! pool.release(a);
//! let _b = pool.acquire(|| vec![0u8; 64]); // reuses a's allocation
//! assert_eq!(pool.stats().pool_hits(), 1);
//! ```
#![warn(unreachable_pub)]

mod block_stack;
pub mod fault;
pub mod global;
mod guard;
pub mod heap_profile;
mod limits;
mod magazine;
mod pool_box;
pub mod reclaim;
mod registry;
mod shadow_buf;
pub mod sharded;
pub mod size_class;
mod stats;
pub mod structure_pool;

pub use limits::PoolConfig;
pub use magazine::DEFAULT_MAGAZINE_CAP;
pub use pool_box::PoolBox;
pub use registry::PoolRegistry;
pub use shadow_buf::ShadowBuf;
pub use sharded::ShardedPool;
pub use structure_pool::StructurePool;
