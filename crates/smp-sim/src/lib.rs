//! A deterministic discrete-event SMP simulator for reproducing the
//! evaluation of "A Method for Automatic Optimization of Dynamic Memory
//! Management in C++" (Häggander, Lidén & Lundberg, ICPP 2001).
//!
//! The paper's figures were measured on 8-processor Sun Enterprise
//! machines; this environment has one CPU, so the speedup/scaleup curves
//! are regenerated on a simulated SMP instead (the substitution is
//! documented in `DESIGN.md`). The simulator models exactly the mechanisms
//! the paper's analysis attributes the results to:
//!
//! * serialization on allocator locks ([`engine`]'s FIFO mutexes),
//! * ptmalloc's try-lock arena spill and Hoard's thread-id modulation
//!   ([`models`]),
//! * pool free lists with genuinely short critical sections
//!   (`models::amplify`),
//! * false sharing of cache lines between small heap blocks (`cache`,
//!   with addresses coming from real freelist bookkeeping in `addr`),
//! * thread migration when threads outnumber CPUs (time-slice preemption
//!   in the `components::Cpu` component).
//!
//! The engine itself is a discrete-event *component* system: `component`
//! defines the `Component` contract, `sched` owns the event heap and the
//! tie-breaking policy ([`SchedPolicy::Deterministic`] for byte-stable
//! metrics, [`SchedPolicy::Fuzzed`] for seeded schedule exploration), and
//! `bus` carries the shared state (`components::Cpu` ×N, a FIFO
//! `mutex_bank`, the NUMA-aware `cache`, and the
//! `components::TimelineSampler`). Machines up to
//! `params::arch::MAX_CPUS` (256) simulated CPUs are supported.
//!
//! # Example
//!
//! ```
//! use smp_sim::run::{run_tree, ModelKind, TreeExperiment};
//!
//! let exp = TreeExperiment { depth: 3, total_trees: 200, cpus: 8,
//!                            params: smp_sim::params::CostParams::default() };
//! let serial = run_tree(ModelKind::Serial, 4, &exp);
//! let amplify = run_tree(ModelKind::Amplify, 4, &exp);
//! assert!(amplify.wall_ns < serial.wall_ns);
//! ```
#![warn(unreachable_pub)]

mod addr;
mod bus;
mod cache;
mod component;
mod components;
pub mod engine;
pub mod metrics;
pub mod model;
pub mod models;
mod mutex_bank;
pub mod params;
pub mod programs;
pub mod run;
mod sched;

pub use engine::{Program, Sim, SimConfig};
pub use metrics::RunMetrics;
pub use model::{AllocModel, StructShape};
pub use params::CostParams;
pub use sched::SchedPolicy;
