//! Walk-as-a-service: a multi-tenant serving layer over one LightTraffic
//! engine.
//!
//! Many tenants submit *jobs* — walk workloads ([`lt_engine::JobSpec`]):
//! algorithm, seed vertices or a walk count, RNG seed — against one
//! shared immutable graph. A deterministic [`Scheduler`] interleaves all
//! jobs' walkers through a single engine pipeline (walkers carry their
//! job's tag, kernel merges attribute results per tag), enforces
//! per-tenant token budgets (admission + steps; exhaustion parks jobs,
//! never errors), streams incremental results over bounded channels, and
//! suspends/resumes individual jobs on the engine's checkpoint
//! machinery.
//!
//! The front end is [`Server`] (scheduler on its own thread, cloneable
//! in-process [`ServerHandle`]) plus the optional [`TcpFrontend`]
//! speaking line-delimited JSON — no async runtime anywhere.
//!
//! Determinism: scheduling decisions are pure functions of submission
//! order and budget state, and each job's result is bit-identical to the
//! same spec run alone — at any [`lt_engine::EngineConfig::kernel_threads`]
//! setting, with or without fault injection (DESIGN.md §13).
//!
//! ```
//! use lt_engine::{EngineConfig, JobSpec};
//! use lt_graph::gen::{rmat, RmatParams};
//! use lt_server::{Scheduler, ServerConfig};
//! use std::sync::Arc;
//!
//! let g = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
//! let mut sched = Scheduler::new(g, ServerConfig::new(EngineConfig::light_traffic(16 << 10, 4)))
//!     .unwrap();
//! let (alice, _events) = sched.submit("alice", JobSpec::deepwalk(500, 8, 1)).unwrap();
//! let (bob, _events) = sched.submit("bob", JobSpec::node2vec(300, 6, 0.5, 2.0, 2)).unwrap();
//! sched.run_until_idle().unwrap();
//! assert_eq!(sched.result(alice).unwrap().finished, 500);
//! assert_eq!(sched.result(bob).unwrap().finished, 300);
//! ```
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod scheduler;
pub mod server;

pub use scheduler::{JobEvent, JobInfo, JobResult, Scheduler, ServerConfig};
pub use server::{Server, ServerHandle, TcpFrontend};
