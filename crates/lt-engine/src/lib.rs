//! The LightTraffic engine: out-of-GPU-memory random walks with optimized
//! CPU↔GPU traffic.
//!
//! This crate implements the paper's contribution on top of the simulated
//! device in [`lt_gpusim`]:
//!
//! - partition + batch data organization with reserved memory pools
//!   (§III-B) — [`batch`], [`walkpool`], [`graphpool`];
//! - two-level walk-index caching for reshuffling (§III-C, Algorithm 1) —
//!   [`reshuffle`] and the resident frontiers in [`walkpool`];
//! - the 3-phase pipeline with preemptive and selective scheduling
//!   (§III-D, Algorithm 2) and adaptive zero copy (§III-E) — [`engine`];
//! - the walk algorithms of the evaluation (uniform sampling, PageRank,
//!   PPR) plus weighted and second-order extensions — [`algorithm`];
//! - host-parallel kernel execution with a deterministic chunk-order merge
//!   (wall-clock throughput scales with [`EngineConfig::kernel_threads`]
//!   while simulated results stay bit-identical) — [`kernel`];
//! - a persistent deterministic executor: every parallel phase is one
//!   fork-join over indices ([`ExecPool::map`]) on one long-lived worker
//!   pool per engine, with outputs in index order, so the one drain loop
//!   (acquire → step → merge/reshuffle) is bit-identical to the
//!   `kernel_threads: 1` run that steps inline — [`exec`];
//! - fault injection and recovery: retry-with-backoff for faulted copies,
//!   corruption-driven degradation to zero copy, and automatic rollback to
//!   periodic in-memory checkpoints on fatal device errors
//!   ([`EngineConfig::checkpoint_every`]) — all driven by a deterministic
//!   [`lt_gpusim::FaultPlan`], so recovered runs produce the same outputs
//!   as fault-free ones;
//! - one metrics export, [`LightTraffic::publish`], of engine, device and
//!   executor counters into a Prometheus registry — [`telemetry`].
//!
//! # Quick example
//!
//! [`LightTraffic`] is the one driver: inject walks, [`LightTraffic::step`]
//! under an iteration budget (checkpointable between slices), then
//! [`LightTraffic::finish`] for the result. [`LightTraffic::run`] does
//! both for the algorithm's standard workload.
//!
//! ```
//! use std::sync::Arc;
//! use lt_engine::{EngineConfig, LightTraffic, RunStatus};
//! use lt_engine::algorithm::PageRank;
//! use lt_graph::gen::{rmat, RmatParams};
//!
//! let graph = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
//! let cfg = EngineConfig::light_traffic(64 << 10, 4);
//! let mut engine =
//!     LightTraffic::new(graph.clone(), Arc::new(PageRank::new(10, 0.15)), cfg).unwrap();
//! engine.inject_walks(2 * graph.num_vertices());
//! // Drive in bounded slices — checkpointable between any two.
//! while let RunStatus::Paused = engine.step(16).unwrap() {
//!     let _cp = engine.checkpoint();
//! }
//! let result = engine.finish().unwrap();
//! assert_eq!(result.metrics.finished_walks, 2 * graph.num_vertices());
//! println!("throughput: {:.0} steps/s", result.metrics.throughput());
//! ```

#![deny(unsafe_code)]

pub mod algorithm;
pub mod batch;
pub mod checkpoint;
pub mod engine;
pub mod exec;
pub mod graphpool;
pub mod hostcache;
pub mod job;
pub mod kernel;
pub mod metrics;
pub mod reshuffle;
pub mod rng;
pub mod telemetry;
pub mod walker;
pub mod walkpool;

pub use algorithm::{PageRank, Ppr, UniformSampling, WalkAlgorithm};
pub use checkpoint::Checkpoint;
pub use engine::{
    check_walk_count, EngineConfig, EngineError, EpochSummary, LightTraffic, RunStatus,
    ZeroCopyPolicy, MAX_JOB_WALKS,
};
pub use exec::{ExecPool, ExecStats};
pub use graphpool::GraphEviction;
pub use hostcache::HostDecodeCache;
pub use job::{radix_sort_u32, JobId, JobSpec, JobStart, JobStatus, JobTable, TagDelta};
pub use kernel::{host_step, multiplicity_for};
pub use lt_graph::delta::{DeltaGraph, EdgeOp, EdgeUpdate};
pub use lt_telemetry::MetricRegistry;
pub use metrics::IterationRecord;
pub use metrics::{Metrics, RunResult};
pub use reshuffle::ReshuffleMode;
pub use walker::Walker;
