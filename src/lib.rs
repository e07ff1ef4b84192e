//! # LightTraffic (Rust reproduction)
//!
//! A faithful reimplementation of *"LightTraffic: On Optimizing CPU-GPU
//! Data Traffic for Efficient Large-scale Random Walks"* (ICDE 2023) on a
//! simulated GPU substrate, so the system runs — and its experiments
//! regenerate — on any machine without CUDA.
//!
//! The facade re-exports the workspace crates:
//!
//! - [`graph`] ([`lt_graph`]): CSR storage, generators, preprocessing,
//!   range partitioning.
//! - [`gpusim`] ([`lt_gpusim`]): the discrete-event GPU + PCIe simulator
//!   (device pools, streams, full-duplex copy engines, zero copy, cost
//!   model).
//! - [`engine`] ([`lt_engine`]): the LightTraffic engine — out-of-memory
//!   walk index, two-level reshuffle caching, pipelined
//!   preemptive/selective/adaptive scheduling.
//! - [`baselines`] ([`lt_baselines`]): Subway-like, multi-round,
//!   in-GPU-memory, and CPU comparison engines.
//! - [`server`] ([`lt_server`]): walk-as-a-service — the multi-tenant
//!   job scheduler with budgeted admission control and the TCP/JSONL
//!   front end.
//! - [`telemetry`] ([`lt_telemetry`]): the metric registry with
//!   Prometheus export (`LightTraffic::publish` fills it), the traffic
//!   ledger and per-job phase spans.
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the architecture and
//! hardware-substitution rationale, and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.
//!
//! ```
//! use std::sync::Arc;
//! use lighttraffic::engine::{EngineConfig, LightTraffic};
//! use lighttraffic::engine::algorithm::UniformSampling;
//! use lighttraffic::graph::gen::{rmat, RmatParams};
//!
//! let g = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
//! let mut engine = LightTraffic::new(
//!     g.clone(),
//!     Arc::new(UniformSampling::new(80)),
//!     EngineConfig::light_traffic(64 << 10, 4),
//! ).unwrap();
//! let result = engine.run(2 * g.num_vertices()).unwrap();
//! assert_eq!(result.metrics.finished_walks, 2 * g.num_vertices());
//! ```
#![forbid(unsafe_code)]

pub use lt_baselines as baselines;
pub use lt_engine as engine;
pub use lt_gpusim as gpusim;
pub use lt_graph as graph;
pub use lt_server as server;
pub use lt_telemetry as telemetry;
