//! Telemetry for the LightTraffic workspace.
//!
//! The paper argues from counters: Table III's traffic rows and the
//! load ‖ compute ‖ evict overlap of Figure 8. The engine and the
//! simulator keep those counters, and the op, fault and iteration logs
//! behind them, as typed records; this crate is how they leave the
//! process (DESIGN.md §9):
//!
//! - **A metric registry** ([`MetricRegistry`]): counters, gauges, and
//!   histograms with label sets, exported in the Prometheus text format.
//!   Every value is a snapshot that is *set*, so publishing again
//!   overwrites; `LightTraffic::publish` is the one projection of engine
//!   and device state into it.
//! - **A traffic ledger** ([`TrafficLedger`]): link bytes attributed to
//!   (tag, partition, direction).
//! - **Per-job phase spans** ([`JobTrace`]): each served job's lifecycle,
//!   kept in a bounded ring that doubles as the flight recorder.
#![forbid(unsafe_code)]

pub mod ledger;
pub mod registry;
pub mod span;

pub use ledger::{
    apportion_exact, PartitionHeat, TagTraffic, TrafficCell, TrafficDirection, TrafficLedger,
    TrafficReport, SHARED_TAG,
};
pub use registry::{
    log2_histogram_percentile, Counter, Gauge, Histogram, LengthPercentiles, MetricRegistry,
};
pub use span::{derive_trace_id, JobPhase, JobTrace, SpanRecord};
