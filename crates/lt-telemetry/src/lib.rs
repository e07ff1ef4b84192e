//! Unified telemetry for the LightTraffic workspace.
//!
//! The paper argues from counters: Table III's traffic rows and the
//! load ‖ compute ‖ evict overlap of Figure 8. The engine and the
//! simulator keep those counters exactly; this crate is how they leave
//! the process (DESIGN.md §9):
//!
//! - **Structured events** ([`Event`], [`EventBus`]): every event carries
//!   *both clocks* — the deterministic simulated nanosecond it describes
//!   and the host wall nanosecond it was emitted at — plus a level, a
//!   scope, and typed fields. Sinks are pluggable ([`EventSink`]): an
//!   in-memory ring buffer ([`RingHandle`]) and a JSONL writer
//!   ([`JsonlSink`]) ship here.
//! - **A metric registry** ([`MetricRegistry`]): counters, gauges, and
//!   histograms with label sets, exported in the Prometheus text format.
//!   Every value is a snapshot that is *set*, so publishing again
//!   overwrites; `LightTraffic::publish` is the one projection of engine
//!   and device state into it.
//! - **A traffic ledger** ([`TrafficLedger`]): link bytes attributed to
//!   (tag, partition, direction), and per-job phase spans ([`JobTrace`]).
//!
//! # Determinism rules
//!
//! Everything except `host_ns` is a function of the simulated timeline:
//! emission happens on the driver thread (or under the device mutex) in
//! enqueue order, sequence numbers are assigned at emission, and no event
//! carries host-dependent data (thread counts, wall durations) in its
//! fields. Serializing a stream with `include_host = false` therefore
//! yields bit-identical bytes across host thread counts — asserted by the
//! engine's proptests.
//!
//! A disabled [`EventBus`] (the default) is a `None` check per potential
//! emission site.
#![forbid(unsafe_code)]

pub mod bus;
pub mod event;
pub mod ledger;
pub mod registry;
pub mod span;

pub use bus::{EventBus, EventSink, JsonlSink, RingHandle};
pub use event::{Event, FieldValue, Level};
pub use ledger::{
    apportion_exact, PartitionHeat, TagTraffic, TrafficCell, TrafficDirection, TrafficLedger,
    TrafficReport, SHARED_TAG,
};
pub use registry::{
    log2_histogram_percentile, Counter, Gauge, Histogram, LengthPercentiles, MetricRegistry,
};
pub use span::{derive_trace_id, JobPhase, JobTrace, SpanRecord};
