//! Unified telemetry for the LightTraffic workspace.
//!
//! The paper's core claims are *timeline* claims — the 3-phase pipeline
//! overlap of Figure 8, the straggler dynamics of §III-E, the traffic
//! breakdowns of Table III. This crate turns those from eyeball artifacts
//! into data, with three pillars (DESIGN.md §9):
//!
//! - **Structured events** ([`Event`], [`EventBus`]): every event carries
//!   *both clocks* — the deterministic simulated nanosecond it describes
//!   and the host wall nanosecond it was emitted at — plus a level, a
//!   scope, and typed fields. Sinks are pluggable ([`EventSink`]): an
//!   in-memory ring buffer ([`RingHandle`]) and a JSONL writer
//!   ([`JsonlSink`]) ship here; the Chrome-trace exporter in `lt-gpusim`
//!   renders through [`chrome::ChromeTraceBuilder`].
//! - **A metric registry** ([`MetricRegistry`]): counters, gauges, and
//!   histograms with label sets, exported in the Prometheus text format.
//!   `Metrics` and `GpuStats` publish into it.
//! - **A pipeline analyzer** ([`pipeline::analyze`]): per-engine
//!   utilization, bubble (idle-gap) intervals, the compute/copy overlap
//!   ratio, and a straggler report from iteration records.
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
pub mod chrome;
pub mod event;
pub mod ledger;
pub mod pipeline;
pub mod registry;
pub mod span;

pub use bus::{EventBus, EventSink, JsonlSink, RingHandle};
pub use event::{Event, FieldValue, Level};
pub use ledger::{
    apportion_exact, PartitionHeat, TagTraffic, TrafficCell, TrafficDirection, TrafficLedger,
    TrafficReport, SHARED_TAG,
};
pub use pipeline::{
    straggler_report, AnalyzerConfig, Bubble, IterationSample, PipelineReport, Span,
    StragglerReport, TrackReport,
};
pub use registry::{
    log2_histogram_percentile, Counter, Gauge, Histogram, LengthPercentiles, MetricRegistry,
};
pub use span::{derive_trace_id, JobPhase, JobTrace, SpanRecord};
