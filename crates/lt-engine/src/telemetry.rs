//! The engine's observability surface: one call
//! ([`LightTraffic::telemetry`]) snapshots everything the
//! telemetry layer can derive from a run — a metric registry filled from
//! [`Metrics`] and [`lt_gpusim::GpuStats`], the pipeline-bubble analysis
//! of the recorded op log, and the straggler report over the iteration
//! series.
//!
//! Everything here is a *pull*: the engine keeps its plain counters and
//! this module projects them into [`lt_telemetry`] types on demand, so
//! runs without observers pay nothing.

use crate::engine::LightTraffic;
use crate::metrics::{IterationRecord, Metrics};
use lt_telemetry::{
    straggler_report, IterationSample, MetricRegistry, PipelineReport, StragglerReport,
    TrafficReport, SHARED_TAG,
};

/// A point-in-time projection of a run into the telemetry layer.
pub struct TelemetrySnapshot {
    /// Engine + device counters, ready for Prometheus export.
    pub registry: MetricRegistry,
    /// Per-engine utilization, bubbles, and compute/copy overlap — present
    /// when the device recorded its op log
    /// ([`lt_gpusim::GpuConfig::record_ops`]).
    pub pipeline: Option<PipelineReport>,
    /// Straggler-tail analysis of the iteration series — present when
    /// [`crate::EngineConfig::record_iterations`] is set and at least one
    /// iteration ran.
    pub stragglers: Option<StragglerReport>,
    /// Per-tag/per-partition traffic attribution — present when
    /// [`crate::EngineConfig::attribution`] is on. Top-8 hot partitions.
    pub traffic: Option<TrafficReport>,
}

impl TelemetrySnapshot {
    /// Render the registry in the Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        self.registry.render_prometheus()
    }
}

/// Project iteration records into the analyzer's sample type.
pub fn iteration_samples(records: &[IterationRecord]) -> Vec<IterationSample> {
    records
        .iter()
        .map(|r| IterationSample {
            index: r.index,
            start_ns: r.start_ns,
            walks: r.walks,
        })
        .collect()
}

impl LightTraffic {
    /// Snapshot the run's observability surface: a metric registry filled
    /// from engine and device counters, the pipeline-bubble analysis (when
    /// the op log is recorded), and the straggler report (when iterations
    /// are recorded). Callable at any pause and after [`Self::finish`].
    pub fn telemetry(&self) -> TelemetrySnapshot {
        snapshot(self)
    }
}

fn snapshot(engine: &LightTraffic) -> TelemetrySnapshot {
    let registry = MetricRegistry::new();
    let gpu_stats = engine.gpu().stats();
    // Mid-run the metrics struct lags the device for the run-end fields;
    // publish a view with those filled so the export is self-consistent.
    let mut m: Metrics = engine.metrics().clone();
    m.makespan_ns = gpu_stats.makespan_ns;
    m.faults_injected = gpu_stats.faults_injected;
    m.publish(&registry);
    gpu_stats.publish(&registry);
    // Evolving-graph clock and reload traffic (DESIGN.md §15). Both are
    // schedule-deterministic: the epoch advances only at explicit seal
    // calls and reload bytes mirror the device's graph_reload category.
    registry
        .gauge(
            "lt_graph_epoch",
            "Current evolving-graph epoch (0 = static graph)",
            &[],
        )
        .set(engine.epoch() as f64);
    registry
        .counter(
            "lt_reload_bytes_total",
            "Bytes re-copied to refresh resident partitions after epoch seals",
            &[],
        )
        .set(m.reload_bytes);
    registry
        .counter(
            "lt_host_decode_bytes_total",
            "Uncompressed bytes decoded from the out-of-core store into host memory",
            &[],
        )
        .set(m.host_decode_bytes);
    // Device walk-pool occupancy (DESIGN.md §10). Both gauges derive from
    // the schedule alone, so the export stays bit-identical across
    // `kernel_threads` settings.
    registry
        .gauge(
            "lt_walk_pool_walkers",
            "Walkers resident in the device walk pool",
            &[],
        )
        .set(engine.device_pool().total() as f64);
    registry
        .gauge(
            "lt_walk_pool_free_blocks",
            "Blocks on the device walk pool's free list",
            &[],
        )
        .set(engine.device_pool().free_blocks() as f64);
    // Persistent-executor activity (DESIGN.md §11). All
    // values are host-side observations — like the `host_*` metrics they
    // never feed back into simulated outputs, so they are exported here,
    // on the pull side, and never emitted into the deterministic event
    // stream.
    if let Some(es) = engine.exec_stats() {
        registry
            .gauge("lt_exec_workers", "Persistent executor worker threads", &[])
            .set(es.workers as f64);
        registry
            .counter("lt_exec_tasks_total", "Tasks executed by pool workers", &[])
            .set(es.tasks);
        registry
            .counter(
                "lt_exec_caller_tasks_total",
                "Tasks executed by waiting callers (caller-help)",
                &[],
            )
            .set(es.caller_tasks);
        registry
            .gauge(
                "lt_exec_busy_ns",
                "Host nanoseconds pool workers spent executing tasks",
                &[],
            )
            .set(es.busy_ns as f64);
        let capacity_ns = es.workers as u64 * es.uptime_ns;
        registry
            .gauge(
                "lt_exec_worker_utilization",
                "Fraction of pool capacity spent executing tasks",
                &[],
            )
            .set(if capacity_ns == 0 {
                0.0
            } else {
                (es.busy_ns as f64 / capacity_ns as f64).min(1.0)
            });
        let submissions: u64 = es.queue_depth_log2.iter().sum();
        if submissions > 0 {
            // log₂ buckets: 0, then [2^(i-1), 2^i) with inclusive upper
            // bound 2^i - 1 (the walk-length histogram idiom).
            let bounds: Vec<f64> = (0..es.queue_depth_log2.len())
                .map(|i| {
                    if i == 0 {
                        0.0
                    } else {
                        ((1u64 << i) - 1) as f64
                    }
                })
                .collect();
            let h = registry.histogram(
                "lt_exec_queue_depth",
                "Executor queue depth observed at each task submission",
                &[],
                &bounds,
            );
            for (i, &count) in es.queue_depth_log2.iter().enumerate() {
                h.observe_n(bounds[i], count);
            }
        }
    }
    // Traffic attribution (DESIGN.md §14), present only under
    // [`crate::EngineConfig::attribution`]. Like the ledger itself the
    // export is strictly pull-side: labeled series are projected from the
    // scheduler-written cells here and never feed back into the engine.
    let traffic = engine.traffic_ledger().map(|l| {
        let tag_label = |tag: u32| {
            if tag == SHARED_TAG {
                "shared".to_string()
            } else {
                tag.to_string()
            }
        };
        for cell in l.cells() {
            let t = tag_label(cell.tag);
            let p = cell.partition.to_string();
            for (dir, bytes) in [
                ("h2d", cell.h2d_bytes),
                ("d2h", cell.d2h_bytes),
                ("reload", cell.reload_bytes),
                ("host_load", cell.host_load_bytes),
            ] {
                if bytes > 0 {
                    registry
                        .counter(
                            "lt_traffic_bytes_total",
                            "Bytes attributed to (tag, partition, direction); host_load is the host tier, not the link",
                            &[("tag", &t), ("partition", &p), ("direction", dir)],
                        )
                        .set(bytes);
                }
            }
        }
        let report = l.report(8);
        for tag in &report.tags {
            let t = tag_label(tag.tag);
            registry
                .counter(
                    "lt_traffic_tag_steps_total",
                    "Walker steps executed per job tag",
                    &[("tag", &t)],
                )
                .set(tag.steps);
            registry
                .gauge(
                    "lt_traffic_tag_bytes_per_step",
                    "Link bytes moved per executed step, per job tag",
                    &[("tag", &t)],
                )
                .set(tag.bytes_per_step);
        }
        registry
            .counter(
                "lt_traffic_zero_copy_bytes_total",
                "Link bytes moved by zero-copy kernel reads",
                &[],
            )
            .set(report.zero_copy_bytes);
        registry
            .gauge(
                "lt_traffic_zero_copy_saved_bytes",
                "Explicit-load bytes avoided by zero-copy kernels",
                &[],
            )
            .set(report.zero_copy_saved_bytes as f64);
        report
    });
    let pipeline = {
        let ops = engine.gpu().op_log();
        (!ops.is_empty()).then(|| lt_gpusim::analyze_op_log(&ops))
    };
    let stragglers = engine
        .iteration_records()
        .and_then(|r| straggler_report(&iteration_samples(r), gpu_stats.makespan_ns));
    TelemetrySnapshot {
        registry,
        pipeline,
        stragglers,
        traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::PageRank;
    use crate::engine::EngineConfig;
    use lt_graph::gen::{rmat, RmatParams};
    use std::sync::Arc;

    fn graph() -> Arc<lt_graph::Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 10,
                edge_factor: 8,
                seed: 7,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn snapshot_covers_registry_pipeline_and_stragglers() {
        let cfg = EngineConfig {
            batch_capacity: 256,
            record_iterations: true,
            gpu: lt_gpusim::GpuConfig {
                record_ops: true,
                ..Default::default()
            },
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
        e.inject_walks(2_000);
        let t = e.telemetry();
        // Before any work: registry renders, no ops, no iterations.
        assert!(t.prometheus().contains("lt_engine_iterations_total 0"));
        assert!(t.pipeline.is_none());
        assert!(t.stragglers.is_none());
        let r = e.finish().unwrap();
        let t = e.telemetry();
        let text = t.prometheus();
        assert!(text.contains("lt_engine_finished_walks_total 2000"));
        assert!(text.contains("lt_gpu_makespan_ns"));
        assert!(text.contains("lt_walk_length_steps_bucket"));
        assert!(
            text.contains("lt_walk_pool_walkers "),
            "walk-pool occupancy gauges missing from the export"
        );
        assert!(text.contains("lt_walk_pool_free_blocks "));
        let p = t.pipeline.expect("op log was recorded");
        assert_eq!(p.makespan_ns, r.metrics.makespan_ns);
        assert!(p.tracks.iter().any(|tr| tr.busy_ns > 0));
        let st = t.stragglers.expect("iterations were recorded");
        assert_eq!(st.iterations, r.metrics.iterations);
        assert!(st.max_walks > 0);
    }

    #[test]
    fn snapshot_always_publishes_executor_series() {
        // `kernel_threads: 1` never dispatches a kernel chunk; the series
        // must be there all the same.
        for kernel_threads in [1, 4] {
            let cfg = EngineConfig {
                batch_capacity: 256,
                kernel_threads,
                ..EngineConfig::light_traffic(16 << 10, 4)
            };
            let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
            e.run(2_000).unwrap();
            let text = e.telemetry().prometheus();
            for series in [
                "lt_exec_workers",
                "lt_exec_tasks_total",
                "lt_exec_caller_tasks_total",
                "lt_exec_busy_ns",
                "lt_exec_worker_utilization",
            ] {
                assert!(
                    text.contains(series),
                    "{series} missing at kernel_threads={kernel_threads}"
                );
            }
            assert!(!text.contains("lt_exec_strategy{"));
            if kernel_threads > 1 {
                assert!(text.contains("lt_exec_queue_depth_bucket"));
            }
        }
    }
}
