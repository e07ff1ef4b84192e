//! The engine's metrics export: [`LightTraffic::publish`] is the one
//! projection of engine and device state into a [`MetricRegistry`]. The
//! CLI's `--metrics-out` file and the server's `metrics` op both render
//! what it writes.
//!
//! Everything here is a *pull*: the engine keeps its plain counters and
//! this module projects them on demand, so runs without observers pay
//! nothing. Every value is `set`, never added, so publishing again into
//! a long-lived registry overwrites instead of double-counting.

use crate::engine::LightTraffic;
use lt_telemetry::MetricRegistry;

impl LightTraffic {
    /// Publish the run so far into `registry`: the `lt_engine_*` counters
    /// and walk-length histogram ([`crate::Metrics::publish`]), the
    /// `lt_gpu_*` device counters ([`lt_gpusim::GpuStats::publish`]), the
    /// epoch and walk-pool gauges, the `lt_exec_*` executor series, and —
    /// under [`crate::EngineConfig::attribution`] — link bytes for every
    /// partition that has moved any, plus the zero-copy totals.
    /// Callable at any pause and after [`Self::finish`].
    pub fn publish(&self, registry: &mut MetricRegistry) {
        self.metrics().publish(registry);
        self.gpu().stats().publish(registry);
        // Evolving-graph clock and reload traffic (DESIGN.md §15). Both are
        // schedule-deterministic: the epoch advances only at explicit seal
        // calls and reload bytes mirror the device's graph_reload category.
        registry
            .gauge(
                "lt_graph_epoch",
                "Current evolving-graph epoch (0 = static graph)",
                &[],
            )
            .set(self.epoch() as f64);
        registry
            .counter(
                "lt_reload_bytes_total",
                "Bytes re-copied to refresh resident partitions after epoch seals",
                &[],
            )
            .set(self.metrics().reload_bytes);
        // Device walk-pool occupancy (DESIGN.md §10). Both gauges derive from
        // the schedule alone, so the export stays bit-identical across
        // `kernel_threads` settings.
        registry
            .gauge(
                "lt_walk_pool_walkers",
                "Walkers resident in the device walk pool",
                &[],
            )
            .set(self.device_pool().total() as f64);
        registry
            .gauge(
                "lt_walk_pool_free_blocks",
                "Blocks on the device walk pool's free list",
                &[],
            )
            .set(self.device_pool().free_blocks() as f64);
        // Persistent-executor activity (DESIGN.md §11). All values are
        // host-side observations — like the `host_*` metrics they never
        // feed back into simulated outputs, so they are exported here, on
        // the pull side, and never emitted into the deterministic event
        // stream.
        if let Some(es) = self.exec_stats() {
            registry
                .gauge("lt_exec_workers", "Persistent executor worker threads", &[])
                .set(es.workers as f64);
            registry
                .counter("lt_exec_tasks_total", "Indices run by pool workers", &[])
                .set(es.tasks);
            registry
                .counter(
                    "lt_exec_caller_tasks_total",
                    "Indices run by calling threads",
                    &[],
                )
                .set(es.caller_tasks);
            registry
                .gauge(
                    "lt_exec_busy_ns",
                    "Host nanoseconds pool workers spent running indices",
                    &[],
                )
                .set(es.busy_ns as f64);
            let capacity_ns = es.workers as u64 * es.uptime_ns;
            registry
                .gauge(
                    "lt_exec_worker_utilization",
                    "Fraction of pool capacity spent running indices",
                    &[],
                )
                .set(if capacity_ns == 0 {
                    0.0
                } else {
                    (es.busy_ns as f64 / capacity_ns as f64).min(1.0)
                });
        }
        // Traffic attribution (DESIGN.md §14). Per-job traffic stays with
        // the ledger's report; the registry carries only series whose
        // count is bounded by the partition table, never by the jobs run.
        // A partition's link bytes only grow, so once published its series
        // is rewritten by every later publish and never left stale.
        if let Some(l) = self.traffic_ledger() {
            for p in l.partition_totals() {
                if p.h2d_bytes + p.d2h_bytes == 0 {
                    continue;
                }
                let part = p.partition.to_string();
                for (dir, bytes) in [("h2d", p.h2d_bytes), ("d2h", p.d2h_bytes)] {
                    registry
                        .counter(
                            "lt_traffic_partition_bytes_total",
                            "CPU-GPU link bytes per graph partition and direction",
                            &[("partition", &part), ("direction", dir)],
                        )
                        .set(bytes);
                }
            }
            registry
                .counter(
                    "lt_traffic_zero_copy_bytes_total",
                    "Link bytes moved by zero-copy kernel reads",
                    &[],
                )
                .set(l.zero_copy_bytes());
            registry
                .gauge(
                    "lt_traffic_zero_copy_saved_bytes",
                    "Explicit-load bytes avoided by zero-copy kernels",
                    &[],
                )
                .set(l.zero_copy_saved_bytes() as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithm::{PageRank, Ppr};
    use crate::engine::{EngineConfig, LightTraffic};
    use lt_graph::gen::{rmat, RmatParams};
    use lt_telemetry::MetricRegistry;
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

    fn render(e: &LightTraffic) -> String {
        let mut registry = MetricRegistry::new();
        e.publish(&mut registry);
        registry.render_prometheus()
    }

    #[test]
    fn publish_covers_engine_device_pool_and_attribution_series() {
        let cfg = EngineConfig {
            batch_capacity: 256,
            attribution: true,
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
        e.inject_walks(2_000);
        // Before any work the export already renders.
        assert!(render(&e).contains("lt_engine_iterations_total 0\n"));
        let r = e.finish().unwrap();
        let text = render(&e);
        assert!(text.contains("lt_engine_finished_walks_total 2000\n"));
        assert!(text.contains(&format!("lt_gpu_makespan_ns {}\n", r.gpu.makespan_ns)));
        assert!(text.contains("lt_walk_length_steps_bucket"));
        assert!(text.contains("lt_walk_pool_walkers "));
        assert!(text.contains("lt_walk_pool_free_blocks "));
        assert!(text.contains("lt_graph_epoch 0\n"));
        assert!(text.contains("lt_traffic_partition_bytes_total{"));
        assert!(text.contains("lt_traffic_zero_copy_bytes_total "));
        // Each value has one series: the device's makespan and decode
        // bytes are not repeated under engine names.
        for gone in [
            "lt_engine_makespan_ns",
            "lt_host_decode_bytes_total",
            "tag=\"",
        ] {
            assert!(!text.contains(gone), "{gone} is still exported");
        }
    }

    #[test]
    fn publishing_again_overwrites_instead_of_adding() {
        // Attribution on over more than 16 small partitions, so the
        // per-partition series outnumber any top-k cut; no executor
        // workers (one host thread), so the host-clock utilization gauge
        // reads 0 in both.
        let cfg = EngineConfig {
            batch_capacity: 256,
            attribution: true,
            kernel_threads: 1,
            ..EngineConfig::light_traffic(1 << 10, 4)
        };
        let mut e = LightTraffic::new(graph(), Arc::new(Ppr::new(0, 0.15)), cfg).unwrap();
        let hottest = |e: &LightTraffic| -> Vec<u32> {
            let report = e.traffic_ledger().unwrap().report(16);
            report.hot_partitions.iter().map(|p| p.partition).collect()
        };
        let mut long_lived = MetricRegistry::new();
        e.run(20).unwrap();
        e.publish(&mut long_lived);
        let buckets = e.metrics().length_histogram.len();
        let hot_before = hottest(&e);
        // More walks, and longer ones: PPR's geometric lengths reach new
        // log₂ buckets, so the histogram's bounds change as well, and the
        // hot partition set shifts.
        e.run(4_000).unwrap();
        assert!(e.metrics().length_histogram.len() > buckets);
        assert_ne!(hottest(&e), hot_before);
        e.publish(&mut long_lived);
        let text = long_lived.render_prometheus();
        assert_eq!(text, render(&e));
        let series = text
            .lines()
            .filter(|l| l.starts_with("lt_traffic_partition_bytes_total{"))
            .count();
        assert!(series > 2 * 16, "only {series} partition series");
    }

    #[test]
    fn publish_always_carries_executor_series() {
        // `kernel_threads: 1` never dispatches a kernel chunk; the series
        // must be there all the same.
        for kernel_threads in [1, 4] {
            let cfg = EngineConfig {
                batch_capacity: 512,
                kernel_threads,
                ..EngineConfig::light_traffic(16 << 10, 4)
            };
            let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
            e.run(2_000).unwrap();
            let text = render(&e);
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
        }
    }
}
