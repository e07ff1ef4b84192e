//! Run metrics: the numbers Table III, Figures 13–18 and the throughput
//! comparisons are built from.

use lt_gpusim::GpuStats;
use lt_telemetry::{log2_bucket, LengthPercentiles, MetricRegistry};
use serde::Serialize;

/// One scheduler iteration's record, collected when
/// [`crate::EngineConfig::record_iterations`] is set. The straggler
/// dynamics of §III-E (later iterations process ever fewer walks) are
/// read directly off this series.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IterationRecord {
    /// 1-based iteration index.
    pub index: u64,
    /// The partition the scheduler selected.
    pub partition: u32,
    /// Walks staying in that partition when selected.
    pub walks: u64,
    /// Whether the graph was read via zero copy.
    pub zero_copy: bool,
    /// Whether the partition was already resident (graph-pool hit).
    pub graph_hit: bool,
    /// Simulated time at the start of the iteration (ns).
    pub start_ns: u64,
}

/// Engine-level counters collected over a run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Metrics {
    /// Scheduler iterations (Table III row 1).
    pub iterations: u64,
    /// Explicit graph-partition copies (Table III row 2).
    pub explicit_graph_copies: u64,
    /// Kernels that read the graph via zero copy instead.
    pub zero_copy_kernels: u64,
    /// Graph-pool probe hits (Table III row 3 numerator).
    pub graph_pool_hits: u64,
    /// Graph-pool probe misses.
    pub graph_pool_misses: u64,
    /// Walk batches explicitly loaded host→device.
    pub walk_batches_loaded: u64,
    /// Walk batches evicted device→host.
    pub walk_batches_evicted: u64,
    /// Batches dispatched by preemptive scheduling.
    pub preemptive_batches: u64,
    /// Total walk steps executed.
    pub total_steps: u64,
    /// Walks driven to termination.
    pub finished_walks: u64,
    /// Simulated wall time of the run (ns).
    pub makespan_ns: u64,
    /// *Host* wall-clock ns spent stepping kernels, each chunk's counting
    /// sort of its movers included (the only counters in
    /// this struct that depend on the real machine — everything else is a
    /// function of the simulated timeline and is bit-identical across
    /// [`crate::EngineConfig::kernel_threads`] settings).
    pub host_kernel_wall_ns: u64,
    /// Host kernel invocations (batches stepped).
    pub host_kernels: u64,
    /// Most host threads any one kernel fan-out used: its chunk count, at
    /// most [`crate::EngineConfig::kernel_threads`].
    pub max_kernel_threads: u64,
    /// *Host* wall-clock ns spent in the reshuffle's insert-or-evict
    /// (partitions ascending; the chunks sorted their movers inside the
    /// kernel). Wall-clock like
    /// `host_kernel_wall_ns`: machine-dependent, and deliberately never
    /// published into the metric registry so telemetry streams stay
    /// bit-identical across thread counts.
    pub host_reshuffle_wall_ns: u64,
    /// Reshuffle invocations (one per host kernel).
    pub host_reshuffles: u64,
    /// Retired: counted scoped-thread spawn rounds when the engine still
    /// had a spawn strategy. Every parallel phase now runs on the
    /// persistent pool, so this always reads 0; the field stays only
    /// because `benchmark/` reads it by name.
    pub host_spawn_rounds: u64,
    /// Retired: counted redeemed batches when the drain still pre-stepped
    /// the next batch speculatively. The drain is one loop now, so this
    /// always reads 0; the field stays only because `benchmark/` reads it
    /// by name.
    pub host_spec_hits: u64,
    /// Retired like `host_spec_hits` (counted discarded speculations);
    /// always 0.
    pub host_spec_misses: u64,
    /// Retired like `host_spec_hits` (counted flips of the speculation
    /// gate between drains); always 0.
    pub host_strategy_switches: u64,
    /// Most walkers resident in host memory at once (the CPU-side walk
    /// index footprint).
    pub host_peak_walkers: u64,
    /// Uncompressed bytes decoded from the out-of-core store into host
    /// memory (Σ [`lt_graph::PartitionData::bytes`] over host-cache
    /// misses). Deterministic: decode requests happen at
    /// schedule-deterministic points on the scheduler thread. Equals the
    /// ledger's `host_load` total exactly (DESIGN.md §14 extended to the
    /// host tier). 0 on RAM stores.
    pub host_decode_bytes: u64,
    /// Host decode-cache hits (fetches served without touching disk).
    /// Deterministic like `host_decode_bytes`.
    pub host_cache_hits: u64,
    /// Host decode-cache misses (each one is a disk read + decode).
    pub host_cache_misses: u64,
    /// Host decode-cache evictions.
    pub host_cache_evictions: u64,
    /// *Host* wall-clock ns spent decoding compressed partitions.
    /// Wall-clock like `host_kernel_wall_ns`: machine-dependent, never
    /// published to the metric registry, zeroed by
    /// [`RunResult::deterministic_fingerprint`].
    pub host_decode_wall_ns: u64,
    /// Log₂ histogram of finished walk lengths: `bucket[i]` counts walks
    /// that terminated with step count in `[2^i, 2^(i+1))`; index 0 also
    /// holds zero-step walks. Fixed-length workloads fill one bucket;
    /// geometric (PPR) workloads spread — the straggler signature.
    pub length_histogram: Vec<u64>,
    /// Faults the device injected over the run (mirror of
    /// [`lt_gpusim::GpuStats::faults_injected`] at run end).
    pub faults_injected: u64,
    /// Copy attempts the engine re-issued after a retryable device fault.
    pub retries: u64,
    /// Partitions permanently degraded to zero-copy access after repeated
    /// corrupted loads.
    pub degraded_partitions: u64,
    /// Automatic recoveries from fatal device errors (checkpoint restores).
    pub recoveries: u64,
    /// Graph epochs sealed ([`crate::LightTraffic::seal_epoch`]).
    pub epochs: u64,
    /// Retired: counted folds of the per-vertex delta store the evolving
    /// layer used to keep beside the CSR. A seal now writes the next CSR
    /// directly, so this always reads 0; the field stays only because
    /// `benchmark/` reads it by name.
    pub compactions: u64,
    /// Resident partitions re-copied to the device after epoch seals.
    pub reload_copies: u64,
    /// Bytes those reload copies moved over the link (the
    /// [`lt_gpusim::Category::GraphReload`] traffic).
    pub reload_bytes: u64,
}

impl Metrics {
    /// Record a finished walk of `steps` steps into the length histogram.
    pub(crate) fn record_length(&mut self, steps: u32) {
        let b = log2_bucket(steps.into());
        if b >= self.length_histogram.len() {
            self.length_histogram.resize(b + 1, 0);
        }
        self.length_histogram[b] += 1;
    }

    /// Graph-pool hit rate (Table III row 3).
    pub fn graph_pool_hit_rate(&self) -> f64 {
        let total = self.graph_pool_hits + self.graph_pool_misses;
        if total == 0 {
            0.0
        } else {
            self.graph_pool_hits as f64 / total as f64
        }
    }

    /// System throughput: processed steps per simulated second (the
    /// paper's headline metric, §IV-A).
    pub fn throughput(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.total_steps as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// The `p50/p95/p99/p999` walk-length summary. `None` before any
    /// walk finishes.
    pub fn length_percentiles(&self) -> Option<LengthPercentiles> {
        LengthPercentiles::from_log2_histogram(&self.length_histogram)
    }

    /// Publish this snapshot into a metric registry under `lt_engine_*`
    /// names, plus the `lt_walk_length_steps` histogram of the log₂
    /// buckets. Values are `set`, so re-publishing overwrites. The
    /// makespan is the device's `lt_gpu_makespan_ns`.
    pub fn publish(&self, registry: &mut MetricRegistry) {
        let series: [(&str, &str, u64); 19] = [
            (
                "lt_engine_iterations_total",
                "Scheduler iterations",
                self.iterations,
            ),
            (
                "lt_engine_graph_copies_total",
                "Explicit graph-partition copies",
                self.explicit_graph_copies,
            ),
            (
                "lt_engine_zero_copy_kernels_total",
                "Kernels reading the graph via zero copy",
                self.zero_copy_kernels,
            ),
            (
                "lt_engine_pool_hits_total",
                "Graph-pool probe hits",
                self.graph_pool_hits,
            ),
            (
                "lt_engine_pool_misses_total",
                "Graph-pool probe misses",
                self.graph_pool_misses,
            ),
            (
                "lt_engine_walk_batches_loaded_total",
                "Walk batches loaded host to device",
                self.walk_batches_loaded,
            ),
            (
                "lt_engine_walk_batches_evicted_total",
                "Walk batches evicted device to host",
                self.walk_batches_evicted,
            ),
            (
                "lt_engine_preemptive_batches_total",
                "Batches dispatched preemptively",
                self.preemptive_batches,
            ),
            (
                "lt_engine_steps_total",
                "Walk steps executed",
                self.total_steps,
            ),
            (
                "lt_engine_finished_walks_total",
                "Walks finished",
                self.finished_walks,
            ),
            (
                "lt_engine_retries_total",
                "Copy attempts re-issued",
                self.retries,
            ),
            (
                "lt_engine_degraded_partitions",
                "Partitions degraded to zero-copy access",
                self.degraded_partitions,
            ),
            (
                "lt_engine_recoveries_total",
                "Checkpoint recoveries",
                self.recoveries,
            ),
            (
                "lt_engine_epochs_total",
                "Graph mutation epochs sealed",
                self.epochs,
            ),
            (
                "lt_engine_reload_copies_total",
                "Resident partitions re-copied after epoch seals",
                self.reload_copies,
            ),
            (
                "lt_engine_host_decode_bytes_total",
                "Uncompressed bytes decoded from the out-of-core store",
                self.host_decode_bytes,
            ),
            (
                "lt_engine_host_cache_hits_total",
                "Host decode-cache hits",
                self.host_cache_hits,
            ),
            (
                "lt_engine_host_cache_misses_total",
                "Host decode-cache misses",
                self.host_cache_misses,
            ),
            (
                "lt_engine_host_cache_evictions_total",
                "Host decode-cache evictions",
                self.host_cache_evictions,
            ),
        ];
        for (name, help, value) in series {
            registry.counter(name, help, &[]).set(value);
        }
        registry
            .gauge("lt_engine_pool_hit_rate", "Graph-pool hit rate", &[])
            .set(self.graph_pool_hit_rate());
        // One finite bucket per power of two, each observation counted at
        // its bucket's upper bound; nothing lands past the last one.
        let bounds: Vec<f64> = (0..self.length_histogram.len())
            .map(|i| ((1u64 << (i + 1)) - 1) as f64)
            .collect();
        let mut counts = self.length_histogram.clone();
        counts.push(0);
        let sum = bounds.iter().zip(&counts).map(|(b, &c)| b * c as f64).sum();
        registry
            .histogram(
                "lt_walk_length_steps",
                "Finished walk lengths in steps",
                &[],
            )
            .set(&bounds, &counts, sum);
    }
}

/// Everything a run returns: engine counters, simulator breakdowns, and
/// algorithm outputs.
#[derive(Clone, Debug, Serialize)]
#[non_exhaustive]
pub struct RunResult {
    /// Engine counters.
    pub metrics: Metrics,
    /// Simulator time/traffic breakdowns.
    pub gpu: GpuStats,
    /// Per-vertex visit frequencies, when the algorithm tracks them
    /// (PageRank, PPR).
    pub visit_counts: Option<Vec<u64>>,
    /// Sampled paths, when [`crate::EngineConfig::record_paths`] is set:
    /// `paths[walk_id]` is the walk's vertex sequence (start included).
    pub paths: Option<Vec<Vec<lt_graph::VertexId>>>,
    /// Per-iteration records, when
    /// [`crate::EngineConfig::record_iterations`] is set.
    pub iterations: Option<Vec<IterationRecord>>,
}

impl RunResult {
    /// Simulated wall time in seconds.
    pub fn seconds(&self) -> f64 {
        self.metrics.makespan_ns as f64 / 1e9
    }

    /// Everything this run produced, serialized, with the host-only
    /// fields zeroed: the wall clocks (`host_*_wall_ns`) and the kernel
    /// fan-out high-water mark (`max_kernel_threads`). Two runs of the
    /// same workload and seed must agree on this string whatever their
    /// thread counts or machine — the one equality every differential
    /// battery asserts.
    pub fn deterministic_fingerprint(&self) -> String {
        let metrics = Metrics {
            host_kernel_wall_ns: 0,
            host_reshuffle_wall_ns: 0,
            host_decode_wall_ns: 0,
            max_kernel_threads: 0,
            ..self.metrics.clone()
        };
        fn json<T: Serialize>(v: &T) -> String {
            serde_json::to_string(v).expect("counters and id vectors always serialize")
        }
        [
            json(&metrics),
            json(&self.gpu),
            json(&self.visit_counts),
            json(&self.paths),
            json(&self.iterations),
        ]
        .join("|")
    }

    /// Normalize visit frequencies into a probability vector (the
    /// Monte-Carlo PageRank estimate). `None` if visits were not tracked
    /// or no steps ran.
    pub fn visit_scores(&self) -> Option<Vec<f64>> {
        let v = self.visit_counts.as_ref()?;
        let total: u64 = v.iter().sum();
        if total == 0 {
            return None;
        }
        Some(v.iter().map(|&c| c as f64 / total as f64).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_zero() {
        let m = Metrics::default();
        assert_eq!(m.graph_pool_hit_rate(), 0.0);
        assert_eq!(m.throughput(), 0.0);
    }

    #[test]
    fn hit_rate_and_throughput() {
        let m = Metrics {
            graph_pool_hits: 61,
            graph_pool_misses: 39,
            total_steps: 1_000_000,
            makespan_ns: 500_000_000,
            ..Default::default()
        };
        assert!((m.graph_pool_hit_rate() - 0.61).abs() < 1e-9);
        assert!((m.throughput() - 2_000_000.0).abs() < 1.0);
    }
}
