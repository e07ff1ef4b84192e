//! Fluent, validating builder for [`EngineConfig`].
//!
//! [`EngineConfig`] is a plain struct (handy for `..` updates in tests and
//! harnesses); downstream users get a builder that catches nonsensical
//! configurations at construction instead of as panics deep inside a run.

use crate::engine::{EngineConfig, ReloadPolicy, ZeroCopyPolicy};
use crate::reshuffle::ReshuffleMode;
use lt_gpusim::{CostModel, FaultPlan, GpuConfig};

/// Configuration rejected by [`EngineConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// Partition blocks must hold at least a header (2 offsets = 16 bytes).
    PartitionTooSmall {
        /// The offending size.
        bytes: u64,
    },
    /// Batches must hold at least one walker.
    EmptyBatch,
    /// The graph pool needs at least one block.
    EmptyGraphPool,
    /// An explicit walk pool must satisfy the `2P + 1` floor; with the
    /// partition count unknown until the graph is seen, the builder
    /// enforces the weaker `>= 3` sanity floor here (the engine enforces
    /// the exact one at construction).
    WalkPoolTooSmall {
        /// The offending block count.
        blocks: usize,
    },
    /// `max_iterations` of zero can never run anything.
    ZeroIterationBudget,
    /// Adaptive α of zero degenerates to "always zero copy"; ask for that
    /// explicitly instead.
    DegenerateAlpha,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::PartitionTooSmall { bytes } => {
                write!(f, "partition size {bytes} B cannot hold a CSR header")
            }
            ConfigError::EmptyBatch => write!(f, "batch capacity must be at least 1"),
            ConfigError::EmptyGraphPool => write!(f, "graph pool needs at least one block"),
            ConfigError::WalkPoolTooSmall { blocks } => {
                write!(
                    f,
                    "walk pool of {blocks} blocks cannot satisfy the 2P+1 floor"
                )
            }
            ConfigError::ZeroIterationBudget => write!(f, "max_iterations must be positive"),
            ConfigError::DegenerateAlpha => write!(
                f,
                "adaptive zero copy with alpha = 0 always fires; use ZeroCopyPolicy::Always"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder returned by [`EngineConfig::builder`].
#[derive(Clone, Debug)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfig {
    /// Start building from the full-featured LightTraffic preset.
    pub fn builder(partition_bytes: u64, graph_pool_blocks: usize) -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::light_traffic(partition_bytes, graph_pool_blocks),
        }
    }
}

impl EngineConfigBuilder {
    /// Walkers per batch.
    pub fn batch_capacity(mut self, walkers: usize) -> Self {
        self.cfg.batch_capacity = walkers;
        self
    }

    /// Explicit walk-pool size in blocks (default: derived from `P`).
    pub fn walk_pool_blocks(mut self, blocks: usize) -> Self {
        self.cfg.walk_pool_blocks = Some(blocks);
        self
    }

    /// RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Toggle preemptive scheduling.
    pub fn preemptive(mut self, on: bool) -> Self {
        self.cfg.preemptive = on;
        self
    }

    /// Toggle selective scheduling.
    pub fn selective(mut self, on: bool) -> Self {
        self.cfg.selective = on;
        self
    }

    /// Zero-copy policy.
    pub fn zero_copy(mut self, policy: ZeroCopyPolicy) -> Self {
        self.cfg.zero_copy = policy;
        self
    }

    /// Reshuffle write mode.
    pub fn reshuffle(mut self, mode: ReshuffleMode) -> Self {
        self.cfg.reshuffle = mode;
        self
    }

    /// Record per-iteration scheduler records.
    pub fn record_iterations(mut self, on: bool) -> Self {
        self.cfg.record_iterations = on;
        self
    }

    /// Record sampled paths.
    pub fn record_paths(mut self, on: bool) -> Self {
        self.cfg.record_paths = on;
        self
    }

    /// Device capacity in bytes.
    pub fn device_memory(mut self, bytes: u64) -> Self {
        self.cfg.gpu.memory_bytes = bytes;
        self
    }

    /// Interconnect / device cost model.
    pub fn cost_model(mut self, cost: CostModel) -> Self {
        self.cfg.gpu.cost = cost;
        self
    }

    /// Record the simulator op log (Chrome-trace export).
    pub fn record_ops(mut self, on: bool) -> Self {
        self.cfg.gpu.record_ops = on;
        self
    }

    /// Full device configuration override.
    pub fn gpu(mut self, gpu: GpuConfig) -> Self {
        self.cfg.gpu = gpu;
        self
    }

    /// Scheduler iteration safety cap.
    pub fn max_iterations(mut self, n: u64) -> Self {
        self.cfg.max_iterations = n;
        self
    }

    /// Host threads per kernel (`0` = one per available CPU, `1` =
    /// sequential). Any value produces bit-identical simulated results;
    /// only wall-clock throughput changes.
    pub fn kernel_threads(mut self, threads: usize) -> Self {
        self.cfg.kernel_threads = threads;
        self
    }

    /// Host threads for the reshuffle pipeline (`0` = follow the resolved
    /// `kernel_threads`). Any value produces bit-identical results — the
    /// pool's shard layout is structural, workers only split the fixed
    /// shard set (DESIGN.md §10).
    pub fn reshuffle_threads(mut self, threads: usize) -> Self {
        self.cfg.reshuffle_threads = threads;
        self
    }

    /// Track per-tag (per-job) step, visit, and length attribution so
    /// [`crate::LightTraffic::take_tag_deltas`] yields results. Costs one
    /// visit event per step; off by default.
    pub fn track_tags(mut self, on: bool) -> Self {
        self.cfg.track_tags = on;
        self
    }

    /// Deterministic fault-injection plan for the simulated device
    /// (`None` disables injection).
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.cfg.gpu.faults = plan;
        self
    }

    /// Iterations between automatic recovery checkpoints (`None` disables
    /// fatal-fault recovery).
    pub fn checkpoint_every(mut self, iterations: Option<u64>) -> Self {
        self.cfg.checkpoint_every = iterations;
        self
    }

    /// Retry budget per simulated copy before a retryable fault escalates.
    pub fn copy_retries(mut self, retries: u32) -> Self {
        self.cfg.copy_retries = retries;
        self
    }

    /// Simulated backoff before the first copy retry (doubles per attempt).
    pub fn retry_backoff_ns(mut self, ns: u64) -> Self {
        self.cfg.retry_backoff_ns = ns;
        self
    }

    /// Corrupted loads tolerated per partition before it degrades to
    /// zero-copy access.
    pub fn corruption_degrade_threshold(mut self, loads: u32) -> Self {
        self.cfg.corruption_degrade_threshold = loads;
        self
    }

    /// Which resident partitions an epoch seal re-copies to the device
    /// (dirty-only by default; full refresh is the naive baseline).
    pub fn reload_policy(mut self, policy: ReloadPolicy) -> Self {
        self.cfg.reload_policy = policy;
        self
    }

    /// Evolving-graph overlay auto-compaction threshold in overlay edge
    /// entries (`0` disables auto-compaction). Compaction timing never
    /// changes walk output.
    pub fn compaction_threshold(mut self, overlay_edges: u64) -> Self {
        self.cfg.compaction_threshold = overlay_edges;
        self
    }

    /// Decoded-partition slots in the host decode cache (out-of-core
    /// stores only; `0` derives from `graph_pool_blocks`).
    pub fn host_cache_partitions(mut self, slots: usize) -> Self {
        self.cfg.host_cache_partitions = slots;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        let c = &self.cfg;
        if c.partition_bytes <= 16 {
            return Err(ConfigError::PartitionTooSmall {
                bytes: c.partition_bytes,
            });
        }
        if c.batch_capacity == 0 {
            return Err(ConfigError::EmptyBatch);
        }
        if c.graph_pool_blocks == 0 {
            return Err(ConfigError::EmptyGraphPool);
        }
        if let Some(blocks) = c.walk_pool_blocks {
            if blocks < 3 {
                return Err(ConfigError::WalkPoolTooSmall { blocks });
            }
        }
        if c.max_iterations == 0 {
            return Err(ConfigError::ZeroIterationBudget);
        }
        if matches!(c.zero_copy, ZeroCopyPolicy::Adaptive { alpha: 0 }) {
            return Err(ConfigError::DegenerateAlpha);
        }
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::UniformSampling;
    use crate::LightTraffic;
    use lt_graph::gen::erdos_renyi;
    use std::sync::Arc;

    #[test]
    fn builder_round_trips_every_knob() {
        let cfg = EngineConfig::builder(64 << 10, 7)
            .batch_capacity(333)
            .walk_pool_blocks(99)
            .seed(5)
            .preemptive(false)
            .selective(false)
            .zero_copy(ZeroCopyPolicy::Always)
            .reshuffle(ReshuffleMode::DirectWrite)
            .record_iterations(true)
            .record_paths(true)
            .device_memory(1 << 30)
            .cost_model(CostModel::pcie4())
            .record_ops(true)
            .max_iterations(123)
            .kernel_threads(3)
            .reshuffle_threads(5)
            .track_tags(true)
            .fault_plan(Some(FaultPlan::retryable_only(11, 0.5)))
            .checkpoint_every(Some(40))
            .copy_retries(7)
            .retry_backoff_ns(9_999)
            .corruption_degrade_threshold(2)
            .reload_policy(ReloadPolicy::FullRefresh)
            .compaction_threshold(4_096)
            .host_cache_partitions(6)
            .build()
            .unwrap();
        assert_eq!(cfg.partition_bytes, 64 << 10);
        assert_eq!(cfg.graph_pool_blocks, 7);
        assert_eq!(cfg.batch_capacity, 333);
        assert_eq!(cfg.walk_pool_blocks, Some(99));
        assert_eq!(cfg.seed, 5);
        assert!(!cfg.preemptive && !cfg.selective);
        assert_eq!(cfg.zero_copy, ZeroCopyPolicy::Always);
        assert!(matches!(cfg.reshuffle, ReshuffleMode::DirectWrite));
        assert!(cfg.record_iterations && cfg.record_paths);
        assert_eq!(cfg.gpu.memory_bytes, 1 << 30);
        assert!(cfg.gpu.record_ops);
        assert_eq!(cfg.max_iterations, 123);
        assert_eq!(cfg.kernel_threads, 3);
        assert_eq!(cfg.reshuffle_threads, 5);
        assert!(cfg.track_tags);
        assert_eq!(cfg.gpu.faults, Some(FaultPlan::retryable_only(11, 0.5)));
        assert_eq!(cfg.checkpoint_every, Some(40));
        assert_eq!(cfg.copy_retries, 7);
        assert_eq!(cfg.retry_backoff_ns, 9_999);
        assert_eq!(cfg.corruption_degrade_threshold, 2);
        assert_eq!(cfg.reload_policy, ReloadPolicy::FullRefresh);
        assert_eq!(cfg.compaction_threshold, 4_096);
        assert_eq!(cfg.host_cache_partitions, 6);
    }

    #[test]
    fn builder_rejects_nonsense() {
        assert_eq!(
            EngineConfig::builder(8, 1).build().unwrap_err(),
            ConfigError::PartitionTooSmall { bytes: 8 }
        );
        assert_eq!(
            EngineConfig::builder(1 << 20, 1)
                .batch_capacity(0)
                .build()
                .unwrap_err(),
            ConfigError::EmptyBatch
        );
        assert_eq!(
            EngineConfig::builder(1 << 20, 0).build().unwrap_err(),
            ConfigError::EmptyGraphPool
        );
        assert_eq!(
            EngineConfig::builder(1 << 20, 1)
                .walk_pool_blocks(2)
                .build()
                .unwrap_err(),
            ConfigError::WalkPoolTooSmall { blocks: 2 }
        );
        assert_eq!(
            EngineConfig::builder(1 << 20, 1)
                .max_iterations(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroIterationBudget
        );
        assert_eq!(
            EngineConfig::builder(1 << 20, 1)
                .zero_copy(ZeroCopyPolicy::Adaptive { alpha: 0 })
                .build()
                .unwrap_err(),
            ConfigError::DegenerateAlpha
        );
    }

    #[test]
    fn built_config_drives_an_engine() {
        let g = Arc::new(erdos_renyi(256, 2048, 1).csr);
        let cfg = EngineConfig::builder(8 << 10, 2)
            .batch_capacity(64)
            .seed(9)
            .build()
            .unwrap();
        let mut e = LightTraffic::new(g, Arc::new(UniformSampling::new(5)), cfg).unwrap();
        let r = e.run(300).unwrap();
        assert_eq!(r.metrics.finished_walks, 300);
    }
}
