//! What an engine is built from and what its calls report: the
//! configuration, its validation, and the status, summary and error types.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;

/// When to read the graph through zero copy instead of loading partitions
/// (§III-E).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ZeroCopyPolicy {
    /// Always load partitions explicitly ("All Explicit Copy").
    Never,
    /// Never load partitions; all graph reads go over PCIe ("All Zero
    /// Copy").
    Always,
    /// Use zero copy for a non-resident partition when `alpha * walks <
    /// partition bytes` — the paper's adaptive rule with α ≈ 256 B.
    Adaptive {
        /// Estimated zero-copy bytes per walk (α).
        alpha: u64,
    },
}

impl ZeroCopyPolicy {
    /// The paper's default adaptive policy (α = 256 B).
    pub fn adaptive() -> Self {
        ZeroCopyPolicy::Adaptive { alpha: 256 }
    }
}

/// Engine configuration. Start from [`EngineConfig::baseline`] or
/// [`EngineConfig::light_traffic`] and override fields.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Graph partition byte budget (graph-pool block size).
    pub partition_bytes: u64,
    /// Walkers per batch (`B / S_w`; the paper uses 16× the GPU core count).
    pub batch_capacity: usize,
    /// Graph-pool blocks (`m_g`).
    pub graph_pool_blocks: usize,
    /// Walk-pool blocks; `None` derives `4P` (roomy). The engine raises
    /// any value below the paper's `2P + 1` floor (a frontier and a
    /// reserve per partition plus one circulating block) to it, so
    /// `Some(0)` means "the floor".
    pub walk_pool_blocks: Option<usize>,
    /// RNG seed for all walks.
    pub seed: u64,
    /// Preemptive scheduling (PS) on/off.
    pub preemptive: bool,
    /// Selective scheduling (SS) on/off: most-walks partition selection,
    /// fewest-walks graph eviction, and the batch choice/eviction
    /// heuristics of §III-D.
    pub selective: bool,
    /// Zero-copy policy (adaptive scheduling, §III-E).
    pub zero_copy: ZeroCopyPolicy,
    /// Reshuffle write mode (two-level caching vs direct write, §III-C).
    pub reshuffle: ReshuffleMode,
    /// Record one [`crate::metrics::IterationRecord`] per scheduler
    /// iteration (straggler analysis, debugging).
    pub record_iterations: bool,
    /// Record every walk's vertex sequence (DeepWalk-style sampling
    /// output). Paths are emitted host-side, mirroring the paper's setup
    /// where sampled paths ship to other GPUs and are not stored on the
    /// walking GPU (§IV-A).
    pub record_paths: bool,
    /// Simulated device.
    pub gpu: GpuConfig,
    /// Safety limit on scheduler iterations.
    pub max_iterations: u64,
    /// Iterations between automatic in-memory checkpoints. When set, a
    /// fatal device error rolls the run back to the latest snapshot and
    /// continues (the lost simulated time stays on the clock as recovery
    /// overhead); when `None`, a fatal error aborts the run.
    pub checkpoint_every: Option<u64>,
    /// Host threads stepping each kernel's batch (`0` = one per available
    /// CPU, `1` = sequential). Because walker RNG is counter-based and
    /// per-chunk outputs merge in chunk order, every thread count produces
    /// bit-identical visit counts, paths, and simulated metrics — only
    /// wall-clock throughput changes. See [`crate::kernel`].
    pub kernel_threads: usize,
    /// Mirror every simulated byte moved over the CPU-GPU link into a
    /// host-side [`lt_telemetry::TrafficLedger`] keyed by
    /// `(job tag, partition, direction)`. The ledger is charged at the
    /// same five sites the simulated device charges (graph loads, walk
    /// loads, walk evictions, reshuffle evictions, zero-copy kernels),
    /// attempt for attempt, so its sums equal [`lt_gpusim::GpuStats`]
    /// exactly — see DESIGN.md §14. Pull-side observability state only:
    /// it never feeds back into scheduling or the simulated timeline.
    /// Off by default — disabled runs pay one `Option` check per copy.
    pub attribution: bool,
}

impl EngineConfig {
    /// The basic partition-based pipeline the paper compares against in
    /// Figure 13: round-robin partition selection, FIFO graph eviction, no
    /// preemption, explicit copies only.
    pub fn baseline(partition_bytes: u64, graph_pool_blocks: usize) -> Self {
        EngineConfig {
            partition_bytes,
            batch_capacity: 4096,
            graph_pool_blocks,
            walk_pool_blocks: None,
            seed: 42,
            preemptive: false,
            selective: false,
            zero_copy: ZeroCopyPolicy::Never,
            reshuffle: ReshuffleMode::default(),
            record_iterations: false,
            record_paths: false,
            gpu: Self::default_gpu(),
            max_iterations: 10_000_000,
            kernel_threads: 0,
            attribution: false,
            checkpoint_every: None,
        }
    }

    /// [`GpuConfig::default`], plus the CI fault drill: when
    /// `LT_TEST_FAULT_SEED` is set, every baseline-derived config injects a
    /// retryable-only [`lt_gpusim::FaultPlan`] (2% copy-fault rate) so the
    /// whole test suite exercises the retry path. Retryable faults only
    /// perturb the simulated timeline, never data, so every data-output
    /// assertion still holds.
    fn default_gpu() -> GpuConfig {
        let mut gpu = GpuConfig::default();
        if let Some(seed) = std::env::var("LT_TEST_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            gpu.faults = Some(lt_gpusim::FaultPlan::retryable_only(seed, 0.02));
        }
        gpu
    }

    /// Full LightTraffic: PS + SS + adaptive zero copy + two-level
    /// reshuffling.
    pub fn light_traffic(partition_bytes: u64, graph_pool_blocks: usize) -> Self {
        EngineConfig {
            preemptive: true,
            selective: true,
            zero_copy: ZeroCopyPolicy::adaptive(),
            ..Self::baseline(partition_bytes, graph_pool_blocks)
        }
    }

    /// Reject values no run can work with, before they reach a pool
    /// constructor or the partitioner as a panic. Only what can be judged
    /// without the partition count is checked here; a tight
    /// `walk_pool_blocks` is raised to its floor at construction instead.
    pub(super) fn validate(&self) -> Result<(), EngineError> {
        let reason = if self.partition_bytes <= 16 {
            "partition_bytes must exceed 16, the size of an empty partition's offsets"
        } else if self.batch_capacity == 0 {
            "batch_capacity must be at least 1"
        } else if self.graph_pool_blocks == 0 {
            "graph_pool_blocks must be at least 1"
        } else if self.max_iterations == 0 {
            "max_iterations must be at least 1"
        } else if matches!(self.zero_copy, ZeroCopyPolicy::Adaptive { alpha: 0 }) {
            "adaptive zero copy with alpha = 0 always fires; use ZeroCopyPolicy::Always"
        } else {
            return Ok(());
        };
        Err(EngineError::InvalidConfig(reason))
    }
}

/// What one [`crate::LightTraffic::seal_epoch`] did: the mutation volume
/// it applied, the partitions it invalidated, and the reload traffic the
/// invalidation cost.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EpochSummary {
    /// The graph epoch that just became current.
    pub epoch: u64,
    /// Edges inserted by this seal.
    pub inserted: u64,
    /// Edges actually removed by this seal.
    pub deleted: u64,
    /// Source vertices whose adjacency changed.
    pub dirty_vertices: u64,
    /// Partitions containing at least one dirty vertex.
    pub dirty_partitions: u64,
    /// Resident partitions re-copied to the device: the dirty ones.
    pub reloaded_partitions: u64,
    /// Bytes those re-copies moved over the link (charged as
    /// [`lt_gpusim::Category::GraphReload`] /
    /// [`lt_telemetry::TrafficDirection::Reload`]).
    pub reload_bytes: u64,
}

/// Outcome of a bounded scheduling call ([`crate::LightTraffic::step`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum RunStatus {
    /// All walks finished; the final result is attached.
    Completed(Box<RunResult>),
    /// The iteration budget ran out with walks still in flight — the
    /// engine can be checkpointed or driven further.
    Paused,
}

/// Errors from engine construction or runs.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// An [`EngineConfig`] field holds a value no run can work with; the
    /// message names the field and the bound.
    InvalidConfig(&'static str),
    /// The configured pools (plus visit buffer) exceed device memory.
    OutOfMemory(OutOfMemory),
    /// A device copy failed past the retry budget (or fatally on the first
    /// attempt) and no recovery snapshot was available. The source
    /// [`lt_gpusim::DeviceError`] is attached.
    Device(lt_gpusim::DeviceError),
    /// Reading or decoding the graph store failed mid-run (an out-of-core
    /// file truncated or unreadable after it was opened). The source
    /// [`lt_graph::GraphError`] is attached; the engine does not recover
    /// from it, and every walker stays in the walk pools.
    Graph(lt_graph::GraphError),
    /// The run passed [`EngineConfig::max_iterations`].
    IterationLimit(u64),
    /// A checkpoint was created under a different RNG seed; resuming it
    /// would silently change every remaining trajectory.
    SeedMismatch {
        /// Seed in the checkpoint.
        checkpoint: u64,
        /// Seed of this engine.
        engine: u64,
    },
    /// A checkpoint was taken at a different graph epoch than this
    /// engine's; the walkers would resume onto a different adjacency and
    /// silently follow different trajectories. Replay the same mutation
    /// schedule to the checkpoint's epoch before restoring.
    EpochMismatch {
        /// Epoch recorded in the checkpoint.
        checkpoint: u64,
        /// Current epoch of this engine.
        engine: u64,
    },
    /// A single vertex's adjacency list exceeds the partition block size
    /// (the paper's Yahoo hub case) and the zero-copy policy is `Never`,
    /// so the partition can never be made resident. Enable zero copy or
    /// enlarge the partitions.
    OversizedPartition {
        /// The offending partition.
        partition: PartitionId,
        /// Its transfer size.
        bytes: u64,
        /// The graph-pool block size.
        block_bytes: u64,
    },
    /// A submission was rejected at admission time (unknown tenant, job
    /// table full, malformed spec). The message says why.
    Admission(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::InvalidConfig(reason) => write!(f, "invalid engine config: {reason}"),
            EngineError::OutOfMemory(e) => write!(f, "{e}"),
            EngineError::Device(e) => write!(f, "device error: {e}"),
            EngineError::Graph(e) => write!(f, "reading the graph store: {e}"),
            EngineError::IterationLimit(n) => {
                write!(f, "exceeded the scheduler iteration limit ({n})")
            }
            EngineError::SeedMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint seed {checkpoint} does not match engine seed {engine}"
            ),
            EngineError::EpochMismatch { checkpoint, engine } => write!(
                f,
                "checkpoint graph epoch {checkpoint} does not match engine epoch {engine}"
            ),
            EngineError::OversizedPartition {
                partition,
                bytes,
                block_bytes,
            } => write!(
                f,
                "partition {partition} ({bytes} bytes) exceeds the graph-pool block \
                 ({block_bytes} bytes) and zero copy is disabled; a hub vertex this \
                 large needs zero copy (or vertex splitting, the paper's future work)"
            ),
            EngineError::Admission(msg) => write!(f, "admission rejected: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Device(e) => Some(e),
            EngineError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OutOfMemory> for EngineError {
    fn from(e: OutOfMemory) -> Self {
        EngineError::OutOfMemory(e)
    }
}

impl From<lt_gpusim::DeviceError> for EngineError {
    fn from(e: lt_gpusim::DeviceError) -> Self {
        EngineError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{graph, hub_graph};
    use super::*;
    use crate::algorithm::UniformSampling;
    use crate::LightTraffic;
    use lt_graph::PartitionedGraph;
    use std::sync::Arc;

    #[test]
    fn out_of_memory_is_reported() {
        let g = graph();
        let cfg = EngineConfig {
            gpu: GpuConfig {
                memory_bytes: 4 << 10, // far too small for the pools
                ..GpuConfig::default()
            },
            ..EngineConfig::baseline(16 << 10, 4)
        };
        match LightTraffic::new(g, Arc::new(UniformSampling::new(4)), cfg) {
            Err(EngineError::OutOfMemory(_)) => {}
            other => panic!("expected OOM, got {:?}", other.err()),
        }
    }

    #[test]
    fn oversized_partition_rejected_without_zero_copy() {
        let cfg = EngineConfig {
            batch_capacity: 128,
            ..EngineConfig::baseline(1 << 10, 4)
        };
        match LightTraffic::new(hub_graph(), Arc::new(UniformSampling::new(4)), cfg) {
            Err(
                e @ EngineError::OversizedPartition {
                    partition,
                    bytes,
                    block_bytes,
                },
            ) => {
                assert!(bytes > block_bytes);
                assert_eq!(
                    e.to_string(),
                    format!(
                        "partition {partition} ({bytes} bytes) exceeds the graph-pool block \
                         ({block_bytes} bytes) and zero copy is disabled; a hub vertex this \
                         large needs zero copy (or vertex splitting, the paper's future work)"
                    )
                );
                assert!(!e.to_string().contains("  "), "{e}");
            }
            other => panic!("expected oversized error, got {:?}", other.err()),
        }
    }

    #[test]
    fn unusable_config_values_are_errors_at_construction() {
        type Spoil = fn(&mut EngineConfig);
        let bad: [(&str, Spoil); 5] = [
            ("partition_bytes", |c| c.partition_bytes = 16),
            ("batch_capacity", |c| c.batch_capacity = 0),
            ("graph_pool_blocks", |c| c.graph_pool_blocks = 0),
            ("max_iterations", |c| c.max_iterations = 0),
            ("alpha", |c| {
                c.zero_copy = ZeroCopyPolicy::Adaptive { alpha: 0 }
            }),
        ];
        let pg = Arc::new(PartitionedGraph::build(graph(), 16 << 10));
        for (field, spoil) in bad {
            let mut cfg = EngineConfig::light_traffic(16 << 10, 4);
            spoil(&mut cfg);
            let alg = Arc::new(UniformSampling::new(4));
            // Both entry points: `new` must not reach the partitioner's
            // block-size assert either.
            for built in [
                LightTraffic::new(graph(), alg.clone(), cfg.clone()),
                LightTraffic::with_partitioned(pg.clone(), alg.clone(), cfg.clone()),
            ] {
                match built {
                    Err(EngineError::InvalidConfig(reason)) => {
                        assert!(reason.contains(field), "{field}: {reason}")
                    }
                    other => panic!("{field}: expected InvalidConfig, got {:?}", other.err()),
                }
            }
        }
    }
}
