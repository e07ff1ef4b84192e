//! The LightTraffic engine: Algorithm 2 with the 3-phase pipeline,
//! preemptive scheduling, selective scheduling, and adaptive zero copy.
//!
//! One scheduler iteration (Figure 4): select a partition, load its graph
//! partition (explicit copy or zero copy; skipped on a graph-pool hit),
//! load its walk batches, compute all its walks, and reshuffle updated
//! walks into the write frontiers of their new partitions. While the load
//! stream is busy, preemptive scheduling dispatches kernels for batches
//! whose graph partition and walk data are already cached (§III-D).
//!
//! Kernels execute *eagerly* on the host — walkers really move, visit
//! counts really accumulate — while their simulated duration is charged on
//! the [`lt_gpusim`] timeline, so scheduling decisions (which read
//! `busy(loadStream)` and the simulated clock) interleave exactly as the
//! paper's CUDA streams do.

use crate::algorithm::WalkAlgorithm;
use crate::batch::WalkBatch;
use crate::exec::ExecPool;
use crate::graphpool::{DeviceGraphPool, GraphEviction};
use crate::hostcache::{self, HostDecodeCache};
use crate::kernel::{self, GraphView, HostBlockView};
use crate::metrics::{Metrics, RunResult};
use crate::reshuffle::{LocalIndex, ReshuffleMode};
use crate::walker::Walker;
use crate::walkpool::{DeviceWalkPool, HostWalkPool};
use lt_gpusim::sim::{Allocation, OutOfMemory};
use lt_gpusim::{Category, CostModel, Direction, Gpu, GpuConfig, KernelCost, StreamId};
use lt_graph::delta::{DeltaGraph, EdgeUpdate};
use lt_graph::{Csr, GraphStore, PartitionData, PartitionId, PartitionedGraph, VertexId};
use lt_telemetry::{apportion_exact, EventBus, Level, TrafficDirection, TrafficLedger, SHARED_TAG};
use std::sync::Arc;
use std::time::Instant;

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
    /// Re-issues of a simulated copy after a retryable fault before the
    /// error escalates as fatal.
    pub copy_retries: u32,
    /// Simulated backoff charged to the host clock before the first retry
    /// of a faulted copy; doubles on every further attempt.
    pub retry_backoff_ns: u64,
    /// Corrupted loads of one partition tolerated before the engine stops
    /// copying it and degrades it to zero-copy access for good.
    pub corruption_degrade_threshold: u32,
    /// Host threads stepping each kernel's batch (`0` = one per available
    /// CPU, `1` = sequential). Because walker RNG is counter-based and
    /// per-chunk outputs merge in chunk order, every thread count produces
    /// bit-identical visit counts, paths, and simulated metrics — only
    /// wall-clock throughput changes. See [`crate::kernel`].
    pub kernel_threads: usize,
    /// Attribute every executed step and finished walk to the owning job
    /// tag ([`crate::Walker::tag`]) and buffer the per-tag results as
    /// [`crate::TagDelta`]s for [`LightTraffic::take_tag_deltas`]. This is
    /// the engine half of multi-tenant serving (`lt-server`): a scheduler
    /// injects tagged walkers from many jobs and separates their results
    /// on merge. Off by default — single-tenant runs pay nothing.
    pub track_tags: bool,
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
    /// Decoded-partition slots in the host decode cache used when the
    /// graph store is out-of-core ([`lt_graph::GraphStore::OutOfCore`]).
    /// `0` derives `max(2, 2 × graph_pool_blocks)` (clamped to the
    /// partition count): the RAM tier holds what the device holds plus
    /// headroom for second-order zero-copy views. Ignored on RAM stores.
    pub host_cache_partitions: usize,
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
            track_tags: false,
            attribution: false,
            host_cache_partitions: 0,
            checkpoint_every: None,
            copy_retries: 3,
            retry_backoff_ns: 200_000,
            corruption_degrade_threshold: 3,
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
    fn validate(&self) -> Result<(), EngineError> {
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

/// What one [`LightTraffic::seal_epoch`] did: the mutation volume it
/// applied, the partitions it invalidated, and the reload traffic the
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

/// Outcome of a bounded scheduling call ([`LightTraffic::run_at_most`]).
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
    /// A tenant's token budget cannot cover the requested admission. The
    /// serving layer (`lt-server`) treats exhaustion as backpressure —
    /// jobs park and resume after a top-up — and surfaces this error only
    /// for operations that *require* immediate budget (e.g. submitting to
    /// a tenant whose balance is already zero with parking disabled).
    BudgetExhausted {
        /// The tenant whose balance ran dry.
        tenant: String,
        /// Tokens the operation needed.
        needed: u64,
        /// Tokens actually available.
        available: u64,
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
                "partition {partition} ({bytes} bytes) exceeds the graph-pool block                  ({block_bytes} bytes) and zero copy is disabled; a hub vertex this                  large needs zero copy (or vertex splitting, the paper's future work)"
            ),
            EngineError::BudgetExhausted {
                tenant,
                needed,
                available,
            } => write!(
                f,
                "tenant {tenant} has {available} budget tokens but the operation                  needs {needed}"
            ),
            EngineError::Admission(msg) => write!(f, "admission rejected: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Device(e) => Some(e),
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

/// Host-side accumulation of sampled walk paths, keyed by walk id.
#[derive(Clone, Debug, Default)]
struct PathLog {
    paths: Vec<Vec<VertexId>>,
}

impl PathLog {
    fn push(&mut self, walk_id: u64, v: VertexId) {
        let i = walk_id as usize;
        if i >= self.paths.len() {
            self.paths.resize(i + 1, Vec::new());
        }
        self.paths[i].push(v);
    }

    /// Start a fresh path for a reused walk id (new walk, same id).
    fn reset(&mut self, walk_id: u64) {
        let i = walk_id as usize;
        if i < self.paths.len() {
            self.paths[i].clear();
        }
    }

    fn into_paths(self) -> Vec<Vec<VertexId>> {
        self.paths
    }
}

/// In-memory recovery snapshot taken every
/// [`EngineConfig::checkpoint_every`] iterations: a regular checkpoint
/// plus the host-side result accumulators a restore must roll back.
/// Counters describing *device activity* (traffic, retries, hit rates) are
/// deliberately absent — work lost to a fault really happened and stays on
/// the books as recovery overhead.
#[derive(Clone)]
struct AutoSnapshot {
    cp: crate::checkpoint::Checkpoint,
    length_histogram: Vec<u64>,
    paths: Option<PathLog>,
    iteration_log: Option<Vec<crate::metrics::IterationRecord>>,
    rr_cursor: u32,
}

/// The out-of-GPU-memory random walk engine.
pub struct LightTraffic {
    cfg: EngineConfig,
    /// Partitions whose single hub vertex overflows a graph-pool block;
    /// they are always read via zero copy.
    oversized: Vec<bool>,
    cost: CostModel,
    gpu: Gpu,
    pg: Arc<PartitionedGraph>,
    alg: Arc<dyn WalkAlgorithm>,
    walker_bytes: u64,
    load_stream: StreamId,
    evict_stream: StreamId,
    comp_stream: StreamId,
    graph_pool: DeviceGraphPool,
    host_pool: HostWalkPool,
    device_pool: DeviceWalkPool,
    visit_counts: Option<Vec<u64>>,
    visit_alloc: Option<Allocation>,
    paths: Option<PathLog>,
    iteration_log: Option<Vec<crate::metrics::IterationRecord>>,
    metrics: Metrics,
    rr_cursor: u32,
    active: u64,
    /// Resolved [`EngineConfig::kernel_threads`] (`0` already expanded to
    /// the available parallelism).
    kernel_threads: usize,
    /// Persistent host worker pool every parallel phase runs on (kernel
    /// chunks, out-of-core decode).
    exec: ExecPool,
    /// Recycled per-chunk output buffers shared by inline and pooled
    /// stepping. Allocation cache only — outputs are bit-identical with
    /// or without recycling.
    scratch: Arc<kernel::ScratchPool>,
    /// The reshuffle's local index (Algorithm 1): the recycled buffers
    /// [`Self::finish_kernel`] counting-sorts each kernel's movers into.
    local_index: LocalIndex,
    /// Partitions degraded to zero-copy access after repeated corrupted
    /// loads (fault recovery, alongside `oversized`).
    degraded: Vec<bool>,
    /// Corrupted loads seen per partition, driving the degrade decision.
    corrupt_loads: Vec<u32>,
    /// Per-tag result accumulation since the last
    /// [`Self::take_tag_deltas`] drain, keyed by job tag
    /// ([`EngineConfig::track_tags`]). A `BTreeMap` so drains observe
    /// tags in ascending order — deterministic for any thread count.
    tag_deltas: std::collections::BTreeMap<u32, crate::job::TagDelta>,
    /// Iteration count at which the next auto-snapshot is due.
    next_snapshot_at: u64,
    /// Latest auto-snapshot (fatal faults roll back to it).
    snapshot: Option<AutoSnapshot>,
    /// Event bus shared with the simulated device
    /// ([`lt_gpusim::GpuConfig::telemetry`]). Engine events are emitted
    /// only from the driver thread, stamped with the simulated clock, so
    /// the stream is bit-identical across
    /// [`EngineConfig::kernel_threads`] settings.
    telemetry: EventBus,
    /// Per-`(tag, partition, direction)` byte attribution
    /// ([`EngineConfig::attribution`]); `None` when attribution is off.
    /// Charged in lock-step with the simulated link (including failed
    /// attempts) and, like the device's traffic counters, never rolled
    /// back by [`Self::recover`] — moved bytes really moved.
    ledger: Option<TrafficLedger>,
    /// Per-tag steps already credited to the ledger from the live
    /// `tag_deltas` counters (sorted by tag). Step credit is synced
    /// lazily — once per `run_at_most` return and before each
    /// `take_tag_deltas` drain — instead of per kernel, keeping
    /// attribution off the merge hot path.
    ledger_steps_credited: Vec<(u32, u64)>,
    /// Evolving-graph block table, created lazily by the first
    /// [`LightTraffic::mutate`] / [`LightTraffic::seal_epoch`] call.
    /// `None` means the graph is static and the epoch clock reads 0.
    /// `Some` means every adjacency read goes to these blocks: `pg` has
    /// released its store and keeps only the partition geometry and sizes.
    evolving: Option<DeltaGraph>,
    /// Host decode cache — the RAM tier between disk and device when the
    /// graph store is out-of-core. `None` on RAM stores (partition
    /// extraction is a slice copy there).
    host_cache: Option<HostDecodeCache>,
}

impl LightTraffic {
    /// Build an engine over `graph` running `alg`. Partitions the graph,
    /// reserves both device pools (and the visit-frequency buffer when the
    /// algorithm needs one), and creates the three streams of Algorithm 2.
    pub fn new(
        graph: Arc<Csr>,
        alg: Arc<dyn WalkAlgorithm>,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        // The partitioner panics on a block too small for a header.
        cfg.validate()?;
        let pg = Arc::new(PartitionedGraph::build(graph, cfg.partition_bytes));
        Self::with_partitioned(pg, alg, cfg)
    }

    /// Build an engine over a [`GraphStore`] — RAM-resident or
    /// out-of-core. For out-of-core stores the file fixes the partition
    /// geometry, so `cfg.partition_bytes` is overridden with the block
    /// budget the file was written with, and a host decode cache
    /// ([`EngineConfig::host_cache_partitions`]) is installed between
    /// disk and the device graph pool. Walk output is bit-identical to a
    /// RAM store of the same graph partitioned at the same budget.
    pub fn from_store(
        store: GraphStore,
        alg: Arc<dyn WalkAlgorithm>,
        mut cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        match store {
            GraphStore::Ram(g) => Self::new(g, alg, cfg),
            GraphStore::OutOfCore(ooc) => {
                cfg.partition_bytes = ooc.block_bytes();
                let pg = Arc::new(PartitionedGraph::from_ooc(ooc));
                Self::with_partitioned(pg, alg, cfg)
            }
        }
    }

    /// Build an engine over an already-partitioned graph.
    pub fn with_partitioned(
        pg: Arc<PartitionedGraph>,
        alg: Arc<dyn WalkAlgorithm>,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        let p = pg.num_partitions();
        let gpu = Gpu::new(cfg.gpu.clone());
        let cost = gpu.cost_model();
        let walker_bytes = alg.walker_state_bytes();
        let batch_capacity = cfg.batch_capacity;
        let batch_bytes = batch_capacity as u64 * walker_bytes;
        // 2P pinned frontier/reserve pairs plus one circulating block.
        let walk_blocks = cfg
            .walk_pool_blocks
            .unwrap_or(4 * p as usize)
            .max(2 * p as usize + 1);
        let graph_pool = DeviceGraphPool::new(&gpu, p, cfg.graph_pool_blocks, cfg.partition_bytes)?;
        let device_pool = DeviceWalkPool::new(&gpu, p, walk_blocks, batch_bytes, batch_capacity)?;
        let (visit_counts, visit_alloc) = if alg.tracks_visits() {
            let nv = pg.num_vertices();
            let alloc = gpu.malloc(nv * 4)?;
            (Some(vec![0u64; nv as usize]), Some(alloc))
        } else {
            (None, None)
        };
        let mut oversized = vec![false; p as usize];
        for part in pg.oversized_partitions() {
            if matches!(cfg.zero_copy, ZeroCopyPolicy::Never) {
                return Err(EngineError::OversizedPartition {
                    partition: part,
                    bytes: pg.partition_bytes(part),
                    block_bytes: cfg.partition_bytes,
                });
            }
            oversized[part as usize] = true;
        }
        let load_stream = gpu.create_stream("load");
        let evict_stream = gpu.create_stream("evict");
        let comp_stream = gpu.create_stream("compute");
        let paths = cfg.record_paths.then(PathLog::default);
        let iteration_log = cfg.record_iterations.then(Vec::new);
        let kernel_threads = kernel::resolve_threads(cfg.kernel_threads);
        // One long-lived pool; it outlives every batch, so the hot path
        // never spawns a thread.
        let exec = ExecPool::new(kernel_threads);
        let telemetry = gpu.telemetry();
        let ledger = cfg.attribution.then(TrafficLedger::new);
        let host_cache = pg.store().ooc().map(|ooc| {
            let slots = if cfg.host_cache_partitions == 0 {
                (2 * cfg.graph_pool_blocks).max(2)
            } else {
                cfg.host_cache_partitions
            };
            HostDecodeCache::new(Arc::clone(ooc), slots.min(p as usize).max(1))
        });
        Ok(LightTraffic {
            telemetry,
            ledger,
            ledger_steps_credited: Vec::new(),
            cfg,
            oversized,
            paths,
            iteration_log,
            cost,
            gpu,
            pg,
            alg,
            walker_bytes,
            load_stream,
            evict_stream,
            comp_stream,
            graph_pool,
            host_pool: HostWalkPool::new(p, batch_capacity),
            device_pool,
            visit_counts,
            visit_alloc,
            metrics: Metrics::default(),
            rr_cursor: 0,
            active: 0,
            kernel_threads,
            exec,
            scratch: Arc::new(kernel::ScratchPool::new()),
            local_index: LocalIndex::default(),
            degraded: vec![false; p as usize],
            corrupt_loads: vec![0; p as usize],
            tag_deltas: std::collections::BTreeMap::new(),
            next_snapshot_at: 0,
            snapshot: None,
            evolving: None,
            host_cache,
        })
    }

    /// The partition table in use.
    pub fn partitions(&self) -> &PartitionedGraph {
        &self.pg
    }

    /// The simulated device (for inspecting stats mid-run).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// The engine counters accumulated so far (mid-run snapshot; a run's
    /// final values land in [`RunResult::metrics`]).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Per-iteration records collected so far, when
    /// [`EngineConfig::record_iterations`] is set.
    pub fn iteration_records(&self) -> Option<&[crate::metrics::IterationRecord]> {
        self.iteration_log.as_deref()
    }

    /// The event bus engine and device publish into (see
    /// [`lt_gpusim::GpuConfig::telemetry`]).
    pub fn telemetry_bus(&self) -> EventBus {
        self.telemetry.clone()
    }

    /// Live counters of the persistent worker pool (always `Some`; the
    /// `Option` is kept for callers written against the engine when the
    /// pool was optional). Published by the telemetry snapshot as
    /// `lt_exec_*` series.
    pub fn exec_stats(&self) -> Option<crate::exec::ExecStats> {
        Some(self.exec.stats())
    }

    /// Open a [`crate::session::Session`] over `graph` — the preferred
    /// driver API (inject walks, step with a budget, checkpoint, finish).
    pub fn session(
        graph: Arc<Csr>,
        alg: Arc<dyn WalkAlgorithm>,
        cfg: EngineConfig,
    ) -> Result<crate::session::Session, EngineError> {
        Ok(crate::session::Session::from_engine(Self::new(
            graph, alg, cfg,
        )?))
    }

    /// Wrap an already-built engine in a [`crate::session::Session`].
    pub fn into_session(self) -> crate::session::Session {
        crate::session::Session::from_engine(self)
    }

    /// Run the algorithm's standard workload of `num_walks` walks.
    ///
    /// **Deprecated convenience:** equivalent to a [`crate::session::Session`]
    /// with `inject_walks(num_walks)` followed by `finish()`. Prefer the
    /// session API; this wrapper stays for one-shot experiments.
    pub fn run(&mut self, num_walks: u64) -> Result<RunResult, EngineError> {
        self.drive_job(JobInput::Walks(num_walks))
    }

    /// Run an explicit set of initial walkers (used by the multi-round
    /// baseline and by tests).
    ///
    /// **Deprecated convenience:** equivalent to
    /// [`crate::session::Session::inject`] followed by `finish()`.
    ///
    /// # Panics
    /// Panics if a walker's `vertex` is outside the graph (see
    /// [`LightTraffic::inject`]).
    pub fn run_with_walkers(&mut self, walkers: Vec<Walker>) -> Result<RunResult, EngineError> {
        self.drive_job(JobInput::Walkers(walkers))
    }

    /// The one internal job-driven path every convenience wrapper
    /// (`run`, `run_with_walkers`, `resume`) funnels through: seed the
    /// in-flight set from the job input, then drive it to completion.
    /// The session API is the stepwise exposure of the same flow.
    fn drive_job(&mut self, input: JobInput) -> Result<RunResult, EngineError> {
        match input {
            JobInput::Walks(n) => self.inject_walks(n),
            JobInput::Walkers(ws) => self.inject(ws),
            JobInput::Resume(cp) => self.restore(*cp)?,
        }
        match self.run_at_most(u64::MAX)? {
            RunStatus::Completed(r) => Ok(*r),
            _ => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Generate and add `num_walks` of the algorithm's standard walkers to
    /// the in-flight set without running anything.
    pub fn inject_walks(&mut self, num_walks: u64) {
        let walkers = self.alg.place_walkers(self.pg.num_vertices(), num_walks);
        self.inject(walkers);
    }

    /// Walks currently in flight (injected and not yet finished).
    pub fn active_walks(&self) -> u64 {
        self.active
    }

    /// Add walkers to the in-flight set without running anything.
    ///
    /// With `record_paths`, a *fresh* walker (step 0) that reuses a
    /// previously-seen walk id starts a new path (repeated [`LightTraffic::run`]
    /// calls restart ids at 0); a resumed walker (step > 0) continues
    /// appending to its existing, possibly partial, path.
    ///
    /// # Panics
    /// Panics if a walker's `vertex` is outside the graph (`vertex >= |V|`)
    /// — injected state must belong to this engine's graph, e.g. a
    /// checkpoint taken on the same dataset.
    pub fn inject(&mut self, walkers: Vec<Walker>) {
        for w in walkers {
            if let Some(paths) = self.paths.as_mut() {
                if w.step == 0 {
                    paths.reset(w.id);
                }
                paths.push(w.id, w.vertex);
            }
            let p = self.pg.partition_of(w.vertex);
            self.host_pool.insert(p, w);
            self.active += 1;
        }
    }

    /// Snapshot the in-flight walk index and accumulated results (see
    /// [`crate::checkpoint`]). Walkers are sorted by id so snapshots are
    /// canonical.
    pub fn checkpoint(&self) -> crate::checkpoint::Checkpoint {
        let mut walkers: Vec<Walker> = self
            .host_pool
            .iter_walkers()
            .chain(self.device_pool.iter_walkers())
            .copied()
            .collect();
        walkers.sort_unstable_by_key(|w| (w.tag, w.id));
        crate::checkpoint::Checkpoint {
            seed: self.cfg.seed,
            epoch: self.epoch(),
            walkers,
            visit_counts: self.visit_counts.clone(),
            total_steps: self.metrics.total_steps,
            finished_walks: self.metrics.finished_walks,
        }
    }

    /// Load a checkpoint into this engine without running: progress
    /// counters and visit counts merge in, walkers join the in-flight set.
    pub fn restore(&mut self, cp: crate::checkpoint::Checkpoint) -> Result<(), EngineError> {
        if cp.seed != self.cfg.seed {
            return Err(EngineError::SeedMismatch {
                checkpoint: cp.seed,
                engine: self.cfg.seed,
            });
        }
        if cp.epoch != self.epoch() {
            return Err(EngineError::EpochMismatch {
                checkpoint: cp.epoch,
                engine: self.epoch(),
            });
        }
        self.metrics.total_steps += cp.total_steps;
        self.metrics.finished_walks += cp.finished_walks;
        match (self.visit_counts.as_mut(), cp.visit_counts) {
            (Some(mine), Some(theirs)) => {
                for (a, b) in mine.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
            (None, Some(theirs)) => self.visit_counts = Some(theirs),
            _ => {}
        }
        self.inject(cp.walkers);
        Ok(())
    }

    /// Resume a checkpointed run to completion on this (fresh) engine.
    /// Visit counts and progress counters continue from the snapshot;
    /// trajectories are bit-identical to the uninterrupted run.
    ///
    /// **Deprecated convenience:** equivalent to
    /// [`crate::session::Session::restore`] followed by `finish()`.
    pub fn resume(&mut self, cp: crate::checkpoint::Checkpoint) -> Result<RunResult, EngineError> {
        self.drive_job(JobInput::Resume(Box::new(cp)))
    }

    /// The current graph epoch: the number of [`Self::seal_epoch`] calls.
    /// 0 for a static (never-mutated) graph.
    pub fn epoch(&self) -> u64 {
        self.evolving.as_ref().map_or(0, |d| d.epoch())
    }

    /// Buffered edge updates awaiting the next [`Self::seal_epoch`].
    pub fn pending_mutations(&self) -> usize {
        self.evolving.as_ref().map_or(0, |d| d.pending())
    }

    /// The evolving-graph layer holds every partition block in RAM (a
    /// seal rewrites the dirty ones); an out-of-core store cannot serve
    /// that. Materialize with [`lt_graph::OocGraph::to_csr`] first.
    fn reject_ooc_mutation(&self) -> Result<(), EngineError> {
        if self.host_cache.is_some() {
            return Err(EngineError::Admission(
                "graph store is out-of-core (immutable); decode it to RAM \
                 (OocGraph::to_csr) to run evolving-graph workloads"
                    .into(),
            ));
        }
        Ok(())
    }

    /// The evolving-graph block table, creating it on first use: one copy
    /// of every partition, after which the partition table lets go of the
    /// epoch-0 CSR — nothing reads adjacency from it again.
    fn delta_mut(&mut self) -> &mut DeltaGraph {
        if self.evolving.is_none() {
            let pg = Arc::make_mut(&mut self.pg);
            self.evolving = Some(DeltaGraph::new(pg));
            pg.release_store();
        }
        self.evolving.as_mut().expect("just initialized")
    }

    /// Buffer edge mutations against the evolving graph. Buffered updates
    /// are invisible to every walker until the next [`Self::seal_epoch`]
    /// — sampling decisions never observe a half-applied batch, which is
    /// what keeps mutation visibility deterministic across kernel thread
    /// counts (DESIGN.md §15). Returns the number of updates now pending.
    ///
    /// Fails with [`EngineError::Admission`] when an endpoint is outside
    /// the (frozen) vertex set or a weight is invalid; updates before the
    /// offending one stay buffered.
    pub fn mutate(&mut self, updates: Vec<EdgeUpdate>) -> Result<usize, EngineError> {
        self.reject_ooc_mutation()?;
        let delta = self.delta_mut();
        for u in updates {
            delta
                .buffer(u)
                .map_err(|e| EngineError::Admission(format!("edge update rejected: {e}")))?;
        }
        Ok(delta.pending())
    }

    /// Apply every buffered mutation, advance the graph epoch, and
    /// invalidate affected device state: the delta layer rebuilds the
    /// blocks of the dirty partitions (the partition boundaries are
    /// *frozen*, so walker→partition routing never changes), the
    /// partition table takes their new sizes, and the resident partitions
    /// among them are refreshed — handed the sealed block, charged on the
    /// simulated link as [`Category::GraphReload`] and attributed in the
    /// traffic ledger under [`TrafficDirection::Reload`]. At low mutation
    /// rates that is a small fraction of the residency set (the
    /// evolving-graph extension of the paper's traffic thesis). Clean
    /// partitions are not visited.
    ///
    /// Call this only *between* [`Self::run_at_most`] slices — the epoch
    /// barrier. Sealing with nothing buffered still advances the epoch
    /// (and the temporal default-timestamp clock) but touches no device
    /// state.
    ///
    /// # Errors
    /// [`EngineError::OversizedPartition`] when a mutated hub vertex
    /// overflows its partition block under [`ZeroCopyPolicy::Never`] —
    /// the engine cannot make the partition resident and should be
    /// dropped. Device errors from the reload copies propagate like any
    /// fatal copy failure.
    pub fn seal_epoch(&mut self) -> Result<EpochSummary, EngineError> {
        self.reject_ooc_mutation()?;
        let seal = self.delta_mut().seal_epoch();
        self.metrics.epochs += 1;
        let mut summary = EpochSummary {
            epoch: seal.epoch,
            inserted: seal.inserted,
            deleted: seal.deleted,
            dirty_vertices: seal.dirty.len() as u64,
            dirty_partitions: seal.dirty_partitions.len() as u64,
            ..EpochSummary::default()
        };
        if !seal.dirty_partitions.is_empty() {
            let delta = self.evolving.as_ref().expect("sealed just above");
            // Mutation can grow a hub past its block (or shrink one back
            // under it); only a rebuilt block can have changed size.
            let pg = Arc::make_mut(&mut self.pg);
            for &p in &seal.dirty_partitions {
                let bytes = delta.block(p).bytes();
                pg.set_partition_bytes(p, bytes);
                let oversized = bytes > self.cfg.partition_bytes;
                if oversized && matches!(self.cfg.zero_copy, ZeroCopyPolicy::Never) {
                    return Err(EngineError::OversizedPartition {
                        partition: p,
                        bytes,
                        block_bytes: self.cfg.partition_bytes,
                    });
                }
                self.oversized[p as usize] = oversized;
            }
            // Refresh stale resident partitions. Residency order (oldest
            // first) is schedule-deterministic, so reload charges are too.
            let refresh: Vec<Arc<PartitionData>> = self
                .graph_pool
                .resident_partitions()
                .filter(|p| seal.dirty_partitions.binary_search(p).is_ok())
                .map(|p| Arc::clone(delta.block(p)))
                .collect();
            for data in refresh {
                let (p, bytes) = (data.id, data.bytes());
                self.copy_with_retry_as(
                    Direction::HostToDevice,
                    TrafficDirection::Reload,
                    bytes,
                    Category::GraphReload,
                    self.load_stream,
                    p,
                    &[(SHARED_TAG, bytes)],
                )?;
                self.graph_pool.refresh(p, data);
                summary.reloaded_partitions += 1;
                summary.reload_bytes += bytes;
            }
            // The seal is a barrier: reloads land before any later kernel,
            // including graph-pool hits that skip the per-load sync.
            self.gpu.synchronize(self.load_stream);
            self.metrics.reload_copies += summary.reloaded_partitions;
            self.metrics.reload_bytes += summary.reload_bytes;
        }
        if self.telemetry.level_enabled(Level::Info) {
            self.telemetry.emit(
                Level::Info,
                self.gpu.now(),
                "engine",
                "epoch_seal",
                vec![
                    ("epoch", summary.epoch.into()),
                    ("inserted", summary.inserted.into()),
                    ("deleted", summary.deleted.into()),
                    ("dirty_partitions", summary.dirty_partitions.into()),
                    ("reloaded_partitions", summary.reloaded_partitions.into()),
                    ("reload_bytes", summary.reload_bytes.into()),
                ],
            );
        }
        Ok(summary)
    }

    /// Run at most `iterations` scheduler iterations, pausing (state
    /// intact, checkpointable) if walks remain.
    ///
    /// With [`EngineConfig::checkpoint_every`] set, an in-memory snapshot
    /// is taken on that cadence and a fatal device error rolls back to it
    /// instead of aborting: data state (walkers, visit counts, paths)
    /// restores exactly, while the simulated clock and traffic counters
    /// keep the lost work on the books as recovery overhead.
    pub fn run_at_most(&mut self, iterations: u64) -> Result<RunStatus, EngineError> {
        let mut done = 0u64;
        while self.active > 0 {
            if done >= iterations {
                self.sync_ledger_steps();
                return Ok(RunStatus::Paused);
            }
            done += 1;
            if let Some(every) = self.cfg.checkpoint_every {
                if self.metrics.iterations >= self.next_snapshot_at {
                    self.snapshot = Some(self.take_snapshot());
                    self.next_snapshot_at = self.metrics.iterations + every;
                    if self.telemetry.level_enabled(Level::Info) {
                        self.telemetry.emit(
                            Level::Info,
                            self.gpu.now(),
                            "engine",
                            "checkpoint",
                            vec![
                                ("iteration", self.metrics.iterations.into()),
                                ("walkers", self.active.into()),
                            ],
                        );
                    }
                }
            }
            match self.run_iteration() {
                Ok(()) => {}
                Err(EngineError::Device(_)) if self.snapshot.is_some() => self.recover(),
                Err(e) => return Err(e),
            }
        }
        self.sync_ledger_steps();
        self.gpu.device_synchronize();
        let gpu_stats = self.gpu.stats();
        self.metrics.makespan_ns = gpu_stats.makespan_ns;
        self.metrics.host_peak_walkers = self.host_pool.peak_walkers();
        self.metrics.faults_injected = gpu_stats.faults_injected;
        if self.telemetry.level_enabled(Level::Info) {
            self.telemetry.emit(
                Level::Info,
                self.metrics.makespan_ns,
                "engine",
                "run_complete",
                vec![
                    ("finished_walks", self.metrics.finished_walks.into()),
                    ("total_steps", self.metrics.total_steps.into()),
                    ("makespan_ns", self.metrics.makespan_ns.into()),
                ],
            );
        }
        Ok(RunStatus::Completed(Box::new(RunResult {
            metrics: self.metrics.clone(),
            gpu: gpu_stats,
            visit_counts: self.visit_counts.clone(),
            paths: self.paths.clone().map(PathLog::into_paths),
            iterations: self.iteration_log.clone(),
        })))
    }

    /// One scheduler iteration (Algorithm 2 lines 4–17). On `Err` the
    /// in-flight walk index is intact — every walker the failure touched
    /// has been requeued to the host pool — so the caller can recover from
    /// a snapshot or surface the error with the engine still checkpointable.
    fn run_iteration(&mut self) -> Result<(), EngineError> {
        self.metrics.iterations += 1;
        if self.metrics.iterations > self.cfg.max_iterations {
            return Err(EngineError::IterationLimit(self.cfg.max_iterations));
        }
        self.gpu
            .host_advance(self.cost.host_iteration_ns, Category::HostWork);
        let i = self.select_partition();
        let mut use_zc = self.decide_zero_copy(i);
        if let Some(log) = self.iteration_log.as_mut() {
            log.push(crate::metrics::IterationRecord {
                index: self.metrics.iterations,
                partition: i,
                walks: self.host_pool.count(i) + self.device_pool.count(i),
                zero_copy: use_zc,
                graph_hit: self.graph_pool.contains(i),
                start_ns: self.gpu.now(),
            });
        }
        if self.telemetry.level_enabled(Level::Debug) {
            self.telemetry.emit(
                Level::Debug,
                self.gpu.now(),
                "engine",
                "iteration",
                vec![
                    ("index", self.metrics.iterations.into()),
                    ("partition", i.into()),
                    (
                        "walks",
                        (self.host_pool.count(i) + self.device_pool.count(i)).into(),
                    ),
                    ("zero_copy", use_zc.into()),
                    ("graph_hit", self.graph_pool.contains(i).into()),
                ],
            );
        }
        if !use_zc {
            if self.graph_pool.contains(i) {
                self.metrics.graph_pool_hits += 1;
            } else {
                self.metrics.graph_pool_misses += 1;
                use_zc = !self.load_partition(i)?;
            }
            if !use_zc {
                if self.cfg.preemptive {
                    self.preemptive_phase(i)?;
                }
                // Explicit cross-stream dependency: kernels for partition i
                // must not start before its graph copy lands.
                self.gpu.synchronize(self.load_stream);
            }
        }
        self.drain_partition(i, use_zc)
    }

    /// Copy partition `i` into the graph pool, retrying loads whose data
    /// arrives corrupted. Returns `Ok(false)` when repeated corruption
    /// crosses [`EngineConfig::corruption_degrade_threshold`] and the
    /// partition is degraded to zero-copy access instead (the caller falls
    /// back to reading it in place).
    fn load_partition(&mut self, i: PartitionId) -> Result<bool, EngineError> {
        loop {
            let data = self.fetch_partition(i);
            let bytes = data.bytes();
            // Graph partitions are shared infrastructure, not owned by any
            // one job: the whole load (and every corrupted reload) is
            // charged to the shared tag, keyed by the partition.
            self.copy_with_retry(
                Direction::HostToDevice,
                bytes,
                Category::GraphLoad,
                self.load_stream,
                i,
                &[(SHARED_TAG, bytes)],
            )?;
            if self.gpu.roll_corruption() {
                self.corrupt_loads[i as usize] += 1;
                if self.telemetry.level_enabled(Level::Warn) {
                    self.telemetry.emit(
                        Level::Warn,
                        self.gpu.now(),
                        "engine",
                        "corrupted_load",
                        vec![
                            ("partition", i.into()),
                            ("corrupt_loads", self.corrupt_loads[i as usize].into()),
                        ],
                    );
                }
                if self.corrupt_loads[i as usize] >= self.cfg.corruption_degrade_threshold {
                    self.degraded[i as usize] = true;
                    self.metrics.degraded_partitions += 1;
                    if self.telemetry.level_enabled(Level::Warn) {
                        self.telemetry.emit(
                            Level::Warn,
                            self.gpu.now(),
                            "engine",
                            "degrade_partition",
                            vec![
                                ("partition", i.into()),
                                ("corrupt_loads", self.corrupt_loads[i as usize].into()),
                            ],
                        );
                    }
                    return Ok(false);
                }
                continue; // reload: the copy was charged but the data is junk
            }
            self.metrics.explicit_graph_copies += 1;
            let host = &self.host_pool;
            let dev = &self.device_pool;
            let counts = move |p: PartitionId| host.count(p) + dev.count(p);
            let policy = if self.cfg.selective {
                GraphEviction::FewestWalks
            } else {
                GraphEviction::Fifo
            };
            self.graph_pool.insert(data, policy, &counts, i);
            return Ok(true);
        }
    }

    /// Produce partition `i`'s data behind an `Arc`. An evolving graph
    /// hands out its sealed block — no copy, and the same allocation every
    /// reader of this epoch shares; a static RAM store extracts it (slice
    /// copies) per call; an out-of-core store fetches through the host
    /// decode cache, charging each miss's decode to the host traffic tier
    /// ([`TrafficDirection::HostLoad`] in the ledger, keyed like graph
    /// loads by `(SHARED_TAG, partition)`, plus `host_decode_bytes`) —
    /// exactly once per decode, so corruption-driven reload loops (cache
    /// hits on re-fetch) add no phantom host-tier traffic. Only that last
    /// case is a decode and only it moves a host-tier counter.
    fn fetch_partition(&mut self, i: PartitionId) -> Arc<PartitionData> {
        if let Some(delta) = &self.evolving {
            return Arc::clone(delta.block(i));
        }
        let Some(cache) = self.host_cache.as_mut() else {
            return Arc::new(self.pg.extract(i));
        };
        let (host, dev, resident) = (&self.host_pool, &self.device_pool, &self.graph_pool);
        let rank = move |p: PartitionId| {
            hostcache::eviction_rank(resident.contains(p), host.count(p) + dev.count(p))
        };
        let policy = if self.cfg.selective {
            GraphEviction::FewestWalks
        } else {
            GraphEviction::Fifo
        };
        let f = cache.fetch(i, policy, &rank, i, Some(&self.exec), self.kernel_threads);
        if f.missed {
            let bytes = f.data.bytes();
            self.metrics.host_cache_misses += 1;
            self.metrics.host_decode_bytes += bytes;
            self.metrics.host_decode_wall_ns += f.decode_ns;
            if f.evicted {
                self.metrics.host_cache_evictions += 1;
            }
            if let Some(l) = self.ledger.as_mut() {
                l.charge_rows(i, TrafficDirection::HostLoad, &[(SHARED_TAG, bytes)]);
            }
        } else {
            self.metrics.host_cache_hits += 1;
        }
        f.data
    }

    /// Issue a simulated copy, re-issuing on retryable faults up to
    /// [`EngineConfig::copy_retries`] times with exponential backoff
    /// charged to the host clock. Every attempt — failed or not — is
    /// charged on the link, so recovery overhead is honest simulated time.
    ///
    /// `part`/`rows` attribute the copy in the traffic ledger when
    /// [`EngineConfig::attribution`] is on: `rows` splits the `bytes` of
    /// one attempt across job tags (callers pass `&[]` with attribution
    /// off). The ledger is charged once per attempt, mirroring the
    /// simulated link's own accounting, which is what keeps
    /// `Σ ledger == GpuStats` exact even through faults.
    fn copy_with_retry(
        &mut self,
        dir: Direction,
        bytes: u64,
        cat: Category,
        stream: StreamId,
        part: PartitionId,
        rows: &[(u32, u64)],
    ) -> Result<(), EngineError> {
        let tdir = match dir {
            Direction::HostToDevice => TrafficDirection::H2d,
            Direction::DeviceToHost => TrafficDirection::D2h,
        };
        self.copy_with_retry_as(dir, tdir, bytes, cat, stream, part, rows)
    }

    /// [`Self::copy_with_retry`] with the ledger direction decoupled from
    /// the link direction: epoch-seal reloads move host→device on the
    /// simulated link but are attributed under
    /// [`TrafficDirection::Reload`], so the per-step H2D traffic the
    /// paper's figures measure stays uncontaminated by mutation-driven
    /// re-copies.
    #[allow(clippy::too_many_arguments)]
    fn copy_with_retry_as(
        &mut self,
        dir: Direction,
        tdir: TrafficDirection,
        bytes: u64,
        cat: Category,
        stream: StreamId,
        part: PartitionId,
        rows: &[(u32, u64)],
    ) -> Result<(), EngineError> {
        let mut attempt = 0u32;
        loop {
            let res = self.gpu.copy_async(dir, bytes, cat, stream);
            // The simulated link already charged this attempt, success or
            // not; mirror it before inspecting the outcome.
            if let Some(l) = self.ledger.as_mut() {
                l.charge_rows(part, tdir, rows);
            }
            match res {
                Ok(_) => return Ok(()),
                Err(e) if e.is_retryable() && attempt < self.cfg.copy_retries => {
                    attempt += 1;
                    self.metrics.retries += 1;
                    let backoff = self.cfg.retry_backoff_ns << (attempt - 1).min(16);
                    if self.telemetry.level_enabled(Level::Warn) {
                        self.telemetry.emit(
                            Level::Warn,
                            self.gpu.now(),
                            "engine",
                            "copy_retry",
                            vec![("attempt", attempt.into()), ("backoff_ns", backoff.into())],
                        );
                    }
                    self.gpu.host_advance(backoff, Category::HostWork);
                }
                Err(e) => return Err(EngineError::Device(e)),
            }
        }
    }

    /// Split a walk batch's transfer bytes across the job tags of its
    /// walkers, for ledger attribution. Empty (skipping the count pass)
    /// when attribution is off; the whole `.max(1)` floor of an empty
    /// batch goes to [`SHARED_TAG`].
    fn walk_rows(&self, batch: &WalkBatch) -> Vec<(u32, u64)> {
        if self.ledger.is_none() {
            return Vec::new();
        }
        let total = batch.bytes(self.walker_bytes).max(1);
        // Counting pass, kept cheap for the hot path: serving assigns
        // small consecutive tags, so a stack array turns the per-walker
        // count into one bounds check and an increment. Larger tags
        // (standalone engines with custom tag schemes) fall back to a
        // sorted mini-vec, which stays ordered after the dense tags
        // because every sparse tag exceeds them.
        const DENSE: usize = 64;
        let mut dense = [0u64; DENSE];
        let mut sparse: Vec<(u32, u64)> = Vec::new();
        for w in batch.walkers() {
            match dense.get_mut(w.tag as usize) {
                Some(c) => *c += 1,
                None => match sparse.binary_search_by_key(&w.tag, |&(t, _)| t) {
                    Ok(i) => sparse[i].1 += 1,
                    Err(i) => sparse.insert(i, (w.tag, 1)),
                },
            }
        }
        let mut counts: Vec<(u32, u64)> = dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(t, &c)| (t as u32, c))
            .collect();
        counts.extend(sparse);
        match counts.len() {
            0 => vec![(SHARED_TAG, total)],
            1 => vec![(counts[0].0, total)],
            _ => apportion_exact(total, &counts),
        }
    }

    /// The traffic ledger accumulated so far, `None` unless
    /// [`EngineConfig::attribution`] is on.
    pub fn traffic_ledger(&self) -> Option<&TrafficLedger> {
        self.ledger.as_ref()
    }

    /// Snapshot everything a fatal-fault rollback must restore.
    fn take_snapshot(&self) -> AutoSnapshot {
        AutoSnapshot {
            cp: self.checkpoint(),
            length_histogram: self.metrics.length_histogram.clone(),
            paths: self.paths.clone(),
            iteration_log: self.iteration_log.clone(),
            rr_cursor: self.rr_cursor,
        }
    }

    /// Roll back to the latest auto-snapshot after a fatal device error.
    ///
    /// Data state (walk index, visit counts, paths, progress counters)
    /// restores exactly, so the eventual outputs match the fault-free run.
    /// The simulated clock, traffic counters, and fault/retry/degrade
    /// bookkeeping are *not* rolled back: the work lost between snapshot
    /// and failure really happened and is the recovery overhead the fault
    /// benchmarks measure.
    fn recover(&mut self) {
        let snap = self.snapshot.clone().expect("recovery requires a snapshot");
        self.host_pool.reset();
        self.device_pool.reset();
        self.graph_pool.reset();
        self.metrics.total_steps = snap.cp.total_steps;
        self.metrics.finished_walks = snap.cp.finished_walks;
        self.metrics.length_histogram = snap.length_histogram;
        self.visit_counts = snap.cp.visit_counts;
        self.paths = snap.paths;
        self.iteration_log = snap.iteration_log;
        self.rr_cursor = snap.rr_cursor;
        self.active = snap.cp.walkers.len() as u64;
        for w in snap.cp.walkers {
            let p = self.pg.partition_of(w.vertex);
            self.host_pool.insert(p, w);
        }
        self.metrics.recoveries += 1;
        if self.telemetry.level_enabled(Level::Warn) {
            self.telemetry.emit(
                Level::Warn,
                self.gpu.now(),
                "engine",
                "recovery",
                vec![
                    ("recoveries", self.metrics.recoveries.into()),
                    ("walkers", self.active.into()),
                ],
            );
        }
    }

    /// Drain the per-tag results accumulated since the previous drain
    /// ([`EngineConfig::track_tags`]): one [`crate::job::TagDelta`] per
    /// tag that made progress, in ascending tag order. Each delta's
    /// `visits` are sorted — the visit *multiset* per tag is invariant
    /// across `kernel_threads` and chunkings, but the event order is
    /// not, so the canonical form is sorted.
    /// `lengths` are already emitted in the deterministic chunk-merge
    /// order and are left as-is. Empty when tags are not tracked.
    pub fn take_tag_deltas(&mut self) -> Vec<crate::job::TagDelta> {
        // The drain resets the per-tag counters the lazy step-credit
        // sync diffs against, so settle the ledger first and clear the
        // credited mirror with the counters.
        self.sync_ledger_steps();
        self.ledger_steps_credited.clear();
        let deltas = std::mem::take(&mut self.tag_deltas);
        deltas
            .into_values()
            .map(|mut d| {
                d.visits.sort_unstable();
                d
            })
            .collect()
    }

    /// Credit the ledger with per-tag steps accumulated in `tag_deltas`
    /// since the last sync. O(tags), idempotent (a sorted mirror tracks
    /// what was already credited), and called once per `run_at_most`
    /// return and drain rather than once per kernel — attribution's step
    /// accounting stays off the merge hot path.
    fn sync_ledger_steps(&mut self) {
        let Some(l) = self.ledger.as_mut() else {
            return;
        };
        for (&t, d) in &self.tag_deltas {
            let credited = match self
                .ledger_steps_credited
                .binary_search_by_key(&t, |&(x, _)| x)
            {
                Ok(i) => {
                    let c = self.ledger_steps_credited[i].1;
                    self.ledger_steps_credited[i].1 = d.steps;
                    c
                }
                Err(i) => {
                    self.ledger_steps_credited.insert(i, (t, d.steps));
                    0
                }
            };
            if d.steps > credited {
                l.add_steps(t, d.steps - credited);
            }
        }
    }

    /// Pull every in-flight walker of job `tag` out of the engine,
    /// leaving all other jobs' walkers in place — the suspend half of
    /// job parking. Built like fault recovery: collect the whole walk
    /// index from both pools, reset them, and re-insert the keepers
    /// through the normal host-pool path. Re-batching never changes
    /// results (trajectories are pure in `(seed, id, step)`), only the
    /// simulated schedule, which stays deterministic because this runs
    /// on the scheduler thread between iterations.
    ///
    /// The extracted walkers are returned sorted by id — canonical, so a
    /// later re-injection (top-up resume, [`Self::inject`]) replays an
    /// identical schedule no matter which pools the walkers sat in.
    pub fn extract_tagged(&mut self, tag: u32) -> Vec<Walker> {
        let all: Vec<Walker> = self
            .host_pool
            .iter_walkers()
            .chain(self.device_pool.iter_walkers())
            .copied()
            .collect();
        self.host_pool.reset();
        self.device_pool.reset();
        let mut extracted = Vec::new();
        for w in all {
            if w.tag == tag {
                extracted.push(w);
            } else {
                let p = self.pg.partition_of(w.vertex);
                self.host_pool.insert(p, w);
            }
        }
        extracted.sort_unstable_by_key(|w| w.id);
        self.active -= extracted.len() as u64;
        extracted
    }

    /// Total walks currently staying in partition `p` (host + device).
    pub fn walks_in(&self, p: PartitionId) -> u64 {
        self.host_pool.count(p) + self.device_pool.count(p)
    }

    /// The device walk pool (the telemetry snapshot publishes its
    /// occupancy, which derives from the schedule alone).
    pub(crate) fn device_pool(&self) -> &DeviceWalkPool {
        &self.device_pool
    }

    fn select_partition(&mut self) -> PartitionId {
        let np = self.pg.num_partitions();
        if self.cfg.selective {
            // Most walks first (selective scheduling).
            (0..np)
                .filter(|&p| self.walks_in(p) > 0)
                .max_by_key(|&p| (self.walks_in(p), std::cmp::Reverse(p)))
                .expect("active walks exist")
        } else {
            // Round robin.
            for k in 0..np {
                let p = (self.rr_cursor + k) % np;
                if self.walks_in(p) > 0 {
                    self.rr_cursor = (p + 1) % np;
                    return p;
                }
            }
            unreachable!("active walks exist")
        }
    }

    fn decide_zero_copy(&self, i: PartitionId) -> bool {
        // A hub partition that cannot fit a graph-pool block must be read
        // in place, whatever the adaptive rule says; likewise a partition
        // degraded by repeated corrupted loads.
        if self.oversized[i as usize] || self.degraded[i as usize] {
            return true;
        }
        match self.cfg.zero_copy {
            ZeroCopyPolicy::Never => false,
            ZeroCopyPolicy::Always => true,
            ZeroCopyPolicy::Adaptive { alpha } => {
                !self.graph_pool.contains(i)
                    && alpha.saturating_mul(self.walks_in(i)) < self.pg.partition_bytes(i)
            }
        }
    }

    /// §III-D preemptive scheduling: while the load stream is busy, run
    /// kernels for *queued* batches whose graph partition is also cached —
    /// the "ready state" tasks that preempt the sleeping ones. Partial
    /// write frontiers are left in place (they keep filling), exactly as
    /// the paper dispatches batches, so preempted partitions retain walks
    /// and can later be scheduled as graph-pool hits.
    fn preemptive_phase(&mut self, current: PartitionId) -> Result<(), EngineError> {
        while self.gpu.busy(self.load_stream) {
            let Some(j) = self.pick_preemptive_partition(current) else {
                break;
            };
            let batch = self
                .device_pool
                .pop_queue_batch(j)
                .expect("picked partition has a queued batch");
            let outputs = self.step_batch(j, batch, false);
            self.finish_kernel(j, false, outputs)?;
            self.gpu.synchronize(self.comp_stream);
            self.metrics.preemptive_batches += 1;
        }
        Ok(())
    }

    /// The batch-choice heuristic of selective scheduling: prefer full
    /// batches whose (cached) graph partition has the fewest walks — finish
    /// those partitions off before their graph blocks are overwritten —
    /// else take the batch with the most walks to amortize launch cost.
    fn pick_preemptive_partition(&self, current: PartitionId) -> Option<PartitionId> {
        let ready: Vec<PartitionId> = self
            .graph_pool
            .resident_partitions()
            .filter(|&p| p != current && self.device_pool.queue_len(p) > 0)
            .collect();
        if ready.is_empty() {
            return None;
        }
        if !self.cfg.selective {
            return ready.first().copied();
        }
        let full: Vec<PartitionId> = ready
            .iter()
            .copied()
            .filter(|&p| self.device_pool.head_batch_full(p))
            .collect();
        if !full.is_empty() {
            return full.iter().copied().min_by_key(|&p| (self.walks_in(p), p));
        }
        ready
            .iter()
            .copied()
            .max_by_key(|&p| (self.device_pool.head_batch_len(p), std::cmp::Reverse(p)))
    }

    /// Process every walk of partition `i` (Algorithm 2 lines 12–17 plus
    /// the frontier drain). Walks loaded from the host stream through the
    /// pipeline: copy on the load stream, kernel on the compute stream.
    ///
    /// One loop: acquire → [`Self::step_batch`] → [`Self::finish_kernel`].
    /// Only the stepping fans out over the pool; every walk-pool and
    /// metrics mutation stays on this thread, so every `kernel_threads`
    /// runs the same sequence of acquires and reshuffles (DESIGN.md §11).
    fn drain_partition(&mut self, i: PartitionId, use_zc: bool) -> Result<(), EngineError> {
        while let Some(batch) = self.acquire_next_batch(i)? {
            let outputs = self.step_batch(i, batch, use_zc);
            self.finish_kernel(i, use_zc, outputs)?;
        }
        debug_assert_eq!(
            self.walks_in(i),
            0,
            "a drained partition must have no walks left"
        );
        Ok(())
    }

    /// Pop the next batch of partition `i` in drain order: host batches
    /// first (H2D copy on the load stream, then through the device queue),
    /// then device-resident queued batches, then the frontier remainder.
    /// `Ok(None)` means the partition is drained.
    ///
    /// This is the single sequence point where the walk pool hands
    /// walkers to a kernel, always after the previous batch's reshuffle,
    /// so simulated copies and charges are issued identically for every
    /// `kernel_threads`.
    fn acquire_next_batch(&mut self, i: PartitionId) -> Result<Option<WalkBatch>, EngineError> {
        if let Some(batch) = self.host_pool.pop_batch(i) {
            let rows = self.walk_rows(&batch);
            if let Err(e) = self.copy_with_retry(
                Direction::HostToDevice,
                batch.bytes(self.walker_bytes).max(1),
                Category::WalkLoad,
                self.load_stream,
                i,
                &rows,
            ) {
                // The batch never reached the device: requeue it at the
                // head, walkers intact, before surfacing the error.
                self.host_pool.push_evicted(batch);
                return Err(e);
            }
            self.metrics.walk_batches_loaded += 1;
            let mut batch = batch;
            loop {
                match self.device_pool.add_loaded_batch(batch) {
                    Ok(_) => break,
                    Err(b) => {
                        batch = b;
                        if let Err(e) = self.evict_walk_batch(i) {
                            self.host_pool.push_evicted(batch);
                            return Err(e);
                        }
                    }
                }
            }
            self.gpu.synchronize(self.load_stream);
            let b = self
                .device_pool
                .pop_queue_batch(i)
                .expect("batch was just queued");
            return Ok(Some(b));
        }
        if let Some(b) = self.device_pool.pop_queue_batch(i) {
            return Ok(Some(b));
        }
        Ok(self.device_pool.take_frontier(i))
    }

    /// Evict one queued walk batch to the host to free a block for
    /// `for_part`, never from `for_part` itself unless it is the only
    /// choice ([`pick_victim`] over the whole pool).
    fn evict_walk_batch(&mut self, for_part: PartitionId) -> Result<(), EngineError> {
        let victim = pick_victim(
            &self.device_pool,
            &self.host_pool,
            &self.graph_pool,
            self.cfg.selective,
            for_part,
        );
        let batch = self
            .device_pool
            .evict_queue_batch(victim)
            .expect("victim has a queued batch");
        self.park_evicted([batch])
    }

    /// Charge the D2H copies of batches already taken out of the device
    /// pool, in order, and park each on the host, counting the copies that
    /// succeed. On a fatal copy fault the remaining batches are parked
    /// before the error surfaces (the host-side walk index shadows
    /// in-flight batches), so no walk is ever lost to a device fault.
    fn park_evicted(
        &mut self,
        evicted: impl IntoIterator<Item = WalkBatch>,
    ) -> Result<(), EngineError> {
        let mut evicted = evicted.into_iter();
        while let Some(batch) = evicted.next() {
            let rows = self.walk_rows(&batch);
            let res = self.copy_with_retry(
                Direction::DeviceToHost,
                batch.bytes(self.walker_bytes).max(1),
                Category::WalkEvict,
                self.evict_stream,
                batch.partition(),
                &rows,
            );
            if res.is_ok() {
                self.metrics.walk_batches_evicted += 1;
            }
            self.host_pool.push_evicted(batch);
            if let Err(e) = res {
                for rest in evicted.by_ref() {
                    self.host_pool.push_evicted(rest);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Step one batch to completion on the host — the pure half of the
    /// kernel: every walker runs until it terminates or leaves partition
    /// `part`. The batch splits into up to `kernel_threads` contiguous
    /// chunks (floor [`kernel::MIN_CHUNK_WALKERS`]) stepped against the
    /// shared [`GraphView`]: inline when one chunk, as an ordered group
    /// on the persistent pool otherwise. Outputs come back in chunk
    /// order, which equals the sequential iteration order of the batch,
    /// so every thread count merges to bit-identical results (see
    /// [`crate::kernel`]). Only the kernel counters are booked here; no
    /// walk-pool or simulated-device state is touched.
    fn step_batch(
        &mut self,
        part: PartitionId,
        mut batch: WalkBatch,
        use_zc: bool,
    ) -> Vec<kernel::ChunkOutput> {
        debug_assert_eq!(batch.partition(), part);
        let chunks = kernel::plan_chunks(batch.len(), self.kernel_threads);
        let task = self.kernel_task(part, batch.walkers(), use_zc);
        let wall = Instant::now();
        let outputs = if chunks <= 1 {
            vec![kernel::step_chunk(&task, batch.drain())]
        } else {
            let task = &task;
            self.exec.run_ordered(
                batch
                    .drain_chunks(chunks)
                    .into_iter()
                    .map(|ws| Box::new(move || kernel::step_chunk(task, ws)) as _)
                    .collect(),
            )
        };
        self.metrics.host_kernel_wall_ns += wall.elapsed().as_nanos() as u64;
        self.metrics.host_kernels += 1;
        self.metrics.max_kernel_threads = self.metrics.max_kernel_threads.max(chunks as u64);
        outputs
    }

    /// The inputs of one kernel over `walkers` of partition `part`.
    /// Zero copy over an out-of-core store or an evolving graph has no RAM
    /// CSR to read and gathers the partition blocks these walkers can read
    /// instead (out of core, the fetches go through the host decode cache
    /// and are charged to the host tier like any other decode).
    fn kernel_task(
        &mut self,
        part: PartitionId,
        walkers: &[Walker],
        use_zc: bool,
    ) -> kernel::KernelTask {
        let reads_prev = self.alg.reads_prev_neighbors();
        let view = if !use_zc {
            GraphView::Resident(self.graph_pool.get_arc(part).expect("graph resident"))
        } else if let Some(g) = self.pg.ram_csr() {
            GraphView::Host(Arc::clone(g))
        } else {
            GraphView::Blocks(self.build_block_view(part, walkers, reads_prev))
        };
        kernel::KernelTask {
            view,
            alg: Arc::clone(&self.alg),
            reads_prev,
            seed: self.cfg.seed,
            num_vertices: self.pg.num_vertices(),
            range: self.pg.vertex_range(part),
            // Tag attribution needs the per-step visit events even when
            // no algorithm-level visit buffer exists.
            track_visits: self.visit_counts.is_some() || self.cfg.track_tags,
            track_paths: self.paths.is_some(),
            track_tags: self.cfg.track_tags,
            scratch: Some(Arc::clone(&self.scratch)),
        }
    }

    /// Collect the partition blocks a zero-copy kernel can read where no
    /// RAM CSR exists (out-of-core store, evolving graph): the batch's own
    /// partition and, only when the algorithm reads second-order context
    /// (`reads_prev`), the partition of every walker's previous vertex
    /// (`aux` at batch start; after the first step `aux` always lies in
    /// the batch's partition). A first-order walk costs one fetch per
    /// kernel, like an explicit copy. For clocks in `aux` see
    /// [`kernel::HostBlockView`].
    fn build_block_view(
        &mut self,
        part: PartitionId,
        walkers: &[Walker],
        reads_prev: bool,
    ) -> HostBlockView {
        let mut needed: Vec<PartitionId> = vec![part];
        if reads_prev {
            let nv = self.pg.num_vertices();
            for w in walkers {
                if w.aux != VertexId::MAX && (w.aux as u64) < nv {
                    needed.push(self.pg.partition_of(w.aux));
                }
            }
            needed.sort_unstable();
            needed.dedup();
        }
        HostBlockView::new(
            needed
                .into_iter()
                .map(|p| self.fetch_partition(p))
                .collect(),
        )
    }

    /// The stateful half of the kernel: merge the chunk outputs in chunk
    /// order, book the walk metrics, reshuffle leavers into their new
    /// frontiers (charging eviction copies in eviction order), and charge
    /// the kernel's simulated cost. Runs on the scheduler thread only.
    /// `outputs` holds one entry per chunk, in chunk order.
    fn finish_kernel(
        &mut self,
        part: PartitionId,
        use_zc: bool,
        outputs: Vec<kernel::ChunkOutput>,
    ) -> Result<(), EngineError> {
        let chunks = outputs.len();
        // Deterministic merge: chunk order equals the sequential iteration
        // order of the batch, so visit counts, paths, the length histogram,
        // and the reshuffle input come out exactly as with one thread.
        let mut steps: u64 = 0;
        let mut finished: u64 = 0;
        // Per-tag steps of *this* kernel, needed only to weight the
        // zero-copy H2D charge below (tag_deltas is cumulative, so the
        // raw map cannot serve). Rather than a second per-visit counting
        // pass, snapshot the fold's per-tag step counters here and diff
        // after the merge — O(tags), not O(visits). Plain step credit
        // does not take this path at all: it syncs lazily from
        // `tag_deltas` once per run ([`Self::sync_ledger_steps`]).
        let need_zc_weights = use_zc && self.ledger.is_some() && self.cfg.track_tags;
        let steps_before: Vec<(u32, u64)> = if need_zc_weights {
            self.tag_deltas.iter().map(|(&t, d)| (t, d.steps)).collect()
        } else {
            Vec::new()
        };
        for o in &outputs {
            steps += o.steps;
            finished += o.finished;
            if self.cfg.track_tags {
                debug_assert_eq!(o.visits.len(), o.visit_tags.len());
                debug_assert_eq!(o.lengths.len(), o.length_tags.len());
                for (&v, &t) in o.visits.iter().zip(&o.visit_tags) {
                    let d = self
                        .tag_deltas
                        .entry(t)
                        .or_insert_with(|| crate::job::TagDelta::new(t));
                    d.steps += 1;
                    d.visits.push(v);
                }
                for (&l, &t) in o.lengths.iter().zip(&o.length_tags) {
                    let d = self
                        .tag_deltas
                        .entry(t)
                        .or_insert_with(|| crate::job::TagDelta::new(t));
                    d.finished += 1;
                    d.lengths.push(l);
                }
            }
            if let Some(counts) = self.visit_counts.as_mut() {
                for &v in &o.visits {
                    counts[v as usize] += 1;
                }
            }
            if let Some(paths) = self.paths.as_mut() {
                for &(id, v) in &o.path_events {
                    paths.push(id, v);
                }
            }
            for &l in &o.lengths {
                self.metrics.record_length(l);
            }
        }
        // The kernel side effects are already applied; book them before the
        // reshuffle so a fatal eviction fault below leaves the counters
        // consistent with the walkers we park.
        self.active -= finished;
        self.metrics.total_steps += steps;
        self.metrics.finished_walks += finished;
        let np = self.pg.num_partitions();
        // Reshuffle (DESIGN.md §10), wall-clocked end to end: one stable
        // counting sort of the movers by target partition, read straight
        // out of the chunk outputs in chunk order, then one bulk insert
        // per run, partitions ascending, on the scheduler thread. Every
        // insert and evict decision is a function of the batch and the
        // pool state alone.
        let rs_wall = Instant::now();
        self.local_index.sort(
            outputs.iter().map(|o| o.moved.as_slice()),
            self.pg.boundaries(),
        );
        debug_assert!(
            self.local_index.run(part).is_empty(),
            "multi-step walking never reinserts locally"
        );
        let evicted = insert_runs(
            &mut self.device_pool,
            &self.local_index,
            &self.host_pool,
            &self.graph_pool,
            self.cfg.selective,
            part,
        );
        self.metrics.host_reshuffle_wall_ns += rs_wall.elapsed().as_nanos() as u64;
        self.metrics.host_reshuffles += 1;
        self.metrics.max_reshuffle_threads = 1;
        let n_moved = self.local_index.len() as u64;
        // Merged and sorted out: hand the buffers back for the next
        // round's chunks.
        for o in outputs {
            self.scratch.put(o);
        }
        // Charge the evictions' D2H copies in eviction order. Every moved
        // walker is already inside the device pool, so even a fatal copy
        // fault here leaves the walk index intact.
        self.park_evicted(evicted)?;
        let two_level = self.cfg.reshuffle == ReshuffleMode::TwoLevel;
        let working_set = self.pg.partition_bytes(part);
        let kcost = KernelCost {
            update_ns: self.cost.step_time_in(steps, working_set),
            reshuffle_ns: self.cost.reshuffle_time(n_moved, np, two_level),
            other_ns: 0,
            zero_copy_bytes: if use_zc {
                steps * 2 * self.cost.cacheline_bytes
            } else {
                0
            },
        };
        let cat = if use_zc {
            Category::ZeroCopy
        } else {
            Category::Compute
        };
        let zc_bytes = kcost.zero_copy_bytes;
        self.gpu
            .kernel_async_with_threads(kcost, cat, self.comp_stream, chunks);
        if use_zc {
            self.metrics.zero_copy_kernels += 1;
        }
        // Diff the fold's per-tag step counters against the pre-merge
        // snapshot: exactly this kernel's steps per tag (both sides are
        // in ascending tag order, so a linear merge suffices).
        let mut kernel_tag_steps: Vec<(u32, u64)> = Vec::new();
        if need_zc_weights {
            let mut bi = 0;
            for (&t, d) in &self.tag_deltas {
                while bi < steps_before.len() && steps_before[bi].0 < t {
                    bi += 1;
                }
                let prev = match steps_before.get(bi) {
                    Some(&(bt, s)) if bt == t => s,
                    _ => 0,
                };
                if d.steps > prev {
                    kernel_tag_steps.push((t, d.steps - prev));
                }
            }
        }
        if let Some(l) = self.ledger.as_mut() {
            if !self.cfg.track_tags {
                // Without per-tag visit counters (single tenant) the lazy
                // sync has nothing to diff; every walker carries tag 0,
                // so credit the whole kernel there directly.
                l.add_steps(0, steps);
            }
            if zc_bytes > 0 {
                // Mirror the device's zero-copy H2D charge. The engine
                // requests a cacheline multiple (`steps * 2 * cacheline`),
                // so the device's cacheline rounding is the identity and
                // this equals the simulated charge bit for bit. The
                // counterfactual is the explicit load this kernel avoided:
                // the partition's resident bytes.
                let weights: Vec<(u32, u64)> = if kernel_tag_steps.is_empty() {
                    vec![(0, steps)]
                } else {
                    kernel_tag_steps
                };
                l.charge_rows(
                    part,
                    TrafficDirection::H2d,
                    &apportion_exact(zc_bytes, &weights),
                );
                l.note_zero_copy(zc_bytes, working_set);
            }
        }
        Ok(())
    }
}

/// The ways a one-shot run can seed its walker population — the input of
/// [`LightTraffic::drive_job`], the single internal path behind `run`,
/// `run_with_walkers`, and `resume`.
enum JobInput {
    /// The algorithm's standard workload of this many walks.
    Walks(u64),
    /// An explicit walker set.
    Walkers(Vec<Walker>),
    /// A checkpoint to restore and finish (boxed — checkpoints are big).
    Resume(Box<crate::checkpoint::Checkpoint>),
}

impl Drop for LightTraffic {
    fn drop(&mut self) {
        if let Some(a) = self.visit_alloc.take() {
            self.gpu.free(a);
        }
    }
}

/// The §III-D eviction-victim heuristic over the partitions of `device`
/// that hold a queued batch, shared by the reshuffle insert phase and
/// [`LightTraffic::evict_walk_batch`]: protect the partition being
/// drained unless it is the only choice; under selective scheduling
/// prefer non-graph-resident partitions (their batches cannot be computed
/// without a future load anyway) and break ties by fewest walks; then
/// lowest id.
fn pick_victim(
    device: &DeviceWalkPool,
    host: &HostWalkPool,
    graph: &DeviceGraphPool,
    selective: bool,
    protect: PartitionId,
) -> PartitionId {
    device
        .partitions_with_queued_batches()
        .min_by_key(|&p| {
            let by_policy = selective.then(|| (graph.contains(p), host.count(p) + device.count(p)));
            (p == protect, by_policy, p)
        })
        .expect("the 2P+1 floor guarantees a queued batch when the free list is empty")
}

/// The insert half of the reshuffle: copy every run of the sorted movers
/// into its frontier — partitions ascending, within a partition arrival
/// order — evicting a victim whenever a promotion finds the free list
/// empty. Returns the evicted batches in eviction order; the caller
/// charges their D2H copies afterwards, so the host pool the victim
/// heuristic reads does not change during the phase.
///
/// Livelock audit: `insert_run` stops early only when the free list is
/// empty; the `2P + 1` floor pins exactly `2P` blocks to frontier/reserve
/// pairs, so every remaining block then holds a queued batch and
/// `evict_queue_batch` frees exactly one — even when the only victim is
/// the protected partition itself. The next `insert_run` promotes and
/// takes at least one walker, so the loop evicts at most once per
/// frontier block the run fills.
fn insert_runs(
    device: &mut DeviceWalkPool,
    movers: &LocalIndex,
    host: &HostWalkPool,
    graph: &DeviceGraphPool,
    selective: bool,
    protect: PartitionId,
) -> Vec<WalkBatch> {
    let mut evicted = Vec::new();
    for p in 0..device.num_partitions() {
        let mut run = device.insert_run(p, movers.run(p));
        while !run.is_empty() {
            let victim = pick_victim(device, host, graph, selective, protect);
            evicted.push(
                device
                    .evict_queue_batch(victim)
                    .expect("victim has a queued batch"),
            );
            run = device.insert_run(p, run);
        }
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{PageRank, Ppr, UniformSampling};
    use lt_graph::gen::{erdos_renyi, rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                seed: 7,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    fn small_cfg() -> EngineConfig {
        EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(16 << 10, 6)
        }
    }

    #[test]
    fn uniform_walks_all_finish_with_exact_steps() {
        let g = graph();
        let len = 12;
        let mut e =
            LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(len)), small_cfg()).unwrap();
        let walks = g.num_vertices();
        let r = e.run(walks).unwrap();
        assert_eq!(r.metrics.finished_walks, walks);
        // No dead ends after preprocessing => every walk takes exactly `len`
        // steps.
        assert_eq!(r.metrics.total_steps, walks * len as u64);
        assert!(r.metrics.iterations > 0);
        assert!(r.metrics.makespan_ns > 0);
        assert!(r.visit_counts.is_none());
    }

    #[test]
    fn pagerank_visit_counts_sum_to_steps() {
        let g = graph();
        let mut e =
            LightTraffic::new(g.clone(), Arc::new(PageRank::new(10, 0.15)), small_cfg()).unwrap();
        let r = e.run(2_000).unwrap();
        let visits: u64 = r.visit_counts.as_ref().unwrap().iter().sum();
        assert_eq!(visits, r.metrics.total_steps);
        assert_eq!(r.metrics.finished_walks, 2_000);
    }

    #[test]
    fn ppr_single_source_completes() {
        let g = graph();
        let alg = Ppr::from_highest_degree(&g, 0.15);
        let mut e = LightTraffic::new(g.clone(), Arc::new(alg), small_cfg()).unwrap();
        let r = e.run(5_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 5_000);
        assert!(r.metrics.total_steps > 5_000, "geometric walks move");
    }

    /// The core correctness oracle: every scheduling policy yields the
    /// identical visit-count vector, because walker RNG is counter-based.
    #[test]
    fn all_schedules_produce_identical_visits() {
        let g = graph();
        let reference = {
            let mut e = LightTraffic::new(
                g.clone(),
                Arc::new(PageRank::new(8, 0.15)),
                EngineConfig {
                    batch_capacity: 256,
                    ..EngineConfig::baseline(16 << 10, 4)
                },
            )
            .unwrap();
            e.run(3_000).unwrap().visit_counts.unwrap()
        };
        let variants: Vec<EngineConfig> = vec![
            EngineConfig {
                batch_capacity: 256,
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                zero_copy: ZeroCopyPolicy::Always,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                preemptive: true,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                selective: true,
                reshuffle: ReshuffleMode::DirectWrite,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 64, // different batching
                ..EngineConfig::light_traffic(32 << 10, 3)
            },
            EngineConfig {
                batch_capacity: 256,
                kernel_threads: 1, // sequential host kernels
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                kernel_threads: 4, // fixed host fan-out
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
        ];
        for (k, cfg) in variants.into_iter().enumerate() {
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
            let got = e.run(3_000).unwrap().visit_counts.unwrap();
            assert_eq!(got, reference, "variant {k} diverged from reference");
        }
    }

    /// Tentpole acceptance: parallel host kernels are *bit-identical* to
    /// sequential ones for every scheduling / reshuffle / zero-copy mode —
    /// data outputs, sampled paths, and the full simulated timeline.
    #[test]
    fn parallel_kernels_match_sequential_exactly() {
        let g = graph();
        let variants: Vec<EngineConfig> = vec![
            EngineConfig {
                batch_capacity: 256,
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                zero_copy: ZeroCopyPolicy::Always,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                preemptive: true,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 128,
                selective: true,
                reshuffle: ReshuffleMode::DirectWrite,
                ..EngineConfig::baseline(16 << 10, 4)
            },
        ];
        for (k, base) in variants.into_iter().enumerate() {
            let run = |threads: usize| {
                let cfg = EngineConfig {
                    kernel_threads: threads,
                    record_paths: true,
                    ..base.clone()
                };
                let mut e =
                    LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
                e.run(3_000).unwrap()
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(par.visit_counts, seq.visit_counts, "variant {k} visits");
            assert_eq!(par.paths, seq.paths, "variant {k} paths");
            assert_eq!(par.metrics.finished_walks, seq.metrics.finished_walks);
            assert_eq!(par.metrics.total_steps, seq.metrics.total_steps);
            assert_eq!(par.metrics.iterations, seq.metrics.iterations);
            assert_eq!(
                par.metrics.makespan_ns, seq.metrics.makespan_ns,
                "variant {k} simulated clock"
            );
            assert_eq!(par.metrics.length_histogram, seq.metrics.length_histogram);
            // The whole simulated breakdown (traffic, busy times, counts)
            // must be thread-count independent.
            assert_eq!(
                serde_json::to_string(&par.gpu).unwrap(),
                serde_json::to_string(&seq.gpu).unwrap(),
                "variant {k} gpu stats"
            );
            assert!(
                par.metrics.max_kernel_threads > 1,
                "variant {k} never fanned out — the parallel path was not exercised"
            );
            assert_eq!(seq.metrics.max_kernel_threads, 1);
            assert_eq!(
                par.deterministic_fingerprint(),
                seq.deterministic_fingerprint(),
                "variant {k} fingerprint"
            );
        }
    }

    /// Regression for the full-pool retry loop in `finish_kernel`: with the
    /// walk pool at its `2P + 1` floor and batches small enough that every
    /// frontier block is occupied, `try_insert` keeps failing until
    /// eviction — including when the only evictable victim belongs to the
    /// protected partition. The loop must make progress (evict one block,
    /// insert, repeat), never spin.
    #[test]
    fn full_pool_with_only_protected_victims_makes_progress() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        for selective in [false, true] {
            let cfg = EngineConfig {
                batch_capacity: 8, // many tiny batches: worst-case occupancy
                walk_pool_blocks: Some(2 * p + 1),
                selective,
                ..EngineConfig::light_traffic(16 << 10, 2)
            };
            let mut e =
                LightTraffic::with_partitioned(pg.clone(), Arc::new(UniformSampling::new(8)), cfg)
                    .unwrap();
            let r = e.run(5_000).unwrap();
            assert_eq!(r.metrics.finished_walks, 5_000, "selective={selective}");
            assert!(
                r.metrics.walk_batches_evicted > 0,
                "the full-pool path was not exercised (selective={selective})"
            );
        }
    }

    #[test]
    fn zero_copy_always_never_loads_graph() {
        let g = graph();
        let cfg = EngineConfig {
            batch_capacity: 256,
            zero_copy: ZeroCopyPolicy::Always,
            ..EngineConfig::baseline(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.explicit_graph_copies, 0);
        assert!(r.metrics.zero_copy_kernels > 0);
        assert_eq!(r.gpu.graph_load.count, 0);
        assert!(r.gpu.zero_copy.bytes > 0);
    }

    #[test]
    fn explicit_only_never_zero_copies() {
        let g = graph();
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::baseline(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.zero_copy_kernels, 0);
        assert!(r.metrics.explicit_graph_copies > 0);
        assert_eq!(r.gpu.zero_copy.bytes, 0);
    }

    #[test]
    fn adaptive_uses_zero_copy_for_stragglers() {
        let g = graph();
        // Few walks spread across many partitions => every partition is
        // straggler-light and adaptive should choose zero copy heavily.
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(8 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(64).unwrap();
        assert!(
            r.metrics.zero_copy_kernels > 0,
            "adaptive should zero-copy light partitions"
        );
    }

    #[test]
    fn preemptive_scheduling_reduces_iterations() {
        let g = graph();
        let run = |preemptive: bool| {
            let cfg = EngineConfig {
                batch_capacity: 128,
                preemptive,
                ..EngineConfig::baseline(8 << 10, 8)
            };
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(10)), cfg).unwrap();
            e.run(4_000).unwrap().metrics
        };
        let base = run(false);
        let ps = run(true);
        assert!(ps.preemptive_batches > 0);
        assert!(
            ps.iterations < base.iterations,
            "PS {} !< base {}",
            ps.iterations,
            base.iterations
        );
    }

    #[test]
    fn selective_scheduling_improves_hit_rate() {
        let g = graph();
        let run = |selective: bool| {
            let cfg = EngineConfig {
                batch_capacity: 128,
                selective,
                ..EngineConfig::baseline(8 << 10, 8)
            };
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(10)), cfg).unwrap();
            e.run(4_000).unwrap().metrics
        };
        let base = run(false);
        let ss = run(true);
        assert!(
            ss.graph_pool_hit_rate() > base.graph_pool_hit_rate(),
            "SS {} !> base {}",
            ss.graph_pool_hit_rate(),
            base.graph_pool_hit_rate()
        );
    }

    #[test]
    fn iteration_limit_is_enforced() {
        let g = graph();
        let cfg = EngineConfig {
            batch_capacity: 256,
            max_iterations: 2,
            ..EngineConfig::baseline(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g, Arc::new(UniformSampling::new(40)), cfg).unwrap();
        match e.run(10_000) {
            Err(EngineError::IterationLimit(2)) => {}
            other => panic!("expected iteration limit, got {other:?}"),
        }
    }

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

    /// The block table's contract with the engine: the first mutation
    /// moves adjacency out of the epoch-0 CSR for good, a dirty seal
    /// replaces exactly the dirty block and re-sizes exactly its table
    /// entry, and a block that outgrows the budget flips its own
    /// `oversized` flag — clean partitions are not visited at all.
    #[test]
    fn a_dirty_seal_replaces_exactly_the_dirty_block() {
        let g = graph();
        let nv = g.num_vertices() as VertexId;
        let absent = (0..nv)
            .find(|v| !g.neighbors(0).contains(v))
            .expect("vertex 0 does not reach every vertex");
        let engine = |zero_copy| {
            let cfg = EngineConfig {
                zero_copy,
                ..small_cfg()
            };
            LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(4)), cfg).unwrap()
        };
        let mut e = engine(ZeroCopyPolicy::adaptive());
        // A delete of an absent edge applies nothing: the seal is clean,
        // but the table exists and the CSR is no longer the engine's.
        e.mutate(vec![EdgeUpdate::delete(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (1, 0, 0));
        assert!(e.pg.ram_csr().is_none());
        assert_eq!(Arc::strong_count(&g), 1, "the engine still holds the CSR");
        let np = e.pg.num_partitions();
        let blocks = |e: &LightTraffic| -> Vec<Arc<PartitionData>> {
            let delta = e.evolving.as_ref().expect("mutate creates the table");
            (0..np).map(|p| Arc::clone(delta.block(p))).collect()
        };
        let before = blocks(&e);
        // Only a visit could reset this marker on a clean partition.
        e.oversized[np as usize - 1] = true;

        e.mutate(vec![EdgeUpdate::insert(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (2, 1, 1));
        let after = blocks(&e);
        for p in 0..np as usize {
            assert_eq!(Arc::ptr_eq(&after[p], &before[p]), p != 0, "block {p}");
            assert_eq!(e.pg.partition_bytes(p as PartitionId), after[p].bytes());
        }
        assert_eq!(after[0].bytes(), before[0].bytes() + 4);
        assert_eq!(after[0].neighbors(0).last(), Some(&absent));
        assert!(!e.oversized[0] && e.oversized[np as usize - 1]);

        // Enough inserts into one row to overflow the 16 KiB block.
        let flood: Vec<EdgeUpdate> = (0..5_000).map(|k| EdgeUpdate::insert(0, k % nv)).collect();
        e.mutate(flood.clone()).unwrap();
        e.seal_epoch().unwrap();
        assert!(e.oversized[0] && e.pg.partition_bytes(0) > e.cfg.partition_bytes);
        let r = e.run(500).unwrap().metrics;
        assert_eq!(r.finished_walks, 500);
        assert!(r.zero_copy_kernels > 0, "the hub block reads in place");

        let mut never = engine(ZeroCopyPolicy::Never);
        never.mutate(flood).unwrap();
        match never.seal_epoch() {
            Err(EngineError::OversizedPartition {
                partition: 0,
                bytes,
                block_bytes,
            }) => assert!(bytes > block_bytes),
            other => panic!("expected an oversized block, got {other:?}"),
        }
    }

    #[test]
    fn walk_evictions_happen_under_tight_walk_pool() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        let cfg = EngineConfig {
            batch_capacity: 32,
            walk_pool_blocks: Some(2 * p + 1), // minimum legal size
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e =
            LightTraffic::with_partitioned(pg, Arc::new(UniformSampling::new(8)), cfg).unwrap();
        let r = e.run(20_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 20_000);
        assert!(
            r.metrics.walk_batches_evicted > 0,
            "tight pool must trigger evictions"
        );
        assert!(r.gpu.walk_evict.bytes > 0);
    }

    /// Fails with a free list per group of partitions: a pool sized to
    /// hold every walk (Figure 15's largest pool, one block per full batch
    /// on top of the `2P + 1` floor, plus one per partition for the
    /// partial batches the initial injection leaves) never evicts, however
    /// skewed the graph.
    #[test]
    fn a_pool_that_holds_every_walk_never_evicts() {
        let g = graph();
        let pg = Arc::new(PartitionedGraph::build(g.clone(), 16 << 10));
        let p = pg.num_partitions() as usize;
        let (walks, batch) = (20_000, 32);
        let cfg = EngineConfig {
            batch_capacity: batch,
            walk_pool_blocks: Some(walks / batch + 2 * p + 1 + p),
            ..EngineConfig::light_traffic(16 << 10, 4)
        };
        let mut e =
            LightTraffic::with_partitioned(pg, Arc::new(UniformSampling::new(8)), cfg).unwrap();
        let r = e.run(walks as u64).unwrap();
        assert_eq!(r.metrics.finished_walks, walks as u64);
        assert!(r.metrics.walk_batches_loaded > 0);
        assert_eq!(r.metrics.walk_batches_evicted, 0);
    }

    #[test]
    fn single_partition_graph_needs_one_load() {
        let g = Arc::new(erdos_renyi(512, 4096, 3).csr);
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(1 << 30, 1)
        };
        let mut e = LightTraffic::new(g, Arc::new(UniformSampling::new(10)), cfg).unwrap();
        let r = e.run(1_000).unwrap();
        assert_eq!(r.metrics.explicit_graph_copies, 1);
        assert_eq!(r.metrics.graph_pool_hit_rate(), 0.0); // first probe misses, rest... single iteration
        assert_eq!(r.metrics.finished_walks, 1_000);
    }

    #[test]
    fn pcie4_is_faster_than_pcie3() {
        let g = graph();
        let run = |cost: CostModel| {
            let cfg = EngineConfig {
                batch_capacity: 256,
                gpu: GpuConfig {
                    cost,
                    ..GpuConfig::default()
                },
                ..EngineConfig::light_traffic(16 << 10, 4)
            };
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(20)), cfg).unwrap();
            e.run(8_000).unwrap().metrics.makespan_ns
        };
        let t3 = run(CostModel::pcie3());
        let t4 = run(CostModel::pcie4());
        assert!(t4 < t3, "pcie4 {t4} !< pcie3 {t3}");
    }

    #[test]
    fn runs_accumulate_like_rounds() {
        let g = graph();
        let mut e =
            LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(5)), small_cfg()).unwrap();
        let r1 = e.run(1_000).unwrap();
        let r2 = e.run(1_000).unwrap();
        assert_eq!(r2.metrics.finished_walks, 2_000, "metrics accumulate");
        assert!(r2.metrics.makespan_ns > r1.metrics.makespan_ns);
    }
}

#[cfg(test)]
mod oversized_tests {
    use super::*;
    use crate::algorithm::UniformSampling;

    /// A star graph whose hub adjacency overflows any small block.
    fn hub_graph() -> Arc<Csr> {
        let mut b = lt_graph::GraphBuilder::new();
        for v in 1..=2_000u32 {
            b = b.add_edge(0, v);
        }
        // A few extra edges so non-hub partitions exist.
        for v in 1..500u32 {
            b = b.add_edge(v, v + 1);
        }
        Arc::new(b.build().unwrap().csr)
    }

    #[test]
    fn oversized_partition_rejected_without_zero_copy() {
        let g = hub_graph();
        let cfg = EngineConfig {
            batch_capacity: 128,
            ..EngineConfig::baseline(1 << 10, 4)
        };
        match LightTraffic::new(g, Arc::new(UniformSampling::new(4)), cfg) {
            Err(EngineError::OversizedPartition {
                bytes, block_bytes, ..
            }) => {
                assert!(bytes > block_bytes);
            }
            other => panic!("expected oversized error, got {:?}", other.err()),
        }
    }

    #[test]
    fn oversized_partition_runs_via_zero_copy() {
        let g = hub_graph();
        let cfg = EngineConfig {
            batch_capacity: 128,
            ..EngineConfig::light_traffic(1 << 10, 4)
        };
        let mut e = LightTraffic::new(g, Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 2_000);
        assert!(
            r.metrics.zero_copy_kernels > 0,
            "hub partition must go through zero copy"
        );
    }
}
