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
//!
//! One module per layer, each owning its state: this one is the driver
//! (construction, injection, Algorithm 2's loop); `config` the
//! configuration and reports; `schedule` the §III-D/§III-E decisions;
//! `load` partition loads and the retrying copy; `drain` acquire → kernel
//! → reshuffle (§III-C) and the per-tag results; `epoch` evolving-graph
//! seals; `recovery` checkpoints and the automatic snapshot.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

mod config;
mod drain;
mod epoch;
mod load;
mod recovery;
mod schedule;

pub use config::{EngineConfig, EngineError, EpochSummary, RunStatus, ZeroCopyPolicy};

// The layer modules share this vocabulary through `use super::*`.
use crate::algorithm::WalkAlgorithm;
use crate::batch::WalkBatch;
use crate::exec::ExecPool;
use crate::graphpool::DeviceGraphPool;
use crate::hostcache::HostDecodeCache;
use crate::kernel;
use crate::metrics::{IterationRecord, Metrics, RunResult};
use crate::reshuffle::ReshuffleMode;
use crate::walker::Walker;
use crate::walkpool::{DeviceWalkPool, HostWalkPool};
use lt_gpusim::sim::OutOfMemory;
use lt_gpusim::{Category, Gpu, GpuConfig, StreamId};
use lt_graph::delta::DeltaGraph;
use lt_graph::{Csr, GraphStore, PartitionData, PartitionId, PartitionedGraph, VertexId};
use lt_telemetry::{apportion_exact, merge_row, TrafficDirection, TrafficLedger, SHARED_TAG};
use std::sync::Arc;

/// Most walks one job or one [`LightTraffic::run`] may ask for. `run` and
/// `inject_walks` place every walker up front, so this caps what one call
/// can make the host allocate (2^28 walkers of 24 bytes, 6 GiB); a served
/// job places its walkers only as they are admitted. [`check_walk_count`]
/// refuses a larger count before any walker is placed.
pub const MAX_JOB_WALKS: u64 = 1 << 28;

/// Refuse a walk count past [`MAX_JOB_WALKS`] with
/// [`EngineError::Admission`].
pub fn check_walk_count(num_walks: u64) -> Result<(), EngineError> {
    if num_walks > MAX_JOB_WALKS {
        return Err(EngineError::Admission(format!(
            "job asks for {num_walks} walks, more than {MAX_JOB_WALKS}"
        )));
    }
    Ok(())
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
}

/// The walk index and the graph cache (§III-B): every walker in flight
/// sits in exactly one of the two walk pools, and the graph pool holds
/// the device-resident partitions.
struct Pools {
    host: HostWalkPool,
    device: DeviceWalkPool,
    graph: DeviceGraphPool,
}

impl Pools {
    /// Walks currently staying in partition `p` (host + device).
    fn walks_in(&self, p: PartitionId) -> u64 {
        self.host.count(p) + self.device.count(p)
    }

    /// The batches of `p`, in the order a drain of `p` acquires them
    /// when nothing is evicted: a load goes to the device queue's tail
    /// and the queue head is stepped, so the device queue first, then the
    /// host queue, then the frontier.
    fn batches(&self, p: PartitionId) -> impl Iterator<Item = &WalkBatch> {
        let device = &self.device;
        device
            .queued(p)
            .chain(self.host.batches(p))
            .chain(device.frontier(p))
    }

    /// Every walker in flight, host pool first.
    fn walkers(&self) -> impl Iterator<Item = &Walker> {
        self.host.iter_walkers().chain(self.device.iter_walkers())
    }
}

/// The out-of-GPU-memory random walk engine.
pub struct LightTraffic {
    cfg: EngineConfig,
    gpu: Gpu,
    /// The block table, the mutations buffered against it and the epoch
    /// clock. Every adjacency read starts here: a partition's rows are
    /// its sealed block, a RAM store's CSR range or, for a clean
    /// partition of an out-of-core store, a block from `host_cache`.
    graph: DeltaGraph,
    alg: Arc<dyn WalkAlgorithm>,
    /// [`WalkAlgorithm::routes_by_tag`], read once here: kernels then
    /// split their results by walker tag.
    tagged: bool,
    walker_bytes: u64,
    load_stream: StreamId,
    evict_stream: StreamId,
    comp_stream: StreamId,
    pools: Pools,
    /// Partitions that must be read in place (oversized or degraded).
    forced_zc: load::ForcedZeroCopy,
    visit_counts: Option<Vec<u64>>,
    paths: Option<PathLog>,
    iteration_log: Option<Vec<IterationRecord>>,
    metrics: Metrics,
    rr_cursor: u32,
    active: u64,
    /// Resolved [`EngineConfig::kernel_threads`] (`0` already expanded to
    /// the available parallelism).
    kernel_threads: usize,
    /// Persistent host worker pool every parallel phase runs on (kernel
    /// chunks, out-of-core decode).
    exec: ExecPool,
    /// Recycled per-chunk output buffers, each chunk's share of the
    /// reshuffle's local index (Algorithm 1) included, shared by inline
    /// and pooled stepping. Allocation cache only — outputs are
    /// bit-identical with or without recycling.
    scratch: kernel::ScratchPool,
    /// Per-tag results and the traffic ledger.
    attr: drain::Attribution,
    /// Latest automatic snapshot (fatal faults roll back to it).
    snapshot: Option<recovery::AutoSnapshot>,
    /// Host decode cache — the RAM tier between disk and device for the
    /// clean partitions of an out-of-core store. `None` on RAM stores,
    /// whose rows are read in place.
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
    /// budget the file was written with, and a host decode cache of
    /// `max(2, 2 × graph_pool_blocks)` partitions (at most all of them) is
    /// installed between disk and the device graph pool. Walk output is
    /// bit-identical to a RAM store of the same graph partitioned at the
    /// same budget.
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

    /// Build an engine over an already-partitioned graph. The engine's
    /// block table starts as `pg`'s, sharing its store: no adjacency is
    /// copied.
    pub fn with_partitioned(
        pg: Arc<PartitionedGraph>,
        alg: Arc<dyn WalkAlgorithm>,
        cfg: EngineConfig,
    ) -> Result<Self, EngineError> {
        let pg = Arc::unwrap_or_clone(pg);
        cfg.validate()?;
        alg.validate().map_err(EngineError::Admission)?;
        let p = pg.num_partitions();
        let mut gpu = Gpu::new(cfg.gpu.clone());
        let walker_bytes = alg.walker_state_bytes();
        let batch_capacity = cfg.batch_capacity;
        let batch_bytes = batch_capacity as u64 * walker_bytes;
        // 2P pinned frontier/reserve pairs plus one circulating block.
        let walk_blocks = cfg
            .walk_pool_blocks
            .unwrap_or(4 * p as usize)
            .max(2 * p as usize + 1);
        let pools = Pools {
            graph: DeviceGraphPool::new(&mut gpu, p, cfg.graph_pool_blocks, cfg.partition_bytes)?,
            device: DeviceWalkPool::new(&mut gpu, p, walk_blocks, batch_bytes, batch_capacity)?,
            host: HostWalkPool::new(p, batch_capacity),
        };
        let visit_counts = if alg.tracks_visits() {
            let nv = pg.num_vertices();
            gpu.reserve(nv * 4)?;
            Some(vec![0u64; nv as usize])
        } else {
            None
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
        let kernel_threads = kernel::resolve_threads(cfg.kernel_threads);
        // The RAM tier holds what the device holds plus headroom for
        // second-order zero-copy views; it never holds more than all `P`.
        let host_cache = match pg.store() {
            GraphStore::OutOfCore(ooc) => Some(HostDecodeCache::new(
                Arc::clone(ooc),
                (2 * cfg.graph_pool_blocks).max(2),
            )),
            GraphStore::Ram(_) => None,
        };
        Ok(LightTraffic {
            attr: drain::Attribution {
                deltas: Default::default(),
                ledger: cfg.attribution.then(TrafficLedger::new),
            },
            forced_zc: load::ForcedZeroCopy {
                corrupt_loads: vec![0; p as usize],
                oversized,
            },
            paths: cfg.record_paths.then(PathLog::default),
            iteration_log: cfg.record_iterations.then(Vec::new),
            load_stream: gpu.create_stream(),
            evict_stream: gpu.create_stream(),
            comp_stream: gpu.create_stream(),
            cfg,
            gpu,
            graph: DeltaGraph::new(pg),
            tagged: alg.routes_by_tag(),
            alg,
            walker_bytes,
            pools,
            visit_counts,
            metrics: Metrics::default(),
            rr_cursor: 0,
            active: 0,
            kernel_threads,
            // One long-lived pool; it outlives every batch, so the hot
            // path never spawns a thread. `map`'s caller claims indices
            // too, so `kernel_threads - 1` workers make `kernel_threads`.
            exec: ExecPool::new(kernel_threads - 1),
            scratch: kernel::ScratchPool::new(kernel_threads),
            snapshot: None,
            host_cache,
        })
    }

    /// The partition table in use.
    pub fn partitions(&self) -> &PartitionedGraph {
        self.graph.table()
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

    /// Live counters of the persistent worker pool, always `Some`
    /// ([`Self::publish`] exports them as `lt_exec_*` series).
    pub fn exec_stats(&self) -> Option<crate::exec::ExecStats> {
        Some(self.exec.stats())
    }

    /// Identity; kept for `benchmark/src/library.rs`, its only caller.
    #[doc(hidden)]
    pub fn into_session(self) -> Self {
        self
    }

    /// Identity; kept for `benchmark/src/library.rs`, its only caller.
    #[doc(hidden)]
    pub fn engine(&self) -> &Self {
        self
    }

    /// The device walk pool ([`Self::publish`] exports its occupancy,
    /// which derives from the schedule alone).
    pub(crate) fn device_pool(&self) -> &DeviceWalkPool {
        &self.pools.device
    }

    /// Run the algorithm's standard workload of `num_walks` walks:
    /// [`Self::inject_walks`] then [`Self::finish`]. A count past
    /// [`MAX_JOB_WALKS`] is [`EngineError::Admission`], and nothing runs.
    pub fn run(&mut self, num_walks: u64) -> Result<RunResult, EngineError> {
        check_walk_count(num_walks)?;
        self.inject_walks(num_walks);
        self.finish()
    }

    /// Drive every walk in flight to completion and return the result.
    /// The engine stays usable: inject more walks and run again.
    pub fn finish(&mut self) -> Result<RunResult, EngineError> {
        match self.step(u64::MAX)? {
            RunStatus::Completed(r) => Ok(*r),
            RunStatus::Paused => unreachable!("an unbounded step cannot pause"),
        }
    }

    /// Generate and add `num_walks` of the algorithm's standard walkers to
    /// the in-flight set without running anything. Each walker is filed
    /// into the host pool as it is placed
    /// ([`WalkAlgorithm::place_walker`]), so the workload is never held
    /// twice.
    ///
    /// # Panics
    ///
    /// Past [`MAX_JOB_WALKS`]: a caller taking the count from outside the
    /// program checks it with [`check_walk_count`] first.
    pub fn inject_walks(&mut self, num_walks: u64) {
        assert!(
            num_walks <= MAX_JOB_WALKS,
            "{num_walks} walks is more than MAX_JOB_WALKS ({MAX_JOB_WALKS})"
        );
        let (alg, nv) = (self.alg.clone(), self.graph.table().num_vertices());
        self.inject((0..num_walks).map_while(|id| alg.place_walker(nv, id)));
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
    pub fn inject(&mut self, walkers: impl IntoIterator<Item = Walker>) {
        self.drop_snapshot();
        for w in walkers {
            if let Some(paths) = self.paths.as_mut() {
                if w.step == 0 {
                    paths.reset(w.id);
                }
                paths.push(w.id, w.vertex);
            }
            let p = self.graph.table().partition_of(w.vertex);
            self.pools.host.insert(p, w);
            self.active += 1;
        }
    }

    /// The driver: run at most `iterations` scheduler iterations
    /// (Algorithm 2's loop), pausing — state intact, checkpointable — if
    /// walks remain. Any budget, 0 included, is boundary safe: slicing a
    /// run never changes its result.
    ///
    /// With [`EngineConfig::checkpoint_every`] set, an in-memory snapshot
    /// is taken on that cadence and a fatal device error rolls back to it
    /// instead of aborting: data state (walkers, visit counts, paths,
    /// per-tag results) restores exactly, while the simulated clock and
    /// traffic counters keep the lost work on the books as recovery
    /// overhead.
    pub fn step(&mut self, iterations: u64) -> Result<RunStatus, EngineError> {
        let mut done = 0u64;
        while self.active > 0 {
            if done >= iterations {
                return Ok(RunStatus::Paused);
            }
            done += 1;
            self.snapshot_if_due();
            match self.run_iteration() {
                Ok(()) => {}
                Err(EngineError::Device(_)) if self.snapshot.is_some() => self.recover(),
                Err(e) => return Err(e),
            }
        }
        self.gpu.device_synchronize();
        let gpu_stats = self.gpu.stats().clone();
        self.metrics.makespan_ns = gpu_stats.makespan_ns;
        self.metrics.host_peak_walkers = self.pools.host.peak_walkers();
        self.metrics.faults_injected = gpu_stats.faults_injected;
        Ok(RunStatus::Completed(Box::new(RunResult {
            metrics: self.metrics.clone(),
            gpu: gpu_stats,
            visit_counts: self.visit_counts.clone(),
            paths: self.paths.as_ref().map(|log| log.paths.clone()),
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
        let host_iteration_ns = self.gpu.cost().host_iteration_ns;
        self.gpu.host_advance(host_iteration_ns, Category::HostWork);
        let i = schedule::select_partition(&self.pools, self.cfg.selective, &mut self.rr_cursor);
        let mut use_zc = schedule::decide_zero_copy(
            &self.pools,
            self.cfg.zero_copy,
            self.forced_zc.forced(i),
            self.graph.table().partition_bytes(i),
            i,
        );
        let (walks, graph_hit) = (self.pools.walks_in(i), self.pools.graph.contains(i));
        if let Some(log) = self.iteration_log.as_mut() {
            log.push(IterationRecord {
                index: self.metrics.iterations,
                partition: i,
                walks,
                zero_copy: use_zc,
                graph_hit,
                start_ns: self.gpu.now(),
            });
        }
        if !use_zc {
            if graph_hit {
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algorithm::{PageRank, Ppr, UniformSampling};
    use lt_gpusim::{CostModel, GpuConfig};
    use lt_graph::gen::{rmat, RmatParams};

    pub(crate) fn graph() -> Arc<Csr> {
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

    pub(crate) fn small_cfg() -> EngineConfig {
        EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(16 << 10, 6)
        }
    }

    /// A star graph whose hub adjacency overflows any small block.
    pub(crate) fn hub_graph() -> Arc<Csr> {
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

    /// A job table has no workload of its own: `run` and `inject_walks`
    /// place nothing on it, registered jobs or not, so no untagged walker
    /// steps as slot 0's job.
    #[test]
    fn a_job_table_engine_places_no_walkers() {
        let table = Arc::new(crate::JobTable::with_capacity(2));
        let mut e = LightTraffic::new(graph(), table.clone(), small_cfg()).unwrap();
        let r = e.run(1_000).unwrap();
        assert_eq!((r.metrics.finished_walks, r.metrics.total_steps), (0, 0));
        table
            .register(Arc::new(UniformSampling::new(8)), 1)
            .expect("a free slot");
        e.inject_walks(1_000);
        assert_eq!(e.active_walks(), 0);
        assert_eq!(e.run(1_000).unwrap().metrics.total_steps, 0);
        assert!(e.take_tag_deltas().iter().all(|d| d.steps == 0));
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
