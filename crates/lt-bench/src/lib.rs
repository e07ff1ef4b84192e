//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation (§IV).
//!
//! Each experiment is a library function in [`experiments`] that runs the
//! scaled workload, prints the same rows/series the paper reports, and
//! returns machine-readable rows. `run_all`, the crate's one binary,
//! executes the whole evaluation, or the experiments it is given by name
//! (`cargo run -p lt-bench --bin run_all fig09`), and writes their
//! `results/*.json`. `tests/claims.rs` holds one test per EXPERIMENTS.md
//! verdict, asserting the shape it states at `--scale 0`.
//!
//! Scaling discipline (DESIGN.md §5): every dataset of Table II gets a
//! deterministic stand-in a few thousand times smaller; GPU pool sizes are
//! scaled by the *same* paper ratios (graph bytes : GPU memory), so who
//! wins, by what factor, and where crossovers fall are preserved even
//! though absolute sizes are not.
#![forbid(unsafe_code)]

pub mod experiments;
pub mod table;

use lt_graph::gen::datasets::DatasetSpec;
use lt_graph::{Csr, PartitionedGraph};
use std::sync::Arc;

/// The paper's GPU memory capacity (RTX 3090), used only as a *ratio*
/// against each dataset's CSR size to scale pool sizes.
pub const PAPER_GPU_BYTES: u64 = 24 << 30;

/// Fraction of GPU memory given to the graph pool in the scaled setup (the
/// rest holds the walk pool and visit buffers).
pub const GRAPH_POOL_FRACTION: f64 = 0.6;

/// Target partition count for stand-ins (the paper divides large graphs
/// into hundreds of partitions; we keep the scheduler cheap with ~48).
pub const TARGET_PARTITIONS: u64 = 48;

/// Stand-ins are ~3.5 orders of magnitude smaller than the paper's
/// datasets (and their batches shrink equally), so *fixed* per-op costs
/// (DMA setup, kernel launch, scheduler tick) must shrink alongside the
/// data sizes or they dominate unrealistically. All harness runs divide
/// those three constants by this factor, preserving their paper-scale
/// weight relative to the (scaled) transfer and kernel times.
pub const OVERHEAD_SCALE: u64 = 4096;

/// A scaled dataset plus the device-pool sizing that mirrors the paper's
/// memory ratios.
pub struct Testbed {
    /// Dataset short name (LJ, OR, …).
    pub name: &'static str,
    /// The generated stand-in graph.
    pub graph: Arc<Csr>,
    /// Partition byte budget.
    pub partition_bytes: u64,
    /// Number of partitions at that budget.
    pub num_partitions: u32,
    /// Graph-pool blocks (`m_g`), scaled by the paper's
    /// GPU-memory : graph-size ratio.
    pub graph_pool: usize,
    /// Whether the real dataset fits the paper's 24 GB GPU.
    pub fits_gpu: bool,
}

impl Testbed {
    /// Build the scaled testbed for a Table II dataset. `shift` shrinks
    /// the stand-in further (0 = largest recommended here).
    pub fn new(spec: &DatasetSpec, shift: u32, seed: u64) -> Self {
        let graph = Arc::new(spec.generate(shift, seed).csr);
        let partition_bytes = (graph.csr_bytes() / TARGET_PARTITIONS)
            .next_multiple_of(4096)
            .max(4096);
        let num_partitions =
            PartitionedGraph::build(graph.clone(), partition_bytes).num_partitions();
        let ratio =
            (PAPER_GPU_BYTES as f64 / spec.paper_csr_bytes as f64 * GRAPH_POOL_FRACTION).min(1.0);
        let graph_pool =
            ((num_partitions as f64 * ratio).ceil() as usize).clamp(2, num_partitions as usize);
        Testbed {
            name: spec.name,
            graph,
            partition_bytes,
            num_partitions,
            graph_pool,
            fits_gpu: spec.fits_gpu_memory,
        }
    }

    /// The paper's standard workload size: `2|V|` walks.
    pub fn standard_walks(&self) -> u64 {
        2 * self.graph.num_vertices()
    }

    /// Scaled batch capacity: the paper sizes batches so a partition's
    /// walks fill a few of them (B = 1 MB vs ~360 K walks per partition);
    /// the stand-ins keep that walks-per-partition : batch ratio.
    pub fn batch_capacity(&self) -> usize {
        ((self.standard_walks() / (3 * self.num_partitions as u64)) as usize).clamp(32, 1024)
    }

    /// Scale a cost model's fixed overheads for stand-in sizes (see
    /// [`OVERHEAD_SCALE`]).
    pub fn scaled_cost(base: lt_gpusim::CostModel) -> lt_gpusim::CostModel {
        lt_gpusim::CostModel {
            copy_latency_ns: base.copy_latency_ns / OVERHEAD_SCALE,
            kernel_launch_ns: base.kernel_launch_ns / OVERHEAD_SCALE,
            host_iteration_ns: base.host_iteration_ns / OVERHEAD_SCALE,
            ..base
        }
    }

    /// A [`lt_gpusim::GpuConfig`] with overheads scaled for this testbed.
    pub fn gpu_config(&self, cost: lt_gpusim::CostModel) -> lt_gpusim::GpuConfig {
        lt_gpusim::GpuConfig {
            cost: Self::scaled_cost(cost),
            ..lt_gpusim::GpuConfig::default()
        }
    }

    /// An [`lt_engine::EngineConfig`] preset for this testbed with
    /// LightTraffic's full feature set and scaled overheads.
    pub fn engine_config(&self) -> lt_engine::EngineConfig {
        let batch = self.batch_capacity();
        // Walk pool sized in *walks*, as the paper configures m_w: room for
        // the standard workload plus the pinned frontier/reserve pairs.
        let blocks =
            (self.standard_walks() as usize).div_ceil(batch) + 2 * self.num_partitions as usize + 1;
        lt_engine::EngineConfig {
            batch_capacity: batch,
            walk_pool_blocks: Some(blocks),
            gpu: self.gpu_config(lt_gpusim::CostModel::pcie3()),
            ..lt_engine::EngineConfig::light_traffic(self.partition_bytes, self.graph_pool)
        }
    }
}

/// Per-run telemetry summary attached to experiment JSON rows: per-engine
/// utilization of the simulated timeline (busy / makespan) and the
/// walk-length percentiles off the engine's log₂ histogram. Derived from
/// counters every run already keeps, so experiments pay nothing extra.
pub fn run_telemetry_json(r: &lt_engine::RunResult) -> serde_json::Value {
    let mk = r.gpu.makespan_ns.max(1) as f64;
    serde_json::json!({
        "utilization": {
            "h2d": r.gpu.h2d_busy_ns as f64 / mk,
            "d2h": r.gpu.d2h_busy_ns as f64 / mk,
            "compute": r.gpu.compute_busy_ns as f64 / mk,
        },
        "length_percentiles": r.metrics.length_percentiles(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::datasets;

    #[test]
    fn testbed_scales_pools_by_paper_ratio() {
        let lj = Testbed::new(&datasets::LJ, 4, 1);
        // LJ fits the GPU: the whole graph may be cached.
        assert_eq!(lj.graph_pool, lj.num_partitions as usize);
        let uk = Testbed::new(&datasets::UK, 4, 1);
        // UK does not fit: the pool must be a strict subset.
        assert!(uk.graph_pool < uk.num_partitions as usize);
        assert!(uk.graph_pool >= 2);
        assert!(!uk.fits_gpu && lj.fits_gpu);
    }

    #[test]
    fn testbed_partition_count_near_target() {
        let tb = Testbed::new(&datasets::TW, 4, 1);
        assert!(
            (TARGET_PARTITIONS / 2..TARGET_PARTITIONS * 2).contains(&(tb.num_partitions as u64)),
            "partitions {}",
            tb.num_partitions
        );
    }
}
