//! A NextDoor-like fully in-GPU-memory baseline (Figure 11).
//!
//! When the graph and all walks fit in device memory, the straightforward
//! design loads everything once and computes walk-centrically with no
//! out-of-memory machinery. LightTraffic still edges it out in the paper
//! because (a) its pipeline overlaps the initial loading with computation,
//! whereas the in-memory engine loads first and computes after, and (b)
//! NextDoor's transit parallelism regroups samples by transit vertex at
//! every step (its caching/scheduling contribution), a per-step cost
//! comparable to LightTraffic's reshuffling. Both effects are modeled
//! explicitly.

use crate::BaselineRun;
use lt_engine::algorithm::{StepDecision, WalkAlgorithm};
use lt_engine::{host_step, Metrics};
use lt_gpusim::{Category, Direction, Gpu, GpuConfig, KernelCost};
use lt_graph::Csr;
use std::sync::Arc;

/// Errors from the in-GPU-memory baseline.
#[derive(Debug)]
pub enum InGpuError {
    /// Graph + walk index exceed device memory — the scalability wall this
    /// baseline hits (§II-A).
    OutOfMemory(lt_gpusim::sim::OutOfMemory),
}

impl std::fmt::Display for InGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InGpuError::OutOfMemory(e) => write!(f, "in-GPU-memory baseline: {e}"),
        }
    }
}

impl std::error::Error for InGpuError {}

/// Transit-group count used for the per-step regrouping cost model.
const TRANSIT_GROUPS: u32 = 256;

/// Run the in-GPU-memory baseline: one blocking graph upload, one blocking
/// walk-index upload, then batched walk-centric kernels to completion.
pub fn run_in_gpu_memory(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    gpu_config: GpuConfig,
    seed: u64,
) -> Result<BaselineRun, InGpuError> {
    let mut gpu = Gpu::new(gpu_config);
    let stream = gpu.create_stream();
    let nv = graph.num_vertices();

    let graph_bytes = graph.csr_bytes();
    let walk_bytes = num_walks * alg.walker_state_bytes();
    gpu.reserve(graph_bytes).map_err(InGpuError::OutOfMemory)?;
    gpu.reserve(walk_bytes).map_err(InGpuError::OutOfMemory)?;
    if alg.tracks_visits() {
        gpu.reserve(nv * 4).map_err(InGpuError::OutOfMemory)?;
    }

    // Load everything up front; no overlap with computation.
    gpu.copy_async(
        Direction::HostToDevice,
        graph_bytes,
        Category::GraphLoad,
        stream,
    )
    .expect("no fault plan in the in-GPU baseline");
    gpu.copy_async(
        Direction::HostToDevice,
        walk_bytes,
        Category::WalkLoad,
        stream,
    )
    .expect("no fault plan in the in-GPU baseline");
    gpu.synchronize(stream);

    let mut visit_counts = alg.tracks_visits().then(|| vec![0u64; nv as usize]);
    let mut total_steps = 0u64;
    let mut finished = 0u64;
    // Walk-centric: place and chase every walk to termination, kernel per chunk.
    const KERNEL_CHUNK: usize = 1 << 16;
    let mut placed = (0..num_walks)
        .map_while(|id| alg.place_walker(nv, id))
        .fuse()
        .peekable();
    while placed.peek().is_some() {
        let mut steps = 0u64;
        for mut w in placed.by_ref().take(KERNEL_CHUNK) {
            loop {
                match host_step(graph, alg.as_ref(), &mut w, seed) {
                    StepDecision::Terminate => {
                        finished += 1;
                        break;
                    }
                    StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                        steps += 1;
                        if let Some(c) = visit_counts.as_mut() {
                            c[v as usize] += 1;
                        }
                    }
                }
            }
        }
        total_steps += steps;
        // NextDoor-style transit grouping: every step, samples are
        // regrouped by their transit vertex so a sub-warp reads one
        // adjacency list — a shared-memory sort analogous to two-level
        // reshuffling, paid once per step.
        let grouping_ns = gpu.cost().reshuffle_time(steps, TRANSIT_GROUPS, true);
        let update_ns = gpu.cost().step_time(steps);
        gpu.kernel_async(
            KernelCost {
                update_ns,
                other_ns: grouping_ns,
                ..Default::default()
            },
            Category::Compute,
            stream,
        );
    }
    gpu.device_synchronize();
    let stats = gpu.stats().clone();
    let metrics = Metrics {
        total_steps,
        finished_walks: finished,
        makespan_ns: stats.makespan_ns,
        ..Metrics::default()
    };
    Ok(BaselineRun::simulated(metrics, stats, visit_counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::{PageRank, UniformSampling};
    use lt_graph::gen::{rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 10,
                edge_factor: 8,
                seed: 3,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn completes_all_walks() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(12));
        let r = run_in_gpu_memory(&g, &alg, 2_000, GpuConfig::default(), 42).unwrap();
        assert_eq!(r.metrics.finished_walks, 2_000);
        assert_eq!(r.metrics.total_steps, 2_000 * 12);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn fails_when_graph_does_not_fit() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(4));
        let tiny = GpuConfig {
            memory_bytes: 1 << 10,
            ..Default::default()
        };
        assert!(matches!(
            run_in_gpu_memory(&g, &alg, 100, tiny, 42),
            Err(InGpuError::OutOfMemory(_))
        ));
    }

    #[test]
    fn matches_lighttraffic_trajectories() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(8, 0.15));
        let ig = run_in_gpu_memory(&g, &alg, 1_000, GpuConfig::default(), 42).unwrap();
        let mut lt = lt_engine::LightTraffic::new(
            g.clone(),
            alg,
            lt_engine::EngineConfig {
                batch_capacity: 128,
                seed: 42,
                ..lt_engine::EngineConfig::light_traffic(16 << 10, 4)
            },
        )
        .unwrap();
        let ltr = lt.run(1_000).unwrap();
        assert_eq!(ig.visits.unwrap(), ltr.visit_counts.unwrap());
    }
}
