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
//! needs; its test asks a simulated 24 GB device for it.

use serde::Serialize;

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

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::{UniformSampling, WalkAlgorithm};
    use lt_gpusim::sim::OutOfMemory;
    use lt_gpusim::{Gpu, GpuConfig};
    use lt_graph::gen::{rmat, RmatParams};
    use lt_graph::PartitionedGraph;
    use std::sync::Arc;

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
    fn hundred_thousand_walks_run_out_of_device_memory() {
        // The paper's observation, reproduced: with a partition count in
        // the hundreds, as for the large graphs, the queues for 100k walks
        // of length 80 do not fit a 24 GB device.
        let g = Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                seed: 2,
                ..RmatParams::default()
            })
            .csr,
        );
        let part_bytes = (g.csr_bytes() / 300).max(512);
        let partitions = PartitionedGraph::build(g, part_bytes).num_partitions();
        assert_eq!(partitions, 241);
        // The walker state is the algorithm's: 16 B for uniform sampling
        // (vertex, step, walk id). At 8 B the same plan would fit.
        let walker_bytes = UniformSampling::new(80).walker_state_bytes();
        let plan = plan_queues(100_000, partitions, 80, walker_bytes);
        assert_eq!(plan.total_bytes, 30_848_000_000);
        let r = Gpu::new(GpuConfig::default()).reserve(plan.total_bytes);
        assert!(matches!(r, Err(OutOfMemory { .. })), "must OOM: {r:?}");
    }
}
