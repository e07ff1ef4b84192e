//! The multi-round baseline of §II-B / Figure 16.
//!
//! When all walks cannot fit in GPU memory, the intuitive alternative to an
//! out-of-memory walk index is to split them into `k` sets that do fit and
//! run the sets sequentially. Each round re-walks the graph, so graph
//! partitions are re-loaded once per round — the traffic LightTraffic's
//! walk-index design avoids.
//!
//! Implemented on top of the LightTraffic engine itself with a walk pool
//! sized to hold a full round resident: within a round no walk eviction
//! happens, and rounds run back-to-back on the same device, so the graph
//! pool stays warm *within* a round but each round still re-streams the
//! partitions it needs.

use lt_engine::algorithm::WalkAlgorithm;
use lt_engine::{EngineConfig, EngineError, LightTraffic, RunResult};
use lt_graph::Csr;
use std::sync::Arc;

/// Run `num_walks` walks of `alg` in `rounds` sequential rounds, each with
/// at most `ceil(num_walks / rounds)` walks resident.
///
/// `cfg.walk_pool_blocks` is overridden to exactly fit one round (but never
/// below the structural `2P + 1` minimum), mirroring the paper's "GPU
/// memory can only store N walks" constraint. The returned result carries
/// the *cumulative* metrics of all rounds; `metrics.makespan_ns` is the
/// total simulated time.
pub fn run_multi_round(
    graph: Arc<Csr>,
    alg: Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    rounds: u64,
    mut cfg: EngineConfig,
) -> Result<RunResult, EngineError> {
    assert!(rounds >= 1, "need at least one round");
    let per_round = num_walks.div_ceil(rounds);
    let round_batches = (per_round as usize).div_ceil(cfg.batch_capacity);
    // Fit one round: its own batches plus the pinned frontier/reserve pairs.
    cfg.walk_pool_blocks = Some(round_batches + 2 * estimate_partitions(&graph, &cfg) + 1);
    let mut engine = LightTraffic::new(graph.clone(), alg.clone(), cfg)?;
    let walkers = alg.place_walkers(graph.num_vertices(), num_walks);
    let mut result = None;
    for chunk in walkers.chunks(per_round.max(1) as usize) {
        engine.inject(chunk.to_vec());
        result = Some(engine.finish()?);
    }
    Ok(result.expect("at least one round"))
}

fn estimate_partitions(graph: &Arc<Csr>, cfg: &EngineConfig) -> usize {
    lt_graph::PartitionedGraph::build(Arc::clone(graph), cfg.partition_bytes).num_partitions()
        as usize
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
                seed: 5,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    fn cfg() -> EngineConfig {
        // A graph pool far smaller than the partition count, and explicit
        // copies only, so rounds genuinely re-stream the graph (the regime
        // Figure 16 studies).
        EngineConfig {
            batch_capacity: 128,
            preemptive: true,
            selective: true,
            ..EngineConfig::baseline(16 << 10, 3)
        }
    }

    #[test]
    fn rounds_complete_all_walks() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
        let r = run_multi_round(g, alg, 4_000, 4, cfg()).unwrap();
        assert_eq!(r.metrics.finished_walks, 4_000);
        assert_eq!(r.metrics.total_steps, 4_000 * 8);
    }

    #[test]
    fn more_rounds_cost_more_time_and_graph_traffic() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
        let r1 = run_multi_round(g.clone(), alg.clone(), 8_000, 1, cfg()).unwrap();
        let r8 = run_multi_round(g.clone(), alg.clone(), 8_000, 8, cfg()).unwrap();
        assert!(
            r8.metrics.explicit_graph_copies > r1.metrics.explicit_graph_copies,
            "rounds {} !> single {}",
            r8.metrics.explicit_graph_copies,
            r1.metrics.explicit_graph_copies
        );
        assert!(
            r8.metrics.makespan_ns > r1.metrics.makespan_ns,
            "rounds {} !> single {}",
            r8.metrics.makespan_ns,
            r1.metrics.makespan_ns
        );
    }

    #[test]
    fn single_round_equals_plain_run() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(6));
        let r = run_multi_round(g.clone(), alg.clone(), 2_000, 1, cfg()).unwrap();
        let mut plain = LightTraffic::new(g, alg, cfg()).unwrap();
        let p = plain.run(2_000).unwrap();
        assert_eq!(r.metrics.total_steps, p.metrics.total_steps);
    }
}
