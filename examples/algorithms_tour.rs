//! Tour of every walk algorithm the engine supports, on one graph:
//! uniform sampling, PageRank, PPR, the exact weighted walk (one prefix-sum
//! scan of each row), and full node2vec with its return/in-out parameters.
//!
//! ```sh
//! cargo run --release --example algorithms_tour
//! ```

use lighttraffic::engine::algorithm::{
    PageRank, Ppr, SecondOrderWalk, StepContext, StepDecision, UniformSampling, WalkAlgorithm,
    WeightedWalk,
};
use lighttraffic::engine::walker::Walker;
use lighttraffic::engine::{EngineConfig, LightTraffic};
use lighttraffic::graph::gen::{rmat, with_random_weights, RmatParams};
use std::sync::Arc;

fn main() {
    let unweighted = Arc::new(
        rmat(RmatParams {
            scale: 12,
            edge_factor: 10,
            seed: 3,
            ..RmatParams::default()
        })
        .csr,
    );
    let weighted = Arc::new(with_random_weights(&unweighted, 7));
    println!(
        "running every algorithm on a {}-vertex graph (2|V| walks each)\n",
        unweighted.num_vertices()
    );
    println!(
        "{:<28} {:>9} {:>12} {:>12} {:>9}",
        "algorithm", "steps", "iterations", "M steps/s", "zc"
    );

    let algorithms: Vec<(Arc<dyn WalkAlgorithm>, bool)> = vec![
        (Arc::new(UniformSampling::new(30)), false),
        (Arc::new(PageRank::new(30, 0.15)), false),
        (Arc::new(Ppr::from_highest_degree(&unweighted, 0.15)), false),
        (Arc::new(WeightedWalk::new(30)), true),
        (Arc::new(SecondOrderWalk::node2vec(30, 0.5, 2.0)), false),
        (Arc::new(SecondOrderWalk::node2vec(30, 2.0, 0.5)), false),
    ];
    for (alg, needs_weights) in algorithms {
        let g = if needs_weights {
            weighted.clone()
        } else {
            unweighted.clone()
        };
        let cfg = EngineConfig {
            batch_capacity: 512,
            seed: 42,
            ..EngineConfig::light_traffic(64 << 10, 6)
        };
        let mut engine = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("fits");
        let walks = 2 * g.num_vertices();
        let r = engine.run(walks).expect("completes");
        assert_eq!(r.metrics.finished_walks, walks);
        // The trait says which walks need their previous vertex's
        // adjacency; only those make the engine look `aux` up.
        let label = if alg.reads_prev_neighbors() {
            "node2vec (2nd-order)"
        } else {
            alg.name()
        };
        println!(
            "{:<28} {:>9} {:>12} {:>12.1} {:>9}",
            label,
            r.metrics.total_steps,
            r.metrics.iterations,
            r.metrics.throughput() / 1e6,
            r.metrics.zero_copy_kernels,
        );
    }

    // Weighted draws follow the weights: first-step frequencies from a hub
    // vertex against its row's normalized weights.
    println!("\nchecking weighted sampling against the weights at the hub...");
    let hub = (0..weighted.num_vertices() as u32)
        .max_by_key(|&v| weighted.degree(v))
        .unwrap();
    let nbrs = weighted.neighbors(hub);
    let weights = weighted.neighbor_weights(hub).expect("weighted graph");
    let trials = 200_000u64;
    let alg = WeightedWalk::new(5);
    let mut counts = vec![0u64; nbrs.len()];
    for id in 0..trials {
        let ctx = StepContext {
            neighbors: nbrs,
            weights: Some(weights),
            prev_neighbors: None,
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: weighted.num_vertices(),
        };
        if let StepDecision::Move(v) = alg.step(&Walker::new(id, hub), ctx, 99) {
            counts[nbrs.iter().position(|&x| x == v).unwrap()] += 1;
        }
    }
    let w_sum: f64 = weights.iter().map(|&w| w as f64).sum();
    let max_dev = counts
        .iter()
        .zip(weights)
        .map(|(&c, &w)| (c as f64 / trials as f64 - w as f64 / w_sum).abs())
        .fold(0.0f64, f64::max);
    println!(
        "max per-neighbor deviation from the weights over {} draws: {:.4} (hub degree {})",
        trials,
        max_dev,
        weighted.degree(hub)
    );
    assert!(max_dev < 0.01, "weighted draws must follow the weights");
    println!("\nall algorithms completed with matching semantics ✓");
}
