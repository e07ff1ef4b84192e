//! Tour of every walk algorithm the engine supports, on one graph:
//! uniform sampling, PageRank, PPR, weighted walks (prefix-sum scan *and*
//! alias sampling — same distribution, different per-step cost profile), and
//! full node2vec with its return/in-out parameters.
//!
//! ```sh
//! cargo run --release --example algorithms_tour
//! ```

use lighttraffic::engine::algorithm::{
    PageRank, Ppr, SecondOrderWalk, UniformSampling, WalkAlgorithm, WeightedWalk,
};
use lighttraffic::engine::alias::AliasWeightedWalk;
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
        (Arc::new(AliasWeightedWalk::new(&weighted, 30)), true),
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

    // Scan vs alias: identical distributions, checked on first-step
    // frequencies from a hub vertex.
    println!("\nchecking prefix-sum sampling ≡ alias sampling (distribution)...");
    let hub = (0..weighted.num_vertices() as u32)
        .max_by_key(|&v| weighted.degree(v))
        .unwrap();
    let trials = 200_000u64;
    let count_firsts = |alg: &dyn WalkAlgorithm| -> Vec<u64> {
        use lighttraffic::engine::algorithm::{StepContext, StepDecision};
        use lighttraffic::engine::walker::Walker;
        let nbrs = weighted.neighbors(hub);
        let mut counts = vec![0u64; nbrs.len()];
        for id in 0..trials {
            let w = Walker::new(id, hub);
            let ctx = StepContext {
                neighbors: nbrs,
                weights: weighted.neighbor_weights(hub),
                prev_neighbors: None,
                timestamps: None,
                max_multiplicity: 1,
                num_vertices: weighted.num_vertices(),
            };
            if let StepDecision::Move(v) = alg.step(&w, ctx, 99) {
                counts[nbrs.iter().position(|&x| x == v).unwrap()] += 1;
            }
        }
        counts
    };
    let scan = count_firsts(&WeightedWalk::new(5));
    let alias = count_firsts(&AliasWeightedWalk::new(&weighted, 5));
    let max_dev = scan
        .iter()
        .zip(&alias)
        .map(|(&a, &b)| (a as f64 - b as f64).abs() / trials as f64)
        .fold(0.0f64, f64::max);
    println!(
        "max per-neighbor frequency deviation over {} draws: {:.4} (hub degree {})",
        trials,
        max_dev,
        weighted.degree(hub)
    );
    assert!(max_dev < 0.01, "distributions must agree");
    println!("\nall algorithms completed with matching semantics ✓");
}
