//! Ablation: vertex reordering vs walk locality and engine throughput.
//!
//! Range partitioning benefits from id locality (real web graphs have it
//! from URL ordering; EXPERIMENTS.md's Figure 9 PPR caveat traces to the
//! stand-ins lacking it). This ablation measures, per ordering:
//! the partition self-loop rate (edges staying inside their partition),
//! the engine's multi-step ratio (steps per reshuffle), and throughput.
//!
//! Accepts `--scale N` and `--seed N`.
#![forbid(unsafe_code)]

use lt_bench::table::{msteps, print_table};
use lt_engine::algorithm::{UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic};
use lt_graph::reorder::{apply_order, bfs_order, degree_order, partition_selfloop_rate};
use lt_graph::Csr;
use serde_json::json;
use std::sync::Arc;

/// Minimal testbed wrapper for a custom graph (mirrors
/// `lt_bench::Testbed`'s pool sizing).
struct TestbedLike {
    graph: Arc<Csr>,
    partition_bytes: u64,
    num_partitions: u32,
    graph_pool: usize,
}

impl TestbedLike {
    fn new(graph: Arc<Csr>) -> Self {
        let partition_bytes = (graph.csr_bytes() / lt_bench::TARGET_PARTITIONS)
            .next_multiple_of(4096)
            .max(4096);
        let num_partitions =
            lt_graph::PartitionedGraph::build(graph.clone(), partition_bytes).num_partitions();
        TestbedLike {
            graph,
            partition_bytes,
            num_partitions,
            graph_pool: (num_partitions as usize / 3).max(2),
        }
    }

    fn engine_config(&self) -> EngineConfig {
        let batch = ((2 * self.graph.num_vertices() / (3 * self.num_partitions as u64)) as usize)
            .clamp(32, 1024);
        let blocks = (2 * self.graph.num_vertices() as usize).div_ceil(batch)
            + 2 * self.num_partitions as usize
            + 1;
        EngineConfig {
            batch_capacity: batch,
            walk_pool_blocks: Some(blocks),
            gpu: lt_bench::Testbed::scaled_cost_config(),
            ..EngineConfig::light_traffic(self.partition_bytes, self.graph_pool)
        }
    }
}

fn main() {
    let (shift, seed) = lt_bench::parse_args();
    // A *sparse* random graph (avg degree ~16): Erdős–Rényi ids carry no
    // locality, and the graph is sparse enough that BFS relabeling can
    // create it. (Dense stand-ins like FS's, avg degree >100, have
    // neighbors everywhere — no ordering helps, which the ablation also
    // demonstrates if run with `--scale 0` on the FS testbed.)
    let scale = 13u32.saturating_sub(shift).max(9);
    let base = lt_graph::gen::erdos_renyi(1 << scale, (1u64 << scale) * 8, seed).csr;
    let tb = TestbedLike::new(Arc::new(base));
    println!(
        "Ablation: vertex ordering (sparse ER, {} vertices, {} partitions)\n",
        tb.graph.num_vertices(),
        tb.num_partitions
    );
    let orderings: Vec<(&str, Arc<Csr>)> = vec![
        ("original", tb.graph.clone()),
        (
            "bfs",
            Arc::new(apply_order(&tb.graph, &bfs_order(&tb.graph))),
        ),
        (
            "degree",
            Arc::new(apply_order(&tb.graph, &degree_order(&tb.graph))),
        ),
    ];
    let mut rows = Vec::new();
    let mut j = Vec::new();
    for (name, g) in orderings {
        let selfloop = partition_selfloop_rate(&g, tb.partition_bytes);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
        let cfg = EngineConfig {
            seed,
            ..tb.engine_config()
        };
        let mut e = LightTraffic::new(g.clone(), alg, cfg).expect("pools fit");
        let r = e.run(2 * g.num_vertices()).expect("run completes");
        rows.push(vec![
            name.to_string(),
            format!("{:.1}%", 100.0 * selfloop),
            msteps(r.metrics.throughput()),
            format!("{:.1}%", 100.0 * r.metrics.graph_pool_hit_rate()),
        ]);
        j.push(json!({
            "ordering": name,
            "partition_selfloop_rate": selfloop,
            "steps_per_sec": r.metrics.throughput(),
            "hit_rate": r.metrics.graph_pool_hit_rate(),
        }));
    }
    print_table(
        &["ordering", "in-partition edges", "M steps/s", "hit rate"],
        &rows,
    );
    println!("\n(takeaway: on expander-like random graphs no relabeling creates much");
    println!(" locality — in-partition edge share stays near the 1/P baseline. The");
    println!(" walk locality real URL-ordered web crawls enjoy is structural, which");
    println!(" is exactly why the paper's UK/CW numbers benefit from range");
    println!(" partitioning more than social-network-like graphs do.)");
    lt_bench::save_json("ablation_reorder", &json!(j));
}
