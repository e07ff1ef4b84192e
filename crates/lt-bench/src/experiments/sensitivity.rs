//! §IV-D sensitivity analysis: Figure 15 (memory pool sizes), Figure 17
//! (partition size), Figure 18 (scalability vs walk density).

use crate::table::{ms, print_table};
use crate::Testbed;
use lt_engine::algorithm::{PageRank, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic};
use lt_gpusim::{CostModel, GpuConfig};
use lt_graph::gen::datasets;
use lt_graph::stats::human_bytes;
use serde_json::{json, Value};
use std::sync::Arc;

/// Figure 15: running time and per-operation breakdown across a grid of
/// (cached walks × cached partitions), PageRank with walk length 10.
pub fn fig15(shift: u32, seed: u64) -> Value {
    println!("Figure 15: running time under different memory pool sizes (PageRank, l=10)\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));
    let total_walks = 4 * tb.standard_walks(); // the "800M walks" analogue
    let batch = tb.batch_capacity();
    let p = tb.num_partitions as usize;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for parts_frac in [8usize, 4, 2] {
        let pool = (p / parts_frac).max(2);
        for walks_frac in [8u64, 4, 2, 1] {
            let cached_walks = total_walks / walks_frac;
            let walk_blocks = (cached_walks as usize).div_ceil(batch) + 2 * p + 1;
            let cfg = EngineConfig {
                seed,
                batch_capacity: batch,
                walk_pool_blocks: Some(walk_blocks),
                gpu: tb.gpu_config(CostModel::pcie3()),
                ..EngineConfig::light_traffic(tb.partition_bytes, pool)
            };
            let r = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
                .expect("pools fit")
                .run(total_walks)
                .expect("run completes");
            let g = &r.gpu;
            rows.push(vec![
                pool.to_string(),
                cached_walks.to_string(),
                ms(g.graph_load.busy_ns),
                ms(g.walk_load.busy_ns),
                ms(g.zero_copy.busy_ns),
                ms(g.walk_evict.busy_ns),
                ms(g.computing_ns()),
                ms(r.metrics.makespan_ns),
            ]);
            json_rows.push(json!({
                "cached_partitions": pool,
                "cached_walks": cached_walks,
                "graph_loading_ms": g.graph_load.busy_ns as f64 / 1e6,
                "walk_loading_ms": g.walk_load.busy_ns as f64 / 1e6,
                "zero_copy_ms": g.zero_copy.busy_ns as f64 / 1e6,
                "walk_eviction_ms": g.walk_evict.busy_ns as f64 / 1e6,
                "walk_computing_ms": g.computing_ns() as f64 / 1e6,
                "total_ms": r.metrics.makespan_ns as f64 / 1e6,
            }));
        }
    }
    print_table(
        &[
            "parts", "walks", "graph ld", "walk ld", "zero cp", "evict", "compute", "total",
        ],
        &rows,
    );
    println!("\n(total < sum of columns: the pipeline overlaps them)");
    println!("paper: caching more walks at fixed partitions cuts time (12.8s → 7.1s at");
    println!("       25 partitions); loading often exceeds computing.");
    json!(json_rows)
}

/// Figure 17: walk-computing time breakdown (updating vs reshuffling) as a
/// function of partition size.
pub fn fig17(shift: u32, seed: u64) -> Value {
    println!("Figure 17: walk computing time under different partition sizes\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::TW, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
    // Make the locality penalty visible at stand-in scale: pretend the
    // device cache is 1/64 of the graph (the paper's 6 MB : 6 GB ratio).
    let cost = CostModel {
        device_cache_bytes: (tb.graph.csr_bytes() / 64).max(4096),
        ..CostModel::pcie3()
    };
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for mult in [1u64, 2, 4, 8, 16] {
        let part_bytes = tb.partition_bytes * mult;
        let parts = lt_graph::PartitionedGraph::build(tb.graph.clone(), part_bytes).num_partitions()
            as usize;
        let pool = (parts * tb.graph_pool)
            .div_ceil(tb.num_partitions as usize)
            .max(2);
        let cfg = EngineConfig {
            seed,
            batch_capacity: tb.batch_capacity(),
            gpu: GpuConfig {
                cost: crate::Testbed::scaled_cost(cost.clone()),
                ..GpuConfig::default()
            },
            ..EngineConfig::light_traffic(part_bytes, pool)
        };
        let r = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
            .expect("fits")
            .run(tb.standard_walks())
            .expect("run completes");
        let g = &r.gpu;
        rows.push(vec![
            human_bytes(part_bytes),
            parts.to_string(),
            ms(g.kernel_update_ns),
            ms(g.kernel_reshuffle_ns),
            ms(g.kernel_other_ns),
            ms(g.kernel_update_ns + g.kernel_reshuffle_ns + g.kernel_other_ns),
        ]);
        json_rows.push(json!({
            "partition_bytes": part_bytes,
            "partitions": parts,
            "updating_ms": g.kernel_update_ns as f64 / 1e6,
            "reshuffling_ms": g.kernel_reshuffle_ns as f64 / 1e6,
            "other_ms": g.kernel_other_ns as f64 / 1e6,
        }));
    }
    print_table(
        &[
            "partition",
            "P",
            "updating",
            "reshuffling",
            "others",
            "total",
        ],
        &rows,
    );
    println!("\npaper: updating time grows with partition size (poorer locality);");
    println!("       reshuffling time shrinks (fewer partitions to search); overall");
    println!("       the partition size is not very sensitive.");
    json!(json_rows)
}

/// Figure 18: throughput vs walk density under a severe memory constraint,
/// measured against the theoretical estimate `B/S_w / (1 + 1/D)`.
pub fn fig18(shift: u32, seed: u64) -> Value {
    println!("Figure 18: scalability regarding walk density (restricted memory)\n");
    let shift = shift + 4;
    let cost = CostModel::pcie3();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    // One small and one large dataset, as in the paper (YH excluded there
    // because its hub vertex alone overflows a 1 GB partition budget —
    // noted below).
    for spec in [&datasets::LJ, &datasets::CW] {
        let tb = Testbed::new(spec, shift, seed);
        // "1 GB graph + 1 GB walks" analogue: pools fixed at a small
        // fraction of the graph regardless of dataset.
        let pool = (tb.num_partitions as usize / 16).max(2);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));
        let s_w = alg.walker_state_bytes() as f64;
        for walks_per_vertex in [1u64, 4, 16] {
            let walks = walks_per_vertex * tb.graph.num_vertices();
            let cfg = EngineConfig {
                seed,
                batch_capacity: tb.batch_capacity(),
                gpu: tb.gpu_config(CostModel::pcie3()),
                ..EngineConfig::light_traffic(tb.partition_bytes, pool)
            };
            let r = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
                .expect("fits")
                .run(walks)
                .expect("run completes");
            let density = walks as f64 * s_w / tb.graph.csr_bytes() as f64;
            let theory = (cost.pcie_bandwidth / s_w) / (1.0 + 1.0 / density);
            rows.push(vec![
                tb.name.to_string(),
                format!("{density:.4}"),
                format!("{:.1}", r.metrics.throughput() / 1e6),
                format!("{:.1}", theory / 1e6),
            ]);
            json_rows.push(json!({
                "dataset": tb.name,
                "walk_density": density,
                "measured_steps_per_sec": r.metrics.throughput(),
                "theory_steps_per_sec": theory,
            }));
        }
    }
    print_table(
        &[
            "dataset",
            "density D",
            "measured M steps/s",
            "theory M steps/s",
        ],
        &rows,
    );
    println!("\npaper: throughput depends on walk density, not graph size — the small and");
    println!("       large datasets trace the same curve. (YH unavailable: its hub vertex");
    println!("       alone exceeds a 1 GB partition; the paper splits such vertices as");
    println!("       future work.) Theory assumes no caching, so measured can exceed it");
    println!("       at high density and fall below it when per-copy latency dominates.");
    json!(json_rows)
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig18_throughput_rises_with_density() {
        let v = super::fig18(5, 1);
        let rows = v.as_array().unwrap();
        for chunk in rows.chunks(3) {
            let tp: Vec<f64> = chunk
                .iter()
                .map(|r| r["measured_steps_per_sec"].as_f64().unwrap())
                .collect();
            assert!(
                tp.windows(2).all(|w| w[1] > w[0] * 0.9),
                "throughput should broadly rise with density: {tp:?}"
            );
        }
    }

    #[test]
    fn fig17_reshuffle_shrinks_with_partition_size() {
        let v = super::fig17(5, 1);
        let rows = v.as_array().unwrap();
        let first = rows.first().unwrap()["reshuffling_ms"].as_f64().unwrap();
        let last = rows.last().unwrap()["reshuffling_ms"].as_f64().unwrap();
        assert!(last < first, "reshuffle {last} !< {first}");
    }
}
