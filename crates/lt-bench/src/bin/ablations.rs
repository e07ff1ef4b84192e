//! Ablation studies beyond the paper's figures, for the design choices
//! DESIGN.md calls out:
//!
//! 1. **interconnect** — PCIe 3.0 vs PCIe 4.0 vs NVLink 2.0 (§IV-B closes
//!    by naming NVLink as the opportunity; the cost model has a preset).
//! 2. **batch size** — the paper fixes B ≈ 16× the core count; how
//!    sensitive is the engine to it?
//! 3. **walk index size** — S_w = 8 (PageRank) vs 16 (sampling with
//!    walk_id) vs 20 (second-order): walk-traffic share of total time.
//! 4. **frontier reservation** — the `2P+1` floor vs a roomy walk pool:
//!    what eviction traffic does a tight pool cost?
//!
//! Accepts `--scale N` and `--seed N`.
#![forbid(unsafe_code)]

use lt_bench::table::{ms, msteps, print_table};
use lt_bench::Testbed;
use lt_engine::algorithm::{PageRank, SecondOrderWalk, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic};
use lt_gpusim::CostModel;
use lt_graph::gen::datasets;
use serde_json::json;
use std::sync::Arc;

fn run(tb: &Testbed, alg: Arc<dyn WalkAlgorithm>, cfg: EngineConfig) -> lt_engine::RunResult {
    let mut e = LightTraffic::new(tb.graph.clone(), alg, cfg).expect("pools fit");
    e.run(tb.standard_walks()).expect("run completes")
}

fn main() {
    let (shift, seed) = lt_bench::parse_args();
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    let mut out = serde_json::Map::new();

    // --- 1. interconnect ---
    println!("Ablation 1: interconnect generation (uniform sampling, l=80)\n");
    let mut rows = Vec::new();
    let mut j = Vec::new();
    for (name, cost) in [
        ("PCIe 3.0", CostModel::pcie3()),
        ("PCIe 4.0", CostModel::pcie4()),
        ("NVLink 2.0", CostModel::nvlink()),
    ] {
        let cfg = EngineConfig {
            seed,
            gpu: tb.gpu_config(cost),
            ..tb.engine_config()
        };
        let r = run(&tb, Arc::new(UniformSampling::new(80)), cfg);
        rows.push(vec![
            name.to_string(),
            msteps(r.metrics.throughput()),
            ms(r.metrics.makespan_ns),
        ]);
        j.push(json!({"interconnect": name, "steps_per_sec": r.metrics.throughput()}));
    }
    print_table(&["interconnect", "M steps/s", "total (ms)"], &rows);
    out.insert("interconnect".into(), json!(j));

    // --- 2. batch size ---
    println!("\nAblation 2: batch capacity (paper default: 16× GPU cores)\n");
    let mut rows = Vec::new();
    let mut j = Vec::new();
    let base_batch = tb.batch_capacity();
    for mult in [1usize, 2, 4, 8] {
        let batch = (base_batch * mult / 2).max(16);
        let blocks =
            (tb.standard_walks() as usize).div_ceil(batch) + 2 * tb.num_partitions as usize + 1;
        let cfg = EngineConfig {
            seed,
            batch_capacity: batch,
            walk_pool_blocks: Some(blocks),
            ..tb.engine_config()
        };
        let r = run(&tb, Arc::new(UniformSampling::new(40)), cfg);
        rows.push(vec![
            batch.to_string(),
            msteps(r.metrics.throughput()),
            r.metrics.preemptive_batches.to_string(),
            r.gpu.compute.count.to_string(),
        ]);
        j.push(json!({
            "batch_capacity": batch,
            "steps_per_sec": r.metrics.throughput(),
            "kernels": r.gpu.compute.count,
        }));
    }
    print_table(
        &["batch walkers", "M steps/s", "preempted", "kernels"],
        &rows,
    );
    out.insert("batch_size".into(), json!(j));

    // --- 3. walk index size ---
    println!("\nAblation 3: walk index size S_w (walk-traffic share)\n");
    let mut rows = Vec::new();
    let mut j = Vec::new();
    let algs: Vec<(Arc<dyn WalkAlgorithm>, &str)> = vec![
        (Arc::new(PageRank::new(40, 0.15)), "8 B (vertex+steps)"),
        (Arc::new(UniformSampling::new(40)), "16 B (+walk id)"),
        (
            Arc::new(SecondOrderWalk::new(40, 0.5)),
            "20 B (+prev vertex)",
        ),
    ];
    for (alg, label) in algs {
        let s_w = alg.walker_state_bytes();
        let cfg = EngineConfig {
            seed,
            ..tb.engine_config()
        };
        let r = run(&tb, alg, cfg);
        let walk_bytes = r.gpu.walk_load.bytes + r.gpu.walk_evict.bytes;
        let share = walk_bytes as f64 / (r.gpu.h2d_bytes() + r.gpu.d2h_bytes()) as f64;
        rows.push(vec![
            label.to_string(),
            msteps(r.metrics.throughput()),
            format!("{:.1}%", 100.0 * share),
        ]);
        j.push(json!({
            "walker_bytes": s_w,
            "steps_per_sec": r.metrics.throughput(),
            "walk_traffic_share": share,
        }));
    }
    print_table(&["walk index", "M steps/s", "walk-traffic share"], &rows);
    out.insert("walk_index_size".into(), json!(j));

    // --- 4. walk pool sizing ---
    println!("\nAblation 4: walk pool size (2P+1 floor vs roomy)\n");
    let mut rows = Vec::new();
    let mut j = Vec::new();
    let p = tb.num_partitions as usize;
    let batch = tb.batch_capacity();
    let full_blocks = (tb.standard_walks() as usize).div_ceil(batch) + 2 * p + 1;
    for (label, blocks) in [
        ("2P+1 (floor)", 2 * p + 1),
        ("2P+1 + W/4", 2 * p + 1 + (full_blocks - 2 * p - 1) / 4),
        ("all walks fit", full_blocks),
    ] {
        let cfg = EngineConfig {
            seed,
            walk_pool_blocks: Some(blocks),
            ..tb.engine_config()
        };
        let r = run(&tb, Arc::new(UniformSampling::new(40)), cfg);
        rows.push(vec![
            label.to_string(),
            blocks.to_string(),
            msteps(r.metrics.throughput()),
            r.metrics.walk_batches_evicted.to_string(),
        ]);
        j.push(json!({
            "walk_pool_blocks": blocks,
            "steps_per_sec": r.metrics.throughput(),
            "evictions": r.metrics.walk_batches_evicted,
        }));
    }
    print_table(&["walk pool", "blocks", "M steps/s", "evictions"], &rows);
    out.insert("walk_pool".into(), json!(j));

    lt_bench::save_json("ablations", &serde_json::Value::Object(out));
}
