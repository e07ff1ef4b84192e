//! §IV-B overall performance: Figure 9 (vs CPU systems), Figure 10 (vs
//! Subway), Figure 11 (vs an in-GPU-memory system).

use crate::table::{msteps, print_table};
use crate::Testbed;
use lt_baselines::cpu::{self, CpuThroughputModel};
use lt_baselines::ingpu::run_in_gpu_memory;
use lt_baselines::subway::{run_subway, SubwayConfig};
use lt_engine::algorithm::{PageRank, Ppr, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic};
use lt_gpusim::CostModel;
use lt_graph::gen::datasets;
use serde_json::{json, Value};
use std::sync::Arc;

/// The three algorithms of §IV-A with the paper's parameters (`l = 80`,
/// `p = 0.15`, PPR from the highest-degree vertex).
pub fn paper_algorithms(graph: &lt_graph::Csr) -> Vec<(&'static str, Arc<dyn WalkAlgorithm>)> {
    vec![
        ("uniform", Arc::new(UniformSampling::new(80))),
        ("pagerank", Arc::new(PageRank::new(80, 0.15))),
        ("ppr", Arc::new(Ppr::from_highest_degree(graph, 0.15))),
    ]
}

fn lt_throughput(tb: &Testbed, alg: &Arc<dyn WalkAlgorithm>, cost: CostModel, seed: u64) -> f64 {
    let cfg = EngineConfig {
        seed,
        gpu: tb.gpu_config(cost),
        ..tb.engine_config()
    };
    let r = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
        .expect("scaled pools fit")
        .run(tb.standard_walks())
        .expect("run completes");
    r.metrics.throughput()
}

/// Figure 9: LightTraffic (PCIe 3.0 / PCIe 4.0, simulated) vs the CPU
/// engines, three algorithms × all seven datasets.
///
/// The CPU columns report the *calibrated models* of FlashMob/ThunderRW on
/// the paper's 40-core testbed (this container's CPU is not comparable);
/// the real host engines are also run and reported in the JSON for
/// completeness. FlashMob supports only fixed-length walks, so its PPR
/// column is n/a, as in the paper.
pub fn fig09(shift: u32, seed: u64) -> Value {
    println!("Figure 9: comparison with CPU-based random walk systems\n");
    let shift = shift + 4;
    let model = CpuThroughputModel::default();
    let mut json_rows = Vec::new();
    for (alg_name_idx, alg_label) in ["uniform", "pagerank", "ppr"].iter().enumerate() {
        println!("algorithm: {alg_label} (throughput, M steps/s)");
        let mut rows = Vec::new();
        for spec in datasets::ALL {
            let tb = Testbed::new(spec, shift, seed);
            let alg = paper_algorithms(&tb.graph).remove(alg_name_idx).1;
            let walks = tb.standard_walks();
            let lt3 = lt_throughput(&tb, &alg, CostModel::pcie3(), seed);
            let lt4 = lt_throughput(&tb, &alg, CostModel::pcie4(), seed);
            // Real host engines (measured on this machine).
            let thunder = cpu::run_walk_centric(&tb.graph, &alg, walks, seed, 2);
            let flash_ok = *alg_label != "ppr"; // FlashMob: fixed length only
            let flash = flash_ok.then(|| cpu::run_shuffle_sorted(&tb.graph, &alg, walks, seed));
            // Modeled testbed throughput for the published systems, at the
            // *paper* dataset's size (that is what degrades their caches).
            let thunder_model = model.walk_centric_rate(spec.paper_csr_bytes);
            let flash_model = flash_ok.then_some(model.shuffle_sorted_rate(spec.paper_csr_bytes));
            rows.push(vec![
                tb.name.to_string(),
                msteps(lt3),
                msteps(lt4),
                msteps(thunder_model),
                flash_model.map_or("n/a".into(), msteps),
                format!("{:.2}", lt4 / thunder_model),
                flash_model.map_or("n/a".into(), |f| format!("{:.2}", lt4 / f)),
            ]);
            json_rows.push(json!({
                "algorithm": alg_label,
                "dataset": tb.name,
                "walks": walks,
                "lt_pcie3_steps_per_sec": lt3,
                "lt_pcie4_steps_per_sec": lt4,
                "thunder_model_steps_per_sec": thunder_model,
                "flashmob_model_steps_per_sec": flash_model,
                "thunder_real_steps_per_sec": thunder.throughput(),
                "flashmob_real_steps_per_sec": flash.map(|f| f.throughput()),
                "speedup_vs_thunder_model": lt4 / thunder_model,
                "speedup_vs_flashmob_model": flash_model.map(|f| lt4 / f),
            }));
        }
        print_table(
            &[
                "dataset",
                "LT pcie3",
                "LT pcie4",
                "ThunderRW*",
                "FlashMob*",
                "×Thunder",
                "×FlashMob",
            ],
            &rows,
        );
        println!("(* modeled on the paper's 2×Xeon 5218R; real host-engine numbers in JSON)\n");
    }
    println!("paper: LT(PCIe4) speedup 1.4–12.8× over ThunderRW, 1.7–5.0× over FlashMob;");
    println!("       PPR gains smaller (variable length ⇒ fewer walks per partition).");
    json!(json_rows)
}

/// Figure 10: LightTraffic vs the Subway-like out-of-memory GPU baseline —
/// total / computing / transmission speedups for PageRank and PPR on FS
/// and UK.
pub fn fig10(shift: u32, seed: u64) -> Value {
    println!("Figure 10: comparison with the Subway-like out-of-memory GPU system\n");
    let shift = shift + 4;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [&datasets::FS, &datasets::UK] {
        let tb = Testbed::new(spec, shift, seed);
        for (label, alg) in [
            (
                "pagerank",
                Arc::new(PageRank::new(80, 0.15)) as Arc<dyn WalkAlgorithm>,
            ),
            (
                "ppr",
                Arc::new(Ppr::from_highest_degree(&tb.graph, 0.15)) as Arc<dyn WalkAlgorithm>,
            ),
        ] {
            let walks = tb.standard_walks();
            let sub = run_subway(
                &tb.graph,
                &alg,
                walks,
                &SubwayConfig {
                    seed,
                    gpu: tb.gpu_config(CostModel::pcie3()),
                    ..SubwayConfig::default()
                },
            );
            let cfg = EngineConfig {
                seed,
                ..tb.engine_config()
            };
            let lt = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
                .expect("pools fit")
                .run(walks)
                .expect("run completes");
            let sub_gpu = sub.gpu.as_ref().expect("subway is simulated");
            let total_speedup = sub.metrics.makespan_ns as f64 / lt.metrics.makespan_ns as f64;
            let comp_speedup = sub_gpu.computing_ns() as f64 / lt.gpu.computing_ns().max(1) as f64;
            let trans_speedup = (sub_gpu.transmission_ns() + sub_gpu.host_work.busy_ns) as f64
                / lt.gpu.transmission_ns().max(1) as f64;
            let lt_telemetry = crate::run_telemetry_json(&lt);
            rows.push(vec![
                tb.name.to_string(),
                label.to_string(),
                format!("{total_speedup:.1}×"),
                format!("{comp_speedup:.1}×"),
                format!("{trans_speedup:.1}×"),
            ]);
            json_rows.push(json!({
                "dataset": tb.name,
                "algorithm": label,
                "total_speedup": total_speedup,
                "computing_speedup": comp_speedup,
                "transmission_speedup": trans_speedup,
                "subway_makespan_ns": sub.metrics.makespan_ns,
                "lt_makespan_ns": lt.metrics.makespan_ns,
                "lt_telemetry": lt_telemetry,
            }));
        }
    }
    print_table(
        &["dataset", "algorithm", "total", "computing", "transmission"],
        &rows,
    );
    println!("\npaper: PageRank 39.1×/26.9× total on FS/UK; PPR 22.3×/54.7×;");
    println!("       computing speedups 1.04–33.4×, transmission 12.2–71.7×.");
    json!(json_rows)
}

/// Figure 11: LightTraffic vs a NextDoor-like in-GPU-memory engine on
/// graphs that fit in device memory (LJ, OR).
pub fn fig11(shift: u32, seed: u64) -> Value {
    println!("Figure 11: comparison with an in-GPU-memory system (graphs that fit)\n");
    let shift = shift + 4;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [&datasets::LJ, &datasets::OR] {
        let tb = Testbed::new(spec, shift, seed);
        for (label, alg) in paper_algorithms(&tb.graph) {
            let walks = tb.standard_walks();
            let ig = run_in_gpu_memory(
                &tb.graph,
                &alg,
                walks,
                tb.gpu_config(CostModel::pcie3()),
                seed,
            )
            .expect("small graphs fit");
            let cfg = EngineConfig {
                seed,
                ..tb.engine_config()
            };
            let lt = LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
                .expect("pools fit")
                .run(walks)
                .expect("run completes");
            let speedup = ig.metrics.makespan_ns as f64 / lt.metrics.makespan_ns as f64;
            let lt_telemetry = crate::run_telemetry_json(&lt);
            rows.push(vec![
                tb.name.to_string(),
                label.to_string(),
                msteps(lt.metrics.throughput()),
                msteps(ig.throughput()),
                format!("{speedup:.2}×"),
            ]);
            json_rows.push(json!({
                "dataset": tb.name,
                "algorithm": label,
                "lt_steps_per_sec": lt.metrics.throughput(),
                "ingpu_steps_per_sec": ig.throughput(),
                "lt_speedup": speedup,
                "lt_telemetry": lt_telemetry,
            }));
        }
    }
    print_table(
        &[
            "dataset",
            "algorithm",
            "LT M steps/s",
            "in-GPU M steps/s",
            "LT speedup",
        ],
        &rows,
    );
    println!("\npaper: LightTraffic slightly outperforms NextDoor (pipelining +");
    println!("       two-level caching offset the out-of-memory machinery).");
    json!(json_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig10_lighttraffic_beats_subway() {
        let v = fig10(5, 1);
        for row in v.as_array().unwrap() {
            let s = row["total_speedup"].as_f64().unwrap();
            assert!(s > 1.0, "LightTraffic must beat Subway: {row}");
        }
    }

    #[test]
    fn fig11_lighttraffic_competitive_with_ingpu() {
        let v = fig11(2, 1);
        for row in v.as_array().unwrap() {
            let s = row["lt_speedup"].as_f64().unwrap();
            assert!(s > 0.8, "LT should be at least competitive: {row}");
        }
    }
}
