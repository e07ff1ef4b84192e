//! §IV-C design-technique experiments: Figure 12 (reshuffling), Figure 13
//! plus Table III (pipeline scheduling), Figure 14 (adaptive zero copy),
//! Figure 16 (multi-round baseline), and the straggler tail behind
//! §III-E's adaptive scheduling.

use super::run_engine;
use crate::table::{ms, print_table};
use crate::Testbed;
use lt_baselines::multiround::run_multi_round;
use lt_engine::algorithm::{PageRank, Ppr, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, ReshuffleMode, ZeroCopyPolicy};
use lt_graph::gen::datasets;
use lt_graph::stats::human_bytes;
use serde_json::{json, Value};
use std::sync::Arc;

/// Figure 12: walk reshuffling time, two-level caching vs direct write,
/// across partition sizes.
pub fn fig12(shift: u32, seed: u64) -> Value {
    println!("Figure 12: efficiency of walk reshuffling with two-level caching\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::TW, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
    let base_bytes = tb.partition_bytes;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for mult in [1u64, 2, 4, 8] {
        let part_bytes = base_bytes * mult;
        let mut times = Vec::new();
        for (label, mode) in [
            ("two-level", ReshuffleMode::default()),
            ("direct", ReshuffleMode::DirectWrite),
        ] {
            let cfg = EngineConfig {
                seed,
                reshuffle: mode,
                batch_capacity: tb.batch_capacity(),
                gpu: tb.gpu_config(lt_gpusim::CostModel::pcie3()),
                ..EngineConfig::light_traffic(part_bytes, tb.graph_pool)
            };
            let r = run_engine(&tb, &alg, cfg, tb.standard_walks());
            times.push((label, r.gpu.kernel_reshuffle_ns));
        }
        let saving = 1.0 - times[0].1 as f64 / times[1].1.max(1) as f64;
        rows.push(vec![
            human_bytes(part_bytes),
            ms(times[0].1),
            ms(times[1].1),
            format!("{:.0}%", 100.0 * saving),
        ]);
        json_rows.push(json!({
            "partition_bytes": part_bytes,
            "two_level_reshuffle_ms": times[0].1 as f64 / 1e6,
            "direct_write_reshuffle_ms": times[1].1 as f64 / 1e6,
            "saving_pct": 100.0 * saving,
        }));
    }
    print_table(
        &[
            "partition size",
            "two-level (ms)",
            "direct write (ms)",
            "saving",
        ],
        &rows,
    );
    println!("\npaper: up to 73% reshuffle-time reduction; larger partitions reshuffle less.");
    json!(json_rows)
}

fn scheduling_variants() -> [(&'static str, bool, bool); 4] {
    [
        ("baseline", false, false),
        ("PS", true, false),
        ("SS", false, true),
        ("PS+SS", true, true),
    ]
}

/// Figure 13: total running time of the pipeline variants as the number of
/// cached graph partitions grows.
pub fn fig13(shift: u32, seed: u64) -> Value {
    println!("Figure 13: efficiency of pipeline design (total time, ms)\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
    let p = tb.num_partitions as usize;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for pool in [p / 8, p / 4, p / 2, 3 * p / 4] {
        let pool = pool.max(2);
        let mut cells = vec![format!("{pool}")];
        for (label, ps, ss) in scheduling_variants() {
            let cfg = EngineConfig {
                seed,
                preemptive: ps,
                selective: ss,
                batch_capacity: tb.batch_capacity(),
                gpu: tb.gpu_config(lt_gpusim::CostModel::pcie3()),
                ..EngineConfig::baseline(tb.partition_bytes, pool)
            };
            let r = run_engine(&tb, &alg, cfg, tb.standard_walks());
            cells.push(ms(r.metrics.makespan_ns));
            json_rows.push(json!({
                "cached_partitions": pool,
                "variant": label,
                "makespan_ms": r.metrics.makespan_ns as f64 / 1e6,
            }));
        }
        rows.push(cells);
    }
    print_table(&["cached parts", "baseline", "PS", "SS", "PS+SS"], &rows);
    println!("\npaper: PS and SS each cut running time; PS+SS lowest, improving as");
    println!("       more partitions are cached.");
    json!(json_rows)
}

/// Table III: impact of scheduling on data transmission (iterations,
/// explicit copies, graph-pool hit rate) with a fixed cache size.
pub fn table3(shift: u32, seed: u64) -> Value {
    println!("Table III: impact of scheduling on data transmission\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
    // The paper caches 100 of several hundred partitions; scaled: P/3.
    let pool = (tb.num_partitions as usize / 3).max(2);
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (label, ps, ss) in scheduling_variants() {
        let cfg = EngineConfig {
            seed,
            preemptive: ps,
            selective: ss,
            batch_capacity: tb.batch_capacity(),
            gpu: tb.gpu_config(lt_gpusim::CostModel::pcie3()),
            ..EngineConfig::baseline(tb.partition_bytes, pool)
        };
        let r = run_engine(&tb, &alg, cfg, tb.standard_walks());
        rows.push(vec![
            label.to_string(),
            r.metrics.iterations.to_string(),
            r.metrics.explicit_graph_copies.to_string(),
            format!("{:.1}%", 100.0 * r.metrics.graph_pool_hit_rate()),
        ]);
        json_rows.push(json!({
            "variant": label,
            "iterations": r.metrics.iterations,
            "explicit_copies": r.metrics.explicit_graph_copies,
            "graph_pool_hit_rate": r.metrics.graph_pool_hit_rate(),
        }));
    }
    print_table(
        &["variant", "iterations", "explicit copies", "hit rate"],
        &rows,
    );
    println!("\npaper (100 cached partitions): baseline 10670 iters / 8365 copies / 21.6%;");
    println!("       PS 6673/4222/36.7%; SS 10513/4176/60.3%; PS+SS 6103/2380/61.0%.");
    json!(json_rows)
}

/// Figure 14: adaptive zero-copy scheduling vs all-zero-copy and
/// all-explicit-copy, PageRank and PPR on out-of-memory graphs.
pub fn fig14(shift: u32, seed: u64) -> Value {
    println!("Figure 14: efficiency of adaptive scheduling (speedup over all-explicit)\n");
    let shift = shift + 4;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [&datasets::UK, &datasets::YH, &datasets::CW] {
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
            let mut makespans = Vec::new();
            for policy in [
                ZeroCopyPolicy::Never,
                ZeroCopyPolicy::Always,
                ZeroCopyPolicy::adaptive(),
            ] {
                let cfg = EngineConfig {
                    seed,
                    zero_copy: policy,
                    ..tb.engine_config()
                };
                let r = run_engine(&tb, &alg, cfg, tb.standard_walks());
                makespans.push(r.metrics.makespan_ns);
            }
            let explicit = makespans[0] as f64;
            rows.push(vec![
                tb.name.to_string(),
                label.to_string(),
                "1.00×".to_string(),
                format!("{:.2}×", explicit / makespans[1] as f64),
                format!("{:.2}×", explicit / makespans[2] as f64),
            ]);
            json_rows.push(json!({
                "dataset": tb.name,
                "algorithm": label,
                "all_explicit_ms": makespans[0] as f64 / 1e6,
                "all_zero_copy_speedup": explicit / makespans[1] as f64,
                "adaptive_speedup": explicit / makespans[2] as f64,
            }));
        }
    }
    print_table(
        &[
            "dataset",
            "algorithm",
            "all explicit",
            "all zero copy",
            "adaptive",
        ],
        &rows,
    );
    println!("\npaper: adaptive beats both pure schemes; gains larger for PPR, whose");
    println!("       variable walk lengths produce more stragglers.");
    json!(json_rows)
}

/// Figure 16: slowdown of the multi-round baseline (8/4/2 rounds) relative
/// to LightTraffic under the same walk-memory constraint.
pub fn fig16(shift: u32, seed: u64) -> Value {
    println!("Figure 16: comparison with the multi-round baseline (slowdown vs LT)\n");
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
    // Scaled analogue of the paper's 800M walks: 8× the standard workload,
    // with GPU walk memory for 1/8, 1/4, 1/2 of them.
    let total_walks = 4 * tb.standard_walks();
    let batch = tb.batch_capacity();
    let p = tb.num_partitions as usize;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (rounds, graph_pool_scale) in [(8u64, 4usize), (4, 2), (2, 1)] {
        let cached_walks = total_walks / rounds;
        let walk_blocks = (cached_walks as usize).div_ceil(batch) + 2 * p + 1;
        let pool = (tb.graph_pool / graph_pool_scale).max(2);
        let base_cfg = EngineConfig {
            seed,
            batch_capacity: batch,
            walk_pool_blocks: Some(walk_blocks),
            gpu: tb.gpu_config(lt_gpusim::CostModel::pcie3()),
            ..EngineConfig::light_traffic(tb.partition_bytes, pool)
        };
        // LightTraffic under the same memory cap: same walk pool, evictions
        // allowed, all walks in one pass.
        let lt = run_engine(&tb, &alg, base_cfg.clone(), total_walks);
        let mr = run_multi_round(tb.graph.clone(), alg.clone(), total_walks, rounds, base_cfg)
            .expect("rounds complete");
        let slowdown = mr.metrics.makespan_ns as f64 / lt.metrics.makespan_ns as f64;
        rows.push(vec![
            rounds.to_string(),
            cached_walks.to_string(),
            pool.to_string(),
            ms(mr.metrics.makespan_ns),
            ms(lt.metrics.makespan_ns),
            format!("{slowdown:.2}×"),
        ]);
        json_rows.push(json!({
            "rounds": rounds,
            "cached_walks": cached_walks,
            "cached_partitions": pool,
            "multiround_ms": mr.metrics.makespan_ns as f64 / 1e6,
            "lighttraffic_ms": lt.metrics.makespan_ns as f64 / 1e6,
            "slowdown": slowdown,
        }));
    }
    print_table(
        &[
            "rounds",
            "cached walks",
            "cached parts",
            "multi-round (ms)",
            "LT (ms)",
            "slowdown",
        ],
        &rows,
    );
    println!("\npaper: up to 3.5× slowdown when only 25 partitions fit; the tighter the");
    println!("       memory, the larger LightTraffic's advantage.");
    json!(json_rows)
}

/// Straggler dynamics on the UK stand-in (backing §III-E's motivation).
///
/// GraphWalker and GraSorw report, and the paper builds adaptive
/// scheduling on, the long-tail effect: "even when most walks finish
/// their computation, it still needs many iterations to process the small
/// number of unfinished stragglers." This records every scheduler
/// iteration for PageRank (fixed length) and PPR (geometric length) and
/// reports how many iterations run thin, and how many of them zero copy
/// serves.
pub fn stragglers(shift: u32, seed: u64) -> Value {
    let shift = shift + 4;
    let tb = Testbed::new(&datasets::UK, shift, seed);
    println!(
        "Straggler analysis on the UK stand-in ({} walks)\n",
        tb.standard_walks()
    );
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let algs: Vec<(&str, Arc<dyn WalkAlgorithm>)> = vec![
        ("pagerank (fixed l=80)", Arc::new(PageRank::new(80, 0.15))),
        (
            "ppr (geometric p=0.15)",
            Arc::new(Ppr::from_highest_degree(&tb.graph, 0.15)),
        ),
    ];
    for (label, alg) in algs {
        let cfg = EngineConfig {
            seed,
            record_iterations: true,
            ..tb.engine_config()
        };
        let r = run_engine(&tb, &alg, cfg, tb.standard_walks());
        let iters = r.iterations.expect("recorded");
        let total_iters = iters.len();
        let peak = iters.iter().map(|i| i.walks).max().unwrap_or(0);
        // Tail: iterations whose workload is below a fraction of the peak.
        let tail = |frac: f64| {
            iters
                .iter()
                .filter(|i| (i.walks as f64) < frac * peak as f64)
                .count()
        };
        let zc_iters = iters.iter().filter(|i| i.zero_copy).count();
        let median_walks = {
            let mut ws: Vec<u64> = iters.iter().map(|i| i.walks).collect();
            ws.sort_unstable();
            ws[ws.len() / 2]
        };
        rows.push(vec![
            label.to_string(),
            total_iters.to_string(),
            format!("{:.0}%", 100.0 * tail(0.10) as f64 / total_iters as f64),
            format!("{:.0}%", 100.0 * tail(0.01) as f64 / total_iters as f64),
            format!("{:.0}%", 100.0 * zc_iters as f64 / total_iters as f64),
            median_walks.to_string(),
        ]);
        out.push(json!({
            "algorithm": label,
            "iterations": total_iters,
            "peak_walks": peak,
            "iters_below_10pct_peak": tail(0.10),
            "iters_below_1pct_peak": tail(0.01),
            "zero_copy_iterations": zc_iters,
            "median_walks_per_iteration": median_walks,
        }));
    }
    print_table(
        &[
            "algorithm",
            "iterations",
            "<10% of peak",
            "<1% of peak",
            "zero-copy",
            "median walks",
        ],
        &rows,
    );
    println!("\n(the geometric-length PPR run spends a much larger share of its");
    println!(" iterations in the thin tail — exactly the straggler regime adaptive");
    println!(" zero copy targets, and why Figure 14's PPR gains are larger)");
    json!(out)
}
