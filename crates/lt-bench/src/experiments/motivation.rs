//! §II-B motivation experiments: Figure 3 (active subgraph inefficiency)
//! and Table I (Subway time breakdown).

use crate::table::{ms, print_table};
use crate::Testbed;
use lt_baselines::subway::{run_subway_traced, IterationRecord, SubwayConfig};
use lt_baselines::BaselineRun;
use lt_engine::algorithm::{UniformSampling, WalkAlgorithm};
use lt_graph::gen::datasets;
use serde_json::{json, Value};
use std::sync::Arc;

fn subway_run(tb: &Testbed, seed: u64) -> (BaselineRun, Vec<IterationRecord>) {
    // The paper's Figure 3 setting: 2|V| walks, length 80, active-subgraph
    // optimization enabled (that is what the baseline does).
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(80));
    run_subway_traced(
        &tb.graph,
        &alg,
        tb.standard_walks(),
        &SubwayConfig {
            seed,
            gpu: tb.gpu_config(lt_gpusim::CostModel::pcie3()),
            ..SubwayConfig::default()
        },
    )
}

/// Figure 3: percentage of active vertices/edges per iteration (and the
/// tiny fraction actually used), on the FS and UK stand-ins.
pub fn fig03(shift: u32, seed: u64) -> Value {
    println!("Figure 3: percentage of active vertices/edges per iteration (Subway-like)\n");
    let shift = shift + 4;
    let mut out = serde_json::Map::new();
    for spec in [&datasets::FS, &datasets::UK] {
        let tb = Testbed::new(spec, shift, seed);
        let (_, per_iteration) = subway_run(&tb, seed);
        println!(
            "dataset {} ({} walks, length 80):",
            tb.name,
            tb.standard_walks()
        );
        let mut rows = Vec::new();
        let mut series = Vec::new();
        // Sample up to 12 evenly spaced iterations for the printed table;
        // JSON carries every iteration.
        let n = per_iteration.len();
        let stride = (n / 12).max(1);
        for rec in per_iteration.iter() {
            series.push(json!({
                "iteration": rec.iteration,
                "active_vertex_pct": 100.0 * rec.active_vertex_frac,
                "active_edge_pct": 100.0 * rec.active_edge_frac,
                "used_edge_pct_of_loaded": if rec.active_edges > 0 {
                    100.0 * rec.used_edges as f64 / rec.active_edges as f64
                } else { 0.0 },
            }));
            if (rec.iteration as usize - 1).is_multiple_of(stride) {
                rows.push(vec![
                    rec.iteration.to_string(),
                    format!("{:.1}%", 100.0 * rec.active_vertex_frac),
                    format!("{:.1}%", 100.0 * rec.active_edge_frac),
                    format!(
                        "{:.1}%",
                        100.0 * rec.used_edges as f64 / rec.active_edges.max(1) as f64
                    ),
                ]);
            }
        }
        print_table(
            &["iter", "active vertices", "active edges", "edges used"],
            &rows,
        );
        println!();
        out.insert(tb.name.to_string(), json!(series));
    }
    println!("paper: ~60% vertices / ~80% edges active on UK in most iterations;");
    println!("       only ~3% of loaded edges actually used.");
    Value::Object(out)
}

/// Table I: time breakdown of running random walks on the Subway-like
/// baseline (computation / transmission / subgraph creation).
pub fn table1(shift: u32, seed: u64) -> Value {
    println!("Table I: time breakdown of the Subway-like out-of-memory baseline\n");
    let shift = shift + 4;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in [&datasets::UK, &datasets::FS] {
        let tb = Testbed::new(spec, shift, seed);
        let (r, _) = subway_run(&tb, seed);
        let (comp, trans, subgraph) = r.breakdown();
        rows.push(vec![
            tb.name.to_string(),
            format!("{:.1}%", 100.0 * comp),
            format!("{:.1}%", 100.0 * trans),
            format!("{:.1}%", 100.0 * subgraph),
            ms(r.metrics.makespan_ns),
        ]);
        json_rows.push(json!({
            "dataset": tb.name,
            "computation_pct": 100.0 * comp,
            "transmission_pct": 100.0 * trans,
            "subgraph_creation_pct": 100.0 * subgraph,
            "makespan_ms": r.metrics.makespan_ns as f64 / 1e6,
        }));
    }
    print_table(
        &[
            "dataset",
            "computation",
            "transmission",
            "subgraph creation",
            "total (ms)",
        ],
        &rows,
    );
    println!("\npaper: UK 11.2% / 40.4% / 48.4%; FS 2.0% / 43.7% / 54.3%");
    json!(json_rows)
}
