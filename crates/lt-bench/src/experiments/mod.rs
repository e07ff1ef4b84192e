//! One function per table/figure of the paper's evaluation, plus the two
//! analyses beyond it. Every function prints the rows the paper reports
//! and returns the same rows as JSON; it writes no file. `run_all` saves
//! each experiment's rows as `results/<name>.json`, and
//! `tests/claims.rs` checks each EXPERIMENTS.md verdict against them.
//!
//! | paper artifact | function | `run_all` name |
//! |---|---|---|
//! | Table I   | [`motivation::table1`]  | `table1` |
//! | Table II  | [`table2`]              | `table2` |
//! | Table III | [`techniques::table3`]  | `table3` |
//! | Figure 3  | [`motivation::fig03`]   | `fig03` |
//! | Figure 9  | [`overall::fig09`]      | `fig09` |
//! | Figure 10 | [`overall::fig10`]      | `fig10` |
//! | Figure 11 | [`overall::fig11`]      | `fig11` |
//! | Figure 12 | [`techniques::fig12`]   | `fig12` |
//! | Figure 13 | [`techniques::fig13`]   | `fig13` |
//! | Figure 14 | [`techniques::fig14`]   | `fig14` |
//! | Figure 15 | [`sensitivity::fig15`]  | `fig15` |
//! | Figure 16 | [`techniques::fig16`]   | `fig16` |
//! | Figure 17 | [`sensitivity::fig17`]  | `fig17` |
//! | Figure 18 | [`sensitivity::fig18`]  | `fig18` |
//! | §III-E straggler tail | [`techniques::stragglers`] | `straggler_analysis` |
//! | ablations beyond the paper | [`sensitivity::ablations`] | `ablations` |

pub mod motivation;
pub mod overall;
pub mod sensitivity;
pub mod techniques;

use crate::table::print_table;
use crate::Testbed;
use lt_engine::algorithm::WalkAlgorithm;
use lt_engine::{EngineConfig, LightTraffic, RunResult};
use lt_graph::gen::datasets;
use lt_graph::stats::{human_bytes, stats};
use serde_json::{json, Value};
use std::sync::Arc;

/// Run `walks` walks of `alg` on the testbed's graph under `cfg`.
fn run_engine(
    tb: &Testbed,
    alg: &Arc<dyn WalkAlgorithm>,
    cfg: EngineConfig,
    walks: u64,
) -> RunResult {
    LightTraffic::new(tb.graph.clone(), alg.clone(), cfg)
        .expect("pools fit")
        .run(walks)
        .expect("run completes")
}

/// Table II: statistics of the graph datasets — paper numbers for the real
/// datasets next to the measured statistics of the generated stand-ins.
pub fn table2(shift: u32, seed: u64) -> Value {
    println!("Table II: dataset statistics (paper datasets vs generated stand-ins)\n");
    let shift = shift + 4;
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for spec in datasets::ALL {
        let g = spec.generate(shift, seed).csr;
        let s = stats(&g);
        rows.push(vec![
            spec.name.to_string(),
            format!("{:.2} M", spec.paper_vertices as f64 / 1e6),
            format!("{:.2} B", spec.paper_edges as f64 / 1e9),
            human_bytes(spec.paper_csr_bytes),
            spec.paper_dmax.to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            human_bytes(s.csr_bytes),
            s.max_degree.to_string(),
            format!("{:.3}", s.top1pct_edge_share),
        ]);
        json_rows.push(json!({
            "dataset": spec.name,
            "paper": {
                "vertices": spec.paper_vertices,
                "edges": spec.paper_edges,
                "csr_bytes": spec.paper_csr_bytes,
                "d_max": spec.paper_dmax,
            },
            "standin": s,
        }));
    }
    print_table(
        &[
            "dataset",
            "paper |V|",
            "paper |E|",
            "paper CSR",
            "paper dmax",
            "gen |V|",
            "gen |E|",
            "gen CSR",
            "gen dmax",
            "gen skew",
        ],
        &rows,
    );
    println!(
        "\n(skew = edge share of the top 1% vertices; power-law stand-ins ≫ FS's flat profile)"
    );
    json!(json_rows)
}
