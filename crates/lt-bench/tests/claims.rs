//! The paper's evaluation claims (§IV), one test per EXPERIMENTS.md
//! verdict. Each test runs its experiment at `--scale 0` for seeds 42 and
//! 7 and asserts the shape EXPERIMENTS.md states: who wins, by roughly
//! what factor, and which way each knob moves. A ⚠️ verdict is pinned as
//! a known deviation with its recorded cause, so a fix shows up as
//! clearly as a regression does.
//!
//! The experiments return rows and write no file, so these tests leave
//! `results/` alone. At scale 0 they take minutes in a debug build and
//! about 15 s in release on 2 CPUs, so only the release build runs them
//! (`cargo test --release -p lt-bench`).

use lt_bench::experiments::{self as exp, motivation, overall, sensitivity, techniques};
use serde_json::Value;
use std::sync::OnceLock;

const SEEDS: [u64; 2] = [42, 7];

type Runs = Vec<(u64, Value)>;

/// The experiment's rows at `--scale 0`, one entry per seed.
fn runs(experiment: fn(u32, u64) -> Value) -> Runs {
    SEEDS
        .iter()
        .map(|&seed| (seed, experiment(0, seed)))
        .collect()
}

/// [`runs`], once per test binary, for an experiment whose ✅ and ⚠️
/// verdicts are separate tests.
fn shared(cell: &'static OnceLock<Runs>, experiment: fn(u32, u64) -> Value) -> &'static Runs {
    cell.get_or_init(|| runs(experiment))
}

static FIG09: OnceLock<Runs> = OnceLock::new();
static TABLE3: OnceLock<Runs> = OnceLock::new();

fn rows(v: &Value) -> &[Value] {
    v.as_array().expect("experiment rows")
}

fn num(row: &Value, key: &str) -> f64 {
    row[key]
        .as_f64()
        .unwrap_or_else(|| panic!("no numeric `{key}` in {row}"))
}

fn text<'a>(row: &'a Value, key: &str) -> &'a str {
    row[key]
        .as_str()
        .unwrap_or_else(|| panic!("no string `{key}` in {row}"))
}

/// The row whose `key` is `value`.
fn find<'a>(rows: &'a [Value], key: &str, value: &str) -> &'a Value {
    rows.iter()
        .find(|r| r[key] == value)
        .unwrap_or_else(|| panic!("no row with {key} = {value}"))
}

/// How far the largest value exceeds the smallest, as a fraction of it.
fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(0.0, f64::max);
    hi / lo - 1.0
}

/// Consecutive runs of rows sharing `key`, in row order.
fn groups<'a>(rows: &'a [Value], key: &str) -> Vec<&'a [Value]> {
    rows.chunk_by(|a, b| a[key] == b[key]).collect()
}

macro_rules! claim {
    ($cond:expr, $seed:expr, $($msg:tt)+) => {
        assert!($cond, "claim failed at seed {}: {}", $seed, format!($($msg)+))
    };
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn table2_standins_keep_the_degree_profiles() {
    for (seed, v) in runs(exp::table2) {
        for row in rows(&v) {
            let name = text(row, "dataset");
            let share = num(&row["standin"], "top1pct_edge_share");
            if name == "FS" {
                claim!(
                    share < 0.02,
                    seed,
                    "FS's flat stand-in has a top-1 % edge share below 0.02, got {share}"
                );
            } else {
                claim!(
                    (0.07..=0.25).contains(&share),
                    seed,
                    "skewed stand-in {name} has a top-1 % edge share in 0.07–0.25, got {share}"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig03_the_whole_graph_ships_but_few_edges_are_used() {
    for (seed, v) in runs(motivation::fig03) {
        for name in ["FS", "UK"] {
            let series = rows(&v[name]);
            let mut active: Vec<f64> = series
                .iter()
                .filter(|r| num(r, "iteration") >= 2.0)
                .map(|r| num(r, "active_edge_pct"))
                .collect();
            active.sort_by(f64::total_cmp);
            let median = active[active.len() / 2];
            claim!(
                median >= 80.0,
                seed,
                "{name}: from iteration 2 on, the median active-edge share is ≥ 80 %, got {median}"
            );
            for r in series {
                let used = num(r, "used_edge_pct_of_loaded");
                claim!(
                    used <= 5.0,
                    seed,
                    "{name}: at most 5 % of loaded edges are used in every iteration, got {used} in {r}"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn table1_subgraph_creation_then_transmission_dominate() {
    for (seed, v) in runs(motivation::table1) {
        let rows = rows(&v);
        for row in rows {
            let (comp, trans, sub) = (
                num(row, "computation_pct"),
                num(row, "transmission_pct"),
                num(row, "subgraph_creation_pct"),
            );
            claim!(
                sub > trans && trans > comp,
                seed,
                "subgraph creation > transmission > computation: {row}"
            );
        }
        let comp = |name| num(find(rows, "dataset", name), "computation_pct");
        claim!(
            comp("FS") < comp("UK"),
            seed,
            "FS computes relatively cheaper than UK: FS {} vs UK {}",
            comp("FS"),
            comp("UK")
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig09_lighttraffic_beats_the_cpu_systems() {
    for (seed, v) in shared(&FIG09, overall::fig09) {
        let rows = rows(v);
        let cell = |alg: &str, dataset: &str| {
            rows.iter()
                .find(|r| r["algorithm"] == alg && r["dataset"] == dataset)
                .unwrap_or_else(|| panic!("no fig09 cell {alg}/{dataset}"))
        };
        for row in rows {
            let (alg, dataset) = (text(row, "algorithm"), text(row, "dataset"));
            let speedup = num(row, "speedup_vs_thunder_model");
            if alg != "ppr" {
                claim!(
                    speedup > 1.0,
                    seed,
                    "PCIe 4.0 LightTraffic beats the ThunderRW model on {alg}/{dataset}, got {speedup:.2}×"
                );
            }
            if ["UK", "YH", "CW"].contains(&dataset) {
                let gain = num(row, "lt_pcie4_steps_per_sec") / num(row, "lt_pcie3_steps_per_sec");
                claim!(
                    gain >= 1.8,
                    seed,
                    "PCIe 4.0 gives ≥ 1.8× PCIe 3.0 on the large stand-in {dataset} ({alg}), got {gain:.2}×"
                );
            }
            if alg == "ppr" {
                let uniform = num(cell("uniform", dataset), "speedup_vs_thunder_model");
                claim!(
                    speedup < uniform,
                    seed,
                    "PPR's speedup is below uniform's on {dataset}: {speedup:.2}× vs {uniform:.2}×"
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig09_ppr_below_the_thunderrw_model_on_uk_and_yh_is_pinned() {
    for (seed, v) in shared(&FIG09, overall::fig09) {
        for row in rows(v) {
            let dataset = text(row, "dataset");
            if row["algorithm"] != "ppr" || !["UK", "YH"].contains(&dataset) {
                continue;
            }
            let speedup = num(row, "speedup_vs_thunder_model");
            claim!(
                speedup < 1.0,
                seed,
                "known deviation (EXPERIMENTS.md fig09 ⚠️): PPR on {dataset} stays below 1× the \
                 ThunderRW model (measured 0.53–0.83×) because the stand-ins' small diameter \
                 disperses single-source walks across every partition within a couple of steps; \
                 got {speedup:.2}×. If that is a fix, update EXPERIMENTS.md and this pin"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig10_order_of_magnitude_over_subway() {
    for (seed, v) in runs(overall::fig10) {
        for row in rows(&v) {
            let (total, trans) = (num(row, "total_speedup"), num(row, "transmission_speedup"));
            claim!(
                total >= 5.0 && trans >= 5.0,
                seed,
                "total and transmission speedups over Subway are both ≥ 5×: {row}"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig11_slightly_ahead_of_the_in_gpu_engine() {
    for (seed, v) in runs(overall::fig11) {
        for row in rows(&v) {
            let speedup = num(row, "lt_speedup");
            claim!(
                (1.0..=1.5).contains(&speedup),
                seed,
                "LightTraffic / in-GPU is between 1.0 and 1.5: {row}"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig12_two_level_caching_cuts_reshuffle_time() {
    for (seed, v) in runs(techniques::fig12) {
        let rows = rows(&v);
        for row in rows {
            claim!(
                num(row, "saving_pct") > 0.0,
                seed,
                "two-level caching saves reshuffle time at every partition size: {row}"
            );
        }
        let (first, last) = (&rows[0], &rows[rows.len() - 1]);
        claim!(
            num(first, "saving_pct") > num(last, "saving_pct"),
            seed,
            "the saving is larger at the smallest partitions: {first} vs {last}"
        );
        for w in rows.windows(2) {
            claim!(
                num(&w[1], "two_level_reshuffle_ms") < num(&w[0], "two_level_reshuffle_ms"),
                seed,
                "two-level reshuffle time falls with partition size: {} then {}",
                w[0],
                w[1]
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig13_ps_and_ss_each_help_and_compose() {
    for (seed, v) in runs(techniques::fig13) {
        let sweep = groups(rows(&v), "cached_partitions");
        let time = |cells: &[Value], variant| num(find(cells, "variant", variant), "makespan_ms");
        for cells in &sweep {
            let (base, ps, ss, both) = (
                time(cells, "baseline"),
                time(cells, "PS"),
                time(cells, "SS"),
                time(cells, "PS+SS"),
            );
            claim!(
                both < ps.min(ss) && ps.min(ss) <= base,
                seed,
                "PS+SS < min(PS, SS) ≤ baseline at {} cached partitions: \
                 baseline {base}, PS {ps}, SS {ss}, PS+SS {both}",
                cells[0]["cached_partitions"]
            );
        }
        let bases: Vec<f64> = sweep.iter().map(|c| time(c, "baseline")).collect();
        claim!(
            spread(&bases) < 0.02,
            seed,
            "the basic pipeline barely benefits from a bigger cache (< 2 %): {bases:?}"
        );
        let (first, last) = (
            time(sweep[0], "PS+SS"),
            time(sweep[sweep.len() - 1], "PS+SS"),
        );
        claim!(
            first / last > 3.0,
            seed,
            "PS+SS falls by more than 3× across the cache sweep: {first} → {last}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn table3_scheduling_cuts_iterations_and_copies() {
    for (seed, v) in shared(&TABLE3, techniques::table3) {
        let rows = rows(v);
        let get = |variant, key| num(find(rows, "variant", variant), key);
        claim!(
            get("PS", "iterations") < get("baseline", "iterations"),
            seed,
            "PS cuts iterations: {rows:?}"
        );
        claim!(
            get("SS", "explicit_copies") < get("baseline", "explicit_copies")
                && get("SS", "graph_pool_hit_rate") > get("baseline", "graph_pool_hit_rate"),
            seed,
            "SS cuts copies and lifts the hit rate: {rows:?}"
        );
        for key in ["iterations", "explicit_copies"] {
            let fewest = rows
                .iter()
                .map(|r| num(r, key))
                .fold(f64::INFINITY, f64::min);
            claim!(
                get("PS+SS", key) == fewest
                    && rows.iter().filter(|r| num(r, key) == fewest).count() == 1,
                seed,
                "PS+SS alone has the fewest {key}: {rows:?}"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn table3_baseline_hit_rate_far_below_the_paper_is_pinned() {
    for (seed, v) in shared(&TABLE3, techniques::table3) {
        let hit = num(find(rows(v), "variant", "baseline"), "graph_pool_hit_rate");
        claim!(
            hit < 0.05,
            seed,
            "known deviation (EXPERIMENTS.md table3 ⚠️): the baseline's hit rate stays below 5 % \
             (measured 0–0.1 %, paper 21.6 %) because the stand-ins' straggler tail is short, so \
             the late phase where few active partitions fit the cache barely exists; got {hit}. \
             If that is a fix, update EXPERIMENTS.md and this pin"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig14_adaptive_zero_copy_beats_both_pure_schemes() {
    for (seed, v) in runs(techniques::fig14) {
        for cells in groups(rows(&v), "dataset") {
            for row in cells {
                let (adaptive, zero_copy) = (
                    num(row, "adaptive_speedup"),
                    num(row, "all_zero_copy_speedup"),
                );
                claim!(
                    adaptive > 1.0 && adaptive > zero_copy,
                    seed,
                    "adaptive beats all-explicit and all-zero-copy: {row}"
                );
            }
            let gain = |alg| num(find(cells, "algorithm", alg), "adaptive_speedup");
            claim!(
                gain("ppr") > gain("pagerank"),
                seed,
                "PPR gains more from adaptive scheduling than PageRank on {}: {} vs {}",
                cells[0]["dataset"],
                gain("ppr"),
                gain("pagerank")
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig15_more_cached_walks_cut_eviction_and_time() {
    for (seed, v) in runs(sensitivity::fig15) {
        for cells in groups(rows(&v), "cached_partitions") {
            for row in cells {
                let serial = num(row, "graph_loading_ms")
                    + num(row, "walk_loading_ms")
                    + num(row, "walk_computing_ms");
                claim!(
                    num(row, "total_ms") < serial,
                    seed,
                    "the pipeline overlaps loading and computing (total < loading + computing): {row}"
                );
            }
            for w in cells.windows(2) {
                claim!(
                    num(&w[1], "walk_eviction_ms") <= num(&w[0], "walk_eviction_ms")
                        && num(&w[1], "total_ms") <= num(&w[0], "total_ms"),
                    seed,
                    "caching more walks does not raise eviction or total time: {} then {}",
                    w[0],
                    w[1]
                );
            }
            let largest = &cells[cells.len() - 1];
            claim!(
                num(largest, "walk_eviction_ms") == 0.0,
                seed,
                "a pool that holds every walk evicts none: {largest}"
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig16_multi_round_slowdown_grows_as_memory_shrinks() {
    for (seed, v) in runs(techniques::fig16) {
        let rows = rows(&v);
        let slowdown = |rounds: u64| {
            num(
                rows.iter()
                    .find(|r| r["rounds"] == rounds)
                    .unwrap_or_else(|| panic!("no fig16 row for {rounds} rounds")),
                "slowdown",
            )
        };
        let (s8, s4, s2) = (slowdown(8), slowdown(4), slowdown(2));
        claim!(
            s8 > s4 && s4 > s2 && s2 > 1.0,
            seed,
            "multi-round is slower than LightTraffic, more so with more rounds: \
             8 rounds {s8:.2}×, 4 rounds {s4:.2}×, 2 rounds {s2:.2}×"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig17_partition_size_trades_updating_for_reshuffling() {
    for (seed, v) in runs(sensitivity::fig17) {
        let rows = rows(&v);
        for w in rows.windows(2) {
            claim!(
                num(&w[1], "reshuffling_ms") < num(&w[0], "reshuffling_ms")
                    && num(&w[1], "updating_ms") > num(&w[0], "updating_ms"),
                seed,
                "larger partitions reshuffle less and update more slowly: {} then {}",
                w[0],
                w[1]
            );
        }
        let totals: Vec<f64> = rows
            .iter()
            .map(|r| num(r, "updating_ms") + num(r, "reshuffling_ms") + num(r, "other_ms"))
            .collect();
        claim!(
            spread(&totals) < 0.25,
            seed,
            "the partition size is not a very sensitive parameter (total varies < 25 %): {totals:?}"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn fig18_throughput_meets_the_density_bound() {
    for (seed, v) in runs(sensitivity::fig18) {
        for cells in groups(rows(&v), "dataset") {
            for row in cells {
                claim!(
                    num(row, "measured_steps_per_sec") >= num(row, "theory_steps_per_sec"),
                    seed,
                    "measured throughput ≥ the bound (B/S_w)/(1 + 1/D): {row}"
                );
            }
            for w in cells.windows(2) {
                claim!(
                    num(&w[1], "measured_steps_per_sec") > num(&w[0], "measured_steps_per_sec"),
                    seed,
                    "throughput rises with walk density: {} then {}",
                    w[0],
                    w[1]
                );
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "scale-0 experiments; CI's release battery runs them"
)]
fn straggler_analysis_ppr_lives_in_the_thin_tail() {
    for (seed, v) in runs(techniques::stragglers) {
        let rows = rows(&v);
        let share = |alg: &str, key| {
            let row = rows
                .iter()
                .find(|r| text(r, "algorithm").starts_with(alg))
                .unwrap_or_else(|| panic!("no straggler row for {alg}"));
            num(row, key) / num(row, "iterations")
        };
        let (ppr_tail, pr_tail) = (
            share("ppr", "iters_below_1pct_peak"),
            share("pagerank", "iters_below_1pct_peak"),
        );
        claim!(
            ppr_tail > 0.5 && ppr_tail > 3.0 * pr_tail,
            seed,
            "PPR spends most iterations below 1 % of peak, over 3× PageRank's share: \
             {ppr_tail:.2} vs {pr_tail:.2}"
        );
        let (ppr_zc, pr_zc) = (
            share("ppr", "zero_copy_iterations"),
            share("pagerank", "zero_copy_iterations"),
        );
        claim!(
            ppr_zc > pr_zc,
            seed,
            "zero copy serves a larger share of PPR's iterations: {ppr_zc:.2} vs {pr_zc:.2}"
        );
    }
}
