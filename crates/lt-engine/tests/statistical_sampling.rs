//! Statistical correctness of the non-uniform samplers — weighted,
//! temporal and node2vec: empirical next-hop frequencies versus the exact
//! transition distribution, on small graphs and on adversarial rows with
//! loose rejection envelopes, judged by a chi-square goodness-of-fit test
//! and a total-variation bound.
//!
//! Everything is driven by the counter-based RNG with fixed seeds, so the
//! draws — and therefore the test verdicts — are deterministic: the suite
//! either always passes or always fails, never flakes in CI. The critical
//! values are still chosen at tiny significance levels (α ≈ 1e-4 per
//! vertex) so the assertions would survive an honest re-randomization.

use lt_engine::algorithm::{
    SecondOrderWalk, StepContext, TemporalWalk, WalkAlgorithm, WeightedWalk,
};
use lt_engine::walker::Walker;
use lt_graph::gen::{erdos_renyi, with_random_weights};
use lt_graph::Csr;
use std::collections::BTreeMap;

/// Upper α-quantile of the chi-square distribution with `k` degrees of
/// freedom via the Wilson–Hilferty cube approximation, with `z` the
/// matching standard-normal quantile (z = 3.72 ⇒ α ≈ 1e-4).
fn chi_square_critical(k: f64, z: f64) -> f64 {
    let a = 2.0 / (9.0 * k);
    k * (1.0 - a + z * a.sqrt()).powi(3)
}

/// Exact transition distribution out of `v`: weights normalized.
fn exact_distribution(g: &Csr, v: u32) -> Vec<f64> {
    let w = g.neighbor_weights(v).expect("weighted graph");
    let sum: f64 = w.iter().map(|&x| x as f64).sum();
    w.iter().map(|&x| x as f64 / sum).collect()
}

/// Pearson's chi-square statistic of observed counts vs expected
/// probabilities over `trials` draws.
fn chi_square(observed: &[u64], expected: &[f64], trials: u64) -> f64 {
    observed
        .iter()
        .zip(expected)
        .map(|(&o, &p)| {
            let e = p * trials as f64;
            (o as f64 - e).powi(2) / e
        })
        .sum()
}

/// Total variation distance between the empirical and exact distributions.
fn total_variation(observed: &[u64], expected: &[f64], trials: u64) -> f64 {
    0.5 * observed
        .iter()
        .zip(expected)
        .map(|(&o, &p)| (o as f64 / trials as f64 - p).abs())
        .sum::<f64>()
}

fn weighted_graph() -> Csr {
    with_random_weights(&erdos_renyi(64, 1024, 3).csr, 11)
}

/// Assert that `counts` over `trials` draws fit the exact law `expected`
/// (the same cells): the chi-square statistic stays below its α ≈ 1e-4
/// critical value, and the TV distance within the Monte-Carlo rate
/// C·sqrt(cells / trials), with a generous constant.
fn assert_fits(label: &str, counts: &[u64], expected: &[f64], trials: u64) {
    let k = counts.len() as f64;
    let stat = chi_square(counts, expected, trials);
    let crit = chi_square_critical(k - 1.0, 3.72);
    assert!(
        stat < crit,
        "{label}: chi-square {stat:.2} >= critical {crit:.2} over {k} cells"
    );
    let tv = total_variation(counts, expected, trials);
    let bound = 2.0 * (k / trials as f64).sqrt();
    assert!(tv < bound, "{label}: TV {tv:.4} >= bound {bound:.4}");
}

/// Draw `trials` next hops for every vertex with the given sampler and
/// check them against the exact per-vertex transition distribution.
fn check_sampler(g: &Csr, trials: u64, label: &str, mut draw: impl FnMut(u32, u64) -> usize) {
    let mut tested = 0;
    for v in 0..g.num_vertices() as u32 {
        let d = g.degree(v) as usize;
        if d < 2 {
            continue;
        }
        let exact = exact_distribution(g, v);
        // Skip vertices whose smallest expected cell is below the usual
        // chi-square validity floor of ~5 observations.
        let min_cell = exact.iter().cloned().fold(f64::MAX, f64::min) * trials as f64;
        if min_cell < 5.0 {
            continue;
        }
        let mut counts = vec![0u64; d];
        for t in 0..trials {
            counts[draw(v, t)] += 1;
        }
        assert_fits(
            &format!("{label}: vertex {v} (degree {d})"),
            &counts,
            &exact,
            trials,
        );
        tested += 1;
    }
    assert!(tested >= 32, "{label}: only {tested} vertices qualified");
}

/// Index in `v`'s row of the first hop [`WeightedWalk`] draws out of `v`
/// for walk `id`.
fn weighted_first_hop(g: &Csr, v: u32, id: u64, seed: u64) -> usize {
    let nbrs = g.neighbors(v);
    let ctx = StepContext {
        neighbors: nbrs,
        weights: g.neighbor_weights(v),
        prev_neighbors: None,
        timestamps: None,
        max_multiplicity: 1,
        num_vertices: g.num_vertices(),
    };
    let to = WeightedWalk::new(1)
        .step(&Walker::new(id, v), ctx, seed)
        .target()
        .expect("fixed-length step 0 cannot terminate");
    nbrs.iter().position(|&x| x == to).unwrap()
}

/// The prefix-sum scan of [`WeightedWalk`] draws every vertex's next hop
/// from the exact weight distribution.
#[test]
fn weighted_walk_fits_exact_distribution() {
    let g = weighted_graph();
    check_sampler(&g, 40_000, "weighted walk", |v, t| {
        weighted_first_hop(&g, v, t, 17)
    });
}

/// The same substrate with deterministic edge timestamps in `0..16`
/// (weights dropped: temporal walks are uniform over admissible edges).
fn temporal_graph() -> Csr {
    let g = erdos_renyi(64, 1024, 3).csr;
    let ts = (0..g.num_edges())
        .map(|i| (i.wrapping_mul(2654435761) % 16) as u32)
        .collect();
    Csr::with_timestamps(g.offsets().to_vec(), g.edges().to_vec(), None, Some(ts))
        .expect("re-stamped CSR stays valid")
}

/// Indices of `v`'s edges admissible at `clock`: timestamps inside the
/// inclusive, saturating window `[clock, clock + window]`.
fn in_window(g: &Csr, v: u32, clock: u32, window: u32) -> Vec<usize> {
    g.neighbor_timestamps(v)
        .expect("temporal graph")
        .iter()
        .enumerate()
        .filter(|&(_, &t)| t >= clock && t <= clock.saturating_add(window))
        .map(|(k, _)| k)
        .collect()
}

/// Chi-square + TV check of [`TemporalWalk`] next-hop draws against the
/// analytic distribution — uniform over the in-window candidate set, zero
/// elsewhere — for a walker whose clock is served either by `start_time`
/// (step 0) or by the `aux` slot (mid-walk). Out-of-window edges must
/// never be drawn at all, not just rarely.
fn check_temporal(g: &Csr, clock: u32, window: u32, mid_walk: bool) {
    let trials = 40_000u64;
    let label = format!("temporal clock={clock} window={window} mid_walk={mid_walk}");
    let alg = if mid_walk {
        TemporalWalk::new(4, window)
    } else {
        TemporalWalk::starting_at(4, window, clock)
    };
    let mut tested = 0;
    for v in 0..g.num_vertices() as u32 {
        let d = g.degree(v) as usize;
        let admissible = in_window(g, v, clock, window);
        if admissible.len() < 2 {
            continue;
        }
        let mut counts = vec![0u64; d];
        for t in 0..trials {
            let mut w = Walker::new(t, v);
            if mid_walk {
                w.step = 1;
                w.aux = clock;
            }
            let ctx = StepContext {
                neighbors: g.neighbors(v),
                weights: None,
                prev_neighbors: None,
                timestamps: g.neighbor_timestamps(v),
                max_multiplicity: 1,
                num_vertices: g.num_vertices(),
            };
            let d = alg.step(&w, ctx, 19);
            // A multigraph row can repeat a destination with different
            // timestamps, so recover the drawn *edge* from the decision's
            // timestamp + target pair.
            let (to, at) = match d {
                lt_engine::algorithm::StepDecision::MoveAt(to, at) => (to, at),
                other => panic!("{label}: admissible vertex {v} produced {other:?}"),
            };
            let k = g
                .neighbors(v)
                .iter()
                .zip(g.neighbor_timestamps(v).unwrap())
                .position(|(&x, &t)| x == to && t == at)
                .expect("decision names a real edge");
            counts[k] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            if !admissible.contains(&k) {
                assert_eq!(c, 0, "{label}: vertex {v} drew out-of-window edge {k}");
            }
        }
        // Chi-square over the admissible cells against the uniform law.
        // Destinations repeated inside the window are separate edges with
        // equal probability each, so the analytic law stays uniform per
        // edge slot (the recovery above may alias equal (dst, ts) pairs
        // to the first slot; merge such duplicates before testing).
        let mut merged: Vec<u64> = Vec::new();
        let mut seen: Vec<(u32, u32)> = Vec::new();
        for &k in &admissible {
            let key = (g.neighbors(v)[k], g.neighbor_timestamps(v).unwrap()[k]);
            if let Some(i) = seen.iter().position(|&s| s == key) {
                merged[i] += counts[k];
            } else {
                seen.push(key);
                merged.push(counts[k]);
            }
        }
        let k = merged.len();
        if k < 2 {
            continue;
        }
        let weights: Vec<f64> = seen
            .iter()
            .map(|key| {
                admissible
                    .iter()
                    .filter(|&&j| (g.neighbors(v)[j], g.neighbor_timestamps(v).unwrap()[j]) == *key)
                    .count() as f64
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let exact: Vec<f64> = weights.iter().map(|w| w / total).collect();
        assert_fits(
            &format!("{label}: vertex {v} ({k} admissible)"),
            &merged,
            &exact,
            trials,
        );
        tested += 1;
    }
    assert!(tested >= 16, "{label}: only {tested} vertices qualified");
}

/// Temporal next-hop draws are uniform over the sliding window at the
/// walk's start clock, across several window placements.
#[test]
fn temporal_walk_fits_window_distribution_at_start() {
    let g = temporal_graph();
    for clock in [0u32, 4, 9] {
        check_temporal(&g, clock, 5, false);
    }
}

/// The same law holds mid-walk, where the clock is carried in the
/// walker's `aux` slot by [`lt_engine::algorithm::StepDecision::MoveAt`].
#[test]
fn temporal_walk_fits_window_distribution_mid_walk() {
    let g = temporal_graph();
    for clock in [0u32, 4, 9] {
        check_temporal(&g, clock, 5, true);
    }
}

/// A clock beyond every edge timestamp leaves no admissible candidates:
/// the walk terminates instead of sampling out-of-window edges.
#[test]
fn temporal_walk_terminates_on_empty_window() {
    let g = temporal_graph();
    let alg = TemporalWalk::starting_at(4, 5, 100);
    for v in 0..g.num_vertices() as u32 {
        let ctx = StepContext {
            neighbors: g.neighbors(v),
            weights: None,
            prev_neighbors: None,
            timestamps: g.neighbor_timestamps(v),
            max_multiplicity: 1,
            num_vertices: g.num_vertices(),
        };
        assert!(
            alg.step(&Walker::new(0, v), ctx, 19).target().is_none(),
            "vertex {v}: empty window must terminate"
        );
    }
}

/// A counter-based hash for the long-row graphs below.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Twenty vertices, each with a row of 300–555 edges in time order: a
/// multigraph (every target repeats) whose stamps sit near both ends of
/// a 10,000-tick horizon and near `u32::MAX`, so windows there are long
/// ranges of long rows, and a window can be clipped by `u32` saturation.
fn long_row_temporal_graph() -> Csr {
    let n = 20u64;
    let (mut offsets, mut edges, mut stamps) = (vec![0u64], Vec::new(), Vec::new());
    for v in 0..n {
        for k in 0..300 + mix(v) % 256 {
            let h = mix(v << 32 | k);
            edges.push((h >> 40) as u32 % n as u32);
            stamps.push(match h % 3 {
                0 => (h >> 8) as u32 % 64,
                1 => 10_000 - 64 + (h >> 8) as u32 % 64,
                _ => u32::MAX - (h >> 8) as u32 % 64,
            });
        }
        offsets.push(edges.len() as u64);
    }
    Csr::with_timestamps(offsets, edges, None, Some(stamps)).expect("a valid temporal CSR")
}

/// The window law on long rows in time order (256 or more entries, where
/// the window is found by search): clocks near the start and the end of
/// the horizon, near `u32::MAX`, and a window whose end `clock + window`
/// saturates at `u32::MAX`; at the walk's start and mid-walk. Draws are
/// counted per `(target, stamp)` cell — copies of one edge are one cell,
/// weighted by their number — and a draw outside the window fails at
/// once.
#[test]
fn temporal_walk_fits_window_distribution_on_long_rows() {
    let g = long_row_temporal_graph();
    assert!((0..20).all(|v| g.degree(v) >= 256));
    let trials = 10_000u64;
    for (clock, window) in [
        (0, 20),
        (30, 20),
        (10_000 - 70, 30),
        (10_000 - 20, 30),
        (u32::MAX - 40, 20),
        (u32::MAX - 50, 1_000),
        (u32::MAX - 50, u32::MAX),
    ] {
        for mid_walk in [false, true] {
            let label = format!("long rows, clock={clock} window={window} mid_walk={mid_walk}");
            let alg = match mid_walk {
                true => TemporalWalk::new(4, window),
                false => TemporalWalk::starting_at(4, window, clock),
            };
            let mut tested = 0;
            for v in 0..g.num_vertices() as u32 {
                let (row, ts) = (g.neighbors(v), g.neighbor_timestamps(v).unwrap());
                let mut law: BTreeMap<(u32, u32), f64> = BTreeMap::new();
                for (&x, &t) in row.iter().zip(ts) {
                    if t >= clock && t <= clock.saturating_add(window) {
                        *law.entry((x, t)).or_default() += 1.0;
                    }
                }
                if law.len() < 2 {
                    continue;
                }
                let mut counts: BTreeMap<(u32, u32), u64> = law.keys().map(|&k| (k, 0)).collect();
                for id in 0..trials {
                    let mut w = Walker::new(id, v);
                    if mid_walk {
                        (w.step, w.aux) = (1, clock);
                    }
                    let ctx = StepContext {
                        neighbors: row,
                        weights: None,
                        prev_neighbors: None,
                        timestamps: Some(ts),
                        max_multiplicity: 1,
                        num_vertices: g.num_vertices(),
                    };
                    let cell = match alg.step(&w, ctx, 37) {
                        lt_engine::algorithm::StepDecision::MoveAt(to, at) => (to, at),
                        other => panic!("{label}: vertex {v} produced {other:?}"),
                    };
                    let c = counts.get_mut(&cell);
                    *c.unwrap_or_else(|| panic!("{label}: vertex {v} drew {cell:?}")) += 1;
                }
                let total: f64 = law.values().sum();
                let exact: Vec<f64> = law.values().map(|m| m / total).collect();
                let observed: Vec<u64> = counts.into_values().collect();
                assert_fits(&format!("{label}: vertex {v}"), &observed, &exact, trials);
                tested += 1;
            }
            assert!(tested >= 16, "{label}: only {tested} vertices qualified");
        }
    }
}

/// A hub whose one heavy edge (weight 1,000 among 999 of weight 1)
/// carries half the mass. Rejection against `w_max` would need ~500
/// proposals a step; a 64-proposal cap that accepts its last proposal
/// takes the heavy edge ~6 % of the time (TV 0.44 here, against a bound
/// of 0.32).
#[test]
fn weighted_walk_is_exact_on_a_skewed_hub() {
    let row: Vec<u32> = (0..1_000).collect();
    let mut weights = vec![1.0f32; 1_000];
    weights[417] = 1_000.0;
    let sum: f64 = weights.iter().map(|&w| w as f64).sum();
    let law: Vec<f64> = weights.iter().map(|&w| w as f64 / sum).collect();
    let (alg, trials) = (WeightedWalk::new(1), 40_000);
    let mut counts = vec![0u64; row.len()];
    for id in 0..trials {
        let ctx = StepContext {
            neighbors: &row,
            weights: Some(&weights),
            prev_neighbors: None,
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: 1_000,
        };
        let to = alg.step(&Walker::new(id, 0), ctx, 29).target();
        counts[to.expect("step 0 moves") as usize] += 1;
    }
    assert_fits("skewed weighted hub", &counts, &law, trials);
}

/// node2vec's exact next-hop law out of the vertex-sorted `row` with
/// `prev` behind the walker: each distinct target's slots weigh 1/p back
/// to `prev`, 1 to a neighbor of `prev` and 1/q elsewhere (1/q for every
/// other slot without context), normalized. Returns the targets and
/// their probabilities.
fn node2vec_law(
    (p, q): (f64, f64),
    row: &[u32],
    prev: u32,
    prev_row: Option<&[u32]>,
) -> (Vec<u32>, Vec<f64>) {
    let mut targets = row.to_vec();
    targets.dedup();
    let weight = |t: u32| match prev_row {
        _ if t == prev => 1.0 / p,
        Some(r) if r.contains(&t) => 1.0,
        _ => 1.0 / q,
    };
    let mass: Vec<f64> = targets
        .iter()
        .map(|&t| row.iter().filter(|&&x| x == t).count() as f64 * weight(t))
        .collect();
    let sum: f64 = mass.iter().sum();
    (targets, mass.iter().map(|m| m / sum).collect())
}

/// Next hops of `trials` walkers mid-walk on `row` with `prev` behind
/// them, counted per target of `targets`.
fn node2vec_counts(
    alg: &SecondOrderWalk,
    (row, prev, prev_row): (&[u32], u32, Option<&[u32]>),
    max_multiplicity: u32,
    targets: &[u32],
    trials: u64,
) -> Vec<u64> {
    let mut counts = vec![0u64; targets.len()];
    for id in 0..trials {
        let w = Walker {
            step: 1,
            aux: prev,
            ..Walker::new(id, 0)
        };
        let ctx = StepContext {
            neighbors: row,
            weights: None,
            prev_neighbors: prev_row,
            timestamps: None,
            max_multiplicity,
            num_vertices: 1 << 20,
        };
        let to = alg
            .step(&w, ctx, 23)
            .target()
            .expect("a mid-walk step moves");
        counts[targets.binary_search(&to).expect("drawn from the row")] += 1;
    }
    counts
}

/// node2vec against its exact law on a p, q grid over {0.25, 1, 4, 100}:
/// with and without second-order context, with the previous vertex in
/// the row and absent from it, on a row with parallel edges (M = 2),
/// whose return strip is sized by the multiplicity bound, and on a short
/// row of a graph whose bound comes from a hub elsewhere (M = 1,000).
#[test]
fn node2vec_fits_its_exact_law_on_a_p_q_grid() {
    // The previous vertex is 3; its row shares 2, 4, 5 and 9 with each
    // current row.
    let (prev, prev_row) = (3, [2u32, 4, 5, 9, 20]);
    let simple: Vec<u32> = (1..=12).collect();
    let absent: Vec<u32> = (1..=12).filter(|&t| t != prev).collect();
    let parallel = [1u32, 2, 3, 3, 4, 5, 5, 6, 7, 8];
    let short = [2u32, 3, 3, 7];
    let rows: [(&str, &[u32], u32); 4] = [
        ("prev in row", &simple, 1),
        ("prev absent", &absent, 1),
        ("parallel edges", &parallel, 2),
        ("short row, M = 1000", &short, 1_000),
    ];
    let grid = [0.25, 1.0, 4.0, 100.0];
    let trials = 40_000;
    for (p, q) in grid.iter().flat_map(|&p| grid.map(|q| (p, q))) {
        let alg = SecondOrderWalk::node2vec(8, p, q);
        for (case, row, m) in rows {
            for context in [Some(&prev_row[..]), None] {
                let (targets, law) = node2vec_law((p, q), row, prev, context);
                let counts = node2vec_counts(&alg, (row, prev, context), m, &targets, trials);
                let label = format!(
                    "node2vec p={p} q={q}, {case}, context {}",
                    context.is_some()
                );
                assert_fits(&label, &counts, &law, trials);
            }
        }
    }
}

/// node2vec with q = 100 on a degree-1,000 row sharing no neighbor with
/// the previous vertex: the return edge carries 1/p of 1/p + 999/q, and
/// ~1 % of proposals are accepted. The TV has its power on the weight
/// classes (return vs outward): a 64-proposal cap that accepts its last
/// proposal returns about half as often as it should (class TV 0.044,
/// against a bound of 0.014).
#[test]
fn node2vec_is_exact_under_a_loose_envelope() {
    let row: Vec<u32> = (1..=1_000).collect();
    // The current vertex is 0: the previous vertex's row holds it and
    // nothing of `row`.
    let (prev, prev_row) = (500, [0u32, 2_000, 2_001]);
    let (pq, trials) = ((1.0, 100.0), 40_000);
    let alg = SecondOrderWalk::node2vec(8, pq.0, pq.1);
    let (targets, law) = node2vec_law(pq, &row, prev, Some(&prev_row));
    let counts = node2vec_counts(&alg, (&row, prev, Some(&prev_row)), 1, &targets, trials);
    assert_fits("node2vec q=100, per target", &counts, &law, trials);
    let k = targets.binary_search(&prev).expect("prev is in the row");
    let classes = [counts[k], trials - counts[k]];
    assert_fits(
        "node2vec q=100, by class",
        &classes,
        &[law[k], 1.0 - law[k]],
        trials,
    );
}

/// node2vec on a timestamped multigraph, whose rows are in time order:
/// a target's copies sit at different stamps, apart in the row — the
/// previous vertex's among them — and the previous vertex's row is in
/// time order too. Membership and copies are counted over such rows
/// exactly: the law is the one of the same multiset sorted by vertex.
#[test]
fn node2vec_fits_its_exact_law_on_a_time_sorted_multigraph() {
    // Vertex 0 is current, vertex 3 previous. Row 0 holds 3 three times
    // (stamps 1, 5, 9) and 7 twice (stamps 2, 8); row 3 holds 0, 4, 7
    // and 9 at descending stamps.
    let row0 = [
        (3u32, 1u32),
        (7, 2),
        (4, 3),
        (3, 5),
        (6, 6),
        (9, 7),
        (7, 8),
        (3, 9),
        (1, 4),
    ];
    let row3 = [(9u32, 1u32), (7, 2), (4, 3), (0, 4)];
    let mut offsets = vec![0u64, row0.len() as u64];
    offsets.extend([row0.len() as u64; 2]);
    offsets.extend([(row0.len() + row3.len()) as u64; 7]);
    let (edges, stamps): (Vec<u32>, Vec<u32>) = row0.iter().chain(&row3).copied().unzip();
    let g = Csr::with_timestamps(offsets, edges, None, Some(stamps)).expect("valid");
    let (row, prev_row) = (g.neighbors(0), g.neighbors(3));
    assert_eq!(row, &[3, 7, 4, 1, 3, 6, 9, 7, 3], "row 0 in time order");
    assert!(!prev_row.is_sorted(), "row 3 in time order, not by vertex");
    assert_eq!(g.max_multiplicity(), 3);
    let mut sorted = row.to_vec();
    sorted.sort_unstable();
    let trials = 40_000;
    for (p, q) in [(0.25, 4.0), (4.0, 0.25), (1.0, 1.0), (0.5, 2.0)] {
        let alg = SecondOrderWalk::node2vec(8, p, q);
        for context in [Some(prev_row), None] {
            let (targets, law) = node2vec_law((p, q), &sorted, 3, context);
            let mut counts = vec![0u64; targets.len()];
            for id in 0..trials {
                let w = Walker {
                    step: 1,
                    aux: 3,
                    ..Walker::new(id, 0)
                };
                let ctx = StepContext {
                    neighbors: row,
                    weights: None,
                    prev_neighbors: context,
                    timestamps: g.neighbor_timestamps(0),
                    max_multiplicity: g.max_multiplicity(),
                    num_vertices: g.num_vertices(),
                };
                let to = alg
                    .step(&w, ctx, 31)
                    .target()
                    .expect("a mid-walk step moves");
                counts[targets.binary_search(&to).expect("drawn from the row")] += 1;
            }
            let label = format!(
                "time-sorted node2vec p={p} q={q}, context {}",
                context.is_some()
            );
            assert_fits(&label, &counts, &law, trials);
        }
    }
}

/// Sanity check on the harness itself: a deliberately wrong expected
/// distribution is rejected — the chi-square test has power, it is not
/// vacuously passing.
#[test]
fn chi_square_rejects_wrong_distribution() {
    let g = weighted_graph();
    let trials = 40_000u64;
    let v = (0..g.num_vertices() as u32)
        .find(|&v| {
            g.degree(v) >= 4
                && exact_distribution(&g, v)
                    .iter()
                    .all(|&p| p * trials as f64 >= 5.0)
        })
        .expect("graph has a well-conditioned vertex");
    let d = g.degree(v) as usize;
    let mut counts = vec![0u64; d];
    for t in 0..trials {
        counts[weighted_first_hop(&g, v, t, 7)] += 1;
    }
    // Claim the transition were uniform: draws from the (non-uniform)
    // weights must blow past the critical value.
    let uniform = vec![1.0 / d as f64; d];
    let stat = chi_square(&counts, &uniform, trials);
    let crit = chi_square_critical((d - 1) as f64, 3.72);
    assert!(
        stat > crit,
        "harness has no power: uniform hypothesis not rejected (stat {stat:.2}, crit {crit:.2})"
    );
}
