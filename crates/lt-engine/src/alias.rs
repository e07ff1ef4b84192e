//! Alias-method sampling for weighted walks (§II-A).
//!
//! The paper names alias sampling and rejection sampling as the standard
//! ways to extend simple random walks to weighted graphs (C-SAW and
//! Skywalker build GPU engines around them). [`crate::algorithm::WeightedWalk`]
//! scans the row on every step; this module implements the alias method:
//! an O(d) preprocessing per vertex yields O(1) draws, the right trade-off
//! when vertices are visited many times.
//!
//! [`AliasTable`] holds the per-vertex tables for a whole graph in the
//! flat, partition-sliceable layout the engine needs (tables for a vertex
//! range are contiguous, so they ride along with a partition's explicit
//! copy — their bytes are charged by [`AliasWeightedWalk`]'s larger
//! `walker_state`-independent partition footprint accounted in
//! [`AliasTable::bytes_for_range`]).

use crate::algorithm::{StepContext, WalkAlgorithm};
use crate::rng::{step_value, step_value2, uniform_f64, uniform_index};
use crate::walker::Walker;
use lt_graph::{Csr, VertexId};
use std::sync::Arc;

/// One alias-table entry: with probability `prob` pick this slot's own
/// neighbor, otherwise its alias.
#[derive(Clone, Copy, Debug)]
struct Entry {
    prob: f32,
    alias: u32,
}

/// Per-vertex alias tables for every vertex of a weighted graph, stored
/// flat and indexed by the CSR offsets.
#[derive(Clone, Debug)]
pub struct AliasTable {
    entries: Vec<Entry>,
    offsets: Vec<u64>,
}

impl AliasTable {
    /// Build tables for `graph`. Unweighted graphs get uniform tables.
    ///
    /// Uses Vose's O(d) construction per vertex.
    pub fn build(graph: &Csr) -> Self {
        let ne = graph.num_edges() as usize;
        let mut entries = Vec::with_capacity(ne);
        for v in 0..graph.num_vertices() as VertexId {
            let d = graph.degree(v) as usize;
            if d == 0 {
                continue;
            }
            match graph.neighbor_weights(v) {
                None => {
                    entries.extend((0..d).map(|i| Entry {
                        prob: 1.0,
                        alias: i as u32,
                    }));
                }
                Some(w) => build_vose(w, &mut entries),
            }
        }
        AliasTable {
            entries,
            offsets: graph.offsets().to_vec(),
        }
    }

    /// Draw the `k`-th neighbor index of `v` given two uniform random
    /// values (`r_slot` picks the slot, `r_flip` decides own vs alias).
    #[inline]
    pub fn sample(&self, v: VertexId, r_slot: u64, r_flip: f64) -> usize {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        debug_assert!(hi > lo, "sampling a zero-degree vertex");
        let d = hi - lo;
        let slot = uniform_index(r_slot, d as u64) as usize;
        let e = self.entries[lo + slot];
        // Two-way select instead of a branch: the flip outcome is close
        // to a coin toss on skewed tables, which makes the branch
        // unpredictable in the hot sampling loop.
        [slot, e.alias as usize][(r_flip >= e.prob as f64) as usize]
    }

    /// Batched draw with the engine's per-walker RNG convention: for each
    /// `(vertex, walk_id, step)` row, push the neighbor index that
    /// per-row [`AliasTable::sample`] fed by
    /// [`crate::rng::step_value`]/[`crate::rng::step_value2`] would
    /// return. The randoms for a block of rows are pre-generated into a
    /// stack buffer before any table lookup, so the hash pipeline and the
    /// (cache-missing) table walks don't serialize each other.
    pub fn sample_batch(&self, seed: u64, rows: &[(VertexId, u64, u32)], out: &mut Vec<usize>) {
        const BLOCK: usize = 32;
        out.clear();
        out.reserve(rows.len());
        let mut rand = [(0u64, 0f64); BLOCK];
        for block in rows.chunks(BLOCK) {
            for (r, &(_, id, step)) in rand.iter_mut().zip(block) {
                *r = (
                    step_value(seed, id, step),
                    uniform_f64(step_value2(seed, id, step)),
                );
            }
            for (&(r_slot, r_flip), &(v, _, _)) in rand.iter().zip(block) {
                out.push(self.sample(v, r_slot, r_flip));
            }
        }
    }

    /// Bytes of alias-table data belonging to vertices `range` — added to
    /// a partition's transfer size when alias walks run out-of-memory
    /// (each entry is 8 bytes: f32 prob + u32 alias).
    pub fn bytes_for_range(&self, range: std::ops::Range<VertexId>) -> u64 {
        (self.offsets[range.end as usize] - self.offsets[range.start as usize]) * 8
    }

    /// Total table bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.len() as u64 * 8
    }
}

/// Vose's alias construction for one vertex's weight slice.
fn build_vose(weights: &[f32], out: &mut Vec<Entry>) {
    let d = weights.len();
    let sum: f64 = weights.iter().map(|&x| x as f64).sum();
    if sum <= 0.0 {
        out.extend((0..d).map(|i| Entry {
            prob: 1.0,
            alias: i as u32,
        }));
        return;
    }
    let base = out.len();
    out.extend((0..d).map(|i| Entry {
        prob: (weights[i] as f64 * d as f64 / sum) as f32,
        alias: i as u32,
    }));
    let scaled: Vec<f64> = weights.iter().map(|&x| x as f64 * d as f64 / sum).collect();
    let mut small: Vec<usize> = Vec::new();
    let mut large: Vec<usize> = Vec::new();
    let mut p = scaled.clone();
    for (i, &x) in scaled.iter().enumerate() {
        if x < 1.0 {
            small.push(i);
        } else {
            large.push(i);
        }
    }
    while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
        small.pop();
        out[base + s] = Entry {
            prob: p[s] as f32,
            alias: l as u32,
        };
        p[l] = (p[l] + p[s]) - 1.0;
        if p[l] < 1.0 {
            large.pop();
            small.push(l);
        }
    }
    for &i in small.iter().chain(large.iter()) {
        out[base + i] = Entry {
            prob: 1.0,
            alias: out[base + i].alias,
        };
    }
}

/// Fixed-length weighted walk drawing transitions from a prebuilt
/// [`AliasTable`] — O(1) per step instead of a scan of the row.
///
/// Deterministic in `(seed, walk id, step)` like every other algorithm, so
/// it participates in the schedule-equivalence guarantees.
#[derive(Clone)]
pub struct AliasWeightedWalk {
    /// Walk length.
    pub length: u32,
    table: Arc<AliasTable>,
}

impl AliasWeightedWalk {
    /// Build the table for `graph` and the algorithm around it.
    pub fn new(graph: &Csr, length: u32) -> Self {
        AliasWeightedWalk {
            length,
            table: Arc::new(AliasTable::build(graph)),
        }
    }

    /// The underlying table (e.g. for memory accounting).
    pub fn table(&self) -> &AliasTable {
        &self.table
    }
}

impl WalkAlgorithm for AliasWeightedWalk {
    fn name(&self) -> &'static str {
        "alias-weighted"
    }

    fn place_walkers(&self, nv: u64, num_walks: u64) -> Vec<Walker> {
        (0..num_walks)
            .map(|w| Walker::new(w, (w % nv) as VertexId))
            .collect()
    }

    fn step(
        &self,
        walker: &Walker,
        ctx: StepContext<'_>,
        seed: u64,
    ) -> crate::algorithm::StepDecision {
        use crate::algorithm::StepDecision;
        if walker.step >= self.length || ctx.neighbors.is_empty() {
            return StepDecision::Terminate;
        }
        let r1 = step_value(seed, walker.id, walker.step);
        let r2 = uniform_f64(step_value2(seed, walker.id, walker.step));
        // The table is indexed by the walker's current vertex; ctx holds
        // that vertex's neighbors, so the sampled slot maps directly.
        let k = self.table.sample(walker.vertex, r1, r2);
        StepDecision::Move(ctx.neighbors[k])
    }

    fn walker_state_bytes(&self) -> u64 {
        16
    }

    fn reads_prev_neighbors(&self) -> bool {
        false
    }

    /// The alias table is indexed by the epoch-0 CSR offsets.
    fn holds_epoch0_state(&self) -> bool {
        true
    }

    fn max_steps(&self) -> u32 {
        self.length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::{erdos_renyi, with_random_weights};

    #[test]
    fn alias_table_matches_weight_distribution() {
        let weights = [1.0f32, 2.0, 3.0, 4.0];
        let mut entries = Vec::new();
        build_vose(&weights, &mut entries);
        let table = AliasTable {
            entries,
            offsets: vec![0, 4],
        };
        let trials = 200_000u64;
        let mut counts = [0u64; 4];
        for t in 0..trials {
            let r1 = step_value(1, t, 0);
            let r2 = uniform_f64(step_value2(1, t, 0));
            counts[table.sample(0, r1, r2)] += 1;
        }
        let sum: f32 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expect = (weights[i] / sum) as f64;
            let got = c as f64 / trials as f64;
            assert!(
                (got - expect).abs() < 0.01,
                "slot {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn uniform_graph_gets_uniform_tables() {
        let g = erdos_renyi(256, 2048, 1).csr;
        let table = AliasTable::build(&g);
        assert_eq!(table.total_bytes(), g.num_edges() * 8);
        // All probabilities 1.0 => sample == slot draw (uniform).
        let v = (0..256u32).find(|&v| g.degree(v) >= 3).unwrap();
        for t in 0..100u64 {
            let r1 = step_value(2, t, 0);
            let k = table.sample(v, r1, 0.5);
            assert!(k < g.degree(v) as usize);
        }
    }

    #[test]
    fn degenerate_weights_survive() {
        // All-zero weights fall back to uniform; single-neighbor works.
        let mut entries = Vec::new();
        build_vose(&[0.0, 0.0], &mut entries);
        assert_eq!(entries.len(), 2);
        let mut single = Vec::new();
        build_vose(&[5.0], &mut single);
        assert_eq!(single.len(), 1);
        assert!(single[0].prob >= 1.0);
    }

    #[test]
    fn alias_walk_fits_the_weight_distribution() {
        // Per-edge transition frequencies converge to the normalized
        // weights, the law `WeightedWalk` draws from exactly (the two use
        // different RNG streams, so only the distribution matches, not
        // trajectories).
        let g = erdos_renyi(64, 1024, 3).csr;
        let g = with_random_weights(&g, 4);
        let v = (0..64u32).find(|&v| g.degree(v) >= 4).unwrap();
        let alias = AliasWeightedWalk::new(&g, 1);
        let nbrs = g.neighbors(v);
        let weights = g.neighbor_weights(v).unwrap();
        let ctx = StepContext {
            neighbors: nbrs,
            weights: Some(weights),
            prev_neighbors: None,
            timestamps: None,
            max_multiplicity: 1,
            num_vertices: 64,
        };
        let trials = 100_000u64;
        let mut counts = vec![0u64; nbrs.len()];
        for id in 0..trials {
            let w = Walker::new(id, v);
            let t = alias.step(&w, ctx, 9).target().expect("should move");
            counts[nbrs.iter().position(|&x| x == t).unwrap()] += 1;
        }
        let wsum: f32 = weights.iter().sum();
        for (i, &c) in counts.iter().enumerate() {
            let expect = (weights[i] / wsum) as f64;
            let got = c as f64 / trials as f64;
            assert!(
                (got - expect).abs() < 0.015,
                "neighbor {i}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn sample_batch_matches_per_call_sample() {
        let g = with_random_weights(&erdos_renyi(128, 2048, 11).csr, 13);
        let table = AliasTable::build(&g);
        let seed = 77;
        // Rows spanning many vertices, ids, and steps — including a
        // partial trailing block (len % 32 != 0).
        let rows: Vec<(u32, u64, u32)> = (0..517u64)
            .map(|i| {
                let v = (0..128u32)
                    .cycle()
                    .skip(i as usize)
                    .find(|&v| g.degree(v) > 0)
                    .unwrap();
                (v, i * 31 % 911, (i % 40) as u32)
            })
            .collect();
        let mut got = Vec::new();
        table.sample_batch(seed, &rows, &mut got);
        assert_eq!(got.len(), rows.len());
        for (k, &(v, id, step)) in rows.iter().enumerate() {
            let r1 = step_value(seed, id, step);
            let r2 = uniform_f64(step_value2(seed, id, step));
            assert_eq!(got[k], table.sample(v, r1, r2), "row {k} diverged");
        }
        // Reuses the output buffer without accumulating.
        table.sample_batch(seed, &rows[..40], &mut got);
        assert_eq!(got.len(), 40);
    }

    #[test]
    fn alias_walk_runs_in_engine() {
        let g = std::sync::Arc::new(with_random_weights(&erdos_renyi(512, 8192, 5).csr, 6));
        let alg = std::sync::Arc::new(AliasWeightedWalk::new(&g, 8));
        let mut e = crate::LightTraffic::new(
            g,
            alg,
            crate::EngineConfig {
                batch_capacity: 128,
                ..crate::EngineConfig::light_traffic(16 << 10, 4)
            },
        )
        .unwrap();
        let r = e.run(1_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 1_000);
        assert_eq!(r.metrics.total_steps, 8_000);
    }

    #[test]
    fn bytes_for_range_is_edge_proportional() {
        let g = erdos_renyi(128, 1024, 7).csr;
        let t = AliasTable::build(&g);
        let all = t.bytes_for_range(0..128);
        assert_eq!(all, t.total_bytes());
        let half = t.bytes_for_range(0..64);
        assert!(half < all && half > 0);
    }
}
