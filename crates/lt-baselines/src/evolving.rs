//! Naive evolving-graph CPU walker: the reference side of the
//! mutation-aware differential battery.
//!
//! The engine layers its evolving support on [`lt_graph::delta::DeltaGraph`]
//! (a per-partition merge of each epoch's updates into fresh blocks, then
//! partition reloads). This module deliberately shares none of that
//! machinery: the graph is a plain
//! per-vertex adjacency list mutated in place, and walks are stepped one at
//! a time to completion. The only shared code is the algorithm object and
//! the counter RNG underneath it — exactly the pieces whose determinism the
//! battery relies on. If the engine's seal/reload path disagrees with
//! this walker about any trajectory, the battery fails.
//!
//! Execution follows the battery's *wave* structure (the shape under which
//! mutation visibility is deterministic, DESIGN.md §15): inject a wave of
//! walks, run them to quiescence against the current adjacency, then apply
//! that wave's [`EdgeUpdate`] schedule as one sealed epoch, and continue
//! with the next wave. Walk ids keep incrementing across waves so every
//! trajectory draws distinct randomness.

use crate::BaselineRun;
use lt_engine::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use lt_engine::walker::Walker;
use lt_engine::Metrics;
use lt_graph::delta::{EdgeOp, EdgeUpdate};
use lt_graph::{Csr, VertexId};
use std::sync::Arc;
use std::time::Instant;

/// One injection + mutation round of an evolving-graph run: `walks` walks
/// are driven to completion on the current adjacency, then `updates` are
/// applied as a single sealed epoch.
#[derive(Clone, Debug, Default)]
pub struct Wave {
    /// Walks injected at the start of the wave.
    pub walks: u64,
    /// Edge-update schedule sealed after the wave quiesces.
    pub updates: Vec<EdgeUpdate>,
}

/// A mutable adjacency-list graph with the same mutation semantics as the
/// engine's delta layer, implemented independently: inserts go after the
/// source row's last edge that sorts no later — by target, or on a
/// temporal graph by `(timestamp, target)`, epoch-stamped when no
/// timestamp is given — deletes remove the first matching edge (no-op
/// when absent), and updates apply in submission order at each seal.
#[derive(Clone, Debug)]
pub struct AdjacencyGraph {
    edges: Vec<Vec<VertexId>>,
    weights: Option<Vec<Vec<f32>>>,
    timestamps: Option<Vec<Vec<u32>>>,
    /// The most copies of one target any row holds, rescanned at every
    /// seal (the second-order sampler's bound).
    max_multiplicity: u32,
    epoch: u64,
}

/// The most copies of one target any of `rows` holds (at least 1),
/// counted on a sorted copy of each row: a temporal row is in time
/// order, where copies of one target need not be adjacent.
fn max_multiplicity(rows: &[Vec<VertexId>]) -> u32 {
    rows.iter()
        .map(|row| {
            let mut sorted = row.clone();
            sorted.sort_unstable();
            sorted
                .chunk_by(|a, b| a == b)
                .map(|run| run.len() as u32)
                .fold(1, u32::max)
        })
        .fold(1, u32::max)
}

impl AdjacencyGraph {
    /// Explode a CSR into per-vertex rows.
    pub fn from_csr(g: &Csr) -> Self {
        let nv = g.num_vertices() as usize;
        let edges: Vec<Vec<VertexId>> = (0..nv as VertexId)
            .map(|v| g.neighbors(v).to_vec())
            .collect();
        AdjacencyGraph {
            max_multiplicity: max_multiplicity(&edges),
            edges,
            weights: g.is_weighted().then(|| {
                (0..nv as VertexId)
                    .map(|v| g.neighbor_weights(v).unwrap_or(&[]).to_vec())
                    .collect()
            }),
            timestamps: g.is_temporal().then(|| {
                (0..nv as VertexId)
                    .map(|v| g.neighbor_timestamps(v).unwrap_or(&[]).to_vec())
                    .collect()
            }),
            epoch: 0,
        }
    }

    /// Epochs sealed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn num_vertices(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Current adjacency row of `v`.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.edges[v as usize]
    }

    /// Timestamps parallel to [`AdjacencyGraph::neighbors`].
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&[u32]> {
        self.timestamps.as_ref().map(|t| t[v as usize].as_slice())
    }

    /// Apply `updates` in order as one sealed epoch and return
    /// `(inserted, deleted)`. Out-of-range endpoints are skipped (the
    /// engine rejects them at buffering time, before they reach a seal).
    pub fn seal(&mut self, updates: &[EdgeUpdate]) -> (u64, u64) {
        self.epoch += 1;
        let default_ts = self.epoch.min(u32::MAX as u64) as u32;
        let (mut ins, mut del) = (0u64, 0u64);
        for u in updates {
            if u.src as usize >= self.edges.len() || u.dst as usize >= self.edges.len() {
                continue;
            }
            let row = &mut self.edges[u.src as usize];
            match u.op {
                EdgeOp::Insert => {
                    let ts = u.timestamp.unwrap_or(default_ts);
                    let k = match &self.timestamps {
                        Some(t) => {
                            let stamps = &t[u.src as usize];
                            (row.iter().zip(stamps))
                                .take_while(|&(&x, &s)| (s, x) <= (ts, u.dst))
                                .count()
                        }
                        None => row.iter().take_while(|&&x| x <= u.dst).count(),
                    };
                    row.insert(k, u.dst);
                    if let Some(w) = &mut self.weights {
                        w[u.src as usize].insert(k, u.weight.unwrap_or(1.0));
                    }
                    if let Some(t) = &mut self.timestamps {
                        t[u.src as usize].insert(k, ts);
                    }
                    ins += 1;
                }
                EdgeOp::Delete => {
                    if let Some(k) = row.iter().position(|&x| x == u.dst) {
                        row.remove(k);
                        if let Some(w) = &mut self.weights {
                            w[u.src as usize].remove(k);
                        }
                        if let Some(t) = &mut self.timestamps {
                            t[u.src as usize].remove(k);
                        }
                        del += 1;
                    }
                }
            }
        }
        self.max_multiplicity = max_multiplicity(&self.edges);
        (ins, del)
    }

    /// One algorithm step against the current adjacency, mirroring the
    /// engine kernel's context construction (second-order history served
    /// from the full graph, `aux` bounds-guarded because temporal walks
    /// store a clock there).
    fn step(&self, alg: &dyn WalkAlgorithm, w: &mut Walker, seed: u64) -> StepDecision {
        let nv = self.edges.len() as u64;
        let ctx = StepContext {
            neighbors: &self.edges[w.vertex as usize],
            weights: self
                .weights
                .as_ref()
                .map(|ws| ws[w.vertex as usize].as_slice()),
            prev_neighbors: (w.aux != VertexId::MAX && (w.aux as u64) < nv)
                .then(|| self.edges[w.aux as usize].as_slice()),
            timestamps: self
                .timestamps
                .as_ref()
                .map(|ts| ts[w.vertex as usize].as_slice()),
            max_multiplicity: lt_engine::multiplicity_for(alg, || self.max_multiplicity),
            num_vertices: nv,
        };
        let d = alg.step(w, ctx, seed);
        d.advance(w);
        d
    }
}

/// Run a wave schedule to completion on the naive adjacency walker.
///
/// Per wave: `wave.walks` walkers are placed by the algorithm (placement
/// depends only on the frozen vertex set, so the immutable `base` serves
/// every wave) with ids offset past all earlier waves, chased one at a
/// time to completion, and then `wave.updates` are sealed. Visit counts
/// are always accumulated (a visit is a step target, start excluded),
/// matching how the battery derives counts from engine paths.
pub fn run_evolving_waves(
    base: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    waves: &[Wave],
    seed: u64,
) -> BaselineRun {
    let mut g = AdjacencyGraph::from_csr(base);
    let nv = base.num_vertices();
    let mut visits = vec![0u64; nv as usize];
    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut next_id = 0u64;
    let start = Instant::now();
    for wave in waves {
        let mut walkers = alg.place_walkers(nv, wave.walks);
        for w in &mut walkers {
            w.id += next_id;
        }
        next_id += wave.walks;
        for mut w in walkers {
            loop {
                match g.step(alg.as_ref(), &mut w, seed) {
                    StepDecision::Terminate => {
                        finished += 1;
                        break;
                    }
                    d => {
                        total_steps += 1;
                        visits[d.target().expect("non-terminate moves") as usize] += 1;
                    }
                }
            }
        }
        g.seal(&wave.updates);
    }
    BaselineRun::host(
        Metrics {
            total_steps,
            finished_walks: finished,
            makespan_ns: start.elapsed().as_nanos() as u64,
            ..Metrics::default()
        },
        Some(visits),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::UniformSampling;
    use lt_graph::delta::DeltaGraph;
    use lt_graph::gen::erdos_renyi;
    use lt_graph::PartitionedGraph;

    fn base() -> Arc<Csr> {
        Arc::new(erdos_renyi(64, 256, 7).csr)
    }

    /// The naive mutation semantics agree with the engine's delta layer on
    /// a mixed insert/delete schedule — two independent implementations of
    /// the same spec.
    #[test]
    fn adjacency_seal_matches_delta_graph() {
        let g = base();
        let mut adj = AdjacencyGraph::from_csr(&g);
        let mut dg = DeltaGraph::new(PartitionedGraph::build(g.clone(), 256));
        let schedule = vec![
            EdgeUpdate::insert(3, 9),
            EdgeUpdate::delete(3, 9),
            EdgeUpdate::insert(3, 9),
            EdgeUpdate::delete(0, 63),
            EdgeUpdate::insert(63, 0),
            EdgeUpdate::delete(5, 5),
            EdgeUpdate::insert(3, 9),
        ];
        for u in &schedule {
            dg.buffer(*u).unwrap();
        }
        let seal = dg.seal_epoch(&[]).unwrap();
        let (ins, del) = adj.seal(&schedule);
        assert_eq!(ins, seal.inserted);
        assert_eq!(del, seal.deleted);
        assert_eq!(adj.epoch(), dg.epoch());
        assert!(adj.max_multiplicity >= 2);
        assert_eq!(adj.max_multiplicity, dg.table().max_multiplicity().unwrap());
        let sealed = dg.to_csr().unwrap();
        for v in 0..g.num_vertices() as VertexId {
            assert_eq!(adj.neighbors(v), sealed.neighbors(v), "vertex {v}");
        }
    }

    /// Temporal default-stamping agrees with the delta layer: an insert
    /// without a timestamp is stamped with the sealing epoch.
    #[test]
    fn temporal_default_stamp_matches_delta_graph() {
        let g =
            Arc::new(Csr::with_timestamps(vec![0, 1, 1], vec![1], None, Some(vec![7])).unwrap());
        let mut adj = AdjacencyGraph::from_csr(&g);
        let mut dg = DeltaGraph::new(PartitionedGraph::build(g, 256));
        adj.seal(&[]);
        dg.seal_epoch(&[]).unwrap();
        let schedule = vec![EdgeUpdate::insert(1, 0), EdgeUpdate::insert_at(0, 1, 99)];
        for u in &schedule {
            dg.buffer(*u).unwrap();
        }
        dg.seal_epoch(&[]).unwrap();
        adj.seal(&schedule);
        let sealed = dg.to_csr().unwrap();
        for v in 0..2 {
            assert_eq!(adj.neighbor_timestamps(v), sealed.neighbor_timestamps(v));
        }
    }

    /// With an empty schedule the waves runner reduces to the static
    /// walk-centric baseline.
    #[test]
    fn no_mutations_matches_static_baseline() {
        let g = base();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
        let waves = [Wave {
            walks: 64,
            updates: Vec::new(),
        }];
        let evolving = run_evolving_waves(&g, &alg, &waves, 42);
        let fixed = crate::cpu::run_walk_centric_tracked(&g, &alg, 64, 42, 1);
        assert_eq!(evolving.visits, fixed.visits);
        assert_eq!(evolving.metrics.total_steps, fixed.metrics.total_steps);
        assert_eq!(
            evolving.metrics.finished_walks,
            fixed.metrics.finished_walks
        );
    }
}
