//! A KnightKing-like distributed-style CPU engine.
//!
//! KnightKing (SOSP '19, the paper's \[69\]) runs massive walks across
//! machines with bulk-synchronous supersteps: each worker owns a graph
//! shard, walks its residents until they leave the shard, and exchanges
//! leavers ("walker messages") at the superstep barrier. This module runs
//! the same structure across *real host threads* (crossbeam scoped), one
//! shard per worker — the CPU twin of `lt-multigpu`'s simulated devices.
//!
//! Counter-based RNG keeps trajectories identical to every other engine in
//! the workspace, so results cross-check bit-for-bit.

use lt_engine::algorithm::{StepDecision, WalkAlgorithm};
use lt_engine::host_step;
use lt_engine::walker::Walker;
use lt_graph::{Csr, VertexId};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// Result of a BSP CPU run.
#[derive(Clone, Debug, Serialize)]
pub struct BspCpuResult {
    /// Total steps executed.
    pub total_steps: u64,
    /// Walks finished.
    pub finished_walks: u64,
    /// Supersteps (barriers) executed.
    pub supersteps: u64,
    /// Walker messages exchanged between workers.
    pub exchanged_walks: u64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
    /// Visit counts when tracked.
    pub visit_counts: Option<Vec<u64>>,
}

impl BspCpuResult {
    /// Measured steps per second on this host.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            0.0
        } else {
            self.total_steps as f64 / self.wall_seconds
        }
    }
}

/// Equal-edge-weight contiguous shard boundaries for `k` workers.
fn shard_boundaries(graph: &Csr, k: usize) -> Vec<VertexId> {
    let per_shard = graph.num_edges().div_ceil(k as u64).max(1);
    let mut bounds = vec![0 as VertexId];
    let mut acc = 0u64;
    for v in 0..graph.num_vertices() as VertexId {
        acc += graph.degree(v);
        if acc >= per_shard && (bounds.len() as u64) < k as u64 {
            bounds.push(v + 1);
            acc = 0;
        }
    }
    while bounds.len() < k + 1 {
        bounds.push(graph.num_vertices() as VertexId);
    }
    bounds
}

/// Run `num_walks` walks of `alg` on `workers` host threads,
/// KnightKing-style.
pub fn run_bsp_cpu(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    seed: u64,
    workers: usize,
) -> BspCpuResult {
    let k = workers.max(1);
    let bounds = Arc::new(shard_boundaries(graph, k));
    let shard_of = |bounds: &[VertexId], v: VertexId| bounds.partition_point(|&b| b <= v) - 1;
    let nv = graph.num_vertices();
    let track = alg.tracks_visits();

    let mut resident: Vec<Vec<Walker>> = vec![Vec::new(); k];
    for w in alg.place_walkers(graph.num_vertices(), num_walks) {
        resident[shard_of(&bounds, w.vertex)].push(w);
    }
    let mut visit_counts = track.then(|| vec![0u64; nv as usize]);

    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut exchanged = 0u64;
    let mut supersteps = 0u64;
    let start = Instant::now();

    while resident.iter().any(|r| !r.is_empty()) {
        supersteps += 1;
        // Superstep: one scoped thread per worker walks its shard.
        type WorkerOut = (u64, u64, Vec<Walker>, Option<Vec<u64>>);
        let outputs: Vec<WorkerOut> = crossbeam::thread::scope(|s| {
            let handles: Vec<_> = resident
                .iter_mut()
                .enumerate()
                .map(|(i, mine)| {
                    let graph = Arc::clone(graph);
                    let alg = Arc::clone(alg);
                    let bounds = Arc::clone(&bounds);
                    let mut mine = std::mem::take(mine);
                    s.spawn(move |_| {
                        let lo = bounds[i];
                        let hi = bounds[i + 1];
                        let mut steps = 0u64;
                        let mut done = 0u64;
                        let mut outgoing = Vec::new();
                        let mut visits = track.then(|| vec![0u64; nv as usize]);
                        for mut w in mine.drain(..) {
                            loop {
                                match host_step(&graph, alg.as_ref(), &mut w, seed) {
                                    StepDecision::Terminate => {
                                        done += 1;
                                        break;
                                    }
                                    StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                                        steps += 1;
                                        if let Some(c) = visits.as_mut() {
                                            c[v as usize] += 1;
                                        }
                                        if !(lo..hi).contains(&v) {
                                            outgoing.push(w);
                                            break;
                                        }
                                    }
                                }
                            }
                        }
                        (steps, done, outgoing, visits)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
        .expect("workers do not panic");

        // Barrier: merge results and deliver walker messages.
        for (steps, done, outgoing, visits) in outputs {
            total_steps += steps;
            finished += done;
            exchanged += outgoing.len() as u64;
            if let (Some(acc), Some(part)) = (visit_counts.as_mut(), visits) {
                for (a, b) in acc.iter_mut().zip(part) {
                    *a += b;
                }
            }
            for w in outgoing {
                resident[shard_of(&bounds, w.vertex)].push(w);
            }
        }
    }
    BspCpuResult {
        total_steps,
        finished_walks: finished,
        supersteps,
        exchanged_walks: exchanged,
        wall_seconds: start.elapsed().as_secs_f64(),
        visit_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::{PageRank, UniformSampling};
    use lt_graph::gen::{rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                seed: 23,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn bsp_cpu_completes() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(12));
        let r = run_bsp_cpu(&g, &alg, 2_000, 42, 4);
        assert_eq!(r.finished_walks, 2_000);
        assert_eq!(r.total_steps, 2_000 * 12);
        assert!(r.supersteps > 1);
        assert!(r.exchanged_walks > 0);
    }

    #[test]
    fn bsp_cpu_matches_other_engines() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));
        let bsp = run_bsp_cpu(&g, &alg, 1_200, 42, 3);
        let reference = crate::cpu::run_walk_centric(&g, &alg, 1_200, 42, 1);
        assert_eq!(bsp.visit_counts.unwrap(), reference.visits.unwrap());
        assert_eq!(bsp.total_steps, reference.metrics.total_steps);
    }

    #[test]
    fn single_worker_needs_one_superstep() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(6));
        let r = run_bsp_cpu(&g, &alg, 500, 42, 1);
        assert_eq!(r.supersteps, 1);
        assert_eq!(r.exchanged_walks, 0);
        assert_eq!(r.finished_walks, 500);
    }

    #[test]
    fn shards_cover_the_graph() {
        let g = graph();
        for k in [1, 3, 8] {
            let b = shard_boundaries(&g, k);
            assert_eq!(b.len(), k + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap() as u64, g.num_vertices());
        }
    }
}
