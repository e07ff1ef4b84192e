//! A Subway-like out-of-GPU-memory baseline.
//!
//! Subway (Sabet et al., EuroSys '20) keeps the graph in host memory and,
//! each iteration, (1) scans application state to find the *active
//! subgraph* — active vertices (≥ 1 walk staying there) and their edges —
//! (2) builds it on the host, (3) transfers it to the GPU, and (4) runs a
//! **vertex-centric** kernel: one thread per active vertex advances all the
//! walks staying at that vertex by one step. The paper's §II-B measures its
//! three pain points, all reproduced here:
//!
//! - most of the loaded active subgraph is useless (a walk uses one edge
//!   per step while all the vertex's edges are shipped) — Figure 3;
//! - subgraph creation dominates time — Table I;
//! - vertex-centric execution is load-imbalanced when walk counts per
//!   vertex are skewed (catastrophically so for single-source PPR) —
//!   Figure 10's computation speedups.

use crate::BaselineRun;
use lt_engine::algorithm::{StepDecision, WalkAlgorithm};
use lt_engine::{host_step, Metrics};
use lt_gpusim::{Category, Direction, Gpu, GpuConfig, KernelCost};
use lt_graph::{Csr, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES};
use serde::Serialize;
use std::sync::Arc;

/// Configuration for the Subway-like run.
#[derive(Clone, Debug)]
pub struct SubwayConfig {
    /// The simulated device (same cost model as the LightTraffic runs it is
    /// compared against).
    pub gpu: GpuConfig,
    /// Walk RNG seed (match LightTraffic's to compare trajectories).
    pub seed: u64,
    /// Safety cap on iterations.
    pub max_iterations: u64,
    /// Host DRAM available for subgraph generation, when modeled. Subway
    /// materializes a fresh active subgraph next to the original graph
    /// every iteration; §IV-B reports it "runs out of the host memory" on
    /// YH and CW for exactly this reason.
    pub host_memory_bytes: Option<u64>,
}

impl Default for SubwayConfig {
    fn default() -> Self {
        SubwayConfig {
            gpu: GpuConfig::default(),
            seed: 42,
            max_iterations: 1_000_000,
            host_memory_bytes: None,
        }
    }
}

/// Host memory exhausted while generating the active subgraph.
#[derive(Clone, Copy, Debug)]
pub struct HostOutOfMemory {
    /// Peak host bytes the run needed.
    pub required: u64,
    /// The configured host capacity.
    pub capacity: u64,
}

impl std::fmt::Display for HostOutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "host out of memory generating the active subgraph: need {} of {} bytes",
            self.required, self.capacity
        )
    }
}

impl std::error::Error for HostOutOfMemory {}

/// Like [`run_subway`] but enforcing the configured host-memory ceiling:
/// the original graph, the walk index, and the freshly materialized active
/// subgraph must coexist in host DRAM every iteration.
pub fn try_run_subway(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    cfg: &SubwayConfig,
) -> Result<BaselineRun, HostOutOfMemory> {
    if let Some(capacity) = cfg.host_memory_bytes {
        // Peak in the first iterations, when everything is active: graph
        // + walk index + the materialized subgraph (≈ graph again) + the
        // compaction scratch the generation pass needs.
        let required =
            2 * graph.csr_bytes() + num_walks * alg.walker_state_bytes() + graph.num_vertices() * 8;
        if required > capacity {
            return Err(HostOutOfMemory { required, capacity });
        }
    }
    Ok(run_subway(graph, alg, num_walks, cfg))
}

/// Per-iteration measurements backing Figure 3.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct IterationRecord {
    /// Iteration number (1-based).
    pub iteration: u64,
    /// Active vertices this iteration.
    pub active_vertices: u64,
    /// Edges of the active subgraph.
    pub active_edges: u64,
    /// Fraction of all vertices active.
    pub active_vertex_frac: f64,
    /// Fraction of all edges active.
    pub active_edge_frac: f64,
    /// Edges actually consumed by walk steps this iteration.
    pub used_edges: u64,
}

/// Run the Subway-like baseline. Subgraph-creation time lands in the
/// host-work column of [`BaselineRun::breakdown`] (Table I's third column).
pub fn run_subway(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    cfg: &SubwayConfig,
) -> BaselineRun {
    run_subway_traced(graph, alg, num_walks, cfg).0
}

/// Like [`run_subway`], also returning the per-iteration activity series
/// behind Figure 3.
pub fn run_subway_traced(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    cfg: &SubwayConfig,
) -> (BaselineRun, Vec<IterationRecord>) {
    let mut gpu = Gpu::new(cfg.gpu.clone());
    let stream = gpu.create_stream();
    let nv = graph.num_vertices();

    // Subway keeps all application state (here: the full walk index) in
    // GPU memory — the design whose memory ceiling §II-B criticizes.
    // Past the memory ceiling Subway simply cannot run; we keep going so
    // the harness can still report a (charitable) number.
    let _ = gpu.reserve(num_walks * alg.walker_state_bytes());

    let mut walkers = alg.place_walkers(graph.num_vertices(), num_walks);
    let mut active: Vec<bool> = vec![true; walkers.len()];
    let mut visit_counts = alg.tracks_visits().then(|| vec![0u64; nv as usize]);

    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut remaining = walkers.len() as u64;
    let mut per_iteration = Vec::new();
    let mut iterations = 0u64;

    let mut walks_at_vertex = vec![0u32; nv as usize];
    while remaining > 0 && iterations < cfg.max_iterations {
        iterations += 1;
        // --- Host: find active vertices and build the active subgraph. ---
        walks_at_vertex.iter_mut().for_each(|c| *c = 0);
        for (w, a) in walkers.iter().zip(active.iter()) {
            if *a {
                walks_at_vertex[w.vertex as usize] += 1;
            }
        }
        let mut active_vertices = 0u64;
        let mut active_edges = 0u64;
        let mut max_load = 0u32;
        for (v, &c) in walks_at_vertex.iter().enumerate() {
            if c > 0 {
                active_vertices += 1;
                active_edges += graph.degree(v as u32);
                max_load = max_load.max(c);
            }
        }
        // Subgraph creation scans the walk index plus the active vertices'
        // adjacency lists and materializes a fresh CSR.
        let subgraph_bytes = active_vertices * VERTEX_ENTRY_BYTES + active_edges * EDGE_ENTRY_BYTES;
        let scan_bytes = remaining * alg.walker_state_bytes() + 2 * subgraph_bytes;
        let scan_ns = gpu.cost().host_scan_time(scan_bytes);
        gpu.host_advance(scan_ns, Category::HostWork);

        // --- Transfer the active subgraph. ---
        gpu.copy_async(
            Direction::HostToDevice,
            subgraph_bytes.max(1),
            Category::GraphLoad,
            stream,
        )
        .expect("no fault plan in the Subway baseline");
        gpu.synchronize(stream);

        // --- Vertex-centric kernel: each active walk takes one step. ---
        let mut steps_this_iter = 0u64;
        for i in 0..walkers.len() {
            if !active[i] {
                continue;
            }
            match host_step(graph, alg.as_ref(), &mut walkers[i], cfg.seed) {
                StepDecision::Terminate => {
                    active[i] = false;
                    finished += 1;
                    remaining -= 1;
                }
                StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                    steps_this_iter += 1;
                    if let Some(c) = visit_counts.as_mut() {
                        c[v as usize] += 1;
                    }
                }
            }
        }
        total_steps += steps_this_iter;
        // One thread per active vertex serializes that vertex's walks: the
        // kernel's makespan is the larger of the ideal walk-centric time
        // and the critical path through the most loaded vertex, whose
        // single thread advances its walks as a dependent chain of random
        // memory accesses.
        let ideal_ns = gpu.cost().step_time(steps_this_iter);
        let critical_ns = gpu.cost().serial_step_time(max_load as u64);
        gpu.kernel_async(
            KernelCost {
                update_ns: ideal_ns.max(critical_ns),
                ..Default::default()
            },
            Category::Compute,
            stream,
        );
        gpu.synchronize(stream);

        per_iteration.push(IterationRecord {
            iteration: iterations,
            active_vertices,
            active_edges,
            active_vertex_frac: active_vertices as f64 / nv as f64,
            active_edge_frac: active_edges as f64 / graph.num_edges() as f64,
            used_edges: steps_this_iter,
        });
    }

    gpu.device_synchronize();
    let stats = gpu.stats().clone();
    let metrics = Metrics {
        iterations,
        total_steps,
        finished_walks: finished,
        makespan_ns: stats.makespan_ns,
        ..Metrics::default()
    };
    (
        BaselineRun::simulated(metrics, stats, visit_counts),
        per_iteration,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::{PageRank, Ppr, UniformSampling};
    use lt_graph::gen::{rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 10,
                edge_factor: 8,
                seed: 7,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn all_walks_finish() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let r = run_subway(&g, &alg, 2_000, &SubwayConfig::default());
        assert_eq!(r.metrics.finished_walks, 2_000);
        assert_eq!(r.metrics.total_steps, 2_000 * 10);
        // Fixed-length synchronous stepping: length+1 iterations.
        assert_eq!(r.metrics.iterations, 11);
        // Simulated baseline: device stats ride along.
        assert_eq!(r.simulated_ns, r.metrics.makespan_ns);
        assert!(r.gpu.is_some());
    }

    #[test]
    fn activity_fractions_are_sane_and_decay() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let (_, per_iteration) =
            run_subway_traced(&g, &alg, 2 * g.num_vertices(), &SubwayConfig::default());
        let first = &per_iteration[0];
        assert!(
            first.active_vertex_frac > 0.5,
            "2|V| walks touch most vertices"
        );
        assert!(first.active_edge_frac > 0.5);
        // Loaded edges dwarf used edges (the §II-B "only ~3% used" effect).
        assert!(
            first.used_edges < first.active_edges / 4,
            "used {} vs active {}",
            first.used_edges,
            first.active_edges
        );
        for rec in &per_iteration {
            assert!(rec.active_vertex_frac <= 1.0 && rec.active_edge_frac <= 1.0);
        }
    }

    #[test]
    fn subgraph_creation_dominates_like_table1() {
        // Table I's FS row (computation 2%, transmission 44%, creation
        // 54%): FS has near-uniform degrees, so use the Erdős–Rényi
        // stand-in where vertex-centric imbalance is mild.
        let g = Arc::new(lt_graph::gen::erdos_renyi(2048, 32768, 3).csr);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
        let r = run_subway(&g, &alg, 2 * g.num_vertices(), &SubwayConfig::default());
        let (comp, trans, subgraph) = r.breakdown();
        assert!((comp + trans + subgraph - 1.0).abs() < 1e-9);
        assert!(
            comp < trans,
            "computation {comp} should not dominate transmission {trans}"
        );
        assert!(
            subgraph > 0.25,
            "subgraph creation is a major cost: {subgraph}"
        );
    }

    #[test]
    fn ppr_from_one_source_is_imbalanced() {
        let g = graph();
        let ppr = Ppr::from_highest_degree(&g, 0.15);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(ppr);
        let uniform: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(6));
        let r_ppr = run_subway(&g, &alg, 3_000, &SubwayConfig::default());
        let r_uni = run_subway(&g, &uniform, 3_000, &SubwayConfig::default());
        // Per-step compute cost should be far higher for the single-source
        // workload (vertex-centric serialization).
        let compute = |r: &BaselineRun| r.gpu.as_ref().unwrap().computing_ns();
        let cost_ppr = compute(&r_ppr) as f64 / r_ppr.metrics.total_steps as f64;
        let cost_uni = compute(&r_uni) as f64 / r_uni.metrics.total_steps as f64;
        assert!(
            cost_ppr > 3.0 * cost_uni,
            "ppr {cost_ppr} vs uniform {cost_uni}"
        );
    }

    #[test]
    fn host_memory_ceiling_reproduces_the_yh_cw_failure() {
        // Scaled YH/CW situation: host DRAM barely larger than the graph
        // itself cannot also hold the materialized subgraph.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let tight = SubwayConfig {
            host_memory_bytes: Some(g.csr_bytes() + (64 << 10)),
            ..SubwayConfig::default()
        };
        let r = try_run_subway(&g, &alg, 2 * g.num_vertices(), &tight);
        assert!(matches!(r, Err(HostOutOfMemory { .. })));
        // With enough host memory it runs.
        let roomy = SubwayConfig {
            host_memory_bytes: Some(16 * g.csr_bytes()),
            ..SubwayConfig::default()
        };
        let ok = try_run_subway(&g, &alg, 1_000, &roomy).unwrap();
        assert_eq!(ok.metrics.finished_walks, 1_000);
    }

    #[test]
    fn trajectories_match_lighttraffic() {
        // Same seed + same counter-based RNG => identical visit counts.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(8, 0.15));
        let sub = run_subway(&g, &alg, 1_500, &SubwayConfig::default());
        let mut lt = lt_engine::LightTraffic::new(
            g.clone(),
            alg.clone(),
            lt_engine::EngineConfig {
                batch_capacity: 128,
                ..lt_engine::EngineConfig::light_traffic(16 << 10, 4)
            },
        )
        .unwrap();
        let ltr = lt.run(1_500).unwrap();
        assert_eq!(sub.visits.unwrap(), ltr.visit_counts.unwrap());
    }
}
