//! Differential test battery: LightTraffic vs the plain CPU engine, and
//! LightTraffic vs itself across thread counts and fault injection.
//!
//! Trajectories are pure functions of `(seed, walk_id, step)` (see
//! `crates/lt-engine/src/rng.rs`), so every engine that steps the same
//! walks under the same seed must visit the same vertices — regardless of
//! partitioning, pool pressure, scheduling policy, host thread counts, or
//! retryable device faults. This suite checks that equivalence on a sweep
//! of random graphs with embedding-style workloads (DeepWalk-style
//! first-order and node2vec-style second-order walks), which — unlike
//! PageRank — do not track visit counts natively: counts are derived from
//! recorded paths on the engine side and from forced tracking on the
//! baseline side ([`cpu::run_walk_centric_tracked`]).
//!
//! The node2vec configuration pins [`ZeroCopyPolicy::Always`]: second-order
//! weights need the previous vertex's adjacency, which a partition-resident
//! kernel cannot always serve (the documented asymmetry in
//! `kernel.rs`) — zero copy reads the full CSR, making engine and baseline
//! contexts identical.

mod common;

use common::random_graph;
use lighttraffic::baselines::cpu;
use lighttraffic::engine::algorithm::{SecondOrderWalk, UniformSampling, WalkAlgorithm};
use lighttraffic::engine::{EngineConfig, LightTraffic, RunResult, ZeroCopyPolicy};
use lighttraffic::gpusim::{FaultPlan, GpuConfig};
use lighttraffic::graph::Csr;
use std::sync::Arc;

const SEED: u64 = 42;
/// Walks per run: enough that some partition fills a batch past
/// the kernel's fan-out threshold.
const WALKS: u64 = 3_000;

/// The two embedding-style workloads of the battery.
fn algorithms() -> Vec<(&'static str, Arc<dyn WalkAlgorithm>, ZeroCopyPolicy)> {
    vec![
        (
            "deepwalk",
            Arc::new(UniformSampling::new(8)) as Arc<dyn WalkAlgorithm>,
            ZeroCopyPolicy::adaptive(),
        ),
        (
            "node2vec",
            Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
            ZeroCopyPolicy::Always,
        ),
    ]
}

fn config(
    zero_copy: ZeroCopyPolicy,
    kernel_threads: usize,
    faults: Option<FaultPlan>,
) -> EngineConfig {
    EngineConfig {
        // Batches large enough that pooled runs fan kernels out.
        batch_capacity: 512,
        seed: SEED,
        record_paths: true,
        // The whole battery runs with traffic attribution on: the ledger
        // must never perturb trajectories or fingerprints (DESIGN.md §14).
        attribution: true,
        zero_copy,
        kernel_threads,
        gpu: GpuConfig {
            faults,
            ..GpuConfig::default()
        },
        ..EngineConfig::light_traffic(8 << 10, 4)
    }
}

/// Per-vertex visit counts derived from recorded paths (start vertex
/// excluded — a "visit" is a step target, matching the tracking engines).
fn visits_from_paths(r: &RunResult, nv: u64) -> Vec<u64> {
    let mut counts = vec![0u64; nv as usize];
    for path in r.paths.as_ref().expect("paths were recorded") {
        for &v in &path[1..] {
            counts[v as usize] += 1;
        }
    }
    counts
}

fn run_engine(g: &Arc<Csr>, alg: &Arc<dyn WalkAlgorithm>, cfg: EngineConfig) -> RunResult {
    let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
    e.run(WALKS).expect("run completes")
}

/// 20 random graphs × {DeepWalk, node2vec}: the engine's trajectory-derived
/// visit counts equal the CPU baseline's under the shared RNG.
#[test]
fn engine_matches_cpu_baseline_on_twenty_graphs() {
    for graph_seed in 0..20u64 {
        let g = random_graph(graph_seed);
        for (name, alg, zc) in algorithms() {
            let r = run_engine(&g, &alg, config(zc, 1, None));
            let engine_visits = visits_from_paths(&r, g.num_vertices());
            let baseline = cpu::run_walk_centric_tracked(&g, &alg, WALKS, SEED, 1);
            assert_eq!(
                engine_visits,
                baseline.visits.expect("tracked run has visits"),
                "graph seed {graph_seed}, {name}: engine and baseline visit counts diverged"
            );
            assert_eq!(r.metrics.finished_walks, baseline.metrics.finished_walks);
            assert_eq!(r.metrics.total_steps, baseline.metrics.total_steps);
        }
    }
}

/// node2vec over parallel edges: every edge to an even target doubled, so
/// the return edge has one or two copies under a multiplicity bound of 2.
/// The engine reads the bound from the graph's cache and the baseline
/// from the same CSR; a kernel stepping with bound 1 would take the
/// return strip too often and diverge.
#[test]
fn node2vec_over_parallel_edges_matches_the_cpu_baseline() {
    for graph_seed in [1u64, 6] {
        let g = random_graph(graph_seed);
        let (mut offsets, mut edges) = (vec![0u64], Vec::new());
        for v in 0..g.num_vertices() as u32 {
            for &t in g.neighbors(v) {
                edges.extend(std::iter::repeat_n(t, 1 + (t % 2 == 0) as usize));
            }
            offsets.push(edges.len() as u64);
        }
        let g = Arc::new(Csr::new(offsets, edges, None).expect("same rows, doubled"));
        assert_eq!(g.max_multiplicity(), 2);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(SecondOrderWalk::node2vec(8, 0.25, 2.0));
        let r = run_engine(&g, &alg, config(ZeroCopyPolicy::Always, 1, None));
        let baseline = cpu::run_walk_centric_tracked(&g, &alg, WALKS, SEED, 1);
        assert_eq!(
            visits_from_paths(&r, g.num_vertices()),
            baseline.visits.expect("tracked run has visits"),
            "graph seed {graph_seed}"
        );
    }
}

/// Visit counts are identical across `kernel_threads` in {1, 4}, with and
/// without injected retryable faults. Retries replay copies on the
/// simulated timeline but never alter trajectories.
#[test]
fn thread_counts_and_retryable_faults_do_not_change_results() {
    for graph_seed in [3u64, 8, 13] {
        let g = random_graph(graph_seed);
        for (name, alg, zc) in algorithms() {
            let reference =
                visits_from_paths(&run_engine(&g, &alg, config(zc, 1, None)), g.num_vertices());
            for kernel_threads in [1usize, 4] {
                for faults in [None, Some(FaultPlan::retryable_only(7, 0.05))] {
                    let faulty = faults.is_some();
                    let r = run_engine(&g, &alg, config(zc, kernel_threads, faults));
                    if faulty {
                        assert!(
                            r.metrics.retries > 0 || r.metrics.faults_injected == 0,
                            "injected faults were never retried"
                        );
                    }
                    assert_eq!(
                        visits_from_paths(&r, g.num_vertices()),
                        reference,
                        "graph seed {graph_seed}, {name}, kt={kernel_threads}, faults={faulty}"
                    );
                }
            }
        }
    }
}

/// Acceptance check for the persistent executor (DESIGN.md §11) and for
/// the one-pass reshuffle (§10): `kernel_threads` ∈ {2, 4, 8} — kernels
/// fanned out over the pool — produce runs **bit-identical** to the
/// `kernel_threads: 1` reference (every batch stepped inline): paths,
/// visit counts, simulated clock, full device-stats breakdown, with and
/// without injected retryable faults. Only the wall-clock/fan-out
/// bookkeeping may differ. Both shapes must provably run: the reference
/// never fans out, and some multi-thread run does.
#[test]
fn pooled_runs_match_the_serial_reference() {
    for graph_seed in [2u64, 4, 5, 9] {
        let g = random_graph(graph_seed);
        for (name, alg, zc) in algorithms() {
            let run = |kernel_threads: usize, fault_seed: Option<u64>| {
                let faults = fault_seed.map(|s| FaultPlan::retryable_only(s, 0.05));
                run_engine(&g, &alg, config(zc, kernel_threads, faults))
            };
            let mut fanned_out = false;
            for fault_seed in [None, Some(11u64)] {
                let reference = run(1, fault_seed);
                assert_eq!(
                    reference.metrics.max_kernel_threads, 1,
                    "graph seed {graph_seed}, {name}: kernel_threads=1 fanned out"
                );
                let reference = reference.deterministic_fingerprint();
                for kernel_threads in [2usize, 4, 8] {
                    let r = run(kernel_threads, fault_seed);
                    fanned_out |= r.metrics.max_kernel_threads > 1;
                    assert_eq!(
                        r.deterministic_fingerprint(),
                        reference,
                        "graph seed {graph_seed}, {name}, kt={kernel_threads}, faults={}: \
                         diverged from kernel_threads=1",
                        fault_seed.is_some()
                    );
                }
            }
            assert!(
                fanned_out,
                "graph seed {graph_seed}, {name}: no multi-thread run fanned out"
            );
        }
    }
}
