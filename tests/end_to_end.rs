//! Cross-system integration tests: every engine in the workspace runs the
//! same workload with the same seed and must produce the *identical*
//! multiset of trajectories (counter-based RNG makes trajectories
//! schedule-independent). This is the repository's strongest correctness
//! oracle: LightTraffic under any scheduling policy, the Subway-like
//! baseline, the in-GPU-memory baseline, the multi-round baseline, and
//! both CPU engines all have to agree, bit for bit.

use lighttraffic::baselines::cpu;
use lighttraffic::baselines::ingpu::run_in_gpu_memory;
use lighttraffic::baselines::multiround::run_multi_round;
use lighttraffic::baselines::subway::{run_subway, SubwayConfig};
use lighttraffic::engine::algorithm::{
    PageRank, Ppr, SecondOrderWalk, UniformSampling, WalkAlgorithm, WeightedWalk,
};
use lighttraffic::engine::{EngineConfig, LightTraffic, ReshuffleMode, ZeroCopyPolicy};
use lighttraffic::gpusim::GpuConfig;
use lighttraffic::graph::gen::{rmat, with_random_weights, RmatParams};
use lighttraffic::graph::Csr;
use std::sync::Arc;

const SEED: u64 = 42;

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            seed: 17,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn lt_visits(
    g: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    walks: u64,
    cfg: EngineConfig,
) -> Vec<u64> {
    let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("fits");
    e.run(walks)
        .expect("completes")
        .visit_counts
        .expect("tracked")
}

#[test]
fn every_system_produces_identical_pagerank_visits() {
    let g = graph();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(12, 0.15));
    let walks = 3_000u64;

    let reference = cpu::run_walk_centric(&g, &alg, walks, SEED, 1)
        .visits
        .unwrap();

    // LightTraffic, several policy corners.
    let configs = [
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::baseline(16 << 10, 4)
        },
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
        EngineConfig {
            batch_capacity: 100,
            seed: SEED,
            zero_copy: ZeroCopyPolicy::Always,
            reshuffle: ReshuffleMode::DirectWrite,
            ..EngineConfig::baseline(64 << 10, 2)
        },
    ];
    for (i, cfg) in configs.into_iter().enumerate() {
        assert_eq!(
            lt_visits(&g, &alg, walks, cfg),
            reference,
            "LightTraffic config {i} diverged"
        );
    }

    // Subway-like.
    let sub = run_subway(
        &g,
        &alg,
        walks,
        &SubwayConfig {
            seed: SEED,
            ..Default::default()
        },
    );
    assert_eq!(sub.visits.unwrap(), reference, "subway diverged");

    // In-GPU-memory.
    let ig = run_in_gpu_memory(&g, &alg, walks, GpuConfig::default(), SEED).unwrap();
    assert_eq!(ig.visits.unwrap(), reference, "in-gpu diverged");

    // Multi-round.
    let mr = run_multi_round(
        g.clone(),
        alg.clone(),
        walks,
        4,
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    )
    .unwrap();
    assert_eq!(mr.visit_counts.unwrap(), reference, "multi-round diverged");
}

#[test]
fn ppr_single_source_agrees_across_systems() {
    let g = graph();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(Ppr::from_highest_degree(&g, 0.2));
    let walks = 4_000u64;
    let reference = cpu::run_walk_centric(&g, &alg, walks, SEED, 2)
        .visits
        .unwrap();
    let lt = lt_visits(
        &g,
        &alg,
        walks,
        EngineConfig {
            batch_capacity: 128,
            seed: SEED,
            ..EngineConfig::light_traffic(8 << 10, 6)
        },
    );
    assert_eq!(lt, reference);
    let sub = run_subway(
        &g,
        &alg,
        walks,
        &SubwayConfig {
            seed: SEED,
            ..Default::default()
        },
    );
    assert_eq!(sub.visits.unwrap(), reference);
}

#[test]
fn uniform_walks_conserve_steps_everywhere() {
    let g = graph();
    let len = 16u32;
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(len));
    let walks = 2_000u64;
    let expect = walks * len as u64;
    let mut e = LightTraffic::new(
        g.clone(),
        alg.clone(),
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    )
    .unwrap();
    let lt = e.run(walks).unwrap();
    assert_eq!(lt.metrics.total_steps, expect);
    assert_eq!(lt.metrics.finished_walks, walks);
    let c1 = cpu::run_walk_centric(&g, &alg, walks, SEED, 2);
    assert_eq!(c1.metrics.total_steps, expect);
    let ig = run_in_gpu_memory(&g, &alg, walks, GpuConfig::default(), SEED).unwrap();
    assert_eq!(ig.metrics.total_steps, expect);
    let sub = run_subway(
        &g,
        &alg,
        walks,
        &SubwayConfig {
            seed: SEED,
            ..Default::default()
        },
    );
    assert_eq!(sub.metrics.total_steps, expect);
}

#[test]
fn weighted_walks_run_out_of_memory_and_agree_with_cpu() {
    let g = Arc::new(with_random_weights(&graph(), 5));
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(WeightedWalk::new(10));
    let walks = 1_000u64;
    let mut e = LightTraffic::new(
        g.clone(),
        alg.clone(),
        EngineConfig {
            batch_capacity: 128,
            seed: SEED,
            ..EngineConfig::light_traffic(32 << 10, 3)
        },
    )
    .unwrap();
    let lt = e.run(walks).unwrap();
    assert_eq!(lt.metrics.finished_walks, walks);
    let c = cpu::run_walk_centric(&g, &alg, walks, SEED, 1);
    assert_eq!(c.metrics.total_steps, lt.metrics.total_steps);
}

#[test]
fn second_order_walks_complete_under_all_policies() {
    let g = graph();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(SecondOrderWalk::new(12, 0.5));
    for cfg in [
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::baseline(16 << 10, 4)
        },
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    ] {
        let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).unwrap();
        let r = e.run(1_500).unwrap();
        assert_eq!(r.metrics.finished_walks, 1_500);
        assert_eq!(r.metrics.total_steps, 1_500 * 12);
    }
    // Second-order trajectories are also schedule-independent because the
    // previous vertex travels with the walker.
    let a = {
        let mut e = LightTraffic::new(
            g.clone(),
            alg.clone(),
            EngineConfig {
                batch_capacity: 64,
                seed: SEED,
                ..EngineConfig::baseline(8 << 10, 2)
            },
        )
        .unwrap();
        e.run(1_500).unwrap().metrics.total_steps
    };
    let b = cpu::run_walk_centric(&g, &alg, 1_500, SEED, 2)
        .metrics
        .total_steps;
    assert_eq!(a, b);
}

#[test]
fn results_are_reproducible_across_runs() {
    let g = graph();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));
    let run = || {
        let mut e = LightTraffic::new(
            g.clone(),
            alg.clone(),
            EngineConfig {
                batch_capacity: 256,
                seed: SEED,
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
        )
        .unwrap();
        e.run(2_000).unwrap()
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.visit_counts, r2.visit_counts);
    assert_eq!(r1.metrics.total_steps, r2.metrics.total_steps);
    // The simulated timeline is deterministic too (0% relative stddev).
    assert_eq!(r1.metrics.makespan_ns, r2.metrics.makespan_ns);
    assert_eq!(r1.metrics.iterations, r2.metrics.iterations);
}

#[test]
fn recorded_paths_are_valid_walks() {
    let g = graph();
    let len = 9u32;
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(len)),
        EngineConfig {
            batch_capacity: 128,
            seed: SEED,
            record_paths: true,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    )
    .unwrap();
    let walks = 800u64;
    let r = e.run(walks).unwrap();
    let paths = r.paths.expect("paths recorded");
    assert_eq!(paths.len(), walks as usize);
    for (id, path) in paths.iter().enumerate() {
        // Start vertex + one entry per step.
        assert_eq!(path.len(), 1 + len as usize, "walk {id}");
        assert_eq!(path[0], (id as u64 % g.num_vertices()) as u32);
        // Every hop follows a real edge.
        for hop in path.windows(2) {
            assert!(
                g.neighbors(hop[0]).contains(&hop[1]),
                "walk {id}: {} -> {} is not an edge",
                hop[0],
                hop[1]
            );
        }
    }
}

#[test]
fn visit_scores_normalize() {
    let g = graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(PageRank::new(10, 0.15)),
        EngineConfig {
            batch_capacity: 256,
            seed: SEED,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    )
    .unwrap();
    let r = e.run(2_000).unwrap();
    let scores = r.visit_scores().unwrap();
    let sum: f64 = scores.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9);
    assert!(scores.iter().all(|&s| (0.0..=1.0).contains(&s)));
}

#[test]
fn pipeline_genuinely_overlaps_transfer_and_compute() {
    // Figure 8's point, asserted: with the full pipeline, the makespan is
    // well below the sum of all busy time, and in the transfer-bound
    // regime it approaches max(transfer, compute) rather than their sum.
    let g = graph();
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(30)),
        EngineConfig {
            batch_capacity: 128,
            seed: SEED,
            gpu: GpuConfig {
                record_ops: true,
                ..GpuConfig::default()
            },
            ..EngineConfig::light_traffic(8 << 10, 6)
        },
    )
    .unwrap();
    let r = e.run(2 * g.num_vertices()).unwrap();
    let transfer = r.gpu.transmission_ns();
    let compute = r.gpu.computing_ns();
    let serial = transfer + compute;
    let overlapped = r.metrics.makespan_ns;
    assert!(
        overlapped < serial,
        "pipeline must overlap: makespan {overlapped} vs serial {serial}"
    );
    // The trace exporter handles a full engine run.
    let trace = lighttraffic::gpusim::trace::chrome_trace(e.gpu().op_log(), e.gpu().fault_log());
    let parsed: serde_json::Value = serde_json::from_str(&trace).unwrap();
    assert!(parsed.as_array().unwrap().len() > 10);
}

#[test]
fn repeated_runs_do_not_corrupt_recorded_paths() {
    let g = graph();
    let len = 6u32;
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(len)),
        EngineConfig {
            batch_capacity: 128,
            seed: SEED,
            record_paths: true,
            ..EngineConfig::light_traffic(16 << 10, 4)
        },
    )
    .unwrap();
    e.run(300).unwrap();
    let r2 = e.run(300).unwrap();
    // Ids restart at 0 each run: the second run's paths must replace the
    // first run's, not append to them.
    for path in r2.paths.unwrap() {
        assert_eq!(path.len(), 1 + len as usize);
    }
}
