//! Engine edge cases: degenerate workloads, extreme configurations, and
//! boundary conditions that the main paths never hit.

use lt_engine::algorithm::{PageRank, Ppr, UniformSampling};
use lt_engine::walker::Walker;
use lt_engine::{EngineConfig, LightTraffic, ZeroCopyPolicy};
use lt_graph::gen::{erdos_renyi, rmat, RmatParams};
use lt_graph::{Csr, GraphBuilder};
use std::sync::Arc;

fn small_graph() -> Arc<Csr> {
    Arc::new(erdos_renyi(256, 2048, 9).csr)
}

#[test]
fn zero_walks_is_a_clean_noop() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(10)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .unwrap();
    let r = e.run(0).unwrap();
    assert_eq!(r.metrics.iterations, 0);
    assert_eq!(r.metrics.total_steps, 0);
    assert_eq!(r.metrics.finished_walks, 0);
    assert_eq!(r.gpu.h2d_bytes(), 0);
}

#[test]
fn zero_length_walks_terminate_immediately() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(0)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .unwrap();
    let r = e.run(500).unwrap();
    assert_eq!(r.metrics.finished_walks, 500);
    assert_eq!(r.metrics.total_steps, 0);
}

#[test]
fn single_walker_completes() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(100)),
        EngineConfig {
            batch_capacity: 1,
            ..EngineConfig::light_traffic(4 << 10, 2)
        },
    )
    .unwrap();
    e.inject(vec![Walker::new(0, 5)]);
    let r = e.finish().unwrap();
    assert_eq!(r.metrics.finished_walks, 1);
    assert_eq!(r.metrics.total_steps, 100);
}

#[test]
fn batch_capacity_one_works() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(5)),
        EngineConfig {
            batch_capacity: 1,
            ..EngineConfig::light_traffic(8 << 10, 2)
        },
    )
    .unwrap();
    let r = e.run(200).unwrap();
    assert_eq!(r.metrics.finished_walks, 200);
    assert_eq!(r.metrics.total_steps, 1000);
}

#[test]
fn two_vertex_graph_walks_bounce() {
    // Smallest legal graph: a single undirected edge.
    let g = Arc::new(GraphBuilder::new().add_edge(0, 1).build().unwrap().csr);
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(7)),
        EngineConfig {
            batch_capacity: 4,
            ..EngineConfig::light_traffic(1 << 20, 1)
        },
    )
    .unwrap();
    let r = e.run(10).unwrap();
    assert_eq!(r.metrics.finished_walks, 10);
    assert_eq!(r.metrics.total_steps, 70);
}

#[test]
fn ppr_with_stop_probability_one_never_moves() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(Ppr::new(0, 1.0)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .unwrap();
    let r = e.run(1_000).unwrap();
    assert_eq!(r.metrics.finished_walks, 1_000);
    assert_eq!(r.metrics.total_steps, 0);
}

#[test]
fn pagerank_with_restart_probability_one_teleports_every_step() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(PageRank::new(5, 1.0)),
        EngineConfig {
            batch_capacity: 64,
            ..EngineConfig::light_traffic(8 << 10, 2)
        },
    )
    .unwrap();
    let r = e.run(2_000).unwrap();
    assert_eq!(r.metrics.total_steps, 10_000);
    // Teleports are uniform: visit counts should be roughly flat.
    let visits = r.visit_counts.unwrap();
    let max = *visits.iter().max().unwrap() as f64;
    let mean = visits.iter().sum::<u64>() as f64 / visits.len() as f64;
    assert!(max < mean * 3.0, "teleports should be near-uniform");
}

#[test]
fn graph_pool_of_one_block_still_completes() {
    let g = Arc::new(
        rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: 4,
            ..RmatParams::default()
        })
        .csr,
    );
    let mut e = LightTraffic::new(
        g,
        Arc::new(UniformSampling::new(12)),
        EngineConfig {
            batch_capacity: 64,
            ..EngineConfig::light_traffic(8 << 10, 1)
        },
    )
    .unwrap();
    let r = e.run(1_000).unwrap();
    assert_eq!(r.metrics.finished_walks, 1_000);
    // One block => practically every scheduled partition misses.
    assert!(r.metrics.graph_pool_hit_rate() < 0.5);
}

#[test]
fn adaptive_alpha_extremes_pick_one_side() {
    // alpha = 1 (the smallest legal value; 0 is rejected at construction)
    // keeps `alpha * w` below every partition's size here, so zero copy
    // is always chosen for non-resident partitions. Conversely alpha =
    // u64::MAX never chooses it. Exercise both extremes.
    let g = small_graph();
    for (alpha, expect_zc) in [(1u64, true), (u64::MAX, false)] {
        let mut e = LightTraffic::new(
            g.clone(),
            Arc::new(UniformSampling::new(6)),
            EngineConfig {
                batch_capacity: 64,
                zero_copy: ZeroCopyPolicy::Adaptive { alpha },
                ..EngineConfig::baseline(4 << 10, 2)
            },
        )
        .unwrap();
        let r = e.run(500).unwrap();
        assert_eq!(r.metrics.finished_walks, 500);
        assert_eq!(
            r.metrics.zero_copy_kernels > 0,
            expect_zc,
            "alpha {alpha}: zc kernels {}",
            r.metrics.zero_copy_kernels
        );
    }
}

#[test]
fn walkers_can_start_anywhere_not_just_spread() {
    let g = small_graph();
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(4)),
        EngineConfig {
            batch_capacity: 16,
            ..EngineConfig::light_traffic(4 << 10, 2)
        },
    )
    .unwrap();
    // All walkers on the last vertex.
    let last = (g.num_vertices() - 1) as u32;
    let walkers: Vec<Walker> = (0..300).map(|i| Walker::new(i, last)).collect();
    e.inject(walkers);
    let r = e.finish().unwrap();
    assert_eq!(r.metrics.finished_walks, 300);
    assert_eq!(r.metrics.total_steps, 1200);
}

#[test]
fn length_histogram_distinguishes_fixed_from_geometric() {
    let g = small_graph();
    // Fixed length 16: exactly one bucket (index 4).
    let mut e = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(16)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .unwrap();
    let fixed = e.run(500).unwrap().metrics.length_histogram;
    assert_eq!(fixed.iter().sum::<u64>(), 500);
    assert_eq!(fixed[4], 500);
    assert!(fixed.iter().enumerate().all(|(i, &c)| i == 4 || c == 0));
    // Geometric: spread across buckets.
    let mut e = LightTraffic::new(
        g,
        Arc::new(Ppr::new(0, 0.25)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .unwrap();
    let geo = e.run(2_000).unwrap().metrics.length_histogram;
    assert_eq!(geo.iter().sum::<u64>(), 2_000);
    assert!(geo.iter().filter(|&&c| c > 0).count() >= 3, "{geo:?}");
}
