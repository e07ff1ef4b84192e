//! Engine edge cases: degenerate workloads, extreme configurations, and
//! boundary conditions that the main paths never hit.

use lt_engine::algorithm::{PageRank, Ppr, UniformSampling};
use lt_engine::walker::Walker;
use lt_engine::{EngineConfig, EngineError, LightTraffic, ZeroCopyPolicy};
use lt_graph::gen::{erdos_renyi, rmat, RmatParams};
use lt_graph::oocore::write_oocore;
use lt_graph::{Csr, GraphBuilder, GraphError, GraphStore, OocGraph, PartitionedGraph};
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

/// A corrupt out-of-core file ends the run in a typed error, never a
/// panic: in a 12-vertex ring, one bit flipped in the payload where
/// vertex 0's first neighbor is stored fails its chunk's checksum before
/// any neighbor is decoded.
#[test]
fn a_corrupt_ooc_chunk_fails_the_run() {
    let n = 12u32;
    let edges = (0..n)
        .flat_map(|v| {
            let (lo, hi) = ((v + 1) % n, (v + n - 1) % n);
            [lo.min(hi), lo.max(hi)]
        })
        .collect();
    let ring = Csr::new((0..=u64::from(n)).map(|v| 2 * v).collect(), edges, None).unwrap();
    let path = std::env::temp_dir().join(format!("lt_edge_ring_{}.ltg", std::process::id()));
    write_oocore(&PartitionedGraph::build(Arc::new(ring), 64), &path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // `LTOOCGR2` (oocore.rs): a 37-byte fixed header with the partition
    // count P at byte 25, then P + 1 u32 boundaries, P u64 partition
    // sizes, P u64 edge counts and P + 1 u64 region offsets. Region 0 is
    // a u32 chunk count and one 24-byte chunk entry, then its one chunk:
    // the degree block (width 2, 16 bytes), then the neighbor block's
    // width 5 and vertex 0's zigzag(+1) = 2 in its low bits.
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let p = u32::from_le_bytes(bytes[25..29].try_into().unwrap()) as usize;
    let chunk = u64_at(37 + 4 * (p + 1) + 16 * p) as usize + 4 + 24;
    assert_eq!(bytes[chunk + 17], 5);
    assert_eq!(bytes[chunk + 18] & 0x1f, 2);
    bytes[chunk + 18] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();
    let store = GraphStore::OutOfCore(Arc::new(OocGraph::open(&path).unwrap()));
    let run = LightTraffic::from_store(
        store,
        Arc::new(UniformSampling::new(8)),
        EngineConfig::light_traffic(1 << 20, 1),
    )
    .and_then(|mut e| e.run(64));
    std::fs::remove_file(&path).ok();
    assert!(
        matches!(
            run,
            Err(EngineError::Graph(GraphError::Corrupt {
                partition: 0,
                chunk: 0
            }))
        ),
        "{:?}",
        run.err()
    );
}
