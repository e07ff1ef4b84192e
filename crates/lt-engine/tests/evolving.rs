//! Evolving-graph acceptance tests (DESIGN.md §15): epoch-sealed mutation
//! visibility, seals reloading exactly the dirty resident partitions,
//! reload traffic exactness in the ledger, epoch-pinned checkpoints, and the
//! epoch-barrier budget regression (a seal landing exactly on a
//! `LightTraffic::step` boundary neither double-charges nor skips scheduler
//! iterations).

use lt_engine::algorithm::{PageRank, UniformSampling};
use lt_engine::{EdgeOp, EdgeUpdate, EngineConfig, EngineError, LightTraffic, RunStatus};
use lt_graph::gen::{locality_mutations, rmat, RmatParams};
use lt_graph::{Csr, PartitionedGraph, VertexId};
use lt_telemetry::SHARED_TAG;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0`: every vertex has exactly
/// one out-edge, so a uniform walk's trajectory is forced and any change
/// in behavior is attributable to the mutation under test.
fn cycle(n: u32) -> Arc<Csr> {
    let offsets = (0..=n as u64).collect();
    let edges = (0..n).map(|v| (v + 1) % n).collect();
    Arc::new(Csr::new(offsets, edges, None).unwrap())
}

fn skewed() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: 11,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn cfg() -> EngineConfig {
    EngineConfig {
        batch_capacity: 128,
        record_paths: true,
        attribution: true,
        ..EngineConfig::light_traffic(8 << 10, 4)
    }
}

/// Buffered mutations stay invisible through a full wave; sealing at the
/// inter-wave barrier flips the very next wave onto the new adjacency.
#[test]
fn mutations_invisible_until_sealed_at_the_barrier() {
    let g = cycle(64);
    let mut s = LightTraffic::new(g, Arc::new(UniformSampling::new(4)), cfg()).expect("pools fit");

    s.inject_walks(1); // walker 0 starts at vertex 0
    let r = s.finish().expect("wave completes");
    let forced = vec![0u32, 1, 2, 3, 4];
    assert_eq!(r.paths.as_ref().unwrap()[0], forced);

    // Rewire vertex 1 from `1 -> 2` to `1 -> 0` — but do not seal yet.
    let pending = s
        .mutate(vec![EdgeUpdate::delete(1, 2), EdgeUpdate::insert(1, 0)])
        .expect("valid updates");
    assert_eq!(pending, 2);
    s.inject_walks(1);
    let r = s.finish().expect("wave completes");
    assert_eq!(
        r.paths.as_ref().unwrap()[0],
        forced,
        "unsealed mutations leaked into a wave"
    );

    let summary = s.seal_epoch().expect("seal succeeds");
    assert_eq!(summary.epoch, 1);
    assert_eq!((summary.inserted, summary.deleted), (1, 1));
    assert_eq!(summary.dirty_vertices, 1);
    assert_eq!(s.epoch(), 1);

    s.inject_walks(1);
    let r = s.finish().expect("wave completes");
    assert_eq!(
        r.paths.as_ref().unwrap()[0],
        vec![0u32, 1, 0, 1, 0],
        "sealed mutation not visible to the next wave"
    );
}

/// A seal re-copies exactly the resident partitions it dirtied — strictly
/// fewer bytes than the resident set holds — over several epochs of a
/// clustered insert stream. The graph pool has a block per partition, so
/// nothing is evicted and "resident" is every partition the ledger saw a
/// graph load for (small waves: the adaptive policy serves the light
/// partitions zero-copy, so some stay out). Walk output under mutation is
/// pinned by `tests/differential_evolving.rs` against the naive reference.
#[test]
fn a_seal_reloads_exactly_the_dirty_resident_partitions() {
    let g = skewed();
    let p = PartitionedGraph::build(g.clone(), 8 << 10).num_partitions();
    let mut s = LightTraffic::new(
        g.clone(),
        Arc::new(UniformSampling::new(8)),
        EngineConfig {
            attribution: true,
            ..EngineConfig::light_traffic(8 << 10, p as usize)
        },
    )
    .expect("pools fit");
    let mut state = 0x5EED_u64;
    let mut reloaded = 0;
    for _ in 0..4 {
        s.inject_walks(96);
        s.finish().expect("wave completes");
        let ledger = s.traffic_ledger().expect("attribution is on");
        let resident: BTreeSet<u32> = ledger
            .cells()
            .filter(|c| c.tag == SHARED_TAG && c.h2d_bytes > 0)
            .map(|c| c.partition)
            .collect();
        // Inserts only: each one dirties its source's partition.
        let mut updates = locality_mutations(&g, g.num_edges() / 100, 1.0 / 16.0, &mut state);
        updates.retain(|u| u.op == EdgeOp::Insert);
        let pg = s.partitions();
        let dirty: BTreeSet<u32> = updates.iter().map(|u| pg.partition_of(u.src)).collect();
        s.mutate(updates).unwrap();
        let summary = s.seal_epoch().expect("seal succeeds");

        // Sizes after the seal: a dirty block is reloaded at its new size.
        let pg = s.partitions();
        let bytes_of =
            |set: &BTreeSet<u32>| set.iter().map(|&p| pg.partition_bytes(p)).sum::<u64>();
        let expected: BTreeSet<u32> = resident.intersection(&dirty).copied().collect();
        assert_eq!(summary.dirty_partitions, dirty.len() as u64);
        assert_eq!(summary.reloaded_partitions, expected.len() as u64);
        assert_eq!(summary.reload_bytes, bytes_of(&expected));
        assert!(
            summary.reload_bytes < bytes_of(&resident),
            "{} of {} resident partitions dirty: the seal must undercut a full refresh",
            expected.len(),
            resident.len()
        );
        reloaded += expected.len();
    }
    assert!(reloaded > 0, "no seal dirtied a resident partition");
}

/// Reload traffic obeys the ledger exactness invariant (DESIGN.md §14):
/// summed over all cells, reload bytes equal the device's GraphReload
/// category and the engine's own counter, they land exclusively on the
/// shared tag, and the established H2D/D2H equalities are undisturbed.
#[test]
fn reload_traffic_is_exact_in_the_ledger() {
    let g = skewed();
    let nv = g.num_vertices() as VertexId;
    let mut s = LightTraffic::new(g, Arc::new(UniformSampling::new(8)), cfg()).expect("pools fit");
    for round in 0..3u32 {
        s.inject_walks(256);
        s.finish().expect("wave completes");
        s.mutate(vec![
            EdgeUpdate::insert(round % nv, (round * 7 + 1) % nv),
            EdgeUpdate::delete((round * 13) % nv, (round * 3) % nv),
        ])
        .unwrap();
        let summary = s.seal_epoch().expect("seal succeeds");
        assert_eq!(summary.epoch, u64::from(round) + 1);
    }

    let stats = s.gpu().stats();
    let ledger = s.traffic_ledger().expect("attribution is on");
    let (mut h2d, mut d2h, mut reload, mut shared_reload) = (0u64, 0u64, 0u64, 0u64);
    for cell in ledger.cells() {
        h2d += cell.h2d_bytes;
        d2h += cell.d2h_bytes;
        reload += cell.reload_bytes;
        if cell.tag == SHARED_TAG {
            shared_reload += cell.reload_bytes;
        }
    }
    assert!(reload > 0, "three dirty seals must move reload traffic");
    assert_eq!(reload, stats.reload_bytes(), "ledger reload != device");
    assert_eq!(reload, ledger.reload_bytes(), "total disagrees with cells");
    assert_eq!(reload, s.metrics().reload_bytes);
    assert_eq!(shared_reload, reload, "reloads must land on the shared tag");
    assert_eq!(h2d, stats.h2d_bytes(), "reloads contaminated H2D cells");
    assert_eq!(d2h, stats.d2h_bytes(), "reloads contaminated D2H cells");
}

/// A checkpoint is pinned to the graph epoch it was taken at: restoring it
/// after the graph has moved on is refused (walker state refers to an
/// adjacency that no longer exists).
#[test]
fn restore_rejects_checkpoints_from_older_epochs() {
    let g = skewed();
    let mut s = LightTraffic::new(g, Arc::new(UniformSampling::new(8)), cfg()).expect("pools fit");
    s.inject_walks(512);
    match s.step(2).expect("slice runs") {
        RunStatus::Paused => {}
        other => panic!("walks must stay live under a tiny budget, got {other:?}"),
    }
    let cp = s.checkpoint();
    assert_eq!(cp.epoch, 0);
    s.seal_epoch().expect("empty seal");
    match s.restore(cp) {
        Err(EngineError::EpochMismatch { checkpoint, engine }) => {
            assert_eq!((checkpoint, engine), (0, 1));
        }
        other => panic!("stale-epoch restore must fail, got {other:?}"),
    }
}

/// An empty seal advances the epoch clock but touches nothing on the
/// device: no partitions reload, no bytes move.
#[test]
fn empty_seal_advances_epoch_without_traffic() {
    let g = skewed();
    let mut s = LightTraffic::new(g, Arc::new(UniformSampling::new(8)), cfg()).expect("pools fit");
    s.inject_walks(256);
    s.finish().expect("wave completes");
    let before = s.gpu().stats().reload_bytes();
    let summary = s.seal_epoch().expect("empty seal");
    assert_eq!(summary.epoch, 1);
    assert_eq!(summary.reloaded_partitions, 0);
    assert_eq!(summary.reload_bytes, 0);
    assert_eq!(s.gpu().stats().reload_bytes(), before);
    assert_eq!(s.epoch(), 1);
}

/// The epoch-barrier budget regression: a seal landing exactly on every
/// `LightTraffic::step` pause — including seals that reload a resident
/// partition — must neither double-charge nor skip scheduler iterations,
/// and must leave trajectories identical to a run that never seals
/// (the sealed schedule is a net no-op: insert an absent edge, delete it
/// in the same epoch, so the adjacency round-trips while the partition
/// still goes stale and re-copies).
#[test]
fn seals_on_step_boundaries_never_double_charge_or_skip() {
    let g = skewed();
    // A no-op mutation pair needs an edge absent from its source row.
    let (src, dst) = (0..g.num_vertices() as VertexId)
        .find_map(|a| {
            let row = g.neighbors(a);
            (0..g.num_vertices() as VertexId)
                .find(|b| !row.contains(b))
                .map(|b| (a, b))
        })
        .expect("some vertex misses some edge");

    let total = 600u64;
    let reference = {
        let mut s = LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg())
            .expect("pools fit");
        s.inject_walks(total);
        s.finish().expect("wave completes")
    };

    for budget in [1u64, 2, 3, 5, 8, 13, 64] {
        let mut s = LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg())
            .expect("pools fit");
        s.inject_walks(total);
        let mut pauses = 0u64;
        let r = loop {
            match s.step(budget).unwrap() {
                RunStatus::Paused => {
                    pauses += 1;
                    assert_eq!(
                        s.active_walks() + s.metrics().finished_walks,
                        total,
                        "budget {budget}: conservation broke at pause {pauses}"
                    );
                    s.mutate(vec![
                        EdgeUpdate::insert(src, dst),
                        EdgeUpdate::delete(src, dst),
                    ])
                    .unwrap();
                    let summary = s.seal_epoch().expect("barrier seal");
                    assert_eq!(summary.epoch, pauses, "epoch clock drifted from seals");
                    assert_eq!(summary.dirty_vertices, 1);
                    assert!(pauses < 1_000_000, "budget {budget}: runaway run");
                }
                RunStatus::Completed(r) => break r,
                other => panic!("unexpected status {other:?}"),
            }
        };
        assert_eq!(r.metrics.finished_walks, total, "budget {budget}");
        assert_eq!(r.metrics.total_steps, reference.metrics.total_steps);
        assert_eq!(
            r.metrics.iterations, reference.metrics.iterations,
            "budget {budget}: barrier seals changed the iteration count"
        );
        assert_eq!(
            r.visit_counts, reference.visit_counts,
            "budget {budget}: no-op seals perturbed trajectories"
        );
        if budget == 1 {
            // step(1) runs exactly one iteration per call: more pauses
            // would mean an iteration ran without progress (double
            // charge), fewer that the seal's reload swallowed one (skip).
            assert_eq!(pauses, reference.metrics.iterations - 1);
        }
    }
}
