//! Shared shrinkable generators for the integration-test binaries.
//!
//! `proptest_engine`, `proptest_graph`, and `differential` all sample the
//! same spaces — arbitrary graphs, arbitrary edge lists, and arbitrary
//! engine configurations. Keeping the strategies here means a widened knob
//! (say a new thread count) immediately widens every suite, and shrunk
//! counterexamples are comparable across suites.
//!
//! Each integration-test binary compiles this module independently and
//! uses a different subset of it.
#![allow(dead_code)]

use lighttraffic::baselines::evolving::Wave;
use lighttraffic::engine::{EdgeUpdate, EngineConfig, ReshuffleMode, RunResult, ZeroCopyPolicy};
use lighttraffic::gpusim::GpuConfig;
use lighttraffic::graph::builder::GraphBuilder;
use lighttraffic::graph::gen::{erdos_renyi, rmat, RmatParams};
use lighttraffic::graph::{Csr, PartitionedGraph, VertexId};
use proptest::prelude::*;
use std::sync::Arc;

/// Every engine knob the property suites vary. Plain data so proptest can
/// shrink it field-wise toward the all-minimal configuration.
#[derive(Clone, Debug)]
pub struct ArbConfig {
    pub partition_kb: u64,
    pub graph_pool: usize,
    pub batch_capacity: usize,
    pub preemptive: bool,
    pub selective: bool,
    pub zero_copy: u8,
    pub direct_reshuffle: bool,
    pub tight_walk_pool: bool,
    pub kernel_threads: usize,
}

/// Strategy over [`ArbConfig`]: small pools, both scheduling policies,
/// all zero-copy policies, both reshuffle modes, and thread counts 0–4
/// (0 = one per CPU; 1 steps every batch inline, more may fan kernels out
/// over the pool).
pub fn config_strategy() -> impl Strategy<Value = ArbConfig> {
    (
        4u64..64,
        1usize..8,
        8usize..512,
        any::<bool>(),
        any::<bool>(),
        0u8..3,
        any::<bool>(),
        any::<bool>(),
        0usize..5,
    )
        .prop_map(
            |(
                partition_kb,
                graph_pool,
                batch_capacity,
                preemptive,
                selective,
                zero_copy,
                direct_reshuffle,
                tight_walk_pool,
                kernel_threads,
            )| ArbConfig {
                partition_kb,
                graph_pool,
                batch_capacity,
                preemptive,
                selective,
                zero_copy,
                direct_reshuffle,
                tight_walk_pool,
                kernel_threads,
            },
        )
}

/// Strategy over small graphs: R-MAT (skewed) or Erdős–Rényi (uniform),
/// 256–2048 vertices.
pub fn graph_strategy() -> impl Strategy<Value = Arc<Csr>> {
    (8u32..12, 4u32..12, 0u64..1000, any::<bool>()).prop_map(|(scale, ef, seed, skewed)| {
        Arc::new(if skewed {
            rmat(RmatParams {
                scale,
                edge_factor: ef,
                seed,
                ..RmatParams::default()
            })
            .csr
        } else {
            erdos_renyi(1 << scale, (1u64 << scale) * ef as u64, seed).csr
        })
    })
}

/// Deterministic point in [`graph_strategy`]'s space for table-driven
/// suites (the differential battery sweeps `seed` instead of sampling):
/// R-MAT for even seeds, Erdős–Rényi for odd, 256–1024 vertices.
pub fn random_graph(seed: u64) -> Arc<Csr> {
    let scale = 8 + (seed % 3) as u32;
    let ef = 4 + seed % 7;
    Arc::new(if seed.is_multiple_of(2) {
        rmat(RmatParams {
            scale,
            edge_factor: ef as u32,
            seed,
            ..RmatParams::default()
        })
        .csr
    } else {
        erdos_renyi(1 << scale, (1u64 << scale) * ef, seed).csr
    })
}

/// Arbitrary edge list over up to 64 vertices (graph-substrate suites).
pub fn edges_strategy() -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0u32..64, 0u32..64), 1..300)
}

/// A shrinkable edge mutation before it is bound to a concrete graph:
/// `(src raw, dst raw, op discriminant, explicit timestamp)`. Bind with
/// [`materialize_update`] once the vertex count is known, so shrinking
/// stays meaningful across differently-sized sampled graphs.
pub type RawUpdate = (u32, u32, u8, Option<u32>);

/// Strategy over mutation schedules (see [`materialize_update`] for how
/// the discriminant splits into inserts and deletes).
pub fn raw_updates_strategy(max: usize) -> impl Strategy<Value = Vec<RawUpdate>> {
    prop::collection::vec(
        (any::<u32>(), any::<u32>(), 0u8..10, explicit_ts_strategy()),
        0..max,
    )
}

/// Edge-timestamp strategy for temporal graphs and timestamped inserts:
/// small values keep sliding windows selective instead of admitting every
/// edge.
pub fn timestamp_strategy() -> impl Strategy<Value = u32> {
    0u32..16
}

/// `None` half the time (epoch-stamped insert), an explicit small
/// timestamp otherwise.
fn explicit_ts_strategy() -> impl Strategy<Value = Option<u32>> {
    (any::<bool>(), timestamp_strategy()).prop_map(|(some, t)| some.then_some(t))
}

/// Bind a [`RawUpdate`] to `g`'s frozen vertex set. Discriminants 0–5
/// insert (carrying the explicit timestamp when one was sampled), 6–7
/// delete a *real* base edge of the source when it has any (exercising
/// actual removals on sparse graphs), and 8–9 delete an arbitrary pair
/// (usually an absent-edge no-op — its semantics matter too).
pub fn materialize_update(raw: &RawUpdate, g: &Csr) -> EdgeUpdate {
    let nv = g.num_vertices() as u32;
    let (src, dst) = (raw.0 % nv, raw.1 % nv);
    match raw.2 {
        0..=5 => match raw.3 {
            Some(t) => EdgeUpdate::insert_at(src, dst, t),
            None => EdgeUpdate::insert(src, dst),
        },
        6 | 7 => {
            let row = g.neighbors(src);
            if row.is_empty() {
                EdgeUpdate::delete(src, dst)
            } else {
                EdgeUpdate::delete(src, row[dst as usize % row.len()])
            }
        }
        _ => EdgeUpdate::delete(src, dst),
    }
}

/// Build a CSR from an arbitrary edge list; `None` when preprocessing
/// rejects it (every edge a self loop).
pub fn build_csr(edges: &[(VertexId, VertexId)]) -> Option<Csr> {
    GraphBuilder::new()
        .extend_edges(edges.iter().copied())
        .build()
        .ok()
        .map(|b| b.csr)
}

/// Materialize an [`ArbConfig`] against a concrete graph (the tight walk
/// pool floor depends on the partition count).
pub fn to_engine_config(c: &ArbConfig, g: &Arc<Csr>) -> EngineConfig {
    let partition_bytes = c.partition_kb << 10;
    let p = PartitionedGraph::build(g.clone(), partition_bytes).num_partitions() as usize;
    EngineConfig {
        partition_bytes,
        batch_capacity: c.batch_capacity,
        graph_pool_blocks: c.graph_pool,
        walk_pool_blocks: if c.tight_walk_pool {
            Some(2 * p + 1)
        } else {
            None
        },
        seed: 42,
        preemptive: c.preemptive,
        selective: c.selective,
        zero_copy: match c.zero_copy {
            0 => ZeroCopyPolicy::Never,
            1 => ZeroCopyPolicy::Always,
            _ => ZeroCopyPolicy::adaptive(),
        },
        reshuffle: if c.direct_reshuffle {
            ReshuffleMode::DirectWrite
        } else {
            ReshuffleMode::default()
        },
        record_iterations: false,
        record_paths: false,
        gpu: GpuConfig {
            record_ops: true,
            ..GpuConfig::default()
        },
        max_iterations: 10_000_000,
        kernel_threads: c.kernel_threads,
        // Attribution on across the whole differential battery: the
        // ledger is quarantined off the deterministic path (DESIGN.md
        // §14), so every fingerprint comparison in these sweeps doubles
        // as proof that tracing perturbs nothing.
        attribution: true,
        checkpoint_every: None,
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A seeded wave schedule over `g`'s frozen vertex set: each wave injects
/// `walks` walks and then seals a mix of inserts (some with explicit
/// timestamps on temporal graphs or explicit weights on weighted graphs,
/// the rest epoch-stamped at unit weight) and deletes
/// (half aimed at real base edges, half at arbitrary pairs whose absence
/// makes them no-ops — both sides must agree on no-op semantics too).
pub fn schedule(
    g: &Csr,
    schedule_seed: u64,
    waves: usize,
    per_wave: usize,
    walks: u64,
) -> Vec<Wave> {
    let nv = g.num_vertices();
    let mut state = schedule_seed | 1;
    (0..waves)
        .map(|_| {
            let updates = (0..per_wave)
                .map(|_| {
                    let src = (xorshift(&mut state) % nv) as VertexId;
                    let dst = (xorshift(&mut state) % nv) as VertexId;
                    match xorshift(&mut state) % 10 {
                        0..=4 => EdgeUpdate::insert(src, dst),
                        5 if g.is_temporal() => {
                            EdgeUpdate::insert_at(src, dst, (xorshift(&mut state) % 16) as u32)
                        }
                        5 if g.is_weighted() => EdgeUpdate {
                            weight: Some((1 + xorshift(&mut state) % 8) as f32 / 8.0),
                            ..EdgeUpdate::insert(src, dst)
                        },
                        5 => EdgeUpdate::insert(src, dst),
                        6 | 7 => {
                            // Aim at a real edge of `src` when it has any.
                            let row = g.neighbors(src);
                            if row.is_empty() {
                                EdgeUpdate::delete(src, dst)
                            } else {
                                let k = (xorshift(&mut state) as usize) % row.len();
                                EdgeUpdate::delete(src, row[k])
                            }
                        }
                        _ => EdgeUpdate::delete(src, dst),
                    }
                })
                .collect();
            Wave { walks, updates }
        })
        .collect()
}

/// Per-vertex visit counts from recorded paths (start vertex excluded; a
/// visit is a step target), the engine-side fingerprint.
pub fn visits_from_paths(r: &RunResult, nv: u64) -> Vec<u64> {
    let mut counts = vec![0u64; nv as usize];
    for path in r.paths.as_ref().expect("paths were recorded") {
        for &v in path.iter().skip(1) {
            counts[v as usize] += 1;
        }
    }
    counts
}
