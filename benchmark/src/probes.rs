//! Isolated micro-loops, one layer each, run after the measured phase of
//! the traced pass. They answer "how fast is this layer alone?", which
//! the budget line (shares of a whole run) cannot.

use lt_engine::reshuffle::partition_groups;
use lt_engine::{host_step, WalkAlgorithm, Walker};
use lt_graph::{Csr, OocGraph, PartitionedGraph, VertexId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const PASSES: u32 = 3;

/// Uncompressed GB/s over three full `decode_partition` passes.
pub fn decode_gbps(ooc: &OocGraph) -> Result<f64, String> {
    let t = Instant::now();
    for _ in 0..PASSES {
        for p in 0..ooc.num_partitions() {
            black_box(ooc.decode_partition(p).map_err(|e| e.to_string())?);
        }
    }
    Ok((ooc.uncompressed_bytes() * PASSES as u64) as f64 / 1e9 / t.elapsed().as_secs_f64())
}

/// The partitioning, `PartitionedGraph::build` seconds, and extract GB/s
/// over all partitions.
pub fn partition_probe(g: &Arc<Csr>, partition_bytes: u64) -> (PartitionedGraph, f64, f64) {
    let t = Instant::now();
    let pg = PartitionedGraph::build(g.clone(), partition_bytes);
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut bytes = 0u64;
    for _ in 0..PASSES {
        for p in 0..pg.num_partitions() {
            bytes += black_box(pg.extract(p)).bytes();
        }
    }
    let extract_gbps = bytes as f64 / 1e9 / t.elapsed().as_secs_f64();
    (pg, build_s, extract_gbps)
}

/// Nanoseconds per `host_step` on one thread: up to 64 Ki walkers spread
/// over the vertices, 16 steps each, same graph and algorithm as the run.
pub fn host_step_ns(g: &Csr, alg: &dyn WalkAlgorithm, seed: u64) -> f64 {
    let mut walkers = alg.initial_walkers(g, g.num_vertices().min(1 << 16));
    let mut steps = 0u64;
    let t = Instant::now();
    for _ in 0..16 {
        for w in &mut walkers {
            if host_step(g, alg, w, seed).target().is_some() {
                steps += 1;
            }
        }
    }
    black_box(&walkers);
    t.elapsed().as_nanos() as f64 / steps.max(1) as f64
}

/// Nanoseconds per mover of the reshuffle's grouping step: one walker per
/// vertex, scattered pseudo-randomly, grouped by target partition.
pub fn groups_ns_per_mover(pg: &PartitionedGraph) -> f64 {
    let nv = pg.num_vertices();
    let movers: Vec<Walker> = (0..nv)
        .map(|i| Walker::new(i, (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % nv) as VertexId))
        .collect();
    let mut samples = Vec::new();
    for _ in 0..5 {
        let input = movers.clone();
        let t = Instant::now();
        black_box(partition_groups(
            input,
            &|w: &Walker| pg.partition_of(w.vertex),
            pg.num_partitions(),
        ));
        samples.push(t.elapsed().as_nanos() as f64 / nv as f64);
    }
    crate::stats::median(&samples)
}
