//! A GraphWalker-like disk-based CPU random walk engine.
//!
//! GraphWalker (ATC '20) and DrunkardMob (RecSys '13) run massive walks on
//! graphs that exceed DRAM by keeping the graph on disk and loading one
//! partition ("block") at a time, choosing the block with the most walks
//! and walking every resident walk as far as it can go inside the block —
//! the design LightTraffic's partition-centric scheduling descends from
//! (§II-B credits GraphWalker for the partial-walk-index idea).
//!
//! Unlike the simulated GPU systems, this baseline does *real I/O*: the
//! graph lives in a [`lt_graph::io::DiskGraph`] file and every partition
//! read is an actual seek + read, so its measured throughput reflects the
//! storage stack it runs on.

use lt_engine::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use lt_engine::walker::Walker;
use lt_graph::io::DiskGraph;
use lt_graph::GraphError;
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Result of a disk-based run.
#[derive(Clone, Debug, Serialize)]
pub struct DiskWalkerResult {
    /// Total steps executed.
    pub total_steps: u64,
    /// Walks finished.
    pub finished_walks: u64,
    /// Partition loads performed (each is a real seek + read).
    pub partition_loads: u64,
    /// Bytes read from disk.
    pub bytes_read: u64,
    /// Host wall-clock seconds, I/O included.
    pub wall_seconds: f64,
    /// Visit counts when tracked.
    pub visit_counts: Option<Vec<u64>>,
}

impl DiskWalkerResult {
    /// Measured steps per second on this host.
    pub fn throughput(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            0.0
        } else {
            self.total_steps as f64 / self.wall_seconds
        }
    }
}

/// Run `num_walks` walks of `alg` against the partitioned graph file at
/// `path`, GraphWalker-style: always load the partition holding the most
/// walks, then walk each resident walk until it leaves the partition or
/// terminates.
pub fn run_disk_walker(
    path: impl AsRef<Path>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    seed: u64,
) -> Result<DiskWalkerResult, GraphError> {
    let mut dg = DiskGraph::open(path)?;
    let p = dg.num_partitions() as usize;
    let nv = dg.num_vertices();

    let mut buckets: Vec<Vec<Walker>> = vec![Vec::new(); p];
    let mut active = 0u64;
    for w in alg.place_walkers(nv, num_walks) {
        buckets[dg.partition_of(w.vertex) as usize].push(w);
        active += 1;
    }
    let mut visit_counts = alg.tracks_visits().then(|| vec![0u64; nv as usize]);

    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut partition_loads = 0u64;
    let mut bytes_read = 0u64;
    let start = Instant::now();
    while active > 0 {
        // GraphWalker's scheduling: the block with the most walks.
        let part = (0..p)
            .max_by_key(|&i| buckets[i].len())
            .expect("partitions exist");
        debug_assert!(!buckets[part].is_empty());
        let data = dg.read_partition(part as u32)?;
        partition_loads += 1;
        bytes_read += dg.partition_bytes(part as u32);
        let mut outgoing: Vec<Walker> = Vec::new();
        for mut w in buckets[part].drain(..) {
            loop {
                let ctx = StepContext {
                    neighbors: data.neighbors(w.vertex),
                    weights: data.neighbor_weights(w.vertex),
                    prev_neighbors: (w.aux != u32::MAX && data.contains(w.aux))
                        .then(|| data.neighbors(w.aux)),
                    timestamps: data.neighbor_timestamps(w.vertex),
                    num_vertices: nv,
                };
                let d = alg.step(&w, ctx, seed);
                match d {
                    StepDecision::Terminate => {
                        finished += 1;
                        active -= 1;
                        break;
                    }
                    StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                        total_steps += 1;
                        d.advance(&mut w);
                        if let Some(c) = visit_counts.as_mut() {
                            c[v as usize] += 1;
                        }
                        if !data.contains(v) {
                            outgoing.push(w);
                            break;
                        }
                    }
                }
            }
        }
        for w in outgoing {
            buckets[dg.partition_of(w.vertex) as usize].push(w);
        }
    }
    Ok(DiskWalkerResult {
        total_steps,
        finished_walks: finished,
        partition_loads,
        bytes_read,
        wall_seconds: start.elapsed().as_secs_f64(),
        visit_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::{PageRank, UniformSampling};
    use lt_graph::gen::{rmat, RmatParams};
    use lt_graph::io::write_partitioned;
    use lt_graph::{Csr, PartitionedGraph};

    fn setup(name: &str) -> (Arc<Csr>, std::path::PathBuf) {
        let g = Arc::new(
            rmat(RmatParams {
                scale: 10,
                edge_factor: 8,
                seed: 6,
                ..RmatParams::default()
            })
            .csr,
        );
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        let dir = std::env::temp_dir().join("lt_diskwalker_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.ltd", std::process::id()));
        write_partitioned(&pg, &path).unwrap();
        (g, path)
    }

    #[test]
    fn disk_walker_completes_with_real_io() {
        let (_g, path) = setup("complete");
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let r = run_disk_walker(&path, &alg, 2_000, 42).unwrap();
        assert_eq!(r.finished_walks, 2_000);
        assert_eq!(r.total_steps, 20_000);
        assert!(r.partition_loads > 0);
        assert!(r.bytes_read > 0);
        assert!(r.wall_seconds > 0.0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn disk_walker_matches_in_memory_trajectories() {
        let (g, path) = setup("match");
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(8, 0.15));
        let disk = run_disk_walker(&path, &alg, 1_000, 42).unwrap();
        let mem = crate::cpu::run_walk_centric(&g, &alg, 1_000, 42, 1);
        assert_eq!(disk.visit_counts.unwrap(), mem.visits.unwrap());
        assert_eq!(disk.total_steps, mem.metrics.total_steps);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn most_walks_scheduling_reads_less_than_round_robin_would() {
        // The loads counter should be far below steps (multi-step walking
        // per load), the property GraphWalker's block scheduling targets.
        let (_g, path) = setup("sched");
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
        let r = run_disk_walker(&path, &alg, 4_000, 42).unwrap();
        assert!(
            r.partition_loads < r.total_steps / 10,
            "loads {} vs steps {}",
            r.partition_loads,
            r.total_steps
        );
        std::fs::remove_file(&path).ok();
    }
}
