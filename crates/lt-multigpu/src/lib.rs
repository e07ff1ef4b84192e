//! Multi-GPU scale-out for massive random walks (extension).
//!
//! The paper runs on one GPU and notes that sampled paths ship to *other*
//! GPUs (§IV-A, citing GNNLab/FlashMob-style pipelines), and closes by
//! pointing at faster interconnects. This crate explores the natural next
//! step: when one device's memory is the wall, shard the graph across `k`
//! simulated GPUs and run KnightKing-style bulk-synchronous supersteps:
//!
//! 1. each GPU holds one contiguous vertex-range shard resident;
//! 2. in a superstep, every GPU advances its resident walks until they
//!    terminate or leave its shard (multi-step, exactly like LightTraffic
//!    walks a partition);
//! 3. leavers are exchanged all-to-all — sender's D2H link and receiver's
//!    H2D link are both charged, plus a per-superstep barrier that waits
//!    for the slowest device;
//! 4. repeat until no walks remain.
//!
//! Like every engine in the workspace, walkers use the counter-based RNG,
//! so trajectories are bit-identical to the single-GPU LightTraffic engine
//! and the CPU references — asserted in tests.

use lt_engine::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use lt_engine::walker::Walker;
use lt_gpusim::trace::{to_chrome_trace_devices, DeviceTrace};
use lt_gpusim::{Category, CostModel, Direction, Gpu, GpuConfig, KernelCost};
use lt_graph::{Csr, VertexId};
use serde::Serialize;
use std::sync::Arc;

/// Configuration of the simulated multi-GPU cluster.
#[derive(Clone, Debug)]
pub struct MultiGpuConfig {
    /// Number of devices.
    pub num_gpus: usize,
    /// Per-device memory capacity (each shard + walk storage must fit).
    pub gpu_memory_bytes: u64,
    /// Interconnect model, shared by all devices (host↔device and
    /// peer-to-peer exchange both ride it).
    pub cost: CostModel,
    /// Walk RNG seed.
    pub seed: u64,
    /// Safety cap on supersteps.
    pub max_supersteps: u64,
    /// Record every device's op log and return per-device traces on the
    /// result (one Chrome-trace process per GPU).
    pub record_ops: bool,
}

impl Default for MultiGpuConfig {
    fn default() -> Self {
        MultiGpuConfig {
            num_gpus: 4,
            gpu_memory_bytes: 24 << 30,
            cost: CostModel::pcie3(),
            seed: 42,
            max_supersteps: 1_000_000,
            record_ops: false,
        }
    }
}

/// Errors from the multi-GPU engine.
#[derive(Debug)]
pub enum MultiGpuError {
    /// A shard (or its walk storage) exceeds a device's memory.
    ShardTooLarge {
        /// The device whose shard does not fit.
        gpu: usize,
        /// Shard bytes required.
        bytes: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// The run passed the superstep cap.
    SuperstepLimit(u64),
}

impl std::fmt::Display for MultiGpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiGpuError::ShardTooLarge {
                gpu,
                bytes,
                capacity,
            } => write!(
                f,
                "shard for gpu {gpu} needs {bytes} bytes but the device holds {capacity}"
            ),
            MultiGpuError::SuperstepLimit(n) => write!(f, "exceeded {n} supersteps"),
        }
    }
}

impl std::error::Error for MultiGpuError {}

/// Result of a multi-GPU run.
#[derive(Clone, Debug, Serialize)]
pub struct MultiGpuResult {
    /// Total walk steps executed.
    pub total_steps: u64,
    /// Walks finished.
    pub finished_walks: u64,
    /// Simulated wall time: the barrier-synchronized makespan.
    pub makespan_ns: u64,
    /// Bulk-synchronous supersteps executed.
    pub supersteps: u64,
    /// Walker hops shipped between devices.
    pub exchanged_walks: u64,
    /// Per-device compute busy time (ns) — the load-balance picture.
    pub per_gpu_compute_ns: Vec<u64>,
    /// Visit counts when the algorithm tracks them.
    pub visit_counts: Option<Vec<u64>>,
    /// Per-device timelines when [`MultiGpuConfig::record_ops`] was set.
    pub device_traces: Option<Vec<DeviceTrace>>,
}

impl MultiGpuResult {
    /// Steps per simulated second.
    pub fn throughput(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.total_steps as f64 / (self.makespan_ns as f64 / 1e9)
        }
    }

    /// Max/mean compute imbalance across devices (1.0 = perfectly even).
    pub fn compute_imbalance(&self) -> f64 {
        let max = *self.per_gpu_compute_ns.iter().max().unwrap_or(&0) as f64;
        let mean = self.per_gpu_compute_ns.iter().sum::<u64>() as f64
            / self.per_gpu_compute_ns.len().max(1) as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Chrome-trace JSON with one process per device; `None` unless the
    /// run recorded ops.
    pub fn chrome_trace(&self) -> Option<String> {
        self.device_traces
            .as_ref()
            .map(|d| to_chrome_trace_devices(d))
    }
}

/// Contiguous vertex-range shards with roughly equal CSR bytes.
fn shard_boundaries(graph: &Csr, k: usize) -> Vec<VertexId> {
    let total = graph.csr_bytes();
    let per_shard = total.div_ceil(k as u64).max(1);
    let mut bounds = vec![0 as VertexId];
    let mut acc = 0u64;
    for v in 0..graph.num_vertices() as VertexId {
        acc += 8 + graph.degree(v) * 4;
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

#[inline]
fn shard_of(bounds: &[VertexId], v: VertexId) -> usize {
    bounds.partition_point(|&b| b <= v) - 1
}

/// Run `num_walks` walks of `alg` over `cfg.num_gpus` simulated devices.
pub fn run_multi_gpu(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    cfg: &MultiGpuConfig,
) -> Result<MultiGpuResult, MultiGpuError> {
    let k = cfg.num_gpus.max(1);
    let bounds = shard_boundaries(graph, k);
    let s_w = alg.walker_state_bytes();
    let gpus: Vec<Gpu> = (0..k)
        .map(|_| {
            Gpu::new(GpuConfig {
                memory_bytes: cfg.gpu_memory_bytes,
                cost: cfg.cost.clone(),
                record_ops: cfg.record_ops,
                ..Default::default()
            })
        })
        .collect();
    let streams: Vec<_> = gpus
        .iter()
        .enumerate()
        .map(|(i, g)| g.create_stream(&format!("gpu{i}")))
        .collect();

    // Load each shard once; charge the device's memory and H2D link.
    let mut shard_bytes = Vec::with_capacity(k);
    for (i, g) in gpus.iter().enumerate() {
        let lo = bounds[i] as usize;
        let hi = bounds[i + 1] as usize;
        let nv = (hi - lo) as u64;
        let ne = graph.offsets()[hi] - graph.offsets()[lo];
        let bytes = (nv + 1) * 8 + ne * 4;
        shard_bytes.push(bytes);
        // Shard + a generous walk buffer must fit the device.
        let walk_buf = num_walks * s_w;
        if g.malloc(bytes).is_err() || g.malloc(walk_buf).is_err() {
            return Err(MultiGpuError::ShardTooLarge {
                gpu: i,
                bytes: bytes + walk_buf,
                capacity: cfg.gpu_memory_bytes,
            });
        }
        g.copy_async(
            Direction::HostToDevice,
            bytes.max(1),
            Category::GraphLoad,
            streams[i],
        )
        .expect("no fault plan on multi-GPU devices");
    }

    // Distribute the initial walkers.
    let nv = graph.num_vertices();
    let mut resident: Vec<Vec<Walker>> = vec![Vec::new(); k];
    for w in alg.place_walkers(graph.num_vertices(), num_walks) {
        resident[shard_of(&bounds, w.vertex)].push(w);
    }
    let mut visit_counts = alg.tracks_visits().then(|| vec![0u64; nv as usize]);

    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut exchanged = 0u64;
    let mut supersteps = 0u64;

    while resident.iter().any(|r| !r.is_empty()) {
        supersteps += 1;
        if supersteps > cfg.max_supersteps {
            return Err(MultiGpuError::SuperstepLimit(cfg.max_supersteps));
        }
        // Phase 1: each device walks its residents to shard exit.
        let mut outgoing: Vec<Vec<Walker>> = vec![Vec::new(); k];
        let mut sent_walks: Vec<u64> = vec![0; k];
        for (i, g) in gpus.iter().enumerate() {
            if resident[i].is_empty() {
                continue;
            }
            let lo = bounds[i];
            let hi = bounds[i + 1];
            let mut steps = 0u64;
            let mut leavers = 0u64;
            for mut w in resident[i].drain(..) {
                loop {
                    let ctx = StepContext {
                        neighbors: graph.neighbors(w.vertex),
                        weights: graph.neighbor_weights(w.vertex),
                        prev_neighbors: (w.aux != u32::MAX && (w.aux as u64) < nv)
                            .then(|| graph.neighbors(w.aux)),
                        timestamps: graph.neighbor_timestamps(w.vertex),
                        num_vertices: nv,
                    };
                    let d = alg.step(&w, ctx, cfg.seed);
                    match d {
                        StepDecision::Terminate => {
                            finished += 1;
                            break;
                        }
                        StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                            steps += 1;
                            d.advance(&mut w);
                            if let Some(c) = visit_counts.as_mut() {
                                c[v as usize] += 1;
                            }
                            if !(lo..hi).contains(&v) {
                                leavers += 1;
                                outgoing[shard_of(&bounds, v)].push(w);
                                break;
                            }
                        }
                    }
                }
            }
            total_steps += steps;
            exchanged += leavers;
            sent_walks[i] = leavers;
            g.kernel_async(
                KernelCost {
                    update_ns: cfg.cost.step_time_in(steps, shard_bytes[i]),
                    reshuffle_ns: cfg.cost.reshuffle_time(leavers, k as u32, true),
                    other_ns: 0,
                    zero_copy_bytes: 0,
                },
                Category::Compute,
                streams[i],
            );
        }
        // Phase 2: exchange. Sender ships its leavers (D2H), receiver
        // ingests them (H2D). Using per-destination batched messages.
        for (dest, walkers) in outgoing.iter().enumerate() {
            if walkers.is_empty() {
                continue;
            }
            let bytes = walkers.len() as u64 * s_w;
            // All senders' traffic is aggregated on the receiving link;
            // each sender also pays its outbound link. With one message
            // per (sender, dest) pair folded together this is the
            // receiving-side bottleneck, which dominates all-to-all.
            gpus[dest]
                .copy_async(
                    Direction::HostToDevice,
                    bytes,
                    Category::WalkLoad,
                    streams[dest],
                )
                .expect("no fault plan on multi-GPU devices");
        }
        for (src, g) in gpus.iter().enumerate() {
            // Each sender pays its own outbound volume exactly.
            let out_bytes = sent_walks[src] * s_w;
            if out_bytes > 0 {
                g.copy_async(
                    Direction::DeviceToHost,
                    out_bytes,
                    Category::WalkEvict,
                    streams[src],
                )
                .expect("no fault plan on multi-GPU devices");
            }
        }
        // Phase 3: barrier — every device waits for the slowest.
        for (g, &s) in gpus.iter().zip(streams.iter()) {
            g.synchronize(s);
        }
        let global = gpus.iter().map(|g| g.now()).max().unwrap_or(0);
        for g in &gpus {
            g.advance_to(global);
        }
        // Deliver.
        for (dest, walkers) in outgoing.into_iter().enumerate() {
            resident[dest].extend(walkers);
        }
    }

    let makespan = gpus
        .iter()
        .map(|g| g.stats().makespan_ns)
        .max()
        .unwrap_or(0);
    Ok(MultiGpuResult {
        total_steps,
        finished_walks: finished,
        makespan_ns: makespan,
        supersteps,
        exchanged_walks: exchanged,
        per_gpu_compute_ns: gpus.iter().map(|g| g.stats().computing_ns()).collect(),
        visit_counts,
        device_traces: cfg.record_ops.then(|| {
            gpus.iter()
                .enumerate()
                .map(|(i, g)| DeviceTrace {
                    name: format!("gpu {i}"),
                    ops: g.op_log(),
                    faults: g.fault_log(),
                })
                .collect()
        }),
    })
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
                seed: 13,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn shards_cover_and_are_contiguous() {
        let g = graph();
        for k in [1usize, 2, 4, 7] {
            let b = shard_boundaries(&g, k);
            assert_eq!(b.len(), k + 1);
            assert_eq!(b[0], 0);
            assert_eq!(b[k] as u64, g.num_vertices());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            for v in 0..g.num_vertices() as u32 {
                let s = shard_of(&b, v);
                assert!((b[s]..b[s + 1]).contains(&v));
            }
        }
    }

    #[test]
    fn all_walks_finish_and_steps_are_exact() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(12));
        let r = run_multi_gpu(&g, &alg, 2_000, &MultiGpuConfig::default()).unwrap();
        assert_eq!(r.finished_walks, 2_000);
        assert_eq!(r.total_steps, 2_000 * 12);
        assert!(r.exchanged_walks > 0, "walks must cross shards");
        assert!(r.supersteps > 1);
    }

    #[test]
    fn trajectories_match_single_gpu_lighttraffic() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));
        let multi = run_multi_gpu(&g, &alg, 1_500, &MultiGpuConfig::default()).unwrap();
        let mut lt = lt_engine::LightTraffic::new(
            g.clone(),
            alg,
            lt_engine::EngineConfig {
                batch_capacity: 128,
                seed: 42,
                ..lt_engine::EngineConfig::light_traffic(16 << 10, 4)
            },
        )
        .unwrap();
        let single = lt.run(1_500).unwrap();
        assert_eq!(multi.visit_counts.unwrap(), single.visit_counts.unwrap());
        assert_eq!(multi.total_steps, single.metrics.total_steps);
    }

    #[test]
    fn adding_devices_scales_the_bsp_execution() {
        // k = 1 skips the BSP machinery entirely (one shard, one
        // superstep), so the scaling claim is about k ≥ 2: every added
        // device brings its own compute *and* its own exchange links, so
        // the barrier-synchronized time drops.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
        let run = |k: usize| {
            run_multi_gpu(
                &g,
                &alg,
                50_000,
                &MultiGpuConfig {
                    num_gpus: k,
                    ..Default::default()
                },
            )
            .unwrap()
            .makespan_ns
        };
        let t2 = run(2);
        let t4 = run(4);
        let t8 = run(8);
        assert!(t4 < t2, "4 GPUs {t4} !< 2 GPUs {t2}");
        assert!(t8 < t4, "8 GPUs {t8} !< 4 GPUs {t4}");
    }

    #[test]
    fn bsp_pays_an_exchange_tax_vs_one_big_device() {
        // The flip side (and the reason the paper prefers out-of-memory on
        // ONE device when the graph fits host memory): if a single device
        // could hold everything, sharding only adds cross-shard traffic.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(40));
        let run = |k: usize| {
            run_multi_gpu(
                &g,
                &alg,
                20_000,
                &MultiGpuConfig {
                    num_gpus: k,
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert!(four.makespan_ns > one.makespan_ns);
        assert!(four.exchanged_walks > 0 && one.exchanged_walks == 0);
    }

    #[test]
    fn shard_too_large_is_reported() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(4));
        let r = run_multi_gpu(
            &g,
            &alg,
            100,
            &MultiGpuConfig {
                num_gpus: 2,
                gpu_memory_bytes: 1 << 10,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(MultiGpuError::ShardTooLarge { .. })));
    }

    #[test]
    fn recorded_runs_yield_one_trace_process_per_device() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
        let r = run_multi_gpu(
            &g,
            &alg,
            2_000,
            &MultiGpuConfig {
                num_gpus: 3,
                record_ops: true,
                ..Default::default()
            },
        )
        .unwrap();
        let traces = r.device_traces.as_ref().unwrap();
        assert_eq!(traces.len(), 3);
        assert!(traces.iter().all(|t| !t.ops.is_empty()));
        let trace: serde_json::Value = serde_json::from_str(&r.chrome_trace().unwrap()).unwrap();
        let arr = trace.as_array().unwrap();
        let mut proc_pids: Vec<u64> = arr
            .iter()
            .filter(|e| e["name"] == "process_name")
            .map(|e| e["pid"].as_u64().unwrap())
            .collect();
        proc_pids.sort_unstable();
        assert_eq!(proc_pids, vec![0, 1, 2], "one trace process per device");
        // Op spans must not all collapse onto pid 0.
        assert!(arr
            .iter()
            .any(|e| e["ph"] == "X" && e["pid"].as_u64() == Some(2)));
        // A default run records nothing and stays trace-free.
        let plain = run_multi_gpu(&g, &alg, 100, &MultiGpuConfig::default()).unwrap();
        assert!(plain.device_traces.is_none());
        assert!(plain.chrome_trace().is_none());
    }

    #[test]
    fn single_gpu_has_no_exchange() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
        let r = run_multi_gpu(
            &g,
            &alg,
            1_000,
            &MultiGpuConfig {
                num_gpus: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(r.exchanged_walks, 0);
        assert_eq!(r.supersteps, 1);
        assert_eq!(r.compute_imbalance(), 1.0);
    }
}
