//! A unified-virtual-memory (UVM) baseline.
//!
//! The paper's related work (§V: Grus, EMOGI-adjacent systems \[10\], \[59\])
//! covers the third way to run out-of-GPU-memory graphs besides explicit
//! partition copies and zero copy: let the driver page the graph in on
//! demand. UVM migrates 64 KB pages on first touch and keeps them in a
//! device-resident page cache; random walks touch pages all over the
//! graph, so the cache thrashes and every fault pays migration latency —
//! which is why LightTraffic (and Subway before it) manage transfers
//! explicitly instead.
//!
//! The model: an LRU page cache of `device_pages` pages; each kernel
//! access to a non-resident page charges one page migration (fault latency
//! + 64 KB transfer) on the H2D link.

use crate::BaselineRun;
use lt_engine::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use lt_engine::Metrics;
use lt_gpusim::{Category, Direction, Gpu, GpuConfig, KernelCost};
use lt_graph::Csr;
use std::collections::HashMap;
use std::sync::Arc;

/// UVM page size (the CUDA driver migrates 64 KB blocks).
pub const PAGE_BYTES: u64 = 64 << 10;

/// Default per-fault driver latency (fault handling + TLB shootdown),
/// nanoseconds. Scale it down alongside the other fixed costs when running
/// scaled stand-ins (the harness divides by its `OVERHEAD_SCALE`).
pub const FAULT_LATENCY_NS: u64 = 20_000;

/// An LRU page cache keyed by page number.
struct PageCache {
    capacity: usize,
    // page -> recency stamp; simple stamp-based LRU (fine at these sizes).
    pages: HashMap<u64, u64>,
    clock: u64,
}

impl PageCache {
    fn new(capacity: usize) -> Self {
        PageCache {
            capacity: capacity.max(1),
            pages: HashMap::new(),
            clock: 0,
        }
    }

    /// Touch a page; returns true on hit.
    fn touch(&mut self, page: u64) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.pages.get_mut(&page) {
            *stamp = self.clock;
            return true;
        }
        if self.pages.len() >= self.capacity {
            let (&victim, _) = self
                .pages
                .iter()
                .min_by_key(|(_, &stamp)| stamp)
                .expect("non-empty");
            self.pages.remove(&victim);
        }
        self.pages.insert(page, self.clock);
        false
    }
}

/// Run `num_walks` walks with the graph accessed through simulated UVM,
/// with a device page cache of `device_graph_bytes`, at the hardware
/// defaults (64 KB pages, 20 µs faults).
///
/// The page cache reports through the returned run's graph-pool counters:
/// `metrics.graph_pool_misses` are page faults (migrations),
/// `metrics.graph_pool_hits` are page-cache hits.
pub fn run_uvm(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    device_graph_bytes: u64,
    gpu_config: GpuConfig,
    seed: u64,
) -> BaselineRun {
    run_uvm_scaled(
        graph,
        alg,
        num_walks,
        device_graph_bytes,
        gpu_config,
        seed,
        FAULT_LATENCY_NS,
        PAGE_BYTES,
    )
}

/// [`run_uvm`] with explicit fault latency and page size — scaled harness
/// runs shrink both alongside the stand-in graphs so the page:graph ratio
/// (the quantity that decides thrashing) matches the paper-scale setup.
#[allow(clippy::too_many_arguments)]
pub fn run_uvm_scaled(
    graph: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    num_walks: u64,
    device_graph_bytes: u64,
    gpu_config: GpuConfig,
    seed: u64,
    fault_latency_ns: u64,
    page_bytes: u64,
) -> BaselineRun {
    let gpu = Gpu::new(gpu_config);
    let cost = gpu.cost_model();
    let stream = gpu.create_stream("uvm");
    let nv = graph.num_vertices();
    let page_bytes = page_bytes.max(8);
    let mut cache = PageCache::new((device_graph_bytes / page_bytes) as usize);

    // Page number of the edge-array byte holding vertex v's list start
    // (offset array pages are counted too, scaled in).
    let vertex_entry_page = |v: u32| (v as u64 * 8) / page_bytes;
    let edge_page = move |edge_index: u64| (nv * 8 + edge_index * 4) / page_bytes;

    let mut walkers = alg.place_walkers(graph.num_vertices(), num_walks);
    let mut visit_counts = alg.tracks_visits().then(|| vec![0u64; nv as usize]);
    let mut total_steps = 0u64;
    let mut finished = 0u64;
    let mut faults = 0u64;
    let mut hits = 0u64;

    const KERNEL_CHUNK: usize = 1 << 14;
    for chunk in walkers.chunks_mut(KERNEL_CHUNK) {
        let mut steps = 0u64;
        let mut chunk_faults = 0u64;
        for w in chunk.iter_mut() {
            loop {
                // Touch the pages a step reads: the offset entry and the
                // chosen edge.
                for page in [
                    vertex_entry_page(w.vertex),
                    edge_page(graph.edge_range(w.vertex).start),
                ] {
                    if cache.touch(page) {
                        hits += 1;
                    } else {
                        faults += 1;
                        chunk_faults += 1;
                    }
                }
                let ctx = StepContext {
                    neighbors: graph.neighbors(w.vertex),
                    weights: graph.neighbor_weights(w.vertex),
                    prev_neighbors: None,
                    timestamps: graph.neighbor_timestamps(w.vertex),
                    num_vertices: nv,
                };
                let d = alg.step(w, ctx, seed);
                match d {
                    StepDecision::Terminate => {
                        finished += 1;
                        break;
                    }
                    StepDecision::Move(v) | StepDecision::MoveAt(v, _) => {
                        steps += 1;
                        d.advance(w);
                        if let Some(c) = visit_counts.as_mut() {
                            c[v as usize] += 1;
                        }
                    }
                }
            }
        }
        total_steps += steps;
        // Faulted pages migrate over the H2D link; the kernel stalls on
        // the fault latency serially (the driver round trip).
        gpu.copy_async(
            Direction::HostToDevice,
            (chunk_faults * page_bytes).max(1),
            Category::GraphLoad,
            stream,
        )
        .expect("no fault plan in the UVM baseline");
        gpu.kernel_async(
            KernelCost {
                update_ns: cost.step_time(steps) + chunk_faults * fault_latency_ns,
                ..Default::default()
            },
            Category::Compute,
            stream,
        );
    }
    gpu.device_synchronize();
    let stats = gpu.stats();
    let metrics = Metrics {
        total_steps,
        finished_walks: finished,
        makespan_ns: stats.makespan_ns,
        // The page cache is UVM's graph pool: misses are migrations.
        graph_pool_hits: hits,
        graph_pool_misses: faults,
        ..Metrics::default()
    };
    BaselineRun::simulated(metrics, stats, visit_counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::algorithm::UniformSampling;
    use lt_engine::{EngineConfig, LightTraffic};
    use lt_graph::gen::{rmat, RmatParams};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 12,
                edge_factor: 12,
                seed: 29,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn uvm_completes_and_counts_faults() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let r = run_uvm(&g, &alg, 2_000, g.csr_bytes() / 4, GpuConfig::default(), 42);
        assert_eq!(r.metrics.finished_walks, 2_000);
        assert_eq!(r.metrics.total_steps, 20_000);
        assert!(r.metrics.graph_pool_misses > 0, "must take page faults");
        let hit_rate = r.metrics.graph_pool_hit_rate();
        assert!(hit_rate > 0.0 && hit_rate < 1.0);
    }

    #[test]
    fn bigger_page_cache_faults_less() {
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(10));
        let small = run_uvm(&g, &alg, 2_000, g.csr_bytes() / 8, GpuConfig::default(), 42);
        let large = run_uvm(&g, &alg, 2_000, g.csr_bytes(), GpuConfig::default(), 42);
        assert!(
            large.metrics.graph_pool_misses < small.metrics.graph_pool_misses,
            "large {} !< small {}",
            large.metrics.graph_pool_misses,
            small.metrics.graph_pool_misses
        );
        assert!(large.metrics.makespan_ns < small.metrics.makespan_ns);
    }

    #[test]
    fn lighttraffic_beats_uvm_under_equal_memory() {
        // The §V contrast: explicit partition management beats demand
        // paging for random walks, whose page reuse is too poor for a
        // fault-driven cache.
        let g = graph();
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
        let budget = g.csr_bytes() / 4;
        let walks = 2 * g.num_vertices();
        let uvm = run_uvm(&g, &alg, walks, budget, GpuConfig::default(), 42);
        let part_bytes = (g.csr_bytes() / 32).max(4096);
        let pool = (budget / part_bytes).max(1) as usize;
        let mut lt = LightTraffic::new(
            g.clone(),
            alg,
            EngineConfig {
                batch_capacity: 512,
                ..EngineConfig::light_traffic(part_bytes, pool)
            },
        )
        .unwrap();
        let ltr = lt.run(walks).unwrap();
        assert!(
            ltr.metrics.makespan_ns < uvm.metrics.makespan_ns,
            "LT {} !< UVM {}",
            ltr.metrics.makespan_ns,
            uvm.metrics.makespan_ns
        );
        // Trajectories still agree.
        assert_eq!(uvm.metrics.total_steps, ltr.metrics.total_steps);
    }
}
