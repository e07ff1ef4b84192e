//! The simulator core: device memory accounting, streams, engines, and the
//! virtual clock.

use crate::cost::{CostModel, KernelCost, Nanos};
use crate::fault::{
    DeviceError, FaultKind, FaultPlan, FaultRecord, SALT_COPY, SALT_CORRUPT, SALT_STRAGGLER,
};
use crate::stats::{Category, GpuStats};
use parking_lot::Mutex;
use serde::Serialize;
use std::sync::Arc;

/// Transfer direction over the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Host memory → device memory (uses the H2D copy engine).
    HostToDevice,
    /// Device memory → host memory (uses the D2H copy engine; PCIe is full
    /// duplex, so this never contends with loads).
    DeviceToHost,
}

/// Handle to an ordered op queue (a CUDA stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StreamId(pub(crate) usize);

/// A device memory allocation. Not `Clone`: it must be returned to
/// [`Gpu::free`] exactly once (dropping it leaks simulated memory, as in
/// CUDA).
#[derive(Debug)]
pub struct Allocation {
    id: u64,
    bytes: u64,
}

impl Allocation {
    /// Size of the allocation.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Device capacity exceeded.
#[derive(Clone, Copy, Debug)]
pub struct OutOfMemory {
    /// Bytes requested by the failing `malloc`.
    pub requested: u64,
    /// Bytes already allocated.
    pub used: u64,
    /// Device capacity.
    pub capacity: u64,
}

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "device out of memory: requested {} with {}/{} bytes in use",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// Simulated-device configuration.
#[derive(Clone, Debug)]
pub struct GpuConfig {
    /// Device memory capacity in bytes (24 GB on the paper's RTX 3090;
    /// scaled down alongside the graphs in this environment).
    pub memory_bytes: u64,
    /// The timing model.
    pub cost: CostModel,
    /// Record the timeline: every op in [`Gpu::op_log`] and every injected
    /// fault in [`Gpu::fault_log`]. Off by default, so a long-lived device
    /// keeps no per-op history; [`GpuStats::faults_injected`] counts faults
    /// either way.
    pub record_ops: bool,
    /// Deterministic fault-injection schedule; `None` (and the all-zero
    /// default plan) injects nothing.
    pub faults: Option<FaultPlan>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            memory_bytes: 24 << 30,
            cost: CostModel::default(),
            record_ops: false,
            faults: None,
        }
    }
}

const ENGINE_H2D: usize = 0;
const ENGINE_D2H: usize = 1;
const ENGINE_COMPUTE: usize = 2;
const NUM_ENGINES: usize = 3;

/// A recorded op, available when [`GpuConfig::record_ops`] is set.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OpRecord {
    /// Category the op was charged to.
    pub category: Category,
    /// Engine index: 0 = H2D, 1 = D2H, 2 = compute.
    pub engine: usize,
    /// Start time.
    pub start: Nanos,
    /// Completion time.
    pub end: Nanos,
    /// Stream the op was enqueued on.
    pub stream: usize,
    /// Host threads that executed the op's eager host-side work (1 for
    /// copies and sequential kernels; the engine's host-parallel kernels
    /// report their chunk fan-out here so traces show where wall-clock
    /// time was spent, without affecting any simulated time).
    pub host_threads: usize,
    /// Fault injected into this op, if any (the copy failure when one
    /// fired, otherwise a straggler spike).
    pub fault: Option<FaultKind>,
}

#[derive(Debug)]
struct Inner {
    config: GpuConfig,
    host_clock: Nanos,
    used_bytes: u64,
    next_alloc_id: u64,
    live_allocs: u64,
    /// Completion time of the last op enqueued on each stream.
    stream_tails: Vec<Nanos>,
    stream_names: Vec<String>,
    /// Next-free time of each engine.
    engine_free: [Nanos; NUM_ENGINES],
    engine_busy: [Nanos; NUM_ENGINES],
    stats: GpuStats,
    op_log: Vec<OpRecord>,
    /// Device op counter driving fault decisions; advances in enqueue order
    /// under the mutex, so it is independent of host thread count.
    fault_counter: u64,
    fault_log: Vec<FaultRecord>,
}

/// The simulated GPU. Cheap to clone (shared handle).
///
/// ```
/// use lt_gpusim::{Gpu, GpuConfig, Direction, Category};
/// let gpu = Gpu::new(GpuConfig::default());
/// let load = gpu.create_stream("load");
/// gpu.copy_async(Direction::HostToDevice, 12 << 30, Category::GraphLoad, load).unwrap();
/// assert!(gpu.busy(load));
/// gpu.synchronize(load);
/// assert!(!gpu.busy(load));
/// // 12 GB at 12 GB/s ≈ 1 simulated second.
/// assert!((0.9e9..1.1e9).contains(&(gpu.now() as f64)));
/// ```
#[derive(Clone, Debug)]
pub struct Gpu {
    inner: Arc<Mutex<Inner>>,
}

impl Gpu {
    /// Create a device.
    pub fn new(config: GpuConfig) -> Self {
        Gpu {
            inner: Arc::new(Mutex::new(Inner {
                config,
                host_clock: 0,
                used_bytes: 0,
                next_alloc_id: 0,
                live_allocs: 0,
                stream_tails: Vec::new(),
                stream_names: Vec::new(),
                engine_free: [0; NUM_ENGINES],
                engine_busy: [0; NUM_ENGINES],
                stats: GpuStats::default(),
                op_log: Vec::new(),
                fault_counter: 0,
                fault_log: Vec::new(),
            })),
        }
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> CostModel {
        self.inner.lock().config.cost.clone()
    }

    /// Reserve `bytes` of device memory (`cudaMalloc`).
    pub fn malloc(&self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        let mut g = self.inner.lock();
        if g.used_bytes + bytes > g.config.memory_bytes {
            return Err(OutOfMemory {
                requested: bytes,
                used: g.used_bytes,
                capacity: g.config.memory_bytes,
            });
        }
        g.used_bytes += bytes;
        g.live_allocs += 1;
        let id = g.next_alloc_id;
        g.next_alloc_id += 1;
        Ok(Allocation { id, bytes })
    }

    /// Release an allocation (`cudaFree`).
    pub fn free(&self, alloc: Allocation) {
        let mut g = self.inner.lock();
        debug_assert!(alloc.id < g.next_alloc_id);
        g.used_bytes -= alloc.bytes;
        g.live_allocs -= 1;
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Device capacity.
    pub fn capacity(&self) -> u64 {
        self.inner.lock().config.memory_bytes
    }

    /// Number of live allocations.
    pub fn live_allocations(&self) -> u64 {
        self.inner.lock().live_allocs
    }

    /// Create a named stream.
    pub fn create_stream(&self, name: &str) -> StreamId {
        let mut g = self.inner.lock();
        g.stream_tails.push(0);
        g.stream_names.push(name.to_string());
        StreamId(g.stream_tails.len() - 1)
    }

    /// Enqueue an async copy of `bytes` in `dir`, charged to `category`.
    /// Returns the simulated completion time, or the injected
    /// [`DeviceError`] when the configured [`FaultPlan`] fails the copy.
    ///
    /// A failed attempt is charged like a successful one — it occupied the
    /// engine and moved bytes before erroring — so retry overhead lands on
    /// the simulated clock where recovery benchmarks can see it.
    pub fn copy_async(
        &self,
        dir: Direction,
        bytes: u64,
        category: Category,
        stream: StreamId,
    ) -> Result<Nanos, DeviceError> {
        let mut g = self.inner.lock();
        let mut dur = g.config.cost.copy_time(bytes);
        let engine = match dir {
            Direction::HostToDevice => ENGINE_H2D,
            Direction::DeviceToHost => ENGINE_D2H,
        };
        let mut fired: Vec<FaultKind> = Vec::new();
        let mut failure: Option<bool> = None;
        if let Some(plan) = g.config.faults.clone().filter(FaultPlan::is_active) {
            let n = g.fault_counter;
            g.fault_counter += 1;
            if plan.roll(n, SALT_STRAGGLER) < plan.straggler_rate {
                dur = dur.saturating_mul(u64::from(plan.straggler_factor.max(1)));
                fired.push(FaultKind::Straggler);
            }
            let r = plan.roll(n, SALT_COPY);
            if r < plan.copy_fatal_rate {
                fired.push(FaultKind::CopyFatal);
                failure = Some(false);
            } else if r < plan.copy_fatal_rate + plan.copy_retryable_rate {
                fired.push(FaultKind::CopyRetryable);
                failure = Some(true);
            }
        }
        // The op record carries the most severe fault: the failure when one
        // fired, a straggler spike otherwise.
        let end = g.schedule(engine, dur, category, stream, fired.last().copied());
        let cat = g.stats.category_mut(category);
        cat.bytes += bytes;
        if !fired.is_empty() {
            g.stats.faults_injected += fired.len() as u64;
            let op_index = g.fault_counter - 1;
            for kind in fired {
                let rec = FaultRecord {
                    kind,
                    op_index,
                    at_ns: end - dur,
                    engine,
                };
                g.log_fault(rec);
            }
        }
        match failure {
            Some(retryable) => Err(DeviceError::CopyFault {
                direction: dir,
                bytes,
                retryable,
            }),
            None => Ok(end),
        }
    }

    /// Enqueue an async kernel with the given cost breakdown. Kernels with
    /// `zero_copy_bytes > 0` also reserve the H2D link for the zero-copy
    /// traffic; their duration is the max of device time and link time.
    /// Returns the simulated completion time.
    pub fn kernel_async(&self, cost: KernelCost, category: Category, stream: StreamId) -> Nanos {
        self.kernel_async_with_threads(cost, category, stream, 1)
    }

    /// [`Gpu::kernel_async`] for a kernel whose eager host execution used
    /// `host_threads` threads. The thread count is recorded on the op log
    /// (and nowhere else): simulated duration, stats, and scheduling are
    /// charged exactly as for [`Gpu::kernel_async`], so host parallelism
    /// can never change simulated results.
    pub fn kernel_async_with_threads(
        &self,
        cost: KernelCost,
        category: Category,
        stream: StreamId,
        host_threads: usize,
    ) -> Nanos {
        let mut g = self.inner.lock();
        let device_ns = cost.device_ns() + g.config.cost.kernel_launch_ns;
        let (mut dur, zc_link_ns, zc_bytes) = if cost.zero_copy_bytes > 0 {
            let link = g.config.cost.zero_copy_time(cost.zero_copy_bytes);
            (
                device_ns.max(link),
                link,
                g.config.cost.zero_copy_bytes(cost.zero_copy_bytes),
            )
        } else {
            (device_ns, 0, 0)
        };
        let mut op_fault = None;
        if let Some(plan) = g.config.faults.clone().filter(FaultPlan::is_active) {
            let n = g.fault_counter;
            g.fault_counter += 1;
            if plan.roll(n, SALT_STRAGGLER) < plan.straggler_rate {
                dur = dur.saturating_mul(u64::from(plan.straggler_factor.max(1)));
                op_fault = Some(FaultKind::Straggler);
            }
        }
        let end = g.schedule_kernel(dur, zc_link_ns, category, stream, host_threads, op_fault);
        if let Some(kind) = op_fault {
            g.stats.faults_injected += 1;
            let op_index = g.fault_counter - 1;
            let rec = FaultRecord {
                kind,
                op_index,
                at_ns: end - dur,
                engine: ENGINE_COMPUTE,
            };
            g.log_fault(rec);
        }
        g.stats.kernel_update_ns += cost.update_ns;
        g.stats.kernel_reshuffle_ns += cost.reshuffle_ns;
        g.stats.kernel_other_ns += cost.other_ns + g.config.cost.kernel_launch_ns;
        let cat = g.stats.category_mut(category);
        cat.bytes += zc_bytes;
        end
    }

    /// Block the host until every op on `stream` has completed
    /// (`cudaStreamSynchronize`).
    pub fn synchronize(&self, stream: StreamId) {
        let mut g = self.inner.lock();
        let tail = g.stream_tails[stream.0];
        if tail > g.host_clock {
            g.host_clock = tail;
        }
    }

    /// Whether `stream` still has ops the host has not yet waited past.
    pub fn busy(&self, stream: StreamId) -> bool {
        let g = self.inner.lock();
        g.stream_tails[stream.0] > g.host_clock
    }

    /// Block the host until the whole device drains (`cudaDeviceSynchronize`).
    pub fn device_synchronize(&self) {
        let mut g = self.inner.lock();
        let max = g.stream_tails.iter().copied().max().unwrap_or(0);
        if max > g.host_clock {
            g.host_clock = max;
        }
    }

    /// Charge `ns` of host-side work (advances the host clock).
    pub fn host_advance(&self, ns: Nanos, category: Category) {
        let mut g = self.inner.lock();
        g.host_clock += ns;
        let cat = g.stats.category_mut(category);
        cat.busy_ns += ns;
        cat.count += 1;
        let clock = g.host_clock;
        if clock > g.stats.makespan_ns {
            g.stats.makespan_ns = clock;
        }
    }

    /// Current host clock (ns).
    pub fn now(&self) -> Nanos {
        self.inner.lock().host_clock
    }

    /// Snapshot of the accumulated statistics.
    pub fn stats(&self) -> GpuStats {
        let mut g = self.inner.lock();
        let mut s = g.stats.clone();
        s.h2d_busy_ns = g.engine_busy[ENGINE_H2D];
        s.d2h_busy_ns = g.engine_busy[ENGINE_D2H];
        s.compute_busy_ns = g.engine_busy[ENGINE_COMPUTE];
        // Keep the stored copy in sync so later snapshots are monotone.
        g.stats.h2d_busy_ns = s.h2d_busy_ns;
        g.stats.d2h_busy_ns = s.d2h_busy_ns;
        g.stats.compute_busy_ns = s.compute_busy_ns;
        s
    }

    /// The recorded op log (empty unless [`GpuConfig::record_ops`]).
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.inner.lock().op_log.clone()
    }

    /// Roll the configured corruption rate for a graph block that just
    /// finished loading. Returns `true` when the block arrived corrupted;
    /// the caller (the engine, after a graph-load copy) must then drop the
    /// block and either reload or degrade the partition. Always `false`
    /// without an active fault plan, and consumes one op-counter slot when
    /// a plan is active so decisions stay aligned across runs.
    pub fn roll_corruption(&self) -> bool {
        let mut g = self.inner.lock();
        let Some(plan) = g.config.faults.clone().filter(FaultPlan::is_active) else {
            return false;
        };
        let n = g.fault_counter;
        g.fault_counter += 1;
        if plan.roll(n, SALT_CORRUPT) < plan.corruption_rate {
            let at_ns = g.host_clock;
            g.stats.faults_injected += 1;
            let rec = FaultRecord {
                kind: FaultKind::Corruption,
                op_index: n,
                at_ns,
                engine: ENGINE_H2D,
            };
            g.log_fault(rec);
            true
        } else {
            false
        }
    }

    /// Every fault injected so far, in decision order (empty unless
    /// [`GpuConfig::record_ops`]).
    pub fn fault_log(&self) -> Vec<FaultRecord> {
        self.inner.lock().fault_log.clone()
    }
}

impl Inner {
    fn log_fault(&mut self, rec: FaultRecord) {
        if self.config.record_ops {
            self.fault_log.push(rec);
        }
    }

    /// Schedule a single-engine op. Start = max(host clock, stream tail,
    /// engine free); FIFO per engine in enqueue order.
    fn schedule(
        &mut self,
        engine: usize,
        duration: Nanos,
        category: Category,
        stream: StreamId,
        fault: Option<FaultKind>,
    ) -> Nanos {
        let start = self
            .host_clock
            .max(self.stream_tails[stream.0])
            .max(self.engine_free[engine]);
        let end = start + duration;
        self.engine_free[engine] = end;
        self.engine_busy[engine] += duration;
        self.stream_tails[stream.0] = end;
        let cat = self.stats.category_mut(category);
        cat.busy_ns += duration;
        cat.count += 1;
        if end > self.stats.makespan_ns {
            self.stats.makespan_ns = end;
        }
        if self.config.record_ops {
            self.op_log.push(OpRecord {
                category,
                engine,
                start,
                end,
                stream: stream.0,
                host_threads: 1,
                fault,
            });
        }
        end
    }

    /// Schedule a kernel on the compute engine, optionally reserving the
    /// H2D link for zero-copy traffic during its execution.
    fn schedule_kernel(
        &mut self,
        duration: Nanos,
        zc_link_ns: Nanos,
        category: Category,
        stream: StreamId,
        host_threads: usize,
        fault: Option<FaultKind>,
    ) -> Nanos {
        let mut start = self
            .host_clock
            .max(self.stream_tails[stream.0])
            .max(self.engine_free[ENGINE_COMPUTE]);
        if zc_link_ns > 0 {
            start = start.max(self.engine_free[ENGINE_H2D]);
        }
        let end = start + duration;
        self.engine_free[ENGINE_COMPUTE] = end;
        self.engine_busy[ENGINE_COMPUTE] += duration;
        if zc_link_ns > 0 {
            self.engine_free[ENGINE_H2D] = start + zc_link_ns;
            self.engine_busy[ENGINE_H2D] += zc_link_ns;
        }
        self.stream_tails[stream.0] = end;
        let cat = self.stats.category_mut(category);
        cat.busy_ns += duration;
        cat.count += 1;
        if end > self.stats.makespan_ns {
            self.stats.makespan_ns = end;
        }
        if self.config.record_ops {
            self.op_log.push(OpRecord {
                category,
                engine: ENGINE_COMPUTE,
                start,
                end,
                stream: stream.0,
                host_threads,
                fault,
            });
            if zc_link_ns > 0 {
                self.op_log.push(OpRecord {
                    category,
                    engine: ENGINE_H2D,
                    start,
                    end: start + zc_link_ns,
                    stream: stream.0,
                    host_threads: 1,
                    fault: None,
                });
            }
        }
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig {
            memory_bytes: 1 << 20,
            cost: CostModel::pcie3(),
            record_ops: true,
            ..Default::default()
        })
    }

    #[test]
    fn malloc_respects_capacity() {
        let g = gpu();
        let a = g.malloc(512 << 10).unwrap();
        let b = g.malloc(512 << 10).unwrap();
        assert!(g.malloc(1).is_err());
        assert_eq!(g.used_bytes(), 1 << 20);
        g.free(a);
        assert_eq!(g.used_bytes(), 512 << 10);
        let c = g.malloc(256 << 10).unwrap();
        g.free(b);
        g.free(c);
        assert_eq!(g.used_bytes(), 0);
        assert_eq!(g.live_allocations(), 0);
    }

    #[test]
    fn streams_are_ordered() {
        let g = gpu();
        let s = g.create_stream("load");
        let e1 = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
            .unwrap();
        let e2 = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
            .unwrap();
        assert!(e2 > e1);
        // Second op starts when the first finishes.
        let log = g.op_log();
        assert_eq!(log[1].start, log[0].end);
    }

    #[test]
    fn full_duplex_copies_overlap() {
        let g = gpu();
        let load = g.create_stream("load");
        let evict = g.create_stream("evict");
        let e1 = g
            .copy_async(Direction::HostToDevice, 4 << 20, Category::WalkLoad, load)
            .unwrap();
        let e2 = g
            .copy_async(Direction::DeviceToHost, 4 << 20, Category::WalkEvict, evict)
            .unwrap();
        // Same size, both start at 0 on different engines.
        assert_eq!(e1, e2);
        let log = g.op_log();
        assert_eq!(log[0].start, 0);
        assert_eq!(log[1].start, 0);
        assert_ne!(log[0].engine, log[1].engine);
    }

    #[test]
    fn same_direction_copies_serialize() {
        let g = gpu();
        let s1 = g.create_stream("a");
        let s2 = g.create_stream("b");
        g.copy_async(Direction::HostToDevice, 4 << 20, Category::GraphLoad, s1)
            .unwrap();
        g.copy_async(Direction::HostToDevice, 4 << 20, Category::GraphLoad, s2)
            .unwrap();
        let log = g.op_log();
        assert_eq!(log[1].start, log[0].end, "H2D engine must serialize");
    }

    #[test]
    fn compute_overlaps_with_loading() {
        let g = gpu();
        let load = g.create_stream("load");
        let comp = g.create_stream("comp");
        let load_end = g
            .copy_async(Direction::HostToDevice, 8 << 20, Category::GraphLoad, load)
            .unwrap();
        let k_end = g.kernel_async(
            KernelCost {
                update_ns: 100_000,
                ..Default::default()
            },
            Category::Compute,
            comp,
        );
        assert!(k_end < load_end, "kernel should finish under the copy");
    }

    #[test]
    fn synchronize_advances_host_clock() {
        let g = gpu();
        let s = g.create_stream("s");
        assert!(!g.busy(s));
        let end = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
            .unwrap();
        assert!(g.busy(s));
        g.synchronize(s);
        assert!(!g.busy(s));
        assert_eq!(g.now(), end);
    }

    #[test]
    fn host_clock_gates_new_ops() {
        let g = gpu();
        let s = g.create_stream("s");
        g.host_advance(1_000_000, Category::HostWork);
        let log_start = {
            g.copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
                .unwrap();
            g.op_log()[0].start
        };
        assert_eq!(log_start, 1_000_000);
    }

    #[test]
    fn zero_copy_kernel_reserves_link() {
        let g = gpu();
        let comp = g.create_stream("comp");
        let load = g.create_stream("load");
        // Zero-copy kernel whose link time dominates.
        let k_end = g.kernel_async(
            KernelCost {
                update_ns: 1_000,
                zero_copy_bytes: 8 << 20,
                ..Default::default()
            },
            Category::ZeroCopy,
            comp,
        );
        // A subsequent explicit load must wait for the link.
        g.copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, load)
            .unwrap();
        let log = g.op_log();
        let link_res = log.iter().find(|o| o.engine == 0).unwrap();
        let copy = log.iter().filter(|o| o.engine == 0).nth(1).unwrap();
        assert_eq!(copy.start, link_res.end);
        // Kernel duration = max(device, link) = link here.
        let zc_time = g.cost_model().zero_copy_time(8 << 20);
        assert_eq!(k_end, zc_time);
    }

    #[test]
    fn stats_accumulate_by_category() {
        let g = gpu();
        let s = g.create_stream("s");
        g.copy_async(Direction::HostToDevice, 1000, Category::GraphLoad, s)
            .unwrap();
        g.copy_async(Direction::HostToDevice, 2000, Category::WalkLoad, s)
            .unwrap();
        g.copy_async(Direction::DeviceToHost, 3000, Category::WalkEvict, s)
            .unwrap();
        g.kernel_async(
            KernelCost {
                update_ns: 5,
                reshuffle_ns: 7,
                other_ns: 1,
                zero_copy_bytes: 0,
            },
            Category::Compute,
            s,
        );
        let st = g.stats();
        assert_eq!(st.graph_load.bytes, 1000);
        assert_eq!(st.walk_load.bytes, 2000);
        assert_eq!(st.walk_evict.bytes, 3000);
        assert_eq!(st.graph_load.count, 1);
        assert_eq!(st.kernel_update_ns, 5);
        assert_eq!(st.kernel_reshuffle_ns, 7);
        assert_eq!(st.h2d_bytes(), 3000);
        assert_eq!(st.d2h_bytes(), 3000);
        assert!(st.makespan_ns > 0);
    }

    #[test]
    fn ops_on_one_engine_never_overlap() {
        let g = gpu();
        let streams: Vec<_> = (0..4).map(|i| g.create_stream(&format!("s{i}"))).collect();
        for (i, &s) in streams.iter().enumerate().cycle().take(40) {
            if i % 2 == 0 {
                g.copy_async(
                    Direction::HostToDevice,
                    ((i as u64) + 1) * 1000,
                    Category::GraphLoad,
                    s,
                )
                .unwrap();
            } else {
                g.kernel_async(
                    KernelCost {
                        update_ns: (i as u64 + 1) * 100,
                        zero_copy_bytes: if i % 3 == 0 { 4096 } else { 0 },
                        ..Default::default()
                    },
                    Category::Compute,
                    s,
                );
            }
        }
        let log = g.op_log();
        for e in 0..3 {
            let mut ops: Vec<_> = log.iter().filter(|o| o.engine == e).collect();
            ops.sort_by_key(|o| o.start);
            for w in ops.windows(2) {
                assert!(
                    w[1].start >= w[0].end,
                    "engine {e} overlap: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn host_threads_are_logged_but_never_charged() {
        let run = |threads: usize| {
            let g = gpu();
            let s = g.create_stream("comp");
            let end = g.kernel_async_with_threads(
                KernelCost {
                    update_ns: 10_000,
                    reshuffle_ns: 500,
                    ..Default::default()
                },
                Category::Compute,
                s,
                threads,
            );
            (end, g.stats(), g.op_log())
        };
        let (e1, s1, l1) = run(1);
        let (e8, s8, l8) = run(8);
        assert_eq!(e1, e8, "simulated completion is thread-count independent");
        assert_eq!(s1.makespan_ns, s8.makespan_ns);
        assert_eq!(s1.compute_busy_ns, s8.compute_busy_ns);
        assert_eq!(l1[0].host_threads, 1);
        assert_eq!(l8[0].host_threads, 8);
        // The delegating single-thread entry point reports 1.
        let g = gpu();
        let s = g.create_stream("comp");
        g.kernel_async(KernelCost::default(), Category::Compute, s);
        assert_eq!(g.op_log()[0].host_threads, 1);
    }

    #[test]
    fn injected_copy_faults_are_deterministic_and_charged() {
        let run = || {
            let g = Gpu::new(GpuConfig {
                memory_bytes: 1 << 20,
                cost: CostModel::pcie3(),
                record_ops: true,
                faults: Some(FaultPlan::retryable_only(11, 0.5)),
            });
            let s = g.create_stream("s");
            let outcomes: Vec<bool> = (0..64)
                .map(|_| {
                    g.copy_async(Direction::HostToDevice, 1 << 16, Category::GraphLoad, s)
                        .is_ok()
                })
                .collect();
            (outcomes, g.stats(), g.fault_log().len())
        };
        let (o1, s1, f1) = run();
        let (o2, s2, f2) = run();
        assert_eq!(o1, o2, "fault schedule must reproduce exactly");
        assert_eq!(f1, f2);
        let failures = o1.iter().filter(|ok| !**ok).count();
        assert!(failures > 0, "rate 0.5 over 64 ops must fire");
        assert!(failures < 64, "rate 0.5 over 64 ops must also pass some");
        assert_eq!(s1.faults_injected, failures as u64);
        // Failed attempts are charged: bytes and busy time count every
        // attempt, successful or not.
        assert_eq!(s1.graph_load.bytes, 64 << 16);
        assert_eq!(s1.graph_load.count, 64);
        assert_eq!(s1.makespan_ns, s2.makespan_ns);
        // Faulted ops are visible on the op log.
        let marked = s1.faults_injected;
        let logged = run().1.faults_injected;
        assert_eq!(marked, logged);
        let g = Gpu::new(GpuConfig {
            record_ops: true,
            faults: Some(FaultPlan::retryable_only(11, 1.0)),
            ..Default::default()
        });
        let s = g.create_stream("s");
        let err = g
            .copy_async(Direction::HostToDevice, 4096, Category::WalkLoad, s)
            .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(g.op_log()[0].fault, Some(FaultKind::CopyRetryable));
    }

    #[test]
    fn fatal_faults_outrank_retryable() {
        let g = Gpu::new(GpuConfig {
            faults: Some(FaultPlan {
                seed: 5,
                copy_retryable_rate: 1.0,
                copy_fatal_rate: 1.0,
                ..FaultPlan::default()
            }),
            ..Default::default()
        });
        let s = g.create_stream("s");
        let err = g
            .copy_async(Direction::DeviceToHost, 4096, Category::WalkEvict, s)
            .unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn stragglers_multiply_latency_without_failing() {
        let base = {
            let g = gpu();
            let s = g.create_stream("s");
            g.copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
                .unwrap()
        };
        let g = Gpu::new(GpuConfig {
            memory_bytes: 1 << 20,
            cost: CostModel::pcie3(),
            record_ops: true,
            faults: Some(FaultPlan {
                seed: 9,
                straggler_rate: 1.0,
                straggler_factor: 4,
                ..FaultPlan::default()
            }),
        });
        let s = g.create_stream("s");
        let end = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
            .unwrap();
        assert_eq!(end, base * 4, "straggler must multiply the copy latency");
        assert_eq!(g.op_log()[0].fault, Some(FaultKind::Straggler));
        assert_eq!(g.stats().faults_injected, 1);
        // Kernels spike too.
        let k_base = {
            let g2 = gpu();
            let c = g2.create_stream("c");
            g2.kernel_async(
                KernelCost {
                    update_ns: 10_000,
                    ..Default::default()
                },
                Category::Compute,
                c,
            )
        };
        // The compute engine is idle, so the kernel starts at time 0 and
        // its completion time is its (quadrupled) duration.
        let c = g.create_stream("c");
        let k_end = g.kernel_async(
            KernelCost {
                update_ns: 10_000,
                ..Default::default()
            },
            Category::Compute,
            c,
        );
        assert_eq!(k_end, k_base * 4);
    }

    #[test]
    fn corruption_rolls_follow_the_plan() {
        let g = Gpu::new(GpuConfig {
            record_ops: true,
            faults: Some(FaultPlan {
                seed: 13,
                corruption_rate: 0.5,
                ..FaultPlan::default()
            }),
            ..Default::default()
        });
        let rolls: Vec<bool> = (0..64).map(|_| g.roll_corruption()).collect();
        let hits = rolls.iter().filter(|c| **c).count();
        assert!(hits > 0 && hits < 64);
        assert_eq!(g.stats().faults_injected, hits as u64);
        let log = g.fault_log();
        assert_eq!(log.len(), hits);
        assert!(log.iter().all(|f| f.kind == FaultKind::Corruption));
        // No plan → never corrupt, no counter noise.
        let clean = Gpu::new(GpuConfig::default());
        assert!((0..64).all(|_| !clean.roll_corruption()));
        assert_eq!(clean.stats().faults_injected, 0);
    }

    #[test]
    fn engine_busy_counters_equal_summed_op_durations() {
        // Utilization is busy / makespan off these counters (DESIGN.md
        // §9), so on a pipelined run each engine's busy time must be
        // exactly the summed durations of its ops in the log.
        let g = Gpu::new(GpuConfig {
            record_ops: true,
            ..Default::default()
        });
        let load = g.create_stream("load");
        let comp = g.create_stream("comp");
        let evict = g.create_stream("evict");
        for i in 0..8u64 {
            g.copy_async(
                Direction::HostToDevice,
                (i + 1) << 18,
                Category::WalkLoad,
                load,
            )
            .unwrap();
            g.kernel_async(
                KernelCost {
                    update_ns: 40_000 + i * 1_000,
                    reshuffle_ns: 5_000,
                    zero_copy_bytes: if i % 2 == 0 { 1 << 16 } else { 0 },
                    ..Default::default()
                },
                Category::Compute,
                comp,
            );
            g.copy_async(Direction::DeviceToHost, 1 << 17, Category::WalkEvict, evict)
                .unwrap();
        }
        g.device_synchronize();
        let ops = g.op_log();
        let stats = g.stats();
        let summed = |engine: usize| -> Nanos {
            ops.iter()
                .filter(|o| o.engine == engine)
                .map(|o| o.end - o.start)
                .sum()
        };
        assert_eq!(stats.h2d_busy_ns, summed(0));
        assert_eq!(stats.d2h_busy_ns, summed(1));
        assert_eq!(stats.compute_busy_ns, summed(2));
        assert_eq!(stats.makespan_ns, ops.iter().map(|o| o.end).max().unwrap());
        // Pipelined: the engines overlap, so busy time sums past the
        // makespan while no single engine exceeds it.
        let busy = [stats.h2d_busy_ns, stats.d2h_busy_ns, stats.compute_busy_ns];
        assert!(busy.iter().all(|&b| b > 0 && b <= stats.makespan_ns));
        assert!(busy.iter().sum::<Nanos>() > stats.makespan_ns);
    }

    #[test]
    fn makespan_is_max_completion() {
        let g = gpu();
        let s = g.create_stream("s");
        let mut max_end = 0;
        for i in 0..10 {
            let e = g.copy_async(
                Direction::HostToDevice,
                1000 * (i + 1),
                Category::GraphLoad,
                s,
            );
            max_end = max_end.max(e.unwrap());
        }
        assert_eq!(g.stats().makespan_ns, max_end);
    }
}
