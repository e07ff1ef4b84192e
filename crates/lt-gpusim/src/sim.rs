//! The simulator core: device memory accounting, streams, engines, and the
//! virtual clock.

use crate::cost::{CostModel, KernelCost, Nanos};
use crate::fault::{
    DeviceError, FaultKind, FaultPlan, FaultRecord, SALT_COPY, SALT_CORRUPT, SALT_STRAGGLER,
};
use crate::stats::{Category, GpuStats};
use serde::Serialize;

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

/// Device capacity exceeded.
#[derive(Clone, Copy, Debug)]
pub struct OutOfMemory {
    /// Bytes requested by the refused reservation.
    pub requested: u64,
    /// Bytes already reserved.
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
    /// Fault injected into this op, if any (the copy failure when one
    /// fired, otherwise a straggler spike).
    pub fault: Option<FaultKind>,
}

/// The simulated GPU. A plain value with one owner — the engine or
/// baseline that drives it: ops that advance the simulated clock or the
/// fault counter take `&mut self`, reads take `&self` and borrow.
///
/// ```
/// use lt_gpusim::{Gpu, GpuConfig, Direction, Category};
/// let mut gpu = Gpu::new(GpuConfig::default());
/// let load = gpu.create_stream();
/// gpu.copy_async(Direction::HostToDevice, 12 << 30, Category::GraphLoad, load).unwrap();
/// assert!(gpu.busy(load));
/// gpu.synchronize(load);
/// assert!(!gpu.busy(load));
/// // 12 GB at 12 GB/s ≈ 1 simulated second.
/// assert!((0.9e9..1.1e9).contains(&(gpu.now() as f64)));
/// ```
#[derive(Debug)]
pub struct Gpu {
    config: GpuConfig,
    host_clock: Nanos,
    used_bytes: u64,
    /// Completion time of the last op enqueued on each stream.
    stream_tails: Vec<Nanos>,
    /// Next-free time of each engine.
    engine_free: [Nanos; NUM_ENGINES],
    stats: GpuStats,
    op_log: Vec<OpRecord>,
    /// Device op counter driving fault decisions; advances in enqueue
    /// order, so it is independent of host thread count.
    fault_counter: u64,
    fault_log: Vec<FaultRecord>,
}

impl Gpu {
    /// Create a device.
    pub fn new(config: GpuConfig) -> Self {
        Gpu {
            config,
            host_clock: 0,
            used_bytes: 0,
            stream_tails: Vec::new(),
            engine_free: [0; NUM_ENGINES],
            stats: GpuStats::default(),
            op_log: Vec::new(),
            fault_counter: 0,
            fault_log: Vec::new(),
        }
    }

    /// The cost model in use.
    pub fn cost(&self) -> &CostModel {
        &self.config.cost
    }

    /// Reserve `bytes` of device memory for the rest of the device's life
    /// (`cudaMalloc` once, §III-B). A refused reservation changes nothing.
    pub fn reserve(&mut self, bytes: u64) -> Result<(), OutOfMemory> {
        match self.used_bytes.checked_add(bytes) {
            Some(total) if total <= self.config.memory_bytes => {
                self.used_bytes = total;
                Ok(())
            }
            _ => Err(OutOfMemory {
                requested: bytes,
                used: self.used_bytes,
                capacity: self.config.memory_bytes,
            }),
        }
    }

    /// Bytes reserved so far.
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Create a stream.
    pub fn create_stream(&mut self) -> StreamId {
        self.stream_tails.push(0);
        StreamId(self.stream_tails.len() - 1)
    }

    /// Enqueue an async copy of `bytes` in `dir`, charged to `category`.
    /// Returns the simulated completion time, or the injected
    /// [`DeviceError`] when the configured [`FaultPlan`] fails the copy.
    ///
    /// A failed attempt is charged like a successful one — it occupied the
    /// engine and moved bytes before erroring — so retry overhead lands on
    /// the simulated clock where recovery benchmarks can see it.
    pub fn copy_async(
        &mut self,
        dir: Direction,
        bytes: u64,
        category: Category,
        stream: StreamId,
    ) -> Result<Nanos, DeviceError> {
        let mut dur = self.config.cost.copy_time(bytes);
        let engine = match dir {
            Direction::HostToDevice => ENGINE_H2D,
            Direction::DeviceToHost => ENGINE_D2H,
        };
        let mut fired: Vec<FaultKind> = Vec::new();
        let mut failure: Option<bool> = None;
        if let Some(plan) = self.config.faults.as_ref().filter(|p| p.is_active()) {
            let n = self.fault_counter;
            self.fault_counter += 1;
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
        let end = self.schedule(engine, dur, 0, category, stream, fired.last().copied());
        self.stats.category_mut(category).bytes += bytes;
        if !fired.is_empty() {
            self.stats.faults_injected += fired.len() as u64;
            let op_index = self.fault_counter - 1;
            for kind in fired {
                self.log_fault(FaultRecord {
                    kind,
                    op_index,
                    at_ns: end - dur,
                    engine,
                });
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
    pub fn kernel_async(
        &mut self,
        cost: KernelCost,
        category: Category,
        stream: StreamId,
    ) -> Nanos {
        let model = &self.config.cost;
        let device_ns = cost.device_ns() + model.kernel_launch_ns;
        let (mut dur, zc_link_ns, zc_bytes) = if cost.zero_copy_bytes > 0 {
            let link = model.zero_copy_time(cost.zero_copy_bytes);
            (
                device_ns.max(link),
                link,
                model.zero_copy_bytes(cost.zero_copy_bytes),
            )
        } else {
            (device_ns, 0, 0)
        };
        let mut op_fault = None;
        if let Some(plan) = self.config.faults.as_ref().filter(|p| p.is_active()) {
            let n = self.fault_counter;
            self.fault_counter += 1;
            if plan.roll(n, SALT_STRAGGLER) < plan.straggler_rate {
                dur = dur.saturating_mul(u64::from(plan.straggler_factor.max(1)));
                op_fault = Some(FaultKind::Straggler);
            }
        }
        let end = self.schedule(ENGINE_COMPUTE, dur, zc_link_ns, category, stream, op_fault);
        if let Some(kind) = op_fault {
            self.stats.faults_injected += 1;
            self.log_fault(FaultRecord {
                kind,
                op_index: self.fault_counter - 1,
                at_ns: end - dur,
                engine: ENGINE_COMPUTE,
            });
        }
        self.stats.kernel_update_ns += cost.update_ns;
        self.stats.kernel_reshuffle_ns += cost.reshuffle_ns;
        self.stats.kernel_other_ns += cost.other_ns + self.config.cost.kernel_launch_ns;
        self.stats.category_mut(category).bytes += zc_bytes;
        end
    }

    /// Block the host until every op on `stream` has completed
    /// (`cudaStreamSynchronize`).
    pub fn synchronize(&mut self, stream: StreamId) {
        self.host_clock = self.host_clock.max(self.stream_tails[stream.0]);
    }

    /// Whether `stream` still has ops the host has not yet waited past.
    pub fn busy(&self, stream: StreamId) -> bool {
        self.stream_tails[stream.0] > self.host_clock
    }

    /// Block the host until the whole device drains (`cudaDeviceSynchronize`).
    pub fn device_synchronize(&mut self) {
        let max = self.stream_tails.iter().copied().max().unwrap_or(0);
        self.host_clock = self.host_clock.max(max);
    }

    /// Charge `ns` of host-side work (advances the host clock).
    pub fn host_advance(&mut self, ns: Nanos, category: Category) {
        self.host_clock += ns;
        let cat = self.stats.category_mut(category);
        cat.busy_ns += ns;
        cat.count += 1;
        self.stats.makespan_ns = self.stats.makespan_ns.max(self.host_clock);
    }

    /// Current host clock (ns).
    pub fn now(&self) -> Nanos {
        self.host_clock
    }

    /// The accumulated statistics.
    pub fn stats(&self) -> &GpuStats {
        &self.stats
    }

    /// The recorded op log (empty unless [`GpuConfig::record_ops`]).
    pub fn op_log(&self) -> &[OpRecord] {
        &self.op_log
    }

    /// Roll the configured corruption rate for a graph block that just
    /// finished loading. Returns `true` when the block arrived corrupted;
    /// the caller (the engine, after a graph-load copy) must then drop the
    /// block and either reload or degrade the partition. Always `false`
    /// without an active fault plan, and consumes one op-counter slot when
    /// a plan is active so decisions stay aligned across runs.
    pub fn roll_corruption(&mut self) -> bool {
        let Some(plan) = self.config.faults.as_ref().filter(|p| p.is_active()) else {
            return false;
        };
        let n = self.fault_counter;
        self.fault_counter += 1;
        if plan.roll(n, SALT_CORRUPT) < plan.corruption_rate {
            self.stats.faults_injected += 1;
            self.log_fault(FaultRecord {
                kind: FaultKind::Corruption,
                op_index: n,
                at_ns: self.host_clock,
                engine: ENGINE_H2D,
            });
            true
        } else {
            false
        }
    }

    /// Every fault injected so far, in decision order (empty unless
    /// [`GpuConfig::record_ops`]).
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    fn log_fault(&mut self, rec: FaultRecord) {
        if self.config.record_ops {
            self.fault_log.push(rec);
        }
    }

    /// Busy-time accumulator of `engine`.
    fn engine_busy(&mut self, engine: usize) -> &mut Nanos {
        match engine {
            ENGINE_H2D => &mut self.stats.h2d_busy_ns,
            ENGINE_D2H => &mut self.stats.d2h_busy_ns,
            _ => &mut self.stats.compute_busy_ns,
        }
    }

    /// Schedule an op on `engine`. Start = max(host clock, stream tail,
    /// engine free); FIFO per engine in enqueue order. A kernel with
    /// zero-copy traffic (`zc_link_ns > 0`) also waits for, and reserves,
    /// the H2D link for `zc_link_ns` from its start; that reservation is
    /// logged as a second op right after the kernel's.
    fn schedule(
        &mut self,
        engine: usize,
        duration: Nanos,
        zc_link_ns: Nanos,
        category: Category,
        stream: StreamId,
        fault: Option<FaultKind>,
    ) -> Nanos {
        let mut start = self
            .host_clock
            .max(self.stream_tails[stream.0])
            .max(self.engine_free[engine]);
        if zc_link_ns > 0 {
            start = start.max(self.engine_free[ENGINE_H2D]);
        }
        let end = start + duration;
        self.engine_free[engine] = end;
        *self.engine_busy(engine) += duration;
        if zc_link_ns > 0 {
            self.engine_free[ENGINE_H2D] = start + zc_link_ns;
            *self.engine_busy(ENGINE_H2D) += zc_link_ns;
        }
        self.stream_tails[stream.0] = end;
        let cat = self.stats.category_mut(category);
        cat.busy_ns += duration;
        cat.count += 1;
        self.stats.makespan_ns = self.stats.makespan_ns.max(end);
        if self.config.record_ops {
            self.op_log.push(OpRecord {
                category,
                engine,
                start,
                end,
                stream: stream.0,
                fault,
            });
            if zc_link_ns > 0 {
                self.op_log.push(OpRecord {
                    category,
                    engine: ENGINE_H2D,
                    start,
                    end: start + zc_link_ns,
                    stream: stream.0,
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
    fn reserve_respects_capacity() {
        let mut g = gpu();
        g.reserve(512 << 10).unwrap();
        g.reserve(512 << 10).unwrap();
        let err = g.reserve(1).unwrap_err();
        assert_eq!(
            (err.requested, err.used, err.capacity),
            (1, 1 << 20, 1 << 20)
        );
        // A request that would overflow the running total is refused too.
        assert!(g.reserve(u64::MAX).is_err());
        assert_eq!(g.used_bytes(), 1 << 20);
    }

    #[test]
    fn streams_are_ordered() {
        let mut g = gpu();
        let s = g.create_stream();
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
        let mut g = gpu();
        let load = g.create_stream();
        let evict = g.create_stream();
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
        let mut g = gpu();
        let s1 = g.create_stream();
        let s2 = g.create_stream();
        g.copy_async(Direction::HostToDevice, 4 << 20, Category::GraphLoad, s1)
            .unwrap();
        g.copy_async(Direction::HostToDevice, 4 << 20, Category::GraphLoad, s2)
            .unwrap();
        let log = g.op_log();
        assert_eq!(log[1].start, log[0].end, "H2D engine must serialize");
    }

    #[test]
    fn compute_overlaps_with_loading() {
        let mut g = gpu();
        let load = g.create_stream();
        let comp = g.create_stream();
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
        let mut g = gpu();
        let s = g.create_stream();
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
        let mut g = gpu();
        let s = g.create_stream();
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
        let mut g = gpu();
        let comp = g.create_stream();
        let load = g.create_stream();
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
        let zc_time = g.cost().zero_copy_time(8 << 20);
        assert_eq!(k_end, zc_time);
    }

    #[test]
    fn stats_accumulate_by_category() {
        let mut g = gpu();
        let s = g.create_stream();
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
        let mut g = gpu();
        let streams: Vec<_> = (0..4).map(|_| g.create_stream()).collect();
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
    fn injected_copy_faults_are_deterministic_and_charged() {
        let run = || {
            let mut g = Gpu::new(GpuConfig {
                memory_bytes: 1 << 20,
                cost: CostModel::pcie3(),
                record_ops: true,
                faults: Some(FaultPlan::retryable_only(11, 0.5)),
            });
            let s = g.create_stream();
            let outcomes: Vec<bool> = (0..64)
                .map(|_| {
                    g.copy_async(Direction::HostToDevice, 1 << 16, Category::GraphLoad, s)
                        .is_ok()
                })
                .collect();
            (outcomes, g.stats().clone(), g.fault_log().len())
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
        let mut g = Gpu::new(GpuConfig {
            record_ops: true,
            faults: Some(FaultPlan::retryable_only(11, 1.0)),
            ..Default::default()
        });
        let s = g.create_stream();
        let err = g
            .copy_async(Direction::HostToDevice, 4096, Category::WalkLoad, s)
            .unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(g.op_log()[0].fault, Some(FaultKind::CopyRetryable));
    }

    #[test]
    fn fatal_faults_outrank_retryable() {
        let mut g = Gpu::new(GpuConfig {
            faults: Some(FaultPlan {
                seed: 5,
                copy_retryable_rate: 1.0,
                copy_fatal_rate: 1.0,
                ..FaultPlan::default()
            }),
            ..Default::default()
        });
        let s = g.create_stream();
        let err = g
            .copy_async(Direction::DeviceToHost, 4096, Category::WalkEvict, s)
            .unwrap_err();
        assert!(!err.is_retryable());
    }

    #[test]
    fn stragglers_multiply_latency_without_failing() {
        let base = {
            let mut g = gpu();
            let s = g.create_stream();
            g.copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
                .unwrap()
        };
        let mut g = Gpu::new(GpuConfig {
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
        let s = g.create_stream();
        let end = g
            .copy_async(Direction::HostToDevice, 1 << 20, Category::GraphLoad, s)
            .unwrap();
        assert_eq!(end, base * 4, "straggler must multiply the copy latency");
        assert_eq!(g.op_log()[0].fault, Some(FaultKind::Straggler));
        assert_eq!(g.stats().faults_injected, 1);
        // Kernels spike too.
        let k_base = {
            let mut g2 = gpu();
            let c = g2.create_stream();
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
        let c = g.create_stream();
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
        let mut g = Gpu::new(GpuConfig {
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
        let mut clean = Gpu::new(GpuConfig::default());
        assert!((0..64).all(|_| !clean.roll_corruption()));
        assert_eq!(clean.stats().faults_injected, 0);
    }

    #[test]
    fn engine_busy_counters_equal_summed_op_durations() {
        // Utilization is busy / makespan off these counters (DESIGN.md
        // §9), so on a pipelined run each engine's busy time must be
        // exactly the summed durations of its ops in the log.
        let mut g = Gpu::new(GpuConfig {
            record_ops: true,
            ..Default::default()
        });
        let load = g.create_stream();
        let comp = g.create_stream();
        let evict = g.create_stream();
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
        let mut g = gpu();
        let s = g.create_stream();
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
