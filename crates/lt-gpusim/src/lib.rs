//! A discrete-event GPU + PCIe simulator.
//!
//! This crate is the hardware substitute for the paper's CUDA testbed (see
//! DESIGN.md §1). It models exactly the resources whose contention the paper
//! optimizes:
//!
//! - **Device memory** with a hard capacity, allocated up front into
//!   fixed-size block pools (`cudaMalloc` semantics — no dynamic
//!   reallocation inside kernels, §II-B) — [`Gpu::malloc`] / [`pool::BlockPool`].
//! - **A full-duplex PCIe link**: independent host→device and device→host
//!   copy engines, so walk-batch eviction overlaps loading (§III-D).
//! - **A compute engine** executing kernels; kernel *side effects* run
//!   eagerly on the host (real walker updates), while the simulated clock is
//!   charged from a calibrated [`cost::CostModel`].
//! - **CUDA-like streams** ([`StreamId`]): ordered op queues that interleave
//!   on the engines, with `synchronize`/`busy` giving the host the
//!   just-in-time dispatch ability Algorithm 2 needs.
//! - **Zero copy**: kernels may read host memory directly; the model charges
//!   cacheline-granular traffic on the H2D link at a reduced random-access
//!   bandwidth (§III-E).
//!
//! Timing semantics: the host program runs "instantaneously" except where it
//! blocks on [`Gpu::synchronize`] or charges explicit host work via
//! [`Gpu::host_advance`]. Each async op starts at
//! `max(host clock at enqueue, stream tail, engine availability)` — FIFO per
//! engine in enqueue order — which is exact for the in-order hardware queues
//! the paper's three streams map onto.
#![forbid(unsafe_code)]

pub mod cost;
pub mod fault;
pub mod pool;
pub mod sim;
pub mod stats;
pub mod trace;

pub use cost::{CostModel, KernelCost};
pub use fault::{DeviceError, FaultKind, FaultPlan, FaultRecord};
pub use pool::BlockPool;
pub use sim::{Allocation, Direction, Gpu, GpuConfig, OpRecord, StreamId};
pub use stats::{Category, GpuStats};
