//! Baseline systems the paper compares LightTraffic against.
//!
//! - [`subway`]: a Subway-like out-of-GPU-memory engine — vertex-centric
//!   computation over a dynamically generated *active subgraph* each
//!   iteration (used by Figure 3, Table I, Figure 10).
//! - [`multiround`]\: the "keep all walks in GPU memory, run k rounds"
//!   strawman of §II-B / Figure 16.
//! - [`ingpu`]: a NextDoor-like fully in-GPU-memory engine for graphs that
//!   fit (Figure 11).
//! - [`csaw`]: the queue arithmetic of the C-SAW-like per-step/per-partition
//!   layout, whose out-of-memory failure §IV-B reports (excluded from
//!   Figure 9). It plans the reservation and runs no walks.
//! - [`cpu`]: a real host-executed random walk engine in the spirit of
//!   ThunderRW (step-interleaved walk-centric loop), plus calibrated
//!   ThunderRW and FlashMob throughput models for the paper's testbed
//!   (Figure 9).
//!
//! All executing baselines reuse [`lt_engine`]'s algorithms and counter-based RNG, so
//! they produce *identical trajectories* to LightTraffic — correctness can
//! be cross-checked system-to-system, and only the timing differs.
#![forbid(unsafe_code)]

use lt_engine::Metrics;
use lt_gpusim::GpuStats;
use serde::Serialize;

pub mod cpu;
pub mod csaw;
pub mod evolving;
pub mod ingpu;
pub mod multiround;
pub mod subway;

pub use cpu::CpuThroughputModel;
pub use ingpu::run_in_gpu_memory;
pub use multiround::run_multi_round;
pub use subway::SubwayConfig;

/// The one result shape every baseline returns, so harness code (tables,
/// the CLI `compare` command, JSON emitters) reads the same fields
/// regardless of which system produced the run.
///
/// Counters live in the same [`Metrics`] struct the LightTraffic engine
/// reports; baseline-specific quantities map onto its closest fields.
/// Simulated engines also attach the device's [`GpuStats`]; host-executed
/// engines leave it `None` and carry wall time in `metrics.makespan_ns`,
/// so [`Metrics::throughput`] reads correctly either way.
#[derive(Clone, Debug, Serialize)]
pub struct BaselineRun {
    /// Engine-style counters (`total_steps`, `finished_walks`,
    /// `makespan_ns`, ...).
    pub metrics: Metrics,
    /// Device time/traffic breakdowns, for simulated baselines.
    pub gpu: Option<GpuStats>,
    /// Per-vertex visit frequencies, when the algorithm tracks them.
    pub visits: Option<Vec<u64>>,
    /// Nanoseconds on the simulated device timeline (`0` for host-only
    /// engines, whose `metrics.makespan_ns` holds wall time instead).
    pub simulated_ns: u64,
}

impl BaselineRun {
    /// Steps per second (simulated for device baselines, measured wall
    /// time for host engines).
    pub fn throughput(&self) -> f64 {
        self.metrics.throughput()
    }

    /// Time-breakdown fractions `(computation, transmission, host work)`
    /// of the simulated device — Table I's three columns. All zeros for
    /// host-only runs.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let Some(gpu) = &self.gpu else {
            return (0.0, 0.0, 0.0);
        };
        let comp = gpu.computing_ns();
        let trans = gpu.transmission_ns();
        let host = gpu.host_work.busy_ns;
        let total = (comp + trans + host) as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            comp as f64 / total,
            trans as f64 / total,
            host as f64 / total,
        )
    }

    pub(crate) fn simulated(metrics: Metrics, gpu: GpuStats, visits: Option<Vec<u64>>) -> Self {
        let simulated_ns = gpu.makespan_ns;
        BaselineRun {
            metrics,
            gpu: Some(gpu),
            visits,
            simulated_ns,
        }
    }

    pub(crate) fn host(metrics: Metrics, visits: Option<Vec<u64>>) -> Self {
        BaselineRun {
            metrics,
            gpu: None,
            visits,
            simulated_ns: 0,
        }
    }
}
