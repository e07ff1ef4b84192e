//! Deterministic, seed-driven fault injection for the simulated device.
//!
//! A [`FaultPlan`] is part of [`crate::GpuConfig`] — faults are *configured*,
//! never drawn from ambient randomness, so a faulty run is exactly
//! reproducible from `(plan.seed, op order)`. Every injection decision hashes
//! the plan seed with a per-device op counter and a salt identifying the
//! decision site; the counter advances on the device's one owner in enqueue
//! order, which the engine keeps independent of host thread count. That is
//! what lets the recovery tests demand bit-identical results between faulty
//! and fault-free runs.
//!
//! Three failure families are modeled, mirroring what a production walk
//! service sees from real devices:
//!
//! - **copy faults**: an H2D/D2H transfer errors out, either *retryable*
//!   (transient link error — the caller may re-issue) or *fatal* (device
//!   lost — the caller must recover from a checkpoint). The failed attempt
//!   still occupies the copy engine and still moved bytes: recovery overhead
//!   is charged honestly to the simulated clock.
//! - **corruption**: a graph-pool block arrives damaged; detected by the
//!   engine after the load (checksum semantics), the block must be dropped
//!   and the partition re-read or degraded to zero-copy access.
//! - **stragglers**: an op's latency is multiplied by
//!   [`FaultPlan::straggler_factor`], modeling link contention spikes.

use crate::cost::Nanos;
use crate::sim::Direction;
use serde::{Deserialize, Serialize};

/// Decision-site salts; distinct per fault family so changing one rate never
/// shifts another family's decisions.
pub(crate) const SALT_STRAGGLER: u64 = 0x5354_5241_4747_4c52; // "STRAGGLR"
pub(crate) const SALT_COPY: u64 = 0x434f_5059_4641_554c; // "COPYFAUL"
pub(crate) const SALT_CORRUPT: u64 = 0x434f_5252_5550_5431; // "CORRUPT1"

/// A deterministic fault-injection schedule.
///
/// All rates are probabilities in `[0, 1]`; the all-zero default injects
/// nothing, so `GpuConfig::default()` behaves exactly as before faults
/// existed.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed every injection decision derives from.
    pub seed: u64,
    /// Probability that a copy fails with a retryable error.
    pub copy_retryable_rate: f64,
    /// Probability that a copy fails fatally (device lost).
    pub copy_fatal_rate: f64,
    /// Probability that a graph block loaded over the link arrives
    /// corrupted (checked by the engine via [`crate::Gpu::roll_corruption`]).
    pub corruption_rate: f64,
    /// Probability that an op suffers a latency spike.
    pub straggler_rate: f64,
    /// Latency multiplier applied on a straggler spike.
    pub straggler_factor: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            copy_retryable_rate: 0.0,
            copy_fatal_rate: 0.0,
            corruption_rate: 0.0,
            straggler_rate: 0.0,
            straggler_factor: 4,
        }
    }
}

impl FaultPlan {
    /// A plan injecting only retryable copy faults — the family recovery
    /// must absorb with zero effect on data outputs.
    pub fn retryable_only(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            copy_retryable_rate: rate,
            ..FaultPlan::default()
        }
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.copy_retryable_rate > 0.0
            || self.copy_fatal_rate > 0.0
            || self.corruption_rate > 0.0
            || self.straggler_rate > 0.0
    }

    /// Deterministic decision: does the fault fire for op `counter` at this
    /// `salt` site? Returns the uniform draw so call sites can split one
    /// roll across mutually exclusive outcomes.
    pub(crate) fn roll(&self, counter: u64, salt: u64) -> f64 {
        let mut z = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(counter.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            ^ salt;
        // splitmix64 finalizer: full avalanche so neighboring counters are
        // uncorrelated.
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // 53 high bits → uniform f64 in [0, 1).
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Which family an injected fault belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Transient copy failure; the transfer may be re-issued.
    CopyRetryable,
    /// Unrecoverable device failure; only checkpoint recovery helps.
    CopyFatal,
    /// A loaded graph block failed its integrity check.
    Corruption,
    /// An op's latency was multiplied by the straggler factor.
    Straggler,
}

impl FaultKind {
    /// Short label for traces and logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CopyRetryable => "copy retryable",
            FaultKind::CopyFatal => "copy fatal",
            FaultKind::Corruption => "corruption",
            FaultKind::Straggler => "straggler",
        }
    }
}

/// One injected fault, kept in the device's fault log.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultRecord {
    /// Fault family.
    pub kind: FaultKind,
    /// Value of the device op counter when the decision fired.
    pub op_index: u64,
    /// Simulated time the affected op started.
    pub at_ns: Nanos,
    /// Engine the affected op ran on (0 = H2D, 1 = D2H, 2 = compute);
    /// corruption rolls report the H2D engine that carried the load.
    pub engine: usize,
}

/// An error surfaced by a device operation.
///
/// `#[non_exhaustive]`: future device models (FPGA port, NVLink peers) will
/// add variants without breaking engine code that matches on these.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum DeviceError {
    /// A DMA transfer failed.
    CopyFault {
        /// Transfer direction of the failed copy.
        direction: Direction,
        /// Requested transfer size.
        bytes: u64,
        /// Whether re-issuing the copy can succeed.
        retryable: bool,
    },
}

impl DeviceError {
    /// Whether the operation may be re-issued.
    pub fn is_retryable(&self) -> bool {
        match self {
            DeviceError::CopyFault { retryable, .. } => *retryable,
        }
    }
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::CopyFault {
                direction,
                bytes,
                retryable,
            } => {
                let dir = match direction {
                    Direction::HostToDevice => "H2D",
                    Direction::DeviceToHost => "D2H",
                };
                let class = if *retryable { "retryable" } else { "fatal" };
                write!(f, "{class} {dir} copy fault after {bytes} bytes")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_uniform_ish() {
        let plan = FaultPlan::retryable_only(7, 0.5);
        let a: Vec<f64> = (0..1000).map(|i| plan.roll(i, SALT_COPY)).collect();
        let b: Vec<f64> = (0..1000).map(|i| plan.roll(i, SALT_COPY)).collect();
        assert_eq!(a, b, "same seed + counter + salt must reproduce");
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((0.45..0.55).contains(&mean), "mean {mean} far from 0.5");
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn salts_decorrelate_decision_sites() {
        let plan = FaultPlan::retryable_only(7, 0.5);
        let copy: Vec<bool> = (0..256).map(|i| plan.roll(i, SALT_COPY) < 0.1).collect();
        let strag: Vec<bool> = (0..256)
            .map(|i| plan.roll(i, SALT_STRAGGLER) < 0.1)
            .collect();
        assert_ne!(copy, strag, "different salts must give different draws");
    }

    #[test]
    fn default_plan_is_inert() {
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::retryable_only(1, 0.01).is_active());
    }

    #[test]
    fn device_error_reports_retryability() {
        let e = DeviceError::CopyFault {
            direction: Direction::HostToDevice,
            bytes: 64,
            retryable: true,
        };
        assert!(e.is_retryable());
        assert!(e.to_string().contains("retryable"));
        let f = DeviceError::CopyFault {
            direction: Direction::DeviceToHost,
            bytes: 64,
            retryable: false,
        };
        assert!(!f.is_retryable());
        assert!(f.to_string().contains("fatal"));
    }
}
