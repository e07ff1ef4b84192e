//! Determinism contract of the typed timeline: a run's device op log,
//! fault log and iteration log are functions of the simulated schedule
//! alone. With no field masked, a run at four kernel threads records
//! exactly what the one-thread run records — fault-free, under retryable
//! faults, and through a fatal fault and the recovery that follows it.

use lt_engine::algorithm::PageRank;
use lt_engine::{EngineConfig, LightTraffic};
use lt_gpusim::{FaultKind, FaultPlan, GpuConfig};
use lt_graph::gen::{rmat, RmatParams};
use std::sync::Arc;

/// One run's records, serialized for comparison.
#[derive(Debug, PartialEq)]
struct Timeline {
    ops: String,
    faults: String,
    iterations: String,
    fingerprint: String,
}

/// A run's timeline plus the facts each case checks it exercised.
struct Recorded {
    timeline: Timeline,
    max_kernel_threads: u64,
    fault_kinds: Vec<FaultKind>,
    recoveries: u64,
}

fn record(faults: Option<FaultPlan>, kernel_threads: usize) -> Recorded {
    let g = Arc::new(
        rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: 7,
            ..RmatParams::default()
        })
        .csr,
    );
    // Batches above 256 walkers fan out across kernel threads.
    let cfg = EngineConfig {
        batch_capacity: 1024,
        kernel_threads,
        record_iterations: true,
        checkpoint_every: Some(8),
        gpu: GpuConfig {
            record_ops: true,
            faults,
            ..GpuConfig::default()
        },
        ..EngineConfig::light_traffic(16 << 10, 4)
    };
    let mut e = LightTraffic::new(g, Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
    let r = e.run(4_096).unwrap();
    let iterations = r.iterations.as_ref().unwrap();
    let ops = e.gpu().op_log();
    assert!(!ops.is_empty() && !iterations.is_empty());
    let fault_log = e.gpu().fault_log();
    Recorded {
        timeline: Timeline {
            ops: serde_json::to_string(&ops).unwrap(),
            faults: serde_json::to_string(&fault_log).unwrap(),
            iterations: serde_json::to_string(iterations).unwrap(),
            fingerprint: r.deterministic_fingerprint(),
        },
        max_kernel_threads: r.metrics.max_kernel_threads,
        fault_kinds: fault_log.iter().map(|f| f.kind).collect(),
        recoveries: r.metrics.recoveries,
    }
}

/// Record at one and at four kernel threads, check that the four-thread
/// run really fanned a kernel out, and require equal timelines.
fn assert_thread_count_independent(faults: Option<FaultPlan>) -> Recorded {
    let one = record(faults.clone(), 1);
    let four = record(faults, 4);
    assert_eq!(one.max_kernel_threads, 1);
    assert!(
        four.max_kernel_threads > 1,
        "no kernel fanned out; the case cannot tell thread counts apart"
    );
    assert_eq!(one.timeline, four.timeline);
    one
}

#[test]
fn fault_free_timeline_is_thread_count_independent() {
    let r = assert_thread_count_independent(None);
    assert!(r.fault_kinds.is_empty());
}

#[test]
fn retryable_fault_timeline_is_thread_count_independent() {
    let r = assert_thread_count_independent(Some(FaultPlan::retryable_only(11, 0.25)));
    assert!(r.fault_kinds.contains(&FaultKind::CopyRetryable));
}

#[test]
fn recovery_timeline_is_thread_count_independent() {
    let plan = FaultPlan {
        copy_fatal_rate: 0.05,
        ..FaultPlan::default()
    };
    let r = assert_thread_count_independent(Some(plan));
    assert!(r.fault_kinds.contains(&FaultKind::CopyFatal));
    assert!(r.recoveries > 0, "a fatal fault must roll the run back");
}
