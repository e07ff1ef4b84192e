//! Fault-injection acceptance tests: retryable faults never change data
//! outputs, and checkpoint-based recovery survives fatal faults with the
//! fault-free outputs intact (DESIGN.md §8).

use lt_engine::algorithm::{PageRank, UniformSampling};
use lt_engine::{EngineConfig, EngineError, LightTraffic, RunResult, RunStatus};
use lt_gpusim::FaultPlan;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use proptest::prelude::*;
use std::sync::Arc;

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            seed: 7,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn cfg(faults: Option<FaultPlan>, kernel_threads: usize) -> EngineConfig {
    let mut cfg = EngineConfig {
        batch_capacity: 256,
        kernel_threads,
        record_paths: true,
        ..EngineConfig::light_traffic(16 << 10, 4)
    };
    cfg.gpu.faults = faults;
    cfg
}

fn run(faults: Option<FaultPlan>, kernel_threads: usize) -> RunResult {
    let g = graph();
    let mut e = LightTraffic::new(
        g,
        Arc::new(PageRank::new(8, 0.15)),
        cfg(faults, kernel_threads),
    )
    .unwrap();
    e.run(2_000).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: any retryable-only fault plan yields visit
    /// counts, sampled paths, and finished-walk counts *bit-identical* to
    /// the fault-free run — at one host kernel thread and at four. Faults
    /// may only stretch the simulated clock.
    #[test]
    fn retryable_faults_never_change_outputs(
        seed in any::<u64>(),
        rate in 0.01f64..0.3,
        straggler_rate in 0.0f64..0.3,
    ) {
        let clean = run(None, 1);
        let plan = FaultPlan {
            straggler_rate,
            ..FaultPlan::retryable_only(seed, rate)
        };
        for threads in [1usize, 4] {
            let faulty = run(Some(plan.clone()), threads);
            prop_assert_eq!(&faulty.visit_counts, &clean.visit_counts, "visits, {} threads", threads);
            prop_assert_eq!(&faulty.paths, &clean.paths, "paths, {} threads", threads);
            prop_assert_eq!(
                faulty.metrics.finished_walks,
                clean.metrics.finished_walks,
                "finished walks, {} threads", threads
            );
            prop_assert_eq!(faulty.metrics.total_steps, clean.metrics.total_steps);
            prop_assert_eq!(&faulty.metrics.length_histogram, &clean.metrics.length_histogram);
            if plan.straggler_rate > 0.0 || plan.copy_retryable_rate > 0.0 {
                prop_assert!(
                    faulty.metrics.faults_injected > 0 || faulty.metrics.retries == 0,
                    "retries without injected faults"
                );
            }
        }
    }
}

/// Fault timing is charged: a run with retryable faults takes longer on
/// the simulated clock than the fault-free run, and the retry counter
/// moves.
#[test]
fn retries_cost_simulated_time() {
    let clean = run(None, 1);
    let faulty = run(Some(FaultPlan::retryable_only(3, 0.2)), 1);
    assert!(faulty.metrics.retries > 0, "20% fault rate must retry");
    assert!(faulty.metrics.faults_injected > 0);
    assert!(
        faulty.metrics.makespan_ns > clean.metrics.makespan_ns,
        "faulty {} !> clean {}",
        faulty.metrics.makespan_ns,
        clean.metrics.makespan_ns
    );
}

/// Checkpoint-based recovery: fatal faults mid-run roll back to the latest
/// auto-snapshot, and the recovered run still produces the fault-free
/// outputs — only the clock shows the lost work.
#[test]
fn fatal_faults_recover_from_auto_checkpoints() {
    let clean = run(None, 1);
    let plan = FaultPlan {
        copy_fatal_rate: 0.08,
        ..FaultPlan::default()
    };
    let mut cfg = cfg(Some(plan), 1);
    cfg.checkpoint_every = Some(8);
    let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
    let r = e.run(2_000).unwrap();
    assert!(
        r.metrics.recoveries > 0,
        "8% fatal rate over this run must trigger recovery"
    );
    assert_eq!(r.visit_counts, clean.visit_counts);
    assert_eq!(r.paths, clean.paths);
    assert_eq!(r.metrics.finished_walks, clean.metrics.finished_walks);
    assert_eq!(r.metrics.total_steps, clean.metrics.total_steps);
    assert_eq!(r.metrics.length_histogram, clean.metrics.length_histogram);
    assert!(
        r.metrics.makespan_ns > clean.metrics.makespan_ns,
        "recovery overhead must show on the clock"
    );
}

/// Without `checkpoint_every`, a fatal fault surfaces as
/// `EngineError::Device` with the source error attached — and the engine
/// is still checkpointable (no walk was lost).
#[test]
fn fatal_fault_without_recovery_surfaces_and_preserves_walks() {
    let plan = FaultPlan {
        copy_fatal_rate: 0.05,
        ..FaultPlan::default()
    };
    let mut s = LightTraffic::new(
        graph(),
        Arc::new(UniformSampling::new(12)),
        cfg(Some(plan), 1),
    )
    .unwrap();
    s.inject_walks(2_000);
    let err = loop {
        match s.step(64) {
            Ok(RunStatus::Paused) => continue,
            Ok(RunStatus::Completed(_)) => panic!("5% fatal rate cannot complete"),
            Ok(other) => panic!("unexpected run status: {other:?}"),
            Err(e) => break e,
        }
    };
    match &err {
        EngineError::Device(d) => assert!(!d.is_retryable(), "only fatal errors escape retry"),
        other => panic!("expected a device error, got {other}"),
    }
    assert!(
        std::error::Error::source(&err).is_some(),
        "device errors carry their source"
    );
    // Every injected walk is still accounted for: finished + in checkpoint.
    let cp = s.checkpoint();
    assert_eq!(cp.active_walks() + cp.finished_walks, 2_000);
}

/// A checkpoint taken before a fatal crash resumes on a fresh engine to
/// the exact fault-free outputs (the manual recovery path).
#[test]
fn manual_checkpoint_round_trip_through_a_fatal_fault() {
    let clean = run(None, 1);
    let plan = FaultPlan {
        copy_fatal_rate: 0.08,
        ..FaultPlan::default()
    };
    // Drive with periodic manual checkpoints until the device dies.
    let mut s = LightTraffic::new(
        graph(),
        Arc::new(PageRank::new(8, 0.15)),
        cfg(Some(plan), 1),
    )
    .unwrap();
    s.inject_walks(2_000);
    let mut cp = s.checkpoint();
    let crashed = loop {
        match s.step(8) {
            Ok(RunStatus::Paused) => cp = s.checkpoint(),
            Ok(RunStatus::Completed(_)) => break false,
            Ok(other) => panic!("unexpected run status: {other:?}"),
            Err(EngineError::Device(_)) => break true,
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    assert!(crashed, "8% fatal rate over this many copies must crash");
    // "Reboot": fresh fault-free engine, resume from the survivor.
    let mut fresh =
        LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg(None, 1)).unwrap();
    fresh.restore(cp).unwrap();
    let r = fresh.finish().unwrap();
    assert_eq!(r.visit_counts, clean.visit_counts);
    assert_eq!(r.metrics.finished_walks, clean.metrics.finished_walks);
    assert_eq!(r.metrics.total_steps, clean.metrics.total_steps);
}

/// Repeated corrupted loads degrade a partition to zero-copy access; the
/// run completes with correct outputs and reports the degradation.
#[test]
fn corrupted_partitions_degrade_to_zero_copy() {
    let clean = run(None, 1);
    let plan = FaultPlan {
        corruption_rate: 0.6,
        ..FaultPlan::default()
    };
    let mut cfg = cfg(Some(plan), 1);
    cfg.corruption_degrade_threshold = 2;
    let mut e = LightTraffic::new(graph(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
    let r = e.run(2_000).unwrap();
    assert!(
        r.metrics.degraded_partitions > 0,
        "60% corruption must degrade at least one partition"
    );
    assert!(r.metrics.zero_copy_kernels > 0);
    assert_eq!(r.visit_counts, clean.visit_counts);
    assert_eq!(r.metrics.finished_walks, clean.metrics.finished_walks);
    assert_eq!(r.metrics.total_steps, clean.metrics.total_steps);
}
