//! Ledger exactness acceptance tests (DESIGN.md §14): when attribution
//! is on, every byte the simulated GPU moves is charged to exactly one
//! `(tag, partition, direction)` cell — the ledger's sums equal the
//! device's own category counters bit for bit, across kernel-thread
//! counts, zero-copy policies, and retryable fault injection (retried
//! copies are charged attempt for attempt, same as the device counts
//! them).

use lt_engine::algorithm::{SecondOrderWalk, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic, ZeroCopyPolicy};
use lt_gpusim::FaultPlan;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use lt_telemetry::SHARED_TAG;
use std::sync::Arc;

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: 11,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn cfg(
    zero_copy: ZeroCopyPolicy,
    kernel_threads: usize,
    faults: Option<FaultPlan>,
) -> EngineConfig {
    let mut cfg = EngineConfig {
        batch_capacity: 256,
        kernel_threads,
        attribution: true,
        zero_copy,
        ..EngineConfig::light_traffic(8 << 10, 4)
    };
    cfg.gpu.faults = faults;
    cfg
}

/// Run `walks` to completion and assert the ledger's totals equal the
/// GPU's category counters exactly; returns total steps for follow-on
/// checks.
fn assert_exact(alg: Arc<dyn WalkAlgorithm>, cfg: EngineConfig, walks: u64) -> u64 {
    let mut e = LightTraffic::new(graph(), alg, cfg).expect("pools fit");
    let result = e.run(walks).expect("run completes");
    let stats = e.gpu().stats();
    let ledger = e.traffic_ledger().expect("attribution is on");

    // The exactness invariant: summed over every (tag, partition) cell,
    // the ledger reproduces the device's direction totals with zero
    // drift — apportioning never rounds a byte away.
    let (mut h2d, mut d2h) = (0u64, 0u64);
    for cell in ledger.cells() {
        h2d += cell.h2d_bytes;
        d2h += cell.d2h_bytes;
    }
    assert_eq!(h2d, stats.h2d_bytes(), "ledger H2D != device H2D");
    assert_eq!(d2h, stats.d2h_bytes(), "ledger D2H != device D2H");
    assert_eq!(
        ledger.h2d_bytes(),
        h2d,
        "ledger total disagrees with own cells"
    );
    assert_eq!(
        ledger.d2h_bytes(),
        d2h,
        "ledger total disagrees with own cells"
    );

    // The report view must conserve the same totals, and zero-copy bytes
    // must match the device's zero-copy category.
    let report = ledger.report(4);
    assert_eq!(report.h2d_bytes, stats.h2d_bytes());
    assert_eq!(report.d2h_bytes, stats.d2h_bytes());
    assert_eq!(report.zero_copy_bytes, stats.zero_copy.bytes);
    let tag_h2d: u64 = report.tags.iter().map(|t| t.h2d_bytes).sum();
    let tag_d2h: u64 = report.tags.iter().map(|t| t.d2h_bytes).sum();
    assert_eq!(tag_h2d, stats.h2d_bytes(), "per-tag rows lose bytes");
    assert_eq!(tag_d2h, stats.d2h_bytes(), "per-tag rows lose bytes");

    // Steps attributed across tags equal the run's executed steps.
    let tag_steps: u64 = report.tags.iter().map(|t| t.steps).sum();
    assert_eq!(
        tag_steps, result.metrics.total_steps,
        "per-tag step clocks drift"
    );

    // Graph partition loads are unattributable and must land on the
    // shared tag, never on a job tag.
    let shared_h2d: u64 = ledger
        .cells()
        .filter(|c| c.tag == SHARED_TAG)
        .map(|c| c.h2d_bytes)
        .sum();
    assert_eq!(
        shared_h2d, stats.graph_load.bytes,
        "graph loads must be charged to the shared tag"
    );
    result.metrics.total_steps
}

/// DeepWalk under the adaptive policy: explicit loads, evictions, and
/// (when the policy flips) zero-copy reads all reconcile.
#[test]
fn deepwalk_ledger_matches_device_counters() {
    for kernel_threads in [1usize, 4] {
        let steps = assert_exact(
            Arc::new(UniformSampling::new(8)),
            cfg(ZeroCopyPolicy::adaptive(), kernel_threads, None),
            800,
        );
        assert!(steps > 0);
    }
}

/// node2vec pinned to zero-copy: the whole kernel read volume flows
/// through `note_zero_copy` apportioning and still reconciles exactly.
#[test]
fn node2vec_zero_copy_ledger_matches_device_counters() {
    assert_exact(
        Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
        cfg(ZeroCopyPolicy::Always, 2, None),
        500,
    );
}

/// Retryable faults: the device counts every attempt's bytes, so the
/// ledger must charge retried copies attempt for attempt — the sums
/// stay exact even when copies fail and rerun.
#[test]
fn ledger_stays_exact_under_retryable_faults() {
    for seed in [3u64, 19] {
        assert_exact(
            Arc::new(UniformSampling::new(8)),
            cfg(
                ZeroCopyPolicy::adaptive(),
                4,
                Some(FaultPlan::retryable_only(seed, 0.15)),
            ),
            800,
        );
    }
}

/// Attribution off: no ledger is kept at all — the quarantine baseline
/// (zero overhead, nothing to mask).
#[test]
fn no_ledger_without_attribution() {
    let mut c = cfg(ZeroCopyPolicy::adaptive(), 1, None);
    c.attribution = false;
    let mut e =
        LightTraffic::new(graph(), Arc::new(UniformSampling::new(8)), c).expect("pools fit");
    e.run(100).expect("run completes");
    assert!(e.traffic_ledger().is_none());
}
