//! Per-job accounting on a serving engine: every job's steps and link
//! bytes are counted under its tag, whatever the tag, and the traffic a
//! fixed schedule exports is pinned byte for byte (DESIGN.md §14).

use lt_engine::{EngineConfig, JobSpec, JobStatus, ZeroCopyPolicy};
use lt_gpusim::GpuConfig;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use lt_server::{Scheduler, ServerConfig};
use lt_telemetry::{MetricRegistry, SHARED_TAG};
use std::sync::Arc;

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 9,
            edge_factor: 8,
            ..Default::default()
        })
        .csr,
    )
}

/// The scheduler's series, published into a fresh registry and rendered.
fn scrape(sched: &Scheduler) -> String {
    let mut registry = MetricRegistry::new();
    sched.publish(&mut registry);
    registry.render_prometheus()
}

/// Sum every sample of `name` labelled `category="<category>"`.
fn device_bytes(text: &str, category: &str) -> u64 {
    let prefix = format!("lt_gpu_bytes_total{{category=\"{category}\"}} ");
    text.lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .map(|v| v.parse::<u64>().expect("integer byte count"))
        .sum()
}

/// FNV-1a: stable across toolchains, unlike `DefaultHasher`.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// More jobs than 64, so walk copies carry tags of 64 and up: the ledger
/// still sums to the device's bytes per direction, each job's step row
/// is its result's steps, and each job past the 64th has the walk loads
/// that brought its walkers to the device.
#[test]
fn jobs_past_the_64th_are_counted_exactly() {
    const JOBS: u64 = 80;
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.max_jobs = JOBS as usize;
    cfg.tranche_walkers = 32;
    let mut sched = Scheduler::new(graph(), cfg).expect("scheduler builds");
    let ids: Vec<_> = (0..JOBS)
        .map(|i| {
            let tenant = ["acme", "beta"][i as usize % 2];
            let spec = JobSpec::deepwalk(40 + i % 7, 6, i);
            sched.submit(tenant, spec).expect("submit").0
        })
        .collect();
    sched.run_until_idle().expect("run completes");

    let text = scrape(&sched);
    let report = sched.traffic_report(usize::MAX).expect("attribution is on");
    let device_h2d = ["graph_load", "walk_load", "zero_copy"]
        .map(|c| device_bytes(&text, c))
        .iter()
        .sum::<u64>();
    assert!(device_h2d > 0, "the schedule moved no bytes");
    assert_eq!(report.h2d_bytes, device_h2d);
    assert_eq!(report.d2h_bytes, device_bytes(&text, "walk_evict"));
    assert_eq!(report.reload_bytes, device_bytes(&text, "graph_reload"));
    // Zero copy is off on a server, so a job's H2D bytes are its walk
    // loads.
    assert_eq!(report.zero_copy_bytes, 0);

    assert_eq!(
        report.tags.len(),
        JOBS as usize + 1,
        "one row per job + shared"
    );
    assert_eq!(report.tags.last().map(|t| t.tag), Some(SHARED_TAG));
    for (&id, row) in ids.iter().zip(&report.tags) {
        assert_eq!(sched.status(id), Some(JobStatus::Done));
        assert_eq!(row.tag, id.0 as u32);
        let result = sched.result(id).expect("known job");
        assert_eq!(row.steps, result.steps, "job {}", id.0);
        assert!(row.steps > 0);
        if row.tag >= 64 {
            assert!(row.h2d_bytes > 0, "job {} has no walk-load rows", id.0);
        }
    }
}

/// The `metrics` op's two halves for a fixed four-tenant schedule with
/// zero copy on, pinned as digests: the traffic report as the op
/// serializes it (per-tag steps, bytes per step, row order, the
/// zero-copy split) and the Prometheus text.
#[test]
fn metrics_of_a_fixed_schedule_are_pinned() {
    let mut cfg = ServerConfig::new(EngineConfig {
        // Spelled out so neither the `LT_TEST_FAULT_SEED` drill nor
        // `LT_TEST_KERNEL_THREADS` reaches the pinned run.
        gpu: GpuConfig::default(),
        kernel_threads: 1,
        // Small batches in a walk pool at its floor: walk batches are
        // evicted, each split across the jobs it carries.
        batch_capacity: 16,
        walk_pool_blocks: Some(0),
        ..EngineConfig::light_traffic(2 << 10, 4)
    });
    // DeepWalk only, so adaptive zero copy keeps every job's walk its
    // own; a small α reads some partitions in place, loads the rest.
    cfg.engine.zero_copy = ZeroCopyPolicy::Adaptive { alpha: 32 };
    cfg.tranche_walkers = 64;
    let mut sched = Scheduler::new(graph(), cfg).expect("scheduler builds");
    for (i, tenant) in ["acme", "beta", "corp", "dune"].iter().enumerate() {
        for j in 0..2u64 {
            let spec = JobSpec::deepwalk(120 + 35 * i as u64 + 11 * j, 8, 2 * i as u64 + j);
            sched.submit(tenant, spec).expect("submit");
        }
    }
    sched.run_until_idle().expect("run completes");
    let report = sched.traffic_report(8).expect("attribution is on");
    assert!(report.zero_copy_bytes > 0, "the schedule ran no zero copy");
    assert!(report.h2d_bytes > 2 * report.zero_copy_bytes, "{report:?}");
    assert!(report.d2h_bytes > 0, "the schedule evicted no walks");
    let traffic = serde_json::to_value(&report).to_string();
    let prometheus = scrape(&sched);
    assert_eq!(
        (fnv(&traffic), fnv(&prometheus)),
        (10_721_883_633_823_195_163, 2_233_095_747_850_754_197),
        "traffic: {traffic}\nprometheus:\n{prometheus}"
    );
}
