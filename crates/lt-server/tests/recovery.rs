//! Automatic recovery under serving (DESIGN.md §8): a job driven through
//! fatal device faults by a scheduler that injects, steps and drains in
//! pumps finishes with exactly its fault-free result. Before the snapshot
//! rule, a rollback restored a snapshot older than the pump's injections
//! and drains, so walkers vanished, drained work was counted again, and
//! the job never reached `Done` while `pump` kept reporting work.

use lt_engine::{EngineConfig, JobSpec, JobStatus};
use lt_gpusim::FaultPlan;
use lt_graph::gen::{rmat, RmatParams};
use lt_server::{JobResult, Scheduler, ServerConfig};
use lt_telemetry::MetricRegistry;
use std::sync::Arc;

/// The scheduler's series, published into a fresh registry and rendered.
fn scrape(sched: &Scheduler) -> String {
    let mut registry = MetricRegistry::new();
    sched.publish(&mut registry);
    registry.render_prometheus()
}

/// Serve one DeepWalk job to completion; returns its result and the
/// engine's recovery count.
fn serve(fatal_faults: bool) -> (JobResult, u64) {
    let graph = Arc::new(
        rmat(RmatParams {
            scale: 9,
            edge_factor: 8,
            ..Default::default()
        })
        .csr,
    );
    let mut engine = EngineConfig {
        kernel_threads: 1,
        ..EngineConfig::light_traffic(8 << 10, 4)
    };
    if fatal_faults {
        engine.gpu.faults = Some(FaultPlan {
            copy_fatal_rate: 0.08,
            ..FaultPlan::default()
        });
        engine.checkpoint_every = Some(8);
    }
    let mut cfg = ServerConfig::new(engine);
    cfg.tranche_walkers = 64;
    cfg.pump_iterations = 4;
    let mut sched = Scheduler::new(graph, cfg).expect("scheduler builds");
    let (id, _rx) = sched
        .submit("solo", JobSpec::deepwalk(600, 8, 3))
        .expect("submit");
    // Bounded: the fault-free job is done in 14 pumps.
    for _ in 0..2_000 {
        if !sched.pump().expect("recovery absorbs every fatal fault") {
            break;
        }
    }
    assert_eq!(sched.status(id), Some(JobStatus::Done));
    let text = scrape(&sched);
    let recoveries = text
        .lines()
        .find_map(|l| l.strip_prefix("lt_engine_recoveries_total "))
        .and_then(|v| v.parse().ok())
        .expect("the registry exports the recovery count");
    (
        sched.result(id).expect("done jobs keep results"),
        recoveries,
    )
}

#[test]
fn served_job_recovers_to_its_fault_free_result() {
    let (clean, none) = serve(false);
    assert_eq!(none, 0);
    assert_eq!((clean.finished, clean.steps), (600, 4_800));
    let (recovered, recoveries) = serve(true);
    assert!(recoveries > 0, "the drill must recover");
    assert_eq!(recovered, clean, "steps, finished, visits and lengths");
}
