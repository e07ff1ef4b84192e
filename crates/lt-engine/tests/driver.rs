//! The one driver, through the public API only: `LightTraffic::step`
//! under any budget, `finish`, and `restore`'s refusal of checkpoints that
//! do not belong to the engine's graph.

use lt_engine::algorithm::{PageRank, UniformSampling};
use lt_engine::{EngineConfig, EngineError, LightTraffic, RunStatus};
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use std::sync::Arc;

fn graph(scale: u32) -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale,
            edge_factor: 8,
            seed: 7,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn cfg() -> EngineConfig {
    EngineConfig {
        batch_capacity: 256,
        ..EngineConfig::light_traffic(16 << 10, 4)
    }
}

fn pagerank(g: &Arc<Csr>) -> LightTraffic {
    LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap()
}

/// `step` pauses while walks remain and completes once they drain; a
/// small job completes inside one large budget, on the same engine.
#[test]
fn step_reports_pause_and_completion() {
    let mut e = LightTraffic::new(graph(11), Arc::new(UniformSampling::new(8)), cfg()).unwrap();
    e.inject_walks(1_000);
    assert_eq!(e.active_walks(), 1_000);
    match e.step(1).unwrap() {
        RunStatus::Paused => {}
        other => panic!("one iteration cannot finish 1000 walks: {other:?}"),
    }
    let mut steps = 0;
    loop {
        match e.step(64).unwrap() {
            RunStatus::Paused => steps += 1,
            RunStatus::Completed(r) => {
                assert_eq!(r.metrics.finished_walks, 1_000);
                break;
            }
            other => panic!("unexpected run status: {other:?}"),
        }
        assert!(steps < 10_000, "runaway run");
    }
    e.inject_walks(100);
    match e.step(100_000).unwrap() {
        RunStatus::Completed(r) => assert_eq!(r.metrics.finished_walks, 1_100),
        other => panic!("tiny job must complete: {other:?}"),
    }
}

/// Budget boundary regression: whatever slice size drives the run —
/// including budget 1, which lands a pause on *every* scheduler
/// iteration, so on every reshuffle boundary too — no walker is dropped
/// or double-stepped. Conservation holds at every pause and the final
/// result is bit-identical to the uninterrupted `run`.
#[test]
fn any_step_budget_is_boundary_safe() {
    let g = graph(11);
    let total = 1_200u64;
    let reference = pagerank(&g).run(total).unwrap();
    for budget in [1u64, 2, 3, 5, 8, 13, 64] {
        let mut e = pagerank(&g);
        e.inject_walks(total);
        let mut pauses = 0u64;
        let r = loop {
            match e.step(budget).unwrap() {
                RunStatus::Paused => {
                    pauses += 1;
                    // Every pause conserves walkers: in flight + finished
                    // always equals the injected population.
                    assert_eq!(
                        e.active_walks() + e.metrics().finished_walks,
                        total,
                        "budget {budget}: conservation broke at pause {pauses}"
                    );
                    assert!(pauses < 1_000_000, "budget {budget}: runaway run");
                }
                RunStatus::Completed(r) => break r,
                other => panic!("unexpected run status: {other:?}"),
            }
        };
        assert_eq!(r.metrics.finished_walks, total, "budget {budget}");
        assert_eq!(r.metrics.total_steps, reference.metrics.total_steps);
        assert_eq!(r.metrics.iterations, reference.metrics.iterations);
        assert_eq!(r.metrics.makespan_ns, reference.metrics.makespan_ns);
        assert_eq!(r.visit_counts, reference.visit_counts);
        if budget == 1 {
            // step(1) runs exactly one iteration per call: pause count
            // must equal iterations minus the completing call. More
            // pauses means an iteration ran without progress (double-step
            // risk), fewer means iterations were skipped.
            assert_eq!(pauses, reference.metrics.iterations - 1);
        }
    }
}

/// A zero budget makes no progress and loses nothing.
#[test]
fn zero_budget_step_is_a_safe_no_op() {
    let mut e = LightTraffic::new(graph(11), Arc::new(UniformSampling::new(6)), cfg()).unwrap();
    e.inject_walks(500);
    match e.step(0).unwrap() {
        RunStatus::Paused => {}
        other => panic!("zero budget cannot complete live walks: {other:?}"),
    }
    assert_eq!(e.active_walks(), 500);
    assert_eq!(e.metrics().total_steps, 0);
    let r = e.finish().unwrap();
    assert_eq!(r.metrics.finished_walks, 500);
}

#[test]
fn finish_on_an_idle_engine_is_empty_success() {
    let mut e = LightTraffic::new(graph(11), Arc::new(UniformSampling::new(4)), cfg()).unwrap();
    let r = e.finish().unwrap();
    assert_eq!(r.metrics.finished_walks, 0);
    assert_eq!(r.metrics.total_steps, 0);
}

/// A checkpoint from another graph is refused before any state changes:
/// walkers past this graph's vertex range, or visit counts of the wrong
/// length, give `Admission` and leave the engine as it was.
#[test]
fn restore_refuses_a_checkpoint_from_another_graph() {
    let cp = {
        let mut big = pagerank(&graph(11));
        big.inject_walks(2_000);
        assert!(matches!(big.step(5).unwrap(), RunStatus::Paused));
        big.checkpoint()
    };
    let small = graph(9);
    let nv = small.num_vertices();
    assert!(cp.walkers.iter().any(|w| u64::from(w.vertex) >= nv));

    // Walkers off the end of the vertex range.
    let mut e = pagerank(&small);
    assert!(matches!(
        e.restore(cp.clone()),
        Err(EngineError::Admission(_))
    ));
    assert_eq!(e.active_walks(), 0);
    assert_eq!(e.metrics().total_steps, 0);
    assert_eq!(e.metrics().finished_walks, 0);

    // Every walker in range, but visit counts sized for the big graph.
    let mut in_range = cp;
    in_range.walkers.retain(|w| u64::from(w.vertex) < nv);
    assert!(matches!(
        e.restore(in_range),
        Err(EngineError::Admission(_))
    ));
    assert_eq!(e.active_walks(), 0);
    assert_eq!(e.metrics().total_steps, 0);

    // The refused engine still runs its own graph.
    let r = e.run(500).unwrap();
    assert_eq!(r.metrics.finished_walks, 500);
}
