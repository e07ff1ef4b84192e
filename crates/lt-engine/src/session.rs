//! The unified run driver.
//!
//! A [`Session`] wraps a [`LightTraffic`] engine and is the one front door
//! for driving walks: inject walkers, step the scheduler under a budget,
//! checkpoint or restore, and finish into a [`RunResult`]. The older
//! `run` / `run_with_walkers` / `resume` convenience methods on the engine
//! remain as thin wrappers over this flow.
//!
//! ```
//! use lt_engine::{EngineConfig, LightTraffic, RunStatus, UniformSampling};
//! use lt_graph::gen::{rmat, RmatParams};
//! use std::sync::Arc;
//!
//! let g = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
//! let cfg = EngineConfig::light_traffic(16 << 10, 4);
//! let mut s = LightTraffic::session(g, Arc::new(UniformSampling::new(8)), cfg).unwrap();
//! s.inject_walks(1_000);
//! // Drive in bounded slices — checkpointable between any two.
//! while let RunStatus::Paused = s.step(16).unwrap() {
//!     let _cp = s.checkpoint();
//! }
//! let r = s.finish().unwrap();
//! assert_eq!(r.metrics.finished_walks, 1_000);
//! ```

use crate::algorithm::WalkAlgorithm;
use crate::checkpoint::Checkpoint;
use crate::engine::{EngineConfig, EngineError, LightTraffic, RunStatus};
use crate::metrics::RunResult;
use crate::walker::Walker;
use lt_gpusim::{FaultPlan, Gpu};
use lt_graph::Csr;
use lt_telemetry::EventBus;
use std::sync::Arc;

/// Named-setter construction of a [`Session`] — the front door of the
/// job-oriented API. Graph and algorithm are required; everything else
/// has a default:
///
/// ```
/// use lt_engine::{EngineConfig, Session, UniformSampling};
/// use lt_graph::gen::{rmat, RmatParams};
/// use std::sync::Arc;
///
/// let g = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
/// let mut s = Session::builder()
///     .graph(g)
///     .algorithm(Arc::new(UniformSampling::new(8)))
///     .config(EngineConfig::light_traffic(16 << 10, 4))
///     .build()
///     .unwrap();
/// s.inject_walks(100);
/// assert_eq!(s.finish().unwrap().metrics.finished_walks, 100);
/// ```
#[derive(Default)]
pub struct SessionBuilder {
    graph: Option<Arc<Csr>>,
    algorithm: Option<Arc<dyn WalkAlgorithm>>,
    config: Option<EngineConfig>,
    telemetry: Option<EventBus>,
    fault_plan: Option<FaultPlan>,
}

impl SessionBuilder {
    /// The graph to walk on (required).
    pub fn graph(mut self, graph: Arc<Csr>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The walk algorithm (required).
    pub fn algorithm(mut self, algorithm: Arc<dyn WalkAlgorithm>) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// Engine configuration. Defaults to
    /// `EngineConfig::light_traffic(1 << 20, 8)`.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Event bus engine and device publish telemetry on (overrides the
    /// config's [`lt_gpusim::GpuConfig::telemetry`]).
    pub fn telemetry(mut self, bus: EventBus) -> Self {
        self.telemetry = Some(bus);
        self
    }

    /// Deterministic fault-injection plan (overrides the config's
    /// [`lt_gpusim::GpuConfig::faults`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Build the session. Fails with [`EngineError::Admission`] when a
    /// required setter is missing, otherwise like [`LightTraffic::new`].
    pub fn build(self) -> Result<Session, EngineError> {
        let graph = self
            .graph
            .ok_or_else(|| EngineError::Admission("SessionBuilder needs a graph".into()))?;
        let algorithm = self
            .algorithm
            .ok_or_else(|| EngineError::Admission("SessionBuilder needs an algorithm".into()))?;
        let mut cfg = self
            .config
            .unwrap_or_else(|| EngineConfig::light_traffic(1 << 20, 8));
        if let Some(bus) = self.telemetry {
            cfg.gpu.telemetry = bus;
        }
        if let Some(plan) = self.fault_plan {
            cfg.gpu.faults = Some(plan);
        }
        Ok(Session::from_engine(LightTraffic::new(
            graph, algorithm, cfg,
        )?))
    }
}

/// A driving handle over one engine: the unified API for running walks.
///
/// Obtain one from [`Session::builder`], [`LightTraffic::session`], or
/// [`LightTraffic::into_session`] for a pre-built engine.
pub struct Session {
    engine: LightTraffic,
}

impl Session {
    /// Start building a session with named setters.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// Wrap an existing engine.
    pub(crate) fn from_engine(engine: LightTraffic) -> Self {
        Session { engine }
    }

    /// Add explicit walkers to the in-flight set (see
    /// [`LightTraffic::inject`] for path semantics and panics).
    pub fn inject(&mut self, walkers: Vec<Walker>) {
        self.engine.inject(walkers);
    }

    /// Add `num_walks` of the algorithm's standard workload.
    pub fn inject_walks(&mut self, num_walks: u64) {
        self.engine.inject_walks(num_walks);
    }

    /// Run at most `budget` scheduler iterations. Returns
    /// [`RunStatus::Paused`] while walks remain, or
    /// [`RunStatus::Completed`] with the result once the in-flight set
    /// drains.
    pub fn step(&mut self, budget: u64) -> Result<RunStatus, EngineError> {
        self.engine.run_at_most(budget)
    }

    /// Snapshot the in-flight walk index and accumulated results.
    pub fn checkpoint(&self) -> Checkpoint {
        self.engine.checkpoint()
    }

    /// Load a checkpoint (walkers join the in-flight set, counters merge).
    pub fn restore(&mut self, cp: Checkpoint) -> Result<(), EngineError> {
        self.engine.restore(cp)
    }

    /// Walks currently in flight.
    pub fn active_walks(&self) -> u64 {
        self.engine.active_walks()
    }

    /// Drain the per-job results accumulated since the previous drain
    /// (multi-tenant mode; see [`LightTraffic::take_tag_deltas`]).
    pub fn take_tag_deltas(&mut self) -> Vec<crate::job::TagDelta> {
        self.engine.take_tag_deltas()
    }

    /// Buffer edge mutations against the evolving graph (invisible until
    /// [`Session::seal_epoch`]; see [`LightTraffic::mutate`]).
    pub fn mutate(
        &mut self,
        updates: Vec<lt_graph::delta::EdgeUpdate>,
    ) -> Result<usize, EngineError> {
        self.engine.mutate(updates)
    }

    /// Apply buffered mutations and advance the graph epoch, re-copying
    /// stale resident partitions (see [`LightTraffic::seal_epoch`]).
    /// Sessions sit naturally at the epoch barrier: call between
    /// [`Session::step`] slices.
    pub fn seal_epoch(&mut self) -> Result<crate::engine::EpochSummary, EngineError> {
        self.engine.seal_epoch()
    }

    /// The current graph epoch (0 = static graph).
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Pull one job's in-flight walkers out of the engine (suspend half
    /// of job parking; see [`LightTraffic::extract_tagged`]).
    pub fn extract_tagged(&mut self, tag: u32) -> Vec<Walker> {
        self.engine.extract_tagged(tag)
    }

    /// Drive every remaining walk to completion and return the result.
    pub fn finish(mut self) -> Result<RunResult, EngineError> {
        match self.engine.run_at_most(u64::MAX)? {
            RunStatus::Completed(r) => Ok(*r),
            RunStatus::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// The underlying engine (partition table, walk counts, …).
    pub fn engine(&self) -> &LightTraffic {
        &self.engine
    }

    /// Mutable access to the underlying engine.
    pub fn engine_mut(&mut self) -> &mut LightTraffic {
        &mut self.engine
    }

    /// The simulated device (stats, op log, fault log).
    pub fn gpu(&self) -> &Gpu {
        self.engine.gpu()
    }

    /// Snapshot the run's observability surface: a metric registry filled
    /// from engine and device counters, the pipeline-bubble analysis (when
    /// the op log is recorded), and the straggler report (when iterations
    /// are recorded). See [`crate::telemetry`].
    pub fn telemetry(&self) -> crate::telemetry::TelemetrySnapshot {
        crate::telemetry::snapshot(&self.engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::{PageRank, UniformSampling};
    use lt_graph::gen::{rmat, RmatParams};

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

    fn cfg() -> EngineConfig {
        EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(16 << 10, 4)
        }
    }

    #[test]
    fn session_matches_run_exactly() {
        let g = graph();
        let reference = {
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
            e.run(2_000).unwrap()
        };
        let mut s = LightTraffic::session(g, Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
        s.inject_walks(2_000);
        // Stepping in slices must not change anything.
        let _ = s.step(3).unwrap();
        let _ = s.step(5).unwrap();
        let r = s.finish().unwrap();
        assert_eq!(r.visit_counts, reference.visit_counts);
        assert_eq!(r.metrics.finished_walks, reference.metrics.finished_walks);
        assert_eq!(r.metrics.total_steps, reference.metrics.total_steps);
        assert_eq!(r.metrics.makespan_ns, reference.metrics.makespan_ns);
    }

    #[test]
    fn step_reports_pause_and_completion() {
        let g = graph();
        let mut s = Session::builder()
            .graph(g)
            .algorithm(Arc::new(UniformSampling::new(8)))
            .config(cfg())
            .build()
            .unwrap();
        s.inject_walks(1_000);
        assert_eq!(s.active_walks(), 1_000);
        match s.step(1).unwrap() {
            RunStatus::Paused => {}
            RunStatus::Completed(_) => panic!("one iteration cannot finish 1000 walks"),
        }
        let mut steps = 0;
        loop {
            match s.step(64).unwrap() {
                RunStatus::Paused => steps += 1,
                RunStatus::Completed(r) => {
                    assert_eq!(r.metrics.finished_walks, 1_000);
                    break;
                }
            }
            assert!(steps < 10_000, "runaway session");
        }
    }

    #[test]
    fn checkpoint_restore_round_trips_through_a_session() {
        let g = graph();
        let reference = {
            let mut s =
                LightTraffic::session(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
            s.inject_walks(1_500);
            s.finish().unwrap()
        };
        let cp = {
            let mut s =
                LightTraffic::session(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
            s.inject_walks(1_500);
            let _ = s.step(5).unwrap();
            s.checkpoint()
        };
        let mut s = LightTraffic::session(g, Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
        s.restore(cp).unwrap();
        let r = s.finish().unwrap();
        assert_eq!(r.visit_counts, reference.visit_counts);
        assert_eq!(r.metrics.finished_walks, reference.metrics.finished_walks);
        assert_eq!(r.metrics.total_steps, reference.metrics.total_steps);
    }

    /// Budget boundary regression: whatever slice size drives the run —
    /// including budget 1, which lands a pause on *every* scheduler
    /// iteration, so on every reshuffle boundary too — no walker is
    /// dropped or double-stepped. Conservation holds at every pause and
    /// the final result is bit-identical to the uninterrupted run.
    #[test]
    fn any_step_budget_is_boundary_safe() {
        let g = graph();
        let total = 1_200u64;
        let reference = {
            let mut s =
                LightTraffic::session(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
            s.inject_walks(total);
            s.finish().unwrap()
        };
        for budget in [1u64, 2, 3, 5, 8, 13, 64] {
            let mut s =
                LightTraffic::session(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg()).unwrap();
            s.inject_walks(total);
            let mut pauses = 0u64;
            let r = loop {
                match s.step(budget).unwrap() {
                    RunStatus::Paused => {
                        pauses += 1;
                        // Every pause conserves walkers: in flight +
                        // finished always equals the injected population.
                        assert_eq!(
                            s.active_walks() + s.engine().metrics().finished_walks,
                            total,
                            "budget {budget}: conservation broke at pause {pauses}"
                        );
                        assert!(pauses < 1_000_000, "budget {budget}: runaway session");
                    }
                    RunStatus::Completed(r) => break r,
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
                // pauses means an iteration ran without progress
                // (double-step risk), fewer means iterations were skipped.
                assert_eq!(pauses, reference.metrics.iterations - 1);
            }
        }
    }

    /// A zero budget makes no progress and loses nothing.
    #[test]
    fn zero_budget_step_is_a_safe_no_op() {
        let g = graph();
        let mut s = Session::builder()
            .graph(g)
            .algorithm(Arc::new(UniformSampling::new(6)))
            .config(cfg())
            .build()
            .unwrap();
        s.inject_walks(500);
        match s.step(0).unwrap() {
            RunStatus::Paused => {}
            RunStatus::Completed(_) => panic!("zero budget cannot complete live walks"),
        }
        assert_eq!(s.active_walks(), 500);
        assert_eq!(s.engine().metrics().total_steps, 0);
        let r = s.finish().unwrap();
        assert_eq!(r.metrics.finished_walks, 500);
    }

    #[test]
    fn finish_on_an_idle_session_is_empty_success() {
        let g = graph();
        let s = Session::builder()
            .graph(g)
            .algorithm(Arc::new(UniformSampling::new(4)))
            .config(cfg())
            .build()
            .unwrap();
        let r = s.finish().unwrap();
        assert_eq!(r.metrics.finished_walks, 0);
        assert_eq!(r.metrics.total_steps, 0);
    }
}
