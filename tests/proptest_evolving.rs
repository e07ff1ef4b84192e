//! Property tests of the evolving-graph layer (DESIGN.md §15): arbitrary
//! interleavings of bounded run slices, epoch seals carrying arbitrary
//! insert/delete schedules, and checkpoint/restore — under arbitrary
//! engine configurations.
//!
//! Two invariants are pinned:
//!
//! 1. **Barrier determinism**: seals placed between arbitrary run slices,
//!    with walks in flight, give the same walks, simulated clock and
//!    traffic whatever the kernel thread count — a seal is a barrier,
//!    so nothing a pooled drain does can straddle it.
//! 2. **Epoch-pinned replay**: a checkpoint taken at epoch E replays
//!    identically on a fresh engine brought to the same epoch, no matter
//!    what mutations the original engine sealed afterwards; and it refuses
//!    to load at the wrong epoch.

mod common;

use common::{
    config_strategy, graph_strategy, materialize_update, raw_updates_strategy, to_engine_config,
    ArbConfig, RawUpdate,
};
use lighttraffic::engine::algorithm::{PageRank, WalkAlgorithm};
use lighttraffic::engine::{EngineError, LightTraffic, RunResult, RunStatus, Session};
use lighttraffic::graph::Csr;
use proptest::prelude::*;
use std::sync::Arc;

/// One step of an evolving-run interleaving. Every variant executes at a
/// scheduler-iteration barrier (between `Session::step` slices), the only
/// place mutation visibility is deterministic.
#[derive(Clone, Debug)]
enum EvolveOp {
    /// Run at most this many scheduler iterations.
    Slice(u64),
    /// Buffer a mutation schedule and seal it as one epoch.
    Seal(Vec<RawUpdate>),
}

fn ops_strategy() -> impl Strategy<Value = Vec<EvolveOp>> {
    prop::collection::vec(
        prop_oneof![
            (1u64..6).prop_map(EvolveOp::Slice),
            raw_updates_strategy(24).prop_map(EvolveOp::Seal),
        ],
        1..12,
    )
}

/// Trajectory-and-traffic fingerprint of a finished run. Host wall-clock
/// bookkeeping is excluded by construction: only fields a thread count
/// or checkpoint could never legitimately change are compared.
type Fingerprint = (Option<Vec<u64>>, u64, u64, u64, u64, u64, u64);

fn fingerprint(r: &RunResult) -> Fingerprint {
    (
        r.visit_counts.clone(),
        r.metrics.total_steps,
        r.metrics.finished_walks,
        r.metrics.makespan_ns,
        r.gpu.h2d_bytes(),
        r.gpu.d2h_bytes(),
        r.gpu.reload_bytes(),
    )
}

fn session(g: &Arc<Csr>, c: &ArbConfig, walks: u64) -> Session {
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(8, 0.15));
    let mut s = LightTraffic::session(g.clone(), alg, to_engine_config(c, g)).expect("pools fit");
    s.inject_walks(walks);
    s
}

/// Drive `ops` and drain. A seal can legitimately fail terminally when
/// inserts grow a partition past the block size under
/// `ZeroCopyPolicy::Never`; the error message is the result then — both
/// arms of a comparison must agree on it.
fn run_ops(
    g: &Arc<Csr>,
    c: &ArbConfig,
    walks: u64,
    ops: &[EvolveOp],
) -> Result<Fingerprint, String> {
    let mut s = session(g, c, walks);
    for op in ops {
        match op {
            EvolveOp::Slice(budget) => {
                s.step(*budget).map_err(|e| e.to_string())?;
            }
            EvolveOp::Seal(raw) => {
                let updates = raw.iter().map(|r| materialize_update(r, g)).collect();
                s.mutate(updates).map_err(|e| e.to_string())?;
                s.seal_epoch().map_err(|e| e.to_string())?;
            }
        }
    }
    match s.step(u64::MAX).map_err(|e| e.to_string())? {
        RunStatus::Completed(r) => Ok(fingerprint(&r)),
        other => unreachable!("unbounded step cannot pause: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariant 1: an arbitrary interleaving of slices and mid-flight
    /// seals gives the same walk output, simulated clock and traffic in
    /// every direction — including the reload bytes of each dirty seal —
    /// on the serial drain as on the sampled thread count.
    #[test]
    fn interleaved_seals_are_thread_count_invariant(
        g in graph_strategy(),
        c in config_strategy(),
        ops in ops_strategy(),
    ) {
        let walks = g.num_vertices().min(800);
        let serial = ArbConfig { kernel_threads: 1, ..c.clone() };
        prop_assert_eq!(
            run_ops(&g, &c, walks, &ops),
            run_ops(&g, &serial, walks, &ops),
            "kernel_threads leaked across an epoch barrier"
        );
    }

    /// Invariant 2: a checkpoint taken mid-flight at epoch E is a pure
    /// value — later seals on the originating engine do not disturb it —
    /// and replays identically on a fresh engine replaying the same
    /// epoch-E graph history, while an engine at the wrong epoch refuses
    /// it outright.
    #[test]
    fn checkpoints_are_epoch_pinned_and_replay_invariant(
        g in graph_strategy(),
        c in config_strategy(),
        prefix in prop::collection::vec(raw_updates_strategy(16), 0..4),
        later in raw_updates_strategy(16),
        pause in 1u64..16,
    ) {
        let walks = g.num_vertices().min(800);

        // Bring a session to epoch E = prefix.len() with walks in flight.
        let advance = |s: &mut Session| -> Result<(), String> {
            for raw in &prefix {
                let updates = raw.iter().map(|r| materialize_update(r, &g)).collect();
                s.mutate(updates).map_err(|e| e.to_string())?;
                s.seal_epoch().map_err(|e| e.to_string())?;
            }
            Ok(())
        };

        let mut a = session(&g, &c, walks);
        if advance(&mut a).is_err() {
            // Oversized-partition seal under ZeroCopyPolicy::Never: a
            // terminal condition covered elsewhere; vacuous here.
            return Ok(());
        }
        match a.step(pause).map_err(|e| e.to_string()).unwrap() {
            RunStatus::Paused => {}
            // Finished inside the budget: nothing in flight to pin.
            _ => return Ok(()),
        }
        let cp = a.checkpoint();
        prop_assert_eq!(cp.epoch, prefix.len() as u64);
        let frozen = serde_json::to_string(&cp).expect("checkpoint serializes");

        // The original engine seals more mutations and finishes; the
        // checkpoint value must not move.
        let updates: Vec<_> = later.iter().map(|r| materialize_update(r, &g)).collect();
        if a.mutate(updates).and_then(|_| a.seal_epoch()).is_ok() {
            let _ = a.step(u64::MAX);
        }
        prop_assert_eq!(
            serde_json::to_string(&cp).unwrap(),
            frozen.clone(),
            "later mutations reached into a taken checkpoint"
        );

        // Replay on fresh engines at the same epoch: bit-identical runs.
        let replay = || -> Result<Fingerprint, String> {
            let mut b = session(&g, &c, 0);
            advance(&mut b)?;
            let cp = serde_json::from_str(&frozen).expect("checkpoint deserializes");
            b.restore(cp).map_err(|e| e.to_string())?;
            match b.step(u64::MAX).map_err(|e| e.to_string())? {
                RunStatus::Completed(r) => Ok(fingerprint(&r)),
                other => unreachable!("unbounded step cannot pause: {other:?}"),
            }
        };
        prop_assert_eq!(replay(), replay(), "epoch-E replay is nondeterministic");

        // The wrong epoch is refused, not silently accepted.
        if !prefix.is_empty() {
            let mut wrong = session(&g, &c, 0);
            let cp = serde_json::from_str(&frozen).expect("checkpoint deserializes");
            match wrong.restore(cp) {
                Err(EngineError::EpochMismatch { checkpoint, engine }) => {
                    prop_assert_eq!(checkpoint, prefix.len() as u64);
                    prop_assert_eq!(engine, 0);
                }
                other => return Err(TestCaseError::fail(format!(
                    "stale-epoch restore must fail with EpochMismatch, got {other:?}"
                ))),
            }
        }
    }
}
