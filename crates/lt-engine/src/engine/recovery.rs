//! Checkpoints and recovery (DESIGN.md §8): the public checkpoint and
//! restore, the suspend half of job parking, and the automatic in-memory
//! snapshot a fatal device error rolls back to.
//!
//! The snapshot rule: a snapshot is valid only while nothing outside
//! [`LightTraffic::step`] has changed the state it captured. `inject`
//! (and with it `restore`), `extract_tagged`, `take_tag_deltas` and
//! `seal_epoch` all do, so each drops it, and `step` (with
//! [`super::EngineConfig::checkpoint_every`] set) takes a fresh one
//! before its first iteration whenever none is held. Inside a slice the
//! per-tag results roll back with the data state; they only grow between
//! drains, so per-tag length marks are all a snapshot keeps of them.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use crate::checkpoint::Checkpoint;

/// In-memory recovery snapshot taken every
/// [`super::EngineConfig::checkpoint_every`] iterations: a regular
/// checkpoint plus the host-side result accumulators a restore must roll
/// back. Counters describing *device activity* (traffic, retries, hit
/// rates) are deliberately absent — work lost to a fault really happened
/// and stays on the books as recovery overhead.
#[derive(Clone)]
pub(super) struct AutoSnapshot {
    /// Scheduler iterations done when it was taken.
    taken_at: u64,
    cp: Checkpoint,
    length_histogram: Vec<u64>,
    paths: Option<PathLog>,
    iteration_log: Option<Vec<IterationRecord>>,
    rr_cursor: u32,
    tag_marks: Vec<(u32, usize, usize)>,
}

impl LightTraffic {
    /// Snapshot the in-flight walk index and accumulated results (see
    /// [`crate::checkpoint`]). Walkers are sorted by id so snapshots are
    /// canonical.
    pub fn checkpoint(&self) -> Checkpoint {
        let mut walkers: Vec<Walker> = self.pools.walkers().copied().collect();
        walkers.sort_unstable_by_key(|w| (w.tag, w.id));
        Checkpoint {
            seed: self.cfg.seed,
            epoch: self.epoch(),
            walkers,
            visit_counts: self.visit_counts.clone(),
            total_steps: self.metrics.total_steps,
            finished_walks: self.metrics.finished_walks,
        }
    }

    /// Check that `cp` can join this engine: same seed, same graph epoch,
    /// every walker on a vertex of this graph, and visit counts (when
    /// present) one per vertex. [`Self::restore`] runs it before touching
    /// any state; the serving layer runs it before re-admitting a
    /// suspended job.
    pub fn check_checkpoint(&self, cp: &Checkpoint) -> Result<(), EngineError> {
        if cp.seed != self.cfg.seed {
            return Err(EngineError::SeedMismatch {
                checkpoint: cp.seed,
                engine: self.cfg.seed,
            });
        }
        if cp.epoch != self.epoch() {
            return Err(EngineError::EpochMismatch {
                checkpoint: cp.epoch,
                engine: self.epoch(),
            });
        }
        let nv = self.graph.table().num_vertices();
        if let Some(w) = cp.walkers.iter().find(|w| u64::from(w.vertex) >= nv) {
            return Err(EngineError::Admission(format!(
                "checkpoint walker {} sits on vertex {}, outside this graph (|V| = {nv})",
                w.id, w.vertex
            )));
        }
        if let Some(counts) = cp.visit_counts.as_ref().filter(|c| c.len() as u64 != nv) {
            return Err(EngineError::Admission(format!(
                "checkpoint holds {} visit counts for a graph of {nv} vertices",
                counts.len()
            )));
        }
        Ok(())
    }

    /// Load a checkpoint into this engine without running: progress
    /// counters and visit counts merge in, walkers join the in-flight set.
    /// A checkpoint [`Self::check_checkpoint`] refuses leaves the engine
    /// unchanged.
    pub fn restore(&mut self, cp: Checkpoint) -> Result<(), EngineError> {
        self.check_checkpoint(&cp)?;
        self.metrics.total_steps += cp.total_steps;
        self.metrics.finished_walks += cp.finished_walks;
        match (self.visit_counts.as_mut(), cp.visit_counts) {
            (Some(mine), Some(theirs)) => {
                for (a, b) in mine.iter_mut().zip(theirs) {
                    *a += b;
                }
            }
            (None, Some(theirs)) => self.visit_counts = Some(theirs),
            _ => {}
        }
        self.inject(cp.walkers);
        Ok(())
    }

    /// Pull every in-flight walker of job `tag` out of the engine,
    /// leaving all other jobs' walkers in place — the suspend half of
    /// job parking. Built like fault recovery: collect the whole walk
    /// index from both pools, reset them, and re-insert the keepers
    /// through the normal host-pool path. Re-batching never changes
    /// results (trajectories are pure in `(seed, id, step)`), only the
    /// simulated schedule, which stays deterministic because this runs
    /// on the scheduler thread between iterations.
    ///
    /// The extracted walkers are returned sorted by id — canonical, so a
    /// later re-injection (top-up resume, [`Self::inject`]) replays an
    /// identical schedule no matter which pools the walkers sat in.
    pub fn extract_tagged(&mut self, tag: u32) -> Vec<Walker> {
        self.drop_snapshot();
        let (mut extracted, kept): (Vec<Walker>, Vec<Walker>) =
            self.pools.walkers().copied().partition(|w| w.tag == tag);
        self.requeue(kept);
        extracted.sort_unstable_by_key(|w| w.id);
        self.active -= extracted.len() as u64;
        extracted
    }

    /// Empty both walk pools and queue `walkers` on the host pool, in
    /// order, the way injection does.
    fn requeue(&mut self, walkers: Vec<Walker>) {
        self.pools.host.reset();
        self.pools.device.reset();
        for w in walkers {
            let p = self.graph.table().partition_of(w.vertex);
            self.pools.host.insert(p, w);
        }
    }

    /// Forget the automatic snapshot: the state it captured was changed
    /// outside [`Self::step`] (the rule in the module docs).
    pub(super) fn drop_snapshot(&mut self) {
        self.snapshot = None;
    }

    /// Take an automatic snapshot when none is held or the last one is
    /// [`super::EngineConfig::checkpoint_every`] iterations old.
    pub(super) fn snapshot_if_due(&mut self) {
        let Some(every) = self.cfg.checkpoint_every else {
            return;
        };
        let iteration = self.metrics.iterations;
        if self
            .snapshot
            .as_ref()
            .is_some_and(|s| iteration < s.taken_at + every)
        {
            return;
        }
        self.snapshot = Some(AutoSnapshot {
            taken_at: iteration,
            cp: self.checkpoint(),
            length_histogram: self.metrics.length_histogram.clone(),
            paths: self.paths.clone(),
            iteration_log: self.iteration_log.clone(),
            rr_cursor: self.rr_cursor,
            tag_marks: self.attr.marks(),
        });
    }

    /// Roll back to the automatic snapshot after a fatal device error.
    ///
    /// Data state (walk index, visit counts, paths, per-tag results,
    /// progress counters) restores exactly, so the eventual outputs match
    /// the fault-free run. The simulated clock, traffic counters, the
    /// ledger, and fault/retry/degrade bookkeeping are *not* rolled back:
    /// the work lost between snapshot and failure really happened and is
    /// the recovery overhead the fault benchmarks measure.
    pub(super) fn recover(&mut self) {
        let snap = self
            .snapshot
            .clone()
            .expect("step recovers only while it holds a snapshot");
        self.pools.graph.reset();
        self.metrics.total_steps = snap.cp.total_steps;
        self.metrics.finished_walks = snap.cp.finished_walks;
        self.metrics.length_histogram = snap.length_histogram;
        self.visit_counts = snap.cp.visit_counts;
        self.paths = snap.paths;
        self.iteration_log = snap.iteration_log;
        self.rr_cursor = snap.rr_cursor;
        self.attr.roll_back(&snap.tag_marks);
        self.active = snap.cp.walkers.len() as u64;
        self.requeue(snap.cp.walkers);
        self.metrics.recoveries += 1;
    }
}
