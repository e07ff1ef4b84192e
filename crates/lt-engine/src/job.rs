//! Job-oriented multi-tenant primitives.
//!
//! A *job* is one tenant-submitted walk workload: an algorithm, a walker
//! population (explicit seed vertices or a walk count), and an RNG seed.
//! The serving layer (`lt-server`) multiplexes many jobs over one engine
//! by tagging every walker with its job's slot ([`crate::Walker::tag`])
//! and registering the per-job algorithm in a [`JobTable`], which the
//! engine runs as its single [`WalkAlgorithm`]. With
//! [`crate::EngineConfig::track_tags`] on, every kernel merge folds the
//! batch's results into per-tag [`TagDelta`]s that the scheduler drains
//! with [`crate::LightTraffic::take_tag_deltas`] — so per-job results are
//! separable even though batches freely mix tenants.
//!
//! Determinism: a job's trajectories are pure functions of `(job seed,
//! local walker id, step)` — the table routes each step to the owning
//! job's algorithm *and seed*, ignoring the engine seed — so a job's
//! visit multiset is bit-identical whether it runs alone or interleaved
//! with any number of other jobs, at any `kernel_threads` setting.

use crate::algorithm::{StepContext, StepDecision, WalkAlgorithm};
use crate::engine::EngineError;
use crate::walker::Walker;
use lt_graph::VertexId;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Handle of a submitted job, unique per scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle of a job inside the scheduler.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobStatus {
    /// Accepted, no walkers admitted yet.
    Queued,
    /// At least one walker is (or has been) in flight and work remains.
    Running,
    /// Parked with walkers checkpointed — not an error. The reason says
    /// why (typically budget exhaustion); a top-up resumes it.
    Blocked {
        /// Why the job is parked.
        reason: String,
    },
    /// Every walk finished; results are complete.
    Done,
    /// Cancelled or expelled by the operator; partial results may exist.
    Evicted,
}

impl JobStatus {
    /// Stable lowercase label (wire protocol, metrics).
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Blocked { .. } => "blocked",
            JobStatus::Done => "done",
            JobStatus::Evicted => "evicted",
        }
    }
}

/// Where a job's walkers start.
#[derive(Clone, Debug)]
pub enum JobStart {
    /// The algorithm's standard placement of this many walks.
    WalkCount(u64),
    /// One walk per explicit seed vertex.
    Seeds(Vec<VertexId>),
}

/// One walk workload as submitted by a tenant.
#[derive(Clone)]
pub struct JobSpec {
    /// The walk algorithm (also fixes the maximum walk length).
    pub algorithm: Arc<dyn WalkAlgorithm>,
    /// Walker population: explicit seed vertices or a walk count.
    pub start: JobStart,
    /// RNG seed of this job's trajectories. Jobs with equal specs and
    /// seeds produce equal results by construction.
    pub seed: u64,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("algorithm", &self.algorithm.name())
            .field("start", &self.start)
            .field("seed", &self.seed)
            .finish()
    }
}

impl JobSpec {
    /// DeepWalk-style uniform sampling: `walks` fixed-length walks of
    /// `max_length` steps.
    pub fn deepwalk(walks: u64, max_length: u32, seed: u64) -> Self {
        JobSpec {
            algorithm: Arc::new(crate::algorithm::UniformSampling::new(max_length)),
            start: JobStart::WalkCount(walks),
            seed,
        }
    }

    /// node2vec-style second-order walks: `walks` walks of `max_length`
    /// steps with return/in-out parameters `p`/`q`.
    pub fn node2vec(walks: u64, max_length: u32, p: f64, q: f64, seed: u64) -> Self {
        JobSpec {
            algorithm: Arc::new(crate::algorithm::SecondOrderWalk::node2vec(
                max_length, p, q,
            )),
            start: JobStart::WalkCount(walks),
            seed,
        }
    }

    /// Number of walks this spec will run.
    pub fn num_walks(&self) -> u64 {
        match &self.start {
            JobStart::WalkCount(n) => *n,
            JobStart::Seeds(s) => s.len() as u64,
        }
    }

    /// The job's initial walkers, tagged with its slot. Walker ids are
    /// job-local (`0..n`) so the same spec replays identical trajectories
    /// whether it runs alone or multiplexed.
    pub fn place_walkers(&self, num_vertices: u64, tag: u32) -> Vec<Walker> {
        match &self.start {
            JobStart::WalkCount(n) => {
                let mut ws = self.algorithm.place_walkers(num_vertices, *n);
                for w in &mut ws {
                    w.tag = tag;
                }
                ws
            }
            JobStart::Seeds(seeds) => seeds
                .iter()
                .enumerate()
                .map(|(i, &v)| Walker::tagged(i as u64, v, tag))
                .collect(),
        }
    }
}

/// Per-tag results of one drain slice, produced by kernel merges under
/// [`crate::EngineConfig::track_tags`] and drained with
/// [`crate::LightTraffic::take_tag_deltas`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TagDelta {
    /// The owning job slot.
    pub tag: u32,
    /// Steps executed for this tag since the last drain.
    pub steps: u64,
    /// Walks of this tag that terminated since the last drain.
    pub finished: u64,
    /// Vertices visited by this tag's steps, sorted (the multiset is
    /// schedule-invariant; the event order is not, so the canonical form
    /// is sorted — see `take_tag_deltas`).
    pub visits: Vec<VertexId>,
    /// Final lengths of the walks that terminated, in deterministic
    /// chunk-merge order.
    pub lengths: Vec<u32>,
}

impl TagDelta {
    pub(crate) fn new(tag: u32) -> Self {
        TagDelta {
            tag,
            ..TagDelta::default()
        }
    }
}

/// An entry of the [`JobTable`]: the job's algorithm and RNG seed.
struct JobEntry {
    algorithm: Arc<dyn WalkAlgorithm>,
    seed: u64,
}

/// The dispatching [`WalkAlgorithm`] of a multi-tenant engine: routes
/// every step to the owning job's algorithm — selected by
/// [`crate::Walker::tag`] — under the *job's* seed (the engine seed is
/// ignored, which is what makes per-job trajectories identical to an
/// isolated run).
///
/// Slots are append-only: a fixed-capacity array of `OnceLock`s, so the
/// hot step path is a lock-free array index. Registration past the
/// capacity is refused with [`EngineError::Admission`] — the serving
/// layer sizes the table for its job-lifetime budget.
pub struct JobTable {
    entries: Box<[OnceLock<JobEntry>]>,
    next: AtomicU32,
    /// Latched by the first registered job that
    /// [`WalkAlgorithm::reads_prev_neighbors`] (slots are append-only).
    reads_prev: AtomicBool,
}

impl JobTable {
    /// A table with room for `capacity` jobs over the engine's lifetime.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut entries = Vec::with_capacity(capacity);
        entries.resize_with(capacity, OnceLock::new);
        JobTable {
            entries: entries.into_boxed_slice(),
            next: AtomicU32::new(0),
            reads_prev: AtomicBool::new(false),
        }
    }

    /// Total job slots (used and free).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Slots already assigned.
    pub fn registered(&self) -> usize {
        (self.next.load(Ordering::Acquire) as usize).min(self.entries.len())
    }

    /// Claim the next slot for a job. Returns the tag its walkers must
    /// carry, or [`EngineError::Admission`] when the table is full.
    pub fn register(
        &self,
        algorithm: Arc<dyn WalkAlgorithm>,
        seed: u64,
    ) -> Result<u32, EngineError> {
        let idx = self.next.fetch_add(1, Ordering::AcqRel) as usize;
        if idx >= self.entries.len() {
            return Err(EngineError::Admission(format!(
                "job table full ({} slots)",
                self.entries.len()
            )));
        }
        // Release before the slot is published, Acquire in
        // `reads_prev_neighbors`: whoever can step this job sees the flag.
        if algorithm.reads_prev_neighbors() {
            self.reads_prev.store(true, Ordering::Release);
        }
        self.entries[idx]
            .set(JobEntry { algorithm, seed })
            .unwrap_or_else(|_| unreachable!("slot {idx} claimed twice"));
        Ok(idx as u32)
    }

    fn entry(&self, tag: u32) -> &JobEntry {
        self.entries
            .get(tag as usize)
            .and_then(OnceLock::get)
            .expect("walker carries an unregistered job tag")
    }
}

impl WalkAlgorithm for JobTable {
    fn name(&self) -> &'static str {
        "job-table"
    }

    /// The table has no workload of its own — the scheduler injects each
    /// job's walkers explicitly ([`JobSpec::place_walkers`]).
    fn place_walkers(&self, _num_vertices: u64, _num_walks: u64) -> Vec<Walker> {
        Vec::new()
    }

    fn step(&self, walker: &Walker, ctx: StepContext<'_>, _seed: u64) -> StepDecision {
        let e = self.entry(walker.tag);
        e.algorithm.step(walker, ctx, e.seed)
    }

    /// Per-job visit events flow through tag deltas instead of the
    /// engine-global visit buffer.
    fn tracks_visits(&self) -> bool {
        false
    }

    /// The host walker superset: id (8) + vertex, step, aux, tag (4 each).
    fn walker_state_bytes(&self) -> u64 {
        24
    }

    /// True once any registered job reads second-order context: batches
    /// mix tenants, so one node2vec job makes every later batch need it.
    fn reads_prev_neighbors(&self) -> bool {
        self.reads_prev.load(Ordering::Acquire)
    }

    /// True once any registered job does (slots are append-only).
    fn holds_epoch0_state(&self) -> bool {
        self.entries
            .iter()
            .filter_map(OnceLock::get)
            .any(|e| e.algorithm.holds_epoch0_state())
    }

    /// Safety rail: the widest registered job (0 when empty).
    fn max_steps(&self) -> u32 {
        self.entries
            .iter()
            .filter_map(OnceLock::get)
            .map(|e| e.algorithm.max_steps())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::UniformSampling;

    #[test]
    fn register_assigns_sequential_tags_until_full() {
        let t = JobTable::with_capacity(2);
        assert_eq!(t.register(Arc::new(UniformSampling::new(4)), 1).unwrap(), 0);
        assert_eq!(t.register(Arc::new(UniformSampling::new(8)), 2).unwrap(), 1);
        assert_eq!(t.registered(), 2);
        match t.register(Arc::new(UniformSampling::new(8)), 3) {
            Err(EngineError::Admission(msg)) => assert!(msg.contains("full")),
            other => panic!("expected admission rejection, got {other:?}"),
        }
    }

    #[test]
    fn table_routes_by_tag_and_job_seed() {
        let t = JobTable::with_capacity(4);
        let tag = t.register(Arc::new(UniformSampling::new(4)), 99).unwrap();
        let w = Walker::tagged(0, 0, tag);
        let neighbors = [1u32, 2, 3];
        let ctx = StepContext {
            neighbors: &neighbors,
            weights: None,
            prev_neighbors: None,
            timestamps: None,
            num_vertices: 4,
        };
        // The engine seed passed here is ignored: both calls must agree
        // because the job seed (99) decides the trajectory.
        let a = t.step(&w, ctx, 0);
        let b = t.step(&w, ctx, 12345);
        assert_eq!(a, b);
        assert_eq!(a, UniformSampling::new(4).step(&w, ctx, 99));
    }

    #[test]
    fn spec_walkers_are_tagged_and_job_local() {
        let g = lt_graph::gen::erdos_renyi(64, 256, 1).csr;
        let spec = JobSpec::deepwalk(10, 4, 7);
        let ws = spec.place_walkers(g.num_vertices(), 3);
        assert_eq!(ws.len(), 10);
        for (i, w) in ws.iter().enumerate() {
            assert_eq!(w.id, i as u64);
            assert_eq!(w.tag, 3);
        }
        let seeded = JobSpec {
            algorithm: Arc::new(UniformSampling::new(4)),
            start: JobStart::Seeds(vec![5, 9]),
            seed: 7,
        };
        let ws = seeded.place_walkers(g.num_vertices(), 1);
        assert_eq!(ws.len(), 2);
        assert_eq!((ws[0].vertex, ws[0].tag, ws[0].id), (5, 1, 0));
        assert_eq!((ws[1].vertex, ws[1].tag, ws[1].id), (9, 1, 1));
    }
}
