//! The deterministic multi-tenant job scheduler.
//!
//! One [`Scheduler`] owns one engine ([`lt_engine::LightTraffic`]) over one
//! shared immutable graph and multiplexes any number of tenant-submitted
//! jobs through it. All scheduling decisions — admission order, tranche
//! sizes, parking — are pure functions of submission order, pump count,
//! and budget state: no wall clock, no OS scheduling, no randomness. Two
//! schedulers fed the same jobs in the same order produce bit-identical
//! per-job results at any [`lt_engine::EngineConfig::kernel_threads`]
//! setting, and each job's result is bit-identical to the same spec run
//! alone (see DESIGN.md §13).
//!
//! # Budgets (QRES-style admission control)
//!
//! Every tenant holds a token budget: admitting a fresh walker costs one
//! token, executing a step costs one token (debited post-hoc from the
//! kernel's per-tag deltas). A tenant at zero is *parked*, never errored:
//! its running jobs are extracted from the engine into checkpoints
//! ([`JobStatus::Blocked`]) and a [`Scheduler::top_up`] resumes them
//! where they left off. Re-injecting parked walkers is free — the tokens
//! were spent at first admission.
//!
//! Observability is pull: the scheduler keeps plain per-tenant counters,
//! owns no registry, and [`Scheduler::publish`] projects them with the
//! engine's series on demand.

use lt_engine::{
    radix_sort_u32, Checkpoint, EdgeUpdate, EngineConfig, EngineError, JobId, JobSpec, JobStart,
    JobStatus, JobTable, LightTraffic, Walker,
};
use lt_graph::{Csr, PackedSorted, VertexId};
use lt_telemetry::{
    derive_trace_id, log2_bucket, log2_histogram_percentile, JobPhase, JobTrace, LengthPercentiles,
    TrafficDirection, TrafficReport, TrafficRow, SHARED_TAG,
};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Recent phase spans retained per job (the flight-recorder ring; older
/// spans drop but stay counted).
const SPAN_CAPACITY: usize = 64;

/// Most walks one job may ask for: a larger count is refused with
/// [`EngineError::Admission`] at submit.
pub use lt_engine::MAX_JOB_WALKS;

/// Serving-layer configuration over the engine's.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Engine configuration. `record_paths` is forced off (the path log
    /// indexes by walker id, which collides across jobs); per-job results
    /// need no switch, since the engine's [`JobTable`] routes by tag.
    pub engine: EngineConfig,
    /// Job slots over the scheduler's lifetime ([`JobTable`] capacity).
    pub max_jobs: usize,
    /// Tokens granted to a tenant on first contact.
    pub default_budget: u64,
    /// Walkers admitted per job per pump round (the fairness quantum).
    pub tranche_walkers: usize,
    /// Engine scheduler iterations per pump round.
    pub pump_iterations: u64,
    /// When set, flight records are dumped here as JSONL
    /// (`flight-job<id>-<reason>.jsonl`) whenever a job is evicted, parks
    /// on budget exhaustion, or the engine faults — readable with
    /// `lightwalk inspect`.
    pub flight_recorder_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// A small-footprint default over the given engine config.
    ///
    /// Forces [`lt_engine::ZeroCopyPolicy::Never`]: second-order
    /// algorithms see the previous vertex's adjacency only when the
    /// kernel's graph view can serve it, and traffic-*adaptive* zero
    /// copy makes that view depend on what other tenants ran — which
    /// would break the "bit-identical to an isolated run" contract for
    /// node2vec-style jobs. A fixed policy (`Never` or `Always`) keeps
    /// views a pure function of the graph. Override
    /// `cfg.engine.zero_copy` after construction to trade that guarantee
    /// for adaptive traffic (safe when serving first-order algorithms
    /// only).
    pub fn new(mut engine: EngineConfig) -> Self {
        engine.zero_copy = lt_engine::ZeroCopyPolicy::Never;
        // Attribution on by default: a multi-tenant service without
        // per-tenant traffic accounting cannot answer its ops questions,
        // and the ledger stays off every deterministic path (DESIGN.md
        // §14). Clear `engine.attribution` after construction to opt out.
        engine.attribution = true;
        ServerConfig {
            engine,
            max_jobs: 64,
            default_budget: u64::MAX,
            tranche_walkers: 1 << 12,
            pump_iterations: 8,
            flight_recorder_dir: None,
        }
    }
}

/// Incremental per-job delivery, streamed over the job's channel as
/// batches retire.
#[derive(Clone, Debug, PartialEq)]
pub enum JobEvent {
    /// A pump round executed work for this job.
    Progress {
        /// Steps executed this round.
        steps: u64,
        /// Walks finished this round.
        finished: u64,
        /// Vertices visited this round (sorted; the multiset is
        /// schedule-invariant, the event order is not).
        visits: Vec<VertexId>,
        /// Lengths of the walks that finished this round.
        lengths: Vec<u32>,
    },
    /// The job was parked (budget exhaustion or explicit suspend).
    Blocked {
        /// Why.
        reason: String,
    },
    /// The job finished; the complete result follows.
    Done {
        /// Totals over the job's whole life.
        result: JobResult,
    },
    /// The job was cancelled; partial results remain readable via
    /// [`Scheduler::result`].
    Evicted,
}

/// Everything a finished (or cancelled) job produced.
///
/// [`Scheduler::result`] builds it on demand: a running or cancelled
/// job's vectors are copied out, a done job's are decoded from the
/// bit-packed form the scheduler keeps (DESIGN.md §13), each vector
/// exactly its length.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobResult {
    /// Steps executed for this job.
    pub steps: u64,
    /// Walks that ran to termination.
    pub finished: u64,
    /// Every vertex visited, sorted ascending (canonical form — equal to
    /// the sorted visits of the same spec run in isolation).
    pub visits: Vec<VertexId>,
    /// Final length of every finished walk — retirement order while the
    /// job runs, sorted ascending (canonical) once it is done.
    pub lengths: Vec<u32>,
}

/// Public snapshot of one job's bookkeeping.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// The job's handle.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub status: JobStatus,
    /// Total walks the spec will run.
    pub total_walks: u64,
    /// Walkers admitted into the engine so far.
    pub injected: u64,
    /// Walks finished so far.
    pub finished: u64,
    /// Steps executed so far.
    pub steps: u64,
}

struct JobState {
    id: JobId,
    tenant: String,
    status: JobStatus,
    total: u64,
    /// The placement cursor: walkers `injected..total` are placed
    /// ([`JobSpec::place_walker`]) only as they are admitted.
    injected: u64,
    spec: JobSpec,
    /// In-flight walkers extracted while parked; re-admission is free.
    parked: Vec<Walker>,
    /// Steps and walks finished; while the job is not done, also its
    /// visits and lengths as appended each pump. A done job's vectors are
    /// empty: its visits and lengths live in `packed`.
    result: JobResult,
    /// A done job's sorted visits and lengths, bit-packed: all the
    /// scheduler keeps of them for its lifetime.
    packed: Option<PackedResult>,
    /// Explicitly suspended ([`Scheduler::suspend`]): stays parked even
    /// with budget, until [`Scheduler::resume`] hands the checkpoint
    /// back. Budget parking, by contrast, auto-resumes on top-up.
    suspended: bool,
    /// Sender of the job's event stream; dropped right after the job's
    /// `Done` or `Evicted` event, or once the consumer hangs up.
    stream: Option<Sender<JobEvent>>,
    /// Phase-span ring (trace identity + flight recorder, DESIGN.md §14).
    trace: JobTrace,
}

/// A done job's visits and lengths, each sorted and packed as
/// [`PackedSorted`] deltas.
struct PackedResult {
    visits: PackedSorted,
    lengths: PackedSorted,
}

impl JobState {
    /// Work remains somewhere (unplaced, parked, or in the engine).
    fn live(&self) -> bool {
        matches!(
            self.status,
            JobStatus::Queued | JobStatus::Running | JobStatus::Blocked { .. }
        )
    }

    fn in_flight(&self) -> u64 {
        self.injected - self.result.finished - self.parked.len() as u64
    }

    /// Free the parked walkers and the seed list of a job no walker can
    /// enter again.
    fn release_queues(&mut self) {
        self.parked = Vec::new();
        if let JobStart::Seeds(seeds) = &mut self.spec.start {
            *seeds = Vec::new();
        }
    }
}

/// A tenant's budget and its plain counters. Only the budget feeds a
/// scheduling decision; the rest is read by [`Scheduler::publish`].
#[derive(Default)]
struct Tenant {
    budget: u64,
    jobs_submitted: u64,
    jobs_evicted: u64,
    jobs_parked: u64,
    /// Fresh walkers admitted (one token each).
    walkers: u64,
    /// Steps executed (one token each).
    steps: u64,
    /// log₂ histogram ([`log2_bucket`]) of simulated nanoseconds per step
    /// the tenant observed each pump round.
    step_latency_log2: Vec<u64>,
}

/// A per-tenant counter: name, help, and the [`Tenant`] field it reads.
type TenantCounter = (&'static str, &'static str, fn(&Tenant) -> u64);

/// The per-tenant counters [`Scheduler::publish`] exports.
#[rustfmt::skip]
const TENANT_COUNTERS: [TenantCounter; 5] = [
    ("lt_server_jobs_submitted_total", "jobs accepted by the scheduler", |t| t.jobs_submitted),
    ("lt_server_jobs_evicted_total", "jobs cancelled or expelled", |t| t.jobs_evicted),
    ("lt_server_jobs_parked_total", "jobs parked on budget exhaustion", |t| t.jobs_parked),
    ("lt_server_tenant_walkers_total", "fresh walkers admitted per tenant", |t| t.walkers),
    ("lt_server_tenant_steps_total", "steps executed per tenant", |t| t.steps),
];

/// The deterministic multiplexer: many jobs, one engine. See the module
/// docs for the scheduling and budget model.
pub struct Scheduler {
    engine: LightTraffic,
    graph: Arc<Csr>,
    table: Arc<JobTable>,
    jobs: Vec<JobState>,
    /// Indices of the live jobs, ascending: the jobs a pump visits. A job
    /// leaves when it ends (in the pump that retires it, or in
    /// [`Scheduler::cancel`]), so a pump costs what the live jobs cost,
    /// however many jobs were ever submitted.
    active: Vec<usize>,
    tenants: BTreeMap<String, Tenant>,
    rr_cursor: usize,
    cfg: ServerConfig,
    pumps: u64,
    /// Host-wall epoch for span `host_ns` (latency breakdowns only —
    /// never on the deterministic path).
    epoch: Instant,
}

impl Scheduler {
    /// Build a scheduler over `graph`. The engine is constructed once,
    /// with a [`JobTable`] of `cfg.max_jobs` slots as its single
    /// algorithm; jobs plug into the table at submit time.
    pub fn new(graph: Arc<Csr>, mut cfg: ServerConfig) -> Result<Self, EngineError> {
        cfg.engine.record_paths = false;
        let table = Arc::new(JobTable::with_capacity(cfg.max_jobs));
        let engine = LightTraffic::new(graph.clone(), table.clone(), cfg.engine.clone())?;
        Ok(Scheduler {
            engine,
            graph,
            table,
            jobs: Vec::new(),
            active: Vec::new(),
            tenants: BTreeMap::new(),
            rr_cursor: 0,
            cfg,
            pumps: 0,
            epoch: Instant::now(),
        })
    }

    fn tenant_entry(&mut self, tenant: &str) -> &mut Tenant {
        let default_budget = self.cfg.default_budget;
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                budget: default_budget,
                step_latency_log2: vec![0; 64],
                ..Tenant::default()
            })
    }

    /// Submit a job for `tenant`. Returns the job handle plus the
    /// receiving end of its event stream. Fails with
    /// [`EngineError::Admission`] when the spec is empty, a seed vertex
    /// is not in the graph, or [`JobTable::register`] refuses it. O(1) in
    /// the walk count: a walker is placed when it is admitted.
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: JobSpec,
    ) -> Result<(JobId, Receiver<JobEvent>), EngineError> {
        match spec.num_walks() {
            0 => return Err(EngineError::Admission("job has zero walks".into())),
            n => lt_engine::check_walk_count(n)?,
        }
        let nv = self.graph.num_vertices();
        if let JobStart::Seeds(seeds) = &spec.start {
            if let Some(v) = seeds.iter().find(|&&v| u64::from(v) >= nv) {
                return Err(EngineError::Admission(format!(
                    "seed vertex {v} is not in the graph (|V| = {nv})"
                )));
            }
        }
        let tag = self.table.register(spec.algorithm.clone(), spec.seed)?;
        debug_assert_eq!(tag as usize, self.jobs.len());
        self.tenant_entry(tenant).jobs_submitted += 1;
        let id = JobId(tag as u64);
        let (tx, rx) = std::sync::mpsc::channel();
        let total = spec.num_walks();
        self.jobs.push(JobState {
            id,
            tenant: tenant.to_string(),
            status: JobStatus::Queued,
            total,
            injected: 0,
            spec,
            parked: Vec::new(),
            result: JobResult::default(),
            packed: None,
            suspended: false,
            stream: Some(tx),
            trace: JobTrace::new(
                id.0,
                tenant,
                derive_trace_id(self.cfg.engine.seed, tag),
                SPAN_CAPACITY,
            ),
        });
        let idx = self.jobs.len() - 1;
        self.active.push(idx);
        self.record_span(idx, JobPhase::Submitted, format!("walks={total}"));
        self.record_span(idx, JobPhase::Queued, String::new());
        Ok((id, rx))
    }

    /// Record a phase transition on one job's trace. `step_clock` is the
    /// job's schedule-invariant logical clock; `sim_ns`/`host_ns` are the
    /// wall-like clocks the canonical form masks.
    fn record_span(&mut self, idx: usize, phase: JobPhase, detail: String) {
        let sim_ns = self.engine.gpu().now();
        let host_ns = self.epoch.elapsed().as_nanos() as u64;
        let j = &mut self.jobs[idx];
        j.trace
            .record(phase, j.result.steps, sim_ns, host_ns, detail);
    }

    /// A job's current bookkeeping, or `None` for an unknown id.
    pub fn info(&self, id: JobId) -> Option<JobInfo> {
        self.jobs.get(id.0 as usize).map(|j| JobInfo {
            id: j.id,
            tenant: j.tenant.clone(),
            status: j.status.clone(),
            total_walks: j.total,
            injected: j.injected,
            finished: j.result.finished,
            steps: j.result.steps,
        })
    }

    /// A job's lifecycle state, or `None` for an unknown id.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs.get(id.0 as usize).map(|j| j.status.clone())
    }

    /// A job's accumulated result (complete once [`JobStatus::Done`],
    /// partial before then and after eviction), built for the caller: a
    /// done job's is decoded from its packed form, equal to its `Done`
    /// event's; any other job's is a copy of its vectors so far.
    pub fn result(&self, id: JobId) -> Option<JobResult> {
        let j = self.jobs.get(id.0 as usize)?;
        Some(match &j.packed {
            Some(p) => JobResult {
                steps: j.result.steps,
                finished: j.result.finished,
                visits: p.visits.unpack(),
                lengths: p.lengths.unpack(),
            },
            None => j.result.clone(),
        })
    }

    /// Cancel a job: in-flight walkers are discarded, partial results
    /// stay readable. Idempotent; `false` for unknown ids.
    pub fn cancel(&mut self, id: JobId) -> bool {
        let idx = id.0 as usize;
        if idx >= self.jobs.len() {
            return false;
        }
        if !self.jobs[idx].live() {
            return true;
        }
        if self.jobs[idx].in_flight() > 0 {
            self.engine.extract_tagged(idx as u32);
        }
        let j = &mut self.jobs[idx];
        j.release_queues();
        j.status = JobStatus::Evicted;
        Self::deliver(j, JobEvent::Evicted);
        if let Some(t) = self.tenants.get_mut(&j.tenant) {
            t.jobs_evicted += 1;
        }
        self.active.retain(|&i| i != idx);
        self.record_span(idx, JobPhase::Evicted, "cancelled".into());
        self.dump_flight_record(idx, "evicted");
        true
    }

    /// Grant `tokens` to `tenant` (creating it at zero if unknown, then
    /// adding). Parked jobs resume on the next pump.
    pub fn top_up(&mut self, tenant: &str, tokens: u64) {
        let t = self.tenant_entry(tenant);
        t.budget = t.budget.saturating_add(tokens);
    }

    /// Remaining tokens of `tenant` (`None` if never seen).
    pub fn budget(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).map(|t| t.budget)
    }

    /// Tokens `tenant` has spent so far: one per fresh walker admitted,
    /// one per step executed.
    pub fn spent(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).map(|t| t.walkers + t.steps)
    }

    /// Suspend one job onto the checkpoint machinery: its in-flight and
    /// parked walkers are extracted into a [`Checkpoint`] (serializable,
    /// resumable on this or an equally-configured scheduler via
    /// [`Scheduler::resume`]). Walks not yet placed stay behind the job's
    /// placement cursor. `None` for unknown or non-live jobs.
    pub fn suspend(&mut self, id: JobId) -> Option<Checkpoint> {
        let idx = id.0 as usize;
        if !self.jobs.get(idx)?.live() {
            return None;
        }
        let mut walkers = if self.jobs[idx].in_flight() > 0 {
            self.engine.extract_tagged(idx as u32)
        } else {
            Vec::new()
        };
        let j = &mut self.jobs[idx];
        walkers.append(&mut j.parked);
        walkers.sort_unstable_by_key(|w| w.id);
        j.suspended = true;
        Self::block(j, "suspended".into());
        self.record_span(idx, JobPhase::Blocked, "suspended".into());
        let j = &mut self.jobs[idx];
        Some(Checkpoint {
            seed: self.cfg.engine.seed,
            epoch: self.engine.epoch(),
            walkers,
            visit_counts: None,
            total_steps: j.result.steps,
            finished_walks: j.result.finished,
        })
    }

    /// Resume a suspended job from its checkpoint. The walkers re-enter
    /// the parked set (re-admission is free — their tokens were spent at
    /// first admission) and the job unblocks on the next pump. A
    /// checkpoint the engine would not restore
    /// ([`LightTraffic::check_checkpoint`]) is refused here, before any
    /// walker reaches the engine.
    pub fn resume(&mut self, id: JobId, cp: Checkpoint) -> Result<(), EngineError> {
        self.engine.check_checkpoint(&cp)?;
        let Some(j) = self.jobs.get_mut(id.0 as usize) else {
            return Err(EngineError::Admission(format!("unknown job {id}")));
        };
        // A budget park is `Blocked` too, but its walkers are still here:
        // restoring a checkpoint into it would run them twice.
        if !j.suspended || !j.live() {
            return Err(EngineError::Admission(format!("{id} is not suspended")));
        }
        if let Some(w) = cp.walkers.iter().find(|w| w.tag != id.0 as u32) {
            return Err(EngineError::Admission(format!(
                "checkpoint walker tagged {} does not belong to {id}",
                w.tag
            )));
        }
        j.parked.extend(cp.walkers);
        j.suspended = false;
        j.status = JobStatus::Running;
        self.record_span(
            id.0 as usize,
            JobPhase::Resumed,
            "checkpoint restored".into(),
        );
        Ok(())
    }

    /// Seal `updates` as one graph epoch (DESIGN.md §15). The serving
    /// loop executes commands between pump rounds, which are exactly the
    /// scheduler-iteration barriers where mutation visibility is
    /// deterministic: walks in flight simply observe the new adjacency
    /// from their next step on. Stale resident partitions are re-copied,
    /// and the returned summary carries the epoch, the update counts, and the reload
    /// traffic the seal charged.
    pub fn mutate(
        &mut self,
        updates: Vec<EdgeUpdate>,
    ) -> Result<lt_engine::EpochSummary, EngineError> {
        self.engine.mutate(updates)?;
        self.engine.seal_epoch()
    }

    /// The engine's current graph epoch (0 = never mutated). Suspended
    /// jobs resume only at the epoch their checkpoint was taken at.
    pub fn epoch(&self) -> u64 {
        self.engine.epoch()
    }

    /// Send `ev` on the job's stream. The channel is unbounded, so the
    /// pump never blocks on a slow or absent consumer; a consumer that
    /// hung up loses its events (results stay queryable). A job's last
    /// event drops the sender, which ends the consumer's stream.
    fn deliver(j: &mut JobState, ev: JobEvent) {
        if let Some(tx) = &j.stream {
            if tx.send(ev).is_err() || !j.live() {
                j.stream = None;
            }
        }
    }

    /// Park a job for `reason`: its status and its stream say why.
    fn block(j: &mut JobState, reason: String) {
        j.status = JobStatus::Blocked {
            reason: reason.clone(),
        };
        Self::deliver(j, JobEvent::Blocked { reason });
    }

    /// One deterministic scheduling round: admit a tranche per runnable
    /// job (round-robin, budget-gated), drive the engine
    /// `pump_iterations` iterations, drain per-job deltas, debit step
    /// costs, park exhausted tenants, deliver events, retire finished
    /// jobs. Returns `true` while runnable work remains (parked jobs
    /// waiting on a top-up do not count).
    pub fn pump(&mut self) -> Result<bool, EngineError> {
        self.pumps += 1;
        self.admit();
        let sim_start = self.engine.gpu().now();
        if self.engine.active_walks() > 0 {
            if let Err(e) = self.engine.step(self.cfg.pump_iterations) {
                self.on_fault(&e);
                return Err(e);
            }
        }
        let sim_elapsed = self.engine.gpu().now().saturating_sub(sim_start);
        self.drain(sim_elapsed);
        self.park_exhausted();
        self.retire();
        let jobs = &self.jobs;
        self.active.retain(|&idx| jobs[idx].live());
        Ok(self.has_runnable_work())
    }

    /// A fatal engine error ends every live job's usable timeline: mark
    /// them blocked on the fault and dump their flight records so the
    /// post-mortem (`lightwalk inspect`) sees the last spans and the
    /// traffic each job charged before the crash.
    fn on_fault(&mut self, e: &EngineError) {
        let detail = format!("engine fault: {e}");
        for k in 0..self.active.len() {
            let idx = self.active[k];
            self.record_span(idx, JobPhase::Blocked, detail.clone());
            self.dump_flight_record(idx, "fault");
        }
    }

    /// Pump until nothing runnable remains. Jobs may still be parked
    /// (budget) afterwards; a top-up makes them runnable again.
    pub fn run_until_idle(&mut self) -> Result<(), EngineError> {
        while self.pump()? {}
        Ok(())
    }

    /// Runnable work remains: walkers in the engine, or a live job with
    /// admissible walkers whose tenant still holds tokens. Parked jobs
    /// waiting on a top-up are not runnable.
    pub fn has_runnable_work(&self) -> bool {
        if self.engine.active_walks() > 0 {
            return true;
        }
        self.active.iter().map(|&idx| &self.jobs[idx]).any(|j| {
            !j.suspended && j.result.finished < j.total && self.tenants[&j.tenant].budget > 0
        })
    }

    /// Round-robin admission: starting at the rotating cursor, each
    /// runnable job may admit up to `tranche_walkers` — parked walkers
    /// first (free), then fresh ones at a token each, placed straight
    /// into the engine. The cursor turns over every job ever submitted;
    /// only the active ones are visited, in the order a scan from the
    /// cursor would meet them.
    fn admit(&mut self) {
        if self.jobs.is_empty() {
            return;
        }
        let nv = self.graph.num_vertices();
        let start = self.rr_cursor % self.jobs.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let split = self.active.partition_point(|&idx| idx < start);
        for k in (split..self.active.len()).chain(0..split) {
            let idx = self.active[k];
            let j = &mut self.jobs[idx];
            if j.suspended {
                continue;
            }
            let budget = self.tenants[&j.tenant].budget;
            if budget == 0 {
                continue;
            }
            let was_queued = matches!(j.status, JobStatus::Queued);
            let was_blocked = matches!(j.status, JobStatus::Blocked { .. });
            // Parked walkers re-enter free of charge; fresh walkers are
            // budget-gated, one token per admission.
            let take_parked = j.parked.len().min(self.cfg.tranche_walkers);
            let quota = (self.cfg.tranche_walkers - take_parked) as u64;
            let fresh = quota.min(j.total - j.injected).min(budget);
            if take_parked == 0 && fresh == 0 {
                // A blocked job with everything already in flight — or
                // nothing admissible this round.
                if was_blocked && j.parked.is_empty() {
                    j.status = JobStatus::Running;
                    self.record_span(idx, JobPhase::Resumed, "unparked".into());
                }
                continue;
            }
            let (first, tag, spec) = (j.injected, idx as u32, &j.spec);
            let mut placed = 0;
            let placements = (first..first + fresh)
                .map_while(|i| spec.place_walker(nv, tag, i))
                .inspect(|_| placed += 1);
            self.engine
                .inject(j.parked.drain(..take_parked).chain(placements));
            // A placement that stops early (`None`) ends the job there.
            if placed < fresh {
                j.total = first + placed;
            }
            j.injected += placed;
            j.status = JobStatus::Running;
            let batch_len = take_parked as u64 + placed;
            let t = self
                .tenants
                .get_mut(&j.tenant)
                .expect("submit registers the tenant before any job of it is admitted");
            t.budget -= placed;
            t.walkers += placed;
            if was_queued {
                // First walkers in: the queued span ends, the running one
                // opens. Both step_clock 0, both schedule-invariant.
                self.record_span(idx, JobPhase::Admitted, format!("walkers={batch_len}"));
                self.record_span(idx, JobPhase::Running, String::new());
            } else if was_blocked {
                self.record_span(idx, JobPhase::Resumed, format!("walkers={batch_len}"));
            }
        }
    }

    /// Fold the engine's per-tag deltas into job results, debit step
    /// costs, observe per-tenant step latency, and stream progress
    /// events. `sim_elapsed` is the pump round's simulated duration.
    fn drain(&mut self, sim_elapsed: u64) {
        for delta in self.engine.take_tag_deltas() {
            let j = &mut self.jobs[delta.tag as usize];
            j.result.steps += delta.steps;
            j.result.finished += delta.finished;
            j.result.visits.extend_from_slice(&delta.visits);
            j.result.lengths.extend_from_slice(&delta.lengths);
            Self::deliver(
                j,
                JobEvent::Progress {
                    steps: delta.steps,
                    finished: delta.finished,
                    visits: delta.visits,
                    lengths: delta.lengths,
                },
            );
            let t = self
                .tenants
                .get_mut(&j.tenant)
                .expect("submit registers the tenant before any job of it is admitted");
            let cost = delta.steps.min(t.budget);
            t.budget -= cost;
            t.steps += delta.steps;
            // Step latency as the tenant saw it this round: simulated
            // ns elapsed per step it got.
            if let Some(ns_per_step) = sim_elapsed.checked_div(delta.steps) {
                t.step_latency_log2[log2_bucket(ns_per_step)] += 1;
            }
        }
    }

    /// Park every live job of every tenant whose budget ran dry: walkers
    /// come out of the engine into the job's parked set and the job turns
    /// [`JobStatus::Blocked`]. Never an error, never drops a walker.
    fn park_exhausted(&mut self) {
        for k in 0..self.active.len() {
            let idx = self.active[k];
            let j = &self.jobs[idx];
            // A job with every walk finished has nothing to park; retire()
            // decides Done.
            if !matches!(j.status, JobStatus::Queued | JobStatus::Running)
                || self.tenants[&j.tenant].budget > 0
                || j.result.finished == j.total
            {
                continue;
            }
            let tenant = j.tenant.clone();
            if j.in_flight() > 0 {
                let extracted = self.engine.extract_tagged(idx as u32);
                self.jobs[idx].parked.extend(extracted);
            }
            let j = &mut self.jobs[idx];
            let reason = format!("tenant {tenant} budget exhausted");
            Self::block(j, reason.clone());
            if let Some(t) = self.tenants.get_mut(&tenant) {
                t.jobs_parked += 1;
            }
            self.record_span(idx, JobPhase::Blocked, reason);
            self.dump_flight_record(idx, "budget");
        }
    }

    /// Promote jobs whose every walk has retired to [`JobStatus::Done`]
    /// and deliver their final result.
    fn retire(&mut self) {
        for k in 0..self.active.len() {
            let idx = self.active[k];
            let j = &mut self.jobs[idx];
            // `finished + parked <= injected <= total`, so every walk has
            // retired exactly when `finished == total`.
            if !matches!(j.status, JobStatus::Queued | JobStatus::Running)
                || j.result.finished != j.total
            {
                continue;
            }
            j.status = JobStatus::Done;
            // Canonical form: the visit and length multisets are
            // schedule-invariant, so the sorted vectors are the
            // bit-identical cross-schedule representation (retirement
            // order, by contrast, depends on how tenants interleave).
            // A done job keeps its result for as long as the scheduler
            // lives, so it keeps it packed, gives back its emptied walker
            // queue and seed list, and moves the sorted vectors into its
            // `Done` event.
            radix_sort_u32(&mut j.result.visits);
            radix_sort_u32(&mut j.result.lengths);
            j.packed = Some(PackedResult {
                visits: PackedSorted::pack(&j.result.visits),
                lengths: PackedSorted::pack(&j.result.lengths),
            });
            j.release_queues();
            let result = JobResult {
                visits: std::mem::take(&mut j.result.visits),
                lengths: std::mem::take(&mut j.result.lengths),
                ..j.result
            };
            let finished = result.finished;
            Self::deliver(j, JobEvent::Done { result });
            self.record_span(idx, JobPhase::Done, format!("finished={finished}"));
        }
    }

    /// Tenant label for a ledger tag: the owning job's tenant,
    /// `"shared"` for unattributable traffic, the raw tag otherwise.
    fn tenant_name(&self, tag: u32) -> Cow<'_, str> {
        if tag == SHARED_TAG {
            Cow::Borrowed("shared")
        } else {
            match self.jobs.get(tag as usize) {
                Some(j) => Cow::Borrowed(&j.tenant),
                None => Cow::Owned(tag.to_string()),
            }
        }
    }

    /// The scheduler's one export, pure pull: the engine's series
    /// ([`LightTraffic::publish`]), then every `lt_server_*` series from
    /// the plain counters and the tag → tenant map. Values are set, so
    /// publishing again overwrites; the pump never touches a registry.
    pub fn publish(&self, registry: &mut lt_telemetry::MetricRegistry) {
        self.engine.publish(registry);
        registry
            .gauge(
                "lt_server_active_walks",
                "walkers in flight inside the engine",
                &[],
            )
            .set(self.engine.active_walks() as f64);
        for (tenant, t) in &self.tenants {
            for (name, help, value) in TENANT_COUNTERS {
                registry
                    .counter(name, help, &[("tenant", tenant)])
                    .set(value(t));
            }
            for &(qname, q) in LengthPercentiles::QUANTILES.iter() {
                if let Some(v) = log2_histogram_percentile(&t.step_latency_log2, q) {
                    registry
                        .gauge(
                            "lt_server_tenant_step_latency_ns",
                            "Simulated ns per step a tenant observed per pump round",
                            &[("tenant", tenant), ("quantile", qname)],
                        )
                        .set(v as f64);
                }
            }
        }
        if let Some(l) = self.engine.traffic_ledger() {
            // Each tag's tenant is looked up once, and borrowed.
            let mut per_tenant: BTreeMap<Cow<'_, str>, [u64; 2]> = BTreeMap::new();
            for (tag, [h2d, d2h, ..]) in l.tag_totals() {
                let e = per_tenant.entry(self.tenant_name(tag)).or_default();
                e[0] += h2d;
                e[1] += d2h;
            }
            for (tenant, [h2d, d2h]) in &per_tenant {
                for (dir, bytes) in [("h2d", *h2d), ("d2h", *d2h)] {
                    registry
                        .counter(
                            "lt_server_tenant_traffic_bytes_total",
                            "CPU-GPU link bytes attributed per tenant and direction",
                            &[("tenant", tenant), ("direction", dir)],
                        )
                        .set(bytes);
                }
            }
        }
    }

    /// One job's phase-span trace, or `None` for an unknown id.
    pub fn trace(&self, id: JobId) -> Option<&JobTrace> {
        self.jobs.get(id.0 as usize).map(|j| &j.trace)
    }

    /// The engine's traffic report with at most `top_k` hot partitions
    /// (`None` when attribution is disabled).
    pub fn traffic_report(&self, top_k: usize) -> Option<TrafficReport> {
        self.engine.traffic_ledger().map(|l| l.report(top_k))
    }

    /// A job's flight record ([`lt_telemetry::FlightRecord`]) as JSONL:
    /// its retained spans and the traffic the ledger attributes to it.
    /// `None` for unknown ids.
    pub fn flight_record(&self, id: JobId, reason: &str) -> Option<String> {
        let j = self.jobs.get(id.0 as usize)?;
        let rows = |(partition, bytes): (u32, [u64; 4])| {
            [TrafficDirection::H2d, TrafficDirection::D2h].map(|direction| TrafficRow {
                partition,
                direction,
                bytes: bytes[direction as usize],
            })
        };
        let ledger = self.engine.traffic_ledger();
        let traffic = (ledger.into_iter().flat_map(|l| l.tag_cells(id.0 as u32)))
            .flat_map(rows)
            .filter(|r| r.bytes > 0)
            .collect();
        Some(j.trace.flight_record(reason, traffic).to_jsonl())
    }

    /// Write a job's flight record into `cfg.flight_recorder_dir`
    /// (no-op when unset; IO errors are swallowed — the recorder is a
    /// post-mortem aid, never a scheduling dependency).
    fn dump_flight_record(&self, idx: usize, reason: &str) {
        let Some(dir) = &self.cfg.flight_recorder_dir else {
            return;
        };
        let id = self.jobs[idx].id.0;
        if let Some(dump) = self.flight_record(JobId(id), reason) {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(dir.join(format!("flight-job{id}-{reason}.jsonl")), dump);
        }
    }

    /// Pump rounds executed.
    pub fn pumps(&self) -> u64 {
        self.pumps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::{rmat, RmatParams};

    fn scheduler(max_jobs: usize) -> Scheduler {
        let g = rmat(RmatParams {
            scale: 8,
            edge_factor: 8,
            ..Default::default()
        })
        .csr;
        let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
        cfg.max_jobs = max_jobs;
        cfg.tranche_walkers = 32;
        Scheduler::new(Arc::new(g), cfg).unwrap()
    }

    /// A walk count past [`MAX_JOB_WALKS`] is refused before a walker is
    /// placed (at `u64::MAX` placing them overflowed the allocation) and
    /// takes no job slot: the one slot still serves the next job.
    #[test]
    fn a_walk_count_past_the_cap_is_refused() {
        let mut s = scheduler(1);
        for walks in [MAX_JOB_WALKS + 1, u64::MAX] {
            let r = s.submit("t", JobSpec::deepwalk(walks, 8, 1));
            assert!(matches!(r, Err(EngineError::Admission(_))), "{walks}");
        }
        let (id, _) = s.submit("t", JobSpec::deepwalk(20, 4, 1)).unwrap();
        s.run_until_idle().unwrap();
        assert_eq!(s.result(id).map(|r| r.steps), Some(20 * 4));
    }

    /// A done job's result vectors hold exactly their elements: the
    /// vectors decoded for a caller carry no growth slack.
    #[test]
    fn done_results_are_exact_size() {
        let mut s = scheduler(1);
        let (id, events) = s.submit("t", JobSpec::deepwalk(300, 12, 4)).unwrap();
        s.run_until_idle().unwrap();
        assert_eq!(s.status(id), Some(JobStatus::Done));
        let r = s.result(id).unwrap();
        assert_eq!(r.visits.len(), 300 * 12);
        assert_eq!(r.visits.capacity(), r.visits.len());
        assert_eq!(r.lengths.capacity(), r.lengths.len());
        let done = events.iter().find_map(|ev| match ev {
            JobEvent::Done { result } => Some(result),
            _ => None,
        });
        assert_eq!(done, Some(r));
    }

    /// A done 2048 × 40 DeepWalk job keeps its visits and lengths packed,
    /// at most 4 bits a visit, and nothing of them as plain vectors; its
    /// decoded result is its `Done` event's and an isolated run's. A
    /// cancelled job's partial result and a running job's are its plain
    /// vectors, as they were.
    #[test]
    fn done_results_are_kept_packed() {
        let g = Arc::new(
            rmat(RmatParams {
                scale: 12,
                edge_factor: 8,
                ..Default::default()
            })
            .csr,
        );
        let spec = || JobSpec::deepwalk(2048, 40, 42);
        let cfg = ServerConfig::new(EngineConfig::light_traffic(32 << 10, 4));
        let mut alone = Scheduler::new(g.clone(), cfg.clone()).unwrap();
        let (a, _) = alone.submit("t", spec()).unwrap();
        alone.run_until_idle().unwrap();

        let mut s = Scheduler::new(g, cfg).unwrap();
        let (done, events) = s.submit("t", spec()).unwrap();
        let (cancelled, _) = s.submit("u", JobSpec::deepwalk(2048, 40, 7)).unwrap();
        let (running, _) = s.submit("u", JobSpec::deepwalk(1 << 16, 40, 8)).unwrap();
        s.pump().unwrap();
        assert!(s.cancel(cancelled));
        while s.status(done) != Some(JobStatus::Done) {
            s.pump().unwrap();
        }
        assert_eq!(s.status(running), Some(JobStatus::Running));

        let j = &s.jobs[done.0 as usize];
        let p = j.packed.as_ref().expect("a done job is packed");
        assert_eq!(j.result.visits.capacity() + j.result.lengths.capacity(), 0);
        let bits = 8 * (p.visits.heap_bytes() + p.lengths.heap_bytes());
        assert!(bits <= 4 * 2048 * 40, "{bits} bits for 81,920 visits");
        let r = s.result(done).unwrap();
        assert_eq!(r.steps, 2048 * 40);
        assert_eq!(Some(&r), alone.result(a).as_ref());
        let event = events.try_iter().find_map(|ev| match ev {
            JobEvent::Done { result } => Some(result),
            _ => None,
        });
        assert_eq!(event, Some(r));
        for id in [cancelled, running] {
            let j = &s.jobs[id.0 as usize];
            assert!(j.packed.is_none());
            assert_eq!(s.result(id).as_ref(), Some(&j.result));
            assert!(j.result.visits.len() as u64 == j.result.steps && j.result.steps > 0);
        }
    }

    /// A seeded job places walker `i` from its seed list as it admits it,
    /// and gives the list back once no walker can enter again.
    #[test]
    fn a_done_seeded_job_frees_its_seed_list() {
        let mut s = scheduler(1);
        let spec = JobSpec {
            start: JobStart::Seeds((0..300).map(|v| v % 200).collect()),
            ..JobSpec::deepwalk(0, 12, 4)
        };
        let (id, _rx) = s.submit("t", spec).unwrap();
        let seeds = |s: &Scheduler| match &s.jobs[0].spec.start {
            JobStart::Seeds(seeds) => seeds.capacity(),
            JobStart::WalkCount(_) => unreachable!("submitted with seeds"),
        };
        assert!(seeds(&s) >= 300);
        s.run_until_idle().unwrap();
        assert_eq!(s.status(id), Some(JobStatus::Done));
        assert_eq!(s.result(id).unwrap().finished, 300);
        assert_eq!(seeds(&s), 0);
    }

    /// A done job keeps its result and nothing else: its walker queues,
    /// which held walkers while it ran, and its stream's sender are
    /// freed, and the result is still whole and sorted.
    #[test]
    fn finished_jobs_release_their_queues() {
        let mut s = scheduler(1);
        s.cfg.default_budget = 400;
        let (id, rx) = s.submit("t", JobSpec::deepwalk(300, 12, 4)).unwrap();
        s.run_until_idle().unwrap();
        let j = &s.jobs[0];
        assert!(matches!(j.status, JobStatus::Blocked { .. }));
        assert!(j.parked.capacity() > 0);
        assert!(j.stream.is_some());
        s.top_up("t", u64::MAX / 2);
        s.run_until_idle().unwrap();
        assert_eq!(s.status(id), Some(JobStatus::Done));
        let j = &s.jobs[0];
        assert_eq!(j.parked.capacity(), 0);
        assert!(j.stream.is_none());
        // The sender is gone, so the stream ends after its last event.
        let events: Vec<JobEvent> = rx.iter().collect();
        let r = s.result(id).unwrap();
        assert_eq!(r.finished, 300);
        assert_eq!(r.visits.len(), 300 * 12);
        assert!(r.visits.is_sorted() && r.lengths.is_sorted());
        assert!(matches!(events.last(), Some(JobEvent::Done { result }) if *result == r));
    }

    /// One pump round files one step-latency observation `v`, the
    /// simulated ns per step the tenant got, and the exported p50 reads it
    /// back in `[v, 2v)`: the bucket it was filed in is the bucket read.
    #[test]
    fn step_latency_reads_back_the_bucket_it_was_filed_in() {
        let mut s = scheduler(1);
        s.submit("t", JobSpec::deepwalk(32, 6, 3)).unwrap();
        let before = s.engine.gpu().now();
        s.pump().unwrap();
        let t = &s.tenants["t"];
        let v = (s.engine.gpu().now() - before) / t.steps;
        assert!(v > 0);
        assert_eq!(t.step_latency_log2.iter().sum::<u64>(), 1);
        let p50 = log2_histogram_percentile(&t.step_latency_log2, 0.5).unwrap();
        assert!(
            v <= p50 && p50 < 2 * v,
            "v {v} ns/step exported as p50 {p50}"
        );
    }

    /// The pump visits live jobs only: a job leaves the list in the pump
    /// that ends it (or at once when cancelled), whether or not its
    /// consumer has read a single event.
    #[test]
    fn finished_jobs_leave_the_pump() {
        let mut s = scheduler(8);
        for seed in 0..4 {
            s.submit("t", JobSpec::deepwalk(50, 6, seed)).unwrap();
            s.run_until_idle().unwrap();
            assert!(s.active.is_empty(), "job {seed} still visited");
        }
        let (cancelled, gone) = s.submit("t", JobSpec::deepwalk(50, 6, 9)).unwrap();
        let (slow, rx) = s.submit("u", JobSpec::deepwalk(50, 6, 10)).unwrap();
        assert_eq!(s.active, vec![4, 5]);
        assert!(s.cancel(cancelled));
        assert_eq!(s.active, vec![5]);
        assert_eq!(gone.iter().last(), Some(JobEvent::Evicted));
        while s.pump().unwrap() {
            let done = s.status(slow) == Some(JobStatus::Done);
            assert_eq!(s.active.is_empty(), done);
        }
        assert_eq!(s.status(slow), Some(JobStatus::Done));
        assert!(s.active.is_empty());
        let events: Vec<JobEvent> = rx.iter().collect();
        assert!(matches!(events.last(), Some(JobEvent::Done { .. })));
    }
}
