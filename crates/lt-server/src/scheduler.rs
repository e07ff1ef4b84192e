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

use lt_engine::{
    radix_sort_u32, Checkpoint, EdgeUpdate, EngineConfig, EngineError, JobId, JobSpec, JobStart,
    JobStatus, JobTable, LightTraffic, Walker,
};
use lt_graph::{Csr, VertexId};
use lt_telemetry::{
    derive_trace_id, log2_histogram_percentile, JobPhase, JobTrace, LengthPercentiles,
    MetricRegistry, TrafficReport, SHARED_TAG,
};
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::Instant;

/// Serving-layer configuration over the engine's.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Engine configuration. `track_tags` is forced on and
    /// `record_paths` forced off (the path log indexes by walker id,
    /// which collides across jobs).
    pub engine: EngineConfig,
    /// Job slots over the scheduler's lifetime ([`JobTable`] capacity).
    pub max_jobs: usize,
    /// Tokens granted to a tenant on first contact.
    pub default_budget: u64,
    /// Walkers admitted per job per pump round (the fairness quantum).
    pub tranche_walkers: usize,
    /// Engine scheduler iterations per pump round.
    pub pump_iterations: u64,
    /// Bound of each job's streaming event channel; overflow falls back
    /// to an in-scheduler backlog, never blocks the pump.
    pub stream_capacity: usize,
    /// Recent phase spans retained per job (the flight-recorder ring;
    /// older spans drop but stay counted).
    pub span_capacity: usize,
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
            stream_capacity: 64,
            span_capacity: 64,
            flight_recorder_dir: None,
        }
    }
}

/// Incremental per-job delivery, streamed over a bounded channel as
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
    injected: u64,
    /// Walkers generated at submit, awaiting first (budgeted) admission.
    pending: VecDeque<Walker>,
    /// In-flight walkers extracted while parked; re-admission is free.
    parked: Vec<Walker>,
    result: JobResult,
    /// Explicitly suspended ([`Scheduler::suspend`]): stays parked even
    /// with budget, until [`Scheduler::resume`] hands the checkpoint
    /// back. Budget parking, by contrast, auto-resumes on top-up.
    suspended: bool,
    stream: Option<SyncSender<JobEvent>>,
    backlog: VecDeque<JobEvent>,
    /// Phase-span ring (trace identity + flight recorder, DESIGN.md §14).
    trace: JobTrace,
}

impl JobState {
    /// Work remains somewhere (pending, parked, or in the engine).
    fn live(&self) -> bool {
        matches!(
            self.status,
            JobStatus::Queued | JobStatus::Running | JobStatus::Blocked { .. }
        )
    }

    fn in_flight(&self) -> u64 {
        self.injected - self.result.finished - self.parked.len() as u64
    }

    /// Free the walker queues of a job no walker can enter again. The
    /// event backlog goes when the stream closes ([`Scheduler::flush_job`]).
    fn release_queues(&mut self) {
        self.pending = VecDeque::new();
        self.parked = Vec::new();
    }
}

struct Tenant {
    budget: u64,
    spent: u64,
    /// log₂ histogram of simulated nanoseconds per step the tenant
    /// observed each pump round (bucket 0 = 0 ns, bucket i covers
    /// `[2^(i-1), 2^i)`). Pull-side only: exported as quantile gauges,
    /// never read by a scheduling decision.
    step_latency_log2: Vec<u64>,
}

/// The deterministic multiplexer: many jobs, one engine. See the module
/// docs for the scheduling and budget model.
pub struct Scheduler {
    engine: LightTraffic,
    graph: Arc<Csr>,
    table: Arc<JobTable>,
    jobs: Vec<JobState>,
    /// Indices of the jobs a pump visits, ascending: every live job, and
    /// every finished one whose event stream has not closed yet. A pump
    /// costs what these jobs cost, however many jobs were ever submitted.
    active: Vec<usize>,
    tenants: BTreeMap<String, Tenant>,
    rr_cursor: usize,
    cfg: ServerConfig,
    registry: Arc<MetricRegistry>,
    pumps: u64,
    /// Host-wall epoch for span `host_ns` (latency breakdowns only —
    /// never on the deterministic path).
    epoch: Instant,
}

impl Scheduler {
    /// Build a scheduler over `graph`. The engine is constructed once,
    /// with a [`JobTable`] of `cfg.max_jobs` slots as its single
    /// algorithm; jobs plug into the table at submit time.
    pub fn new(graph: Arc<Csr>, cfg: ServerConfig) -> Result<Self, EngineError> {
        Scheduler::with_registry(graph, cfg, Arc::new(MetricRegistry::new()))
    }

    /// Like [`Scheduler::new`] with a caller-supplied metric registry
    /// (so an embedding process exports one registry, not two).
    pub fn with_registry(
        graph: Arc<Csr>,
        mut cfg: ServerConfig,
        registry: Arc<MetricRegistry>,
    ) -> Result<Self, EngineError> {
        cfg.engine.track_tags = true;
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
            registry,
            pumps: 0,
            epoch: Instant::now(),
        })
    }

    /// The metric registry this scheduler reports into.
    pub fn registry(&self) -> Arc<MetricRegistry> {
        self.registry.clone()
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<Csr> {
        &self.graph
    }

    fn tenant_entry(&mut self, tenant: &str) -> &mut Tenant {
        let default_budget = self.cfg.default_budget;
        self.tenants
            .entry(tenant.to_string())
            .or_insert_with(|| Tenant {
                budget: default_budget,
                spent: 0,
                step_latency_log2: vec![0; 64],
            })
    }

    /// Submit a job for `tenant`. Returns the job handle plus the
    /// receiving end of its event stream. Fails with
    /// [`EngineError::Admission`] when the job table is full, the spec
    /// is empty, a seed vertex is not in the graph, or the algorithm
    /// fails [`lt_engine::WalkAlgorithm::validate`].
    pub fn submit(
        &mut self,
        tenant: &str,
        spec: JobSpec,
    ) -> Result<(JobId, Receiver<JobEvent>), EngineError> {
        if spec.num_walks() == 0 {
            return Err(EngineError::Admission("job has zero walks".into()));
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
        self.tenant_entry(tenant);
        let pending: VecDeque<Walker> = spec.place_walkers(nv, tag).into();
        let id = JobId(tag as u64);
        let (tx, rx) = std::sync::mpsc::sync_channel(self.cfg.stream_capacity.max(1));
        let total = pending.len() as u64;
        self.jobs.push(JobState {
            id,
            tenant: tenant.to_string(),
            status: JobStatus::Queued,
            total,
            injected: 0,
            pending,
            parked: Vec::new(),
            result: JobResult::default(),
            suspended: false,
            stream: Some(tx),
            backlog: VecDeque::new(),
            trace: JobTrace::new(
                id.0,
                tenant,
                derive_trace_id(self.cfg.engine.seed, tag),
                self.cfg.span_capacity,
            ),
        });
        let idx = self.jobs.len() - 1;
        self.active.push(idx);
        self.record_span(idx, JobPhase::Submitted, format!("walks={total}"));
        self.record_span(idx, JobPhase::Queued, String::new());
        self.registry
            .counter(
                "lt_server_jobs_submitted_total",
                "jobs accepted by the scheduler",
                &[("tenant", tenant)],
            )
            .inc();
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
    /// partial before then and after eviction).
    pub fn result(&self, id: JobId) -> Option<&JobResult> {
        self.jobs.get(id.0 as usize).map(|j| &j.result)
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
        let tenant = j.tenant.clone();
        Self::deliver(j, JobEvent::Evicted);
        self.record_span(idx, JobPhase::Evicted, "cancelled".into());
        self.dump_flight_record(idx, "evicted");
        self.registry
            .counter(
                "lt_server_jobs_evicted_total",
                "jobs cancelled or expelled",
                &[("tenant", &tenant)],
            )
            .inc();
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

    /// Tokens `tenant` has spent so far.
    pub fn spent(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).map(|t| t.spent)
    }

    /// Suspend one job onto the checkpoint machinery: its in-flight and
    /// parked walkers are extracted into a [`Checkpoint`] (serializable,
    /// resumable on this or an equally-configured scheduler via
    /// [`Scheduler::resume`]). Walkers still pending first admission stay
    /// inside the scheduler. `None` for unknown or non-live jobs.
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
        j.status = JobStatus::Blocked {
            reason: "suspended".into(),
        };
        Self::deliver(
            j,
            JobEvent::Blocked {
                reason: "suspended".into(),
            },
        );
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
        for w in &cp.walkers {
            if w.tag != id.0 as u32 {
                return Err(EngineError::Admission(format!(
                    "checkpoint walker tagged {} does not belong to {id}",
                    w.tag
                )));
            }
        }
        j.parked.extend(cp.walkers);
        j.suspended = false;
        j.status = if j.injected > 0 || !j.pending.is_empty() || !j.parked.is_empty() {
            JobStatus::Running
        } else {
            JobStatus::Queued
        };
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

    /// Push `ev` to the job's stream; overflow and disconnects fall back
    /// to the in-scheduler backlog so the pump never blocks on a slow or
    /// absent consumer.
    fn deliver(j: &mut JobState, ev: JobEvent) {
        j.backlog.push_back(ev);
        Self::flush_job(j);
    }

    /// Drain as much backlog into the bounded channel as fits. Once a
    /// finished job's backlog is empty its sender is dropped, which ends
    /// the consumer's stream.
    fn flush_job(j: &mut JobState) {
        while let Some(ev) = j.backlog.pop_front() {
            match Self::try_send(&mut j.stream, ev) {
                Ok(()) => {}
                Err(ev) => {
                    j.backlog.push_front(ev);
                    break;
                }
            }
        }
        if !j.live() && j.backlog.is_empty() {
            j.stream = None;
            j.backlog = VecDeque::new();
        }
    }

    fn try_send(stream: &mut Option<SyncSender<JobEvent>>, ev: JobEvent) -> Result<(), JobEvent> {
        match stream {
            None => Ok(()), // consumer gone: drop silently, results remain queryable
            Some(tx) => match tx.try_send(ev) {
                Ok(()) => Ok(()),
                Err(TrySendError::Full(ev)) => Err(ev),
                Err(TrySendError::Disconnected(_)) => {
                    *stream = None;
                    Ok(())
                }
            },
        }
    }

    /// Retry delivery of backlogged events (a long-lived serving loop
    /// calls this between pump rounds so slow consumers still drain).
    /// A finished job whose stream has closed leaves the pump's job list
    /// here.
    pub fn flush_streams(&mut self) {
        let jobs = &mut self.jobs;
        self.active.retain(|&idx| {
            let j = &mut jobs[idx];
            Self::flush_job(j);
            j.live() || j.stream.is_some()
        });
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
        self.flush_streams();
        let runnable = self.has_runnable_work();
        // Attribution series are pull-side monitoring state: refreshing
        // them is O(cells) of label formatting, too heavy even for the
        // idle transition (it lands inside every serve loop). They are
        // published purely on demand — [`Scheduler::refresh_observability`],
        // which the server's `metrics`/`traffic` ops call before reading
        // the registry — so the pump pays nothing for attribution.
        self.registry
            .gauge(
                "lt_server_active_walks",
                "walkers in flight inside the engine",
                &[],
            )
            .set(self.engine.active_walks() as f64);
        Ok(runnable)
    }

    /// A fatal engine error ends every live job's usable timeline: mark
    /// them blocked on the fault and dump their flight records so the
    /// post-mortem (`lightwalk inspect`) sees the last spans and the
    /// traffic each job charged before the crash.
    fn on_fault(&mut self, e: &EngineError) {
        let detail = format!("engine fault: {e}");
        for k in 0..self.active.len() {
            let idx = self.active[k];
            if !self.jobs[idx].live() {
                continue;
            }
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
            j.live()
                && !j.suspended
                && (!j.pending.is_empty() || !j.parked.is_empty() || j.in_flight() > 0)
                && self.tenants[&j.tenant].budget > 0
        })
    }

    /// Round-robin admission: starting at the rotating cursor, each
    /// runnable job may admit up to `tranche_walkers` — parked walkers
    /// first (free), then fresh ones at a token each. The cursor turns
    /// over every job ever submitted; only the active ones are visited,
    /// in the order a scan from the cursor would meet them.
    fn admit(&mut self) {
        if self.jobs.is_empty() {
            return;
        }
        let start = self.rr_cursor % self.jobs.len();
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        let split = self.active.partition_point(|&idx| idx < start);
        for k in (split..self.active.len()).chain(0..split) {
            let idx = self.active[k];
            let j = &mut self.jobs[idx];
            if !j.live() || j.suspended {
                continue;
            }
            let budget = self.tenants[&j.tenant].budget;
            if budget == 0 {
                continue;
            }
            let was_queued = matches!(j.status, JobStatus::Queued);
            let was_blocked = matches!(j.status, JobStatus::Blocked { .. });
            let mut quota = self.cfg.tranche_walkers;
            let mut batch: Vec<Walker> = Vec::new();
            // Parked walkers re-enter free of charge.
            let take_parked = j.parked.len().min(quota);
            batch.extend(j.parked.drain(..take_parked));
            quota -= take_parked;
            // Fresh walkers are budget-gated: one token per admission.
            let fresh = (quota as u64).min(j.pending.len() as u64).min(budget);
            batch.extend(j.pending.drain(..fresh as usize));
            if batch.is_empty() {
                // A blocked job with everything already in flight — or
                // nothing admissible this round.
                if matches!(&j.status, JobStatus::Blocked { .. })
                    && j.parked.is_empty()
                    && budget > 0
                {
                    j.status = JobStatus::Running;
                    self.record_span(idx, JobPhase::Resumed, "unparked".into());
                }
                continue;
            }
            j.injected += fresh;
            j.status = JobStatus::Running;
            let tenant = j.tenant.clone();
            let batch_len = batch.len();
            let t = self
                .tenants
                .get_mut(&tenant)
                .expect("submit registers the tenant before any job of it is admitted");
            t.budget -= fresh;
            t.spent += fresh;
            self.registry
                .counter(
                    "lt_server_tenant_walkers_total",
                    "fresh walkers admitted per tenant",
                    &[("tenant", &tenant)],
                )
                .add(fresh);
            self.engine.inject(batch);
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
            let idx = delta.tag as usize;
            let tenant = self.jobs[idx].tenant.clone();
            let j = &mut self.jobs[idx];
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
                .get_mut(&tenant)
                .expect("submit registers the tenant before any job of it is admitted");
            let cost = delta.steps.min(t.budget);
            t.budget -= cost;
            t.spent += delta.steps;
            // Step latency as the tenant saw it this round: simulated
            // ns elapsed per step it got. Derived from the simulated
            // clock, read pull-side only — the histogram never feeds
            // a scheduling decision.
            if let Some(ns_per_step) = sim_elapsed.checked_div(delta.steps) {
                let bucket = if ns_per_step == 0 {
                    0
                } else {
                    (64 - ns_per_step.leading_zeros() as usize).min(63)
                };
                t.step_latency_log2[bucket] += 1;
            }
            self.registry
                .counter(
                    "lt_server_tenant_steps_total",
                    "steps executed per tenant",
                    &[("tenant", &tenant)],
                )
                .add(delta.steps);
        }
    }

    /// Park every live job of every tenant whose budget ran dry: walkers
    /// come out of the engine into the job's parked set and the job turns
    /// [`JobStatus::Blocked`]. Never an error, never drops a walker.
    fn park_exhausted(&mut self) {
        for k in 0..self.active.len() {
            let idx = self.active[k];
            let j = &self.jobs[idx];
            if !matches!(j.status, JobStatus::Queued | JobStatus::Running)
                || self.tenants[&j.tenant].budget > 0
            {
                continue;
            }
            let tenant = j.tenant.clone();
            if j.in_flight() > 0 {
                let extracted = self.engine.extract_tagged(idx as u32);
                self.jobs[idx].parked.extend(extracted);
            }
            let j = &mut self.jobs[idx];
            if j.pending.is_empty() && j.parked.is_empty() && j.in_flight() == 0 {
                continue; // nothing left to park; retire() decides Done
            }
            let reason = format!("tenant {tenant} budget exhausted");
            j.status = JobStatus::Blocked {
                reason: reason.clone(),
            };
            Self::deliver(
                j,
                JobEvent::Blocked {
                    reason: reason.clone(),
                },
            );
            self.record_span(idx, JobPhase::Blocked, reason);
            self.dump_flight_record(idx, "budget");
            self.registry
                .counter(
                    "lt_server_jobs_parked_total",
                    "jobs parked on budget exhaustion",
                    &[("tenant", &tenant)],
                )
                .inc();
        }
    }

    /// Promote jobs whose every walk has retired to [`JobStatus::Done`]
    /// and deliver their final result.
    fn retire(&mut self) {
        for k in 0..self.active.len() {
            let idx = self.active[k];
            let j = &mut self.jobs[idx];
            if !matches!(j.status, JobStatus::Queued | JobStatus::Running) {
                continue;
            }
            let complete = j.pending.is_empty()
                && j.parked.is_empty()
                && j.injected == j.total
                && j.result.finished == j.total;
            if !complete {
                continue;
            }
            j.status = JobStatus::Done;
            // Canonical form: the visit and length multisets are
            // schedule-invariant, so the sorted vectors are the
            // bit-identical cross-schedule representation (retirement
            // order, by contrast, depends on how tenants interleave).
            // A done job keeps its result for as long as the scheduler
            // lives, so it gives back the growth slack and its emptied
            // walker queues.
            radix_sort_u32(&mut j.result.visits);
            j.result.visits.shrink_to_fit();
            radix_sort_u32(&mut j.result.lengths);
            j.result.lengths.shrink_to_fit();
            j.release_queues();
            let result = j.result.clone();
            let finished = result.finished;
            Self::deliver(j, JobEvent::Done { result });
            self.record_span(idx, JobPhase::Done, format!("finished={finished}"));
        }
    }

    /// Tenant label for a ledger tag: the owning job's tenant,
    /// `"shared"` for unattributable traffic, the raw tag otherwise.
    fn tenant_of_tag(&self, tag: u32) -> String {
        if tag == SHARED_TAG {
            "shared".to_string()
        } else {
            self.jobs
                .get(tag as usize)
                .map(|j| j.tenant.clone())
                .unwrap_or_else(|| tag.to_string())
        }
    }

    /// Publish the engine's series ([`LightTraffic::publish`]), then the
    /// ones that need the tag → tenant map: per-tenant link bytes and
    /// step-latency quantiles. The pump never publishes — this is pure
    /// pull, and nothing here is read back by the scheduler — so anyone
    /// reading the registry directly must call this first; the server's
    /// `metrics` and `traffic` ops do it automatically.
    pub fn refresh_observability(&self) {
        self.engine.publish(&self.registry);
        if let Some(l) = self.engine.traffic_ledger() {
            let mut per_tenant: BTreeMap<String, (u64, u64)> = BTreeMap::new();
            for c in l.cells() {
                let e = per_tenant
                    .entry(self.tenant_of_tag(c.tag))
                    .or_insert((0, 0));
                e.0 += c.h2d_bytes;
                e.1 += c.d2h_bytes;
            }
            for (tenant, (h2d, d2h)) in per_tenant {
                for (dir, bytes) in [("h2d", h2d), ("d2h", d2h)] {
                    self.registry
                        .counter(
                            "lt_server_tenant_traffic_bytes_total",
                            "CPU-GPU link bytes attributed per tenant and direction",
                            &[("tenant", &tenant), ("direction", dir)],
                        )
                        .set(bytes);
                }
            }
        }
        for (tenant, t) in &self.tenants {
            for &(qname, q) in LengthPercentiles::QUANTILES.iter() {
                if let Some(v) = log2_histogram_percentile(&t.step_latency_log2, q) {
                    self.registry
                        .gauge(
                            "lt_server_tenant_step_latency_ns",
                            "Simulated ns per step a tenant observed per pump round",
                            &[("tenant", tenant), ("quantile", qname)],
                        )
                        .set(v as f64);
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

    /// Build a job's flight-record JSONL on demand: a meta line, the
    /// retained spans, and the traffic rows the ledger attributes to the
    /// job. `None` for unknown ids.
    pub fn flight_record(&self, id: JobId, reason: &str) -> Option<String> {
        let j = self.jobs.get(id.0 as usize)?;
        let rows = self.job_traffic_rows(id.0 as u32);
        Some(j.trace.flight_record_jsonl(reason, &rows))
    }

    fn job_traffic_rows(&self, tag: u32) -> Vec<(u32, &'static str, u64)> {
        let Some(l) = self.engine.traffic_ledger() else {
            return Vec::new();
        };
        let mut rows = Vec::new();
        for c in l.cells() {
            if c.tag != tag {
                continue;
            }
            if c.h2d_bytes > 0 {
                rows.push((c.partition, "h2d", c.h2d_bytes));
            }
            if c.d2h_bytes > 0 {
                rows.push((c.partition, "d2h", c.d2h_bytes));
            }
        }
        rows
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

    /// A done job's result vectors hold exactly their elements: it keeps
    /// them for the scheduler's lifetime.
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
        assert_eq!(done.as_ref(), Some(r));
    }

    /// A done job keeps its result and nothing else: its walker queues and
    /// event backlog, which held walkers and events while it ran, are
    /// freed, and the result is still whole and sorted.
    #[test]
    fn finished_jobs_release_their_queues() {
        let mut s = scheduler(1);
        s.cfg.default_budget = 400;
        s.cfg.stream_capacity = 1;
        let (id, rx) = s.submit("t", JobSpec::deepwalk(300, 12, 4)).unwrap();
        s.run_until_idle().unwrap();
        let j = &s.jobs[0];
        assert!(matches!(j.status, JobStatus::Blocked { .. }));
        assert!(j.pending.capacity() > 0 && j.parked.capacity() > 0);
        assert!(j.backlog.capacity() > 0);
        s.top_up("t", u64::MAX / 2);
        s.run_until_idle().unwrap();
        assert_eq!(s.status(id), Some(JobStatus::Done));
        let mut events = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            events.push(ev);
            s.flush_streams();
        }
        let j = &s.jobs[0];
        assert_eq!(j.pending.capacity(), 0);
        assert_eq!(j.parked.capacity(), 0);
        assert_eq!(j.backlog.capacity(), 0);
        let r = s.result(id).unwrap();
        assert_eq!(r.finished, 300);
        assert_eq!(r.visits.len(), 300 * 12);
        assert!(r.visits.is_sorted() && r.lengths.is_sorted());
        assert!(matches!(events.last(), Some(JobEvent::Done { result }) if result == r));
    }

    /// The pump visits live jobs and unclosed streams only: a job leaves
    /// the list once it is done or cancelled and its stream has closed,
    /// and a done job whose consumer lags stays until it has drained.
    #[test]
    fn finished_jobs_leave_the_pump() {
        let mut s = scheduler(8);
        for seed in 0..4 {
            s.submit("t", JobSpec::deepwalk(50, 6, seed)).unwrap();
            s.run_until_idle().unwrap();
            assert!(s.active.is_empty(), "job {seed} still visited");
        }
        let (cancelled, _) = s.submit("t", JobSpec::deepwalk(50, 6, 9)).unwrap();
        s.cfg.stream_capacity = 1;
        let (slow, rx) = s.submit("u", JobSpec::deepwalk(50, 6, 10)).unwrap();
        assert_eq!(s.active, vec![4, 5]);
        assert!(s.cancel(cancelled));
        s.pump().unwrap();
        assert_eq!(s.active, vec![5]);
        s.run_until_idle().unwrap();
        assert_eq!(s.status(slow), Some(JobStatus::Done));
        assert_eq!(s.active, vec![5], "undelivered events keep the stream open");
        let mut events = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            events.push(ev);
            s.flush_streams();
        }
        assert!(matches!(events.last(), Some(JobEvent::Done { .. })));
        assert!(s.active.is_empty());
    }
}
