//! The multi-tenant determinism contract (DESIGN.md §13): N concurrent
//! jobs — mixed deepwalk / node2vec — multiplexed through one engine
//! produce per-job results bit-identical to the same specs run
//! sequentially in isolation at `kernel_threads: 1`, at every
//! `kernel_threads` × fault-injection combination.

use lt_engine::{EngineConfig, JobSpec, JobStatus};
use lt_gpusim::FaultPlan;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use lt_server::{JobResult, Scheduler, ServerConfig};
use lt_telemetry::{JobPhase, JobTrace, MetricRegistry};
use proptest::prelude::*;
use std::sync::Arc;

/// The scheduler's series, published into a fresh registry and rendered.
fn scrape(sched: &Scheduler) -> String {
    let mut registry = MetricRegistry::new();
    sched.publish(&mut registry);
    registry.render_prometheus()
}

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

/// The serving config under test: small partitions so jobs span many
/// batches, plus the combo's execution knobs.
fn server_config(kernel_threads: usize, faults: bool) -> ServerConfig {
    let mut engine = EngineConfig::light_traffic(8 << 10, 4);
    engine.kernel_threads = kernel_threads;
    if faults {
        engine.gpu.faults = Some(FaultPlan::retryable_only(7, 0.05));
    }
    let mut cfg = ServerConfig::new(engine);
    cfg.tranche_walkers = 64; // force multi-round admission
    cfg.pump_iterations = 4;
    cfg
}

/// One generated job: algorithm choice, size, shape, seed.
#[derive(Clone, Debug)]
struct ArbJob {
    node2vec: bool,
    walks: u64,
    max_length: u32,
    seed: u64,
}

impl ArbJob {
    fn spec(&self) -> JobSpec {
        if self.node2vec {
            JobSpec::node2vec(self.walks, self.max_length, 0.5, 2.0, self.seed)
        } else {
            JobSpec::deepwalk(self.walks, self.max_length, self.seed)
        }
    }
}

fn job_strategy() -> impl Strategy<Value = ArbJob> {
    (any::<bool>(), 1u64..150, 2u32..9, 0u64..1000).prop_map(
        |(node2vec, walks, max_length, seed)| ArbJob {
            node2vec,
            walks,
            max_length,
            seed,
        },
    )
}

/// Run `jobs` concurrently on one scheduler and return per-job results.
fn run_multiplexed(jobs: &[ArbJob], kernel_threads: usize, faults: bool) -> Vec<JobResult> {
    let mut sched =
        Scheduler::new(graph(), server_config(kernel_threads, faults)).expect("scheduler builds");
    let ids: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            sched
                .submit(&format!("tenant-{}", i % 2), j.spec())
                .expect("submit")
                .0
        })
        .collect();
    sched.run_until_idle().expect("multiplexed run completes");
    ids.iter()
        .map(|&id| {
            assert_eq!(sched.status(id), Some(JobStatus::Done));
            sched.result(id).unwrap()
        })
        .collect()
}

/// Run each job alone on its own scheduler (the isolation reference).
fn run_isolated(jobs: &[ArbJob], kernel_threads: usize, faults: bool) -> Vec<JobResult> {
    jobs.iter()
        .map(|j| {
            let mut sched = Scheduler::new(graph(), server_config(kernel_threads, faults))
                .expect("scheduler builds");
            let (id, _rx) = sched.submit("solo", j.spec()).expect("submit");
            sched.run_until_idle().expect("isolated run completes");
            assert_eq!(sched.status(id), Some(JobStatus::Done));
            sched.result(id).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Concurrent jobs on a shared graph == the same jobs in isolation,
    /// bit for bit, across every execution combo. The isolation
    /// reference is computed once at the `kernel_threads: 1`, fault-free corner;
    /// every multiplexed combo must reproduce it exactly.
    #[test]
    fn multiplexed_jobs_match_isolated_runs(jobs in prop::collection::vec(job_strategy(), 1..5)) {
        let reference = run_isolated(&jobs, 1, false);
        for (j, r) in jobs.iter().zip(&reference) {
            prop_assert_eq!(r.finished, j.walks);
            prop_assert_eq!(r.lengths.len() as u64, j.walks);
        }
        for &kernel_threads in &[1usize, 2, 4, 8] {
            for &faults in &[false, true] {
                let got = run_multiplexed(&jobs, kernel_threads, faults);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "combo kernel_threads={} faults={}",
                    kernel_threads,
                    faults
                );
            }
        }
    }
}

/// A job's span stream with both wall-like clocks (`sim_ns`, `host_ns`)
/// masked: sequence number, phase, step clock and detail.
type CanonicalSpans = Vec<(u64, JobPhase, u64, String)>;

fn canonical(t: &JobTrace) -> CanonicalSpans {
    t.spans()
        .map(|s| (s.seq, s.phase, s.step_clock, s.detail.clone()))
        .collect()
}

/// Canonical span streams for jobs run concurrently on one scheduler.
fn multiplexed_spans(jobs: &[ArbJob], kernel_threads: usize, faults: bool) -> Vec<CanonicalSpans> {
    let mut sched =
        Scheduler::new(graph(), server_config(kernel_threads, faults)).expect("scheduler builds");
    let ids: Vec<_> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            sched
                .submit(&format!("tenant-{}", i % 2), j.spec())
                .expect("submit")
                .0
        })
        .collect();
    sched.run_until_idle().expect("multiplexed run completes");
    ids.iter()
        .map(|&id| canonical(sched.trace(id).expect("trace exists")))
        .collect()
}

/// Canonical span stream for each job run alone (the isolation reference).
fn isolated_spans(jobs: &[ArbJob]) -> Vec<CanonicalSpans> {
    jobs.iter()
        .map(|j| {
            let mut sched =
                Scheduler::new(graph(), server_config(1, false)).expect("scheduler builds");
            let (id, _rx) = sched.submit("solo", j.spec()).expect("submit");
            sched.run_until_idle().expect("isolated run completes");
            canonical(sched.trace(id).expect("trace exists"))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The telemetry extension of the determinism contract (DESIGN.md
    /// §14): after masking both wall-like clocks, a job's span stream is
    /// bit-identical run multiplexed with other tenants vs alone — at
    /// every execution combo, including retryable fault injection. Spans
    /// are recorded only at status transitions and their details are
    /// built from schedule-invariant quantities, so not just the phases
    /// but the whole masked stream, details included, must agree.
    #[test]
    fn job_span_streams_match_isolated_runs(jobs in prop::collection::vec(job_strategy(), 1..4)) {
        let reference = isolated_spans(&jobs);
        for r in &reference {
            prop_assert!(r.iter().any(|s| s.1 == JobPhase::Submitted));
            prop_assert!(r.iter().any(|s| s.1 == JobPhase::Done));
        }
        for &kernel_threads in &[1usize, 2, 4, 8] {
            for &faults in &[false, true] {
                let got = multiplexed_spans(&jobs, kernel_threads, faults);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "combo kernel_threads={} faults={}",
                    kernel_threads,
                    faults
                );
            }
        }
    }
}

/// Same job set, same submission order, different pump/tranche shape:
/// per-job results must not care how the scheduler slices rounds.
#[test]
fn results_are_invariant_to_pump_granularity() {
    let jobs = [
        ArbJob {
            node2vec: false,
            walks: 120,
            max_length: 8,
            seed: 3,
        },
        ArbJob {
            node2vec: true,
            walks: 80,
            max_length: 6,
            seed: 4,
        },
    ];
    let baseline = run_multiplexed(&jobs, 1, false);
    for (tranche, pump) in [(1usize, 1u64), (7, 3), (1 << 12, 64)] {
        let mut cfg = server_config(1, false);
        cfg.tranche_walkers = tranche;
        cfg.pump_iterations = pump;
        let mut sched = Scheduler::new(graph(), cfg).unwrap();
        let ids: Vec<_> = jobs
            .iter()
            .map(|j| sched.submit("t", j.spec()).unwrap().0)
            .collect();
        sched.run_until_idle().unwrap();
        let got: Vec<_> = ids.iter().map(|&id| sched.result(id).unwrap()).collect();
        assert_eq!(got, baseline, "tranche={tranche} pump={pump}");
    }
}

/// Attribution observes and never steers (DESIGN.md §14): four tenants'
/// jobs served with the traffic ledger on and off give equal per-job
/// results and an equal device — every `lt_gpu_*` series (bytes, ops,
/// busy time, makespan).
#[test]
fn attribution_changes_no_result_and_no_device_counter() {
    let jobs: Vec<ArbJob> = (0..4u64)
        .map(|i| ArbJob {
            node2vec: i % 2 == 1,
            walks: 400 + 50 * i,
            max_length: 8,
            seed: 20 + i,
        })
        .collect();
    let run = |attribution: bool| {
        let mut cfg = server_config(4, false);
        cfg.engine.attribution = attribution;
        let mut sched = Scheduler::new(graph(), cfg).unwrap();
        let ids: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| sched.submit(&format!("tenant-{i}"), j.spec()).unwrap().0)
            .collect();
        sched.run_until_idle().unwrap();
        assert_eq!(sched.traffic_report(4).is_some(), attribution);
        let results: Vec<_> = ids.iter().map(|&id| sched.result(id).unwrap()).collect();
        let device: Vec<String> = scrape(&sched)
            .lines()
            .filter(|l| l.starts_with("lt_gpu_"))
            .map(String::from)
            .collect();
        (results, device)
    };
    let (on, on_device) = run(true);
    let (off, off_device) = run(false);
    assert!(on_device.iter().any(|l| l.contains("makespan")));
    assert_eq!(on, off, "attribution changed a job's result");
    assert_eq!(on_device, off_device, "attribution changed the device");
}

/// The proptest jobs above are too small to fan a batch out. This one is
/// big enough: at `kernel_threads: 4` kernels must run on the executor,
/// at `kernel_threads: 1` none may, and the served results must not tell
/// the two apart.
#[test]
fn pooled_server_matches_the_serial_one() {
    let jobs = [
        ArbJob {
            node2vec: false,
            walks: 3_000,
            max_length: 8,
            seed: 5,
        },
        ArbJob {
            node2vec: true,
            walks: 2_000,
            max_length: 6,
            seed: 6,
        },
    ];
    let run = |kernel_threads: usize| {
        let mut cfg = server_config(kernel_threads, false);
        cfg.tranche_walkers = 1 << 12;
        let mut sched = Scheduler::new(graph(), cfg).unwrap();
        let ids: Vec<_> = jobs
            .iter()
            .map(|j| sched.submit("t", j.spec()).unwrap().0)
            .collect();
        sched.run_until_idle().unwrap();
        let results: Vec<_> = ids.iter().map(|&id| sched.result(id).unwrap()).collect();
        let text = scrape(&sched);
        let series = |name: &str| -> u64 {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
                .expect("executor series are always exported")
                .parse()
                .unwrap()
        };
        let pool_tasks = series("lt_exec_tasks_total") + series("lt_exec_caller_tasks_total");
        (results, pool_tasks)
    };
    let (serial, serial_tasks) = run(1);
    let (pooled, pooled_tasks) = run(4);
    assert_eq!(serial_tasks, 0, "kernel_threads=1 must step inline");
    assert!(pooled_tasks > 0, "kernel_threads=4 never fanned out");
    assert_eq!(pooled, serial);
}
