//! Budget lifecycle, fairness at equal budgets, streaming delivery,
//! suspend/resume, and the TCP/JSONL front end.

use lt_engine::{EngineConfig, EngineError, JobSpec, JobStart, JobStatus};
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use lt_server::server::MAX_REQUEST_LINE_BYTES;
use lt_server::{JobEvent, Scheduler, Server, ServerConfig, TcpFrontend};
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn graph() -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 8,
            edge_factor: 8,
            ..Default::default()
        })
        .csr,
    )
}

fn config() -> ServerConfig {
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.tranche_walkers = 32;
    cfg.pump_iterations = 4;
    cfg
}

/// Exhaustion parks the job (never errors, never drops a walker); a
/// top-up resumes it to the exact result an unbudgeted run produces.
#[test]
fn budget_exhaustion_parks_then_top_up_resumes() {
    // Reference: the same job under an unlimited budget.
    let mut free = Scheduler::new(graph(), config()).unwrap();
    let (free_id, _) = free.submit("t", JobSpec::deepwalk(100, 8, 5)).unwrap();
    free.run_until_idle().unwrap();
    let want = free.result(free_id).unwrap().clone();
    assert_eq!(want.finished, 100);

    // Constrained: 100 admissions + 800 steps needed, 150 tokens granted.
    let mut cfg = config();
    cfg.default_budget = 150;
    let mut sched = Scheduler::new(graph(), cfg).unwrap();
    let (id, _rx) = sched.submit("t", JobSpec::deepwalk(100, 8, 5)).unwrap();
    sched.run_until_idle().unwrap();
    match sched.status(id).unwrap() {
        JobStatus::Blocked { reason } => assert!(reason.contains("budget"), "reason: {reason}"),
        other => panic!("expected Blocked, got {other:?}"),
    }
    assert_eq!(sched.budget("t"), Some(0));
    let partial = sched.result(id).unwrap();
    assert!(partial.finished < 100, "budget should bite before the end");

    // Walker conservation while parked: admitted walks are either
    // finished or parked, none dropped, none errored.
    let info = sched.info(id).unwrap();
    assert!(info.injected <= 100);
    assert!(info.finished <= info.injected);

    // Repeated top-ups resume and finish the job.
    let mut topups = 0;
    while sched.status(id) != Some(JobStatus::Done) {
        sched.top_up("t", 200);
        sched.run_until_idle().unwrap();
        topups += 1;
        assert!(topups < 64, "job does not converge under top-ups");
    }
    assert!(topups >= 1, "the constrained run must actually block");
    assert_eq!(
        sched.result(id).unwrap(),
        &want,
        "parked+resumed == unbudgeted"
    );
}

/// Two tenants, one starved: the starved tenant's job blocks while the
/// funded tenant's job completes; funding the starved tenant later
/// completes it with results identical to an isolated run.
#[test]
fn starved_tenant_blocks_without_impeding_others() {
    let mut iso = Scheduler::new(graph(), config()).unwrap();
    let (iso_id, _) = iso.submit("poor", JobSpec::deepwalk(60, 6, 9)).unwrap();
    iso.run_until_idle().unwrap();
    let want = iso.result(iso_id).unwrap().clone();

    let mut cfg = config();
    cfg.default_budget = 30; // not enough to even admit 60 walkers
    let mut sched = Scheduler::new(graph(), cfg).unwrap();
    let (poor, _) = sched.submit("poor", JobSpec::deepwalk(60, 6, 9)).unwrap();
    let (rich, _) = sched.submit("rich", JobSpec::deepwalk(40, 6, 11)).unwrap();
    sched.top_up("rich", 1 << 20);
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(rich), Some(JobStatus::Done));
    assert!(matches!(
        sched.status(poor),
        Some(JobStatus::Blocked { .. })
    ));

    sched.top_up("poor", 1 << 20);
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(poor), Some(JobStatus::Done));
    assert_eq!(sched.result(poor).unwrap(), &want);
}

/// Fairness at equal budgets (DESIGN.md §13), read while it can still
/// differ: once `run_until_idle` returns, equal fixed-length jobs have
/// executed equal steps by arithmetic, whatever the scheduler did, so the
/// spread is taken at pump boundaries. Four tenants, ample equal budgets,
/// equal DeepWalk jobs ten tranches long. At every pump boundary until
/// the first job reports `Done`, admission has kept the tenants within
/// one tranche of each other and inside the per-round quantum, and no
/// tenant has executed more than 1.5x the steps of another (measured:
/// 1.10 at worst, 1.001 when the first job finishes).
#[test]
fn equal_budgets_share_the_engine_within_the_documented_spread() {
    const WALKS: u64 = 320;
    const LENGTH: u32 = 16;
    // Many partitions and one engine iteration per pump, so walkers stay
    // in flight across rounds and tenants can drift apart.
    let g = Arc::new(
        rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            ..Default::default()
        })
        .csr,
    );
    let mut cfg = config();
    cfg.pump_iterations = 1;
    let tranche = cfg.tranche_walkers as u64;
    cfg.default_budget = 2 * WALKS * (u64::from(LENGTH) + 1);
    let mut sched = Scheduler::new(g, cfg).unwrap();
    let ids: Vec<_> = (0..4u64)
        .map(|t| {
            let spec = JobSpec::deepwalk(WALKS, LENGTH, 40 + t);
            sched.submit(&format!("tenant-{t}"), spec).unwrap().0
        })
        .collect();
    let spread = |of: &dyn Fn(&lt_server::JobInfo) -> u64, sched: &Scheduler| {
        let v: Vec<u64> = ids.iter().map(|&id| of(&sched.info(id).unwrap())).collect();
        (*v.iter().max().unwrap(), *v.iter().min().unwrap())
    };
    let (mut live_rounds, mut worst) = (0, 1.0f64);
    while ids
        .iter()
        .all(|&id| sched.status(id) != Some(JobStatus::Done))
    {
        sched.pump().unwrap();
        live_rounds += 1;
        let (most, fewest) = spread(&|i| i.injected, &sched);
        assert!(
            most - fewest <= tranche && most <= live_rounds * tranche,
            "round {live_rounds}: admitted walkers {fewest}..{most} break the tranche quantum"
        );
        let (most, fewest) = spread(&|i| i.steps, &sched);
        worst = worst.max(most as f64 / fewest.max(1) as f64);
    }
    assert!(
        live_rounds >= WALKS / tranche,
        "jobs finished in {live_rounds} rounds: not several tranches long"
    );
    // `worst` ends on the boundary where the first job reported `Done`.
    assert!(worst <= 1.5, "per-tenant step spread reached {worst:.3}");
    sched.run_until_idle().unwrap();
    for &id in &ids {
        assert_eq!(sched.status(id), Some(JobStatus::Done));
        assert_eq!(
            sched.result(id).unwrap().steps,
            WALKS * u64::from(LENGTH),
            "which is why the spread of finished jobs says nothing"
        );
    }
}

/// The bounded stream delivers incremental progress that sums to the
/// final result, ending with the Done event.
#[test]
fn stream_delivers_incremental_progress_then_done() {
    let mut sched = Scheduler::new(graph(), config()).unwrap();
    let (id, rx) = sched.submit("t", JobSpec::deepwalk(80, 8, 2)).unwrap();
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(id), Some(JobStatus::Done));

    let events: Vec<JobEvent> = rx.iter().collect(); // sender dropped at Done
    let (mut steps, mut finished, mut visits) = (0u64, 0u64, Vec::new());
    let mut done = None;
    for ev in &events {
        match ev {
            JobEvent::Progress {
                steps: s,
                finished: f,
                visits: v,
                ..
            } => {
                steps += s;
                finished += f;
                visits.extend_from_slice(v);
            }
            JobEvent::Done { result } => done = Some(result.clone()),
            other => panic!("unexpected event {other:?}"),
        }
    }
    let done = done.expect("stream ends with Done");
    assert!(events.len() > 1, "progress arrives incrementally");
    assert_eq!(steps, done.steps);
    assert_eq!(finished, done.finished);
    visits.sort_unstable();
    assert_eq!(
        visits, done.visits,
        "streamed visits sum to the final result"
    );
    assert_eq!(sched.result(id).unwrap(), &done);
}

/// Suspend extracts a checkpoint mid-run; resume continues to the exact
/// uninterrupted result.
#[test]
fn suspend_resume_round_trips_through_a_checkpoint() {
    let mut iso = Scheduler::new(graph(), config()).unwrap();
    let (iso_id, _) = iso.submit("t", JobSpec::deepwalk(90, 8, 7)).unwrap();
    iso.run_until_idle().unwrap();
    let want = iso.result(iso_id).unwrap().clone();

    let mut sched = Scheduler::new(graph(), config()).unwrap();
    let (id, _rx) = sched.submit("t", JobSpec::deepwalk(90, 8, 7)).unwrap();
    for _ in 0..3 {
        sched.pump().unwrap();
    }
    let cp = sched.suspend(id).expect("live job suspends");
    assert!(matches!(sched.status(id), Some(JobStatus::Blocked { .. })));
    // Suspended: pumping makes no progress for this job.
    let suspended_steps = sched.result(id).unwrap().steps;
    sched.run_until_idle().unwrap();
    assert_eq!(sched.result(id).unwrap().steps, suspended_steps);

    sched.resume(id, cp).unwrap();
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(id), Some(JobStatus::Done));
    assert_eq!(sched.result(id).unwrap(), &want);
}

/// `resume` takes a checkpoint only into a suspended job. Resumed into a
/// budget, the job parks on exhaustion again, and that parking is not a
/// suspension: a second `resume` with the stale checkpoint is refused
/// instead of re-admitting its walkers a second time, and a top-up then
/// finishes the job with the unbudgeted result.
#[test]
fn resume_refuses_a_job_parked_on_its_budget() {
    let mut free = Scheduler::new(graph(), config()).unwrap();
    let (free_id, _) = free.submit("t", JobSpec::deepwalk(100, 8, 5)).unwrap();
    free.run_until_idle().unwrap();
    let want = free.result(free_id).unwrap().clone();

    let mut cfg = config();
    cfg.default_budget = 400;
    let mut sched = Scheduler::new(graph(), cfg).unwrap();
    let (id, _rx) = sched.submit("t", JobSpec::deepwalk(100, 8, 5)).unwrap();
    sched.pump().unwrap();
    let cp = sched.suspend(id).expect("live job suspends");
    assert!(!cp.walkers.is_empty(), "one pump leaves walkers in flight");
    sched.resume(id, cp.clone()).unwrap();
    sched.run_until_idle().unwrap();
    match sched.status(id).unwrap() {
        JobStatus::Blocked { reason } => assert!(reason.contains("budget"), "reason: {reason}"),
        other => panic!("expected a budget park, got {other:?}"),
    }

    assert!(matches!(
        sched.resume(id, cp),
        Err(EngineError::Admission(_))
    ));
    let info = sched.info(id).unwrap();
    assert!(info.finished <= info.injected && info.injected <= 100);

    sched.top_up("t", 1_000);
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(id), Some(JobStatus::Done));
    assert_eq!(sched.result(id).unwrap(), &want, "no walker ran twice");
}

/// A checkpoint with a walker outside this graph (one taken on a larger
/// graph, say) is refused at `resume`, before the walker can reach the
/// engine and panic the pump; the job stays suspended and other jobs run
/// on.
#[test]
fn resume_refuses_walkers_outside_the_graph() {
    let mut sched = Scheduler::new(graph(), config()).unwrap();
    let (id, _rx) = sched.submit("t", JobSpec::deepwalk(90, 8, 7)).unwrap();
    let (other, _) = sched.submit("t", JobSpec::deepwalk(90, 8, 8)).unwrap();
    sched.pump().unwrap();
    let mut cp = sched.suspend(id).expect("live job suspends");
    assert!(!cp.walkers.is_empty(), "one pump leaves walkers in flight");
    cp.walkers[0].vertex = graph().num_vertices() as u32;
    assert!(matches!(
        sched.resume(id, cp),
        Err(EngineError::Admission(_))
    ));
    assert!(matches!(sched.status(id), Some(JobStatus::Blocked { .. })));
    sched.pump().unwrap();
    sched.run_until_idle().unwrap();
    assert_eq!(sched.status(other), Some(JobStatus::Done));
}

/// Cancellation evicts promptly and leaves partial results readable.
#[test]
fn cancel_evicts_and_keeps_partial_results() {
    let mut sched = Scheduler::new(graph(), config()).unwrap();
    let (id, rx) = sched.submit("t", JobSpec::deepwalk(100, 10, 1)).unwrap();
    for _ in 0..4 {
        sched.pump().unwrap();
    }
    assert!(sched.cancel(id));
    assert_eq!(sched.status(id), Some(JobStatus::Evicted));
    assert!(sched.cancel(id), "cancel is idempotent");
    sched.run_until_idle().unwrap();
    let events: Vec<JobEvent> = rx.iter().collect();
    assert_eq!(events.last(), Some(&JobEvent::Evicted));
    // Per-tag accounting stays sane after eviction.
    let info = sched.info(id).unwrap();
    assert!(info.steps >= sched.result(id).unwrap().steps);
}

/// Admission control: the job table rejects (never corrupts) past its
/// capacity.
#[test]
fn job_table_capacity_is_enforced() {
    let mut cfg = config();
    cfg.max_jobs = 2;
    let mut sched = Scheduler::new(graph(), cfg).unwrap();
    sched.submit("t", JobSpec::deepwalk(5, 4, 1)).unwrap();
    sched.submit("t", JobSpec::deepwalk(5, 4, 2)).unwrap();
    let err = sched.submit("t", JobSpec::deepwalk(5, 4, 3)).unwrap_err();
    assert!(err.to_string().contains("full"), "got: {err}");
    sched.run_until_idle().unwrap();
}

/// A seed vertex outside the graph is refused at `submit`, before it can
/// reach a pump, where the partition lookup would panic the scheduler
/// thread and take every tenant down with it.
#[test]
fn out_of_range_seeds_are_refused_at_submit() {
    let g = graph();
    let nv = g.num_vertices() as u32;
    let mut sched = Scheduler::new(g, config()).unwrap();
    let seeded = |seeds| JobSpec {
        start: JobStart::Seeds(seeds),
        ..JobSpec::deepwalk(0, 4, 1)
    };
    let err = sched.submit("t", seeded(vec![0, nv])).unwrap_err();
    assert!(matches!(err, EngineError::Admission(_)), "got: {err}");
    let (id, _rx) = sched.submit("t", seeded(vec![0, nv - 1])).unwrap();
    sched.run_until_idle().unwrap();
    assert_eq!(sched.result(id).unwrap().finished, 2);
}

fn send_req(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Value) -> Value {
    writeln!(writer, "{req}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(&line).unwrap()
}

/// End-to-end over TCP: submit, poll status, stream, fetch the result,
/// scrape metrics — all over line-delimited JSON.
#[test]
fn tcp_frontend_serves_submit_status_stream_result_metrics() {
    let server = Server::start(graph(), config()).unwrap();
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").unwrap();
    let addr = front.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({
            "op": "submit", "tenant": "acme", "algorithm": "deepwalk",
            "walks": 50, "max_length": 6, "seed": 12,
        }),
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    let job = r.get("job").and_then(Value::as_u64).unwrap();

    // Poll status until done (bounded).
    let mut status = String::new();
    for _ in 0..500 {
        let r = send_req(
            &mut writer,
            &mut reader,
            &serde_json::json!({"op": "status", "job": job}),
        );
        status = r.get("status").and_then(Value::as_str).unwrap().to_string();
        if status == "done" {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(status, "done");

    // Stream the retained events on a second connection.
    let stream2 = TcpStream::connect(addr).unwrap();
    let mut w2 = stream2.try_clone().unwrap();
    let mut r2 = BufReader::new(stream2);
    writeln!(w2, "{}", serde_json::json!({"op": "stream", "job": job})).unwrap();
    w2.flush().unwrap();
    let mut saw_done = false;
    loop {
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        let v: Value = serde_json::from_str(&line).unwrap();
        if v.get("event").and_then(Value::as_str) == Some("done") {
            saw_done = true;
            assert_eq!(v.get("finished").and_then(Value::as_u64), Some(50));
        }
        if v.get("end").is_some() {
            break;
        }
    }
    assert!(saw_done, "stream must end with the done event");

    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "result", "job": job}),
    );
    assert_eq!(r.get("finished").and_then(Value::as_u64), Some(50));
    let steps = r.get("steps").and_then(Value::as_u64).unwrap();
    assert_eq!(
        r.get("visits")
            .and_then(Value::as_array)
            .map(|v| v.len() as u64),
        Some(steps),
        "one visit per executed step"
    );

    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "metrics"}),
    );
    let text = r.get("prometheus").and_then(Value::as_str).unwrap();
    assert!(
        text.contains("lt_server_jobs_submitted_total"),
        "metrics export the serving counters: {text}"
    );

    // Budget ops round-trip.
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "topup", "tenant": "acme", "tokens": 10}),
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "budget", "tenant": "acme"}),
    );
    assert!(r.get("spent").and_then(Value::as_u64).unwrap() > 0);

    front.shutdown();
    server.shutdown();
}

/// A TCP client on `addr` whose reads give up instead of hanging a broken
/// server.
fn connect(addr: std::net::SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (stream.try_clone().unwrap(), BufReader::new(stream))
}

/// Over the wire, a seed outside the graph — also one that only fits a
/// `u64`, which must not wrap to vertex 0 — is answered `ok:false`, and
/// the same connection's next `submit` is served to completion.
#[test]
fn tcp_submit_with_out_of_range_seeds_is_refused() {
    let g = graph();
    let nv = g.num_vertices();
    let server = Server::start(g, config()).unwrap();
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(front.local_addr());
    let submit = |seeds: Value| json!({"op": "submit", "seeds": seeds, "max_length": 4});
    let past_u32 = u64::from(u32::MAX) + 1;
    for seeds in [json!([0, nv]), json!([0, past_u32])] {
        let r = send_req(&mut writer, &mut reader, &submit(seeds));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
    }
    let r = send_req(&mut writer, &mut reader, &submit(json!([0, nv - 1])));
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    let job = r.get("job").and_then(Value::as_u64).unwrap();
    let status = (0..500)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let r = send_req(
                &mut writer,
                &mut reader,
                &json!({"op": "status", "job": job}),
            );
            r.get("status").and_then(Value::as_str).unwrap().to_string()
        })
        .find(|s| s == "done");
    assert_eq!(status.as_deref(), Some("done"));
    front.shutdown();
    server.shutdown();
}

/// node2vec parameters a walk could never finish under — `p = 0` makes
/// every mid-walk step propose forever — are answered `ok:false` over the
/// wire, and the same connection's next node2vec `submit` runs to `done`.
#[test]
fn node2vec_parameters_out_of_range_are_refused_at_submit() {
    let server = Server::start(graph(), config()).unwrap();
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(front.local_addr());
    let submit = |p: f64, q: f64| {
        json!({"op": "submit", "algorithm": "node2vec", "p": p, "q": q,
               "walks": 40, "max_length": 6})
    };
    for (p, q) in [
        (0.0, 1.0),
        (-1.0, 1.0),
        (1.0, 0.0),
        (1.0, 1e300),
        (1e-300, 1.0),
    ] {
        let r = send_req(&mut writer, &mut reader, &submit(p, q));
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
    }
    let r = send_req(&mut writer, &mut reader, &submit(0.5, 2.0));
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    let job = r.get("job").and_then(Value::as_u64).unwrap();
    let status = (0..500)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let r = send_req(
                &mut writer,
                &mut reader,
                &json!({"op": "status", "job": job}),
            );
            r.get("status").and_then(Value::as_str).unwrap().to_string()
        })
        .find(|s| s == "done");
    assert_eq!(status.as_deref(), Some("done"));
    front.shutdown();
    server.shutdown();
}

/// A request line past the cap is answered with an error and the
/// connection is closed, without the server waiting for a newline.
#[test]
fn tcp_oversized_request_line_is_refused_and_closed() {
    let server = Server::start(graph(), config()).unwrap();
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").unwrap();
    let (mut writer, mut reader) = connect(front.local_addr());
    writer
        .write_all(&vec![b'x'; MAX_REQUEST_LINE_BYTES + 1])
        .unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let r: Value = serde_json::from_str(&line).unwrap();
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
    assert!(r["error"].as_str().unwrap().contains("exceeds"), "{r}");
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).unwrap(),
        0,
        "the connection was not closed"
    );
    front.shutdown();
    server.shutdown();
}
