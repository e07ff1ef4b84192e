//! Evolving graphs through the serving layer (DESIGN.md §15): the
//! `mutate` command seals edge-update batches as graph epochs on the
//! shared engine, new jobs observe the sealed adjacency, suspended
//! jobs stay pinned to their checkpoint epoch, and the TCP/JSONL front
//! end exposes the whole path.

use lt_engine::{EdgeUpdate, EngineConfig, EngineError, JobSpec, JobStart, JobStatus};
use lt_graph::Csr;
use lt_server::{Scheduler, Server, ServerConfig, TcpFrontend};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// A directed cycle `0 -> 1 -> ... -> n-1 -> 0`: every vertex has one
/// out-edge, so deepwalk trajectories are forced and any behavioral
/// change is attributable to the mutation under test.
fn cycle(n: u32) -> Arc<Csr> {
    let offsets = (0..=n as u64).collect();
    let edges = (0..n).map(|v| (v + 1) % n).collect();
    Arc::new(Csr::new(offsets, edges, None).unwrap())
}

fn config() -> ServerConfig {
    let mut cfg = ServerConfig::new(EngineConfig::light_traffic(8 << 10, 4));
    cfg.tranche_walkers = 32;
    cfg.pump_iterations = 4;
    cfg
}

/// A deepwalk job forced to start at vertex 0.
fn seeded_job(max_length: u32, seed: u64) -> JobSpec {
    let mut spec = JobSpec::deepwalk(0, max_length, seed);
    spec.start = JobStart::Seeds(vec![0]);
    spec
}

/// Seals advance the epoch, summaries report what actually changed, and
/// jobs submitted after a seal walk the new adjacency: rewiring the
/// cycle's vertex 1 back to 0 traps a walk seeded at 0 inside {0, 1}.
#[test]
fn mutate_seals_epochs_and_new_jobs_walk_the_new_adjacency() {
    let mut sched = Scheduler::new(cycle(64), config()).unwrap();
    assert_eq!(sched.epoch(), 0);

    let (before, _) = sched.submit("t", seeded_job(6, 3)).unwrap();
    sched.run_until_idle().unwrap();
    let visits = sched.result(before).unwrap().visits.clone();
    assert!(
        visits.iter().any(|&v| v > 1),
        "the unmutated cycle must escape {{0, 1}}: {visits:?}"
    );

    let summary = sched
        .mutate(vec![
            EdgeUpdate::delete(1, 2),
            EdgeUpdate::insert(1, 0),
            EdgeUpdate::delete(40, 0), // absent edge: a no-op
        ])
        .unwrap();
    assert_eq!(summary.epoch, 1);
    assert_eq!(sched.epoch(), 1);
    assert_eq!(summary.inserted, 1);
    assert_eq!(summary.deleted, 1);
    assert_eq!(summary.dirty_vertices, 1);

    let (after, _) = sched.submit("t", seeded_job(6, 3)).unwrap();
    sched.run_until_idle().unwrap();
    let visits = sched.result(after).unwrap().visits.clone();
    assert!(
        visits.iter().all(|&v| v <= 1),
        "post-seal walks must be trapped in the rewired 2-cycle: {visits:?}"
    );

    // An empty seal still advances the epoch but changes nothing.
    let summary = sched.mutate(Vec::new()).unwrap();
    assert_eq!(
        (summary.epoch, summary.inserted, summary.deleted),
        (2, 0, 0)
    );
    assert_eq!(summary.reload_bytes, 0);
}

/// A suspended job's checkpoint is pinned to the epoch it was taken at:
/// sealing a mutation in between makes resume refuse with
/// `EpochMismatch` instead of silently replaying on a different graph.
#[test]
fn suspended_jobs_refuse_resume_across_a_seal() {
    let mut sched = Scheduler::new(cycle(64), config()).unwrap();
    let (id, _) = sched.submit("t", JobSpec::deepwalk(64, 32, 9)).unwrap();
    sched.pump().unwrap();
    let cp = sched.suspend(id).expect("job is live");
    assert_eq!(cp.epoch, 0);

    sched.mutate(vec![EdgeUpdate::insert(5, 9)]).unwrap();
    match sched.resume(id, cp.clone()) {
        Err(EngineError::EpochMismatch { checkpoint, engine }) => {
            assert_eq!((checkpoint, engine), (0, 1));
        }
        other => panic!("stale-epoch resume must fail with EpochMismatch, got {other:?}"),
    }

    // Un-mutating is not un-sealing: even an exact inverse batch leaves
    // the epoch advanced, and the checkpoint stays refused.
    sched.mutate(vec![EdgeUpdate::delete(5, 9)]).unwrap();
    assert!(matches!(
        sched.resume(id, cp),
        Err(EngineError::EpochMismatch { .. })
    ));
    assert!(matches!(sched.status(id), Some(JobStatus::Blocked { .. })));
}

fn send_req(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &Value) -> Value {
    writeln!(writer, "{req}").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    serde_json::from_str(&line).unwrap()
}

/// The `mutate` op over TCP/JSONL: a well-formed batch seals and reports
/// the epoch summary, malformed batches and out-of-range endpoints error
/// without advancing the epoch, and a job submitted afterwards walks the
/// mutated graph.
#[test]
fn tcp_mutate_seals_and_subsequent_submits_see_it() {
    let server = Server::start(cycle(64), config()).unwrap();
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(front.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // Malformed requests are rejected before reaching the scheduler.
    for bad in [
        serde_json::json!({"op": "mutate"}),
        serde_json::json!({"op": "mutate", "edges": [{"op": "upsert", "src": 1, "dst": 2}]}),
        serde_json::json!({"op": "mutate", "edges": [{"op": "insert", "src": 1}]}),
    ] {
        let r = send_req(&mut writer, &mut reader, &bad);
        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");
    }
    // A vertex outside the frozen set is refused by the engine.
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "mutate", "edges": [{"op": "insert", "src": 9999, "dst": 0}]}),
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(false), "{r}");

    // The real seal: rewire vertex 1 back to 0, with an explicit
    // timestamp and weight exercising the optional fields.
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "mutate", "edges": [
            {"op": "delete", "src": 1, "dst": 2},
            {"op": "insert", "src": 1, "dst": 0, "t": 7, "w": 2.5},
        ]}),
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    assert_eq!(r.get("epoch").and_then(Value::as_u64), Some(1), "{r}");
    assert_eq!(r.get("inserted").and_then(Value::as_u64), Some(1));
    assert_eq!(r.get("deleted").and_then(Value::as_u64), Some(1));
    assert_eq!(r.get("dirty_vertices").and_then(Value::as_u64), Some(1));

    // A post-seal job sees the rewired cycle: seeded at 0, its visits
    // never escape {0, 1}.
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({
            "op": "submit", "tenant": "acme", "seeds": [0], "max_length": 6, "seed": 3,
        }),
    );
    assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true), "{r}");
    let job = r.get("job").and_then(Value::as_u64).unwrap();
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
    let r = send_req(
        &mut writer,
        &mut reader,
        &serde_json::json!({"op": "result", "job": job}),
    );
    let visits = r.get("visits").and_then(Value::as_array).unwrap();
    assert!(!visits.is_empty());
    assert!(
        visits.iter().all(|v| v.as_u64().unwrap() <= 1),
        "post-seal walks must be trapped in the rewired 2-cycle: {visits:?}"
    );

    front.shutdown();
    server.shutdown();
}
