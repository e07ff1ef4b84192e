//! `serve_tcp`, child side: a `Server` with its `TcpFrontend` on
//! 127.0.0.1 and a closed loop of two client connections, each
//! submitting one DeepWalk job after another (`submit` → `stream` →
//! `done`) until the measuring time is up.
//!
//! The traced pass adds the probes that split a job's latency into
//! layers: the same jobs on a bare `Scheduler` (pump and submit cost),
//! the same closed loop through `ServerHandle` (everything but sockets),
//! and the `metrics` op.

use crate::inputs::{partition_bytes, SERVE_FILE};
use crate::result::{Check, WorkloadResult};
use crate::scan::{field, field_u64, scan_fields};
use crate::spec::{
    Sizes, GRAPH_POOL_BLOCKS, SERVE_CHECK_EVERY, SERVE_CLIENTS, SETUP_BUDGET_S, SETUP_MAX_REPS,
    SETUP_MIN_REPS,
};
use crate::stats::{latency_summary, median, median_setup, peak_rss_mb, percentile, ratio, sorted};
use crate::trace::{Span, Tracer};
use crate::ChildCtx;
use lt_engine::{EngineConfig, JobSpec, JobStatus};
use lt_graph::io::read_binary;
use lt_graph::Csr;
use lt_server::{JobEvent, Scheduler, Server, ServerConfig, ServerHandle, TcpFrontend};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job slots per measured second the `JobTable` is sized for (slots are
/// never recycled, so the table bounds the jobs of a server's lifetime).
const JOB_SLOTS_PER_SECOND: f64 = 200.0;
/// Jobs replayed on the bare scheduler by the traced pass.
const REPLAY_JOBS: usize = 100;

fn server_config(seed: u64, graph: &Csr, max_jobs: usize) -> ServerConfig {
    let pbytes = partition_bytes(graph.num_vertices(), graph.num_edges());
    let mut cfg = ServerConfig::new(EngineConfig {
        seed,
        ..EngineConfig::light_traffic(pbytes, GRAPH_POOL_BLOCKS)
    });
    cfg.max_jobs = max_jobs;
    cfg
}

fn job_seed(seed: u64, client: usize, index: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((client * 1_000_000 + index) as u64)
}

struct Service {
    /// `read_binary` wall of this set-up.
    load_s: f64,
    graph: Arc<Csr>,
    cfg: ServerConfig,
    server: Server,
    front: TcpFrontend,
}

fn setup(ctx: &ChildCtx, max_jobs: usize) -> Result<Service, String> {
    let t = Instant::now();
    let graph = Arc::new(read_binary(ctx.dir.join(SERVE_FILE)).map_err(|e| e.to_string())?);
    let load_s = t.elapsed().as_secs_f64();
    let cfg = server_config(ctx.seed, &graph, max_jobs);
    let server = Server::start(graph.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    let front = TcpFrontend::bind(server.handle(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok(Service {
        load_s,
        graph,
        cfg,
        server,
        front,
    })
}

/// One job as the client saw it.
struct JobSample {
    seed: u64,
    ok: bool,
    latency_ms: f64,
    submit_rtt_us: f64,
    wire_bytes: u64,
    /// The raw `done` line, kept for the jobs that get the isolation check.
    done_line: Option<String>,
}

/// One JSONL connection.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
    bytes: u64,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        // A server that stops answering must fail the run, not hang it.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader =
            BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
            bytes: 0,
        })
    }

    fn send(&mut self, request: &str) -> Result<(), String> {
        self.bytes += request.len() as u64 + 1;
        self.writer
            .write_all(request.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        self.bytes += n as u64;
        Ok(self.line.trim_end())
    }
}

/// Submit one job and stream it to completion.
fn run_job(
    conn: &mut Conn,
    tracer: &mut Tracer,
    tenant: &str,
    sizes: Sizes,
    seed: u64,
    keep: bool,
) -> Result<JobSample, String> {
    let bytes_before = conn.bytes;
    let want_steps = sizes.job_walks * sizes.job_length as u64;
    let t0 = Instant::now();
    tracer.enter("client.job");
    tracer.enter("wire.submit");
    conn.send(&format!(
        "{{\"op\":\"submit\",\"tenant\":\"{tenant}\",\"algorithm\":\"deepwalk\",\"walks\":{},\"max_length\":{},\"seed\":{seed}}}",
        sizes.job_walks, sizes.job_length
    ))?;
    let reply = conn.recv()?;
    let job = field_u64(reply, "job");
    tracer.exit();
    let submit_rtt_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut sample = JobSample {
        seed,
        ok: false,
        latency_ms: 0.0,
        submit_rtt_us,
        wire_bytes: 0,
        done_line: None,
    };
    if let Some(job) = job {
        tracer.enter("wire.stream");
        conn.send(&format!("{{\"op\":\"stream\",\"job\":{job}}}"))?;
        loop {
            let line = conn.recv()?;
            // Keys arrive sorted, so `event` is first and the scan stops
            // before the visit array unless this is the `done` line.
            let (mut event, mut steps, mut finished) = (None, None, None);
            scan_fields(line, |k, v| {
                match k {
                    "event" => event = Some(v),
                    "finished" => finished = v.parse::<u64>().ok(),
                    "steps" => steps = v.parse::<u64>().ok(),
                    _ => {}
                }
                event == Some("\"done\"") && steps.is_none()
            })
            .ok_or("malformed event line")?;
            match event {
                Some("\"done\"") => {
                    sample.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
                    sample.ok = finished == Some(sizes.job_walks) && steps == Some(want_steps);
                    if keep {
                        sample.done_line = Some(line.to_string());
                    }
                }
                Some(_) => {}
                // `{"end":true,"ok":true}` closes the stream; an error
                // reply (`ok:false`) closes it without a `done`.
                None => break,
            }
        }
        tracer.exit();
    }
    tracer.exit();
    sample.wire_bytes = conn.bytes - bytes_before;
    Ok(sample)
}

/// What one tenant's loop produced: its jobs and its spans.
type ClientOutcome = Result<(Vec<JobSample>, Vec<Span>), String>;

/// One closed-loop tenant: jobs back to back until `deadline`, and past
/// it until the latency sample is large enough for its tail.
fn client(
    addr: SocketAddr,
    index: usize,
    deadline: Instant,
    max_jobs: usize,
    ctx: &ChildCtx,
) -> ClientOutcome {
    let mut conn = Conn::open(addr)?;
    let mut tracer = Tracer::new(ctx.traced);
    let tenant = format!("tenant-{index}");
    let mut samples = Vec::new();
    while (Instant::now() < deadline || samples.len() < ctx.sizes.min_jobs_per_client)
        && samples.len() < max_jobs
    {
        let i = samples.len();
        let keep = i % SERVE_CHECK_EVERY == 0;
        samples.push(run_job(
            &mut conn,
            &mut tracer,
            &tenant,
            ctx.sizes,
            job_seed(ctx.seed, index, i),
            keep,
        )?);
    }
    Ok((samples, tracer.into_spans()))
}

/// The same `JobSpec` alone on a fresh scheduler must give the same
/// result, digit for digit.
fn isolation_check(svc: &Service, sizes: Sizes, sample: &JobSample) -> Result<(), String> {
    let line = sample
        .done_line
        .as_deref()
        .ok_or("job never reported done")?;
    let served: serde_json::Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
    let mut cfg = svc.cfg.clone();
    cfg.max_jobs = 1;
    let mut alone = Scheduler::new(svc.graph.clone(), cfg).map_err(|e| e.to_string())?;
    let spec = JobSpec::deepwalk(sizes.job_walks, sizes.job_length, sample.seed);
    let (id, _events) = alone.submit("alone", spec).map_err(|e| e.to_string())?;
    alone.run_until_idle().map_err(|e| e.to_string())?;
    let want = alone.result(id).ok_or("isolated job has no result")?;
    let numbers = |key: &str| -> Vec<u64> {
        served[key]
            .as_array()
            .map(|a| a.iter().filter_map(serde_json::Value::as_u64).collect())
            .unwrap_or_default()
    };
    let same = served["steps"].as_u64() == Some(want.steps)
        && served["finished"].as_u64() == Some(want.finished)
        && numbers("visits") == want.visits.iter().map(|&v| v as u64).collect::<Vec<_>>()
        && numbers("lengths") == want.lengths.iter().map(|&v| v as u64).collect::<Vec<_>>();
    if same {
        Ok(())
    } else {
        Err(format!(
            "job seed {} differs from its isolated run",
            sample.seed
        ))
    }
}

/// The first jobs again on a bare `Scheduler`, two in flight as on the
/// wire, timing every `submit` and every `pump`.
struct Replay {
    pumps: u64,
    pump_ms: Vec<f64>,
    submit_us: Vec<f64>,
    steps_per_s: f64,
}

fn replay_on_scheduler(svc: &Service, sizes: Sizes, seeds: &[u64]) -> Result<Replay, String> {
    let mut cfg = svc.cfg.clone();
    cfg.max_jobs = seeds.len() + 8;
    let mut sched = Scheduler::new(svc.graph.clone(), cfg).map_err(|e| e.to_string())?;
    let (mut pump_ms, mut submit_us) = (Vec::new(), Vec::new());
    let mut in_flight = Vec::new();
    let (mut next, mut steps, mut pump_s) = (0usize, 0u64, 0.0f64);
    while next < seeds.len() || !in_flight.is_empty() {
        while in_flight.len() < SERVE_CLIENTS && next < seeds.len() {
            let spec = JobSpec::deepwalk(sizes.job_walks, sizes.job_length, seeds[next]);
            let t = Instant::now();
            // Dropping the receiver is the "consumer gone" path: results
            // stay queryable, events are discarded.
            let (id, _) = sched
                .submit(&format!("tenant-{}", next % SERVE_CLIENTS), spec)
                .map_err(|e| e.to_string())?;
            submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            in_flight.push(id);
            next += 1;
        }
        let t = Instant::now();
        sched.pump().map_err(|e| e.to_string())?;
        let dt = t.elapsed().as_secs_f64();
        pump_ms.push(dt * 1e3);
        pump_s += dt;
        in_flight.retain(|&id| {
            let done = sched.status(id) == Some(JobStatus::Done);
            if done {
                steps += sched.result(id).map_or(0, |r| r.steps);
            }
            !done
        });
    }
    Ok(Replay {
        pumps: sched.pumps(),
        pump_ms: sorted(pump_ms),
        submit_us: sorted(submit_us),
        steps_per_s: steps as f64 / pump_s,
    })
}

/// The closed loop again, through `ServerHandle` instead of sockets.
fn handle_jobs_per_s(svc: &Service, ctx: &ChildCtx, seconds: f64) -> Result<f64, String> {
    let per_client = client_job_cap(seconds, ctx.sizes);
    let mut cfg = svc.cfg.clone();
    cfg.max_jobs = job_slots(per_client);
    let server = Server::start(svc.graph.clone(), cfg).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let jobs: usize = std::thread::scope(|s| {
        let workers: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| {
                let handle: ServerHandle = server.handle();
                s.spawn(move || -> Result<usize, String> {
                    let mut done = 0usize;
                    while Instant::now() < deadline && done < per_client {
                        let seed = job_seed(ctx.seed ^ 0x5EED, c, done);
                        let spec =
                            JobSpec::deepwalk(ctx.sizes.job_walks, ctx.sizes.job_length, seed);
                        let (_, events) = handle
                            .submit(&format!("tenant-{c}"), spec)
                            .map_err(|e| e.to_string())?;
                        if !events.iter().any(|ev| matches!(ev, JobEvent::Done { .. })) {
                            return Err("in-process job ended without done".into());
                        }
                        done += 1;
                    }
                    Ok(done)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("in-process client panicked"))
            .sum::<Result<usize, String>>()
    })?;
    let rate = jobs as f64 / t0.elapsed().as_secs_f64();
    server.shutdown();
    Ok(rate)
}

/// Most jobs one tenant may submit in a window of `seconds`.
fn client_job_cap(seconds: f64, sizes: Sizes) -> usize {
    (seconds * JOB_SLOTS_PER_SECOND) as usize / SERVE_CLIENTS + sizes.min_jobs_per_client
}

/// `JobTable` slots for that many jobs per tenant, plus slack.
fn job_slots(per_client: usize) -> usize {
    SERVE_CLIENTS * per_client + 8
}

fn gpu_counter(handle: &ServerHandle, name: &str, labels: &[(&str, &str)]) -> f64 {
    handle.registry().counter(name, "", labels).get() as f64
}

pub fn run(ctx: &ChildCtx) -> Result<(WorkloadResult, Vec<Span>), String> {
    let mut out = WorkloadResult {
        workload: ctx.workload.name.to_string(),
        traced: ctx.traced,
        ..Default::default()
    };
    let per_client = client_job_cap(ctx.seconds, ctx.sizes);
    let max_jobs = job_slots(per_client);

    // --- set-up, several times: the median is `setup_s` ------------------
    let (svc, setup_s) = median_setup(SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S, || {
        setup(ctx, max_jobs)
    })?;
    let addr = svc.front.local_addr();
    let handle = svc.server.handle();

    // --- measured closed loop --------------------------------------------
    let t_run = Instant::now();
    let deadline = t_run + Duration::from_secs_f64(ctx.seconds);
    let results: Vec<ClientOutcome> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..SERVE_CLIENTS)
            .map(|c| s.spawn(move || client(addr, c, deadline, per_client, ctx)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = t_run.elapsed().as_secs_f64();
    let rss = peak_rss_mb().unwrap_or(0.0);

    let mut samples: Vec<JobSample> = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    for r in results {
        let (s, sp) = r?;
        samples.extend(s);
        let base = spans.len() as u64;
        spans.extend(sp.into_iter().map(|mut x| {
            x.id += base;
            x.parent = x.parent.map(|p| p + base);
            x
        }));
    }

    // --- end-to-end -------------------------------------------------------
    let job_steps = ctx.sizes.job_walks * ctx.sizes.job_length as u64;
    let ok_jobs = samples.iter().filter(|s| s.ok).count();
    let latencies = sorted(
        samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.latency_ms)
            .collect(),
    );
    out.rounds = ok_jobs as u64;
    out.run_wall_s = wall_s;
    out.attempted = samples.len() as u64;
    out.failed = (samples.len() - ok_jobs) as u64;
    let (p50_ms, tail_p, tail_ms) = latency_summary(&latencies);
    out.tail_percentile = tail_p;

    // One `metrics` op refreshes the registry's device counters; the
    // traced pass times a few more of them.
    let mut ops = Conn::open(addr)?;
    let mut metrics_ms = Vec::new();
    for _ in 0..if ctx.traced { 5 } else { 1 } {
        let t = Instant::now();
        ops.send("{\"op\":\"metrics\"}")?;
        let reply = ops.recv()?;
        metrics_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if field(reply, "ok") != Some("true") {
            return Err("metrics op refused".into());
        }
    }
    drop(ops);
    let makespan = gpu_counter(&handle, "lt_gpu_makespan_ns", &[]);
    let cat_bytes = |c: &str| gpu_counter(&handle, "lt_gpu_bytes_total", &[("category", c)]);
    let link_bytes = cat_bytes("graph_load")
        + cat_bytes("walk_load")
        + cat_bytes("zero_copy")
        + cat_bytes("walk_evict")
        + cat_bytes("graph_reload");
    let total_steps = (ok_jobs as u64 * job_steps) as f64;

    let e = &mut out.end_to_end;
    e.insert("setup_s".into(), setup_s);
    e.insert("steps_per_s".into(), total_steps / wall_s);
    e.insert("sim_steps_per_s".into(), ratio(total_steps, makespan / 1e9));
    e.insert("link_bytes_per_step".into(), ratio(link_bytes, total_steps));
    e.insert("peak_rss_mb".into(), rss);
    e.insert("jobs_per_s".into(), ok_jobs as f64 / wall_s);
    e.insert("job_p50_ms".into(), p50_ms);
    e.insert("job_p95_ms".into(), tail_ms);
    e.insert(
        "failed_frac".into(),
        ratio(out.failed as f64, out.attempted as f64),
    );

    // --- checks -----------------------------------------------------------
    out.checks.push(Check::new(
        "jobs_done",
        ok_jobs == samples.len() && ok_jobs > 0,
        format!(
            "{ok_jobs} of {} jobs done with finished = walks and steps = walks x length",
            samples.len()
        ),
    ));
    let checked: Vec<&JobSample> = samples.iter().filter(|s| s.done_line.is_some()).collect();
    let broken: Vec<String> = checked
        .iter()
        .filter_map(|s| isolation_check(&svc, ctx.sizes, s).err())
        .collect();
    out.checks.push(Check::new(
        "served_equals_isolated",
        broken.is_empty() && !checked.is_empty(),
        if broken.is_empty() {
            format!("{} served jobs equal their isolated runs", checked.len())
        } else {
            broken.join("; ")
        },
    ));

    if ctx.traced {
        let mut p: BTreeMap<String, f64> = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            p.insert(k.to_string(), v);
        };
        put("run.wall_s", wall_s);
        put("run.rounds", ok_jobs as f64);
        put("graph.read_binary_s", svc.load_s);

        let busy = |e: &str| gpu_counter(&handle, "lt_gpu_engine_busy_ns_total", &[("engine", e)]);
        let sim_ops: f64 = lt_gpusim::Category::ALL
            .iter()
            .map(|c| gpu_counter(&handle, "lt_gpu_ops_total", &[("category", c.label())]))
            .sum();
        put("gpusim.makespan_ns", makespan);
        put("gpusim.h2d_util", ratio(busy("h2d"), makespan));
        put("gpusim.d2h_util", ratio(busy("d2h"), makespan));
        put("gpusim.compute_util", ratio(busy("compute"), makespan));
        put("gpusim.graph_load_bytes", cat_bytes("graph_load"));
        put("gpusim.walk_load_bytes", cat_bytes("walk_load"));
        put("gpusim.walk_evict_bytes", cat_bytes("walk_evict"));
        put("gpusim.zero_copy_bytes", cat_bytes("zero_copy"));
        put("gpusim.graph_reload_bytes", cat_bytes("graph_reload"));
        put("gpusim.ops", sim_ops);
        put("gpusim.host_us_per_op", ratio(wall_s * 1e6, sim_ops));

        let rtts = sorted(samples.iter().map(|s| s.submit_rtt_us).collect());
        let wire_bytes: u64 = samples.iter().map(|s| s.wire_bytes).sum();
        put(
            "wire.bytes_per_job",
            ratio(wire_bytes as f64, samples.len() as f64),
        );
        put(
            "wire.submit_rtt_p50_us",
            percentile(&rtts, 50.0).unwrap_or(0.0),
        );
        put("wire.metrics_op_ms", median(&metrics_ms));

        let seeds: Vec<u64> = samples.iter().take(REPLAY_JOBS).map(|s| s.seed).collect();
        let replay = replay_on_scheduler(&svc, ctx.sizes, &seeds)?;
        put("server.pumps", replay.pumps as f64);
        let (pump_p50, _, pump_tail) = latency_summary(&replay.pump_ms);
        put("server.pump_p50_ms", pump_p50);
        put("server.pump_p95_ms", pump_tail);
        put(
            "server.submit_p50_us",
            percentile(&replay.submit_us, 50.0).unwrap_or(0.0),
        );
        put("server.sched_steps_per_s", replay.steps_per_s);
        let in_process = handle_jobs_per_s(&svc, ctx, (ctx.seconds / 3.0).max(0.5))?;
        put("server.handle_jobs_per_s", in_process);
        put(
            "wire.overhead_frac",
            1.0 - ratio(ok_jobs as f64 / wall_s, in_process),
        );
        out.per_layer = p;
    }

    Ok((out, spans))
}
