//! The serving front end: an owning scheduler thread, a cloneable
//! in-process handle, and a thread-per-connection TCP/JSONL listener.
//!
//! No async runtime: the scheduler runs on its own OS thread and talks
//! to front-end threads over plain `std::sync::mpsc` channels; each TCP
//! connection gets a dedicated thread (the connection count of a walk
//! service is small — tenants, not end users).
//!
//! # Wire protocol (JSONL)
//!
//! One JSON object per line, one reply line per request (except
//! `stream`, which emits one line per job event until the job ends):
//!
//! ```text
//! → {"op":"submit","tenant":"a","algorithm":"deepwalk","walks":100,"max_length":8,"seed":1}
//! ← {"ok":true,"job":0}
//! → {"op":"status","job":0}
//! ← {"ok":true,"job":0,"status":"running","steps":512,"finished":12,"total_walks":100}
//! → {"op":"stream","job":0}
//! ← {"event":"progress","steps":128,"finished":3,"visits":[…],"lengths":[…]}
//! ← {"event":"done","steps":800,"finished":100,"visits":[…],"lengths":[…]}
//! → {"op":"metrics"}
//! ← {"ok":true,"prometheus":"# HELP …"}
//! ```
//!
//! Other ops: `cancel {job}`, `topup {tenant,tokens}`, `budget
//! {tenant}`, `result {job}`. `submit` accepts `algorithm`
//! `"deepwalk"` or `"node2vec"` (with `p`/`q`, each default 1), `walks`
//! or explicit `seeds:[v,…]`, `max_length`, `seed`. A seed vertex outside
//! the graph, or a `p`/`q` outside `SecondOrderWalk::PARAM_RANGE`
//! (0.01–100), is refused with `ok:false`.
//!
//! A request line may be at most [`MAX_REQUEST_LINE_BYTES`] long; a
//! longer one is answered with `{"ok":false,"error":…}` and the connection
//! is closed.
//!
//! Evolving graphs (DESIGN.md §15): `mutate` seals an edge-update batch
//! as one graph epoch on the serving engine —
//!
//! ```text
//! → {"op":"mutate","edges":[{"op":"insert","src":1,"dst":2,"t":5},{"op":"delete","src":3,"dst":4}]}
//! ← {"ok":true,"epoch":1,"inserted":1,"deleted":1,"dirty_vertices":2,"dirty_partitions":1,"reloaded_partitions":1,"reload_bytes":4096}
//! ```
//!
//! Inserts take optional `t` (timestamp; defaults to the sealing epoch)
//! and `w` (weight; defaults to 1.0). The seal executes at an
//! inter-pump barrier, so running jobs observe the new adjacency
//! deterministically from their next step on.
//!
//! Progress, `done` and `result` lines carry a job's visits and are most
//! of the bytes served, so they are written straight from the result
//! vectors into one reused buffer per connection, with decimal integers
//! formatted by hand; every other reply goes through a `serde_json`
//! [`Value`]. Both render the same bytes: keys in sorted order, no
//! whitespace.

use crate::scheduler::{JobEvent, JobInfo, JobResult, Scheduler, ServerConfig};
use lt_engine::algorithm::SecondOrderWalk;
use lt_engine::{EdgeUpdate, EngineError, EpochSummary, JobId, JobSpec, JobStart};
use lt_graph::Csr;
use lt_telemetry::MetricRegistry;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// One request to the scheduler thread: the operation to run there,
/// given the engine error that stopped the pump, if one did.
type Request = Box<dyn FnOnce(&mut Scheduler, Option<&EngineError>) + Send>;

fn stopped() -> EngineError {
    EngineError::Admission("server stopped".into())
}

/// The refusal of work that needs the engine after a fatal engine error.
fn engine_failed(e: &EngineError) -> EngineError {
    EngineError::Admission(format!("engine failed: {e}"))
}

/// Cloneable client of a running [`Server`]: every method is a
/// synchronous request/reply exchange with the scheduler thread.
#[derive(Clone)]
pub struct ServerHandle {
    /// `None` stops the scheduler thread.
    tx: Sender<Option<Request>>,
    registry: Arc<MetricRegistry>,
}

impl ServerHandle {
    /// Run `op` on the scheduler thread, between pump rounds in request
    /// order, and wait for its answer.
    fn call<T: Send + 'static>(
        &self,
        op: impl FnOnce(&mut Scheduler, Option<&EngineError>) -> T + Send + 'static,
    ) -> Result<T, EngineError> {
        let (tx, rx) = sync_channel(1);
        let request: Request = Box::new(move |sched, fatal| {
            let _ = tx.send(op(sched, fatal));
        });
        self.tx.send(Some(request)).map_err(|_| stopped())?;
        rx.recv().map_err(|_| stopped())
    }

    /// Submit a job; returns its id and the receiving end of its event
    /// stream (see [`Scheduler::submit`]).
    pub fn submit(
        &self,
        tenant: &str,
        spec: JobSpec,
    ) -> Result<(JobId, Receiver<JobEvent>), EngineError> {
        let tenant = tenant.to_string();
        self.call(move |s, fatal| match fatal {
            Some(e) => Err(engine_failed(e)),
            None => s.submit(&tenant, spec),
        })?
    }

    /// A job's bookkeeping snapshot.
    pub fn info(&self, id: JobId) -> Result<Option<JobInfo>, EngineError> {
        self.call(move |s, _| s.info(id))
    }

    /// Cancel a job.
    pub fn cancel(&self, id: JobId) -> Result<bool, EngineError> {
        self.call(move |s, _| s.cancel(id))
    }

    /// Grant tokens to a tenant; parked jobs resume.
    pub fn top_up(&self, tenant: &str, tokens: u64) -> Result<(), EngineError> {
        let tenant = tenant.to_string();
        self.call(move |s, _| s.top_up(&tenant, tokens))
    }

    /// `(remaining, spent)` tokens of a tenant.
    pub fn budget(&self, tenant: &str) -> Result<Option<(u64, u64)>, EngineError> {
        let tenant = tenant.to_string();
        self.call(move |s, _| s.budget(&tenant).zip(s.spent(&tenant)))
    }

    /// A job's accumulated result (complete once done).
    pub fn result(&self, id: JobId) -> Result<Option<JobResult>, EngineError> {
        self.call(move |s, _| s.result(id).cloned())
    }

    /// The scheduler's traffic report with at most `top_k` hot
    /// partitions (`None` when attribution is disabled).
    pub fn traffic(
        &self,
        top_k: usize,
    ) -> Result<Option<lt_telemetry::TrafficReport>, EngineError> {
        self.call(move |s, _| {
            // A traffic read doubles as a scrape: refresh the registry's
            // attribution series so the Prometheus text rendered next to
            // this report shows the same, current totals.
            s.refresh_observability();
            s.traffic_report(top_k)
        })
    }

    /// A job's flight-record JSONL, built on demand (`None` for unknown
    /// jobs) — the same format the scheduler dumps on fault/eviction.
    pub fn flight_record(&self, id: JobId, reason: &str) -> Result<Option<String>, EngineError> {
        let reason = reason.to_string();
        self.call(move |s, _| s.flight_record(id, &reason))
    }

    /// Seal `updates` as one graph epoch on the serving engine (see
    /// [`Scheduler::mutate`]). The scheduler thread executes this at an
    /// inter-pump barrier, so jobs in flight observe the new adjacency
    /// deterministically from their next step on.
    pub fn mutate(&self, updates: Vec<EdgeUpdate>) -> Result<EpochSummary, EngineError> {
        self.call(move |s, fatal| match fatal {
            Some(e) => Err(engine_failed(e)),
            None => s.mutate(updates),
        })?
    }

    /// The metric registry the scheduler reports into — render with
    /// [`MetricRegistry::render_prometheus`] for the ops endpoint.
    pub fn registry(&self) -> Arc<MetricRegistry> {
        self.registry.clone()
    }
}

/// A running walk service: owns the scheduler thread. Obtain clients
/// with [`Server::handle`]; dropping the server shuts the thread down.
pub struct Server {
    handle: ServerHandle,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Spawn the scheduler thread over `graph`. Configuration errors
    /// surface here, on the calling thread.
    pub fn start(graph: Arc<Csr>, cfg: ServerConfig) -> Result<Server, EngineError> {
        let registry = Arc::new(MetricRegistry::new());
        let mut sched = Scheduler::with_registry(graph, cfg, registry.clone())?;
        let (tx, rx) = std::sync::mpsc::channel::<Option<Request>>();
        let thread = std::thread::Builder::new()
            .name("lt-server-scheduler".into())
            .spawn(move || serve_loop(&mut sched, &rx))
            .expect("the OS starts the one scheduler thread a server owns");
        Ok(Server {
            handle: ServerHandle { tx, registry },
            thread: Some(thread),
        })
    }

    /// A new client of this server.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Stop the scheduler thread (any in-flight work is abandoned; a
    /// graceful stop drains jobs first via [`Scheduler::run_until_idle`]
    /// semantics — pump until `submit`ted work completes, then drop).
    pub fn shutdown(mut self) {
        let _ = self.handle.tx.send(None);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.handle.tx.send(None);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The scheduler thread: interleave requests with pump rounds; park on
/// the channel when idle (with a short timeout so backlogged stream
/// events keep draining to slow consumers). A `None` message or a closed
/// channel stops it.
fn serve_loop(sched: &mut Scheduler, rx: &Receiver<Option<Request>>) {
    let mut fatal: Option<EngineError> = None;
    loop {
        // Run every queued request before the next pump round so request
        // order, not arrival timing, decides scheduling.
        loop {
            match rx.try_recv() {
                Ok(Some(request)) => request(sched, fatal.as_ref()),
                Ok(None) | Err(TryRecvError::Disconnected) => return,
                Err(TryRecvError::Empty) => break,
            }
        }
        if fatal.is_none() && sched.has_runnable_work() {
            if let Err(e) = sched.pump() {
                fatal = Some(e);
            }
            continue;
        }
        sched.flush_streams();
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok(Some(request)) => request(sched, fatal.as_ref()),
            Ok(None) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
    }
}

/// The TCP/JSONL listener: one OS thread per connection, no runtime.
pub struct TcpFrontend {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl TcpFrontend {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting
    /// connections that speak the module-level JSONL protocol against
    /// `handle`'s server.
    pub fn bind(handle: ServerHandle, addr: &str) -> std::io::Result<TcpFrontend> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let streams: Arc<Mutex<HashMap<u64, Receiver<JobEvent>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let thread = std::thread::Builder::new()
            .name("lt-server-accept".into())
            .spawn(move || {
                while !flag.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let h = handle.clone();
                            let s = streams.clone();
                            let _ = std::thread::Builder::new()
                                .name("lt-server-conn".into())
                                .spawn(move || {
                                    let _ = serve_connection(stream, &h, &s);
                                });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => break,
                    }
                }
            })?;
        Ok(TcpFrontend {
            addr: local,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting. Existing connections run until their client
    /// hangs up.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpFrontend {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Longest request line a connection may send, newline excluded. A longer
/// one is answered with an error and the connection is closed, so a client
/// cannot make the server buffer an unbounded line.
pub const MAX_REQUEST_LINE_BYTES: usize = 4 << 20;

fn serve_connection(
    stream: TcpStream,
    handle: &ServerHandle,
    streams: &Mutex<HashMap<u64, Receiver<JobEvent>>>,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    // Replies are single small writes answered by the client's next
    // request: Nagle would hold each one back for the peer's delayed ACK.
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    // Each reply line is built here and sent with one `write_all`:
    // writing tokens straight onto the socket would issue a write (a
    // syscall, and with `TCP_NODELAY` a segment) per token.
    let mut out = Vec::new();
    loop {
        buf.clear();
        out.clear();
        // One byte past the cap tells an oversized line from a full one.
        let limit = MAX_REQUEST_LINE_BYTES as u64 + 1;
        if (&mut reader).take(limit).read_until(b'\n', &mut buf)? == 0 {
            return Ok(());
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
        } else if buf.len() > MAX_REQUEST_LINE_BYTES {
            let msg = format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes");
            push_json(&mut out, &err_json(&msg));
            return writer.write_all(&out);
        }
        let line = std::str::from_utf8(&buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<Value>(line) {
            Ok(req) => dispatch(&req, handle, streams, &mut writer, &mut out)?,
            Err(e) => push_json(&mut out, &err_json(&format!("bad json: {e:?}"))),
        }
        writer.write_all(&out)?;
    }
}

/// Append `line` and its newline.
fn push_json(out: &mut Vec<u8>, line: &Value) {
    out.extend_from_slice(line.to_string().as_bytes());
    out.push(b'\n');
}

/// `"00"`, `"01"`, …, `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Append `n` in decimal.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while n >= 100 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        let pair = n as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[at..]);
}

/// Append `xs` as a JSON array.
fn push_u32s(out: &mut Vec<u8>, xs: &[u32]) {
    out.push(b'[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, x.into());
    }
    out.push(b']');
}

/// Append one line of a job's results: a stream event named `event`
/// (`progress` or `done`), or with `None` the `result` op's reply, which
/// carries `"ok":true` instead. Keys are in the sorted order a
/// [`Value`] object renders them in.
fn push_result_line(
    out: &mut Vec<u8>,
    event: Option<&str>,
    steps: u64,
    finished: u64,
    visits: &[u32],
    lengths: &[u32],
) {
    out.push(b'{');
    if let Some(event) = event {
        out.extend_from_slice(b"\"event\":\"");
        out.extend_from_slice(event.as_bytes());
        out.extend_from_slice(b"\",");
    }
    out.extend_from_slice(b"\"finished\":");
    push_u64(out, finished);
    out.extend_from_slice(b",\"lengths\":");
    push_u32s(out, lengths);
    if event.is_none() {
        out.extend_from_slice(b",\"ok\":true");
    }
    out.extend_from_slice(b",\"steps\":");
    push_u64(out, steps);
    out.extend_from_slice(b",\"visits\":");
    push_u32s(out, visits);
    out.extend_from_slice(b"}\n");
}

/// Append one stream line for `ev`.
fn push_event(out: &mut Vec<u8>, ev: &JobEvent) {
    match ev {
        JobEvent::Progress {
            steps,
            finished,
            visits,
            lengths,
        } => push_result_line(out, Some("progress"), *steps, *finished, visits, lengths),
        JobEvent::Done { result: r } => push_result_line(
            out,
            Some("done"),
            r.steps,
            r.finished,
            &r.visits,
            &r.lengths,
        ),
        JobEvent::Blocked { reason } => {
            push_json(out, &json!({"event": "blocked", "reason": reason}))
        }
        JobEvent::Evicted => push_json(out, &json!({"event": "evicted"})),
    }
}

fn err_json(msg: &str) -> Value {
    json!({"ok": false, "error": msg})
}

fn get_str(req: &Value, key: &str) -> Option<String> {
    req.get(key).and_then(Value::as_str).map(str::to_string)
}

fn get_u64(req: &Value, key: &str) -> Option<u64> {
    req.get(key).and_then(Value::as_u64)
}

/// Parse a `mutate` request's edge list. Each entry is
/// `{"op":"insert"|"delete","src":u32,"dst":u32}` with optional
/// `"t"` (timestamp) and `"w"` (weight) on inserts; both default to
/// the epoch-synchronized stamp / unit weight.
fn parse_updates(req: &Value) -> Result<Vec<EdgeUpdate>, String> {
    let edges = req
        .get("edges")
        .and_then(Value::as_array)
        .ok_or("need edges")?;
    edges
        .iter()
        .map(|e| {
            let src = get_u64(e, "src").ok_or("edge needs src")?;
            let dst = get_u64(e, "dst").ok_or("edge needs dst")?;
            let (src, dst) = (
                u32::try_from(src).map_err(|_| "src out of range")?,
                u32::try_from(dst).map_err(|_| "dst out of range")?,
            );
            match get_str(e, "op").as_deref() {
                Some("insert") => {
                    let mut u = match get_u64(e, "t") {
                        Some(t) => EdgeUpdate::insert_at(
                            src,
                            dst,
                            u32::try_from(t).map_err(|_| "t out of range")?,
                        ),
                        None => EdgeUpdate::insert(src, dst),
                    };
                    u.weight = e.get("w").and_then(Value::as_f64).map(|w| w as f32);
                    Ok(u)
                }
                Some("delete") => Ok(EdgeUpdate::delete(src, dst)),
                other => Err(format!("edge op must be insert or delete, got {other:?}")),
            }
        })
        .collect()
}

fn parse_spec(req: &Value) -> Result<JobSpec, String> {
    let max_length = u32::try_from(get_u64(req, "max_length").unwrap_or(80))
        .map_err(|_| "max_length out of range")?;
    let seed = get_u64(req, "seed").unwrap_or(0);
    let start = if let Some(seeds) = req.get("seeds").and_then(Value::as_array) {
        let vs: Option<Vec<u32>> = seeds
            .iter()
            .map(|v| v.as_u64().and_then(|x| u32::try_from(x).ok()))
            .collect();
        JobStart::Seeds(vs.ok_or("seeds must be an array of vertex ids")?)
    } else {
        JobStart::WalkCount(get_u64(req, "walks").ok_or("need walks or seeds")?)
    };
    let algorithm = get_str(req, "algorithm").unwrap_or_else(|| "deepwalk".into());
    let mut spec = match algorithm.as_str() {
        "deepwalk" => JobSpec::deepwalk(0, max_length, seed),
        "node2vec" => {
            let p = req.get("p").and_then(Value::as_f64).unwrap_or(1.0);
            let q = req.get("q").and_then(Value::as_f64).unwrap_or(1.0);
            SecondOrderWalk::check(p, q)?;
            JobSpec::node2vec(0, max_length, p, q, seed)
        }
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    spec.start = start;
    Ok(spec)
}

/// Answer one request into `out`; a `stream` request first writes its
/// event lines to `writer` itself.
fn dispatch(
    req: &Value,
    handle: &ServerHandle,
    streams: &Mutex<HashMap<u64, Receiver<JobEvent>>>,
    writer: &mut TcpStream,
    out: &mut Vec<u8>,
) -> std::io::Result<()> {
    let op = get_str(req, "op").unwrap_or_default();
    let reply = match op.as_str() {
        "submit" => {
            let tenant = get_str(req, "tenant").unwrap_or_else(|| "default".into());
            match parse_spec(req) {
                Err(e) => err_json(&e),
                Ok(spec) => match handle.submit(&tenant, spec) {
                    Err(e) => err_json(&e.to_string()),
                    Ok((id, rx)) => {
                        streams
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .insert(id.0, rx);
                        json!({"ok": true, "job": id.0})
                    }
                },
            }
        }
        "status" => match get_u64(req, "job") {
            None => err_json("need job"),
            Some(id) => match handle.info(JobId(id)) {
                Err(e) => err_json(&e.to_string()),
                Ok(None) => err_json("unknown job"),
                Ok(Some(i)) => json!({
                    "ok": true,
                    "job": id,
                    "tenant": i.tenant,
                    "status": i.status.label(),
                    "total_walks": i.total_walks,
                    "injected": i.injected,
                    "finished": i.finished,
                    "steps": i.steps,
                }),
            },
        },
        "cancel" => match get_u64(req, "job") {
            None => err_json("need job"),
            Some(id) => match handle.cancel(JobId(id)) {
                Err(e) => err_json(&e.to_string()),
                Ok(found) => json!({"ok": true, "cancelled": found}),
            },
        },
        "topup" => {
            let tenant = get_str(req, "tenant").unwrap_or_else(|| "default".into());
            match get_u64(req, "tokens") {
                None => err_json("need tokens"),
                Some(tokens) => match handle.top_up(&tenant, tokens) {
                    Err(e) => err_json(&e.to_string()),
                    Ok(()) => json!({"ok": true}),
                },
            }
        }
        "budget" => {
            let tenant = get_str(req, "tenant").unwrap_or_else(|| "default".into());
            match handle.budget(&tenant) {
                Err(e) => err_json(&e.to_string()),
                Ok(None) => err_json("unknown tenant"),
                Ok(Some((remaining, spent))) => {
                    json!({"ok": true, "budget": remaining, "spent": spent})
                }
            }
        }
        "result" => match get_u64(req, "job") {
            None => err_json("need job"),
            Some(id) => match handle.result(JobId(id)) {
                Err(e) => err_json(&e.to_string()),
                Ok(None) => err_json("unknown job"),
                Ok(Some(r)) => {
                    push_result_line(out, None, r.steps, r.finished, &r.visits, &r.lengths);
                    return Ok(());
                }
            },
        },
        "mutate" => match parse_updates(req) {
            Err(e) => err_json(&e),
            Ok(updates) => match handle.mutate(updates) {
                Err(e) => err_json(&e.to_string()),
                Ok(s) => json!({
                    "ok": true,
                    "epoch": s.epoch,
                    "inserted": s.inserted,
                    "deleted": s.deleted,
                    "dirty_vertices": s.dirty_vertices,
                    "dirty_partitions": s.dirty_partitions,
                    "reloaded_partitions": s.reloaded_partitions,
                    "reload_bytes": s.reload_bytes,
                }),
            },
        },
        "stream" => match get_u64(req, "job") {
            None => err_json("need job"),
            Some(id) => {
                // The map only ever holds whole receivers, so a
                // connection that panicked holding the lock left it intact.
                let rx = streams
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&id);
                match rx {
                    None => err_json("no stream for job (already taken or unknown)"),
                    Some(rx) => {
                        // One line per event until the scheduler drops
                        // the sender (job done/evicted, backlog drained).
                        for ev in rx.iter() {
                            out.clear();
                            push_event(out, &ev);
                            writer.write_all(out)?;
                        }
                        out.clear();
                        json!({"ok": true, "end": true})
                    }
                }
            }
        },
        "metrics" => {
            let traffic = match handle.traffic(8) {
                Ok(Some(r)) => serde_json::to_value(&r),
                _ => Value::Null,
            };
            json!({
                "ok": true,
                "prometheus": handle.registry().render_prometheus(),
                "traffic": traffic,
            })
        }
        "inspect" => match get_u64(req, "job") {
            None => err_json("need job"),
            Some(id) => {
                let reason = get_str(req, "reason").unwrap_or_else(|| "inspect".into());
                match handle.flight_record(JobId(id), &reason) {
                    Err(e) => err_json(&e.to_string()),
                    Ok(None) => err_json("unknown job"),
                    Ok(Some(dump)) => json!({"ok": true, "job": id, "flight_record": dump}),
                }
            }
        },
        other => err_json(&format!("unknown op {other:?}")),
    };
    push_json(out, &reply);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_engine::EngineConfig;
    use lt_graph::gen::{rmat, RmatParams};

    /// The `Value` rendering the direct writer must match byte for byte.
    fn result_json(r: &JobResult) -> Value {
        json!({
            "steps": r.steps,
            "finished": r.finished,
            "visits": r.visits,
            "lengths": r.lengths,
        })
    }

    fn event_json(ev: &JobEvent) -> Value {
        match ev {
            JobEvent::Progress {
                steps,
                finished,
                visits,
                lengths,
            } => json!({
                "event": "progress",
                "steps": steps,
                "finished": finished,
                "visits": visits,
                "lengths": lengths,
            }),
            JobEvent::Blocked { reason } => json!({"event": "blocked", "reason": reason}),
            JobEvent::Done { result } => {
                let mut v = result_json(result);
                if let Some(obj) = v.as_object_mut() {
                    obj.insert("event".into(), Value::String("done".into()));
                }
                v
            }
            JobEvent::Evicted => json!({"event": "evicted"}),
        }
    }

    /// Check the event's stream line and, for a result, the `result`
    /// op's reply against the `Value` rendering.
    fn assert_same_bytes(ev: &JobEvent) {
        let mut out = Vec::new();
        push_event(&mut out, ev);
        let want = format!("{}\n", event_json(ev));
        assert_eq!(String::from_utf8(out).unwrap(), want);
        if let JobEvent::Done { result: r } = ev {
            let mut out = Vec::new();
            push_result_line(&mut out, None, r.steps, r.finished, &r.visits, &r.lengths);
            let mut v = result_json(r);
            v.as_object_mut()
                .unwrap()
                .insert("ok".into(), Value::Bool(true));
            assert_eq!(String::from_utf8(out).unwrap(), format!("{v}\n"));
        }
    }

    #[test]
    fn stream_lines_match_the_value_rendering() {
        let edge = |steps, finished, visits: Vec<u32>, lengths: Vec<u32>| {
            [
                JobEvent::Progress {
                    steps,
                    finished,
                    visits: visits.clone(),
                    lengths: lengths.clone(),
                },
                JobEvent::Done {
                    result: JobResult {
                        steps,
                        finished,
                        visits,
                        lengths,
                    },
                },
            ]
        };
        let digits: Vec<u32> = (0..10).map(|e| 10u32.pow(e)).collect();
        let cases = [
            edge(0, 0, vec![], vec![]),
            edge(u64::MAX, u64::MAX, vec![0, u32::MAX], vec![u32::MAX]),
            edge(7, 1, vec![0, 0, 9, 10, 99, 100, 101], vec![0]),
            edge(1 << 40, 3, digits.iter().map(|d| d - 1).collect(), digits),
        ];
        for ev in cases.iter().flatten() {
            assert_same_bytes(ev);
        }
        assert_same_bytes(&JobEvent::Blocked {
            reason: "tenant \"a\" budget exhausted".into(),
        });
        assert_same_bytes(&JobEvent::Evicted);
    }

    /// Every line of a real 2,048-walk job, as the wire carries it.
    #[test]
    fn served_job_lines_match_the_value_rendering() {
        let g = rmat(RmatParams {
            scale: 12,
            edge_factor: 8,
            ..Default::default()
        })
        .csr;
        let cfg = ServerConfig::new(EngineConfig::light_traffic(32 << 10, 4));
        let mut s = Scheduler::new(Arc::new(g), cfg).unwrap();
        let (id, rx) = s.submit("t", JobSpec::deepwalk(2048, 40, 42)).unwrap();
        s.run_until_idle().unwrap();
        let events: Vec<JobEvent> = rx.try_iter().collect();
        assert!(events.len() > 2, "want several progress lines");
        assert!(
            matches!(events.last(), Some(JobEvent::Done { result }) if result.steps == 2048 * 40)
        );
        assert_eq!(s.result(id).map(|r| r.visits.len()), Some(2048 * 40));
        events.iter().for_each(assert_same_bytes);
    }
}
