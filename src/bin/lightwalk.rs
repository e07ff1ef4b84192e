//! `lightwalk` — command-line front end to the LightTraffic reproduction.
//!
//! ```text
//! lightwalk generate --rmat 14x16 --seed 1 --out graph.bin
//! lightwalk generate --dataset UK --shift 3 --out uk.bin
//! lightwalk info graph.bin --partition-kb 64
//! lightwalk run graph.bin --algorithm pagerank --walks 2x --length 80 \
//!     --partition-kb 64 --graph-pool 8 --trace timeline.json
//! lightwalk compare graph.bin --walks 2x --length 40
//! ```
#![forbid(unsafe_code)]

use lighttraffic::baselines::{cpu, ingpu, subway};
use lighttraffic::engine::algorithm::{PageRank, Ppr, UniformSampling, WalkAlgorithm};
use lighttraffic::engine::{
    Checkpoint, EngineConfig, LightTraffic, RunStatus, ZeroCopyPolicy, MAX_JOB_WALKS,
};
use lighttraffic::gpusim::{CostModel, GpuConfig};
use lighttraffic::graph::gen::{self, datasets};
use lighttraffic::graph::stats::{human_bytes, stats};
use lighttraffic::graph::{io, Csr, PartitionedGraph};
use lighttraffic::telemetry::{FlightRecord, MetricRegistry, TrafficDirection};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("generate") => cmd_generate(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try `lightwalk help`)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_usage() {
    println!(
        "lightwalk — out-of-GPU-memory random walks (LightTraffic reproduction)

USAGE:
  lightwalk generate (--rmat SCALExEF | --dataset NAME [--shift N]) [--seed N] --out FILE
  lightwalk info FILE [--partition-kb N]
  lightwalk run FILE [options]
  lightwalk serve FILE [options]
  lightwalk inspect DUMP.jsonl
  lightwalk compare FILE [options]

RUN OPTIONS:
  --algorithm NAME    uniform | pagerank | ppr           (default uniform)
  --walks COUNT       absolute count, or `2x` for 2|V|   (default 2x)
  --length N          walk length / cap                  (default 80)
  --restart P         restart/stop probability           (default 0.15)
  --partition-kb N    partition block size in KB         (default CSR/48)
  --graph-pool N      cached graph partitions m_g        (default P/2)
  --batch N           walkers per batch                  (default 1024)
  --pcie GEN          3 | 4 | nvlink                     (default 3)
  --no-preemptive     disable preemptive scheduling
  --no-selective      disable selective scheduling
  --zero-copy MODE    never | always | adaptive          (default adaptive)
  --seed N            RNG seed                           (default 42)
  --trace FILE        write a Chrome trace of the timeline
  --metrics-out FILE  write run metrics in Prometheus text format
                      (both also apply to --checkpoint and --resume runs)
  --checkpoint FILE   pause after --pause-after iterations and save state
  --pause-after N     iterations to run before checkpointing (default 100)
  --resume FILE       resume a previously saved checkpoint
  --json              machine-readable output

SERVE OPTIONS (multi-tenant walk service, JSONL over TCP):
  --addr HOST:PORT    listen address                     (default 127.0.0.1:7171)
  --partition-kb N    partition block size in KB         (default CSR/48)
  --graph-pool N      cached graph partitions m_g        (default P/2)
  --batch N           walkers per batch                  (default 1024)
  --seed N            engine RNG seed                    (default 42)
  --max-jobs N        job slots over the server lifetime (default 256)
  --default-budget N  tokens granted per new tenant      (default unlimited)
  --metrics-out FILE  every 0.5 s, write the same scrape the `metrics`
                      op returns (engine and server series)
  --flight-dir DIR    dump per-job flight records (JSONL) here on fault,
                      eviction, or budget exhaustion
  --max-seconds N     exit after N seconds (0 = run forever; default 0)

INSPECT:
  Render a flight-record dump (from serve --flight-dir or the TCP
  `inspect` op) as a per-job latency and traffic breakdown table. A
  malformed dump is an error naming its line.

`compare` takes the run options up to --seed. A flag a command does not
take is an error that names it."
    );
}

/// Value flags every engine-driving command (`run`, `compare`) takes.
const ENGINE_FLAGS: &[&str] = &[
    "algorithm",
    "walks",
    "length",
    "restart",
    "partition-kb",
    "graph-pool",
    "batch",
    "pcie",
    "zero-copy",
    "seed",
];
/// Switches every engine-driving command takes.
const ENGINE_SWITCHES: &[&str] = &["no-preemptive", "no-selective"];

/// Tiny flag parser: `--key value` pairs, switches and positionals. Each
/// command passes the value flags and switches it knows; any other
/// `--name` is an error that names it.
#[derive(Debug)]
struct Flags {
    positionals: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], values: &[&str], switches: &[&str]) -> Result<Self, String> {
        let mut f = Flags {
            positionals: Vec::new(),
            pairs: Vec::new(),
            switches: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if switches.contains(&name) {
                    f.switches.push(name.to_string());
                    i += 1;
                } else if values.contains(&name) {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    f.pairs.push((name.to_string(), v.clone()));
                    i += 2;
                } else {
                    return Err(format!("unknown flag `--{name}` (try `lightwalk help`)"));
                }
            } else {
                f.positionals.push(a.clone());
                i += 1;
            }
        }
        Ok(f)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse `{v}`")),
        }
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["rmat", "dataset", "shift", "seed", "out"], &[])?;
    let out = f.get("out").ok_or("generate needs --out FILE")?;
    let seed: u64 = f.get_parse("seed", 42)?;
    let csr = if let Some(spec) = f.get("rmat") {
        let (scale, ef) = spec
            .split_once(['x', 'X'])
            .ok_or("--rmat wants SCALExEDGEFACTOR, e.g. 14x16")?;
        let scale: u32 = scale.parse().map_err(|_| "bad rmat scale")?;
        let ef: u32 = ef.parse().map_err(|_| "bad rmat edge factor")?;
        gen::rmat(gen::RmatParams {
            scale,
            edge_factor: ef,
            seed,
            ..Default::default()
        })
        .csr
    } else if let Some(name) = f.get("dataset") {
        let shift: u32 = f.get_parse("shift", 4)?;
        let spec = datasets::ALL
            .iter()
            .find(|d| d.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| format!("unknown dataset `{name}` (LJ OR TW FS UK YH CW)"))?;
        spec.generate(shift, seed).csr
    } else {
        return Err("generate needs --rmat or --dataset".into());
    };
    io::write_binary(&csr, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {} vertices, {} edges, {}",
        csr.num_vertices(),
        csr.num_edges(),
        human_bytes(csr.csr_bytes())
    );
    Ok(())
}

fn load_graph(f: &Flags) -> Result<Arc<Csr>, String> {
    let path = f
        .positionals
        .first()
        .ok_or("missing graph file (generate one with `lightwalk generate`)")?;
    Ok(Arc::new(io::read_binary(path).map_err(|e| e.to_string())?))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &["partition-kb"], &[])?;
    let g = load_graph(&f)?;
    let s = stats(&g);
    println!("vertices     : {}", s.num_vertices);
    println!("edges        : {}", s.num_edges);
    println!("csr size     : {}", human_bytes(s.csr_bytes));
    println!("max degree   : {}", s.max_degree);
    println!("avg degree   : {:.2}", s.avg_degree);
    println!("top-1% share : {:.3}", s.top1pct_edge_share);
    println!("weighted     : {}", g.is_weighted());
    let comp = lighttraffic::graph::components::components(&g);
    println!(
        "components   : {} (largest covers {:.1}%)",
        comp.count,
        100.0 * comp.largest_fraction
    );
    println!("degree histogram:");
    print!(
        "{}",
        lighttraffic::graph::stats::degree_histogram(&g).render()
    );
    let part_kb: u64 = f.get_parse("partition-kb", (s.csr_bytes / 48 / 1024).max(256))?;
    let pg = PartitionedGraph::build(g.clone(), part_kb << 10);
    println!(
        "partitions   : {} of ≤{} each",
        pg.num_partitions(),
        human_bytes(part_kb << 10)
    );
    let over = pg.oversized_partitions();
    if !over.is_empty() {
        println!(
            "oversized    : {} hub partition(s) exceed the block (zero copy required)",
            over.len()
        );
    }
    Ok(())
}

struct RunSetup {
    graph: Arc<Csr>,
    partitions: Arc<PartitionedGraph>,
    alg: Arc<dyn WalkAlgorithm>,
    walks: u64,
    cfg: EngineConfig,
    seed: u64,
}

fn parse_run(f: &Flags) -> Result<RunSetup, String> {
    let graph = load_graph(f)?;
    let seed: u64 = f.get_parse("seed", 42)?;
    let length: u32 = f.get_parse("length", 80)?;
    let restart: f64 = f.get_parse("restart", 0.15)?;
    let alg: Arc<dyn WalkAlgorithm> = match f.get("algorithm").unwrap_or("uniform") {
        "uniform" => Arc::new(UniformSampling::new(length)),
        "pagerank" => Arc::new(PageRank::new(length, restart)),
        "ppr" => Arc::new(Ppr::from_highest_degree(&graph, restart)),
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    // Every walker is placed before the run starts, so the count is
    // capped here, where it enters, before anything is allocated.
    let spec = f.get("walks").unwrap_or("2x");
    let walks = match spec.strip_suffix('x') {
        Some(mult) => mult
            .parse::<u64>()
            .map_err(|_| "--walks: bad multiplier")?
            .checked_mul(graph.num_vertices()),
        None => Some(spec.parse::<u64>().map_err(|_| "--walks: bad count")?),
    }
    .filter(|&n| n <= MAX_JOB_WALKS)
    .ok_or_else(|| {
        format!("--walks {spec}: more than the {MAX_JOB_WALKS} walks one run may place")
    })?;
    // Floor of 256 KB: partitions much smaller than the per-copy DMA
    // latency×bandwidth product are latency-bound on real hardware too.
    let default_part_kb = (graph.csr_bytes() / 48 / 1024).max(256);
    let part_bytes: u64 = f.get_parse("partition-kb", default_part_kb)? << 10;
    // Build the partition table once; the engine reuses it.
    let partitions = Arc::new(PartitionedGraph::build(graph.clone(), part_bytes));
    let p = partitions.num_partitions() as usize;
    let graph_pool: usize = f.get_parse("graph-pool", (p / 2).max(1))?;
    let batch: usize = f.get_parse("batch", 1024)?;
    let cost = match f.get("pcie").unwrap_or("3") {
        "3" => CostModel::pcie3(),
        "4" => CostModel::pcie4(),
        "nvlink" => CostModel::nvlink(),
        other => return Err(format!("unknown interconnect `{other}`")),
    };
    let zero_copy = match f.get("zero-copy").unwrap_or("adaptive") {
        "never" => ZeroCopyPolicy::Never,
        "always" => ZeroCopyPolicy::Always,
        "adaptive" => ZeroCopyPolicy::adaptive(),
        other => return Err(format!("unknown zero-copy mode `{other}`")),
    };
    let cfg = EngineConfig {
        batch_capacity: batch,
        seed,
        preemptive: !f.has("no-preemptive"),
        selective: !f.has("no-selective"),
        zero_copy,
        gpu: GpuConfig {
            cost,
            record_ops: f.get("trace").is_some(),
            ..Default::default()
        },
        ..EngineConfig::light_traffic(part_bytes, graph_pool)
    };
    Ok(RunSetup {
        graph,
        partitions,
        alg,
        walks,
        cfg,
        seed,
    })
}

/// `--metrics-out FILE`: export the engine's series
/// ([`LightTraffic::publish`]) in the Prometheus text exposition format.
fn write_metrics_out(f: &Flags, engine: &LightTraffic) -> Result<(), String> {
    let Some(path) = f.get("metrics-out") else {
        return Ok(());
    };
    let mut registry = MetricRegistry::new();
    engine.publish(&mut registry);
    std::fs::write(path, registry.render_prometheus()).map_err(|e| e.to_string())?;
    eprintln!("[metrics written to {path}]");
    Ok(())
}

/// `--trace FILE`: write the simulated timeline as a Chrome trace.
fn write_trace(f: &Flags, engine: &LightTraffic) -> Result<(), String> {
    let Some(path) = f.get("trace") else {
        return Ok(());
    };
    let gpu = engine.gpu();
    lighttraffic::gpusim::trace::write_chrome_trace(gpu.op_log(), gpu.fault_log(), path)
        .map_err(|e| e.to_string())?;
    eprintln!("[trace written to {path}]");
    Ok(())
}

/// `lightwalk run`, one flow for every flag: restore `--resume`'s
/// checkpoint or inject `--walks` fresh walks; step to the end, or for
/// `--pause-after` iterations when `--checkpoint` names a file, saving
/// the checkpoint if the run paused; then write `--trace` and
/// `--metrics-out` if asked and print one report.
fn cmd_run(args: &[String]) -> Result<(), String> {
    let values = [
        ENGINE_FLAGS,
        &[
            "trace",
            "metrics-out",
            "checkpoint",
            "pause-after",
            "resume",
        ],
    ]
    .concat();
    let f = Flags::parse(args, &values, &[ENGINE_SWITCHES, &["json"]].concat())?;
    let setup = parse_run(&f)?;
    let mut engine =
        LightTraffic::with_partitioned(setup.partitions.clone(), setup.alg.clone(), setup.cfg)
            .map_err(|e| e.to_string())?;
    let total_walks = match f.get("resume") {
        Some(cp_path) => {
            let cp = Checkpoint::load(cp_path).map_err(|e| e.to_string())?;
            eprintln!(
                "[resuming {} in-flight walks from {cp_path}]",
                cp.active_walks()
            );
            let total = cp.finished_walks.saturating_add(cp.active_walks());
            engine.restore(cp).map_err(|e| e.to_string())?;
            total
        }
        None => {
            engine.inject_walks(setup.walks);
            setup.walks
        }
    };
    let checkpoint = f.get("checkpoint");
    let budget = match checkpoint {
        Some(_) => f.get_parse("pause-after", 100)?,
        None => u64::MAX,
    };
    let status = engine.step(budget).map_err(|e| e.to_string())?;
    let saved = match (&status, checkpoint) {
        (RunStatus::Paused, Some(cp_path)) => {
            let cp = engine.checkpoint();
            cp.save(cp_path).map_err(|e| e.to_string())?;
            Some((cp_path, cp.active_walks()))
        }
        _ => None,
    };
    write_trace(&f, &engine)?;
    write_metrics_out(&f, &engine)?;
    let r = match (status, saved) {
        (RunStatus::Completed(r), _) => r,
        (RunStatus::Paused, Some((cp_path, in_flight))) => {
            if f.has("json") {
                let msg = serde_json::json!({
                    "paused_after_iterations": budget,
                    "walks_in_flight": in_flight,
                    "checkpoint": cp_path,
                });
                println!("{msg}");
            } else {
                println!(
                    "paused after {budget} iterations; {in_flight} walks in flight saved to {cp_path}"
                );
            }
            return Ok(());
        }
        (other, _) => return Err(format!("unexpected run status: {other:?}")),
    };
    if f.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&r).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    let m = &r.metrics;
    println!("algorithm            : {}", setup.alg.name());
    println!(
        "walks                : {} finished of {total_walks}",
        m.finished_walks
    );
    println!("steps                : {}", m.total_steps);
    println!("iterations           : {}", m.iterations);
    println!("explicit graph loads : {}", m.explicit_graph_copies);
    println!("zero-copy kernels    : {}", m.zero_copy_kernels);
    println!(
        "graph pool hit rate  : {:.1}%",
        100.0 * m.graph_pool_hit_rate()
    );
    println!(
        "walk batches         : {} loaded / {} evicted / {} preempted",
        m.walk_batches_loaded, m.walk_batches_evicted, m.preemptive_batches
    );
    println!("H2D traffic          : {}", human_bytes(r.gpu.h2d_bytes()));
    println!("D2H traffic          : {}", human_bytes(r.gpu.d2h_bytes()));
    println!(
        "simulated time       : {:.3} ms",
        m.makespan_ns as f64 / 1e6
    );
    println!(
        "throughput           : {:.2} M steps/s",
        m.throughput() / 1e6
    );
    Ok(())
}

/// `lightwalk serve`: expose the graph as a multi-tenant walk service
/// (see `lt-server`). `--metrics-out` writes a scrape to a file on a short
/// cadence through the same [`ServerHandle::metrics`] call the TCP
/// `metrics` op makes, so both carry the same series.
///
/// [`ServerHandle::metrics`]: lighttraffic::server::ServerHandle::metrics
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let values = [
        "addr",
        "partition-kb",
        "graph-pool",
        "batch",
        "seed",
        "max-jobs",
        "default-budget",
        "metrics-out",
        "flight-dir",
        "max-seconds",
    ];
    let f = Flags::parse(args, &values, &[])?;
    let graph = load_graph(&f)?;
    let seed: u64 = f.get_parse("seed", 42)?;
    let default_part_kb = (graph.csr_bytes() / 48 / 1024).max(256);
    let part_bytes: u64 = f.get_parse("partition-kb", default_part_kb)? << 10;
    let p = PartitionedGraph::build(graph.clone(), part_bytes).num_partitions() as usize;
    let graph_pool: usize = f.get_parse("graph-pool", (p / 2).max(1))?;
    let batch: usize = f.get_parse("batch", 1024)?;
    let engine = EngineConfig {
        batch_capacity: batch,
        seed,
        ..EngineConfig::light_traffic(part_bytes, graph_pool)
    };
    let mut cfg = lighttraffic::server::ServerConfig::new(engine);
    cfg.max_jobs = f.get_parse("max-jobs", 256)?;
    cfg.default_budget = f.get_parse("default-budget", u64::MAX)?;
    cfg.flight_recorder_dir = f.get("flight-dir").map(std::path::PathBuf::from);
    let server = lighttraffic::server::Server::start(graph, cfg).map_err(|e| e.to_string())?;
    let handle = server.handle();
    let front = lighttraffic::server::TcpFrontend::bind(
        handle.clone(),
        f.get("addr").unwrap_or("127.0.0.1:7171"),
    )
    .map_err(|e| e.to_string())?;
    eprintln!("[serving walks on {}]", front.local_addr());
    let max_seconds: u64 = f.get_parse("max-seconds", 0)?;
    let started = std::time::Instant::now();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        if let Some(path) = f.get("metrics-out") {
            let (prometheus, _) = handle.metrics(0).map_err(|e| e.to_string())?;
            std::fs::write(path, prometheus).map_err(|e| e.to_string())?;
        }
        if max_seconds > 0 && started.elapsed().as_secs() >= max_seconds {
            break;
        }
    }
    front.shutdown();
    server.shutdown();
    Ok(())
}

/// `lightwalk inspect DUMP.jsonl`: per-job latency and traffic breakdown
/// of a flight record written by `serve --flight-dir` (or the TCP
/// `inspect` op).
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, &[], &[])?;
    let path = f
        .positionals
        .first()
        .ok_or("inspect needs a flight-record dump (write one with `serve --flight-dir`)")?;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let records = FlightRecord::parse_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{path}: no flight records"));
    }
    for d in &records {
        println!(
            "job {} · tenant {:?} · trace {:016x} · reason {} · {} spans retained ({} dropped)",
            d.job,
            d.tenant,
            d.trace_id,
            d.reason,
            d.spans.len(),
            d.dropped,
        );
        let Some(first) = d.spans.first() else {
            println!("  (no spans retained)\n");
            continue;
        };
        // Timeline: clocks shown relative to the first retained span.
        println!(
            "\n  {:>4}  {:<10} {:>10} {:>11} {:>11}  detail",
            "seq", "phase", "steps", "sim(ms)", "host(ms)"
        );
        for sp in &d.spans {
            println!(
                "  {:>4}  {:<10} {:>10} {:>11.3} {:>11.3}  {}",
                sp.seq,
                sp.phase.as_str(),
                sp.step_clock,
                sp.sim_ns.saturating_sub(first.sim_ns) as f64 / 1e6,
                sp.host_ns.saturating_sub(first.host_ns) as f64 / 1e6,
                sp.detail,
            );
        }
        // Latency breakdown: the interval between two transitions is
        // attributed to the phase being left.
        let mut by_phase: std::collections::BTreeMap<&str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for w in d.spans.windows(2) {
            let e = by_phase.entry(w[0].phase.as_str()).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += w[1].sim_ns.saturating_sub(w[0].sim_ns);
            e.2 += w[1].host_ns.saturating_sub(w[0].host_ns);
        }
        if !by_phase.is_empty() {
            println!(
                "\n  time in phase:        {:>8} {:>11} {:>11}",
                "spans", "sim(ms)", "host(ms)"
            );
            for (phase, (count, sim, host)) in &by_phase {
                println!(
                    "    {:<18}  {:>8} {:>11.3} {:>11.3}",
                    phase,
                    count,
                    *sim as f64 / 1e6,
                    *host as f64 / 1e6
                );
            }
        }
        // Traffic attributed to the job.
        if d.traffic.is_empty() {
            println!("\n  traffic: none attributed\n");
            continue;
        }
        let (mut h2d, mut d2h) = (0u64, 0u64);
        println!(
            "\n  traffic:    {:>9} {:>9} {:>12}",
            "partition", "dir", "bytes"
        );
        for t in &d.traffic {
            match t.direction {
                TrafficDirection::H2d => h2d += t.bytes,
                _ => d2h += t.bytes,
            }
            println!(
                "              {:>9} {:>9} {:>12}",
                t.partition,
                t.direction.label(),
                human_bytes(t.bytes)
            );
        }
        let steps = d.spans.last().map_or(0, |sp| sp.step_clock);
        let per_step = if steps > 0 {
            format!(", {:.1} B/step", (h2d + d2h) as f64 / steps as f64)
        } else {
            String::new()
        };
        println!(
            "    total     h2d {} · d2h {}{per_step}\n",
            human_bytes(h2d),
            human_bytes(d2h)
        );
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let f = Flags::parse(args, ENGINE_FLAGS, ENGINE_SWITCHES)?;
    let setup = parse_run(&f)?;
    println!(
        "comparing systems on {} walks of `{}`:\n",
        setup.walks,
        setup.alg.name()
    );
    let mut engine = LightTraffic::with_partitioned(
        setup.partitions.clone(),
        setup.alg.clone(),
        setup.cfg.clone(),
    )
    .map_err(|e| e.to_string())?;
    let lt = engine.run(setup.walks).map_err(|e| e.to_string())?;
    println!(
        "LightTraffic       : {:>10.2} M steps/s  ({:.3} ms simulated)",
        lt.metrics.throughput() / 1e6,
        lt.metrics.makespan_ns as f64 / 1e6
    );
    let sub = subway::run_subway(
        &setup.graph,
        &setup.alg,
        setup.walks,
        &subway::SubwayConfig {
            seed: setup.seed,
            gpu: setup.cfg.gpu.clone(),
            ..Default::default()
        },
    );
    let ratio = sub.metrics.makespan_ns as f64 / lt.metrics.makespan_ns as f64;
    let verdict = if ratio >= 1.0 {
        format!("{ratio:.1}x slower than LightTraffic")
    } else {
        format!("{:.1}x faster than LightTraffic", 1.0 / ratio)
    };
    println!(
        "Subway-like        : {:>10.2} M steps/s  ({:.3} ms simulated, {verdict})",
        sub.throughput() / 1e6,
        sub.metrics.makespan_ns as f64 / 1e6,
    );
    match ingpu::run_in_gpu_memory(
        &setup.graph,
        &setup.alg,
        setup.walks,
        setup.cfg.gpu.clone(),
        setup.seed,
    ) {
        Ok(ig) => println!(
            "in-GPU-memory      : {:>10.2} M steps/s  ({:.3} ms simulated)",
            ig.throughput() / 1e6,
            ig.metrics.makespan_ns as f64 / 1e6
        ),
        Err(e) => println!("in-GPU-memory      : unavailable ({e})"),
    }
    let cpu_r = cpu::run_walk_centric(&setup.graph, &setup.alg, setup.walks, setup.seed, 2);
    println!(
        "CPU walk-centric   : {:>10.2} M steps/s  (measured on this host)",
        cpu_r.throughput() / 1e6
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{cmd_run, gen, io, Flags};

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_pairs_switches_and_positionals() {
        let f = Flags::parse(
            &args(&["graph.bin", "--walks", "2x", "--json", "--seed", "7"]),
            &["walks", "seed", "missing"],
            &["json"],
        )
        .unwrap();
        assert_eq!(f.positionals, vec!["graph.bin"]);
        assert_eq!(f.get("walks"), Some("2x"));
        assert!(f.has("json"));
        assert_eq!(f.get_parse::<u64>("seed", 0).unwrap(), 7);
        assert_eq!(f.get_parse::<u64>("missing", 99).unwrap(), 99);
    }

    #[test]
    fn flags_reject_missing_value() {
        let err = Flags::parse(&args(&["--walks"]), &["walks"], &[]).unwrap_err();
        assert!(err.contains("--walks"));
    }

    #[test]
    fn flags_reject_unparseable_value() {
        let f = Flags::parse(&args(&["--seed", "xyz"]), &["seed"], &[]).unwrap();
        assert!(f.get_parse::<u64>("seed", 0).is_err());
    }

    #[test]
    fn later_flags_override_earlier() {
        let f = Flags::parse(&args(&["--seed", "1", "--seed", "2"]), &["seed"], &[]).unwrap();
        assert_eq!(f.get("seed"), Some("2"));
    }

    /// A flag the command does not take is an error naming it, not a
    /// silently ignored pair: a misspelled switch no longer swallows the
    /// next flag as its value.
    #[test]
    fn flags_reject_unknown_names() {
        let values = &["walks"];
        let switches = &["no-selective", "json"];
        let err = Flags::parse(&args(&["--walkz", "10"]), values, switches).unwrap_err();
        assert!(err.contains("`--walkz`"), "{err}");
        let err = Flags::parse(&args(&["--no-selectiv", "--json"]), values, switches).unwrap_err();
        assert!(err.contains("`--no-selectiv`"), "{err}");
        let err = Flags::parse(&args(&["--log-level", "info"]), values, switches).unwrap_err();
        assert!(err.contains("`--log-level`"), "{err}");
        let f = Flags::parse(
            &args(&["--no-selective", "--json", "--walks", "10"]),
            values,
            switches,
        )
        .unwrap();
        assert!(f.has("no-selective") && f.has("json"));
        assert_eq!(f.get("walks"), Some("10"));
    }

    /// A walk count past the cap, or a multiplier whose product with |V|
    /// overflows, is a one-line error before any walker is placed.
    #[test]
    fn run_refuses_walk_counts_past_the_cap() {
        let dir = std::env::temp_dir().join(format!("lightwalk_walks_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("g.bin").to_string_lossy().into_owned();
        let csr = gen::rmat(gen::RmatParams {
            scale: 8,
            edge_factor: 4,
            ..Default::default()
        })
        .csr;
        io::write_binary(&csr, &graph).unwrap();
        for walks in ["18446744073709551615", "30000000000000000x", "268435457"] {
            let err = cmd_run(&args(&[&graph, "--walks", walks])).unwrap_err();
            assert_eq!(
                err,
                format!("--walks {walks}: more than the 268435456 walks one run may place")
            );
        }
        cmd_run(&args(&[&graph, "--walks", "1x", "--length", "4"])).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `--trace` and `--metrics-out` are written on the pause path and
    /// on the resume path, beside the checkpoint itself.
    #[test]
    fn run_writes_every_named_file_on_pause_and_resume() {
        let dir = std::env::temp_dir().join(format!("lightwalk_run_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        let csr = gen::rmat(gen::RmatParams {
            scale: 10,
            edge_factor: 8,
            ..Default::default()
        })
        .csr;
        io::write_binary(&csr, path("g.bin")).unwrap();
        let run = |extra: &[&str]| {
            let mut a = args(&["--walks", "4x", "--length", "40", "--partition-kb", "8"]);
            a.insert(0, path("g.bin"));
            a.extend(extra.iter().map(|s| s.to_string()));
            cmd_run(&a)
        };
        let (cp, t1, m1, t2, m2) = (
            path("cp.json"),
            path("pause.trace.json"),
            path("pause.prom"),
            path("resume.trace.json"),
            path("resume.prom"),
        );
        run(&[
            "--checkpoint",
            &cp,
            "--pause-after",
            "1",
            "--trace",
            &t1,
            "--metrics-out",
            &m1,
        ])
        .unwrap();
        run(&["--resume", &cp, "--trace", &t2, "--metrics-out", &m2]).unwrap();
        for file in [&cp, &t1, &m1, &t2, &m2] {
            let len = std::fs::metadata(file).map_or(0, |m| m.len());
            assert!(len > 0, "{file} was not written");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
