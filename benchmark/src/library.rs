//! The four library workloads, child side: timed set-ups, complete
//! inject-to-finish rounds on a fresh engine each, correctness checks,
//! and (traced pass) the per-layer budget.

use crate::inputs::{partition_bytes, GRAPH_FILE, OOC_FILE};
use crate::probes;
use crate::result::{first_difference, Check, WorkloadResult};
use crate::spec::{
    Kind, EVOLVE_SLICE, GRAPH_POOL_BLOCKS, MUTATIONS_PER_EPOCH, MUTATION_WINDOW, SETUP_BUDGET_S,
    SETUP_MAX_REPS, SETUP_MIN_REPS, TIME_HORIZON, TIME_WINDOW, TRACE_SLICE, WALK_LENGTH,
};
use crate::stats::{latency_summary, median, median_setup, peak_rss_mb, ratio, sorted};
use crate::trace::{span_totals, DeltaAcc, Span, Tracer};
use crate::ChildCtx;
use lt_engine::algorithm::{SecondOrderWalk, TemporalWalk, UniformSampling};
use lt_engine::{
    EngineConfig, ExecStats, LightTraffic, Metrics, RunResult, RunStatus, WalkAlgorithm,
};
use lt_graph::gen::{locality_mutations, with_random_timestamps};
use lt_graph::io::read_binary;
use lt_graph::{Csr, GraphStore, OocGraph};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// `Metrics` fields that depend on the machine or the host-execution
/// strategy — the same mask the repository's differential batteries use.
const HOST_DEPENDENT: [&str; 9] = [
    "host_kernel_wall_ns",
    "host_reshuffle_wall_ns",
    "host_decode_wall_ns",
    "max_kernel_threads",
    "max_reshuffle_threads",
    "host_spawn_rounds",
    "host_spec_hits",
    "host_spec_misses",
    "host_strategy_switches",
];

/// Host-tier counters: deterministic, but legitimately different between
/// a RAM store (always 0) and the out-of-core store.
const HOST_TIER: [&str; 4] = [
    "engine.host_decode_bytes",
    "engine.host_cache_hits",
    "engine.host_cache_misses",
    "engine.host_cache_evictions",
];

/// Everything loaded and decided before the first walk can be injected.
#[derive(Clone)]
struct Env {
    store: GraphStore,
    alg: Arc<dyn WalkAlgorithm>,
    cfg: EngineConfig,
    /// `read_binary` (+ timestamping) or `OocGraph::open`.
    load_s: f64,
    construct_s: f64,
}

fn load_ram_graph(ctx: &ChildCtx, temporal: bool) -> Result<Arc<Csr>, String> {
    let g = read_binary(ctx.dir.join(GRAPH_FILE)).map_err(|e| e.to_string())?;
    Ok(Arc::new(if temporal {
        with_random_timestamps(&g, ctx.seed, TIME_HORIZON)
    } else {
        g
    }))
}

fn build_engine(env: &Env, attribution: bool) -> Result<LightTraffic, String> {
    let cfg = EngineConfig {
        attribution,
        ..env.cfg.clone()
    };
    LightTraffic::from_store(env.store.clone(), env.alg.clone(), cfg).map_err(|e| e.to_string())
}

/// One full set-up: load the input, pick the algorithm, build an engine.
fn setup(ctx: &ChildCtx) -> Result<Env, String> {
    let kind = ctx.workload.kind;
    let t = Instant::now();
    let store = if kind == Kind::DeepwalkOoc {
        GraphStore::OutOfCore(Arc::new(
            OocGraph::open(&ctx.dir.join(OOC_FILE)).map_err(|e| e.to_string())?,
        ))
    } else {
        GraphStore::Ram(load_ram_graph(ctx, kind == Kind::TemporalEvolving)?)
    };
    let load_s = t.elapsed().as_secs_f64();
    let alg: Arc<dyn WalkAlgorithm> = match kind {
        Kind::Node2vecRam => Arc::new(SecondOrderWalk::node2vec(WALK_LENGTH, 0.5, 2.0)),
        Kind::TemporalEvolving => Arc::new(TemporalWalk::new(WALK_LENGTH, TIME_WINDOW)),
        _ => Arc::new(UniformSampling::new(WALK_LENGTH)),
    };
    let pbytes = match &store {
        GraphStore::OutOfCore(ooc) => ooc.block_bytes(),
        GraphStore::Ram(g) => partition_bytes(g.num_vertices(), g.num_edges()),
    };
    let mut env = Env {
        store,
        alg,
        cfg: EngineConfig {
            seed: ctx.seed,
            ..EngineConfig::light_traffic(pbytes, GRAPH_POOL_BLOCKS)
        },
        load_s,
        construct_s: 0.0,
    };
    let t = Instant::now();
    drop(build_engine(&env, false)?);
    env.construct_s = t.elapsed().as_secs_f64();
    Ok(env)
}

/// Counter slots the harness accumulates at slice boundaries: the three
/// host-wall counters the budget line is built from, then steps and
/// iterations (exact, so the accumulator can be checked against them).
const ACC_SLOTS: usize = 5;
const ACC_KERNEL_NS: usize = 0;
const ACC_RESHUFFLE_NS: usize = 1;
const ACC_DECODE_NS: usize = 2;

fn counter_slots(m: &Metrics) -> [u64; ACC_SLOTS] {
    [
        m.host_kernel_wall_ns,
        m.host_reshuffle_wall_ns,
        m.host_decode_wall_ns,
        m.total_steps,
        m.iterations,
    ]
}

fn counters(e: &LightTraffic) -> [u64; ACC_SLOTS] {
    counter_slots(e.metrics())
}

/// One inject-to-finish round.
struct Round {
    walks: u64,
    wall_s: f64,
    inject_s: f64,
    mutate_s: f64,
    seal_ms: Vec<f64>,
    slice_ms: Vec<f64>,
    dirty_partitions: u64,
    result: RunResult,
    exec: Option<ExecStats>,
    /// `(ledger h2d, d2h, reload, cells)` when attribution was on.
    ledger: Option<(u64, u64, u64, u64)>,
}

fn run_round(
    kind: Kind,
    seed: u64,
    engine: LightTraffic,
    mutation_base: Option<&Csr>,
    tracer: &mut Tracer,
    acc: &mut DeltaAcc<ACC_SLOTS>,
) -> Result<Round, String> {
    let mut s = engine.into_session();
    let walks = kind.walks_per_vertex() * s.engine().partitions().num_vertices();
    let evolving = kind == Kind::TemporalEvolving;
    // The untraced pass of a static workload is one `finish()`-like call;
    // the traced pass slices it so counters are read at slice boundaries.
    // Slicing never changes a result (pinned by the engine's own tests).
    let budget = match (evolving, tracer.enabled()) {
        (true, _) => EVOLVE_SLICE,
        (false, true) => TRACE_SLICE,
        (false, false) => u64::MAX,
    };
    // Any nonzero xorshift state; `| 1` keeps seed 0 legal.
    let mut mutation_state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let (mut mutate_s, mut seal_ms, mut slice_ms, mut dirty_partitions) =
        (0.0, Vec::new(), Vec::new(), 0u64);

    let t0 = Instant::now();
    tracer.enter("run.round");
    tracer.enter("engine.inject");
    s.inject_walks(walks);
    tracer.exit();
    let inject_s = t0.elapsed().as_secs_f64();
    acc.rebase(counters(s.engine()));
    let result = loop {
        tracer.enter("engine.step");
        let ts = Instant::now();
        let status = s.step(budget).map_err(|e| e.to_string())?;
        slice_ms.push(ts.elapsed().as_secs_f64() * 1e3);
        tracer.exit();
        acc.add_delta(counters(s.engine()));
        match status {
            RunStatus::Completed(r) => break *r,
            RunStatus::Paused if evolving => {
                let base = mutation_base.expect("evolving workloads carry their RAM graph");
                let updates = locality_mutations(
                    base,
                    MUTATIONS_PER_EPOCH,
                    MUTATION_WINDOW,
                    &mut mutation_state,
                );
                tracer.enter("delta.mutate");
                let tm = Instant::now();
                s.mutate(updates).map_err(|e| e.to_string())?;
                mutate_s += tm.elapsed().as_secs_f64();
                tracer.exit();
                tracer.enter("delta.seal");
                let tm = Instant::now();
                let summary = s.seal_epoch().map_err(|e| e.to_string())?;
                seal_ms.push(tm.elapsed().as_secs_f64() * 1e3);
                tracer.exit();
                dirty_partitions += summary.dirty_partitions;
            }
            RunStatus::Paused => {}
            _ => return Err("unknown run status".into()),
        }
    };
    tracer.exit();
    let wall_s = t0.elapsed().as_secs_f64();
    let ledger = s.engine().traffic_ledger().map(|l| {
        (
            l.h2d_bytes(),
            l.d2h_bytes(),
            l.reload_bytes(),
            l.cells().count() as u64,
        )
    });
    Ok(Round {
        walks,
        wall_s,
        inject_s,
        mutate_s,
        seal_ms,
        slice_ms,
        dirty_partitions,
        exec: s.engine().exec_stats(),
        ledger,
        result,
    })
}

/// Flatten the deterministic part of a result into `layer.counter` keys.
pub fn deterministic_map(r: &RunResult) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let metrics = serde_json::to_value(&r.metrics);
    for (k, v) in metrics.as_object().into_iter().flatten() {
        if HOST_DEPENDENT.contains(&k.as_str()) {
            continue;
        }
        if let Some(u) = v.as_u64() {
            out.insert(format!("engine.{k}"), u);
        } else if let Some(buckets) = v.as_array() {
            for (i, b) in buckets.iter().enumerate() {
                out.insert(format!("engine.{k}.{i:02}"), b.as_u64().unwrap_or(0));
            }
        }
    }
    let gpu = serde_json::to_value(&r.gpu);
    for (k, v) in gpu.as_object().into_iter().flatten() {
        if let Some(u) = v.as_u64() {
            out.insert(format!("gpusim.{k}"), u);
        } else if let Some(cat) = v.as_object() {
            for (kk, vv) in cat {
                out.insert(format!("gpusim.{k}.{kk}"), vv.as_u64().unwrap_or(0));
            }
        }
    }
    out
}

fn link_bytes(r: &RunResult) -> u64 {
    // Reload copies are host-to-device link traffic too; `h2d_bytes()`
    // leaves them out because it is the paper's steady-state figure.
    r.gpu.h2d_bytes() + r.gpu.d2h_bytes() + r.gpu.reload_bytes()
}

pub fn run(ctx: &ChildCtx) -> Result<(WorkloadResult, Vec<Span>), String> {
    let kind = ctx.workload.kind;
    let mut out = WorkloadResult {
        workload: ctx.workload.name.to_string(),
        traced: ctx.traced,
        ..Default::default()
    };

    // --- set-up, several times: the median is `setup_s` ------------------
    let (env, setup_s) = median_setup(SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_BUDGET_S, || {
        setup(ctx)
    })?;
    let mutation_base = match (&env.store, kind) {
        (GraphStore::Ram(g), Kind::TemporalEvolving) => Some(g.clone()),
        _ => None,
    };

    // --- measured rounds --------------------------------------------------
    let mut tracer = Tracer::new(ctx.traced);
    let mut acc = DeltaAcc::<ACC_SLOTS>::default();
    let mut rounds: Vec<Round> = Vec::new();
    let t_run = Instant::now();
    loop {
        let engine = build_engine(&env, false)?;
        rounds.push(run_round(
            kind,
            ctx.seed,
            engine,
            mutation_base.as_deref(),
            &mut tracer,
            &mut acc,
        )?);
        if t_run.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
    }
    let rss = peak_rss_mb().unwrap_or(0.0);
    let n = rounds.len() as f64;
    let last = rounds.last().expect("at least one round");
    let r = &last.result;
    let m = &r.metrics;
    let det = deterministic_map(r);

    // --- end-to-end -------------------------------------------------------
    let walls = sorted(rounds.iter().map(|x| x.wall_s).collect());
    let wall_total: f64 = walls.iter().sum();
    let rates: Vec<f64> = rounds
        .iter()
        .map(|x| x.result.metrics.total_steps as f64 / x.wall_s)
        .collect();
    out.rounds = rounds.len() as u64;
    out.run_wall_s = wall_total;
    out.attempted = rounds.iter().map(|x| x.walks).sum();
    out.failed = rounds
        .iter()
        .map(|x| x.walks.saturating_sub(x.result.metrics.finished_walks))
        .sum();
    let (p50_s, tail_p, tail_s) = latency_summary(&walls);
    out.tail_percentile = tail_p;
    let e = &mut out.end_to_end;
    e.insert("setup_s".into(), setup_s);
    e.insert("steps_per_s".into(), median(&rates));
    e.insert("sim_steps_per_s".into(), m.throughput());
    e.insert(
        "link_bytes_per_step".into(),
        ratio(link_bytes(r) as f64, m.total_steps as f64),
    );
    e.insert("peak_rss_mb".into(), rss);
    e.insert("jobs_per_s".into(), n / wall_total);
    e.insert("job_p50_ms".into(), p50_s * 1e3);
    e.insert("job_p95_ms".into(), tail_s * 1e3);
    e.insert(
        "failed_frac".into(),
        ratio(out.failed as f64, out.attempted as f64),
    );

    // --- checks -----------------------------------------------------------
    let finished: u64 = rounds.iter().map(|x| x.result.metrics.finished_walks).sum();
    out.checks.push(Check::new(
        "walks_finished",
        finished == out.attempted,
        format!("{finished} of {} injected walks finished", out.attempted),
    ));
    if matches!(kind, Kind::DeepwalkRam | Kind::DeepwalkOoc) {
        let want = last.walks * WALK_LENGTH as u64;
        out.checks.push(Check::new(
            "deepwalk_steps_exact",
            rounds.iter().all(|x| x.result.metrics.total_steps == want),
            format!(
                "{} steps per round, want walks x length = {want}",
                m.total_steps
            ),
        ));
    }
    let unequal = rounds
        .iter()
        .find_map(|x| first_difference(&deterministic_map(&x.result), &det, &[]));
    out.checks.push(Check::new(
        "rounds_identical",
        unequal.is_none(),
        unequal.unwrap_or_else(|| {
            format!(
                "{} rounds, {} deterministic counters each",
                rounds.len(),
                det.len()
            )
        }),
    ));
    let mut finals = [0u64; ACC_SLOTS];
    for x in &rounds {
        for (slot, v) in finals.iter_mut().zip(counter_slots(&x.result.metrics)) {
            *slot += v;
        }
    }
    out.checks.push(Check::new(
        "accumulator_matches_counters",
        acc.totals() == &finals,
        format!(
            "slice deltas sum to {:?}, final counters to {finals:?}",
            acc.totals()
        ),
    ));
    out.deterministic = det.clone();

    // --- verification that needs the RAM graph (after the RSS sample) -----
    let ram_graph = match &env.store {
        GraphStore::Ram(g) => g.clone(),
        GraphStore::OutOfCore(_) => load_ram_graph(ctx, false)?,
    };
    if kind == Kind::DeepwalkOoc {
        let ram_env = Env {
            store: GraphStore::Ram(ram_graph.clone()),
            ..env.clone()
        };
        let reference = run_round(
            kind,
            ctx.seed,
            build_engine(&ram_env, false)?,
            None,
            &mut Tracer::new(false),
            &mut DeltaAcc::default(),
        )?;
        let diff = first_difference(&deterministic_map(&reference.result), &det, &HOST_TIER);
        out.checks.push(Check::new(
            "ooc_matches_ram",
            diff.is_none() && m.host_decode_bytes > 0,
            diff.unwrap_or_else(|| {
                format!(
                    "GpuStats and deterministic Metrics equal a RAM run; {} B decoded",
                    m.host_decode_bytes
                )
            }),
        ));
    }
    if !ctx.traced {
        return Ok((out, Vec::new()));
    }

    // --- per-layer (traced pass only) -------------------------------------
    let totals = acc.totals();
    let per_round = |ns: u64| ns as f64 / 1e9 / n;
    let run_wall = wall_total / n;
    let kernel_s = per_round(totals[ACC_KERNEL_NS]);
    let reshuffle_s = per_round(totals[ACC_RESHUFFLE_NS]);
    let decode_s = per_round(totals[ACC_DECODE_NS]);
    let inject_s = rounds.iter().map(|x| x.inject_s).sum::<f64>() / n;
    let mutate_s = rounds.iter().map(|x| x.mutate_s).sum::<f64>() / n;
    let seal_all = sorted(
        rounds
            .iter()
            .flat_map(|x| x.seal_ms.iter().copied())
            .collect(),
    );
    let seal_s = seal_all.iter().sum::<f64>() / 1e3 / n;
    let slices = sorted(
        rounds
            .iter()
            .flat_map(|x| x.slice_ms.iter().copied())
            .collect(),
    );
    let steps = m.total_steps as f64;
    let ops: u64 = lt_gpusim::Category::ALL
        .iter()
        .map(|&c| r.gpu.category(c).count)
        .sum();
    let makespan = r.gpu.makespan_ns as f64;

    let mut p: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        p.insert(k.to_string(), v);
    };
    put("run.wall_s", run_wall);
    put("run.rounds", n);

    put("engine.construct_s", env.construct_s);
    put("engine.inject_s", inject_s);
    put("kernel.wall_s", kernel_s);
    put("reshuffle.wall_s", reshuffle_s);
    put("hostcache.decode_wall_s", decode_s);
    put("delta.mutate_s", mutate_s);
    put("delta.seal_s", seal_s);
    put(
        "engine.unattributed_s",
        run_wall - inject_s - kernel_s - reshuffle_s - decode_s - mutate_s - seal_s,
    );
    put("kernel.share", ratio(kernel_s, run_wall));
    put("reshuffle.share", ratio(reshuffle_s, run_wall));
    put("hostcache.share", ratio(decode_s, run_wall));

    put("kernel.steps_per_s", ratio(steps, kernel_s));
    put("kernel.invocations", m.host_kernels as f64);
    put("kernel.max_threads", m.max_kernel_threads as f64);
    put("reshuffle.invocations", m.host_reshuffles as f64);
    put("reshuffle.ns_per_step", ratio(reshuffle_s * 1e9, steps));

    put("hostcache.decode_bytes", m.host_decode_bytes as f64);
    put("hostcache.hits", m.host_cache_hits as f64);
    put("hostcache.misses", m.host_cache_misses as f64);
    put("hostcache.evictions", m.host_cache_evictions as f64);
    put(
        "hostcache.hit_rate",
        ratio(
            m.host_cache_hits as f64,
            (m.host_cache_hits + m.host_cache_misses) as f64,
        ),
    );
    put(
        "hostcache.effective_gbps",
        ratio(m.host_decode_bytes as f64 / 1e9, decode_s),
    );
    put(
        "hostcache.decode_amplification",
        ratio(m.host_decode_bytes as f64, r.gpu.graph_load.bytes as f64),
    );

    if let Some(x) = &last.exec {
        put("exec.workers", x.workers as f64);
        put("exec.tasks", x.tasks as f64);
        put("exec.caller_tasks", x.caller_tasks as f64);
        put(
            "exec.busy_frac",
            ratio(x.busy_ns as f64, x.uptime_ns as f64 * x.workers as f64),
        );
    }
    put(
        "exec.spec_hit_rate",
        ratio(
            m.host_spec_hits as f64,
            (m.host_spec_hits + m.host_spec_misses) as f64,
        ),
    );
    put("exec.strategy_switches", m.host_strategy_switches as f64);
    put("exec.spawn_rounds", m.host_spawn_rounds as f64);

    put("engine.iterations", m.iterations as f64);
    put("engine.graph_pool_hit_rate", m.graph_pool_hit_rate());
    put(
        "engine.explicit_graph_copies",
        m.explicit_graph_copies as f64,
    );
    put("engine.zero_copy_kernels", m.zero_copy_kernels as f64);
    put("engine.preemptive_batches", m.preemptive_batches as f64);
    put("engine.walk_batches_loaded", m.walk_batches_loaded as f64);
    put("engine.walk_batches_evicted", m.walk_batches_evicted as f64);
    let (slice_p50, _, slice_tail) = latency_summary(&slices);
    put("engine.step_slice_p50_ms", slice_p50);
    put("engine.step_slice_p95_ms", slice_tail);
    put("walkpool.host_peak_walkers", m.host_peak_walkers as f64);

    put("gpusim.makespan_ns", makespan);
    put("gpusim.h2d_util", ratio(r.gpu.h2d_busy_ns as f64, makespan));
    put("gpusim.d2h_util", ratio(r.gpu.d2h_busy_ns as f64, makespan));
    put(
        "gpusim.compute_util",
        ratio(r.gpu.compute_busy_ns as f64, makespan),
    );
    put("gpusim.graph_load_bytes", r.gpu.graph_load.bytes as f64);
    put("gpusim.walk_load_bytes", r.gpu.walk_load.bytes as f64);
    put("gpusim.walk_evict_bytes", r.gpu.walk_evict.bytes as f64);
    put("gpusim.zero_copy_bytes", r.gpu.zero_copy.bytes as f64);
    put("gpusim.graph_reload_bytes", r.gpu.graph_reload.bytes as f64);
    put("gpusim.kernel_update_ns", r.gpu.kernel_update_ns as f64);
    put(
        "gpusim.kernel_reshuffle_ns",
        r.gpu.kernel_reshuffle_ns as f64,
    );
    put("gpusim.ops", ops as f64);
    put("gpusim.host_us_per_op", ratio(run_wall * 1e6, ops as f64));

    let (seal_p50, _, seal_tail) = latency_summary(&seal_all);
    put("delta.seal_p50_ms", seal_p50);
    put("delta.seal_p95_ms", seal_tail);
    put("delta.epochs", m.epochs as f64);
    put("delta.dirty_partitions", last.dirty_partitions as f64);
    put("delta.reload_copies", m.reload_copies as f64);
    put("delta.reload_bytes", m.reload_bytes as f64);
    put("delta.compactions", m.compactions as f64);

    // The harness's own spans must tell the same story as its timers.
    let spans = span_totals(tracer.spans());
    let span_round = spans.get("run.round").map_or(0.0, |t| t.total_s);
    out.checks.push(Check::new(
        "spans_cover_run_wall",
        (span_round - wall_total).abs() <= 0.001 * wall_total + 1e-3,
        format!("run.round spans total {span_round:.4} s, timers {wall_total:.4} s"),
    ));

    // Isolated micro-loops: one layer each, nothing else running.
    match &env.store {
        GraphStore::Ram(_) => put("graph.read_binary_s", env.load_s),
        GraphStore::OutOfCore(ooc) => {
            put("oocore.open_s", env.load_s);
            put(
                "oocore.compression_ratio",
                ratio(ooc.uncompressed_bytes() as f64, ooc.file_bytes() as f64),
            );
            put("oocore.decode_gbps", probes::decode_gbps(ooc)?);
        }
    }
    let (pg, build_s, extract_gbps) = probes::partition_probe(&ram_graph, env.cfg.partition_bytes);
    if matches!(env.store, GraphStore::Ram(_)) {
        put("graph.partition_build_s", build_s);
        put("graph.extract_gbps", extract_gbps);
    }
    put(
        "kernel.host_step_ns",
        probes::host_step_ns(&ram_graph, env.alg.as_ref(), ctx.seed),
    );
    put(
        "reshuffle.groups_ns_per_mover",
        probes::groups_ns_per_mover(&pg),
    );

    // The traffic ledger: exactness, size and cost, on the baseline
    // workload only (the others would measure the same code).
    if kind == Kind::DeepwalkRam {
        let on = run_round(
            kind,
            ctx.seed,
            build_engine(&env, true)?,
            None,
            &mut Tracer::new(false),
            &mut DeltaAcc::default(),
        )?;
        let g = &on.result.gpu;
        let (h2d, d2h, reload, cells) = on.ledger.ok_or("attribution run produced no ledger")?;
        let exact = h2d == g.h2d_bytes() && d2h == g.d2h_bytes() && reload == g.reload_bytes();
        let same = first_difference(&deterministic_map(&on.result), &det, &[]);
        out.checks.push(Check::new(
            "ledger_matches_device",
            exact && same.is_none(),
            same.unwrap_or_else(|| {
                format!(
                    "ledger h2d {h2d} d2h {d2h} reload {reload} vs device {} {} {}",
                    g.h2d_bytes(),
                    g.d2h_bytes(),
                    g.reload_bytes()
                )
            }),
        ));
        put("telemetry.ledger_cells", cells as f64);
        put(
            "telemetry.attribution_overhead_frac",
            on.wall_s / median(&walls) - 1.0,
        );
    }
    out.per_layer = p;
    Ok((out, tracer.into_spans()))
}
