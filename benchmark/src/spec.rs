//! The benchmark's vocabulary: workload names, input sizes, and every
//! metric with its unit, direction and bound. `BENCHMARK.json`, the
//! README tables, `run`, `trace` and `compare` all use these names; a
//! unit test pins `BENCHMARK.json` to this file.

/// Bumped whenever a workload or a metric definition changes, so result
/// files measured under different definitions are never compared.
pub const HARNESS_VERSION: u32 = 1;

/// Default measuring time per workload (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 4;

/// `setup_s` is the median of repeated set-ups: at least this many, and
/// as many more as fit in [`SETUP_BUDGET_S`] (a 2 ms set-up needs a
/// larger sample than an 80 ms one to give a steady median).
pub const SETUP_MIN_REPS: usize = 7;
pub const SETUP_MAX_REPS: usize = 200;
pub const SETUP_BUDGET_S: f64 = 0.4;

/// Scheduler iterations per traced `Session::step` slice.
pub const TRACE_SLICE: u64 = 64;

/// Scheduler iterations between epoch seals on `temporal_evolving`.
pub const EVOLVE_SLICE: u64 = 32;

/// Served jobs checked against an isolated run: every this-many-th.
pub const SERVE_CHECK_EVERY: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DeepwalkRam,
    DeepwalkOoc,
    Node2vecRam,
    TemporalEvolving,
    ServeTcp,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// One line: which layers it loads and why that is worth a workload.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "deepwalk_ram",
        kind: Kind::DeepwalkRam,
        why: "Batch-corpus baseline on a RAM graph: reshuffle and kernel do the work, hostcache does none.",
    },
    Workload {
        name: "deepwalk_ooc",
        kind: Kind::DeepwalkOoc,
        why: "Same walks on the compressed out-of-core store: decode and hostcache dominate; output must equal deepwalk_ram.",
    },
    Workload {
        name: "node2vec_ram",
        kind: Kind::Node2vecRam,
        why: "Second-order walks: prev-neighbour reads and zero copy load the kernel layer differently from DeepWalk.",
    },
    Workload {
        name: "temporal_evolving",
        kind: Kind::TemporalEvolving,
        why: "Temporal walks with an epoch sealed every 32 iterations: writes beside reads, seal and reload cost show here.",
    },
    Workload {
        name: "serve_tcp",
        kind: Kind::ServeTcp,
        why: "Closed loop of 2 TCP tenants submitting DeepWalk jobs: scheduler pump, attribution and wire dominate.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Input sizes. The full sizes are the benchmark; the smoke sizes run the
/// same code and the same checks in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// R-MAT scale of the library graph (`G18` / `G14`).
    pub graph_scale: u32,
    /// R-MAT scale of the serving graph (`G16` / `G12`).
    pub serve_scale: u32,
    /// Walks per served job.
    pub job_walks: u64,
    /// Steps per served walk.
    pub job_length: u32,
    /// Fewest jobs each tenant submits, whatever the measuring time.
    pub min_jobs_per_client: usize,
}

/// R-MAT edge factor of every input graph.
pub const EDGE_FACTOR: u32 = 16;
/// R-MAT seed of every input graph. The topology is part of the
/// benchmark's definition, not of `--seed`: two R-MAT instances of one
/// scale differ by up to 25 % in steps/s (partition boundaries and hub
/// placement move), which would drown every bound. `--seed` drives what
/// can vary without changing the workload's character: every walk's
/// random stream, the edge timestamps, the mutation schedule and the
/// served jobs' seeds.
pub const GRAPH_SEED: u64 = 42;
/// Steps per library walk.
pub const WALK_LENGTH: u32 = 80;
/// Partitions the plain graph is cut into (the timestamped graph, twice
/// the bytes per edge at the same partition size, gets about double).
pub const PARTITIONS: u64 = 48;
/// Device graph-pool blocks: a quarter of the plain graph resident.
pub const GRAPH_POOL_BLOCKS: usize = 12;
/// Timestamp horizon of the temporal graph and the walk's window.
pub const TIME_HORIZON: u32 = 64;
pub const TIME_WINDOW: u32 = 16;
/// Edge updates per sealed epoch, and the locality window they fall in.
pub const MUTATIONS_PER_EPOCH: u64 = 2000;
pub const MUTATION_WINDOW: f64 = 0.05;
/// Concurrent closed-loop tenants on `serve_tcp`.
pub const SERVE_CLIENTS: usize = 2;
/// Each tenant keeps submitting past the measuring time until it has this
/// many jobs, so that p95 always has ten samples beyond it (2 x 105 x 5 %).
pub const SERVE_MIN_JOBS_PER_CLIENT: usize = 105;

impl Sizes {
    pub fn for_run(smoke: bool) -> Self {
        if smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        }
    }

    fn full() -> Self {
        Sizes {
            graph_scale: 18,
            serve_scale: 16,
            job_walks: 2048,
            job_length: 40,
            min_jobs_per_client: SERVE_MIN_JOBS_PER_CLIENT,
        }
    }

    fn smoke() -> Self {
        Sizes {
            graph_scale: 14,
            serve_scale: 12,
            job_walks: 256,
            job_length: 20,
            min_jobs_per_client: 5,
        }
    }
}

impl Kind {
    /// Walks per round, as a multiple of |V|.
    pub fn walks_per_vertex(self) -> u64 {
        match self {
            Kind::DeepwalkRam | Kind::DeepwalkOoc | Kind::TemporalEvolving => 4,
            Kind::Node2vecRam => 2,
            Kind::ServeTcp => 0,
        }
    }

    pub fn is_library(self) -> bool {
        self != Kind::ServeTcp
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// On which workloads a metric is a pure function of the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exact {
    /// A host wall-clock or memory figure: noisy everywhere.
    Never,
    /// Simulated clock: exact on the library workloads; on `serve_tcp` it
    /// depends on how the tenants' jobs interleave, so it is reported but
    /// neither exact nor bounded there.
    Library,
    /// A count that must repeat on every workload.
    Always,
}

/// An end-to-end metric: something a user of the system sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which it may worsen.
    pub bound: f64,
    /// Absolute slack added to the bound (`setup_s`: "20 % or 50 ms").
    pub abs_slack: f64,
    /// Where the value repeats to the last digit, so that `compare`
    /// demands equality instead of applying `bound`.
    pub exact: Exact,
    /// Listed under `end_to_end` in `BENCHMARK.json`. The exact metrics
    /// are not: the driver's contract wants wall-clock metrics that are
    /// never 0 and carry a noise bound, so they ride in `per_layer`.
    pub gated: bool,
    pub clock: &'static str,
}

use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        abs_slack: 0.05,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        abs_slack: 0.0,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "sim_steps_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.0,
        abs_slack: 0.0,
        exact: Exact::Library,
        gated: false,
        clock: "simulated",
    },
    EndToEnd {
        name: "link_bytes_per_step",
        unit: "B/step",
        better: Lower,
        bound: 0.0,
        abs_slack: 0.0,
        exact: Exact::Library,
        gated: false,
        clock: "simulated",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.25,
        abs_slack: 0.0,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "jobs_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
        abs_slack: 0.0,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "job_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        abs_slack: 0.0,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "job_p95_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
        abs_slack: 0.0,
        exact: Exact::Never,
        gated: true,
        clock: "host",
    },
    EndToEnd {
        name: "failed_frac",
        unit: "ratio",
        better: Lower,
        bound: 0.0,
        abs_slack: 0.0,
        exact: Exact::Always,
        gated: false,
        clock: "count",
    },
];

/// A per-layer metric, read from the traced pass.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only `BENCHMARK.json` states a direction for per-layer metrics;
    /// the consistency test reads it from here.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lm(name: &'static str, unit: &'static str, better: Better) -> LayerMetric {
    LayerMetric { name, unit, better }
}

/// Every per-layer metric. Each workload's traced pass reports all of
/// them; a layer the workload bypasses reads 0, which is the control.
pub const PER_LAYER: [LayerMetric; 87] = [
    lm("sim_steps_per_s", "1/s", Higher),
    lm("link_bytes_per_step", "B/step", Lower),
    lm("failed_frac", "ratio", Lower),
    lm("trace.overhead_frac", "ratio", Lower),
    lm("graph.read_binary_s", "s", Lower),
    lm("graph.partition_build_s", "s", Lower),
    lm("graph.extract_gbps", "GB/s", Higher),
    lm("oocore.open_s", "s", Lower),
    lm("oocore.write_s", "s", Lower),
    lm("oocore.compression_ratio", "ratio", Higher),
    lm("oocore.decode_gbps", "GB/s", Higher),
    lm("hostcache.decode_wall_s", "s", Lower),
    lm("hostcache.share", "ratio", Lower),
    lm("hostcache.decode_bytes", "B", Lower),
    lm("hostcache.hits", "count", Higher),
    lm("hostcache.misses", "count", Lower),
    lm("hostcache.evictions", "count", Lower),
    lm("hostcache.hit_rate", "ratio", Higher),
    lm("hostcache.effective_gbps", "GB/s", Higher),
    lm("hostcache.decode_amplification", "ratio", Lower),
    lm("kernel.wall_s", "s", Lower),
    lm("kernel.share", "ratio", Lower),
    lm("kernel.steps_per_s", "1/s", Higher),
    lm("kernel.invocations", "count", Lower),
    lm("kernel.max_threads", "count", Higher),
    lm("kernel.host_step_ns", "ns", Lower),
    lm("reshuffle.wall_s", "s", Lower),
    lm("reshuffle.share", "ratio", Lower),
    lm("reshuffle.invocations", "count", Lower),
    lm("reshuffle.ns_per_step", "ns", Lower),
    lm("reshuffle.groups_ns_per_mover", "ns", Lower),
    lm("exec.workers", "count", Higher),
    lm("exec.tasks", "count", Lower),
    lm("exec.caller_tasks", "count", Lower),
    lm("exec.busy_frac", "ratio", Higher),
    lm("exec.spec_hit_rate", "ratio", Higher),
    lm("exec.strategy_switches", "count", Lower),
    lm("exec.spawn_rounds", "count", Lower),
    lm("engine.construct_s", "s", Lower),
    lm("engine.inject_s", "s", Lower),
    lm("engine.iterations", "count", Lower),
    lm("engine.graph_pool_hit_rate", "ratio", Higher),
    lm("engine.explicit_graph_copies", "count", Lower),
    lm("engine.zero_copy_kernels", "count", Lower),
    lm("engine.preemptive_batches", "count", Higher),
    lm("engine.walk_batches_loaded", "count", Lower),
    lm("engine.walk_batches_evicted", "count", Lower),
    lm("engine.step_slice_p50_ms", "ms", Lower),
    lm("engine.step_slice_p95_ms", "ms", Lower),
    lm("engine.unattributed_s", "s", Lower),
    lm("walkpool.host_peak_walkers", "count", Lower),
    lm("gpusim.makespan_ns", "ns", Lower),
    lm("gpusim.h2d_util", "ratio", Higher),
    lm("gpusim.d2h_util", "ratio", Higher),
    lm("gpusim.compute_util", "ratio", Higher),
    lm("gpusim.graph_load_bytes", "B", Lower),
    lm("gpusim.walk_load_bytes", "B", Lower),
    lm("gpusim.walk_evict_bytes", "B", Lower),
    lm("gpusim.zero_copy_bytes", "B", Lower),
    lm("gpusim.graph_reload_bytes", "B", Lower),
    lm("gpusim.kernel_update_ns", "ns", Lower),
    lm("gpusim.kernel_reshuffle_ns", "ns", Lower),
    lm("gpusim.ops", "count", Lower),
    lm("gpusim.host_us_per_op", "us", Lower),
    lm("delta.mutate_s", "s", Lower),
    lm("delta.seal_s", "s", Lower),
    lm("delta.seal_p50_ms", "ms", Lower),
    lm("delta.seal_p95_ms", "ms", Lower),
    lm("delta.epochs", "count", Higher),
    lm("delta.dirty_partitions", "count", Lower),
    lm("delta.reload_copies", "count", Lower),
    lm("delta.reload_bytes", "B", Lower),
    lm("delta.compactions", "count", Lower),
    lm("server.pumps", "count", Lower),
    lm("server.pump_p50_ms", "ms", Lower),
    lm("server.pump_p95_ms", "ms", Lower),
    lm("server.submit_p50_us", "us", Lower),
    lm("server.sched_steps_per_s", "1/s", Higher),
    lm("server.handle_jobs_per_s", "1/s", Higher),
    lm("wire.bytes_per_job", "B", Lower),
    lm("wire.submit_rtt_p50_us", "us", Lower),
    lm("wire.metrics_op_ms", "ms", Lower),
    lm("wire.overhead_frac", "ratio", Lower),
    lm("telemetry.ledger_cells", "count", Lower),
    lm("telemetry.attribution_overhead_frac", "ratio", Lower),
    lm("run.wall_s", "s", Lower),
    lm("run.rounds", "count", Higher),
];

/// The terms of the budget line, in print order. Their sum plus
/// `engine.unattributed_s` is the run wall.
pub const BUDGET_TERMS: [&str; 6] = [
    "engine.inject_s",
    "kernel.wall_s",
    "reshuffle.wall_s",
    "hostcache.decode_wall_s",
    "delta.mutate_s",
    "delta.seal_s",
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(
            &std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"),
        )
        .expect("BENCHMARK.json parses")
    }

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(
                name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in END_TO_END.iter().filter(|m| m.gated) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{} bound", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        // Every ungated end-to-end metric still reaches the driver, as a
        // per-layer entry under the same name and unit.
        for m in END_TO_END.iter().filter(|m| !m.gated) {
            let l = PER_LAYER.iter().find(|l| l.name == m.name).expect(m.name);
            assert_eq!((l.unit, l.better), (m.unit, m.better), "{}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for t in BUDGET_TERMS {
            assert!(PER_LAYER.iter().any(|m| m.name == t), "{t}");
        }
    }

    #[test]
    fn benchmark_json_matches_this_file() {
        let j = benchmark_json();
        let keys: Vec<&str> = j.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(j["run_seconds"].as_u64(), Some(RUN_SECONDS));
        assert_eq!(j["paths"].as_array().unwrap().len(), 1);
        assert_eq!(j["paths"][0], "benchmark");

        let wl = j["workloads"].as_array().unwrap();
        assert_eq!(wl.len(), WORKLOADS.len());
        for (got, want) in wl.iter().zip(&WORKLOADS) {
            assert_eq!(got["name"], want.name);
            assert_eq!(got["why"], want.why);
        }

        let gated: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.gated).collect();
        let e2e = j["end_to_end"].as_array().unwrap();
        assert_eq!(e2e.len(), gated.len());
        for (got, want) in e2e.iter().zip(gated) {
            assert_eq!(got["name"], want.name);
            assert_eq!(got["unit"], want.unit);
            assert_eq!(got["better"], want.better.as_str());
            assert_eq!(got["bound"].as_f64(), Some(want.bound), "{}", want.name);
        }
        assert!(e2e
            .iter()
            .any(|m| m["name"] == "setup_s" && m["unit"] == "s" && m["better"] == "lower"));

        let layers = j["per_layer"].as_array().unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(got["name"], want.name);
            assert_eq!(got["unit"], want.unit);
            assert_eq!(got["better"], want.better.as_str());
            assert_eq!(got.as_object().unwrap().len(), 3);
        }
    }
}
