//! Differential battery for the out-of-core compressed CSR substrate:
//! an engine reading partitions from a bit-packed compressed file
//! through the host decode cache must be **bit-identical** to the same
//! engine over the RAM-resident graph — same walks, same paths, same
//! simulated clock, same device-stats breakdown — across kernel thread
//! counts (inline stepping at 1, kernels fanned out over the pool above) and
//! retryable fault injection.
//!
//! The only outputs allowed to differ are the host-tier counters the RAM
//! store never touches (`host_decode_bytes`, `host_cache_*`) and the
//! host-only bookkeeping `RunResult::deterministic_fingerprint` zeroes. A separate test pins the host-tier counters themselves:
//! decode and cache behavior is schedule-deterministic, so OOC runs
//! fingerprint identically across thread counts *without* masking them.
//!
//! A third test gates *how much* the tier decodes: one fetch per graph
//! copy and per zero-copy kernel unless the walk is second-order.
//!
//! Also covered: the DESIGN.md §14 exactness invariant extended to the
//! host tier — every decoded byte lands in exactly one
//! `(SHARED_TAG, partition, host_load)` ledger cell, and the link
//! directions stay untouched by host-tier traffic — and mutation: epoch
//! seals over the file equal the RAM twin's and the naive evolving
//! walker's.

mod common;

use common::{random_graph, schedule, visits_from_paths};
use lighttraffic::baselines::evolving::{run_evolving_waves, Wave};
use lighttraffic::engine::algorithm::{
    PageRank, SecondOrderWalk, TemporalWalk, UniformSampling, WalkAlgorithm, WeightedWalk,
};
use lighttraffic::engine::{
    EngineConfig, EngineError, JobSpec, JobTable, LightTraffic, RunResult, ZeroCopyPolicy,
};
use lighttraffic::gpusim::{FaultPlan, GpuConfig};
use lighttraffic::graph::gen::{with_random_timestamps, with_random_weights};
use lighttraffic::graph::oocore::write_oocore;
use lighttraffic::graph::{Csr, GraphError, GraphStore, OocGraph, PartitionedGraph};
use lighttraffic::telemetry::SHARED_TAG;
use std::sync::Arc;

const SEED: u64 = 42;
const PARTITION_BYTES: u64 = 8 << 10;
/// Walks per run: enough that some partition fills a batch past
/// the kernel's fan-out threshold.
const WALKS: u64 = 3_000;

/// The two embedding-style workloads of the battery (same pair as
/// `differential.rs`; node2vec pins zero copy for the second-order
/// asymmetry documented there, which on an out-of-core store exercises
/// the `OocHostView` path).
fn algorithms() -> Vec<(&'static str, Arc<dyn WalkAlgorithm>, ZeroCopyPolicy)> {
    vec![
        (
            "deepwalk",
            Arc::new(UniformSampling::new(8)) as Arc<dyn WalkAlgorithm>,
            ZeroCopyPolicy::adaptive(),
        ),
        (
            "node2vec",
            Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
            ZeroCopyPolicy::Always,
        ),
    ]
}

fn config(
    zero_copy: ZeroCopyPolicy,
    kernel_threads: usize,
    faults: Option<FaultPlan>,
) -> EngineConfig {
    EngineConfig {
        // Batches large enough that pooled runs fan kernels out.
        batch_capacity: 512,
        seed: SEED,
        record_paths: true,
        attribution: true,
        zero_copy,
        kernel_threads,
        gpu: GpuConfig {
            faults,
            ..GpuConfig::default()
        },
        ..EngineConfig::light_traffic(PARTITION_BYTES, 4)
    }
}

/// Write `g` to a compressed out-of-core file (partitioned at the same
/// budget the RAM engine uses, so both substrates share one partition
/// geometry) and open it back. The file is unlinked immediately — the
/// open descriptor keeps the data readable.
fn ooc_graph(g: &Arc<Csr>, name: &str) -> Arc<OocGraph> {
    let pg = PartitionedGraph::build(Arc::clone(g), PARTITION_BYTES);
    let mut path = std::env::temp_dir();
    path.push(format!("lt_diff_ooc_{name}_{}.ltg", std::process::id()));
    write_oocore(&pg, &path).expect("write out-of-core file");
    let ooc = OocGraph::open(&path).expect("reopen out-of-core file");
    std::fs::remove_file(&path).ok();
    Arc::new(ooc)
}

fn run_ram(g: &Arc<Csr>, alg: &Arc<dyn WalkAlgorithm>, cfg: EngineConfig) -> RunResult {
    let mut e = LightTraffic::new(Arc::clone(g), Arc::clone(alg), cfg).expect("pools fit");
    e.run(WALKS).expect("run completes")
}

fn run_ooc(ooc: &Arc<OocGraph>, alg: &Arc<dyn WalkAlgorithm>, cfg: EngineConfig) -> RunResult {
    let mut e =
        LightTraffic::from_store(GraphStore::OutOfCore(Arc::clone(ooc)), Arc::clone(alg), cfg)
            .expect("pools fit");
    e.run(WALKS).expect("run completes")
}

/// The deterministic fingerprint with the host-tier counters additionally
/// masked — the substrate-comparison form (a RAM store never decodes, so
/// these are the one legitimate Ram/OOC difference).
fn tier_masked_fingerprint(mut r: RunResult) -> String {
    r.metrics.host_decode_bytes = 0;
    r.metrics.host_cache_hits = 0;
    r.metrics.host_cache_misses = 0;
    r.metrics.host_cache_evictions = 0;
    r.deterministic_fingerprint()
}

/// The acceptance matrix: every OutOfCore cell of kernel_threads ×
/// retryable faults is bit-identical, outside the host tier, to the RAM
/// engine at `kernel_threads: 1` (the inline reference). The OOC run must
/// actually exercise the tier (decode bytes flow on every cell — the
/// store has no other source of adjacency), and some pooled cell must
/// actually fan a kernel out.
#[test]
fn ooc_is_bit_identical_to_ram_across_threads_and_faults() {
    for graph_seed in [3u64, 8] {
        let g = random_graph(graph_seed);
        for (name, alg, zc) in algorithms() {
            let ooc = ooc_graph(&g, &format!("battery_{graph_seed}_{name}"));
            let mut fanned_out = false;
            for fault_seed in [None, Some(7u64)] {
                let faults = fault_seed.map(|s| FaultPlan::retryable_only(s, 0.05));
                let ram = run_ram(&g, &alg, config(zc, 1, faults.clone()));
                assert_eq!(
                    ram.metrics.host_decode_bytes, 0,
                    "RAM stores must never touch the host decode tier"
                );
                assert_eq!(ram.metrics.max_kernel_threads, 1);
                let reference = tier_masked_fingerprint(ram);
                for kernel_threads in [1usize, 2, 4, 8] {
                    let ooc_run = run_ooc(&ooc, &alg, config(zc, kernel_threads, faults.clone()));
                    assert!(
                        ooc_run.metrics.host_decode_bytes > 0,
                        "OOC run never decoded — the substrate was not exercised"
                    );
                    fanned_out |= ooc_run.metrics.max_kernel_threads > 1;
                    assert_eq!(
                        tier_masked_fingerprint(ooc_run),
                        reference,
                        "graph seed {graph_seed}, {name}, kt={kernel_threads}, faults={}: \
                         out-of-core run diverged from RAM at kernel_threads=1",
                        fault_seed.is_some()
                    );
                }
            }
            assert!(
                fanned_out,
                "graph seed {graph_seed}, {name}: no pooled run fanned out"
            );
        }
    }
}

/// A [`JobTable`] mixing DeepWalk, temporal and node2vec jobs reads
/// second-order context for every batch, so first-order walkers ride
/// through kernels that serve it, and a temporal clock in `aux` both
/// aliases vertex ids and exceeds |V|. Out of core still equals RAM.
#[test]
fn mixed_job_table_over_ooc_matches_ram() {
    let g = Arc::new(with_random_timestamps(&random_graph(8), 9, 5_000));
    let ooc = ooc_graph(&g, "mixed_table");
    let temporal = JobSpec {
        algorithm: Arc::new(TemporalWalk::new(8, 2_000)),
        ..JobSpec::deepwalk(300, 8, 13)
    };
    let specs = [
        JobSpec::deepwalk(300, 8, 11),
        temporal,
        JobSpec::node2vec(300, 8, 0.5, 2.0, 12),
    ];
    let table = Arc::new(JobTable::with_capacity(specs.len()));
    let mut walkers = Vec::new();
    for spec in &specs {
        // The table is first-order until the node2vec job registers.
        assert!(!table.reads_prev_neighbors());
        let tag = table.register(Arc::clone(&spec.algorithm), spec.seed);
        // Job-local ids restart at 0; shift them so paths stay one per walk.
        let base = walkers.len() as u64;
        for i in 0..spec.num_walks() {
            let tag = tag.as_ref().expect("table has room");
            let mut w = spec.place_walker(g.num_vertices(), *tag, i).unwrap();
            w.id += base;
            walkers.push(w);
        }
    }
    let alg: Arc<dyn WalkAlgorithm> = table;
    assert!(alg.reads_prev_neighbors());
    let cfg = |kernel_threads| config(ZeroCopyPolicy::Always, kernel_threads, None);
    let mut ram = LightTraffic::new(Arc::clone(&g), Arc::clone(&alg), cfg(1)).expect("pools fit");
    ram.inject(walkers.clone());
    let reference = tier_masked_fingerprint(ram.finish().unwrap());
    for kernel_threads in [1usize, 4] {
        let store = GraphStore::OutOfCore(Arc::clone(&ooc));
        let mut e = LightTraffic::from_store(store, Arc::clone(&alg), cfg(kernel_threads))
            .expect("pools fit");
        e.inject(walkers.clone());
        let r = e.finish().expect("run completes");
        assert!(r.metrics.zero_copy_kernels > 0);
        assert_eq!(
            tier_masked_fingerprint(r),
            reference,
            "kt={kernel_threads}: mixed job table diverged from RAM"
        );
    }
}

/// The host tier itself is deterministic: OOC fingerprints — *including*
/// decode bytes and cache hit/miss/eviction counts — are identical
/// across kernel thread counts. Decode requests happen at
/// schedule-deterministic points on the scheduler thread; worker fan-out
/// only splits fixed chunk boundaries.
#[test]
fn ooc_host_tier_counters_are_deterministic() {
    let g = random_graph(5);
    for (name, alg, zc) in algorithms() {
        let ooc = ooc_graph(&g, &format!("determinism_{name}"));
        let reference = run_ooc(&ooc, &alg, config(zc, 1, None)).deterministic_fingerprint();
        for kernel_threads in [2usize, 4, 8] {
            let r = run_ooc(&ooc, &alg, config(zc, kernel_threads, None));
            assert_eq!(
                r.deterministic_fingerprint(),
                reference,
                "{name}, kt={kernel_threads}: host-tier counters are not \
                 schedule-deterministic"
            );
        }
    }
}

/// A small host cache under memory pressure must evict — and eviction
/// must not change any output: at `graph_pool_blocks: 1` the cache has
/// two slots for the file's more than four partitions, and the run still
/// fingerprints identically to its RAM twin (host-tier counters masked).
#[test]
fn host_cache_pressure_changes_no_output() {
    let g = random_graph(8);
    let (name, alg, zc) = algorithms().remove(0);
    let ooc = ooc_graph(&g, &format!("pressure_{name}"));
    let cfg = || EngineConfig {
        graph_pool_blocks: 1,
        ..config(zc, 2, None)
    };
    let ram = run_ram(&g, &alg, cfg());
    let tight = run_ooc(&ooc, &alg, cfg());
    assert!(
        tight.metrics.host_cache_evictions > 0,
        "a two-slot cache over {} partitions never evicted",
        ooc.num_partitions()
    );
    assert_eq!(
        tier_masked_fingerprint(tight),
        tier_masked_fingerprint(ram),
        "cache pressure leaked into walk output"
    );
}

/// An out-of-core file truncated after it was opened fails the run with
/// [`EngineError::Graph`] rather than a panic, on the explicit-copy path
/// (`load_partition` fetches before its copy) and on the zero-copy path
/// (`step_batch` fetches after the batch was acquired and must put it
/// back), inline and fanned out alike — and for a second-order walk,
/// whose kernels first read the graph's multiplicity bound from the file.
/// Every walker in flight stays in the walk pools, so the engine is still
/// checkpointable.
#[test]
fn truncated_store_fails_the_run_with_walkers_conserved() {
    let g = random_graph(8);
    let pg = PartitionedGraph::build(Arc::clone(&g), PARTITION_BYTES);
    for (name, alg, _) in algorithms() {
        for zero_copy in [ZeroCopyPolicy::adaptive(), ZeroCopyPolicy::Always] {
            for kernel_threads in [1usize, 2] {
                let cell = format!("{name} {zero_copy:?} kernel_threads={kernel_threads}");
                let mut path = std::env::temp_dir();
                path.push(format!(
                    "lt_diff_ooc_truncated_{name}_{kernel_threads}_{}_{}.ltg",
                    zero_copy == ZeroCopyPolicy::Always,
                    std::process::id()
                ));
                write_oocore(&pg, &path).expect("write out-of-core file");
                let ooc = Arc::new(OocGraph::open(&path).expect("reopen out-of-core file"));
                let cfg = EngineConfig {
                    graph_pool_blocks: 1,
                    ..config(zero_copy, kernel_threads, None)
                };
                let store = GraphStore::OutOfCore(ooc);
                let mut e =
                    LightTraffic::from_store(store, Arc::clone(&alg), cfg).expect("pools fit");
                let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                file.set_len(file.metadata().unwrap().len() / 2).unwrap();
                let r = e.run(WALKS);
                std::fs::remove_file(&path).ok();
                assert!(
                    matches!(r, Err(EngineError::Graph(GraphError::Io(_)))),
                    "{cell}: expected a graph i/o error, got {:?}",
                    r.err()
                );
                assert!(e.active_walks() > 0, "{cell}");
                assert_eq!(
                    e.checkpoint().walkers.len() as u64,
                    e.active_walks(),
                    "{cell}: the failed fetch lost walkers"
                );
            }
        }
    }
}

/// The host tier decodes only what a kernel can read. A first-order walk
/// costs exactly one fetch per explicit graph copy and per zero-copy
/// kernel — never the partitions its walkers' `aux` happens to point into
/// — and at most one decoded partition per fetch; second-order walks
/// fetch their previous vertices' partitions on top.
#[test]
fn host_tier_fetches_only_what_a_kernel_reads() {
    let g = random_graph(8);
    let temporal = Arc::new(with_random_timestamps(&g, 9, 64));
    let deepwalk: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
    let cases = [
        ("deepwalk", &g, deepwalk),
        ("pagerank", &g, Arc::new(PageRank::new(8, 0.15))),
        ("temporal", &temporal, Arc::new(TemporalWalk::new(8, 16))),
        (
            "node2vec",
            &g,
            Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
        ),
    ];
    for (name, graph, alg) in cases {
        let second_order = alg.reads_prev_neighbors();
        assert_eq!(second_order, name == "node2vec", "{name}");
        let ooc = ooc_graph(graph, &format!("gate_{name}"));
        let pg = PartitionedGraph::from_ooc(Arc::clone(&ooc));
        let partitions = 0..pg.num_partitions();
        assert!(partitions.len() > 4, "{name}: {partitions:?}");
        let max_bytes = partitions.map(|p| pg.partition_bytes(p)).max().unwrap();
        for kernel_threads in [1usize, 4] {
            let cfg = config(ZeroCopyPolicy::adaptive(), kernel_threads, None);
            let m = run_ooc(&ooc, &alg, cfg).metrics;
            assert!(m.zero_copy_kernels > 0, "{name}: no zero-copy kernel ran");
            let fetches = m.host_cache_hits + m.host_cache_misses;
            let reads = m.explicit_graph_copies + m.zero_copy_kernels;
            let what = format!("{name}, kt={kernel_threads}: {fetches} fetches, {reads} reads");
            if second_order {
                assert!(fetches >= reads, "{what}");
            } else {
                assert_eq!(fetches, reads, "{what}");
                let decoded = m.host_decode_bytes;
                assert!(decoded <= reads * max_bytes, "{what}, {decoded} B decoded");
            }
        }
    }
}

/// DESIGN.md §14 extended to the host tier: every decoded byte is
/// attributed to exactly one `(SHARED_TAG, partition, host_load)` cell —
/// Σ cells == `host_decode_bytes` with zero drift — while the link
/// directions (H2D/D2H) still reconcile exactly against the device's own
/// counters, unpolluted by host-tier traffic.
#[test]
fn host_load_attribution_is_exact() {
    let g = random_graph(4);
    for (name, alg, zc) in algorithms() {
        let ooc = ooc_graph(&g, &format!("ledger_{name}"));
        let mut e = LightTraffic::from_store(
            GraphStore::OutOfCore(Arc::clone(&ooc)),
            Arc::clone(&alg),
            config(zc, 2, None),
        )
        .expect("pools fit");
        let r = e.run(WALKS).expect("run completes");
        let stats = e.gpu().stats();
        let ledger = e.traffic_ledger().expect("attribution is on");

        let (mut h2d, mut d2h, mut host_load) = (0u64, 0u64, 0u64);
        for cell in ledger.cells() {
            h2d += cell.h2d_bytes;
            d2h += cell.d2h_bytes;
            host_load += cell.host_load_bytes;
            if cell.host_load_bytes > 0 {
                assert_eq!(
                    cell.tag, SHARED_TAG,
                    "{name}: host-tier decodes are shared infrastructure"
                );
            }
        }
        assert!(host_load > 0, "{name}: no host-load traffic attributed");
        assert_eq!(
            host_load, r.metrics.host_decode_bytes,
            "{name}: ledger host-load cells drift from the decode counter"
        );
        assert_eq!(
            ledger.host_load_bytes(),
            host_load,
            "{name}: ledger total disagrees with its own cells"
        );
        assert_eq!(h2d, stats.h2d_bytes(), "{name}: ledger H2D != device");
        assert_eq!(d2h, stats.d2h_bytes(), "{name}: ledger D2H != device");
        let report = ledger.report(4);
        assert_eq!(report.host_load_bytes, host_load);
        assert_eq!(report.h2d_bytes, stats.h2d_bytes());
    }
}

/// Drive `waves` through `e`: inject each wave's walks (ids offset past
/// earlier waves), run to quiescence, then mutate and seal. Returns the
/// last wave's cumulative result.
fn run_waves(e: &mut LightTraffic, alg: &Arc<dyn WalkAlgorithm>, waves: &[Wave]) -> RunResult {
    let nv = e.partitions().num_vertices();
    let mut last = None;
    for (k, wave) in waves.iter().enumerate() {
        let offset = waves[..k].iter().map(|w| w.walks).sum::<u64>();
        let mut walkers = alg.place_walkers(nv, wave.walks);
        walkers.iter_mut().for_each(|w| w.id += offset);
        e.inject(walkers);
        last = Some(e.finish().expect("wave completes"));
        e.mutate(wave.updates.clone()).expect("schedule is valid");
        e.seal_epoch().expect("seal succeeds");
    }
    last.expect("schedule has at least one wave")
}

/// Mutation over an out-of-core store: the same seeded waves of walks and
/// epoch seals give the RAM twin's fingerprint (host tier masked) and the
/// naive evolving walker's visits, for first-order, second-order,
/// weighted and temporal walks, under adaptive and forced zero copy, at
/// one and four kernel threads, with retryable faults. A one-block graph
/// pool makes seals reload resident dirty partitions and the two-slot
/// host cache evict, and the ledger still reconciles with the device per
/// direction and with the decode counter. node2vec under `Adaptive` is
/// held to its RAM twin only: its resident kernels see `prev_neighbors`
/// only inside their partition (`differential_evolving.rs` has the same
/// exemption).
#[test]
fn mutation_over_ooc_matches_ram_and_the_naive_walker() {
    let g = random_graph(8);
    let workloads: Vec<(&str, Arc<Csr>, Arc<dyn WalkAlgorithm>)> = vec![
        ("uniform", Arc::clone(&g), Arc::new(UniformSampling::new(8))),
        (
            "node2vec",
            Arc::clone(&g),
            Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
        ),
        (
            "weighted",
            Arc::new(with_random_weights(&g, 7)),
            Arc::new(WeightedWalk::new(8)),
        ),
        (
            "temporal",
            Arc::new(with_random_timestamps(&g, 9, 16)),
            Arc::new(TemporalWalk::new(8, 4)),
        ),
    ];
    for (name, g, alg) in workloads {
        let waves = schedule(&g, 0xD15C ^ g.num_edges(), 3, 48, 1_024);
        let expected = run_evolving_waves(&g, &alg, &waves, SEED)
            .visits
            .expect("baseline tracks visits");
        let ooc = ooc_graph(&g, &format!("mutation_{name}"));
        for zero_copy in [ZeroCopyPolicy::adaptive(), ZeroCopyPolicy::Always] {
            let matches_naive = !alg.reads_prev_neighbors() || zero_copy == ZeroCopyPolicy::Always;
            for kernel_threads in [1usize, 4] {
                let at = format!("{name}: {zero_copy:?}, kt={kernel_threads}");
                let cfg = EngineConfig {
                    graph_pool_blocks: 1,
                    ..config(
                        zero_copy,
                        kernel_threads,
                        Some(FaultPlan::retryable_only(7, 0.05)),
                    )
                };
                let mut ram = LightTraffic::new(Arc::clone(&g), Arc::clone(&alg), cfg.clone())
                    .expect("pools fit");
                let ram = run_waves(&mut ram, &alg, &waves);
                let store = GraphStore::OutOfCore(Arc::clone(&ooc));
                let mut e =
                    LightTraffic::from_store(store, Arc::clone(&alg), cfg).expect("pools fit");
                let r = run_waves(&mut e, &alg, &waves);
                // Counters after the last seal, its reloads included.
                let m = e.metrics();
                assert_eq!(m.epochs, waves.len() as u64, "{at}");
                assert!(
                    m.host_cache_evictions > 0,
                    "{at}: the host cache never evicted"
                );
                if zero_copy != ZeroCopyPolicy::Always {
                    assert!(
                        m.reload_copies > 0,
                        "{at}: no seal reloaded a resident partition"
                    );
                }
                if matches_naive {
                    assert_eq!(visits_from_paths(&r, g.num_vertices()), expected, "{at}");
                }
                let stats = e.gpu().stats();
                let ledger = e.traffic_ledger().expect("attribution is on");
                assert_eq!(ledger.h2d_bytes(), stats.h2d_bytes(), "{at}: ledger H2D");
                assert_eq!(ledger.d2h_bytes(), stats.d2h_bytes(), "{at}: ledger D2H");
                assert_eq!(
                    ledger.reload_bytes(),
                    stats.reload_bytes(),
                    "{at}: ledger reload"
                );
                assert_eq!(
                    ledger.host_load_bytes(),
                    m.host_decode_bytes,
                    "{at}: host load"
                );
                assert_eq!(
                    tier_masked_fingerprint(r),
                    tier_masked_fingerprint(ram),
                    "{at}: out-of-core run diverged from its RAM twin"
                );
            }
        }
    }
}
