//! Property tests of the persistent executor (DESIGN.md §11): for any
//! thread fan-out in {2, 4, 8} and with or without retryable fault
//! injection, pooled kernels must reproduce the `kernel_threads: 1` run —
//! every batch stepped inline — **bit for bit**: metrics, recorded paths,
//! and the full simulated device breakdown. A stress test additionally
//! reuses one engine (and therefore one pool) across many `run` calls,
//! the long-lived usage the pool exists for.

use lt_engine::algorithm::{PageRank, UniformSampling};
use lt_engine::{EngineConfig, LightTraffic, RunResult};
use lt_gpusim::{FaultPlan, GpuConfig};
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::{Csr, PartitionedGraph};
use proptest::prelude::*;
use std::sync::Arc;

fn graph(seed: u64) -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 9,
            edge_factor: 6,
            seed,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn config(kernel_threads: usize, fault_seed: Option<u64>) -> EngineConfig {
    EngineConfig {
        batch_capacity: 384,
        record_paths: true,
        kernel_threads,
        gpu: GpuConfig {
            faults: fault_seed.map(|s| FaultPlan::retryable_only(s, 0.05)),
            ..GpuConfig::default()
        },
        ..EngineConfig::light_traffic(8 << 10, 4)
    }
}

fn run(g: &Arc<Csr>, cfg: EngineConfig) -> RunResult {
    let mut e =
        LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(8)), cfg).expect("pools fit");
    e.run(3_000).expect("run completes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pooled_execution_is_bit_identical_to_the_serial_drain(
        graph_seed in 0u64..1000,
        kt_idx in 0usize..3,
        inject_faults in any::<bool>(),
    ) {
        let kt = [2usize, 4, 8][kt_idx];
        let fault_seed = inject_faults.then_some(graph_seed ^ 0x5eed);
        let g = graph(graph_seed);
        let serial = run(&g, config(1, fault_seed));
        prop_assert_eq!(serial.metrics.max_kernel_threads, 1);
        let pooled = run(&g, config(kt, fault_seed));
        prop_assert!(
            pooled.metrics.max_kernel_threads > 1,
            "kt={} never fanned out", kt
        );
        prop_assert_eq!(
            pooled.deterministic_fingerprint(),
            serial.deterministic_fingerprint(),
            "kt={}, faults={} diverged from kernel_threads=1",
            kt, inject_faults
        );
    }
}

/// The tightest walk pools: the `2P + 1` floor (where every promotion
/// evicts) and one and two blocks above it, batches just large enough to
/// fan out, either
/// eviction policy. Eviction under pressure interleaves with fanned-out
/// kernels, and the run still equals the `kernel_threads: 1` one.
#[test]
fn tight_pools_match_the_serial_drain() {
    for graph_seed in [3, 7, 11] {
        let g = graph(graph_seed);
        let p = PartitionedGraph::build(g.clone(), 8 << 10).num_partitions() as usize;
        for walk_pool_blocks in [0, 2 * p + 2, 2 * p + 3] {
            for batch_capacity in [320, 384] {
                for selective in [false, true] {
                    let run = |kernel_threads| {
                        let cfg = EngineConfig {
                            batch_capacity,
                            walk_pool_blocks: Some(walk_pool_blocks),
                            selective,
                            ..config(kernel_threads, None)
                        };
                        LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(8)), cfg)
                            .expect("pools fit")
                            .run(20_000)
                            .expect("run completes")
                    };
                    let case = format!(
                        "graph seed {graph_seed}, {walk_pool_blocks} blocks, \
                         batch {batch_capacity}, selective {selective}"
                    );
                    let pooled = run(4);
                    let m = &pooled.metrics;
                    assert!(m.walk_batches_evicted > 0, "{case}: the pool must bite");
                    assert!(m.max_kernel_threads > 1, "{case}: never fanned out");
                    assert_eq!(
                        pooled.deterministic_fingerprint(),
                        run(1).deterministic_fingerprint(),
                        "{case}"
                    );
                }
            }
        }
    }
}

/// One engine, one pool, many runs: the pool must survive reuse across
/// `run` calls with results identical to a `kernel_threads: 1` engine
/// driven the same way, and the persistent workers must have done the
/// stepping.
#[test]
fn one_engine_reused_across_many_runs_matches_the_serial_engine() {
    const ROUNDS: u64 = 30;
    const WALKS: u64 = 1_500;
    let g = graph(7);
    let run_all = |kernel_threads: usize| {
        let cfg = EngineConfig {
            batch_capacity: 512,
            kernel_threads,
            ..EngineConfig::light_traffic(8 << 10, 4)
        };
        let mut e =
            LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg).expect("pools fit");
        let mut last = None;
        for _ in 0..ROUNDS {
            last = Some(e.run(WALKS).expect("run completes"));
        }
        let r = last.expect("at least one round ran");
        assert_eq!(r.metrics.finished_walks, ROUNDS * WALKS);
        let stats = e.exec_stats().expect("the executor is always present");
        (r, stats)
    };
    let (serial, serial_stats) = run_all(1);
    assert_eq!(
        serial_stats.tasks + serial_stats.caller_tasks,
        0,
        "kernel_threads=1 must step and reshuffle inline"
    );
    let (pooled, stats) = run_all(4);
    assert_eq!(
        pooled.deterministic_fingerprint(),
        serial.deterministic_fingerprint(),
        "the pooled engine diverged from kernel_threads=1 after reuse"
    );
    assert!(
        stats.tasks + stats.caller_tasks > 0,
        "the persistent pool never executed a task"
    );
}

/// `map`'s caller claims indices too, and no fan-out hands out more than
/// `kernel_threads` of them, so the pool keeps `kernel_threads - 1`
/// workers: none at one thread.
#[test]
fn the_pool_counts_its_caller() {
    for kernel_threads in [1, 2, 4] {
        let e = LightTraffic::new(
            graph(3),
            Arc::new(UniformSampling::new(4)),
            config(kernel_threads, None),
        )
        .expect("pools fit");
        let stats = e.exec_stats().expect("the executor is always present");
        assert_eq!(
            stats.workers,
            kernel_threads - 1,
            "{kernel_threads} threads"
        );
    }
}
