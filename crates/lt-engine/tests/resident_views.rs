//! Pinned fingerprints of RAM-store runs. A resident partition of a RAM
//! store is read in place, from the CSR restricted to the partition's
//! vertex range, and after the first mutation from the evolving block
//! table. These goldens were recorded when every resident partition was
//! still a host copy of its rows; they prove that the view a kernel reads
//! through changes no walk and no simulated counter.
//!
//! They were re-hashed once since, when `Metrics` lost its always-zero
//! reshuffle fan-out field: each fingerprint string lost that one
//! `"…":0` pair, and the previous strings with the pair cut out hash to
//! the current goldens, so no walk and no counter moved.
//!
//! The goldens include the simulated clock, which the retryable faults of
//! the `LT_TEST_FAULT_SEED` drill move, so every golden run spells out a
//! fault-free device. Under the drill each run is repeated with its
//! faults, and must produce the same visits and paths.

use lt_engine::algorithm::{PageRank, SecondOrderWalk};
use lt_engine::{EngineConfig, LightTraffic, RunResult, WalkAlgorithm, ZeroCopyPolicy};
use lt_gpusim::GpuConfig;
use lt_graph::gen::{erdos_renyi, locality_mutations, rmat, RmatParams};
use lt_graph::Csr;
use std::sync::Arc;

/// FNV-1a over a fingerprint string: short enough to pin in source.
fn digest(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn fingerprint(r: &RunResult) -> u64 {
    digest(&r.deterministic_fingerprint())
}

fn graphs() -> Vec<(&'static str, Arc<Csr>)> {
    let rm = |scale, edge_factor, seed| {
        Arc::new(
            rmat(RmatParams {
                scale,
                edge_factor,
                seed,
                ..RmatParams::default()
            })
            .csr,
        )
    };
    vec![
        ("rmat11", rm(11, 8, 7)),
        ("er2048", Arc::new(erdos_renyi(2048, 2048 * 12, 5).csr)),
        ("rmat12", rm(12, 4, 19)),
    ]
}

fn cfg(zero_copy: ZeroCopyPolicy, kernel_threads: usize) -> EngineConfig {
    EngineConfig {
        zero_copy,
        kernel_threads,
        record_paths: true,
        record_iterations: true,
        gpu: GpuConfig::default(),
        ..EngineConfig::light_traffic(16 << 10, 3)
    }
}

/// The device of the fault drill when `LT_TEST_FAULT_SEED` is set: the
/// one `EngineConfig::light_traffic` builds, with its retryable plan.
fn drill() -> Option<GpuConfig> {
    let gpu = EngineConfig::light_traffic(16 << 10, 3).gpu;
    gpu.faults.is_some().then_some(gpu)
}

/// `cfg` under the fault drill, when it is on.
fn faulted(cfg: &EngineConfig) -> Option<EngineConfig> {
    drill().map(|gpu| EngineConfig { gpu, ..cfg.clone() })
}

/// A faulted run produced what its fault-free twin did. Returns the
/// copies it re-issued, so a test can tell the drill injected something.
fn assert_same_outputs(faulted: &RunResult, clean: &RunResult, what: &str) -> u64 {
    assert_eq!(faulted.visit_counts, clean.visit_counts, "{what}: visits");
    assert_eq!(faulted.paths, clean.paths, "{what}: paths");
    faulted.metrics.retries
}

fn policies() -> [(&'static str, ZeroCopyPolicy); 2] {
    [
        ("never", ZeroCopyPolicy::Never),
        ("adaptive", ZeroCopyPolicy::adaptive()),
    ]
}

fn algorithms() -> [(&'static str, Arc<dyn WalkAlgorithm>); 2] {
    [
        (
            "node2vec",
            Arc::new(SecondOrderWalk::node2vec(20, 0.25, 4.0)),
        ),
        ("pagerank", Arc::new(PageRank::new(20, 0.15))),
    ]
}

/// node2vec (p = 0.25, q = 4) and PageRank on three graphs, under
/// explicit copies only and under adaptive zero copy, at one and four
/// kernel threads: every fingerprint equals its golden, and under the
/// fault drill every faulted run has the same visits and paths.
#[test]
fn resident_reads_keep_the_recorded_fingerprints() {
    #[rustfmt::skip]
    let golden: &[(&str, &str, &str, u64)] = &[
        ("rmat11", "node2vec", "never", 0x9b4bc107d2744c06),
        ("rmat11", "node2vec", "adaptive", 0xc738e05192d825cd),
        ("rmat11", "pagerank", "never", 0x25d1ddc8d692e93f),
        ("rmat11", "pagerank", "adaptive", 0x6d09e9cf0888610a),
        ("er2048", "node2vec", "never", 0x1597b74dc045e776),
        ("er2048", "node2vec", "adaptive", 0xc2deaf95560b625f),
        ("er2048", "pagerank", "never", 0x5b4f072645787d85),
        ("er2048", "pagerank", "adaptive", 0xf1e41f4c667edd93),
        ("rmat12", "node2vec", "never", 0x544062cd639ef71d),
        ("rmat12", "node2vec", "adaptive", 0x6fc02a4c3f2cbd47),
        ("rmat12", "pagerank", "never", 0xb664bf5ec38ee64b),
        ("rmat12", "pagerank", "adaptive", 0xcffdf453d820a35f),
    ];
    let mut got = Vec::new();
    let mut retries = 0;
    for (gname, g) in graphs() {
        for (aname, alg) in algorithms() {
            for (pname, policy) in policies() {
                let run = |cfg| {
                    let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
                    e.run(3_000).expect("run completes")
                };
                let mut prints = [1, 4].map(|threads| {
                    let cfg = cfg(policy, threads);
                    let clean = run(cfg.clone());
                    if let Some(cfg) = faulted(&cfg) {
                        let what = format!("{gname} {aname} {pname} {threads} threads");
                        retries += assert_same_outputs(&run(cfg), &clean, &what);
                    }
                    fingerprint(&clean)
                });
                prints.sort_unstable();
                assert_eq!(
                    prints[0], prints[1],
                    "{gname} {aname} {pname}: thread counts"
                );
                got.push((gname, aname, pname, prints[0]));
            }
        }
    }
    assert_eq!(got, golden);
    assert!(
        drill().is_none() || retries > 0,
        "the drill injected no fault"
    );
}

/// Resident loads on a RAM engine, then a mutation and a seal, then more
/// walks: the reads move from the borrowed CSR to the sealed blocks, and
/// the fingerprint equals its golden at one and four kernel threads. Under
/// the fault drill both waves of a faulted engine have the same visits
/// and paths.
#[test]
fn a_seal_hands_resident_reads_over_to_the_block_table() {
    let (_, g) = graphs().swap_remove(0);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(SecondOrderWalk::node2vec(20, 0.25, 4.0));
    let golden: u64 = 0x244a750c9140242d;
    // Both waves: before the seal and after it.
    let waves = |cfg| {
        let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
        let first = e.run(2_000).expect("first wave completes");
        assert!(first.metrics.explicit_graph_copies > 0, "no resident loads");
        let mut state = 0x9e37_79b9_7f4a_7c15;
        e.mutate(locality_mutations(&g, 400, 0.2, &mut state))
            .expect("updates are valid");
        let seal = e.seal_epoch().expect("seal succeeds");
        assert!(seal.reloaded_partitions > 0, "the seal reloaded nothing");
        (first, e.run(2_000).expect("second wave completes"))
    };
    for threads in [1, 4] {
        let cfg = cfg(ZeroCopyPolicy::adaptive(), threads);
        let (first, second) = waves(cfg.clone());
        assert_eq!(fingerprint(&second), golden, "{threads} kernel threads");
        if let Some(cfg) = faulted(&cfg) {
            let (f1, f2) = waves(cfg);
            let retries =
                assert_same_outputs(&f1, &first, &format!("first wave, {threads} threads"))
                    + assert_same_outputs(&f2, &second, &format!("second wave, {threads} threads"));
            assert!(retries > 0, "the drill injected no fault");
        }
    }
}
