//! Pinned digests of RAM-store runs. A resident partition of a RAM
//! store is read in place, from the CSR restricted to the partition's
//! vertex range, and after the first mutation from the evolving block
//! table. The first goldens were recorded when every resident partition
//! was still a host copy of its rows; they prove that the view a kernel
//! reads through changes no walk and no simulated record.
//!
//! A golden is a digest of a run's simulated records: device stats, visit
//! counts, paths and the iteration log. It covers no `Metrics` field, so
//! adding or deleting one moves nothing. The goldens were first hashes of
//! the whole `deterministic_fingerprint` string. They were re-hashed when
//! `Metrics` lost its always-zero reshuffle fan-out field, then replaced
//! by the records digest; at each step the parent commit's runs gave the
//! new goldens and the same evictions, iterations and makespan.
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

/// FNV-1a over the serialized simulated records: short enough to pin in
/// source.
fn digest(r: &RunResult) -> u64 {
    [
        serde_json::to_string(&r.gpu),
        serde_json::to_string(&r.visit_counts),
        serde_json::to_string(&r.paths),
        serde_json::to_string(&r.iterations),
    ]
    .map(|s| s.expect("simulated records serialize"))
    .join("|")
    .bytes()
    .fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
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
/// kernel threads: every digest equals its golden, and under the
/// fault drill every faulted run has the same visits and paths.
#[test]
fn resident_reads_keep_the_recorded_fingerprints() {
    #[rustfmt::skip]
    let golden: &[(&str, &str, &str, u64)] = &[
        ("rmat11", "node2vec", "never", 0x05f1fb7cb6665445),
        ("rmat11", "node2vec", "adaptive", 0x4c80afa7a3d34463),
        ("rmat11", "pagerank", "never", 0x1f60aa0f79919937),
        ("rmat11", "pagerank", "adaptive", 0x3940b8d9e23165f8),
        ("er2048", "node2vec", "never", 0xf85ee2aeec383177),
        ("er2048", "node2vec", "adaptive", 0xdd051926ee93d5a0),
        ("er2048", "pagerank", "never", 0x172baa1142c29ab8),
        ("er2048", "pagerank", "adaptive", 0xc8ccc0c601b34e4e),
        ("rmat12", "node2vec", "never", 0xbb70dbd12ccc0209),
        ("rmat12", "node2vec", "adaptive", 0xe1c2bc48617b90eb),
        ("rmat12", "pagerank", "never", 0x24d157c268664af1),
        ("rmat12", "pagerank", "adaptive", 0xed6ef249f6bb3b77),
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
                    digest(&clean)
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
/// the digest equals its golden at one and four kernel threads. Under
/// the fault drill both waves of a faulted engine have the same visits
/// and paths.
#[test]
fn a_seal_hands_resident_reads_over_to_the_block_table() {
    let (_, g) = graphs().swap_remove(0);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(SecondOrderWalk::node2vec(20, 0.25, 4.0));
    let golden: u64 = 0x9332f442de226d6f;
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
        assert_eq!(digest(&second), golden, "{threads} kernel threads");
        if let Some(cfg) = faulted(&cfg) {
            let (f1, f2) = waves(cfg);
            let retries =
                assert_same_outputs(&f1, &first, &format!("first wave, {threads} threads"))
                    + assert_same_outputs(&f2, &second, &format!("second wave, {threads} threads"));
            assert!(retries > 0, "the drill injected no fault");
        }
    }
}
