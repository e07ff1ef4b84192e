//! The order contract, pinned **across commits**.
//!
//! Every other battery compares `kernel_threads: N` with `1` at one
//! commit, so a reorder applied consistently to both sides (a different
//! frontier insertion order, an eviction taken one walker earlier) would
//! pass them all while changing the simulated timeline. These three
//! fixed configurations instead compare a digest of a run's simulated
//! records — device stats, visit counts, paths and the iteration log —
//! and three named counters with recorded constants. A change that keeps
//! frontier order, eviction timing and victim choice keeps these
//! numbers; any later change must say why it moves them. The digest
//! covers no `Metrics` field, so adding or deleting one moves nothing.
//!
//! History of the constants:
//! - recorded at `5dc395d` (per-walker `try_insert` reshuffle) and kept
//!   by PR 16 (`7160872`, fused counting sort);
//! - re-recorded by PR 17 (the commit after `7160872`, "One walk pool, one
//!   free list"), which changed the *scope of an eviction* from
//!   shard-local to pool-global: the device walk pool has one free list
//!   again, so an insert evicts only when the whole pool is full, the
//!   victim is chosen among all partitions, and inserts visit partitions
//!   in ascending order. `walk_pool_blocks: Some(0)` now means the paper's
//!   `2P + 1` floor (it meant `2P + min(P, 8)`), and the derived `4P` pool
//!   of the first configuration no longer evicts at `100 * |V|` walks, so
//!   that run was doubled to `200 * |V|`. Evictions / iterations /
//!   makespan before: 69 / 176 / 7113947 (at `100 * |V|`),
//!   3213 / 52 / 36830022, 1679 / 121 / 20587309.
//! - re-hashed when `Metrics` lost its reshuffle fan-out field (always 0
//!   in the fingerprint): the fingerprint string lost that one `"…":0`
//!   pair, and the previous strings with the pair cut out hash to the new
//!   constants. Evictions, iterations and makespan did not move. Hashes
//!   before: 7736391454572833660, 5076428522729951092,
//!   7915301084599244605.
//! - replaced by the digest of the simulated records, which names no
//!   `Metrics` field. The parent commit's runs give the same digests and
//!   the same evictions, iterations and makespan. Whole-fingerprint
//!   hashes before: 17349645180146113463, 5287810042768202907,
//!   11511251632741374094.
//!
//! The device config is spelled out (`GpuConfig::default()`), so the
//! `LT_TEST_FAULT_SEED` drill does not reach these runs, and the
//! fingerprint is thread-count invariant, so `LT_TEST_KERNEL_THREADS`
//! cannot either.

use lt_engine::algorithm::{PageRank, UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic, ReshuffleMode, RunResult};
use lt_gpusim::GpuConfig;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::Csr;
use std::sync::Arc;

fn graph(scale: u32) -> Arc<Csr> {
    Arc::new(
        rmat(RmatParams {
            scale,
            edge_factor: 8,
            seed: 5,
            ..RmatParams::default()
        })
        .csr,
    )
}

/// FNV-1a over the serialized simulated records: stable across
/// toolchains, unlike `DefaultHasher`.
fn records_digest(r: &RunResult) -> u64 {
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
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a configuration is pinned to: the records digest plus three
/// counters a reader can interpret when the digest moves.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    records: u64,
    walk_batches_evicted: u64,
    iterations: u64,
    makespan_ns: u64,
}

fn run(g: Arc<Csr>, alg: Arc<dyn WalkAlgorithm>, cfg: EngineConfig, walks: u64) -> RunResult {
    let cfg = EngineConfig {
        gpu: GpuConfig::default(),
        record_iterations: true,
        ..cfg
    };
    let mut e = LightTraffic::new(g, alg, cfg).expect("pools fit");
    let r = e.run(walks).expect("run completes");
    assert_eq!(r.metrics.finished_walks, walks);
    r
}

fn pinned(r: &RunResult) -> Pinned {
    Pinned {
        records: records_digest(r),
        walk_batches_evicted: r.metrics.walk_batches_evicted,
        iterations: r.metrics.iterations,
        makespan_ns: r.metrics.makespan_ns,
    }
}

/// The derived `4P` pool and the default 4096-walker batches, with more
/// walks than the pool holds: a single reshuffle carries thousands of
/// movers and the pool still has to evict.
#[test]
fn default_pool_large_batches() {
    let g = graph(12);
    let walks = 200 * g.num_vertices();
    let cfg = EngineConfig {
        kernel_threads: 4,
        ..EngineConfig::light_traffic(8 << 10, 4)
    };
    let r = run(g, Arc::new(UniformSampling::new(6)), cfg, walks);
    assert!(r.metrics.walk_batches_evicted > 0, "the pool must evict");
    assert_eq!(
        pinned(&r),
        Pinned {
            records: 11_035_110_564_600_937_240,
            walk_batches_evicted: 195,
            iterations: 175,
            makespan_ns: 13_416_232,
        }
    );
}

/// The `2P + 1` floor with 8-walker batches: one block circulates, so the
/// insert-or-evict loop evicts constantly and a run usually spans several
/// promotions of one frontier.
#[test]
fn pool_floor_evicts_constantly() {
    let g = graph(10);
    let cfg = EngineConfig {
        batch_capacity: 8,
        walk_pool_blocks: Some(0), // raised to the 2P + 1 floor
        record_paths: true,
        kernel_threads: 2,
        ..EngineConfig::light_traffic(8 << 10, 3)
    };
    let r = run(g, Arc::new(UniformSampling::new(10)), cfg, 3000);
    assert!(r.metrics.walk_batches_evicted > 1000, "the floor must bite");
    assert_eq!(
        pinned(&r),
        Pinned {
            records: 18_416_939_030_400_039_400,
            walk_batches_evicted: 3236,
            iterations: 54,
            makespan_ns: 36_775_922,
        }
    );
}

/// The Figure 12 baseline mode without selective scheduling: the victim
/// is the first unprotected candidate, and the simulated reshuffle cost
/// takes the direct-write branch.
#[test]
fn direct_write_without_selective_scheduling() {
    let g = graph(11);
    let cfg = EngineConfig {
        batch_capacity: 32,
        walk_pool_blocks: Some(0),
        selective: false,
        reshuffle: ReshuffleMode::DirectWrite,
        record_paths: true,
        kernel_threads: 3,
        ..EngineConfig::light_traffic(8 << 10, 3)
    };
    let r = run(g, Arc::new(PageRank::new(10, 0.15)), cfg, 6000);
    assert!(r.metrics.walk_batches_evicted > 0, "the pool must evict");
    assert_eq!(
        pinned(&r),
        Pinned {
            records: 5_046_116_244_713_741_238,
            walk_batches_evicted: 1694,
            iterations: 124,
            makespan_ns: 20_526_390,
        }
    );
}
