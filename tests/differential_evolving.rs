//! Mutation-aware differential battery (DESIGN.md §15): the engine's
//! evolving-graph path — epoch seals that rebuild the dirty partition
//! blocks, then dirty-partition reloads — against the naive adjacency-list CPU walker
//! in `lt_baselines::evolving`, replaying the *same seeded edge-update
//! schedule* on both sides.
//!
//! Mutations are only sealed at inter-wave barriers (run to quiescence,
//! then seal), which is the regime where visibility is deterministic: a
//! wave's trajectories depend on the sealed adjacency alone, never on
//! scheduling. The battery therefore demands **bit-identical** visit
//! fingerprints across kernel-thread counts (inline stepping at 1,
//! kernels fanned out over the pool above) and retryable fault
//! injection — neither of which may leak into what a walker observes.

mod common;

use common::{random_graph, schedule, visits_from_paths};
use lighttraffic::baselines::evolving::{run_evolving_waves, Wave};
use lighttraffic::engine::algorithm::{
    SecondOrderWalk, TemporalWalk, UniformSampling, WalkAlgorithm, WeightedWalk,
};
use lighttraffic::engine::{
    EdgeOp, EdgeUpdate, EngineConfig, LightTraffic, RunResult, ZeroCopyPolicy,
};
use lighttraffic::gpusim::{FaultPlan, GpuConfig};
use lighttraffic::graph::gen::with_random_weights;
use lighttraffic::graph::{Csr, VertexId};
use std::sync::Arc;

const SEED: u64 = 42;

fn config(kernel_threads: usize, faults: Option<FaultPlan>) -> EngineConfig {
    EngineConfig {
        // Batches large enough that pooled runs fan kernels out.
        batch_capacity: 512,
        seed: SEED,
        record_paths: true,
        attribution: true,
        zero_copy: ZeroCopyPolicy::adaptive(),
        kernel_threads,
        gpu: GpuConfig {
            faults,
            ..GpuConfig::default()
        },
        ..EngineConfig::light_traffic(8 << 10, 4)
    }
}

/// Drive the wave schedule through the engine: inject (ids offset past
/// earlier waves so every trajectory draws distinct randomness), run to
/// quiescence, seal the wave's updates. Returns the final cumulative
/// result and the number of tasks the executor ran (chunks of kernels
/// that fanned out; 0 at `kernel_threads: 1`).
fn run_engine_waves(
    g: &Arc<Csr>,
    alg: &Arc<dyn WalkAlgorithm>,
    cfg: EngineConfig,
    waves: &[Wave],
) -> (RunResult, u64) {
    let mut s = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
    let mut next_id = 0u64;
    let mut last = None;
    for wave in waves {
        let mut walkers = alg.place_walkers(g.num_vertices(), wave.walks);
        for w in &mut walkers {
            w.id += next_id;
        }
        next_id += wave.walks;
        s.inject(walkers);
        last = Some(s.finish().expect("wave completes"));
        s.mutate(wave.updates.clone()).expect("schedule is valid");
        s.seal_epoch().expect("seal succeeds");
    }
    let x = s.exec_stats().expect("the executor is always present");
    (
        last.expect("schedule has at least one wave"),
        x.tasks + x.caller_tasks,
    )
}

/// `random_graph(3)` with deterministic small timestamps attached, so the
/// temporal window actually filters candidates and epoch-stamped inserts
/// land inside later windows.
fn temporal_graph() -> Arc<Csr> {
    let g = random_graph(3);
    let ts = (0..g.num_edges())
        .map(|i| (i.wrapping_mul(2654435761) % 16) as u32)
        .collect();
    Arc::new(
        Csr::with_timestamps(g.offsets().to_vec(), g.edges().to_vec(), None, Some(ts))
            .expect("re-stamped CSR stays valid"),
    )
}

/// The battery: for a skewed static-start graph under DeepWalk-style
/// uniform walks, the same graph weighted under `WeightedWalk` (so no
/// in-tree algorithm is refused mutation) and a timestamped graph under
/// temporal walks, every point of the kernel-threads × faults grid
/// reproduces the naive CPU walker's visits exactly, and every pooled run
/// equals the `kernel_threads: 1` run on the full deterministic
/// fingerprint.
#[test]
fn evolving_engine_matches_naive_walker_across_execution_grid() {
    let workloads: Vec<(&str, Arc<Csr>, Arc<dyn WalkAlgorithm>)> = vec![
        (
            "uniform",
            random_graph(6),
            Arc::new(UniformSampling::new(8)),
        ),
        (
            "weighted",
            Arc::new(with_random_weights(&random_graph(6), 7)),
            Arc::new(WeightedWalk::new(8)),
        ),
        (
            "temporal",
            temporal_graph(),
            Arc::new(TemporalWalk::new(8, 4)),
        ),
    ];
    for (name, g, alg) in workloads {
        let waves = schedule(&g, 0xC0FFEE ^ g.num_edges(), 4, 48, 1_536);
        let mutated: u64 = waves
            .iter()
            .flat_map(|w| &w.updates)
            .filter(|u| u.op == EdgeOp::Insert)
            .count() as u64;
        assert!(mutated > 0, "{name}: schedule must actually mutate");

        let baseline = run_evolving_waves(&g, &alg, &waves, SEED);
        let expected = baseline.visits.expect("baseline tracks visits");

        let mut fanned_out = false;
        for faults in [None, Some(FaultPlan::retryable_only(7, 0.05))] {
            let faulty = faults.is_some();
            // `kernel_threads: 1` steps every batch inline: the
            // engine-side reference the pooled runs must equal.
            let mut reference = None;
            for kernel_threads in [1usize, 2, 4, 8] {
                let cfg = config(kernel_threads, faults.clone());
                let (r, _) = run_engine_waves(&g, &alg, cfg, &waves);
                let at = format!("{name}: kt={kernel_threads}, faults={faulty}");
                assert_eq!(
                    visits_from_paths(&r, g.num_vertices()),
                    expected,
                    "{at} diverged from the naive walker"
                );
                assert_eq!(r.metrics.total_steps, baseline.metrics.total_steps);
                assert_eq!(r.metrics.finished_walks, baseline.metrics.finished_walks);
                if kernel_threads == 1 {
                    assert_eq!(r.metrics.max_kernel_threads, 1, "{at}");
                }
                fanned_out |= r.metrics.max_kernel_threads > 1;
                let fp = r.deterministic_fingerprint();
                assert_eq!(
                    *reference.get_or_insert_with(|| fp.clone()),
                    fp,
                    "{at} diverged from kernel_threads=1"
                );
            }
        }
        assert!(fanned_out, "{name}: no pooled run fanned out");
    }
}

/// What a block table can get wrong and one CSR per epoch could not: a
/// zero-copy kernel after a seal reads a view assembled from the table
/// (the batch's block plus, for a second-order walk, the blocks its
/// walkers' previous vertices live in), and a fanned-out one shares that
/// view across chunks. One pool block under a low `alpha` forces zero copy on batches big
/// enough to fan out; `Always` makes every kernel read block views. The
/// first wave rewires one vertex completely, so later walks standing
/// there must take the inserted edge and no deleted one, on top of
/// matching the naive walker — except node2vec under `Adaptive`, whose
/// resident kernels see `prev_neighbors` only inside their partition and
/// are held to `kernel_threads: 1` instead.
#[test]
fn zero_copy_after_a_seal_reads_the_sealed_blocks() {
    let workloads: Vec<(&str, Arc<Csr>, Arc<dyn WalkAlgorithm>)> = vec![
        (
            "node2vec",
            random_graph(6),
            Arc::new(SecondOrderWalk::node2vec(8, 0.5, 2.0)),
        ),
        (
            "temporal",
            temporal_graph(),
            Arc::new(TemporalWalk::new(8, 4)),
        ),
    ];
    for (name, g, alg) in workloads {
        let nv = g.num_vertices();
        let hub = (0..nv as VertexId)
            .max_by_key(|&v| g.degree(v))
            .expect("graph has vertices");
        let fresh = (0..nv as VertexId)
            .find(|v| *v != hub && !g.neighbors(hub).contains(v))
            .expect("the hub does not reach every vertex");
        let mut waves = schedule(&g, 0xBEEF ^ g.num_edges(), 3, 32, 8 * nv);
        // Later waves leave the rewired row alone.
        for w in &mut waves {
            w.updates.retain(|u| u.src != hub);
        }
        waves[0]
            .updates
            .extend(g.neighbors(hub).iter().map(|&d| EdgeUpdate::delete(hub, d)));
        waves[0].updates.push(EdgeUpdate::insert(hub, fresh));
        let first_wave_walks = waves[0].walks as usize;

        let baseline = run_evolving_waves(&g, &alg, &waves, SEED);
        let expected = baseline.visits.expect("baseline tracks visits");
        for zero_copy in [
            ZeroCopyPolicy::Adaptive { alpha: 16 },
            ZeroCopyPolicy::Always,
        ] {
            let matches_naive = !alg.reads_prev_neighbors() || zero_copy == ZeroCopyPolicy::Always;
            let mut reference = None;
            for kernel_threads in [1usize, 4] {
                let at = format!("{name}: {zero_copy:?}, kt={kernel_threads}");
                let cfg = EngineConfig {
                    zero_copy,
                    partition_bytes: 2 << 10,
                    graph_pool_blocks: 1,
                    ..config(kernel_threads, None)
                };
                let (before_seal, tasks_before_seal) =
                    run_engine_waves(&g, &alg, cfg.clone(), &waves[..1]);
                let before_seal = before_seal.metrics;
                let (r, tasks) = run_engine_waves(&g, &alg, cfg, &waves);
                if matches_naive {
                    assert_eq!(visits_from_paths(&r, nv), expected, "{at}");
                    assert_eq!(r.metrics.total_steps, baseline.metrics.total_steps, "{at}");
                }
                let fp = r.deterministic_fingerprint();
                assert_eq!(
                    *reference.get_or_insert_with(|| fp.clone()),
                    fp,
                    "{at} diverged from kernel_threads=1"
                );
                assert!(
                    r.metrics.zero_copy_kernels > before_seal.zero_copy_kernels,
                    "{at}: no zero-copy kernel ran after the first seal"
                );
                if kernel_threads > 1 {
                    assert!(
                        tasks > tasks_before_seal,
                        "{at}: no kernel fanned out after the first seal"
                    );
                }
                // Walk ids are offset per wave, so everything past the
                // first wave's ids walked the rewired row.
                let paths = r.paths.as_ref().expect("paths were recorded");
                let hops_from_hub: Vec<VertexId> = paths[first_wave_walks..]
                    .iter()
                    .flat_map(|p| p.windows(2))
                    .filter(|hop| hop[0] == hub)
                    .map(|hop| hop[1])
                    .collect();
                assert!(!hops_from_hub.is_empty(), "{at}: nobody left the hub");
                assert!(
                    hops_from_hub.iter().all(|&v| v == fresh),
                    "{at}: a walk took a deleted edge out of {hub}"
                );
            }
        }
    }
}

/// The same schedule sealed mid-run is *not* required to match the waves
/// baseline — but the engine itself must stay deterministic: two identical
/// runs that seal at identical barriers agree bit for bit even when seals
/// interleave with live walks.
#[test]
fn mid_flight_seals_are_reproducible() {
    let g = random_graph(6);
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(8));
    let waves = schedule(&g, 99, 3, 32, 256);
    let run = || {
        let mut s = LightTraffic::new(g.clone(), alg.clone(), config(1, None)).expect("pools fit");
        s.inject_walks(256);
        for wave in &waves {
            // Seal after a bounded slice, with walks still in flight.
            let _ = s.step(2).expect("slice runs");
            s.mutate(wave.updates.clone()).expect("schedule is valid");
            s.seal_epoch().expect("seal succeeds");
        }
        let r = s.finish().expect("wave completes");
        (
            visits_from_paths(&r, g.num_vertices()),
            r.metrics.total_steps,
            r.metrics.makespan_ns,
        )
    };
    assert_eq!(run(), run(), "identical barrier placement must reproduce");
}
