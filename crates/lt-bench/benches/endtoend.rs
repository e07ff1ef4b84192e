//! End-to-end criterion benchmarks: small full-engine runs under the
//! scheduling ablations the paper studies (Figure 13 / Table III knobs),
//! the reshuffle-mode ablation (Figure 12), the zero-copy policies
//! (Figure 14), and the CPU baseline engines (Figure 9's real side).
//!
//! These measure *host wall time* of the whole simulated run (simulation
//! included), guarding against regressions in the engine's own speed.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lt_baselines::cpu;
use lt_engine::algorithm::{UniformSampling, WalkAlgorithm};
use lt_engine::{EngineConfig, LightTraffic, ReshuffleMode, ZeroCopyPolicy};
use lt_graph::gen::{rmat, RmatParams};
use std::sync::Arc;

fn graph() -> Arc<lt_graph::Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            seed: 2,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn base_cfg() -> EngineConfig {
    EngineConfig {
        batch_capacity: 512,
        ..EngineConfig::baseline(16 << 10, 6)
    }
}

fn run(graph: &Arc<lt_graph::Csr>, cfg: EngineConfig, walks: u64) -> u64 {
    let mut e =
        LightTraffic::new(graph.clone(), Arc::new(UniformSampling::new(20)), cfg).expect("fits");
    e.run(walks).expect("completes").metrics.total_steps
}

fn bench_scheduling(c: &mut Criterion) {
    let g = graph();
    let walks = g.num_vertices();
    let mut grp = c.benchmark_group("engine_scheduling");
    grp.sample_size(10);
    for (name, ps, ss) in [
        ("baseline", false, false),
        ("preemptive", true, false),
        ("selective", false, true),
        ("ps_ss", true, true),
    ] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                black_box(run(
                    &g,
                    EngineConfig {
                        preemptive: ps,
                        selective: ss,
                        ..base_cfg()
                    },
                    walks,
                ))
            })
        });
    }
    grp.finish();
}

fn bench_reshuffle_modes(c: &mut Criterion) {
    let g = graph();
    let walks = g.num_vertices();
    let mut grp = c.benchmark_group("engine_reshuffle");
    grp.sample_size(10);
    for (name, mode) in [
        ("two_level", ReshuffleMode::default()),
        ("direct_write", ReshuffleMode::DirectWrite),
    ] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                black_box(run(
                    &g,
                    EngineConfig {
                        reshuffle: mode,
                        ..base_cfg()
                    },
                    walks,
                ))
            })
        });
    }
    grp.finish();
}

fn bench_zero_copy_policies(c: &mut Criterion) {
    let g = graph();
    let walks = g.num_vertices();
    let mut grp = c.benchmark_group("engine_zero_copy");
    grp.sample_size(10);
    for (name, policy) in [
        ("never", ZeroCopyPolicy::Never),
        ("always", ZeroCopyPolicy::Always),
        ("adaptive", ZeroCopyPolicy::adaptive()),
    ] {
        grp.bench_function(name, |b| {
            b.iter(|| {
                black_box(run(
                    &g,
                    EngineConfig {
                        zero_copy: policy,
                        ..base_cfg()
                    },
                    walks,
                ))
            })
        });
    }
    grp.finish();
}

fn bench_cpu_engines(c: &mut Criterion) {
    let g = graph();
    let walks = g.num_vertices();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
    let mut grp = c.benchmark_group("cpu_engines");
    grp.sample_size(10);
    grp.bench_function("walk_centric", |b| {
        b.iter(|| {
            black_box(
                cpu::run_walk_centric(&g, &alg, walks, 42, 1)
                    .metrics
                    .total_steps,
            )
        })
    });
    grp.bench_function("shuffle_sorted", |b| {
        b.iter(|| {
            black_box(
                cpu::run_shuffle_sorted(&g, &alg, walks, 42)
                    .metrics
                    .total_steps,
            )
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_scheduling,
    bench_reshuffle_modes,
    bench_zero_copy_policies,
    bench_cpu_engines,
    bench_multigpu,
    bench_checkpoint
);
criterion_main!(benches);

fn bench_multigpu(c: &mut Criterion) {
    use lt_multigpu::{run_multi_gpu, MultiGpuConfig};
    let g = graph();
    let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(20));
    let mut grp = c.benchmark_group("multigpu");
    grp.sample_size(10);
    for k in [1usize, 4] {
        grp.bench_function(format!("gpus_{k}"), |b| {
            b.iter(|| {
                black_box(
                    run_multi_gpu(
                        &g,
                        &alg,
                        g.num_vertices(),
                        &MultiGpuConfig {
                            num_gpus: k,
                            ..Default::default()
                        },
                    )
                    .unwrap()
                    .total_steps,
                )
            })
        });
    }
    grp.finish();
}

fn bench_checkpoint(c: &mut Criterion) {
    let g = graph();
    let alg = Arc::new(UniformSampling::new(40));
    let mut grp = c.benchmark_group("checkpoint");
    grp.sample_size(10);
    grp.bench_function("snapshot_10k_walks", |b| {
        let mut e = LightTraffic::new(g.clone(), alg.clone(), base_cfg()).unwrap();
        e.inject(lt_engine::algorithm::WalkAlgorithm::place_walkers(
            &*alg,
            g.num_vertices(),
            10_000,
        ));
        let _ = e.run_at_most(3).unwrap();
        b.iter(|| black_box(e.checkpoint().active_walks()))
    });
    grp.finish();
}
