//! Criterion micro-benchmarks for the hot primitives behind the paper's
//! figures: per-step sampling, the counter-based RNG, partition lookup
//! and partition extraction.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lt_engine::algorithm::{PageRank, StepContext, UniformSampling, WalkAlgorithm};
use lt_engine::rng;
use lt_engine::walker::Walker;
use lt_graph::gen::{rmat, RmatParams};
use lt_graph::PartitionedGraph;
use std::sync::Arc;

fn graph() -> Arc<lt_graph::Csr> {
    Arc::new(
        rmat(RmatParams {
            scale: 12,
            edge_factor: 8,
            seed: 1,
            ..RmatParams::default()
        })
        .csr,
    )
}

fn bench_rng(c: &mut Criterion) {
    let mut g = c.benchmark_group("rng");
    g.throughput(Throughput::Elements(1));
    g.bench_function("step_value", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(rng::step_value(42, i, (i % 80) as u32))
        })
    });
    g.bench_function("uniform_index", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(rng::uniform_index(rng::step_value(42, i, 0), 1000))
        })
    });
    g.finish();
}

fn bench_step(c: &mut Criterion) {
    let graph = graph();
    let mut g = c.benchmark_group("walk_step");
    g.throughput(Throughput::Elements(1));
    let uniform = UniformSampling::new(u32::MAX - 1);
    let pagerank = PageRank::new(u32::MAX - 1, 0.15);
    for (name, alg) in [
        ("uniform", &uniform as &dyn WalkAlgorithm),
        ("pagerank", &pagerank as &dyn WalkAlgorithm),
    ] {
        g.bench_function(name, |b| {
            let mut w = Walker::new(7, 0);
            b.iter(|| {
                let ctx = StepContext {
                    neighbors: graph.neighbors(w.vertex),
                    weights: None,
                    prev_neighbors: None,
                    timestamps: None,
                    num_vertices: graph.num_vertices(),
                };
                if let Some(v) = alg.step(&w, ctx, 42).target() {
                    w.vertex = v;
                    w.step = w.step.wrapping_add(1);
                }
                black_box(w.vertex)
            })
        });
    }
    g.finish();
}

fn bench_partition_lookup(c: &mut Criterion) {
    let graph = graph();
    let pg = PartitionedGraph::build(graph.clone(), 16 << 10);
    let mut g = c.benchmark_group("partition");
    g.throughput(Throughput::Elements(1));
    g.bench_function(
        BenchmarkId::new("binary_search_lookup", pg.num_partitions()),
        |b| {
            let mut v = 0u32;
            let nv = graph.num_vertices() as u32;
            b.iter(|| {
                v = (v.wrapping_mul(2654435761)).wrapping_add(1) % nv;
                black_box(pg.partition_of(v))
            })
        },
    );
    g.bench_function("extract", |b| {
        let mut p = 0u32;
        b.iter(|| {
            p = (p + 1) % pg.num_partitions();
            black_box(pg.extract(p).bytes())
        })
    });
    g.finish();
}

fn bench_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("generate");
    g.sample_size(10);
    g.bench_function("rmat_scale12", |b| {
        b.iter(|| {
            black_box(
                rmat(RmatParams {
                    scale: 12,
                    edge_factor: 8,
                    seed: 3,
                    ..RmatParams::default()
                })
                .csr
                .num_edges(),
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_step,
    bench_partition_lookup,
    bench_generation,
    bench_alias,
    bench_reorder
);
criterion_main!(benches);

fn bench_alias(c: &mut Criterion) {
    use lt_engine::alias::AliasTable;
    use lt_graph::gen::with_random_weights;
    let g = with_random_weights(&graph(), 7);
    let mut grp = c.benchmark_group("alias");
    grp.sample_size(20);
    grp.bench_function("build_table", |b| {
        b.iter(|| black_box(AliasTable::build(&g).total_bytes()))
    });
    let table = AliasTable::build(&g);
    let v = (0..g.num_vertices() as u32)
        .max_by_key(|&v| g.degree(v))
        .unwrap();
    grp.throughput(Throughput::Elements(1));
    grp.bench_function("sample_hub", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(table.sample(v, rng::step_value(3, i, 0), 0.37))
        })
    });
    grp.finish();
}

fn bench_reorder(c: &mut Criterion) {
    use lt_graph::reorder::{apply_order, bfs_order};
    let g = graph();
    let mut grp = c.benchmark_group("reorder");
    grp.sample_size(10);
    grp.bench_function("bfs_order", |b| b.iter(|| black_box(bfs_order(&g).len())));
    let p = bfs_order(&g);
    grp.bench_function("apply_order", |b| {
        b.iter(|| black_box(apply_order(&g, &p).num_edges()))
    });
    grp.finish();
}
