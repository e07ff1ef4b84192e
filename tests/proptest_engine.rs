//! Property-based tests of the engine and simulator: arbitrary graphs ×
//! arbitrary pool configurations × arbitrary scheduling policies must all
//! (a) complete every walk, (b) produce the reference trajectories, and
//! (c) keep the simulated timeline physically consistent — DESIGN.md
//! invariants 3–6.
//!
//! Generators live in [`common`] and are shared with `proptest_graph`
//! and `differential`.

mod common;

use common::{config_strategy, graph_strategy, to_engine_config};
use lighttraffic::baselines::cpu;
use lighttraffic::engine::algorithm::{PageRank, SecondOrderWalk, UniformSampling, WalkAlgorithm};
use lighttraffic::engine::{Checkpoint, LightTraffic, RunStatus};
use proptest::prelude::*;
use proptest::sample::Index;
use std::collections::BTreeMap;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any configuration completes the workload, matches the CPU reference
    /// trajectories, and leaves a physically consistent timeline.
    #[test]
    fn engine_is_correct_under_any_config(g in graph_strategy(), c in config_strategy()) {
        let walks = g.num_vertices().min(2000);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(8, 0.15));
        let cfg = to_engine_config(&c, &g);
        let mut engine = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
        let r = engine.run(walks).expect("run completes");

        // (a) Completion and conservation.
        prop_assert_eq!(r.metrics.finished_walks, walks);
        let visits = r.visit_counts.clone().unwrap();
        prop_assert_eq!(visits.iter().sum::<u64>(), r.metrics.total_steps);

        // (b) Schedule equivalence against the plain CPU reference.
        let reference = cpu::run_walk_centric(&g, &alg, walks, 42, 1)
            .visits
            .unwrap();
        prop_assert_eq!(visits, reference);

        // (c) Timeline sanity: ops on one engine never overlap; makespan
        // is the latest completion; stats match the op log.
        let log = engine.gpu().op_log();
        for e in 0..3 {
            let mut ops: Vec<_> = log.iter().filter(|o| o.engine == e).collect();
            ops.sort_by_key(|o| (o.start, o.end));
            for w in ops.windows(2) {
                prop_assert!(w[1].start >= w[0].end, "engine {e} overlap");
            }
        }
        let max_end = log.iter().map(|o| o.end).max().unwrap_or(0);
        prop_assert!(r.metrics.makespan_ns >= max_end);
        // Zero-copy policy extremes behave as declared.
        match c.zero_copy {
            0 => prop_assert_eq!(r.metrics.zero_copy_kernels, 0),
            1 => prop_assert_eq!(r.metrics.explicit_graph_copies, 0),
            _ => {}
        }
    }

    /// Fixed-length workloads take exactly `walks × length` steps under
    /// any configuration (no dead ends survive preprocessing).
    #[test]
    fn fixed_length_step_count_is_exact(g in graph_strategy(), c in config_strategy()) {
        let walks = g.num_vertices().min(1500);
        let len = 6u32;
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(UniformSampling::new(len));
        let cfg = to_engine_config(&c, &g);
        let mut engine = LightTraffic::new(g.clone(), alg, cfg).expect("pools fit");
        let r = engine.run(walks).expect("run completes");
        prop_assert_eq!(r.metrics.total_steps, walks * len as u64);
        // Traffic accounting sanity: bytes flowed iff copies happened.
        prop_assert_eq!(r.gpu.graph_load.count == 0, r.gpu.graph_load.bytes == 0);
        prop_assert_eq!(r.gpu.walk_evict.count == 0, r.gpu.walk_evict.bytes == 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpoint → restore round-trip from an arbitrary pause point
    /// reproduces the uninterrupted run bit-identically under any
    /// configuration (thread counts included). The pause lands between
    /// scheduler iterations, i.e. after reshuffles have scattered walkers
    /// across queues and frontiers, so the snapshot exercises a used walk
    /// index, not just a fresh pool.
    #[test]
    fn checkpoint_restore_round_trip_is_bit_identical(
        g in graph_strategy(),
        c in config_strategy(),
        pause in 1u64..24,
    ) {
        let walks = g.num_vertices().min(1500);
        let alg: Arc<dyn WalkAlgorithm> = Arc::new(PageRank::new(10, 0.15));

        let reference = {
            let cfg = to_engine_config(&c, &g);
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
            e.run(walks).expect("run completes")
        };

        let cp = {
            let cfg = to_engine_config(&c, &g);
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
            e.inject_walks(walks);
            match e.step(pause).expect("partial run completes") {
                RunStatus::Paused => {}
                // The workload finished inside the budget: nothing left to
                // checkpoint, the property is vacuous for this sample.
                RunStatus::Completed(_) => return Ok(()),
                other => panic!("unexpected run status: {other:?}"),
            }
            e.checkpoint()
        };
        prop_assert!(cp.active_walks() > 0);

        // JSON round-trip, then resume on a brand-new engine.
        let json = serde_json::to_string(&cp).expect("checkpoint serializes");
        let restored: lighttraffic::engine::Checkpoint =
            serde_json::from_str(&json).expect("checkpoint round-trips");
        let resumed = {
            let cfg = to_engine_config(&c, &g);
            let mut e = LightTraffic::new(g.clone(), alg.clone(), cfg).expect("pools fit");
            e.restore(restored).expect("checkpoint fits");
            e.finish().expect("resume completes")
        };

        prop_assert_eq!(resumed.metrics.finished_walks, reference.metrics.finished_walks);
        prop_assert_eq!(resumed.metrics.total_steps, reference.metrics.total_steps);
        prop_assert_eq!(resumed.visit_counts, reference.visit_counts);
    }
}

/// Every number in a checkpoint's JSON, grouped by the key it sits
/// under: the `seed`, each walker's `id`, `vertex`, `step`, `aux` and
/// `tag`, every element of `visit_counts` … A rewrite picks a key first,
/// so each field is hit as often as any other instead of the bulk of the
/// visit counts.
fn value_spans(json: &[u8]) -> Vec<Vec<(usize, usize)>> {
    let mut by_key: BTreeMap<&[u8], Vec<(usize, usize)>> = BTreeMap::new();
    let mut key: &[u8] = b"";
    let mut i = 0;
    while i < json.len() {
        if json[i] == b'"' {
            let len = json[i + 1..].iter().take_while(|&&b| b != b'"').count();
            key = &json[i + 1..i + 1 + len];
            i += len + 2;
        } else if json[i].is_ascii_digit() {
            let len = json[i..].iter().take_while(|b| b.is_ascii_digit()).count();
            by_key.entry(key).or_default().push((i, i + len));
            i += len;
        } else {
            i += 1;
        }
    }
    by_key.into_values().collect()
}

/// Bytes a rewrite writes: mostly digits, which keep the file loadable
/// and move a value, and the JSON punctuation that ends, signs or
/// retypes a number.
const REWRITE_BYTES: &[u8] = b"01234567890123456789-.e,:]}\" n";

/// One rewrite: the target (any byte when the first field is 0, one time
/// in five; else a number under a key), the key, the number under it,
/// the offset inside that and the byte written there, from
/// [`REWRITE_BYTES`].
type Rewrite = (u8, Index, Index, Index, Index);

fn rewrite_strategy() -> impl Strategy<Value = Rewrite> {
    let index = || any::<Index>();
    (0u8..5, index(), index(), index(), index())
}

fn apply_rewrites(json: &mut [u8], rewrites: &[Rewrite]) {
    let keys = value_spans(json);
    for &(anywhere, key, number, offset, byte) in rewrites {
        let pos = if anywhere == 0 || keys.is_empty() {
            offset.index(json.len())
        } else {
            let spans = &keys[key.index(keys.len())];
            let (start, end) = spans[number.index(spans.len())];
            start + offset.index(end - start)
        };
        json[pos] = REWRITE_BYTES[byte.index(REWRITE_BYTES.len())];
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A checkpoint is a trust boundary: one with 1–3 bytes rewritten
    /// either fails to load or restore (`Err`), or resumes and finishes
    /// every walker it holds — never a panic. Rewrites aim at the values
    /// of the checkpoint's fields, so each field's range checks are hit.
    #[test]
    fn corrupt_checkpoints_are_errors_or_finish_every_walker(
        g in graph_strategy(),
        c in config_strategy(),
        second_order in any::<bool>(),
        pause in 1u64..4,
        rewrites in prop::collection::vec(rewrite_strategy(), 1..=3),
    ) {
        let walks = 800;
        let alg: Arc<dyn WalkAlgorithm> = if second_order {
            Arc::new(SecondOrderWalk::node2vec(24, 0.5, 2.0))
        } else {
            Arc::new(PageRank::new(24, 0.05))
        };
        let engine = || LightTraffic::new(g.clone(), alg.clone(), to_engine_config(&c, &g));
        let mut e = engine().expect("pools fit");
        e.inject_walks(walks);
        if !matches!(e.step(pause).expect("partial run completes"), RunStatus::Paused) {
            return Ok(());
        }
        let path = std::env::temp_dir()
            .join(format!("lt_corrupt_checkpoint_{}.json", std::process::id()));
        e.checkpoint().save(&path).expect("checkpoint saves");
        let mut json = std::fs::read(&path).expect("checkpoint reads back");
        apply_rewrites(&mut json, &rewrites);
        std::fs::write(&path, &json).expect("rewritten checkpoint writes");
        let loaded = Checkpoint::load(&path);
        std::fs::remove_file(&path).ok();
        let Ok(cp) = loaded else { return Ok(()) };
        let expected = cp.finished_walks.checked_add(cp.active_walks());
        let mut e = engine().expect("pools fit");
        if let Ok(r) = e.restore(cp).and_then(|()| e.finish()) {
            prop_assert_eq!(Some(r.metrics.finished_walks), expected);
        }
    }
}
