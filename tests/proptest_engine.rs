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
use lighttraffic::engine::algorithm::{PageRank, UniformSampling, WalkAlgorithm};
use lighttraffic::engine::{LightTraffic, RunStatus};
use proptest::prelude::*;
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
            e.inject(alg.place_walkers(g.num_vertices(), walks));
            match e.run_at_most(pause).expect("partial run completes") {
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
            e.resume(restored).expect("resume completes")
        };

        prop_assert_eq!(resumed.metrics.finished_walks, reference.metrics.finished_walks);
        prop_assert_eq!(resumed.metrics.total_steps, reference.metrics.total_steps);
        prop_assert_eq!(resumed.visit_counts, reference.visit_counts);
    }
}
