//! The scheduling decisions of §III-D and §III-E: which partition an
//! iteration processes, whether it reads the graph in place, which cached
//! batch preempts while the load stream is busy, and which queued batch
//! the walk pool gives up. Each is a pure function of the [`Pools`] plus
//! the policy flags.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use crate::graphpool::GraphEviction;
use std::cmp::Reverse;

/// Graph eviction under the scheduling mode, for the device graph pool
/// and the host decode cache alike: selective scheduling overwrites the
/// partition with the fewest walks, the baseline the oldest.
pub(super) fn graph_eviction(selective: bool) -> GraphEviction {
    if selective {
        GraphEviction::FewestWalks
    } else {
        GraphEviction::Fifo
    }
}

/// The partition an iteration processes (Algorithm 2 line 5): the one
/// with the most walks under selective scheduling (ties to the lowest id),
/// else the next one with walks in round-robin order from `rr_cursor`,
/// which then moves past it.
pub(super) fn select_partition(pools: &Pools, selective: bool, rr_cursor: &mut u32) -> PartitionId {
    let np = pools.device.num_partitions();
    if selective {
        (0..np)
            .filter(|&p| pools.walks_in(p) > 0)
            .max_by_key(|&p| (pools.walks_in(p), Reverse(p)))
            .expect("the driver selects only while walks are in flight")
    } else {
        for k in 0..np {
            let p = (*rr_cursor + k) % np;
            if pools.walks_in(p) > 0 {
                *rr_cursor = (p + 1) % np;
                return p;
            }
        }
        unreachable!("the driver selects only while walks are in flight")
    }
}

/// Whether partition `i` is read in place this iteration (§III-E).
/// `forced` (a hub partition that cannot fit a graph-pool block, or one
/// degraded by repeated corrupted loads) wins over the policy; the
/// adaptive rule zero-copies a non-resident partition of `bytes` when
/// `α · walks < bytes`.
pub(super) fn decide_zero_copy(
    pools: &Pools,
    policy: ZeroCopyPolicy,
    forced: bool,
    bytes: u64,
    i: PartitionId,
) -> bool {
    if forced {
        return true;
    }
    match policy {
        ZeroCopyPolicy::Never => false,
        ZeroCopyPolicy::Always => true,
        ZeroCopyPolicy::Adaptive { alpha } => {
            !pools.graph.contains(i) && alpha.saturating_mul(pools.walks_in(i)) < bytes
        }
    }
}

/// The partition whose queued batch preempts while `current` loads
/// (§III-D): only graph-resident partitions with a queued batch are
/// ready. Under selective scheduling prefer full batches whose partition
/// has the fewest walks — finish those partitions off before their graph
/// blocks are overwritten — else the fullest batch, to amortize launch
/// cost; otherwise the oldest resident.
pub(super) fn pick_preemptive_partition(
    pools: &Pools,
    selective: bool,
    current: PartitionId,
) -> Option<PartitionId> {
    let ready: Vec<PartitionId> = pools
        .graph
        .resident_partitions()
        .filter(|&p| p != current && pools.device.queue_len(p) > 0)
        .collect();
    if !selective {
        return ready.first().copied();
    }
    let fewest_full = ready
        .iter()
        .copied()
        .filter(|&p| pools.device.head_batch_full(p))
        .min_by_key(|&p| (pools.walks_in(p), p));
    fewest_full.or_else(|| {
        ready
            .iter()
            .copied()
            .max_by_key(|&p| (pools.device.head_batch_len(p), Reverse(p)))
    })
}

/// The §III-D eviction victim among the partitions with a queued batch,
/// shared by the reshuffle insert and the walk-batch load: protect the
/// partition being drained unless it is the only choice; under selective
/// scheduling prefer non-graph-resident partitions (their batches cannot
/// be computed without a future load anyway) and break ties by fewest
/// walks; then lowest id.
pub(super) fn pick_victim(pools: &Pools, selective: bool, protect: PartitionId) -> PartitionId {
    pools
        .device
        .partitions_with_queued_batches()
        .min_by_key(|&p| {
            let by_policy = selective.then(|| (pools.graph.contains(p), pools.walks_in(p)));
            (p == protect, by_policy, p)
        })
        .expect("the 2P+1 floor guarantees a queued batch when no block is free")
}

#[cfg(test)]
mod tests {
    use super::super::tests::{graph, hub_graph};
    use crate::algorithm::{PageRank, UniformSampling};
    use crate::{EngineConfig, LightTraffic, ReshuffleMode, ZeroCopyPolicy};
    use std::sync::Arc;

    /// The core correctness oracle: every scheduling policy yields the
    /// identical visit-count vector, because walker RNG is counter-based.
    #[test]
    fn all_schedules_produce_identical_visits() {
        let g = graph();
        let reference = {
            let mut e = LightTraffic::new(
                g.clone(),
                Arc::new(PageRank::new(8, 0.15)),
                EngineConfig {
                    batch_capacity: 256,
                    ..EngineConfig::baseline(16 << 10, 4)
                },
            )
            .unwrap();
            e.run(3_000).unwrap().visit_counts.unwrap()
        };
        let variants: Vec<EngineConfig> = vec![
            EngineConfig {
                batch_capacity: 256,
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                zero_copy: ZeroCopyPolicy::Always,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                preemptive: true,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                selective: true,
                reshuffle: ReshuffleMode::DirectWrite,
                ..EngineConfig::baseline(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 64, // different batching
                ..EngineConfig::light_traffic(32 << 10, 3)
            },
            EngineConfig {
                batch_capacity: 256,
                kernel_threads: 1, // sequential host kernels
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
            EngineConfig {
                batch_capacity: 256,
                kernel_threads: 4, // fixed host fan-out
                ..EngineConfig::light_traffic(16 << 10, 4)
            },
        ];
        for (k, cfg) in variants.into_iter().enumerate() {
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(PageRank::new(8, 0.15)), cfg).unwrap();
            let got = e.run(3_000).unwrap().visit_counts.unwrap();
            assert_eq!(got, reference, "variant {k} diverged from reference");
        }
    }

    #[test]
    fn zero_copy_always_never_loads_graph() {
        let g = graph();
        let cfg = EngineConfig {
            batch_capacity: 256,
            zero_copy: ZeroCopyPolicy::Always,
            ..EngineConfig::baseline(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.explicit_graph_copies, 0);
        assert!(r.metrics.zero_copy_kernels > 0);
        assert_eq!(r.gpu.graph_load.count, 0);
        assert!(r.gpu.zero_copy.bytes > 0);
    }

    #[test]
    fn explicit_only_never_zero_copies() {
        let g = graph();
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::baseline(16 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.zero_copy_kernels, 0);
        assert!(r.metrics.explicit_graph_copies > 0);
        assert_eq!(r.gpu.zero_copy.bytes, 0);
    }

    #[test]
    fn adaptive_uses_zero_copy_for_stragglers() {
        let g = graph();
        // Few walks spread across many partitions => every partition is
        // straggler-light and adaptive should choose zero copy heavily.
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(8 << 10, 4)
        };
        let mut e = LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(64).unwrap();
        assert!(
            r.metrics.zero_copy_kernels > 0,
            "adaptive should zero-copy light partitions"
        );
    }

    #[test]
    fn oversized_partition_runs_via_zero_copy() {
        let cfg = EngineConfig {
            batch_capacity: 128,
            ..EngineConfig::light_traffic(1 << 10, 4)
        };
        let mut e = LightTraffic::new(hub_graph(), Arc::new(UniformSampling::new(6)), cfg).unwrap();
        let r = e.run(2_000).unwrap();
        assert_eq!(r.metrics.finished_walks, 2_000);
        assert!(
            r.metrics.zero_copy_kernels > 0,
            "hub partition must go through zero copy"
        );
    }

    #[test]
    fn preemptive_scheduling_reduces_iterations() {
        let g = graph();
        let run = |preemptive: bool| {
            let cfg = EngineConfig {
                batch_capacity: 128,
                preemptive,
                ..EngineConfig::baseline(8 << 10, 8)
            };
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(10)), cfg).unwrap();
            e.run(4_000).unwrap().metrics
        };
        let base = run(false);
        let ps = run(true);
        assert!(ps.preemptive_batches > 0);
        assert!(
            ps.iterations < base.iterations,
            "PS {} !< base {}",
            ps.iterations,
            base.iterations
        );
    }

    #[test]
    fn selective_scheduling_improves_hit_rate() {
        let g = graph();
        let run = |selective: bool| {
            let cfg = EngineConfig {
                batch_capacity: 128,
                selective,
                ..EngineConfig::baseline(8 << 10, 8)
            };
            let mut e =
                LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(10)), cfg).unwrap();
            e.run(4_000).unwrap().metrics
        };
        let base = run(false);
        let ss = run(true);
        assert!(
            ss.graph_pool_hit_rate() > base.graph_pool_hit_rate(),
            "SS {} !> base {}",
            ss.graph_pool_hit_rate(),
            base.graph_pool_hit_rate()
        );
    }
}
