//! Property tests of the walk pools: arbitrary interleavings of the five
//! pool operations (insert, load, pop, take-frontier, evict) must conserve
//! walkers, respect the batch-partition invariant, and never corrupt the
//! per-partition counts (DESIGN.md invariants 3, 4, 7).

use lt_engine::batch::WalkBatch;
use lt_engine::walker::Walker;
use lt_engine::walkpool::{DeviceWalkPool, HostWalkPool};
use lt_gpusim::{Gpu, GpuConfig};
use proptest::prelude::*;
use std::collections::HashSet;

const PARTS: u32 = 4;
const BATCH: usize = 3;

#[derive(Clone, Debug)]
enum PoolOp {
    /// Insert a fresh walker into partition `p` on the host.
    HostInsert { p: u32 },
    /// Move one host batch of `p` to the device (if the device accepts).
    Load { p: u32 },
    /// Reshuffle-insert a fresh walker into `p` on the device.
    DeviceInsert { p: u32 },
    /// Fetch + consume a queued device batch of `p`.
    PopQueue { p: u32 },
    /// Fetch + consume the device frontier of `p`.
    TakeFrontier { p: u32 },
    /// Evict a queued device batch of `p` back to the host.
    Evict { p: u32 },
}

fn op_strategy() -> impl Strategy<Value = PoolOp> {
    (0u32..PARTS, 0u8..6).prop_map(|(p, kind)| match kind {
        0 => PoolOp::HostInsert { p },
        1 => PoolOp::Load { p },
        2 => PoolOp::DeviceInsert { p },
        3 => PoolOp::PopQueue { p },
        4 => PoolOp::TakeFrontier { p },
        _ => PoolOp::Evict { p },
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pools_conserve_walkers_under_any_interleaving(
        ops in prop::collection::vec(op_strategy(), 1..200),
        blocks in (2 * PARTS as usize + 1)..24,
    ) {
        let mut gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            ..Default::default()
        });
        let mut host = HostWalkPool::new(PARTS, BATCH);
        let mut dev = DeviceWalkPool::new(&mut gpu, PARTS, blocks, 64, BATCH).unwrap();
        let mut next_id = 0u64;
        let mut live: HashSet<u64> = HashSet::new();
        let mut consumed: HashSet<u64> = HashSet::new();
        let check_batch = |b: &WalkBatch| {
            // Batch invariant: the partition tag covers all walkers. In
            // this harness a walker's partition is encoded in its vertex.
            b.walkers().iter().all(|w| w.vertex == b.partition())
        };
        for op in &ops {
            match *op {
                PoolOp::HostInsert { p } => {
                    host.insert(p, Walker::new(next_id, p));
                    live.insert(next_id);
                    next_id += 1;
                }
                PoolOp::Load { p } => {
                    if let Some(b) = host.pop_batch(p) {
                        prop_assert!(check_batch(&b));
                        match dev.add_loaded_batch(b) {
                            Ok(_) => {}
                            Err(b) => host.push_evicted(b), // pool full: put it back
                        }
                    }
                }
                PoolOp::DeviceInsert { p } => {
                    if dev.try_insert(p, Walker::new(next_id, p)).is_ok() {
                        live.insert(next_id);
                        next_id += 1;
                    }
                }
                PoolOp::PopQueue { p } => {
                    if let Some(b) = dev.pop_queue_batch(p) {
                        prop_assert!(check_batch(&b));
                        for w in b.walkers() {
                            consumed.insert(w.id);
                            live.remove(&w.id);
                        }
                    }
                }
                PoolOp::TakeFrontier { p } => {
                    if let Some(b) = dev.take_frontier(p) {
                        prop_assert!(check_batch(&b));
                        prop_assert!(!b.is_empty(), "take_frontier never yields empty");
                        for w in b.walkers() {
                            consumed.insert(w.id);
                            live.remove(&w.id);
                        }
                    }
                }
                PoolOp::Evict { p } => {
                    if let Some(b) = dev.evict_queue_batch(p) {
                        prop_assert!(check_batch(&b));
                        host.push_evicted(b);
                    }
                }
            }
            // Counts always agree with the number of live walkers.
            let total = host.total() + dev.total();
            prop_assert_eq!(total, live.len() as u64, "conservation broke after {:?}", op);
            for p in 0..PARTS {
                // Per-partition counts are internally consistent.
                let c = host.count(p) + dev.count(p);
                prop_assert!(c <= total);
            }
        }
        // Nothing was both consumed and still live.
        prop_assert!(live.is_disjoint(&consumed));
    }

    #[test]
    fn device_pool_structural_floor_always_holds(
        inserts in prop::collection::vec((0u32..PARTS, 1u64..50), 1..30),
    ) {
        // With exactly 2P+1 blocks (the floor), any insertion
        // pattern either succeeds or reports PoolFull — never panics,
        // never loses the reserve.
        let mut gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            ..Default::default()
        });
        let floor = 2 * PARTS as usize + 1;
        let mut dev = DeviceWalkPool::new(&mut gpu, PARTS, floor, 64, 2).unwrap();
        let mut id = 0u64;
        for (p, n) in inserts {
            for _ in 0..n {
                match dev.try_insert(p, Walker::new(id, p)) {
                    Ok(()) => id += 1,
                    Err(_) => {
                        // Eviction always recovers insertion capacity,
                        // whichever partition the victim belongs to.
                        let victim = dev
                            .partitions_with_queued_batches()
                            .next()
                            .expect("full pool must have a queued batch");
                        dev.evict_queue_batch(victim).unwrap();
                        dev.try_insert(p, Walker::new(id, p)).unwrap();
                        id += 1;
                    }
                }
            }
        }
        prop_assert!(dev.total() > 0);
    }
}
