//! The GPU graph pool: a cache of partition blocks (§III-B) with the
//! eviction policies of §III-D.
//!
//! The baseline pipeline evicts FIFO; selective scheduling overwrites the
//! partition with the fewest walks ("such a graph partition should have the
//! lowest chance to be reused").

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use lt_gpusim::pool::{BlockId, BlockPool};
use lt_gpusim::sim::OutOfMemory;
use lt_gpusim::Gpu;
use lt_graph::{PartitionData, PartitionId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Graph-pool eviction policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphEviction {
    /// Evict the oldest resident partition (baseline).
    Fifo,
    /// Evict the resident partition with the fewest walks (selective
    /// scheduling).
    FewestWalks,
}

/// A cache of graph partitions in reserved device blocks.
///
/// An entry records residency: the simulated link was charged for the
/// partition's bytes, and the block is reserved on the device. The host
/// moves no bytes for it. A kernel reads a resident partition's rows in
/// place wherever the engine's block table lends them (a RAM store's CSR
/// range, a sealed block). Only a clean partition of an out-of-core
/// store pins its decoded block in the entry, because the host decode
/// cache may evict that block while it is resident; a seal of the
/// partition drops the pin.
#[derive(Debug)]
pub struct DeviceGraphPool {
    // Graph data is immutable, so a pinned block shared with the host
    // decode cache is free of hazards.
    pool: BlockPool<Option<Arc<PartitionData>>>,
    resident: Vec<Option<BlockId>>,
    /// Residency order, oldest first (for FIFO eviction).
    order: VecDeque<PartitionId>,
}

/// The partition to evict from a full residency queue (`order`, oldest
/// first) under `policy`; `protect` is never chosen.
/// [`GraphEviction::FewestWalks`] takes the minimum of `(rank(p), p)`: the
/// device graph pool ranks by pending walks, the host decode cache by
/// [`crate::hostcache::eviction_rank`].
pub(crate) fn pick_victim<K: Ord>(
    order: &VecDeque<PartitionId>,
    policy: GraphEviction,
    rank: &dyn Fn(PartitionId) -> K,
    protect: PartitionId,
) -> PartitionId {
    let candidates = || order.iter().copied().filter(|&p| p != protect);
    match policy {
        GraphEviction::Fifo => candidates().next(),
        GraphEviction::FewestWalks => candidates().min_by_key(|&p| (rank(p), p)),
    }
    .expect("a full cache holds at least one unprotected resident partition")
}

impl DeviceGraphPool {
    /// Reserve `blocks` partition-sized blocks (`m_g` of the paper).
    pub fn new(
        gpu: &mut Gpu,
        num_partitions: u32,
        blocks: usize,
        block_bytes: u64,
    ) -> Result<Self, OutOfMemory> {
        assert!(blocks >= 1, "graph pool needs at least one block");
        Ok(DeviceGraphPool {
            pool: BlockPool::reserve(gpu, blocks, block_bytes)?,
            resident: vec![None; num_partitions as usize],
            order: VecDeque::new(),
        })
    }

    /// Whether partition `p` is resident.
    #[inline]
    pub fn contains(&self, p: PartitionId) -> bool {
        self.resident[p as usize].is_some()
    }

    /// The block pinned for resident partition `p` (clean out-of-core
    /// partitions only; `None` for a partition read in place or not
    /// resident).
    pub fn pinned(&self, p: PartitionId) -> Option<&PartitionData> {
        self.resident[p as usize].and_then(|id| self.pool.get(id).as_deref())
    }

    /// Drop the block pinned for partition `p`, if any, keeping it
    /// resident: an epoch seal replaced its rows.
    pub fn unpin(&mut self, p: PartitionId) {
        if let Some(id) = self.resident[p as usize] {
            *self.pool.get_mut(id) = None;
        }
    }

    /// Make partition `p` resident, evicting per `policy` if the pool is
    /// full. `pinned` is the decoded block an out-of-core store hands
    /// over, shared with the host decode cache; `None` for stores read in
    /// place. `walk_counts(p)` supplies the per-partition walk totals
    /// selective eviction minimizes over; `protect` (the partition being
    /// scheduled) is never evicted. Returns the evicted partition, if any.
    pub fn insert(
        &mut self,
        p: PartitionId,
        pinned: Option<Arc<PartitionData>>,
        policy: GraphEviction,
        walk_counts: &dyn Fn(PartitionId) -> u64,
        protect: PartitionId,
    ) -> Option<PartitionId> {
        debug_assert!(!self.contains(p), "partition already resident");
        debug_assert!(pinned.as_ref().is_none_or(|d| d.id == p));
        let mut evicted = None;
        if self.pool.is_full() {
            let victim = pick_victim(&self.order, policy, walk_counts, protect);
            self.evict(victim);
            evicted = Some(victim);
        }
        let id = self
            .pool
            .acquire(pinned)
            .expect("a full pool had a victim evicted just above, so a block is free");
        self.resident[p as usize] = Some(id);
        self.order.push_back(p);
        evicted
    }

    /// Drop partition `p` from the cache (graph data needs no write-back —
    /// it is immutable, so eviction is free).
    fn evict(&mut self, p: PartitionId) {
        let id = self.resident[p as usize]
            .take()
            .expect("the victim comes from `order`, which lists only resident partitions");
        self.pool.release(id);
        self.order.retain(|&x| x != p);
    }

    /// Resident partitions, oldest first.
    pub fn resident_partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.order.iter().copied()
    }

    /// Drop every resident partition (checkpoint recovery).
    pub fn reset(&mut self) {
        while let Some(p) = self.order.pop_front() {
            let id = self.resident[p as usize]
                .take()
                .expect("order lists only resident partitions");
            self.pool.release(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_gpusim::GpuConfig;
    use lt_graph::gen::{rmat, RmatParams};
    use lt_graph::PartitionedGraph;
    use std::sync::Arc;

    fn setup() -> (Gpu, PartitionedGraph) {
        let gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            ..Default::default()
        });
        let g = Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                ..RmatParams::default()
            })
            .csr,
        );
        let pg = PartitionedGraph::build(g, 16 << 10);
        (gpu, pg)
    }

    #[test]
    fn insert_until_full_then_fifo_evicts_oldest() {
        let (mut gpu, pg) = setup();
        assert!(pg.num_partitions() >= 4);
        let mut pool = DeviceGraphPool::new(&mut gpu, pg.num_partitions(), 2, 16 << 10).unwrap();
        let zero = |_: PartitionId| 0u64;
        assert_eq!(pool.insert(0, None, GraphEviction::Fifo, &zero, 0), None);
        assert_eq!(pool.insert(1, None, GraphEviction::Fifo, &zero, 1), None);
        assert!(pool.contains(0) && pool.contains(1));
        let ev = pool.insert(2, None, GraphEviction::Fifo, &zero, 2);
        assert_eq!(ev, Some(0));
        assert!(!pool.contains(0));
        assert!(pool.contains(1) && pool.contains(2));
    }

    #[test]
    fn fewest_walks_eviction_picks_minimum() {
        let (mut gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&mut gpu, pg.num_partitions(), 3, 16 << 10).unwrap();
        let counts = |p: PartitionId| match p {
            0 => 50u64,
            1 => 5,
            2 => 500,
            _ => 0,
        };
        for p in 0..3 {
            pool.insert(p, None, GraphEviction::FewestWalks, &counts, p);
        }
        let ev = pool.insert(3, None, GraphEviction::FewestWalks, &counts, 3);
        assert_eq!(ev, Some(1), "partition with fewest walks evicted");
    }

    #[test]
    fn protected_partition_survives_eviction() {
        let (mut gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&mut gpu, pg.num_partitions(), 1, 16 << 10).unwrap();
        let counts = |_: PartitionId| 0u64;
        pool.insert(0, None, GraphEviction::FewestWalks, &counts, 0);
        // Pool of one block: inserting partition 1 while protecting 1 must
        // evict 0 even though policy would accept anything.
        let ev = pool.insert(1, None, GraphEviction::FewestWalks, &counts, 1);
        assert_eq!(ev, Some(0));
        assert!(pool.contains(1));
    }

    #[test]
    fn only_a_pinned_block_is_held() {
        let (mut gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&mut gpu, pg.num_partitions(), 2, 16 << 10).unwrap();
        pool.insert(0, None, GraphEviction::Fifo, &|_| 0, 0);
        let block = Arc::new(pg.extract(1));
        pool.insert(1, Some(block), GraphEviction::Fifo, &|_| 0, 1);
        assert!(pool.contains(0) && pool.pinned(0).is_none());
        assert_eq!(*pool.pinned(1).unwrap(), pg.extract(1));
        assert!(pool.pinned(2).is_none());
        pool.unpin(1);
        assert!(pool.contains(1) && pool.pinned(1).is_none());
    }
}
