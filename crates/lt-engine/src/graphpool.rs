//! The GPU graph pool: a cache of partition blocks (§III-B) with the
//! eviction policies of §III-D.
//!
//! The baseline pipeline evicts FIFO; selective scheduling overwrites the
//! partition with the fewest walks ("such a graph partition should have the
//! lowest chance to be reused").

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
#[derive(Debug)]
pub struct DeviceGraphPool {
    // Blocks hold `Arc<PartitionData>`: out-of-core stores share one
    // decoded copy with the host decode cache (see `insert`), and epoch
    // seals hand over the sealed block itself (see `refresh`). Graph data
    // is immutable, so the shared handle is free of hazards.
    pool: BlockPool<Arc<PartitionData>>,
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
        gpu: &Gpu,
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

    /// The resident copy of partition `p`.
    pub fn get(&self, p: PartitionId) -> Option<&PartitionData> {
        self.resident[p as usize].map(|id| &**self.pool.get(id))
    }

    /// Insert partition data, evicting per `policy` if the pool is full.
    /// `walk_counts(p)` supplies the per-partition walk totals selective
    /// eviction minimizes over; `protect` (the partition being scheduled)
    /// is never evicted. Returns the evicted partition, if any. The data
    /// comes behind an `Arc` because out-of-core stores share one decoded
    /// copy between the host decode cache and the device pool instead of
    /// cloning megabytes per upload.
    pub fn insert(
        &mut self,
        data: Arc<PartitionData>,
        policy: GraphEviction,
        walk_counts: &dyn Fn(PartitionId) -> u64,
        protect: PartitionId,
    ) -> Option<PartitionId> {
        debug_assert!(!self.contains(data.id), "partition already resident");
        let mut evicted = None;
        if self.pool.is_full() {
            let victim = pick_victim(&self.order, policy, walk_counts, protect);
            self.evict(victim);
            evicted = Some(victim);
        }
        let p = data.id;
        let id = self.pool.acquire(data).expect("space ensured by eviction");
        self.resident[p as usize] = Some(id);
        self.order.push_back(p);
        evicted
    }

    /// Replace the resident copy of partition `p` in place (evolving-graph
    /// reload after an epoch seal) with the sealed block itself — a handle,
    /// not a copy: the simulated link is charged for the bytes, the host
    /// moves none. Residency order is untouched: a refresh is not a new
    /// insertion, so FIFO eviction age is preserved and eviction decisions
    /// are identical to a run without mutations.
    ///
    /// # Panics
    /// Panics if `p` is not resident or `data` belongs to another
    /// partition.
    pub fn refresh(&mut self, p: PartitionId, data: Arc<PartitionData>) {
        assert_eq!(data.id, p, "refresh data must belong to partition {p}");
        let id = self.resident[p as usize].expect("refreshing a non-resident partition");
        *self.pool.get_mut(id) = data;
    }

    /// Drop partition `p` from the cache (graph data needs no write-back —
    /// it is immutable, so eviction is free).
    pub fn evict(&mut self, p: PartitionId) {
        let id = self.resident[p as usize]
            .take()
            .expect("evicting a non-resident partition");
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

    /// Number of blocks.
    pub fn capacity(&self) -> usize {
        self.pool.capacity()
    }

    /// Blocks in use.
    pub fn in_use(&self) -> usize {
        self.pool.in_use()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_gpusim::GpuConfig;
    use lt_graph::gen::{rmat, RmatParams};
    use lt_graph::PartitionedGraph;
    use std::sync::Arc;

    fn part(pg: &PartitionedGraph, p: PartitionId) -> Arc<PartitionData> {
        Arc::new(pg.extract(p))
    }

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
        let (gpu, pg) = setup();
        assert!(pg.num_partitions() >= 4);
        let mut pool = DeviceGraphPool::new(&gpu, pg.num_partitions(), 2, 16 << 10).unwrap();
        let zero = |_: PartitionId| 0u64;
        assert_eq!(
            pool.insert(part(&pg, 0), GraphEviction::Fifo, &zero, 0),
            None
        );
        assert_eq!(
            pool.insert(part(&pg, 1), GraphEviction::Fifo, &zero, 1),
            None
        );
        assert!(pool.contains(0) && pool.contains(1));
        let ev = pool.insert(part(&pg, 2), GraphEviction::Fifo, &zero, 2);
        assert_eq!(ev, Some(0));
        assert!(!pool.contains(0));
        assert!(pool.contains(1) && pool.contains(2));
    }

    #[test]
    fn fewest_walks_eviction_picks_minimum() {
        let (gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&gpu, pg.num_partitions(), 3, 16 << 10).unwrap();
        let counts = |p: PartitionId| match p {
            0 => 50u64,
            1 => 5,
            2 => 500,
            _ => 0,
        };
        for p in 0..3 {
            pool.insert(part(&pg, p), GraphEviction::FewestWalks, &counts, p);
        }
        let ev = pool.insert(part(&pg, 3), GraphEviction::FewestWalks, &counts, 3);
        assert_eq!(ev, Some(1), "partition with fewest walks evicted");
    }

    #[test]
    fn protected_partition_survives_eviction() {
        let (gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&gpu, pg.num_partitions(), 1, 16 << 10).unwrap();
        let counts = |_: PartitionId| 0u64;
        pool.insert(part(&pg, 0), GraphEviction::FewestWalks, &counts, 0);
        // Pool of one block: inserting partition 1 while protecting 1 must
        // evict 0 even though policy would accept anything.
        let ev = pool.insert(part(&pg, 1), GraphEviction::FewestWalks, &counts, 1);
        assert_eq!(ev, Some(0));
        assert!(pool.contains(1));
    }

    #[test]
    fn get_returns_correct_data() {
        let (gpu, pg) = setup();
        let mut pool = DeviceGraphPool::new(&gpu, pg.num_partitions(), 2, 16 << 10).unwrap();
        pool.insert(part(&pg, 1), GraphEviction::Fifo, &|_| 0, 1);
        let d = pool.get(1).unwrap();
        assert_eq!(d.id, 1);
        assert_eq!(*d, pg.extract(1));
        assert!(pool.get(0).is_none());
    }
}
