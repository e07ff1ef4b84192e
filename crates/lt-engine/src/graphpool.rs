//! The GPU graph pool: a cache of partition blocks (§III-B) with the
//! eviction policies of §III-D, over the one partition cache it shares
//! with the host decode cache ([`crate::hostcache`]).
//!
//! The baseline pipeline evicts FIFO; selective scheduling overwrites the
//! partition with the fewest walks ("such a graph partition should have the
//! lowest chance to be reused").

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

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

/// A bounded cache of per-partition values: one slot per partition, the
/// residency order (oldest first, the FIFO age) and a capacity. The
/// device graph pool ([`DeviceGraphPool`]) and the host decode cache
/// ([`crate::HostDecodeCache`]) are both this cache.
#[derive(Debug)]
pub struct PartitionCache<T> {
    slots: Vec<Option<T>>,
    order: VecDeque<PartitionId>,
    capacity: usize,
}

impl<T> PartitionCache<T> {
    /// An empty cache of `capacity` slots over `num_partitions` partitions.
    pub fn with_capacity(num_partitions: u32, capacity: usize) -> Self {
        assert!(capacity >= 1, "a partition cache needs at least one slot");
        PartitionCache {
            slots: (0..num_partitions).map(|_| None).collect(),
            order: VecDeque::new(),
            capacity,
        }
    }

    /// Whether partition `p` is resident.
    #[inline]
    pub fn contains(&self, p: PartitionId) -> bool {
        self.slots[p as usize].is_some()
    }

    /// The value cached for `p`, if resident.
    #[inline]
    pub fn get(&self, p: PartitionId) -> Option<&T> {
        self.slots[p as usize].as_ref()
    }

    /// When the cache is full, evict the partition `policy` picks from the
    /// residency order and return it. [`GraphEviction::FewestWalks`] takes
    /// the minimum of `(rank(p), p)`: the device graph pool ranks by
    /// pending walks, the host decode cache by
    /// [`crate::hostcache::eviction_rank`]. `protect` is never chosen.
    pub fn make_room<K: Ord>(
        &mut self,
        policy: GraphEviction,
        rank: &dyn Fn(PartitionId) -> K,
        protect: PartitionId,
    ) -> Option<PartitionId> {
        if self.order.len() < self.capacity {
            return None;
        }
        let candidates = || self.order.iter().copied().filter(|&p| p != protect);
        let victim = match policy {
            GraphEviction::Fifo => candidates().next(),
            GraphEviction::FewestWalks => candidates().min_by_key(|&p| (rank(p), p)),
        }
        .expect("a full cache holds at least one unprotected resident partition");
        self.remove(victim);
        Some(victim)
    }

    /// Cache `value` for partition `p`, which is not resident; the caller
    /// has made room.
    pub fn push(&mut self, p: PartitionId, value: T) {
        debug_assert!(!self.contains(p), "partition already resident");
        debug_assert!(self.order.len() < self.capacity, "no room was made");
        self.slots[p as usize] = Some(value);
        self.order.push_back(p);
    }

    /// Cache `value` for partition `p`, evicting per `policy` first if the
    /// cache is full ([`PartitionCache::make_room`]). Returns the evicted
    /// partition, if any.
    pub fn insert<K: Ord>(
        &mut self,
        p: PartitionId,
        value: T,
        policy: GraphEviction,
        rank: &dyn Fn(PartitionId) -> K,
        protect: PartitionId,
    ) -> Option<PartitionId> {
        let evicted = self.make_room(policy, rank, protect);
        self.push(p, value);
        evicted
    }

    /// Drop partition `p`'s slot, returning its value if it was resident.
    pub fn remove(&mut self, p: PartitionId) -> Option<T> {
        let value = self.slots[p as usize].take()?;
        self.order.retain(|&x| x != p);
        Some(value)
    }

    /// Resident partitions, oldest first.
    pub fn resident_partitions(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.order.iter().copied()
    }

    /// Drop every resident partition.
    pub fn clear(&mut self) {
        for p in self.order.drain(..) {
            self.slots[p as usize] = None;
        }
    }
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
/// partition drops the pin. Graph data is immutable, so a pinned block
/// shared with the host decode cache is free of hazards, and eviction
/// needs no write-back.
pub type DeviceGraphPool = PartitionCache<Option<Arc<PartitionData>>>;

impl DeviceGraphPool {
    /// Reserve `blocks` partition-sized blocks (`m_g` of the paper) in one
    /// device reservation.
    pub fn new(
        gpu: &mut Gpu,
        num_partitions: u32,
        blocks: usize,
        block_bytes: u64,
    ) -> Result<Self, OutOfMemory> {
        // Saturates, so a product past `u64` is refused, not wrapped.
        gpu.reserve((blocks as u64).saturating_mul(block_bytes))?;
        Ok(PartitionCache::with_capacity(num_partitions, blocks))
    }

    /// The block pinned for resident partition `p` (clean out-of-core
    /// partitions only; `None` for a partition read in place or not
    /// resident).
    pub fn pinned(&self, p: PartitionId) -> Option<&PartitionData> {
        self.get(p)?.as_deref()
    }

    /// Drop the block pinned for partition `p`, if any, keeping it
    /// resident: an epoch seal replaced its rows.
    pub fn unpin(&mut self, p: PartitionId) {
        if let Some(pin) = self.slots[p as usize].as_mut() {
            *pin = None;
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

    /// The pool is one reservation of `blocks × block_bytes`; a request
    /// past the device, or whose product overflows `u64`, reserves nothing.
    #[test]
    fn new_reserves_once_and_refuses_past_capacity() {
        let mut gpu = Gpu::new(GpuConfig {
            memory_bytes: 1 << 20,
            ..Default::default()
        });
        assert!(DeviceGraphPool::new(&mut gpu, 4, 32, 64 << 10).is_err());
        assert!(DeviceGraphPool::new(&mut gpu, 4, usize::MAX, 1 << 20).is_err());
        assert_eq!(gpu.used_bytes(), 0);
        DeviceGraphPool::new(&mut gpu, 4, 4, 64 << 10).unwrap();
        assert_eq!(gpu.used_bytes(), 256 << 10);
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

    /// `remove` and `clear` drop slots and residency order together, and
    /// a freed slot is room without an eviction.
    #[test]
    fn remove_and_clear_keep_slots_and_order_in_step() {
        let mut cache = PartitionCache::with_capacity(4, 3);
        for p in 0..3 {
            cache.push(p, p * 10);
        }
        assert_eq!(cache.remove(1), Some(10));
        assert_eq!(cache.remove(1), None);
        assert_eq!(cache.resident_partitions().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(cache.make_room(GraphEviction::Fifo, &|_| 0, 0), None);
        cache.push(3, 30);
        // Full again: FIFO skips the protected oldest (0) for the next.
        assert_eq!(cache.make_room(GraphEviction::Fifo, &|_| 0, 0), Some(2));
        assert_eq!(cache.get(3), Some(&30));
        cache.clear();
        assert!((0..4).all(|p| !cache.contains(p)));
        assert_eq!(cache.resident_partitions().count(), 0);
    }
}
