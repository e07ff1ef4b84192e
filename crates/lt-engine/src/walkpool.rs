//! Host and device walk pools (§III-B "Walk index", §III-C first-level
//! cache).
//!
//! Both sides organize batches per partition as queues: the head is fetched
//! for computation, the tail ("write frontier") receives append-only
//! insertions. The device pool additionally keeps, for every partition, a
//! resident frontier batch plus one reserved free batch — the first-level
//! cache of §III-C — so reshuffled walks never cause small writes to host
//! memory, and frontier overflow is handled without dynamic allocation by
//! swapping in the reserve.
//!
//! # One reservation, one free-block count
//!
//! The device pool is the paper's reserved pool: one device reservation
//! of `blocks` batch blocks, of which `2P` are pinned (a frontier and a
//! reserve per partition). The reserve is a counted block, not a batch
//! held aside: promoting a full frontier queues it, starts a fresh
//! frontier in the reserve's block and draws the new reserve from **one**
//! free-block count (`blocks − 2P − queued`), so any partition's
//! promotion or load can take any free block. The reshuffle visits the
//! partitions in ascending order and hands each partition's movers to
//! [`DeviceWalkPool::insert_run`] as one run (one bulk copy per frontier
//! block); [`DeviceWalkPool::try_insert`] is the walker-by-walker
//! reference it is tested against. Nothing here depends on thread knobs
//! or the machine, so eviction timing (and with it the whole simulated
//! timeline) is bit-identical for any `kernel_threads`.
//!
//! The livelock invariant of the engine's insert-or-evict loop is the
//! paper's: with a floor of `2P + 1` blocks, `2P` are pinned, so when no
//! block is free every other block holds a queued batch and one eviction
//! always unblocks the insert.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::batch::WalkBatch;
use crate::walker::Walker;
use lt_gpusim::sim::OutOfMemory;
use lt_gpusim::Gpu;
use lt_graph::PartitionId;
use std::collections::VecDeque;

/// The CPU-side walk index: all batches not currently cached on the device.
#[derive(Debug)]
pub struct HostWalkPool {
    queues: Vec<VecDeque<WalkBatch>>,
    counts: Vec<u64>,
    total: u64,
    peak: u64,
    batch_capacity: usize,
}

impl HostWalkPool {
    /// Empty pool for `num_partitions` partitions.
    pub fn new(num_partitions: u32, batch_capacity: usize) -> Self {
        HostWalkPool {
            queues: (0..num_partitions).map(|_| VecDeque::new()).collect(),
            counts: vec![0; num_partitions as usize],
            total: 0,
            peak: 0,
            batch_capacity,
        }
    }

    /// Append a walker to the partition's host-side frontier (tail batch),
    /// opening a new batch when the tail is full. Used for initial walker
    /// placement; during execution walks reshuffle through the device pool.
    pub fn insert(&mut self, part: PartitionId, w: Walker) {
        let q = &mut self.queues[part as usize];
        let need_new = q.back().is_none_or(|b| b.is_full());
        if need_new {
            q.push_back(WalkBatch::new(part, self.batch_capacity));
        }
        q.back_mut()
            .expect("a tail batch exists: one was pushed above if the queue was empty")
            .push(w)
            .expect("the tail batch has room: a full tail was followed by a fresh batch above");
        self.counts[part as usize] += 1;
        self.total += 1;
        self.peak = self.peak.max(self.total);
    }

    /// Fetch the head batch of a partition for loading onto the device.
    pub fn pop_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let b = self.queues[part as usize].pop_front()?;
        self.counts[part as usize] -= b.len() as u64;
        self.total -= b.len() as u64;
        Some(b)
    }

    /// Receive a batch evicted from the device. It goes to the head so it
    /// is reloaded first when its partition is next scheduled.
    pub fn push_evicted(&mut self, batch: WalkBatch) {
        let part = batch.partition() as usize;
        self.counts[part] += batch.len() as u64;
        self.total += batch.len() as u64;
        self.peak = self.peak.max(self.total);
        self.queues[part].push_front(batch);
    }

    /// Walkers of `part` currently on the host.
    #[inline]
    pub fn count(&self, part: PartitionId) -> u64 {
        self.counts[part as usize]
    }

    /// Total walkers on the host.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Most walkers ever resident on the host at once — the CPU-memory
    /// footprint the paper's out-of-memory walk index pays for its
    /// scalability (walk index bytes = peak × S_w).
    pub fn peak_walkers(&self) -> u64 {
        self.peak
    }

    /// The queued batches of `part`, head first: the order
    /// [`Self::pop_batch`] hands them out.
    pub(crate) fn batches(&self, part: PartitionId) -> impl Iterator<Item = &WalkBatch> {
        self.queues[part as usize].iter()
    }

    /// Iterate over every walker currently on the host (checkpointing).
    pub fn iter_walkers(&self) -> impl Iterator<Item = &Walker> {
        self.queues
            .iter()
            .flat_map(|q| q.iter().flat_map(|b| b.walkers().iter()))
    }

    /// Discard every walker (checkpoint recovery). The peak watermark is
    /// kept: it measures the footprint the whole run paid for.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        self.counts.fill(0);
        self.total = 0;
    }
}

/// Why a device-pool insertion could not proceed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolFull;

/// The GPU-side walk pool: per-partition queues and resident frontiers
/// over one free-block count (see the module docs).
#[derive(Debug)]
pub struct DeviceWalkPool {
    queues: Vec<VecDeque<WalkBatch>>,
    frontier: Vec<WalkBatch>,
    /// Blocks neither pinned (a frontier and a reserve per partition) nor
    /// holding a queued batch: `blocks − 2P − queued`.
    free: usize,
    counts: Vec<u64>,
    total: u64,
    batch_capacity: usize,
}

impl DeviceWalkPool {
    /// Reserve `blocks` batch blocks of `block_bytes` each on the device
    /// and set up per-partition frontiers and reserves.
    ///
    /// Requires `blocks >= 2 * num_partitions + 1`: the frontier/reserve
    /// pairs pin `2P` blocks (the `(2P+1)B` waste bound of §III-B), and at
    /// least one block must circulate so the insert-or-evict loop cannot
    /// livelock.
    pub fn new(
        gpu: &mut Gpu,
        num_partitions: u32,
        blocks: usize,
        block_bytes: u64,
        batch_capacity: usize,
    ) -> Result<Self, OutOfMemory> {
        let p = num_partitions as usize;
        let floor = 2 * p + 1;
        assert!(
            blocks >= floor,
            "walk pool needs at least 2P+1 = {floor} blocks (P = {num_partitions} \
             partitions), got {blocks}"
        );
        // Saturates, so a product past `u64` is refused, not wrapped.
        gpu.reserve((blocks as u64).saturating_mul(block_bytes))?;
        Ok(DeviceWalkPool {
            queues: (0..p).map(|_| VecDeque::new()).collect(),
            frontier: (0..num_partitions)
                .map(|part| WalkBatch::new(part, batch_capacity))
                .collect(),
            free: blocks - 2 * p,
            counts: vec![0; p],
            total: 0,
            batch_capacity,
        })
    }

    /// Number of partitions the pool serves.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Walkers of `part` on the device (queues + frontier).
    #[inline]
    pub fn count(&self, part: PartitionId) -> u64 {
        self.counts[part as usize]
    }

    /// Total walkers on the device.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Batch capacity in walkers.
    #[inline]
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Free blocks: neither pinned nor queued.
    #[inline]
    pub fn free_blocks(&self) -> usize {
        self.free
    }

    /// Number of queued (non-frontier) batches of `part`.
    pub fn queue_len(&self, part: PartitionId) -> usize {
        self.queues[part as usize].len()
    }

    /// Walkers in the frontier batch of `part`.
    pub fn frontier_len(&self, part: PartitionId) -> usize {
        self.frontier[part as usize].len()
    }

    /// Whether the queued batch at the head of `part` is full (preemptive
    /// scheduling prefers full batches).
    pub fn head_batch_full(&self, part: PartitionId) -> bool {
        self.queues[part as usize]
            .front()
            .is_some_and(|b| b.is_full())
    }

    /// Walkers in the head queued batch of `part` (0 when none).
    pub fn head_batch_len(&self, part: PartitionId) -> usize {
        self.queues[part as usize].front().map_or(0, |b| b.len())
    }

    /// Partitions that have at least one queued batch, ascending.
    pub fn partitions_with_queued_batches(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(p, _)| p as PartitionId)
    }

    /// Queue the (full) frontier of `part`: the reserve becomes the new
    /// frontier and a free block the new reserve. The caller has checked
    /// that a block is free.
    fn promote_frontier(&mut self, part: PartitionId) {
        let fresh = WalkBatch::new(part, self.batch_capacity);
        let full = std::mem::replace(&mut self.frontier[part as usize], fresh);
        self.queues[part as usize].push_back(full);
        self.free -= 1;
    }

    /// Insert a reshuffled walker into its partition's frontier.
    ///
    /// On frontier overflow the full frontier is promoted to the queue and
    /// the reserved free batch becomes the new frontier; a fresh reserve is
    /// drawn from the free blocks. Fails with [`PoolFull`] (walker
    /// untouched) when no block is free — the caller must evict a queued
    /// batch first.
    pub fn try_insert(&mut self, part: PartitionId, w: Walker) -> Result<(), PoolFull> {
        let l = part as usize;
        debug_assert_eq!(self.frontier[l].partition(), part);
        if self.frontier[l].is_full() {
            if self.free == 0 {
                return Err(PoolFull);
            }
            self.promote_frontier(part);
        }
        self.frontier[l]
            .push(w)
            .expect("the frontier has room: a full one was promoted to the queue above");
        self.counts[l] += 1;
        self.total += 1;
        Ok(())
    }

    /// Insert a run of reshuffled walkers, all targeting `part`, with one
    /// bulk copy per frontier block: fill the frontier to capacity,
    /// promote it exactly where [`DeviceWalkPool::try_insert`] would (a
    /// full frontier is promoted only when another walker arrives), and
    /// continue into the new frontier. Returns the walkers not yet
    /// inserted: empty when the whole run went in, otherwise the rest of
    /// the run at the point where the frontier is full and no block is
    /// free — the caller must evict a queued batch and call again
    /// with the rest. Counts are bumped before that return, so the
    /// eviction heuristic reads the same counts as it would between two
    /// `try_insert` calls.
    pub fn insert_run<'a>(&mut self, part: PartitionId, run: &'a [Walker]) -> &'a [Walker] {
        let l = part as usize;
        debug_assert_eq!(self.frontier[l].partition(), part);
        let mut rest = run;
        while !rest.is_empty() {
            if self.frontier[l].is_full() {
                if self.free == 0 {
                    break;
                }
                self.promote_frontier(part);
            }
            let frontier = &mut self.frontier[l];
            let (head, tail) = rest.split_at(rest.len().min(frontier.capacity() - frontier.len()));
            frontier.extend_from_slice(head);
            self.counts[l] += head.len() as u64;
            self.total += head.len() as u64;
            rest = tail;
        }
        rest
    }

    /// Add a batch loaded from the host to the partition's queue. Fails
    /// (returning the batch) when no block is free.
    pub fn add_loaded_batch(&mut self, batch: WalkBatch) -> Result<(), WalkBatch> {
        if self.free == 0 {
            return Err(batch);
        }
        let l = batch.partition() as usize;
        self.counts[l] += batch.len() as u64;
        self.total += batch.len() as u64;
        self.queues[l].push_back(batch);
        self.free -= 1;
        Ok(())
    }

    /// Free the block of a batch taken off `part`'s queue and take it off
    /// the counts.
    fn release_queued(&mut self, part: PartitionId, b: WalkBatch) -> WalkBatch {
        self.free += 1;
        self.counts[part as usize] -= b.len() as u64;
        self.total -= b.len() as u64;
        b
    }

    /// Fetch (and free) the head queued batch of `part` for computation.
    pub fn pop_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let b = self.queues[part as usize].pop_front()?;
        Some(self.release_queued(part, b))
    }

    /// Evict the tail queued batch of `part` back to the host (the caller
    /// performs the simulated D2H copy and hands the batch to the
    /// [`HostWalkPool`]).
    pub fn evict_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let b = self.queues[part as usize].pop_back()?;
        Some(self.release_queued(part, b))
    }

    /// Take the frontier batch of `part` for computation (when draining the
    /// scheduled partition). The reserve becomes the new frontier and the
    /// freed block immediately refills the reserve, so this always
    /// succeeds and leaves the free count alone. Returns `None` when the
    /// frontier is empty.
    pub fn take_frontier(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let l = part as usize;
        if self.frontier[l].is_empty() {
            return None;
        }
        let b = std::mem::replace(
            &mut self.frontier[l],
            WalkBatch::new(part, self.batch_capacity),
        );
        self.counts[l] -= b.len() as u64;
        self.total -= b.len() as u64;
        Some(b)
    }

    /// The queued batches of `part`, head first: the order
    /// [`Self::pop_queue_batch`] hands them out.
    pub(crate) fn queued(&self, part: PartitionId) -> impl Iterator<Item = &WalkBatch> {
        self.queues[part as usize].iter()
    }

    /// The frontier batch of `part`, unless it is empty: what
    /// [`Self::take_frontier`] would hand out.
    pub(crate) fn frontier(&self, part: PartitionId) -> Option<&WalkBatch> {
        Some(&self.frontier[part as usize]).filter(|b| !b.is_empty())
    }

    /// Iterate over every walker currently on the device: queued batches
    /// in ascending partition order, then the resident frontiers in
    /// ascending partition order (checkpointing).
    pub fn iter_walkers(&self) -> impl Iterator<Item = &Walker> {
        let queued = self.queues.iter().flatten();
        queued.chain(&self.frontier).flat_map(|b| b.walkers())
    }

    /// Discard every walker (checkpoint recovery): queued blocks return
    /// to the free count and the frontiers are emptied in place, so the
    /// device reservation survives intact.
    pub fn reset(&mut self) {
        for q in &mut self.queues {
            self.free += q.len();
            q.clear();
        }
        for b in &mut self.frontier {
            b.drain();
        }
        self.counts.fill(0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_gpusim::{Gpu, GpuConfig};
    use proptest::prelude::*;

    fn gpu() -> Gpu {
        Gpu::new(GpuConfig {
            memory_bytes: 1 << 30,
            ..Default::default()
        })
    }

    fn walker(id: u64) -> Walker {
        Walker::new(id, 0)
    }

    #[test]
    fn host_pool_insert_pop_roundtrip() {
        let mut hp = HostWalkPool::new(4, 2);
        for i in 0..5 {
            hp.insert(1, walker(i));
        }
        assert_eq!(hp.count(1), 5);
        assert_eq!(hp.total(), 5);
        let b = hp.pop_batch(1).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(hp.count(1), 3);
        assert!(hp.pop_batch(0).is_none());
        // Five walkers in batches of two: three batches in all.
        let rest: Vec<usize> = std::iter::from_fn(|| hp.pop_batch(1).map(|b| b.len())).collect();
        assert_eq!((rest.len(), rest.iter().sum::<usize>()), (2, 3));
    }

    #[test]
    fn host_pool_evicted_batches_go_first() {
        let mut hp = HostWalkPool::new(2, 4);
        hp.insert(0, walker(1));
        let mut evicted = WalkBatch::new(0, 4);
        evicted.push(walker(99)).unwrap();
        hp.push_evicted(evicted);
        assert_eq!(hp.count(0), 2);
        let first = hp.pop_batch(0).unwrap();
        assert_eq!(first.walkers()[0].id, 99);
    }

    #[test]
    fn device_pool_requires_2p_plus_1_blocks() {
        let mut g = gpu();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DeviceWalkPool::new(&mut g, 4, 8, 1024, 16)
        }));
        assert!(r.is_err(), "8 blocks < 2*4+1 must be rejected");
        let dp = DeviceWalkPool::new(&mut g, 4, 9, 1024, 16).unwrap();
        assert_eq!(dp.free_blocks(), 1);
    }

    /// The pool is one reservation of `blocks × block_bytes`; a request
    /// past the device, or whose product overflows `u64`, reserves nothing.
    #[test]
    fn new_reserves_once_and_refuses_past_capacity() {
        let mut g = Gpu::new(GpuConfig {
            memory_bytes: 1 << 20,
            ..Default::default()
        });
        assert!(DeviceWalkPool::new(&mut g, 2, 32, 64 << 10, 16).is_err());
        assert!(DeviceWalkPool::new(&mut g, 2, usize::MAX, 1 << 20, 16).is_err());
        assert_eq!(g.used_bytes(), 0);
        DeviceWalkPool::new(&mut g, 2, 5, 64 << 10, 16).unwrap();
        assert_eq!(g.used_bytes(), 5 * (64 << 10));
    }

    /// Fails with per-shard free lists: any partition can use every
    /// circulating block, so a skewed reshuffle does not see `PoolFull`
    /// while the pool has room.
    #[test]
    fn one_partition_can_use_every_circulating_block() {
        let mut g = gpu();
        let (p, capacity) = (16u32, 4usize);
        let mut dp = DeviceWalkPool::new(&mut g, p, 2 * p as usize + 8, 1024, capacity).unwrap();
        let ws: Vec<Walker> = (0..9 * capacity as u64 + 1).map(walker).collect();
        let (nine_batches, next) = ws.split_at(9 * capacity);
        // Frontier + eight promotions: all nine batches' worth go in.
        assert!(dp.insert_run(0, nine_batches).is_empty());
        assert_eq!((dp.queue_len(0), dp.frontier_len(0)), (8, capacity));
        assert_eq!(dp.free_blocks(), 0);
        // Only the next walker is refused.
        assert_eq!(dp.insert_run(0, next), next);
        assert_eq!(dp.try_insert(0, next[0]), Err(PoolFull));
        assert_eq!(dp.total(), 9 * capacity as u64);
    }

    #[test]
    fn frontier_insert_and_promotion() {
        let mut g = gpu();
        let mut dp = DeviceWalkPool::new(&mut g, 2, 8, 1024, 2).unwrap();
        dp.try_insert(0, walker(1)).unwrap();
        dp.try_insert(0, walker(2)).unwrap();
        assert_eq!(dp.frontier_len(0), 2);
        assert_eq!(dp.queue_len(0), 0);
        // Third insert promotes the full frontier.
        dp.try_insert(0, walker(3)).unwrap();
        assert_eq!(dp.queue_len(0), 1);
        assert_eq!(dp.frontier_len(0), 1);
        assert_eq!(dp.count(0), 3);
        assert!(dp.head_batch_full(0));
    }

    #[test]
    fn pool_full_surfaces_and_eviction_recovers() {
        let mut g = gpu();
        // 2 partitions => 4 pinned blocks, 5 total => 1 circulating block.
        let mut dp = DeviceWalkPool::new(&mut g, 2, 5, 1024, 1).unwrap();
        dp.try_insert(0, walker(1)).unwrap(); // frontier full (capacity 1)
        dp.try_insert(0, walker(2)).unwrap(); // promote, uses the free block
        assert_eq!(dp.try_insert(0, walker(3)), Err(PoolFull));
        assert_eq!(dp.partitions_with_queued_batches().next(), Some(0));
        // Evict the queued batch; insertion then succeeds.
        let evicted = dp.evict_queue_batch(0).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(dp.count(0), 1);
        dp.try_insert(0, walker(3)).unwrap();
        assert_eq!(dp.count(0), 2);
    }

    #[test]
    fn take_frontier_swaps_in_reserve() {
        let mut g = gpu();
        let mut dp = DeviceWalkPool::new(&mut g, 1, 3, 1024, 4).unwrap();
        assert!(dp.take_frontier(0).is_none(), "empty frontier yields None");
        dp.try_insert(0, walker(1)).unwrap();
        dp.try_insert(0, walker(2)).unwrap();
        let b = dp.take_frontier(0).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(dp.count(0), 0);
        assert_eq!(dp.frontier_len(0), 0);
        // Pool still functional afterwards.
        dp.try_insert(0, walker(3)).unwrap();
        assert_eq!(dp.count(0), 1);
    }

    #[test]
    fn loaded_batch_enters_queue() {
        let mut g = gpu();
        let mut dp = DeviceWalkPool::new(&mut g, 1, 4, 1024, 2).unwrap();
        let mut b = WalkBatch::new(0, 2);
        b.push(walker(5)).unwrap();
        b.push(walker(6)).unwrap();
        dp.add_loaded_batch(b).unwrap();
        assert_eq!(dp.queue_len(0), 1);
        assert_eq!(dp.count(0), 2);
        let got = dp.pop_queue_batch(0).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(dp.count(0), 0);
    }

    #[test]
    fn add_loaded_batch_fails_when_full() {
        let mut g = gpu();
        let mut dp = DeviceWalkPool::new(&mut g, 1, 3, 1024, 2).unwrap();
        let mut b1 = WalkBatch::new(0, 2);
        b1.push(walker(1)).unwrap();
        dp.add_loaded_batch(b1).unwrap(); // uses the only circulating block
        let mut b2 = WalkBatch::new(0, 2);
        b2.push(walker(2)).unwrap();
        let back = dp.add_loaded_batch(b2).unwrap_err();
        assert_eq!(back.len(), 1);
        assert_eq!(dp.count(0), 1);
    }

    /// Livelock regression: drive the pool to capacity (every block in
    /// use) and verify that each `PoolFull` leaves an eviction candidate
    /// — including the case where the only victim is the partition being
    /// inserted into ("protected" from the engine's point of view) — and
    /// that one eviction always unblocks the insert.
    #[test]
    fn full_pool_always_has_an_eviction_victim() {
        let mut g = gpu();
        // 2 partitions, minimum legal pool: 4 pinned + 1 circulating.
        let mut dp = DeviceWalkPool::new(&mut g, 2, 5, 1024, 1).unwrap();
        let mut id = 0u64;
        let mut evictions = 0;
        for round in 0..50 {
            let part = (round % 2) as PartitionId;
            id += 1;
            if let Err(PoolFull) = dp.try_insert(part, walker(id)) {
                assert_eq!(dp.free_blocks(), 0, "PoolFull implies no free block");
                // With one circulating block the only queued batch is
                // often `part`'s own: the protected case.
                let victim = dp
                    .partitions_with_queued_batches()
                    .next()
                    .unwrap_or_else(|| panic!("full pool, no victim: livelock (round {round})"));
                dp.evict_queue_batch(victim).unwrap();
                evictions += 1;
                // Exactly one eviction must unblock the insert.
                assert_eq!(dp.try_insert(part, walker(id)), Ok(()));
            }
        }
        assert!(evictions > 0, "capacity was never reached");
    }

    #[test]
    fn counts_conserved_through_all_ops() {
        let mut g = gpu();
        let mut hp = HostWalkPool::new(2, 2);
        let mut dp = DeviceWalkPool::new(&mut g, 2, 8, 1024, 2).unwrap();
        for i in 0..7 {
            hp.insert((i % 2) as u32, walker(i));
        }
        let grand = |hp: &HostWalkPool, dp: &DeviceWalkPool| hp.total() + dp.total();
        assert_eq!(grand(&hp, &dp), 7);
        // Load two host batches to device.
        let b = hp.pop_batch(0).unwrap();
        dp.add_loaded_batch(b).unwrap();
        assert_eq!(grand(&hp, &dp), 7);
        // Evict back.
        let e = dp.evict_queue_batch(0).unwrap();
        hp.push_evicted(e);
        assert_eq!(grand(&hp, &dp), 7);
        // Reshuffle-insert to device.
        dp.try_insert(1, walker(100)).unwrap();
        assert_eq!(grand(&hp, &dp), 8);
    }

    /// Insert `run` into `part` the way the engine does, either walker
    /// by walker (`try_insert`, evict on `PoolFull`; `cuts` is `None`) or
    /// in bulk (`insert_run`, evict on a non-empty rest), one piece after
    /// another: `cuts`, ascending positions in the run, cut it into
    /// pieces, as the engine's chunks cut a kernel's movers. The victim
    /// is the queued partition with the fewest walkers, lowest id on a
    /// tie, so the choice depends on the counts at the moment of the
    /// eviction. Returns the evicted batches (partition, walker ids) in
    /// order.
    fn insert_or_evict(
        dp: &mut DeviceWalkPool,
        part: PartitionId,
        run: &[Walker],
        cuts: Option<&[usize]>,
    ) -> Vec<(PartitionId, Vec<u64>)> {
        let mut evicted = Vec::new();
        let mut evict = |dp: &mut DeviceWalkPool| {
            let victim = dp
                .partitions_with_queued_batches()
                .min_by_key(|&q| (dp.count(q), q))
                .expect("2P+1 floor guarantees a victim");
            let b = dp.evict_queue_batch(victim).unwrap();
            evicted.push((b.partition(), b.walkers().iter().map(|w| w.id).collect()));
        };
        if let Some(cuts) = cuts {
            let ends = cuts.iter().copied().chain([run.len()]);
            let mut start = 0;
            for end in ends {
                let mut rest = dp.insert_run(part, &run[start..end]);
                while !rest.is_empty() {
                    evict(dp);
                    rest = dp.insert_run(part, rest);
                }
                start = end;
            }
        } else {
            for &w in run {
                while dp.try_insert(part, w).is_err() {
                    evict(dp);
                }
            }
        }
        evicted
    }

    #[test]
    fn insert_run_promotes_where_try_insert_would() {
        let mut g = gpu();
        // One partition, capacity 2, two circulating blocks.
        let mut dp = DeviceWalkPool::new(&mut g, 1, 4, 1024, 2).unwrap();
        let ws: Vec<Walker> = (0..9).map(walker).collect();
        // A run that exactly fills the frontier does not promote it.
        assert!(dp.insert_run(0, &ws[..2]).is_empty());
        assert_eq!((dp.frontier_len(0), dp.queue_len(0)), (2, 0));
        assert_eq!(dp.free_blocks(), 2);
        // An empty run changes nothing, even on a full frontier.
        assert!(dp.insert_run(0, &[]).is_empty());
        assert_eq!(dp.queue_len(0), 0);
        // Five more arrive on the full frontier: promote, fill, promote,
        // fill, and stop with one walker left where the third promotion
        // finds no block free. Counts cover what went in.
        let rest = dp.insert_run(0, &ws[2..7]);
        assert_eq!(rest, &ws[6..7]);
        assert_eq!((dp.frontier_len(0), dp.queue_len(0)), (2, 2));
        assert_eq!((dp.count(0), dp.total(), dp.free_blocks()), (6, 6, 0));
        // One eviction unblocks the rest.
        assert_eq!(dp.evict_queue_batch(0).unwrap().walkers(), &ws[2..4]);
        assert!(dp.insert_run(0, rest).is_empty());
        assert_eq!((dp.frontier_len(0), dp.queue_len(0)), (1, 2));
        let ids: Vec<u64> = dp.iter_walkers().map(|w| w.id).collect();
        assert_eq!(ids, vec![0, 1, 4, 5, 6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On three identically prepared pools, bulk runs with
        /// evict-on-rest, the same runs inserted in pieces cut at
        /// arbitrary points, one piece after another, and per-walker
        /// inserts with evict-on-`PoolFull` evict the same batches in the
        /// same order and leave the same walkers, counts, frontiers and
        /// free blocks behind — for any capacity, any free-block depth
        /// from the `2P + 1` floor up, and runs spanning up to five
        /// frontier blocks.
        #[test]
        fn insert_run_matches_per_walker_inserts(
            parts in 1u32..=12,
            capacity in 1usize..=16,
            spare in 0usize..20,
            prepare in prop::collection::vec((0u32..12, 0usize..40), 0..12),
            runs in prop::collection::vec(
                (0u32..12, 0usize..80, prop::collection::vec(any::<usize>(), 0..5)),
                1..16,
            ),
        ) {
            let mut g = gpu();
            let blocks = 2 * parts as usize + 1 + spare;
            let mut serial = DeviceWalkPool::new(&mut g, parts, blocks, 1024, capacity).unwrap();
            let mut bulk = DeviceWalkPool::new(&mut g, parts, blocks, 1024, capacity).unwrap();
            let mut pieces = DeviceWalkPool::new(&mut g, parts, blocks, 1024, capacity).unwrap();
            let mut next_id = 0u64;
            let mut fresh = |n: usize| -> Vec<Walker> {
                let ws = (next_id..next_id + n as u64).map(walker).collect();
                next_id += n as u64;
                ws
            };
            // Arbitrary queue/frontier fill, built the same way on both.
            for &(p, n) in &prepare {
                let ws = fresh(n);
                for dp in [&mut serial, &mut bulk, &mut pieces] {
                    insert_or_evict(dp, p % parts, &ws, None);
                }
            }
            for (p, n, cuts) in &runs {
                let (p, n) = (p % parts, (*n).min(5 * capacity));
                let ws = fresh(n);
                let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (n + 1)).collect();
                cuts.sort_unstable();
                let expect = insert_or_evict(&mut serial, p, &ws, None);
                let got = insert_or_evict(&mut bulk, p, &ws, Some(&[]));
                prop_assert_eq!(&got, &expect, "evictions of a {}-walker run into {}", n, p);
                let got = insert_or_evict(&mut pieces, p, &ws, Some(&cuts));
                prop_assert_eq!(&got, &expect, "{}-walker run into {} cut at {:?}", n, p, cuts);
            }
            let ids = |dp: &DeviceWalkPool| dp.iter_walkers().map(|w| w.id).collect::<Vec<_>>();
            let frontier = |dp: &DeviceWalkPool, p| dp.frontier(p).map(|b| b.walkers().to_vec());
            for dp in [&bulk, &pieces] {
                prop_assert_eq!(ids(dp), ids(&serial));
                prop_assert_eq!(dp.total(), serial.total());
                for p in 0..parts {
                    prop_assert_eq!(dp.count(p), serial.count(p));
                    prop_assert_eq!(dp.queue_len(p), serial.queue_len(p));
                    prop_assert_eq!(dp.frontier_len(p), serial.frontier_len(p));
                    prop_assert_eq!(frontier(dp, p), frontier(&serial, p));
                }
                prop_assert_eq!(dp.free_blocks(), serial.free_blocks());
            }
        }
    }

    #[test]
    fn iter_walkers_yields_queues_then_frontiers() {
        let mut g = gpu();
        let mut dp = DeviceWalkPool::new(&mut g, 3, 2 * 3 + 3, 1024, 2).unwrap();
        // Queue a batch on partition 2 and put frontier walkers on 0 and 1.
        let mut b = WalkBatch::new(2, 2);
        b.push(walker(10)).unwrap();
        b.push(walker(11)).unwrap();
        dp.add_loaded_batch(b).unwrap();
        dp.try_insert(1, walker(20)).unwrap();
        dp.try_insert(0, walker(30)).unwrap();
        let ids: Vec<u64> = dp.iter_walkers().map(|w| w.id).collect();
        // Queued batches first (ascending partition), then frontiers
        // (ascending partition).
        assert_eq!(ids, vec![10, 11, 30, 20]);
    }
}
