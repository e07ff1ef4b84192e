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
//! # Sharding
//!
//! The device pool is split into [`DeviceWalkPool::num_shards`] *shards*
//! (DESIGN.md §10). Partition `p` lives in shard `p % S`; each shard owns
//! its partitions' queues, frontiers, reserves, counts, **and its own
//! [`BlockPool`] free list**, so every insert-or-evict decision of the
//! reshuffle is local to one shard. The reshuffle visits the shards in
//! order and hands each partition's movers to `Shard::insert_run` as one
//! run (one bulk copy per frontier block); [`DeviceWalkPool::try_insert`] is the
//! walker-by-walker reference it is tested against. The shard
//! count is *structural*: it depends only on the partition count, never on
//! thread knobs or the machine, so eviction timing — and with it the whole
//! simulated timeline — is bit-identical for any `kernel_threads`.
//!
//! The livelock invariant of the engine's insert-or-evict loop holds *per
//! shard*: every shard pins `2·Pₛ` blocks (frontier + reserve per owned
//! partition) and keeps at least one circulating block, so a shard whose
//! free list is empty always holds a queued batch to evict. This needs a
//! pool floor of `2P + S` blocks in total.

use crate::batch::WalkBatch;
use crate::walker::Walker;
use lt_gpusim::pool::{BlockId, BlockPool};
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
            .expect("just ensured")
            .push(w)
            .expect("tail batch not full");
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

    /// Peek the head batch of `part` — the batch the next
    /// [`HostWalkPool::pop_batch`] will return (speculative pipelining
    /// predicts the next device load from it).
    pub fn head_batch(&self, part: PartitionId) -> Option<&WalkBatch> {
        self.queues[part as usize].front()
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

    /// Number of host batches of `part`.
    pub fn num_batches(&self, part: PartitionId) -> usize {
        self.queues[part as usize].len()
    }

    /// Most walkers ever resident on the host at once — the CPU-memory
    /// footprint the paper's out-of-memory walk index pays for its
    /// scalability (walk index bytes = peak × S_w).
    pub fn peak_walkers(&self) -> u64 {
        self.peak
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

/// Number of shards a `num_partitions`-partition device pool is split
/// into. Structural — a function of the partition count alone (never of
/// thread knobs or the host machine), so shard-local decisions are
/// bit-identical across `kernel_threads` settings.
pub fn shard_count(num_partitions: u32) -> usize {
    (num_partitions as usize).clamp(1, MAX_SHARDS)
}

/// Upper bound on device-pool shards. Beyond eight, per-shard free lists
/// fragment the pool. The value is part of the order contract: which
/// shard a partition lives in decides when its inserts evict, so changing
/// it changes every simulated timeline.
pub const MAX_SHARDS: usize = 8;

/// One shard of the device walk pool: the queues, frontier/reserve pairs,
/// and private [`BlockPool`] free list of every partition `p` with
/// `p % num_shards == shard id`.
#[derive(Debug)]
pub(crate) struct Shard {
    pool: BlockPool<WalkBatch>,
    /// Per owned-partition state, indexed by local index `p / stride`.
    queues: Vec<VecDeque<BlockId>>,
    frontier: Vec<BlockId>,
    reserve: Vec<BlockId>,
    counts: Vec<u64>,
    total: u64,
    /// This shard's id, which is also `p % stride` for every owned `p`.
    id: usize,
    /// The pool's shard count (the partition→shard modulus).
    stride: usize,
    batch_capacity: usize,
}

impl Shard {
    #[inline]
    fn local(&self, part: PartitionId) -> usize {
        debug_assert_eq!(part as usize % self.stride, self.id);
        part as usize / self.stride
    }

    #[inline]
    fn global(&self, local: usize) -> PartitionId {
        (local * self.stride + self.id) as PartitionId
    }

    /// Walkers resident in this shard (queues + frontiers).
    #[inline]
    pub(crate) fn total(&self) -> u64 {
        self.total
    }

    /// Free blocks on this shard's private free list.
    #[inline]
    pub(crate) fn free_blocks(&self) -> usize {
        self.pool.free_blocks()
    }

    /// Walkers of owned partition `part` in this shard.
    #[inline]
    pub(crate) fn count(&self, part: PartitionId) -> u64 {
        self.counts[self.local(part)]
    }

    /// Owned partitions, ascending. The iterator does not borrow the
    /// shard, so the reshuffle can insert while walking it.
    pub(crate) fn partitions(&self) -> impl Iterator<Item = PartitionId> {
        let (id, stride) = (self.id, self.stride);
        (0..self.counts.len()).map(move |l| (l * stride + id) as PartitionId)
    }

    /// Owned partitions that have at least one queued batch, ascending.
    pub(crate) fn partitions_with_queued_batches(&self) -> impl Iterator<Item = PartitionId> + '_ {
        self.queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(l, _)| self.global(l))
    }

    /// Shard-local progress guarantee: when this shard's free list is
    /// empty, every non-pinned block holds a queued batch, so a victim
    /// exists (see the module docs for the `2P + S` floor argument).
    pub(crate) fn eviction_candidate_exists(&self) -> bool {
        self.partitions_with_queued_batches().next().is_some()
    }

    /// Queue the (full) frontier of local partition `l`, make the reserve
    /// the new frontier and draw a fresh reserve from the free list. The
    /// caller has checked that the free list is not empty.
    fn promote_frontier(&mut self, l: usize, part: PartitionId) {
        self.queues[l].push_back(self.frontier[l]);
        self.frontier[l] = self.reserve[l];
        self.reserve[l] = self
            .pool
            .acquire(WalkBatch::new(part, self.batch_capacity))
            .expect("free block checked by the caller");
    }

    /// Insert a reshuffled walker into owned partition `part`'s frontier;
    /// see [`DeviceWalkPool::try_insert`].
    pub(crate) fn try_insert(&mut self, part: PartitionId, w: Walker) -> Result<(), PoolFull> {
        let l = self.local(part);
        debug_assert_eq!(self.pool.get(self.frontier[l]).partition(), part);
        if self.pool.get(self.frontier[l]).is_full() {
            if self.pool.free_blocks() == 0 {
                return Err(PoolFull);
            }
            self.promote_frontier(l, part);
        }
        self.pool
            .get_mut(self.frontier[l])
            .push(w)
            .expect("frontier not full after promotion");
        self.counts[l] += 1;
        self.total += 1;
        Ok(())
    }

    /// Insert a run of reshuffled walkers, all targeting owned partition
    /// `part`, with one bulk copy per frontier block: fill the frontier to
    /// capacity, promote it exactly where [`Shard::try_insert`] would (a
    /// full frontier is promoted only when another walker arrives), and
    /// continue into the new frontier. Returns the walkers not yet
    /// inserted: empty when the whole run went in, otherwise the rest of
    /// the run at the point where the frontier is full and the free list
    /// is empty — the caller must evict a queued batch from this shard
    /// and call again with the rest. Counts are bumped before that
    /// return, so the eviction heuristic reads the same counts as it
    /// would between two `try_insert` calls.
    pub(crate) fn insert_run<'a>(&mut self, part: PartitionId, run: &'a [Walker]) -> &'a [Walker] {
        let l = self.local(part);
        debug_assert_eq!(self.pool.get(self.frontier[l]).partition(), part);
        let mut rest = run;
        while !rest.is_empty() {
            if self.pool.get(self.frontier[l]).is_full() {
                if self.pool.free_blocks() == 0 {
                    break;
                }
                self.promote_frontier(l, part);
            }
            let frontier = self.pool.get_mut(self.frontier[l]);
            let (head, tail) = rest.split_at(rest.len().min(frontier.capacity() - frontier.len()));
            frontier.extend_from_slice(head);
            self.counts[l] += head.len() as u64;
            self.total += head.len() as u64;
            rest = tail;
        }
        rest
    }

    /// Add a host-loaded batch to its partition's queue; see
    /// [`DeviceWalkPool::add_loaded_batch`].
    pub(crate) fn add_loaded_batch(&mut self, batch: WalkBatch) -> Result<BlockId, WalkBatch> {
        let l = self.local(batch.partition());
        let len = batch.len() as u64;
        match self.pool.acquire(batch) {
            Ok(id) => {
                self.queues[l].push_back(id);
                self.counts[l] += len;
                self.total += len;
                Ok(id)
            }
            Err(batch) => Err(batch),
        }
    }

    /// Fetch (and free) the head queued batch of owned partition `part`.
    pub(crate) fn pop_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let l = self.local(part);
        let id = self.queues[l].pop_front()?;
        let b = self.pool.release(id);
        self.counts[l] -= b.len() as u64;
        self.total -= b.len() as u64;
        Some(b)
    }

    /// Evict the tail queued batch of owned partition `part`; see
    /// [`DeviceWalkPool::evict_queue_batch`].
    pub(crate) fn evict_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let l = self.local(part);
        let id = self.queues[l].pop_back()?;
        let b = self.pool.release(id);
        self.counts[l] -= b.len() as u64;
        self.total -= b.len() as u64;
        Some(b)
    }

    /// Take the frontier batch of owned partition `part`; see
    /// [`DeviceWalkPool::take_frontier`].
    pub(crate) fn take_frontier(&mut self, part: PartitionId) -> Option<WalkBatch> {
        let l = self.local(part);
        if self.pool.get(self.frontier[l]).is_empty() {
            return None;
        }
        let b = self.pool.release(self.frontier[l]);
        self.frontier[l] = self.reserve[l];
        self.reserve[l] = self
            .pool
            .acquire(WalkBatch::new(part, self.batch_capacity))
            .expect("a block was just freed");
        self.counts[l] -= b.len() as u64;
        self.total -= b.len() as u64;
        Some(b)
    }

    fn queue_len(&self, part: PartitionId) -> usize {
        self.queues[self.local(part)].len()
    }

    fn frontier_len(&self, part: PartitionId) -> usize {
        self.pool.get(self.frontier[self.local(part)]).len()
    }

    fn head_batch(&self, part: PartitionId) -> Option<&WalkBatch> {
        self.queues[self.local(part)]
            .front()
            .map(|&b| self.pool.get(b))
    }

    fn frontier_walkers(&self, part: PartitionId) -> &[Walker] {
        self.pool.get(self.frontier[self.local(part)]).walkers()
    }

    fn reset(&mut self) {
        for q in &mut self.queues {
            while let Some(id) = q.pop_front() {
                self.pool.release(id);
            }
        }
        for &id in self.frontier.iter().chain(self.reserve.iter()) {
            self.pool.get_mut(id).drain();
        }
        self.counts.fill(0);
        self.total = 0;
    }
}

/// The GPU-side walk pool: per-partition queues, resident frontiers, and
/// reserved free batches, sharded across per-shard [`BlockPool`] free
/// lists (see the module docs).
#[derive(Debug)]
pub struct DeviceWalkPool {
    shards: Vec<Shard>,
    num_partitions: u32,
    batch_capacity: usize,
}

impl DeviceWalkPool {
    /// Reserve `blocks` batch blocks of `block_bytes` each on the device,
    /// split across [`shard_count`] shards, and set up per-partition
    /// frontiers and reserves.
    ///
    /// Requires `blocks >= 2 * num_partitions + shard_count`: the
    /// frontier/reserve pairs pin `2P` blocks (the `(2P+1)B` waste bound
    /// of §III-B), and every shard needs at least one circulating block
    /// for its private free list so the shard-local insert-or-evict loop
    /// cannot livelock.
    pub fn new(
        gpu: &Gpu,
        num_partitions: u32,
        blocks: usize,
        block_bytes: u64,
        batch_capacity: usize,
    ) -> Result<Self, OutOfMemory> {
        let num_shards = shard_count(num_partitions);
        let pinned = 2 * num_partitions as usize;
        assert!(
            blocks >= pinned + num_shards,
            "walk pool needs at least 2P+S = {} blocks (P = {num_partitions} \
             partitions, S = {num_shards} shards), got {blocks}",
            pinned + num_shards
        );
        // Circulating (non-pinned) blocks are dealt round-robin by shard
        // id, so every shard's free list starts with at least one block.
        let circulating = blocks - pinned;
        let mut shards = Vec::with_capacity(num_shards);
        for s in 0..num_shards {
            let parts: Vec<PartitionId> = (s as u32..num_partitions).step_by(num_shards).collect();
            let extra = circulating / num_shards + usize::from(s < circulating % num_shards);
            let mut pool = BlockPool::reserve(gpu, 2 * parts.len() + extra, block_bytes)?;
            let mut frontier = Vec::with_capacity(parts.len());
            let mut reserve = Vec::with_capacity(parts.len());
            for &p in &parts {
                frontier.push(
                    pool.acquire(WalkBatch::new(p, batch_capacity))
                        .expect("sized for 2·Pₛ pinned blocks"),
                );
                reserve.push(
                    pool.acquire(WalkBatch::new(p, batch_capacity))
                        .expect("sized for 2·Pₛ pinned blocks"),
                );
            }
            shards.push(Shard {
                pool,
                queues: (0..parts.len()).map(|_| VecDeque::new()).collect(),
                frontier,
                reserve,
                counts: vec![0; parts.len()],
                total: 0,
                id: s,
                stride: num_shards,
                batch_capacity,
            });
        }
        Ok(DeviceWalkPool {
            shards,
            num_partitions,
            batch_capacity,
        })
    }

    /// Number of shards the pool is split into (`min(P, 8)`).
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning partition `part` (`part % num_shards`).
    #[inline]
    pub fn shard_of(&self, part: PartitionId) -> usize {
        part as usize % self.shards.len()
    }

    #[inline]
    fn shard(&self, part: PartitionId) -> &Shard {
        &self.shards[part as usize % self.shards.len()]
    }

    #[inline]
    fn shard_mut(&mut self, part: PartitionId) -> &mut Shard {
        let s = part as usize % self.shards.len();
        &mut self.shards[s]
    }

    /// The shards themselves, for the reshuffle's shard-major insert
    /// phase.
    #[inline]
    pub(crate) fn shards_mut(&mut self) -> &mut [Shard] {
        &mut self.shards
    }

    /// Walkers resident in shard `s` (occupancy gauge).
    #[inline]
    pub fn shard_walkers(&self, s: usize) -> u64 {
        self.shards[s].total()
    }

    /// Free blocks on shard `s`'s private free list (occupancy gauge).
    #[inline]
    pub fn shard_free_blocks(&self, s: usize) -> usize {
        self.shards[s].free_blocks()
    }

    /// Whether shard `s` currently holds a queued batch to evict — the
    /// per-shard livelock invariant checked by the engine's shard-local
    /// insert-or-evict loop.
    pub fn shard_eviction_candidate_exists(&self, s: usize) -> bool {
        self.shards[s].eviction_candidate_exists()
    }

    /// Walkers of `part` on the device (queues + frontier).
    #[inline]
    pub fn count(&self, part: PartitionId) -> u64 {
        self.shard(part).count(part)
    }

    /// Total walkers on the device.
    #[inline]
    pub fn total(&self) -> u64 {
        self.shards.iter().map(|s| s.total()).sum()
    }

    /// Batch capacity in walkers.
    #[inline]
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Free blocks across every shard's free list.
    pub fn free_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.free_blocks()).sum()
    }

    /// Number of queued (non-frontier) batches of `part`.
    pub fn queue_len(&self, part: PartitionId) -> usize {
        self.shard(part).queue_len(part)
    }

    /// Walkers in the frontier batch of `part`.
    pub fn frontier_len(&self, part: PartitionId) -> usize {
        self.shard(part).frontier_len(part)
    }

    /// Whether the queued batch at the head of `part` is full (preemptive
    /// scheduling prefers full batches).
    pub fn head_batch_full(&self, part: PartitionId) -> bool {
        self.shard(part)
            .head_batch(part)
            .is_some_and(|b| b.is_full())
    }

    /// Walkers in the head queued batch of `part` (0 when none).
    pub fn head_batch_len(&self, part: PartitionId) -> usize {
        self.shard(part).head_batch(part).map_or(0, |b| b.len())
    }

    /// Peek the walkers of the head queued batch of `part` — what the
    /// next [`DeviceWalkPool::pop_queue_batch`] will return (speculative
    /// pipelining clones them to pre-step the next batch).
    pub fn queue_head_walkers(&self, part: PartitionId) -> Option<&[Walker]> {
        self.shard(part).head_batch(part).map(|b| b.walkers())
    }

    /// Peek the walkers of the frontier batch of `part` — what
    /// [`DeviceWalkPool::take_frontier`] would drain.
    pub fn frontier_walkers(&self, part: PartitionId) -> &[Walker] {
        self.shard(part).frontier_walkers(part)
    }

    /// Whether a queued batch exists somewhere to evict.
    ///
    /// This is the progress guarantee behind the engine's insert-or-evict
    /// retry loop, and it holds *per shard*: the `2P + S` floor pins
    /// exactly `2·Pₛ` blocks per shard to frontier and reserve batches, so
    /// whenever a shard's [`DeviceWalkPool::try_insert`] can fail (its
    /// free list is empty), every remaining block of that shard holds a
    /// queued batch — a shard-local eviction victim always exists and the
    /// loop cannot livelock.
    pub fn eviction_candidate_exists(&self) -> bool {
        self.shards.iter().any(|s| s.eviction_candidate_exists())
    }

    /// Partitions that have at least one queued batch, ascending.
    pub fn partitions_with_queued_batches(&self) -> impl Iterator<Item = PartitionId> + '_ {
        (0..self.num_partitions).filter(|&p| self.shard(p).queue_len(p) > 0)
    }

    /// Partitions of shard `s` that have at least one queued batch,
    /// ascending (shard-local eviction victim candidates).
    pub fn shard_partitions_with_queued_batches(
        &self,
        s: usize,
    ) -> impl Iterator<Item = PartitionId> + '_ {
        self.shards[s].partitions_with_queued_batches()
    }

    /// Insert a reshuffled walker into its partition's frontier.
    ///
    /// On frontier overflow the full frontier is promoted to the queue and
    /// the reserved free batch becomes the new frontier; a fresh reserve is
    /// drawn from the owning shard's free list. Fails with [`PoolFull`]
    /// (walker untouched) when that *shard* has no free block — the caller
    /// must evict a queued batch from the same shard first.
    pub fn try_insert(&mut self, part: PartitionId, w: Walker) -> Result<(), PoolFull> {
        self.shard_mut(part).try_insert(part, w)
    }

    /// Add a batch loaded from the host to the partition's queue. Fails
    /// (returning the batch) when the owning shard has no free block.
    pub fn add_loaded_batch(&mut self, batch: WalkBatch) -> Result<BlockId, WalkBatch> {
        let part = batch.partition();
        self.shard_mut(part).add_loaded_batch(batch)
    }

    /// Fetch (and free) the head queued batch of `part` for computation.
    pub fn pop_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        self.shard_mut(part).pop_queue_batch(part)
    }

    /// Take the frontier batch of `part` for computation (when draining the
    /// scheduled partition). The reserve becomes the new frontier and the
    /// freed block immediately refills the reserve, so this always
    /// succeeds. Returns `None` when the frontier is empty.
    pub fn take_frontier(&mut self, part: PartitionId) -> Option<WalkBatch> {
        self.shard_mut(part).take_frontier(part)
    }

    /// Iterate over every walker currently on the device: queued batches
    /// in ascending partition order, then the resident frontiers in
    /// ascending partition order (checkpointing; same order as the
    /// pre-sharding pool).
    pub fn iter_walkers(&self) -> impl Iterator<Item = &Walker> {
        let queued = (0..self.num_partitions).flat_map(move |p| {
            let s = self.shard(p);
            s.queues[s.local(p)]
                .iter()
                .flat_map(move |&id| s.pool.get(id).walkers().iter())
        });
        let frontiers = (0..self.num_partitions).flat_map(move |p| {
            let s = self.shard(p);
            s.pool.get(s.frontier[s.local(p)]).walkers().iter()
        });
        queued.chain(frontiers)
    }

    /// Discard every walker (checkpoint recovery): queued blocks are
    /// released back to their shard's free list and the pinned
    /// frontier/reserve batches are emptied in place, so the device
    /// reservations survive intact.
    pub fn reset(&mut self) {
        for s in &mut self.shards {
            s.reset();
        }
    }

    /// Evict the tail queued batch of `part` back to the host (the caller
    /// performs the simulated D2H copy and hands the batch to the
    /// [`HostWalkPool`]).
    pub fn evict_queue_batch(&mut self, part: PartitionId) -> Option<WalkBatch> {
        self.shard_mut(part).evict_queue_batch(part)
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
        assert_eq!(hp.num_batches(1), 3);
        assert_eq!(hp.total(), 5);
        let b = hp.pop_batch(1).unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(hp.count(1), 3);
        assert!(hp.pop_batch(0).is_none());
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
    fn device_pool_requires_2p_plus_s_blocks() {
        let g = gpu();
        // P = 4 ⇒ S = 4 ⇒ floor = 2·4 + 4 = 12.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            DeviceWalkPool::new(&g, 4, 11, 1024, 16)
        }));
        assert!(r.is_err(), "11 blocks < 2*4+4 must be rejected");
        let dp = DeviceWalkPool::new(&g, 4, 12, 1024, 16).unwrap();
        assert_eq!(dp.num_shards(), 4);
        // Every shard starts with exactly one circulating free block.
        for s in 0..dp.num_shards() {
            assert_eq!(dp.shard_free_blocks(s), 1);
        }
    }

    #[test]
    fn shard_count_is_structural() {
        // Depends only on the partition count — never on thread knobs.
        assert_eq!(shard_count(1), 1);
        assert_eq!(shard_count(5), 5);
        assert_eq!(shard_count(8), 8);
        assert_eq!(shard_count(64), MAX_SHARDS);
    }

    #[test]
    fn partitions_map_to_shards_round_robin() {
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 10, 2 * 10 + 8, 1024, 4).unwrap();
        assert_eq!(dp.num_shards(), 8);
        assert_eq!(dp.shard_of(0), 0);
        assert_eq!(dp.shard_of(9), 1);
        // Shard occupancy follows insertions into its owned partitions.
        dp.try_insert(9, walker(1)).unwrap();
        dp.try_insert(1, walker(2)).unwrap();
        assert_eq!(dp.shard_walkers(1), 2);
        assert_eq!(dp.shard_walkers(0), 0);
        assert_eq!(dp.total(), 2);
    }

    #[test]
    fn frontier_insert_and_promotion() {
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 2, 8, 1024, 2).unwrap();
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
        let g = gpu();
        // 2 partitions => 2 shards => 4 pinned blocks, 6 total => 1
        // circulating block per shard.
        let mut dp = DeviceWalkPool::new(&g, 2, 6, 1024, 1).unwrap();
        dp.try_insert(0, walker(1)).unwrap(); // frontier full (capacity 1)
        dp.try_insert(0, walker(2)).unwrap(); // promote, uses shard 0's free block
                                              // Next promotion needs a free block but shard 0 has none.
        assert_eq!(dp.try_insert(0, walker(3)), Err(PoolFull));
        assert!(dp.shard_eviction_candidate_exists(dp.shard_of(0)));
        // Shard 1's free block cannot help partition 0 — the shard-local
        // free lists are disjoint by design.
        assert_eq!(dp.shard_free_blocks(1), 1);
        // Evict the queued batch; insertion then succeeds.
        let evicted = dp.evict_queue_batch(0).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(dp.count(0), 1);
        dp.try_insert(0, walker(3)).unwrap();
        assert_eq!(dp.count(0), 2);
    }

    #[test]
    fn take_frontier_swaps_in_reserve() {
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 1, 3, 1024, 4).unwrap();
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
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 1, 4, 1024, 2).unwrap();
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
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 1, 3, 1024, 2).unwrap();
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
    /// use) and verify that each `PoolFull` leaves a *shard-local*
    /// eviction candidate — including the case where the only victim is
    /// the partition being inserted into ("protected" from the engine's
    /// point of view) — and that one eviction always unblocks the insert.
    #[test]
    fn full_pool_always_has_an_eviction_victim() {
        let g = gpu();
        // 2 partitions, 2 shards, minimum legal pool: 4 pinned + 1
        // circulating block per shard.
        let mut dp = DeviceWalkPool::new(&g, 2, 6, 1024, 1).unwrap();
        let mut id = 0u64;
        let mut evictions = 0;
        for round in 0..50 {
            let part = (round % 2) as PartitionId;
            id += 1;
            if let Err(PoolFull) = dp.try_insert(part, walker(id)) {
                let shard = dp.shard_of(part);
                assert_eq!(
                    dp.shard_free_blocks(shard),
                    0,
                    "PoolFull implies no free block in the owning shard"
                );
                assert!(
                    dp.shard_eviction_candidate_exists(shard),
                    "full shard with no eviction victim: livelock (round {round})"
                );
                // Evict from whichever owned partition has a queued batch
                // — possibly `part` itself, the protected case.
                let victim = dp
                    .shard_partitions_with_queued_batches(shard)
                    .next()
                    .unwrap();
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
        let g = gpu();
        let mut hp = HostWalkPool::new(2, 2);
        let mut dp = DeviceWalkPool::new(&g, 2, 8, 1024, 2).unwrap();
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
    /// by walker (`try_insert`, evict on `PoolFull`) or in bulk
    /// (`insert_run`, evict on a non-empty rest). The victim is the
    /// shard's queued partition with the fewest walkers, lowest id on a
    /// tie, so the choice depends on the counts at the moment of the
    /// eviction. Returns the evicted batches (partition, walker ids) in
    /// order.
    fn insert_or_evict(
        dp: &mut DeviceWalkPool,
        part: PartitionId,
        run: &[Walker],
        bulk: bool,
    ) -> Vec<(PartitionId, Vec<u64>)> {
        let s = dp.shard_of(part);
        let shard = &mut dp.shards_mut()[s];
        let mut evicted = Vec::new();
        let mut evict = |shard: &mut Shard| {
            let victim = shard
                .partitions_with_queued_batches()
                .min_by_key(|&q| (shard.count(q), q))
                .expect("2P+S floor guarantees a victim");
            let b = shard.evict_queue_batch(victim).unwrap();
            evicted.push((b.partition(), b.walkers().iter().map(|w| w.id).collect()));
        };
        if bulk {
            let mut rest = shard.insert_run(part, run);
            while !rest.is_empty() {
                evict(shard);
                rest = shard.insert_run(part, rest);
            }
        } else {
            for &w in run {
                while shard.try_insert(part, w).is_err() {
                    evict(shard);
                }
            }
        }
        evicted
    }

    #[test]
    fn insert_run_promotes_where_try_insert_would() {
        let g = gpu();
        // One partition, capacity 2, two circulating blocks.
        let mut dp = DeviceWalkPool::new(&g, 1, 4, 1024, 2).unwrap();
        let ws: Vec<Walker> = (0..9).map(walker).collect();
        let shard = &mut dp.shards_mut()[0];
        // A run that exactly fills the frontier does not promote it.
        assert!(shard.insert_run(0, &ws[..2]).is_empty());
        assert_eq!((shard.frontier_len(0), shard.queue_len(0)), (2, 0));
        assert_eq!(shard.free_blocks(), 2);
        // An empty run changes nothing, even on a full frontier.
        assert!(shard.insert_run(0, &[]).is_empty());
        assert_eq!(shard.queue_len(0), 0);
        // Five more arrive on the full frontier: promote, fill, promote,
        // fill, and stop with one walker left where the third promotion
        // finds the free list empty. Counts cover what went in.
        let rest = shard.insert_run(0, &ws[2..7]);
        assert_eq!(rest, &ws[6..7]);
        assert_eq!((shard.frontier_len(0), shard.queue_len(0)), (2, 2));
        assert_eq!(
            (shard.count(0), shard.total(), shard.free_blocks()),
            (6, 6, 0)
        );
        // One eviction unblocks the rest.
        assert_eq!(shard.evict_queue_batch(0).unwrap().walkers(), &ws[2..4]);
        assert!(shard.insert_run(0, rest).is_empty());
        assert_eq!((shard.frontier_len(0), shard.queue_len(0)), (1, 2));
        let ids: Vec<u64> = dp.iter_walkers().map(|w| w.id).collect();
        assert_eq!(ids, vec![0, 1, 4, 5, 6]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On two identically prepared pools, bulk runs with
        /// evict-on-rest and per-walker inserts with evict-on-`PoolFull`
        /// evict the same batches in the same order and leave the same
        /// walkers, counts and free lists behind — for any capacity,
        /// any free-list depth from the `2P + S` floor up, and runs
        /// spanning up to five frontier blocks.
        #[test]
        fn insert_run_matches_per_walker_inserts(
            parts in 1u32..=12,
            capacity in 1usize..=16,
            spare in 0usize..20,
            prepare in prop::collection::vec((0u32..12, 0usize..40), 0..12),
            runs in prop::collection::vec((0u32..12, 0usize..80), 1..16),
        ) {
            let g = gpu();
            let blocks = 2 * parts as usize + shard_count(parts) + spare;
            let mut serial = DeviceWalkPool::new(&g, parts, blocks, 1024, capacity).unwrap();
            let mut bulk = DeviceWalkPool::new(&g, parts, blocks, 1024, capacity).unwrap();
            let mut next_id = 0u64;
            let mut fresh = |n: usize| -> Vec<Walker> {
                let ws = (next_id..next_id + n as u64).map(walker).collect();
                next_id += n as u64;
                ws
            };
            // Arbitrary queue/frontier fill, built the same way on both.
            for &(p, n) in &prepare {
                let ws = fresh(n);
                for dp in [&mut serial, &mut bulk] {
                    insert_or_evict(dp, p % parts, &ws, false);
                }
            }
            for &(p, n) in &runs {
                let (p, n) = (p % parts, n.min(5 * capacity));
                let ws = fresh(n);
                let expect = insert_or_evict(&mut serial, p, &ws, false);
                let got = insert_or_evict(&mut bulk, p, &ws, true);
                prop_assert_eq!(got, expect, "evictions of a {}-walker run into {}", n, p);
            }
            let ids = |dp: &DeviceWalkPool| dp.iter_walkers().map(|w| w.id).collect::<Vec<_>>();
            prop_assert_eq!(ids(&bulk), ids(&serial));
            prop_assert_eq!(bulk.total(), serial.total());
            for p in 0..parts {
                prop_assert_eq!(bulk.count(p), serial.count(p));
                prop_assert_eq!(bulk.queue_len(p), serial.queue_len(p));
                prop_assert_eq!(bulk.frontier_len(p), serial.frontier_len(p));
            }
            for s in 0..bulk.num_shards() {
                prop_assert_eq!(bulk.shard_free_blocks(s), serial.shard_free_blocks(s));
                prop_assert_eq!(bulk.shard_walkers(s), serial.shard_walkers(s));
            }
        }
    }

    #[test]
    fn iter_walkers_order_matches_unsharded_layout() {
        let g = gpu();
        let mut dp = DeviceWalkPool::new(&g, 3, 2 * 3 + 3, 1024, 2).unwrap();
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
