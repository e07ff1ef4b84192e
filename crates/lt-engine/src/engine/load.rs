//! Moving data onto the device (Algorithm 2 lines 6–9): fetch a graph
//! partition from its store, copy it into the graph pool, and stop
//! copying a partition whose loads keep arriving corrupted. Every
//! simulated copy, walk batches included, goes through the one retrying
//! copy here, which also mirrors it into the traffic ledger.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use crate::hostcache;
use lt_gpusim::Direction;

/// Re-issues of a simulated copy after a retryable fault before the error
/// escalates as fatal.
const COPY_RETRIES: u32 = 3;
/// Simulated backoff charged to the host clock before the first retry of
/// a faulted copy; it doubles on every further attempt.
const RETRY_BACKOFF_NS: u64 = 200_000;
/// Corrupted loads of one partition tolerated before the engine stops
/// copying it and degrades it to zero-copy access for good.
const CORRUPTION_DEGRADE_THRESHOLD: u32 = 3;

/// The partitions that can never be made resident, so the scheduler reads
/// them in place whatever the zero-copy policy says: a single hub vertex
/// overflows the graph-pool block (kept current by epoch seals), or
/// [`CORRUPTION_DEGRADE_THRESHOLD`] loads arrived corrupted. A degraded
/// partition is never loaded again, so its count stays put.
pub(super) struct ForcedZeroCopy {
    pub(super) oversized: Vec<bool>,
    pub(super) corrupt_loads: Vec<u32>,
}

impl ForcedZeroCopy {
    pub(super) fn forced(&self, p: PartitionId) -> bool {
        let p = p as usize;
        self.oversized[p] || self.corrupt_loads[p] >= CORRUPTION_DEGRADE_THRESHOLD
    }
}

impl LightTraffic {
    /// Copy partition `i` into the graph pool, retrying loads whose data
    /// arrives corrupted. Returns `Ok(false)` when the
    /// [`CORRUPTION_DEGRADE_THRESHOLD`]th corrupted load degrades the
    /// partition to zero-copy access instead (the caller falls back to
    /// reading it in place).
    ///
    /// The simulated link is charged the partition's bytes; the host
    /// copies nothing. A partition whose rows the block table lends is
    /// read in place once resident, so only a clean partition of an
    /// out-of-core store fetches its decoded block (once per attempt, as
    /// a device upload reads it) and pins it in the pool.
    pub(super) fn load_partition(&mut self, i: PartitionId) -> Result<bool, EngineError> {
        let bytes = self.graph.table().partition_bytes(i);
        loop {
            let pinned = match self.graph.table().rows(i) {
                Some(_) => None,
                None => Some(self.fetch_partition(i)?),
            };
            // Graph partitions are shared infrastructure, not owned by any
            // one job: the whole load (and every corrupted reload) is
            // charged to the shared tag, keyed by the partition.
            self.copy_with_retry(
                TrafficDirection::H2d,
                Category::GraphLoad,
                bytes,
                i,
                &[(SHARED_TAG, bytes)],
            )?;
            if !self.gpu.roll_corruption() {
                self.metrics.explicit_graph_copies += 1;
                let policy = schedule::graph_eviction(self.cfg.selective);
                let Pools {
                    host,
                    device,
                    graph,
                } = &mut self.pools;
                graph.insert(i, pinned, policy, &|p| host.count(p) + device.count(p), i);
                return Ok(true);
            }
            self.forced_zc.corrupt_loads[i as usize] += 1;
            if self.forced_zc.corrupt_loads[i as usize] >= CORRUPTION_DEGRADE_THRESHOLD {
                self.metrics.degraded_partitions += 1;
                return Ok(false);
            }
            // Reload: the copy was charged but the data is junk.
        }
    }

    /// Fetch a clean partition `i` of an out-of-core store — the only
    /// rows the block table cannot lend — through the host decode cache,
    /// charging each miss's decode to the host traffic tier
    /// ([`TrafficDirection::HostLoad`] in the ledger, keyed like graph
    /// loads by `(SHARED_TAG, partition)`, plus `host_decode_bytes`) —
    /// exactly once per decode, so corruption-driven reload loops (cache
    /// hits on re-fetch) add no phantom host-tier traffic. A store read
    /// that fails mid-run is [`EngineError::Graph`].
    pub(super) fn fetch_partition(
        &mut self,
        i: PartitionId,
    ) -> Result<Arc<PartitionData>, EngineError> {
        let cache = self
            .host_cache
            .as_mut()
            .expect("a partition the table cannot lend lives in an out-of-core store");
        let pools = &self.pools;
        let rank = |p| hostcache::eviction_rank(pools.graph.contains(p), pools.walks_in(p));
        let policy = schedule::graph_eviction(self.cfg.selective);
        let f = cache
            .fetch(i, policy, &rank, i, &self.exec)
            .map_err(EngineError::Graph)?;
        if f.missed {
            let bytes = f.data.bytes();
            self.metrics.host_cache_misses += 1;
            self.metrics.host_decode_bytes += bytes;
            self.metrics.host_decode_wall_ns += f.decode_ns;
            if f.evicted {
                self.metrics.host_cache_evictions += 1;
            }
            if let Some(l) = self.attr.ledger.as_mut() {
                l.charge_rows(i, TrafficDirection::HostLoad, &[(SHARED_TAG, bytes)]);
            }
        } else {
            self.metrics.host_cache_hits += 1;
        }
        Ok(f.data)
    }

    /// Issue a simulated copy of `bytes` in ledger direction `tdir`:
    /// [`TrafficDirection::D2h`] on the evict stream, anything else host
    /// to device on the load stream. Epoch-seal reloads travel as
    /// [`TrafficDirection::Reload`], so the per-step H2D traffic the
    /// paper's figures measure stays uncontaminated by mutation-driven
    /// re-copies. A retryable fault re-issues the copy up to
    /// [`COPY_RETRIES`] times, with exponential backoff from
    /// [`RETRY_BACKOFF_NS`] charged to the host clock. Every attempt —
    /// failed or not — is charged on the link, so recovery overhead is
    /// honest simulated time.
    ///
    /// `part`/`rows` attribute the copy in the traffic ledger when
    /// [`super::EngineConfig::attribution`] is on: `rows` splits the
    /// `bytes` of one attempt across job tags (callers pass `&[]` with
    /// attribution off). The ledger is charged once per attempt, mirroring
    /// the simulated link's own accounting, which is what keeps
    /// `Σ ledger == GpuStats` exact even through faults.
    pub(super) fn copy_with_retry(
        &mut self,
        tdir: TrafficDirection,
        cat: Category,
        bytes: u64,
        part: PartitionId,
        rows: &[(u32, u64)],
    ) -> Result<(), EngineError> {
        let (dir, stream) = match tdir {
            TrafficDirection::D2h => (Direction::DeviceToHost, self.evict_stream),
            _ => (Direction::HostToDevice, self.load_stream),
        };
        let mut attempt = 0u32;
        loop {
            let res = self.gpu.copy_async(dir, bytes, cat, stream);
            // The simulated link already charged this attempt, success or
            // not; mirror it before inspecting the outcome.
            if let Some(l) = self.attr.ledger.as_mut() {
                l.charge_rows(part, tdir, rows);
            }
            match res {
                Ok(_) => return Ok(()),
                Err(e) if e.is_retryable() && attempt < COPY_RETRIES => {
                    attempt += 1;
                    self.metrics.retries += 1;
                    let backoff = RETRY_BACKOFF_NS << (attempt - 1);
                    self.gpu.host_advance(backoff, Category::HostWork);
                }
                Err(e) => return Err(EngineError::Device(e)),
            }
        }
    }

    /// Copy a walk batch in ledger direction `tdir`. It moves at least one
    /// byte, and the ledger splits the bytes across the job tags of its
    /// walkers (the count pass is skipped with attribution off).
    pub(super) fn copy_batch(
        &mut self,
        batch: &WalkBatch,
        tdir: TrafficDirection,
        cat: Category,
    ) -> Result<(), EngineError> {
        let bytes = batch.bytes(self.walker_bytes).max(1);
        let rows = match self.attr.ledger {
            Some(_) => walk_rows(batch, bytes),
            None => Vec::new(),
        };
        self.copy_with_retry(tdir, cat, bytes, batch.partition(), &rows)
    }
}

/// Split `total` transfer bytes of `batch` across the job tags of its
/// walkers; all of an empty batch's one-byte floor goes to [`SHARED_TAG`].
fn walk_rows(batch: &WalkBatch, total: u64) -> Vec<(u32, u64)> {
    // Count walkers per tag in a sorted mini-vec: a batch carries a few
    // jobs' walkers, whatever their tags (a server's job slots grow past
    // any fixed bound).
    let mut counts = Vec::new();
    for w in batch.walkers() {
        merge_row(&mut counts, w.tag, 1);
    }
    match counts.len() {
        0 => vec![(SHARED_TAG, total)],
        1 => vec![(counts[0].0, total)],
        _ => apportion_exact(total, &counts),
    }
}

#[cfg(test)]
mod tests {
    use crate::algorithm::UniformSampling;
    use crate::{EngineConfig, LightTraffic};
    use lt_graph::gen::erdos_renyi;
    use std::sync::Arc;

    #[test]
    fn single_partition_graph_needs_one_load() {
        let g = Arc::new(erdos_renyi(512, 4096, 3).csr);
        let cfg = EngineConfig {
            batch_capacity: 256,
            ..EngineConfig::light_traffic(1 << 30, 1)
        };
        let mut e = LightTraffic::new(g, Arc::new(UniformSampling::new(10)), cfg).unwrap();
        let r = e.run(1_000).unwrap();
        assert_eq!(r.metrics.explicit_graph_copies, 1);
        assert_eq!(r.metrics.graph_pool_hit_rate(), 0.0); // first probe misses, rest... single iteration
        assert_eq!(r.metrics.finished_walks, 1_000);
    }
}
