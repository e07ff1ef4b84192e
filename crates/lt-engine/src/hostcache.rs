//! Host decode cache: the RAM tier of the out-of-core substrate.
//!
//! When the graph store is [`lt_graph::OocGraph`], clean partitions live
//! on disk as bit-packed, checksummed compressed regions and must be
//! decoded before the simulated H2D upload; a partition an epoch seal
//! rebuilt is read from the engine's block table instead, and the seal
//! drops its slot here ([`HostDecodeCache::forget`]). Decoding is far
//! from free (it walks every edge), so the engine keeps a bounded cache
//! of decoded partitions in host memory — a third traffic tier between
//! disk and device, held in the same [`PartitionCache`] as the device
//! graph pool one level up. Decode work is charged to
//! [`lt_telemetry::TrafficDirection::HostLoad`] by the engine so the
//! ledger's exactness invariant (DESIGN.md §14) extends to the host tier.
//!
//! The engine fetches one partition per explicit graph copy and per
//! zero-copy kernel, plus the walkers' previous-vertex partitions only for
//! an algorithm that
//! [reads them](crate::WalkAlgorithm::reads_prev_neighbors). Selective
//! eviction drops what the device already holds first ([`eviction_rank`]).
//!
//! This module adds the decode to the shared partition cache (slots,
//! residency order, eviction) and reports [`Fetched`]. A miss calls
//! [`OocGraph::decode_partition_with`], which owns the chunk layout and
//! its grouped decode, and lends it the engine's [`ExecPool`] as the
//! fan-out; the block lands in fresh buffers (the evicted copy is usually
//! still shared with the device pool, so there is nothing to recycle).
//! DESIGN.md §16 has the measurements.
//!
//! Determinism: `fetch` is only called from the scheduler thread at
//! schedule-deterministic points, so the hits, misses and evictions the
//! engine books from [`Fetched`] are reproducible across kernel thread
//! counts. Only `decode_ns` is wall-clock (quarantined like the other
//! `host_*_wall_ns` counters).

use crate::exec::ExecPool;
use crate::graphpool::{GraphEviction, PartitionCache};
use lt_graph::{GraphError, OocGraph, PartitionData, PartitionId};
use std::sync::Arc;
use std::time::Instant;

/// Selective eviction's key for one cached partition; the lowest is
/// evicted. A device-resident partition goes first: it cannot be fetched
/// again until the device pool evicts it, so its host slot is dead weight
/// until then — and longest for the one with the *most* pending walks,
/// which the device (evicting by fewest walks) keeps longest. Among the
/// rest the fewest pending walks lose, as on the device.
pub fn eviction_rank(device_resident: bool, walks: u64) -> (bool, u64) {
    if device_resident {
        (false, !walks)
    } else {
        (true, walks)
    }
}

/// Result of a [`HostDecodeCache::fetch`].
pub struct Fetched {
    /// The decoded partition, shared with the device pool on upload.
    pub data: Arc<PartitionData>,
    /// Whether the fetch decoded from disk (a cache miss).
    pub missed: bool,
    /// Whether the miss evicted a resident partition.
    pub evicted: bool,
    /// Wall time of the decode (0 on a hit). Quarantined: never part of
    /// deterministic output.
    pub decode_ns: u64,
}

/// A bounded cache of decoded partitions backed by an out-of-core graph.
pub struct HostDecodeCache {
    ooc: Arc<OocGraph>,
    cache: PartitionCache<Arc<PartitionData>>,
}

impl HostDecodeCache {
    pub fn new(ooc: Arc<OocGraph>, capacity: usize) -> HostDecodeCache {
        let cache = PartitionCache::with_capacity(ooc.num_partitions(), capacity);
        HostDecodeCache { ooc, cache }
    }

    /// Fetch partition `p`, decoding from disk on a miss. When the cache
    /// is full, selective eviction drops the cached partition with the
    /// lowest `rank` (an [`eviction_rank`]); `Fifo` ignores it, and
    /// `protect` is never evicted. A miss decodes through
    /// [`OocGraph::decode_partition_with`] in one chunk group per thread
    /// of `exec` (its workers and the caller); the decoded bytes are the
    /// same at any thread count. A read or decode failure is returned and
    /// leaves `p` uncached.
    pub fn fetch(
        &mut self,
        p: PartitionId,
        policy: GraphEviction,
        rank: &dyn Fn(PartitionId) -> (bool, u64),
        protect: PartitionId,
        exec: &ExecPool,
    ) -> Result<Fetched, GraphError> {
        if let Some(data) = self.cache.get(p) {
            return Ok(Fetched {
                data: Arc::clone(data),
                missed: false,
                evicted: false,
                decode_ns: 0,
            });
        }
        let evicted = self.cache.make_room(policy, rank, protect).is_some();
        let start = Instant::now();
        let groups = exec.workers() + 1;
        let data = Arc::new(
            self.ooc
                .decode_partition_with(p, groups, |n, f| exec.map(n, f))?,
        );
        let decode_ns = start.elapsed().as_nanos() as u64;
        self.cache.push(p, Arc::clone(&data));
        Ok(Fetched {
            data,
            missed: true,
            evicted,
            decode_ns,
        })
    }

    /// Whether partition `p` is resident.
    pub fn contains(&self, p: PartitionId) -> bool {
        self.cache.contains(p)
    }

    /// Drop partition `p`'s slot, if cached: its rows were replaced.
    pub fn forget(&mut self, p: PartitionId) {
        self.cache.remove(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::{rmat, RmatParams};
    use lt_graph::oocore::write_oocore;
    use lt_graph::PartitionedGraph;

    fn ooc_graph(name: &str) -> (Arc<OocGraph>, PartitionedGraph) {
        let csr = rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            ..RmatParams::default()
        })
        .csr;
        let pg = PartitionedGraph::build(Arc::new(csr), 32 << 10);
        let path = std::env::temp_dir().join(format!("lt_hostcache_{name}_{}", std::process::id()));
        write_oocore(&pg, &path).unwrap();
        let ooc = Arc::new(OocGraph::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        (ooc, pg)
    }

    /// Fetch `p` under FIFO (which ignores ranks), protecting only `p`.
    fn fetch_fifo(cache: &mut HostDecodeCache, p: PartitionId, exec: &ExecPool) -> Fetched {
        cache
            .fetch(p, GraphEviction::Fifo, &|_| (true, 0), p, exec)
            .unwrap()
    }

    /// Every partition decoded through a 4-worker pool equals `extract`.
    #[test]
    fn pooled_decode_matches_extract() {
        let (ooc, pg) = ooc_graph("pooled");
        let exec = ExecPool::new(4);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), pg.num_partitions() as usize);
        for p in 0..ooc.num_partitions() {
            let f = fetch_fifo(&mut cache, p, &exec);
            assert!(f.missed && !f.evicted);
            assert_eq!(*f.data, pg.extract(p), "partition {p}");
        }
    }

    #[test]
    fn hits_do_not_redecode_and_fifo_evicts_oldest() {
        let (ooc, _) = ooc_graph("evict");
        assert!(ooc.num_partitions() >= 3);
        let exec = ExecPool::new(0);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
        let f0 = fetch_fifo(&mut cache, 0, &exec);
        assert!(f0.missed && !f0.evicted);
        let again = fetch_fifo(&mut cache, 0, &exec);
        assert!(!again.missed && !again.evicted);
        assert_eq!(again.decode_ns, 0, "hit must not decode");
        assert!(Arc::ptr_eq(&f0.data, &again.data));
        let f1 = fetch_fifo(&mut cache, 1, &exec);
        assert!(f1.missed && !f1.evicted, "the second slot was free");
        // Partition 1 is on the device; FIFO does not care.
        let rank = |p: PartitionId| eviction_rank(p == 1, 0);
        let f2 = cache
            .fetch(2, GraphEviction::Fifo, &rank, 2, &exec)
            .unwrap();
        assert!(f2.missed && f2.evicted);
        assert!(!cache.contains(0), "FIFO evicts the oldest");
        assert!(cache.contains(1) && cache.contains(2));
    }

    /// Selective eviction drops what the device already holds first: a
    /// device-resident partition cannot be fetched again until the device
    /// pool evicts it, however many walks wait on it.
    #[test]
    fn selective_eviction_prefers_device_resident_and_respects_protect() {
        let (ooc, _) = ooc_graph("resident");
        assert!(ooc.num_partitions() >= 4);
        // Device-resident by most walks, then the rest by fewest.
        assert!(eviction_rank(true, 50) < eviction_rank(true, 5));
        assert!(eviction_rank(true, 5) < eviction_rank(false, 0));
        assert!(eviction_rank(false, 0) < eviction_rank(false, 5));
        // Partition 1 has ten times partition 0's walks and is on the device.
        let rank = |p: PartitionId| match p {
            0 => eviction_rank(false, 5),
            1 => eviction_rank(true, 50),
            _ => eviction_rank(false, 0),
        };
        let exec = ExecPool::new(0);
        let fetch = |cache: &mut HostDecodeCache, p, protect| {
            cache
                .fetch(p, GraphEviction::FewestWalks, &rank, protect, &exec)
                .unwrap();
        };
        let filled = || {
            let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
            fetch(&mut cache, 0, 0);
            fetch(&mut cache, 1, 1);
            cache
        };
        let mut cache = filled();
        fetch(&mut cache, 2, 2);
        assert!(cache.contains(0) && !cache.contains(1), "resident first");
        // Among non-resident partitions the fewest walks lose (2 has none).
        fetch(&mut cache, 3, 3);
        assert!(cache.contains(0) && !cache.contains(2));
        // `protect` wins over residency and walk counts alike.
        let mut cache = filled();
        fetch(&mut cache, 2, 1);
        assert!(cache.contains(1) && !cache.contains(0));
    }
}
