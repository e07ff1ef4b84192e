//! Host decode cache: the RAM tier of the out-of-core substrate.
//!
//! When the graph store is [`lt_graph::OocGraph`], clean partitions live
//! on disk as delta+varint compressed regions and must be decoded before
//! the simulated H2D upload; a partition an epoch seal rebuilt is read
//! from the engine's block table instead, and the seal drops its slot
//! here ([`HostDecodeCache::forget`]). Decoding is far from free (it
//! walks every edge), so the engine keeps a bounded cache of decoded
//! partitions in host memory — a third traffic tier between disk and
//! device, mirroring the device graph pool one level up. Decode work is
//! charged to [`lt_telemetry::TrafficDirection::HostLoad`] by the engine
//! so the ledger's exactness invariant (DESIGN.md §14) extends to the
//! host tier.
//!
//! The engine fetches one partition per explicit graph copy and per
//! zero-copy kernel, plus the walkers' previous-vertex partitions only for
//! an algorithm that
//! [reads them](crate::WalkAlgorithm::reads_prev_neighbors). Selective
//! eviction drops what the device already holds first ([`eviction_rank`]);
//! a miss decodes into fresh buffers (the evicted copy is usually still
//! shared with the device pool, so there is nothing to recycle) in chunk
//! groups of equal edge count. DESIGN.md §16 has the measurements.
//!
//! Determinism: `fetch` is only called from the scheduler thread at
//! schedule-deterministic points, so the hits, misses and evictions the
//! engine books from [`Fetched`] are reproducible across kernel thread
//! counts. Only `decode_ns` is wall-clock (quarantined like the other
//! `host_*_wall_ns` counters).

use crate::exec::ExecPool;
use crate::graphpool::{pick_victim, GraphEviction};
use lt_graph::oocore::{decode_chunk, ChunkPlan};
use lt_graph::{GraphError, OocGraph, PartitionData, PartitionId};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
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
    slots: Vec<Option<Arc<PartitionData>>>,
    /// Residency order, oldest first (FIFO eviction age), mirroring
    /// [`crate::graphpool::DeviceGraphPool`].
    order: VecDeque<PartitionId>,
    capacity: usize,
}

impl HostDecodeCache {
    pub fn new(ooc: Arc<OocGraph>, capacity: usize) -> HostDecodeCache {
        assert!(capacity >= 1, "host decode cache needs at least one slot");
        let p = ooc.num_partitions() as usize;
        HostDecodeCache {
            ooc,
            slots: vec![None; p],
            order: VecDeque::new(),
            capacity: capacity.min(p.max(1)),
        }
    }

    /// Fetch partition `p`, decoding from disk on a miss. When the cache
    /// is full, selective eviction drops the cached partition with the
    /// lowest `rank` (an [`eviction_rank`]); `Fifo` ignores it, and
    /// `protect` is never evicted. `exec` fans the chunk decode out over
    /// up to `threads` workers; chunk boundaries are fixed by the file
    /// format, so the decoded bytes are identical at any thread count. A
    /// read or decode failure is returned and leaves `p` uncached.
    pub fn fetch(
        &mut self,
        p: PartitionId,
        policy: GraphEviction,
        rank: &dyn Fn(PartitionId) -> (bool, u64),
        protect: PartitionId,
        exec: Option<&ExecPool>,
        threads: usize,
    ) -> Result<Fetched, GraphError> {
        if let Some(data) = &self.slots[p as usize] {
            return Ok(Fetched {
                data: Arc::clone(data),
                missed: false,
                evicted: false,
                decode_ns: 0,
            });
        }
        let mut evicted = false;
        if self.order.len() >= self.capacity {
            let victim = pick_victim(&self.order, policy, rank, protect);
            self.slots[victim as usize] = None;
            self.order.retain(|&x| x != victim);
            evicted = true;
        }
        let start = Instant::now();
        let data = Arc::new(decode(&self.ooc, p, exec, threads)?);
        let decode_ns = start.elapsed().as_nanos() as u64;
        self.slots[p as usize] = Some(Arc::clone(&data));
        self.order.push_back(p);
        Ok(Fetched {
            data,
            missed: true,
            evicted,
            decode_ns,
        })
    }

    /// Whether partition `p` is resident.
    pub fn contains(&self, p: PartitionId) -> bool {
        self.slots[p as usize].is_some()
    }

    /// Drop partition `p`'s slot, if cached: its rows were replaced.
    pub fn forget(&mut self, p: PartitionId) {
        if self.slots[p as usize].take().is_some() {
            self.order.retain(|&x| x != p);
        }
    }
}

/// Cut `plans` (one partition's chunks, `part_edges` edges in all) into
/// `groups` contiguous non-empty runs of about equal *edge* count, as
/// exclusive end indices: decode time follows edges, and a power-law
/// partition keeps its hubs in the first chunks. Run `g` ends at the first
/// chunk starting at or past `g/groups` of the edges, clamped so that
/// every run keeps a chunk.
fn group_ends(plans: &[ChunkPlan], part_edges: u64, groups: usize) -> Vec<usize> {
    debug_assert!((1..=plans.len()).contains(&groups));
    let mut ends = Vec::with_capacity(groups);
    let mut start = 0;
    for g in 1..groups {
        let target = g as u64 * part_edges / groups as u64;
        let end = plans
            .partition_point(|c| c.first_edge < target)
            .clamp(start + 1, plans.len() - (groups - g));
        ends.push(end);
        start = end;
    }
    ends.push(plans.len());
    ends
}

/// Decode partition `p` of `ooc`: [`OocGraph::decode_partition`], fanned
/// out over `exec` in contiguous chunk groups when there is a pool and
/// more than one chunk to share. The file was validated at open, so an
/// error here means it changed or became unreadable since.
fn decode(
    ooc: &OocGraph,
    p: PartitionId,
    exec: Option<&ExecPool>,
    threads: usize,
) -> Result<PartitionData, GraphError> {
    let Some(exec) = exec.filter(|_| threads > 1) else {
        return ooc.decode_partition(p);
    };
    let region = ooc.region(p)?;
    let plans = ooc.chunk_plans(p, &region)?;
    let groups = threads.min(plans.len());
    if groups <= 1 {
        return ooc.decode_partition(p);
    }
    let v_start = ooc.boundaries()[p as usize];
    let v_end = ooc.boundaries()[p as usize + 1];
    let n = (v_end - v_start) as usize;
    let ne = ooc.partition_edges(p) as usize;
    let (weighted, temporal) = (ooc.is_weighted(), ooc.is_temporal());
    let mut buf = PartitionData {
        id: p,
        v_start,
        v_end,
        offsets: vec![0; n + 1],
        edges: vec![0; ne],
        weights: weighted.then(|| vec![0.0; ne]),
        timestamps: temporal.then(|| vec![0; ne]),
    };
    // Each group's vertex and edge spans are contiguous, so the output
    // buffers split into disjoint `&mut` subslices, each handed to its
    // group's index through a slot taken once — no synchronization inside
    // the decode.
    let mut slots = Vec::with_capacity(groups);
    let mut off_rest: &mut [u64] = &mut buf.offsets[..n];
    let mut edge_rest: &mut [u32] = &mut buf.edges[..];
    let mut w_rest: Option<&mut [f32]> = buf.weights.as_mut().map(|w| &mut w[..]);
    let mut t_rest: Option<&mut [u32]> = buf.timestamps.as_mut().map(|t| &mut t[..]);
    let mut idx = 0;
    for end in group_ends(&plans, ne as u64, groups) {
        let group = &plans[idx..end];
        idx = end;
        let first = &group[0];
        let last = &group[group.len() - 1];
        let gv = (last.v_end - first.v_start) as usize;
        let ge = (last.first_edge + last.num_edges - first.first_edge) as usize;
        let (off_g, rest) = off_rest.split_at_mut(gv);
        off_rest = rest;
        let (edge_g, rest) = edge_rest.split_at_mut(ge);
        edge_rest = rest;
        let w_g = w_rest.take().map(|w| {
            let (a, b) = w.split_at_mut(ge);
            w_rest = Some(b);
            a
        });
        let t_g = t_rest.take().map(|t| {
            let (a, b) = t.split_at_mut(ge);
            t_rest = Some(b);
            a
        });
        slots.push(Mutex::new(Some((group, off_g, edge_g, w_g, t_g))));
    }
    let region = &*region;
    let decoded = exec.map(slots.len(), |g| {
        let (group, off_g, edge_g, mut w_g, mut t_g) = slots[g]
            .lock()
            .expect("a slot is only locked to take it")
            .take()
            .expect("a group decodes once");
        let (v_base, e_base) = (group[0].v_start, group[0].first_edge);
        for plan in group {
            let ls = (plan.v_start - v_base) as usize;
            let le = (plan.v_end - v_base) as usize;
            let e0 = (plan.first_edge - e_base) as usize;
            let e1 = e0 + plan.num_edges as usize;
            decode_chunk(
                region,
                plan,
                weighted,
                temporal,
                &mut off_g[ls..le],
                &mut edge_g[e0..e1],
                w_g.as_mut().map(|w| &mut w[e0..e1]),
                t_g.as_mut().map(|t| &mut t[e0..e1]),
            )?;
        }
        Ok(())
    });
    decoded.into_iter().collect::<Result<(), GraphError>>()?;
    buf.offsets[n] = ne as u64;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lt_graph::gen::{rmat, with_random_timestamps, with_random_weights, RmatParams};
    use lt_graph::oocore::write_oocore;
    use lt_graph::{Csr, PartitionedGraph};
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("lt_hostcache_{name}_{}", std::process::id()));
        p
    }

    fn ooc_graph(name: &str, csr: Csr) -> (Arc<OocGraph>, PartitionedGraph) {
        let pg = PartitionedGraph::build(Arc::new(csr), 32 << 10);
        let path = temp_path(name);
        write_oocore(&pg, &path).unwrap();
        let ooc = Arc::new(OocGraph::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        (ooc, pg)
    }

    fn base_csr() -> Csr {
        rmat(RmatParams {
            scale: 11,
            edge_factor: 8,
            ..RmatParams::default()
        })
        .csr
    }

    /// Fetch `p` under FIFO (which ignores ranks), protecting only `p`.
    fn fetch_fifo(
        cache: &mut HostDecodeCache,
        p: PartitionId,
        exec: Option<&ExecPool>,
        threads: usize,
    ) -> Fetched {
        cache
            .fetch(p, GraphEviction::Fifo, &|_| (true, 0), p, exec, threads)
            .unwrap()
    }

    #[test]
    fn serial_and_parallel_decode_match_extract_for_all_flavors() {
        let exec = ExecPool::new(4);
        let base = base_csr();
        let flavors = [
            ("plain", base.clone()),
            ("weighted", with_random_weights(&base, 7)),
            ("temporal", with_random_timestamps(&base, 7, 1000)),
        ];
        for (name, csr) in flavors {
            let (ooc, pg) = ooc_graph(name, csr);
            for (exec, threads) in [(None, 1), (Some(&exec), 4)] {
                let mut cache =
                    HostDecodeCache::new(Arc::clone(&ooc), pg.num_partitions() as usize);
                for p in 0..ooc.num_partitions() {
                    let f = fetch_fifo(&mut cache, p, exec, threads);
                    assert!(f.missed && !f.evicted);
                    assert_eq!(*f.data, pg.extract(p), "{name} {threads} partition {p}");
                }
            }
        }
    }

    #[test]
    fn hits_do_not_redecode_and_fifo_evicts_oldest() {
        let (ooc, _) = ooc_graph("evict", base_csr());
        assert!(ooc.num_partitions() >= 3);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
        let f0 = fetch_fifo(&mut cache, 0, None, 1);
        assert!(f0.missed && !f0.evicted);
        let again = fetch_fifo(&mut cache, 0, None, 1);
        assert!(!again.missed && !again.evicted);
        assert_eq!(again.decode_ns, 0, "hit must not decode");
        assert!(Arc::ptr_eq(&f0.data, &again.data));
        let f1 = fetch_fifo(&mut cache, 1, None, 1);
        assert!(f1.missed && !f1.evicted, "the second slot was free");
        // Partition 1 is on the device; FIFO does not care.
        let rank = |p: PartitionId| eviction_rank(p == 1, 0);
        let f2 = cache
            .fetch(2, GraphEviction::Fifo, &rank, 2, None, 1)
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
        let (ooc, _) = ooc_graph("resident", base_csr());
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
        let fetch = |cache: &mut HostDecodeCache, p, protect| {
            cache
                .fetch(p, GraphEviction::FewestWalks, &rank, protect, None, 1)
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

    /// A hub in a partition's first chunk: groups of equal chunk count
    /// would give one worker most of the edges. The edge-balanced cut
    /// keeps the larger of two groups within one chunk of half, and the
    /// decode is identical however many workers share it.
    #[test]
    fn skewed_partition_splits_by_edges_and_decodes_identically() {
        let (n, hub_degree) = (2048u32, 2000u32);
        let mut edges: Vec<u32> = (1..=hub_degree).collect();
        edges.extend((1..n).map(|v| (v + 1) % n));
        let offsets = (0..=n as u64).map(|v| if v == 0 { 0 } else { hub_degree as u64 + v - 1 });
        let csr = Csr::new(offsets.collect(), edges, None).unwrap();
        let (ooc, pg) = ooc_graph("skewed", csr);
        let ne = ooc.partition_edges(0);
        let plans = ooc.chunk_plans(0, &ooc.region(0).unwrap()).unwrap();
        assert!(plans.len() >= 4, "partition 0 has {} chunks", plans.len());
        assert!(2 * plans[0].num_edges > ne, "the first chunk holds the hub");
        let ends = group_ends(&plans, ne, 2);
        assert_eq!(ends, [1, plans.len()], "the hub's chunk is its own group");
        let largest_chunk = plans.iter().map(|c| c.num_edges).max().unwrap();
        assert!(plans[0].num_edges <= ne / 2 + largest_chunk);
        for groups in 1..=plans.len() {
            let ends = group_ends(&plans, ne, groups);
            assert_eq!((ends.len(), ends[groups - 1]), (groups, plans.len()));
            assert!(ends[0] >= 1 && ends.windows(2).all(|w| w[0] < w[1]));
        }
        let exec = ExecPool::new(4);
        // 64 asks for more groups than the partition has chunks.
        for threads in [1, 2, 4, 64] {
            let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 1);
            let f = fetch_fifo(&mut cache, 0, Some(&exec), threads);
            assert_eq!(*f.data, pg.extract(0), "{threads} decode workers");
        }
    }

    #[test]
    fn concurrent_readers_share_one_ooc_graph() {
        let (ooc, pg) = ooc_graph("concurrent", base_csr());
        let parts = ooc.num_partitions();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let ooc = Arc::clone(&ooc);
                std::thread::spawn(move || {
                    let mut cache = HostDecodeCache::new(ooc, 2);
                    (0..parts)
                        .map(|p| {
                            let off = (p + t) % parts;
                            (off, fetch_fifo(&mut cache, off, None, 1).data)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (p, data) in h.join().unwrap() {
                assert_eq!(*data, pg.extract(p), "thread-local decode of {p}");
            }
        }
    }
}
