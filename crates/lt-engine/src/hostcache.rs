//! Host decode cache: the RAM tier of the out-of-core substrate.
//!
//! When the graph store is [`lt_graph::OocGraph`], partitions live on disk
//! as delta+varint compressed regions and must be decoded before the
//! simulated H2D upload. Decoding is far from free (it walks every edge),
//! so the engine keeps a bounded cache of decoded partitions in host
//! memory — a third traffic tier between disk and device, mirroring the
//! device graph pool one level up. Decode work is charged to
//! [`lt_telemetry::TrafficDirection::HostLoad`] by the engine so the
//! ledger's exactness invariant (DESIGN.md §14) extends to the host tier.
//!
//! Determinism: `fetch` is only called from the scheduler thread at
//! schedule-deterministic points, so the hits, misses and evictions the
//! engine books from [`Fetched`] are reproducible across kernel thread
//! counts. Only `decode_ns` is wall-clock (quarantined like the other
//! `host_*_wall_ns` counters).

use crate::exec::ExecPool;
use crate::graphpool::{pick_victim, GraphEviction};
use lt_graph::oocore::decode_chunk;
use lt_graph::{GraphError, OocGraph, PartitionData, PartitionId};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// How many evicted buffers to keep around for recycling. Decoding into a
/// recycled buffer avoids re-allocating multi-megabyte vectors per miss.
const MAX_RECYCLED: usize = 4;

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
    recycled: Vec<PartitionData>,
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
            recycled: Vec::new(),
        }
    }

    /// Fetch partition `p`, decoding from disk on a miss. Eviction (when
    /// the cache is full) follows the same policy as the device graph
    /// pool: `walk_counts` feeds selective (fewest-walks) eviction and
    /// `protect` is never evicted. `exec` fans the chunk decode out over
    /// up to `threads` workers; chunk boundaries are fixed by the file
    /// format, so the decoded bytes are identical at any thread count.
    pub fn fetch(
        &mut self,
        p: PartitionId,
        policy: GraphEviction,
        walk_counts: &dyn Fn(PartitionId) -> u64,
        protect: PartitionId,
        exec: Option<&ExecPool>,
        threads: usize,
    ) -> Fetched {
        if let Some(data) = &self.slots[p as usize] {
            return Fetched {
                data: Arc::clone(data),
                missed: false,
                evicted: false,
                decode_ns: 0,
            };
        }
        let mut evicted = false;
        if self.order.len() >= self.capacity {
            let victim = pick_victim(&self.order, policy, walk_counts, protect);
            self.evict(victim);
            evicted = true;
        }
        let mut buf = self.recycled.pop().unwrap_or_else(empty_partition);
        let start = Instant::now();
        decode_into(&self.ooc, p, &mut buf, exec, threads);
        let decode_ns = start.elapsed().as_nanos() as u64;
        let data = Arc::new(buf);
        self.slots[p as usize] = Some(Arc::clone(&data));
        self.order.push_back(p);
        Fetched {
            data,
            missed: true,
            evicted,
            decode_ns,
        }
    }

    fn evict(&mut self, p: PartitionId) {
        let arc = self.slots[p as usize]
            .take()
            .expect("evicting a non-resident partition");
        self.order.retain(|&x| x != p);
        // Recycle the buffers when nothing else (device pool, in-flight
        // kernel task) still holds the decoded copy.
        if self.recycled.len() < MAX_RECYCLED {
            if let Ok(buf) = Arc::try_unwrap(arc) {
                self.recycled.push(buf);
            }
        }
    }

    /// Whether partition `p` is resident.
    pub fn contains(&self, p: PartitionId) -> bool {
        self.slots[p as usize].is_some()
    }
}

fn empty_partition() -> PartitionData {
    PartitionData {
        id: 0,
        v_start: 0,
        v_end: 0,
        offsets: Vec::new(),
        edges: Vec::new(),
        weights: None,
        timestamps: None,
    }
}

/// Decode partition `p` of `ooc` into `buf`, reusing its allocations.
/// Equivalent to [`OocGraph::decode_partition`], but fans contiguous
/// chunk groups out over `exec` when available. Panics on a corrupt
/// region — the file was validated at open, so mid-run decode failure is
/// a programming or I/O error, matching `PartitionedGraph::extract`.
fn decode_into(
    ooc: &OocGraph,
    p: PartitionId,
    buf: &mut PartitionData,
    exec: Option<&ExecPool>,
    threads: usize,
) {
    let v_start = ooc.boundaries()[p as usize];
    let v_end = ooc.boundaries()[p as usize + 1];
    let n = (v_end - v_start) as usize;
    let ne = ooc.partition_edges(p) as usize;
    let (weighted, temporal) = (ooc.is_weighted(), ooc.is_temporal());
    buf.id = p;
    buf.v_start = v_start;
    buf.v_end = v_end;
    buf.offsets.clear();
    buf.offsets.resize(n + 1, 0);
    buf.edges.clear();
    buf.edges.resize(ne, 0);
    if weighted {
        let w = buf.weights.get_or_insert_with(Vec::new);
        w.clear();
        w.resize(ne, 0.0);
    } else {
        buf.weights = None;
    }
    if temporal {
        let t = buf.timestamps.get_or_insert_with(Vec::new);
        t.clear();
        t.resize(ne, 0);
    } else {
        buf.timestamps = None;
    }

    let region = ooc
        .region(p)
        .unwrap_or_else(|e| panic!("reading region of partition {p}: {e}"));
    let plans = ooc
        .chunk_plans(p, &region)
        .unwrap_or_else(|e| panic!("parsing chunk index of partition {p}: {e}"));

    let groups = match exec {
        Some(_) => threads.clamp(1, plans.len().max(1)),
        None => 1,
    };
    if groups <= 1 || plans.len() <= 1 {
        for plan in &plans {
            let ls = (plan.v_start - v_start) as usize;
            let le = (plan.v_end - v_start) as usize;
            let (e0, e1) = (
                plan.first_edge as usize,
                (plan.first_edge + plan.num_edges) as usize,
            );
            decode_chunk(
                &region,
                plan,
                weighted,
                temporal,
                &mut buf.offsets[ls..le],
                &mut buf.edges[e0..e1],
                buf.weights.as_mut().map(|w| &mut w[e0..e1]),
                buf.timestamps.as_mut().map(|t| &mut t[e0..e1]),
            )
            .unwrap_or_else(|e| panic!("decoding partition {p}: {e}"));
        }
    } else {
        // Split the chunk list into `groups` contiguous runs; each run's
        // vertex and edge spans are contiguous, so the output buffers
        // split into disjoint `&mut` subslices — no synchronization
        // inside the decode.
        let exec = exec.expect("groups > 1 implies a pool");
        let region = &*region;
        let mut tasks: Vec<Box<dyn FnOnce() -> Result<(), GraphError> + Send + '_>> =
            Vec::with_capacity(groups);
        let mut off_rest: &mut [u64] = &mut buf.offsets[..n];
        let mut edge_rest: &mut [u32] = &mut buf.edges[..];
        let mut w_rest: Option<&mut [f32]> = buf.weights.as_mut().map(|w| &mut w[..]);
        let mut t_rest: Option<&mut [u32]> = buf.timestamps.as_mut().map(|t| &mut t[..]);
        let per = plans.len() / groups;
        let extra = plans.len() % groups;
        let mut idx = 0;
        for g in 0..groups {
            let take = per + usize::from(g < extra);
            let group = &plans[idx..idx + take];
            idx += take;
            let first = &group[0];
            let last = &group[group.len() - 1];
            let gv = (last.v_end - first.v_start) as usize;
            let ge = (last.first_edge + last.num_edges - first.first_edge) as usize;
            let (off_g, rest) = off_rest.split_at_mut(gv);
            off_rest = rest;
            let (edge_g, rest) = edge_rest.split_at_mut(ge);
            edge_rest = rest;
            let mut w_g = w_rest.take().map(|w| {
                let (a, b) = w.split_at_mut(ge);
                w_rest = Some(b);
                a
            });
            let mut t_g = t_rest.take().map(|t| {
                let (a, b) = t.split_at_mut(ge);
                t_rest = Some(b);
                a
            });
            let (v_base, e_base) = (first.v_start, first.first_edge);
            tasks.push(Box::new(move || {
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
            }));
        }
        for r in exec.run_ordered(tasks) {
            r.unwrap_or_else(|e| panic!("decoding partition {p}: {e}"));
        }
    }
    buf.offsets[n] = ne as u64;
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

    #[test]
    fn fetch_decodes_identically_to_extract() {
        let (ooc, pg) = ooc_graph("ident", base_csr());
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), ooc.num_partitions() as usize);
        for p in 0..ooc.num_partitions() {
            let f = cache.fetch(p, GraphEviction::Fifo, &|_| 0, p, None, 1);
            assert!(f.missed && !f.evicted);
            assert_eq!(*f.data, pg.extract(p), "partition {p} decode mismatch");
        }
    }

    #[test]
    fn parallel_decode_matches_serial_for_all_flavors() {
        let exec = ExecPool::new(4);
        let base = base_csr();
        let flavors = [
            ("plain", base.clone()),
            ("weighted", with_random_weights(&base, 7)),
            ("temporal", with_random_timestamps(&base, 7, 1000)),
        ];
        for (name, csr) in flavors {
            let (ooc, pg) = ooc_graph(name, csr);
            let mut cache = HostDecodeCache::new(Arc::clone(&ooc), ooc.num_partitions() as usize);
            for p in 0..ooc.num_partitions() {
                let f = cache.fetch(p, GraphEviction::Fifo, &|_| 0, p, Some(&exec), 4);
                assert_eq!(*f.data, pg.extract(p), "{name} partition {p} mismatch");
            }
        }
    }

    #[test]
    fn hits_do_not_redecode_and_fifo_evicts_oldest() {
        let (ooc, _) = ooc_graph("evict", base_csr());
        assert!(ooc.num_partitions() >= 3);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
        let f0 = cache.fetch(0, GraphEviction::Fifo, &|_| 0, 0, None, 1);
        assert!(f0.missed && !f0.evicted);
        let again = cache.fetch(0, GraphEviction::Fifo, &|_| 0, 0, None, 1);
        assert!(!again.missed && !again.evicted);
        assert_eq!(again.decode_ns, 0, "hit must not decode");
        assert!(Arc::ptr_eq(&f0.data, &again.data));
        let f1 = cache.fetch(1, GraphEviction::Fifo, &|_| 0, 1, None, 1);
        assert!(f1.missed && !f1.evicted, "the second slot was free");
        let f2 = cache.fetch(2, GraphEviction::Fifo, &|_| 0, 2, None, 1);
        assert!(f2.missed && f2.evicted);
        assert!(!cache.contains(0), "FIFO evicts the oldest");
        assert!(cache.contains(1) && cache.contains(2));
    }

    #[test]
    fn fewest_walks_eviction_respects_protect() {
        let (ooc, _) = ooc_graph("protect", base_csr());
        assert!(ooc.num_partitions() >= 3);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
        let counts = |p: PartitionId| match p {
            0 => 5u64,
            1 => 50,
            _ => 0,
        };
        cache.fetch(0, GraphEviction::FewestWalks, &counts, 0, None, 1);
        cache.fetch(1, GraphEviction::FewestWalks, &counts, 1, None, 1);
        // Partition 0 has the fewest walks, but protecting it forces the
        // policy to pick 1.
        cache.fetch(2, GraphEviction::FewestWalks, &counts, 0, None, 1);
        assert!(cache.contains(0));
        assert!(!cache.contains(1));
    }

    #[test]
    fn eviction_recycles_sole_owner_buffers() {
        let (ooc, pg) = ooc_graph("recycle", base_csr());
        assert!(ooc.num_partitions() >= 3);
        let mut cache = HostDecodeCache::new(Arc::clone(&ooc), 2);
        drop(cache.fetch(0, GraphEviction::Fifo, &|_| 0, 0, None, 1));
        // Sole owner: eviction recycles the buffer...
        cache.evict(0);
        assert_eq!(cache.recycled.len(), 1);
        // ...and the next miss consumes it and still decodes correctly.
        let f1 = cache.fetch(1, GraphEviction::Fifo, &|_| 0, 1, None, 1);
        assert_eq!(cache.recycled.len(), 0);
        assert_eq!(*f1.data, pg.extract(1));
        // Held Arc: eviction must not recycle (data still shared).
        let held = cache.fetch(2, GraphEviction::Fifo, &|_| 0, 2, None, 1);
        cache.evict(2);
        assert_eq!(cache.recycled.len(), 0, "shared buffer is not recycled");
        assert_eq!(*held.data, pg.extract(2), "shared copy survives eviction");
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
                            let f = cache.fetch(off, GraphEviction::Fifo, &|_| 0, off, None, 1);
                            (off, f.data)
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
