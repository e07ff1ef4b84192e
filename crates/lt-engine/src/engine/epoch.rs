//! Evolving graphs (DESIGN.md §15): buffer edge mutations, and seal them
//! into a new graph epoch at a barrier between scheduler slices,
//! reloading the device-resident partitions they dirtied. A seal reads
//! each dirty partition from its block-table entry, so mutation runs the
//! same code over a RAM store and over an out-of-core one.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use lt_graph::delta::EdgeUpdate;

impl LightTraffic {
    /// The current graph epoch: the number of [`Self::seal_epoch`] calls.
    /// 0 for a static (never-mutated) graph.
    pub fn epoch(&self) -> u64 {
        self.graph.epoch()
    }

    /// Buffer edge mutations against the evolving graph. Buffered updates
    /// are invisible to every walker until the next [`Self::seal_epoch`]
    /// — sampling decisions never observe a half-applied batch, which is
    /// what keeps mutation visibility deterministic across kernel thread
    /// counts (DESIGN.md §15). Returns the number of updates now pending.
    /// Only buffers: no partition is copied or read.
    ///
    /// Fails with [`EngineError::Admission`] when an endpoint is outside
    /// the (frozen) vertex set or a weight is invalid; updates before the
    /// offending one stay buffered.
    pub fn mutate(&mut self, updates: Vec<EdgeUpdate>) -> Result<usize, EngineError> {
        for u in updates {
            self.graph
                .buffer(u)
                .map_err(|e| EngineError::Admission(format!("edge update rejected: {e}")))?;
        }
        Ok(self.graph.pending())
    }

    /// Apply every buffered mutation, advance the graph epoch, and
    /// invalidate affected device state: the delta layer rebuilds the
    /// entries of the dirty partitions from their current rows (the
    /// partition boundaries are *frozen*, so walker→partition routing
    /// never changes) and records their new sizes, and the resident
    /// partitions among them are reloaded — charged on the simulated link
    /// as [`Category::GraphReload`] and attributed in the traffic ledger
    /// under [`TrafficDirection::Reload`]; kernels read the sealed blocks
    /// in place, so the host copies nothing. At low mutation rates that
    /// is a small fraction of the residency set (the evolving-graph
    /// extension of the paper's traffic thesis). Clean partitions are not
    /// visited.
    ///
    /// Over an out-of-core store a touched partition that is still clean
    /// is fetched through the host decode cache first, like any other
    /// read of it. A sealed block stays in RAM — nothing rewrites the
    /// file — and replaces the partition's decode-cache slot and
    /// graph-pool pin, so no stale rows stay reachable.
    ///
    /// Call this only *between* [`Self::step`] slices — the epoch
    /// barrier. Sealing with nothing buffered still advances the epoch
    /// (and the temporal default-timestamp clock) but touches no device
    /// state.
    ///
    /// # Errors
    /// [`EngineError::Graph`] when a fetch from an out-of-core store
    /// fails: nothing is sealed and the buffer is kept.
    /// [`EngineError::OversizedPartition`] when a mutated hub vertex
    /// overflows its partition block under [`ZeroCopyPolicy::Never`] —
    /// the engine cannot make the partition resident and should be
    /// dropped. Device errors from the reload copies propagate like any
    /// fatal copy failure.
    pub fn seal_epoch(&mut self) -> Result<EpochSummary, EngineError> {
        let fetched = self
            .graph
            .bases_to_fetch()
            .into_iter()
            .map(|p| self.fetch_partition(p))
            .collect::<Result<Vec<_>, _>>()?;
        let seal = self
            .graph
            .seal_epoch(&fetched)
            .map_err(EngineError::Graph)?;
        self.drop_snapshot();
        self.metrics.epochs += 1;
        let mut summary = EpochSummary {
            epoch: seal.epoch,
            inserted: seal.inserted,
            deleted: seal.deleted,
            dirty_vertices: seal.dirty.len() as u64,
            dirty_partitions: seal.dirty_partitions.len() as u64,
            ..EpochSummary::default()
        };
        if !seal.dirty_partitions.is_empty() {
            // Mutation can grow a hub past its block (or shrink one back
            // under it); only a rebuilt block can have changed size.
            for &p in &seal.dirty_partitions {
                if let Some(cache) = self.host_cache.as_mut() {
                    cache.forget(p);
                }
                self.pools.graph.unpin(p);
                let bytes = self.graph.table().partition_bytes(p);
                let oversized = bytes > self.cfg.partition_bytes;
                if oversized && matches!(self.cfg.zero_copy, ZeroCopyPolicy::Never) {
                    return Err(EngineError::OversizedPartition {
                        partition: p,
                        bytes,
                        block_bytes: self.cfg.partition_bytes,
                    });
                }
                self.forced_zc.oversized[p as usize] = oversized;
            }
            // Reload stale resident partitions. The link is charged their
            // new bytes; kernels already read the sealed blocks in place.
            // Residency order (oldest first) is schedule-deterministic, so
            // reload charges are too.
            let stale: Vec<PartitionId> = self
                .pools
                .graph
                .resident_partitions()
                .filter(|p| seal.dirty_partitions.binary_search(p).is_ok())
                .collect();
            for p in stale {
                let bytes = self.graph.table().partition_bytes(p);
                self.copy_with_retry(
                    TrafficDirection::Reload,
                    Category::GraphReload,
                    bytes,
                    p,
                    &[(SHARED_TAG, bytes)],
                )?;
                summary.reloaded_partitions += 1;
                summary.reload_bytes += bytes;
            }
            // The seal is a barrier: reloads land before any later kernel,
            // including graph-pool hits that skip the per-load sync.
            self.gpu.synchronize(self.load_stream);
            self.metrics.reload_copies += summary.reloaded_partitions;
            self.metrics.reload_bytes += summary.reload_bytes;
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{graph, small_cfg};
    use super::*;
    use crate::algorithm::UniformSampling;
    use crate::EngineConfig;
    use lt_graph::{PartitionId, VertexId};

    /// The block table's contract with the engine: a mutation copies
    /// nothing and a clean seal seals nothing, so the engine keeps reading
    /// the caller's CSR; a dirty seal replaces exactly the dirty entry and
    /// re-sizes exactly it, and a block that outgrows the budget flips its
    /// own `oversized` flag — clean partitions are not visited at all.
    #[test]
    fn a_dirty_seal_replaces_exactly_the_dirty_block() {
        let g = graph();
        let nv = g.num_vertices() as VertexId;
        let absent = (0..nv)
            .find(|v| !g.neighbors(0).contains(v))
            .expect("vertex 0 does not reach every vertex");
        let engine = |zero_copy| {
            let cfg = EngineConfig {
                zero_copy,
                ..small_cfg()
            };
            LightTraffic::new(g.clone(), Arc::new(UniformSampling::new(4)), cfg).unwrap()
        };
        let mut e = engine(ZeroCopyPolicy::adaptive());
        let np = e.partitions().num_partitions();
        let sealed = |e: &LightTraffic| -> Vec<Option<Arc<PartitionData>>> {
            (0..np).map(|p| e.partitions().sealed(p).cloned()).collect()
        };
        // A delete of an absent edge applies nothing: the seal is clean,
        // no entry is sealed, and the engine still reads the caller's CSR.
        e.mutate(vec![EdgeUpdate::delete(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (1, 0, 0));
        assert!(sealed(&e).iter().all(Option::is_none));
        let GraphStore::Ram(csr) = e.partitions().store() else {
            panic!("a RAM engine's store is its CSR");
        };
        assert!(Arc::ptr_eq(csr, &g));
        assert_eq!(e.partitions().rows(0).unwrap().neighbors(0), g.neighbors(0));
        let before_bytes: Vec<u64> = (0..np).map(|p| e.partitions().partition_bytes(p)).collect();
        // Only a visit could reset this marker on a clean partition.
        e.forced_zc.oversized[np as usize - 1] = true;

        e.mutate(vec![EdgeUpdate::insert(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (2, 1, 1));
        let after = sealed(&e);
        for p in 0..np {
            assert_eq!(after[p as usize].is_some(), p == 0, "entry {p}");
            let bytes = e.partitions().extract(p).bytes();
            assert_eq!(e.partitions().partition_bytes(p as PartitionId), bytes);
        }
        assert_eq!(e.partitions().partition_bytes(0), before_bytes[0] + 4);
        let rows = e.partitions().rows(0).unwrap();
        assert!(rows.neighbors(0).binary_search(&absent).is_ok());
        assert!(!e.forced_zc.oversized[0] && e.forced_zc.oversized[np as usize - 1]);

        // Enough inserts into one row to overflow the 16 KiB block.
        let flood: Vec<EdgeUpdate> = (0..5_000).map(|k| EdgeUpdate::insert(0, k % nv)).collect();
        e.mutate(flood.clone()).unwrap();
        e.seal_epoch().unwrap();
        assert!(!Arc::ptr_eq(
            sealed(&e)[0].as_ref().unwrap(),
            after[0].as_ref().unwrap()
        ));
        let table = e.partitions();
        assert!(e.forced_zc.oversized[0] && table.partition_bytes(0) > e.cfg.partition_bytes);
        let r = e.run(500).unwrap().metrics;
        assert_eq!(r.finished_walks, 500);
        assert!(r.zero_copy_kernels > 0, "the hub block reads in place");

        let mut never = engine(ZeroCopyPolicy::Never);
        never.mutate(flood).unwrap();
        match never.seal_epoch() {
            Err(EngineError::OversizedPartition {
                partition: 0,
                bytes,
                block_bytes,
            }) => assert!(bytes > block_bytes),
            other => panic!("expected an oversized block, got {other:?}"),
        }
    }
}
