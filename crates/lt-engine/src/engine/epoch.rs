//! Evolving graphs (DESIGN.md §15): buffer edge mutations, and seal them
//! into a new graph epoch at a barrier between scheduler slices,
//! reloading the device-resident partitions they dirtied.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use super::*;
use lt_graph::delta::EdgeUpdate;

impl LightTraffic {
    /// The current graph epoch: the number of [`Self::seal_epoch`] calls.
    /// 0 for a static (never-mutated) graph.
    pub fn epoch(&self) -> u64 {
        self.evolving.as_ref().map_or(0, |d| d.epoch())
    }

    /// The evolving-graph block table, creating it on first use: one copy
    /// of every partition, after which the partition table lets go of the
    /// epoch-0 CSR — nothing reads adjacency from it again.
    ///
    /// Refused over an out-of-core store: the table holds every block in
    /// RAM and a seal rewrites the dirty ones, which the file cannot take.
    /// Materialize with [`lt_graph::OocGraph::to_csr`] first.
    fn delta_mut(&mut self) -> Result<&mut DeltaGraph, EngineError> {
        if self.host_cache.is_some() {
            return Err(EngineError::Admission(
                "graph store is out-of-core (immutable); decode it to RAM \
                 (OocGraph::to_csr) to run evolving-graph workloads"
                    .into(),
            ));
        }
        let pg = &mut self.pg;
        Ok(self.evolving.get_or_insert_with(|| {
            let pg = Arc::make_mut(pg);
            let delta = DeltaGraph::new(pg);
            pg.release_store();
            delta
        }))
    }

    /// Buffer edge mutations against the evolving graph. Buffered updates
    /// are invisible to every walker until the next [`Self::seal_epoch`]
    /// — sampling decisions never observe a half-applied batch, which is
    /// what keeps mutation visibility deterministic across kernel thread
    /// counts (DESIGN.md §15). Returns the number of updates now pending.
    ///
    /// Fails with [`EngineError::Admission`] when an endpoint is outside
    /// the (frozen) vertex set or a weight is invalid; updates before the
    /// offending one stay buffered. Refuses, buffering nothing, over an
    /// out-of-core store.
    pub fn mutate(&mut self, updates: Vec<EdgeUpdate>) -> Result<usize, EngineError> {
        let delta = self.delta_mut()?;
        for u in updates {
            delta
                .buffer(u)
                .map_err(|e| EngineError::Admission(format!("edge update rejected: {e}")))?;
        }
        Ok(delta.pending())
    }

    /// Apply every buffered mutation, advance the graph epoch, and
    /// invalidate affected device state: the delta layer rebuilds the
    /// blocks of the dirty partitions (the partition boundaries are
    /// *frozen*, so walker→partition routing never changes), the
    /// partition table takes their new sizes, and the resident partitions
    /// among them are reloaded — charged on the simulated link as
    /// [`Category::GraphReload`] and attributed in the traffic ledger under
    /// [`TrafficDirection::Reload`]; kernels read the sealed blocks in
    /// place, so the host copies nothing. At low mutation
    /// rates that is a small fraction of the residency set (the
    /// evolving-graph extension of the paper's traffic thesis). Clean
    /// partitions are not visited.
    ///
    /// Call this only *between* [`Self::step`] slices — the epoch
    /// barrier. Sealing with nothing buffered still advances the epoch
    /// (and the temporal default-timestamp clock) but touches no device
    /// state.
    ///
    /// # Errors
    /// [`EngineError::Admission`] where [`Self::mutate`] refuses.
    /// [`EngineError::OversizedPartition`] when a mutated hub vertex
    /// overflows its partition block under [`ZeroCopyPolicy::Never`] —
    /// the engine cannot make the partition resident and should be
    /// dropped. Device errors from the reload copies propagate like any
    /// fatal copy failure.
    pub fn seal_epoch(&mut self) -> Result<EpochSummary, EngineError> {
        let seal = self.delta_mut()?.seal_epoch();
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
            let delta = self
                .evolving
                .as_ref()
                .expect("delta_mut created the block table this seal ran on");
            // Mutation can grow a hub past its block (or shrink one back
            // under it); only a rebuilt block can have changed size.
            let pg = Arc::make_mut(&mut self.pg);
            for &p in &seal.dirty_partitions {
                let bytes = delta.block(p).bytes();
                pg.set_partition_bytes(p, bytes);
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
                let bytes = self.pg.partition_bytes(p);
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
        self.emit(Level::Info, "epoch_seal", || {
            vec![
                ("epoch", summary.epoch.into()),
                ("inserted", summary.inserted.into()),
                ("deleted", summary.deleted.into()),
                ("dirty_partitions", summary.dirty_partitions.into()),
                ("reloaded_partitions", summary.reloaded_partitions.into()),
                ("reload_bytes", summary.reload_bytes.into()),
            ]
        });
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

    /// The block table's contract with the engine: the first mutation
    /// moves adjacency out of the epoch-0 CSR for good, a dirty seal
    /// replaces exactly the dirty block and re-sizes exactly its table
    /// entry, and a block that outgrows the budget flips its own
    /// `oversized` flag — clean partitions are not visited at all.
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
        // A delete of an absent edge applies nothing: the seal is clean,
        // but the table exists and the CSR is no longer the engine's.
        e.mutate(vec![EdgeUpdate::delete(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (1, 0, 0));
        assert!(e.pg.ram_csr().is_none());
        assert_eq!(Arc::strong_count(&g), 1, "the engine still holds the CSR");
        let np = e.pg.num_partitions();
        let blocks = |e: &LightTraffic| -> Vec<Arc<PartitionData>> {
            let delta = e.evolving.as_ref().expect("mutate creates the table");
            (0..np).map(|p| Arc::clone(delta.block(p))).collect()
        };
        let before = blocks(&e);
        // Only a visit could reset this marker on a clean partition.
        e.forced_zc.oversized[np as usize - 1] = true;

        e.mutate(vec![EdgeUpdate::insert(0, absent)]).unwrap();
        let s = e.seal_epoch().unwrap();
        assert_eq!((s.epoch, s.dirty_vertices, s.dirty_partitions), (2, 1, 1));
        let after = blocks(&e);
        for p in 0..np as usize {
            assert_eq!(Arc::ptr_eq(&after[p], &before[p]), p != 0, "block {p}");
            assert_eq!(e.pg.partition_bytes(p as PartitionId), after[p].bytes());
        }
        assert_eq!(after[0].bytes(), before[0].bytes() + 4);
        assert!(after[0].neighbors(0).binary_search(&absent).is_ok());
        assert!(!e.forced_zc.oversized[0] && e.forced_zc.oversized[np as usize - 1]);

        // Enough inserts into one row to overflow the 16 KiB block.
        let flood: Vec<EdgeUpdate> = (0..5_000).map(|k| EdgeUpdate::insert(0, k % nv)).collect();
        e.mutate(flood.clone()).unwrap();
        e.seal_epoch().unwrap();
        assert!(e.forced_zc.oversized[0] && e.pg.partition_bytes(0) > e.cfg.partition_bytes);
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

    /// The one refusal: an out-of-core store cannot take a seal, so
    /// `mutate` and `seal_epoch` fail before touching anything, and the
    /// engine keeps walking the file.
    #[test]
    fn mutation_is_refused_over_an_out_of_core_store() {
        let pg = PartitionedGraph::build(graph(), 16 << 10);
        let path = std::env::temp_dir().join(format!("lt_epoch_ooc_{}", std::process::id()));
        lt_graph::oocore::write_oocore(&pg, &path).unwrap();
        let ooc = Arc::new(lt_graph::OocGraph::open(&path).unwrap());
        std::fs::remove_file(&path).ok();
        let alg = Arc::new(UniformSampling::new(4));
        let mut e = LightTraffic::from_store(GraphStore::OutOfCore(ooc), alg, small_cfg()).unwrap();
        let refused = |r: Result<_, EngineError>| matches!(r, Err(EngineError::Admission(_)));
        assert!(refused(e.mutate(vec![EdgeUpdate::insert(0, 1)])));
        assert!(refused(e.seal_epoch().map(|_| 0)));
        assert!(e.evolving.is_none());
        assert_eq!(e.epoch(), 0);
        assert_eq!(e.run(500).unwrap().metrics.finished_walks, 500);
    }
}
