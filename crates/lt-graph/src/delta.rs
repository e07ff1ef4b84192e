//! Evolving-graph layer: delta buffers over an immutable CSR.
//!
//! The paper walks a static CSR, but its reshuffle/cache design is most
//! stressed when partition contents change mid-run (the LightRW /
//! FlexiWalker dynamic-walk scenario). [`DeltaGraph`] wraps the immutable
//! [`Csr`] with per-vertex insert/delete buffers and an epoch clock:
//!
//! - **Buffering**: [`DeltaGraph::buffer`] queues [`EdgeUpdate`]s without
//!   making them visible to readers.
//! - **Epoch seal**: [`DeltaGraph::seal_epoch`] applies every buffered
//!   update to a copy-on-write per-vertex overlay, advances the epoch and
//!   reports the dirty vertex set. All readers observe the new adjacency
//!   atomically after the seal — the engine runs seals only at iteration
//!   barriers, which is what makes mutation visibility deterministic
//!   (DESIGN.md §15).
//! - **Compaction**: [`DeltaGraph::compact`] folds the overlay into a
//!   fresh base CSR. Compaction never changes the adjacency a reader
//!   sees, only where it is stored — the property the evolving-graph
//!   property tests pin down.
//!
//! Temporal coupling: on a temporal base graph, an insert without an
//! explicit timestamp is stamped with the sealing epoch's index, so the
//! edge-time horizon advances in lockstep with the delta stream and
//! temporal walkers' sliding windows (see `TemporalWalk` in `lt-engine`)
//! move forward as epochs are sealed.

use crate::{Csr, GraphError, VertexId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// What an [`EdgeUpdate`] does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Add a directed edge `src -> dst`.
    Insert,
    /// Remove the first stored `src -> dst` edge (no-op if absent).
    Delete,
}

/// One streamed edge mutation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeUpdate {
    pub op: EdgeOp,
    pub src: VertexId,
    pub dst: VertexId,
    /// Timestamp for inserts into a temporal graph. `None` means "stamp
    /// with the sealing epoch" — the epoch-synchronized default.
    pub timestamp: Option<u32>,
    /// Weight for inserts into a weighted graph (default 1.0).
    pub weight: Option<f32>,
}

impl EdgeUpdate {
    /// An insert with epoch-stamped time and unit weight.
    pub fn insert(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate {
            op: EdgeOp::Insert,
            src,
            dst,
            timestamp: None,
            weight: None,
        }
    }

    /// An insert carrying an explicit timestamp.
    pub fn insert_at(src: VertexId, dst: VertexId, timestamp: u32) -> Self {
        EdgeUpdate {
            timestamp: Some(timestamp),
            ..EdgeUpdate::insert(src, dst)
        }
    }

    /// A delete of the first stored `src -> dst` edge.
    pub fn delete(src: VertexId, dst: VertexId) -> Self {
        EdgeUpdate {
            op: EdgeOp::Delete,
            src,
            dst,
            timestamp: None,
            weight: None,
        }
    }
}

/// The copy-on-write replacement adjacency of one mutated vertex.
#[derive(Clone, Debug)]
struct VertexDelta {
    edges: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    timestamps: Option<Vec<u32>>,
}

/// Result of sealing one epoch: which vertices changed and how much.
#[derive(Clone, Debug, Default)]
pub struct EpochSeal {
    /// The epoch number that just became current.
    pub epoch: u64,
    /// Sorted, deduplicated source vertices whose adjacency changed.
    pub dirty: Vec<VertexId>,
    /// Edges inserted by this seal.
    pub inserted: u64,
    /// Edges actually removed by this seal (absent targets are no-ops).
    pub deleted: u64,
}

/// An immutable CSR plus buffered per-vertex deltas and an epoch clock.
///
/// ```
/// use std::sync::Arc;
/// use lt_graph::{Csr, delta::{DeltaGraph, EdgeUpdate}};
/// let base = Arc::new(Csr::new(vec![0, 2, 3, 3], vec![1, 2, 0], None).unwrap());
/// let mut dg = DeltaGraph::new(base);
/// dg.buffer(EdgeUpdate::insert(2, 0)).unwrap();
/// assert_eq!(dg.neighbors(2), &[] as &[u32]); // invisible until sealed
/// let seal = dg.seal_epoch();
/// assert_eq!(seal.epoch, 1);
/// assert_eq!(seal.dirty, vec![2]);
/// assert_eq!(dg.neighbors(2), &[0]);
/// ```
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    base: Arc<Csr>,
    overlay: BTreeMap<VertexId, VertexDelta>,
    pending: Vec<EdgeUpdate>,
    epoch: u64,
    compactions: u64,
}

impl DeltaGraph {
    /// Wrap an immutable base CSR at epoch 0 with empty delta buffers.
    pub fn new(base: Arc<Csr>) -> Self {
        DeltaGraph {
            base,
            overlay: BTreeMap::new(),
            pending: Vec::new(),
            epoch: 0,
            compactions: 0,
        }
    }

    /// Build a mutation overlay over a [`crate::GraphStore`].
    ///
    /// The overlay's read paths (`neighbors`, `neighbor_weights`, …)
    /// return borrowed slices, so the base must be RAM-resident: a RAM
    /// store is wrapped as-is, an out-of-core store is **materialized**
    /// via [`crate::OocGraph::to_csr`] — mutating a disk-backed graph
    /// costs the decode up front. (Keeping the overlay out-of-core too is
    /// the deferred half of this design; the engine refuses `mutate` on
    /// out-of-core sessions instead of paying this silently.)
    pub fn from_store(store: &crate::GraphStore) -> Result<Self, crate::GraphError> {
        match store {
            crate::GraphStore::Ram(base) => Ok(DeltaGraph::new(Arc::clone(base))),
            crate::GraphStore::OutOfCore(ooc) => Ok(DeltaGraph::new(Arc::new(ooc.to_csr()?))),
        }
    }

    /// The current epoch (number of seals performed).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Compactions performed so far.
    #[inline]
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// The current base CSR (most recent compaction output, or the
    /// original graph). Does **not** include sealed overlay deltas.
    #[inline]
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.base.num_vertices()
    }

    /// Current (sealed-view) edge count: base edges plus overlay growth.
    pub fn num_edges(&self) -> u64 {
        let mut n = self.base.num_edges() as i64;
        for (&v, d) in &self.overlay {
            n += d.edges.len() as i64 - self.base.degree(v) as i64;
        }
        n as u64
    }

    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.base.is_weighted()
    }

    #[inline]
    pub fn is_temporal(&self) -> bool {
        self.base.is_temporal()
    }

    /// Buffered updates awaiting the next seal.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Vertices with a sealed overlay row.
    #[inline]
    pub fn overlay_vertices(&self) -> usize {
        self.overlay.len()
    }

    /// Edge entries held in sealed overlay rows — the quantity a
    /// compaction threshold bounds (each overlay row duplicates its
    /// vertex's full adjacency).
    pub fn overlay_edges(&self) -> u64 {
        self.overlay.values().map(|d| d.edges.len() as u64).sum()
    }

    /// Queue one update; it stays invisible until [`DeltaGraph::seal_epoch`].
    /// Both endpoints must be existing vertices (the vertex set is frozen;
    /// only edges evolve).
    pub fn buffer(&mut self, update: EdgeUpdate) -> Result<(), GraphError> {
        let nv = self.base.num_vertices();
        for v in [update.src, update.dst] {
            if (v as u64) >= nv {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v as u64,
                    num_vertices: nv,
                });
            }
        }
        if let Some(w) = update.weight {
            if !w.is_finite() || w < 0.0 {
                return Err(GraphError::Format(
                    "edge-update weights must be finite and non-negative".into(),
                ));
            }
        }
        self.pending.push(update);
        Ok(())
    }

    /// Apply every buffered update in submission order, advance the epoch
    /// and report the dirty vertex set. Sealing with an empty buffer still
    /// advances the epoch (an empty epoch).
    pub fn seal_epoch(&mut self) -> EpochSeal {
        self.epoch += 1;
        let default_ts = self.epoch.min(u32::MAX as u64) as u32;
        let mut seal = EpochSeal {
            epoch: self.epoch,
            ..EpochSeal::default()
        };
        let pending = std::mem::take(&mut self.pending);
        for u in pending {
            let base = &self.base;
            let row = self.overlay.entry(u.src).or_insert_with(|| VertexDelta {
                edges: base.neighbors(u.src).to_vec(),
                weights: base.neighbor_weights(u.src).map(|w| w.to_vec()),
                timestamps: base.neighbor_timestamps(u.src).map(|t| t.to_vec()),
            });
            match u.op {
                EdgeOp::Insert => {
                    row.edges.push(u.dst);
                    if let Some(w) = &mut row.weights {
                        w.push(u.weight.unwrap_or(1.0));
                    }
                    if let Some(t) = &mut row.timestamps {
                        t.push(u.timestamp.unwrap_or(default_ts));
                    }
                    seal.inserted += 1;
                    seal.dirty.push(u.src);
                }
                EdgeOp::Delete => {
                    if let Some(k) = row.edges.iter().position(|&x| x == u.dst) {
                        row.edges.remove(k);
                        if let Some(w) = &mut row.weights {
                            w.remove(k);
                        }
                        if let Some(t) = &mut row.timestamps {
                            t.remove(k);
                        }
                        seal.deleted += 1;
                        seal.dirty.push(u.src);
                    }
                }
            }
        }
        seal.dirty.sort_unstable();
        seal.dirty.dedup();
        seal
    }

    /// Sealed-view neighbors of `v` (overlay row if mutated, else base).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match self.overlay.get(&v) {
            Some(d) => &d.edges,
            None => self.base.neighbors(v),
        }
    }

    /// Sealed-view weights parallel to [`DeltaGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        match self.overlay.get(&v) {
            Some(d) => d.weights.as_deref(),
            None => self.base.neighbor_weights(v),
        }
    }

    /// Sealed-view timestamps parallel to [`DeltaGraph::neighbors`].
    #[inline]
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&[u32]> {
        match self.overlay.get(&v) {
            Some(d) => d.timestamps.as_deref(),
            None => self.base.neighbor_timestamps(v),
        }
    }

    /// Sealed-view out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        match self.overlay.get(&v) {
            Some(d) => d.edges.len() as u64,
            None => self.base.degree(v),
        }
    }

    /// Materialize the sealed view as a standalone CSR (base + overlay).
    /// This is what the engine swaps into its partition table at an epoch
    /// barrier, and what [`DeltaGraph::compact`] installs as the new base.
    pub fn snapshot_csr(&self) -> Csr {
        if self.overlay.is_empty() {
            return (*self.base).clone();
        }
        let nv = self.base.num_vertices() as usize;
        let ne = self.num_edges() as usize;
        let mut offsets = Vec::with_capacity(nv + 1);
        let mut edges = Vec::with_capacity(ne);
        let mut weights = self.base.is_weighted().then(|| Vec::with_capacity(ne));
        let mut timestamps = self.base.is_temporal().then(|| Vec::with_capacity(ne));
        offsets.push(0u64);
        for v in 0..nv as VertexId {
            edges.extend_from_slice(self.neighbors(v));
            if let (Some(out), Some(row)) = (&mut weights, self.neighbor_weights(v)) {
                out.extend_from_slice(row);
            }
            if let (Some(out), Some(row)) = (&mut timestamps, self.neighbor_timestamps(v)) {
                out.extend_from_slice(row);
            }
            offsets.push(edges.len() as u64);
        }
        Csr::with_timestamps(offsets, edges, weights, timestamps)
            .expect("snapshot of a valid delta graph is a valid CSR")
    }

    /// Fold the overlay into a fresh base CSR. Returns `false` (and does
    /// nothing) when the overlay is empty. The sealed view — what every
    /// reader observes — is unchanged; the epoch does not advance.
    pub fn compact(&mut self) -> bool {
        if self.overlay.is_empty() {
            return false;
        }
        self.base = Arc::new(self.snapshot_csr());
        self.overlay.clear();
        self.compactions += 1;
        true
    }

    /// Whether the overlay has outgrown `threshold_edges` (a compaction
    /// policy hook; `0` disables auto-compaction by convention of callers).
    pub fn should_compact(&self, threshold_edges: u64) -> bool {
        threshold_edges > 0 && self.overlay_edges() > threshold_edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Arc<Csr> {
        // 0 -> 1,2 ; 1 -> 0 ; 2 -> (none) ; 3 -> 0,1,2
        Arc::new(Csr::new(vec![0, 2, 3, 3, 6], vec![1, 2, 0, 0, 1, 2], None).unwrap())
    }

    #[test]
    fn buffered_updates_invisible_until_seal() {
        let mut dg = DeltaGraph::new(base());
        dg.buffer(EdgeUpdate::insert(1, 3)).unwrap();
        dg.buffer(EdgeUpdate::delete(0, 2)).unwrap();
        assert_eq!(dg.neighbors(1), &[0]);
        assert_eq!(dg.neighbors(0), &[1, 2]);
        assert_eq!(dg.pending(), 2);
        let seal = dg.seal_epoch();
        assert_eq!(seal.epoch, 1);
        assert_eq!(seal.dirty, vec![0, 1]);
        assert_eq!((seal.inserted, seal.deleted), (1, 1));
        assert_eq!(dg.neighbors(1), &[0, 3]);
        assert_eq!(dg.neighbors(0), &[1]);
        assert_eq!(dg.num_edges(), 6);
    }

    #[test]
    fn delete_of_absent_edge_is_noop() {
        let mut dg = DeltaGraph::new(base());
        dg.buffer(EdgeUpdate::delete(2, 0)).unwrap();
        let seal = dg.seal_epoch();
        assert_eq!(seal.deleted, 0);
        assert!(seal.dirty.is_empty());
        assert_eq!(dg.num_edges(), 6);
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut dg = DeltaGraph::new(base());
        assert!(dg.buffer(EdgeUpdate::insert(0, 9)).is_err());
        assert!(dg.buffer(EdgeUpdate::insert(9, 0)).is_err());
        assert_eq!(dg.pending(), 0);
    }

    #[test]
    fn snapshot_matches_sealed_view_and_compaction_is_transparent() {
        let mut dg = DeltaGraph::new(base());
        for u in [
            EdgeUpdate::insert(2, 3),
            EdgeUpdate::insert(2, 1),
            EdgeUpdate::delete(3, 1),
        ] {
            dg.buffer(u).unwrap();
        }
        dg.seal_epoch();
        let before = dg.snapshot_csr();
        assert!(dg.compact());
        assert_eq!(dg.overlay_vertices(), 0);
        assert_eq!(dg.compactions(), 1);
        let after = dg.snapshot_csr();
        assert_eq!(before.offsets(), after.offsets());
        assert_eq!(before.edges(), after.edges());
        for v in 0..4 {
            assert_eq!(dg.neighbors(v), before.neighbors(v));
        }
        // Compacting an empty overlay is a no-op.
        assert!(!dg.compact());
        assert_eq!(dg.compactions(), 1);
    }

    #[test]
    fn temporal_inserts_default_to_sealing_epoch() {
        let base =
            Arc::new(Csr::with_timestamps(vec![0, 1, 1], vec![1], None, Some(vec![7])).unwrap());
        let mut dg = DeltaGraph::new(base);
        dg.seal_epoch(); // epoch 1
        dg.buffer(EdgeUpdate::insert(1, 0)).unwrap();
        dg.buffer(EdgeUpdate::insert_at(0, 1, 99)).unwrap();
        let seal = dg.seal_epoch(); // epoch 2
        assert_eq!(seal.epoch, 2);
        assert_eq!(dg.neighbor_timestamps(1), Some(&[2u32][..]));
        assert_eq!(dg.neighbor_timestamps(0), Some(&[7u32, 99][..]));
        let snap = dg.snapshot_csr();
        assert!(snap.is_temporal());
        assert_eq!(snap.neighbor_timestamps(1), Some(&[2u32][..]));
    }

    #[test]
    fn overlay_growth_drives_compaction_policy() {
        let mut dg = DeltaGraph::new(base());
        dg.buffer(EdgeUpdate::insert(3, 3)).unwrap();
        dg.seal_epoch();
        // Row 3 was cloned (3 base edges) and grew by one.
        assert_eq!(dg.overlay_edges(), 4);
        assert!(dg.should_compact(3));
        assert!(!dg.should_compact(4));
        assert!(!dg.should_compact(0), "0 disables auto-compaction");
    }
}
