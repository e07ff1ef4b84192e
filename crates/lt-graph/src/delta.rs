//! Evolving-graph layer: buffered edge updates over one immutable CSR.
//!
//! The paper walks a static CSR, but its reshuffle/cache design is most
//! stressed when partition contents change mid-run (the LightRW /
//! FlexiWalker dynamic-walk scenario). [`DeltaGraph`] pairs the current
//! [`Csr`] with a buffer of pending updates and an epoch clock:
//!
//! - **Buffering**: [`DeltaGraph::buffer`] queues [`EdgeUpdate`]s without
//!   making them visible to readers.
//! - **Epoch seal**: [`DeltaGraph::seal_epoch`] merges every buffered
//!   update into the *next* CSR in one pass over the current one,
//!   advances the epoch and reports the dirty vertex set. All readers
//!   observe the new adjacency atomically after the seal — the engine
//!   runs seals only at iteration barriers, which is what makes mutation
//!   visibility deterministic (DESIGN.md §15).
//!
//! There is exactly one graph per epoch: [`DeltaGraph::base`] *is* the
//! sealed view, the allocation the engine partitions, and the input of
//! the next seal.
//!
//! Temporal coupling: on a temporal base graph, an insert without an
//! explicit timestamp is stamped with the sealing epoch's index, so the
//! edge-time horizon advances in lockstep with the delta stream and
//! temporal walkers' sliding windows (see `TemporalWalk` in `lt-engine`)
//! move forward as epochs are sealed.

use crate::{Csr, GraphError, VertexId};
use std::ops::Range;
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

/// Edge columns: targets plus the optional parallel weight and timestamp
/// arrays. A seal fills one as the next CSR's edge storage and reuses
/// another as the scratch copy of each touched row.
struct Columns {
    edges: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    timestamps: Option<Vec<u32>>,
}

impl Columns {
    /// Empty columns with the same optional arrays as `base`.
    fn like(base: &Csr, capacity: usize) -> Self {
        Columns {
            edges: Vec::with_capacity(capacity),
            weights: base.is_weighted().then(|| Vec::with_capacity(capacity)),
            timestamps: base.is_temporal().then(|| Vec::with_capacity(capacity)),
        }
    }

    fn clear(&mut self) {
        self.edges.clear();
        if let Some(w) = &mut self.weights {
            w.clear();
        }
        if let Some(t) = &mut self.timestamps {
            t.clear();
        }
    }

    /// Append `base`'s edge entries `range` as whole slices.
    fn extend_from_base(&mut self, base: &Csr, range: Range<usize>) {
        self.edges.extend_from_slice(&base.edges()[range.clone()]);
        if let (Some(out), Some(w)) = (&mut self.weights, base.weights()) {
            out.extend_from_slice(&w[range.clone()]);
        }
        if let (Some(out), Some(t)) = (&mut self.timestamps, base.timestamps()) {
            out.extend_from_slice(&t[range]);
        }
    }

    fn extend_from(&mut self, row: &Columns) {
        self.edges.extend_from_slice(&row.edges);
        if let (Some(out), Some(w)) = (&mut self.weights, &row.weights) {
            out.extend_from_slice(w);
        }
        if let (Some(out), Some(t)) = (&mut self.timestamps, &row.timestamps) {
            out.extend_from_slice(t);
        }
    }

    fn push(&mut self, dst: VertexId, weight: f32, timestamp: u32) {
        self.edges.push(dst);
        if let Some(w) = &mut self.weights {
            w.push(weight);
        }
        if let Some(t) = &mut self.timestamps {
            t.push(timestamp);
        }
    }

    fn remove(&mut self, k: usize) {
        self.edges.remove(k);
        if let Some(w) = &mut self.weights {
            w.remove(k);
        }
        if let Some(t) = &mut self.timestamps {
            t.remove(k);
        }
    }
}

/// The CSR a dirty seal is writing: the offsets of the rows emitted so
/// far (always ending in the current edge count) and their edges.
struct NextCsr {
    offsets: Vec<u64>,
    cols: Columns,
}

impl NextCsr {
    /// Sized for `base` grown by at most `max_inserts` edges.
    fn new(base: &Csr, max_inserts: usize) -> Self {
        let mut offsets = Vec::with_capacity(base.offsets().len());
        offsets.push(0);
        NextCsr {
            offsets,
            cols: Columns::like(base, base.num_edges() as usize + max_inserts),
        }
    }

    /// Emit the rows from the first one not yet written up to `until` —
    /// a run no update touched — as whole slices of `base`, with their
    /// offsets rebased onto the output.
    fn copy_clean_rows(&mut self, base: &Csr, until: usize) {
        let from = self.offsets.len() - 1;
        let base_off = base.offsets();
        let start = self.cols.edges.len() as u64;
        self.cols
            .extend_from_base(base, base_off[from] as usize..base_off[until] as usize);
        self.offsets.extend(
            base_off[from + 1..=until]
                .iter()
                .map(|&o| o - base_off[from] + start),
        );
    }

    fn push_row(&mut self, row: &Columns) {
        self.cols.extend_from(row);
        self.offsets.push(self.cols.edges.len() as u64);
    }
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

/// The current CSR, the updates buffered against it, and an epoch clock.
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
    pending: Vec<EdgeUpdate>,
    epoch: u64,
}

impl DeltaGraph {
    /// Start at epoch 0 over `base` with nothing buffered.
    pub fn new(base: Arc<Csr>) -> Self {
        DeltaGraph {
            base,
            pending: Vec::new(),
            epoch: 0,
        }
    }

    /// The current epoch (number of seals performed).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sealed view: the graph as of the last seal (the original graph
    /// before the first). A seal that changes any row installs a new
    /// allocation here; one that changes none keeps this `Arc` as is.
    #[inline]
    pub fn base(&self) -> &Arc<Csr> {
        &self.base
    }

    #[inline]
    pub fn num_vertices(&self) -> u64 {
        self.base.num_vertices()
    }

    /// Sealed-view edge count.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.base.num_edges()
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

    /// Apply every buffered update, advance the epoch and report the dirty
    /// vertex set. Sealing with an empty buffer still advances the epoch
    /// (an empty epoch).
    ///
    /// Updates take effect in submission order per source vertex (rows
    /// are independent, so that is the full submission order): an insert
    /// appends with weight 1.0 and the sealing epoch as defaults, a
    /// delete removes the first stored match and is a no-op that dirties
    /// nothing when there is none. The next CSR is written in one pass
    /// over the current one — runs of untouched vertices between touched
    /// sources are copied as whole slices — so a seal that changes a row
    /// costs O(|V| + |E|) and one that changes none costs O(pending).
    pub fn seal_epoch(&mut self) -> EpochSeal {
        self.epoch += 1;
        let default_ts = self.epoch.min(u32::MAX as u64) as u32;
        let mut seal = EpochSeal {
            epoch: self.epoch,
            ..EpochSeal::default()
        };
        let mut pending = std::mem::take(&mut self.pending);
        // Stable, so the ops of one source keep their submission order.
        pending.sort_by_key(|u| u.src);
        let base = &*self.base;
        // Created by the first row that changes.
        let mut next: Option<NextCsr> = None;
        let mut row = Columns::like(base, 0);
        for ops in pending.chunk_by(|a, b| a.src == b.src) {
            let src = ops[0].src;
            let range = base.edge_range(src);
            row.clear();
            row.extend_from_base(base, range.start as usize..range.end as usize);
            let applied_before = seal.inserted + seal.deleted;
            for u in ops {
                match u.op {
                    EdgeOp::Insert => {
                        row.push(
                            u.dst,
                            u.weight.unwrap_or(1.0),
                            u.timestamp.unwrap_or(default_ts),
                        );
                        seal.inserted += 1;
                    }
                    EdgeOp::Delete => {
                        if let Some(k) = row.edges.iter().position(|&x| x == u.dst) {
                            row.remove(k);
                            seal.deleted += 1;
                        }
                    }
                }
            }
            if seal.inserted + seal.deleted == applied_before {
                continue;
            }
            seal.dirty.push(src);
            let next = next.get_or_insert_with(|| NextCsr::new(base, pending.len()));
            next.copy_clean_rows(base, src as usize);
            next.push_row(&row);
        }
        if let Some(mut next) = next {
            next.copy_clean_rows(base, base.num_vertices() as usize);
            let NextCsr { offsets, cols } = next;
            self.base = Arc::new(
                Csr::with_timestamps(offsets, cols.edges, cols.weights, cols.timestamps)
                    .expect("validated updates applied to a valid CSR give a valid CSR"),
            );
        }
        seal
    }

    /// Sealed-view neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        self.base.neighbors(v)
    }

    /// Sealed-view weights parallel to [`DeltaGraph::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        self.base.neighbor_weights(v)
    }

    /// Sealed-view timestamps parallel to [`DeltaGraph::neighbors`].
    #[inline]
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&[u32]> {
        self.base.neighbor_timestamps(v)
    }

    /// Sealed-view out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.base.degree(v)
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
    fn ops_on_one_source_apply_in_submission_order() {
        let mut dg = DeltaGraph::new(base());
        for u in [
            EdgeUpdate::delete(3, 3), // 3 -> 3 is absent now ...
            EdgeUpdate::insert(3, 3), // ... present from here ...
            EdgeUpdate::insert(0, 0),
            EdgeUpdate::delete(3, 3), // ... and gone again.
            EdgeUpdate::delete(3, 0),
            EdgeUpdate::insert(3, 0),
        ] {
            dg.buffer(u).unwrap();
        }
        let seal = dg.seal_epoch();
        assert_eq!(seal.dirty, vec![0, 3]);
        assert_eq!((seal.inserted, seal.deleted), (3, 2));
        assert_eq!(dg.neighbors(0), &[1, 2, 0]);
        assert_eq!(dg.neighbors(3), &[1, 2, 0]);
        assert_eq!(dg.base().offsets(), &[0, 3, 4, 4, 7]);
    }

    #[test]
    fn only_a_seal_that_changes_a_row_installs_a_new_base() {
        let original = base();
        let mut dg = DeltaGraph::new(Arc::clone(&original));
        dg.seal_epoch();
        dg.buffer(EdgeUpdate::delete(2, 0)).unwrap();
        let seal = dg.seal_epoch();
        assert_eq!((seal.epoch, dg.pending()), (2, 0));
        assert!(Arc::ptr_eq(dg.base(), &original));
        dg.buffer(EdgeUpdate::insert(2, 0)).unwrap();
        dg.seal_epoch();
        assert!(!Arc::ptr_eq(dg.base(), &original));
        assert_eq!(original.neighbors(2), &[] as &[u32]);
        assert_eq!(dg.neighbors(2), &[0]);
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
    }
}
