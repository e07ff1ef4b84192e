//! Evolving-graph layer: buffered edge updates over the block table.
//!
//! The paper walks a static CSR, but its reshuffle/cache design is most
//! stressed when partition contents change mid-run (the LightRW /
//! FlexiWalker dynamic-walk scenario). [`DeltaGraph`] holds the graph as
//! the [`PartitionedGraph`] block table the engine already moves — the
//! paper's unit of traffic (§III-B) is also the unit of mutation — with a
//! buffer of pending updates and an epoch clock:
//!
//! - **Buffering**: [`DeltaGraph::buffer`] queues [`EdgeUpdate`]s without
//!   making them visible to readers. Nothing is copied, however large the
//!   graph: every entry starts clean, read from the base store.
//! - **Epoch seal**: [`DeltaGraph::seal_epoch`] merges every buffered
//!   update into fresh blocks for the partitions it touches, read from
//!   whatever their entries hold — the CSR range or block a kernel reads,
//!   or an out-of-core partition's decoded block — advances the epoch and
//!   reports the dirty vertex and partition sets. An untouched entry keeps
//!   what it had, so a seal costs the bytes of the dirty partitions, not
//!   of the graph, and a copy of a block is stale exactly when its entry
//!   was sealed since. All readers observe the new adjacency atomically
//!   after the seal — the engine runs seals only at iteration barriers,
//!   which is what makes mutation visibility deterministic (DESIGN.md
//!   §15). Sealed blocks stay in RAM; nothing rewrites an out-of-core
//!   file.
//!
//! Temporal coupling: on a temporal base graph, an insert without an
//! explicit timestamp is stamped with the sealing epoch's index, so the
//! edge-time horizon advances in lockstep with the delta stream and
//! temporal walkers' sliding windows (see `TemporalWalk` in `lt-engine`)
//! move forward as epochs are sealed. An insert lands at its
//! `(timestamp, target)` position, so a temporal row stays in time order.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::csr::check_weights;
use crate::partition::Rows;
use crate::{Csr, GraphError, PartitionData, PartitionId, PartitionedGraph, VertexId};
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
/// arrays. A seal fills one as a rebuilt block's edge storage and reuses
/// another as the scratch copy of each touched row.
struct Columns {
    edges: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    timestamps: Option<Vec<u32>>,
}

impl Columns {
    /// Empty columns with the same optional arrays as `base`.
    fn like(base: &Rows, capacity: usize) -> Self {
        Columns {
            edges: Vec::with_capacity(capacity),
            weights: base.weights.map(|_| Vec::with_capacity(capacity)),
            timestamps: base.timestamps.map(|_| Vec::with_capacity(capacity)),
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

    /// Append `base`'s edge-column entries `range` as whole slices.
    fn extend_from_base(&mut self, base: &Rows, range: Range<usize>) {
        self.edges.extend_from_slice(&base.edges[range.clone()]);
        if let (Some(out), Some(w)) = (&mut self.weights, base.weights) {
            out.extend_from_slice(&w[range.clone()]);
        }
        if let (Some(out), Some(t)) = (&mut self.timestamps, base.timestamps) {
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

    /// Insert an edge to `dst` after every edge that sorts no later: on a
    /// timestamped row every edge whose `(timestamp, target)` is at most
    /// `(timestamp, dst)`, elsewhere every edge to a target `<= dst`. A
    /// row in time order stays in time order, a vertex-sorted row stays
    /// vertex-sorted, and parallel edges keep their insertion order.
    fn insert_sorted(&mut self, dst: VertexId, weight: f32, timestamp: u32) {
        let k = match &self.timestamps {
            Some(ts) => {
                let (lo, hi) = (
                    ts.partition_point(|&t| t < timestamp),
                    ts.partition_point(|&t| t <= timestamp),
                );
                lo + self.edges[lo..hi].partition_point(|&x| x <= dst)
            }
            None => self.edges.partition_point(|&x| x <= dst),
        };
        self.edges.insert(k, dst);
        if let Some(w) = &mut self.weights {
            w.insert(k, weight);
        }
        if let Some(t) = &mut self.timestamps {
            t.insert(k, timestamp);
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

/// The block a dirty seal is writing for one partition: the offsets of the
/// rows emitted so far (always ending in the current edge count) and their
/// edges. Offsets are partition-relative, like the block's own.
struct NextBlock {
    offsets: Vec<u64>,
    cols: Columns,
}

impl NextBlock {
    /// Sized for `base` grown by at most `max_inserts` edges.
    fn new(base: &Rows, max_inserts: usize) -> Self {
        let mut offsets = Vec::with_capacity(base.offsets.len());
        offsets.push(0);
        NextBlock {
            offsets,
            cols: Columns::like(base, base.edge_span().len() + max_inserts),
        }
    }

    /// Emit the rows from the first one not yet written up to local row
    /// `until` — a run no update touched — as whole slices of `base`, with
    /// their offsets rebased onto the output.
    fn copy_clean_rows(&mut self, base: &Rows, until: usize) {
        let from = self.offsets.len() - 1;
        let base_off = base.offsets;
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
    /// Sorted partitions holding a dirty vertex — exactly the entries this
    /// seal replaced.
    pub dirty_partitions: Vec<PartitionId>,
    /// Edges inserted by this seal.
    pub inserted: u64,
    /// Edges actually removed by this seal (absent targets are no-ops).
    pub deleted: u64,
}

/// A block table, the updates buffered against it, and an epoch clock.
///
/// ```
/// use std::sync::Arc;
/// use lt_graph::{Csr, PartitionedGraph, delta::{DeltaGraph, EdgeUpdate}};
/// let base = Arc::new(Csr::new(vec![0, 2, 3, 3], vec![1, 2, 0], None).unwrap());
/// let mut dg = DeltaGraph::new(PartitionedGraph::build(base, 40));
/// dg.buffer(EdgeUpdate::insert(2, 0)).unwrap();
/// assert_eq!(dg.to_csr().unwrap().neighbors(2), &[] as &[u32]); // invisible until sealed
/// let seal = dg.seal_epoch(&[]).unwrap();
/// assert_eq!(seal.epoch, 1);
/// assert_eq!(seal.dirty, vec![2]);
/// assert_eq!(seal.dirty_partitions, vec![1]);
/// assert_eq!(dg.table().rows(1).unwrap().neighbors(2), &[0]);
/// assert!(dg.table().sealed(0).is_none()); // untouched, still the CSR's rows
/// ```
#[derive(Clone, Debug)]
pub struct DeltaGraph {
    table: PartitionedGraph,
    pending: Vec<EdgeUpdate>,
    epoch: u64,
}

impl DeltaGraph {
    /// Start at epoch 0 with nothing buffered and every entry of `table`
    /// as it is. Copies nothing.
    pub fn new(table: PartitionedGraph) -> Self {
        DeltaGraph {
            table,
            pending: Vec::new(),
            epoch: 0,
        }
    }

    /// The block table as of the last seal.
    #[inline]
    pub fn table(&self) -> &PartitionedGraph {
        &self.table
    }

    /// The current epoch (number of seals performed).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Buffered updates awaiting the next seal.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Queue one update; it stays invisible until [`DeltaGraph::seal_epoch`].
    /// Both endpoints must be existing vertices (the vertex set is frozen;
    /// only edges evolve), and a weight must be finite and non-negative.
    pub fn buffer(&mut self, update: EdgeUpdate) -> Result<(), GraphError> {
        let nv = self.table.num_vertices();
        for v in [update.src, update.dst] {
            if (v as u64) >= nv {
                return Err(GraphError::VertexOutOfRange {
                    vertex: v as u64,
                    num_vertices: nv,
                });
            }
        }
        check_weights(update.weight.as_slice())?;
        self.pending.push(update);
        Ok(())
    }

    /// The partitions the next seal rebuilds whose rows the table cannot
    /// lend — clean partitions of an out-of-core store — ascending. A
    /// caller with its own cache of decoded blocks fetches these and
    /// hands them to [`DeltaGraph::seal_epoch`].
    pub fn bases_to_fetch(&self) -> Vec<PartitionId> {
        let mut parts: Vec<PartitionId> = self
            .pending
            .iter()
            .map(|u| self.table.partition_of(u.src))
            .filter(|&p| self.table.rows(p).is_none())
            .collect();
        parts.sort_unstable();
        parts.dedup();
        parts
    }

    /// Apply every buffered update, advance the epoch and report the dirty
    /// vertex and partition sets. Sealing with an empty buffer still
    /// advances the epoch (an empty epoch).
    ///
    /// Updates take effect in submission order per source vertex (rows
    /// are independent, so that is the full submission order): an insert
    /// goes after the row's last edge that sorts no later — by target,
    /// or on a timestamped graph by `(timestamp, target)`, so every row
    /// keeps its order ([`Csr`]) — with weight 1.0 and the sealing epoch
    /// as defaults; a delete removes the first
    /// stored match and is a no-op that dirties nothing when there is
    /// none. The sorted updates are cut at partition boundaries and each
    /// touched partition's rows are rewritten in one pass
    /// (`rebuild_block`), so a seal costs O(pending + bytes of the dirty
    /// partitions).
    ///
    /// A touched partition is read from its entry when the table lends
    /// its rows, else from its block in `fetched` (see
    /// [`DeltaGraph::bases_to_fetch`]), else decoded from the file. A
    /// failed decode returns its error before anything changes: the
    /// epoch, the table and the buffer stay as they were.
    pub fn seal_epoch(&mut self, fetched: &[Arc<PartitionData>]) -> Result<EpochSeal, GraphError> {
        // Stable, so the ops of one source keep their submission order.
        self.pending.sort_by_key(|u| u.src);
        let epoch = self.epoch + 1;
        let default_ts = epoch.min(u32::MAX as u64) as u32;
        let mut seal = EpochSeal {
            epoch,
            ..EpochSeal::default()
        };
        let mut rebuilt = Vec::new();
        let mut row = None;
        let mut rest = self.pending.as_slice();
        while let Some(first) = rest.first() {
            let p = self.table.partition_of(first.src);
            let v_end = self.table.vertex_range(p).end;
            let (ops, tail) = rest.split_at(rest.partition_point(|u| u.src < v_end));
            rest = tail;
            let decoded;
            let base = match (self.table.rows(p), fetched.iter().find(|d| d.id == p)) {
                (Some(rows), _) => rows,
                (None, Some(block)) => block.rows(),
                (None, None) => {
                    decoded = self.table.read_block(p)?;
                    decoded.rows()
                }
            };
            let row = row.get_or_insert_with(|| Columns::like(&base, 0));
            if let Some(block) = rebuild_block(p, &base, ops, default_ts, row, &mut seal) {
                rebuilt.push(block);
                seal.dirty_partitions.push(p);
            }
        }
        for block in rebuilt {
            self.table.seal(block);
        }
        self.pending.clear();
        self.epoch = epoch;
        Ok(seal)
    }

    /// The sealed view as one CSR — O(|V| + |E|), for tests and reference
    /// implementations that want a whole graph; nothing on the walk path
    /// builds one. A clean out-of-core partition is decoded from the file.
    pub fn to_csr(&self) -> Result<Csr, GraphError> {
        let blocks = (0..self.table.num_partitions())
            .map(|p| self.table.read_block(p))
            .collect::<Result<Vec<_>, _>>()?;
        let mut offsets = vec![0];
        let mut cols = Columns::like(&blocks[0].rows(), 0);
        for b in &blocks {
            let start = cols.edges.len() as u64;
            offsets.extend(b.offsets[1..].iter().map(|&o| o + start));
            cols.extend_from_base(&b.rows(), 0..b.edges.len());
        }
        Csr::with_timestamps(offsets, cols.edges, cols.weights, cols.timestamps)
    }
}

/// Apply `part_ops` — the sealed epoch's updates whose source lies in
/// partition `id`, whose current rows are `base`, sorted by source,
/// submission order within one — and return the rebuilt block, or `None`
/// when none of them changed a row. `row` is scratch; `seal` collects the
/// dirty vertices and the applied counts.
fn rebuild_block(
    id: PartitionId,
    base: &Rows,
    part_ops: &[EdgeUpdate],
    default_ts: u32,
    row: &mut Columns,
    seal: &mut EpochSeal,
) -> Option<PartitionData> {
    // Created by the first row that changes.
    let mut next: Option<NextBlock> = None;
    for ops in part_ops.chunk_by(|a, b| a.src == b.src) {
        let src = ops[0].src;
        let local = (src - base.v_start) as usize;
        row.clear();
        row.extend_from_base(
            base,
            base.offsets[local] as usize..base.offsets[local + 1] as usize,
        );
        let applied_before = seal.inserted + seal.deleted;
        for u in ops {
            match u.op {
                EdgeOp::Insert => {
                    row.insert_sorted(
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
        let next = next.get_or_insert_with(|| NextBlock::new(base, part_ops.len()));
        next.copy_clean_rows(base, local);
        next.push_row(row);
    }
    let mut next = next?;
    next.copy_clean_rows(base, (base.v_end - base.v_start) as usize);
    let NextBlock { offsets, cols } = next;
    Some(PartitionData {
        id,
        v_start: base.v_start,
        v_end: base.v_end,
        offsets,
        edges: cols.edges,
        weights: cols.weights,
        timestamps: cols.timestamps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 -> 1,2 ; 1 -> 0 ; 2 -> (none) ; 3 -> 0,1,2 — cut into the
    /// partitions {0}, {1, 2}, {3} by a 30-byte budget.
    fn base() -> DeltaGraph {
        let g = Csr::new(vec![0, 2, 3, 3, 6], vec![1, 2, 0, 0, 1, 2], None).unwrap();
        let pg = PartitionedGraph::build(Arc::new(g), 30);
        assert_eq!(pg.boundaries(), &[0, 1, 3, 4]);
        DeltaGraph::new(pg)
    }

    /// The sealed view's row of `v`.
    fn neighbors(dg: &DeltaGraph, v: VertexId) -> &[VertexId] {
        let t = dg.table();
        t.rows(t.partition_of(v)).unwrap().neighbors(v)
    }

    fn seal(dg: &mut DeltaGraph) -> EpochSeal {
        dg.seal_epoch(&[]).unwrap()
    }

    #[test]
    fn buffered_updates_invisible_until_seal() {
        let mut dg = base();
        dg.buffer(EdgeUpdate::insert(1, 3)).unwrap();
        dg.buffer(EdgeUpdate::delete(0, 2)).unwrap();
        assert_eq!(neighbors(&dg, 1), &[0]);
        assert_eq!(neighbors(&dg, 0), &[1, 2]);
        assert_eq!(dg.pending(), 2);
        let seal = seal(&mut dg);
        assert_eq!(seal.epoch, 1);
        assert_eq!(seal.dirty, vec![0, 1]);
        assert_eq!(seal.dirty_partitions, vec![0, 1]);
        assert_eq!((seal.inserted, seal.deleted), (1, 1));
        assert_eq!(neighbors(&dg, 1), &[0, 3]);
        assert_eq!(neighbors(&dg, 0), &[1]);
        assert_eq!(dg.to_csr().unwrap().num_edges(), 6);
        // Only the dirty entries hold blocks; the clean one still reads
        // the CSR.
        assert!(dg.table().sealed(2).is_none());
        assert_eq!(dg.table().partition_bytes(1), 3 * 8 + 2 * 4);
    }

    #[test]
    fn delete_of_absent_edge_is_noop() {
        let mut dg = base();
        dg.buffer(EdgeUpdate::delete(2, 0)).unwrap();
        let seal = seal(&mut dg);
        assert_eq!(seal.deleted, 0);
        assert!(seal.dirty.is_empty() && seal.dirty_partitions.is_empty());
        assert!((0..3).all(|p| dg.table().sealed(p).is_none()));
        assert_eq!(dg.to_csr().unwrap().num_edges(), 6);
    }

    #[test]
    fn rejects_out_of_range_endpoints() {
        let mut dg = base();
        assert!(dg.buffer(EdgeUpdate::insert(0, 9)).is_err());
        assert!(dg.buffer(EdgeUpdate::insert(9, 0)).is_err());
        assert_eq!(dg.pending(), 0);
    }

    #[test]
    fn ops_on_one_source_apply_in_submission_order() {
        let mut dg = base();
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
        let seal = seal(&mut dg);
        assert_eq!(seal.dirty, vec![0, 3]);
        assert_eq!(seal.dirty_partitions, vec![0, 2]);
        assert_eq!((seal.inserted, seal.deleted), (3, 2));
        assert_eq!(neighbors(&dg, 0), &[0, 1, 2]);
        assert_eq!(neighbors(&dg, 3), &[0, 1, 2]);
        assert_eq!(dg.to_csr().unwrap().offsets(), &[0, 3, 4, 4, 7]);
    }

    /// An insert keeps a vertex-sorted row sorted: appending gave
    /// `[2, 5, 0]`, where node2vec's search of the row misses the `0`.
    /// The multiplicity bound follows the seals up and back down.
    #[test]
    fn inserts_keep_rows_sorted_and_seals_update_the_multiplicity() {
        let g = Csr::new(vec![0, 0, 2, 2, 2, 2, 2], vec![2, 5], None).unwrap();
        let mut dg = DeltaGraph::new(PartitionedGraph::build(Arc::new(g), 1 << 10));
        let multiplicity = |dg: &DeltaGraph| dg.table().max_multiplicity().unwrap();
        assert_eq!(multiplicity(&dg), 1);
        dg.buffer(EdgeUpdate::insert(1, 0)).unwrap();
        seal(&mut dg);
        assert_eq!(neighbors(&dg, 1), &[0, 2, 5]);
        dg.buffer(EdgeUpdate::insert(1, 2)).unwrap();
        dg.buffer(EdgeUpdate::insert(1, 2)).unwrap();
        seal(&mut dg);
        assert_eq!(neighbors(&dg, 1), &[0, 2, 2, 2, 5]);
        assert_eq!(multiplicity(&dg), 3);
        dg.buffer(EdgeUpdate::delete(1, 2)).unwrap();
        seal(&mut dg);
        assert_eq!(multiplicity(&dg), 2);
    }

    #[test]
    fn temporal_inserts_default_to_sealing_epoch() {
        let g = Csr::with_timestamps(vec![0, 1, 1], vec![1], None, Some(vec![7])).unwrap();
        let mut dg = DeltaGraph::new(PartitionedGraph::build(Arc::new(g), 1 << 10));
        seal(&mut dg); // epoch 1
        dg.buffer(EdgeUpdate::insert(1, 0)).unwrap();
        dg.buffer(EdgeUpdate::insert_at(0, 1, 99)).unwrap();
        let seal = seal(&mut dg); // epoch 2
        assert_eq!(seal.epoch, 2);
        let rows = dg.table().rows(0).unwrap();
        assert_eq!(rows.neighbor_timestamps(1), Some(&[2u32][..]));
        assert_eq!(rows.neighbor_timestamps(0), Some(&[7u32, 99][..]));
    }

    /// Over an out-of-core store a clean entry has no rows to lend: a seal
    /// names it in `bases_to_fetch`, rebuilds it from a handed-in block or
    /// from the file, and a failed read changes nothing.
    #[test]
    fn out_of_core_seals_read_the_file_or_a_fetched_block() {
        use crate::oocore::{write_oocore, OocGraph};
        let g = Arc::new(Csr::new(vec![0, 2, 3, 3, 6], vec![1, 2, 0, 0, 1, 2], None).unwrap());
        let pg = PartitionedGraph::build(g, 30);
        let path = std::env::temp_dir().join(format!("lt_delta_ooc_{}", std::process::id()));
        write_oocore(&pg, &path).unwrap();
        let ooc = Arc::new(OocGraph::open(&path).unwrap());
        let mut dg = DeltaGraph::new(PartitionedGraph::from_ooc(ooc));
        assert!((0..3).all(|p| dg.table().rows(p).is_none()));
        dg.buffer(EdgeUpdate::insert(1, 3)).unwrap();
        dg.buffer(EdgeUpdate::delete(0, 2)).unwrap();
        assert_eq!(dg.bases_to_fetch(), vec![0, 1]);
        // Partition 0 comes fetched, partition 1 from the file.
        let fetched = [Arc::new(pg.extract(0))];
        let s = dg.seal_epoch(&fetched).unwrap();
        assert_eq!(s.dirty_partitions, vec![0, 1]);
        assert!(dg.table().rows(2).is_none() && dg.bases_to_fetch().is_empty());
        assert_eq!(dg.table().rows(1).unwrap().neighbors(1), &[0, 3]);
        assert_eq!(dg.to_csr().unwrap().offsets(), &[0, 1, 3, 3, 6]);
        // Empty the file: a seal that must read partition 2 fails after
        // rebuilding partition 1, and keeps its buffer, epoch and table.
        let file = std::fs::OpenOptions::new().write(true).open(&path);
        file.unwrap().set_len(0).unwrap();
        dg.buffer(EdgeUpdate::insert(1, 2)).unwrap();
        dg.buffer(EdgeUpdate::insert(3, 3)).unwrap();
        assert!(matches!(dg.seal_epoch(&[]), Err(GraphError::Io(_))));
        assert_eq!((dg.epoch(), dg.pending()), (1, 2));
        assert_eq!(dg.table().rows(1).unwrap().neighbors(1), &[0, 3]);
        assert!(dg.table().rows(2).is_none());
        std::fs::remove_file(&path).ok();
    }
}
