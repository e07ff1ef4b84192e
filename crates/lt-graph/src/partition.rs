//! Range-based graph partitioning (§III-B, Figure 5).
//!
//! Vertices `0..|V|` are divided into disjoint intervals by greedily
//! expanding each interval until adding the next vertex would exceed the
//! byte budget (the graph-pool block size). Benefits the paper claims, all
//! preserved here: transmission of a partition is one contiguous copy, the
//! partition size approximately fits any budget, and the partition of a
//! vertex is a cheap lookup. The paper finds it by binary search over the
//! boundaries; here a [`PartitionLookup`] reads it from a bucket table
//! over the frozen boundaries, one table read and one boundary compare
//! per vertex, because the reshuffle does it once for every walker that
//! leaves its partition.
//!
//! A [`PartitionedGraph`] is the engine's block table: the interval
//! boundaries plus one entry per partition. An entry is *clean* while its
//! rows are the base store's — a range of the RAM CSR, read in place, or a
//! region of the out-of-core file, decoded on demand — and *sealed* once an
//! epoch seal ([`crate::delta::DeltaGraph`]) rebuilt it into a
//! [`PartitionData`] block held in RAM. Building the table copies no
//! adjacency, and a sealed block is never written back to the file.
//! Readers get a partition's rows as one borrowed [`Rows`] whatever the
//! entry holds.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::oocore::{GraphStore, OocGraph};
use crate::{Csr, GraphError, VertexId, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Identifier of a graph partition (index into the partition table).
pub type PartitionId = u32;

/// A graph's block table: its store, its range partitioning and one entry
/// per partition.
///
/// ```
/// use std::sync::Arc;
/// use lt_graph::{PartitionedGraph, gen::{rmat, RmatParams}};
/// let g = Arc::new(rmat(RmatParams { scale: 10, edge_factor: 8, ..Default::default() }).csr);
/// let pg = PartitionedGraph::build(g.clone(), 8 << 10);
/// let v = 17;
/// let p = pg.partition_of(v);
/// assert!(pg.vertex_range(p).contains(&v));
/// assert!(pg.partition_bytes(p) <= 8 << 10);
/// assert_eq!(pg.rows(p).unwrap().neighbors(v), g.neighbors(v));
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    /// Where clean entries' rows live: RAM CSR or the out-of-core file.
    store: GraphStore,
    /// The interval boundaries and the vertex → partition map over them.
    lookup: PartitionLookup,
    /// CSR bytes of each partition's current rows (what an explicit copy
    /// transfers).
    bytes: Vec<u64>,
    /// The budget used to build the table.
    block_bytes: u64,
    /// Per partition, the block a seal rebuilt it into; `None` while clean.
    sealed: Vec<Option<Arc<PartitionData>>>,
    /// Each entry's [`Csr::max_multiplicity`], computed on first use and
    /// forgotten when a seal replaces the entry.
    multiplicity: Vec<OnceLock<u32>>,
}

/// Vertex → partition over frozen interval boundaries, in one table read
/// and one boundary compare.
///
/// Bucket `i` holds the partition of vertex `i << shift`, where
/// `1 << shift` is the largest power of two not above the narrowest
/// partition's vertex width. A bucket then spans at most one boundary, so
/// the partition of `v` is its bucket's entry or the next one. When a
/// narrow partition (a hub's singleton) would need more than 64 Ki
/// buckets, the buckets widen to that cap and the forward step walks the
/// extra boundaries. The table is
/// built on first use, in O(buckets + P): 5,437 buckets (21 KB) in about
/// 10 µs for a 173,956-vertex graph of 49 partitions whose narrowest is
/// 35 vertices wide.
///
/// ```
/// use lt_graph::partition::PartitionLookup;
/// let lookup = PartitionLookup::new(vec![0, 4, 5, 12]);
/// let parts: Vec<u32> = (0..12).map(|v| lookup.get(v)).collect();
/// assert_eq!(parts, [0, 0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 2]);
/// ```
#[derive(Clone, Debug)]
pub struct PartitionLookup {
    /// `boundaries[p]..boundaries[p+1]` is partition `p`'s vertex interval.
    boundaries: Vec<VertexId>,
    buckets: OnceLock<Buckets>,
}

/// [`PartitionLookup`]'s table: `first[i]` is the partition of vertex
/// `i << shift`.
#[derive(Clone, Debug)]
struct Buckets {
    shift: u32,
    first: Vec<PartitionId>,
}

impl PartitionLookup {
    /// Most buckets a table holds (256 KB of entries).
    const MAX_BUCKETS: u64 = 1 << 16;

    /// The lookup over `boundaries`: ascending, starting at 0 and ending
    /// at `|V|`, with `boundaries[p]..boundaries[p+1]` partition `p`'s
    /// vertex interval.
    pub fn new(boundaries: Vec<VertexId>) -> Self {
        debug_assert!(boundaries.first() == Some(&0));
        debug_assert!(boundaries.windows(2).all(|w| w[0] <= w[1]));
        PartitionLookup {
            boundaries,
            buckets: OnceLock::new(),
        }
    }

    /// The interval boundaries.
    #[inline]
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        (self.boundaries.len() - 1) as u32
    }

    /// The partition containing vertex `v`: the last `p` with
    /// `boundaries[p] <= v`.
    ///
    /// # Panics
    /// Panics if `v >= |V|`: past the last boundary the forward step runs
    /// off the boundary table, and past the last bucket the read runs off
    /// the bucket table, so no such vertex is ever filed into the last
    /// partition.
    #[inline]
    pub fn get(&self, v: VertexId) -> PartitionId {
        let t = self
            .buckets
            .get_or_init(|| Buckets::build(&self.boundaries));
        let mut p = t.first[(v >> t.shift) as usize] as usize;
        while v >= self.boundaries[p + 1] {
            p += 1;
        }
        p as PartitionId
    }
}

impl Buckets {
    fn build(boundaries: &[VertexId]) -> Self {
        let nv = u64::from(boundaries[boundaries.len() - 1]);
        let narrowest = boundaries
            .windows(2)
            .map(|w| w[1] - w[0])
            .min()
            .unwrap_or(1);
        let mut shift = narrowest.max(1).ilog2();
        while nv.div_ceil(1 << shift) > PartitionLookup::MAX_BUCKETS {
            shift += 1;
        }
        let mut p = 0;
        let first = (0..nv.div_ceil(1 << shift))
            .map(|i| {
                let v = i << shift;
                while u64::from(boundaries[p + 1]) <= v {
                    p += 1;
                }
                p as PartitionId
            })
            .collect();
        Buckets { shift, first }
    }
}

/// A materialized partition: the contiguous data an explicit copy moves
/// into the GPU graph pool, and the form a sealed entry takes. Offsets are
/// rebased so the partition is self-contained.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionData {
    /// Which partition this is.
    pub id: PartitionId,
    /// First vertex (inclusive).
    pub v_start: VertexId,
    /// Last vertex (exclusive).
    pub v_end: VertexId,
    /// Rebased offsets, length `v_end - v_start + 1`, `offsets[0] == 0`.
    pub offsets: Vec<u64>,
    /// Edge targets (global vertex ids).
    pub edges: Vec<VertexId>,
    /// Optional edge weights parallel to `edges`.
    pub weights: Option<Vec<f32>>,
    /// Optional edge timestamps parallel to `edges` (temporal graphs).
    pub timestamps: Option<Vec<u32>>,
}

/// One partition's rows, borrowed in place: a range of a CSR or a whole
/// block. `offsets[i]..offsets[i + 1]` are row `v_start + i`'s entries of
/// the edge columns, which a CSR range shares with the whole graph, so
/// nothing is rebased or copied.
#[derive(Clone, Copy, Debug)]
pub struct Rows<'a> {
    /// First vertex (inclusive).
    pub v_start: VertexId,
    /// Last vertex (exclusive).
    pub v_end: VertexId,
    pub(crate) offsets: &'a [u64],
    pub(crate) edges: &'a [VertexId],
    pub(crate) weights: Option<&'a [f32]>,
    pub(crate) timestamps: Option<&'a [u32]>,
}

/// Where an entry's rows are: lent by the table, or still in the file.
enum Entry<'a> {
    Rows(Rows<'a>),
    File(&'a OocGraph),
}

impl PartitionedGraph {
    /// Partition `csr` into ranges of at most `block_bytes` CSR bytes.
    ///
    /// A vertex whose own adjacency list exceeds the budget gets a singleton
    /// partition that overflows it — the paper hits this with Yahoo's hub
    /// vertex and points to vertex splitting as future work; we surface such
    /// partitions via [`PartitionedGraph::oversized_partitions`].
    ///
    /// # Panics
    /// Panics if `block_bytes` is too small to hold even an empty partition
    /// header (16 bytes).
    pub fn build(csr: Arc<Csr>, block_bytes: u64) -> Self {
        assert!(
            block_bytes > 2 * VERTEX_ENTRY_BYTES,
            "block size {block_bytes} cannot hold a partition header"
        );
        let nv = csr.num_vertices() as usize;
        let mut boundaries = vec![0 as VertexId];
        let mut bytes = Vec::new();
        // Per-edge bytes beyond the target id: weights and timestamps.
        let extra = 4 * u64::from(csr.is_weighted()) + 4 * u64::from(csr.is_temporal());
        let mut cur_bytes = VERTEX_ENTRY_BYTES; // the leading offset entry
        let mut cur_start = 0usize;
        for v in 0..nv {
            let deg = csr.degree(v as VertexId);
            let add = VERTEX_ENTRY_BYTES + deg * (EDGE_ENTRY_BYTES + extra);
            if cur_bytes + add > block_bytes && v > cur_start {
                boundaries.push(v as VertexId);
                bytes.push(cur_bytes);
                cur_bytes = VERTEX_ENTRY_BYTES;
                cur_start = v;
            }
            cur_bytes += add;
        }
        boundaries.push(nv as VertexId);
        bytes.push(cur_bytes);
        Self::with_store(GraphStore::Ram(csr), boundaries, bytes, block_bytes)
    }

    /// Adopt an out-of-core compressed graph: the partition table
    /// (boundaries, per-partition bytes and budget) comes straight from the
    /// file header — no adjacency is read until a partition is decoded.
    pub fn from_ooc(ooc: Arc<OocGraph>) -> Self {
        let boundaries = ooc.boundaries().to_vec();
        let bytes = (0..ooc.num_partitions())
            .map(|p| ooc.partition_bytes(p))
            .collect();
        let block_bytes = ooc.block_bytes();
        Self::with_store(GraphStore::OutOfCore(ooc), boundaries, bytes, block_bytes)
    }

    /// Every entry clean.
    fn with_store(
        store: GraphStore,
        boundaries: Vec<VertexId>,
        bytes: Vec<u64>,
        block_bytes: u64,
    ) -> Self {
        let np = bytes.len();
        PartitionedGraph {
            store,
            lookup: PartitionLookup::new(boundaries),
            bytes,
            block_bytes,
            sealed: vec![None; np],
            multiplicity: vec![OnceLock::new(); np],
        }
    }

    /// The interval boundary table (`boundaries[p]..boundaries[p+1]` is
    /// partition `p`). Frozen for the life of the table: an evolving graph
    /// changes partition sizes, never the vertex→partition map.
    #[inline]
    pub fn boundaries(&self) -> &[VertexId] {
        self.lookup.boundaries()
    }

    /// The vertex → partition map over [`PartitionedGraph::boundaries`],
    /// for a caller that looks up many vertices.
    #[inline]
    pub fn lookup(&self) -> &PartitionLookup {
        &self.lookup
    }

    /// The base store clean entries are read from.
    #[inline]
    pub fn store(&self) -> &GraphStore {
        &self.store
    }

    /// `|V|` of the full graph (every substrate): the boundary table ends
    /// there, after at least one partition.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        let b = self.boundaries();
        b[b.len() - 1] as u64
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        self.lookup.num_partitions()
    }

    /// The byte budget the table was built with.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Partition containing vertex `v`, read from the bucket table
    /// ([`PartitionLookup`]).
    ///
    /// # Panics
    /// Panics if `v >= |V|`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        assert!((v as u64) < self.num_vertices(), "vertex {v} out of range");
        self.lookup.get(v)
    }

    /// Vertex interval of partition `p`.
    #[inline]
    pub fn vertex_range(&self, p: PartitionId) -> Range<VertexId> {
        let b = self.boundaries();
        b[p as usize]..b[p as usize + 1]
    }

    /// Number of vertices in partition `p`.
    #[inline]
    pub fn num_vertices_in(&self, p: PartitionId) -> u64 {
        let r = self.vertex_range(p);
        (r.end - r.start) as u64
    }

    /// CSR bytes of partition `p` — the explicit-copy transfer size `S_p`.
    #[inline]
    pub fn partition_bytes(&self, p: PartitionId) -> u64 {
        self.bytes[p as usize]
    }

    /// Ids of partitions that exceed the block budget (singleton hub
    /// partitions, e.g. Yahoo's).
    pub fn oversized_partitions(&self) -> Vec<PartitionId> {
        self.bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > self.block_bytes)
            .map(|(p, _)| p as PartitionId)
            .collect()
    }

    fn entry(&self, p: PartitionId) -> Entry<'_> {
        match (&self.sealed[p as usize], &self.store) {
            (Some(block), _) => Entry::Rows(block.rows()),
            (None, GraphStore::Ram(csr)) => Entry::Rows(Rows::csr(csr, self.vertex_range(p))),
            (None, GraphStore::OutOfCore(ooc)) => Entry::File(ooc),
        }
    }

    /// Partition `p`'s current rows, in place: its sealed block, or a RAM
    /// store's CSR range. `None` for a clean partition of an out-of-core
    /// store, whose rows exist only as a decoded block.
    #[inline]
    pub fn rows(&self, p: PartitionId) -> Option<Rows<'_>> {
        match self.entry(p) {
            Entry::Rows(rows) => Some(rows),
            Entry::File(_) => None,
        }
    }

    /// The block a seal rebuilt partition `p` into; `None` while clean.
    pub fn sealed(&self, p: PartitionId) -> Option<&Arc<PartitionData>> {
        self.sealed[p as usize].as_ref()
    }

    /// Install a seal's rebuilt block as its partition's entry, with its
    /// transfer size.
    pub(crate) fn seal(&mut self, block: PartitionData) {
        let p = block.id as usize;
        self.bytes[p] = block.bytes();
        self.multiplicity[p] = OnceLock::new();
        self.sealed[p] = Some(Arc::new(block));
    }

    /// Number of edges in partition `p`.
    pub fn num_edges_in(&self, p: PartitionId) -> u64 {
        match self.entry(p) {
            Entry::Rows(rows) => rows.edge_span().len() as u64,
            Entry::File(ooc) => ooc.partition_edges(p),
        }
    }

    /// Partition `p`'s current rows as a fresh block: slice copies of
    /// rows the table lends, a serial region decode for a clean
    /// out-of-core partition (the engine's host decode cache wraps the
    /// latter with chunk-parallel decode). A file that cannot be read or
    /// decoded fails with the read's [`GraphError`].
    pub fn read_block(&self, p: PartitionId) -> Result<PartitionData, GraphError> {
        match self.entry(p) {
            Entry::Rows(rows) => Ok(rows.to_block(p)),
            Entry::File(ooc) => ooc.decode_partition(p),
        }
    }

    /// [`PartitionedGraph::read_block`] for a caller that cannot handle a
    /// failed read, such as a copy out of a RAM store, which never fails.
    ///
    /// # Panics
    /// Panics if an out-of-core region fails to read or decode.
    pub fn extract(&self, p: PartitionId) -> PartitionData {
        self.read_block(p)
            .unwrap_or_else(|e| panic!("out-of-core partition {p} unreadable: {e}"))
    }

    /// [`Csr::max_multiplicity`] over every entry's current rows. Each
    /// entry is scanned once until a seal replaces it; a clean
    /// out-of-core entry is decoded for the scan straight from the file,
    /// outside any cache, so a first-order run never pays for it.
    pub fn max_multiplicity(&self) -> Result<u32, GraphError> {
        let mut best = 1;
        for (p, m) in self.multiplicity.iter().enumerate() {
            let m = match m.get() {
                Some(&m) => m,
                None => {
                    let scanned = match self.entry(p as PartitionId) {
                        Entry::Rows(rows) => rows.max_multiplicity(),
                        Entry::File(ooc) => ooc
                            .decode_partition(p as PartitionId)?
                            .rows()
                            .max_multiplicity(),
                    };
                    *m.get_or_init(|| scanned)
                }
            };
            best = best.max(m);
        }
        Ok(best)
    }
}

impl PartitionData {
    /// This block's rows.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            v_start: self.v_start,
            v_end: self.v_end,
            offsets: &self.offsets,
            edges: &self.edges,
            weights: self.weights.as_deref(),
            timestamps: self.timestamps.as_deref(),
        }
    }

    /// Transfer size of this partition in bytes.
    pub fn bytes(&self) -> u64 {
        self.offsets.len() as u64 * VERTEX_ENTRY_BYTES
            + self.edges.len() as u64 * EDGE_ENTRY_BYTES
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
            + self.timestamps.as_ref().map_or(0, |t| t.len() as u64 * 4)
    }
}

impl<'a> Rows<'a> {
    /// The rows of `csr`'s vertices `range`, in place.
    pub fn csr(csr: &'a Csr, range: Range<VertexId>) -> Self {
        Rows {
            v_start: range.start,
            v_end: range.end,
            offsets: &csr.offsets()[range.start as usize..=range.end as usize],
            edges: csr.edges(),
            weights: csr.weights(),
            timestamps: csr.timestamps(),
        }
    }

    /// Whether global vertex `v` has a row here.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.v_start <= v && v < self.v_end
    }

    /// The edge-column entries of global vertex `v`'s row (`v` must be
    /// here): its positions in each of [`Rows::columns`].
    #[inline]
    pub fn span(&self, v: VertexId) -> Range<usize> {
        debug_assert!(self.contains(v));
        let i = (v - self.v_start) as usize;
        self.offsets[i] as usize..self.offsets[i + 1] as usize
    }

    /// Neighbors of global vertex `v` (must be here).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &'a [VertexId] {
        &self.edges[self.span(v)]
    }

    /// Weights parallel to [`Rows::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&'a [f32]> {
        Some(&self.weights?[self.span(v)])
    }

    /// Timestamps parallel to [`Rows::neighbors`].
    #[inline]
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&'a [u32]> {
        Some(&self.timestamps?[self.span(v)])
    }

    /// The edge columns these rows index: targets, and weights and
    /// timestamps when the graph has them. [`Rows::span`] says where a
    /// row lies in each; a CSR range shares them with the whole graph.
    #[inline]
    pub fn columns(&self) -> (&'a [VertexId], Option<&'a [f32]>, Option<&'a [u32]>) {
        (self.edges, self.weights, self.timestamps)
    }

    /// The edge-column entries of every row here.
    #[inline]
    pub(crate) fn edge_span(&self) -> Range<usize> {
        self.offsets[0] as usize..self.offsets[self.offsets.len() - 1] as usize
    }

    /// [`Csr::max_multiplicity`] over these rows (one scan).
    pub fn max_multiplicity(&self) -> u32 {
        crate::csr::max_multiplicity(self.offsets, self.edges)
    }

    /// Copy these rows into a self-contained block for partition `id`.
    pub fn to_block(&self, id: PartitionId) -> PartitionData {
        let span = self.edge_span();
        let base = span.start as u64;
        PartitionData {
            id,
            v_start: self.v_start,
            v_end: self.v_end,
            offsets: self.offsets.iter().map(|&o| o - base).collect(),
            edges: self.edges[span.clone()].to_vec(),
            weights: self.weights.map(|w| w[span.clone()].to_vec()),
            timestamps: self.timestamps.map(|t| t[span].to_vec()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatParams};
    use proptest::prelude::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn graph() -> Arc<Csr> {
        Arc::new(
            rmat(RmatParams {
                scale: 11,
                edge_factor: 8,
                ..RmatParams::default()
            })
            .csr,
        )
    }

    #[test]
    fn partitions_cover_and_are_disjoint() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        assert!(pg.num_partitions() > 1);
        let mut next = 0;
        for p in 0..pg.num_partitions() {
            let r = pg.vertex_range(p);
            assert_eq!(r.start, next, "gap or overlap at partition {p}");
            assert!(r.end > r.start, "empty partition {p}");
            next = r.end;
        }
        assert_eq!(next as u64, g.num_vertices());
    }

    #[test]
    fn partition_of_matches_ranges() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        for v in 0..g.num_vertices() as u32 {
            let p = pg.partition_of(v);
            let r = pg.vertex_range(p);
            assert!(r.contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn partition_of_rejects_num_vertices() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        pg.partition_of(g.num_vertices() as VertexId);
    }

    #[test]
    fn lookup_caps_the_table_behind_a_singleton() {
        // One width-1 partition would ask for a bucket per vertex; the cap
        // widens the buckets and the forward step walks the boundaries.
        let nv = 3 * PartitionLookup::MAX_BUCKETS as u32 + 5;
        let boundaries = vec![0, 1, 2, 70_000, 70_001, nv - 1, nv];
        let lookup = PartitionLookup::new(boundaries.clone());
        for v in (0..nv)
            .step_by(97)
            .chain([0, 1, 2, 69_999, 70_000, 70_001, nv - 2, nv - 1])
        {
            let want = boundaries.partition_point(|&b| b <= v) - 1;
            assert_eq!(lookup.get(v) as usize, want, "vertex {v}");
        }
        let t = lookup.buckets.get().expect("built by the first get");
        assert!(t.first.len() as u64 <= PartitionLookup::MAX_BUCKETS);
        assert_eq!(t.shift, 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For arbitrary boundary tables (width-1 singletons, one
        /// partition, `|V|` off the bucket grid), the table lookup of every
        /// vertex, the last included, is the binary search's answer, and
        /// every vertex from `|V|` to the end of the last bucket panics
        /// instead of landing in the last partition.
        #[test]
        fn lookup_equals_binary_search(
            widths in prop::collection::vec(
                prop_oneof![Just(1u32), 1u32..8, 1u32..300],
                1..=48,
            ),
        ) {
            let mut boundaries = vec![0u32];
            for w in &widths {
                boundaries.push(boundaries[boundaries.len() - 1] + w);
            }
            let nv = boundaries[boundaries.len() - 1];
            let lookup = PartitionLookup::new(boundaries.clone());
            for v in 0..nv {
                let want = boundaries.partition_point(|&b| b <= v) - 1;
                prop_assert_eq!(lookup.get(v) as usize, want, "vertex {}", v);
            }
            let t = lookup.buckets.get().expect("built by the first get");
            let end = (t.first.len() as u32) << t.shift;
            prop_assert!(end >= nv && end - nv < 1 << t.shift);
            for v in nv..=end {
                let filed = catch_unwind(AssertUnwindSafe(|| lookup.get(v)));
                prop_assert!(filed.is_err(), "vertex {} past |V| = {} filed into {:?}", v, nv, filed);
            }
        }
    }

    #[test]
    fn bytes_respect_budget() {
        let g = graph();
        let budget = 8 << 10;
        let pg = PartitionedGraph::build(g.clone(), budget);
        for p in 0..pg.num_partitions() {
            let b = pg.partition_bytes(p);
            if pg.num_vertices_in(p) > 1 {
                assert!(b <= budget, "partition {p} = {b} bytes > {budget}");
            }
            // Materialized size agrees with the table.
            assert_eq!(pg.extract(p).bytes(), b);
        }
    }

    #[test]
    fn extract_preserves_neighbors() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), 8 << 10);
        for p in 0..pg.num_partitions().min(8) {
            let data = pg.extract(p);
            let lent = pg.rows(p).expect("a RAM store lends every partition");
            for v in data.v_start..data.v_end {
                assert_eq!(data.rows().neighbors(v), g.neighbors(v));
                assert_eq!(lent.neighbors(v), g.neighbors(v));
            }
        }
    }

    #[test]
    fn hub_vertex_gets_singleton_overflow_partition() {
        // One vertex with degree 1000, budget fits ~100 edges.
        let mut b = crate::GraphBuilder::new();
        for v in 1..=1000u32 {
            b = b.add_edge(0, v);
        }
        let g = Arc::new(b.build().unwrap().csr);
        let pg = PartitionedGraph::build(g, 512);
        let over = pg.oversized_partitions();
        assert_eq!(over, vec![0]);
        assert_eq!(pg.num_vertices_in(0), 1);
        assert!(pg.partition_bytes(0) > 512);
    }

    #[test]
    fn whole_graph_in_one_partition_with_huge_budget() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), u64::MAX);
        assert_eq!(pg.num_partitions(), 1);
        assert_eq!(pg.partition_bytes(0), g.csr_bytes());
    }

    #[test]
    fn edge_counts_sum_to_total() {
        let g = graph();
        let pg = PartitionedGraph::build(g.clone(), 4 << 10);
        let total: u64 = (0..pg.num_partitions()).map(|p| pg.num_edges_in(p)).sum();
        assert_eq!(total, g.num_edges());
    }
}
