//! Range-based graph partitioning (§III-B, Figure 5).
//!
//! Vertices `0..|V|` are divided into disjoint intervals by greedily
//! expanding each interval until adding the next vertex would exceed the
//! byte budget (the graph-pool block size). Benefits the paper claims, all
//! preserved here: transmission of a partition is one contiguous copy, the
//! partition size approximately fits any budget, and the partition of a
//! vertex is found by binary search.
//!
//! A [`PartitionedGraph`] is the table plus the store its adjacency is
//! read from. An evolving engine moves the adjacency into a
//! [`crate::delta::DeltaGraph`]'s block table on its first mutation and
//! [releases the store](PartitionedGraph::release_store): from then on the
//! table answers geometry and byte-size questions only:
//! [`PartitionedGraph::ram_csr`] is `None`, and [`PartitionedGraph::store`]
//! and [`PartitionedGraph::extract`] panic instead of serving epoch-0 rows.

use crate::oocore::{GraphStore, OocGraph};
use crate::{Csr, VertexId, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES};
use std::sync::Arc;

/// Identifier of a graph partition (index into the partition table).
pub type PartitionId = u32;

/// A graph plus its range partition table.
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
/// ```
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    /// Where adjacency lives: RAM CSR or the out-of-core compressed file.
    /// `None` once [`PartitionedGraph::release_store`] handed it over to an
    /// evolving graph's block table.
    store: Option<GraphStore>,
    /// `boundaries[p]..boundaries[p+1]` is partition `p`'s vertex interval.
    boundaries: Vec<VertexId>,
    /// CSR bytes of each partition (what an explicit copy transfers).
    bytes: Vec<u64>,
    /// The budget used to build the table.
    block_bytes: u64,
}

/// A materialized partition: the contiguous data an explicit copy moves
/// into the GPU graph pool. Offsets are rebased so the partition is
/// self-contained.
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
        let mut cur_bytes = VERTEX_ENTRY_BYTES; // the leading offset entry
        let extra = Self::extra_edge_bytes(&csr);
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
        PartitionedGraph {
            store: Some(GraphStore::Ram(csr)),
            boundaries,
            bytes,
            block_bytes,
        }
    }

    /// Adopt an out-of-core compressed graph: the partition table
    /// (boundaries, per-partition bytes and budget) comes straight from the
    /// file header — no adjacency is read until [`PartitionedGraph::extract`]
    /// decodes a partition on demand.
    pub fn from_ooc(ooc: Arc<OocGraph>) -> Self {
        let boundaries = ooc.boundaries().to_vec();
        let bytes = (0..ooc.num_partitions())
            .map(|p| ooc.partition_bytes(p))
            .collect();
        let block_bytes = ooc.block_bytes();
        PartitionedGraph {
            store: Some(GraphStore::OutOfCore(ooc)),
            boundaries,
            bytes,
            block_bytes,
        }
    }

    /// Per-edge bytes beyond the target id: weights and timestamps.
    fn extra_edge_bytes(csr: &Csr) -> u64 {
        let mut b = 0;
        if csr.is_weighted() {
            b += 4;
        }
        if csr.is_temporal() {
            b += 4;
        }
        b
    }

    /// The interval boundary table (`boundaries[p]..boundaries[p+1]` is
    /// partition `p`). Frozen for the life of the table: an evolving graph
    /// changes partition sizes, never the vertex→partition map.
    #[inline]
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// The graph substrate.
    ///
    /// # Panics
    /// Panics after [`PartitionedGraph::release_store`]: the adjacency an
    /// evolving engine walks lives in its block table, and the epoch-0
    /// rows this table was built over must not be read in its place.
    #[inline]
    pub fn store(&self) -> &GraphStore {
        self.store
            .as_ref()
            .expect("graph store released: adjacency lives in the evolving block table")
    }

    /// The RAM CSR, when there is one to read: `None` for an out-of-core
    /// store and after [`PartitionedGraph::release_store`].
    #[inline]
    pub fn ram_csr(&self) -> Option<&Arc<Csr>> {
        self.store.as_ref().and_then(GraphStore::ram)
    }

    /// Drop this table's handle on the graph store. Called by an evolving
    /// engine once every partition has been copied into its
    /// [`crate::delta::DeltaGraph`]; a caller that also drops its own
    /// handle gets the epoch-0 graph's memory back.
    pub fn release_store(&mut self) {
        self.store = None;
    }

    /// Record partition `p`'s new transfer size after an epoch seal
    /// rebuilt its block ([`PartitionData::bytes`] of the new block).
    pub fn set_partition_bytes(&mut self, p: PartitionId, bytes: u64) {
        self.bytes[p as usize] = bytes;
    }

    /// `|V|` of the full graph (every substrate): the boundary table ends
    /// there.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        *self
            .boundaries
            .last()
            .expect("a table has at least one partition") as u64
    }

    /// Number of partitions `P`.
    #[inline]
    pub fn num_partitions(&self) -> u32 {
        (self.boundaries.len() - 1) as u32
    }

    /// The byte budget the table was built with.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Partition containing vertex `v`, by binary search over the interval
    /// boundaries (the paper's lookup method).
    ///
    /// # Panics
    /// Panics if `v >= |V|`.
    #[inline]
    pub fn partition_of(&self, v: VertexId) -> PartitionId {
        assert!((v as u64) < self.num_vertices(), "vertex {v} out of range");
        // partition_point returns the count of boundaries <= v; boundaries[0]=0
        // so the result is >= 1.
        (self.boundaries.partition_point(|&b| b <= v) - 1) as PartitionId
    }

    /// Vertex interval of partition `p`.
    #[inline]
    pub fn vertex_range(&self, p: PartitionId) -> std::ops::Range<VertexId> {
        self.boundaries[p as usize]..self.boundaries[p as usize + 1]
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

    /// Number of edges in partition `p`.
    pub fn num_edges_in(&self, p: PartitionId) -> u64 {
        match self.store() {
            GraphStore::Ram(csr) => {
                let r = self.vertex_range(p);
                csr.offsets()[r.end as usize] - csr.offsets()[r.start as usize]
            }
            GraphStore::OutOfCore(ooc) => ooc.partition_edges(p),
        }
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

    /// Materialize partition `p` for transfer into a graph-pool block:
    /// contiguous slice copies for a RAM store, a full region decode for
    /// an out-of-core store (the engine's host decode cache wraps the
    /// latter with recycling and chunk-parallel decode).
    ///
    /// # Panics
    /// Panics if an out-of-core region fails to read or decode — an
    /// unreadable graph file is unrecoverable mid-run.
    pub fn extract(&self, p: PartitionId) -> PartitionData {
        match self.store() {
            GraphStore::Ram(csr) => {
                let r = self.vertex_range(p);
                let base = csr.offsets()[r.start as usize];
                let end = csr.offsets()[r.end as usize];
                let offsets: Vec<u64> = csr.offsets()[r.start as usize..=r.end as usize]
                    .iter()
                    .map(|&o| o - base)
                    .collect();
                let edges = csr.edges()[base as usize..end as usize].to_vec();
                let weights = csr
                    .weights()
                    .map(|w| w[base as usize..end as usize].to_vec());
                let timestamps = csr
                    .timestamps()
                    .map(|t| t[base as usize..end as usize].to_vec());
                PartitionData {
                    id: p,
                    v_start: r.start,
                    v_end: r.end,
                    offsets,
                    edges,
                    weights,
                    timestamps,
                }
            }
            GraphStore::OutOfCore(ooc) => ooc
                .decode_partition(p)
                .unwrap_or_else(|e| panic!("out-of-core partition {p} unreadable: {e}")),
        }
    }
}

impl PartitionData {
    /// Whether global vertex `v` lives in this partition.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.v_start <= v && v < self.v_end
    }

    /// Degree of global vertex `v` (must be in this partition).
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        debug_assert!(self.contains(v));
        let i = (v - self.v_start) as usize;
        self.offsets[i + 1] - self.offsets[i]
    }

    /// Neighbors of global vertex `v` (must be in this partition).
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        debug_assert!(self.contains(v));
        let i = (v - self.v_start) as usize;
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Weights parallel to [`PartitionData::neighbors`].
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let i = (v - self.v_start) as usize;
        Some(&w[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// Timestamps parallel to [`PartitionData::neighbors`].
    #[inline]
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&[u32]> {
        let t = self.timestamps.as_ref()?;
        let i = (v - self.v_start) as usize;
        Some(&t[self.offsets[i] as usize..self.offsets[i + 1] as usize])
    }

    /// [`Csr::max_multiplicity`] over this partition's rows (one scan).
    pub fn max_multiplicity(&self) -> u32 {
        crate::csr::max_multiplicity(&self.offsets, &self.edges)
    }

    /// Transfer size of this partition in bytes.
    pub fn bytes(&self) -> u64 {
        self.offsets.len() as u64 * VERTEX_ENTRY_BYTES
            + self.edges.len() as u64 * EDGE_ENTRY_BYTES
            + self.weights.as_ref().map_or(0, |w| w.len() as u64 * 4)
            + self.timestamps.as_ref().map_or(0, |t| t.len() as u64 * 4)
    }

    /// Number of vertices in the partition.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.v_end - self.v_start) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, RmatParams};

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
            for v in data.v_start..data.v_end {
                assert_eq!(data.neighbors(v), g.neighbors(v));
                assert_eq!(data.degree(v), g.degree(v));
            }
        }
    }

    #[test]
    fn hub_vertex_gets_singleton_overflow_partition() {
        // One vertex with degree 1000, budget fits ~100 edges.
        let mut b = crate::GraphBuilder::new().drop_zero_degree(false);
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
