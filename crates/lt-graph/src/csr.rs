//! Compressed sparse row graph storage.
//!
//! This is the format Figure 5 of the paper describes: a vertex (offset)
//! array indexing into a flat edge array. Neighbor lookup is two array
//! accesses. Optionally a parallel weight array supports weighted random
//! walks (§II-A), and a parallel timestamp array
//! supports temporal walks (edges are traversable only inside a sliding
//! window relative to the walker's current edge time — DESIGN.md §15).
//!
//! Each column is reference-counted, so a graph derived from another by
//! adding a column (weights or timestamps, [`crate::gen`]) shares the
//! parent's offsets and edges instead of copying and re-checking them.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::{GraphError, VertexId, EDGE_ENTRY_BYTES, VERTEX_ENTRY_BYTES};
use std::sync::{Arc, OnceLock};

/// The most copies of one target any row of `offsets`/`edges` holds, at
/// least 1. In a vertex-sorted row copies of a target are adjacent, so
/// the longest run counts them; a row in time order is counted on a
/// sorted copy, since there copies of a target need not be adjacent.
pub(crate) fn max_multiplicity(offsets: &[u64], edges: &[VertexId]) -> u32 {
    let longest_run = |row: &[VertexId]| {
        row.chunk_by(|a, b| a == b)
            .map(|run| run.len() as u32)
            .fold(1, u32::max)
    };
    let mut sorted = Vec::new();
    let mut best = 1;
    for w in offsets.windows(2) {
        let row = &edges[w[0] as usize..w[1] as usize];
        best = best.max(if row.is_sorted() {
            longest_run(row)
        } else {
            sorted.clear();
            sorted.extend_from_slice(row);
            sorted.sort_unstable();
            longest_run(&sorted)
        });
    }
    best
}

/// Whether a timestamped row is in time order: `(timestamp, target)`
/// non-decreasing, the order every timestamped row is kept in.
pub(crate) fn in_time_order(edges: &[VertexId], stamps: &[u32]) -> bool {
    (edges.windows(2).zip(stamps.windows(2))).all(|(e, t)| (t[0], e[0]) <= (t[1], e[1]))
}

/// One row's output columns, parallel: targets, stamps and (on a
/// weighted graph) weights.
pub(crate) struct RowOut<'a> {
    pub(crate) edges: &'a mut [VertexId],
    pub(crate) stamps: &'a mut [u32],
    pub(crate) weights: Option<&'a mut [f32]>,
}

/// Scratch for putting timestamped rows in time order, reused row after
/// row.
#[derive(Default)]
pub(crate) struct RowSorter {
    counts: Vec<u32>,
    keys: Vec<(u64, u32)>,
}

impl RowSorter {
    /// Write one row — `edges`, `stamps` and `weights`, parallel — into
    /// `out` stably sorted by `(timestamp, target)`. Every stamp lies in
    /// `base..base + span`. A vertex-sorted row at least a quarter as
    /// long as `span` is counting-sorted over the stamps, which keeps its
    /// targets ascending within each stamp; any other row is sorted by
    /// key, its index breaking ties.
    pub(crate) fn sort_into(
        &mut self,
        edges: &[VertexId],
        stamps: &[u32],
        weights: Option<&[f32]>,
        base: u32,
        span: u64,
        mut out: RowOut<'_>,
    ) {
        if span <= 4 * edges.len() as u64 {
            self.counts.clear();
            self.counts.resize(span as usize, 0);
            for &t in stamps {
                self.counts[(t - base) as usize] += 1;
            }
            let mut at = 0;
            for c in &mut self.counts {
                (*c, at) = (at, at + *c);
            }
            let (counts, oe, os) = (&mut self.counts, &mut *out.edges, &mut *out.stamps);
            let vertex_sorted = match (weights, out.weights.as_deref_mut()) {
                (Some(w), Some(ow)) => scatter(counts, base, edges, stamps, oe, os, |i, k| {
                    ow[k] = w[i];
                }),
                _ => scatter(counts, base, edges, stamps, oe, os, |_, _| {}),
            };
            if vertex_sorted {
                return;
            }
        }
        self.keys.clear();
        self.keys.extend(
            (edges.iter().zip(stamps).enumerate())
                .map(|(i, (&e, &t))| (u64::from(t) << 32 | u64::from(e), i as u32)),
        );
        self.keys.sort_unstable();
        for (k, &(_, i)) in self.keys.iter().enumerate() {
            let i = i as usize;
            out.edges[k] = edges[i];
            out.stamps[k] = stamps[i];
            if let (Some(w), Some(ow)) = (weights, out.weights.as_deref_mut()) {
                ow[k] = w[i];
            }
        }
    }
}

/// The counting sort's placement pass: entry `i` of the row goes to the
/// next free slot of its stamp, `counts` holding each stamp's next slot.
/// `also(i, k)` moves any further column. Returns whether the row's
/// targets were ascending, the condition under which the result is in
/// time order.
#[inline]
fn scatter(
    counts: &mut [u32],
    base: u32,
    edges: &[VertexId],
    stamps: &[u32],
    out_edges: &mut [VertexId],
    out_stamps: &mut [u32],
    mut also: impl FnMut(usize, usize),
) -> bool {
    let (mut prev, mut sorted) = (0, true);
    for (i, (&e, &t)) in edges.iter().zip(stamps).enumerate() {
        let slot = &mut counts[(t - base) as usize];
        let k = *slot as usize;
        *slot += 1;
        out_edges[k] = e;
        out_stamps[k] = t;
        also(i, k);
        sorted &= prev <= e;
        prev = e;
    }
    sorted
}

/// Put every row of a timestamped graph in time order in place, moving
/// its targets and weights with its stamps. A row already in order is
/// only read.
fn sort_rows_in_time_order(
    offsets: &[u64],
    edges: &mut [VertexId],
    mut weights: Option<&mut [f32]>,
    stamps: &mut [u32],
) {
    let mut sorter = RowSorter::default();
    let (mut row_edges, mut row_stamps, mut row_weights) = (Vec::new(), Vec::new(), Vec::new());
    for w in offsets.windows(2) {
        let r = w[0] as usize..w[1] as usize;
        if in_time_order(&edges[r.clone()], &stamps[r.clone()]) {
            continue;
        }
        row_edges.clear();
        row_edges.extend_from_slice(&edges[r.clone()]);
        row_stamps.clear();
        row_stamps.extend_from_slice(&stamps[r.clone()]);
        let row_weights = weights.as_deref().map(|ws| {
            row_weights.clear();
            row_weights.extend_from_slice(&ws[r.clone()]);
            &row_weights[..]
        });
        let lo = row_stamps.iter().fold(u32::MAX, |m, &t| m.min(t));
        let hi = row_stamps.iter().fold(0, |m, &t| m.max(t));
        let out = RowOut {
            edges: &mut edges[r.clone()],
            stamps: &mut stamps[r.clone()],
            weights: weights.as_deref_mut().map(|ws| &mut ws[r]),
        };
        let span = u64::from(hi - lo) + 1;
        sorter.sort_into(&row_edges, &row_stamps, row_weights, lo, span, out);
    }
}

/// The one rule for edge weights, applied by every reader that admits
/// them ([`Csr::with_timestamps`], `Csr::with_weight_column`,
/// [`crate::io::read_binary`], [`crate::DeltaGraph::buffer`] and the
/// out-of-core decoder): each weight is finite and non-negative. A NaN,
/// negative or infinite weight would make a weighted walk's scan pick an
/// edge nobody asked for.
pub(crate) fn check_weights(weights: &[f32]) -> Result<(), GraphError> {
    match weights.iter().find(|w| !w.is_finite() || **w < 0.0) {
        Some(w) => Err(GraphError::Format(format!(
            "edge weight {w} is not finite and non-negative"
        ))),
        None => Ok(()),
    }
}

/// A parallel column of `len` entries must have one entry per edge.
fn check_column(name: &str, len: usize, edges: usize) -> Result<(), GraphError> {
    if len == edges {
        Ok(())
    } else {
        Err(GraphError::Format(format!(
            "{name} len {len} != edges len {edges}"
        )))
    }
}

/// An immutable graph in CSR form.
///
/// ```
/// use lt_graph::Csr;
/// // 0 -> {1, 2}, 1 -> {0}, 2 -> {}
/// let g = Csr::new(vec![0, 2, 3, 3], vec![1, 2, 0], None).unwrap();
/// assert_eq!(g.neighbors(0), &[1, 2]);
/// assert_eq!(g.degree(2), 0);
/// ```
///
/// Invariants (checked by [`Csr::new`] and exercised by property tests):
/// - `offsets.len() == num_vertices + 1`
/// - `offsets` is non-decreasing and `offsets[0] == 0`
/// - `offsets[num_vertices] == edges.len()`
/// - every edge target is `< num_vertices`
/// - if present, `weights.len() == edges.len()` and all weights are finite
///   and non-negative
/// - if present, `timestamps.len() == edges.len()`
///
/// Row order depends on the graph's flavor:
/// - a graph without timestamps keeps its rows as given; the builder, the
///   generators and evolving-graph seals all keep them vertex-sorted;
/// - a timestamped graph keeps every row in *time order*, stably sorted
///   by `(timestamp, target)`: [`Csr::with_timestamps`] sorts, the
///   timestamp generator writes rows already sorted, seals insert in
///   order, and the out-of-core decoder refuses a row out of order. A
///   temporal walk finds its window by searching the row's stamps.
///
/// A clone shares every column: a `Csr` is immutable, so sharing is
/// never observable except as memory not spent.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Arc<Vec<u64>>,
    edges: Arc<Vec<VertexId>>,
    weights: Option<Arc<Vec<f32>>>,
    timestamps: Option<Arc<Vec<u32>>>,
    /// [`Csr::max_multiplicity`], computed on first use.
    multiplicity: OnceLock<u32>,
}

impl Csr {
    /// Build a CSR from raw parts, validating all structural invariants.
    pub fn new(
        offsets: Vec<u64>,
        edges: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Result<Self, GraphError> {
        Csr::with_timestamps(offsets, edges, weights, None)
    }

    /// Build a temporal CSR: like [`Csr::new`] but with a per-edge
    /// timestamp array parallel to `edges`. Each row is then put in time
    /// order in place — stably sorted by `(timestamp, target)`, weights
    /// moving with their edges — so a row given in any order is accepted.
    pub fn with_timestamps(
        offsets: Vec<u64>,
        mut edges: Vec<VertexId>,
        mut weights: Option<Vec<f32>>,
        mut timestamps: Option<Vec<u32>>,
    ) -> Result<Self, GraphError> {
        let (Some(&first), Some(&last)) = (offsets.first(), offsets.last()) else {
            return Err(GraphError::Format("offsets array must be non-empty".into()));
        };
        if first != 0 {
            return Err(GraphError::Format("offsets[0] must be 0".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("offsets must be non-decreasing".into()));
        }
        if last != edges.len() as u64 {
            return Err(GraphError::Format(format!(
                "last offset {last} != edge count {}",
                edges.len()
            )));
        }
        let nv = (offsets.len() - 1) as u64;
        if let Some(&bad) = edges.iter().find(|&&t| (t as u64) >= nv) {
            return Err(GraphError::VertexOutOfRange {
                vertex: bad as u64,
                num_vertices: nv,
            });
        }
        if let Some(w) = &weights {
            check_column("weights", w.len(), edges.len())?;
            check_weights(w)?;
        }
        if let Some(t) = &mut timestamps {
            check_column("timestamps", t.len(), edges.len())?;
            sort_rows_in_time_order(&offsets, &mut edges, weights.as_deref_mut(), t);
        }
        let mut csr = Csr::from_checked(offsets, edges, weights);
        csr.timestamps = timestamps.map(Arc::new);
        Ok(csr)
    }

    /// A CSR from columns its caller has already checked against every
    /// invariant above: [`crate::io::read_binary`] checks each piece of a
    /// file as it decodes it, so a second pass here would only re-read
    /// memory.
    pub(crate) fn from_checked(
        offsets: Vec<u64>,
        edges: Vec<VertexId>,
        weights: Option<Vec<f32>>,
    ) -> Csr {
        Csr {
            offsets: Arc::new(offsets),
            edges: Arc::new(edges),
            weights: weights.map(Arc::new),
            timestamps: None,
            multiplicity: OnceLock::new(),
        }
    }

    /// This graph's rows (and timestamps, if any) with `weights` as their
    /// weights. The offsets and edges are shared, not copied, and only
    /// the new column is checked.
    pub(crate) fn with_weight_column(&self, weights: Vec<f32>) -> Result<Csr, GraphError> {
        check_column("weights", weights.len(), self.edges.len())?;
        check_weights(&weights)?;
        Ok(Csr {
            weights: Some(Arc::new(weights)),
            ..self.clone()
        })
    }

    /// This graph with every row replaced by a permutation of itself, in
    /// time order: `edges`, `weights` (present exactly when this graph's
    /// are) and `timestamps` are the permuted columns. The offsets are
    /// shared, and nothing is checked: a permutation within rows keeps
    /// every invariant but order, and its caller wrote the order.
    pub(crate) fn with_rows_in_time_order(
        &self,
        edges: Vec<VertexId>,
        weights: Option<Vec<f32>>,
        timestamps: Vec<u32>,
    ) -> Csr {
        debug_assert_eq!(edges.len(), self.edges.len());
        debug_assert_eq!(weights.is_some(), self.weights.is_some());
        Csr {
            edges: Arc::new(edges),
            weights: weights.map(Arc::new),
            timestamps: Some(Arc::new(timestamps)),
            ..self.clone()
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Number of (directed) edges stored. An undirected graph stores each
    /// edge twice, matching the paper's Table II "CSR size" accounting.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of `v` as a slice of the edge array.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let v = v as usize;
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        &self.edges[lo..hi]
    }

    /// Edge weights of `v`, parallel to [`Csr::neighbors`]. `None` for
    /// unweighted graphs.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> Option<&[f32]> {
        let w = self.weights.as_ref()?;
        let v = v as usize;
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        Some(&w[lo..hi])
    }

    /// Edge timestamps of `v`, parallel to [`Csr::neighbors`]. `None`
    /// for non-temporal graphs.
    #[inline]
    pub fn neighbor_timestamps(&self, v: VertexId) -> Option<&[u32]> {
        let t = self.timestamps.as_ref()?;
        let v = v as usize;
        let lo = self.offsets[v] as usize;
        let hi = self.offsets[v + 1] as usize;
        Some(&t[lo..hi])
    }

    /// The `k`-th neighbor of `v`. Panics if `k >= degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: VertexId, k: u64) -> VertexId {
        let base = self.offsets[v as usize];
        self.edges[(base + k) as usize]
    }

    /// Raw offsets array (length `num_vertices + 1`).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw edge array.
    #[inline]
    pub fn edges(&self) -> &[VertexId] {
        &self.edges
    }

    /// Whether the graph carries edge weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Raw weight array parallel to [`Csr::edges`], if weighted.
    #[inline]
    pub fn weights(&self) -> Option<&[f32]> {
        self.weights.as_deref().map(Vec::as_slice)
    }

    /// Whether the graph carries edge timestamps.
    #[inline]
    pub fn is_temporal(&self) -> bool {
        self.timestamps.is_some()
    }

    /// Raw timestamp array parallel to [`Csr::edges`], if temporal.
    #[inline]
    pub fn timestamps(&self) -> Option<&[u32]> {
        self.timestamps.as_deref().map(Vec::as_slice)
    }

    /// Largest out-degree (`d_max` of Table II). Zero for an empty graph.
    pub fn max_degree(&self) -> u64 {
        (0..self.num_vertices() as usize)
            .map(|v| self.offsets[v + 1] - self.offsets[v])
            .max()
            .unwrap_or(0)
    }

    /// The most parallel edges one source has to one target, at least 1:
    /// 1 on every deduplicated graph. One scan of the edge array on the
    /// first call, cached after, so only the second-order walks that read
    /// it ever pay for it.
    pub fn max_multiplicity(&self) -> u32 {
        *self
            .multiplicity
            .get_or_init(|| max_multiplicity(&self.offsets, &self.edges))
    }

    /// Size in bytes of the CSR layout used for partition budgeting:
    /// `(|V|+1) * 8 + |E| * 4` (plus `|E| * 4` each for weights and
    /// timestamps).
    pub fn csr_bytes(&self) -> u64 {
        let mut b = self.offsets.len() as u64 * VERTEX_ENTRY_BYTES
            + self.edges.len() as u64 * EDGE_ENTRY_BYTES;
        if self.weights.is_some() {
            b += self.edges.len() as u64 * 4;
        }
        if self.timestamps.is_some() {
            b += self.edges.len() as u64 * 4;
        }
        b
    }

    /// Iterate over all edges as `(src, dst)` pairs in CSR order.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.num_vertices() as u32)
            .flat_map(move |v| self.neighbors(v).iter().map(move |&t| (v, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // 0 -> 1,2 ; 1 -> 0 ; 2 -> (none) ; 3 -> 0,1,2
        Csr::new(vec![0, 2, 3, 3, 6], vec![1, 2, 0, 0, 1, 2], None).unwrap()
    }

    #[test]
    fn neighbors_and_degrees() {
        let g = small();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[u32]);
        assert_eq!(g.neighbors(3), &[0, 1, 2]);
        assert_eq!(g.degree(3), 3);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn neighbor_by_index() {
        let g = small();
        assert_eq!(g.neighbor(3, 0), 0);
        assert_eq!(g.neighbor(3, 2), 2);
        assert_eq!(&g.offsets()[3..5], &[3, 6]);
    }

    #[test]
    fn csr_bytes_formula() {
        let g = small();
        assert_eq!(g.csr_bytes(), 5 * 8 + 6 * 4);
    }

    #[test]
    fn rejects_bad_offsets() {
        assert!(Csr::new(vec![], vec![], None).is_err());
        assert!(Csr::new(vec![1, 2], vec![0], None).is_err());
        assert!(Csr::new(vec![0, 2, 1], vec![0, 0], None).is_err());
        assert!(Csr::new(vec![0, 1], vec![0, 0], None).is_err());
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = Csr::new(vec![0, 1], vec![7], None).unwrap_err();
        match err {
            GraphError::VertexOutOfRange { vertex, .. } => assert_eq!(vertex, 7),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Csr::new(vec![0, 1, 2], vec![1, 0], Some(vec![1.0])).is_err());
        assert!(Csr::new(vec![0, 1, 2], vec![1, 0], Some(vec![1.0, f32::NAN])).is_err());
        assert!(Csr::new(vec![0, 1, 2], vec![1, 0], Some(vec![1.0, -2.0])).is_err());
        let ok = Csr::new(vec![0, 1, 2], vec![1, 0], Some(vec![1.0, 0.5])).unwrap();
        assert_eq!(ok.neighbor_weights(0), Some(&[1.0f32][..]));
        assert!(ok.is_weighted());
    }

    #[test]
    fn timestamps_parallel_to_edges() {
        let g = Csr::with_timestamps(
            vec![0, 2, 3, 3, 6],
            vec![1, 2, 0, 0, 1, 2],
            None,
            Some(vec![5, 9, 1, 3, 4, 8]),
        )
        .unwrap();
        assert!(g.is_temporal());
        assert_eq!(g.neighbor_timestamps(0), Some(&[5u32, 9][..]));
        assert_eq!(g.neighbor_timestamps(2), Some(&[][..]));
        assert_eq!(g.neighbor_timestamps(3), Some(&[3u32, 4, 8][..]));
        // Temporal edges add 4 bytes per edge to the budgeting size.
        assert_eq!(g.csr_bytes(), 5 * 8 + 6 * 4 + 6 * 4);
        // Length mismatch is rejected like a bad weight array.
        assert!(
            Csr::with_timestamps(vec![0, 1], vec![0], None, Some(vec![1, 2])).is_err(),
            "timestamp length must match edge count"
        );
    }

    #[test]
    fn max_multiplicity_counts_parallel_edges_within_a_row() {
        assert_eq!(small().max_multiplicity(), 1);
        // 0 -> 1,1,2,2,2 ; 1 -> 2 ; 2 -> 2: the edge array holds a run of
        // five 2s, but only three of them share a row.
        let g = Csr::new(vec![0, 5, 6, 7], vec![1, 1, 2, 2, 2, 2, 2], None).unwrap();
        assert_eq!(g.max_multiplicity(), 3);
        let empty = Csr::new(vec![0, 0], vec![], None).unwrap();
        assert_eq!(empty.max_multiplicity(), 1);
    }

    #[test]
    fn iter_edges_roundtrip() {
        let g = small();
        let edges: Vec<_> = g.iter_edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 0), (3, 0), (3, 1), (3, 2)]);
    }
}
