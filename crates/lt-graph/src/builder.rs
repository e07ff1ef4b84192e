//! Edge-list → CSR builder: the paper's preprocessing, one pipeline.
//!
//! §IV-A: "preprocessing … converts graphs into undirected ones, and removes
//! self loops, duplicate edges and zero-degree vertices". [`GraphBuilder`]
//! runs exactly those four steps on every graph it builds; there is no
//! other mode. Removing zero-degree vertices compacts and relabels the id
//! space (the mapping is returned for callers that need to translate
//! results back). Weights and timestamps are attached to the built [`Csr`]
//! afterwards ([`crate::gen::with_random_weights`],
//! [`crate::gen::with_random_timestamps`], [`Csr::with_timestamps`]).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::{Csr, GraphError, VertexId};

/// Builder that accumulates raw edges and produces a preprocessed [`Csr`].
/// [`GraphBuilder::new`] and [`GraphBuilder::default`] are the same empty
/// builder.
///
/// ```
/// use lt_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_edge(2, 2) // self loop, dropped
///     .add_edge(1, 0) // duplicate once undirected, dropped
///     .add_edge(5, 2) // 3 and 4 have no edge: 5 becomes 3
///     .build()
///     .unwrap();
/// assert_eq!(g.csr.num_vertices(), 4);
/// assert_eq!(g.csr.num_edges(), 6); // 0-1, 1-2 and 5-2, stored both ways
/// assert_eq!(g.relabel, [0, 1, 2, 5]);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
}

/// Result of [`GraphBuilder::build`]: the graph plus the relabeling applied
/// when zero-degree vertices were removed.
#[derive(Debug)]
pub struct BuiltGraph {
    /// The finished graph.
    pub csr: Csr,
    /// `relabel[new_id] = original_id`. Empty when no id below the largest
    /// one lacked an edge, so no relabeling happened.
    pub relabel: Vec<VertexId>,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one edge.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        self.edges.push((src, dst));
        self
    }

    /// Append many edges.
    pub fn extend_edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(it);
        self
    }

    /// Run the preprocessing and produce the CSR: drop self loops, store
    /// every edge both ways, sort and drop duplicates, then compact away
    /// the ids with no edge. [`GraphError::Empty`] if no edge is left.
    pub fn build(self) -> Result<BuiltGraph, GraphError> {
        let mut edges = self.edges;
        edges.retain(|&(s, d)| s != d);
        let n = edges.len();
        edges.reserve(n);
        for i in 0..n {
            let (s, d) = edges[i];
            edges.push((d, s));
        }
        edges.sort_unstable();
        edges.dedup();
        // Every edge is stored both ways, so the largest id is the last
        // source, and an id has an edge iff it is some edge's source: the
        // distinct sources, ascending, are the kept ids. No array is sized
        // by an id.
        let Some(&(max_id, _)) = edges.last() else {
            return Err(GraphError::Empty);
        };
        // A kept id's new label is its rank among them, so each source
        // becomes its rank in the same pass (the identity when no id is
        // missing).
        let mut ids: Vec<VertexId> = Vec::new();
        for e in &mut edges {
            if ids.last() != Some(&e.0) {
                ids.push(e.0);
            }
            e.0 = (ids.len() - 1) as VertexId;
        }
        let nv = ids.len();
        let relabel = if nv as u64 == u64::from(max_id) + 1 {
            Vec::new()
        } else {
            // Monotone, so the edges stay sorted.
            for e in &mut edges {
                e.1 = ids.partition_point(|&id| id < e.1) as VertexId;
            }
            ids
        };
        let mut offsets = vec![0u64; nv + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..nv {
            offsets[i + 1] += offsets[i];
        }
        let targets = edges.iter().map(|&(_, d)| d).collect();
        let csr = Csr::new(offsets, targets, None)?;
        Ok(BuiltGraph { csr, relabel })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_preprocessing() {
        // Vertices 0..=5; vertex 4 is isolated (only a self loop).
        let built = GraphBuilder::new()
            .add_edge(0, 1)
            .add_edge(1, 0) // duplicate once undirected
            .add_edge(2, 3)
            .add_edge(4, 4) // self loop on otherwise-isolated vertex
            .add_edge(5, 0)
            .build()
            .unwrap();
        let g = &built.csr;
        // Vertex 4 dropped => 5 vertices remain, relabeled.
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(built.relabel, vec![0, 1, 2, 3, 5]);
        // Undirected unique edges: (0,1), (2,3), (5,0) => 6 directed.
        assert_eq!(g.num_edges(), 6);
        // Old vertex 5 is new vertex 4 and connects to 0.
        assert_eq!(g.neighbors(4), &[0]);
        assert_eq!(g.neighbors(0), &[1, 4]);
    }

    #[test]
    fn empty_graph_is_error() {
        let r = GraphBuilder::new().add_edge(3, 3).build();
        assert!(matches!(r, Err(GraphError::Empty)));
    }

    #[test]
    fn default_is_the_same_pipeline() {
        let edges = [(0, 3), (3, 0), (3, 3), (7, 3)];
        let new = GraphBuilder::new().extend_edges(edges).build().unwrap();
        let default = GraphBuilder::default().extend_edges(edges).build().unwrap();
        assert_eq!(default.csr.offsets(), new.csr.offsets());
        assert_eq!(default.csr.edges(), new.csr.edges());
        assert_eq!(default.relabel, [0, 3, 7]);
    }

    #[test]
    fn huge_ids_cost_no_id_sized_memory() {
        let built = GraphBuilder::new()
            .add_edge(0, u32::MAX - 1)
            .build()
            .unwrap();
        assert_eq!(built.csr.num_vertices(), 2);
        assert_eq!(built.csr.num_edges(), 2);
        assert_eq!(built.relabel, [0, u32::MAX - 1]);
    }
}
