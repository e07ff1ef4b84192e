//! Edge-list → CSR builder with the paper's preprocessing pipeline.
//!
//! §IV-A: "preprocessing … converts graphs into undirected ones, and removes
//! self loops, duplicate edges and zero-degree vertices". All four steps are
//! independently toggleable; removing zero-degree vertices compacts and
//! relabels the id space (the mapping is returned for callers that need to
//! translate results back).

use crate::{Csr, GraphError, VertexId};

/// Builder that accumulates raw edges and produces a validated [`Csr`].
///
/// ```
/// use lt_graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .undirected(true)
///     .add_edge(0, 1)
///     .add_edge(1, 2)
///     .add_edge(2, 2) // self loop, dropped
///     .add_edge(0, 1) // duplicate, dropped
///     .build()
///     .unwrap();
/// assert_eq!(g.csr.num_vertices(), 3);
/// assert_eq!(g.csr.num_edges(), 4); // 0-1 and 1-2, stored both ways
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<f32>,
    weighted: bool,
    undirected: bool,
    dedupe: bool,
    drop_self_loops: bool,
    drop_zero_degree: bool,
}

/// Result of [`GraphBuilder::build`]: the graph plus the relabeling applied
/// when zero-degree vertices were removed.
#[derive(Debug)]
pub struct BuiltGraph {
    /// The finished graph.
    pub csr: Csr,
    /// `relabel[new_id] = original_id`. Identity (and empty) when no
    /// relabeling happened.
    pub relabel: Vec<VertexId>,
}

impl GraphBuilder {
    /// New builder with the paper's full preprocessing enabled
    /// (undirected + dedupe + drop self loops + drop zero-degree vertices).
    pub fn new() -> Self {
        GraphBuilder {
            edges: Vec::new(),
            weights: Vec::new(),
            weighted: false,
            undirected: true,
            dedupe: true,
            drop_self_loops: true,
            drop_zero_degree: true,
        }
    }

    /// Store each edge in both directions.
    pub fn undirected(mut self, yes: bool) -> Self {
        self.undirected = yes;
        self
    }

    /// Remove duplicate edges.
    pub fn dedupe(mut self, yes: bool) -> Self {
        self.dedupe = yes;
        self
    }

    /// Remove self loops.
    pub fn drop_self_loops(mut self, yes: bool) -> Self {
        self.drop_self_loops = yes;
        self
    }

    /// Remove (and relabel away) vertices with no incident edges.
    pub fn drop_zero_degree(mut self, yes: bool) -> Self {
        self.drop_zero_degree = yes;
        self
    }

    /// Append one edge.
    pub fn add_edge(mut self, src: VertexId, dst: VertexId) -> Self {
        debug_assert!(!self.weighted, "mixing weighted and unweighted edges");
        self.edges.push((src, dst));
        self
    }

    /// Append one weighted edge. All edges must then be weighted.
    pub fn add_weighted_edge(mut self, src: VertexId, dst: VertexId, w: f32) -> Self {
        self.weighted = true;
        self.edges.push((src, dst));
        self.weights.push(w);
        self
    }

    /// Append many edges.
    pub fn extend_edges(mut self, it: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        self.edges.extend(it);
        self
    }

    /// Run preprocessing and produce the CSR.
    pub fn build(self) -> Result<BuiltGraph, GraphError> {
        let GraphBuilder {
            mut edges,
            mut weights,
            weighted,
            undirected,
            dedupe,
            drop_self_loops,
            drop_zero_degree,
        } = self;

        if weighted {
            debug_assert_eq!(edges.len(), weights.len());
        }

        if drop_self_loops {
            if weighted {
                let mut kept = Vec::with_capacity(edges.len());
                let mut kept_w = Vec::with_capacity(weights.len());
                for (e, w) in edges.iter().zip(weights.iter()) {
                    if e.0 != e.1 {
                        kept.push(*e);
                        kept_w.push(*w);
                    }
                }
                edges = kept;
                weights = kept_w;
            } else {
                edges.retain(|&(s, d)| s != d);
            }
        }

        if undirected {
            let n = edges.len();
            edges.reserve(n);
            for i in 0..n {
                let (s, d) = edges[i];
                edges.push((d, s));
            }
            if weighted {
                let w = weights.clone();
                weights.extend(w);
            }
        }

        if edges.is_empty() {
            return Err(GraphError::Empty);
        }

        if dedupe {
            if weighted {
                // Keep the first weight seen for each (src, dst).
                let mut pairs: Vec<((VertexId, VertexId), f32)> =
                    edges.iter().copied().zip(weights.iter().copied()).collect();
                pairs.sort_by_key(|(e, _)| *e);
                pairs.dedup_by_key(|(e, _)| *e);
                edges = pairs.iter().map(|(e, _)| *e).collect();
                weights = pairs.iter().map(|(_, w)| *w).collect();
            } else {
                edges.sort_unstable();
                edges.dedup();
            }
        } else {
            // CSR construction below requires sorted-by-source order anyway;
            // a stable sort keeps weights aligned.
            if weighted {
                let mut pairs: Vec<((VertexId, VertexId), f32)> =
                    edges.iter().copied().zip(weights.iter().copied()).collect();
                pairs.sort_by_key(|(e, _)| *e);
                edges = pairs.iter().map(|(e, _)| *e).collect();
                weights = pairs.iter().map(|(_, w)| *w).collect();
            } else {
                edges.sort_unstable();
            }
        }

        let max_id = edges
            .iter()
            .map(|&(s, d)| s.max(d))
            .max()
            .expect("non-empty");
        let mut nv = max_id as usize + 1;

        let mut relabel = Vec::new();
        if drop_zero_degree {
            let mut incident = vec![false; nv];
            for &(s, d) in &edges {
                incident[s as usize] = true;
                incident[d as usize] = true;
            }
            if incident.iter().any(|x| !x) {
                let mut map = vec![u32::MAX; nv];
                for (old, &inc) in incident.iter().enumerate() {
                    if inc {
                        map[old] = relabel.len() as u32;
                        relabel.push(old as VertexId);
                    }
                }
                for e in edges.iter_mut() {
                    e.0 = map[e.0 as usize];
                    e.1 = map[e.1 as usize];
                }
                nv = relabel.len();
            }
        }

        let mut offsets = vec![0u64; nv + 1];
        for &(s, _) in &edges {
            offsets[s as usize + 1] += 1;
        }
        for i in 0..nv {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<VertexId> = edges.iter().map(|&(_, d)| d).collect();
        let csr = Csr::new(
            offsets,
            targets,
            if weighted { Some(weights) } else { None },
        )?;
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
    fn directed_no_dedupe() {
        let built = GraphBuilder::new()
            .undirected(false)
            .dedupe(false)
            .drop_zero_degree(false)
            .add_edge(0, 1)
            .add_edge(0, 1)
            .add_edge(2, 0)
            .build()
            .unwrap();
        assert_eq!(built.csr.num_edges(), 3);
        assert_eq!(built.csr.neighbors(0), &[1, 1]);
        assert!(built.relabel.is_empty());
    }

    #[test]
    fn empty_graph_is_error() {
        let r = GraphBuilder::new().add_edge(3, 3).build();
        assert!(matches!(r, Err(GraphError::Empty)));
    }

    #[test]
    fn weighted_build_keeps_alignment() {
        let built = GraphBuilder::new()
            .drop_zero_degree(false)
            .add_weighted_edge(0, 1, 2.0)
            .add_weighted_edge(1, 2, 3.0)
            .build()
            .unwrap();
        let g = &built.csr;
        assert!(g.is_weighted());
        // Undirected: 0->1 w2, 1->0 w2, 1->2 w3, 2->1 w3.
        assert_eq!(g.neighbor_weights(0), Some(&[2.0f32][..]));
        let w1 = g.neighbor_weights(1).unwrap();
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(w1, &[2.0, 3.0]);
    }

    #[test]
    fn zero_degree_kept_when_disabled() {
        let built = GraphBuilder::new()
            .drop_zero_degree(false)
            .add_edge(0, 5)
            .build()
            .unwrap();
        assert_eq!(built.csr.num_vertices(), 6);
        assert_eq!(built.csr.degree(3), 0);
    }
}
