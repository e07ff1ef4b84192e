//! Walker state — the paper's "walk index" (§II-A).
//!
//! A walk's state is `current_vertex` plus `walked_steps`; applications add
//! state such as a unique id for sampling (uniform sampling records
//! `walk_id`, §IV-A) or a previous vertex for second-order walks. The
//! simulated transfer size `S_w` is algorithm-dependent and reported by
//! [`crate::algorithm::WalkAlgorithm::walker_state_bytes`]; the host-side
//! struct always carries the superset.

use lt_graph::VertexId;
use serde::{Deserialize, Serialize};

/// One walk's state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Walker {
    /// Unique walk id; also the root of the walk's deterministic RNG
    /// stream, which makes trajectories independent of scheduling order.
    pub id: u64,
    /// `current_vertex` of the paper.
    pub vertex: VertexId,
    /// `walked_steps` of the paper.
    pub step: u32,
    /// Application-specific auxiliary state: a plain move leaves the
    /// previous vertex here (looked up only for an algorithm that
    /// [reads it](crate::WalkAlgorithm::reads_prev_neighbors)), a temporal
    /// move the walker's clock.
    pub aux: u32,
    /// Owning job slot when the engine multiplexes several jobs
    /// ([`crate::JobTable`], [`crate::WalkAlgorithm::routes_by_tag`]);
    /// `0` for single-tenant runs. Defaults to `0` when absent so
    /// pre-tagging checkpoints keep loading.
    #[serde(default)]
    pub tag: u32,
}

impl Walker {
    /// A fresh walk starting at `vertex`.
    pub fn new(id: u64, vertex: VertexId) -> Self {
        Walker {
            id,
            vertex,
            step: 0,
            aux: VertexId::MAX,
            tag: 0,
        }
    }

    /// A fresh walk starting at `vertex`, owned by job slot `tag`.
    pub fn tagged(id: u64, vertex: VertexId, tag: u32) -> Self {
        Walker {
            tag,
            ..Walker::new(id, vertex)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_walker_starts_at_step_zero() {
        let w = Walker::new(7, 42);
        assert_eq!(w.id, 7);
        assert_eq!(w.vertex, 42);
        assert_eq!(w.step, 0);
    }
}
