//! Graph substrate for the LightTraffic reproduction.
//!
//! The paper (§II-A, §III-B, §IV-A) needs four things from its graph layer:
//!
//! 1. **CSR storage** with fast neighbor queries ([`Csr`]).
//! 2. **Preprocessing** that converts graphs to undirected form and removes
//!    self loops, duplicate edges and zero-degree vertices ([`builder::GraphBuilder`]).
//! 3. **Range-based partitioning** into fixed-byte-budget partitions with
//!    binary-search vertex→partition lookup ([`partition`]).
//! 4. **Workloads**: since the paper's billion-edge datasets are not
//!    available here, [`gen`] provides deterministic R-MAT / Erdős–Rényi
//!    generators plus scaled stand-ins for every dataset in Table II.
//!
//! Vertex ids are `u32` (the largest paper dataset, ClueWeb09, has 1.68 B
//! vertices, which fits in `u32`); edge offsets are `u64` (up to 15.6 B
//! edges).
#![forbid(unsafe_code)]

pub mod builder;
mod checksum;
mod codec;
pub mod components;
pub mod csr;
pub mod delta;
pub mod gen;
pub mod io;
pub mod oocore;
pub mod partition;
pub mod stats;

pub use builder::GraphBuilder;
pub use codec::PackedSorted;
pub use csr::Csr;
pub use delta::{DeltaGraph, EdgeOp, EdgeUpdate, EpochSeal};
pub use oocore::{GraphStore, OocGraph};
pub use partition::{PartitionData, PartitionId, PartitionLookup, PartitionedGraph};

/// Vertex identifier. Dense, `0..num_vertices`.
pub type VertexId = u32;

/// Bytes used per vertex entry in the CSR on-device layout (one `u64` offset).
pub const VERTEX_ENTRY_BYTES: u64 = 8;

/// Bytes used per edge entry in the CSR on-device layout (one `u32` target).
pub const EDGE_ENTRY_BYTES: u64 = 4;

/// Errors produced by the graph layer.
#[derive(Debug)]
pub enum GraphError {
    /// An edge referenced a vertex id outside `0..num_vertices`.
    VertexOutOfRange { vertex: u64, num_vertices: u64 },
    /// The graph has no edges after preprocessing.
    Empty,
    /// An I/O error while loading or storing a graph.
    Io(std::io::Error),
    /// A parse error while reading a text edge list.
    Parse { line: usize, message: String },
    /// A binary graph file had an invalid header or truncated body.
    Format(String),
    /// A chunk of an out-of-core file does not match the checksum its
    /// directory entry records: its bytes changed after they were written.
    Corrupt { partition: u32, chunk: u32 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range (graph has {num_vertices} vertices)"
            ),
            GraphError::Empty => write!(f, "graph has no edges after preprocessing"),
            GraphError::Io(e) => write!(f, "graph i/o error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "edge list parse error at line {line}: {message}")
            }
            GraphError::Format(m) => write!(f, "invalid binary graph file: {m}"),
            GraphError::Corrupt { partition, chunk } => write!(
                f,
                "out-of-core partition {partition}, chunk {chunk}: checksum mismatch"
            ),
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}
