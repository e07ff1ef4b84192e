//! Out-of-core compressed CSR substrate (DESIGN.md §16).
//!
//! The paper's real datasets (TW/FS/UK/CW) are billion-edge; a RAM-resident
//! CSR caps what one box can serve. This module extends the paper's
//! traffic-optimization story one tier up: the graph lives on disk in a
//! **partition-granular compressed** form — delta+varint adjacency per
//! vertex, grouped into small fixed-vertex-count chunks with a per-partition
//! chunk directory — written once and read one region per positional read
//! (`pread`), so the **OS page cache is the residency policy** for the
//! compressed bytes exactly like the device graph pool is for GPU memory.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LTOOCGR1" | flags u8 | |V| u64 | |E| u64 | P u32 | block_bytes u64
//! boundaries  u32 × (P+1)          partition vertex ranges
//! part_bytes  u64 × P              uncompressed PartitionData bytes
//! part_edges  u64 × P              edges per partition
//! regions     u64 × (P+1)          absolute byte offset of each region
//! P × region:
//!   chunk_count u32
//!   chunk dir: { first_vertex u32, first_edge u64, payload_off u64 } × chunks
//!   payload: per-vertex rows
//! ```
//!
//! A row for vertex `v` with degree `d` is `varint(d)`, then `d` zigzag
//! varints: the first is `n₀ − v`, the rest successive-neighbor differences
//! — this round-trips **arbitrary** neighbor order exactly (order determines
//! sampling, so the codec must be lossless in order, not just as a set)
//! while compressing the sorted rows the preprocessed generators emit to a
//! few bits per edge. Temporal rows append `varint(t₀)` plus zigzag deltas;
//! weighted rows append `d` raw little-endian `f32`s (incompressible).
//!
//! Chunks hold [`CHUNK_VERTICES`] vertices each and record their absolute
//! first edge, so a partition decode fans out across chunks into disjoint
//! output slices with no cross-chunk scan.
//!
//! This module is the only one that knows the layout: outside it a file
//! holds partitions, not chunks. [`OocGraph::decode_partition_with`] is
//! the one partition decoder. It reads the region with one positional
//! read, cuts its chunks into groups of about equal edge count, carves the
//! output buffers into disjoint spans per group, and runs the groups
//! through a fan-out its caller passes in (the engine's host decode cache
//! passes its worker pool). [`OocGraph::decode_partition`] is its serial
//! one-group case.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::csr::check_weights;
use crate::partition::{PartitionData, PartitionedGraph};
use crate::{Csr, GraphError, VertexId};
use std::fs::File;
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Magic bytes of the out-of-core compressed format, revision 1.
pub const OOC_MAGIC: &[u8; 8] = b"LTOOCGR1";

/// Vertices per compressed chunk: small enough that a partition splits
/// into many independently-decodable units for the `ExecPool` fan-out,
/// large enough that the 20-byte directory entry is noise (<0.1 bytes per
/// vertex at typical degrees).
pub const CHUNK_VERTICES: u32 = 256;

const FLAG_WEIGHTED: u8 = 1;
const FLAG_TEMPORAL: u8 = 2;

/// Fixed-size header prefix: magic + flags + |V| + |E| + P + block_bytes.
const HEADER_FIXED: usize = 8 + 1 + 8 + 8 + 4 + 8;

/// Directory entry size: first_vertex u32 + first_edge u64 + payload_off u64.
const DIR_ENTRY: usize = 4 + 8 + 8;

// ---------------------------------------------------------------------------
// varint / zigzag codec
// ---------------------------------------------------------------------------

#[inline]
fn put_varint(mut x: u64, out: &mut Vec<u8>) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Decode one LEB128 varint at `*pos`, advancing it. `None` on truncation.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut x: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf.get(*pos)?;
        *pos += 1;
        x |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(x);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

// ---------------------------------------------------------------------------
// Row encode / decode
// ---------------------------------------------------------------------------

/// Append the compressed row of vertex `v` to `out`.
fn encode_row(
    v: VertexId,
    neighbors: &[VertexId],
    weights: Option<&[f32]>,
    timestamps: Option<&[u32]>,
    out: &mut Vec<u8>,
) {
    put_varint(neighbors.len() as u64, out);
    let mut prev = v as i64;
    for &n in neighbors {
        put_varint(zigzag(n as i64 - prev), out);
        prev = n as i64;
    }
    if let Some(ts) = timestamps {
        if let Some((&first, rest)) = ts.split_first() {
            put_varint(u64::from(first), out);
            let mut prev = first as i64;
            for &t in rest {
                put_varint(zigzag(t as i64 - prev), out);
                prev = t as i64;
            }
        }
    }
    if let Some(ws) = weights {
        for w in ws {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
}

/// The `N` bytes of `buf` at `at`, as an array for `from_le_bytes`. The
/// caller has checked that `buf` holds them.
#[inline]
fn array_at<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&buf[at..at + N]);
    a
}

fn truncated() -> GraphError {
    GraphError::Format("out-of-core payload truncated".into())
}

/// `e`, naming partition `p` if it is a [`GraphError::Format`].
fn in_partition(p: u32, e: GraphError) -> GraphError {
    match e {
        GraphError::Format(m) => GraphError::Format(format!("partition {p}: {m}")),
        e => e,
    }
}

/// Refuse a partition of `vertices` rows and `edges` edges in a region of
/// `bytes`: every row's degree and every edge cost at least one byte.
fn check_fits(vertices: u32, edges: u64, bytes: u64) -> Result<(), GraphError> {
    if edges.saturating_add(vertices.into()) > bytes {
        return Err(GraphError::Format(
            "partition edge count exceeds its region".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Chunk plans and the grouped decode
// ---------------------------------------------------------------------------

/// One independently-decodable unit of a partition region: a contiguous run
/// of vertex rows plus where its output lands.
#[derive(Clone, Debug)]
struct ChunkPlan {
    /// First vertex of the chunk (global id, inclusive).
    v_start: VertexId,
    /// Last vertex of the chunk (global id, exclusive).
    v_end: VertexId,
    /// Index of the chunk's first edge, relative to the partition start.
    first_edge: u64,
    /// Number of edges in the chunk.
    num_edges: u64,
    /// Byte offset of the chunk's first row within the region.
    payload_start: usize,
}

/// Parse a partition region's chunk directory into decode plans.
///
/// `v_start..v_end` is the partition's vertex range and `part_edges` its
/// edge count (both from the file header); they bound the directory so a
/// corrupt region fails cleanly instead of mis-slicing output buffers.
fn parse_chunk_plans(
    region: &[u8],
    v_start: VertexId,
    v_end: VertexId,
    part_edges: u64,
) -> Result<Vec<ChunkPlan>, GraphError> {
    if region.len() < 4 {
        return Err(truncated());
    }
    // Checked before the allocations a hostile edge count sizes.
    check_fits(v_end - v_start, part_edges, region.len() as u64)?;
    let count = u32::from_le_bytes(array_at(region, 0)) as usize;
    let dir_end = 4 + count * DIR_ENTRY;
    if region.len() < dir_end {
        return Err(truncated());
    }
    let expect = (v_end - v_start).div_ceil(CHUNK_VERTICES).max(1) as usize;
    if count != expect {
        return Err(GraphError::Format(format!(
            "chunk directory has {count} entries, partition needs {expect}"
        )));
    }
    let mut plans = Vec::with_capacity(count);
    for i in 0..count {
        let e = 4 + i * DIR_ENTRY;
        let first_vertex = u32::from_le_bytes(array_at(region, e));
        let first_edge = u64::from_le_bytes(array_at(region, e + 4));
        let payload_off = u64::from_le_bytes(array_at(region, e + 12));
        let payload_start = dir_end
            .checked_add(payload_off as usize)
            .filter(|&p| p <= region.len())
            .ok_or_else(truncated)?;
        plans.push(ChunkPlan {
            v_start: first_vertex,
            v_end: first_vertex, // patched below
            first_edge,
            num_edges: 0, // patched below
            payload_start,
        });
    }
    // Chunks tile the partition from its first vertex and edge on, so a
    // decode can hand them consecutive output spans.
    if plans[0].v_start != v_start || plans[0].first_edge != 0 {
        return Err(GraphError::Format(
            "chunk directory does not start at the partition start".into(),
        ));
    }
    for i in 0..count {
        let (next_v, next_e) = if i + 1 < count {
            (plans[i + 1].v_start, plans[i + 1].first_edge)
        } else {
            (v_end, part_edges)
        };
        let p = &mut plans[i];
        if next_v < p.v_start || next_e < p.first_edge || p.v_start < v_start || next_v > v_end {
            return Err(GraphError::Format(
                "chunk directory is not monotone over the partition range".into(),
            ));
        }
        p.v_end = next_v;
        p.num_edges = next_e - p.first_edge;
    }
    Ok(plans)
}

/// Cut `plans` (one partition's chunks, `part_edges` edges in all) into
/// `groups` contiguous non-empty runs of about equal *edge* count, as
/// exclusive end indices: decode time follows edges, and a power-law
/// partition keeps its hubs in the first chunks. Run `g` ends at the first
/// chunk starting at or past `g/groups` of the edges, clamped so that
/// every run keeps a chunk.
fn group_ends(plans: &[ChunkPlan], part_edges: u64, groups: usize) -> Vec<usize> {
    debug_assert!((1..=plans.len()).contains(&groups));
    let mut ends = Vec::with_capacity(groups);
    let mut start = 0;
    for g in 1..groups {
        let target = g as u64 * part_edges / groups as u64;
        let end = plans
            .partition_point(|c| c.first_edge < target)
            .clamp(start + 1, plans.len() - (groups - g));
        ends.push(end);
        start = end;
    }
    ends.push(plans.len());
    ends
}

/// One chunk's share of a partition decode: its plan and the disjoint
/// output spans its rows fill — `offsets` one entry per chunk vertex,
/// `edges` (and, for a weighted or temporal file, `weights` /
/// `timestamps`) the chunk's `[first_edge .. first_edge + num_edges)` of
/// the partition's buffers.
struct ChunkOut<'a> {
    plan: &'a ChunkPlan,
    offsets: &'a mut [u64],
    edges: &'a mut [VertexId],
    weights: Option<&'a mut [f32]>,
    timestamps: Option<&'a mut [u32]>,
}

/// Split the first `n` items off `rest`, leaving the remainder there.
fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (front, back) = std::mem::take(rest).split_at_mut(n);
    *rest = back;
    front
}

/// Cut `data`'s output buffers into one [`ChunkOut`] per plan. Chunks
/// tile the partition in order, so the buffers split into disjoint
/// `&mut` subslices (the final `offsets` sentinel belongs to none).
fn carve<'a>(plans: &'a [ChunkPlan], data: &'a mut PartitionData) -> Vec<ChunkOut<'a>> {
    let n = data.offsets.len() - 1;
    let mut offsets = &mut data.offsets[..n];
    let mut edges = &mut data.edges[..];
    let mut weights = data.weights.as_deref_mut();
    let mut timestamps = data.timestamps.as_deref_mut();
    plans
        .iter()
        .map(|plan| {
            let ne = plan.num_edges as usize;
            ChunkOut {
                plan,
                offsets: take_front(&mut offsets, (plan.v_end - plan.v_start) as usize),
                edges: take_front(&mut edges, ne),
                weights: weights.as_mut().map(|w| take_front(w, ne)),
                timestamps: timestamps.as_mut().map(|t| take_front(t, ne)),
            }
        })
        .collect()
}

/// Decode one chunk of a graph with `num_vertices` vertices into its
/// spans. `offsets` receives the partition-relative edge start of each
/// row; the caller writes the final `offsets[n] = part_edges` sentinel
/// once, after all chunks. A neighbor outside `0..num_vertices` or a
/// weight [`check_weights`] refuses is a [`GraphError::Format`].
fn decode_chunk(region: &[u8], num_vertices: u64, out: ChunkOut) -> Result<(), GraphError> {
    let ChunkOut {
        plan,
        offsets,
        edges,
        mut weights,
        mut timestamps,
    } = out;
    let mut pos = plan.payload_start;
    let mut edge_cursor = 0usize;
    for (li, v) in (plan.v_start..plan.v_end).enumerate() {
        offsets[li] = plan.first_edge + edge_cursor as u64;
        let d = get_varint(region, &mut pos).ok_or_else(truncated)? as usize;
        if edge_cursor + d > edges.len() {
            return Err(GraphError::Format(
                "row degrees exceed the chunk's edge count".into(),
            ));
        }
        let row = &mut edges[edge_cursor..edge_cursor + d];
        let mut prev = v as i64;
        for slot in row.iter_mut() {
            let delta = unzigzag(get_varint(region, &mut pos).ok_or_else(truncated)?);
            prev += delta;
            // A negative `prev` wraps far above any vertex count.
            if prev as u64 >= num_vertices {
                return Err(GraphError::Format(format!(
                    "vertex {v} has neighbor {prev}, outside the graph's {num_vertices} vertices"
                )));
            }
            *slot = prev as VertexId;
        }
        if let Some(ts) = timestamps.as_deref_mut() {
            let row = &mut ts[edge_cursor..edge_cursor + d];
            if let Some((first, rest)) = row.split_first_mut() {
                let t0 = get_varint(region, &mut pos).ok_or_else(truncated)?;
                *first = u32::try_from(t0)
                    .map_err(|_| GraphError::Format("timestamp out of u32 range".into()))?;
                let mut prev = *first as i64;
                for slot in rest {
                    prev += unzigzag(get_varint(region, &mut pos).ok_or_else(truncated)?);
                    *slot = u32::try_from(prev)
                        .map_err(|_| GraphError::Format("timestamp out of u32 range".into()))?;
                }
            }
        }
        if let Some(ws) = weights.as_deref_mut() {
            let row = &mut ws[edge_cursor..edge_cursor + d];
            let end = pos + 4 * d;
            if end > region.len() {
                return Err(truncated());
            }
            for (k, slot) in row.iter_mut().enumerate() {
                *slot = f32::from_le_bytes(array_at(region, pos + 4 * k));
            }
            check_weights(row)?;
            pos = end;
        }
        edge_cursor += d;
    }
    if edge_cursor as u64 != plan.num_edges {
        return Err(GraphError::Format(
            "chunk decoded a different edge count than its directory entry".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Write `pg` (a table over a RAM store) as an out-of-core compressed
/// file at `path`. Returns the total file size in bytes.
///
/// Each partition's current rows are read **once** and encoded region by
/// region; the header's `part_bytes` records the uncompressed
/// [`PartitionData::bytes`] so engine-side H2D charges are identical
/// between substrates.
pub fn write_oocore(pg: &PartitionedGraph, path: &Path) -> Result<u64, GraphError> {
    let GraphStore::Ram(csr) = pg.store() else {
        return Err(GraphError::Format(
            "write_oocore needs a RAM-resident graph".into(),
        ));
    };
    let p = pg.num_partitions() as usize;
    let flags = (u8::from(csr.is_weighted()) * FLAG_WEIGHTED)
        | (u8::from(csr.is_temporal()) * FLAG_TEMPORAL);

    let mut regions = Vec::with_capacity(p + 1);
    let mut part_bytes = Vec::with_capacity(p);
    let mut part_edges = Vec::with_capacity(p);
    let mut body: Vec<u8> = Vec::new();
    let header_len = HEADER_FIXED + 4 * (p + 1) + 8 * p + 8 * p + 8 * (p + 1);
    for part in 0..p as u32 {
        regions.push(header_len as u64 + body.len() as u64);
        let data = pg.read_block(part)?;
        part_bytes.push(data.bytes());
        part_edges.push(data.edges.len() as u64);
        encode_region(&data, &mut body);
    }
    regions.push(header_len as u64 + body.len() as u64);

    let mut header: Vec<u8> = Vec::with_capacity(header_len);
    header.extend_from_slice(OOC_MAGIC);
    header.push(flags);
    header.extend_from_slice(&pg.num_vertices().to_le_bytes());
    header.extend_from_slice(&part_edges.iter().sum::<u64>().to_le_bytes());
    header.extend_from_slice(&pg.num_partitions().to_le_bytes());
    header.extend_from_slice(&pg.block_bytes().to_le_bytes());
    for &b in pg.boundaries() {
        header.extend_from_slice(&b.to_le_bytes());
    }
    for &b in &part_bytes {
        header.extend_from_slice(&b.to_le_bytes());
    }
    for &e in &part_edges {
        header.extend_from_slice(&e.to_le_bytes());
    }
    for &r in &regions {
        header.extend_from_slice(&r.to_le_bytes());
    }
    debug_assert_eq!(header.len(), header_len);

    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(&body)?;
    f.sync_all()?;
    Ok(header.len() as u64 + body.len() as u64)
}

/// Encode one partition's region (chunk directory + payload) onto `out`.
fn encode_region(data: &PartitionData, out: &mut Vec<u8>) {
    let n = data.v_end - data.v_start;
    let chunks = n.div_ceil(CHUNK_VERTICES).max(1);
    out.extend_from_slice(&chunks.to_le_bytes());
    let dir_start = out.len();
    out.resize(dir_start + chunks as usize * DIR_ENTRY, 0);
    let payload_base = out.len();
    for c in 0..chunks {
        let v_lo = data.v_start + c * CHUNK_VERTICES;
        let v_hi = (v_lo + CHUNK_VERTICES).min(data.v_end);
        let first_edge = data.offsets[(v_lo - data.v_start) as usize];
        let rows = data.rows();
        let payload_off = (out.len() - payload_base) as u64;
        let e = dir_start + c as usize * DIR_ENTRY;
        out[e..e + 4].copy_from_slice(&v_lo.to_le_bytes());
        out[e + 4..e + 12].copy_from_slice(&first_edge.to_le_bytes());
        out[e + 12..e + 20].copy_from_slice(&payload_off.to_le_bytes());
        for v in v_lo..v_hi {
            encode_row(
                v,
                rows.neighbors(v),
                rows.neighbor_weights(v),
                rows.neighbor_timestamps(v),
                out,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Positional reads
// ---------------------------------------------------------------------------

#[cfg(unix)]
fn read_exact_at(f: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, off)
}

#[cfg(not(unix))]
fn read_exact_at(f: &File, buf: &mut [u8], off: u64) -> std::io::Result<()> {
    // No positional-read API: emulate with seek on a cloned handle so
    // concurrent readers do not race one shared cursor.
    use std::io::{Read, Seek, SeekFrom};
    let mut f = f.try_clone()?;
    f.seek(SeekFrom::Start(off))?;
    f.read_exact(buf)
}

// ---------------------------------------------------------------------------
// OocGraph
// ---------------------------------------------------------------------------

/// An opened out-of-core compressed graph: the header and partition table
/// live in RAM, adjacency stays on disk until a partition is decoded.
pub struct OocGraph {
    /// Read by positional reads only, so decoders on any number of threads
    /// share it with no cursor to race on.
    file: File,
    weighted: bool,
    temporal: bool,
    num_vertices: u64,
    num_edges: u64,
    block_bytes: u64,
    boundaries: Vec<VertexId>,
    part_bytes: Vec<u64>,
    part_edges: Vec<u64>,
    regions: Vec<u64>,
}

impl OocGraph {
    /// Open `path`, validating the header and partition table. Adjacency
    /// stays on disk until a partition is decoded.
    pub fn open(path: &Path) -> Result<OocGraph, GraphError> {
        let f = File::open(path)?;
        let mut fixed = [0u8; HEADER_FIXED];
        read_exact_at(&f, &mut fixed, 0)?;
        if &fixed[0..8] != OOC_MAGIC {
            return Err(GraphError::Format(
                "bad magic (not an out-of-core graph file)".into(),
            ));
        }
        let flags = fixed[8];
        let num_vertices = u64::from_le_bytes(array_at(&fixed, 9));
        let num_edges = u64::from_le_bytes(array_at(&fixed, 17));
        let p = u32::from_le_bytes(array_at(&fixed, 25)) as usize;
        let block_bytes = u64::from_le_bytes(array_at(&fixed, 29));
        if p == 0 || num_vertices == 0 {
            return Err(GraphError::Format("empty partition table".into()));
        }
        let table_len = 4 * (p + 1) + 8 * p + 8 * p + 8 * (p + 1);
        // Checked before the allocation a hostile partition count sizes.
        let file_len = f.metadata()?.len();
        if (HEADER_FIXED + table_len) as u64 > file_len {
            return Err(GraphError::Format(
                "partition table exceeds the file".into(),
            ));
        }
        let mut table = vec![0u8; table_len];
        read_exact_at(&f, &mut table, HEADER_FIXED as u64)?;
        // The four arrays back to back; `table` holds exactly them.
        let boundaries: Vec<VertexId> = (0..=p)
            .map(|i| u32::from_le_bytes(array_at(&table, 4 * i)))
            .collect();
        let u64s = |first: usize, n: usize| -> Vec<u64> {
            (0..n)
                .map(|i| u64::from_le_bytes(array_at(&table, first + 8 * i)))
                .collect()
        };
        let part_bytes = u64s(4 * (p + 1), p);
        let part_edges = u64s(4 * (p + 1) + 8 * p, p);
        let regions = u64s(4 * (p + 1) + 16 * p, p + 1);
        if boundaries[0] != 0
            || boundaries[p] as u64 != num_vertices
            || boundaries.windows(2).any(|w| w[0] >= w[1])
        {
            return Err(GraphError::Format(
                "partition boundaries not monotone".into(),
            ));
        }
        if regions.windows(2).any(|w| w[0] > w[1]) {
            return Err(GraphError::Format("region table not monotone".into()));
        }
        if regions[p] != file_len {
            return Err(GraphError::Format("region table exceeds the file".into()));
        }
        // Bounding each count by its region's bytes first keeps the sum
        // below the file's length.
        for i in 0..p {
            let vertices = boundaries[i + 1] - boundaries[i];
            check_fits(vertices, part_edges[i], regions[i + 1] - regions[i])?;
        }
        if part_edges.iter().sum::<u64>() != num_edges {
            return Err(GraphError::Format(
                "partition edge counts do not sum to |E|".into(),
            ));
        }
        Ok(OocGraph {
            file: f,
            weighted: flags & FLAG_WEIGHTED != 0,
            temporal: flags & FLAG_TEMPORAL != 0,
            num_vertices,
            num_edges,
            block_bytes,
            boundaries,
            part_bytes,
            part_edges,
            regions,
        })
    }

    pub fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    pub fn num_edges(&self) -> u64 {
        self.num_edges
    }

    pub fn num_partitions(&self) -> u32 {
        (self.boundaries.len() - 1) as u32
    }

    /// Partition vertex boundaries, length `num_partitions() + 1`.
    pub fn boundaries(&self) -> &[VertexId] {
        &self.boundaries
    }

    /// Partition byte budget the file was partitioned with.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Uncompressed [`PartitionData::bytes`] of partition `p` — what an
    /// H2D copy of the decoded partition transfers.
    pub fn partition_bytes(&self, p: u32) -> u64 {
        self.part_bytes[p as usize]
    }

    /// Edge count of partition `p`.
    pub(crate) fn partition_edges(&self, p: u32) -> u64 {
        self.part_edges[p as usize]
    }

    /// Total file size.
    pub fn file_bytes(&self) -> u64 {
        self.regions[self.regions.len() - 1]
    }

    /// What the decoded graph's [`Csr::csr_bytes`] would be — the RAM
    /// footprint this substrate avoids.
    pub fn uncompressed_bytes(&self) -> u64 {
        let per_edge = 4 + u64::from(self.weighted) * 4 + u64::from(self.temporal) * 4;
        (self.num_vertices + 1) * 8 + self.num_edges * per_edge
    }

    /// The raw compressed bytes of partition `p`'s region, in a fresh
    /// buffer filled by one positional read. A file cut short since
    /// [`OocGraph::open`] fails here with [`GraphError::Io`].
    fn region(&self, p: u32) -> Result<Vec<u8>, GraphError> {
        let lo = self.regions[p as usize];
        let hi = self.regions[p as usize + 1];
        let mut buf = vec![0u8; (hi - lo) as usize];
        read_exact_at(&self.file, &mut buf, lo)?;
        Ok(buf)
    }

    /// Decode partition `p` serially into a fresh [`PartitionData`]: the
    /// one-group case of [`OocGraph::decode_partition_with`].
    pub fn decode_partition(&self, p: u32) -> Result<PartitionData, GraphError> {
        self.decode_partition_with(p, 1, |n, f| (0..n).map(f).collect())
    }

    /// Decode partition `p` into a fresh [`PartitionData`], its chunks cut
    /// into at most `groups` contiguous groups of about equal edge count
    /// (at least one, at most one per chunk). `fan_out(n, f)` must run
    /// `f(g)` once for every group `g` in `0..n` and return the outputs in
    /// index order, on as many threads as it likes (`|n, f| exec.map(n,
    /// f)` over a worker pool): each group writes only its own disjoint
    /// spans of the output, handed to its index through a slot taken
    /// once. Chunk boundaries are fixed by the file, so the decoded bytes
    /// are the same for every group count. A read or decode failure is
    /// returned, the lowest failing group's first; a block that would
    /// break the row contract [`Csr::new`] checks (a neighbor outside the
    /// graph, a weight that is not finite and non-negative) is a
    /// [`GraphError::Format`] naming `p`.
    pub fn decode_partition_with<F>(
        &self,
        p: u32,
        groups: usize,
        fan_out: F,
    ) -> Result<PartitionData, GraphError>
    where
        F: FnOnce(
            usize,
            &(dyn Fn(usize) -> Result<(), GraphError> + Sync),
        ) -> Vec<Result<(), GraphError>>,
    {
        let v_start = self.boundaries[p as usize];
        let v_end = self.boundaries[p as usize + 1];
        let ne = self.part_edges[p as usize];
        let n = (v_end - v_start) as usize;
        let region = self.region(p)?;
        let plans =
            parse_chunk_plans(&region, v_start, v_end, ne).map_err(|e| in_partition(p, e))?;
        let mut data = PartitionData {
            id: p,
            v_start,
            v_end,
            offsets: vec![0u64; n + 1],
            edges: vec![0; ne as usize],
            weights: self.weighted.then(|| vec![0.0; ne as usize]),
            timestamps: self.temporal.then(|| vec![0; ne as usize]),
        };
        let mut chunks = carve(&plans, &mut data).into_iter();
        let mut start = 0;
        let slots: Vec<Mutex<Vec<ChunkOut>>> = group_ends(&plans, ne, groups.clamp(1, plans.len()))
            .into_iter()
            .map(|end| {
                let group = chunks.by_ref().take(end - start).collect();
                start = end;
                Mutex::new(group)
            })
            .collect();
        let decode_group = |g: usize| {
            let group =
                std::mem::take(&mut *slots[g].lock().expect("a slot is only locked to take it"));
            group
                .into_iter()
                .try_for_each(|c| decode_chunk(&region, self.num_vertices, c))
        };
        let decoded = fan_out(slots.len(), &decode_group);
        debug_assert_eq!(decoded.len(), slots.len(), "the fan-out ran every group");
        decoded
            .into_iter()
            .collect::<Result<(), GraphError>>()
            .map_err(|e| in_partition(p, e))?;
        drop(slots);
        data.offsets[n] = ne;
        Ok(data)
    }
}

impl std::fmt::Debug for OocGraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OocGraph")
            .field("num_vertices", &self.num_vertices)
            .field("num_edges", &self.num_edges)
            .field("num_partitions", &self.num_partitions())
            .field("file_bytes", &self.file_bytes())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// GraphStore
// ---------------------------------------------------------------------------

/// Where a graph's base adjacency lives: the store under a
/// [`PartitionedGraph`]'s clean entries.
///
/// `Ram` is the original fully-resident CSR; `OutOfCore` keeps only the
/// partition table resident and decodes partitions on demand. Walk results
/// are bit-identical between the two (the differential battery pins this),
/// mutation included: the substrate changes *where bytes come from*, never
/// *which bytes*.
#[derive(Clone)]
pub enum GraphStore {
    /// Fully RAM-resident CSR.
    Ram(Arc<Csr>),
    /// Compressed on-disk CSR, decoded per partition on demand.
    OutOfCore(Arc<OocGraph>),
}

impl std::fmt::Debug for GraphStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (kind, nv) = match self {
            GraphStore::Ram(g) => ("Ram", g.num_vertices()),
            GraphStore::OutOfCore(g) => ("OutOfCore", g.num_vertices()),
        };
        write!(f, "GraphStore::{kind}({nv} vertices)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, with_random_timestamps, with_random_weights, RmatParams};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lt_oocore_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    fn powerlaw(scale: u32, edge_factor: u32, seed: u64) -> Csr {
        rmat(RmatParams {
            scale,
            edge_factor,
            seed,
            ..RmatParams::default()
        })
        .csr
    }

    fn assert_partitions_match(pg: &PartitionedGraph, ooc: &OocGraph) {
        assert_eq!(ooc.num_partitions(), pg.num_partitions());
        assert_eq!(ooc.boundaries(), pg.boundaries());
        for p in 0..pg.num_partitions() {
            let want = pg.extract(p);
            let got = ooc.decode_partition(p).expect("decodes");
            assert_eq!(got.offsets, want.offsets, "partition {p} offsets");
            assert_eq!(got.edges, want.edges, "partition {p} edges");
            assert_eq!(got.weights, want.weights, "partition {p} weights");
            assert_eq!(got.timestamps, want.timestamps, "partition {p} timestamps");
            assert_eq!(ooc.partition_bytes(p), want.bytes());
            assert_eq!(ooc.partition_edges(p), want.edges.len() as u64);
        }
    }

    #[test]
    fn roundtrip_plain_weighted_temporal() {
        for (name, csr) in [
            ("plain", powerlaw(10, 8, 11)),
            ("weighted", with_random_weights(&powerlaw(10, 8, 12), 5)),
            (
                "temporal",
                with_random_timestamps(&powerlaw(10, 8, 13), 6, 64),
            ),
        ] {
            let csr = Arc::new(csr);
            let pg = PartitionedGraph::build(csr.clone(), 16 << 10);
            let path = tmp(&format!("roundtrip_{name}"));
            write_oocore(&pg, &path).expect("writes");
            let ooc = OocGraph::open(&path).expect("opens");
            assert_eq!(ooc.num_vertices(), csr.num_vertices());
            assert_eq!(ooc.num_edges(), csr.num_edges());
            assert_eq!(ooc.weighted, csr.is_weighted());
            assert_eq!(ooc.temporal, csr.is_temporal());
            assert_eq!(ooc.uncompressed_bytes(), csr.csr_bytes());
            assert_partitions_match(&pg, &ooc);
            std::fs::remove_file(&path).ok();
        }
    }

    /// Neighbor order determines sampling, so the codec must preserve
    /// arbitrary (unsorted) rows bit for bit — zigzag deltas, not gaps.
    #[test]
    fn unsorted_rows_roundtrip_exactly() {
        let offsets = vec![0u64, 3, 5, 8, 8, 10];
        let edges: Vec<VertexId> = vec![4, 0, 2, 3, 1, 0, 4, 2, 1, 1];
        let csr = Arc::new(Csr::new(offsets, edges, None).unwrap());
        let pg = PartitionedGraph::build(csr.clone(), 64);
        let path = tmp("unsorted");
        write_oocore(&pg, &path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        assert_partitions_match(&pg, &ooc);
        std::fs::remove_file(&path).ok();
    }

    /// A file cut short after `open` fails the read of a region past the
    /// cut with an I/O error, never a signal: nothing maps the file.
    #[test]
    fn truncation_after_open_is_an_io_error() {
        let csr = Arc::new(powerlaw(9, 8, 21));
        let pg = PartitionedGraph::build(csr, 8 << 10);
        let path = tmp("truncated_after_open");
        let len = write_oocore(&pg, &path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        let last = ooc.num_partitions() - 1;
        ooc.decode_partition(last).expect("the intact file decodes");
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len / 2).unwrap();
        assert!(matches!(ooc.decode_partition(last), Err(GraphError::Io(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A directory whose first chunk starts past the partition's first
    /// vertex or edge is refused, not decoded into shifted spans.
    #[test]
    fn a_directory_that_skips_the_partition_start_is_refused() {
        let pg = PartitionedGraph::build(Arc::new(powerlaw(9, 8, 29)), 8 << 10);
        let path = tmp("skipped_start");
        write_oocore(&pg, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let entry = OocGraph::open(&path).unwrap().regions[0] as usize + 4;
        for (field, at) in [("first vertex", entry), ("first edge", entry + 4)] {
            let mut bad = full.clone();
            bad[at] += 1;
            std::fs::write(&path, &bad).unwrap();
            let ooc = OocGraph::open(&path).unwrap();
            assert!(
                matches!(ooc.decode_partition(0), Err(GraphError::Format(_))),
                "{field}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A 12-vertex ring (every weight 1.0 if `weighted`) written to
    /// `path`, as bytes, and where partition 0's payload starts: vertex
    /// 0's row is degree 2, zigzag(+1) = 2, zigzag(+10) = 20, then its
    /// weights.
    fn ring_file(path: &Path, weighted: bool) -> (Vec<u8>, usize) {
        let n = 12u32;
        let edges: Vec<VertexId> = (0..n)
            .flat_map(|v| {
                let (lo, hi) = ((v + 1) % n, (v + n - 1) % n);
                [lo.min(hi), lo.max(hi)]
            })
            .collect();
        let weights = weighted.then(|| vec![1.0; edges.len()]);
        let csr = Csr::new((0..=u64::from(n)).map(|v| 2 * v).collect(), edges, weights).unwrap();
        write_oocore(&PartitionedGraph::build(Arc::new(csr), 64), path).unwrap();
        let payload = OocGraph::open(path).unwrap().regions[0] as usize + 4 + DIR_ENTRY;
        let bytes = std::fs::read(path).unwrap();
        assert_eq!(bytes[payload..payload + 3], [2, 2, 20]);
        (bytes, payload)
    }

    /// A payload byte rewritten so vertex 0's first neighbor reads 63 of
    /// 12 is refused by the decode, naming the partition, instead of
    /// handing the engine a vertex no partition holds.
    #[test]
    fn a_neighbor_outside_the_graph_is_refused() {
        let path = tmp("ring_neighbor");
        let (mut bytes, payload) = ring_file(&path, false);
        bytes[payload + 1] = 126;
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path).unwrap().decode_partition(0);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.starts_with("partition 0:") && m.contains("neighbor 63")),
            "{err:?}"
        );
    }

    /// A stored weight rewritten to NaN, a negative or an infinity is
    /// refused by the decode like `Csr::new` refuses it.
    #[test]
    fn a_weight_the_weight_rule_refuses_is_refused() {
        let path = tmp("ring_weight");
        let (full, payload) = ring_file(&path, true);
        let at = payload + 3;
        assert_eq!(full[at..at + 4], 1.0f32.to_le_bytes());
        for bad in [f32::NAN, -1.0, f32::INFINITY] {
            let mut bytes = full.clone();
            bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            let err = OocGraph::open(&path).unwrap().decode_partition(0);
            assert!(
                matches!(&err, Err(GraphError::Format(m)) if m.starts_with("partition 0:")),
                "weight {bad}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// A fan-out on one scoped thread per group, so the groups of a
    /// grouped decode really run at once.
    fn on_threads(
        n: usize,
        f: &(dyn Fn(usize) -> Result<(), GraphError> + Sync),
    ) -> Vec<Result<(), GraphError>> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|g| s.spawn(move || f(g))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    fn plans(ooc: &OocGraph, p: u32) -> Vec<ChunkPlan> {
        let (i, region) = (p as usize, ooc.region(p).unwrap());
        parse_chunk_plans(
            &region,
            ooc.boundaries[i],
            ooc.boundaries[i + 1],
            ooc.part_edges[i],
        )
        .unwrap()
    }

    /// Every flavour, every partition, every group count from one to the
    /// partition's chunk count, on as many threads as groups: each decode
    /// equals `extract`.
    #[test]
    fn grouped_decode_matches_extract_at_every_group_count() {
        let base = powerlaw(11, 4, 17);
        for (name, csr) in [
            ("plain", base.clone()),
            ("weighted", with_random_weights(&base, 7)),
            ("temporal", with_random_timestamps(&base, 7, 1000)),
        ] {
            let pg = PartitionedGraph::build(Arc::new(csr), 32 << 10);
            let path = tmp(&format!("grouped_{name}"));
            write_oocore(&pg, &path).unwrap();
            let ooc = OocGraph::open(&path).unwrap();
            std::fs::remove_file(&path).ok();
            let mut most_chunks = 0;
            for p in 0..ooc.num_partitions() {
                let chunks = plans(&ooc, p).len();
                most_chunks = most_chunks.max(chunks);
                let want = pg.extract(p);
                for groups in 1..=chunks {
                    let got = ooc.decode_partition_with(p, groups, on_threads).unwrap();
                    assert_eq!(got, want, "{name} partition {p}, {groups} groups");
                }
            }
            assert!(
                most_chunks >= 3,
                "{name}: at most {most_chunks} chunks a partition"
            );
        }
    }

    /// A hub in a partition's first chunk: groups of equal chunk count
    /// would give one thread most of the edges. The edge-balanced cut
    /// keeps the larger of two groups within one chunk of half, and the
    /// decode is identical however many groups share it.
    #[test]
    fn skewed_partition_splits_by_edges_and_decodes_identically() {
        let (n, hub_degree) = (2048u32, 2000u32);
        let mut edges: Vec<u32> = (1..=hub_degree).collect();
        edges.extend((1..n).map(|v| (v + 1) % n));
        let offsets = (0..=n as u64).map(|v| if v == 0 { 0 } else { hub_degree as u64 + v - 1 });
        let csr = Csr::new(offsets.collect(), edges, None).unwrap();
        let pg = PartitionedGraph::build(Arc::new(csr), 32 << 10);
        let path = tmp("skewed");
        write_oocore(&pg, &path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let ne = ooc.partition_edges(0);
        let plans = plans(&ooc, 0);
        assert!(plans.len() >= 4, "partition 0 has {} chunks", plans.len());
        assert!(2 * plans[0].num_edges > ne, "the first chunk holds the hub");
        let ends = group_ends(&plans, ne, 2);
        assert_eq!(ends, [1, plans.len()], "the hub's chunk is its own group");
        let largest_chunk = plans.iter().map(|c| c.num_edges).max().unwrap();
        assert!(plans[0].num_edges <= ne / 2 + largest_chunk);
        let want = pg.extract(0);
        for groups in 1..=plans.len() {
            let ends = group_ends(&plans, ne, groups);
            assert_eq!((ends.len(), ends[groups - 1]), (groups, plans.len()));
            assert!(ends[0] >= 1 && ends.windows(2).all(|w| w[0] < w[1]));
            let got = ooc.decode_partition_with(0, groups, on_threads).unwrap();
            assert_eq!(got, want, "{groups} groups");
        }
        // More groups than chunks: one group per chunk.
        let got = ooc.decode_partition_with(0, 64, |n, f| {
            assert_eq!(n, plans.len());
            on_threads(n, f)
        });
        assert_eq!(got.unwrap(), want);
    }

    /// One opened file, read on four threads at once in different
    /// partition orders: positional reads share no cursor.
    #[test]
    fn concurrent_readers_share_one_ooc_graph() {
        let pg = PartitionedGraph::build(Arc::new(powerlaw(11, 8, 23)), 32 << 10);
        let path = tmp("concurrent");
        write_oocore(&pg, &path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let parts = ooc.num_partitions();
        std::thread::scope(|s| {
            for t in 0..4 {
                let (ooc, pg) = (&ooc, &pg);
                s.spawn(move || {
                    for p in (0..parts).map(|p| (p + t) % parts) {
                        assert_eq!(ooc.decode_partition(p).unwrap(), pg.extract(p), "{p}");
                    }
                });
            }
        });
    }

    /// Sorted power-law adjacency must compress well — the engine's whole
    /// premise. The CI bench gate enforces ≥ 2× on larger graphs; this is
    /// the in-tree canary.
    #[test]
    fn compression_ratio_exceeds_two_on_powerlaw() {
        let csr = Arc::new(powerlaw(12, 16, 3));
        let pg = PartitionedGraph::build(csr.clone(), 64 << 10);
        let path = tmp("ratio");
        let file_bytes = write_oocore(&pg, &path).unwrap();
        let ratio = csr.csr_bytes() as f64 / file_bytes as f64;
        assert!(
            ratio >= 2.0,
            "compression ratio {ratio:.2} below the 2x floor"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_garbage_and_truncation() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a graph at all").unwrap();
        assert!(OocGraph::open(&path).is_err());
        let csr = Arc::new(powerlaw(8, 8, 9));
        let pg = PartitionedGraph::build(csr, 8 << 10);
        write_oocore(&pg, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 7]).unwrap();
        assert!(OocGraph::open(&path).is_err(), "truncated file must fail");
        // A hostile partition count sizes no allocation: the table it
        // implies (~120 GB) is checked against the file first.
        let mut hostile = full.clone();
        hostile[25..29].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &hostile).unwrap();
        assert!(matches!(OocGraph::open(&path), Err(GraphError::Format(_))));
        std::fs::remove_file(&path).ok();
    }

    /// A header that claims 2^40 more edges in one partition (and in
    /// |E|, so the sum still matches) is refused by `open`, and a decode
    /// against such a count is refused too: neither sizes an allocation
    /// from it.
    #[test]
    fn hostile_edge_counts_are_refused_not_allocated() {
        let pg = PartitionedGraph::build(Arc::new(powerlaw(8, 8, 9)), 8 << 10);
        let path = tmp("hostile_edges");
        write_oocore(&pg, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        let p = ooc.num_partitions() as usize;
        let part_edges_at = HEADER_FIXED + 4 * (p + 1) + 8 * p;
        let bump = |bytes: &mut [u8], at: usize| {
            let v = u64::from_le_bytes(array_at(bytes, at)) + (1 << 40);
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        let mut hostile = full.clone();
        bump(&mut hostile, 17);
        bump(&mut hostile, part_edges_at);
        std::fs::write(&path, &hostile).unwrap();
        assert!(matches!(OocGraph::open(&path), Err(GraphError::Format(_))));
        std::fs::write(&path, &full).unwrap();
        let mut ooc = OocGraph::open(&path).unwrap();
        ooc.part_edges[0] += 1 << 40;
        assert!(matches!(
            ooc.decode_partition(0),
            Err(GraphError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn varint_zigzag_roundtrip() {
        for x in [0i64, 1, -1, 127, -128, 300, -300, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
        let mut buf = Vec::new();
        for x in [0u64, 1, 127, 128, 16384, u64::MAX] {
            buf.clear();
            put_varint(x, &mut buf);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(x));
            assert_eq!(pos, buf.len());
        }
    }
}
