//! Out-of-core compressed CSR substrate (DESIGN.md §16).
//!
//! The paper's real datasets (TW/FS/UK/CW) are billion-edge; a RAM-resident
//! CSR caps what one box can serve. This module extends the paper's
//! traffic-optimization story one tier up: the graph lives on disk in a
//! **partition-granular compressed** form — bit-packed delta adjacency,
//! grouped into small fixed-vertex-count chunks with a per-partition
//! chunk directory — written once and read one region per positional read
//! (`pread`), so the **OS page cache is the residency policy** for the
//! compressed bytes exactly like the device graph pool is for GPU memory.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LTOOCGR2" | flags u8 | |V| u64 | |E| u64 | P u32 | block_bytes u64
//! boundaries  u32 × (P+1)          partition vertex ranges
//! part_bytes  u64 × P              uncompressed PartitionData bytes
//! part_edges  u64 × P              edges per partition
//! regions     u64 × (P+1)          absolute byte offset of each region
//! table_sum   u64                  checksum of every byte above
//! P × region:
//!   chunk_count u32
//!   chunk dir: { first_edge u64, payload_off u64, checksum u64 } × chunks
//!   payload: the chunks, back to back
//! chunk:
//!   degrees     blocks, one value per vertex
//!   neighbors   blocks, one zigzag delta per edge
//!   timestamps  blocks, one value per edge           (temporal files)
//!   weights     f32 × edges                          (weighted files)
//! block: width u8 | 8 × width bytes: 64 values of `width` bits, LSB first
//! ```
//!
//! A row for vertex `v` stores `zigzag(n₀ − v)`, then the zigzag
//! successive-neighbor differences — this round-trips **arbitrary**
//! neighbor order exactly (order determines sampling, so the codec must be
//! lossless in order, not just as a set) while packing the sorted rows the
//! preprocessed generators emit into a few bits per edge. A temporal row
//! stores `t₀`, then zigzag successive differences; it is in time order
//! (the [`Csr`] invariant), and the decoder refuses one that is not, as
//! [`GraphError::Format`] when the partition is first decoded. Time
//! order became the rule with no change of revision: a temporal
//! `LTOOCGR2` file written before it (rows vertex-sorted) opens, but its
//! partitions are refused on decode, and it must be rewritten from its
//! graph. Plain and weighted files are unaffected.
//! Differences are taken mod 2^32, so every value fits a `u32` and no
//! block is wider than 32 bits. Each stream is cut into blocks of 64
//! values (the last one padded with zeros), and a block is as wide as
//! its largest value: unpacking it is the same shifts and masks whatever
//! the values are, with no branch per value. The block codec itself is
//! `codec.rs`.
//!
//! Integrity: `table_sum` covers the header and partition table and is
//! checked by [`OocGraph::open`]; each directory entry carries the
//! checksum of its chunk's bytes, checked before any of them is unpacked,
//! so a flipped bit is [`GraphError::Corrupt`] naming the partition and
//! chunk, never wrong neighbors. An `LTOOCGR1` file (LEB128 rows, no
//! checksums) is refused by `open`, naming its revision.
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

use crate::checksum::checksum;
use crate::codec::{array_at, pack, truncated, unpack, unzigzag, zigzag, BLOCK_VALUES, SLACK};
use crate::csr::{check_weights, in_time_order};
use crate::partition::{PartitionData, PartitionedGraph};
use crate::{Csr, GraphError, VertexId};
use std::fs::File;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Magic bytes of the out-of-core compressed format, revision 2.
pub const OOC_MAGIC: &[u8; 8] = b"LTOOCGR2";

/// Vertices per compressed chunk: small enough that a partition splits
/// into many independently-decodable units for the `ExecPool` fan-out,
/// large enough that the 24-byte directory entry is noise (<0.1 bytes per
/// vertex at typical degrees).
pub const CHUNK_VERTICES: u32 = 256;

const FLAG_WEIGHTED: u8 = 1;
const FLAG_TEMPORAL: u8 = 2;

/// Fixed-size header prefix: magic + flags + |V| + |E| + P + block_bytes.
const HEADER_FIXED: usize = 8 + 1 + 8 + 8 + 4 + 8;

/// Directory entry size: first_edge u64 + payload_off u64 + checksum u64.
const DIR_ENTRY: usize = 8 + 8 + 8;

/// Bytes of the partition table after the fixed header, for `p`
/// partitions (the checksum that follows it excluded).
fn table_len(p: usize) -> usize {
    4 * (p + 1) + 8 * p + 8 * p + 8 * (p + 1)
}

/// `e`, naming partition `p` if it is a [`GraphError::Format`].
fn in_partition(p: u32, e: GraphError) -> GraphError {
    match e {
        GraphError::Format(m) => GraphError::Format(format!("partition {p}: {m}")),
        e => e,
    }
}

/// Refuse a partition of `vertices` rows and `edges` edges in a region of
/// `bytes`: every [`BLOCK_VALUES`] degrees and every [`BLOCK_VALUES`]
/// edges cost at least one byte.
fn check_fits(vertices: u32, edges: u64, bytes: u64) -> Result<(), GraphError> {
    if edges
        .saturating_add(vertices.into())
        .div_ceil(BLOCK_VALUES as u64)
        > bytes
    {
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
    /// The chunk's index in its partition.
    index: u32,
    /// First vertex of the chunk (global id, inclusive).
    v_start: VertexId,
    /// Last vertex of the chunk (global id, exclusive).
    v_end: VertexId,
    /// Index of the chunk's first edge, relative to the partition start.
    first_edge: u64,
    /// Number of edges in the chunk.
    num_edges: u64,
    /// The chunk's bytes within the region.
    bytes: Range<usize>,
    /// [`checksum`] of those bytes, from the directory.
    checksum: u64,
}

/// Parse a partition region's chunk directory into decode plans.
///
/// `v_start..v_end` is the partition's vertex range and `part_edges` its
/// edge count (both from the file header); they bound the directory so a
/// corrupt region fails cleanly instead of mis-slicing output buffers.
/// Chunk `i` holds the partition's vertices from `i × CHUNK_VERTICES` on,
/// so the directory stores only where its edges and bytes start.
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
    let count = u32::from_le_bytes(array_at(region, 0));
    let expect = (v_end - v_start).div_ceil(CHUNK_VERTICES).max(1);
    if count != expect {
        return Err(GraphError::Format(format!(
            "chunk directory has {count} entries, partition needs {expect}"
        )));
    }
    let dir_end = 4 + count as usize * DIR_ENTRY;
    if region.len() < dir_end {
        return Err(truncated());
    }
    let payload_len = (region.len() - dir_end) as u64;
    // (first_edge, payload_off, checksum) of entry `i`; the entry past
    // the last is the partition's end.
    let entry = |i: u32| {
        if i == count {
            return (part_edges, payload_len, 0);
        }
        let e = 4 + i as usize * DIR_ENTRY;
        let u64_at = |k: usize| u64::from_le_bytes(array_at(region, e + 8 * k));
        (u64_at(0), u64_at(1), u64_at(2))
    };
    if entry(0).0 != 0 || entry(0).1 != 0 {
        return Err(GraphError::Format(
            "chunk directory does not start at the partition start".into(),
        ));
    }
    (0..count)
        .map(|i| {
            let ((first_edge, off, checksum), (next_edge, next_off, _)) = (entry(i), entry(i + 1));
            // Chunks tile the partition's edges and payload in order, so a
            // decode can hand them consecutive output spans.
            if next_edge < first_edge || next_off < off || next_off > payload_len {
                return Err(GraphError::Format(
                    "chunk directory is not monotone over the partition range".into(),
                ));
            }
            let first_vertex = v_start + i * CHUNK_VERTICES;
            Ok(ChunkPlan {
                index: i,
                v_start: first_vertex,
                v_end: first_vertex.saturating_add(CHUNK_VERTICES).min(v_end),
                first_edge,
                num_edges: next_edge - first_edge,
                bytes: dir_end + off as usize..dir_end + next_off as usize,
                checksum,
            })
        })
        .collect()
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

/// Decode one chunk of partition `p` of a graph with `num_vertices`
/// vertices into its spans. `region` is the region's read buffer, padded
/// with [`SLACK`] bytes. The chunk's bytes must match the directory's
/// checksum before any is unpacked: a mismatch is
/// [`GraphError::Corrupt`]. `offsets` receives the partition-relative
/// edge start of each row; the caller writes the final `offsets[n] =
/// part_edges` sentinel once, after all chunks. Degrees that do not sum
/// to the directory's edge count, a neighbor outside `0..num_vertices`, a
/// timestamped row out of time order ([`Csr`]), a weight
/// [`check_weights`] refuses, or bytes left over are a
/// [`GraphError::Format`]. Nothing is allocated: the degrees are unpacked
/// onto the stack, every other stream straight into its span.
fn decode_chunk(region: &[u8], p: u32, num_vertices: u64, out: ChunkOut) -> Result<(), GraphError> {
    let ChunkOut {
        plan,
        offsets,
        edges,
        weights,
        timestamps,
    } = out;
    let (src, len) = (&region[plan.bytes.start..], plan.bytes.len());
    if checksum(&src[..len]) != plan.checksum {
        return Err(GraphError::Corrupt {
            partition: p,
            chunk: plan.index,
        });
    }
    let mut pos = 0;
    let mut degrees = [0u32; CHUNK_VERTICES as usize];
    let degrees = &mut degrees[..offsets.len()];
    unpack(src, &mut pos, len, degrees)?;
    let mut at = plan.first_edge;
    for (o, &d) in offsets.iter_mut().zip(&*degrees) {
        *o = at;
        at += u64::from(d);
    }
    if at - plan.first_edge != plan.num_edges {
        return Err(GraphError::Format(
            "row degrees do not sum to the chunk's edge count".into(),
        ));
    }
    // Unzigzag and the range check run over the whole span, where they
    // vectorize; only the per-row prefix add is serial.
    unpack(src, &mut pos, len, edges)?;
    for n in edges.iter_mut() {
        *n = unzigzag(*n);
    }
    let mut rest = &mut *edges;
    for (v, &d) in (plan.v_start..plan.v_end).zip(&*degrees) {
        let mut prev = v;
        for n in take_front(&mut rest, d as usize) {
            prev = prev.wrapping_add(*n);
            *n = prev;
        }
    }
    if u64::from(edges.iter().fold(0, |m, &n| m.max(n))) >= num_vertices {
        let k = edges
            .iter()
            .position(|&n| u64::from(n) >= num_vertices)
            .unwrap_or_default();
        let v =
            plan.v_start + offsets.partition_point(|&o| o - plan.first_edge <= k as u64) as u32 - 1;
        return Err(GraphError::Format(format!(
            "vertex {v} has neighbor {}, outside the graph's {num_vertices} vertices",
            edges[k]
        )));
    }
    if let Some(ts) = timestamps {
        unpack(src, &mut pos, len, ts)?;
        let (mut rest, mut targets) = (ts, &*edges);
        for (v, &d) in (plan.v_start..).zip(&*degrees) {
            let row = take_front(&mut rest, d as usize);
            if let Some((first, tail)) = row.split_first_mut() {
                let mut prev = *first;
                for t in tail {
                    prev = prev.wrapping_add(unzigzag(*t));
                    *t = prev;
                }
            }
            let (row_targets, more) = targets.split_at(d as usize);
            targets = more;
            if !in_time_order(row_targets, row) {
                return Err(GraphError::Format(format!(
                    "vertex {v}'s row is not in (timestamp, target) order; a temporal \
                     file written before rows were kept in time order must be rewritten"
                )));
            }
        }
    }
    if let Some(ws) = weights {
        let raw = src[..len]
            .get(pos..pos + 4 * ws.len())
            .ok_or_else(truncated)?;
        for (w, b) in ws.iter_mut().zip(raw.chunks_exact(4)) {
            *w = f32::from_le_bytes(array_at(b, 0));
        }
        check_weights(ws)?;
        pos += raw.len();
    }
    if pos != len {
        return Err(GraphError::Format(
            "chunk holds bytes past its streams".into(),
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
    let header_len = HEADER_FIXED + table_len(p) + 8;
    for part in 0..p as u32 {
        regions.push(header_len as u64 + body.len() as u64);
        let data = pg.read_block(part)?;
        part_bytes.push(data.bytes());
        part_edges.push(data.edges.len() as u64);
        encode_region(&data, &mut body)?;
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
    header.extend_from_slice(&checksum(&header).to_le_bytes());
    debug_assert_eq!(header.len(), header_len);

    let mut f = File::create(path)?;
    f.write_all(&header)?;
    f.write_all(&body)?;
    f.sync_all()?;
    Ok(header.len() as u64 + body.len() as u64)
}

/// Encode one partition's region (chunk directory + payload) onto `out`.
/// A row of 2^32 or more edges has no `u32` degree and is refused.
fn encode_region(data: &PartitionData, out: &mut Vec<u8>) -> Result<(), GraphError> {
    let n = data.v_end - data.v_start;
    let chunks = n.div_ceil(CHUNK_VERTICES).max(1);
    out.extend_from_slice(&chunks.to_le_bytes());
    let dir_start = out.len();
    out.resize(dir_start + chunks as usize * DIR_ENTRY, 0);
    let payload_base = out.len();
    let mut values = Vec::new();
    for c in 0..chunks {
        let lo = (c * CHUNK_VERTICES) as usize;
        let hi = (lo + CHUNK_VERTICES as usize).min(n as usize);
        let rows = &data.offsets[lo..=hi];
        let (e0, e1) = (rows[0] as usize, rows[hi - lo] as usize);
        let chunk_start = out.len();

        values.clear();
        for w in rows.windows(2) {
            values.push(
                u32::try_from(w[1] - w[0])
                    .map_err(|_| GraphError::Format("a row has 2^32 or more edges".into()))?,
            );
        }
        pack(&values, out);
        values.clear();
        for (v, w) in (data.v_start + lo as u32..data.v_end).zip(rows.windows(2)) {
            let mut prev = v;
            for &u in &data.edges[w[0] as usize..w[1] as usize] {
                values.push(zigzag(u.wrapping_sub(prev)));
                prev = u;
            }
        }
        pack(&values, out);
        if let Some(ts) = &data.timestamps {
            values.clear();
            for w in rows.windows(2) {
                if let Some((&t0, rest)) = ts[w[0] as usize..w[1] as usize].split_first() {
                    values.push(t0);
                    let mut prev = t0;
                    for &t in rest {
                        values.push(zigzag(t.wrapping_sub(prev)));
                        prev = t;
                    }
                }
            }
            pack(&values, out);
        }
        if let Some(ws) = &data.weights {
            for w in &ws[e0..e1] {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }

        let sum = checksum(&out[chunk_start..]);
        let e = dir_start + c as usize * DIR_ENTRY;
        out[e..e + 8].copy_from_slice(&(e0 as u64).to_le_bytes());
        out[e + 8..e + 16].copy_from_slice(&((chunk_start - payload_base) as u64).to_le_bytes());
        out[e + 16..e + 24].copy_from_slice(&sum.to_le_bytes());
    }
    Ok(())
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
    /// Open `path`, validating the header and partition table against
    /// their checksum and each other. Adjacency stays on disk until a
    /// partition is decoded. A file of another revision of this format
    /// is a [`GraphError::Format`] naming the revision.
    pub fn open(path: &Path) -> Result<OocGraph, GraphError> {
        let f = File::open(path)?;
        let mut fixed = [0u8; HEADER_FIXED];
        read_exact_at(&f, &mut fixed, 0)?;
        let magic = &fixed[0..8];
        if magic != OOC_MAGIC {
            return Err(GraphError::Format(if magic[..7] == OOC_MAGIC[..7] {
                format!(
                    "{} is another revision of the out-of-core format; this build reads {} only, so write the file again",
                    String::from_utf8_lossy(magic),
                    String::from_utf8_lossy(OOC_MAGIC)
                )
            } else {
                "bad magic (not an out-of-core graph file)".into()
            }));
        }
        let flags = fixed[8];
        let num_vertices = u64::from_le_bytes(array_at(&fixed, 9));
        let num_edges = u64::from_le_bytes(array_at(&fixed, 17));
        let p = u32::from_le_bytes(array_at(&fixed, 25)) as usize;
        let block_bytes = u64::from_le_bytes(array_at(&fixed, 29));
        if p == 0 || num_vertices == 0 {
            return Err(GraphError::Format("empty partition table".into()));
        }
        let covered = HEADER_FIXED + table_len(p);
        // Checked before the allocation a hostile partition count sizes.
        let file_len = f.metadata()?.len();
        if (covered + 8) as u64 > file_len {
            return Err(GraphError::Format(
                "partition table exceeds the file".into(),
            ));
        }
        let mut header = vec![0u8; covered + 8];
        read_exact_at(&f, &mut header, 0)?;
        if checksum(&header[..covered]) != u64::from_le_bytes(array_at(&header, covered)) {
            return Err(GraphError::Format(
                "header checksum mismatch: the header or partition table is corrupt".into(),
            ));
        }
        // The four arrays back to back; `table` holds exactly them.
        let table = &header[HEADER_FIXED..covered];
        let boundaries: Vec<VertexId> = (0..=p)
            .map(|i| u32::from_le_bytes(array_at(table, 4 * i)))
            .collect();
        let u64s = |first: usize, n: usize| -> Vec<u64> {
            (0..n)
                .map(|i| u64::from_le_bytes(array_at(table, first + 8 * i)))
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
        // far from overflow.
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
    /// buffer filled by one positional read and followed by [`SLACK`]
    /// zero bytes. A file cut short since [`OocGraph::open`] fails here
    /// with [`GraphError::Io`].
    fn region(&self, p: u32) -> Result<Vec<u8>, GraphError> {
        let lo = self.regions[p as usize];
        let len = (self.regions[p as usize + 1] - lo) as usize;
        let mut buf = vec![0u8; len + SLACK];
        read_exact_at(&self.file, &mut buf[..len], lo)?;
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
    /// returned, the lowest failing group's first; a chunk whose bytes
    /// fail their checksum is [`GraphError::Corrupt`], and a block that
    /// would break the row contract [`Csr::new`] checks (a neighbor
    /// outside the graph, a weight that is not finite and non-negative)
    /// is a [`GraphError::Format`] naming `p`.
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
        let plans = parse_chunk_plans(&region[..region.len() - SLACK], v_start, v_end, ne)
            .map_err(|e| in_partition(p, e))?;
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
                .try_for_each(|c| decode_chunk(&region, p, self.num_vertices, c))
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

    /// Recompute every checksum of the file `bytes` after a test edited
    /// them, so that the edit reaches the checks behind the checksums.
    fn reseal(bytes: &mut [u8]) {
        let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(array_at(b, at)) as usize;
        let p = u32::from_le_bytes(array_at(bytes, 25)) as usize;
        let covered = HEADER_FIXED + table_len(p);
        let regions: Vec<usize> = (0..=p)
            .map(|i| u64_at(bytes, HEADER_FIXED + 4 * (p + 1) + 16 * p + 8 * i))
            .collect();
        for r in regions.windows(2) {
            let count = u32::from_le_bytes(array_at(bytes, r[0])) as usize;
            let base = r[0] + 4 + count * DIR_ENTRY;
            for c in 0..count {
                let e = r[0] + 4 + c * DIR_ENTRY;
                let end = match c + 1 < count {
                    true => base + u64_at(bytes, e + DIR_ENTRY + 8),
                    false => r[1],
                };
                let sum = checksum(&bytes[base + u64_at(bytes, e + 8)..end]);
                bytes[e + 16..e + 24].copy_from_slice(&sum.to_le_bytes());
            }
        }
        let sum = checksum(&bytes[..covered]);
        bytes[covered..covered + 8].copy_from_slice(&sum.to_le_bytes());
    }

    /// A directory whose first chunk starts past the partition's first
    /// edge or byte is refused, not decoded into shifted spans.
    #[test]
    fn a_directory_that_skips_the_partition_start_is_refused() {
        let pg = PartitionedGraph::build(Arc::new(powerlaw(9, 8, 29)), 8 << 10);
        let path = tmp("skipped_start");
        write_oocore(&pg, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let entry = OocGraph::open(&path).unwrap().regions[0] as usize + 4;
        for (field, at) in [("first edge", entry), ("payload offset", entry + 8)] {
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

    /// A 12-vertex ring (every weight 1.0 if `weighted`, every stamp 1 if
    /// `stamped`) written to `path`, as bytes, and the absolute byte range
    /// of partition 0's one chunk. The chunk opens with the degree block
    /// (width 2: every degree is 2), then the neighbor block, whose first
    /// value is vertex 0's zigzag(+1) = 2 and whose width is 5 for vertex
    /// 0's second, zigzag(+10) = 20; the stamps follow, at byte 58, each
    /// row a 1 and a zigzag(0) = 0, so a block of width 1; the weights
    /// end it.
    fn ring_file(path: &Path, weighted: bool, stamped: bool) -> (Vec<u8>, Range<usize>) {
        let n = 12u32;
        let edges: Vec<VertexId> = (0..n)
            .flat_map(|v| {
                let (lo, hi) = ((v + 1) % n, (v + n - 1) % n);
                [lo.min(hi), lo.max(hi)]
            })
            .collect();
        let weights = weighted.then(|| vec![1.0; edges.len()]);
        let stamps = stamped.then(|| vec![1; edges.len()]);
        let offsets = (0..=u64::from(n)).map(|v| 2 * v).collect();
        let csr = Csr::with_timestamps(offsets, edges, weights, stamps).unwrap();
        write_oocore(&PartitionedGraph::build(Arc::new(csr), 64), path).unwrap();
        let ooc = OocGraph::open(path).unwrap();
        let [chunk] = &plans(&ooc, 0)[..] else {
            panic!("partition 0 is one chunk")
        };
        let base = ooc.regions[0] as usize;
        let bytes = std::fs::read(path).unwrap();
        let at = base + chunk.bytes.start;
        assert_eq!(bytes[at], 2);
        assert_eq!((bytes[at + 17], bytes[at + 18] & 0x1f), (5, 2));
        (bytes, base + chunk.bytes.start..base + chunk.bytes.end)
    }

    /// Vertex 0's first neighbor delta rewritten to zigzag(+15) = 30, and
    /// the checksums recomputed: the decode refuses neighbor 15 of 12,
    /// naming the partition, instead of handing the engine a vertex no
    /// partition holds.
    #[test]
    fn a_neighbor_outside_the_graph_is_refused() {
        let path = tmp("ring_neighbor");
        let (mut bytes, chunk) = ring_file(&path, false, false);
        let at = chunk.start + 18;
        bytes[at] = (bytes[at] & !0x1f) | 30;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path).unwrap().decode_partition(0);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.starts_with("partition 0:") && m.contains("neighbor 15")),
            "{err:?}"
        );
    }

    /// A stored weight rewritten to NaN, a negative or an infinity, with
    /// the checksums recomputed, is refused by the decode like `Csr::new`
    /// refuses it.
    #[test]
    fn a_weight_the_weight_rule_refuses_is_refused() {
        let path = tmp("ring_weight");
        let (full, chunk) = ring_file(&path, true, false);
        let edges = OocGraph::open(&path).unwrap().partition_edges(0) as usize;
        let at = chunk.end - 4 * edges;
        assert_eq!(full[at..at + 4], 1.0f32.to_le_bytes());
        for bad in [f32::NAN, -1.0, f32::INFINITY] {
            let mut bytes = full.clone();
            bytes[at..at + 4].copy_from_slice(&bad.to_le_bytes());
            reseal(&mut bytes);
            std::fs::write(&path, &bytes).unwrap();
            let err = OocGraph::open(&path).unwrap().decode_partition(0);
            assert!(
                matches!(&err, Err(GraphError::Format(m)) if m.starts_with("partition 0:")),
                "weight {bad}: {err:?}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Vertex 0's second stamp delta rewritten from zigzag(0) to
    /// zigzag(-1), and the checksums recomputed: the decode refuses the
    /// row, stamped 1 then 0, as out of time order, naming the partition
    /// and the vertex and saying the file must be rewritten, instead of
    /// handing a temporal walk a row its window search cannot read.
    #[test]
    fn an_out_of_order_temporal_row_is_refused() {
        let path = tmp("ring_stamps");
        let (mut bytes, chunk) = ring_file(&path, false, true);
        OocGraph::open(&path).unwrap().decode_partition(0).unwrap();
        let at = chunk.start + 58;
        // Width 1; vertex 0's values are bits 0 and 1: 1, then 0.
        assert_eq!((bytes[at], bytes[at + 1] & 0b11), (1, 0b01));
        bytes[at + 1] |= 0b10;
        reseal(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path).unwrap().decode_partition(0);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.starts_with("partition 0:")
                && m.contains("vertex 0's row is not in (timestamp, target) order")
                && m.contains("must be rewritten")),
            "{err:?}"
        );
    }

    /// A block width byte above 32, with the checksums recomputed, is a
    /// format error: no `u32` value or mod-2^32 zigzag delta needs it.
    #[test]
    fn an_over_wide_block_is_a_format_error() {
        let path = tmp("ring_wide");
        let (mut bytes, chunk) = ring_file(&path, false, false);
        for (block, width) in [(chunk.start, 33), (chunk.start + 17, 255)] {
            let mut bad = bytes.clone();
            bad[block] = width;
            reseal(&mut bad);
            std::fs::write(&path, &bad).unwrap();
            let err = OocGraph::open(&path).unwrap().decode_partition(0);
            assert!(
                matches!(&err, Err(GraphError::Format(m)) if m.contains(&format!("block width {width}"))),
                "{err:?}"
            );
        }
        // Unsealed, the same edit is caught by the checksum first.
        bytes[chunk.start] = 33;
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path).unwrap().decode_partition(0);
        std::fs::remove_file(&path).ok();
        assert!(
            matches!(
                err,
                Err(GraphError::Corrupt {
                    partition: 0,
                    chunk: 0
                })
            ),
            "{err:?}"
        );
    }

    /// An `LTOOCGR1` file is refused by `open` with an error naming its
    /// revision; other magic is not a graph file at all.
    #[test]
    fn an_older_revision_is_refused_and_named() {
        let path = tmp("gr1");
        write_oocore(
            &PartitionedGraph::build(Arc::new(powerlaw(8, 8, 5)), 8 << 10),
            &path,
        )
        .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"LTOOCGR1");
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path);
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.starts_with("LTOOCGR1 is another revision") && m.contains("LTOOCGR2")),
            "{err:?}"
        );
        bytes[..8].copy_from_slice(b"LTGRAPH1");
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(&err, Err(GraphError::Format(m)) if m.starts_with("bad magic")));
    }

    /// One bit flipped in a chunk's bytes is `Corrupt` naming that
    /// partition and chunk, whatever its neighbors would have decoded
    /// to, and every other partition still decodes; one flipped in the
    /// header or partition table fails `open`.
    #[test]
    fn a_flipped_bit_is_corrupt_naming_its_chunk() {
        let pg = PartitionedGraph::build(Arc::new(powerlaw(11, 4, 31)), 32 << 10);
        let path = tmp("flipped");
        write_oocore(&pg, &path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        let (p, c) = (1u32, 2usize);
        let chunk = plans(&ooc, p)[c].bytes.clone();
        let base = ooc.regions[p as usize] as usize;
        for at in [chunk.start, (chunk.start + chunk.end) / 2, chunk.end - 1] {
            let mut bytes = full.clone();
            bytes[base + at] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let ooc = OocGraph::open(&path).unwrap();
            for q in 0..ooc.num_partitions() {
                let got = ooc.decode_partition(q);
                match q == p {
                    true => assert!(
                        matches!(
                            got,
                            Err(GraphError::Corrupt {
                                partition: 1,
                                chunk: 2
                            })
                        ),
                        "{got:?}"
                    ),
                    false => assert_eq!(got.unwrap(), pg.extract(q)),
                }
            }
        }
        let mut bytes = full.clone();
        bytes[HEADER_FIXED + 5] ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        let err = OocGraph::open(&path);
        std::fs::remove_file(&path).ok();
        assert!(matches!(&err, Err(GraphError::Format(m)) if m.contains("checksum")));
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
            &region[..region.len() - SLACK],
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
    /// |E|, so the sum still matches), its checksum recomputed, is
    /// refused by `open`, and a decode against such a count is refused
    /// too: neither sizes an allocation from it.
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
        reseal(&mut hostile);
        std::fs::write(&path, &hostile).unwrap();
        let err = OocGraph::open(&path);
        assert!(
            matches!(&err, Err(GraphError::Format(m)) if m.contains("exceeds its region")),
            "{err:?}"
        );
        std::fs::write(&path, &full).unwrap();
        let mut ooc = OocGraph::open(&path).unwrap();
        ooc.part_edges[0] += 1 << 40;
        assert!(matches!(
            ooc.decode_partition(0),
            Err(GraphError::Format(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
