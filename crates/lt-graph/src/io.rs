//! Graph serialization: text edge lists (SNAP-style) and `LTGRAPH2`, a
//! compact binary CSR (Figure 5's offsets + edges layout) with one
//! trailing checksum, for fast reload of generated stand-ins.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic "LTGRAPH2" | |V| u64 | |E| u64 | flags u64     32 bytes; flag 1 = weighted
//! offsets   u64 × (|V| + 1)
//! edges     u32 × |E|
//! weights   f32 × |E|                                  (weighted files)
//! checksum  u64                                        of every byte above
//! ```
//!
//! [`read_binary`] makes one pass over the file. It checks the file's
//! size against its header before it allocates anything, then reads the
//! body in 256 KiB pieces into one reused buffer, and for each
//! piece, while it is still in cache, feeds the checksum, decodes the
//! bytes into the final columns and checks them against the row contract
//! ([`Csr`]): offsets start at 0, never decrease and end at |E|; targets
//! are below |V|; weights pass `check_weights`. A value that breaks the
//! contract is reported only once the checksum has passed, so a file
//! whose bytes changed always names the checksum. An `LTGRAPH1` file
//! (the revision without a checksum) is refused, naming its revision.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::builder::BuiltGraph;
use crate::checksum::{Checksum, STRIPE};
use crate::csr::check_weights;
use crate::{Csr, GraphBuilder, GraphError, VertexId};
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Magic bytes of the binary CSR format, revision 2.
const MAGIC: &[u8; 8] = b"LTGRAPH2";

/// Magic bytes of revision 1, which had no checksum: refused by name.
const MAGIC_V1: &[u8; 8] = b"LTGRAPH1";

/// Header bytes: magic, |V|, |E| and flags. One checksum stripe.
const HEADER: usize = 32;

/// The file carries a weight column.
const FLAG_WEIGHTED: u64 = 1;

/// Bytes of the trailing checksum.
const TRAILER: usize = 8;

/// Bytes read, checksummed and decoded at a time: small enough to stay
/// in cache between the three, and a whole number of checksum stripes.
/// Every section starts at a multiple of its element size, so a piece
/// boundary never splits an element.
const PIECE: usize = 256 << 10;

/// Read a whitespace-separated edge list (`src dst` per line, `#` comments),
/// applying the paper's preprocessing via [`GraphBuilder`].
pub fn read_edge_list(path: impl AsRef<Path>) -> Result<BuiltGraph, GraphError> {
    let f = std::fs::File::open(path)?;
    read_edge_list_from(BufReader::new(f))
}

/// Like [`read_edge_list`] but from any reader.
pub fn read_edge_list_from(r: impl BufRead) -> Result<BuiltGraph, GraphError> {
    let mut b = GraphBuilder::new();
    for (idx, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<VertexId, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: idx + 1,
                message: "expected two vertex ids".into(),
            })?
            .parse::<VertexId>()
            .map_err(|e| GraphError::Parse {
                line: idx + 1,
                message: e.to_string(),
            })
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        b = b.add_edge(s, d);
    }
    b.build()
}

/// Write a CSR in the `LTGRAPH2` format. Timestamps are not stored.
pub fn write_binary(csr: &Csr, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let mut out = PieceWriter {
        file: File::create(path)?,
        buf: Vec::with_capacity(2 * PIECE),
        sum: Checksum::new(),
    };
    let flags = if csr.is_weighted() { FLAG_WEIGHTED } else { 0 };
    out.put(MAGIC)?;
    for word in [csr.num_vertices(), csr.num_edges(), flags] {
        out.put(&word.to_le_bytes())?;
    }
    for &o in csr.offsets() {
        out.put(&o.to_le_bytes())?;
    }
    for &e in csr.edges() {
        out.put(&e.to_le_bytes())?;
    }
    for &w in csr.weights().unwrap_or_default() {
        out.put(&w.to_le_bytes())?;
    }
    out.finish()
}

/// A file written in whole checksum stripes, its sum appended last.
struct PieceWriter {
    file: File,
    buf: Vec<u8>,
    sum: Checksum,
}

impl PieceWriter {
    fn put(&mut self, bytes: &[u8]) -> Result<(), GraphError> {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= PIECE {
            let whole = self.buf.len() / STRIPE * STRIPE;
            self.sum.update(&self.buf[..whole]);
            self.file.write_all(&self.buf[..whole])?;
            self.buf.drain(..whole);
        }
        Ok(())
    }

    fn finish(mut self) -> Result<(), GraphError> {
        let sum = self.sum.finish(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&self.buf)?;
        self.file.flush()?;
        Ok(())
    }
}

/// Read an `LTGRAPH2` file in one checksummed pass (module doc). A file
/// whose size, checksum or values do not match is
/// [`GraphError::Format`], and so is an `LTGRAPH1` file.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Csr, GraphError> {
    let mut f = File::open(path)?;
    let file_len = f.metadata()?.len();
    let mut header = [0u8; HEADER];
    let got = file_len.min(HEADER as u64) as usize;
    f.read_exact(&mut header[..got])?;
    if got >= MAGIC.len() && header[..8] == MAGIC_V1[..] {
        return Err(GraphError::Format(
            "an LTGRAPH1 file (the revision before checksums): regenerate it as LTGRAPH2".into(),
        ));
    }
    if got < MAGIC.len() || header[..8] != MAGIC[..] {
        return Err(GraphError::Format("bad magic: not an LTGRAPH2 file".into()));
    }
    if got < HEADER {
        return Err(GraphError::Format("truncated header".into()));
    }
    let field = |i: usize| {
        let mut word = [0; 8];
        word.copy_from_slice(&header[8 * i..8 * i + 8]);
        u64::from_le_bytes(word)
    };
    let (nv, ne, flags) = (field(1), field(2), field(3));
    if flags & !FLAG_WEIGHTED != 0 {
        return Err(GraphError::Format(format!("unknown flags {flags:#x}")));
    }
    let weighted = flags & FLAG_WEIGHTED != 0;
    // Checked: a hostile header must not wrap the expected size onto the
    // file's and so reach the allocations below.
    let columns = if weighted { 2 } else { 1 };
    let expected = nv
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .zip(ne.checked_mul(4 * columns))
        .and_then(|(offsets, edges)| offsets.checked_add(edges))
        .and_then(|body| body.checked_add((HEADER + TRAILER) as u64))
        .ok_or_else(|| {
            GraphError::Format(format!("header sizes overflow: {nv} vertices, {ne} edges"))
        })?;
    if file_len != expected {
        return Err(GraphError::Format(format!(
            "file is {file_len} bytes, its header describes {expected}"
        )));
    }
    // Every size below is now bounded by the file's, and fits a `usize`
    // once the file's size does.
    let file_len = usize::try_from(file_len)
        .map_err(|_| GraphError::Format(format!("{file_len} bytes do not fit in memory")))?;
    let (num_offsets, ne) = (nv as usize + 1, ne as usize);
    let mut cols = Columns {
        nv,
        num_offsets,
        ne,
        offsets: Vec::with_capacity(num_offsets),
        edges: Vec::with_capacity(ne),
        weights: weighted.then(|| Vec::with_capacity(ne)),
        bad: None,
    };
    let mut sum = Checksum::new();
    sum.update(&header);
    let mut left = file_len - HEADER;
    let mut buf = vec![0; left.min(PIECE + TRAILER)];
    let (computed, stored) = loop {
        // The last piece carries the trailer too, so it is never split.
        let n = if left <= PIECE + TRAILER { left } else { PIECE };
        let piece = &mut buf[..n];
        f.read_exact(piece)?;
        left -= n;
        if left == 0 {
            let (body, trailer) = piece.split_at(n - TRAILER);
            cols.push(body);
            let mut word = [0; TRAILER];
            word.copy_from_slice(trailer);
            break (sum.finish(body), u64::from_le_bytes(word));
        }
        sum.update(piece);
        cols.push(piece);
    };
    if computed != stored {
        return Err(GraphError::Format(
            "checksum mismatch: the file changed after it was written".into(),
        ));
    }
    cols.finish()
}

/// The columns of one `LTGRAPH2` file, decoded piece by piece and
/// checked as they grow.
struct Columns {
    nv: u64,
    /// |V| + 1 and |E|: the lengths the columns grow to.
    num_offsets: usize,
    ne: usize,
    offsets: Vec<u64>,
    edges: Vec<VertexId>,
    weights: Option<Vec<f32>>,
    /// The first value that breaks the row contract: reported only once
    /// the checksum has passed.
    bad: Option<GraphError>,
}

impl Columns {
    /// Decode and check `bytes`, the next piece of the body.
    fn push(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let taken = if self.offsets.len() < self.num_offsets {
                self.push_offsets(bytes)
            } else if self.edges.len() < self.ne {
                self.push_edges(bytes)
            } else {
                self.push_weights(bytes)
            };
            if taken == 0 {
                break;
            }
            bytes = &bytes[taken..];
        }
    }

    fn push_offsets(&mut self, bytes: &[u8]) -> usize {
        let start = self.offsets.len();
        let taken = extend(
            &mut self.offsets,
            self.num_offsets,
            bytes,
            u64::from_le_bytes,
        );
        // The new offsets and the one before them never decrease.
        let new = &self.offsets[start.saturating_sub(1)..];
        if new.windows(2).fold(false, |bad, w| bad | (w[0] > w[1])) {
            self.bad
                .get_or_insert_with(|| GraphError::Format("offsets must be non-decreasing".into()));
        }
        taken
    }

    fn push_edges(&mut self, bytes: &[u8]) -> usize {
        let start = self.edges.len();
        let taken = extend(&mut self.edges, self.ne, bytes, u32::from_le_bytes);
        let new = &self.edges[start..];
        let nv = self.nv;
        if u64::from(new.iter().fold(0, |m, &t| m.max(t))) >= nv {
            self.bad.get_or_insert_with(|| {
                let vertex = new.iter().find(|&&t| u64::from(t) >= nv).copied();
                GraphError::VertexOutOfRange {
                    vertex: vertex.map_or(0, u64::from),
                    num_vertices: nv,
                }
            });
        }
        taken
    }

    fn push_weights(&mut self, bytes: &[u8]) -> usize {
        let Some(weights) = &mut self.weights else {
            return 0;
        };
        let start = weights.len();
        let taken = extend(weights, self.ne, bytes, f32::from_le_bytes);
        if let Err(e) = check_weights(&weights[start..]) {
            self.bad.get_or_insert(e);
        }
        taken
    }

    /// The checked graph, or the first value that broke the contract.
    fn finish(self) -> Result<Csr, GraphError> {
        let ne = self.ne as u64;
        if let Some(e) = self.bad {
            return Err(e);
        }
        match (self.offsets.first(), self.offsets.last()) {
            (Some(0), Some(&last)) if last == ne => {}
            (Some(0), Some(last)) => {
                return Err(GraphError::Format(format!(
                    "last offset {last} != edge count {ne}"
                )))
            }
            _ => return Err(GraphError::Format("offsets[0] must be 0".into())),
        }
        Ok(Csr::from_checked(self.offsets, self.edges, self.weights))
    }
}

/// Decode whole `N`-byte elements of `bytes` onto `column`, up to `len`
/// elements in all; returns the bytes consumed.
fn extend<T, const N: usize>(
    column: &mut Vec<T>,
    len: usize,
    bytes: &[u8],
    decode: impl Fn([u8; N]) -> T,
) -> usize {
    let (elements, _) = bytes.as_chunks::<N>();
    let elements = &elements[..elements.len().min(len - column.len())];
    column.extend(elements.iter().map(|&e| decode(e)));
    elements.len() * N
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{rmat, with_random_weights, RmatParams};
    use std::io::Cursor;

    #[test]
    fn edge_list_roundtrip() {
        let text = "# comment\n0 1\n1 2\n\n% another comment\n2 0\n";
        let g = read_edge_list_from(Cursor::new(text)).unwrap().csr;
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 6); // triangle, undirected
    }

    #[test]
    fn edge_list_parse_error_reports_line() {
        let text = "0 1\nnot numbers\n";
        match read_edge_list_from(Cursor::new(text)) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn edge_list_missing_column() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list_from(Cursor::new(text)),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let g = rmat(RmatParams {
            scale: 10,
            edge_factor: 4,
            ..RmatParams::default()
        })
        .csr;
        let path = tmp("g.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g.offsets(), g2.offsets());
        assert_eq!(g.edges(), g2.edges());
        assert!(!g2.is_weighted());
    }

    #[test]
    fn binary_roundtrip_weighted() {
        let g = rmat(RmatParams {
            scale: 9,
            edge_factor: 4,
            ..RmatParams::default()
        })
        .csr;
        let g = with_random_weights(&g, 11);
        let path = tmp("gw.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g.weights(), g2.weights());
    }

    #[test]
    fn binary_rejects_garbage() {
        let path = tmp("bad.bin");
        std::fs::write(&path, b"NOTAGRAPHFILE_AT_ALL_____").unwrap();
        assert!(matches!(read_binary(&path), Err(GraphError::Format(_))));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(read_binary(&path), Err(GraphError::Format(_))));
        std::fs::write(&path, b"LTGRAPH2\x01\x00").unwrap();
        assert!(
            matches!(read_binary(&path), Err(GraphError::Format(m)) if m.contains("truncated"))
        );
        // Headers whose body size overflows `u64`: each used to panic.
        for (nv, ne, flags) in [
            (u64::MAX, 0, 0),
            (1 << 61, 0, 0),
            (1, 1 << 62, 0),
            (1, 1 << 61, FLAG_WEIGHTED),
        ] {
            let mut file = MAGIC.to_vec();
            for word in [nv, ne, flags] {
                file.extend_from_slice(&word.to_le_bytes());
            }
            file.extend_from_slice(&[0; 64]);
            std::fs::write(&path, &file).unwrap();
            assert!(
                matches!(read_binary(&path), Err(GraphError::Format(m)) if m.contains("overflow")),
                "nv {nv}, ne {ne}"
            );
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("lt_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The bytes of `g` in the `LTGRAPH2` format.
    fn file_of(g: &Csr, name: &str) -> Vec<u8> {
        let path = tmp(name);
        write_binary(g, &path).unwrap();
        std::fs::read(&path).unwrap()
    }

    /// Read `bytes` back as a file.
    fn read_bytes(bytes: &[u8], name: &str) -> Result<Csr, GraphError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        read_binary(&path)
    }

    /// Recompute the trailing checksum after a test edited `bytes`, so
    /// the edit reaches the checks behind it.
    fn reseal(bytes: &mut [u8]) {
        let covered = bytes.len() - TRAILER;
        let sum = crate::checksum::checksum(&bytes[..covered]);
        bytes[covered..].copy_from_slice(&sum.to_le_bytes());
    }

    fn small() -> Csr {
        Csr::new(
            vec![0, 2, 3, 4],
            vec![1, 2, 0, 0],
            Some(vec![0.5, 1.0, 2.0, 0.0]),
        )
        .unwrap()
    }

    /// The header, sections and checksum sit where the module doc says.
    #[test]
    fn layout_matches_the_doc() {
        let g = small();
        let bytes = file_of(&g, "layout.bin");
        assert_eq!(bytes.len(), HEADER + 4 * 8 + 4 * 4 + 4 * 4 + TRAILER);
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(
            bytes[8..32],
            [3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        );
        assert_eq!(bytes[32 + 8..32 + 16], 2u64.to_le_bytes());
        assert_eq!(bytes[64..68], 1u32.to_le_bytes());
        assert_eq!(bytes[80..84], 0.5f32.to_le_bytes());
        let mut resealed = bytes.clone();
        reseal(&mut resealed);
        assert_eq!(resealed, bytes);
    }

    /// A graph several pieces long reads back exactly, and a bit flipped
    /// at either side of a piece boundary, in any section, is named as a
    /// checksum mismatch.
    #[test]
    fn multi_piece_files_round_trip_and_any_flip_is_a_checksum_error() {
        let g = rmat(RmatParams {
            scale: 14,
            edge_factor: 8,
            ..RmatParams::default()
        })
        .csr;
        let g = with_random_weights(&g, 3);
        let bytes = file_of(&g, "pieces.bin");
        assert!(bytes.len() > 4 * PIECE, "{} bytes", bytes.len());
        let back = read_bytes(&bytes, "pieces.bin").unwrap();
        assert_eq!(back.offsets(), g.offsets());
        assert_eq!(back.edges(), g.edges());
        assert_eq!(back.weights(), g.weights());
        let last = bytes.len() - 1;
        for at in [
            40,
            PIECE - 1,
            PIECE,
            PIECE + HEADER,
            3 * PIECE + 7,
            last - TRAILER,
            last,
        ] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            let err = read_bytes(&flipped, "pieces.bin");
            assert!(
                matches!(&err, Err(GraphError::Format(m)) if m.contains("checksum")),
                "byte {at}: {err:?}"
            );
        }
    }

    /// Past the checksum, each clause of the row contract is checked.
    #[test]
    fn values_that_break_the_row_contract_are_refused() {
        let bytes = file_of(&small(), "contract.bin");
        let edits: [(usize, &[u8], &str); 5] = [
            (HEADER, &1u64.to_le_bytes(), "offsets[0]"),
            (HEADER + 8, &4u64.to_le_bytes(), "non-decreasing"),
            (HEADER + 24, &3u64.to_le_bytes(), "last offset"),
            (HEADER + 32 + 4, &3u32.to_le_bytes(), "out of range"),
            (HEADER + 48 + 8, &(-1.0f32).to_le_bytes(), "edge weight"),
        ];
        for (at, value, expect) in edits {
            let mut edited = bytes.clone();
            edited[at..at + value.len()].copy_from_slice(value);
            let err = read_bytes(&edited, "contract.bin");
            assert!(
                matches!(&err, Err(GraphError::Format(m)) if m.contains("checksum")),
                "{expect}: {err:?}"
            );
            reseal(&mut edited);
            let err = read_bytes(&edited, "contract.bin").unwrap_err().to_string();
            assert!(err.contains(expect), "{expect}: {err}");
        }
    }

    /// The order check spans pieces: offsets that decrease exactly
    /// where one piece ends and the next begins are refused too.
    #[test]
    fn a_decrease_across_a_piece_boundary_is_refused() {
        // A ring of n vertices: offsets 0, 2, 4, …, long enough that the
        // offsets alone fill the first piece.
        let n = PIECE as u32 / 8 + 100;
        let edges = (0..n)
            .flat_map(|v| [(v + n - 1) % n, (v + 1) % n])
            .collect();
        let ring = Csr::new((0..=u64::from(n)).map(|v| 2 * v).collect(), edges, None).unwrap();
        let mut bytes = file_of(&ring, "ring.bin");
        assert_eq!(
            read_bytes(&bytes, "ring.bin").unwrap().edges(),
            ring.edges()
        );
        // The first offset of the second piece, one below the last of the first.
        let first_of_next = HEADER + PIECE;
        let last = 2 * (PIECE as u64 / 8 - 1);
        bytes[first_of_next..first_of_next + 8].copy_from_slice(&(last - 1).to_le_bytes());
        reseal(&mut bytes);
        let err = read_bytes(&bytes, "ring.bin").unwrap_err().to_string();
        assert!(err.contains("non-decreasing"), "{err}");
    }

    /// A file of another size than its header describes, a flag this
    /// revision does not know and an `LTGRAPH1` file are each refused.
    #[test]
    fn sizes_flags_and_the_old_revision_are_checked() {
        let bytes = file_of(&small(), "sizes.bin");
        for len in [0, 7, 8, 31, 32, 33, bytes.len() - 1] {
            assert!(
                read_bytes(&bytes[..len], "sizes.bin").is_err(),
                "cut at {len}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        let err = read_bytes(&longer, "sizes.bin").unwrap_err().to_string();
        assert!(err.contains("header describes"), "{err}");
        let mut flagged = bytes.clone();
        flagged[24] |= 2;
        reseal(&mut flagged);
        let err = read_bytes(&flagged, "sizes.bin").unwrap_err().to_string();
        assert!(err.contains("unknown flags"), "{err}");
        let mut old = bytes.clone();
        old[..8].copy_from_slice(MAGIC_V1);
        let err = read_bytes(&old, "sizes.bin").unwrap_err();
        assert!(
            matches!(&err, GraphError::Format(m) if m.contains("LTGRAPH1")),
            "{err:?}"
        );
    }
}
