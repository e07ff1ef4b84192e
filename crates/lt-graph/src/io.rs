//! Graph serialization: text edge lists (SNAP-style) and a compact binary
//! CSR format for fast reload of generated stand-ins.

use crate::builder::BuiltGraph;
use crate::{Csr, GraphBuilder, GraphError, VertexId};
use bytes::{Buf, BufMut};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"LTGRAPH1";

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

/// Write a CSR to the compact binary format.
pub fn write_binary(csr: &Csr, path: impl AsRef<Path>) -> Result<(), GraphError> {
    let f = std::fs::File::create(path)?;
    let mut w = BufWriter::new(f);
    let mut header = Vec::with_capacity(32);
    header.put_slice(MAGIC);
    header.put_u64_le(csr.num_vertices());
    header.put_u64_le(csr.num_edges());
    header.put_u8(u8::from(csr.is_weighted()));
    w.write_all(&header)?;
    let mut buf = Vec::with_capacity(csr.offsets().len() * 8);
    for &o in csr.offsets() {
        buf.put_u64_le(o);
    }
    w.write_all(&buf)?;
    buf.clear();
    for &e in csr.edges() {
        buf.put_u32_le(e);
    }
    w.write_all(&buf)?;
    if let Some(weights) = csr.weights() {
        buf.clear();
        for &x in weights {
            buf.put_f32_le(x);
        }
        w.write_all(&buf)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a CSR from the compact binary format, re-validating all invariants.
pub fn read_binary(path: impl AsRef<Path>) -> Result<Csr, GraphError> {
    let mut f = std::fs::File::open(path)?;
    let mut raw = Vec::new();
    f.read_to_end(&mut raw)?;
    let mut buf = &raw[..];
    if buf.remaining() < 25 {
        return Err(GraphError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(GraphError::Format("bad magic".into()));
    }
    let nv = buf.get_u64_le();
    let ne = buf.get_u64_le();
    let weighted = buf.get_u8() != 0;
    // Checked: a hostile header must not wrap `need` below the body size
    // and so reach the allocations below.
    let edge_bytes = if weighted { 8 } else { 4 };
    let need = nv
        .checked_add(1)
        .and_then(|n| n.checked_mul(8))
        .zip(ne.checked_mul(edge_bytes))
        .and_then(|(offsets, edges)| offsets.checked_add(edges))
        .ok_or_else(|| {
            GraphError::Format(format!("header sizes overflow: {nv} vertices, {ne} edges"))
        })?;
    if (buf.remaining() as u64) < need {
        return Err(GraphError::Format(format!(
            "truncated body: need {need} bytes, have {}",
            buf.remaining()
        )));
    }
    let mut offsets = Vec::with_capacity(nv as usize + 1);
    for _ in 0..=nv {
        offsets.push(buf.get_u64_le());
    }
    let mut edges = Vec::with_capacity(ne as usize);
    for _ in 0..ne {
        edges.push(buf.get_u32_le());
    }
    let weights = if weighted {
        let mut w = Vec::with_capacity(ne as usize);
        for _ in 0..ne {
            w.push(buf.get_f32_le());
        }
        Some(w)
    } else {
        None
    };
    Csr::new(offsets, edges, weights)
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
        let dir = std::env::temp_dir().join("lt_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bin");
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
        let dir = std::env::temp_dir().join("lt_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gw.bin");
        write_binary(&g, &path).unwrap();
        let g2 = read_binary(&path).unwrap();
        assert_eq!(g.weights(), g2.weights());
    }

    #[test]
    fn binary_rejects_garbage() {
        let dir = std::env::temp_dir().join("lt_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, b"NOTAGRAPHFILE_AT_ALL_____").unwrap();
        assert!(matches!(read_binary(&path), Err(GraphError::Format(_))));
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(read_binary(&path), Err(GraphError::Format(_))));
        // Headers whose body size overflows `u64`: each used to panic.
        for (nv, ne) in [(u64::MAX, 0), (1 << 61, 0), (1, 1 << 62)] {
            let mut file = MAGIC.to_vec();
            file.put_u64_le(nv);
            file.put_u64_le(ne);
            file.put_u8(0);
            file.put_slice(&[0; 64]);
            std::fs::write(&path, &file).unwrap();
            assert!(
                matches!(read_binary(&path), Err(GraphError::Format(_))),
                "nv {nv}, ne {ne}"
            );
        }
    }
}
