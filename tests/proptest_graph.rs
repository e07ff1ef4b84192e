//! Property-based tests of the graph substrate: the builder's
//! preprocessing, CSR structure, the range partitioner's invariants,
//! binary serialization — DESIGN.md invariants 1, 2 and 7 — the
//! out-of-core format's decode of corrupt payloads, and the evolving
//! layer's epoch seal (§15).
//!
//! Generators live in [`common`] and are shared with `proptest_engine`
//! and `differential`.

mod common;

use common::{build_csr, edges_strategy, materialize_update, raw_updates_strategy};
use lighttraffic::graph::delta::{DeltaGraph, EdgeOp};
use lighttraffic::graph::gen::{with_random_timestamps, with_random_weights};
use lighttraffic::graph::oocore::write_oocore;
use lighttraffic::graph::{io, Csr, GraphError, OocGraph, PartitionedGraph, VertexId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// `LTGRAPH2` header counts: the values whose body size overflows
/// `u64`, small honest ones, and anything.
fn header_field() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(u64::MAX),
        Just(1u64 << 61),
        Just(1u64 << 62),
        0u64..64,
        any::<u64>(),
    ]
}

/// Where a byte of an `LTOOCGR2` file sits.
#[derive(Clone, Copy, Debug, PartialEq)]
enum OocSection {
    /// The fixed header, the partition table or its checksum.
    Header,
    /// Partition `p`'s chunk count or directory.
    Directory(u32),
    /// Chunk `c` of partition `p`.
    Chunk(u32, u32),
}

/// The section of byte `at` of an `LTOOCGR2` file. The layout is
/// `oocore.rs`'s: a 37-byte fixed header with the partition count P at
/// byte 25, then P + 1 u32 boundaries, P u64 partition sizes, P u64 edge
/// counts, P + 1 u64 region offsets and a u64 checksum; a region is a
/// u32 chunk count, 24 bytes a chunk (first edge, payload offset,
/// checksum), then the chunks back to back.
fn ooc_section(bytes: &[u8], at: usize) -> OocSection {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let p = u32_at(25);
    let regions: Vec<usize> = (0..=p)
        .map(|i| u64_at(37 + 4 * (p + 1) + 16 * p + 8 * i))
        .collect();
    if at < regions[0] {
        return OocSection::Header;
    }
    let part = regions.partition_point(|&r| r <= at) - 1;
    let count = u32_at(regions[part]);
    let base = regions[part] + 4 + 24 * count;
    if at < base {
        return OocSection::Directory(part as u32);
    }
    let chunk = (0..count)
        .take_while(|&c| base + u64_at(regions[part] + 4 + 24 * c + 8) <= at)
        .count()
        - 1;
    OocSection::Chunk(part as u32, chunk as u32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn preprocessing_invariants(edges in edges_strategy()) {
        let Some(g) = build_csr(&edges) else {
            // Every edge was a self loop: Empty error is correct.
            prop_assert!(edges.iter().all(|(s, d)| s == d));
            return Ok(());
        };
        for v in 0..g.num_vertices() as u32 {
            let nbrs = g.neighbors(v);
            // No zero-degree vertices survive.
            prop_assert!(!nbrs.is_empty());
            // No self loops, sorted, deduped.
            prop_assert!(!nbrs.contains(&v));
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]));
            // Undirected symmetry.
            for &u in nbrs {
                prop_assert!(g.neighbors(u).binary_search(&v).is_ok());
            }
        }
    }

    #[test]
    fn builder_preserves_connectivity_of_inputs(edges in edges_strategy()) {
        let Some(g) = build_csr(&edges) else { return Ok(()); };
        // The number of (undirected, non-loop, unique) input edges equals
        // half the CSR's directed edge count.
        let unique: HashSet<(u32, u32)> = edges
            .iter()
            .filter(|(s, d)| s != d)
            .map(|&(s, d)| (s.min(d), s.max(d)))
            .collect();
        prop_assert_eq!(g.num_edges(), 2 * unique.len() as u64);
    }

    #[test]
    fn partitioner_invariants(edges in edges_strategy(), budget in 64u64..4096) {
        let Some(g) = build_csr(&edges) else { return Ok(()); };
        let g = Arc::new(g);
        let pg = PartitionedGraph::build(g.clone(), budget);
        // Disjoint cover of the vertex space.
        let mut next = 0u32;
        for p in 0..pg.num_partitions() {
            let r = pg.vertex_range(p);
            prop_assert_eq!(r.start, next);
            prop_assert!(r.end > r.start);
            next = r.end;
        }
        prop_assert_eq!(next as u64, g.num_vertices());
        // Lookup agrees with ranges.
        for v in 0..g.num_vertices() as u32 {
            prop_assert!(pg.vertex_range(pg.partition_of(v)).contains(&v));
        }
        // Budget respected by all multi-vertex partitions; byte table
        // matches the materialized size; neighbors preserved.
        for p in 0..pg.num_partitions() {
            if pg.num_vertices_in(p) > 1 {
                prop_assert!(pg.partition_bytes(p) <= budget);
            } else {
                prop_assert!(pg.oversized_partitions().contains(&p)
                    || pg.partition_bytes(p) <= budget);
            }
            let data = pg.extract(p);
            prop_assert_eq!(data.bytes(), pg.partition_bytes(p));
            let lent = pg.rows(p).unwrap();
            for v in data.v_start..data.v_end {
                prop_assert_eq!(data.rows().neighbors(v), g.neighbors(v));
                prop_assert_eq!(lent.neighbors(v), g.neighbors(v));
            }
        }
        // Edge counts sum to the total.
        let sum: u64 = (0..pg.num_partitions()).map(|p| pg.num_edges_in(p)).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn binary_roundtrip_is_lossless(edges in edges_strategy()) {
        let Some(g) = build_csr(&edges) else { return Ok(()); };
        let dir = std::env::temp_dir().join("lt_proptest_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("g_{}.bin", std::process::id()));
        io::write_binary(&g, &path).unwrap();
        let g2 = io::read_binary(&path).unwrap();
        prop_assert_eq!(g.offsets(), g2.offsets());
        prop_assert_eq!(g.edges(), g2.edges());
        std::fs::remove_file(&path).ok();
    }

    /// A corrupt or hostile `LTGRAPH2` file is an error, never a panic
    /// and never a graph: a plain or weighted file with any single bit
    /// flipped anywhere, cut short anywhere, or with its header's sizes
    /// and flags replaced (overflowing sizes included). An `LTGRAPH1`
    /// file is a `Format` error that names the revision.
    #[test]
    fn corrupt_binary_files_are_errors_not_panics(
        edges in edges_strategy(),
        seed in 0u64..1000,
        nv in header_field(),
        ne in header_field(),
        flags in prop_oneof![Just(0u64), Just(1), any::<u64>()],
        cut in any::<prop::sample::Index>(),
        flips in prop::collection::vec((any::<prop::sample::Index>(), 0u8..8), 1..9),
    ) {
        let Some(plain) = build_csr(&edges) else { return Ok(()); };
        let weighted = with_random_weights(&plain, seed);
        let dir = std::env::temp_dir().join("lt_proptest_io");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("corrupt_{}.bin", std::process::id()));
        for (flavor, g) in [("plain", &plain), ("weighted", &weighted)] {
            io::write_binary(g, &path).unwrap();
            let valid = std::fs::read(&path).unwrap();
            let mut header = valid.clone();
            header[8..16].copy_from_slice(&nv.to_le_bytes());
            header[16..24].copy_from_slice(&ne.to_le_bytes());
            header[24..32].copy_from_slice(&flags.to_le_bytes());
            let mut corrupt = vec![
                ("header", header),
                ("truncated", valid[..cut.index(valid.len())].to_vec()),
            ];
            for (at, bit) in &flips {
                let mut flipped = valid.clone();
                flipped[at.index(valid.len())] ^= 1 << bit;
                corrupt.push(("flipped", flipped));
            }
            let mut old = valid.clone();
            old[..8].copy_from_slice(b"LTGRAPH1");
            for (corruption, bytes) in corrupt.into_iter().chain([("LTGRAPH1", old)]) {
                if bytes == valid {
                    // A header rewritten with its own sizes and flags.
                    continue;
                }
                std::fs::write(&path, &bytes).unwrap();
                let read = std::panic::catch_unwind(|| io::read_binary(&path));
                let Ok(read) = read else {
                    return Err(TestCaseError::fail(format!(
                        "read_binary panicked on a {corruption} {flavor} file (nv {nv}, ne {ne}, flags {flags:#x})"
                    )));
                };
                match (corruption, read) {
                    ("LTGRAPH1", Err(GraphError::Format(m))) => {
                        prop_assert!(m.contains("LTGRAPH1"), "{}", m);
                    }
                    ("LTGRAPH1", other) => {
                        prop_assert!(false, "an LTGRAPH1 {} file read as {:?}", flavor, other);
                    }
                    (_, Err(_)) => {}
                    (_, Ok(_)) => prop_assert!(
                        false,
                        "a {} {} file read as a graph (nv {}, ne {}, flags {:#x})",
                        corruption, flavor, nv, ne, flags
                    ),
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The bit-packed compressed out-of-core file reproduces every
    /// partition of every graph flavor (plain / weighted / temporal)
    /// bit-for-bit: the store's per-partition decode equals the in-memory
    /// `extract`, field by field, at an arbitrary partition budget.
    #[test]
    fn compressed_store_extracts_identically(
        edges in edges_strategy(),
        budget in 64u64..4096,
        seed in 0u64..1000,
    ) {
        let Some(plain) = build_csr(&edges) else { return Ok(()); };
        let weighted = with_random_weights(&plain, seed);
        let temporal = with_random_timestamps(&plain, seed, 16);
        for (flavor, g) in [("plain", plain), ("weighted", weighted), ("temporal", temporal)] {
            let pg = PartitionedGraph::build(Arc::new(g), budget);
            let ooc_path = std::env::temp_dir()
                .join(format!("lt_proptest_stores_{}_{flavor}.ltg", std::process::id()));
            write_oocore(&pg, &ooc_path).unwrap();
            let ooc = OocGraph::open(&ooc_path).unwrap();
            prop_assert_eq!(ooc.num_partitions(), pg.num_partitions());
            for p in 0..pg.num_partitions() {
                prop_assert_eq!(
                    &ooc.decode_partition(p).unwrap(), &pg.extract(p),
                    "compressed store {} partition {} diverged", flavor, p
                );
            }
            std::fs::remove_file(&ooc_path).ok();
        }
    }

    /// Every single-bit flip anywhere in an `LTOOCGR2` file is an error,
    /// never a panic or a decode: small graphs of every flavor written
    /// with `write_oocore`, then one bit flipped in the header, the
    /// partition table, a chunk directory or a chunk. A flip before the
    /// first region fails `open`; a flip in a region fails the decode of
    /// that partition alone, and a flip in a chunk is `Corrupt` naming
    /// its partition and chunk: a neighbor rewritten to another in-range
    /// vertex is caught by the chunk's checksum. Every other partition
    /// still decodes to `extract`.
    #[test]
    fn corrupt_ooc_payloads_decode_to_the_row_contract_or_an_error(
        edges in edges_strategy(),
        budget in 64u64..1024,
        seed in 0u64..1000,
        at in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let Some(plain) = build_csr(&edges) else { return Ok(()); };
        let weighted = with_random_weights(&plain, seed);
        let temporal = with_random_timestamps(&plain, seed, 16);
        for (flavor, g) in [("plain", plain), ("weighted", weighted), ("temporal", temporal)] {
            let pg = PartitionedGraph::build(Arc::new(g), budget);
            let path = std::env::temp_dir()
                .join(format!("lt_proptest_corrupt_ooc_{}_{flavor}.ltg", std::process::id()));
            write_oocore(&pg, &path).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let at = at.index(bytes.len());
            let section = ooc_section(&bytes, at);
            bytes[at] ^= 1 << bit;
            std::fs::write(&path, &bytes).unwrap();
            let decoded = std::panic::catch_unwind(|| {
                let ooc = OocGraph::open(&path)?;
                Ok::<_, GraphError>(
                    (0..ooc.num_partitions()).map(|p| ooc.decode_partition(p)).collect::<Vec<_>>(),
                )
            });
            std::fs::remove_file(&path).ok();
            let at = format!("{flavor}, byte {at} bit {bit} ({section:?})");
            let Ok(opened) = decoded else {
                prop_assert!(false, "open or decode panicked: {}", at);
                return Ok(());
            };
            let hit = match section {
                OocSection::Header => {
                    prop_assert!(opened.is_err(), "open accepted a flipped header: {}", at);
                    continue;
                }
                OocSection::Directory(p) | OocSection::Chunk(p, _) => p,
            };
            let Ok(blocks) = opened else {
                prop_assert!(false, "open refused a file whose header is intact: {}", at);
                return Ok(());
            };
            for (p, block) in blocks.into_iter().enumerate() {
                let p = p as u32;
                match (block, section) {
                    (Ok(block), _) if p != hit => prop_assert_eq!(block, pg.extract(p), "{}", at),
                    (Err(e), _) if p != hit => prop_assert!(false, "partition {} failed: {}: {}", p, e, at),
                    (Ok(_), _) => prop_assert!(false, "the hit partition decoded: {}", at),
                    (Err(GraphError::Corrupt { partition, chunk }), OocSection::Chunk(_, c)) => {
                        prop_assert_eq!((partition, chunk), (hit, c), "{}", at)
                    }
                    (Err(e), OocSection::Chunk(..)) => {
                        prop_assert!(false, "a flipped chunk gave {:?}, not Corrupt: {}", e, at)
                    }
                    (Err(_), _) => {}
                }
            }
        }
    }

    /// The per-partition block seal against a naive per-vertex model
    /// applied op by op, over arbitrary multi-epoch schedules on all three
    /// graph flavors and arbitrary partitionings: duplicate edges, deletes
    /// of absent edges, several ops on one source in one epoch, empty
    /// epochs, explicit and default timestamps and weights. After every
    /// seal the sealed view (the table's rows and `to_csr`) and the seal
    /// report equal the model's, and exactly the partitions holding a
    /// changed row got a new block; every other entry kept what it had,
    /// the base CSR's rows included.
    #[test]
    fn multi_epoch_seals_match_a_naive_adjacency_model(
        edges in edges_strategy(),
        epochs in prop::collection::vec(raw_updates_strategy(24), 1..6),
        seed in 0u64..1000,
        budget in 64u64..1024,
    ) {
        let Some(plain) = build_csr(&edges) else { return Ok(()); };
        let weighted = with_random_weights(&plain, seed);
        let temporal = with_random_timestamps(&plain, seed, 16);
        for (flavor, g) in [("plain", plain), ("weighted", weighted), ("temporal", temporal)] {
            let nv = g.num_vertices() as VertexId;
            // One `(target, weight, timestamp)` row per vertex; the columns
            // a flavor lacks carry the insert defaults and are not compared.
            let mut model: Vec<Vec<(VertexId, f32, u32)>> = (0..nv)
                .map(|v| {
                    let w = g.neighbor_weights(v);
                    let t = g.neighbor_timestamps(v);
                    g.neighbors(v)
                        .iter()
                        .enumerate()
                        .map(|(k, &dst)| (dst, w.map_or(1.0, |w| w[k]), t.map_or(0, |t| t[k])))
                        .collect()
                })
                .collect();
            let pg = PartitionedGraph::build(Arc::new(g), budget);
            let mut dg = DeltaGraph::new(pg.clone());
            for (i, raw) in epochs.iter().enumerate() {
                let epoch = i as u64 + 1;
                let before: Vec<_> = (0..pg.num_partitions())
                    .map(|p| dg.table().sealed(p).cloned())
                    .collect();
                // Bound to the *current* view (buffered updates stay
                // invisible, so one snapshot serves the epoch), so aimed
                // deletes hit edges earlier epochs inserted too.
                let view = dg.to_csr().unwrap();
                let (mut dirty, mut inserted, mut deleted) = (BTreeSet::new(), 0u64, 0u64);
                for r in raw {
                    // An explicit timestamp doubles as the source of an
                    // explicit weight.
                    let mut u = materialize_update(r, &view);
                    u.weight = u.timestamp.map(|t| t as f32 / 4.0);
                    dg.buffer(u).unwrap();
                    let row = &mut model[u.src as usize];
                    match u.op {
                        EdgeOp::Insert => {
                            // After the last edge that sorts no later: by
                            // target, or on a temporal graph by (timestamp,
                            // target). Rows keep their order.
                            let ts = u.timestamp.unwrap_or(epoch as u32);
                            let k = if flavor == "temporal" {
                                row.partition_point(|e| (e.2, e.0) <= (ts, u.dst))
                            } else {
                                row.partition_point(|e| e.0 <= u.dst)
                            };
                            row.insert(k, (u.dst, u.weight.unwrap_or(1.0), ts));
                            inserted += 1;
                            dirty.insert(u.src);
                        }
                        EdgeOp::Delete => {
                            if let Some(k) = row.iter().position(|e| e.0 == u.dst) {
                                row.remove(k);
                                deleted += 1;
                                dirty.insert(u.src);
                            }
                        }
                    }
                }
                prop_assert_eq!(dg.pending(), raw.len());
                let seal = dg.seal_epoch(&[]).unwrap();
                let at = format!("{flavor}, epoch {epoch}");
                prop_assert_eq!(
                    (seal.epoch, seal.inserted, seal.deleted),
                    (epoch, inserted, deleted),
                    "{}", at
                );
                prop_assert_eq!(&seal.dirty, &dirty.iter().copied().collect::<Vec<_>>(), "{}", at);
                prop_assert_eq!((dg.epoch(), dg.pending()), (epoch, 0));
                let touched: BTreeSet<_> = dirty.iter().map(|&v| pg.partition_of(v)).collect();
                prop_assert_eq!(
                    &seal.dirty_partitions,
                    &touched.iter().copied().collect::<Vec<_>>(),
                    "{}", at
                );
                for (p, old) in before.iter().enumerate() {
                    let now = dg.table().sealed(p as u32);
                    let kept = match (now, old) {
                        (Some(now), Some(old)) => Arc::ptr_eq(now, old),
                        (now, old) => now.is_none() && old.is_none(),
                    };
                    prop_assert_eq!(kept, !touched.contains(&(p as u32)), "{}, block {}", at, p);
                }
                let csr = dg.to_csr().unwrap();
                prop_assert_eq!(
                    csr.num_edges(),
                    model.iter().map(|row| row.len() as u64).sum::<u64>()
                );
                for v in 0..nv {
                    let row = &model[v as usize];
                    let targets: Vec<_> = row.iter().map(|e| e.0).collect();
                    let rows = dg.table().rows(dg.table().partition_of(v)).unwrap();
                    prop_assert_eq!(rows.neighbors(v), &targets[..], "{}, vertex {}", at, v);
                    prop_assert_eq!(csr.neighbors(v), &targets[..], "{}, vertex {}", at, v);
                    prop_assert_eq!(rows.neighbor_timestamps(v), csr.neighbor_timestamps(v));
                    if let Some(w) = csr.neighbor_weights(v) {
                        let expected: Vec<_> = row.iter().map(|e| e.1).collect();
                        prop_assert_eq!(w, &expected[..], "{}, vertex {} weights", at, v);
                    }
                    if let Some(t) = csr.neighbor_timestamps(v) {
                        let expected: Vec<_> = row.iter().map(|e| e.2).collect();
                        prop_assert_eq!(t, &expected[..], "{}, vertex {} timestamps", at, v);
                    }
                }
                prop_assert_eq!(csr.is_weighted(), flavor == "weighted");
                prop_assert_eq!(csr.is_temporal(), flavor == "temporal");
                // Rows in order — a temporal row by (timestamp, target),
                // any other by target — and the per-block multiplicity
                // the seal refreshed equals a fresh scan of the whole
                // sealed view.
                prop_assert!((0..nv).all(|v| {
                    let (row, ts) = (csr.neighbors(v), csr.neighbor_timestamps(v));
                    let key = |k: usize| (ts.map_or(0, |t| t[k]), row[k]);
                    (1..row.len()).all(|k| key(k - 1) <= key(k))
                }));
                let multiplicity = dg.table().max_multiplicity().unwrap();
                prop_assert_eq!(multiplicity, csr.max_multiplicity(), "{}", at);
            }
        }
    }

    /// Every producer of a timestamped graph yields rows in time order,
    /// stably sorted by `(timestamp, target)`, each a permutation of what
    /// it was given: the timestamp generator (over plain and weighted
    /// rows), `Csr::with_timestamps` (over rows given reversed, with
    /// parallel edges, stamps up to `u32::MAX`, weights numbering the
    /// given order so stability shows), seals with explicit and default
    /// stamps (the table's rows, read in place), and an `LTOOCGR2` round
    /// trip.
    #[test]
    fn every_producer_keeps_temporal_rows_in_time_order(
        edges in edges_strategy(),
        seed in 0u64..1000,
        horizon in 1u32..2_000,
        budget in 64u64..1024,
        raw in raw_updates_strategy(24),
    ) {
        let Some(plain) = build_csr(&edges) else { return Ok(()); };
        let nv = plain.num_vertices() as VertexId;
        let in_order = |row: &[VertexId], ts: &[u32]| {
            (1..row.len()).all(|k| (ts[k - 1], row[k - 1]) <= (ts[k], row[k]))
        };
        // A row as a sorted multiset of (target, weight bits).
        let pairs = |g: &Csr, v: VertexId| {
            let w = g.neighbor_weights(v);
            let mut out: Vec<(VertexId, u32)> = (g.neighbors(v).iter().enumerate())
                .map(|(k, &x)| (x, w.map_or(0, |w| w[k].to_bits())))
                .collect();
            out.sort_unstable();
            out
        };
        // The generator.
        let weighted = with_random_weights(&plain, seed);
        for parent in [&plain, &weighted] {
            let t = with_random_timestamps(parent, seed, horizon);
            for v in 0..nv {
                let ts = t.neighbor_timestamps(v).unwrap();
                prop_assert!(in_order(t.neighbors(v), ts), "generator, row {}", v);
                prop_assert!(ts.iter().all(|&x| x < horizon));
                prop_assert_eq!(pairs(&t, v), pairs(parent, v));
            }
        }
        // `Csr::with_timestamps`: each row reversed, its last target
        // repeated, stamps of either end of `u32`.
        let (mut offsets, mut targets, mut stamps) = (vec![0u64], Vec::new(), Vec::new());
        for v in 0..nv {
            let row = plain.neighbors(v);
            targets.extend(row.iter().rev().chain(row.last()));
            offsets.push(targets.len() as u64);
        }
        for (e, &x) in targets.iter().enumerate() {
            let h = (e as u64 ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            let near = (h % 3) as u32;
            stamps.push(if h & 4 == 0 { near } else { u32::MAX - near - x % 2 });
        }
        let order: Vec<f32> = (0..nv as usize)
            .flat_map(|v| (0..offsets[v + 1] - offsets[v]).map(|k| k as f32))
            .collect();
        let given = (offsets.clone(), targets.clone(), stamps.clone());
        let g = Csr::with_timestamps(offsets, targets, Some(order), Some(stamps)).unwrap();
        for v in 0..nv as usize {
            let r = given.0[v] as usize..given.0[v + 1] as usize;
            let mut want: Vec<(u32, VertexId, u32)> = (r.clone())
                .map(|e| (given.2[e], given.1[e], (e - r.start) as u32))
                .collect();
            want.sort();
            let (row, ts) = (g.neighbors(v as u32), g.neighbor_timestamps(v as u32).unwrap());
            let got: Vec<(u32, VertexId, u32)> = (0..row.len())
                .map(|k| (ts[k], row[k], g.neighbor_weights(v as u32).unwrap()[k] as u32))
                .collect();
            // Sorted by (stamp, target) with the given order breaking ties:
            // exactly the stable sort.
            prop_assert_eq!(got, want, "with_timestamps, row {}", v);
        }
        // Seals, explicit and default stamps alike.
        let g = Arc::new(g);
        let mut dg = DeltaGraph::new(PartitionedGraph::build(g.clone(), budget));
        for r in &raw {
            dg.buffer(materialize_update(r, &g)).unwrap();
        }
        dg.seal_epoch(&[]).unwrap();
        let table = dg.table();
        for v in 0..nv {
            let rows = table.rows(table.partition_of(v)).unwrap();
            let ts = rows.neighbor_timestamps(v).unwrap();
            prop_assert!(in_order(rows.neighbors(v), ts), "seal, row {}", v);
        }
        // An `LTOOCGR2` round trip.
        let pg = PartitionedGraph::build(g, budget);
        let path = std::env::temp_dir()
            .join(format!("lt_proptest_time_order_{}.ltg", std::process::id()));
        write_oocore(&pg, &path).unwrap();
        let ooc = OocGraph::open(&path).unwrap();
        for p in 0..pg.num_partitions() {
            let block = ooc.decode_partition(p).unwrap();
            prop_assert_eq!(&block, &pg.extract(p));
            let rows = block.rows();
            for v in block.v_start..block.v_end {
                prop_assert!(in_order(rows.neighbors(v), rows.neighbor_timestamps(v).unwrap()));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn csr_bytes_matches_formula(edges in edges_strategy()) {
        let Some(g) = build_csr(&edges) else { return Ok(()); };
        prop_assert_eq!(
            g.csr_bytes(),
            (g.num_vertices() + 1) * 8 + g.num_edges() * 4
        );
    }
}
