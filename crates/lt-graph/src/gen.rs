//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on SNAP / WebGraph datasets (Table II) that are far
//! too large for this environment, so every experiment runs on scaled
//! stand-ins generated here. R-MAT reproduces the skewed degree
//! distributions of social/web graphs (LJ, OR, TW, UK, CW); Erdős–Rényi
//! gives the near-uniform degree profile of FriendSter (d_max only 5.21 K
//! despite 3.6 B edges).
//!
//! All generators are fully deterministic given a seed, so experiment rows
//! are reproducible bit-for-bit.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::builder::BuiltGraph;
use crate::csr::{RowOut, RowSorter};
use crate::{Csr, EdgeUpdate, GraphBuilder, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// Parameters for the R-MAT recursive matrix generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average edges per vertex (before undirecting / deduping).
    pub edge_factor: u32,
    /// Recursion probabilities; must sum to ~1.0.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RmatParams {
    fn default() -> Self {
        // Graph500 defaults: a=0.57, b=0.19, c=0.19, d=0.05.
        RmatParams {
            scale: 14,
            edge_factor: 16,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            seed: 42,
        }
    }
}

/// Generate an R-MAT graph with the paper's preprocessing applied
/// (undirected, deduped, no self loops, no zero-degree vertices).
pub fn rmat(params: RmatParams) -> BuiltGraph {
    let nv: u64 = 1 << params.scale;
    let ne = nv * params.edge_factor as u64;
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut b = GraphBuilder::new();
    let ab = params.a + params.b;
    let abc = ab + params.c;
    for _ in 0..ne {
        let (mut lo_s, mut hi_s) = (0u64, nv);
        let (mut lo_d, mut hi_d) = (0u64, nv);
        while hi_s - lo_s > 1 {
            let r: f64 = rng.gen();
            let (down, right) = if r < params.a {
                (false, false)
            } else if r < ab {
                (false, true)
            } else if r < abc {
                (true, false)
            } else {
                (true, true)
            };
            let mid_s = (lo_s + hi_s) / 2;
            let mid_d = (lo_d + hi_d) / 2;
            if down {
                lo_s = mid_s;
            } else {
                hi_s = mid_s;
            }
            if right {
                lo_d = mid_d;
            } else {
                hi_d = mid_d;
            }
        }
        b = b.add_edge(lo_s as VertexId, lo_d as VertexId);
    }
    b.build().expect("R-MAT always produces edges")
}

/// Generate a G(n, m) Erdős–Rényi graph (m edges drawn uniformly), with
/// preprocessing applied.
pub fn erdos_renyi(num_vertices: u64, num_edges: u64, seed: u64) -> BuiltGraph {
    assert!(num_vertices >= 2, "need at least two vertices");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new();
    for _ in 0..num_edges {
        let s = rng.gen_range(0..num_vertices) as VertexId;
        let d = rng.gen_range(0..num_vertices) as VertexId;
        b = b.add_edge(s, d);
    }
    b.build().expect("ER graph with edges")
}

/// Attach deterministic pseudo-random weights in `(0, 1]` to a graph,
/// for weighted-walk tests and examples. The result shares `csr`'s
/// offsets and edges; timestamps (if any) are preserved.
pub fn with_random_weights(csr: &Csr, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let weights: Vec<f32> = (0..csr.num_edges())
        .map(|_| rng.gen_range(0.001f32..=1.0))
        .collect();
    csr.with_weight_column(weights)
        .expect("one weight in (0, 1] per edge")
}

/// Attach deterministic pseudo-random edge timestamps in `[0, horizon)`
/// to a graph, for temporal-walk tests and the evolving-graph battery.
///
/// Edge `e` (its index in `csr`) draws its stamp from a counter-based
/// hash of `(seed, e)`, so the draws need no sequence and the two halves
/// of the rows are filled on two threads. Each row comes out in time
/// order, stably sorted by `(timestamp, target)` — counting-sorted over
/// the horizon, or by key when it is much shorter than the horizon —
/// with its weights (if any) moved along. The
/// offsets are shared with `csr`; the permuted rows are not re-validated.
pub fn with_random_timestamps(csr: &Csr, seed: u64, horizon: u32) -> Csr {
    assert!(horizon > 0, "timestamp horizon must be positive");
    let offsets = csr.offsets();
    let ne = csr.num_edges() as usize;
    let mut edges = vec![0; ne];
    let mut stamps = vec![0; ne];
    let mut weights = csr.weights().map(|_| vec![0.0; ne]);
    // Cut before the first row starting in the second half of the edges.
    let mid = offsets.partition_point(|&o| o < ne as u64 / 2);
    let cut = offsets[mid] as usize;
    let (edges_a, edges_b) = edges.split_at_mut(cut);
    let (stamps_a, stamps_b) = stamps.split_at_mut(cut);
    let (weights_a, weights_b) = match weights.as_deref_mut() {
        Some(w) => {
            let (a, b) = w.split_at_mut(cut);
            (Some(a), Some(b))
        }
        None => (None, None),
    };
    let last = offsets.len() - 1;
    std::thread::scope(|s| {
        s.spawn(|| stamp_rows(csr, 0..mid, seed, horizon, (edges_a, stamps_a, weights_a)));
        stamp_rows(
            csr,
            mid..last,
            seed,
            horizon,
            (edges_b, stamps_b, weights_b),
        );
    });
    csr.with_rows_in_time_order(edges, weights, stamps)
}

/// Fill the output columns of rows `rows` of `csr` — slices starting at
/// the first of those rows' edges — with the rows in time order under
/// freshly drawn stamps.
fn stamp_rows(
    csr: &Csr,
    rows: Range<usize>,
    seed: u64,
    horizon: u32,
    (edges, stamps, mut weights): (&mut [VertexId], &mut [u32], Option<&mut [f32]>),
) {
    let offsets = csr.offsets();
    let base = offsets[rows.start] as usize;
    let mut sorter = RowSorter::default();
    let mut drawn = Vec::new();
    for v in rows {
        let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
        drawn.clear();
        drawn.extend((lo..hi).map(|e| edge_stamp(seed, e as u64, horizon)));
        let out = lo - base..hi - base;
        let out = RowOut {
            edges: &mut edges[out.clone()],
            stamps: &mut stamps[out.clone()],
            weights: weights.as_deref_mut().map(|w| &mut w[out]),
        };
        let src_weights = csr.weights().map(|w| &w[lo..hi]);
        let row = &csr.edges()[lo..hi];
        sorter.sort_into(row, &drawn, src_weights, 0, u64::from(horizon), out);
    }
}

/// Edge `e`'s stamp in `[0, horizon)`: a SplitMix64 hash of `(seed, e)`,
/// scaled by a multiply-shift.
#[inline]
fn edge_stamp(seed: u64, e: u64, horizon: u32) -> u32 {
    let mut z = seed.wrapping_add(e.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (((z >> 32) * u64::from(horizon)) >> 32) as u32
}

/// Seeded mutation schedule of `k` updates with a tunable spatial
/// locality: half inserts, half deletes aimed at real edges (keeping
/// |E| roughly stable across epochs). Sources are drawn from a window
/// of `window_frac · |V|` vertices placed pseudo-randomly per call;
/// destinations stay uniform. `window_frac = 1.0` is a fully uniform
/// stream, small fractions model the clustered update streams whose
/// locality dirty-partition invalidation converts into saved traffic
/// (DESIGN.md §15). The caller threads `state` (any nonzero xorshift64
/// seed) across calls so consecutive epochs draw distinct windows.
pub fn locality_mutations(g: &Csr, k: u64, window_frac: f64, state: &mut u64) -> Vec<EdgeUpdate> {
    assert!(
        (0.0..=1.0).contains(&window_frac) && window_frac > 0.0,
        "window_frac must be in (0, 1]"
    );
    assert!(*state != 0, "xorshift state must be nonzero");
    let nv = g.num_vertices();
    let window = ((nv as f64 * window_frac) as u64).max(1);
    let window_start = xorshift(state) % nv;
    (0..k)
        .map(|i| {
            let src = ((window_start + xorshift(state) % window) % nv) as VertexId;
            let dst = (xorshift(state) % nv) as VertexId;
            if i % 2 == 0 {
                EdgeUpdate::insert(src, dst)
            } else {
                let row = g.neighbors(src);
                if row.is_empty() {
                    EdgeUpdate::delete(src, dst)
                } else {
                    EdgeUpdate::delete(src, row[xorshift(state) as usize % row.len()])
                }
            }
        })
        .collect()
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Scaled stand-ins for the paper's Table II datasets.
///
/// `scale_shift` uniformly shrinks each dataset: the stand-in has
/// `2^(paper_scale - shift)` vertices with the paper's edge factor
/// preserved, so every ratio the experiments sweep (walk density, partition
/// counts, pool-size/graph-size) is unchanged. The default used by the
/// benchmark harness is `shift` chosen per dataset so each stand-in has
/// 2^14..2^17 vertices.
pub mod datasets {
    use super::*;

    /// A named dataset stand-in with paper statistics for reference.
    pub struct DatasetSpec {
        /// Short name from Table II (LJ, OR, TW, FS, UK, YH, CW).
        pub name: &'static str,
        /// Vertices in the real dataset.
        pub paper_vertices: u64,
        /// Undirected edges in the real dataset.
        pub paper_edges: u64,
        /// CSR size of the real dataset in bytes.
        pub paper_csr_bytes: u64,
        /// Max degree in the real dataset.
        pub paper_dmax: u64,
        /// Whether the real dataset fits a 24 GB GPU (affects which
        /// experiments use it).
        pub fits_gpu_memory: bool,
        /// log2 vertices of the generated stand-in at shift 0.
        base_scale: u32,
        /// Edge factor of the generated stand-in.
        edge_factor: u32,
        /// Skew: `true` = R-MAT (power law), `false` = Erdős–Rényi.
        skewed: bool,
    }

    impl DatasetSpec {
        /// Generate the stand-in at the given additional shrink factor
        /// (`shift = 0` is the largest recommended in this environment).
        pub fn generate(&self, shift: u32, seed: u64) -> BuiltGraph {
            let scale = self.base_scale.saturating_sub(shift).max(8);
            if self.skewed {
                rmat(RmatParams {
                    scale,
                    edge_factor: self.edge_factor,
                    seed,
                    ..RmatParams::default()
                })
            } else {
                let nv = 1u64 << scale;
                erdos_renyi(nv, nv * self.edge_factor as u64, seed)
            }
        }
    }

    /// LiveJournal: 4.85 M vertices, 85.7 M edges, d_max 20.33 K.
    pub const LJ: DatasetSpec = DatasetSpec {
        name: "LJ",
        paper_vertices: 4_850_000,
        paper_edges: 85_700_000,
        paper_csr_bytes: 364 << 20,
        paper_dmax: 20_330,
        fits_gpu_memory: true,
        base_scale: 15,
        edge_factor: 18,
        skewed: true,
    };

    /// Orkut: 3.07 M vertices, 234.4 M edges, d_max 33.31 K.
    pub const OR: DatasetSpec = DatasetSpec {
        name: "OR",
        paper_vertices: 3_070_000,
        paper_edges: 234_400_000,
        paper_csr_bytes: 917 << 20,
        paper_dmax: 33_310,
        fits_gpu_memory: true,
        base_scale: 14,
        edge_factor: 76,
        skewed: true,
    };

    /// Twitter: 41.7 M vertices, 1.468 B edges, d_max 3.00 M.
    pub const TW: DatasetSpec = DatasetSpec {
        name: "TW",
        paper_vertices: 41_700_000,
        paper_edges: 1_468_000_000,
        paper_csr_bytes: 5_780 << 20, // 5.78 GB
        paper_dmax: 3_000_000,
        fits_gpu_memory: true,
        base_scale: 16,
        edge_factor: 35,
        skewed: true,
    };

    /// FriendSter: 68.35 M vertices, 3.62 B edges, d_max only 5.21 K
    /// (near-uniform degrees → Erdős–Rényi stand-in).
    pub const FS: DatasetSpec = DatasetSpec {
        name: "FS",
        paper_vertices: 68_350_000,
        paper_edges: 3_620_000_000,
        paper_csr_bytes: 14 << 30,
        paper_dmax: 5_210,
        fits_gpu_memory: false,
        base_scale: 16,
        edge_factor: 53,
        skewed: false,
    };

    /// UK-Union: 131.57 M vertices, 9.33 B edges, d_max 6.37 M. Does not
    /// fit in 24 GB GPU memory.
    pub const UK: DatasetSpec = DatasetSpec {
        name: "UK",
        paper_vertices: 131_570_000,
        paper_edges: 9_330_000_000,
        paper_csr_bytes: 35_700 << 20,
        paper_dmax: 6_370_000,
        fits_gpu_memory: false,
        base_scale: 17,
        edge_factor: 71,
        skewed: true,
    };

    /// Yahoo: 653.91 M vertices, 12.95 B edges, a single vertex adjacent to
    /// everything (d_max = |V|).
    pub const YH: DatasetSpec = DatasetSpec {
        name: "YH",
        paper_vertices: 653_910_000,
        paper_edges: 12_950_000_000,
        paper_csr_bytes: 53_100 << 20,
        paper_dmax: 653_910_000,
        fits_gpu_memory: false,
        base_scale: 17,
        edge_factor: 20,
        skewed: true,
    };

    /// ClueWeb09: 1.68 B vertices, 15.62 B edges, d_max 6.44 M.
    pub const CW: DatasetSpec = DatasetSpec {
        name: "CW",
        paper_vertices: 1_680_000_000,
        paper_edges: 15_620_000_000,
        paper_csr_bytes: 70_800 << 20,
        paper_dmax: 6_440_000,
        fits_gpu_memory: false,
        base_scale: 17,
        edge_factor: 9,
        skewed: true,
    };

    /// All seven Table II datasets in paper order.
    pub const ALL: [&DatasetSpec; 7] = [&LJ, &OR, &TW, &FS, &UK, &YH, &CW];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic() {
        let p = RmatParams {
            scale: 10,
            edge_factor: 8,
            ..RmatParams::default()
        };
        let g1 = rmat(p);
        let g2 = rmat(p);
        assert_eq!(g1.csr.offsets(), g2.csr.offsets());
        assert_eq!(g1.csr.edges(), g2.csr.edges());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(RmatParams {
            scale: 12,
            edge_factor: 16,
            ..RmatParams::default()
        })
        .csr;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        // Power-law: the max degree should dwarf the average.
        assert!(
            g.max_degree() as f64 > 10.0 * avg,
            "max {} avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn erdos_renyi_is_flat() {
        let g = erdos_renyi(4096, 65536, 7).csr;
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            (g.max_degree() as f64) < 4.0 * avg,
            "max {} avg {avg}",
            g.max_degree()
        );
    }

    #[test]
    fn generated_graphs_are_preprocessed() {
        let g = rmat(RmatParams {
            scale: 10,
            edge_factor: 4,
            ..RmatParams::default()
        })
        .csr;
        for v in 0..g.num_vertices() as u32 {
            assert!(g.degree(v) > 0, "zero-degree vertex survived");
            let nbrs = g.neighbors(v);
            assert!(!nbrs.contains(&v), "self loop survived");
            for w in nbrs.windows(2) {
                assert!(w[0] < w[1], "duplicate or unsorted neighbor");
            }
        }
        // Undirected: every edge has its reverse.
        for (s, d) in g.iter_edges() {
            assert!(g.neighbors(d).binary_search(&s).is_ok());
        }
    }

    #[test]
    fn dataset_standins_generate() {
        for spec in datasets::ALL {
            let g = spec.generate(6, 1).csr;
            // Preprocessing drops zero-degree vertices, so slightly under
            // the nominal 2^scale is expected.
            assert!(g.num_vertices() >= 128, "{} too small", spec.name);
            assert!(g.num_edges() > 0);
        }
    }

    #[test]
    fn random_weights_attach() {
        let g = rmat(RmatParams {
            scale: 9,
            edge_factor: 4,
            ..RmatParams::default()
        })
        .csr;
        let w = with_random_weights(&g, 5);
        assert!(w.is_weighted());
        assert_eq!(w.num_edges(), g.num_edges());
        let nw = w.neighbor_weights(0).unwrap();
        assert!(nw.iter().all(|&x| x > 0.0 && x <= 1.0));
    }

    fn fnv(bytes: impl Iterator<Item = u8>) -> u64 {
        bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn rows_digest(g: &Csr) -> u64 {
        let offsets = g.offsets().iter().flat_map(|o| o.to_le_bytes());
        fnv(offsets.chain(g.edges().iter().flat_map(|e| e.to_le_bytes())))
    }

    /// The derived graphs' columns, as FNV-1a digests of their bytes,
    /// recorded when each derived graph still copied its parent's rows:
    /// sharing them changed no value. The weighted graph's rows are its
    /// parent's own columns, not copies. The timestamped graph shares the
    /// offsets, and each of its rows is a permutation of its parent's
    /// row, in time order, with every weight still on its edge; its
    /// stamps' digest was recorded when the rows went into time order.
    #[test]
    fn derived_columns_are_pinned_and_rows_shared() {
        let g = rmat(RmatParams {
            scale: 10,
            edge_factor: 8,
            seed: 3,
            ..RmatParams::default()
        })
        .csr;
        let w = with_random_weights(&g, 11);
        let t = with_random_timestamps(&w, 12, 1000);
        assert_eq!(g.num_edges(), 11_942);
        for c in [&g, &w] {
            assert_eq!(rows_digest(c), 0x0095_6394_d182_22fb);
            assert!(std::ptr::eq(c.edges(), g.edges()));
        }
        for c in [&w, &t] {
            assert!(std::ptr::eq(c.offsets(), g.offsets()));
        }
        let weights = |c: &Csr| fnv(c.weights().unwrap().iter().flat_map(|x| x.to_le_bytes()));
        assert_eq!(weights(&w), 0xb2df_4493_0e84_b663);
        for v in 0..g.num_vertices() as VertexId {
            let pairs = |c: &Csr| {
                let ws = c.neighbor_weights(v).unwrap().iter().map(|x| x.to_bits());
                c.neighbors(v).iter().copied().zip(ws).collect::<Vec<_>>()
            };
            let (mut parent, mut child) = (pairs(&w), pairs(&t));
            parent.sort_unstable();
            child.sort_unstable();
            assert_eq!(child, parent, "row {v}");
            let stamps = t.neighbor_timestamps(v).unwrap();
            assert!(crate::csr::in_time_order(t.neighbors(v), stamps));
        }
        let stamps = fnv(t.timestamps().unwrap().iter().flat_map(|x| x.to_le_bytes()));
        assert_eq!(stamps, 0x351d_8c9c_2c60_b8a0);
    }
}
