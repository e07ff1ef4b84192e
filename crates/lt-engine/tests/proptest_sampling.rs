//! Property tests of the sampling machinery: Vose alias tables and the
//! counter-based RNG, over arbitrary weight vectors and seeds.

use lt_engine::alias::AliasTable;
use lt_engine::rng;
use lt_graph::Csr;
use proptest::prelude::*;

/// Build a 1-vertex-fan graph: vertex 0 points at 1..=d with the given
/// weights (plus reverse edges so preprocessing-free CSR stays valid).
fn fan_graph(weights: &[f32]) -> Csr {
    let d = weights.len();
    // Vertex 0 has d neighbors; vertices 1..=d each point back to 0.
    let mut offsets = vec![0u64; d + 2];
    offsets[1] = d as u64;
    for i in 2..=d + 1 {
        offsets[i] = offsets[i - 1] + 1;
    }
    let mut edges: Vec<u32> = (1..=d as u32).collect();
    edges.extend(std::iter::repeat_n(0u32, d));
    let mut w = weights.to_vec();
    w.extend(std::iter::repeat_n(1.0f32, d));
    Csr::new(offsets, edges, Some(w)).expect("valid fan")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Vose invariant: for every neighbor `i`, its total selection mass —
    /// its own slot's `prob` plus `(1 - prob)` of every slot aliased to it
    /// — equals `d · w_i / Σw` (within float error). This pins the exact
    /// distribution without statistical sampling.
    #[test]
    fn alias_table_mass_is_exact(weights in prop::collection::vec(0.001f32..100.0, 1..40)) {
        let g = fan_graph(&weights);
        let table = AliasTable::build(&g);
        let d = weights.len();
        // Recover per-slot (prob, alias) through sampling determinism:
        // with r_flip = 0 the slot itself is chosen; with r_flip = 1 the
        // alias is chosen (prob < 1) or the slot again (prob == 1). To get
        // the exact masses we re-derive them via the public sampler over a
        // fine flip grid per slot.
        let sum: f64 = weights.iter().map(|&x| x as f64).sum();
        const GRID: usize = 4096;
        let mut mass = vec![0f64; d];
        for slot in 0..d {
            // `uniform_index(r, d) == slot` — construct r deterministically:
            // r = slot * 2^64 / d + tiny offset keeps us inside the slot.
            let r_slot = ((slot as u128 * (1u128 << 64) + (1 << 32)) / d as u128) as u64;
            for k in 0..GRID {
                let flip = (k as f64 + 0.5) / GRID as f64;
                let chosen = table.sample(0, r_slot, flip);
                mass[chosen] += 1.0 / (GRID as f64 * d as f64);
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            let expect = w as f64 / sum;
            prop_assert!(
                (mass[i] - expect).abs() < 2e-3 + 0.02 * expect,
                "neighbor {i}: mass {} expect {}",
                mass[i],
                expect
            );
        }
    }

    /// Counter-based RNG draws are uniform enough for a chi-squared bound
    /// over arbitrary (seed, bucket-count) choices.
    #[test]
    fn rng_chi_squared_is_sane(seed in any::<u64>(), buckets in 2u64..32) {
        let trials = 8_192u64;
        let mut counts = vec![0u64; buckets as usize];
        for i in 0..trials {
            counts[rng::uniform_index(rng::step_value(seed, i, 3), buckets) as usize] += 1;
        }
        let expect = trials as f64 / buckets as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expect;
                d * d / expect
            })
            .sum();
        // Very loose bound: reject only catastrophic non-uniformity
        // (chi2 ~ buckets-1 expected; allow 5x + slack).
        prop_assert!(chi2 < 5.0 * buckets as f64 + 50.0, "chi2 {chi2} for {buckets} buckets");
    }
}
