//! Property tests of the sampling machinery: the counter-based RNG, over
//! arbitrary seeds and bucket counts.

use lt_engine::rng;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
