//! Property test of the visit sort: `radix_sort_u32` equals
//! `sort_unstable` at every length and key range, including the ranges
//! where it skips digits all keys share.

use lt_engine::radix_sort_u32;
use proptest::prelude::*;

/// Up to 5,000 keys, all equal, below 256, below 65,536, or anywhere in
/// `u32`. Keys below 70,000 share their third digit with ~94 % of the
/// others but not all, which a wrong digit-skip test would miss.
fn keys() -> impl Strategy<Value = Vec<u32>> {
    let len = 0usize..5_000;
    prop_oneof![
        (any::<u32>(), len.clone()).prop_map(|(k, n)| vec![k; n]),
        prop::collection::vec(0u32..256, len.clone()),
        prop::collection::vec(0u32..65_536, len.clone()),
        prop::collection::vec(0u32..70_000, len.clone()),
        prop::collection::vec(any::<u32>(), len),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn radix_sort_equals_sort_unstable(keys in keys()) {
        let mut want = keys.clone();
        want.sort_unstable();
        let mut got = keys;
        radix_sort_u32(&mut got);
        prop_assert_eq!(got, want);
    }
}
