//! Walk reshuffling with two-level caching (§III-C, Algorithm 1).
//!
//! After a batch is processed, its updated walks must be inserted into the
//! write frontiers of their new partitions. The first-level cache is the
//! device walk pool's resident frontiers (see
//! [`crate::walkpool::DeviceWalkPool`]); this module is the second level:
//! Algorithm 1's *local index*, which counts a block's walks per target
//! partition, prefix-sums the counts and scatters the walks through the
//! inverted map, so that each frontier receives one contiguous run
//! instead of scattered single writes.
//!
//! On the host that is `LocalIndex::sort`, run by each kernel chunk on its
//! own movers, as each of the paper's thread blocks builds its own index:
//! one partition lookup per mover, read from the block table's bucket
//! table ([`lt_graph::PartitionLookup`]: one table read and one boundary
//! compare, no search), and one stable counting-sort scatter into a
//! recycled buffer. The engine then copies each chunk's runs into their
//! frontiers in bulk ([`crate::walkpool::DeviceWalkPool::insert_run`]),
//! partitions ascending and, within a partition, chunk by chunk. The host
//! always runs this one sort. [`ReshuffleMode`] does not select a host
//! path; it selects which branch of
//! [`lt_gpusim::CostModel::reshuffle_time`] the *simulated* device is
//! charged, which is the whole of the Figure 12 comparison.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::walker::Walker;
use lt_graph::{PartitionId, PartitionLookup};

/// How the simulated device writes updated walks to the frontiers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReshuffleMode {
    /// Per-SM local index + counting sort + coalesced writes (Algorithm 1).
    #[default]
    TwoLevel,
    /// Every thread writes its walk straight to global memory with an
    /// atomic append — the Figure 12 baseline.
    DirectWrite,
}

/// Group reshuffled walkers by target partition in one serial pass of
/// arrival-order bucketing: `groups[p]` is exactly the arrival-order
/// subsequence of `walkers` targeting `p`. The reference the engine's
/// per-chunk sort (`LocalIndex`) is tested against.
pub fn partition_groups(
    walkers: Vec<Walker>,
    partition_of: &(dyn Fn(&Walker) -> PartitionId + Sync),
    num_partitions: u32,
) -> Vec<Vec<Walker>> {
    let mut groups: Vec<Vec<Walker>> = (0..num_partitions).map(|_| Vec::new()).collect();
    for w in walkers {
        groups[partition_of(&w) as usize].push(w);
    }
    groups
}

/// Algorithm 1's local index on the host: the movers of one kernel chunk,
/// stably counting-sorted by target partition. It travels in the chunk's
/// recycled output ([`crate::kernel::ChunkOutput`]), so its three buffers
/// are cleared and never shrunk, and a steady-state reshuffle allocates
/// nothing.
#[derive(Default)]
pub(crate) struct LocalIndex {
    /// Target partition of every mover, in arrival order.
    parts: Vec<PartitionId>,
    /// `offsets[p]..offsets[p + 1]` is partition `p`'s run in `sorted`.
    offsets: Vec<u32>,
    /// The movers in partition order, arrival order within a partition.
    /// Only the first `offsets[P]` entries belong to the current sort.
    sorted: Vec<Walker>,
}

impl LocalIndex {
    /// Sort `movers` (in arrival order) by the partition `lookup` files
    /// their vertex in.
    ///
    /// Pass 1 looks every mover's partition up once and builds the
    /// histogram; a prefix sum turns it into run offsets; pass 2 scatters
    /// through a cursor per partition. Both passes read the movers in
    /// arrival order, so the sort is stable: `run(p)` equals
    /// `partition_groups(..)[p]` element for element.
    ///
    /// # Panics
    /// Panics if a mover's vertex lies outside the graph.
    pub(crate) fn sort(&mut self, movers: &[Walker], lookup: &PartitionLookup) {
        let np = lookup.num_partitions() as usize;
        self.parts.clear();
        self.offsets.clear();
        self.offsets.resize(np + 1, 0);
        for w in movers {
            let p = lookup.get(w.vertex);
            self.offsets[p as usize + 1] += 1;
            self.parts.push(p);
        }
        for p in 0..np {
            self.offsets[p + 1] += self.offsets[p];
        }
        let n = self.parts.len();
        if self.sorted.len() < n {
            self.sorted.resize(n, Walker::new(u64::MAX, 0));
        }
        // After the scatter `offsets[p]` has advanced to the end of run
        // `p`, i.e. the start of run `p + 1`; shifting one slot right
        // restores the run starts without a second cursor array.
        for (w, &p) in movers.iter().zip(&self.parts) {
            let slot = &mut self.offsets[p as usize];
            self.sorted[*slot as usize] = *w;
            *slot += 1;
        }
        self.offsets.copy_within(0..np, 1);
        self.offsets[0] = 0;
    }

    /// Forget the last sort, keeping the buffers: no mover, no run.
    pub(crate) fn clear(&mut self) {
        self.parts.clear();
        self.offsets.clear();
    }

    /// Movers sorted by the last [`LocalIndex::sort`].
    pub(crate) fn len(&self) -> usize {
        self.parts.len()
    }

    /// The movers targeting partition `p`, in arrival order; none after a
    /// [`LocalIndex::clear`].
    pub(crate) fn run(&self, p: PartitionId) -> &[Walker] {
        match self.offsets.get(p as usize..p as usize + 2) {
            Some(&[start, end]) => &self.sorted[start as usize..end as usize],
            _ => &[],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn walkers(vs: &[u32]) -> Vec<Walker> {
        vs.iter()
            .enumerate()
            .map(|(i, &v)| Walker::new(i as u64, v))
            .collect()
    }

    #[test]
    fn partition_groups_keeps_arrival_order() {
        let ws = walkers(&[25, 3, 17, 4, 38, 11]);
        let groups = partition_groups(ws, &|w: &Walker| w.vertex / 10, 4);
        let vs: Vec<Vec<u32>> = groups
            .iter()
            .map(|g| g.iter().map(|w| w.vertex).collect())
            .collect();
        assert_eq!(vs, vec![vec![3, 4], vec![17, 11], vec![25], vec![38]]);
    }

    #[test]
    fn local_index_is_reusable_and_handles_empty_input() {
        let lookup = PartitionLookup::new(vec![0, 10, 20, 30, 40]);
        let mut index = LocalIndex::default();
        let big = walkers(&[25, 3, 17, 4, 38, 11]);
        index.sort(&big, &lookup);
        assert_eq!(index.len(), 6);
        let ids = |ws: &[Walker]| ws.iter().map(|w| w.id).collect::<Vec<_>>();
        assert_eq!(ids(index.run(0)), vec![1, 3]);
        assert_eq!(ids(index.run(1)), vec![2, 5]);
        // A smaller sort over the same buffers must not see stale movers.
        let small = walkers(&[35]);
        index.sort(&small, &lookup);
        assert_eq!(index.len(), 1);
        assert_eq!(ids(index.run(3)), vec![0]);
        assert!((0..3).all(|p| index.run(p).is_empty()));
        index.sort(&[], &lookup);
        assert_eq!(index.len(), 0);
        assert!((0..4).all(|p| index.run(p).is_empty()));
        // Nor may a cleared one.
        index.sort(&big, &lookup);
        index.clear();
        assert_eq!(index.len(), 0);
        assert!((0..4).all(|p| index.run(p).is_empty()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For arbitrary movers, partition counts and boundary tables,
        /// however the movers are cut into chunks, sorting each chunk on
        /// its own and reading partition `p`'s runs chunk by chunk gives
        /// `partition_groups`' group `p` element for element, with the
        /// groups filed by a binary search over the boundaries. That is
        /// the order the engine inserts a kernel's runs in.
        #[test]
        fn local_index_runs_equal_partition_groups(
            widths in prop::collection::vec(1u32..40, 1..=64),
            picks in prop::collection::vec(any::<u32>(), 0..400),
            cuts in prop::collection::vec(any::<u32>(), 0..6),
            reused in any::<bool>(),
        ) {
            let mut boundaries = vec![0u32];
            for w in &widths {
                boundaries.push(boundaries.last().unwrap() + w);
            }
            let nv = *boundaries.last().unwrap();
            let np = widths.len() as u32;
            let movers: Vec<Walker> = picks
                .iter()
                .enumerate()
                .map(|(i, &r)| Walker::new(i as u64, r % nv))
                .collect();
            let mut cuts: Vec<usize> = cuts
                .iter()
                .map(|&c| c as usize % (movers.len() + 1))
                .collect();
            cuts.extend([0, movers.len()]);
            cuts.sort_unstable();
            let lookup = PartitionLookup::new(boundaries.clone());
            let other = walkers(&(0..500).map(|i| i % nv).collect::<Vec<_>>());
            let indexes: Vec<LocalIndex> = cuts
                .windows(2)
                .map(|c| {
                    let mut index = LocalIndex::default();
                    if reused {
                        // Dirty the recycled buffers with an unrelated,
                        // larger sort.
                        index.sort(&other, &lookup);
                    }
                    index.sort(&movers[c[0]..c[1]], &lookup);
                    index
                })
                .collect();
            let b = boundaries.clone();
            let reference = partition_groups(
                movers.clone(),
                &move |w: &Walker| (b.partition_point(|&x| x <= w.vertex) - 1) as PartitionId,
                np,
            );
            let sorted: usize = indexes.iter().map(LocalIndex::len).sum();
            prop_assert_eq!(sorted, movers.len());
            for p in 0..np {
                let runs: Vec<Walker> = indexes.iter().flat_map(|x| x.run(p)).copied().collect();
                prop_assert_eq!(&runs, &reference[p as usize], "partition {}", p);
            }
        }
    }
}
