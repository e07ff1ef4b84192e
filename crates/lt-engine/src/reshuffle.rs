//! Walk reshuffling with two-level caching (§III-C, Algorithm 1).
//!
//! After a batch is processed, its updated walks must be inserted into the
//! write frontiers of their new partitions. The first-level cache is the
//! device walk pool's resident frontiers (see
//! [`crate::walkpool::DeviceWalkPool`]); this module implements the
//! second level: the per-SM *local index* in shared memory that sorts each
//! thread block's walks by target partition (counting sort over local
//! atomic counters + an inverted map), so global-memory frontier writes are
//! coalesced and contention drops.
//!
//! The data outcome is an ordering of the walks; the simulated *time*
//! difference between the two-level path and the direct-write baseline is
//! charged by [`lt_gpusim::CostModel::reshuffle_time`]. Figure 12 is
//! regenerated from exactly these two paths.

use crate::exec::ExecPool;
use crate::walker::Walker;
use lt_graph::PartitionId;

/// One phase-A counting-sort task: its chunk's sorted walkers plus the
/// per-partition offsets.
type SortTask<'a> = Box<dyn FnOnce() -> (Vec<Walker>, Vec<u32>) + Send + 'a>;

/// How updated walks are written to the frontiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshuffleMode {
    /// Per-SM local index + counting sort + coalesced writes (Algorithm 1).
    TwoLevel {
        /// Walks handled by one simulated thread block (SM).
        threads_per_block: usize,
    },
    /// Every thread writes its walk straight to global memory with an
    /// atomic append — the Figure 12 baseline.
    DirectWrite,
}

impl Default for ReshuffleMode {
    fn default() -> Self {
        ReshuffleMode::TwoLevel {
            threads_per_block: 1024,
        }
    }
}

/// Produce the frontier-write order for `walkers` under `mode`.
///
/// `partition_of(w)` gives each walker's target partition. Under
/// [`ReshuffleMode::DirectWrite`] the arrival order is kept (scattered
/// writes); under [`ReshuffleMode::TwoLevel`] each `threads_per_block`
/// chunk is stably counting-sorted by partition, mirroring Algorithm 1
/// lines 6–14, so consecutive writes target the same frontier.
pub fn write_order(
    walkers: Vec<Walker>,
    partition_of: &(dyn Fn(&Walker) -> PartitionId + Sync),
    num_partitions: u32,
    mode: ReshuffleMode,
) -> Vec<Walker> {
    match mode {
        ReshuffleMode::DirectWrite => walkers,
        ReshuffleMode::TwoLevel { threads_per_block } => {
            assert!(threads_per_block > 0);
            let mut out = Vec::with_capacity(walkers.len());
            for chunk in walkers.chunks(threads_per_block) {
                counting_sort_chunk(chunk, partition_of, num_partitions, &mut out);
            }
            out
        }
    }
}

/// Smallest mover count worth a grouping worker: below this the dispatch
/// costs more than the counting sort it would run (the reshuffle analog
/// of [`crate::kernel::MIN_CHUNK_WALKERS`]).
pub(crate) const MIN_MOVERS_PER_WORKER: usize = 2048;

/// Group reshuffled walkers by target partition in one serial pass of
/// arrival-order bucketing: `groups[p]` is exactly the arrival-order
/// subsequence of `walkers` targeting `p`. The reference the pooled
/// pipeline the engine runs (`partition_groups_pooled`) is tested against.
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

/// [`partition_groups`] as a two-phase parallel pipeline on the
/// persistent executor (DESIGN.md §10), preserving arrival order within
/// every group.
///
/// Phase 1 runs up to `threads` tasks over contiguous chunks of the
/// input (at least [`MIN_MOVERS_PER_WORKER`] movers each); each
/// bucket-counts its chunk per partition, prefix-sums the counts into
/// chunk-local offsets, and stably scatters the chunk into partition
/// order (the same counting sort Algorithm 1 runs per thread block).
/// Phase 2 runs tasks over contiguous *partition* ranges; each assembles
/// `groups[p]` by concatenating the chunk-local `p`-slices in chunk
/// order.
///
/// Because chunks are contiguous and concatenation follows chunk order,
/// `groups[p]` is the arrival-order subsequence for *any* thread count
/// and any chunking. That is the determinism argument the sharded insert
/// phase builds on: per-partition insertion order (and hence every
/// downstream decision) never depends on the thread count.
pub(crate) fn partition_groups_pooled(
    walkers: Vec<Walker>,
    partition_of: &(dyn Fn(&Walker) -> PartitionId + Sync),
    num_partitions: u32,
    threads: usize,
    exec: &ExecPool,
) -> Vec<Vec<Walker>> {
    let np = num_partitions as usize;
    let n = walkers.len();
    // Below the mover floor per thread, dispatch overhead dwarfs the
    // bucketing work — degrade toward the serial pass. Safe because the
    // output is worker-count invariant by construction.
    let workers = threads.clamp(1, (n / MIN_MOVERS_PER_WORKER).max(1));
    if workers <= 1 {
        return partition_groups(walkers, partition_of, num_partitions);
    }
    // Phase 1: per-chunk bucket count + prefix sum + stable scatter.
    let tasks: Vec<SortTask<'_>> = walkers
        .chunks(n.div_ceil(workers))
        .map(|chunk| {
            Box::new(move || {
                let mut out = Vec::new();
                let offsets = counting_sort_chunk(chunk, partition_of, num_partitions, &mut out);
                (out, offsets)
            }) as SortTask<'_>
        })
        .collect();
    let sorted = exec.run_ordered(tasks);
    // Phase 2: parallel assembly over disjoint partition ranges. Each
    // task owns a contiguous slice of `groups` and fills it from the
    // chunk-local slices, concatenated in chunk order.
    let mut groups: Vec<Vec<Walker>> = (0..np).map(|_| Vec::new()).collect();
    let range = np.div_ceil(workers).max(1);
    let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = groups
        .chunks_mut(range)
        .enumerate()
        .map(|(r, slot)| {
            let sorted = &sorted;
            Box::new(move || {
                for (i, g) in slot.iter_mut().enumerate() {
                    let p = r * range + i;
                    let total: usize = sorted.iter().map(|(_, o)| (o[p + 1] - o[p]) as usize).sum();
                    g.reserve_exact(total);
                    for (chunk, offsets) in sorted {
                        g.extend_from_slice(&chunk[offsets[p] as usize..offsets[p + 1] as usize]);
                    }
                }
            }) as Box<dyn FnOnce() + Send + '_>
        })
        .collect();
    exec.run_ordered(tasks);
    groups
}

/// Algorithm 1's shared-memory phase for one thread block: local counters
/// per partition, prefix sums for offsets, and the inverted map that
/// assigns adjacent output slots to walks with the same target partition.
/// Returns the per-partition offsets (length `num_partitions + 1`,
/// relative to the start of the chunk's appended region).
fn counting_sort_chunk(
    chunk: &[Walker],
    partition_of: &(dyn Fn(&Walker) -> PartitionId + Sync),
    num_partitions: u32,
    out: &mut Vec<Walker>,
) -> Vec<u32> {
    // localLen[part] = number of walks targeting `part` (atomicAdd per walk).
    let mut local_len = vec![0u32; num_partitions as usize];
    let parts: Vec<PartitionId> = chunk
        .iter()
        .map(|w| {
            let p = partition_of(w);
            local_len[p as usize] += 1;
            p
        })
        .collect();
    // Prefix sum of localLen gives each partition's base offset.
    let mut offsets = vec![0u32; num_partitions as usize + 1];
    for p in 0..num_partitions as usize {
        offsets[p + 1] = offsets[p] + local_len[p];
    }
    // Inverted map: stable scatter into the sorted layout.
    let base = out.len();
    out.resize(base + chunk.len(), Walker::new(u64::MAX, 0));
    let mut cursor = offsets.clone();
    for (w, &p) in chunk.iter().zip(parts.iter()) {
        let pos = cursor[p as usize];
        cursor[p as usize] += 1;
        out[base + pos as usize] = *w;
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn walkers(vs: &[u32]) -> Vec<Walker> {
        vs.iter()
            .enumerate()
            .map(|(i, &v)| Walker::new(i as u64, v))
            .collect()
    }

    // Partition = vertex / 10.
    fn pof(w: &Walker) -> PartitionId {
        w.vertex / 10
    }

    #[test]
    fn direct_write_keeps_order() {
        let ws = walkers(&[25, 3, 17, 4, 38]);
        let out = write_order(ws.clone(), &pof, 4, ReshuffleMode::DirectWrite);
        assert_eq!(out, ws);
    }

    #[test]
    fn two_level_groups_within_block() {
        let ws = walkers(&[25, 3, 17, 4, 38, 11]);
        let out = write_order(
            ws,
            &pof,
            4,
            ReshuffleMode::TwoLevel {
                threads_per_block: 6,
            },
        );
        // Grouped by partition, stable within groups:
        // part0: 3,4 ; part1: 17,11 ; part2: 25 ; part3: 38.
        let vs: Vec<u32> = out.iter().map(|w| w.vertex).collect();
        assert_eq!(vs, vec![3, 4, 17, 11, 25, 38]);
    }

    #[test]
    fn two_level_is_a_permutation() {
        let ws = walkers(&[5, 15, 25, 35, 1, 11, 21, 31, 9, 19]);
        let out = write_order(
            ws.clone(),
            &pof,
            4,
            ReshuffleMode::TwoLevel {
                threads_per_block: 4,
            },
        );
        let mut a: Vec<u64> = ws.iter().map(|w| w.id).collect();
        let mut b: Vec<u64> = out.iter().map(|w| w.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(out.iter().all(|w| w.id != u64::MAX));
    }

    #[test]
    fn chunking_respects_block_size() {
        // Two blocks of 3: sorting happens only within each block.
        let ws = walkers(&[30, 0, 10, 0, 30, 10]);
        let out = write_order(
            ws,
            &pof,
            4,
            ReshuffleMode::TwoLevel {
                threads_per_block: 3,
            },
        );
        let vs: Vec<u32> = out.iter().map(|w| w.vertex).collect();
        assert_eq!(vs, vec![0, 10, 30, 0, 10, 30]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out = write_order(vec![], &pof, 4, ReshuffleMode::default());
        assert!(out.is_empty());
    }

    /// The serial reference yields arrival-order groups, and the pooled
    /// two-phase pipeline matches it for any thread count and pool size —
    /// the bit-identity invariant the sharded insert phase relies on.
    #[test]
    fn partition_groups_pooled_matches_serial() {
        // Enough movers that the work floor still grants several workers —
        // the genuinely parallel path is exercised.
        let vs: Vec<u32> = (0..(4 * MIN_MOVERS_PER_WORKER as u32 + 13))
            .map(|i| (i * 29) % 40)
            .collect();
        let ws = walkers(&vs);
        let reference = partition_groups(ws.clone(), &pof, 4);
        for (p, group) in reference.iter().enumerate() {
            let expect: Vec<u64> = ws
                .iter()
                .filter(|w| pof(w) as usize == p)
                .map(|w| w.id)
                .collect();
            let got: Vec<u64> = group.iter().map(|w| w.id).collect();
            assert_eq!(got, expect, "group {p} is not in arrival order");
        }
        for pool_workers in [0, 1, 4] {
            let pool = ExecPool::new(pool_workers);
            for threads in [1, 2, 3, 4, 8, 999] {
                let got = partition_groups_pooled(ws.clone(), &pof, 4, threads, &pool);
                assert_eq!(got, reference, "{pool_workers} workers, {threads} threads");
            }
        }
    }

    #[test]
    fn partition_groups_handles_empty_and_tiny_inputs() {
        let pool = ExecPool::new(2);
        let empty = partition_groups_pooled(vec![], &pof, 4, 8, &pool);
        assert_eq!(empty.len(), 4);
        assert!(empty.iter().all(|g| g.is_empty()));
        let one = partition_groups_pooled(walkers(&[35]), &pof, 4, 8, &pool);
        assert_eq!(one[3].len(), 1);
        assert_eq!(one.iter().map(|g| g.len()).sum::<usize>(), 1);
    }

    /// Block sizes that divide the input unevenly still sort each block
    /// independently and concatenate them in block order.
    #[test]
    fn write_order_sorts_each_block_independently() {
        let vs: Vec<u32> = (0..257u32).map(|i| (i * 13) % 40).collect();
        let ws = walkers(&vs);
        for tpb in [3, 7, 64, 1024] {
            let mode = ReshuffleMode::TwoLevel {
                threads_per_block: tpb,
            };
            let got = write_order(ws.clone(), &pof, 4, mode);
            let mut expect = Vec::new();
            for block in ws.chunks(tpb) {
                let mut b = block.to_vec();
                b.sort_by_key(pof); // stable, like the counting sort
                expect.extend(b);
            }
            assert_eq!(got, expect, "tpb {tpb}");
        }
    }
}
