//! Fixed-size walk batches (§III-B, Figure 6).
//!
//! Batches are the unit of walk-index storage and transfer. The core
//! invariant — *every walk in a batch currently stays in the batch's
//! partition* — is what guarantees a batch can always be fully processed
//! once its graph partition is resident. It is `debug_assert`ed on every
//! insertion and re-checked by integration tests with access to the
//! partition table.

use crate::walker::Walker;
use lt_graph::PartitionId;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// The next batch serial; see [`WalkBatch::serial`].
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A fixed-capacity array of walkers, all staying in the same partition.
#[derive(Clone, Debug)]
pub struct WalkBatch {
    partition: PartitionId,
    walkers: Vec<Walker>,
    capacity: usize,
    serial: u64,
}

impl WalkBatch {
    /// An empty batch bound to `partition`.
    pub fn new(partition: PartitionId, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        WalkBatch {
            partition,
            walkers: Vec::with_capacity(capacity),
            capacity,
            // Relaxed: the serial is a name, and the counter publishes
            // nothing else.
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The batch's name, stamped at creation and unique in the process:
    /// a drain that steps batches ahead of their acquire finds their
    /// outputs by it, wherever the batch has moved since.
    #[inline]
    pub(crate) fn serial(&self) -> u64 {
        self.serial
    }

    /// The partition every contained walker stays in.
    #[inline]
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Number of walkers currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.walkers.len()
    }

    /// Whether the batch holds no walkers.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.walkers.is_empty()
    }

    /// Whether the batch is at capacity (a "full batch" eligible for
    /// preemptive dispatch).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.walkers.len() == self.capacity
    }

    /// Batch capacity in walkers (`B / S_w`).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append-only insertion (the write-frontier operation). Returns the
    /// walker back if the batch is full.
    #[inline]
    pub fn push(&mut self, w: Walker) -> Result<(), Walker> {
        if self.walkers.len() >= self.capacity {
            return Err(w);
        }
        self.walkers.push(w);
        Ok(())
    }

    /// Append a run of walkers with one copy (the bulk form of
    /// [`WalkBatch::push`]).
    ///
    /// # Panics
    /// Panics if the run does not fit in the remaining capacity.
    #[inline]
    pub(crate) fn extend_from_slice(&mut self, run: &[Walker]) {
        assert!(
            run.len() <= self.capacity - self.walkers.len(),
            "run of {} walkers overflows a batch holding {} of {}",
            run.len(),
            self.walkers.len(),
            self.capacity
        );
        self.walkers.extend_from_slice(run);
    }

    /// The stored walkers.
    #[inline]
    pub fn walkers(&self) -> &[Walker] {
        &self.walkers
    }

    /// Take all walkers out, leaving the batch empty (used when the batch
    /// is fetched into the compute engine; afterwards the block is freed).
    pub fn drain(&mut self) -> Vec<Walker> {
        std::mem::take(&mut self.walkers)
    }

    /// Simulated transfer size of the *occupied* part of the batch, given
    /// the per-walk index size `S_w`.
    #[inline]
    pub fn bytes(&self, walker_bytes: u64) -> u64 {
        self.walkers.len() as u64 * walker_bytes
    }
}

/// The index range of run `k` when `len` walkers split into `chunks`
/// contiguous runs in storage order, sizes differing by at most one: run
/// `k` starts at `k*base + min(k, extra)`, so the first `len % chunks`
/// runs carry the extra walker. Concatenating the runs gives `0..len`,
/// which is what makes the parallel merge deterministic. Trailing runs are
/// empty when `chunks > len`.
pub(crate) fn chunk_range(len: usize, chunks: usize, k: usize) -> Range<usize> {
    assert!(k < chunks, "run {k} of {chunks}");
    let (base, extra) = (len / chunks, len % chunks);
    k * base + k.min(extra)..(k + 1) * base + (k + 1).min(extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full() {
        let mut b = WalkBatch::new(3, 2);
        assert!(b.push(Walker::new(0, 1)).is_ok());
        assert!(!b.is_full());
        assert!(b.push(Walker::new(1, 2)).is_ok());
        assert!(b.is_full());
        let rejected = b.push(Walker::new(2, 3)).unwrap_err();
        assert_eq!(rejected.id, 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.partition(), 3);
    }

    #[test]
    fn every_batch_gets_its_own_serial() {
        let serials: Vec<u64> = (0..4).map(|p| WalkBatch::new(p, 2).serial()).collect();
        let mut distinct = serials.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), serials.len(), "{serials:?}");
    }

    #[test]
    fn drain_empties() {
        let mut b = WalkBatch::new(0, 4);
        b.push(Walker::new(0, 1)).unwrap();
        b.push(Walker::new(1, 1)).unwrap();
        let ws = b.drain();
        assert_eq!(ws.len(), 2);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
        // Reusable after drain.
        b.push(Walker::new(2, 1)).unwrap();
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn chunk_ranges_are_a_contiguous_split() {
        for (len, chunks) in [(10, 3), (2, 4), (0, 2), (512, 2), (7, 1)] {
            let runs: Vec<Range<usize>> =
                (0..chunks).map(|k| chunk_range(len, chunks, k)).collect();
            let concat: Vec<usize> = runs.iter().cloned().flatten().collect();
            assert_eq!(concat, (0..len).collect::<Vec<_>>(), "{len} over {chunks}");
            let sizes: Vec<usize> = runs.iter().map(|r| r.len()).collect();
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(hi - lo <= 1, "{len} over {chunks}: sizes {sizes:?}");
            if chunks > len {
                assert!(runs[len..].iter().all(|r| r.is_empty()));
            }
        }
        let sizes: Vec<usize> = (0..3).map(|k| chunk_range(10, 3, k).len()).collect();
        assert_eq!(sizes, [4, 3, 3], "the first runs carry the extra walkers");
    }

    #[test]
    fn bytes_scale_with_occupancy() {
        let mut b = WalkBatch::new(0, 8);
        assert_eq!(b.bytes(16), 0);
        b.push(Walker::new(0, 1)).unwrap();
        b.push(Walker::new(1, 1)).unwrap();
        assert_eq!(b.bytes(16), 32);
        assert_eq!(b.bytes(8), 16);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = WalkBatch::new(0, 0);
    }
}
