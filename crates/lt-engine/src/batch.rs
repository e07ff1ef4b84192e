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

/// A fixed-capacity array of walkers, all staying in the same partition.
#[derive(Clone, Debug)]
pub struct WalkBatch {
    partition: PartitionId,
    walkers: Vec<Walker>,
    capacity: usize,
}

impl WalkBatch {
    /// An empty batch bound to `partition`.
    pub fn new(partition: PartitionId, capacity: usize) -> Self {
        assert!(capacity > 0, "batch capacity must be positive");
        WalkBatch {
            partition,
            walkers: Vec::with_capacity(capacity),
            capacity,
        }
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

    /// Take all walkers out as `chunks` contiguous runs in storage order
    /// (sizes differing by at most one), the unit of host-parallel kernel
    /// execution. Concatenating the chunks reproduces [`WalkBatch::drain`]
    /// exactly, which is what makes the parallel merge deterministic.
    /// Trailing chunks are empty when `chunks > len`.
    pub fn drain_chunks(&mut self, chunks: usize) -> Vec<Vec<Walker>> {
        split_chunks(self.drain(), chunks)
    }

    /// Simulated transfer size of the *occupied* part of the batch, given
    /// the per-walk index size `S_w`.
    #[inline]
    pub fn bytes(&self, walker_bytes: u64) -> u64 {
        self.walkers.len() as u64 * walker_bytes
    }
}

/// Split a walker list into `chunks` contiguous runs in storage order,
/// sizes differing by at most one: chunk `k` starts at
/// `k*base + min(k, extra)`, so the first `len % chunks` chunks carry the
/// extra walker. Trailing chunks are empty when `chunks > len`.
pub(crate) fn split_chunks(mut ws: Vec<Walker>, chunks: usize) -> Vec<Vec<Walker>> {
    assert!(chunks > 0, "at least one chunk");
    let (base, extra) = (ws.len() / chunks, ws.len() % chunks);
    // Cut tails off back to front so chunk 0 keeps the input allocation
    // (one memcpy per non-head chunk, none for the head or the inline
    // single-chunk path).
    let mut out: Vec<Vec<Walker>> = (1..chunks)
        .rev()
        .map(|k| ws.split_off(k * base + k.min(extra)))
        .collect();
    out.push(ws);
    out.reverse();
    out
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
    fn drain_chunks_is_a_contiguous_split() {
        let mut b = WalkBatch::new(0, 16);
        for i in 0..10 {
            b.push(Walker::new(i, 1)).unwrap();
        }
        let chunks = b.drain_chunks(3);
        assert!(b.is_empty());
        // 10 walkers over 3 chunks: sizes 4, 3, 3, in order.
        let sizes: Vec<usize> = chunks.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let ids: Vec<u64> = chunks.into_iter().flatten().map(|w| w.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>(), "concat == drain order");
    }

    #[test]
    fn drain_chunks_handles_more_chunks_than_walkers() {
        let mut b = WalkBatch::new(0, 4);
        b.push(Walker::new(0, 1)).unwrap();
        b.push(Walker::new(1, 1)).unwrap();
        let chunks = b.drain_chunks(4);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[0].len() + chunks[1].len(), 2);
        assert!(chunks[2].is_empty() && chunks[3].is_empty());
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
