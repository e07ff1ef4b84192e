//! Reserved fixed-block device memory pools (§III-B "Memory pool
//! reservation").
//!
//! CUDA kernels cannot `realloc`, so LightTraffic reserves the graph pool
//! and walk pool with `cudaMalloc` up front, organized in fixed-size blocks
//! (graph pool block = partition size, walk pool block = batch size), and
//! operates them as caches. [`BlockPool`] models that: it takes one
//! [`Gpu::reserve`] against the device's capacity at construction, held
//! for the device's life, and afterwards hands out slots without any
//! further device allocation.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::sim::{Gpu, OutOfMemory};

/// Index of a slot inside a [`BlockPool`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub usize);

/// A reserved pool of `num_blocks` fixed-size device blocks, each caching a
/// host-provided value of type `T` (partition data, walk batch, …).
#[derive(Debug)]
pub struct BlockPool<T> {
    blocks: Vec<Option<T>>,
    free: Vec<usize>,
    block_bytes: u64,
}

impl<T> BlockPool<T> {
    /// Reserve `num_blocks * block_bytes` of device memory.
    pub fn reserve(
        gpu: &mut Gpu,
        num_blocks: usize,
        block_bytes: u64,
    ) -> Result<Self, OutOfMemory> {
        // Saturates, so a product past `u64` is refused, not wrapped.
        gpu.reserve((num_blocks as u64).saturating_mul(block_bytes))?;
        Ok(BlockPool {
            blocks: (0..num_blocks).map(|_| None).collect(),
            free: (0..num_blocks).rev().collect(),
            block_bytes,
        })
    }

    /// Number of blocks in the pool.
    pub fn capacity(&self) -> usize {
        self.blocks.len()
    }

    /// Blocks currently free.
    pub fn free_blocks(&self) -> usize {
        self.free.len()
    }

    /// Size of each block in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Whether the pool has no free blocks.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Place `value` into a free block. Returns `None` (giving `value`
    /// back) when the pool is full — the caller must evict first, exactly
    /// like the cached pools in the paper.
    pub fn acquire(&mut self, value: T) -> Result<BlockId, T> {
        match self.free.pop() {
            Some(slot) => {
                debug_assert!(self.blocks[slot].is_none());
                self.blocks[slot] = Some(value);
                Ok(BlockId(slot))
            }
            None => Err(value),
        }
    }

    /// Free a block, returning its value (e.g. to evict it to host memory).
    ///
    /// # Panics
    /// Panics if the block is not in use.
    pub fn release(&mut self, id: BlockId) -> T {
        let v = self.blocks[id.0]
            .take()
            .expect("releasing an empty block: each acquired id is released once");
        self.free.push(id.0);
        v
    }

    /// Borrow the value cached in `id`.
    ///
    /// # Panics
    /// Panics if the block is not in use.
    pub fn get(&self, id: BlockId) -> &T {
        self.blocks[id.0]
            .as_ref()
            .expect("reading an empty block: callers hold only ids acquired and not yet released")
    }

    /// Mutably borrow the value cached in `id`.
    ///
    /// # Panics
    /// Panics if the block is not in use.
    pub fn get_mut(&mut self, id: BlockId) -> &mut T {
        self.blocks[id.0]
            .as_mut()
            .expect("writing an empty block: callers hold only ids acquired and not yet released")
    }

    /// Iterate over `(BlockId, &T)` for all in-use blocks.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &T)> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (BlockId(i), v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GpuConfig;

    fn gpu(bytes: u64) -> Gpu {
        Gpu::new(GpuConfig {
            memory_bytes: bytes,
            ..Default::default()
        })
    }

    #[test]
    fn reserve_accounts_device_memory() {
        let mut g = gpu(1 << 20);
        let pool: BlockPool<Vec<u8>> = BlockPool::reserve(&mut g, 4, 64 << 10).unwrap();
        assert_eq!(g.used_bytes(), 256 << 10);
        assert_eq!(pool.capacity(), 4);
    }

    #[test]
    fn reserve_fails_past_capacity() {
        let mut g = gpu(1 << 20);
        assert!(BlockPool::<()>::reserve(&mut g, 32, 64 << 10).is_err());
        assert!(BlockPool::<()>::reserve(&mut g, usize::MAX, 1 << 20).is_err());
        assert_eq!(g.used_bytes(), 0);
    }

    #[test]
    fn acquire_release_cycle() {
        let mut g = gpu(1 << 20);
        let mut pool: BlockPool<u32> = BlockPool::reserve(&mut g, 2, 1024).unwrap();
        let a = pool.acquire(10).unwrap();
        let b = pool.acquire(20).unwrap();
        assert!(pool.is_full());
        assert_eq!(pool.acquire(30), Err(30));
        assert_eq!(*pool.get(a), 10);
        assert_eq!(pool.release(a), 10);
        assert_eq!(pool.free_blocks(), 1);
        let c = pool.acquire(30).unwrap();
        assert_eq!(*pool.get(c), 30);
        *pool.get_mut(b) = 21;
        assert_eq!(*pool.get(b), 21);
    }

    #[test]
    fn iter_lists_in_use_blocks() {
        let mut g = gpu(1 << 20);
        let mut pool: BlockPool<u32> = BlockPool::reserve(&mut g, 3, 1024).unwrap();
        let a = pool.acquire(1).unwrap();
        let _b = pool.acquire(2).unwrap();
        pool.release(a);
        let vals: Vec<u32> = pool.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![2]);
    }

    #[test]
    #[should_panic(expected = "empty block")]
    fn double_release_panics() {
        let mut g = gpu(1 << 20);
        let mut pool: BlockPool<u32> = BlockPool::reserve(&mut g, 1, 16).unwrap();
        let a = pool.acquire(1).unwrap();
        pool.release(a);
        pool.release(a);
    }
}
