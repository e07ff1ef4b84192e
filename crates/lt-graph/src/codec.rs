//! Bit-packed blocks of `u32` values: the codec of `LTOOCGR2`'s streams
//! (DESIGN.md §16) and of the sorted sequences the serving layer keeps
//! for its done jobs (DESIGN.md §13).
//!
//! A stream is cut into blocks of 64 values (the last one padded with
//! zeros), and a block is as wide as its largest value:
//!
//! ```text
//! block: width u8 | 8 × width bytes: 64 values of `width` bits, LSB first
//! ```
//!
//! Unpacking a block is the same shifts and masks whatever the values
//! are, with no branch per value. It reads 264 bytes (`SLACK`) from the
//! block's first data byte on, so a buffer holding blocks keeps that many
//! bytes after its last one.
//!
//! The out-of-core format packs its own streams ([`crate::oocore`] knows
//! which); outside this crate the one public form is [`PackedSorted`], a
//! sorted sequence stored as the deltas between successive values.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::GraphError;

/// Values per bit-packed block.
pub(crate) const BLOCK_VALUES: usize = 64;

/// Widest block: a `u32` value or mod-2^32 zigzag delta.
pub(crate) const MAX_WIDTH: usize = 32;

/// Zigzag of a mod-2^32 difference: small magnitudes of either sign map
/// to small values.
#[inline]
pub(crate) fn zigzag(d: u32) -> u32 {
    let d = d as i32;
    ((d << 1) ^ (d >> 31)) as u32
}

#[inline]
pub(crate) fn unzigzag(x: u32) -> u32 {
    (x >> 1) ^ (x & 1).wrapping_neg()
}

/// Append `values` to `out` as blocks of [`BLOCK_VALUES`], each as wide
/// as its largest value; a short last block is padded with zeros.
pub(crate) fn pack(values: &[u32], out: &mut Vec<u8>) {
    for block in values.chunks(BLOCK_VALUES) {
        let width = 32 - block.iter().fold(0, |a, &v| a | v).leading_zeros();
        out.push(width as u8);
        let (mut acc, mut bits) = (0u64, 0);
        let padding = std::iter::repeat_n(&0, BLOCK_VALUES - block.len());
        for &v in block.iter().chain(padding) {
            acc |= u64::from(v) << bits;
            bits += width;
            while bits >= 8 {
                out.push(acc as u8);
                acc >>= 8;
                bits -= 8;
            }
        }
    }
}

/// Zero bytes after the last chunk in a region's read buffer. A block's
/// unpack reads [`SLACK`] bytes from its first data byte on whatever its
/// width, so every read has a fixed size and stays inside the buffer.
pub(crate) const SLACK: usize = 8 * MAX_WIDTH + 8;

/// Fill `out` from the blocks at `*pos` in `src`, advancing `*pos` past
/// them: one block per [`BLOCK_VALUES`] values. The chunk ends at `end`,
/// and `src` holds at least [`SLACK`] bytes past it. A block that does
/// not fit before `end` is truncation, and a width above [`MAX_WIDTH`] is
/// a format error.
pub(crate) fn unpack(
    src: &[u8],
    pos: &mut usize,
    end: usize,
    out: &mut [u32],
) -> Result<(), GraphError> {
    let mut short = [0u32; BLOCK_VALUES];
    for values in out.chunks_mut(BLOCK_VALUES) {
        if *pos >= end {
            return Err(truncated());
        }
        let width = usize::from(src[*pos]);
        if width > MAX_WIDTH {
            return Err(GraphError::Format(format!(
                "block width {width} is more than {MAX_WIDTH} bits"
            )));
        }
        let next = *pos + 1 + 8 * width;
        if next > end {
            return Err(truncated());
        }
        let bytes = src[*pos + 1..*pos + 1 + SLACK]
            .try_into()
            .expect("a region buffer holds SLACK bytes past its last chunk");
        match <&mut [u32; BLOCK_VALUES]>::try_from(&mut *values) {
            Ok(full) => UNPACK[width](bytes, full),
            Err(_) => {
                UNPACK[width](bytes, &mut short);
                values.copy_from_slice(&short[..values.len()]);
            }
        }
        *pos = next;
    }
    Ok(())
}

type UnpackBlock = fn(&[u8; SLACK], &mut [u32; BLOCK_VALUES]);

macro_rules! by_width {
    ($($w:literal)*) => { [$(unpack_block::<$w>),*] };
}

/// [`unpack_block`] for each width, indexed by width.
const UNPACK: [UnpackBlock; MAX_WIDTH + 1] = by_width!(
    0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
);

/// Unpack the 64 values of a block of width `W` from `bytes`, its
/// `8 × W` data bytes and what follows them. Eight values take exactly
/// `W` bytes, so value `j` of every group of eight starts at the same
/// byte and bit of its group, known at compile time: each value is one
/// fixed-offset 8-byte load, a constant shift and a mask, whatever the
/// values are.
#[inline(always)]
fn unpack_block<const W: usize>(bytes: &[u8; SLACK], out: &mut [u32; BLOCK_VALUES]) {
    let mask = ((1u64 << W) - 1) as u32;
    for (g, group) in out.chunks_exact_mut(8).enumerate() {
        let src = &bytes[g * W..g * W + W + 8];
        for (j, v) in group.iter_mut().enumerate() {
            let bit = j * W;
            *v = (u64::from_le_bytes(array_at(src, bit / 8)) >> (bit % 8)) as u32 & mask;
        }
    }
}

/// The `N` bytes of `buf` at `at`, as an array for `from_le_bytes`. The
/// caller has checked that `buf` holds them.
#[inline]
pub(crate) fn array_at<const N: usize>(buf: &[u8], at: usize) -> [u8; N] {
    let mut a = [0u8; N];
    a.copy_from_slice(&buf[at..at + N]);
    a
}

pub(crate) fn truncated() -> GraphError {
    GraphError::Format("out-of-core payload truncated".into())
}

/// A `u32` sequence packed as bit-packed blocks of the differences
/// between successive values (the first taken from 0), followed by the
/// 264 zero bytes (`SLACK`) its unpack reads past the last block.
///
/// Each block of 64 values costs the bit width of its widest gap, so a
/// dense sorted sequence packs into a few bits a value: the 81,920 sorted
/// visits of a 2048 × 40 DeepWalk job on `serve_tcp`'s graph take about
/// 24 KB, against 320 KB as `u32`s. Differences are taken mod 2^32, so
/// any sequence round-trips exactly; an unsorted one just packs wider.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedSorted {
    len: usize,
    bytes: Box<[u8]>,
}

impl PackedSorted {
    /// Pack `values`, ideally sorted ascending.
    pub fn pack(values: &[u32]) -> Self {
        let mut bytes = Vec::new();
        let (mut prev, mut deltas) = (0u32, [0u32; BLOCK_VALUES]);
        for block in values.chunks(BLOCK_VALUES) {
            for (d, &v) in deltas.iter_mut().zip(block) {
                *d = v.wrapping_sub(prev);
                prev = v;
            }
            pack(&deltas[..block.len()], &mut bytes);
        }
        bytes.resize(bytes.len() + SLACK, 0);
        PackedSorted {
            len: values.len(),
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// The packed values, in order, in a vector exactly their size.
    pub fn unpack(&self) -> Vec<u32> {
        let mut out = vec![0u32; self.len];
        unpack(&self.bytes, &mut 0, self.bytes.len() - SLACK, &mut out)
            .expect("a packed sequence holds every block its length needs");
        let mut prev = 0u32;
        for v in &mut out {
            prev = prev.wrapping_add(*v);
            *v = prev;
        }
        out
    }

    /// Bytes held on the heap: the blocks and the 264 bytes after them.
    pub fn heap_bytes(&self) -> usize {
        self.bytes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Blocks of every width round-trip, a short last block included,
    /// and zigzag inverts over all of `u32`.
    #[test]
    fn blocks_of_every_width_roundtrip() {
        for x in [0u32, 1, 2, 127, 1 << 31, u32::MAX, u32::MAX - 1] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
        assert_eq!((zigzag(1), zigzag(u32::MAX), zigzag(10)), (2, 1, 20));
        for width in 0..=32u32 {
            let top = (1u64 << width) - 1;
            let values: Vec<u32> = (0..150u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9) & top) as u32)
                .chain([top as u32])
                .collect();
            let mut bytes = Vec::new();
            pack(&values, &mut bytes);
            let len = bytes.len();
            assert_eq!(len, 3 * (1 + 8 * width as usize), "width {width}");
            bytes.resize(len + SLACK, 0xff);
            let mut got = vec![0; values.len()];
            let mut pos = 0;
            unpack(&bytes, &mut pos, len, &mut got).unwrap();
            assert_eq!((got, pos), (values, len), "width {width}");
            assert!(matches!(
                unpack(&bytes, &mut 0, len - 1, &mut [0; 151]),
                Err(GraphError::Format(_))
            ));
        }
    }

    /// A sorted sequence packs its deltas, so a block of equal values is
    /// as wide as the step into it; the decoded vector holds exactly its
    /// values; and an unsorted sequence round-trips too.
    #[test]
    fn sorted_sequences_pack_their_deltas() {
        let mut values = vec![7u32; 64];
        values.extend(vec![9u32; 64]);
        let p = PackedSorted::pack(&values);
        // Block 1: 7 then 63 zeros (3 bits); block 2: 2 then zeros (2 bits).
        assert_eq!(p.heap_bytes(), (1 + 8 * 3) + (1 + 8 * 2) + SLACK);
        let got = p.unpack();
        assert_eq!(got.capacity(), got.len());
        assert_eq!(got, values);
        let empty = PackedSorted::pack(&[]);
        assert_eq!(empty.unpack(), []);
        for few in [&[u32::MAX][..], &[0, u32::MAX], &[u32::MAX, 0, 5, 1]] {
            assert_eq!(PackedSorted::pack(few).unpack(), few);
        }
    }

    /// The steps between successive values of a generated sequence:
    /// mostly repeats and small gaps, some wide ones, some that saturate
    /// at `u32::MAX`.
    fn gap() -> impl Strategy<Value = u32> {
        prop_oneof![
            Just(0u32),
            0u32..4,
            0u32..1 << 16,
            any::<u32>(),
            Just(u32::MAX)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any sorted sequence round-trips exactly: empty, one value, long
        /// runs of equal values, gaps up to `u32::MAX`, and lengths off
        /// the 64-value block grid.
        #[test]
        fn sorted_sequences_roundtrip(
            runs in prop::collection::vec((gap(), prop_oneof![Just(1usize), 1usize..4, 1usize..300]), 0..=24),
        ) {
            let mut values = Vec::new();
            let mut v = 0u32;
            for (gap, run) in runs {
                v = v.saturating_add(gap);
                values.extend(std::iter::repeat_n(v, run));
            }
            let packed = PackedSorted::pack(&values);
            let got = packed.unpack();
            prop_assert_eq!(got.capacity(), got.len());
            prop_assert_eq!(got, values);
        }
    }
}
