//! The one checksum of both binary graph formats: `LTGRAPH2` (one sum
//! over the whole file, `io.rs`) and `LTOOCGR2` (one per chunk and one
//! over the header and partition table, `oocore.rs`).
//!
//! Four independent 64-bit lanes run over 32-byte stripes, a word at a
//! time; then the lanes, the tail words and the length are folded
//! together. [`Checksum`] is the streaming form: a reader feeds it the
//! file in pieces of whole stripes while each piece is still in cache,
//! and [`checksum`] is its one-shot case. Any split at 32-byte multiples
//! gives the same sum.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;

/// Bytes a lane round consumes: four lanes of one 8-byte word each.
pub(crate) const STRIPE: usize = 32;

/// One mixing step. For a fixed `word` it is a bijection of `lane`, and
/// for a fixed `lane` a bijection of `word` (odd multipliers, an add and
/// a rotation), so a change to any one input word always changes the
/// lane it feeds, and every later step carries that change to the end.
#[inline]
fn mix(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

/// A 64-bit checksum computed over a byte stream fed in pieces. Every
/// step is a bijection of the word it takes, so any change confined to
/// one 8-byte word — every single-bit flip — changes the sum, and so
/// does a change of length. Not a cryptographic hash: it guards against
/// corruption, not forgery.
#[derive(Clone, Debug)]
pub(crate) struct Checksum {
    lanes: [u64; 4],
    len: u64,
}

impl Checksum {
    pub(crate) fn new() -> Self {
        Checksum {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            len: 0,
        }
    }

    /// Feed `bytes`, a whole number of [`STRIPE`]s.
    pub(crate) fn update(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len() % STRIPE, 0, "a checksum piece is whole stripes");
        self.stripes(bytes);
    }

    fn stripes(&mut self, bytes: &[u8]) {
        let (stripes, _) = bytes.as_chunks::<STRIPE>();
        for stripe in stripes {
            let (words, _) = stripe.as_chunks::<8>();
            for (lane, word) in self.lanes.iter_mut().zip(words) {
                *lane = mix(*lane, u64::from_le_bytes(*word));
            }
        }
        self.len += (stripes.len() * STRIPE) as u64;
    }

    /// Feed the last piece, of any length, and return the sum.
    pub(crate) fn finish(mut self, last: &[u8]) -> u64 {
        self.stripes(last);
        let tail = &last[last.len() / STRIPE * STRIPE..];
        let len = self.len + tail.len() as u64;
        let mut h = len.wrapping_mul(P3);
        for lane in self.lanes {
            h = mix(h, lane);
        }
        for word in tail.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            h = mix(h, u64::from_le_bytes(w));
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// [`Checksum`] of `bytes` in one piece.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    Checksum::new().finish(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed input: 1,000 bytes of a multiplicative hash of the index.
    fn fixed_input() -> Vec<u8> {
        (0..1000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// The sums `LTOOCGR2` files were written with: recorded from the
    /// one-shot checksum before it had a streaming form, so a change
    /// here would make every existing out-of-core file read as corrupt.
    #[test]
    fn sums_are_pinned() {
        let data = fixed_input();
        let pins: [(usize, u64); 7] = [
            (0, 0x53748300ccd72d2b),
            (1, 0xcb181a41dcd5a7a3),
            (31, 0x403e26bb425ba43e),
            (32, 0x0409adb3793d40d6),
            (33, 0x4ae0c92575d96c83),
            (100, 0xc95df89a8a974be9),
            (1000, 0x8aacbceaf5516af3),
        ];
        for (len, sum) in pins {
            assert_eq!(checksum(&data[..len]), sum, "length {len}");
        }
    }

    /// Feeding the input in whole stripes, split anywhere at a 32-byte
    /// multiple and in any number of pieces, gives the one-shot sum.
    #[test]
    fn any_split_at_stripes_equals_the_one_shot_sum() {
        let data = fixed_input();
        for len in [0, 31, 32, 33, 64, 100, 999, 1000] {
            let data = &data[..len];
            let whole = checksum(data);
            for cut in (0..=len).step_by(STRIPE) {
                let mut sum = Checksum::new();
                sum.update(&data[..cut]);
                assert_eq!(sum.finish(&data[cut..]), whole, "length {len}, cut {cut}");
            }
            let mut sum = Checksum::new();
            let (stripes, _) = data.as_chunks::<STRIPE>();
            for stripe in stripes {
                sum.update(stripe);
            }
            assert_eq!(
                sum.finish(&data[stripes.len() * STRIPE..]),
                whole,
                "length {len}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "whole stripes")]
    fn a_piece_that_is_not_whole_stripes_is_refused() {
        Checksum::new().update(&[0; 33]);
    }

    /// Every single-bit flip of an input of any length changes the
    /// checksum, and so does a change of length.
    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        let data: Vec<u8> = (0..101u32).map(|i| (i * 37 % 251) as u8).collect();
        for len in [0, 1, 7, 8, 31, 32, 33, 64, 100, 101] {
            let bytes = &data[..len];
            let sum = checksum(bytes);
            if len > 0 {
                assert_ne!(sum, checksum(&bytes[..len - 1]), "{len}");
            }
            let mut flipped = bytes.to_vec();
            for bit in 0..8 * len {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum(&flipped), sum, "length {len}, bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }
}
