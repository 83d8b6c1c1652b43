//! The [`BitWord`] abstraction over the packing word types used by B2SR.
//!
//! The four B2SR variants pack each tile row into a different unsigned
//! integer type (Table I of the paper):
//!
//! | Tile size | Packing word | bits used per row |
//! |-----------|--------------|-------------------|
//! | 4×4       | `u8` (low 4) | 4                 |
//! | 8×8       | `u8`         | 8                 |
//! | 16×16     | `u16`        | 16                |
//! | 32×32     | `u32`        | 32                |
//!
//! `BitWord` exposes exactly the operations the kernels need — population
//! count, AND, OR, shift, bit get/set, reversal — so the BMV/BMM kernels can
//! be written once, generic over the tile size.

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, Not, Shl, Shr};

/// An unsigned machine word used to pack one row of a bit-tile.
pub trait BitWord:
    Copy
    + Clone
    + Debug
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + BitAndAssign
    + BitOrAssign
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
    + 'static
{
    /// Number of bits in the word (8, 16 or 32).
    const BITS: u32;

    /// The all-zeros word.
    const ZERO: Self;

    /// The all-ones word.
    const ONES: Self;

    /// Word with only the lowest bit set.
    const ONE: Self;

    /// Population count (`__popc` equivalent for this word width).
    fn popcount(self) -> u32;

    /// Bit reversal (`__brev` equivalent for this word width).
    fn reverse(self) -> Self;

    /// True if bit `i` (0 = least significant) is set.
    fn bit(self, i: u32) -> bool;

    /// Return `self` with bit `i` set.
    fn with_bit(self, i: u32) -> Self;

    /// Return `self` with bit `i` cleared.
    fn without_bit(self, i: u32) -> Self;

    /// Widen to `u64` (for accumulation and serialization).
    fn to_u64(self) -> u64;

    /// Truncating conversion from `u64`.
    fn from_u64(v: u64) -> Self;

    /// Number of trailing zeros; `Self::BITS` when the word is zero.
    fn trailing_zeros(self) -> u32;

    /// Iterator over the indices of set bits, from least to most significant.
    fn iter_ones(self) -> BitIter<Self> {
        BitIter { word: self }
    }

    /// Pack up to `64 / BITS` words into one `u64`: word `k` occupies bits
    /// `[k·BITS, (k+1)·BITS)`.  This is the tile-granular load of the fused
    /// BMV sweep — a whole 8×8 tile (or half a 16×16 one) becomes a single
    /// word whose set bits are enumerated in one `trailing_zeros` loop,
    /// instead of scanning the tile row-word by row-word.
    ///
    /// The concrete word types override this with branch-free full-chunk
    /// fast paths (a full `u8` chunk is one little-endian `u64` load);
    /// [`pack_chunk_u64_generic`] is the reference shift-OR loop every
    /// override must agree with, and the fallback for partial chunks.
    ///
    /// # Panics
    /// Debug-asserts that the chunk fits (`words.len() * BITS <= 64`).
    #[inline]
    fn pack_chunk_u64(words: &[Self]) -> u64 {
        pack_chunk_u64_generic(words)
    }
}

/// The reference shift-OR implementation of [`BitWord::pack_chunk_u64`]:
/// word `k` of the chunk lands at bits `[k·BITS, (k+1)·BITS)`.  The
/// per-type overrides are tested against this loop.
///
/// # Panics
/// Debug-asserts that the chunk fits (`words.len() * BITS <= 64`).
#[inline]
pub fn pack_chunk_u64_generic<W: BitWord>(words: &[W]) -> u64 {
    debug_assert!(words.len() as u32 * W::BITS <= 64);
    let mut packed = 0u64;
    for (k, &w) in words.iter().enumerate() {
        packed |= w.to_u64() << (k as u32 * W::BITS);
    }
    packed
}

/// Iterator over set-bit positions of a [`BitWord`].
#[derive(Debug, Clone)]
pub struct BitIter<W: BitWord> {
    word: W,
}

impl<W: BitWord> Iterator for BitIter<W> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.word == W::ZERO {
            None
        } else {
            let i = self.word.trailing_zeros();
            self.word = self.word.without_bit(i);
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.word.popcount() as usize;
        (n, Some(n))
    }
}

impl<W: BitWord> ExactSizeIterator for BitIter<W> {}

macro_rules! impl_bitword {
    ($ty:ty, $bits:expr, $pack:path) => {
        impl BitWord for $ty {
            const BITS: u32 = $bits;
            const ZERO: Self = 0;
            const ONES: Self = <$ty>::MAX;
            const ONE: Self = 1;

            #[inline(always)]
            fn popcount(self) -> u32 {
                self.count_ones()
            }

            #[inline(always)]
            fn reverse(self) -> Self {
                self.reverse_bits()
            }

            #[inline(always)]
            fn bit(self, i: u32) -> bool {
                debug_assert!(i < Self::BITS);
                (self >> i) & 1 == 1
            }

            #[inline(always)]
            fn with_bit(self, i: u32) -> Self {
                debug_assert!(i < Self::BITS);
                self | (1 << i)
            }

            #[inline(always)]
            fn without_bit(self, i: u32) -> Self {
                debug_assert!(i < Self::BITS);
                self & !(1 << i)
            }

            #[inline(always)]
            fn to_u64(self) -> u64 {
                self as u64
            }

            #[inline(always)]
            fn from_u64(v: u64) -> Self {
                v as $ty
            }

            #[inline(always)]
            fn trailing_zeros(self) -> u32 {
                <$ty>::trailing_zeros(self)
            }

            #[inline(always)]
            fn pack_chunk_u64(words: &[Self]) -> u64 {
                $pack(words)
            }
        }
    };
}

/// Full 8-byte chunks (a whole 8×8 tile, or two B2SR-4 tiles' worth of
/// rows) are a single little-endian `u64` load — the hot case of the
/// tile-granular sweeps.
#[inline(always)]
fn pack_chunk_u8(words: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(words) {
        Ok(bytes) => u64::from_le_bytes(bytes),
        Err(_) => pack_chunk_u64_generic(words),
    }
}

/// Full 4-halfword chunks (a quarter of a 16×16 tile) pack with three
/// shift-ORs, no loop.
#[inline(always)]
fn pack_chunk_u16(words: &[u16]) -> u64 {
    match words {
        [a, b, c, d] => {
            (*a as u64) | ((*b as u64) << 16) | ((*c as u64) << 32) | ((*d as u64) << 48)
        }
        _ => pack_chunk_u64_generic(words),
    }
}

/// Full 2-word chunks (two rows of a 32×32 tile) pack with one shift-OR.
#[inline(always)]
fn pack_chunk_u32(words: &[u32]) -> u64 {
    match words {
        [a, b] => (*a as u64) | ((*b as u64) << 32),
        _ => pack_chunk_u64_generic(words),
    }
}

/// A `u64` "chunk" is the word itself.
#[inline(always)]
fn pack_chunk_u64_word(words: &[u64]) -> u64 {
    match words {
        [a] => *a,
        _ => pack_chunk_u64_generic(words),
    }
}

impl_bitword!(u8, 8, pack_chunk_u8);
impl_bitword!(u16, 16, pack_chunk_u16);
impl_bitword!(u32, 32, pack_chunk_u32);
impl_bitword!(u64, 64, pack_chunk_u64_word);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bits<W: BitWord>() {
        let mut w = W::ZERO;
        for i in (0..W::BITS).step_by(3) {
            w = w.with_bit(i);
        }
        for i in 0..W::BITS {
            assert_eq!(w.bit(i), i % 3 == 0, "bit {i}");
        }
        let cleared = (0..W::BITS).fold(w, |acc, i| acc.without_bit(i));
        assert_eq!(cleared, W::ZERO);
    }

    #[test]
    fn set_get_clear_u8() {
        roundtrip_bits::<u8>();
    }

    #[test]
    fn set_get_clear_u16() {
        roundtrip_bits::<u16>();
    }

    #[test]
    fn set_get_clear_u32() {
        roundtrip_bits::<u32>();
    }

    #[test]
    fn set_get_clear_u64() {
        roundtrip_bits::<u64>();
    }

    #[test]
    fn constants_are_consistent() {
        assert_eq!(u8::ONES.popcount(), 8);
        assert_eq!(u16::ONES.popcount(), 16);
        assert_eq!(u32::ONES.popcount(), 32);
        assert_eq!(u64::ONES.popcount(), 64);
        assert_eq!(u32::ONE.trailing_zeros(), 0);
        assert_eq!(u32::ZERO.trailing_zeros(), 32);
    }

    #[test]
    fn pack_chunk_u64_places_each_word_at_its_offset() {
        let bytes: [u8; 8] = [0x01, 0x02, 0x00, 0x80, 0xFF, 0x00, 0x10, 0x7E];
        assert_eq!(u8::pack_chunk_u64(&bytes), u64::from_le_bytes(bytes));
        // Partial chunks (B2SR-4 stores 4 words per tile).
        assert_eq!(u8::pack_chunk_u64(&bytes[..4]), 0x8000_0201);
        let halves: [u16; 4] = [0xBEEF, 0x0000, 0x1234, 0x8001];
        assert_eq!(u16::pack_chunk_u64(&halves), 0x8001_1234_0000_BEEF);
        let words: [u32; 2] = [0xDEAD_BEEF, 0x0BAD_F00D];
        assert_eq!(u32::pack_chunk_u64(&words), 0x0BAD_F00D_DEAD_BEEF);
        assert_eq!(u8::pack_chunk_u64(&[]), 0);
        // Set-bit positions survive the packing: bit b of word k lands at
        // k*BITS + b.
        for (k, &w) in halves.iter().enumerate() {
            for b in w.iter_ones() {
                let packed = u16::pack_chunk_u64(&halves);
                assert_ne!(packed & (1u64 << (k as u32 * 16 + b)), 0);
            }
        }
    }

    #[test]
    fn pack_chunk_fast_paths_match_the_generic_loop() {
        // Full and partial chunks of every word type must agree with the
        // reference shift-OR loop the overrides replace.
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..8).map(|_| next() as u8).collect();
            for len in 0..=8 {
                assert_eq!(
                    u8::pack_chunk_u64(&bytes[..len]),
                    pack_chunk_u64_generic(&bytes[..len])
                );
            }
            let halves: Vec<u16> = (0..4).map(|_| next() as u16).collect();
            for len in 0..=4 {
                assert_eq!(
                    u16::pack_chunk_u64(&halves[..len]),
                    pack_chunk_u64_generic(&halves[..len])
                );
            }
            let words: Vec<u32> = (0..2).map(|_| next() as u32).collect();
            for len in 0..=2 {
                assert_eq!(
                    u32::pack_chunk_u64(&words[..len]),
                    pack_chunk_u64_generic(&words[..len])
                );
            }
            let w = next();
            assert_eq!(u64::pack_chunk_u64(&[w]), w);
            assert_eq!(u64::pack_chunk_u64(&[]), 0);
        }
    }

    #[test]
    fn iter_ones_yields_all_set_bits() {
        let w: u32 = 0b1001_0110;
        let ones: Vec<u32> = w.iter_ones().collect();
        assert_eq!(ones, vec![1, 2, 4, 7]);
        assert_eq!(0u16.iter_ones().count(), 0);
        assert_eq!(u8::ONES.iter_ones().count(), 8);
    }

    #[test]
    fn iter_ones_size_hint_is_exact() {
        let w: u32 = 0xF0F0_00FF;
        let it = w.iter_ones();
        assert_eq!(
            it.size_hint(),
            (w.count_ones() as usize, Some(w.count_ones() as usize))
        );
    }

    #[test]
    fn reverse_matches_std() {
        assert_eq!(BitWord::reverse(0x01u8), 0x80u8);
        assert_eq!(BitWord::reverse(0x0001u16), 0x8000u16);
        assert_eq!(BitWord::reverse(0x0000_0001u32), 0x8000_0000u32);
    }

    #[test]
    fn u64_roundtrip() {
        for v in [0u64, 1, 0xFF, 0xFFFF, 0xFFFF_FFFF] {
            assert_eq!(u32::from_u64(v).to_u64(), v & 0xFFFF_FFFF);
            assert_eq!(u8::from_u64(v).to_u64(), v & 0xFF);
        }
    }
}
