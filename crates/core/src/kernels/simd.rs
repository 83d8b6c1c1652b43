//! The SWAR lane helpers of the full-precision pull and the batched lane
//! words.
//!
//! The paper's premise is that bit-packed tiles turn traversal into dense
//! word operations that saturate wide vector units.  On stable Rust the
//! portable-SIMD module (`std::simd`) is not yet available and this crate
//! denies `unsafe` (so no `std::arch` intrinsics either: its one exception
//! is the `popcnt` dispatch of `kernels::bmm`'s row-word count), so the vector
//! form is **SWAR** — SIMD Within A Register: [`broadcast_lanes`] repeats
//! one packing word into every row lane of a packed tile chunk (the
//! full-precision pull's ragged-column mask, the batched pull's active
//! columns), and [`or_into`] / [`andnot_into`] are the unrolled lane-word
//! OR and AND-NOT of the batched sweeps.  The single-vector Boolean pull
//! has one tile body, in `kernels::bmv`.

use bitgblas_bitops::BitWord;

/// The repeated-LSB constant for `W`-wide lanes of a `u64`
/// (`0x0101…01` for 8-bit lanes, `0x0001_0001…` for 16-bit ones).
#[inline(always)]
pub fn lsb_lanes<W: BitWord>() -> u64 {
    debug_assert!(W::BITS <= 32, "SWAR lanes are at most 32 bits");
    u64::MAX / (((1u128 << W::BITS) - 1) as u64)
}

/// Broadcast one packing word into every `W`-wide lane of a `u64`.
#[inline(always)]
pub fn broadcast_lanes<W: BitWord>(w: W) -> u64 {
    w.to_u64().wrapping_mul(lsb_lanes::<W>())
}

/// `dst[i] |= src[i]` over paired slices, unrolled into 4-word blocks so
/// the compiler vectorizes the lane-word OR of the batched BMM sweep
/// (`wpn > 1`: one multi-word OR advances up to `64 · wpn` traversals).
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (db, sb) in (&mut d).zip(&mut s) {
        db[0] |= sb[0];
        db[1] |= sb[1];
        db[2] |= sb[2];
        db[3] |= sb[3];
    }
    for (dv, sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv |= *sv;
    }
}

/// `dst[i] &= !src[i]` over paired slices (the word-granular suppressed-lane
/// mask store of the batched BMM sweep), unrolled like [`or_into`].
#[inline]
pub fn andnot_into(dst: &mut [u64], src: &[u64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut d = dst.chunks_exact_mut(4);
    let mut s = src.chunks_exact(4);
    for (db, sb) in (&mut d).zip(&mut s) {
        db[0] &= !sb[0];
        db[1] &= !sb[1];
        db[2] &= !sb[2];
        db[3] &= !sb[3];
    }
    for (dv, sv) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *dv &= !*sv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exhaustive_words() -> Vec<u64> {
        let mut v = vec![
            0,
            u64::MAX,
            0x8000_0000_0000_0001,
            0x0100_0000_0001_0000,
            0x00ff_ff00_0f0f_0101,
        ];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            v.push(state);
        }
        v
    }

    #[test]
    fn broadcast_fills_every_lane() {
        assert_eq!(broadcast_lanes::<u8>(0xAB), 0xABAB_ABAB_ABAB_ABAB);
        assert_eq!(broadcast_lanes::<u16>(0xBEEF), 0xBEEF_BEEF_BEEF_BEEF);
        assert_eq!(broadcast_lanes::<u32>(0x0BAD_F00D), 0x0BAD_F00D_0BAD_F00D);
    }

    #[test]
    fn or_and_andnot_match_elementwise() {
        let a: Vec<u64> = exhaustive_words().into_iter().take(11).collect();
        let b: Vec<u64> = exhaustive_words().into_iter().skip(11).take(11).collect();
        let mut dst = a.clone();
        or_into(&mut dst, &b);
        for i in 0..11 {
            assert_eq!(dst[i], a[i] | b[i]);
        }
        let mut dst = a.clone();
        andnot_into(&mut dst, &b);
        for i in 0..11 {
            assert_eq!(dst[i], a[i] & !b[i]);
        }
    }
}
