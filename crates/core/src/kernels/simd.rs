//! The SWAR helpers behind the Boolean `_simd` sweep and the batched lane
//! words.
//!
//! The paper's premise is that bit-packed tiles turn traversal into dense
//! word operations that saturate wide vector units.  On stable Rust the
//! portable-SIMD module (`std::simd`) is not yet available and this crate
//! forbids `unsafe` (so no `std::arch` intrinsics either), so the vector
//! form is **SWAR** — SIMD Within A Register: every B2SR tile already packs
//! into one or more `u64` chunks ([`BitWord::pack_chunk_u64`]), and the
//! Boolean per-tile-row sweep of `bmv` becomes branch-free 64-bit lane
//! arithmetic over those chunks (8 rows of an 8×8 tile per operation, 4
//! rows of a 16×16 one).  The scalar Boolean sweep remains always-compiled
//! and is both the runtime fallback and the reference the differential
//! harness (`tests/simd_parity.rs`) checks the SWAR one against, word for
//! word.
//!
//! Which of the two runs is a per-[`Context`](crate::grb::Context) decision
//! ([`SimdPolicy`], stored on the workspace, seeded per process by the
//! `BITGBLAS_SIMD` environment variable), and under [`SimdPolicy::Auto`]
//! the per-tile-size profitability mask is a constant
//! ([`DEFAULT_LANE_MASK`]).  The policy selects the single-vector
//! Boolean pull sweep (`bmv_bin_bin_bin*_into`) and nothing else: the
//! full-precision pull has one body, and the batched kernels never
//! consulted it.

use bitgblas_bitops::BitWord;

/// Runtime selection between the scalar and the SWAR form of the
/// single-vector Boolean pull sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimdPolicy {
    /// Use the vector path where the per-tile-size profitability mask
    /// ([`DEFAULT_LANE_MASK`]) says it wins — the default.
    #[default]
    Auto,
    /// Always run the scalar sweep (the differential baseline).
    ForceScalar,
    /// Always run the SWAR sweep, profitable or not (for testing).
    ForceVector,
}

impl std::fmt::Display for SimdPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdPolicy::Auto => "auto",
            SimdPolicy::ForceScalar => "scalar",
            SimdPolicy::ForceVector => "vector",
        })
    }
}

impl std::str::FromStr for SimdPolicy {
    type Err = String;

    /// Parse the `BITGBLAS_SIMD` environment-variable spelling
    /// (`auto` / `scalar` / `vector`, case-insensitive).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(SimdPolicy::Auto),
            "scalar" | "force_scalar" | "off" => Ok(SimdPolicy::ForceScalar),
            "vector" | "force_vector" | "simd" | "on" => Ok(SimdPolicy::ForceVector),
            other => Err(format!(
                "unknown SIMD policy {other:?} (expected auto|scalar|vector)"
            )),
        }
    }
}

/// Default per-tile-size profitability mask for [`SimdPolicy::Auto`]: bit
/// `i` of the mask enables the vector path for tile size `4 << i`.  S4/S8
/// tiles pack 8–16 rows per SWAR word and S16 packs 4, so they default on;
/// a 32×32 tile leaves only two rows per `u64`, below the SWAR crossover,
/// so S32 takes the scalar sweep.
pub const DEFAULT_LANE_MASK: u8 = 0b0111;

/// The bit of a per-tile-size lane mask covering tiles of dimension
/// `tile_dim` (4 → bit 0, 8 → bit 1, 16 → bit 2, 32 → bit 3).
#[inline]
pub fn lane_mask_bit(tile_dim: usize) -> u8 {
    match tile_dim {
        4 => 1 << 0,
        8 => 1 << 1,
        16 => 1 << 2,
        _ => 1 << 3,
    }
}

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

/// Per-lane non-zero test: returns a `u64` whose lane-MSB is set exactly
/// for the non-zero `W`-wide lanes of `t` (all other bits clear).
///
/// This is the SWAR equivalent of a vector compare + movemask: adding
/// `0x7f…` to the low bits of a lane carries into the lane MSB iff any low
/// bit is set, and OR-ing `t` back in covers the MSB itself.  The adds
/// cannot carry across lanes because each per-lane sum is at most
/// `0x7f + 0x7f`.
#[inline(always)]
pub fn nonzero_lane_msbs<W: BitWord>(t: u64) -> u64 {
    let lsb = lsb_lanes::<W>();
    let msb = lsb << (W::BITS - 1);
    let low = msb - lsb;
    (((t & low).wrapping_add(low)) | t) & msb
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

    fn lanes<W: BitWord>(t: u64) -> Vec<u64> {
        let per = 64 / W::BITS;
        (0..per)
            .map(|k| (t >> (k * W::BITS)) & (((1u128 << W::BITS) - 1) as u64))
            .collect()
    }

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

    fn check_nonzero_msbs<W: BitWord>() {
        let msb = 1u64 << (W::BITS - 1);
        for &t in &exhaustive_words() {
            let got = nonzero_lane_msbs::<W>(t);
            for (k, lane) in lanes::<W>(t).into_iter().enumerate() {
                let lane_bits = (got >> (k as u32 * W::BITS)) & (((1u128 << W::BITS) - 1) as u64);
                let want = if lane != 0 { msb } else { 0 };
                assert_eq!(lane_bits, want, "word {t:#018x} lane {k}");
            }
        }
    }

    #[test]
    fn nonzero_lane_msbs_matches_per_lane_test() {
        check_nonzero_msbs::<u8>();
        check_nonzero_msbs::<u16>();
        check_nonzero_msbs::<u32>();
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

    #[test]
    fn policy_parses_and_displays() {
        assert_eq!("auto".parse::<SimdPolicy>().unwrap(), SimdPolicy::Auto);
        assert_eq!(
            "SCALAR".parse::<SimdPolicy>().unwrap(),
            SimdPolicy::ForceScalar
        );
        assert_eq!(
            "vector".parse::<SimdPolicy>().unwrap(),
            SimdPolicy::ForceVector
        );
        assert!("warp".parse::<SimdPolicy>().is_err());
        assert_eq!(SimdPolicy::ForceVector.to_string(), "vector");
        assert_eq!(SimdPolicy::default(), SimdPolicy::Auto);
    }

    #[test]
    fn lane_mask_bits_cover_the_four_tile_sizes() {
        assert_eq!(lane_mask_bit(4), 0b0001);
        assert_eq!(lane_mask_bit(8), 0b0010);
        assert_eq!(lane_mask_bit(16), 0b0100);
        assert_eq!(lane_mask_bit(32), 0b1000);
        assert_eq!(DEFAULT_LANE_MASK & lane_mask_bit(8), 0b0010);
        assert_eq!(DEFAULT_LANE_MASK & lane_mask_bit(32), 0);
    }
}
