//! Low-level bit-packing helpers.
//!
//! Figure 2 of the paper shows the two packings of a 32×32 float tile into 32
//! `u32` words:
//!
//! * **column-major packing** — lane `i` holds bit-column `i`:
//!   `BVal[i] = __brev(__ballot_sync(FULL_MASK, f[i] > 0))` repeated per row;
//! * **row-major packing** — lane `i` holds bit-row `i`:
//!   `BVal[i] = (BVal[i] << 1) | (f[i] > 0)` repeated per column.
//!
//! The functions here implement both packings for a generic square tile of
//! dimension `dim ≤ 32` stored as a row-major `f32` slice, plus the nibble
//! packing (two 4-bit rows per `u8`) used by B2SR-4.

use crate::intrinsics::{ballot_from, brev_u32};
use crate::word::BitWord;

/// Pack a dense row-major `dim × dim` `f32` tile into `dim` words, **row-major**:
/// word `r` holds row `r`, bit `c` of word `r` is set iff `tile[r*dim + c] != 0`.
///
/// Bit `c` is the *least-significant-first* convention used throughout the
/// crate (bit 0 = column 0), matching how `__ballot_sync` indexes lanes.
pub fn pack_tile_rowmajor<W: BitWord>(tile: &[f32], dim: usize) -> Vec<W> {
    assert!(dim as u32 <= W::BITS, "tile dimension exceeds word width");
    assert_eq!(tile.len(), dim * dim, "tile slice has wrong length");
    let mut words = vec![W::ZERO; dim];
    for r in 0..dim {
        let mut w = W::ZERO;
        for c in 0..dim {
            if tile[r * dim + c] != 0.0 {
                w = w.with_bit(c as u32);
            }
        }
        words[r] = w;
    }
    words
}

/// Pack a dense row-major `dim × dim` `f32` tile into `dim` words,
/// **column-major**: word `c` holds column `c`, bit `r` of word `c` is set iff
/// `tile[r*dim + c] != 0`.
///
/// This is the default packing for the multiplicand tiles (the adjacency
/// matrix is accessed row-by-row while the binarized vector is packed
/// column-major, so the bit-dot-product is a single AND + popcount).
pub fn pack_tile_colmajor<W: BitWord>(tile: &[f32], dim: usize) -> Vec<W> {
    assert!(dim as u32 <= W::BITS, "tile dimension exceeds word width");
    assert_eq!(tile.len(), dim * dim, "tile slice has wrong length");
    let mut words = vec![W::ZERO; dim];
    for c in 0..dim {
        let mut w = W::ZERO;
        for r in 0..dim {
            if tile[r * dim + c] != 0.0 {
                w = w.with_bit(r as u32);
            }
        }
        words[c] = w;
    }
    words
}

/// The ballot-based 32×32 column packer exactly as in Figure 2 of the paper:
/// for each row the 32 "lanes" vote on `f > 0`, the vote word is bit-reversed,
/// and the packed columns are accumulated by shifting.
///
/// Only meaningful for `dim == 32`; provided to validate that the generic
/// packers above produce the same result as the intrinsic formulation
/// (`pack_tile_colmajor::<u32>` must equal `pack_tile_colmajor_ballot`
/// up to the documented bit order).
pub fn pack_tile_colmajor_ballot(tile: &[f32]) -> [u32; 32] {
    assert_eq!(tile.len(), 32 * 32, "ballot packer requires a 32x32 tile");
    let mut cols = [0u32; 32];
    for r in 0..32 {
        // Lane i votes on element (r, i) of the tile.
        let vote = ballot_from((0..32).map(|lane| tile[r * 32 + lane] != 0.0));
        let rev = brev_u32(vote);
        // Bit 31-i of `rev` is row-r's element in column i; distribute it.
        for (c, col) in cols.iter_mut().enumerate() {
            if (rev >> (31 - c)) & 1 == 1 {
                *col |= 1 << r;
            }
        }
    }
    cols
}

/// Unpack `dim` row-major words back into a dense row-major `f32` tile with
/// 1.0 at set bits — the inverse of [`pack_tile_rowmajor`].
pub fn unpack_tile_rowmajor<W: BitWord>(words: &[W], dim: usize) -> Vec<f32> {
    assert_eq!(words.len(), dim, "word slice has wrong length");
    let mut tile = vec![0.0f32; dim * dim];
    for r in 0..dim {
        for c in 0..dim {
            if words[r].bit(c as u32) {
                tile[r * dim + c] = 1.0;
            }
        }
    }
    tile
}

/// Transpose a packed square bit-tile into `out`: `out[c].bit(r) ==
/// words[r].bit(c)` for `r, c < dim`.
///
/// B2SR stores tiles row-major for `mxv`; the transpose (needed when the
/// algorithm wants `A^T`, e.g. pull-direction traversal or TC's `L·L^T`) is a
/// pure bit permutation, written straight into the caller's slot — a
/// whole-matrix transpose calls this once per tile and allocates nothing.
/// An 8×8 tile of `u8` rows is one `u64` and takes the three-step
/// delta-swap; every other shape takes the bit loop.
///
/// # Panics
/// Panics unless `words` and `out` both hold `dim` words.
#[inline]
pub fn transpose_tile_into<W: BitWord>(words: &[W], dim: usize, out: &mut [W]) {
    assert_eq!(words.len(), dim);
    assert_eq!(out.len(), dim);
    if dim == 8 && W::BITS == 8 {
        let t = transpose_8x8(W::pack_chunk_u64(words));
        for (k, o) in out.iter_mut().enumerate() {
            *o = W::from_u64(t >> (8 * k));
        }
        return;
    }
    out.fill(W::ZERO);
    for (r, word) in words.iter().enumerate() {
        for c in word.iter_ones() {
            if (c as usize) < dim {
                out[c as usize] = out[c as usize].with_bit(r as u32);
            }
        }
    }
}

/// Transpose an 8×8 bit matrix held as byte `r` = row `r`, bit `c` = column
/// `c`: swap the off-diagonal 1×1, 2×2 and 4×4 blocks in turn (Hacker's
/// Delight §7-3).
#[inline]
fn transpose_8x8(mut x: u64) -> u64 {
    let mut t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^ t ^ (t << 28)
}

/// Pack two 4-bit rows into each `u8`: nibble packing for B2SR-4 (§III-B).
///
/// `rows` holds one 4-bit row per entry (only the low nibble used); the result
/// has `ceil(len/2)` bytes, with even rows in the low nibble and odd rows in
/// the high nibble.
pub fn pack_nibbles(rows: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows.len().div_ceil(2));
    let mut it = rows.chunks(2);
    for pair in &mut it {
        let low = pair[0] & 0x0F;
        let high = if pair.len() > 1 {
            (pair[1] & 0x0F) << 4
        } else {
            0
        };
        out.push(low | high);
    }
    out
}

/// Inverse of [`pack_nibbles`]: expand each byte back into two 4-bit rows.
/// `n_rows` tells how many rows were originally packed (to drop a padding
/// nibble when the count was odd).
pub fn unpack_nibbles(packed: &[u8], n_rows: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n_rows);
    for &byte in packed {
        out.push(byte & 0x0F);
        if out.len() < n_rows {
            out.push(byte >> 4);
        }
        if out.len() >= n_rows {
            break;
        }
    }
    out.truncate(n_rows);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tile(dim: usize) -> Vec<f32> {
        // Deterministic pattern: (r*7 + c*3) % 5 == 0 marks a nonzero.
        (0..dim * dim)
            .map(|i| {
                let (r, c) = (i / dim, i % dim);
                if (r * 7 + c * 3) % 5 == 0 {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn transposed<W: BitWord>(words: &[W], dim: usize) -> Vec<W> {
        let mut out = vec![W::ONES; dim];
        transpose_tile_into(words, dim, &mut out);
        out
    }

    #[test]
    fn rowmajor_pack_roundtrip() {
        for dim in [4usize, 8, 16, 32] {
            let tile = sample_tile(dim);
            let packed = pack_tile_rowmajor::<u32>(&tile, dim);
            let back = unpack_tile_rowmajor(&packed, dim);
            assert_eq!(tile, back, "dim {dim}");
        }
    }

    #[test]
    fn colmajor_is_transpose_of_rowmajor() {
        for dim in [4usize, 8, 16, 32] {
            let tile = sample_tile(dim);
            let rows = pack_tile_rowmajor::<u32>(&tile, dim);
            let cols = pack_tile_colmajor::<u32>(&tile, dim);
            assert_eq!(transposed(&rows, dim), cols, "dim {dim}");
            assert_eq!(transposed(&cols, dim), rows, "dim {dim}");
        }
    }

    #[test]
    fn ballot_packer_matches_generic_colmajor() {
        let tile = sample_tile(32);
        let generic = pack_tile_colmajor::<u32>(&tile, 32);
        let ballot = pack_tile_colmajor_ballot(&tile);
        assert_eq!(generic, ballot.to_vec());
    }

    #[test]
    fn pack_respects_word_width() {
        let tile = sample_tile(8);
        let as_u8 = pack_tile_rowmajor::<u8>(&tile, 8);
        let as_u32 = pack_tile_rowmajor::<u32>(&tile, 8);
        for r in 0..8 {
            assert_eq!(as_u8[r] as u32, as_u32[r]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds word width")]
    fn packing_16_into_u8_panics() {
        let tile = sample_tile(16);
        let _ = pack_tile_rowmajor::<u8>(&tile, 16);
    }

    #[test]
    fn nibble_roundtrip_even_and_odd() {
        let rows: Vec<u8> = vec![0b0001, 0b1010, 0b0110, 0b1111, 0b0101];
        let packed = pack_nibbles(&rows);
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack_nibbles(&packed, rows.len()), rows);

        let even: Vec<u8> = vec![0xF, 0x1, 0x2, 0x3];
        assert_eq!(unpack_nibbles(&pack_nibbles(&even), 4), even);
    }

    #[test]
    fn nibble_packing_halves_storage() {
        let rows = vec![0x0Fu8; 64];
        assert_eq!(pack_nibbles(&rows).len(), 32);
    }

    #[test]
    fn transpose_is_involution() {
        let tile = sample_tile(16);
        let rows = pack_tile_rowmajor::<u16>(&tile, 16);
        assert_eq!(transposed(&transposed(&rows, 16), 16), rows);
    }

    /// The `u64` delta-swap an 8×8 `u8` tile takes equals the bit loop (run
    /// here on the same rows widened to `u16`, which never takes the swap).
    #[test]
    fn byte_tile_swap_equals_the_bit_loop() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let rows: Vec<u8> = state.to_le_bytes().to_vec();
            let wide: Vec<u16> = rows.iter().map(|&b| b as u16).collect();
            let expect: Vec<u8> = transposed(&wide, 8).iter().map(|&w| w as u8).collect();
            assert_eq!(transposed(&rows, 8), expect, "{rows:02x?}");
        }
        // Identity, a full row, a full column.
        let id: Vec<u8> = (0..8).map(|i| 1 << i).collect();
        assert_eq!(transposed(&id, 8), id);
        let mut row = vec![0u8; 8];
        row[2] = 0xFF;
        assert_eq!(transposed(&row, 8), vec![0b100u8; 8]);
    }
}
