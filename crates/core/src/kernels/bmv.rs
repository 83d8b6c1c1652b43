//! BMV — Binarized sparse Matrix × Vector kernels (Table II).
//!
//! The adjacency matrix is in B2SR; the vector comes in one of two layouts:
//!
//! * **binarized** (`bin` input): packed one tile-segment per word, produced
//!   by [`pack_vector_bits`] / [`pack_vector_tilewise`] — word `t` holds the
//!   `tile_dim` vector entries of tile-column `t` in its low bits;
//! * **full-precision** (`full` input): a plain `f32` slice.
//!
//! Each kernel processes one tile-row per logical warp, with one lane per
//! tile row inside the tile (Listing 1 of the paper): lane `r` loads bit-row
//! `r` of each tile, ANDs it against the vector word of that tile-column, and
//! accumulates with `popc`.  Rayon parallelises over tile-rows.
//!
//! Two kernel families live here:
//!
//! * **pull** (`bmv_bin_*`, `bmv_..._into`) — the dense sweep described
//!   above: cost independent of how many vector entries are active.  The
//!   `_into` variants write into caller-supplied buffers so the GrB layer's
//!   workspace pool can recycle them across iterations.  Each scheme and
//!   its masked twin are one generic body whose store-side mask hook the
//!   compiler specialises (a no-op when unmasked): the `_masked` name
//!   takes `Option<mask>`, the un-suffixed name is the `None` shorthand.
//! * **push** (`bmv_push_*`) — sparse-frontier scatter: only the tiles of
//!   the frontier's tile-rows are visited and their row words scattered into
//!   the output, so the cost is proportional to the frontier's edge count.
//!   The kernels are serial and allocation-free (the right shape for tiny
//!   frontiers); the GrB layer runs them per frontier segment over a
//!   [`crate::shard::ShardPlan`]'s row shards when a scatter is large
//!   enough to parallelise (`grb::backend`'s sharded-or-serial routine).

use rayon::prelude::*;

use bitgblas_bitops::BitWord;

use crate::b2sr::B2sr;
use crate::semiring::{with_semiring_ops, Semiring};

/// Pack a boolean vector into tile-granular words: word `t` holds entries
/// `t*tile_dim .. (t+1)*tile_dim`, bit `i` = entry `t*tile_dim + i`.
pub fn pack_vector_bits<W: BitWord>(v: &[bool], tile_dim: usize) -> Vec<W> {
    let mut words = Vec::new();
    pack_vector_bits_into(v, tile_dim, &mut words);
    words
}

/// As [`pack_vector_bits`], writing into a caller-supplied buffer (resized
/// to the word count) instead of allocating.
pub fn pack_vector_bits_into<W: BitWord>(v: &[bool], tile_dim: usize, words: &mut Vec<W>) {
    assert!(tile_dim as u32 <= W::BITS);
    words.clear();
    words.resize(v.len().div_ceil(tile_dim), W::ZERO);
    for (i, &b) in v.iter().enumerate() {
        if b {
            words[i / tile_dim] = words[i / tile_dim].with_bit((i % tile_dim) as u32);
        }
    }
}

/// Pack a dense `f32` vector into tile-granular words (bit set where the
/// entry is nonzero) — the "binarize the multiplier vector" step of the
/// paper's BMV schemes.
pub fn pack_vector_tilewise<W: BitWord>(v: &[f32], tile_dim: usize) -> Vec<W> {
    let mut words = Vec::new();
    pack_vector_tilewise_into(v, tile_dim, &mut words);
    words
}

/// As [`pack_vector_tilewise`], writing into a caller-supplied buffer
/// (resized to the word count) instead of allocating.
pub fn pack_vector_tilewise_into<W: BitWord>(v: &[f32], tile_dim: usize, words: &mut Vec<W>) {
    assert!(tile_dim as u32 <= W::BITS);
    words.clear();
    words.resize(v.len().div_ceil(tile_dim), W::ZERO);
    for (i, &x) in v.iter().enumerate() {
        if x != 0.0 {
            words[i / tile_dim] = words[i / tile_dim].with_bit((i % tile_dim) as u32);
        }
    }
}

/// Unpack tile-granular words back into `len` booleans.
pub fn unpack_vector_bits<W: BitWord>(words: &[W], tile_dim: usize, len: usize) -> Vec<bool> {
    (0..len)
        .map(|i| {
            let w = i / tile_dim;
            w < words.len() && words[w].bit((i % tile_dim) as u32)
        })
        .collect()
}

/// `bmv_bin_bin_bin()`: binarized matrix × binarized vector → binarized
/// vector, over the Boolean semiring.
///
/// `x` must hold one word per tile-column ([`pack_vector_bits`]); the result
/// holds one word per tile-row, bit `r` set iff output row `tr*dim + r` is
/// reachable.  This is the minimal-footprint scheme used by BFS.
pub fn bmv_bin_bin_bin<W: BitWord>(a: &B2sr<W>, x: &[W]) -> Vec<W> {
    let mut y = vec![W::ZERO; a.n_tile_rows()];
    bmv_bin_bin_bin_into(a, x, &mut y);
    y
}

/// As [`bmv_bin_bin_bin`], writing into a caller-supplied slice of
/// `n_tile_rows` words (every word is overwritten).
pub fn bmv_bin_bin_bin_into<W: BitWord>(a: &B2sr<W>, x: &[W], y: &mut [W]) {
    bin_bin_bin_sweep(a, x, y, |_| !W::ZERO);
}

/// `bmv_bin_bin_bin_masked()`: as [`bmv_bin_bin_bin_into`] but with the
/// output ANDed against the *negation* of `mask` right before the store —
/// the visited-vertex filter of BFS (§V).  `mask` is packed per tile-row
/// like the output; `None` is the unmasked scheme.
pub fn bmv_bin_bin_bin_masked_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[W],
    mask: Option<&[W]>,
    y: &mut [W],
) {
    match mask {
        Some(m) => {
            debug_assert!(m.len() >= a.n_tile_rows(), "mask has too few tile words");
            bin_bin_bin_sweep(a, x, y, |tr| !m[tr]);
        }
        None => bmv_bin_bin_bin_into(a, x, y),
    }
}

/// The one body behind the scalar bin/bin/bin scheme and its masked twin:
/// `keep(tr)` is the word of rows of tile-row `tr` the store lets through
/// (all ones when unmasked — the compiler specialises each case).
fn bin_bin_bin_sweep<W: BitWord>(
    a: &B2sr<W>,
    x: &[W],
    y: &mut [W],
    keep: impl Fn(usize) -> W + Sync,
) {
    debug_assert!(x.len() >= a.n_tile_cols(), "vector has too few tile words");
    debug_assert!(y.len() >= a.n_tile_rows(), "output has too few tile words");
    let dim = a.tile_dim();
    y.par_iter_mut().enumerate().for_each(|(tr, out)| {
        if tr >= a.n_tile_rows() {
            *out = W::ZERO;
            return;
        }
        let mut acc = W::ZERO;
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let xw = x[tc];
            let words = a.tile_words(idx);
            // Lane r: does row r of this tile reach any active column?
            for (r, &aw) in words.iter().enumerate().take(dim) {
                if (aw & xw) != W::ZERO {
                    acc = acc.with_bit(r as u32);
                }
            }
        }
        // Bitmask applied right before the output store (no early exit, to
        // avoid the warp divergence the paper describes).
        *out = acc & keep(tr);
    });
}

/// `bmv_bin_bin_full()`: binarized matrix × binarized vector → full-precision
/// vector.  Output row `i` counts how many active columns row `i` reaches
/// (`__popc(A & b)` accumulated per tile), i.e. the arithmetic semiring over
/// binary operands.
pub fn bmv_bin_bin_full<W: BitWord>(a: &B2sr<W>, x: &[W]) -> Vec<f32> {
    bmv_bin_bin_full_masked(a, x, None)
}

/// `bmv_bin_bin_full_masked()`: as [`bmv_bin_bin_full`] but output rows whose
/// mask bit is set are forced to `0.0` (bit `r` of `mask[tr]` covers row
/// `tr*dim + r`); `None` is the unmasked scheme.
pub fn bmv_bin_bin_full_masked<W: BitWord>(a: &B2sr<W>, x: &[W], mask: Option<&[W]>) -> Vec<f32> {
    debug_assert!(x.len() >= a.n_tile_cols(), "vector has too few tile words");
    debug_assert!(
        mask.is_none_or(|m| m.len() >= a.n_tile_rows()),
        "mask has too few tile words"
    );
    let dim = a.tile_dim();
    let padded = a.n_tile_rows() * dim;
    let mut y = vec![0.0f32; padded];
    y.par_chunks_mut(dim).enumerate().for_each(|(tr, out)| {
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let xw = x[tc];
            let words = a.tile_words(idx);
            for (r, &aw) in words.iter().enumerate().take(dim) {
                out[r] += (aw & xw).popcount() as f32;
            }
        }
        if let Some(m) = mask {
            for (r, v) in out.iter_mut().enumerate() {
                if m[tr].bit(r as u32) {
                    *v = 0.0;
                }
            }
        }
    });
    y.truncate(a.nrows());
    y
}

/// `bmv_bin_full_full()`: binarized matrix × full-precision vector →
/// full-precision vector, generic over the semiring (Table IV).
///
/// * `Arithmetic` — `y[i] = Σ_{j : A[i][j]=1} x[j]` (PageRank, with the
///   out-degree division folded into `x` by the caller);
/// * `MinPlus(w)` — `y[i] = min_{j : A[i][j]=1} (x[j] + w)`; absent edges act
///   as `+∞` exactly as the paper's SSSP relaxation treats the 0s of the
///   adjacency matrix;
/// * `Boolean` / `MaxTimes` analogous.
pub fn bmv_bin_full_full<W: BitWord>(a: &B2sr<W>, x: &[f32], semiring: Semiring) -> Vec<f32> {
    let mut y = vec![semiring.identity(); a.n_tile_rows() * a.tile_dim()];
    bmv_bin_full_full_into(a, x, semiring, &mut y);
    y.truncate(a.nrows());
    y
}

/// As [`bmv_bin_full_full`], writing into a caller-supplied slice of padded
/// length `n_tile_rows * tile_dim` (every entry is overwritten; the caller
/// truncates to `nrows`).
pub fn bmv_bin_full_full_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
) {
    bin_full_full_sweep(a, x, semiring, y, |_, _| {});
}

/// `bmv_bin_full_full_masked()`: as [`bmv_bin_full_full_into`] but rows whose
/// mask entry is `true` produce the semiring identity (they are filtered
/// out at the store); `None` is the unmasked scheme.
pub fn bmv_bin_full_full_masked_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    mask: Option<&[bool]>,
    semiring: Semiring,
    y: &mut [f32],
) {
    match mask {
        Some(m) => bin_full_full_sweep(a, x, semiring, y, row_mask(a, m, semiring)),
        None => bmv_bin_full_full_into(a, x, semiring, y),
    }
}

/// The store-side row mask of the full-precision sweeps, as the sweeps'
/// `mask_rows(tile_row, out)` hook: rows of the tile-row whose `mask` entry
/// is `true` get the semiring identity.
fn row_mask<'m, W: BitWord>(
    a: &B2sr<W>,
    mask: &'m [bool],
    semiring: Semiring,
) -> impl Fn(usize, &mut [f32]) + Sync + 'm {
    debug_assert!(mask.len() >= a.nrows(), "mask shorter than matrix rows");
    let (dim, nrows) = (a.tile_dim(), a.nrows());
    move |tr, out| {
        for (r, v) in out.iter_mut().enumerate() {
            if tr * dim + r < nrows && mask[tr * dim + r] {
                *v = semiring.identity();
            }
        }
    }
}

/// The one body behind the scalar bin/full/full scheme and its masked twin:
/// `mask_rows(tr, out)` runs on each finished tile-row right before it is
/// left in `y` (a no-op when unmasked — the compiler specialises each case).
fn bin_full_full_sweep<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
    mask_rows: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert!(x.len() >= a.ncols(), "vector shorter than matrix columns");
    let dim = a.tile_dim();
    let padded = a.n_tile_rows() * dim;
    debug_assert!(
        y.len() >= padded,
        "output shorter than the padded row count"
    );
    y.par_chunks_mut(dim).enumerate().for_each(|(tr, out)| {
        for v in out.iter_mut() {
            *v = semiring.identity();
        }
        if tr >= a.n_tile_rows() {
            return;
        }
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let base = tc * dim;
            let words = a.tile_words(idx);
            for (r, &aw) in words.iter().enumerate().take(dim) {
                if aw == W::ZERO {
                    continue;
                }
                let mut acc = out[r];
                for dc in aw.iter_ones() {
                    let j = base + dc as usize;
                    if j < x.len() {
                        acc = semiring.reduce(acc, semiring.combine(x[j]));
                    }
                }
                out[r] = acc;
            }
        }
        mask_rows(tr, out);
    });
}

/// `bmv_bin_full_full_fused_into()`: the pull sweep of a fused expression
/// pipeline (PR 3).  Computes each output row's raw semiring value exactly
/// like [`bmv_bin_full_full_into`], then stores `y[r] = finish(r, t_r)` —
/// the planner packs the mask test, every element-wise epilogue stage and
/// the accumulator into `finish`, so a whole `mxv → apply → accum` chain is
/// one sweep over the matrix.
///
/// Unlike the generic kernel, the semiring is dispatched **once per call**
/// (not once per set bit): each semiring gets a monomorphised inner loop.
/// The sweep is also tile-granular: each tile's row words are packed into
/// 64-bit chunks ([`BitWord::pack_chunk_u64`]) and the set bits of a whole
/// 8×8 tile (half of a 16×16 one, …) are enumerated by one
/// `trailing_zeros` loop — on scatter-pattern matrices, where most tiles
/// hold only a couple of bits, this replaces the per-row word scan (mostly
/// hitting empty words) with a single load-test-extract.  Row accumulators
/// live in a stack-local tile buffer instead of read-modify-writing `y`
/// once per tile.
///
/// `y` must have the padded length `n_tile_rows * tile_dim`; rows past
/// `nrows` receive the semiring identity and are truncated by the caller.
pub fn bmv_bin_full_full_fused_into<W: BitWord, F: Fn(usize, f32) -> f32 + Sync>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    finish: F,
    y: &mut [f32],
) {
    debug_assert!(x.len() >= a.ncols(), "vector shorter than matrix columns");
    with_semiring_ops!(semiring, |identity, combine, reduce| {
        bit_fused_sweep(a, x, identity, combine, reduce, finish, y)
    })
}

/// The monomorphised tile-row sweep behind [`bmv_bin_full_full_fused_into`].
fn bit_fused_sweep<W, C, R, F>(
    a: &B2sr<W>,
    x: &[f32],
    identity: f32,
    combine: C,
    reduce: R,
    finish: F,
    y: &mut [f32],
) where
    W: BitWord,
    C: Fn(f32) -> f32 + Sync,
    R: Fn(f32, f32) -> f32 + Sync,
    F: Fn(usize, f32) -> f32 + Sync,
{
    let dim = a.tile_dim();
    let nrows = a.nrows();
    let padded = a.n_tile_rows() * dim;
    debug_assert!(
        y.len() >= padded,
        "output shorter than the padded row count"
    );
    debug_assert!(dim <= 32, "B2SR tiles are at most 32x32");
    y.par_chunks_mut(dim).enumerate().for_each(|(tr, out)| {
        if tr >= a.n_tile_rows() {
            for v in out.iter_mut() {
                *v = identity;
            }
            return;
        }
        // Row accumulators for this tile-row, in registers/L1 instead of a
        // per-tile read-modify-write of `y`.
        let mut acc = [0.0f32; 32];
        for slot in acc[..dim].iter_mut() {
            *slot = identity;
        }
        // Words per 64-bit chunk: a whole 8×8 tile, half a 16×16 one, …
        let per = (64 / W::BITS) as usize;
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let base = tc * dim;
            let words = a.tile_words(idx);
            for (ci, chunk) in words[..dim.min(words.len())].chunks(per).enumerate() {
                // Tile-granular scan: every set bit of the chunk in one
                // trailing_zeros loop; bit `b` is row `b / BITS` (within
                // the chunk), column `b % BITS` of the tile.
                let mut w64 = W::pack_chunk_u64(chunk);
                let r0 = ci * per;
                while w64 != 0 {
                    let b = w64.trailing_zeros();
                    w64 &= w64 - 1;
                    let r = r0 + (b / W::BITS) as usize;
                    let j = base + (b % W::BITS) as usize;
                    // Guard the ragged last tile-column (ncols % dim != 0).
                    if j < x.len() {
                        acc[r] = reduce(acc[r], combine(x[j]));
                    }
                }
            }
        }
        let row0 = tr * dim;
        for (r, v) in out.iter_mut().enumerate() {
            let gr = row0 + r;
            *v = if gr < nrows {
                finish(gr, acc[r])
            } else {
                identity
            };
        }
    });
}

// ---------------------------------------------------------------------------
// SWAR-vector pull kernels (PR 9)
// ---------------------------------------------------------------------------
//
// Each `_simd` kernel computes bit-for-bit the same output as its scalar
// counterpart above — it parallelises across tile rows (lanes), never across
// one row's reduction terms, so per-row fold order is unchanged — but the
// inner loop runs on whole 64-bit tile chunks ([`BitWord::pack_chunk_u64`])
// with branch-free lane arithmetic from [`super::simd`].  The scalar kernels
// stay compiled as the runtime fallback and differential reference; which
// path executes is the backend's per-context [`SimdPolicy`] decision.

use super::simd::{broadcast_lanes, lsb_lanes, nonzero_lane_msbs};

/// SWAR-vector variant of [`bmv_bin_bin_bin_into`]: instead of testing the
/// `dim` row words of a tile one by one, each 64-bit chunk of the tile is
/// ANDed against the broadcast vector word and a single SWAR non-zero-lane
/// test yields the reachable rows of up to `64 / BITS` tile rows at once.
pub fn bmv_bin_bin_bin_simd_into<W: BitWord>(a: &B2sr<W>, x: &[W], y: &mut [W]) {
    bin_bin_bin_simd_sweep(a, x, y, |_| !W::ZERO);
}

/// SWAR-vector variant of [`bmv_bin_bin_bin_masked_into`] — the
/// [`bmv_bin_bin_bin_simd_into`] sweep with the visited filter ANDed in
/// right before the store, exactly like the scalar kernel.
pub fn bmv_bin_bin_bin_masked_simd_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[W],
    mask: Option<&[W]>,
    y: &mut [W],
) {
    match mask {
        Some(m) => {
            debug_assert!(m.len() >= a.n_tile_rows(), "mask has too few tile words");
            bin_bin_bin_simd_sweep(a, x, y, |tr| !m[tr]);
        }
        None => bmv_bin_bin_bin_simd_into(a, x, y),
    }
}

/// The one body behind the SWAR bin/bin/bin scheme and its masked twin
/// (`keep` as in the scalar sweep).
fn bin_bin_bin_simd_sweep<W: BitWord>(
    a: &B2sr<W>,
    x: &[W],
    y: &mut [W],
    keep: impl Fn(usize) -> W + Sync,
) {
    debug_assert!(x.len() >= a.n_tile_cols(), "vector has too few tile words");
    debug_assert!(y.len() >= a.n_tile_rows(), "output has too few tile words");
    let dim = a.tile_dim();
    let per = (64 / W::BITS) as usize;
    y.par_iter_mut().enumerate().for_each(|(tr, out)| {
        if tr >= a.n_tile_rows() {
            *out = W::ZERO;
            return;
        }
        let mut acc = W::ZERO;
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let xb = broadcast_lanes::<W>(x[tc]);
            let words = a.tile_words(idx);
            for (ci, chunk) in words[..dim.min(words.len())].chunks(per).enumerate() {
                // One AND + one SWAR non-zero test covers `per` tile rows;
                // each surviving lane MSB is one reachable row.
                let mut nz = nonzero_lane_msbs::<W>(W::pack_chunk_u64(chunk) & xb);
                let r0 = (ci * per) as u32;
                while nz != 0 {
                    let b = nz.trailing_zeros();
                    nz &= nz - 1;
                    acc = acc.with_bit(r0 + b / W::BITS);
                }
            }
        }
        *out = acc & keep(tr);
    });
}

/// SWAR-vector variant of [`bmv_bin_full_full_into`].
///
/// The scalar kernel gathers row by row (`combine(x[j])` recomputed for
/// every row that holds column `j`).  This sweep goes column-major inside
/// each tile: the tile's set columns are enumerated once (from the OR of
/// its row words), `combine(x[j])` is hoisted to one evaluation per column,
/// and a SWAR column-strobe against the packed tile chunks yields exactly
/// the rows holding that column.  For any fixed output row the columns
/// still arrive in ascending order within each tile and tiles in the same
/// order as the scalar kernel, so every per-row semiring fold — including
/// the non-associative float `+` — produces the same bits.
pub fn bmv_bin_full_full_simd_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
) {
    bin_full_full_simd_sweep(a, x, semiring, y, |_, _| {});
}

/// SWAR-vector variant of [`bmv_bin_full_full_masked_into`]: the
/// [`bmv_bin_full_full_simd_into`] sweep with masked rows forced to the
/// semiring identity at the store, exactly like the scalar kernel.
pub fn bmv_bin_full_full_masked_simd_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    mask: Option<&[bool]>,
    semiring: Semiring,
    y: &mut [f32],
) {
    match mask {
        Some(m) => bin_full_full_simd_sweep(a, x, semiring, y, row_mask(a, m, semiring)),
        None => bmv_bin_full_full_simd_into(a, x, semiring, y),
    }
}

/// The one body behind the SWAR bin/full/full scheme and its masked twin
/// (`mask_rows` as in the scalar sweep).
fn bin_full_full_simd_sweep<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
    mask_rows: impl Fn(usize, &mut [f32]) + Sync,
) {
    debug_assert!(x.len() >= a.ncols(), "vector shorter than matrix columns");
    let dim = a.tile_dim();
    let per = (64 / W::BITS) as usize;
    let padded = a.n_tile_rows() * dim;
    debug_assert!(
        y.len() >= padded,
        "output shorter than the padded row count"
    );
    debug_assert!(dim <= 32, "B2SR tiles are at most 32x32");
    y.par_chunks_mut(dim).enumerate().for_each(|(tr, out)| {
        for v in out.iter_mut() {
            *v = semiring.identity();
        }
        if tr >= a.n_tile_rows() {
            return;
        }
        let mut acc = [0.0f32; 32];
        for slot in acc[..dim].iter_mut() {
            *slot = semiring.identity();
        }
        // Packed chunks of the current tile (at most 16 for a 32×32 tile).
        let mut packed = [0u64; 16];
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let base = tc * dim;
            let words = a.tile_words(idx);
            let mut union = W::ZERO;
            let n_chunks = dim.min(words.len()).div_ceil(per);
            for (ci, chunk) in words[..dim.min(words.len())].chunks(per).enumerate() {
                packed[ci] = W::pack_chunk_u64(chunk);
            }
            for &w in &words[..dim.min(words.len())] {
                union |= w;
            }
            for j in union.iter_ones() {
                let col = base + j as usize;
                // Guard the ragged last tile-column (ncols % dim != 0).
                if col >= x.len() {
                    continue;
                }
                let cx = semiring.combine(x[col]);
                // Column strobe: bit `r·BITS + j` of a chunk is row `r`,
                // column `j` — one mask picks column `j` of every lane.
                let strobe = lsb_lanes::<W>() << j;
                for (ci, &p) in packed[..n_chunks].iter().enumerate() {
                    let mut hits = p & strobe;
                    while hits != 0 {
                        let b = hits.trailing_zeros();
                        hits &= hits - 1;
                        let r = ci * per + (b / W::BITS) as usize;
                        acc[r] = semiring.reduce(acc[r], cx);
                    }
                }
            }
        }
        let n = out.len().min(dim);
        out[..n].copy_from_slice(&acc[..n]);
        mask_rows(tr, out);
    });
}

/// Branch-free variant of [`pack_vector_tilewise_into`]: each output word
/// is assembled from its tile-segment with shift-OR lane writes instead of
/// a per-element conditional store, which the compiler turns into straight
/// compare+shift vector code.  Bit-identical to the scalar packing.
pub fn pack_vector_tilewise_simd_into<W: BitWord>(v: &[f32], tile_dim: usize, words: &mut Vec<W>) {
    assert!(tile_dim as u32 <= W::BITS);
    words.clear();
    words.resize(v.len().div_ceil(tile_dim), W::ZERO);
    for (w, chunk) in words.iter_mut().zip(v.chunks(tile_dim)) {
        let mut bits = 0u64;
        for (i, &x) in chunk.iter().enumerate() {
            bits |= ((x != 0.0) as u64) << i;
        }
        *w = W::from_u64(bits);
    }
}

/// Branch-free variant of [`pack_vector_bits_into`] (see
/// [`pack_vector_tilewise_simd_into`]).
pub fn pack_vector_bits_simd_into<W: BitWord>(v: &[bool], tile_dim: usize, words: &mut Vec<W>) {
    assert!(tile_dim as u32 <= W::BITS);
    words.clear();
    words.resize(v.len().div_ceil(tile_dim), W::ZERO);
    for (w, chunk) in words.iter_mut().zip(v.chunks(tile_dim)) {
        let mut bits = 0u64;
        for (i, &b) in chunk.iter().enumerate() {
            bits |= (b as u64) << i;
        }
        *w = W::from_u64(bits);
    }
}

// ---------------------------------------------------------------------------
// Push (sparse-frontier) kernels
// ---------------------------------------------------------------------------

/// `bmv_push_bin_bin()`: push-direction Boolean BMV.  `frontier` lists the
/// active *row* indices of `a` in ascending order; the out-edges of those
/// rows are scattered into `y`, which holds one word per tile-column of `a`
/// (bit `c` of word `tc` = output position `tc * dim + c`) and must be
/// zeroed by the caller.
///
/// Because the bits of a B2SR tile row *are* that row's column indicator,
/// the scatter is a plain word-OR of the frontier rows' tile words — no
/// per-edge index arithmetic at all.  Serial and allocation-free — the
/// right shape for tiny frontiers, and the per-segment worker of the GrB
/// layer's sharded scatter for everything else.
pub fn bmv_push_bin_bin<W: BitWord>(a: &B2sr<W>, frontier: &[usize], y: &mut [W]) {
    debug_assert!(y.len() >= a.n_tile_cols(), "output has too few tile words");
    let dim = a.tile_dim();
    let mut i = 0;
    while i < frontier.len() {
        let tr = frontier[i] / dim;
        debug_assert!(frontier[i] < a.nrows(), "frontier row out of range");
        // Gather all frontier rows of this tile-row into one selector word.
        let mut fw = W::ZERO;
        while i < frontier.len() && frontier[i] / dim == tr {
            fw = fw.with_bit((frontier[i] % dim) as u32);
            i += 1;
        }
        for idx in a.tile_row_range(tr) {
            let tc = a.tile_colind()[idx];
            let words = a.tile_words(idx);
            let mut acc = y[tc];
            for r in fw.iter_ones() {
                acc |= words[r as usize];
            }
            y[tc] = acc;
        }
    }
}

/// `bmv_push_bin_full()`: push-direction BMV with full-precision output,
/// generic over the semiring.  For every frontier row `u`, the contribution
/// `⊗(x[u])` is folded into each out-neighbour `j` of `u` with the additive
/// monoid: `y[j] = ⊕(y[j], ⊗(x[u]))`.  `allow` filters output positions
/// (the mask); `y` must be pre-filled with the semiring identity (or, on the
/// seeded fused-accumulator path, with the accumulation baseline).
///
/// Only valid for [`Semiring::push_safe`] semirings, where skipping the
/// non-frontier (identity-valued) entries cannot change the result.  Serial
/// and allocation-free like [`bmv_push_bin_bin`], and likewise a
/// per-segment worker of the sharded scatter.
pub fn bmv_push_bin_full<W: BitWord, M: Fn(usize) -> bool>(
    a: &B2sr<W>,
    x: &[f32],
    frontier: &[usize],
    semiring: Semiring,
    allow: M,
    y: &mut [f32],
) {
    debug_assert!(x.len() >= a.nrows(), "vector shorter than frontier rows");
    let dim = a.tile_dim();
    for &u in frontier {
        let contrib = semiring.combine(x[u]);
        let (tr, r) = (u / dim, u % dim);
        for idx in a.tile_row_range(tr) {
            let base = a.tile_colind()[idx] * dim;
            let w = a.tile_words(idx)[r];
            for dc in w.iter_ones() {
                let j = base + dc as usize;
                // Guard the ragged last tile-column (ncols % dim != 0).
                if j < y.len() && allow(j) {
                    y[j] = semiring.reduce(y[j], contrib);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::b2sr::convert::from_csr;
    use bitgblas_sparse::{ops, Coo, Csr, DenseVec};

    fn sample(n: usize, seed: u64) -> Csr {
        let mut coo = Coo::new(n, n);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n * 3 {
            let r = (next() % n as u64) as usize;
            let c = (next() % n as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    fn sample_x(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    (i % 7) as f32 + 1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Reference boolean reachability: y[i] = OR_j A[i][j] & (x[j] != 0).
    fn reference_bool(a: &Csr, x: &[f32]) -> Vec<bool> {
        (0..a.nrows())
            .map(|r| a.row(r).0.iter().any(|&c| x[c] != 0.0))
            .collect()
    }

    #[test]
    fn bin_bin_bin_matches_reference_all_variants() {
        let a = sample(97, 3);
        let x = sample_x(97);
        let expected = reference_bool(&a, &x);
        macro_rules! check {
            ($w:ty, $dim:expr) => {{
                let b = from_csr::<$w>(&a, $dim);
                let xp = pack_vector_tilewise::<$w>(&x, $dim);
                let y = bmv_bin_bin_bin(&b, &xp);
                let yb = unpack_vector_bits(&y, $dim, a.nrows());
                assert_eq!(yb, expected, "dim {}", $dim);
            }};
        }
        check!(u8, 4);
        check!(u8, 8);
        check!(u16, 16);
        check!(u32, 32);
    }

    #[test]
    fn bin_bin_full_counts_reachable_columns() {
        let a = sample(64, 5);
        let x = sample_x(64);
        let expected: Vec<f32> = (0..64)
            .map(|r| a.row(r).0.iter().filter(|&&c| x[c] != 0.0).count() as f32)
            .collect();
        for dim in [4usize, 8] {
            let b = from_csr::<u8>(&a, dim);
            let xp = pack_vector_tilewise::<u8>(&x, dim);
            assert_eq!(bmv_bin_bin_full(&b, &xp), expected, "dim {dim}");
        }
        let b = from_csr::<u32>(&a, 32);
        let xp = pack_vector_tilewise::<u32>(&x, 32);
        assert_eq!(bmv_bin_bin_full(&b, &xp), expected);
    }

    #[test]
    fn bin_full_full_arithmetic_matches_float_spmv() {
        let a = sample(80, 7);
        let x = sample_x(80);
        let reference = ops::spmv(&a, &DenseVec::from_vec(x.clone())).unwrap();
        for dim in [4usize, 8] {
            let b = from_csr::<u8>(&a, dim);
            let y = bmv_bin_full_full(&b, &x, Semiring::Arithmetic);
            for (i, (&got, &want)) in y.iter().zip(reference.as_slice()).enumerate() {
                assert!(
                    (got - want).abs() < 1e-4,
                    "row {i}: {got} vs {want} (dim {dim})"
                );
            }
        }
        let b = from_csr::<u16>(&a, 16);
        let y = bmv_bin_full_full(&b, &x, Semiring::Arithmetic);
        for (&got, &want) in y.iter().zip(reference.as_slice()) {
            assert!((got - want).abs() < 1e-4);
        }
    }

    #[test]
    fn bin_full_full_minplus_matches_semiring_spmv() {
        let a = sample(60, 11);
        let mut x = vec![f32::INFINITY; 60];
        x[0] = 0.0;
        x[17] = 2.0;
        x[41] = 5.0;
        let reference = ops::spmv_semiring(
            &a,
            &DenseVec::from_vec(x.clone()),
            ops::SemiringKind::MinPlus,
        )
        .unwrap();
        let b = from_csr::<u32>(&a, 32);
        let y = bmv_bin_full_full(&b, &x, Semiring::MinPlus(1.0));
        assert_eq!(
            y,
            reference.as_slice(),
            "binary weights are 1.0 so +1 relaxation matches"
        );
    }

    #[test]
    fn bin_full_full_maxtimes_and_boolean() {
        let a = sample(48, 13);
        let x: Vec<f32> = (0..48).map(|i| (i % 5) as f32).collect();
        let b = from_csr::<u8>(&a, 8);
        let ymax = bmv_bin_full_full(&b, &x, Semiring::MaxTimes(1.0));
        let reference = ops::spmv_semiring(
            &a,
            &DenseVec::from_vec(x.clone()),
            ops::SemiringKind::MaxTimes,
        )
        .unwrap();
        assert_eq!(ymax, reference.as_slice());

        let ybool = bmv_bin_full_full(&b, &x, Semiring::Boolean);
        let refbool = reference_bool(&a, &x);
        for (got, want) in ybool.iter().zip(refbool) {
            assert_eq!(*got != 0.0, want);
        }
    }

    #[test]
    fn masked_bin_bin_bin_filters_visited() {
        let a = sample(40, 17);
        let x = sample_x(40);
        let dim = 8usize;
        let b = from_csr::<u8>(&a, dim);
        let xp = pack_vector_tilewise::<u8>(&x, dim);
        // Mask out every even row.
        let visited: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mask = pack_vector_bits::<u8>(&visited, dim);
        let mut y = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_masked_into(&b, &xp, Some(&mask), &mut y);
        let yb = unpack_vector_bits(&y, dim, 40);
        let unmasked = unpack_vector_bits(&bmv_bin_bin_bin(&b, &xp), dim, 40);
        for i in 0..40 {
            if visited[i] {
                assert!(!yb[i], "masked row {i} must be filtered");
            } else {
                assert_eq!(yb[i], unmasked[i]);
            }
        }
    }

    #[test]
    fn masked_bin_bin_full_zeroes_masked_rows() {
        let a = sample(40, 19);
        let x = sample_x(40);
        let dim = 4usize;
        let b = from_csr::<u8>(&a, dim);
        let xp = pack_vector_tilewise::<u8>(&x, dim);
        let visited: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let mask = pack_vector_bits::<u8>(&visited, dim);
        let y = bmv_bin_bin_full_masked(&b, &xp, Some(&mask));
        let unmasked = bmv_bin_bin_full(&b, &xp);
        for i in 0..40 {
            if visited[i] {
                assert_eq!(y[i], 0.0);
            } else {
                assert_eq!(y[i], unmasked[i]);
            }
        }
    }

    #[test]
    fn masked_bin_full_full_produces_identity_on_masked_rows() {
        let a = sample(32, 23);
        let mut x = vec![f32::INFINITY; 32];
        x[3] = 0.0;
        let b = from_csr::<u32>(&a, 32);
        let visited: Vec<bool> = (0..32).map(|i| i < 16).collect();
        let semiring = Semiring::MinPlus(1.0);
        let mut y = vec![42.0f32; 32];
        bmv_bin_full_full_masked_into(&b, &x, Some(&visited), semiring, &mut y);
        let unmasked = bmv_bin_full_full(&b, &x, semiring);
        for (i, &v) in y.iter().enumerate() {
            if visited[i] {
                assert_eq!(v, f32::INFINITY);
            } else {
                assert_eq!(v, unmasked[i]);
            }
        }
    }

    /// Reference push: scatter the out-edges of the frontier rows.
    fn reference_push_bool(a: &Csr, frontier: &[usize]) -> Vec<bool> {
        let mut y = vec![false; a.ncols()];
        for &u in frontier {
            for &c in a.row(u).0 {
                y[c] = true;
            }
        }
        y
    }

    #[test]
    fn push_bin_bin_matches_scatter_reference_all_variants() {
        let a = sample(97, 29);
        let frontier: Vec<usize> = (0..97).filter(|i| i % 9 == 0).collect();
        let expected = reference_push_bool(&a, &frontier);
        macro_rules! check {
            ($w:ty, $dim:expr) => {{
                let b = from_csr::<$w>(&a, $dim);
                let mut y = vec![<$w>::default(); b.n_tile_cols()];
                bmv_push_bin_bin(&b, &frontier, &mut y);
                let yb = unpack_vector_bits(&y, $dim, a.ncols());
                assert_eq!(yb, expected, "dim {}", $dim);
            }};
        }
        check!(u8, 4);
        check!(u8, 8);
        check!(u16, 16);
        check!(u32, 32);
    }

    #[test]
    fn push_equals_pull_for_boolean_frontiers() {
        let a = sample(80, 31);
        let x = sample_x(80);
        let frontier: Vec<usize> = x
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, _)| i)
            .collect();
        // Pull runs on Aᵀ, push scatters the rows of A — same product x·A.
        let at = from_csr::<u8>(&a.transpose(), 8);
        let xp = pack_vector_tilewise::<u8>(&x, 8);
        let pull = unpack_vector_bits(&bmv_bin_bin_bin(&at, &xp), 8, a.ncols());
        let af = from_csr::<u8>(&a, 8);
        let mut y = vec![0u8; af.n_tile_cols()];
        bmv_push_bin_bin(&af, &frontier, &mut y);
        let push = unpack_vector_bits(&y, 8, a.ncols());
        assert_eq!(push, pull);
    }

    #[test]
    fn push_bin_full_matches_pull_for_minplus_and_arithmetic() {
        let a = sample(64, 37);
        let mut x = vec![f32::INFINITY; 64];
        x[0] = 0.0;
        x[13] = 3.0;
        x[40] = 1.0;
        let semiring = Semiring::MinPlus(1.0);
        let frontier: Vec<usize> = (0..64).filter(|&i| x[i].is_finite()).collect();
        let at = from_csr::<u16>(&a.transpose(), 16);
        let pull = bmv_bin_full_full(&at, &x, semiring);
        let af = from_csr::<u16>(&a, 16);
        let mut y = vec![semiring.identity(); a.ncols()];
        bmv_push_bin_full(&af, &x, &frontier, semiring, |_| true, &mut y);
        assert_eq!(y, pull, "min-plus push must equal the pull sweep exactly");

        let xa = sample_x(64);
        let fa: Vec<usize> = (0..64).filter(|&i| xa[i] != 0.0).collect();
        let pull_sum = bmv_bin_full_full(&at, &xa, Semiring::Arithmetic);
        let mut ys = vec![0.0f32; a.ncols()];
        bmv_push_bin_full(&af, &xa, &fa, Semiring::Arithmetic, |_| true, &mut ys);
        for (i, (g, w)) in ys.iter().zip(&pull_sum).enumerate() {
            assert!((g - w).abs() < 1e-4, "position {i}: {g} vs {w}");
        }
    }

    #[test]
    fn push_respects_the_allow_filter() {
        let a = sample(40, 41);
        let x = sample_x(40);
        let frontier: Vec<usize> = (0..40).filter(|&i| x[i] != 0.0).collect();
        let b = from_csr::<u8>(&a, 8);
        let mut y = vec![0.0f32; a.ncols()];
        bmv_push_bin_full(
            &b,
            &x,
            &frontier,
            Semiring::Arithmetic,
            |j| j % 2 == 0,
            &mut y,
        );
        for (j, &v) in y.iter().enumerate() {
            if j % 2 != 0 {
                assert_eq!(v, 0.0, "filtered position {j} must stay identity");
            }
        }
    }

    #[test]
    fn push_with_empty_frontier_is_a_no_op() {
        let a = sample(32, 43);
        let b = from_csr::<u8>(&a, 4);
        let mut yw = vec![0u8; b.n_tile_cols()];
        bmv_push_bin_bin(&b, &[], &mut yw);
        assert!(yw.iter().all(|&w| w == 0));
        let mut y = vec![f32::INFINITY; a.ncols()];
        bmv_push_bin_full(
            &b,
            &[0.0; 32],
            &[],
            Semiring::MinPlus(1.0),
            |_| true,
            &mut y,
        );
        assert!(y.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = sample(50, 47);
        let x = sample_x(50);
        let b = from_csr::<u8>(&a, 8);
        let xp = pack_vector_tilewise::<u8>(&x, 8);
        let mut yw = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_into(&b, &xp, &mut yw);
        assert_eq!(yw, bmv_bin_bin_bin(&b, &xp));

        let visited: Vec<bool> = (0..50).map(|i| i % 2 == 0).collect();
        let mp = pack_vector_bits::<u8>(&visited, 8);

        let padded = b.n_tile_rows() * 8;
        let mut yf = vec![42.0f32; padded];
        bmv_bin_full_full_into(&b, &x, Semiring::Arithmetic, &mut yf);
        assert_eq!(
            &yf[..50],
            &bmv_bin_full_full(&b, &x, Semiring::Arithmetic)[..]
        );

        let mut packed = vec![0u8; 1];
        pack_vector_tilewise_into(&x, 8, &mut packed);
        assert_eq!(packed, xp);
        let mut packed_b = vec![0u8; 99];
        pack_vector_bits_into(&visited, 8, &mut packed_b);
        assert_eq!(packed_b, mp);
    }

    #[test]
    fn fused_sweep_matches_generic_kernel_plus_finish() {
        let a = sample(77, 51);
        let x = sample_x(77);
        let epilogue = |r: usize, t: f32| 2.0 * t + r as f32;
        for semiring in [
            Semiring::Arithmetic,
            Semiring::Boolean,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(1.0),
        ] {
            macro_rules! check {
                ($w:ty, $dim:expr) => {{
                    let b = from_csr::<$w>(&a, $dim);
                    let padded = b.n_tile_rows() * $dim;
                    let mut fused = vec![42.0f32; padded];
                    bmv_bin_full_full_fused_into(&b, &x, semiring, epilogue, &mut fused);
                    let generic = bmv_bin_full_full(&b, &x, semiring);
                    for (r, &want_raw) in generic.iter().enumerate() {
                        let want = epilogue(r, want_raw);
                        let got = fused[r];
                        let both_inf = got.is_infinite() && want.is_infinite();
                        assert!(
                            both_inf || (got - want).abs() < 1e-4,
                            "{semiring:?} dim {}: row {r}: {got} vs {want}",
                            $dim
                        );
                    }
                    // Padded tail rows hold the identity.
                    for &v in &fused[a.nrows()..] {
                        assert_eq!(v, semiring.identity(), "{semiring:?}");
                    }
                }};
            }
            check!(u8, 4);
            check!(u8, 8);
            check!(u16, 16);
            check!(u32, 32);
        }
    }

    #[test]
    fn vector_packing_roundtrip() {
        let v: Vec<bool> = (0..37).map(|i| i % 4 == 0).collect();
        for dim in [4usize, 8, 16, 32] {
            let packed = pack_vector_bits::<u32>(&v, dim);
            assert_eq!(unpack_vector_bits(&packed, dim, v.len()), v, "dim {dim}");
        }
        let f: Vec<f32> = v.iter().map(|&b| if b { 2.5 } else { 0.0 }).collect();
        let packed_f = pack_vector_tilewise::<u16>(&f, 16);
        assert_eq!(unpack_vector_bits(&packed_f, 16, v.len()), v);
    }

    #[test]
    fn empty_matrix_yields_identity_outputs() {
        let a = Csr::empty(20, 20);
        let b = from_csr::<u8>(&a, 4);
        let xp = pack_vector_tilewise::<u8>(&[1.0; 20], 4);
        assert!(bmv_bin_bin_bin(&b, &xp).iter().all(|&w| w == 0));
        assert!(bmv_bin_bin_full(&b, &xp).iter().all(|&v| v == 0.0));
        let y = bmv_bin_full_full(&b, &[1.0; 20], Semiring::MinPlus(1.0));
        assert!(y.iter().all(|&v| v == f32::INFINITY));
    }

    // -- differential SWAR-vector vs scalar (PR 9) --------------------------
    //
    // Sizes 97/103 deliberately straddle tile boundaries for every dim, so
    // the ragged last tile-row/-column is exercised on both paths.

    #[test]
    fn simd_bin_bin_bin_is_bit_identical_to_scalar() {
        let a = sample(103, 31);
        let x = sample_x(103);
        macro_rules! check {
            ($w:ty, $dim:expr) => {{
                let b = from_csr::<$w>(&a, $dim);
                let xp = pack_vector_tilewise::<$w>(&x, $dim);
                let mut scalar = vec![<$w>::MAX; b.n_tile_rows()];
                let mut vector = vec![0 as $w; b.n_tile_rows()];
                bmv_bin_bin_bin_into(&b, &xp, &mut scalar);
                bmv_bin_bin_bin_simd_into(&b, &xp, &mut vector);
                assert_eq!(scalar, vector, "dim {}", $dim);
                // Masked: identical word for word too.
                let visited: Vec<bool> = (0..103).map(|i| i % 2 == 0).collect();
                let mp = pack_vector_bits::<$w>(&visited, $dim);
                bmv_bin_bin_bin_masked_into(&b, &xp, Some(&mp), &mut scalar);
                bmv_bin_bin_bin_masked_simd_into(&b, &xp, Some(&mp), &mut vector);
                assert_eq!(scalar, vector, "masked dim {}", $dim);
            }};
        }
        check!(u8, 4);
        check!(u8, 8);
        check!(u16, 16);
        check!(u32, 32);
    }

    #[test]
    fn simd_bin_full_full_is_bit_identical_to_scalar_across_semirings() {
        let a = sample(97, 41);
        // Mixed finite/infinite operand so tropical identities flow through.
        let x: Vec<f32> = (0..97)
            .map(|i| match i % 5 {
                0 => 0.25 * i as f32,
                1 => f32::INFINITY,
                2 => -1.5,
                _ => (i % 11) as f32,
            })
            .collect();
        for semiring in [
            Semiring::Arithmetic,
            Semiring::Boolean,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(0.5),
        ] {
            macro_rules! check {
                ($w:ty, $dim:expr) => {{
                    let b = from_csr::<$w>(&a, $dim);
                    let padded = b.n_tile_rows() * $dim;
                    let mut scalar = vec![42.0f32; padded];
                    let mut vector = vec![-7.0f32; padded];
                    bmv_bin_full_full_into(&b, &x, semiring, &mut scalar);
                    bmv_bin_full_full_simd_into(&b, &x, semiring, &mut vector);
                    let sbits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
                    let vbits: Vec<u32> = vector.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sbits, vbits, "{semiring:?} dim {}", $dim);
                    // Masked: identical bits too.
                    let mask: Vec<bool> = (0..97).map(|i| i % 3 == 0).collect();
                    bmv_bin_full_full_masked_into(&b, &x, Some(&mask), semiring, &mut scalar);
                    bmv_bin_full_full_masked_simd_into(&b, &x, Some(&mask), semiring, &mut vector);
                    let sbits: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
                    let vbits: Vec<u32> = vector.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(sbits, vbits, "masked {semiring:?} dim {}", $dim);
                }};
            }
            check!(u8, 4);
            check!(u8, 8);
            check!(u16, 16);
            check!(u32, 32);
        }
    }

    #[test]
    fn simd_packing_is_bit_identical_to_scalar() {
        let f: Vec<f32> = (0..101)
            .map(|i| if i % 3 == 0 { -0.5 * i as f32 } else { 0.0 })
            .collect();
        let b: Vec<bool> = (0..101).map(|i| i % 7 < 3).collect();
        macro_rules! check {
            ($w:ty, $dim:expr) => {{
                let mut scalar: Vec<$w> = Vec::new();
                let mut vector: Vec<$w> = Vec::new();
                pack_vector_tilewise_into(&f, $dim, &mut scalar);
                pack_vector_tilewise_simd_into(&f, $dim, &mut vector);
                assert_eq!(scalar, vector, "tilewise dim {}", $dim);
                pack_vector_bits_into(&b, $dim, &mut scalar);
                pack_vector_bits_simd_into(&b, $dim, &mut vector);
                assert_eq!(scalar, vector, "bits dim {}", $dim);
            }};
        }
        check!(u8, 4);
        check!(u8, 8);
        check!(u16, 16);
        check!(u32, 32);
    }

    #[test]
    fn simd_kernels_handle_empty_and_tiny_inputs() {
        let a = Csr::empty(20, 20);
        let b = from_csr::<u8>(&a, 4);
        let xp = pack_vector_tilewise::<u8>(&[1.0; 20], 4);
        let mut y = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_simd_into(&b, &xp, &mut y);
        assert!(y.iter().all(|&w| w == 0));
        let mut yf = vec![0.0f32; b.n_tile_rows() * 4];
        bmv_bin_full_full_simd_into(&b, &[1.0; 20], Semiring::MinPlus(1.0), &mut yf);
        assert!(yf.iter().all(|&v| v == f32::INFINITY));
    }
}
