//! BMV — Binarized sparse Matrix × Vector kernels (Table II).
//!
//! The adjacency matrix is in B2SR; the vector comes in one of three layouts:
//!
//! * **binarized** (`bin` input): packed one tile-segment per word, produced
//!   by [`pack_vector_bits`] / [`pack_vector_tilewise_into`] — word `t` holds the
//!   `tile_dim` vector entries of tile-column `t` in its low bits;
//! * **node words** (`tile_bits_pull` / `tile_bits_push`): the GrB layer's
//!   `NodeBits` layout, bit `i % 64` of `u64` word `i / 64` is entry `i`,
//!   whatever the tile width — tile `t`'s segment is the `dim`-bit field at
//!   bit `t · dim` (`dim` divides 64, so a field never straddles two words);
//! * **full-precision** (`full` input): a plain `f32` slice.
//!
//! Each kernel processes one tile-row per logical warp, with one lane per
//! tile row inside the tile (Listing 1 of the paper): lane `r` loads bit-row
//! `r` of each tile, ANDs it against the vector word of that tile-column, and
//! accumulates with `popc`.  Rayon parallelises over tile-rows, or over
//! output words for the node-word pull.
//!
//! Two kernel families live here:
//!
//! * **pull** (`bmv_bin_*`, `bmv_..._into`, `tile_bits_pull`) — the sweep
//!   described above, over every tile-row.  The `_into` variants write into
//!   caller-supplied buffers.  Each scheme and its masked twin are one
//!   generic body whose store-side mask hook the compiler specialises (a
//!   no-op when unmasked): the `_masked` name takes `Option<mask>`.  The
//!   full-precision schemes cost the matrix whatever the vector holds.  The
//!   Boolean bin/bin/bin sweep costs what is left to find: it skips a tile
//!   whose column word is empty, a tile-row whose every row the mask
//!   suppresses, and the rest of a tile-row once every unsuppressed row is
//!   reached — Beamer's bottom-up step, which is what a late BFS round is
//!   (most rows visited, the unvisited ones low-degree).  The mask is still
//!   applied at the store, as the paper's scheme has it; the paper's kernel
//!   does not exit early only because a GPU warp would diverge, and a CPU
//!   tile-row loop has no warp.  One tile-row body, two stores:
//!   `tile_bits_pull` reads operand and suppressed rows as fields of node
//!   words and ORs each tile-row's result into its output node word, what
//!   the GrB layer runs, with no tile-word buffer and no re-layout;
//!   `bmv_bin_bin_bin_masked_into` stores tile words, for the benches and
//!   the repo benchmark's kernel probe.
//! * **push** — the Boolean sparse-frontier scatter: only the tiles of the
//!   frontier's tile-rows are visited and their selected row words OR-ed
//!   together, so the cost is the frontier's tiles.  One body, two stores:
//!   `tile_bits_push` ORs each tile's result straight into the node word
//!   holding its tile-column (shifted by `tc % (64 / dim) · dim`), what the
//!   GrB layer runs, with no tile-word buffer and no re-layout;
//!   `bmv_push_bin_bin` stores tile words, for the benches and the repo
//!   benchmark's kernel probe.  Serial and allocation-free; the GrB layer
//!   runs it once over the whole frontier.  The full-precision push is
//!   `kernels::bmm::csr_push_full` at `k = 1`.

use rayon::prelude::*;

use bitgblas_bitops::BitWord;

use super::simd::broadcast_lanes;
use crate::b2sr::B2sr;
use crate::semiring::{with_semiring_ops, Semiring};

/// Pack a boolean vector into tile-granular words: word `t` holds entries
/// `t*tile_dim .. (t+1)*tile_dim`, bit `i` = entry `t*tile_dim + i`.
/// Branch-free: each word is assembled from its tile-segment with shift-OR
/// writes, so the cost does not depend on how many flags are set.
pub fn pack_vector_bits<W: BitWord>(v: &[bool], tile_dim: usize) -> Vec<W> {
    let mut words = Vec::new();
    pack_segments_into(v, tile_dim, &mut words, |&b| b);
    words
}

/// Pack a dense `f32` vector into tile-granular words (bit set where the
/// entry is nonzero) — the "binarize the multiplier vector" step of the
/// paper's BMV schemes — into a caller-supplied buffer (resized to the word
/// count).  Branch-free like [`pack_vector_bits`].
pub fn pack_vector_tilewise_into<W: BitWord>(v: &[f32], tile_dim: usize, words: &mut Vec<W>) {
    pack_segments_into(v, tile_dim, words, |&x| x != 0.0);
}

/// The one packer body: word `t` collects `set(entry)` of tile-segment `t`.
pub(crate) fn pack_segments_into<T, W: BitWord>(
    v: &[T],
    tile_dim: usize,
    words: &mut Vec<W>,
    set: impl Fn(&T) -> bool,
) {
    assert!(tile_dim as u32 <= W::BITS);
    words.clear();
    words.extend(v.chunks(tile_dim).map(|segment| {
        let mut bits = 0u64;
        for (i, entry) in segment.iter().enumerate() {
            bits |= (set(entry) as u64) << i;
        }
        W::from_u64(bits)
    }));
}

/// The bin/bin/bin scheme: binarized matrix × binarized vector → binarized
/// vector, over the Boolean semiring.
///
/// `x` must hold one word per tile-column ([`pack_vector_bits`]); `y` is a
/// caller-supplied slice of `n_tile_rows` words (every word is overwritten),
/// bit `r` of word `tr` set iff output row `tr*dim + r` is reachable.  This
/// is the minimal-footprint scheme used by BFS.
pub fn bmv_bin_bin_bin_into<W: BitWord>(a: &B2sr<W>, x: &[W], y: &mut [W]) {
    bin_bin_bin_sweep(a, x, y, |_| !W::ZERO);
}

/// As [`bmv_bin_bin_bin_into`] but with the
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

/// Forwards to [`bmv_bin_bin_bin_into`].  The Boolean pull has one tile
/// body; the name exists only because `benchmark/src/layers.rs` imports it.
pub fn bmv_bin_bin_bin_simd_into<W: BitWord>(a: &B2sr<W>, x: &[W], y: &mut [W]) {
    bmv_bin_bin_bin_into(a, x, y);
}

/// The tile-word sweep behind the Boolean pull schemes, masked or not:
/// `keep(tr)` is the word of rows of tile-row `tr` the store lets through
/// (all ones when unmasked — the compiler specialises each case).  Each
/// tile-row is one [`bin_bin_bin_tile_row`]; the tiles it walked are a
/// test's business and dropped here, so the sweep carries no counter.
fn bin_bin_bin_sweep<W: BitWord>(
    a: &B2sr<W>,
    x: &[W],
    y: &mut [W],
    keep: impl Fn(usize) -> W + Sync,
) {
    debug_assert!(x.len() >= a.n_tile_cols(), "vector has too few tile words");
    debug_assert!(y.len() >= a.n_tile_rows(), "output has too few tile words");
    y.par_iter_mut().enumerate().for_each(|(tr, out)| {
        *out = if tr < a.n_tile_rows() {
            bin_bin_bin_tile_row(a, |tc| x[tc], tr, keep(tr)).0
        } else {
            W::ZERO
        };
    });
}

/// `tile_bits_pull()`: pull-direction Boolean BMV in node words — the
/// tile-matrix sibling of [`csr_bits_pull`](super::csr_bits_pull), and the
/// node-word store of the one tile-row body [`bmv_bin_bin_bin_masked_into`]
/// runs.  Bit `r` of `yw` is set iff row `r` has an in-neighbour set in
/// `xw` and is not set in `sup` (bit `i % 64` of word `i / 64` is entry `i`
/// in all three).  Tile `t`'s operand or suppressed word is the `dim`-bit
/// field of its node word at bit `t · dim`, read in place (`dim` divides
/// 64, so a field never straddles two words), and each tile-row's result
/// is OR-ed into its output node word at the same place.  `yw`, `nrows /
/// 64` words rounded up, is fully overwritten.  Rayon parallelises over
/// output words, as in `csr_bits_pull`.
///
/// # Panics
/// Panics if `xw`, `sup` or `yw` holds too few words.
pub fn tile_bits_pull<W: BitWord>(a: &B2sr<W>, xw: &[u64], sup: Option<&[u64]>, yw: &mut [u64]) {
    let (dim, nrows) = (a.tile_dim(), a.nrows());
    let words = nrows.div_ceil(64);
    assert!(
        xw.len() >= a.ncols().div_ceil(64),
        "operand has too few node words"
    );
    assert!(yw.len() >= words, "output has too few node words");
    assert!(
        sup.is_none_or(|s| s.len() >= words),
        "mask has too few node words"
    );
    yw[..words]
        .par_iter_mut()
        .enumerate()
        .for_each(|(at, out)| {
            let tile_rows = at * 64 / dim..nrows.min(at * 64 + 64).div_ceil(dim);
            *out = tile_rows.fold(0, |acc, tr| {
                let keep = sup.map_or(W::ONES, |s| !node_field::<W>(s, tr, dim));
                let (got, _) = bin_bin_bin_tile_row(a, |tc| node_field(xw, tc, dim), tr, keep);
                acc | got.to_u64() << (tr * dim % 64) as u32
            });
        });
}

/// Tile `t`'s `dim`-bit field of node words `w`: entries `t·dim ..
/// (t+1)·dim` in the low bits, and nothing of tile `t + 1` above them — a
/// B2SR-4 `u8` has room for four of its columns, which would defeat the
/// tile-row body's empty-column skip.  The divisors are the constant 64:
/// `t / (64 / dim)`, with the width known only at run time, costs a
/// division per read.
#[inline(always)]
fn node_field<W: BitWord>(w: &[u64], t: usize, dim: usize) -> W {
    let bit = t * dim;
    W::from_u64(w[bit / 64] >> (bit % 64) & (u64::MAX >> (64 - dim)))
}

/// One tile-row of the Boolean pull: `(reached rows & keep, tiles walked)`.
///
/// This is Beamer's bottom-up step on tiles.  A row the store suppresses
/// needs no edge and a row already reached needs no second one (OR is
/// idempotent), so the walk covers what is left to find: nothing when every
/// row that exists is suppressed, no tile whose column word is empty, and no
/// tile past the one that reaches the last wanted row.  The store is still
/// `acc & keep` — the paper's mask-at-the-store scheme (§V), bit for bit;
/// what the paper avoids by not exiting early is warp divergence, and a CPU
/// tile-row loop has no warp.  "Rows that exist" are `dim` per tile-row and
/// fewer in a ragged last one, so neither B2SR-4's spare `u8` bits nor
/// padding rows (which hold no edge) block saturation.  Within a tile, lane
/// `r` tests row word `r` against the vector word of its tile-column,
/// `x(tile_col)`: a tile word, or a field of a node word.
#[inline(always)]
fn bin_bin_bin_tile_row<W: BitWord>(
    a: &B2sr<W>,
    x: impl Fn(usize) -> W,
    tr: usize,
    keep: W,
) -> (W, usize) {
    let dim = a.tile_dim();
    let rows = dim.min(a.nrows() - tr * dim);
    let want = keep & W::from_u64(u64::MAX >> (64 - rows));
    let (mut acc, mut walked) = (W::ZERO, 0usize);
    if want == W::ZERO {
        return (acc, walked);
    }
    for idx in a.tile_row_range(tr) {
        let xw = x(a.tile_colind()[idx]);
        if xw == W::ZERO {
            continue;
        }
        walked += 1;
        for (r, &aw) in a.tile_words(idx).iter().enumerate() {
            if (aw & xw) != W::ZERO {
                acc = acc.with_bit(r as u32);
            }
        }
        if acc & want == want {
            break;
        }
    }
    (acc & keep, walked)
}

/// The bin/bin/full scheme: binarized matrix × binarized vector →
/// full-precision vector.  Output row `i` counts how many active columns row
/// `i` reaches (`__popc(A & b)` accumulated per tile), i.e. the arithmetic
/// semiring over binary operands.  Output rows whose mask bit is set are
/// forced to `0.0` (bit `r` of `mask[tr]` covers row `tr*dim + r`); `None` is
/// the unmasked scheme.
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

/// The bin/full/full scheme: binarized matrix × full-precision vector →
/// full-precision vector, generic over the semiring (Table IV).
///
/// * `Arithmetic` — `y[i] = Σ_{j : A[i][j]=1} x[j]` (PageRank, with the
///   out-degree division folded into `x` by the caller);
/// * `MinPlus(w)` — `y[i] = min_{j : A[i][j]=1} (x[j] + w)`; absent edges act
///   as `+∞` exactly as the paper's SSSP relaxation treats the 0s of the
///   adjacency matrix;
/// * `Boolean` / `MaxTimes` analogous.
///
/// The GrB layer runs the CSR row pull `kernels::bmm::csr_pull_full` in its
/// place, which wins at every fill (`grb::backend::MIN_TILE_FILL`) and gives
/// the same bits; this sweep serves the benches and the repo benchmark's
/// kernel probe.
///
/// The semiring is dispatched **once per call** (not once per set bit): each
/// semiring gets a monomorphised inner loop.  The sweep is tile-granular:
/// each tile's row words are packed into 64-bit chunks
/// ([`BitWord::pack_chunk_u64`]) and the set bits of a whole 8×8 tile (half
/// of a 16×16 one, …) are read off the chunk with `trailing_zeros` — the
/// first two branch-free, any further ones in a loop (see
/// `bin_full_full_tile_row`).  On scatter-pattern matrices, where most tiles
/// hold one or two bits, that is a load and two unconditional folds per
/// tile, with no per-row word scan and no data-dependent loop exit.  A
/// chunk's bits come out row-major, so each row folds its columns in
/// ascending order, tile after tile — the order of the per-bit definition
/// the tests pin it against.  Row accumulators live in a stack-local tile
/// buffer instead of read-modify-writing `y` once per tile.
///
/// `y` must have the padded length `n_tile_rows * tile_dim` (every entry is
/// overwritten); rows past `nrows` receive the semiring identity and are
/// truncated by the caller.
pub fn bmv_bin_full_full_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
) {
    debug_assert!(x.len() >= a.ncols(), "vector shorter than matrix columns");
    with_semiring_ops!(semiring, |identity, combine, reduce| {
        bin_full_full_sweep(a, x, identity, combine, reduce, y)
    })
}

/// Forwards to [`bmv_bin_full_full_into`].  There is no SWAR full-precision
/// sweep; the name exists only because `benchmark/src/layers.rs` imports it,
/// and goes with the benchmark-only change that drops that probe.
pub fn bmv_bin_full_full_simd_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    semiring: Semiring,
    y: &mut [f32],
) {
    bmv_bin_full_full_into(a, x, semiring, y);
}

/// The monomorphised tile-row sweep behind [`bmv_bin_full_full_into`].
fn bin_full_full_sweep<W, C, R>(
    a: &B2sr<W>,
    x: &[f32],
    identity: f32,
    combine: C,
    reduce: R,
    y: &mut [f32],
) where
    W: BitWord,
    C: Fn(f32) -> f32 + Sync,
    R: Fn(f32, f32) -> f32 + Sync,
{
    let dim = a.tile_dim();
    let nrows = a.nrows();
    let padded = a.n_tile_rows() * dim;
    debug_assert!(
        y.len() >= padded,
        "output shorter than the padded row count"
    );
    debug_assert!(dim <= ROW_SLOTS, "B2SR tiles are at most 32x32");
    y.par_chunks_mut(dim).enumerate().for_each(|(tr, out)| {
        if tr >= a.n_tile_rows() {
            out.fill(identity);
            return;
        }
        // Row accumulators for this tile-row, in registers/L1 instead of a
        // per-tile read-modify-write of `y`.
        let mut acc = [identity; ROW_SLOTS + JUNK_SLOTS];
        bin_full_full_tile_row(a, x, tr, &combine, &reduce, &mut acc);
        let row0 = tr * dim;
        for (r, v) in out.iter_mut().enumerate() {
            *v = if row0 + r < nrows { acc[r] } else { identity };
        }
    });
}

/// Row accumulator slots of [`bin_full_full_tile_row`]: one per row of the
/// widest tile.
const ROW_SLOTS: usize = 32;

/// Junk accumulator slots past the row slots, where the branch-free second
/// fold of a one-bit chunk lands.  Consecutive tiles rotate through them, so
/// their junk folds are independent dependency chains rather than one.  As
/// many as there are row slots: a power-of-two total lets the compiler prove
/// every row index of a chunk in bounds once per chunk, not once per bit.
const JUNK_SLOTS: usize = ROW_SLOTS;

/// One tile-row of the full-precision pull: folds every set bit of tile-row
/// `tr` into the row slots of `acc` (holding the identity on entry).
///
/// Most tiles of a scatter-pattern matrix hold one or two bits, so a loop
/// that runs until the chunk is empty exits after a data-dependent trip
/// count and its exit branch mispredicts tile after tile — the CPU's form of
/// a GPU warp's divergence.  Instead the first two set bits of every
/// non-empty 64-bit chunk fold unconditionally: the lowest is there, and the
/// second, when absent, folds `combine(x[base])` into a junk slot that
/// nothing ever stores.  Only a chunk with three or more bits enters the
/// loop.  The bits still come out lowest first, so each row folds its
/// columns in ascending order, tile after tile — bit for bit the per-bit
/// definition, with no select on identity values.  Empty chunks (a 16×16 or
/// 32×32 tile's rows past its last bit) are skipped; an 8×8 or 4×4 tile is
/// one chunk and never empty, so at those widths that test never fires.
///
/// Kept out of line, like `bmm::bin_full_tile_row`, so that `x` and `acc`
/// are distinct function arguments rather than state behind the parallel
/// closure's environment pointer.
#[inline(never)]
fn bin_full_full_tile_row<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    tr: usize,
    combine: impl Fn(f32) -> f32,
    reduce: impl Fn(f32, f32) -> f32,
    acc: &mut [f32; ROW_SLOTS + JUNK_SLOTS],
) {
    let dim = a.tile_dim();
    // Words per 64-bit chunk: a whole 8×8 tile, half a 16×16 one, …
    let per = (64 / W::BITS) as usize;
    let tiles = a.tile_row_range(tr);
    let words = &a.bit_tiles()[tiles.start * dim..tiles.end * dim];
    let colind = &a.tile_colind()[tiles.clone()];
    for ((idx, tile), &tc) in tiles.zip(words.chunks_exact(dim)).zip(colind) {
        let base = tc * dim;
        // Guard the ragged last tile-column (ncols % dim != 0): its columns
        // at or past `x.len()` are cleared from every row before any fold.
        let cols = if base + dim <= x.len() {
            u64::MAX
        } else {
            let real = x.len().saturating_sub(base);
            broadcast_lanes(W::from_u64((1u64 << real) - 1))
        };
        let junk = ROW_SLOTS + idx % JUNK_SLOTS;
        for (ci, chunk) in tile.chunks(per).enumerate() {
            let mut w64 = W::pack_chunk_u64(chunk) & cols;
            if w64 == 0 {
                continue;
            }
            // Bit `b` of the chunk is row `b / BITS` (within the chunk),
            // column `b % BITS` of the tile.  `trailing_zeros` of an empty
            // word is 64: column 0, in bounds because the chunk had a bit.
            let r0 = ci * per;
            let at = |b: u32| (r0 + (b / W::BITS) as usize, base + (b % W::BITS) as usize);
            let (r, j) = at(w64.trailing_zeros());
            acc[r] = reduce(acc[r], combine(x[j]));
            w64 &= w64 - 1;
            let (r, j) = at(w64.trailing_zeros());
            let slot = if w64 != 0 { r } else { junk };
            acc[slot] = reduce(acc[slot], combine(x[j]));
            w64 &= w64.wrapping_sub(1);
            while w64 != 0 {
                let (r, j) = at(w64.trailing_zeros());
                acc[r] = reduce(acc[r], combine(x[j]));
                w64 &= w64 - 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Push (sparse-frontier) kernels
// ---------------------------------------------------------------------------

/// `bmv_push_bin_bin()`: push-direction Boolean BMV in tile words.
/// `frontier` lists the active *row* indices of `a` in ascending order; the
/// out-edges of those rows are scattered into `y`, which holds one word per
/// tile-column of `a` (bit `c` of word `tc` = output position `tc * dim +
/// c`) and must be zeroed by the caller.
///
/// Because the bits of a B2SR tile row *are* that row's column indicator,
/// the scatter is a plain word-OR of the frontier rows' tile words — no
/// per-edge index arithmetic at all.  Serial and allocation-free.  The GrB
/// layer runs [`tile_bits_push`], the same scatter into node words; this
/// tile-word form serves the benches and the repo benchmark's kernel probe.
pub fn bmv_push_bin_bin<W: BitWord>(a: &B2sr<W>, frontier: &[usize], y: &mut [W]) {
    debug_assert!(y.len() >= a.n_tile_cols(), "output has too few tile words");
    push_tile_rows(a, frontier, |tc, acc| y[tc] |= acc);
}

/// `tile_bits_push()`: push-direction Boolean BMV in node words — the
/// tile-matrix sibling of [`csr_bits_push`](super::csr_bits_push).  The
/// out-edges of the ascending `frontier` rows are OR-ed into `yw`
/// (`ncols / 64` words rounded up, zeroed by the caller; bit `c % 64` of
/// word `c / 64` is column `c`): each tile's OR of selected rows goes
/// straight into the node word that holds its tile-column, shifted into
/// place (`dim` divides 64, so a tile never straddles two node words).  The
/// cost is the frontier's tiles; no word outside them is read or written.
/// Serial and allocation-free; returns the tiles it OR-ed into `yw`.
///
/// # Panics
/// Panics if `yw` holds too few words.
pub fn tile_bits_push<W: BitWord>(a: &B2sr<W>, frontier: &[usize], yw: &mut [u64]) -> usize {
    assert!(
        yw.len() >= a.ncols().div_ceil(64),
        "output has too few node words"
    );
    let dim = a.tile_dim();
    let per = 64 / dim;
    push_tile_rows(a, frontier, |tc, acc| {
        yw[tc / per] |= acc.to_u64() << (tc % per * dim)
    })
}

/// The one push scatter body: for each tile-row the ascending `frontier`
/// touches, gather its frontier rows into a selector word, OR each tile's
/// selected row words into `acc` and hand `store(tile_col, acc)` the
/// result.  Returns the tiles stored.
#[inline(always)]
fn push_tile_rows<W: BitWord>(
    a: &B2sr<W>,
    frontier: &[usize],
    mut store: impl FnMut(usize, W),
) -> usize {
    let dim = a.tile_dim();
    let mut stored = 0;
    let mut i = 0;
    while i < frontier.len() {
        let tr = frontier[i] / dim;
        debug_assert!(frontier[i] < a.nrows(), "frontier row out of range");
        let mut fw = W::ZERO;
        while i < frontier.len() && frontier[i] / dim == tr {
            fw = fw.with_bit((frontier[i] % dim) as u32);
            i += 1;
        }
        let range = a.tile_row_range(tr);
        stored += range.len();
        for idx in range {
            let words = a.tile_words(idx);
            let mut acc = W::ZERO;
            for r in fw.iter_ones() {
                acc |= words[r as usize];
            }
            store(a.tile_colind()[idx], acc);
        }
    }
    stored
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::b2sr::convert::from_csr;
    use crate::grb::{Mask, MxvPipeline};
    use crate::kernels::bmm::csr_push_full;
    use bitgblas_sparse::{ops, Coo, Csr, DenseVec};

    fn sample(n: usize, seed: u64) -> Csr {
        sample_rect(n, n, seed)
    }

    fn sample_rect(nrows: usize, ncols: usize, seed: u64) -> Csr {
        let mut coo = Coo::new(nrows, ncols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..nrows * 3 {
            let r = (next() % nrows as u64) as usize;
            let c = (next() % ncols as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    /// The bare single-vector pull pipeline over `x`, as the planner hands
    /// it to a backend.
    fn bare_pipeline<'a>(
        x: &'a [f32],
        semiring: Semiring,
        mask: Option<&'a Mask>,
    ) -> MxvPipeline<'a> {
        MxvPipeline {
            x,
            k: 1,
            frontier: None,
            semiring,
            mask,
            transpose: false,
            stages: &[],
            accum: None,
        }
    }

    // Allocating test forms of the packer and the two `_into` sweeps.
    fn packed<W: BitWord>(x: &[f32], dim: usize) -> Vec<W> {
        let mut words = Vec::new();
        pack_vector_tilewise_into(x, dim, &mut words);
        words
    }

    fn unpacked<W: BitWord>(words: &[W], dim: usize, len: usize) -> Vec<bool> {
        (0..len)
            .map(|i| words[i / dim].bit((i % dim) as u32))
            .collect()
    }

    fn pull_bits<W: BitWord>(a: &B2sr<W>, x: &[W]) -> Vec<W> {
        let mut y = vec![W::ZERO; a.n_tile_rows()];
        bmv_bin_bin_bin_into(a, x, &mut y);
        y
    }

    /// `MxvPipeline::finish` over a swept output's real rows: the mask,
    /// the stages and the accumulator, in the order a fused store runs them.
    pub(crate) fn finish(p: &MxvPipeline<'_>, y: &mut [f32]) {
        for (i, v) in y.iter_mut().enumerate() {
            *v = p.finish(i, *v);
        }
    }

    pub(crate) fn pull_full<W: BitWord>(a: &B2sr<W>, x: &[f32], semiring: Semiring) -> Vec<f32> {
        let mut y = vec![semiring.identity(); a.n_tile_rows() * a.tile_dim()];
        bmv_bin_full_full_into(a, x, semiring, &mut y);
        y.truncate(a.nrows());
        y
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
                let xp = packed::<$w>(&x, $dim);
                let y = pull_bits(&b, &xp);
                let yb = unpacked(&y, $dim, a.nrows());
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
            let xp = packed::<u8>(&x, dim);
            assert_eq!(
                bmv_bin_bin_full_masked(&b, &xp, None),
                expected,
                "dim {dim}"
            );
        }
        let b = from_csr::<u32>(&a, 32);
        let xp = packed::<u32>(&x, 32);
        assert_eq!(bmv_bin_bin_full_masked(&b, &xp, None), expected);
    }

    #[test]
    fn bin_full_full_arithmetic_matches_float_spmv() {
        let a = sample(80, 7);
        let x = sample_x(80);
        let reference = ops::spmv(&a, &DenseVec::from_vec(x.clone())).unwrap();
        for dim in [4usize, 8] {
            let b = from_csr::<u8>(&a, dim);
            let y = pull_full(&b, &x, Semiring::Arithmetic);
            for (i, (&got, &want)) in y.iter().zip(reference.as_slice()).enumerate() {
                assert!(
                    (got - want).abs() < 1e-4,
                    "row {i}: {got} vs {want} (dim {dim})"
                );
            }
        }
        let b = from_csr::<u16>(&a, 16);
        let y = pull_full(&b, &x, Semiring::Arithmetic);
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
        let y = pull_full(&b, &x, Semiring::MinPlus(1.0));
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
        let ymax = pull_full(&b, &x, Semiring::MaxTimes(1.0));
        let reference = ops::spmv_semiring(
            &a,
            &DenseVec::from_vec(x.clone()),
            ops::SemiringKind::MaxTimes,
        )
        .unwrap();
        assert_eq!(ymax, reference.as_slice());

        let ybool = pull_full(&b, &x, Semiring::Boolean);
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
        let xp = packed::<u8>(&x, dim);
        // Mask out every even row.
        let visited: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mask = pack_vector_bits::<u8>(&visited, dim);
        let mut y = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_masked_into(&b, &xp, Some(&mask), &mut y);
        let yb = unpacked(&y, dim, 40);
        let unmasked = unpacked(&pull_bits(&b, &xp), dim, 40);
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
        let xp = packed::<u8>(&x, dim);
        let visited: Vec<bool> = (0..40).map(|i| i % 3 == 0).collect();
        let mask = pack_vector_bits::<u8>(&visited, dim);
        let y = bmv_bin_bin_full_masked(&b, &xp, Some(&mask));
        let unmasked = bmv_bin_bin_full_masked(&b, &xp, None);
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
        let visited = Mask::complemented((0..32).map(|i| i < 16).collect());
        let semiring = Semiring::MinPlus(1.0);
        let p = bare_pipeline(&x, semiring, Some(&visited));
        let mut y = vec![42.0f32; 32];
        bmv_bin_full_full_into(&b, &x, semiring, &mut y);
        finish(&p, &mut y[..a.nrows()]);
        let unmasked = pull_full(&b, &x, semiring);
        for (i, &v) in y.iter().enumerate() {
            if visited.allows(i) {
                assert_eq!(v, unmasked[i]);
            } else {
                assert_eq!(v, f32::INFINITY);
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

    /// Both stores of the push scatter — tile words and node words — equal
    /// the per-edge reference at every width.
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
                let yb = unpacked(&y, $dim, a.ncols());
                assert_eq!(yb, expected, "dim {}", $dim);
                let mut yw = vec![0u64; a.ncols().div_ceil(64)];
                tile_bits_push(&b, &frontier, &mut yw);
                let node = (0..a.ncols()).map(|c| yw[c / 64] >> (c % 64) & 1 == 1);
                assert!(node.eq(expected.iter().copied()), "dim {} node words", $dim);
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
        let xp = packed::<u8>(&x, 8);
        let pull = unpacked(&pull_bits(&at, &xp), 8, a.ncols());
        let af = from_csr::<u8>(&a, 8);
        let mut y = vec![0u8; af.n_tile_cols()];
        bmv_push_bin_bin(&af, &frontier, &mut y);
        let push = unpacked(&y, 8, a.ncols());
        assert_eq!(push, pull);
    }

    /// The single-vector push (`csr_push_full` at `k = 1`, over the rows of
    /// a rectangular `A`) equals the pull sweep over `Aᵀ`, bit for bit: both
    /// fold a position's terms in ascending source order, and the terms the
    /// push skips are identities.  The operand holds NaN, ±∞ and −0.0.
    #[test]
    fn push_bin_full_matches_pull_for_minplus_and_arithmetic() {
        let a = sample_rect(64, 53, 37);
        let at = from_csr::<u16>(&a.transpose(), 16);
        let hostile = [f32::NAN, f32::NEG_INFINITY, -0.0, 3.0, 1.0, f32::INFINITY];
        for semiring in [Semiring::MinPlus(1.0), Semiring::Arithmetic] {
            let x: Vec<f32> = (0..64)
                .map(|i| match i % 4 {
                    0 => hostile[(i / 4) % hostile.len()],
                    1 => 0.25 * i as f32,
                    _ => semiring.identity(),
                })
                .collect();
            let frontier: Vec<usize> = (0..64).filter(|&i| !semiring.is_identity(x[i])).collect();
            let pull = pull_full(&at, &x, semiring);
            let mut y = vec![semiring.identity(); a.ncols()];
            csr_push_full(&a, &x, 1, &frontier, semiring, |_| true, &mut y);
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&y), bits(&pull), "{semiring:?}");
        }
    }

    #[test]
    fn push_respects_the_allow_filter() {
        let a = sample(40, 41);
        let x = sample_x(40);
        let frontier: Vec<usize> = (0..40).filter(|&i| x[i] != 0.0).collect();
        let mut y = vec![0.0f32; a.ncols()];
        let even = |j: usize| j.is_multiple_of(2);
        csr_push_full(&a, &x, 1, &frontier, Semiring::Arithmetic, even, &mut y);
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
        let minplus = Semiring::MinPlus(1.0);
        csr_push_full(&a, &[0.0; 32], 1, &[], minplus, |_| true, &mut y);
        assert!(y.iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn into_variants_match_allocating_kernels() {
        let a = sample(50, 47);
        let x = sample_x(50);
        let b = from_csr::<u8>(&a, 8);
        let xp = packed::<u8>(&x, 8);
        let mut yw = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_into(&b, &xp, &mut yw);
        assert_eq!(yw, pull_bits(&b, &xp));

        let padded = b.n_tile_rows() * 8;
        let mut yf = vec![42.0f32; padded];
        bmv_bin_full_full_into(&b, &x, Semiring::Arithmetic, &mut yf);
        assert_eq!(&yf[..50], &pull_full(&b, &x, Semiring::Arithmetic)[..]);

        let mut packed = vec![0u8; 1];
        pack_vector_tilewise_into(&x, 8, &mut packed);
        assert_eq!(packed, xp);
    }

    #[test]
    fn vector_packing_roundtrip() {
        // 37 and 101 leave a ragged last segment at every tile width.
        let v: Vec<bool> = (0..37).map(|i| i % 4 == 0).collect();
        for dim in [4usize, 8, 16, 32] {
            let packed = pack_vector_bits::<u32>(&v, dim);
            assert_eq!(unpacked(&packed, dim, v.len()), v, "dim {dim}");
        }
        let flags: Vec<bool> = (0..101).map(|i| i % 7 < 3).collect();
        // `-0.0` packs as clear and NaN as set: the test is `x != 0.0`.
        let f: Vec<f32> = (0..101)
            .map(|i| match (flags[i], i % 2) {
                (true, 0) => -0.5 * (i + 1) as f32,
                (true, _) => f32::NAN,
                (false, 0) => 0.0,
                (false, _) => -0.0,
            })
            .collect();
        macro_rules! check {
            ($w:ty, $dim:expr) => {{
                let words = pack_vector_bits::<$w>(&flags, $dim);
                assert_eq!(words.len(), 101usize.div_ceil($dim));
                assert_eq!(unpacked(&words, $dim, 101), flags, "bits {}", $dim);
                // Stale contents and a wrong length must not survive.
                let mut words: Vec<$w> = vec![<$w>::MAX; 3];
                pack_vector_tilewise_into(&f, $dim, &mut words);
                assert_eq!(unpacked(&words, $dim, 101), flags, "f32 {}", $dim);
            }};
        }
        check!(u8, 4);
        check!(u8, 8);
        check!(u16, 16);
        check!(u32, 32);
    }

    #[test]
    fn empty_matrix_yields_identity_outputs() {
        let a = Csr::empty(20, 20);
        let b = from_csr::<u8>(&a, 4);
        let xp = packed::<u8>(&[1.0; 20], 4);
        assert!(pull_bits(&b, &xp).iter().all(|&w| w == 0));
        assert!(bmv_bin_bin_full_masked(&b, &xp, None)
            .iter()
            .all(|&v| v == 0.0));
        let y = pull_full(&b, &[1.0; 20], Semiring::MinPlus(1.0));
        assert!(y.iter().all(|&v| v == f32::INFINITY));
    }

    // -- the Boolean sweep vs its per-bit definition, and what it walks -------

    /// `(frontier bits, suppressed bits)` → the words the Boolean sweep
    /// stores, against the per-bit definition on the CSR: row `i` is set iff
    /// it is not suppressed and has an edge into the frontier.
    fn check_boolean_sweep<W: BitWord>(a: &Csr, dim: usize, x: &[bool], sup: Option<&[bool]>) {
        let b = from_csr::<W>(a, dim);
        let want: Vec<bool> = (0..a.nrows())
            .map(|r| !sup.is_some_and(|s| s[r]) && a.row(r).0.iter().any(|&c| x[c]))
            .collect();
        let want = pack_vector_bits::<W>(&want, dim);
        let xp = pack_vector_bits::<W>(x, dim);
        // Suppressed words with every bit past the rows that exist set too:
        // spare `u8` bits at B2SR-4 and padding rows must not matter.
        let mp = sup.map(|s| {
            let mut mp = pack_vector_bits::<W>(s, dim);
            for (tr, w) in mp.iter_mut().enumerate() {
                let rows = dim.min(a.nrows() - tr * dim);
                *w |= !W::from_u64(u64::MAX >> (64 - rows));
            }
            mp
        });
        let what = format!("{}x{} dim {dim}", a.nrows(), a.ncols());
        let mut y = vec![W::ONES; b.n_tile_rows()];
        bmv_bin_bin_bin_masked_into(&b, &xp, mp.as_deref(), &mut y);
        assert_eq!(y, want, "{what}");
    }

    #[test]
    fn early_exit_sweep_equals_the_per_bit_reference() {
        // 53 × 38: ragged last tile-row and tile-column at every width; and
        // a graph whose column 0 reaches every row, so that with vertex 0 in
        // the frontier the first tile of each tile-row saturates it.
        let scattered = sample_rect(53, 38, 7);
        let mut coo = Coo::new(53, 38);
        for (r, c, _) in scattered.iter() {
            coo.push_edge(r, c).unwrap();
        }
        for r in 0..53 {
            coo.push_edge(r, 0).unwrap();
        }
        let saturating = coo.to_binary_csr();
        for a in [&scattered, &saturating, &Csr::empty(21, 38)] {
            let (nrows, ncols) = (a.nrows(), a.ncols());
            let operands: [Vec<bool>; 4] = [
                vec![false; ncols],
                vec![true; ncols],
                (0..ncols).map(|c| c == 0).collect(),
                (0..ncols).map(|c| c % 3 == 1).collect(),
            ];
            let has_edge = |r: usize| !a.row(r).0.is_empty();
            let masks: [Option<Vec<bool>>; 5] = [
                None,
                Some(vec![true; nrows]),
                Some(vec![false; nrows]),
                // One row left per tile-row of every width.
                Some((0..nrows).map(|r| r % 4 != 1).collect()),
                // Exactly the rows that have edges.
                Some((0..nrows).map(has_edge).collect()),
            ];
            for x in &operands {
                for sup in &masks {
                    check_boolean_sweep::<u8>(a, 4, x, sup.as_deref());
                    check_boolean_sweep::<u8>(a, 8, x, sup.as_deref());
                    check_boolean_sweep::<u16>(a, 16, x, sup.as_deref());
                    check_boolean_sweep::<u32>(a, 32, x, sup.as_deref());
                }
            }
        }
    }

    /// Tiles whose words one Boolean pull reads, summed over tile-rows —
    /// the same in every tile-row whether operand and suppressed rows are
    /// tile words or fields of node words ([`node_field`]).
    fn tiles_walked<W: BitWord>(b: &B2sr<W>, x: &[bool], sup: &[bool]) -> usize {
        let dim = b.tile_dim();
        let (xp, mp) = (
            pack_vector_bits::<W>(x, dim),
            pack_vector_bits::<W>(sup, dim),
        );
        let (mut xw, mut sw) = (Vec::new(), Vec::new());
        pack_segments_into(x, 64, &mut xw, |&set| set);
        pack_segments_into(sup, 64, &mut sw, |&set| set);
        let walked = |tr: usize| {
            let tiles = bin_bin_bin_tile_row(b, |tc| xp[tc], tr, !mp[tr]).1;
            let keep = !node_field::<W>(&sw, tr, dim);
            let fields = bin_bin_bin_tile_row(b, |tc| node_field(&xw, tc, dim), tr, keep).1;
            assert_eq!(tiles, fields, "dim {dim} tile-row {tr}: node-word fields");
            tiles
        };
        (0..b.n_tile_rows()).map(walked).sum()
    }

    /// "A pull walks what is left", as counts: removing the early exit, the
    /// empty-column skip or the nothing-wanted return fails one of these.
    #[test]
    fn a_boolean_pull_walks_what_is_left_to_find() {
        let a = sample(97, 3);
        let n = a.nrows();
        // Column 0 reaches every row.
        let mut coo = Coo::new(n, n);
        for (r, c, _) in a.iter() {
            coo.push_edge(r, c).unwrap();
        }
        for r in 0..n {
            coo.push_edge(r, 0).unwrap();
        }
        let hub = coo.to_binary_csr();
        fn pins<W: BitWord>(a: &Csr, hub: &Csr, dim: usize) {
            let n = a.nrows();
            let (b, h) = (from_csr::<W>(a, dim), from_csr::<W>(hub, dim));
            let (all, none) = (vec![true; n], vec![false; n]);
            assert!(b.n_tiles() > b.n_tile_rows(), "precondition");
            // Every row suppressed: nothing to find, nothing read.
            assert_eq!(tiles_walked(&b, &all, &all), 0, "dim {dim}");
            // Nothing suppressed, empty operand: no tile passes `x[tc]`.
            assert_eq!(tiles_walked(&b, &none, &none), 0, "dim {dim}");
            // Every row reached in its first tile, every later tile active
            // too: one tile per tile-row.
            assert_eq!(tiles_walked(&h, &all, &none), h.n_tile_rows(), "dim {dim}");
            // One active tile-column: exactly its tiles, the rest skipped.
            let last: Vec<bool> = (0..n).map(|c| c == n - 1).collect();
            let in_last = (0..b.n_tile_rows())
                .flat_map(|tr| b.tile_row_range(tr))
                .filter(|&idx| b.tile_colind()[idx] == (n - 1) / dim)
                .count();
            assert_eq!(tiles_walked(&b, &last, &none), in_last, "dim {dim}");
        }
        pins::<u8>(&a, &hub, 4);
        pins::<u8>(&a, &hub, 8);
        pins::<u16>(&a, &hub, 16);
        pins::<u32>(&a, &hub, 32);

        // A BFS on R-MAT two rounds out from a hub: the visited set is the
        // high-degree core, whose tile-rows hold most of the tiles, and what
        // is left is low-degree — the bottom-up step's whole point.
        let g = bitgblas_datagen::generators::rmat(10, 8, 0.57, 0.19, 0.19, 5).symmetrized();
        let n = g.nrows();
        let source = (0..n).max_by_key(|&r| g.row(r).0.len()).unwrap();
        let mut level = vec![usize::MAX; n];
        level[source] = 0;
        for round in 0..2 {
            for u in (0..n).filter(|&u| level[u] == round).collect::<Vec<_>>() {
                for &v in g.row(u).0 {
                    level[v] = level[v].min(round + 1);
                }
            }
        }
        let frontier: Vec<bool> = level.iter().map(|&l| l == 2).collect();
        let visited: Vec<bool> = level.iter().map(|&l| l <= 2).collect();
        // `g` is symmetric: it is its own transpose.
        let b = from_csr::<u8>(&g, 8);
        let walked = tiles_walked(&b, &frontier, &visited);
        assert!(
            walked > 0 && 3 * walked < b.n_tiles(),
            "walked {walked} of {} tiles",
            b.n_tiles()
        );
        // The same frontier with no visited set walks most of them.
        assert!(2 * tiles_walked(&b, &frontier, &vec![false; n]) > b.n_tiles());
    }

    // -- the one full-precision sweep vs its per-bit definition -------------

    /// The bin/full/full scheme as the paper states it: every tile row word's
    /// set bits in ascending order, the semiring dispatched per bit, masked
    /// rows overwritten with the identity afterwards.  Serial; padded
    /// length.
    fn reference_bin_full_full<W: BitWord>(
        a: &B2sr<W>,
        x: &[f32],
        semiring: Semiring,
        mask: Option<&Mask>,
    ) -> Vec<f32> {
        let dim = a.tile_dim();
        let mut y = vec![semiring.identity(); a.n_tile_rows() * dim];
        for tr in 0..a.n_tile_rows() {
            for idx in a.tile_row_range(tr) {
                let base = a.tile_colind()[idx] * dim;
                for (r, &aw) in a.tile_words(idx).iter().enumerate().take(dim) {
                    let out = &mut y[tr * dim + r];
                    for dc in aw.iter_ones() {
                        // Guard the ragged last tile-column.
                        if let Some(&xj) = x.get(base + dc as usize) {
                            *out = semiring.reduce(*out, semiring.combine(xj));
                        }
                    }
                }
            }
        }
        if let Some(mask) = mask {
            for (i, v) in y.iter_mut().enumerate().take(a.nrows()) {
                if !mask.allows(i) {
                    *v = semiring.identity();
                }
            }
        }
        y
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// One `(matrix, operand, semiring)` case on one width: the bare sweep,
    /// and the sweep finished by `MxvPipeline::finish` with no mask, a mask
    /// and a complemented mask, against the reference.
    fn check_sweep_against_reference<W: BitWord>(
        a: &Csr,
        dim: usize,
        x: &[f32],
        semiring: Semiring,
    ) {
        let b = from_csr::<W>(a, dim);
        let what = format!("{}x{} dim {dim} {semiring:?}", a.nrows(), a.ncols());
        let mut y = vec![42.0f32; b.n_tile_rows() * dim];
        bmv_bin_full_full_into(&b, x, semiring, &mut y);
        let want = reference_bin_full_full(&b, x, semiring, None);
        assert_eq!(bits(&y), bits(&want), "bare {what}");

        let flags: Vec<bool> = (0..a.nrows()).map(|i| i % 3 == 0).collect();
        let masks = [
            None,
            Some(Mask::new(flags.clone())),
            Some(Mask::complemented(flags)),
        ];
        for mask in &masks {
            let p = bare_pipeline(x, semiring, mask.as_ref());
            y.fill(-7.0);
            bmv_bin_full_full_into(&b, x, semiring, &mut y);
            finish(&p, &mut y[..a.nrows()]);
            let want = reference_bin_full_full(&b, x, semiring, mask.as_ref());
            assert_eq!(bits(&y), bits(&want), "{mask:?} {what}");
        }
    }

    /// A mixed finite / infinite operand, so tropical identities flow
    /// through, and the same with NaN, −inf and −0.0 beside them.
    fn sweep_operands(ncols: usize) -> (Vec<f32>, Vec<f32>) {
        let x: Vec<f32> = (0..ncols)
            .map(|i| match i % 5 {
                0 => 0.25 * i as f32,
                1 => f32::INFINITY,
                2 => -1.5,
                _ => (i % 11) as f32,
            })
            .collect();
        const HOSTILE: [f32; 4] = [f32::NAN, f32::NEG_INFINITY, -0.0, 0.0];
        let mut hostile = x.clone();
        for (i, v) in hostile.iter_mut().enumerate().filter(|(i, _)| i % 3 == 1) {
            *v = HOSTILE[(i / 3) % HOSTILE.len()];
        }
        (x, hostile)
    }

    #[test]
    fn one_sweep_equals_the_per_bit_reference_bitwise() {
        // Empty, one vertex, one past a tile edge of every width, and a
        // non-square matrix whose last tile-column is ragged at every width.
        let shapes = [(0, 0), (1, 1), (17, 17), (33, 33), (65, 65), (21, 38)];
        for (nrows, ncols) in shapes {
            let a = sample_rect(nrows, ncols, (nrows * 64 + ncols) as u64 + 41);
            // The hostile operand for the tropical semirings only: `min` /
            // `max` drop a NaN, whereas which payload `NaN + NaN` keeps is
            // the compiler's choice.
            let (x, hostile) = sweep_operands(ncols);
            let cases = [
                (Semiring::Arithmetic, &x),
                (Semiring::Boolean, &x),
                (Semiring::MinPlus(1.0), &x),
                (Semiring::MaxTimes(0.5), &x),
                (Semiring::MinPlus(1.0), &hostile),
                (Semiring::MaxTimes(0.5), &hostile),
            ];
            for (semiring, x) in cases {
                check_sweep_against_reference::<u8>(&a, 4, x, semiring);
                check_sweep_against_reference::<u8>(&a, 8, x, semiring);
                check_sweep_against_reference::<u16>(&a, 16, x, semiring);
                check_sweep_against_reference::<u32>(&a, 32, x, semiring);
            }
        }
    }

    /// 4×4 bit patterns, bit `4r + c` for (row `r`, column `c`), of 1, 2, 3,
    /// 5 and 16 bits: the second branch-free fold absent, present in the same
    /// row and in another row, and the loop after it entered once and many
    /// times.
    const BLOCKS: [u16; 6] = [0x8000, 0x0006, 0x0810, 0x0209, 0x9043, 0xFFFF];

    /// 70 × 99 — ragged last tile-row and tile-column at every width.  One
    /// 4×4 pattern sits at each 32-aligned corner and 28 rows / columns past
    /// it, so each lands alone in one tile at every width (at 16 and 32 with
    /// the tile's later, or earlier, chunks empty).  The last tile-column
    /// holds 1, 3 and 2 bits in columns 96..=98, 98 being the last real one,
    /// in rows no pattern touches.
    fn branch_free_edges() -> Csr {
        let (nrows, ncols) = (70, 99);
        let mut coo = Coo::new(nrows, ncols);
        let mut pattern = BLOCKS.iter().cycle();
        for r0 in [0, 28, 32, 60, 64] {
            for c0 in [0, 28, 32, 60, 64, 92] {
                let bits = *pattern.next().unwrap();
                for b in (0..16).filter(|b| bits >> b & 1 == 1) {
                    if r0 + b / 4 < nrows {
                        coo.push_edge(r0 + b / 4, c0 + b % 4).unwrap();
                    }
                }
            }
        }
        for (r, c) in [(5, 98), (37, 96), (37, 97), (37, 98), (68, 98), (69, 97)] {
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    /// Bits per tile of `b`, and whether some tile has an empty 64-bit chunk
    /// after a non-empty one.
    fn tile_bit_counts<W: BitWord>(b: &B2sr<W>) -> (Vec<u32>, bool) {
        let per = (64 / W::BITS) as usize;
        let mut empty_after = false;
        let counts = (0..b.n_tiles())
            .map(|idx| {
                let chunks: Vec<u64> = b
                    .tile_words(idx)
                    .chunks(per)
                    .map(W::pack_chunk_u64)
                    .collect();
                empty_after |= chunks.iter().skip_while(|&&c| c == 0).any(|&c| c == 0);
                chunks.iter().map(|c| c.count_ones()).sum()
            })
            .collect();
        (counts, empty_after)
    }

    /// The branch-free arm's edges, against the per-bit definition by
    /// `to_bits`, at every width and for all four semirings on the hostile
    /// operand: tiles of exactly 1, 2, 3, 5 and 16 bits, 16×16 and 32×32
    /// tiles with empty chunks, a bit in the last real column of a ragged
    /// last tile-column, and matrices with no column at all (no junk column
    /// may be derived from `x.len() - 1`).  Where two NaNs meet in a sum the
    /// hardware picks the payload, so a NaN matches any NaN.
    #[test]
    fn branch_free_fold_edges_equal_the_per_bit_reference_bitwise() {
        let a = branch_free_edges();
        let (_, hostile) = sweep_operands(a.ncols());
        // Finite in the last real column, so every semiring sees it folded.
        assert!(hostile[a.ncols() - 1].is_finite());
        fn same(got: &[f32], want: &[f32]) -> bool {
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
        }
        fn check<W: BitWord>(a: &Csr, dim: usize, x: &[f32]) {
            let b = from_csr::<W>(a, dim);
            let (counts, empty_after) = tile_bit_counts(&b);
            for k in [1, 2, 3] {
                assert!(counts.contains(&k), "dim {dim}: no {k}-bit tile");
            }
            assert!(counts.iter().any(|&k| k >= 5), "dim {dim}: no dense tile");
            assert_eq!(empty_after, dim >= 16, "dim {dim}: empty later chunks");
            let last = (a.ncols() - 1) / dim;
            assert!(
                (0..b.n_tiles()).any(|idx| b.tile_colind()[idx] == last
                    && b.tile_words(idx)
                        .iter()
                        .any(|w| w.bit(((a.ncols() - 1) % dim) as u32))),
                "dim {dim}: no bit in the last real column"
            );
            for semiring in [
                Semiring::Arithmetic,
                Semiring::Boolean,
                Semiring::MinPlus(1.0),
                Semiring::MaxTimes(0.5),
            ] {
                let mut y = vec![42.0f32; b.n_tile_rows() * dim];
                bmv_bin_full_full_into(&b, x, semiring, &mut y);
                let want = reference_bin_full_full(&b, x, semiring, None);
                assert!(same(&y, &want), "dim {dim} {semiring:?}: {y:?} vs {want:?}");
            }
        }
        check::<u8>(&a, 4, &hostile);
        check::<u8>(&a, 8, &hostile);
        check::<u16>(&a, 16, &hostile);
        check::<u32>(&a, 32, &hostile);

        // No column: nothing to fold, every output the identity.
        for (nrows, ncols) in [(0, 0), (9, 0)] {
            let a = Csr::empty(nrows, ncols);
            for dim in [4usize, 8] {
                let b = from_csr::<u8>(&a, dim);
                let mut y = vec![42.0f32; b.n_tile_rows() * dim];
                bmv_bin_full_full_into(&b, &[], Semiring::MinPlus(1.0), &mut y);
                assert!(y.iter().all(|&v| v == f32::INFINITY), "{nrows}x{ncols}");
            }
        }
    }

    #[test]
    fn simd_kernels_handle_empty_and_tiny_inputs() {
        let a = Csr::empty(20, 20);
        let b = from_csr::<u8>(&a, 4);
        let xp = packed::<u8>(&[1.0; 20], 4);
        let mut y = vec![0xFFu8; b.n_tile_rows()];
        bmv_bin_bin_bin_simd_into(&b, &xp, &mut y);
        assert!(y.iter().all(|&w| w == 0));
        let mut yf = vec![0.0f32; b.n_tile_rows() * 4];
        bmv_bin_full_full_simd_into(&b, &[1.0; 20], Semiring::MinPlus(1.0), &mut yf);
        assert!(yf.iter().all(|&v| v == f32::INFINITY));
    }
}
