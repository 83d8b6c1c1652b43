//! BMM — Binarized sparse Matrix × Matrix kernels (Table III) and the
//! batched matrix-times-multivector kernels behind the multi-source
//! traversal engine.
//!
//! Three kernel families live here:
//!
//! * **Scalar-reducing SpGEMM** — Triangle Counting is the paper's SpGEMM
//!   consumer: both operands and the mask are binary, and the only output
//!   needed is the *sum* of the product's entries.  `bmm_bin_bin_sum`
//!   computes `Σ_{i,j} (A·B)[i][j]` and `bmm_bin_bin_sum_masked_nt`
//!   computes `Σ_{(i,j) ∈ mask} (A·B)[i][j]` from `A` and `Bᵀ`, both over
//!   the arithmetic semiring with binary inputs.  The paper's Listing 2 runs
//!   one warp per tile-row of `A` and broadcasts the bit-rows of a
//!   column-major `B` tile to every lane (`__shfl_sync`), each lane adding
//!   `__popc(a_row & b_col)` to a private register; here the warp
//!   scheduling becomes Rayon parallelism over tile-rows and neither kernel
//!   needs a column-major copy.  A masked entry `(A·B)[i][j]` is the size of
//!   the intersection of row `i` of `A` and row `j` of `Bᵀ`, so the masked
//!   kernel takes `Bᵀ` by rows and intersects tile-rows; the unmasked sum
//!   of one tile pair factors into `A`'s per-tile column counts times `B`'s
//!   row popcounts.
//!
//! * **Matrix × multivector (frontier matrices)** — `k` concurrent
//!   traversals stacked into an `n × k` multi-vector advance with a single
//!   sweep that loads each adjacency tile **once** and applies it to all
//!   `k` lanes, amortizing the matrix traffic across queries the same way
//!   the bit kernels amortize it across packed elements.  The Boolean pull
//!   and push (`bmm_bin_bits_into`, `bmm_push_bits`, the push serial) pack
//!   the lanes into `u64` *lane words* (`k.div_ceil(64)` words per node),
//!   so one `OR` per edge advances up to 64 traversals at once.  The
//!   full-precision pull `bmm_bin_full_into` dispatches its semiring once
//!   per call into a monomorphic sweep, enumerates a tile's set bits
//!   tile-granular like the fused single-vector sweep, and folds each hit's
//!   `k` lanes with a plain loop the compiler vectorises.  The GrB layer
//!   runs the CSR bodies below instead, which win at every fill the benches
//!   sweep; these stay for the benches and the repo benchmark's probes,
//!   pinned to the CSR bodies bit for bit by the tests at the end of this
//!   file.
//!
//! * **The CSR bodies** — `csr_push_full`, one lane-sparse scatter over the
//!   rows of the CSR every built-in backend holds, for every `k`: it folds
//!   one `f32` per edge whichever layout lists the edges.  Beside it, the
//!   single-vector row pull over the same rows, `csr_pull_full`, which runs
//!   every full-precision pull, and the Boolean products in node words
//!   (`csr_bits_pull`, `csr_bits_push`: a bit matrix without tiles) and in
//!   lane words (`csr_lanes_pull`, `csr_lanes_push`: every bit matrix).
//!   And the masked count of a bit matrix without tiles,
//!   `csr_words_masked_count`: Triangle Counting's AND + popcount over
//!   CSR rows packed into 64-column words (`RowWords`).

use rayon::prelude::*;

use bitgblas_bitops::BitWord;
use bitgblas_sparse::Csr;

use super::simd;
use crate::b2sr::B2sr;
use crate::semiring::{with_semiring_ops, Semiring};

/// `bmm_bin_bin_sum()`: the sum of all entries of `A · B` over the arithmetic
/// semiring, with both operands binary (in B2SR with the same tile size).
///
/// # Panics
/// Panics if the operands' dimensions or tile sizes are incompatible.
pub fn bmm_bin_bin_sum<W: BitWord>(a: &B2sr<W>, b: &B2sr<W>) -> u64 {
    assert_eq!(a.ncols(), b.nrows(), "inner dimensions must agree");
    assert_eq!(
        a.tile_dim(),
        b.tile_dim(),
        "operands must use the same tile size"
    );
    let dim = a.tile_dim();
    (0..a.n_tile_rows())
        .into_par_iter()
        .map(|tr| {
            let mut local: u64 = 0;
            for a_idx in a.tile_row_range(tr) {
                // Σ_{i,j} (A_tile · B_tile)[i][j] = Σ_c colcount_A(c) ·
                // popc(B_tile row c): the counts are taken once per A tile.
                let mut colcount = [0u64; 32];
                for &aw in a.tile_words(a_idx) {
                    for c in aw.iter_ones() {
                        colcount[c as usize] += 1;
                    }
                }
                for b_idx in b.tile_row_range(a.tile_colind()[a_idx]) {
                    for (&n, &bw) in colcount[..dim].iter().zip(b.tile_words(b_idx)) {
                        local += n * bw.popcount() as u64;
                    }
                }
            }
            local
        })
        .sum()
}

/// `bmm_bin_bin_sum_masked()`: the sum of `A · B` restricted to the positions
/// where `mask` has a set bit: `b.transpose()`, then the kernel proper,
/// [`bmm_bin_bin_sum_masked_nt`].
///
/// # Panics
/// Panics if dimensions or tile sizes are incompatible.
pub fn bmm_bin_bin_sum_masked<W: BitWord>(a: &B2sr<W>, b: &B2sr<W>, mask: &B2sr<W>) -> u64 {
    bmm_bin_bin_sum_masked_nt(a, &b.transpose(), mask)
}

/// `bmm_bin_bin_sum_masked_nt()`: `Σ_{(i,j) ∈ mask} (a · btᵀ)[i][j]` — the
/// masked product sum with the second factor's transpose `bt` stored by
/// rows, which makes it the Triangle Counting kernel as is
/// (`a = bt = mask = L` gives `Σ (L·Lᵀ) .* L`).  `a` is `m × p`, `bt` is
/// `q × p`, `mask` is `m × q`.
///
/// Entry `(i, j)` of the product is `|a_i ∩ bt_j|`, so per output tile-row
/// the kernel scatters `a`'s tile indices into a dense tile-column table
/// and, per mask tile `(tr, tc)`, decodes the mask's set `(i, j)` bits once,
/// walks `bt`'s tile-row `tc`, and for every tile the table knows adds
/// `popc(a_tile[i] & bt_tile[j])` over the decoded pairs.  The table is one
/// per worker and is reset by re-walking `a`'s tile-row.
///
/// # Panics
/// Panics if dimensions or tile sizes are incompatible.
pub fn bmm_bin_bin_sum_masked_nt<W: BitWord>(a: &B2sr<W>, bt: &B2sr<W>, mask: &B2sr<W>) -> u64 {
    assert_eq!(a.ncols(), bt.ncols(), "inner dimensions must agree");
    assert_eq!(a.nrows(), mask.nrows(), "mask must match the output rows");
    assert_eq!(
        bt.nrows(),
        mask.ncols(),
        "mask must match the output columns"
    );
    assert_eq!(
        a.tile_dim(),
        bt.tile_dim(),
        "operands must use the same tile size"
    );
    assert_eq!(
        a.tile_dim(),
        mask.tile_dim(),
        "mask must use the same tile size"
    );
    (0..mask.n_tile_rows())
        .into_par_iter()
        .map_init(
            || (vec![usize::MAX; a.n_tile_cols()], Vec::new()),
            |(table, pairs), tr| masked_nt_tile_row(a, bt, mask, tr, table, pairs),
        )
        .sum()
}

/// One output tile-row of [`bmm_bin_bin_sum_masked_nt`].  `table` maps a
/// tile-column to `a`'s tile there (`usize::MAX` = none) and is all-`MAX`
/// on entry and on return; `pairs` is scratch for a mask tile's set bits.
fn masked_nt_tile_row<W: BitWord>(
    a: &B2sr<W>,
    bt: &B2sr<W>,
    mask: &B2sr<W>,
    tr: usize,
    table: &mut [usize],
    pairs: &mut Vec<(u8, u8)>,
) -> u64 {
    let a_range = a.tile_row_range(tr);
    if a_range.is_empty() {
        return 0;
    }
    for a_idx in a_range.clone() {
        table[a.tile_colind()[a_idx]] = a_idx;
    }
    let mut local: u64 = 0;
    for m_idx in mask.tile_row_range(tr) {
        pairs.clear();
        for (i, &mw) in mask.tile_words(m_idx).iter().enumerate() {
            pairs.extend(mw.iter_ones().map(|j| (i as u8, j as u8)));
        }
        for b_idx in bt.tile_row_range(mask.tile_colind()[m_idx]) {
            let a_idx = table[bt.tile_colind()[b_idx]];
            if a_idx == usize::MAX {
                continue;
            }
            let (aw, bw) = (a.tile_words(a_idx), bt.tile_words(b_idx));
            for &(i, j) in pairs.iter() {
                local += (aw[i as usize] & bw[j as usize]).popcount() as u64;
            }
        }
    }
    for a_idx in a_range {
        table[a.tile_colind()[a_idx]] = usize::MAX;
    }
    local
}

// ---------------------------------------------------------------------------
// Matrix × multivector (frontier-matrix) kernels
// ---------------------------------------------------------------------------

/// `bmm_bin_bits_into()`: pull-direction Boolean matrix × multivector.
///
/// `xw` holds the operand's per-node lane words (`k.div_ceil(64)` `u64`s
/// per node, bit `l` = lane `l` active); `xa` is the tilewise-packed
/// **any-lane-active** indicator of the operand ([`pack_vector_bits`]-style:
/// bit `c` of word `tc` set iff node `tc*dim + c` has at least one active
/// lane); `sup` optionally carries the flat mask as per-node *suppressed*
/// lane words (bit `l` set = output lane `l` of that node is masked out).
/// `yw` must hold `n_tile_rows * tile_dim * wpn` words and is fully
/// overwritten.
///
/// Output node `i`'s lane word `t` ORs the lane words of every *active*
/// in-neighbour: `xa` keeps the single-vector kernel's word-level streaming
/// advantage — a whole tile whose column range holds no active node is
/// skipped with one AND, and within a tile only the edges that land on
/// active nodes pay the per-edge lane OR (one OR advances up to 64
/// traversals).  With `sup` present, rows whose every lane is masked out
/// are skipped entirely (a whole tile-row of them costs one word test) —
/// in a late BFS iteration, where almost every vertex is visited in every
/// lane, the sweep collapses to streaming the tile index.  Rayon
/// parallelises over tile-rows like the single-vector pull kernels.
///
/// [`pack_vector_bits`]: crate::kernels::pack_vector_bits
pub fn bmm_bin_bits_into<W: BitWord>(
    a: &B2sr<W>,
    xw: &[u64],
    k: usize,
    xa: &[W],
    sup: Option<&[u64]>,
    yw: &mut [u64],
) {
    let dim = a.tile_dim();
    let wpn = k.div_ceil(64);
    assert!(
        xw.len() >= a.ncols() * wpn,
        "operand has too few lane words"
    );
    debug_assert!(xa.len() >= a.n_tile_cols(), "active mask has too few words");
    if let Some(s) = sup {
        debug_assert!(s.len() >= a.nrows() * wpn, "mask has too few lane words");
    }
    debug_assert!(
        yw.len() >= a.n_tile_rows() * dim * wpn,
        "output has too few lane words"
    );
    let nrows = a.nrows();
    // Bits past lane k-1 in the last word of each node are never set.
    let tail = if k.is_multiple_of(64) {
        !0u64
    } else {
        (1u64 << (k % 64)) - 1
    };
    let lane_mask = |t: usize| if t + 1 == wpn { tail } else { !0u64 };
    yw.par_chunks_mut(dim * wpn)
        .enumerate()
        .for_each(|(tr, out)| {
            for w in out.iter_mut() {
                *w = 0;
            }
            if tr >= a.n_tile_rows() {
                return;
            }
            // Which rows of this tile-row still have an unmasked lane; a fully
            // suppressed tile-row skips its tiles altogether.
            let mut row_allow = !W::ZERO;
            if let Some(s) = sup {
                row_allow = W::ZERO;
                for r in 0..dim {
                    let gr = tr * dim + r;
                    if gr < nrows && (0..wpn).any(|t| !s[gr * wpn + t] & lane_mask(t) != 0) {
                        row_allow = row_allow.with_bit(r as u32);
                    }
                }
                if row_allow == W::ZERO {
                    return;
                }
            }
            for idx in a.tile_row_range(tr) {
                let tc = a.tile_colind()[idx];
                let xaw = xa[tc];
                if xaw == W::ZERO {
                    // No active node in this tile-column: the whole tile
                    // contributes nothing to any lane.
                    continue;
                }
                let base = tc * dim;
                let words = a.tile_words(idx);
                for (r, &aw) in words.iter().enumerate().take(dim) {
                    if !row_allow.bit(r as u32) {
                        continue;
                    }
                    // Only the edges landing on active nodes carry lanes; `xa`
                    // also masks the ragged last tile-column (bits past ncols
                    // are never active).
                    let hits = aw & xaw;
                    if hits == W::ZERO {
                        continue;
                    }
                    if wpn == 1 {
                        // The common shape (k ≤ 64): one accumulator register.
                        let mut acc = out[r];
                        for dc in hits.iter_ones() {
                            acc |= xw[base + dc as usize];
                        }
                        out[r] = acc;
                    } else {
                        // Lane-word spill (k > 64): whole slices move with
                        // the unrolled block primitive.
                        for dc in hits.iter_ones() {
                            let src = &xw[(base + dc as usize) * wpn..][..wpn];
                            simd::or_into(&mut out[r * wpn..][..wpn], src);
                        }
                    }
                }
            }
            // Store-side mask: clear the suppressed lanes of every produced row.
            if let Some(s) = sup {
                for r in 0..dim {
                    let gr = tr * dim + r;
                    if gr >= nrows {
                        break;
                    }
                    simd::andnot_into(&mut out[r * wpn..][..wpn], &s[gr * wpn..][..wpn]);
                }
            }
        });
}

/// `bmm_push_bits()`: push-direction Boolean matrix × multivector.
/// `frontier` lists, in ascending order, the *node* indices (rows of `a`)
/// with at least one active lane; each frontier node's whole lane word is
/// OR-scattered into every out-neighbour, so one scatter advances all of
/// that node's active traversals at once.  `yw` holds `ncols * wpn` lane
/// words and must be zeroed by the caller.  Serial and allocation-free like
/// the single-vector push kernels; [`csr_lanes_push`] is the same scatter
/// over CSR rows, word for word.
pub fn bmm_push_bits<W: BitWord>(
    a: &B2sr<W>,
    frontier: &[usize],
    xw: &[u64],
    wpn: usize,
    yw: &mut [u64],
) {
    let dim = a.tile_dim();
    assert!(
        xw.len() >= a.nrows() * wpn,
        "operand has too few lane words"
    );
    debug_assert!(yw.len() >= a.ncols() * wpn, "output has too few lane words");
    let ncols = a.ncols();
    for &u in frontier {
        debug_assert!(u < a.nrows(), "frontier node out of range");
        let (tr, r) = (u / dim, u % dim);
        if wpn == 1 {
            // The common shape (k ≤ 64): the node's whole batch is one word.
            let srcw = xw[u];
            for idx in a.tile_row_range(tr) {
                let base = a.tile_colind()[idx] * dim;
                let w = a.tile_words(idx)[r];
                for dc in w.iter_ones() {
                    let j = base + dc as usize;
                    if j < ncols {
                        yw[j] |= srcw;
                    }
                }
            }
            continue;
        }
        let src = &xw[u * wpn..(u + 1) * wpn];
        for idx in a.tile_row_range(tr) {
            let base = a.tile_colind()[idx] * dim;
            let w = a.tile_words(idx)[r];
            for dc in w.iter_ones() {
                let j = base + dc as usize;
                if j < ncols {
                    let dst = &mut yw[j * wpn..(j + 1) * wpn];
                    for (t, &s) in src.iter().enumerate() {
                        dst[t] |= s;
                    }
                }
            }
        }
    }
}

/// `bmm_bin_full_into()`: pull-direction full-precision matrix ×
/// multivector, generic over the semiring.  `x` is the flat node-major
/// `ncols × k` operand; `y` must hold `n_tile_rows * tile_dim * k` entries
/// and is fully overwritten (padded rows receive the semiring identity; the
/// caller truncates to `nrows * k`).  The whole batch advances in one matrix
/// sweep.
///
/// The semiring is resolved **once per call** (`with_semiring_ops!`), so
/// each semiring gets a monomorphic sweep, and the sweep is tile-granular
/// like [`bmv_bin_full_full_fused_into`]: a tile's row words pack into
/// 64-bit chunks and one `trailing_zeros` loop enumerates its set bits, each
/// of which folds the operand node's `k` lanes into the output row's `k`
/// lanes — a plain loop over two contiguous `k`-slices that vectorises.
/// Per output row the terms arrive tiles-ascending, columns-ascending
/// within a tile, and every lane folds alone, so lane `l` holds exactly the
/// bits the single-vector sweep of lane `l` produces.
///
/// `xa` optionally carries the tilewise-packed any-lane-active indicator
/// (see [`bmm_bin_bits_into`]); when present, tiles and edges landing only
/// on all-identity nodes are skipped (one AND per chunk).  Only exact for
/// [`Semiring::push_safe`] semirings — the caller passes `None` otherwise.
///
/// # Panics
/// Panics if `x`, `y` or `xa` is shorter than the matrix requires.
///
/// [`bmv_bin_full_full_fused_into`]: crate::kernels::bmv_bin_full_full_fused_into
pub fn bmm_bin_full_into<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    k: usize,
    semiring: Semiring,
    xa: Option<&[W]>,
    y: &mut [f32],
) {
    let dim = a.tile_dim();
    assert!(x.len() >= a.ncols() * k, "operand x shorter than ncols * k");
    assert!(
        y.len() >= a.n_tile_rows() * dim * k,
        "output y shorter than the padded row count * k"
    );
    if let Some(xa) = xa {
        assert!(
            xa.len() >= a.n_tile_cols(),
            "active mask xa has too few tile words"
        );
        debug_assert!(
            semiring.push_safe(),
            "active-skip needs a push-safe semiring"
        );
    }
    let x = &x[..a.ncols() * k];
    with_semiring_ops!(semiring, |identity, combine, reduce| {
        y.par_chunks_mut(dim * k).enumerate().for_each(|(tr, out)| {
            out.fill(identity);
            if tr < a.n_tile_rows() {
                bin_full_tile_row(a, x, k, xa, tr, combine, reduce, out);
            }
        })
    });
}

/// One output tile-row of [`bmm_bin_full_into`]: folds every tile of
/// tile-row `tr` into `out` (`tile_dim * k` entries, holding the identity on
/// entry).  `x` holds exactly `ncols * k` entries.  Kept out of line so that
/// `x` and `out` are distinct function arguments: inlined into the parallel
/// closure, the sweep state sits behind the closure's environment pointer,
/// every `f32` store into `out` forces its reload and the lane loop pays a
/// run-time overlap check per edge.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn bin_full_tile_row<W: BitWord>(
    a: &B2sr<W>,
    x: &[f32],
    k: usize,
    xa: Option<&[W]>,
    tr: usize,
    combine: impl Fn(f32) -> f32,
    reduce: impl Fn(f32, f32) -> f32,
    out: &mut [f32],
) {
    let dim = a.tile_dim();
    // Words per 64-bit chunk: a whole 8×8 tile, half a 16×16 one, …
    let per = (64 / W::BITS) as usize;
    for idx in a.tile_row_range(tr) {
        let tc = a.tile_colind()[idx];
        // The active word of this tile-column in every row lane of a chunk:
        // one AND keeps only the edges landing on active nodes.
        let active = match xa {
            Some(xa) if xa[tc] == W::ZERO => continue,
            Some(xa) => simd::broadcast_lanes(xa[tc]),
            None => !0u64,
        };
        let base = tc * dim;
        for (ci, chunk) in a.tile_words(idx).chunks(per).enumerate() {
            // Bit `b` of the chunk is row `b / BITS` (within the chunk),
            // column `b % BITS` of the tile.
            let mut hits = W::pack_chunk_u64(chunk) & active;
            let r0 = ci * per;
            while hits != 0 {
                let b = hits.trailing_zeros();
                hits &= hits - 1;
                let r = r0 + (b / W::BITS) as usize;
                let j = base + (b % W::BITS) as usize;
                // The slice test doubles as the guard of the ragged last
                // tile-column: a column at or past `ncols` starts at or
                // past the end of `x` and yields `None` or no lanes.
                let Some(src) = x.get(j * k..) else { continue };
                for (d, &s) in out[r * k..][..k].iter_mut().zip(src) {
                    *d = reduce(*d, combine(s));
                }
            }
        }
    }
}

/// Lanes the enumerated arm of [`csr_push_full`] handles per pass over a
/// frontier node's edges: one stack block ([`ActiveLanes`]).  A wider batch
/// takes `k.div_ceil(LANE_BLOCK)` passes.
const LANE_BLOCK: usize = 64;

/// The dense-versus-enumerated crossover of [`csr_push_full`]: a frontier
/// node folds all `k` lanes per out-edge — the contiguous loop that
/// vectorises — from `⌈k / DENSE_LANE_DIVISOR⌉` non-identity lanes on, and
/// only its enumerated non-identity lanes below that.
///
/// Measured: `taskset -c 1 cargo bench -p bitgblas-bench --bench bmm --
/// bmm_lane_density` (`k = 64` min-plus, every node in the frontier, each
/// arm forced in turn; per-call medians in ms, ranges over four runs — two
/// at 12 lanes — on one pinned core of a 2-vCPU Xeon VM):
///
/// | active lanes per node | 1 | 4 | 8 | 12 | 16 | 32 | 64 |
/// |---|---|---|---|---|---|---|---|
/// | mesh, enumerated | 0.54–0.59 | 1.06–1.17 | 1.37–1.92 | 1.70–2.75 | 2.76–3.63 | 5.05–7.14 | 7.98–15.7 |
/// | mesh, dense | 1.92–3.23 | 2.08–3.23 | 2.43–3.06 | 2.70–2.95 | 2.41–2.97 | 2.84–3.10 | 2.83–3.45 |
/// | R-MAT, enumerated | 3.39–4.73 | 5.66–7.44 | 7.89–12.1 | 13.5–16.1 | 14.1–19.3 | 20.0–32.2 | 44.6–62.1 |
/// | R-MAT, dense | 13.5–15.4 | 15.0–15.3 | 12.2–15.3 | 15.2–15.4 | 10.6–15.7 | 11.5–15.2 | 12.9–15.4 |
///
/// The arms meet near 12 lanes on R-MAT and between 12 and 16 on the mesh,
/// so at the switch, 8 lanes, the enumerated arm is still the cheaper.  The
/// divisor was set where they met on the tile scatter this body replaced
/// (8 and 11 lanes); it stays until a workload shows what `⌈k / 5⌉` buys.
const DENSE_LANE_DIVISOR: usize = 8;

/// Whether a frontier node with lanes `src` takes the dense arm of
/// [`csr_push_full`].  Counts non-identity lanes sixteen at a time and stops
/// at the threshold, so a dense node (a PPR batch) pays for one or two
/// chunks, not for all `k` lanes.
#[inline(always)]
fn lanes_are_dense(src: &[f32], identity: f32) -> bool {
    let need = src.len().div_ceil(DENSE_LANE_DIVISOR);
    let mut active = 0;
    for chunk in src.chunks(16) {
        active += chunk.iter().filter(|&&s| s != identity).count();
        if active >= need {
            return true;
        }
    }
    false
}

/// The non-identity lanes of one frontier node within a block of at most
/// [`LANE_BLOCK`] lanes, each with its contribution `⊗(x)` taken once —
/// the stack scratch of the enumerated arm (no per-call buffer exists).
struct ActiveLanes {
    lane: [u8; LANE_BLOCK],
    term: [f32; LANE_BLOCK],
    len: usize,
}

impl ActiveLanes {
    /// Enumerate `block` (`≤ LANE_BLOCK` lanes of one node); `None` when
    /// every lane holds the identity.
    #[inline(always)]
    fn of(block: &[f32], identity: f32, combine: impl Fn(f32) -> f32) -> Option<Self> {
        let mut lanes = ActiveLanes {
            lane: [0; LANE_BLOCK],
            term: [0.0; LANE_BLOCK],
            len: 0,
        };
        for (l, &s) in block.iter().enumerate() {
            if s != identity {
                lanes.lane[lanes.len] = l as u8;
                lanes.term[lanes.len] = combine(s);
                lanes.len += 1;
            }
        }
        (lanes.len > 0).then_some(lanes)
    }

    /// Fold the enumerated lanes into the same block of an out-neighbour's
    /// lanes, `dst`, whose first lane is flat output position `flat0`.
    #[inline(always)]
    fn fold_into(
        &self,
        dst: &mut [f32],
        flat0: usize,
        allow: impl Fn(usize) -> bool,
        reduce: impl Fn(f32, f32) -> f32,
    ) {
        for (&l, &t) in self.lane[..self.len].iter().zip(&self.term) {
            let l = l as usize;
            if allow(flat0 + l) {
                dst[l] = reduce(dst[l], t);
            }
        }
    }
}

/// Fold all `k` lanes of a frontier node, `src`, into an out-neighbour's
/// lanes `dst` (flat output positions `flat0..`): the dense arm's per-edge
/// loop over two contiguous `k`-slices.
#[inline(always)]
fn fold_all_lanes(
    dst: &mut [f32],
    src: &[f32],
    flat0: usize,
    allow: impl Fn(usize) -> bool,
    combine: impl Fn(f32) -> f32,
    reduce: impl Fn(f32, f32) -> f32,
) {
    for (l, (d, &s)) in dst.iter_mut().zip(src).enumerate() {
        if allow(flat0 + l) {
            *d = reduce(*d, combine(s));
        }
    }
}

/// `csr_push_full()`: push-direction full-precision matrix × multivector
/// over the rows of a CSR matrix — the one full-precision push scatter of
/// the built-in backends, single-vector (`k = 1`) and batched alike.  For
/// every frontier node `u` (any lane active) and every out-neighbour
/// `j`, the lane contributions `⊗(x[u*k+l])` fold into `y[j*k+l]` with the
/// additive monoid; `allow` filters flat output positions (`j*k + l`, the
/// flat per-lane mask — pass `|_| true` when there is none and the test
/// compiles away) and `y`, `ncols * k` entries, must be pre-filled with the
/// semiring identity — or, to fold a monoid accumulator in the same pass,
/// with `baseline ⊕ identity`.  The semiring is resolved once per call.
/// Only valid for [`Semiring::push_safe`] semirings; serial and
/// allocation-free, and run once over the whole frontier, so its float
/// folds group alike whatever the host's thread count.
/// Always inlined, so a caller's literal `k = 1` folds the lane loop (a
/// frontier node's one lane is active: always the dense arm).
///
/// # Lane-sparse
///
/// Per frontier node the scatter tests how many lanes differ from the
/// identity and takes one of two arms.  A node with at least an eighth of
/// its lanes active (`DENSE_LANE_DIVISOR`) folds all `k` per out-edge —
/// two contiguous `k`-slices, vectorised; a dense batch (PPR) runs only
/// this arm.  Below that the node's non-identity lanes are enumerated once
/// into a stack block (`ActiveLanes`, `LANE_BLOCK` lanes a pass)
/// together with their `⊗(x)` terms and only those fold per out-edge:
/// sixty-four SSSP lanes that each changed a few dozen vertices union to
/// every node, but a node carries one or two of them.
///
/// Both arms produce the same bits.  For a push-safe semiring an identity
/// lane's term is a no-op on anything `y` can hold (`d + 0`, `min(d, ∞)`,
/// `max(d, −∞)`; NaN never survives `min` / `max` and stays NaN under `+`,
/// and neither a seed nor a fold leaves `−0.0` under `+`), and per output
/// position the surviving terms arrive in frontier order, columns
/// ascending, so a non-associative float `+` keeps its grouping.
///
/// # Panics
/// Panics if `x` or `y` is shorter than the matrix requires.
#[inline(always)]
pub fn csr_push_full<M: Fn(usize) -> bool>(
    csr: &Csr,
    x: &[f32],
    k: usize,
    frontier: &[usize],
    semiring: Semiring,
    allow: M,
    y: &mut [f32],
) {
    assert!(
        x.len() >= csr.nrows() * k,
        "operand x shorter than nrows * k"
    );
    assert!(
        y.len() >= csr.ncols() * k,
        "output y shorter than ncols * k"
    );
    with_semiring_ops!(semiring, |identity, combine, reduce| {
        for &u in frontier {
            let src = &x[u * k..][..k];
            let cols = csr.row(u).0;
            if lanes_are_dense(src, identity) {
                for &j in cols {
                    fold_all_lanes(&mut y[j * k..][..k], src, j * k, &allow, combine, reduce);
                }
                continue;
            }
            for (b, block) in src.chunks(LANE_BLOCK).enumerate() {
                let Some(lanes) = ActiveLanes::of(block, identity, combine) else {
                    continue;
                };
                for &j in cols {
                    let flat0 = j * k + b * LANE_BLOCK;
                    lanes.fold_into(&mut y[flat0..], flat0, &allow, reduce);
                }
            }
        }
    });
}

/// The weight `w` of a `MinPlus(w)` pull whose row fold may run in four
/// chains ([`csr_pull_full`]): every `w` but `−0.0` (by bits).  Under it
/// `⊕ = min` over `⊗` outputs gives the same bits in any order and
/// grouping, since
///
/// * `x + w` is `−0.0` only when both operands are `−0.0`
///   (round-to-nearest), so no term is `−0.0`;
/// * `f32::min` returns its non-NaN operand, so an accumulator that starts
///   at `+∞` never holds NaN;
/// * `min` over non-NaN values with no `−0.0` is a total order's minimum.
///
/// `MinPlus(−0.0)` is refused: `−0.0 + −0.0` is `−0.0`, and
/// `min(0.0, −0.0)` answers by operand position.
#[inline(always)]
fn min_plus_any_order(semiring: Semiring) -> Option<f32> {
    match semiring {
        Semiring::MinPlus(w) if w.to_bits() != (-0.0f32).to_bits() => Some(w),
        _ => None,
    }
}

/// `min` over `x[c] + w` for the columns of one row, dealt round-robin into
/// four accumulators merged at the row's end: four independent `f32::min`
/// chains in place of one.  Exact only under [`min_plus_any_order`].
#[inline(always)]
fn min_plus_four_chains(cols: &[usize], x: &[f32], w: f32) -> f32 {
    let mut acc = [f32::INFINITY; 4];
    let (quads, rest) = cols.as_chunks::<4>();
    for quad in quads {
        for (a, &c) in acc.iter_mut().zip(quad) {
            *a = a.min(x[c] + w);
        }
    }
    for (a, &c) in acc.iter_mut().zip(rest) {
        *a = a.min(x[c] + w);
    }
    acc[0].min(acc[1]).min(acc[2].min(acc[3]))
}

/// The row-parallel sweep of [`csr_pull_full`] under one row fold: a row
/// `allow` admits stores `fin(r, fold(columns))`, any other
/// `fin(r, identity)` without walking its edges.
#[inline(always)]
fn pull_rows(
    csr: &Csr,
    identity: f32,
    allow: impl Fn(usize) -> bool + Sync,
    fin: impl Fn(usize, f32) -> f32 + Sync,
    fold: impl Fn(&[usize]) -> f32 + Sync,
    y: &mut [f32],
) {
    y.par_iter_mut().enumerate().for_each(|(r, slot)| {
        let raw = if allow(r) {
            fold(csr.row(r).0)
        } else {
            identity
        };
        *slot = fin(r, raw);
    });
}

/// `csr_pull_full()`: pull-direction full-precision matrix × vector over
/// the rows of a CSR matrix — the one row pull of the built-in backend
/// (every pull of a matrix without tiles, and a one-lane batch's), bare or
/// fused alike.  Row `r` of `y` (the first `nrows`
/// entries) receives `fin(r, ⊕_c ⊗(x[c]))` over its columns `c`, or
/// `fin(r, identity)` without an edge walk where `allow(r)` is false (a
/// masked row: GraphBLAST's early exit).  `fin` is the pipeline's finish,
/// monomorphised by the caller (`grb::backend`'s `csr_pull`).
///
/// A row folds in one ascending chain, under a semiring resolved once per
/// call, four columns per loop step — except `MinPlus(w)` with `w` not
/// `−0.0`, whose columns are dealt into four accumulators
/// (`min_plus_four_chains`): `min`'s latency, not the loads, bounds a
/// one-chain fold.  That is exact (`min_plus_any_order`), so every
/// semiring's result keeps the bits of the ascending chain — and of the
/// tile sweep — and the four-chain body is matched before the semiring
/// dispatch, out of every other semiring's loop.  The four-column step
/// keeps the chain's order; it exists because a one-column loop body is so
/// short that where the linker places it sets its speed: the same source
/// built in two checkout directories ran the mesh's fused PageRank pull
/// (Arithmetic) at 1.0 and 1.6 ms, and at 0.7–0.85 ms in both with the
/// four-column step (repo benchmark, `mesh_read`, one pinned core of a
/// 2-vCPU Xeon VM).
///
/// # Panics
/// Panics if `x` is shorter than `ncols` or `y` shorter than `nrows`.
pub fn csr_pull_full<A, Fin>(
    csr: &Csr,
    x: &[f32],
    semiring: Semiring,
    allow: A,
    fin: Fin,
    y: &mut [f32],
) where
    A: Fn(usize) -> bool + Sync,
    Fin: Fn(usize, f32) -> f32 + Sync,
{
    assert!(x.len() >= csr.ncols(), "operand x shorter than ncols");
    assert!(y.len() >= csr.nrows(), "output y shorter than nrows");
    let y = &mut y[..csr.nrows()];
    if let Some(w) = min_plus_any_order(semiring) {
        let fold = |cols: &[usize]| min_plus_four_chains(cols, x, w);
        return pull_rows(csr, f32::INFINITY, allow, fin, fold, y);
    }
    with_semiring_ops!(semiring, |identity, combine, reduce| {
        let fold = |cols: &[usize]| {
            let step = |acc, &c: &usize| reduce(acc, combine(x[c]));
            let (quads, rest) = cols.as_chunks::<4>();
            let acc = quads
                .iter()
                .fold(identity, |acc, quad| quad.iter().fold(acc, step));
            rest.iter().fold(acc, step)
        };
        pull_rows(csr, identity, allow, fin, fold, y)
    })
}

// ---------------------------------------------------------------------------
// Boolean products over CSR rows (binarized operand, word in and word out)
// ---------------------------------------------------------------------------

/// `csr_bits_pull()`: pull-direction Boolean matrix × vector over the rows
/// of a CSR matrix, in node words (bit `i % 64` of word `i / 64` is entry
/// `i`).  Bit `r` of `yw` is set iff row `r` has an in-neighbour set in
/// `xw` and is not set in `sup` (the suppressed rows: BFS's visited set) —
/// the tile sweep's `(A ⊕.⊗ x) & !sup`, bit for bit.  `yw`, `nrows / 64`
/// words rounded up, is fully overwritten.
///
/// This is the bottom-up step of Beamer, Asanović & Patterson
/// ("Direction-Optimizing BFS", SC'12) over a bitmap frontier: a row stops
/// at its first frontier in-neighbour, and an output word whose 64 rows are
/// all suppressed costs one word test.  Rayon parallelises over output
/// words.
///
/// # Panics
/// Panics if `xw`, `sup` or `yw` holds too few words.
pub fn csr_bits_pull(csr: &Csr, xw: &[u64], sup: Option<&[u64]>, yw: &mut [u64]) {
    let nrows = csr.nrows();
    let words = nrows.div_ceil(64);
    assert!(
        xw.len() >= csr.ncols().div_ceil(64),
        "operand has too few node words"
    );
    assert!(yw.len() >= words, "output has too few node words");
    assert!(
        sup.is_none_or(|s| s.len() >= words),
        "mask has too few node words"
    );
    let set = |c: usize| xw[c / 64] >> (c % 64) & 1 != 0;
    yw[..words]
        .par_iter_mut()
        .enumerate()
        .for_each(|(at, out)| {
            let rows = (nrows - at * 64).min(64);
            let want = (u64::MAX >> (64 - rows)) & !sup.map_or(0, |s| s[at]);
            let mut acc = 0u64;
            for b in want.iter_ones() {
                if csr.row(at * 64 + b as usize).0.iter().any(|&c| set(c)) {
                    acc |= 1 << b;
                }
            }
            *out = acc;
        });
}

/// `csr_bits_push()`: push-direction Boolean matrix × vector over the rows
/// of a CSR matrix, in node words: every out-neighbour of the ascending
/// frontier rows is OR-ed into `yw` (`ncols / 64` words rounded up, zeroed
/// by the caller).  Serial and allocation-free; the GrB layer runs it once
/// over the whole frontier.
///
/// # Panics
/// Panics if `yw` holds too few words.
pub fn csr_bits_push(csr: &Csr, frontier: &[usize], yw: &mut [u64]) {
    assert!(
        yw.len() >= csr.ncols().div_ceil(64),
        "output has too few node words"
    );
    for &u in frontier {
        for &c in csr.row(u).0 {
            yw[c / 64] |= 1 << (c % 64);
        }
    }
}

/// `csr_lanes_pull()`: pull-direction Boolean matrix × multivector over the
/// rows of a CSR matrix, in lane words (`k.div_ceil(64)` words per node, bit
/// `l` of a node's word `l / 64` is lane `l`; bits past lane `k - 1` are
/// never set).  Row `r`'s lane words are the OR of its in-neighbours' lane
/// words, AND-NOT its suppressed lanes in `sup` — [`bmm_bin_bits_into`]'s
/// result, word for word.  `yw` (`nrows · wpn` words) is fully overwritten.
///
/// One OR per edge advances up to 64 traversals.  A row whose every lane is
/// suppressed walks no edge, and at one word per node a row stops once
/// every lane it still wants is set (the bottom-up early exit, per batch).
/// Rayon parallelises over rows.
///
/// # Panics
/// Panics if `xw`, `sup` or `yw` holds too few words.
pub fn csr_lanes_pull(csr: &Csr, xw: &[u64], k: usize, sup: Option<&[u64]>, yw: &mut [u64]) {
    let wpn = k.div_ceil(64);
    let nrows = csr.nrows();
    assert!(
        xw.len() >= csr.ncols() * wpn,
        "operand has too few lane words"
    );
    assert!(yw.len() >= nrows * wpn, "output has too few lane words");
    assert!(
        sup.is_none_or(|s| s.len() >= nrows * wpn),
        "mask has too few lane words"
    );
    let tail = u64::MAX >> ((64 - k % 64) % 64);
    let lanes = |t: usize| if t + 1 == wpn { tail } else { u64::MAX };
    yw[..nrows * wpn]
        .par_chunks_mut(wpn)
        .enumerate()
        .for_each(|(r, out)| {
            let cols = csr.row(r).0;
            if wpn == 1 {
                let want = tail & !sup.map_or(0, |s| s[r]);
                let mut acc = 0u64;
                if want != 0 {
                    for &c in cols {
                        acc |= xw[c];
                        if acc & want == want {
                            break;
                        }
                    }
                }
                out[0] = acc & want;
                return;
            }
            out.fill(0);
            let sup = sup.map(|s| &s[r * wpn..][..wpn]);
            if sup.is_some_and(|s| s.iter().enumerate().all(|(t, &w)| !w & lanes(t) == 0)) {
                return;
            }
            for &c in cols {
                simd::or_into(out, &xw[c * wpn..][..wpn]);
            }
            if let Some(s) = sup {
                simd::andnot_into(out, s);
            }
        });
}

/// `csr_lanes_push()`: push-direction Boolean matrix × multivector over the
/// rows of a CSR matrix: each ascending frontier node's lane words are
/// OR-ed into every out-neighbour's, so one scatter advances all of that
/// node's traversals.  `yw` (`ncols · wpn` words) must be zeroed by the
/// caller.  Serial and allocation-free; the GrB layer runs it once over the
/// whole frontier.
///
/// # Panics
/// Panics if `xw` or `yw` holds too few words.
pub fn csr_lanes_push(csr: &Csr, frontier: &[usize], xw: &[u64], wpn: usize, yw: &mut [u64]) {
    assert!(
        xw.len() >= csr.nrows() * wpn,
        "operand has too few lane words"
    );
    assert!(
        yw.len() >= csr.ncols() * wpn,
        "output has too few lane words"
    );
    for &u in frontier {
        let cols = csr.row(u).0;
        if wpn == 1 {
            let src = xw[u];
            for &c in cols {
                yw[c] |= src;
            }
            continue;
        }
        let src = &xw[u * wpn..][..wpn];
        for &c in cols {
            simd::or_into(&mut yw[c * wpn..][..wpn], src);
        }
    }
}

// ---------------------------------------------------------------------------
// The masked count over CSR rows in bit words
// ---------------------------------------------------------------------------

/// A CSR matrix's rows in bit words: row `r` is the ascending `(w, bits)`
/// pairs of its non-empty 64-column words, bit `c % 64` of word `c / 64`
/// set iff `(r, c)` is stored.  What [`csr_words_masked_count`] reads its
/// second factor as; a row whose columns cluster (the hub columns of a
/// degree-ranked triangle) packs into a few words.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowWords {
    ncols: usize,
    rowptr: Vec<usize>,
    words: Vec<(usize, u64)>,
}

impl RowWords {
    /// Pack the rows of `csr`, values ignored: one pass over its column
    /// indices.
    pub fn from_csr(csr: &Csr) -> Self {
        let mut rowptr = Vec::with_capacity(csr.nrows() + 1);
        rowptr.push(0);
        let mut words = Vec::new();
        for r in 0..csr.nrows() {
            for cols in csr.row(r).0.chunk_by(|&a, &b| a / 64 == b / 64) {
                let bits = cols.iter().fold(0u64, |w, &c| w | 1 << (c % 64));
                words.push((cols[0] / 64, bits));
            }
            rowptr.push(words.len());
        }
        RowWords {
            ncols: csr.ncols(),
            rowptr,
            words,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rowptr.len() - 1
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of non-empty row words, over all rows.
    pub fn n_words(&self) -> usize {
        self.words.len()
    }

    /// Row `r`'s non-empty words, ascending by word index.
    pub fn row(&self, r: usize) -> &[(usize, u64)] {
        &self.words[self.rowptr[r]..self.rowptr[r + 1]]
    }
}

/// `csr_words_masked_count()`: `Σ_{(r, c) ∈ mask} |a_r ∩ bt_c|` over the
/// operands' stored positions, values ignored — the pattern count of
/// `sparse::ops::spgemm_masked_count`, exactly, with the second factor's
/// transpose `bt` by rows in bit words.  `a` is `m × p`, `bt` is `q × p`,
/// `mask` is `m × q`; `a = bt = mask = L` is Triangle Counting's
/// `Σ (L·Lᵀ) .* L`.
///
/// Row `a_r` is OR-ed into a dense `p / 64`-word scratch, then every
/// `bt_c` with `c ∈ mask_r` adds `popcount(dense[w] & bits)` over its
/// words, and the words `a_r` set are cleared — Table III's AND + popcount
/// over a row's 64 columns at a time, with no tiles.  Work is
/// `Σ_r 2 |a_r| + Σ_{(r, c) ∈ mask} words(bt_c)` against the index count's
/// `Σ_{(r, c) ∈ mask} |bt_c|`.  Rayon parallelises over rows, one scratch
/// per worker.
///
/// # Panics
/// Panics if the dimensions are incompatible.
pub fn csr_words_masked_count(a: &Csr, bt: &RowWords, mask: &Csr) -> u64 {
    assert_eq!(a.ncols(), bt.ncols(), "inner dimensions must agree");
    assert_eq!(a.nrows(), mask.nrows(), "mask must match the output rows");
    assert_eq!(
        bt.nrows(),
        mask.ncols(),
        "mask must match the output columns"
    );
    (0..a.nrows())
        .into_par_iter()
        .map_init(
            || vec![0u64; a.ncols().div_ceil(64)],
            |dense, r| {
                let (mask_cols, a_cols) = (mask.row(r).0, a.row(r).0);
                if mask_cols.is_empty() || a_cols.is_empty() {
                    return 0u64;
                }
                for &k in a_cols {
                    dense[k / 64] |= 1 << (k % 64);
                }
                let mut count = 0u64;
                for &c in mask_cols {
                    for &(w, bits) in bt.row(c) {
                        count += u64::from((dense[w] & bits).count_ones());
                    }
                }
                for &k in a_cols {
                    dense[k / 64] = 0;
                }
                count
            },
        )
        .sum()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::b2sr::convert::from_csr;
    use bitgblas_sparse::{ops, Coo, Csr};

    fn sample(n: usize, seed: u64, edges_per_row: usize) -> Csr {
        sample_rect(n, n, seed, edges_per_row, |_, _| true)
    }

    /// A random `nrows × ncols` pattern keeping only the entries `keep` lets
    /// through (how the tests carve out empty tile-rows).
    fn sample_rect(
        nrows: usize,
        ncols: usize,
        seed: u64,
        edges_per_row: usize,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Csr {
        let mut coo = Coo::new(nrows, ncols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..nrows * edges_per_row {
            let r = (next() % nrows as u64) as usize;
            let c = (next() % ncols as u64) as usize;
            if keep(r, c) {
                coo.push_edge(r, c).unwrap();
            }
        }
        coo.to_binary_csr()
    }

    /// The masked `A · Bᵀ` kernel at every tile size, then the index count
    /// the float baseline runs (`ops::spgemm_masked_count`) and the word
    /// count a bit matrix without tiles runs (`csr_words_masked_count`).
    fn masked_nt_all_widths(a: &Csr, bt: &Csr, mask: &Csr) -> [u64; 6] {
        macro_rules! at {
            ($w:ty, $dim:expr) => {
                bmm_bin_bin_sum_masked_nt(
                    &from_csr::<$w>(a, $dim),
                    &from_csr::<$w>(bt, $dim),
                    &from_csr::<$w>(mask, $dim),
                )
            };
        }
        let count = ops::spgemm_masked_count(a, bt, mask).unwrap();
        let words = csr_words_masked_count(a, &RowWords::from_csr(bt), mask);
        [
            at!(u8, 4),
            at!(u8, 8),
            at!(u16, 16),
            at!(u32, 32),
            count,
            words,
        ]
    }

    /// The word count against the index count and the float merge
    /// (`ops::spgemm_masked_count`, `ops::spgemm_masked_sum`), on all-ones
    /// operands that cross word boundaries every way: square sizes around
    /// 64 (`a ≠ bt ≠ mask`, and Triangle Counting's `L` three times in both
    /// orders, of a directed and of a symmetric graph), a clique on columns
    /// 63, 64 and 65, rectangular operands, and empty rows beside one full
    /// 200-entry row.
    #[test]
    fn words_masked_count_equals_the_index_count() {
        let check = |a: &Csr, bt: &Csr, mask: &Csr, what: &str| {
            let want = ops::spgemm_masked_count(a, bt, mask).unwrap();
            let sum = ops::spgemm_masked_sum(a, bt, mask).unwrap();
            assert_eq!(sum as u64, want, "{what}");
            let words = RowWords::from_csr(bt);
            assert_eq!(csr_words_masked_count(a, &words, mask), want, "{what}");
            want
        };
        let mut total = 0;
        for n in [0usize, 1, 63, 64, 65, 127, 129] {
            let square = |seed: u64| match n {
                0 => Csr::empty(0, 0),
                _ => sample(n, seed + n as u64, 5),
            };
            let (a, bt, mask) = (square(1), square(2), square(3));
            total += check(&a, &bt, &mask, &format!("n = {n}"));
            for adj in [a.clone(), a.symmetrized()] {
                for l in [adj.lower_triangle(), adj.degree_ranked_lower_triangle()] {
                    total += check(&l, &l, &l, &format!("L, n = {n}"));
                }
            }
        }
        assert!(total > 0, "the sizes must not be vacuous");

        // A 5-clique on columns 1, 63, 64, 65 and 128: ten triangles, every
        // one across a word boundary.
        let mut clique = Coo::new(130, 130);
        let at = [1usize, 63, 64, 65, 128];
        for &u in &at {
            for &v in at.iter().filter(|&&v| v != u) {
                clique.push_edge(u, v).unwrap();
            }
        }
        let l = clique.to_binary_csr().lower_triangle();
        assert_eq!(check(&l, &l, &l, "clique"), 10);

        for (m, p, q) in [(37, 130, 83), (130, 65, 7), (5, 200, 129)] {
            let a = sample_rect(m, p, 3 + m as u64, 5, |_, _| true);
            let bt = sample_rect(q, p, 7 + q as u64, 9, |_, _| true);
            let mask = sample_rect(m, q, 11 + p as u64, 9, |_, _| true);
            assert!(check(&a, &bt, &mask, &format!("({m},{p},{q})")) > 0);
        }

        // Rows 0..8 of `a` empty, row 3 of `a` and row 5 of `bt` full.
        let (m, p, q) = (20, 200, 30);
        let full = |rows: usize, full_row: usize, seed: u64| {
            let mut coo = Coo::new(rows, p);
            for c in 0..p {
                coo.push_edge(full_row, c).unwrap();
            }
            for (r, c, _) in sample_rect(rows, p, seed, 4, |r, _| r >= 8).iter() {
                coo.push_edge(r, c).unwrap();
            }
            coo.to_binary_csr()
        };
        let (a, bt) = (full(m, 3, 4), full(q, 5, 5));
        let mut mask = Coo::new(m, q);
        mask.push_edge(3, 5).unwrap();
        for (r, c, _) in sample_rect(m, q, 6, 12, |_, _| true).iter() {
            mask.push_edge(r, c).unwrap();
        }
        let mask = mask.to_binary_csr();
        assert_eq!(a.row(3).0.len(), 200);
        assert!(check(&a, &bt, &mask, "full rows") >= 200);
        let none = Csr::empty(m, q);
        assert_eq!(check(&a, &bt, &none, "empty mask"), 0);
        assert_eq!(check(&Csr::empty(m, p), &bt, &mask, "empty a"), 0);
    }

    /// Reference: sum of all entries of the float SpGEMM product.
    fn reference_sum(a: &Csr, b: &Csr) -> u64 {
        let c = ops::spgemm(a, b).unwrap();
        ops::reduce_sum(&c) as u64
    }

    /// Reference: sum of the product restricted to the mask's positions.
    fn reference_masked_sum(a: &Csr, b: &Csr, mask: &Csr) -> u64 {
        let c = ops::spgemm(a, b).unwrap();
        mask.iter()
            .map(|(r, col, _)| c.get(r, col).unwrap_or(0.0) as u64)
            .sum()
    }

    #[test]
    fn sum_matches_float_spgemm_all_variants() {
        let a = sample(70, 3, 4);
        let b = sample(70, 9, 4);
        let expected = reference_sum(&a, &b);
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u8>(&a, 4), &from_csr::<u8>(&b, 4)),
            expected
        );
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u8>(&a, 8), &from_csr::<u8>(&b, 8)),
            expected
        );
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u16>(&a, 16), &from_csr::<u16>(&b, 16)),
            expected
        );
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u32>(&a, 32), &from_csr::<u32>(&b, 32)),
            expected
        );
    }

    #[test]
    fn sum_handles_rectangular_tiling_edges() {
        // Dimensions that are not multiples of the tile size.
        for n in [5usize, 17, 33, 61] {
            let a = sample(n, n as u64, 3);
            let b = sample(n, n as u64 + 5, 3);
            let expected = reference_sum(&a, &b);
            assert_eq!(
                bmm_bin_bin_sum(&from_csr::<u32>(&a, 32), &from_csr::<u32>(&b, 32)),
                expected,
                "n={n}"
            );
            assert_eq!(
                bmm_bin_bin_sum(&from_csr::<u8>(&a, 4), &from_csr::<u8>(&b, 4)),
                expected,
                "n={n}"
            );
        }
    }

    #[test]
    fn masked_sum_matches_reference() {
        let a = sample(64, 21, 5);
        let b = sample(64, 22, 5);
        let mask = sample(64, 23, 6);
        let expected = reference_masked_sum(&a, &b, &mask);
        for dim in [4usize, 8] {
            let got = bmm_bin_bin_sum_masked(
                &from_csr::<u8>(&a, dim),
                &from_csr::<u8>(&b, dim),
                &from_csr::<u8>(&mask, dim),
            );
            assert_eq!(got, expected, "dim {dim}");
        }
        let got32 = bmm_bin_bin_sum_masked(
            &from_csr::<u32>(&a, 32),
            &from_csr::<u32>(&b, 32),
            &from_csr::<u32>(&mask, 32),
        );
        assert_eq!(got32, expected);
    }

    #[test]
    fn triangle_counting_formulation_counts_k4_triangles() {
        // K4 has 4 triangles; count with L·L^T masked by L.
        let n = 4;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    coo.push_edge(i, j).unwrap();
                }
            }
        }
        let adj = coo.to_binary_csr();
        let l = adj.lower_triangle();
        let lt = l.transpose();
        let tri = bmm_bin_bin_sum_masked(
            &from_csr::<u8>(&l, 4),
            &from_csr::<u8>(&lt, 4),
            &from_csr::<u8>(&l, 4),
        );
        assert_eq!(tri, 4);
        // The same count with `Lᵀ` never built: `L` by rows, three times.
        assert_eq!(masked_nt_all_widths(&l, &l, &l), [4; 6]);
    }

    /// Rectangular `A (m×p)`, `Bᵀ (q×p)` and a non-triangular `mask (m×q)`
    /// with no dimension a tile multiple and three different tile-row
    /// counts: the kernel and the CSR counts against the float row-merge
    /// kernel, and against the `A · B` entry point.
    #[test]
    fn masked_nt_matches_float_reference_on_rectangular_operands() {
        for (m, p, q) in [(37, 61, 83), (83, 37, 61), (70, 70, 9), (5, 130, 5)] {
            let a = sample_rect(m, p, 3 + m as u64, 5, |_, _| true);
            let bt = sample_rect(q, p, 7 + q as u64, 6, |_, _| true);
            let mask = sample_rect(m, q, 11 + p as u64, 9, |_, _| true);
            let expected = ops::spgemm_masked_sum(&a, &bt, &mask).unwrap() as u64;
            assert!(expected > 0, "({m},{p},{q}) must not be vacuous");
            assert_eq!(
                masked_nt_all_widths(&a, &bt, &mask),
                [expected; 6],
                "({m},{p},{q})"
            );
            assert_eq!(
                bmm_bin_bin_sum_masked(
                    &from_csr::<u16>(&a, 16),
                    &from_csr::<u16>(&bt.transpose(), 16),
                    &from_csr::<u16>(&mask, 16),
                ),
                expected
            );
        }
    }

    /// Empty tile-rows in each operand — including mask tiles over an empty
    /// `A` tile-row and mask tiles whose `Bᵀ` tile-row is empty — contribute
    /// nothing and leave the tile-column table clean for the next row; the
    /// CSR counts skip the same empty rows.
    #[test]
    fn masked_nt_skips_empty_tile_rows_of_every_operand() {
        let (m, p, q) = (96, 100, 90);
        // A: rows 32..64 empty.  Bᵀ: rows 0..32 and 64.. empty.  Mask: rows
        // 0..16 empty, and dense over the columns whose Bᵀ row is empty.
        let a = sample_rect(m, p, 5, 12, |r, _| !(32..64).contains(&r));
        let bt = sample_rect(q, p, 6, 12, |r, _| (32..64).contains(&r));
        let mask = sample_rect(m, q, 7, 40, |r, _| r >= 16);
        assert!((32..64).all(|r| a.row(r).0.is_empty()));
        assert!((32..64).any(|r| !mask.row(r).0.is_empty()));
        assert!(mask.iter().any(|(r, c, _)| r < 32 && c < 32));
        let expected = ops::spgemm_masked_sum(&a, &bt, &mask).unwrap() as u64;
        assert!(expected > 0);
        assert_eq!(masked_nt_all_widths(&a, &bt, &mask), [expected; 6]);
        // Whole operands empty.
        let none = Csr::empty(q, p);
        assert_eq!(masked_nt_all_widths(&a, &none, &mask), [0; 6]);
        assert_eq!(masked_nt_all_widths(&Csr::empty(m, p), &bt, &mask), [0; 6]);
        assert_eq!(masked_nt_all_widths(&a, &bt, &Csr::empty(m, q)), [0; 6]);
    }

    /// One worker sweeping every tile-row with one scratch, two workers
    /// taking alternate tile-rows with a scratch each, and the parallel
    /// entry point (N workers on an N-core host) all return the same sum —
    /// the per-worker table really is clean between rows.
    #[test]
    fn masked_nt_is_identical_at_one_and_many_workers() {
        let adj = sample(1100, 77, 6);
        let l = adj.lower_triangle();
        let lb = from_csr::<u8>(&l, 8);
        assert!(lb.n_tile_rows() >= 64, "must reach the parallel split");
        let parallel = bmm_bin_bin_sum_masked_nt(&lb, &lb, &lb);
        assert_eq!(parallel, ops::spgemm_masked_sum(&l, &l, &l).unwrap() as u64);
        // The CSR count's per-worker stamps are never reset either.
        assert_eq!(parallel, ops::spgemm_masked_count(&l, &l, &l).unwrap());

        let scratch = || (vec![usize::MAX; lb.n_tile_cols()], Vec::new());
        let (mut table, mut pairs) = scratch();
        let one: u64 = (0..lb.n_tile_rows())
            .map(|tr| masked_nt_tile_row(&lb, &lb, &lb, tr, &mut table, &mut pairs))
            .sum();
        assert!(table.iter().all(|&t| t == usize::MAX));
        let mut workers = [scratch(), scratch()];
        let two: u64 = (0..lb.n_tile_rows())
            .rev()
            .map(|tr| {
                let (table, pairs) = &mut workers[tr % 2];
                masked_nt_tile_row(&lb, &lb, &lb, tr, table, pairs)
            })
            .sum();
        assert_eq!((one, two), (parallel, parallel));
    }

    /// Shape preconditions are real checks, not debug assertions: a wrong
    /// inner dimension must not return a silently wrong sum in release.
    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn sum_rejects_a_wrong_inner_dimension() {
        let a = sample_rect(16, 24, 2, 2, |_, _| true);
        let _ = bmm_bin_bin_sum(&from_csr::<u8>(&a, 8), &from_csr::<u8>(&a, 8));
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn masked_nt_rejects_a_wrong_inner_dimension() {
        let a = sample_rect(16, 24, 2, 2, |_, _| true);
        let bt = sample_rect(16, 32, 3, 2, |_, _| true);
        let mask = sample(16, 4, 2);
        let _ = bmm_bin_bin_sum_masked_nt(
            &from_csr::<u8>(&a, 8),
            &from_csr::<u8>(&bt, 8),
            &from_csr::<u8>(&mask, 8),
        );
    }

    #[test]
    #[should_panic(expected = "mask must match the output rows")]
    fn masked_nt_rejects_a_wrong_mask_shape() {
        let a = sample(16, 2, 2);
        let mask = sample_rect(24, 16, 4, 2, |_, _| true);
        let _ = bmm_bin_bin_sum_masked_nt(
            &from_csr::<u8>(&a, 8),
            &from_csr::<u8>(&a, 8),
            &from_csr::<u8>(&mask, 8),
        );
    }

    #[test]
    fn empty_operands_give_zero() {
        let e = Csr::empty(16, 16);
        let b = sample(16, 2, 2);
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u8>(&e, 8), &from_csr::<u8>(&b, 8)),
            0
        );
        assert_eq!(
            bmm_bin_bin_sum(&from_csr::<u8>(&b, 8), &from_csr::<u8>(&e, 8)),
            0
        );
        assert_eq!(
            bmm_bin_bin_sum_masked(
                &from_csr::<u8>(&b, 8),
                &from_csr::<u8>(&b, 8),
                &from_csr::<u8>(&e, 8)
            ),
            0
        );
    }

    #[test]
    #[should_panic(expected = "same tile size")]
    fn mismatched_tile_sizes_panic() {
        let a = sample(16, 2, 2);
        let _ = bmm_bin_bin_sum(&from_csr::<u8>(&a, 4), &from_csr::<u8>(&a, 8));
    }

    #[test]
    fn masked_sum_is_never_larger_than_full_sum() {
        let a = sample(48, 31, 4);
        let b = sample(48, 37, 4);
        let mask = sample(48, 41, 8);
        let full = bmm_bin_bin_sum(&from_csr::<u16>(&a, 16), &from_csr::<u16>(&b, 16));
        let masked = bmm_bin_bin_sum_masked(
            &from_csr::<u16>(&a, 16),
            &from_csr::<u16>(&b, 16),
            &from_csr::<u16>(&mask, 16),
        );
        assert!(masked <= full);
    }

    // -- matrix × multivector kernels ---------------------------------------

    use crate::kernels::bmv::pack_vector_bits;
    use crate::kernels::bmv::tests::pull_full;

    /// A deterministic n × k operand with a mix of active and identity lanes.
    fn sample_multi(n: usize, k: usize, semiring: Semiring) -> Vec<f32> {
        (0..n * k)
            .map(|f| {
                if (f * 13 + 7) % 5 == 0 {
                    ((f % 4) + 1) as f32
                } else {
                    semiring.identity()
                }
            })
            .collect()
    }

    fn lane_of(flat: &[f32], k: usize, l: usize) -> Vec<f32> {
        flat.chunks_exact(k).map(|lanes| lanes[l]).collect()
    }

    /// Tilewise-packed any-lane-active indicator of a flat n × k operand.
    fn active_words<W: BitWord>(flat: &[f32], k: usize, semiring: Semiring, dim: usize) -> Vec<W> {
        let flags: Vec<bool> = flat
            .chunks_exact(k)
            .map(|lanes| lanes.iter().any(|&v| !semiring.is_identity(v)))
            .collect();
        pack_vector_bits(&flags, dim)
    }

    /// As [`sample_multi`], with the hostile values mixed in: NaN, ±∞ and
    /// −0.0 beside the finite entries and the identity.
    fn sample_multi_hostile(n: usize, k: usize, semiring: Semiring) -> Vec<f32> {
        const HOSTILE: [f32; 5] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0];
        let mut x = sample_multi(n, k, semiring);
        for (f, v) in x.iter_mut().enumerate() {
            if f % 7 == 3 {
                *v = HOSTILE[(f / 7) % HOSTILE.len()];
            }
        }
        x
    }

    /// Bit equality, with every NaN one value: which payload an `a + b` of
    /// two different NaNs keeps depends on the operand order the compiler
    /// picked, which a vectorised and a scalar loop need not share.  Signed
    /// zeros and infinities are told apart.
    #[track_caller]
    fn assert_same_bits(got: f32, want: f32, what: std::fmt::Arguments<'_>) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: {got:?} ({:#010x}) vs {want:?} ({:#010x})",
            got.to_bits(),
            want.to_bits()
        );
    }

    /// Every batch width the parity tests run: 1, a few, a power of two, an
    /// odd one past it, a full lane word and one past that.
    const WIDTHS: [usize; 6] = [1, 3, 8, 11, 64, 70];

    /// One `(matrix, operand)` pull case: the batched kernel, with and
    /// without the active-skip words, against per-lane single-vector sweeps
    /// (`bmv_bin_full_full_into`, which `kernels::bmv`'s tests pin to the per-bit
    /// definition).
    fn check_pull_against_per_lane<W: BitWord>(
        a: &Csr,
        dim: usize,
        k: usize,
        semiring: Semiring,
        x: &[f32],
    ) {
        let b = from_csr::<W>(a, dim);
        let xa = active_words::<W>(x, k, semiring, dim);
        // The active skip is only exact — and only ever passed — for
        // push-safe semirings.
        let skips: &[Option<&[W]>] = if semiring.push_safe() {
            &[None, Some(&xa)]
        } else {
            &[None]
        };
        for &xa_opt in skips {
            let mut y = vec![42.0f32; b.n_tile_rows() * dim * k];
            bmm_bin_full_into(&b, x, k, semiring, xa_opt, &mut y);
            for l in 0..k {
                let want = pull_full(&b, &lane_of(x, k, l), semiring);
                for (i, &w) in want.iter().enumerate() {
                    assert_same_bits(
                        y[i * k + l],
                        w,
                        format_args!(
                            "{semiring:?} k={k} dim={dim} lane {l} node {i} (skip={})",
                            xa_opt.is_some()
                        ),
                    );
                }
            }
            // Padded rows hold the identity.
            for &v in &y[a.nrows() * k..] {
                assert_eq!(v.to_bits(), semiring.identity().to_bits());
            }
        }
    }

    /// The batched pull kernel equals k independent single-vector pulls, bit
    /// for bit: every semiring (a non-positive max-times factor included,
    /// which is not push-safe and never takes the active skip), every batch
    /// width, every tile size, a rectangular matrix whose column count is no
    /// tile multiple, plain and hostile operands.
    #[test]
    fn bin_full_multi_pull_equals_per_lane_bmv() {
        let (nrows, ncols) = (53, 61);
        let a = sample_rect(nrows, ncols, 5, 4, |_, _| true);
        for k in WIDTHS {
            for semiring in [
                Semiring::Arithmetic,
                Semiring::Boolean,
                Semiring::MinPlus(1.0),
                Semiring::MaxTimes(2.0),
                Semiring::MaxTimes(0.0),
                Semiring::MaxTimes(-1.0),
            ] {
                for x in [
                    sample_multi(ncols, k, semiring),
                    sample_multi_hostile(ncols, k, semiring),
                ] {
                    check_pull_against_per_lane::<u8>(&a, 4, k, semiring, &x);
                    check_pull_against_per_lane::<u8>(&a, 8, k, semiring, &x);
                    check_pull_against_per_lane::<u16>(&a, 16, k, semiring, &x);
                    check_pull_against_per_lane::<u32>(&a, 32, k, semiring, &x);
                }
            }
        }
    }

    /// One `(matrix, operand, seed)` push case: the batched scatter, with and
    /// without a flat mask, against per-lane single-vector scatters from each
    /// lane's own frontier.  `seed` is what `y` holds on entry, cycled over
    /// the flat output and taken through `⊕ identity` as the backends seed
    /// it: the identity, or an accumulation baseline.
    fn check_push_against_per_lane(a: &Csr, k: usize, semiring: Semiring, x: &[f32], seed: &[f32]) {
        let active = |v: f32| !semiring.is_identity(v);
        let frontier: Vec<usize> = (0..a.nrows())
            .filter(|&i| x[i * k..][..k].iter().any(|&v| active(v)))
            .collect();
        let seeded = |len: usize, stride: usize, first: usize| -> Vec<f32> {
            (0..len)
                .map(|j| seed[(j * stride + first) % seed.len()])
                .map(|b| semiring.reduce(b, semiring.identity()))
                .collect()
        };
        // Unmasked, and a mask that drops a third of the flat positions.
        let masks: [&dyn Fn(usize) -> bool; 2] = [&|_| true, &|flat| flat % 3 != 1];
        for (mi, allow) in masks.into_iter().enumerate() {
            let mut y = seeded(a.ncols() * k, 1, 0);
            csr_push_full(a, x, k, &frontier, semiring, allow, &mut y);
            for l in 0..k {
                let lane = lane_of(x, k, l);
                let lane_frontier: Vec<usize> =
                    (0..a.nrows()).filter(|&i| active(lane[i])).collect();
                let mut want = seeded(a.ncols(), k, l);
                csr_push_full(
                    a,
                    &lane,
                    1,
                    &lane_frontier,
                    semiring,
                    |j| allow(j * k + l),
                    &mut want,
                );
                for (j, &w) in want.iter().enumerate() {
                    assert_same_bits(
                        y[j * k + l],
                        w,
                        format_args!("{semiring:?} k={k} mask {mi} lane {l} node {j}"),
                    );
                }
            }
        }
    }

    /// The batched push scatter equals k independent single-vector pushes,
    /// bit for bit, for every push-safe semiring and batch width, on a
    /// rectangular matrix, with and without a flat mask, from the identity
    /// and from baselines holding NaN, ±∞ and −0.0.
    #[test]
    fn push_multi_full_equals_per_lane_push() {
        let (nrows, ncols) = (53, 61);
        let a = sample_rect(nrows, ncols, 11, 3, |_, _| true);
        let baseline = [f32::NAN, 2.0, f32::INFINITY, -0.0, f32::NEG_INFINITY, 0.0];
        for k in WIDTHS {
            for semiring in [
                Semiring::Arithmetic,
                Semiring::Boolean,
                Semiring::MinPlus(1.0),
                Semiring::MaxTimes(2.0),
            ] {
                for x in [
                    sample_multi(nrows, k, semiring),
                    sample_multi_hostile(nrows, k, semiring),
                ] {
                    for seed in [&[semiring.identity()][..], &baseline] {
                        check_push_against_per_lane(&a, k, semiring, &x, seed);
                    }
                }
            }
        }
    }

    /// Both arms of the lane-sparse scatter, and the switch between them:
    /// every frontier node carries one lane, one fewer than the dense
    /// threshold, exactly the threshold, one more, or all `k` — with NaN,
    /// ±∞ and −0.0 among the values and the baselines, widths that span one,
    /// two and three lane blocks, a seeded (accumulator-baseline) output as
    /// well as the identity, on a rectangular matrix.
    #[test]
    fn lane_sparse_push_equals_per_lane_push_at_every_density() {
        const VALUES: [f32; 8] = [
            1.0,
            f32::NAN,
            2.5,
            f32::INFINITY,
            -0.0,
            f32::NEG_INFINITY,
            0.0,
            4.0,
        ];
        let (nrows, ncols) = (53, 61);
        let a = sample_rect(nrows, ncols, 17, 4, |_, _| true);
        for k in [1usize, 3, 64, 70, 130] {
            let need = k.div_ceil(DENSE_LANE_DIVISOR);
            let mut densities = vec![1, need.saturating_sub(1).max(1), need, (need + 1).min(k), k];
            densities.dedup();
            for semiring in [
                Semiring::MinPlus(1.0),
                Semiring::Arithmetic,
                Semiring::MaxTimes(2.0),
            ] {
                // A baseline a monoid accumulator could seed the scatter
                // with, hostile values included.
                let baseline = [3.0, semiring.identity(), -0.0, f32::NAN, 0.5, 7.0, 1.5];
                for &active in &densities {
                    let mut x = vec![semiring.identity(); nrows * k];
                    // Every fifth node stays out of the frontier; the rest
                    // carry `active` lanes starting at a rotating offset.
                    for u in (0..nrows).filter(|u| u % 5 != 4) {
                        for i in 0..active {
                            x[u * k + (u * 3 + i) % k] = VALUES[(u + i) % VALUES.len()];
                        }
                    }
                    for seed in [&[semiring.identity()][..], &baseline] {
                        check_push_against_per_lane(&a, k, semiring, &x, seed);
                    }
                }
            }
        }
    }

    /// At `k = 1` the batched pull sweep and the fused single-vector sweep
    /// with the identity epilogue are the same function of the same inputs,
    /// bit for bit, at every tile size — what retiring one of the two needs.
    #[test]
    fn k_equals_one_equals_the_fused_single_vector_sweep_bitwise() {
        fn check<W: BitWord>(a: &Csr, dim: usize, semiring: Semiring, x: &[f32]) {
            let b = from_csr::<W>(a, dim);
            let padded = b.n_tile_rows() * dim;
            let mut batched = vec![7.0f32; padded];
            bmm_bin_full_into(&b, x, 1, semiring, None, &mut batched);
            let mut fused = vec![9.0f32; padded];
            bmv_bin_full_full_fused_into(&b, x, semiring, |_, t| t, &mut fused);
            for (i, (&g, &w)) in batched.iter().zip(&fused).enumerate() {
                assert_same_bits(g, w, format_args!("{semiring:?} dim={dim} row {i}"));
            }
        }
        let a = sample_rect(77, 61, 29, 5, |_, _| true);
        for semiring in [
            Semiring::Arithmetic,
            Semiring::Boolean,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(2.0),
            Semiring::MaxTimes(-1.0),
        ] {
            for x in [
                sample_multi(61, 1, semiring),
                sample_multi_hostile(61, 1, semiring),
            ] {
                check::<u8>(&a, 4, semiring, &x);
                check::<u8>(&a, 8, semiring, &x);
                check::<u16>(&a, 16, semiring, &x);
                check::<u32>(&a, 32, semiring, &x);
            }
        }
    }

    /// The batched kernels' shape preconditions are real checks: in a
    /// release build a short `y` would otherwise make `par_chunks_mut` drop
    /// the last tile-rows silently.
    #[test]
    #[should_panic(expected = "output y shorter than the padded row count * k")]
    fn batched_pull_rejects_a_short_output() {
        let b = from_csr::<u8>(&sample(24, 3, 2), 8);
        let x = vec![0.0f32; 24 * 3];
        let mut y = vec![0.0f32; 16 * 3];
        bmm_bin_full_into(&b, &x, 3, Semiring::Arithmetic, None, &mut y);
    }

    #[test]
    #[should_panic(expected = "operand x shorter than ncols * k")]
    fn batched_pull_rejects_a_short_operand() {
        let b = from_csr::<u8>(&sample(24, 3, 2), 8);
        let x = vec![0.0f32; 24 * 3 - 1];
        let mut y = vec![0.0f32; 24 * 3];
        bmm_bin_full_into(&b, &x, 3, Semiring::Arithmetic, None, &mut y);
    }

    #[test]
    #[should_panic(expected = "active mask xa has too few tile words")]
    fn batched_pull_rejects_a_short_active_mask() {
        let b = from_csr::<u8>(&sample(24, 3, 2), 8);
        let x = vec![0.0f32; 24 * 3];
        let mut y = vec![0.0f32; 24 * 3];
        bmm_bin_full_into(&b, &x, 3, Semiring::Arithmetic, Some(&[0xff, 0xff]), &mut y);
    }

    /// The push scatter's shape checks, on a rectangular matrix: the operand
    /// is read by rows (`nrows · k`), the output written by columns
    /// (`ncols · k`).
    #[test]
    #[should_panic(expected = "output y shorter than ncols * k")]
    fn batched_push_rejects_a_short_output() {
        let a = sample_rect(24, 29, 3, 2, |_, _| true);
        let x = vec![1.0f32; 24 * 3];
        let mut y = vec![0.0f32; 29 * 3 - 1];
        csr_push_full(&a, &x, 3, &[], Semiring::Arithmetic, |_| true, &mut y);
    }

    #[test]
    #[should_panic(expected = "operand x shorter than nrows * k")]
    fn batched_push_rejects_a_short_operand() {
        let a = sample_rect(24, 29, 3, 2, |_, _| true);
        let x = vec![1.0f32; 24 * 3 - 1];
        let mut y = vec![0.0f32; 29 * 3];
        csr_push_full(&a, &x, 3, &[], Semiring::Arithmetic, |_| true, &mut y);
    }

    /// The lane-word Boolean kernels (pull and push) equal the flat
    /// full-precision Boolean sweep.
    #[test]
    fn boolean_lane_word_kernels_match_full_precision() {
        let a = sample(47, 17, 4);
        for k in [1usize, 7, 64, 70] {
            let wpn = k.div_ceil(64);
            let x = sample_multi(47, k, Semiring::Boolean);
            // Pack the operand into lane words.
            let mut xw = vec![0u64; 47 * wpn];
            for (i, lanes) in x.chunks_exact(k).enumerate() {
                for (l, &v) in lanes.iter().enumerate() {
                    if v != 0.0 {
                        xw[i * wpn + l / 64] |= 1 << (l % 64);
                    }
                }
            }
            let b = from_csr::<u8>(&a, 8);
            let mut want = vec![0.0f32; b.n_tile_rows() * 8 * k];
            bmm_bin_full_into(&b, &x, k, Semiring::Boolean, None, &mut want);

            let xa = active_words::<u8>(&x, k, Semiring::Boolean, 8);
            let mut yw = vec![u64::MAX; b.n_tile_rows() * 8 * wpn];
            bmm_bin_bits_into(&b, &xw, k, &xa, None, &mut yw);
            for i in 0..a.nrows() {
                for l in 0..k {
                    let bit = yw[i * wpn + l / 64] >> (l % 64) & 1 != 0;
                    assert_eq!(bit, want[i * k + l] != 0.0, "pull k={k} node {i} lane {l}");
                }
            }

            let frontier: Vec<usize> = (0..47)
                .filter(|&i| xw[i * wpn..(i + 1) * wpn].iter().any(|&w| w != 0))
                .collect();
            let bt = from_csr::<u8>(&a.transpose(), 8);
            let mut pw = vec![0u64; a.nrows() * wpn];
            bmm_push_bits(&bt, &frontier, &xw, wpn, &mut pw);
            // Push scatters rows of Aᵀ = pull over A: same product.
            for i in 0..a.nrows() {
                for l in 0..k {
                    let bit = pw[i * wpn + l / 64] >> (l % 64) & 1 != 0;
                    assert_eq!(bit, want[i * k + l] != 0.0, "push k={k} node {i} lane {l}");
                }
            }
        }
    }

    /// The in-kernel suppressed-lane-word mask equals masking after the
    /// fact, including fully-suppressed rows and tile-rows (the word-skip
    /// paths).
    #[test]
    fn boolean_pull_kernel_mask_equals_post_masking() {
        let a = sample(59, 61, 4);
        for k in [5usize, 64, 70] {
            let wpn = k.div_ceil(64);
            let x = sample_multi(59, k, Semiring::Boolean);
            let mut xw = vec![0u64; 59 * wpn];
            for (i, lanes) in x.chunks_exact(k).enumerate() {
                for (l, &v) in lanes.iter().enumerate() {
                    if v != 0.0 {
                        xw[i * wpn + l / 64] |= 1 << (l % 64);
                    }
                }
            }
            let b = from_csr::<u8>(&a, 8);
            let xa = active_words::<u8>(&x, k, Semiring::Boolean, 8);
            // Suppress a mix: every lane of nodes 0..16 (whole tile-rows
            // skip), odd lanes elsewhere.
            let mut sup = vec![0u64; 59 * wpn];
            for i in 0..59usize {
                for l in 0..k {
                    if i < 16 || l % 2 == 1 {
                        sup[i * wpn + l / 64] |= 1 << (l % 64);
                    }
                }
            }
            let mut masked = vec![u64::MAX; b.n_tile_rows() * 8 * wpn];
            bmm_bin_bits_into(&b, &xw, k, &xa, Some(&sup), &mut masked);
            let mut unmasked = vec![u64::MAX; b.n_tile_rows() * 8 * wpn];
            bmm_bin_bits_into(&b, &xw, k, &xa, None, &mut unmasked);
            for i in 0..59usize {
                for t in 0..wpn {
                    assert_eq!(
                        masked[i * wpn + t],
                        unmasked[i * wpn + t] & !sup[i * wpn + t],
                        "k={k} node {i} word {t}"
                    );
                }
            }
        }
    }

    /// Single-lane batched kernels degenerate to the single-vector kernels.
    #[test]
    fn k_equals_one_matches_single_vector_kernels() {
        let a = sample(39, 23, 3);
        let x: Vec<f32> = (0..39)
            .map(|i| if i % 3 == 0 { 2.0 } else { 0.0 })
            .collect();
        let b = from_csr::<u16>(&a, 16);
        let mut y = vec![0.0f32; b.n_tile_rows() * 16];
        bmm_bin_full_into(&b, &x, 1, Semiring::Arithmetic, None, &mut y);
        let want = pull_full(&b, &x, Semiring::Arithmetic);
        assert_eq!(&y[..39], &want[..]);
    }

    // -- the CSR row pull ---------------------------------------------------

    /// Operand values no fold may reorder around: NaN, ±∞, ±0.0, subnormals
    /// of both signs, the extremes and a few finite values.
    pub(crate) const HOSTILE_GRID: [f32; 16] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        f32::MIN_POSITIVE / 2.0,
        -f32::MIN_POSITIVE / 2.0,
        f32::MAX,
        f32::MIN,
        1.0,
        -1.0,
        2.5,
        -2.5,
        0.37,
    ];

    /// Every weight the pins run: 0, 1, −2.5, −0.0, ±∞ and NaN.
    pub(crate) const HOSTILE_WEIGHTS: [f32; 7] = [
        0.0,
        1.0,
        -2.5,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    /// Every semiring, each weighted one at every hostile weight.
    fn hostile_semirings() -> Vec<Semiring> {
        let mut all = vec![Semiring::Boolean, Semiring::Arithmetic];
        for w in HOSTILE_WEIGHTS {
            all.extend([Semiring::MinPlus(w), Semiring::MaxTimes(w)]);
        }
        all
    }

    /// The exactness predicate of the four-chain fold.  For every semiring
    /// and weight it accepts, `⊕` over `⊗` outputs on the hostile grid gives
    /// the same bits in any order and grouping: an accumulator (the
    /// identity, or a non-NaN term) ⊕ a term is again an accumulator; on
    /// accumulators `⊕` is commutative and associative by `to_bits`; and a
    /// term enters as `identity ⊕ term` does (a NaN term is the identity).
    /// `MinPlus(−0.0)` is refused, and this is why: `min(0.0, −0.0)` answers
    /// by position.
    #[test]
    fn four_chain_fold_accepts_only_what_any_order_keeps_bitwise() {
        let bits = |v: f32| v.to_bits();
        let mut accepted = 0;
        for semiring in hostile_semirings() {
            if min_plus_any_order(semiring).is_none() {
                continue;
            }
            accepted += 1;
            let reduce = |a, b| semiring.reduce(a, b);
            let terms: Vec<f32> = HOSTILE_GRID.iter().map(|&x| semiring.combine(x)).collect();
            let accs: Vec<f32> = std::iter::once(semiring.identity())
                .chain(terms.iter().copied().filter(|t| !t.is_nan()))
                .collect();
            for &a in &accs {
                for &t in &terms {
                    let folded = reduce(a, t);
                    assert!(
                        !folded.is_nan() && bits(folded) != bits(-0.0),
                        "{semiring:?}: {a:?} ⊕ {t:?} = {folded:?} leaves the accumulators"
                    );
                    let entered = reduce(a, reduce(semiring.identity(), t));
                    assert_eq!(bits(folded), bits(entered), "{semiring:?}: {a:?} ⊕ {t:?}");
                }
                for &b in &accs {
                    let ab = reduce(a, b);
                    assert_eq!(bits(ab), bits(reduce(b, a)), "{semiring:?}: {a:?} ⊕ {b:?}");
                    for &c in &accs {
                        assert_eq!(
                            bits(reduce(ab, c)),
                            bits(reduce(a, reduce(b, c))),
                            "{semiring:?}: ({a:?} ⊕ {b:?}) ⊕ {c:?}"
                        );
                    }
                }
            }
        }
        // Every MinPlus weight of the grid but −0.0.
        assert_eq!(accepted, HOSTILE_WEIGHTS.len() - 1);
        let zero_weight = Semiring::MinPlus(-0.0);
        assert_eq!(min_plus_any_order(zero_weight), None);
        assert_eq!(min_plus_any_order(Semiring::MinPlus(0.0)), Some(0.0));
        let (pos, neg) = (zero_weight.combine(0.0), zero_weight.combine(-0.0));
        assert_ne!(
            bits(zero_weight.reduce(pos, neg)),
            bits(zero_weight.reduce(neg, pos)),
            "min(0.0, −0.0) answers by position"
        );
    }

    /// The row pull against the ascending chain by the enum methods, bit for
    /// bit: rows of 0 to 9 entries (every remainder of the four-chain deal),
    /// the hostile grid dealt across the operand at several offsets and an
    /// operand of signed zeros, every semiring at every hostile weight, with
    /// and without a row mask, bare and under a `min` finish over a hostile
    /// baseline.
    #[test]
    fn csr_pull_full_equals_the_ascending_chain_bitwise() {
        let (nrows, ncols) = (120usize, 97usize);
        let mut coo = Coo::new(nrows, ncols);
        for r in 0..nrows {
            for i in 0..r % 10 {
                coo.push_edge(r, (r * 5 + i * 17) % ncols).unwrap();
            }
        }
        let a = coo.to_binary_csr();
        assert!((0..nrows).all(|r| a.row(r).0.len() == r % 10));
        let grid = |f: usize| HOSTILE_GRID[f % HOSTILE_GRID.len()];
        let base: Vec<f32> = (0..nrows).map(|r| grid(r * 3 + 1)).collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        // Signed zeros with nothing below them, so that a row's minimum is
        // `min(0.0, −0.0)` — where `MinPlus(−0.0)`'s answer is positional.
        let zeros = |c: usize| [0.0, -0.0, 1.0, f32::NAN][c % 4];
        let operands: Vec<Vec<f32>> = [0usize, 5, 11]
            .map(|offset| (0..ncols).map(|c| grid(c * 7 + offset)).collect())
            .into_iter()
            .chain([(0..ncols).map(zeros).collect()])
            .collect();
        for semiring in hostile_semirings() {
            for (o, x) in operands.iter().enumerate() {
                let chain: Vec<f32> = (0..nrows)
                    .map(|r| {
                        a.row(r).0.iter().fold(semiring.identity(), |acc, &c| {
                            semiring.reduce(acc, semiring.combine(x[c]))
                        })
                    })
                    .collect();
                for masked in [false, true] {
                    let allow = |r: usize| !masked || r % 3 != 1;
                    let raw = |r: usize| {
                        if allow(r) {
                            chain[r]
                        } else {
                            semiring.identity()
                        }
                    };
                    let what = format!("{semiring:?} operand {o} masked={masked}");
                    let mut y = vec![7.0f32; nrows + 3];
                    csr_pull_full(&a, x, semiring, allow, |_, t| t, &mut y);
                    let want: Vec<f32> = (0..nrows).map(raw).collect();
                    assert_eq!(bits(&y[..nrows]), bits(&want), "bare {what}");
                    assert_eq!(bits(&y[nrows..]), bits(&[7.0; 3]), "past nrows {what}");
                    csr_pull_full(&a, x, semiring, allow, |r, t| base[r].min(t), &mut y);
                    let want: Vec<f32> = (0..nrows).map(|r| base[r].min(raw(r))).collect();
                    assert_eq!(bits(&y[..nrows]), bits(&want), "min finish {what}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "operand x shorter than ncols")]
    fn csr_pull_rejects_a_short_operand() {
        let a = sample(9, 3, 2);
        csr_pull_full(
            &a,
            &[0.0; 8],
            Semiring::Arithmetic,
            |_| true,
            |_, t| t,
            &mut [0.0; 9],
        );
    }

    // -- the tile kernels against the CSR bodies the engine runs ------------

    use crate::b2sr::format::with_b2sr;
    use crate::grb::MxvPipeline;
    use crate::kernels::bmv::bmv_bin_full_full_fused_into;

    /// The full-precision pull of one tiled B2SR width as a pipeline runs on
    /// it: the single-vector sweep finishing each row with the pipeline
    /// (`k = 1`), or the batched sweep with the any-lane-active skip of a
    /// push-safe semiring, its masked lanes set to the identity and the
    /// epilogue run in one pass.
    fn tile_pull<W: BitWord>(m: &B2sr<W>, p: &MxvPipeline<'_>, single: bool) -> Vec<f32> {
        let (dim, k, semiring) = (m.tile_dim(), p.k, p.semiring);
        let mut out = vec![semiring.identity(); m.n_tile_rows() * dim * k];
        if single {
            bmv_bin_full_full_fused_into(m, p.x, semiring, |i, t| p.finish(i, t), &mut out);
            out.truncate(m.nrows());
            return out;
        }
        let xa = semiring
            .push_safe()
            .then(|| active_words::<W>(p.x, k, semiring, dim));
        bmm_bin_full_into(m, p.x, k, semiring, xa.as_deref(), &mut out);
        out.truncate(m.nrows() * k);
        for (flat, v) in out.iter_mut().enumerate() {
            if p.mask.is_some_and(|mk| !mk.allows(flat)) {
                *v = semiring.identity();
            }
        }
        p.finish_in_place(&mut out);
        out
    }

    /// The engine's row pulls are the tile sweeps, bit for bit: `mxv_into`
    /// and `mxm_into` of the built-in backend — every full-precision pull
    /// reads the CSR ([`csr_pull_full`], and the batched row pull) — against
    /// [`bmv_bin_full_full_fused_into`] and [`bmm_bin_full_into`] at every
    /// width, both orientations of a ragged rectangular matrix with hub rows
    /// and columns, one lane and batches of 3 and 64; bare, affine
    /// (PageRank), `min`-accumulated (SSSP), masked and complemented-mask
    /// pipelines; operands and baselines holding NaN, ±inf, −0.0, subnormals
    /// and the extremes, under Arithmetic, MaxTimes of either sign and
    /// MinPlus at every hostile weight — 0, 1, −2.5, −0.0, ±∞ and NaN, so the
    /// four-chain fold and the one chain of `MinPlus(−0.0)` both meet the
    /// sweeps.
    #[test]
    fn row_pulls_equal_the_tile_sweeps_bitwise() {
        use crate::b2sr::{B2srMatrix, TileSize};
        use crate::grb::backend::tests::ragged_with_hubs;
        use crate::grb::{BitB2sr, Mask, Stage, Workspace};
        use crate::semiring::BinaryOp;

        let csr = ragged_with_hubs();
        let csr_t = csr.transpose();
        let value = |f: usize, semiring: Semiring| match f % 7 {
            0 | 1 => HOSTILE_GRID[(f / 7) % HOSTILE_GRID.len()],
            2 | 3 => semiring.identity(),
            _ => 0.37 * (f % 11) as f32 - 1.5,
        };
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let ws = Workspace::new();
        let affine = [Stage::Affine {
            mul: 0.85,
            add: 0.01,
        }];
        for ts in TileSize::ALL {
            let b = BitB2sr::new(&csr, ts);
            let tiles = [&csr, &csr_t].map(|m| B2srMatrix::from_csr(m, ts));
            for transpose in [false, true] {
                let (produced, contracted) = if transpose {
                    (csr.ncols(), csr.nrows())
                } else {
                    (csr.nrows(), csr.ncols())
                };
                let min_plus = HOSTILE_WEIGHTS.map(Semiring::MinPlus);
                let others = [
                    Semiring::Arithmetic,
                    Semiring::MaxTimes(0.75),
                    Semiring::MaxTimes(-0.5),
                ];
                for semiring in min_plus.into_iter().chain(others) {
                    for k in [1usize, 3, 64] {
                        let x: Vec<f32> = (0..contracted * k).map(|f| value(f, semiring)).collect();
                        let base: Vec<f32> =
                            (0..produced * k).map(|f| value(f + 3, semiring)).collect();
                        let structure: Vec<bool> = (0..produced * k).map(|f| f % 3 != 1).collect();
                        let mask = Mask::new(structure.clone());
                        let complemented = Mask::complemented(structure);
                        let min = Some((BinaryOp::Min, base.as_slice()));
                        let shapes: [(&[Stage<'_>], _, Option<&Mask>); 5] = [
                            (&[], None, None),
                            (&affine, None, None),
                            (&[], min, None),
                            (&[], None, Some(&mask)),
                            (&affine, min, Some(&complemented)),
                        ];
                        for (shape, (stages, accum, mask)) in shapes.into_iter().enumerate() {
                            let p = MxvPipeline {
                                x: &x,
                                k,
                                frontier: None,
                                semiring,
                                mask,
                                transpose,
                                stages,
                                accum,
                            };
                            let what = format!(
                                "{ts:?} transpose={transpose} {semiring:?} k={k} shape {shape}"
                            );
                            let m = &tiles[transpose as usize];
                            let mut got = Vec::new();
                            b.mxm_into(&p, &ws, &mut got);
                            let want = with_b2sr!(m, |m| tile_pull(m, &p, false));
                            assert_eq!(bits(&got), bits(&want), "mxm {what}");
                            if k == 1 {
                                b.mxv_into(&p, &ws, &mut got);
                                let want = with_b2sr!(m, |m| tile_pull(m, &p, true));
                                assert_eq!(bits(&got), bits(&want), "mxv {what}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The lane-word Boolean product on one tiled B2SR width: the pull sweep
    /// [`bmm_bin_bits_into`] over `pull` (with the any-lane-active tile
    /// words it skips by) when `frontier` is `None`, else the push scatter
    /// [`bmm_push_bits`] over the rows of `scatter`, AND-NOT `sup`.
    fn tile_lanes<W: BitWord>(
        (pull, scatter): (&B2sr<W>, &B2sr<W>),
        xw: &[u64],
        k: usize,
        frontier: Option<&[usize]>,
        sup: Option<&[u64]>,
    ) -> Vec<u64> {
        let wpn = k.div_ceil(64);
        let Some(frontier) = frontier else {
            let dim = pull.tile_dim();
            let mut xa = vec![W::ZERO; pull.n_tile_cols()];
            for (active, nodes) in xa.iter_mut().zip(xw.chunks(dim * wpn)) {
                for (c, lanes) in nodes.chunks_exact(wpn).enumerate() {
                    if lanes.iter().any(|&w| w != 0) {
                        *active = active.with_bit(c as u32);
                    }
                }
            }
            let mut yw = vec![u64::MAX; pull.n_tile_rows() * dim * wpn];
            bmm_bin_bits_into(pull, xw, k, &xa, sup, &mut yw);
            yw.truncate(pull.nrows() * wpn);
            return yw;
        };
        let mut yw = vec![0u64; scatter.ncols() * wpn];
        bmm_push_bits(scatter, frontier, xw, wpn, &mut yw);
        if let Some(sup) = sup {
            simd::andnot_into(&mut yw, sup);
        }
        yw
    }

    /// The CSR lane-word products are the tile kernels', word for word:
    /// [`csr_lanes_pull`] against [`bmm_bin_bits_into`] and
    /// [`csr_lanes_push`] against [`bmm_push_bits`] — the ragged hub matrix
    /// and a banded one of 301 vertices at every width, both orientations,
    /// `k` of 1, 3, 64, 65 and 130 (one, two and three words per node,
    /// ragged last words); bare, masked and fully suppressed, from an empty,
    /// a thin and a half-full frontier.
    #[test]
    fn csr_lane_products_equal_the_tile_lane_kernels_bitwise() {
        use crate::b2sr::{B2srMatrix, TileSize};
        use crate::grb::backend::tests::{banded, ragged_with_hubs};

        for a in [ragged_with_hubs(), banded(301, 6)] {
            let at = a.transpose();
            for ts in TileSize::ALL {
                let tiles = [&a, &at].map(|m| B2srMatrix::from_csr(m, ts));
                // (the representation pulled, the one scattered)
                for (pulled, scattered, t) in [(&a, &at, false), (&at, &a, true)] {
                    let (produced, contracted) = (pulled.nrows(), pulled.ncols());
                    for k in [1usize, 3, 64, 65, 130] {
                        let what =
                            format!("{}x{} {ts:?} transpose={t} k={k}", a.nrows(), a.ncols());
                        let reps = (&tiles[t as usize], &tiles[!t as usize]);
                        let csr = |frontier: Option<&[usize]>, xw: &[u64], sup: Option<&[u64]>| {
                            let wpn = k.div_ceil(64);
                            match frontier {
                                None => {
                                    let mut yw = vec![u64::MAX; produced * wpn];
                                    csr_lanes_pull(pulled, xw, k, sup, &mut yw);
                                    yw
                                }
                                Some(frontier) => {
                                    let mut yw = vec![0u64; produced * wpn];
                                    csr_lanes_push(scattered, frontier, xw, wpn, &mut yw);
                                    if let Some(sup) = sup {
                                        simd::andnot_into(&mut yw, sup);
                                    }
                                    yw
                                }
                            }
                        };
                        let tile = |frontier: Option<&[usize]>, xw: &[u64], sup: Option<&[u64]>| {
                            let (pull, scatter) = reps;
                            with_b2sr!(pull, |p| {
                                let s = scatter.inner(p.tile_dim()).unwrap();
                                tile_lanes((p, s), xw, k, frontier, sup)
                            })
                        };
                        assert_lane_cases_agree((produced, contracted), k, csr, tile, &what);
                    }
                }
            }
        }
    }

    /// [`csr_lane_products_equal_the_tile_lane_kernels_bitwise`] at one
    /// width, orientation and lane count: `csr` and `tile` map `(frontier,
    /// lane words, suppressed lane words)` to the product's lane words.
    fn assert_lane_cases_agree(
        (produced, contracted): (usize, usize),
        k: usize,
        csr: impl Fn(Option<&[usize]>, &[u64], Option<&[u64]>) -> Vec<u64>,
        tile: impl Fn(Option<&[usize]>, &[u64], Option<&[u64]>) -> Vec<u64>,
        what: &str,
    ) {
        let wpn = k.div_ceil(64);
        // Operands: flat `contracted × k` lane flags.
        let empty = |_: usize| false;
        let thin = |f: usize| (f / k) % 37 == 5 && (f % k) % 3 != 1;
        let half = |f: usize| (f * 7 + f / k).is_multiple_of(2);
        // Masks over the flat `produced × k` output: `true` is allowed.
        let partial = |f: usize| !(f * 5 + f / k).is_multiple_of(3);
        type Flags<'a> = &'a dyn Fn(usize) -> bool;
        let cases: [(Flags, Option<Flags>); 6] = [
            (&empty, Some(&partial)),
            (&thin, None),
            (&thin, Some(&partial)),
            (&half, None),
            (&half, Some(&partial)),
            (&half, Some(&empty)),
        ];
        let words = |n: usize, set: &dyn Fn(usize) -> bool| {
            let mut w = vec![0u64; n * wpn];
            for f in (0..n * k).filter(|&f| set(f)) {
                w[(f / k) * wpn + (f % k) / 64] |= 1 << (f % k % 64);
            }
            w
        };
        for (case, (active, allowed)) in cases.into_iter().enumerate() {
            let xw = words(contracted, active);
            let sup = allowed.map(|allowed| words(produced, &|f| !allowed(f)));
            let frontier: Vec<usize> = (0..contracted)
                .filter(|&u| xw[u * wpn..][..wpn].iter().any(|&w| w != 0))
                .collect();
            for push in [false, true] {
                let front = push.then_some(frontier.as_slice());
                let got = csr(front, &xw, sup.as_deref());
                assert_eq!(
                    got,
                    tile(front, &xw, sup.as_deref()),
                    "{what} case {case} push={push}"
                );
                assert_eq!(got.len(), produced * wpn);
                if case == 0 || case == 5 {
                    assert!(
                        got.iter().all(|&w| w == 0),
                        "{what} case {case}: nothing reached"
                    );
                }
            }
        }
    }
}
