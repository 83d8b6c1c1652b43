//! Bit-level BLAS kernels over B2SR (RQ-2 of the paper).
//!
//! * [`bmv`] — Binarized Matrix × Vector: the six schemes of Table II,
//!   covering the Boolean, arithmetic and tropical semirings of Table IV.
//!   The two bit-output schemes and their masked twins are one body each:
//!   the `_masked` names (`bmv_bin_bin_bin_masked_into`,
//!   `bmv_bin_bin_full_masked`) take an `Option` mask, and the sweep behind
//!   both is generic over a store-side mask hook the compiler specialises.  The
//!   full-precision scheme has one sweep, `bmv_bin_full_full_fused_into`,
//!   which finishes each row through a closure (mask, epilogue stages,
//!   accumulator); `bmv_bin_full_full_into` is its identity-finish
//!   shorthand.  Plus the Boolean push-direction (sparse-frontier) kernel
//!   `bmv_push_bin_bin`.  Every scheme has one tile body; the two `_simd`
//!   names are forwards the repo benchmark imports.  The GrB layer runs the
//!   bin/bin/bin pull (`bmv_bin_bin_bin_masked_into`) and the push on a
//!   tiled matrix's node words; the other schemes serve the paper's tables
//!   (`fig6_7_kernels`), the benches and the repo benchmark's kernel probes.
//! * [`bmm`] — Binarized Matrix × Matrix: the two schemes of Table III
//!   (`bmm_bin_bin_sum` and `bmm_bin_bin_sum_masked`), which reduce the
//!   product to a full-precision scalar as required by Triangle Counting.
//!   The masked scheme's body is `bmm_bin_bin_sum_masked_nt`, a tile-row
//!   intersection that takes its second operand as `Bᵀ` stored by rows
//!   (Triangle Counting hands it `L` three times); the `A·B` form
//!   transposes `b` and calls it.  A bit matrix too sparse to hold tiles
//!   (`grb::backend::MIN_TILE_FILL`) runs the same AND + popcount over its
//!   CSR rows instead, `csr_words_masked_count`: the second factor's rows
//!   packed into ascending 64-column words (`RowWords`), the first OR-ed
//!   into a dense word scratch per row.  Also here:
//!   the batched matrix-times-multivector tile kernels (`bmm_bin_bits_into`
//!   / `bmm_push_bits` for Boolean lane words, `bmm_bin_full_into` for the
//!   other semirings' pull) — each adjacency tile is loaded once and applied
//!   to all `k` frontier lanes; the full-precision pull resolves its
//!   semiring once per call (`semiring::with_semiring_ops!`, shared with the
//!   fused single-vector sweep) and enumerates set bits tile-granular, one
//!   `trailing_zeros` loop per packed 64-bit chunk.  The GrB layer runs none
//!   of the three: the CSR bodies below beat them at every fill the benches
//!   sweep (`grb::backend::MIN_TILE_FILL`), and they stay for the benches
//!   and the repo benchmark's kernel probes, pinned to those CSR bodies bit
//!   for bit (`kernels::bmm`'s tests).  The CSR bodies: the one
//!   full-precision push, `csr_push_full`, a lane-sparse scatter over the
//!   rows of the CSR every backend holds, single-vector and batched — a
//!   scatter folds one `f32` per edge whichever layout lists the edges —
//!   and the single-vector row pull over the same rows, `csr_pull_full`
//!   (every full-precision pull, and a one-lane batch's), whose MinPlus
//!   fold runs four `min` chains.  Beside them the Boolean products over
//!   the same rows, operand and output binarized as §V prescribes:
//!   `csr_bits_pull` / `csr_bits_push` in node words (one bit per vertex),
//!   what a bit matrix without tiles runs instead of the bin/bin/bin tile
//!   kernels, and `csr_lanes_pull` / `csr_lanes_push` in lane words (one bit
//!   per traversal), what every bit matrix's batched Boolean product runs.
//!
//! Each kernel is structured like the paper's CUDA listings: the tile-rows
//! of the B2SR matrix are the unit of work (one warp per tile-row), the
//! inner loop walks the non-empty tiles of that tile-row, and the
//! per-element work is a bitwise AND followed by a population count.  The
//! warp scheduling of the GPU is replaced by Rayon parallelism over
//! tile-rows; everything inside a tile-row is deterministic.
//!
//! The push kernels are serial by construction, and the GrB layer runs each
//! once over the whole ascending frontier, so a push's folds group alike
//! whatever the host's thread count.  Row-shard scatters run on two threads
//! measured slower than these serial ones on every push they served:
//! `csr_bits_push` and `csr_lanes_push` 1.44× and 1.17× on R-MAT,
//! `csr_push_full` 1.6–3× on batched pushes, and the node-word tile scatter
//! (`bmv_push_bin_bin`) 1.38–1.97× on the mesh.

pub mod bmm;
pub mod bmv;
pub mod simd;

pub use bmm::{
    bmm_bin_bin_sum, bmm_bin_bin_sum_masked, bmm_bin_bin_sum_masked_nt, bmm_bin_bits_into,
    bmm_bin_full_into, bmm_push_bits, csr_bits_pull, csr_bits_push, csr_lanes_pull, csr_lanes_push,
    csr_pull_full, csr_push_full, csr_words_masked_count, RowWords,
};
pub use bmv::{
    bmv_bin_bin_bin_into, bmv_bin_bin_bin_masked_into, bmv_bin_bin_bin_simd_into,
    bmv_bin_bin_full_masked, bmv_bin_full_full_fused_into, bmv_bin_full_full_into,
    bmv_bin_full_full_simd_into, bmv_push_bin_bin, pack_vector_bits, pack_vector_bits_into,
    pack_vector_tilewise_into,
};
