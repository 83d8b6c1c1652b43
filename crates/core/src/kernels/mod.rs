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
//!   names are forwards the repo benchmark imports.
//! * [`bmm`] — Binarized Matrix × Matrix: the two schemes of Table III
//!   (`bmm_bin_bin_sum` and `bmm_bin_bin_sum_masked`), which reduce the
//!   product to a full-precision scalar as required by Triangle Counting.
//!   The masked scheme's body is `bmm_bin_bin_sum_masked_nt`, a tile-row
//!   intersection that takes its second operand as `Bᵀ` stored by rows
//!   (Triangle Counting hands it `L` three times); the `A·B` form
//!   transposes `b` and calls it.  A bit matrix whose tiles are hypersparse
//!   runs the CSR count `sparse::ops::spgemm_masked_count` instead
//!   (`grb::backend::CSR_REDUCE_BELOW_BITS_PER_TILE`).  Also here:
//!   the batched matrix-times-multivector kernels of the multi-source
//!   traversal engine (`bmm_bin_bits_into` / `bmm_push_bits` for Boolean
//!   lane words, `bmm_bin_full_into` for the other semirings' pull) — each
//!   adjacency tile is loaded once and applied to all `k` frontier lanes;
//!   the full-precision pull resolves its semiring once per call
//!   (`semiring::with_semiring_ops!`, shared with the fused single-vector
//!   sweep) and enumerates set bits tile-granular, one `trailing_zeros`
//!   loop per packed 64-bit chunk.  And the one full-precision push,
//!   `csr_push_full`: a lane-sparse scatter over the rows of the CSR every
//!   backend holds, single-vector and batched — a scatter folds one `f32`
//!   per edge whichever layout lists the edges, so only the Boolean pushes
//!   of dense tiles scatter tile words — and the single-vector row pull over the same
//!   rows, `csr_pull_full` (`FloatCsr`'s pull, a hypersparse bit matrix's,
//!   and a one-lane batch's), whose MinPlus fold runs four `min` chains.
//!   Beside them the Boolean products over the same rows, operand and
//!   output binarized as §V prescribes: `csr_bits_pull` / `csr_bits_push`
//!   in node words (one bit per vertex) and `csr_lanes_pull` /
//!   `csr_lanes_push` in lane words (one bit per traversal) — what a bit
//!   matrix whose tiles are hypersparse runs instead of the tile kernels.
//!
//! Each kernel is structured like the paper's CUDA listings: the tile-rows
//! of the B2SR matrix are the unit of work (one warp per tile-row), the
//! inner loop walks the non-empty tiles of that tile-row, and the
//! per-element work is a bitwise AND followed by a population count.  The
//! warp scheduling of the GPU is replaced by Rayon parallelism over
//! tile-rows; everything inside a tile-row is deterministic.
//!
//! The push kernels are serial by construction.  They parallelise one
//! level up: `grb::backend` cuts the frontier at a
//! [`crate::shard::ShardPlan`]'s row-shard boundaries and runs the same
//! serial kernel per segment into privatized buffers, with a
//! fixed-segment-order monoid merge that keeps the result bit-identical
//! across thread counts.

pub mod bmm;
pub mod bmv;
pub mod simd;

pub use bmm::{
    bmm_bin_bin_sum, bmm_bin_bin_sum_masked, bmm_bin_bin_sum_masked_nt, bmm_bin_bits_into,
    bmm_bin_full_into, bmm_push_bits, csr_bits_pull, csr_bits_push, csr_lanes_pull, csr_lanes_push,
    csr_pull_full, csr_push_full,
};
pub use bmv::{
    bmv_bin_bin_bin_into, bmv_bin_bin_bin_masked_into, bmv_bin_bin_bin_simd_into,
    bmv_bin_bin_full_masked, bmv_bin_full_full_fused_into, bmv_bin_full_full_into,
    bmv_bin_full_full_simd_into, bmv_push_bin_bin, pack_vector_bits, pack_vector_bits_into,
    pack_vector_tilewise_into,
};
