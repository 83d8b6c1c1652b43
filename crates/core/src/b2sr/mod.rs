//! B2SR — Bit-Block Compressed Sparse Row (RQ-1 of the paper).
//!
//! B2SR is a two-level representation of a binary adjacency matrix:
//!
//! * the **upper level** is a CSR structure over fixed-size square tiles:
//!   `TileRowPtr` (cumulative count of non-empty tiles per tile-row) and
//!   `TileColInd` (tile-column index of each non-empty tile);
//! * the **lower level** stores each non-empty tile as a dense *bit* matrix:
//!   `BitTiles` holds `tile_dim` packing words per tile, one bit per element.
//!
//! Four variants are produced by the tile dimension (Table I): B2SR-4 and
//! B2SR-8 pack rows into `u8`, B2SR-16 into `u16` and B2SR-32 into `u32`,
//! yielding 16×–32× storage savings per tile over 32-bit-float storage.
//!
//! Submodules:
//! * [`mod@format`] — the [`B2sr`] container, the [`TileSize`] selector and the
//!   type-erased [`B2srMatrix`] wrapper;
//! * [`convert`] — CSR→B2SR conversion, whole ([`convert::from_csr`]) or of
//!   the dirty tile-rows only ([`B2sr::retile_rows`]).
//!
//! The paper's storage census (Figures 3 and 5, Table I) and its sampling
//! profile (Algorithm 1) count tiles without converting, so they live in
//! `bitgblas_perfmodel::b2sr`, beside the tile layout they read.

pub mod convert;
pub mod format;

pub use format::{B2sr, B2srMatrix, TileSize};
