//! # bitgblas-core
//!
//! The core of the Bit-GraphBLAS reproduction — the paper's primary
//! contribution, reimplemented in Rust on top of the packing words
//! (`BitWord`) of `bitgblas-bitops` and the sparse substrate of
//! `bitgblas-sparse`.
//!
//! The crate is organised around the paper's three research questions:
//!
//! * **RQ-1 (storage format)** — [`b2sr`] implements the Bit-Block Compressed
//!   Sparse Row format in its four variants (B2SR-4/8/16/32): a CSR-like upper
//!   level over fixed-size tiles (`TileRowPtr`, `TileColInd`) and a dense
//!   bit-packed lower level (`BitTiles`), together with the CSR↔B2SR
//!   conversions, transposition, storage statistics (compression ratio,
//!   non-empty-tile ratio, nonzero occupancy) and the sampling-profile
//!   tile-size selector of Algorithm 1.
//!
//! * **RQ-2 (computation)** — [`kernels`] implements the BMV and BMM schemes of
//!   Tables II and III: `bmv_bin_bin_bin_into`, `bmv_bin_bin_full_masked`
//!   (each one body with its masked twin), `bmv_bin_full_full_fused_into`
//!   (one sweep that finishes each row through a closure — mask, fused
//!   epilogue or nothing) and `bmm_bin_bin_sum` (plus the masked variant used by Triangle Counting,
//!   `bmm_bin_bin_sum_masked_nt`, which reads both factors by rows, and
//!   which a matrix too sparse to hold tiles replaces with the same AND +
//!   popcount over its CSR rows packed into 64-column words,
//!   `csr_words_masked_count`),
//!   each structured as one-warp-per-tile-row — one `BitWord` per tile row
//!   — and parallelised across tile-rows with Rayon.  The engine reads
//!   tiles for the bin/bin/bin node-word products and the masked count
//!   only; every full-precision product and every batched Boolean product
//!   runs on the CSR rows every matrix holds, where it is faster at every
//!   fill measured.  The push (sparse-frontier scatter) kernels are serial:
//!   one CSR scatter for full precision, which folds one `f32` per edge
//!   whatever the layout, and word ORs of CSR rows or tile rows for the
//!   Boolean semiring; each runs once over the whole ascending frontier,
//!   so a push's result never depends on the host's thread count.
//!
//! * **Graph-algorithm support** — [`semiring`] provides the semiring domains
//!   of Table IV (Boolean, arithmetic, tropical min-plus, tropical max-times)
//!   and [`grb`] exposes a GraphBLAS-style object API (`Matrix`, `Vector`,
//!   the `Op` builders, masks and descriptors) over one built backend,
//!   [`grb::BitB2sr`].  It is built as the B2SR bit backend (this paper) or
//!   the float-CSR baseline (the GraphBLAST stand-in) — or
//!   [`grb::Backend::Auto`] picks the tile size per matrix: the widest
//!   whose counted tiles fill.  `bitgblas-algorithms` builds BFS/SSSP/PR/CC/TC
//!   on this API.
//!
//! * **Streaming mutations** — [`delta`] keeps the graph mutable under
//!   live serving: an append-only edge-delta log with DCSR-style staged
//!   rows, a merge-on-read overlay beside the built base (`base ⊕ delta`,
//!   no rebuild),
//!   versioned epoch publication behind [`grb::Matrix::snapshot`], and
//!   explicit compaction that re-tiles the base incrementally.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod b2sr;
pub mod delta;
pub mod faultinject;
pub mod grb;
pub mod kernels;
pub mod semiring;

pub use b2sr::{B2sr, B2srMatrix, TileSize};
pub use delta::{
    CompactReport, DeltaOp, DeltaOverlay, DeltaSnapshot, EdgeDelta, StagedRows, VersionCell,
    DELTA_MERGE_POINT,
};
pub use faultinject::{FailSpec, FaultAction, FaultInjector, FaultPlan, InjectedPanic};
pub use grb::{
    Backend, Context, Descriptor, Direction, Expr, Fusion, GrbError, LaneBits, Matrix, MultiVec,
    NodeBits, Op, Snapshot, Vector,
};
pub use semiring::{BinaryOp, Semiring};
