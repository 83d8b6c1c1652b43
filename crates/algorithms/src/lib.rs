//! # bitgblas-algorithms
//!
//! The five graph algorithms of the paper's evaluation — Breadth-First
//! Search, Single-Source Shortest Path, PageRank, Connected Components and
//! Triangle Counting — written once against the builder API
//! (`Op::mxv(..).run(&ctx)`) of `bitgblas-core`'s GraphBLAS layer, and
//! runnable on every backend kind:
//!
//! * `Backend::Bit(tile_size)` — Bit-GraphBLAS (B2SR + bit kernels), the
//!   paper's system;
//! * `Backend::FloatCsr` — the float-CSR baseline standing in for GraphBLAST;
//! * `Backend::Auto` — the framework picks the tile size per matrix: the
//!   widest whose counted tiles fill.
//!
//! On top of the single-query algorithms, the **batched multi-source
//! family** serves many concurrent queries with one traversal each
//! iteration: [`bfs_multi`] (k-source BFS over an `n × k` frontier matrix),
//! [`sssp_multi`] (k-source shortest paths — landmark distance sketches)
//! and [`ppr_multi`] (k-seed personalized PageRank, the serving layer's
//! flagship query — fixed-iteration execution so coalesced lanes stay
//! bit-identical to standalone runs).
//!
//! Each module also documents which BMV/BMM scheme and semiring the paper
//! assigns to the algorithm (Table IV and §V).  The [`mod@reference`]
//! module holds simple graph-traversal implementations (queue BFS,
//! Bellman-Ford, union-find, wedge-checking TC, dense power iteration)
//! used by the test suite to validate both backends.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bfs;
pub mod cc;
pub mod pagerank;
pub mod ppr;
pub mod reference;
pub mod sssp;
pub mod tc;
mod validate;

pub use bfs::{
    bfs, bfs_dir, bfs_multi, bfs_multi_dir, try_bfs_dir, try_bfs_multi_dir, BfsResult,
    MultiBfsResult,
};
pub use cc::{connected_components, CcResult};
pub use pagerank::{pagerank, PageRankConfig, PageRankResult};
pub use ppr::{
    ppr, ppr_multi, ppr_multi_dir, try_ppr_multi_dir, MultiPprResult, PprConfig, PprResult,
};
pub use sssp::{
    sssp, sssp_dir, sssp_multi, sssp_multi_dir, sssp_with, try_sssp_multi_dir, try_sssp_with,
    MultiSsspResult, SsspResult,
};
pub use tc::triangle_count;

// Re-exported so algorithm callers can name a traversal direction, a fusion
// mode, or handle a typed error without importing bitgblas-core directly.
pub use bitgblas_core::grb::{Direction, Fusion, GrbError};
