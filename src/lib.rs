//! # bit-graphblas
//!
//! A from-scratch Rust reproduction of **"Bit-GraphBLAS: Bit-Level
//! Optimizations of Matrix-Centric Graph Processing on GPU"** (IPDPS 2022).
//!
//! Bit-GraphBLAS stores a homogeneous graph's adjacency matrix in **B2SR**
//! (Bit-Block Compressed Sparse Row): a CSR index over fixed-size tiles whose
//! non-empty tiles are packed one *bit* per element, and runs the GraphBLAS
//! kernels (SpMV → BMV, SpGEMM → BMM) with word-level AND + population-count
//! operations.  This workspace reimplements the whole system on the CPU —
//! one packing word per tile row, Rayon tasks where the GPU schedules warps —
//! so the bit-level algorithms can be studied, tested and benchmarked
//! without a GPU — see `DESIGN.md` for the substitution table and
//! `EXPERIMENTS.md` for the reproduced tables and figures.
//!
//! This facade crate re-exports the public API of the workspace crates:
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`bitops`] | `bitgblas-bitops` | packing words (`BitWord`), tile packing and bit intrinsics |
//! | [`sparse`] | `bitgblas-sparse` | COO/CSR, Matrix Market I/O, float baseline kernels |
//! | [`datagen`] | `bitgblas-datagen` | synthetic corpus generators and pattern classifier |
//! | [`perfmodel`] | `bitgblas-perfmodel` | Pascal/Volta device profiles and the memory-traffic model |
//! | [`core`] | `bitgblas-core` | B2SR, BMV/BMM kernels, semirings, GrB-style API, streaming edge-delta mutations |
//! | [`algorithms`] | `bitgblas-algorithms` | BFS, SSSP, PageRank, PPR, CC, TC on both backends |
//! | [`serve`] | `bitgblas-serve` | query service: lane-coalescing scheduler over the batched engine, coalesced writer path |
//!
//! # Quickstart
//!
//! ```
//! use bit_graphblas::prelude::*;
//!
//! // A small road-network-like graph (2-D grid).
//! let adjacency = bit_graphblas::datagen::generators::grid2d(16, 16);
//!
//! // Store it in B2SR with 8x8 bit tiles and run BFS on the bit backend.
//! let graph = Matrix::from_csr(&adjacency, Backend::Bit(TileSize::S8));
//! let result = bfs(&graph, 0);
//! assert_eq!(result.levels[0], 0);
//! assert!(result.n_reached == 256);
//!
//! // The float-CSR baseline (GraphBLAST stand-in) gives identical answers.
//! let baseline = Matrix::from_csr(&adjacency, Backend::FloatCsr);
//! assert_eq!(bfs(&baseline, 0).levels, result.levels);
//!
//! // B2SR compresses the matrix relative to float CSR.
//! assert!(graph.storage_bytes() < baseline.storage_bytes());
//!
//! // Or let the framework decide the format and tile size per matrix
//! // (pattern classifier + sampling profile + memory-traffic model):
//! let auto = Matrix::from_csr(&adjacency, Backend::Auto);
//! assert_ne!(auto.resolved_backend(), Backend::Auto);
//! assert_eq!(bfs(&auto, 0).levels, result.levels);
//!
//! // Individual GraphBLAS operations use the builder API: a one-hop
//! // Boolean traversal from vertex 0, masked to unvisited vertices.
//! let ctx = Context::default();
//! let frontier = Vector::indicator(256, &[0]);
//! let mut visited = vec![false; 256];
//! visited[0] = true;
//! let next = Op::vxm(&frontier, &graph)
//!     .semiring(Semiring::Boolean)
//!     .mask(&Mask::complemented(visited))
//!     .run(&ctx);
//! assert_eq!(next.nnz(), 2, "vertex 0 of the grid has two neighbours");
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use bitgblas_algorithms as algorithms;
pub use bitgblas_bitops as bitops;
pub use bitgblas_core as core;
pub use bitgblas_datagen as datagen;
pub use bitgblas_perfmodel as perfmodel;
pub use bitgblas_serve as serve;
pub use bitgblas_sparse as sparse;

/// The most commonly used items, for `use bit_graphblas::prelude::*`.
pub mod prelude {
    pub use bitgblas_algorithms::{
        bfs, bfs_dir, bfs_multi, connected_components, pagerank, ppr, ppr_multi, sssp, sssp_dir,
        sssp_multi, sssp_with, triangle_count, PageRankConfig, PprConfig,
    };
    pub use bitgblas_core::grb::{
        Context, Descriptor, Direction, Expr, Fusion, GrbBackend, LaneBits, Mask, MultiVec,
        NodeBits, Op, Snapshot,
    };
    pub use bitgblas_core::{
        B2srMatrix, Backend, BinaryOp, EdgeDelta, Matrix, Semiring, TileSize, Vector,
    };
    pub use bitgblas_sparse::{Coo, Csr, DenseVec};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable_together() {
        let adj = crate::datagen::generators::cycle(32);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S4));
        assert_eq!(triangle_count(&m), 0);
        let cc = connected_components(&m);
        assert_eq!(cc.n_components, 1);
        let pr = pagerank(&m, &PageRankConfig::default());
        assert!((pr.ranks.iter().sum::<f32>() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn facade_serves_queries() {
        use crate::serve::{GraphService, Query, Tick};
        let adj = crate::datagen::generators::cycle(32);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S4));
        let mut svc = GraphService::builder(&m).coalescing_window(1).build();
        let ticket = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
        svc.pump(Tick(1));
        assert!(svc.take_result(ticket).unwrap().is_ok());
    }
}
