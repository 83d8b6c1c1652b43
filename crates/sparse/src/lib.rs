//! # bitgblas-sparse
//!
//! Sparse-matrix substrate for the Bit-GraphBLAS reproduction.
//!
//! The paper builds B2SR on top of conventional sparse formats and compares
//! its kernels against cuSPARSE's CSR SpMV/SpGEMM and against GraphBLAST.
//! Neither library is available here, so this crate implements the substrate
//! from scratch:
//!
//! * the classic storage formats — [`coo::Coo`] and [`csr::Csr`];
//! * conversions between them (`csr2csc` is [`csr::Csr::transpose`]; the
//!   block-level `csr2bsr` step the paper obtains from cuSPARSE is the upper
//!   level of `bitgblas-core`'s B2SR converter);
//! * dense vectors ([`dense::DenseVec`]);
//! * Matrix Market I/O ([`io`]) so real SuiteSparse files can be loaded when
//!   available;
//! * reference full-precision kernels ([`ops`]): row-parallel CSR SpMV,
//!   semiring SpMV and Gustavson SpGEMM.  These are the stand-ins for the
//!   cuSPARSE/GraphBLAST baselines in every experiment.
//!
//! All matrices store `f32` values, matching the "32-bit floating-point CSR"
//! baseline configuration used throughout the paper's evaluation.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod ops;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::DenseVec;
pub use error::SparseError;
