//! # bitgblas-datagen
//!
//! Synthetic workload generation for the Bit-GraphBLAS reproduction.
//!
//! The paper evaluates on all 521 binary square matrices of the SuiteSparse
//! Matrix Collection and groups them into six structural categories
//! (Table V): *dot* (random scatter), *diagonal*, *block*, *stripe*, *road*
//! (regular grid-like) and *hybrid*.  The collection is not available in this
//! offline environment, so this crate generates a synthetic corpus with the
//! same structural classes and comparable sizes/densities:
//!
//! * [`generators`] — seeded graph/matrix generators for every category
//!   (Erdős–Rényi, R-MAT/Kronecker power-law, banded/diagonal, block
//!   community, stripes, 2-D/3-D grids, Mycielskian, and small classics);
//! * [`mod@classify`] — a structural classifier reproducing the Table V
//!   categorisation;
//! * [`corpus`] — a named catalogue of stand-ins for the matrices that appear
//!   in the paper's per-matrix tables (delaunay_n14, ash292, mycielskian9,
//!   3dtube, …) plus a parameterised "521-matrix-like" sweep used by the
//!   compression histogram experiment (Figure 5).
//!
//! All generators are deterministic given a seed, so every paper-table
//! binary of `bitgblas-bench` is exactly reproducible.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod classify;
pub mod corpus;
pub mod generators;

pub use classify::{classify, PatternCategory};
pub use corpus::{corpus_sweep, named_matrix, named_matrix_list, CorpusEntry};
