//! # bitgblas-bitops
//!
//! Bit-manipulation substrate for the Bit-GraphBLAS reproduction.
//!
//! The original system is built on CUDA warp intrinsics:
//!
//! * `__popc()` — population count of a 32-bit word (bit-dot-product when
//!   paired with a bitwise AND),
//! * `__ballot_sync()` — warp vote collecting one predicate bit per lane into a
//!   32-bit word (a 90° clockwise rotation of a bit-column into a bit-row),
//! * `__brev()` — bit reversal (paired with ballot it gives the anticlockwise
//!   rotation used for column-major packing),
//! * `__shfl_sync()` — broadcast of a register value from one lane to the whole
//!   warp (used to stream the B tile's bit-rows through every lane during BMM).
//!
//! No GPU is available in this environment, so the reproduction runs these
//! as ordinary word operations on the CPU.  The kernels in `bitgblas-core`
//! are written against the [`word::BitWord`] abstraction over the packing
//! word sizes used by the four B2SR variants (`u8` for 4×4 and 8×8 tiles,
//! `u16` for 16×16, `u32` for 32×32): one word is one tile row, `popcount`
//! / `iter_ones` / bitwise AND-OR on it are the per-lane work of the
//! paper's listings, and a tile-row of the matrix stands where a warp
//! does (Rayon tasks instead of SM schedulers), so no software shuffle is
//! needed.  [`intrinsics`] holds the ballot/brev pair [`pack`]'s tile
//! packing is built from, and [`pack`] the low-level packing helpers.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod intrinsics;
pub mod pack;
pub mod word;

pub use word::{pack_chunk_u64_generic, BitWord};
