//! # bitgblas-perfmodel
//!
//! Architecture-dependent performance modelling for the Bit-GraphBLAS
//! reproduction.
//!
//! The paper's evaluation runs on two NVIDIA GPUs (a Pascal GTX 1080 and a
//! Volta Titan V, Table VI) and explains part of B2SR's advantage with
//! memory-system effects: for `mycielskian8` the number of global-memory load
//! transactions drops 4× (6630 → 1826) and the L1 hit rate rises from 65.6 %
//! to 81.8 % (§VI-C).  No GPU is available in this environment, so this crate
//! provides the analytic counterpart used by the experiment harness:
//!
//! * [`device`] — the two device profiles with the memory-hierarchy numbers
//!   of Table VI;
//! * [`traffic`] — a memory-transaction model that walks the exact access
//!   streams of the CSR SpMV baseline and of the B2SR BMV kernel, coalesces
//!   them into transactions of the device's width, and runs them through a
//!   small cache simulator to estimate L1 hit rates;
//! * [`estimate`] — bandwidth-bound time estimates derived from the traffic,
//!   used to reproduce the architecture-dependent observations (Volta's
//!   higher bandwidth helping the float baseline more than the bit kernels);
//! * [`b2sr`] — the paper's storage census (Table I, Figures 3 and 5) and
//!   its sampling profile (Algorithm 1), counted from the tile layout.
//!
//! The B2SR-side entry points take a [`B2srLayout`] — the upper-level tile
//! structure, computable from a CSR matrix *without* converting it — so the
//! model can score hypothetical conversions.  The paper-figure binaries of
//! `bitgblas-bench` and the repo benchmark read it; the engine does not
//! (`bitgblas-core` depends on neither this crate nor `bitgblas-datagen`),
//! and this crate deliberately does not depend on `bitgblas-core`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod b2sr;
pub mod cache;
pub mod device;
pub mod estimate;
pub mod traffic;

pub use device::{pascal_gtx1080, volta_titanv, DeviceProfile};
pub use estimate::{estimate_b2sr_bmv, estimate_csr_spmv, speedup_estimate, KernelEstimate};
pub use traffic::{b2sr_bmv_traffic, compare_traffic, csr_spmv_traffic, B2srLayout, MemoryTraffic};
