//! A GraphBLAS-style object API over the Bit-GraphBLAS kernels.
//!
//! The paper presents Bit-GraphBLAS as a drop-in acceleration of the
//! GraphBLAS execution model: graph algorithms are written against matrix /
//! vector objects and semiring operations (`mxv`, `vxm`, `mxm`, `reduce`,
//! element-wise ops with masks), and the framework decides how the adjacency
//! matrix is stored and which kernel implements each operation.
//!
//! This module provides that layer around one built storage type,
//! [`BitB2sr`], with three ways to pick what it holds:
//!
//! * [`Backend::Bit`] — the adjacency matrix is stored in B2SR where its
//!   tiles fill and the operations run on the bit kernels of
//!   [`crate::kernels`] (the paper's contribution);
//! * [`Backend::FloatCsr`] — the adjacency matrix stays in CSR and every
//!   operation runs on `f32` over it (the GraphBLAST/cuSPARSE stand-in
//!   baseline): a [`BitB2sr`] without tiles;
//! * [`Backend::Auto`] — the framework decides per matrix: `Bit` at the
//!   widest tile size whose counted tiles fill (see [`auto`]).
//!
//! # Lazy expressions and fusion (GraphBLAS non-blocking mode)
//!
//! Operations are assembled with the builder API of [`op`], but the
//! builders are **lazy**: each call grows an expression chain
//! ([`expr::Expr`]) and nothing executes until `.run(&ctx)` /
//! [`Context::evaluate`] hands the chain to the planner ([`plan`]):
//!
//! ```text
//! Op::vxm(&rank, &a)                 // lazy: builds an Expr…
//!     .scale_input(&inv_deg)
//!     .semiring(Semiring::Arithmetic)
//!     .affine(alpha, teleport)
//!     .accum(BinaryOp::Plus, &w)     // GraphBLAS accumulator, first-class
//!     .run(&ctx)                     // …planned + fused here
//! ```
//!
//! The planner pattern-matches fusable shapes — mxv+mask+accum into one
//! masked kernel sweep, apply/select folded into the consuming ewise pass,
//! ewise chains collapsed into a single loop.  Every product reaches the
//! built backend as one [`MxvPipeline`] — through [`BitB2sr::mxv_into`] for
//! a vector, [`BitB2sr::mxm_into`] for a multi-vector: the whole chain when
//! it fuses, the bare product otherwise (and under
//! [`expr::Fusion::NodeAtATime`]), with the planner running the rest of the
//! chain itself — so semantics never depend on what fused.  A matrix with
//! pending edge deltas runs the same call, then its delta overlay re-folds
//! the dirty rows the operand reaches.  Pipelines draw all scratch from the
//! context's [`Workspace`] pool and allocate nothing in steady state.
//!
//! # Batched multi-source traversal (frontier matrices)
//!
//! The op layer also works on **multi-vectors** ([`MultiVec`]: dense
//! `n × k` frontier matrices, one lane per concurrent query): [`Op::mxm`]
//! advances `k` traversals with a single sweep that loads each adjacency
//! tile once and applies it to every lane (on the bit backend, Boolean
//! lanes pack into `u64` words and one `OR` per edge serves up to 64
//! queries).  A vector is the one-lane multi-vector, and the front end says
//! so once: the expression type, the product builder, the planner path and
//! `Context::{evaluate, recycle}` are generic in the [`Operand`] shape, so
//! batched chains take flat per-lane masks, stages, accumulators and
//! [`Direction::Auto`] (priced per product kind, see [`choose_direction`])
//! through the same code as `mxv` chains; `sssp_multi` and `ppr_multi` in
//! `bitgblas-algorithms` ride on it.  A Boolean
//! batch does not have to come back to `f32` between operations at all:
//! [`LaneBits`] holds the `n × k` lanes as words and [`Op::mxm_lanes`] is the
//! product `next = (A ⊕.⊗ frontier) & !excluded` over them — what
//! `bfs_multi` runs on a bit backend.  The single vector has the same:
//! [`NodeBits`] is `n` Boolean entries in words and [`Op::vxm_bits`] the
//! masked Boolean `vxm` over them — what `bfs` runs, with frontier and
//! visited set binarized from round to round as in the paper (§V) — and a
//! batch of one lane is that vector ([`Op::mxm_bits`]).  All three are one
//! builder and one planner path over the sealed [`WordOperand`] kinds.
//!
//! # Serial push execution
//!
//! Every push (sparse-frontier scatter) runs its serial kernel once over the
//! whole ascending frontier, so its folds group alike whatever the host's
//! thread count; the pulls fan out over rayon.  [`Direction::Auto`]'s
//! scatter penalty is therefore parallelism-aware: a push edge is priced
//! against the pull sweep's parallelism ([`choose_direction`]).
//!
//! `bitgblas-algorithms` writes each graph algorithm once against this API
//! and the benchmarks toggle the backend, exactly as the paper compares
//! Bit-GraphBLAS to GraphBLAST.  (The pre-0.2 free-function shims were
//! removed in PR 3; the builders are the only entry point.)

pub mod auto;
pub mod backend;
pub mod descriptor;
pub mod direction;
pub mod error;
pub mod ewise;
pub mod expr;
pub mod lanebits;
pub mod matrix;
pub mod multivec;
pub mod nodebits;
pub mod op;
pub mod plan;
pub mod vector;
pub mod workspace;

pub use auto::{auto_decision, AutoDecision};
pub use backend::BitB2sr;
pub use descriptor::{Descriptor, Mask};
pub use direction::{choose_direction, Direction};
pub use error::GrbError;
pub use ewise::assign_masked;
pub use expr::{Expr, Fusion, Operand, Stage, MAX_STAGES};
pub use lanebits::LaneBits;
pub use matrix::{Backend, Matrix, Snapshot};
pub use multivec::{lane_words_per_node, MultiVec};
pub use nodebits::NodeBits;
pub use op::{Context, Op};
pub use plan::{MxvPipeline, WordOperand};
pub use vector::Vector;
pub use workspace::{ExecCounts, ExecStats, Workspace};
