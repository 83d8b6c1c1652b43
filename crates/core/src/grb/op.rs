//! The builder-style operation API: [`Context`] and [`Op`].
//!
//! GraphBLAS operations carry several optional modifiers (mask, descriptor,
//! semiring, accumulator); operations are assembled with a builder and
//! executed against a [`Context`]:
//!
//! ```
//! use bitgblas_core::grb::{Context, Op, Mask};
//! use bitgblas_core::{Backend, Matrix, Semiring, Vector};
//! # use bitgblas_sparse::Coo;
//! # let mut coo = Coo::new(4, 4);
//! # coo.push_edge(0, 1).unwrap();
//! # coo.push_edge(1, 2).unwrap();
//! # let csr = coo.to_binary_csr();
//!
//! let ctx = Context::default();
//! let a = Matrix::from_csr_ctx(&csr, Backend::Auto, &ctx);
//! let frontier = Vector::indicator(4, &[0]);
//! let visited = Mask::complemented(vec![true, false, false, false]);
//!
//! let next = Op::vxm(&frontier, &a)
//!     .semiring(Semiring::Boolean)
//!     .mask(&visited)
//!     .run(&ctx);
//! assert_eq!(next.get(1), 1.0);
//! ```
//!
//! Since PR 3 the builders are **lazy**: each method call only grows an
//! expression chain ([`Expr`]), and nothing executes until `.run(&ctx)` —
//! shorthand for [`Context::evaluate`] — hands the chain to the planner
//! ([`super::plan`]), which fuses mask, element-wise stages and the
//! accumulator into as few kernel sweeps as the shape allows.  A whole
//! PageRank iteration is one expression:
//!
//! ```text
//! Op::vxm(&rank, &a)                  // contributions along the edges…
//!     .scale_input(&inv_out_degree)   //   …of rank[u] / deg(u)
//!     .semiring(Semiring::Arithmetic)
//!     .affine(alpha, teleport)        // α·contrib + teleport, fused into the sweep
//!     .run(&ctx)
//! ```
//!
//! and an SSSP relaxation round is `Op::vxm(&dist, &a).semiring(minplus)
//! .accum(BinaryOp::Min, &dist).run(&ctx)` — the GraphBLAS accumulator
//! (`w ⊕= A·x`) is a first-class node and folds into the same sweep.
//!
//! The [`Context`] owns the [`Workspace`] buffer pool every evaluation
//! draws from, and an optional fault injector.

use crate::faultinject::FaultInjector;
use crate::kernels::RowWords;
use crate::semiring::{BinaryOp, Semiring};

use super::backend::{all_bit, csr_mxm_reduce_masked};
use super::descriptor::{Descriptor, Mask};
use super::direction::Direction;
use super::error::GrbError;
use super::expr::{Expr, Fusion, Operand, Producer, Stage, MAX_STAGES};
use super::lanebits::LaneBits;
use super::matrix::Matrix;
use super::multivec::MultiVec;
use super::nodebits::NodeBits;
use super::plan::{self, WordOperand};
use super::vector::Vector;
use super::workspace::{ExecCounts, Workspace};

/// The execution resource operations run against: a context owns a
/// [`Workspace`], the pool of reusable buffers every evaluation draws its
/// output, packing and mask scratch from, plus the execution counters.
/// Reusing one context across a traversal loop (e.g. via
/// [`Matrix::context`](super::Matrix::context)) makes the loop's steady
/// state allocation-free.  [`Context::default`] has an empty pool and no
/// fault injector.
#[derive(Debug, Default)]
pub struct Context {
    /// The buffer pool and op counters (fresh in every clone).
    workspace: Workspace,
    /// Optional seeded fault injector (PR 7): when installed, the planner
    /// polls the `grb.mxv_dispatch` / `grb.mxm_dispatch` fail points before
    /// each product.  Interior-mutable so tests can arm a shared context.
    fault: std::sync::Mutex<Option<std::sync::Arc<crate::faultinject::FaultInjector>>>,
}

impl Clone for Context {
    /// Clones carry the installed fault injector only: the workspace is
    /// per-context scratch state, so each clone starts with an empty pool
    /// and zeroed counters.
    fn clone(&self) -> Self {
        Context {
            workspace: Workspace::new(),
            fault: std::sync::Mutex::new(self.fault_injector()),
        }
    }
}

impl Context {
    /// [`Context::default`], whatever `threads` says: no product reads a
    /// thread budget any more — every push runs its serial kernel and every
    /// pull fans out over the host's rayon pool.  Kept only because the repo
    /// benchmark's probes name it.
    ///
    /// ```
    /// use bitgblas_core::grb::{Context, Direction, Op};
    /// use bitgblas_core::{Backend, Matrix, Semiring, TileSize, Vector};
    /// # use bitgblas_sparse::Coo;
    /// # let mut coo = Coo::new(512, 512);
    /// # for i in 0..512 { coo.push_edge(i, (i + 1) % 512).unwrap(); }
    /// # let csr = coo.to_binary_csr();
    ///
    /// let frontier = Vector::indicator(512, &[0, 130, 260, 390]);
    /// let push = |ctx: &Context| {
    ///     let a = Matrix::from_csr_ctx(&csr, Backend::Bit(TileSize::S8), ctx);
    ///     Op::vxm(&frontier, &a)
    ///         .semiring(Semiring::Boolean)
    ///         .direction(Direction::Push)
    ///         .run(ctx)
    /// };
    /// let next = push(&Context::with_threads(4));
    /// assert_eq!(next.get(1), 1.0);
    /// assert_eq!(next, push(&Context::default()));
    /// ```
    pub fn with_threads(_threads: usize) -> Self {
        Self::default()
    }

    /// The buffer pool operations executed against this context draw from.
    pub fn workspace(&self) -> &Workspace {
        &self.workspace
    }

    /// A snapshot of this context's execution counters: how many products
    /// resolved to push vs pull, how many pipelines fused, and — exact work
    /// counts, not timings — how many frontier nodes
    /// ([`ExecCounts::push_frontier_nodes`]) and non-identity operand entries
    /// ([`ExecCounts::push_frontier_entries`]) the push products scattered
    /// from.  Read it before and after a run and subtract: "this loop does
    /// work proportional to what changed" is then an assertion (forced-push
    /// `sssp` adds exactly one node per reached vertex).
    pub fn stats(&self) -> ExecCounts {
        self.workspace.stats().snapshot()
    }

    /// Evaluate a lazy expression chain: plan it ([`super::plan`]), execute
    /// the fused (or node-at-a-time) sweeps, return the result — a
    /// [`Vector`] for an `mxv` / `vxm` / ewise chain, the `n × k`
    /// [`MultiVec`] for an `mxm` chain.  The builders' `.run(&ctx)` is
    /// shorthand for this.
    ///
    /// # Panics
    /// Panics on any precondition [`Context::try_evaluate`] would report as
    /// a [`GrbError`], with the error's `Display` text as the message.
    pub fn evaluate<V: Operand>(&self, expr: Expr<'_, V>) -> V {
        self.try_evaluate(expr).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Context::evaluate`]: shape/dimension violations (and
    /// injected transient faults) come back as a typed [`GrbError`] instead
    /// of a panic — the entry point a serving stack uses so one malformed
    /// chain cannot detonate a batch.
    #[must_use = "the typed error must be handled, not dropped"]
    pub fn try_evaluate<V: Operand>(&self, expr: Expr<'_, V>) -> Result<V, GrbError> {
        V::try_execute(&expr, self)
    }

    /// Return a finished vector's (or multi-vector's) buffer to the pool so
    /// the next operation can reuse it — the algorithm-side half of the
    /// zero-allocation steady state.
    pub fn recycle<V: Operand>(&self, v: V) {
        self.workspace.give(v.into_flat());
    }

    /// Install (or with `None`, remove) a seeded [`FaultInjector`] — the
    /// planner will poll its `grb.mxv_dispatch` / `grb.mxm_dispatch` fail
    /// points before every product dispatched through this context.
    /// Interior-mutable: callable on a shared context between runs.
    pub fn set_fault_injector(&self, injector: Option<std::sync::Arc<FaultInjector>>) {
        *self.fault.lock().expect("fault injector slot poisoned") = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<std::sync::Arc<FaultInjector>> {
        self.fault
            .lock()
            .expect("fault injector slot poisoned")
            .clone()
    }
}

/// Entry points of the builder API; each returns a lazy builder whose
/// `run(&ctx)` evaluates the assembled expression chain.
pub struct Op;

impl Op {
    /// `y = A ⊕.⊗ x`: matrix × vector.
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn mxv<'a>(a: &'a Matrix, x: &'a Vector) -> MxvBuilder<'a> {
        ProductBuilder::new(a, x, false)
    }

    /// `y = x ⊕.⊗ A`: vector × matrix (the push-direction traversal).
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn vxm<'a>(x: &'a Vector, a: &'a Matrix) -> MxvBuilder<'a> {
        ProductBuilder::new(a, x, true)
    }

    /// `Y = A ⊕.⊗ X`: matrix × multivector — `k` simultaneous traversals
    /// (one per lane of the `n × k` frontier matrix) advanced by a single
    /// sweep that loads each adjacency tile once and applies it to every
    /// lane.  It is the same builder as [`Op::mxv`] over the other
    /// [`Operand`] shape, so masks, stages, accumulators and
    /// [`Direction::Auto`] compose identically; use
    /// [`transpose`](ProductBuilder::transpose) for the `vxm`-per-column
    /// orientation a forward traversal wants.
    ///
    /// ```
    /// use bitgblas_core::grb::{Context, MultiVec, Op};
    /// use bitgblas_core::{Backend, Matrix, Semiring};
    /// # use bitgblas_sparse::Coo;
    /// # let mut coo = Coo::new(4, 4);
    /// # coo.push_edge(0, 1).unwrap();
    /// # coo.push_edge(2, 3).unwrap();
    /// # let csr = coo.to_binary_csr();
    ///
    /// let ctx = Context::default();
    /// let a = Matrix::from_csr_ctx(&csr, Backend::Auto, &ctx);
    /// // Two concurrent BFS frontiers: lane 0 from vertex 0, lane 1 from 2.
    /// let frontier = MultiVec::from_sources(4, &[0, 2]);
    /// let next = Op::mxm(&a, &frontier)
    ///     .transpose() // advance along the edges: Aᵀ·F, one hop per lane
    ///     .semiring(Semiring::Boolean)
    ///     .run(&ctx);
    /// assert_eq!(next.get(1, 0), 1.0, "lane 0 reached vertex 1");
    /// assert_eq!(next.get(3, 1), 1.0, "lane 1 reached vertex 3");
    /// ```
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn mxm<'a>(a: &'a Matrix, x: &'a MultiVec) -> MxmBuilder<'a> {
        ProductBuilder::new(a, x, false)
    }

    /// `next = (A ⊕.⊗ frontier) & !excluded` over the Boolean semiring with
    /// the `n × k` lanes held as words ([`LaneBits`]) on both sides — the
    /// [`Op::mxm`] of a batched Boolean traversal, for loops that keep their
    /// frontier and visited sets binarized between rounds (`bfs_multi`).
    /// Takes the builders' [`transpose`](LaneProductBuilder::transpose) and
    /// [`direction`](LaneProductBuilder::direction) switches;
    /// [`try_run`](LaneProductBuilder::try_run) reports whether the matrix's
    /// backend has a word product at all.
    ///
    /// ```
    /// use bitgblas_core::grb::{Context, LaneBits, Op};
    /// use bitgblas_core::{Backend, Matrix, TileSize};
    /// # use bitgblas_sparse::Coo;
    /// # let mut coo = Coo::new(4, 4);
    /// # coo.push_undirected_edge(0, 1).unwrap();
    /// # coo.push_undirected_edge(1, 2).unwrap();
    /// # let csr = coo.to_binary_csr();
    ///
    /// let ctx = Context::default();
    /// let a = Matrix::from_csr_ctx(&csr, Backend::Bit(TileSize::S8), &ctx);
    /// // Two traversals, from vertices 1 and 2; both have seen their source.
    /// let frontier = LaneBits::from_sources(4, &[1, 2]);
    /// let next = Op::mxm_lanes(&a, &frontier)
    ///     .transpose()
    ///     .and_not(&frontier)
    ///     .try_run(&ctx)
    ///     .unwrap()
    ///     .expect("a built bit backend has the word product");
    /// assert_eq!(next.ones().collect::<Vec<_>>(), vec![(0, 0), (1, 1), (2, 0)]);
    ///
    /// // The float baseline has none: run the `f32` chain instead.
    /// let f = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
    /// assert!(Op::mxm_lanes(&f, &frontier).try_run(&ctx).unwrap().is_none());
    /// ```
    #[must_use = "builders do nothing until try_run(&ctx)"]
    pub fn mxm_lanes<'a>(a: &'a Matrix, x: &'a LaneBits) -> LaneProductBuilder<'a> {
        WordProductBuilder::new(a, x, false)
    }

    /// `next = (frontier ⊕.⊗ A) & !excluded` over the Boolean semiring with
    /// the vector held as bits ([`NodeBits`]) on both sides — the masked
    /// Boolean [`Op::vxm`] of a traversal that keeps its frontier and visited
    /// set binarized between rounds (`bfs`), as the paper's BFS does (§V).
    /// Same builder as [`Op::mxm_lanes`]: the
    /// [`and_not`](WordProductBuilder::and_not),
    /// [`transpose`](WordProductBuilder::transpose) and
    /// [`direction`](WordProductBuilder::direction) switches, and
    /// [`try_run`](WordProductBuilder::try_run) reports whether the matrix's
    /// backend has a word product at all.  It counts (`pull_mxv` /
    /// `push_mxv`) and fails (`grb.mxv_dispatch`) as the `vxm` it replaces.
    ///
    /// ```
    /// use bitgblas_core::grb::{Context, NodeBits, Op};
    /// use bitgblas_core::{Backend, Matrix, TileSize};
    /// # use bitgblas_sparse::Coo;
    /// # let mut coo = Coo::new(4, 4);
    /// # coo.push_edge(0, 1).unwrap();
    /// # coo.push_edge(1, 2).unwrap();
    /// # coo.push_edge(1, 0).unwrap();
    /// # let csr = coo.to_binary_csr();
    ///
    /// let ctx = Context::default();
    /// let a = Matrix::from_csr_ctx(&csr, Backend::Bit(TileSize::S8), &ctx);
    /// // One traversal, at vertex 1, having seen 0 and 1.
    /// let frontier = NodeBits::from_indices(4, &[1]);
    /// let visited = NodeBits::from_indices(4, &[0, 1]);
    /// let next = Op::vxm_bits(&frontier, &a)
    ///     .and_not(&visited)
    ///     .try_run(&ctx)
    ///     .unwrap()
    ///     .expect("a built bit backend has the word product");
    /// assert_eq!(next.ones().collect::<Vec<_>>(), vec![2]);
    /// assert_eq!(ctx.stats().converted_elems, 0);
    ///
    /// // The float baseline has none: run the `f32` chain instead.
    /// let f = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
    /// assert!(Op::vxm_bits(&frontier, &f).try_run(&ctx).unwrap().is_none());
    /// ```
    #[must_use = "builders do nothing until try_run(&ctx)"]
    pub fn vxm_bits<'a>(x: &'a NodeBits, a: &'a Matrix) -> WordProductBuilder<'a, NodeBits> {
        WordProductBuilder::new(a, x, true)
    }

    /// [`Op::mxm_lanes`] for a batch of **one** lane, held as [`NodeBits`]
    /// rather than as a `u64` per node carrying one bit: `next = (A ⊕.⊗
    /// frontier) & !excluded` ([`transpose`](WordProductBuilder::transpose)
    /// advances along the edges, as on [`Op::mxm`]).  The product is
    /// [`Op::vxm_bits`]'s; what makes it a batch is what it tells the rest of
    /// the system — it counts `pull_mxm` / `push_mxm` and polls
    /// `grb.mxm_dispatch`, like every other `mxm` — so a one-source
    /// `bfs_multi` keeps the observable contract of the batch it is.
    #[must_use = "builders do nothing until try_run(&ctx)"]
    pub fn mxm_bits<'a>(
        a: &'a Matrix,
        x: &'a NodeBits,
    ) -> WordProductBuilder<'a, NodeBits, MultiVec> {
        WordProductBuilder::new(a, x, false)
    }

    /// `Σ (mask .* (A · B))`: masked matrix product reduced to a scalar (the
    /// Triangle Counting primitive; `.transpose_b()` makes it `A · Bᵀ`, the
    /// orientation the kernels run in).  Already a fully fused kernel, so it
    /// takes no further chain stages.
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn mxm_reduce<'a>(a: &'a Matrix, b: &'a Matrix, mask: &'a Matrix) -> MxmReduceBuilder<'a> {
        MxmReduceBuilder {
            a,
            b,
            mask,
            desc: Descriptor::default(),
        }
    }

    /// Reduce a vector with a semiring's additive monoid.
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn reduce(x: &Vector) -> ReduceBuilder<'_> {
        ReduceBuilder {
            expr: Expr::leaf(x),
            semiring: Semiring::Arithmetic,
        }
    }

    /// Element-wise `out[i] = a[i] ⊕ b[i]` (extendable into a chain).
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn ewise_add<'a>(a: &'a Vector, b: &'a Vector) -> EwiseBuilder<'a> {
        EwiseBuilder::new(a).ewise_add(b)
    }

    /// Element-wise `out[i] = a[i] ⊗ b[i]` (extendable into a chain).
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn ewise_mult<'a>(a: &'a Vector, b: &'a Vector) -> EwiseBuilder<'a> {
        EwiseBuilder::new(a).ewise_mult(b)
    }

    /// `out[i] = f(x[i])` (GraphBLAS `apply`).
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn apply<F: Fn(f32) -> f32 + Sync>(x: &Vector, f: F) -> ApplyBuilder<'_, F> {
        ApplyBuilder { x, f }
    }

    /// Indicator of entries satisfying `pred` (GraphBLAS `select`).
    #[must_use = "builders do nothing until run(&ctx)"]
    pub fn select<F: Fn(f32) -> bool + Sync>(x: &Vector, pred: F) -> SelectBuilder<'_, F> {
        SelectBuilder { x, pred }
    }
}

/// Builder for matrix-product chains, generic in the [`Operand`] shape:
/// [`MxvBuilder`] (created by [`Op::mxv`] / [`Op::vxm`]) and [`MxmBuilder`]
/// (created by [`Op::mxm`]) are its two aliases.
///
/// The matrix-product root takes the usual modifiers (semiring, mask,
/// descriptor, direction); element-wise stages appended after it
/// ([`affine`](ProductBuilder::affine), [`apply`](ProductBuilder::apply),
/// [`select`](ProductBuilder::select),
/// [`then_ewise`](ProductBuilder::then_ewise)) and a terminal accumulator
/// ([`accum`](ProductBuilder::accum)) fuse into the product sweep wherever
/// the planner's rules allow.
///
/// For a batched (`mxm`) chain everything addresses the **flat** node-major
/// `n × k` storage: the mask is flat per-lane (length `n · k`, position
/// `i*k + l` gates node `i` of lane `l`), so `k` traversals with `k`
/// different visited sets share one masked sweep — exactly what `bfs_multi`
/// does; stage operands and the accumulator baseline are multi-vectors of
/// the output's shape; and [`Direction::Auto`] prices the frontier the way
/// the batched scatter pays for it — its nodes (any lane active) for the
/// Boolean lane-word product, its non-identity `(node, lane)` entries for a
/// full-precision one (see [`choose_direction`](super::choose_direction)).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct ProductBuilder<'a, V: Operand> {
    a: &'a Matrix,
    x: &'a V,
    semiring: Semiring,
    mask: Option<&'a Mask>,
    desc: Descriptor,
    flip: bool,
    scale: Option<&'a Vector>,
    /// The expression under construction.  It carries the stage list,
    /// accumulator and fusion mode; its (leaf) producer is a placeholder
    /// that [`build`](ProductBuilder::build) replaces with the finished
    /// matrix-product root once all modifiers are known.
    chain: Expr<'a, V>,
}

/// Builder for `mxv` / `vxm` chains (created by [`Op::mxv`] / [`Op::vxm`]).
pub type MxvBuilder<'a> = ProductBuilder<'a, Vector>;

/// Builder for batched `mxm` (matrix × multivector) chains (created by
/// [`Op::mxm`]).
pub type MxmBuilder<'a> = ProductBuilder<'a, MultiVec>;

impl<'a, V: Operand> ProductBuilder<'a, V> {
    fn new(a: &'a Matrix, x: &'a V, flip: bool) -> Self {
        ProductBuilder {
            a,
            x,
            semiring: Semiring::Arithmetic,
            mask: None,
            desc: Descriptor::new(),
            flip,
            scale: None,
            chain: Expr::leaf(x),
        }
    }

    /// Use the given semiring (default: arithmetic).
    pub fn semiring(mut self, semiring: Semiring) -> Self {
        self.semiring = semiring;
        self
    }

    /// Write only where the mask over the flat output allows.
    pub fn mask(mut self, mask: &'a Mask) -> Self {
        self.mask = Some(mask);
        self
    }

    /// Use the given descriptor.
    pub fn desc(mut self, desc: Descriptor) -> Self {
        self.desc = desc;
        self
    }

    /// Shorthand for setting the descriptor's transpose flag.  On `mxm` this
    /// is `Y = Aᵀ ⊕.⊗ X` — the per-column `vxm` orientation a forward
    /// traversal uses (the push scatter then walks `A` itself, like
    /// single-vector `vxm`).
    pub fn transpose(mut self) -> Self {
        self.desc.transpose = true;
        self
    }

    /// Use the given traversal direction (default: [`Direction::Auto`],
    /// which picks push or pull per operation from the frontier density).
    pub fn direction(mut self, direction: Direction) -> Self {
        self.desc.direction = direction;
        self
    }

    /// Control whether the planner may fuse this chain (default:
    /// [`Fusion::Fused`]).  [`Fusion::NodeAtATime`] forces the defining
    /// one-sweep-per-node execution — the parity and benchmark baseline.
    pub fn fusion(mut self, fusion: Fusion) -> Self {
        self.chain.set_fusion(fusion);
        self
    }

    /// Read the operand as `x[i,l] · scale[i]` without materialising a
    /// scaled copy through the API (PageRank's out-degree normalisation;
    /// `scale` has one entry per node, broadcast across lanes).
    pub fn scale_input(mut self, scale: &'a Vector) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Append `t = mul·t + add` to the chain — the fusion-friendly affine
    /// `apply` (PageRank's `α·contrib + teleport`).
    pub fn affine(mut self, mul: f32, add: f32) -> Self {
        self.chain.push_stage(Stage::Affine { mul, add });
        self
    }

    /// Append `t = f(t)` to the chain (GraphBLAS `apply`).  The closure is
    /// taken by reference so the chain stays allocation-free; bind it to a
    /// local before building the expression.
    pub fn apply<F: Fn(f32) -> f32 + Sync>(mut self, f: &'a F) -> Self {
        self.chain.push_stage(Stage::Apply(f));
        self
    }

    /// Append `t = if pred(t) { 1.0 } else { 0.0 }` to the chain
    /// (GraphBLAS `select`).
    pub fn select<F: Fn(f32) -> bool + Sync>(mut self, pred: &'a F) -> Self {
        self.chain.push_stage(Stage::Select(pred));
        self
    }

    /// Append `t = op(t, operand[i])` to the chain — one collapsed ewise
    /// link with an explicit operator, against an operand of the output's
    /// shape.
    pub fn then_ewise(mut self, op: BinaryOp, operand: &'a V) -> Self {
        self.chain.push_stage(Stage::Ewise {
            op,
            operand: operand.flat(),
        });
        self
    }

    /// Terminate the chain with the GraphBLAS accumulator `out = w ⊕ t`.
    /// When `op` is the semiring's additive monoid the accumulation folds
    /// into the single-vector product sweep itself (SSSP's
    /// `dist = min(dist, relaxed)`).
    pub fn accum(mut self, op: BinaryOp, w: &'a V) -> Self {
        self.chain.set_accum(op, w);
        self
    }

    /// Assemble the lazy expression chain without running it.
    pub fn build(self) -> Expr<'a, V> {
        let mut e = self.chain;
        e.producer = Producer::Product {
            a: self.a,
            x: self.x,
            semiring: self.semiring,
            mask: self.mask,
            desc: self.desc,
            flip: self.flip,
            scale: self.scale,
        };
        e
    }

    /// Evaluate the chain against the context ([`Context::evaluate`]).
    ///
    /// # Panics
    /// Panics on shape/dimension violations; [`ProductBuilder::try_run`] is
    /// the fallible form.
    pub fn run(self, ctx: &Context) -> V {
        ctx.evaluate(self.build())
    }

    /// Evaluate the chain, reporting precondition violations as a typed
    /// [`GrbError`] instead of panicking ([`Context::try_evaluate`]).
    #[must_use = "the typed error must be handled, not dropped"]
    pub fn try_run(self, ctx: &Context) -> Result<V, GrbError> {
        ctx.try_evaluate(self.build())
    }
}

/// Builder for the Boolean product over words: `X` is the operand kept in
/// bits between operations — [`LaneBits`] ([`Op::mxm_lanes`]) or [`NodeBits`]
/// ([`Op::vxm_bits`], [`Op::mxm_bits`]) — and `V` the [`Operand`] shape whose
/// `f32` product it stands in for: it names the counters the product moves
/// and the fail point it polls.
#[must_use = "builders do nothing until try_run(&ctx)"]
pub struct WordProductBuilder<'a, X, V = Vector> {
    a: &'a Matrix,
    x: &'a X,
    excluded: Option<&'a X>,
    desc: Descriptor,
    flip: bool,
    replaces: std::marker::PhantomData<V>,
}

/// Builder for the batched Boolean product over lane words (created by
/// [`Op::mxm_lanes`]).
pub type LaneProductBuilder<'a> = WordProductBuilder<'a, LaneBits, MultiVec>;

impl<'a, X: WordOperand, V: Operand> WordProductBuilder<'a, X, V> {
    fn new(a: &'a Matrix, x: &'a X, flip: bool) -> Self {
        WordProductBuilder {
            a,
            x,
            excluded: None,
            desc: Descriptor::default(),
            flip,
            replaces: std::marker::PhantomData,
        }
    }

    /// Clear the set bits of `excluded` (the output's shape) from the
    /// result — a complemented mask, applied as a word AND-NOT at the store.
    pub fn and_not(mut self, excluded: &'a X) -> Self {
        self.excluded = Some(excluded);
        self
    }

    /// Set the descriptor's transpose flag, as on [`Op::mxm`] / [`Op::vxm`]:
    /// `Aᵀ ⊕.⊗ X` advances a batch along the edges.
    pub fn transpose(mut self) -> Self {
        self.desc.transpose = true;
        self
    }

    /// Use the given traversal direction (default: [`Direction::Auto`],
    /// priced by the nodes holding a set bit — exactly as the Boolean `f32`
    /// product prices the same frontier).
    pub fn direction(mut self, direction: Direction) -> Self {
        self.desc.direction = direction;
        self
    }

    /// Run the product.  `Ok(None)` means the matrix has no word product —
    /// it is the float baseline,
    /// [`Backend::FloatCsr`](super::Backend::FloatCsr) — and nothing ran (no
    /// counter moved, no fail point was polled): run the `f32` chain
    /// instead.  A `Backend::Bit` matrix has it, built or read through
    /// pending deltas.
    /// `Ok(Some(next))` draws `next`'s buffer from the context's pool
    /// (`next.recycle(&ctx)` returns it).  Shape violations and an injected
    /// dispatch transient come back as a typed [`GrbError`].
    #[must_use = "the typed error must be handled, not dropped"]
    pub fn try_run(self, ctx: &Context) -> Result<Option<X>, GrbError> {
        plan::execute_word_product::<X, V>(self.a, self.x, self.excluded, self.desc, self.flip, ctx)
    }
}

/// Builder for the masked matrix-product reduction (created by
/// [`Op::mxm_reduce`]).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct MxmReduceBuilder<'a> {
    a: &'a Matrix,
    b: &'a Matrix,
    mask: &'a Matrix,
    desc: Descriptor,
}

impl MxmReduceBuilder<'_> {
    /// Use the given descriptor; its transpose flag applies to `b`.
    pub fn desc(mut self, desc: Descriptor) -> Self {
        self.desc = desc;
        self
    }

    /// Shorthand for setting the descriptor's transpose flag:
    /// `Σ (mask .* (A · Bᵀ))`.  Both factors are then read by rows, so no
    /// transpose of `b` is built.
    pub fn transpose_b(mut self) -> Self {
        self.desc.transpose = true;
        self
    }

    /// Execute on the operands' backends: three operands tiled alike
    /// intersect tiles, any other triple — mixed backends or tile sizes, a
    /// matrix without tiles or with pending deltas — counts over the CSR
    /// views: in 64-column row words when all three are `Backend::Bit`, by
    /// column index otherwise.
    ///
    /// # Panics
    /// Panics on shape violations; [`MxmReduceBuilder::try_run`] is the
    /// fallible form.
    pub fn run(self, ctx: &Context) -> f64 {
        self.try_run(ctx).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute, reporting an inner-dimension or mask-shape violation as a
    /// typed [`GrbError`] instead of panicking.
    #[must_use = "the typed error must be handled, not dropped"]
    pub fn try_run(self, ctx: &Context) -> Result<f64, GrbError> {
        let (a, b, mask) = (self.a, self.b, self.mask);
        let transpose_b = self.desc.transpose;
        // op(B) is `inner × cols`.
        let (inner, cols) = if transpose_b {
            (b.ncols(), b.nrows())
        } else {
            (b.nrows(), b.ncols())
        };
        if a.ncols() != inner {
            return Err(GrbError::DimensionMismatch {
                op: "mxm",
                expected: a.ncols(),
                got: inner,
            });
        }
        let what = "mxm mask rows must equal the output rows";
        GrbError::check_len(what, a.nrows(), mask.nrows())?;
        let what = "mxm mask columns must equal the output columns";
        GrbError::check_len(what, cols, mask.ncols())?;
        ctx.workspace().stats().record_mxm_reduce();
        Ok(match (a.built(), b.built(), mask.built()) {
            (Some(a), Some(b), Some(mask)) => a.mxm_reduce_masked(b, mask, transpose_b),
            // Pending deltas: count over the merged CSR views, in words
            // packed for this call on bit matrices.
            _ => {
                let bt = if transpose_b { b.csr() } else { b.csr_t() };
                let bits = all_bit([a, b, mask].map(Matrix::resolved_backend));
                let words = bits.then(|| RowWords::from_csr(bt));
                csr_mxm_reduce_masked(a.csr(), bt, mask.csr(), words.as_ref())
            }
        })
    }
}

/// Builder for scalar reduction of an expression chain (created by
/// [`Op::reduce`] or [`EwiseBuilder::reduce`]).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct ReduceBuilder<'a> {
    expr: Expr<'a>,
    semiring: Semiring,
}

impl ReduceBuilder<'_> {
    /// Fold with the given semiring's additive monoid (default: arithmetic
    /// sum).
    pub fn semiring(mut self, semiring: Semiring) -> Self {
        self.semiring = semiring;
        self
    }

    /// Execute.  Leaf chains fold in a single fused pass without
    /// materialising the chain's result (`Op::ewise_mult(&a, &b).reduce()`
    /// is a dot product in one sweep).
    pub fn run(self, ctx: &Context) -> f32 {
        plan::execute_reduce(&self.expr, self.semiring, ctx)
    }
}

/// How one deferred ewise link resolves once the chain's semiring is known.
#[derive(Clone, Copy)]
enum EwiseSpec<'a> {
    /// `⊕` of the chain's semiring.
    Add(&'a Vector),
    /// `⊗` of the chain's semiring.
    Mult(&'a Vector),
    /// A fully-resolved stage (apply/select/affine/explicit-op ewise).
    Fixed(Stage<'a>),
}

/// Builder for element-wise chains over vectors (created by
/// [`Op::ewise_add`] / [`Op::ewise_mult`]).
///
/// Every appended link — further `ewise_*`, [`apply`](EwiseBuilder::apply),
/// [`select`](EwiseBuilder::select), [`affine`](EwiseBuilder::affine) —
/// collapses into a **single** sweep when the chain runs (or folds into a
/// scalar without materialising at all via [`reduce`](EwiseBuilder::reduce)).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct EwiseBuilder<'a> {
    first: &'a Vector,
    semiring: Semiring,
    fusion: Fusion,
    specs: [Option<EwiseSpec<'a>>; MAX_STAGES],
    n_specs: usize,
}

impl<'a> EwiseBuilder<'a> {
    fn new(first: &'a Vector) -> Self {
        EwiseBuilder {
            first,
            semiring: Semiring::Arithmetic,
            fusion: Fusion::Fused,
            specs: [None; MAX_STAGES],
            n_specs: 0,
        }
    }

    fn push_spec(&mut self, spec: EwiseSpec<'a>) {
        assert!(
            self.n_specs < MAX_STAGES,
            "expression chain exceeds {MAX_STAGES} stages; evaluate intermediate results"
        );
        self.specs[self.n_specs] = Some(spec);
        self.n_specs += 1;
    }

    /// Use the given semiring for every `ewise_add`/`ewise_mult` link
    /// (default: arithmetic).
    pub fn semiring(mut self, semiring: Semiring) -> Self {
        self.semiring = semiring;
        self
    }

    /// Control whether the planner may fuse this chain (default: fused).
    pub fn fusion(mut self, fusion: Fusion) -> Self {
        self.fusion = fusion;
        self
    }

    /// Append `t = t ⊕ operand[i]` (the semiring's additive monoid).
    pub fn ewise_add(mut self, operand: &'a Vector) -> Self {
        self.push_spec(EwiseSpec::Add(operand));
        self
    }

    /// Append `t = t ⊗ operand[i]` (the semiring's element-wise
    /// multiplication).
    pub fn ewise_mult(mut self, operand: &'a Vector) -> Self {
        self.push_spec(EwiseSpec::Mult(operand));
        self
    }

    /// Append `t = op(t, operand[i])` with an explicit operator.
    pub fn then_ewise(mut self, op: BinaryOp, operand: &'a Vector) -> Self {
        self.push_spec(EwiseSpec::Fixed(Stage::Ewise {
            op,
            operand: operand.as_slice(),
        }));
        self
    }

    /// Append `t = f(t)` (GraphBLAS `apply`; closure by reference).
    pub fn apply<F: Fn(f32) -> f32 + Sync>(mut self, f: &'a F) -> Self {
        self.push_spec(EwiseSpec::Fixed(Stage::Apply(f)));
        self
    }

    /// Append `t = if pred(t) { 1.0 } else { 0.0 }` (GraphBLAS `select`).
    pub fn select<F: Fn(f32) -> bool + Sync>(mut self, pred: &'a F) -> Self {
        self.push_spec(EwiseSpec::Fixed(Stage::Select(pred)));
        self
    }

    /// Append `t = mul·t + add`.
    pub fn affine(mut self, mul: f32, add: f32) -> Self {
        self.push_spec(EwiseSpec::Fixed(Stage::Affine { mul, add }));
        self
    }

    /// Assemble the lazy expression chain without running it.
    pub fn build(self) -> Expr<'a> {
        let mut e = Expr::leaf(self.first);
        for spec in self.specs[..self.n_specs].iter() {
            let stage = match spec.expect("spec slot") {
                EwiseSpec::Add(v) => Stage::Ewise {
                    op: BinaryOp::monoid_of(self.semiring),
                    operand: v.as_slice(),
                },
                EwiseSpec::Mult(v) => Stage::Ewise {
                    op: BinaryOp::mult_of(self.semiring),
                    operand: v.as_slice(),
                },
                EwiseSpec::Fixed(stage) => stage,
            };
            e.push_stage(stage);
        }
        e.set_fusion(self.fusion);
        e
    }

    /// Turn the chain into a scalar reduction (default fold: arithmetic
    /// sum; override with [`ReduceBuilder::semiring`]).
    pub fn reduce(self) -> ReduceBuilder<'a> {
        ReduceBuilder {
            expr: self.build(),
            semiring: Semiring::Arithmetic,
        }
    }

    /// Evaluate the chain against the context ([`Context::evaluate`]).
    pub fn run(self, ctx: &Context) -> Vector {
        ctx.evaluate(self.build())
    }
}

/// Builder for `apply` (created by [`Op::apply`]).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct ApplyBuilder<'a, F> {
    x: &'a Vector,
    f: F,
}

impl<F: Fn(f32) -> f32 + Sync> ApplyBuilder<'_, F> {
    /// Execute as a one-stage chain over the leaf vector.
    pub fn run(self, ctx: &Context) -> Vector {
        let mut e = Expr::leaf(self.x);
        e.push_stage(Stage::Apply(&self.f));
        ctx.evaluate(e)
    }
}

/// Builder for `select` (created by [`Op::select`]).
#[must_use = "builders do nothing until run(&ctx)"]
pub struct SelectBuilder<'a, F> {
    x: &'a Vector,
    pred: F,
}

impl<F: Fn(f32) -> bool + Sync> SelectBuilder<'_, F> {
    /// Execute as a one-stage chain over the leaf vector.
    pub fn run(self, ctx: &Context) -> Vector {
        let mut e = Expr::leaf(self.x);
        e.push_stage(Stage::Select(&self.pred));
        ctx.evaluate(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::b2sr::TileSize;
    use crate::faultinject::{FailSpec, FaultAction, FaultPlan};
    use crate::grb::matrix::Backend;
    use bitgblas_sparse::{Coo, Csr};

    fn sample(n: usize, seed: u64) -> Csr {
        sample_rect(n, n, seed)
    }

    /// A random rectangular pattern (`mxm_reduce` operands need not be
    /// square or symmetric).
    fn sample_rect(nrows: usize, ncols: usize, seed: u64) -> Csr {
        let mut coo = Coo::new(nrows, ncols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..nrows * 4 {
            let r = (next() % nrows as u64) as usize;
            let c = (next() % ncols as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    fn close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let both_inf = x.is_infinite() && y.is_infinite();
            assert!(both_inf || (x - y).abs() < 1e-4, "index {i}: {x} vs {y}");
        }
    }

    /// An operand of either shape from a per-`(node, lane)` function.
    fn operand<V: Operand>(n: usize, k: usize, f: impl Fn(usize, usize) -> f32) -> V {
        V::from_flat((0..n * k).map(|p| f(p / k, p % k)).collect(), n, k)
    }

    /// A product constructor of either shape (`Op::mxm` itself, or a
    /// closure around `Op::mxv` / `Op::vxm`) — what lets one test body run
    /// over `Vector` and over `MultiVec`.
    type MakeOp<'f, V> = &'f dyn for<'a> Fn(&'a Matrix, &'a V) -> ProductBuilder<'a, V>;

    const MXV: MakeOp<'static, Vector> = &|a, x| Op::mxv(a, x);
    const VXM: MakeOp<'static, Vector> = &|a, x| Op::vxm(x, a);
    const MXM: MakeOp<'static, MultiVec> = &|a, x| Op::mxm(a, x);
    const MXM_T: MakeOp<'static, MultiVec> = &|a, x| Op::mxm(a, x).transpose();

    /// The lane counts every shape-generic body runs `MultiVec` at: the
    /// degenerate batch, a few lanes, and a lane-word spill (`k > 64`).
    const LANES: [usize; 3] = [1, 3, 70];

    #[test]
    fn builder_mxv_agrees_across_backends() {
        let csr = sample(90, 3);
        let x = Vector::from_vec((0..90).map(|i| (i % 5) as f32).collect());
        let ctx = Context::default();
        let float = Matrix::from_csr(&csr, Backend::FloatCsr);
        for ts in TileSize::ALL {
            let bit = Matrix::from_csr(&csr, Backend::Bit(ts));
            for semiring in [
                Semiring::Arithmetic,
                Semiring::MinPlus(1.0),
                Semiring::MaxTimes(1.0),
            ] {
                let yb = Op::mxv(&bit, &x).semiring(semiring).run(&ctx);
                let yf = Op::mxv(&float, &x).semiring(semiring).run(&ctx);
                close(yb.as_slice(), yf.as_slice());
            }
        }
    }

    #[test]
    fn vxm_builder_equals_mxv_on_transpose() {
        let csr = sample(50, 11);
        let x = Vector::from_vec((0..50).map(|i| (i % 3) as f32).collect());
        let ctx = Context::default();
        for backend in [Backend::Bit(TileSize::S16), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            let at = Matrix::from_csr(&csr.transpose(), backend);
            let push = Op::vxm(&x, &a).run(&ctx);
            let reference = Op::mxv(&at, &x).run(&ctx);
            close(push.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn masked_builder_respects_complemented_mask() {
        let csr = sample(40, 7);
        let x = Vector::indicator(40, &[0, 1, 2, 3]);
        let visited: Vec<bool> = (0..40).map(|i| i < 20).collect();
        let mask = Mask::complemented(visited);
        let ctx = Context::default();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto] {
            let a = Matrix::from_csr(&csr, backend);
            let y = Op::mxv(&a, &x)
                .semiring(Semiring::Boolean)
                .mask(&mask)
                .run(&ctx);
            for i in 0..20 {
                assert_eq!(
                    y.get(i),
                    0.0,
                    "visited vertex {i} must stay filtered ({backend:?})"
                );
            }
        }
    }

    #[test]
    fn descriptor_and_transpose_shorthand_agree() {
        let csr = sample(30, 13);
        let x = Vector::from_vec((0..30).map(|i| i as f32).collect());
        let ctx = Context::default();
        let a = Matrix::from_csr(&csr, Backend::Bit(TileSize::S32));
        let via_desc = Op::mxv(&a, &x).desc(Descriptor::with_transpose()).run(&ctx);
        let via_shorthand = Op::mxv(&a, &x).transpose().run(&ctx);
        assert_eq!(via_desc, via_shorthand);
    }

    #[test]
    fn mxm_reduce_counts_triangles_across_backends() {
        let adj = sample(60, 17).symmetrized().without_diagonal();
        let ctx = Context::default();
        let mut counts = Vec::new();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto] {
            let l = Matrix::from_csr(&adj.lower_triangle(), backend);
            let lt = Matrix::from_csr(&adj.lower_triangle().transpose(), backend);
            counts.push(Op::mxm_reduce(&l, &lt, &l).run(&ctx));
        }
        assert!(
            counts.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
            "{counts:?}"
        );
    }

    /// `.transpose_b()` on `b` equals the plain product on `b.transpose()`
    /// and the float reference, whichever kernel the operand mix selects:
    /// the bit kernel, the CSR kernel, or the CSR fallback for mixed
    /// backends and mixed tile sizes.
    #[test]
    fn mxm_reduce_transpose_b_equals_the_product_with_the_transposed_operand() {
        use Backend::{Bit, FloatCsr};
        let (m, p, q) = (45, 70, 58);
        let (a, bt, mask) = (
            sample_rect(m, p, 3),
            sample_rect(q, p, 5),
            sample_rect(m, q, 7),
        );
        let expected = bitgblas_sparse::ops::spgemm_masked_sum(&a, &bt, &mask).unwrap();
        assert!(expected > 0.0);
        let ctx = Context::default();
        let s8 = Bit(TileSize::S8);
        for (ka, kb, km) in [
            (s8, s8, s8),
            (Bit(TileSize::S32), Bit(TileSize::S32), Bit(TileSize::S32)),
            (FloatCsr, FloatCsr, FloatCsr),
            (s8, FloatCsr, s8),
            (FloatCsr, s8, FloatCsr),
            (s8, s8, FloatCsr),
            (s8, Bit(TileSize::S16), s8),
            (s8, s8, Bit(TileSize::S4)),
        ] {
            let a = Matrix::from_csr(&a, ka);
            let bt = Matrix::from_csr(&bt, kb);
            let mask = Matrix::from_csr(&mask, km);
            let by_rows = Op::mxm_reduce(&a, &bt, &mask).transpose_b().run(&ctx);
            let via_desc = Op::mxm_reduce(&a, &bt, &mask)
                .desc(Descriptor::with_transpose())
                .run(&ctx);
            let plain = Op::mxm_reduce(&a, &bt.transpose(), &mask).run(&ctx);
            assert_eq!(
                (by_rows, via_desc, plain),
                (expected, expected, expected),
                "{ka:?} {kb:?} {km:?}"
            );
        }
    }

    /// The same parity through a `DeltaOverlay`: every operand is a snapshot
    /// with pending inserts and deletes, and the result equals the one on
    /// matrices rebuilt from the merged edges.
    #[test]
    fn mxm_reduce_transpose_b_reads_pending_deltas() {
        use crate::delta::EdgeDelta;
        let n = 64;
        let base = sample(n, 29);
        let ctx = Context::default();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let live = Matrix::from_csr(&base, backend);
            let mut deltas: Vec<EdgeDelta> = (0..n)
                .map(|i| EdgeDelta::insert(i, (i * 7 + 3) % n))
                .collect();
            deltas.extend(
                base.iter()
                    .step_by(3)
                    .map(|(r, c, _)| EdgeDelta::delete(r, c)),
            );
            live.apply_deltas(&deltas).unwrap();
            let snap = live.snapshot();
            assert_ne!(snap.csr(), &base, "{backend:?}: the deltas must be pending");
            let rebuilt = Matrix::from_csr(snap.csr(), backend);
            let expected = Op::mxm_reduce(&rebuilt, &rebuilt, &rebuilt)
                .transpose_b()
                .run(&ctx);
            assert!(expected > 0.0);
            let by_rows = Op::mxm_reduce(&snap, &snap, &snap).transpose_b().run(&ctx);
            let plain = Op::mxm_reduce(&snap, &snap.transpose(), &snap).run(&ctx);
            // An overlay as only the second operand of a bit product.
            let mixed = Op::mxm_reduce(&rebuilt, &snap, &rebuilt)
                .transpose_b()
                .run(&ctx);
            assert_eq!(
                (by_rows, plain, mixed),
                (expected, expected, expected),
                "{backend:?}"
            );
        }
    }

    #[test]
    fn mxm_reduce_try_run_reports_shape_violations() {
        let ctx = Context::default();
        let m = |r, c| Matrix::from_csr(&sample_rect(r, c, 9), Backend::Bit(TileSize::S8));
        let (a, b, bt) = (m(10, 20), m(20, 30), m(30, 20));
        assert!(Op::mxm_reduce(&a, &b, &m(10, 30)).try_run(&ctx).is_ok());
        assert!(Op::mxm_reduce(&a, &bt, &m(10, 30))
            .transpose_b()
            .try_run(&ctx)
            .is_ok());
        // The inner dimension follows the transpose flag.
        assert_eq!(
            Op::mxm_reduce(&a, &bt, &m(10, 30)).try_run(&ctx),
            Err(GrbError::DimensionMismatch {
                op: "mxm",
                expected: 20,
                got: 30
            })
        );
        assert_eq!(
            Op::mxm_reduce(&a, &b, &m(10, 30))
                .transpose_b()
                .try_run(&ctx),
            Err(GrbError::DimensionMismatch {
                op: "mxm",
                expected: 20,
                got: 30
            })
        );
        assert!(matches!(
            Op::mxm_reduce(&a, &b, &m(11, 30)).try_run(&ctx),
            Err(GrbError::LengthMismatch {
                expected: 10,
                got: 11,
                ..
            })
        ));
        assert!(matches!(
            Op::mxm_reduce(&a, &bt, &m(10, 20))
                .transpose_b()
                .try_run(&ctx),
            Err(GrbError::LengthMismatch {
                expected: 30,
                got: 20,
                ..
            })
        ));
        assert_eq!(
            ctx.stats().mxm_reduce,
            2,
            "refused products are not counted"
        );
    }

    #[test]
    #[should_panic(expected = "mxm dimension mismatch")]
    fn mxm_reduce_run_panics_with_the_error_text() {
        let m = |r, c| Matrix::from_csr(&sample_rect(r, c, 9), Backend::FloatCsr);
        let _ = Op::mxm_reduce(&m(10, 20), &m(30, 20), &m(10, 20)).run(&Context::default());
    }

    #[test]
    fn vector_builders_cover_the_ewise_family() {
        let ctx = Context::default();
        let a = Vector::from_vec(vec![1.0, 5.0, 0.0]);
        let b = Vector::from_vec(vec![2.0, 3.0, 4.0]);
        assert_eq!(
            Op::ewise_add(&a, &b)
                .semiring(Semiring::MinPlus(1.0))
                .run(&ctx)
                .as_slice(),
            &[1.0, 3.0, 0.0]
        );
        assert_eq!(
            Op::ewise_mult(&a, &b)
                .semiring(Semiring::Boolean)
                .run(&ctx)
                .as_slice(),
            &[1.0, 1.0, 0.0]
        );
        assert_eq!(
            Op::apply(&a, |v| v * 2.0).run(&ctx).as_slice(),
            &[2.0, 10.0, 0.0]
        );
        assert_eq!(
            Op::select(&a, |v| v > 0.5).run(&ctx).as_slice(),
            &[1.0, 1.0, 0.0]
        );
        assert_eq!(
            Op::reduce(&a).semiring(Semiring::MaxTimes(1.0)).run(&ctx),
            5.0
        );
    }

    /// A wrong-length operand is a typed `DimensionMismatch` naming the
    /// operation at every lane count, and the panicking form (reached once,
    /// at the last) carries its text.
    fn rejects_bad_dimensions<V: Operand>(lanes: &[usize], op: MakeOp<'_, V>, name: &'static str) {
        let a = Matrix::from_csr(&sample(10, 1), Backend::FloatCsr);
        let ctx = Context::default();
        for &k in lanes {
            let x: V = operand(7, k, |_, _| 0.0);
            assert_eq!(
                op(&a, &x).try_run(&ctx).err(),
                Some(GrbError::DimensionMismatch {
                    op: name,
                    expected: 10,
                    got: 7
                }),
                "k = {k}"
            );
        }
        let x: V = operand(7, lanes[lanes.len() - 1], |_, _| 0.0);
        let _ = op(&a, &x).run(&ctx);
    }

    #[test]
    #[should_panic(expected = "mxv dimension mismatch")]
    fn builder_rejects_bad_dimensions() {
        rejects_bad_dimensions(&[1], MXV, "mxv");
    }

    #[test]
    fn push_pull_and_auto_agree_for_every_backend_and_semiring() {
        let csr = sample(70, 19);
        let ctx = Context::default();
        let sparse_x = Vector::indicator(70, &[3, 31, 64]);
        let mut minplus_x = Vector::identity(70, Semiring::MinPlus(1.0));
        minplus_x.set(5, 0.0);
        minplus_x.set(44, 2.0);
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
        ] {
            let a = Matrix::from_csr(&csr, backend);
            for (x, semiring) in [
                (&sparse_x, Semiring::Boolean),
                (&sparse_x, Semiring::Arithmetic),
                (&minplus_x, Semiring::MinPlus(1.0)),
            ] {
                for flip in [false, true] {
                    let build = |dir: Direction| {
                        let op = if flip { Op::vxm(x, &a) } else { Op::mxv(&a, x) };
                        op.semiring(semiring).direction(dir).run(&ctx)
                    };
                    let pull = build(Direction::Pull);
                    let push = build(Direction::Push);
                    let auto = build(Direction::Auto);
                    close(push.as_slice(), pull.as_slice());
                    close(auto.as_slice(), pull.as_slice());
                }
            }
        }
    }

    #[test]
    fn masked_push_equals_masked_pull() {
        let csr = sample(48, 23);
        let ctx = Context::default();
        let x = Vector::indicator(48, &[0, 7, 20]);
        let visited: Vec<bool> = (0..48).map(|i| i % 3 == 0).collect();
        let mask = Mask::complemented(visited);
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            let pull = Op::vxm(&x, &a)
                .semiring(Semiring::Boolean)
                .mask(&mask)
                .direction(Direction::Pull)
                .run(&ctx);
            let push = Op::vxm(&x, &a)
                .semiring(Semiring::Boolean)
                .mask(&mask)
                .direction(Direction::Push)
                .run(&ctx);
            assert_eq!(push, pull, "{backend:?}");
        }
    }

    /// Executions are observable through the context counters of their
    /// shape (`counts` = push, pull, total), and Auto resolves a Boolean
    /// product on the node-granular frontier: one active node pushes however
    /// many of its lanes are active, every node active pulls.
    fn auto_direction_switches_and_is_counted<V: Operand>(
        k: usize,
        op: MakeOp<'_, V>,
        counts: fn(&ExecCounts) -> (u64, u64),
    ) {
        let csr = sample(512, 29);
        let a = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        let ctx = Context::default();
        assert_eq!(counts(&ctx.stats()), (0, 0));

        let sparse: V = operand(512, k, |i, _| (i == 7) as u8 as f32);
        let _ = op(&a, &sparse).semiring(Semiring::Boolean).run(&ctx);
        assert_eq!(counts(&ctx.stats()), (1, 0), "sparse frontier must push");

        let dense: V = operand(512, k, |_, _| 1.0);
        let _ = op(&a, &dense).semiring(Semiring::Boolean).run(&ctx);
        assert_eq!(counts(&ctx.stats()), (1, 1), "dense frontier must pull");
    }

    #[test]
    fn auto_direction_switches_on_frontier_density_and_is_counted() {
        auto_direction_switches_and_is_counted(1, VXM, |c| (c.push_mxv, c.pull_mxv));
    }

    #[test]
    fn push_request_on_unsafe_semiring_is_coerced_to_pull() {
        let csr = sample(40, 31);
        let a = Matrix::from_csr(&csr, Backend::FloatCsr);
        let ctx = Context::default();
        let x = Vector::from_vec(vec![f32::NEG_INFINITY; 40]);
        let _ = Op::mxv(&a, &x)
            .semiring(Semiring::MaxTimes(-1.0))
            .direction(Direction::Push)
            .run(&ctx);
        assert_eq!(ctx.stats().pull_mxv, 1);
        assert_eq!(ctx.stats().push_mxv, 0);
    }

    #[test]
    fn recycled_buffers_are_reused_by_the_next_operation() {
        let csr = sample(64, 37);
        let a = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        let ctx = Context::default();
        let x = Vector::indicator(64, &[1]);
        let y1 = Op::vxm(&x, &a)
            .semiring(Semiring::Boolean)
            .direction(Direction::Push)
            .run(&ctx);
        let ptr = y1.as_slice().as_ptr();
        ctx.recycle(y1);
        let y2 = Op::vxm(&x, &a)
            .semiring(Semiring::Boolean)
            .direction(Direction::Push)
            .run(&ctx);
        assert_eq!(
            y2.as_slice().as_ptr(),
            ptr,
            "the recycled output buffer must be reused"
        );
    }

    #[test]
    fn cloned_contexts_have_fresh_workspaces() {
        let ctx = Context::default();
        ctx.workspace().stats().record_mxv(true);
        let clone = ctx.clone();
        assert_eq!(clone.stats(), crate::grb::ExecCounts::default());
    }

    /// What the planner prices with is constant — two contexts on one input
    /// resolve every `Direction::Auto` alike, whatever thread budget one
    /// was asked for.
    #[test]
    fn contexts_plan_alike() {
        let csr = sample(300, 17);
        let plans = |ctx: Context| {
            let a = Matrix::from_csr_ctx(&csr, Backend::Bit(TileSize::S8), &ctx);
            for f in [1usize, 4, 16, 64, 300] {
                let x = Vector::indicator(300, &(0..f).collect::<Vec<_>>());
                let _ = Op::vxm(&x, &a).semiring(Semiring::Boolean).run(&ctx);
                let _ = Op::vxm(&x, &a).semiring(Semiring::MinPlus(1.0)).run(&ctx);
            }
            let s = ctx.stats();
            (s.push_mxv, s.pull_mxv)
        };
        let default = plans(Context::default());
        assert!(
            default.0 > 0 && default.1 > 0,
            "both directions: {default:?}"
        );
        assert_eq!(plans(Context::with_threads(4)), default);
    }

    // -- lazy-chain tests (PR 3) --------------------------------------------

    /// Every fused chain shape — stage, ewise link and accumulator, in every
    /// direction and orientation — must equal its node-at-a-time execution.
    fn fused_chain_matches_node_at_a_time<V: Operand>(k: usize, ops: [MakeOp<'_, V>; 2]) {
        let csr = sample(80, 41);
        let ctx = Context::default();
        let operand_v: V = operand(80, k, |i, l| ((i * k + l) % 7) as f32);
        let base: V = operand(80, k, |i, l| ((i * k + l) % 11) as f32 * 0.5);
        let x: V = operand(80, k, |i, l| {
            [2, 17, 33, 56].contains(&(i + l)) as u8 as f32
        });
        let dense_x: V = operand(80, k, |i, l| ((i + l) % 4) as f32);
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::FloatCsr,
        ] {
            let a = Matrix::from_csr(&csr, backend);
            for (xv, semiring) in [(&x, Semiring::Boolean), (&dense_x, Semiring::Arithmetic)] {
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    for op in ops {
                        let build = |fusion: Fusion| {
                            op(&a, xv)
                                .semiring(semiring)
                                .direction(dir)
                                .affine(2.0, 1.0)
                                .then_ewise(BinaryOp::Plus, &operand_v)
                                .accum(BinaryOp::Max, &base)
                                .fusion(fusion)
                                .run(&ctx)
                        };
                        let fused = build(Fusion::Fused);
                        let unfused = build(Fusion::NodeAtATime);
                        close(fused.flat(), unfused.flat());
                    }
                }
            }
        }
    }

    #[test]
    fn fused_chain_matches_node_at_a_time_in_every_direction() {
        fused_chain_matches_node_at_a_time(1, [MXV, VXM]);
    }

    /// The monoid accumulator folds into the sweep and equals the two-op
    /// formulation (product, then the e-wise `Min` chain `dist ⊕ relaxed`),
    /// by `to_bits`: from a plain distance vector, and from one holding NaN
    /// and `±0.0` that `MinPlus(−0.0)` terms tie.
    #[test]
    fn accum_matches_explicit_two_op_accumulate() {
        let csr = sample(64, 43);
        let ctx = Context::default();
        let bits = |v: &Vector| v.as_slice().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let mut plain = Vector::identity(64, Semiring::MinPlus(1.0));
        plain.set(0, 0.0);
        plain.set(9, 2.0);
        let hostile = (0..64).map(|i| [f32::INFINITY, f32::NAN, -0.0, 0.0, 1.5][i % 5]);
        let hostile = Vector::from_vec(hostile.collect());
        for semiring in [Semiring::MinPlus(1.0), Semiring::MinPlus(-0.0)] {
            for dist in [&plain, &hostile] {
                for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
                    let a = Matrix::from_csr(&csr, backend);
                    for dir in [Direction::Push, Direction::Pull] {
                        let fused = Op::vxm(dist, &a)
                            .semiring(semiring)
                            .direction(dir)
                            .accum(BinaryOp::Min, dist)
                            .run(&ctx);
                        let relaxed = Op::vxm(dist, &a)
                            .semiring(semiring)
                            .direction(dir)
                            .run(&ctx);
                        let two_op = Op::ewise_add(dist, &relaxed).semiring(semiring).run(&ctx);
                        assert_eq!(
                            bits(&fused),
                            bits(&two_op),
                            "{semiring:?} {backend:?} {dir:?}"
                        );
                    }
                }
            }
        }
    }

    /// An `Or` accumulator never folds into the push scatter: `Or`
    /// normalises any nonzero baseline to `1.0`, so untouched positions
    /// must still pass through the accumulator (regression test — the
    /// fused FloatCsr push used to keep the raw baseline).
    #[test]
    fn boolean_or_accum_with_non_indicator_baseline_matches_unfused() {
        let csr = sample(48, 67);
        let ctx = Context::default();
        let x = Vector::indicator(48, &[0, 3]);
        let base = Vector::from_vec((0..48).map(|i| (i % 3) as f32 * 2.0).collect());
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let build = |fusion: Fusion| {
                    Op::vxm(&x, &a)
                        .semiring(Semiring::Boolean)
                        .direction(dir)
                        .accum(BinaryOp::Or, &base)
                        .fusion(fusion)
                        .run(&ctx)
                };
                let fused = build(Fusion::Fused);
                assert_eq!(fused, build(Fusion::NodeAtATime), "{backend:?} {dir:?}");
                // Every output is a normalised Boolean value.
                assert!(
                    fused.as_slice().iter().all(|&v| v == 0.0 || v == 1.0),
                    "{backend:?} {dir:?}: {fused:?}"
                );
            }
        }
    }

    /// Masked accumulation keeps the baseline at masked positions (the
    /// GraphBLAS `w<m> ⊕=` semantics for monoid accumulators).
    #[test]
    fn masked_accum_keeps_baseline_where_masked() {
        let csr = sample(40, 47);
        let ctx = Context::default();
        let semiring = Semiring::MinPlus(1.0);
        let mut dist = Vector::identity(40, semiring);
        dist.set(0, 0.0);
        dist.set(7, 5.0);
        let allow: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
        let mask = Mask::new(allow.clone());
        for backend in [Backend::Bit(TileSize::S16), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            for dir in [Direction::Push, Direction::Pull] {
                let out = Op::vxm(&dist, &a)
                    .semiring(semiring)
                    .mask(&mask)
                    .direction(dir)
                    .accum(BinaryOp::Min, &dist)
                    .run(&ctx);
                for (i, &allowed) in allow.iter().enumerate() {
                    if !allowed {
                        assert_eq!(
                            out.get(i),
                            dist.get(i),
                            "masked position {i} must keep the baseline ({backend:?} {dir:?})"
                        );
                    }
                }
            }
        }
    }

    /// `scale_input` equals materialising the scaled operand by hand (the
    /// per-node scale broadcast across the lanes).
    fn scale_input_matches_pre_scaled<V: Operand>(k: usize, op: MakeOp<'_, V>) {
        let csr = sample(50, 53);
        let ctx = Context::default();
        let x: V = operand(50, k, |i, l| 1.0 + ((i * k + l) % 5) as f32);
        let s = Vector::from_vec((0..50).map(|i| 0.25 * ((i % 3) as f32 + 1.0)).collect());
        let scaled: V = operand(50, k, |i, l| x.flat()[i * k + l] * s.get(i));
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            let fused = op(&a, &x).scale_input(&s).run(&ctx);
            let manual = op(&a, &scaled).run(&ctx);
            close(fused.flat(), manual.flat());
        }
    }

    #[test]
    fn scale_input_matches_pre_scaled_operand() {
        scale_input_matches_pre_scaled(1, VXM);
    }

    /// An ewise chain with apply/select links collapses into one sweep and
    /// equals the step-by-step evaluation.
    #[test]
    fn ewise_chain_collapses_and_matches_steps() {
        let ctx = Context::default();
        let a = Vector::from_vec(vec![1.0, 5.0, 0.0, 2.0]);
        let b = Vector::from_vec(vec![2.0, 3.0, 4.0, 0.5]);
        let c = Vector::from_vec(vec![0.0, 1.0, 1.0, 3.0]);
        let half = |v: f32| v * 0.5;
        let chained = Op::ewise_add(&a, &b)
            .apply(&half)
            .then_ewise(BinaryOp::Max, &c)
            .run(&ctx);
        assert_eq!(
            ctx.stats().ewise_chain,
            1,
            "the chain must collapse into one sweep"
        );
        let s1 = Op::ewise_add(&a, &b).run(&ctx);
        let s2 = Op::apply(&s1, half).run(&ctx);
        let s3 = Op::ewise_add(&s2, &c)
            .semiring(Semiring::MaxTimes(1.0))
            .run(&ctx);
        assert_eq!(chained, s3);
    }

    /// A dot product folds in one pass without materialising the product.
    #[test]
    fn chain_reduce_computes_dot_product() {
        let ctx = Context::default();
        let a = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let b = Vector::from_vec(vec![0.5, 0.0, 2.0, 1.0]);
        let dot = Op::ewise_mult(&a, &b).reduce().run(&ctx);
        assert_eq!(dot, 0.5 + 6.0 + 4.0);
        let max = Op::ewise_mult(&a, &b)
            .reduce()
            .semiring(Semiring::MaxTimes(1.0))
            .run(&ctx);
        assert_eq!(max, 6.0);
    }

    /// Fused pipelines are observable through the context counters.
    #[test]
    fn fused_pipelines_are_counted() {
        let csr = sample(60, 59);
        let a = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        let ctx = Context::default();
        let x = Vector::from_vec(vec![1.0; 60]);
        let _ = Op::mxv(&a, &x).affine(0.5, 0.1).run(&ctx);
        assert_eq!(ctx.stats().fused_mxv, 1);
        let _ = Op::mxv(&a, &x)
            .affine(0.5, 0.1)
            .fusion(Fusion::NodeAtATime)
            .run(&ctx);
        assert_eq!(ctx.stats().fused_mxv, 1, "node-at-a-time must not count");
        assert_eq!(ctx.stats().apply, 1, "unfused stages count per node");
    }

    // -- batched (multi-vector) chain tests (PR 4) --------------------------

    /// Every column of a batched `mxm` equals the single-vector `mxv` of
    /// that column, across backends, semirings, directions and transpose.
    #[test]
    fn mxm_columns_equal_per_column_mxv() {
        let csr = sample(70, 71);
        let ctx = Context::default();
        let cols = [
            Vector::indicator(70, &[3, 31]),
            Vector::from_vec((0..70).map(|i| (i % 5) as f32).collect()),
            Vector::indicator(70, &[64]),
        ];
        let mv = MultiVec::from_columns(&cols);
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::FloatCsr,
        ] {
            let a = Matrix::from_csr(&csr, backend);
            for semiring in [Semiring::Boolean, Semiring::Arithmetic] {
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    for transpose in [false, true] {
                        let mut op = Op::mxm(&a, &mv).semiring(semiring).direction(dir);
                        if transpose {
                            op = op.transpose();
                        }
                        let batched = op.run(&ctx);
                        for (l, col) in cols.iter().enumerate() {
                            let mut single = Op::mxv(&a, col).semiring(semiring).direction(dir);
                            if transpose {
                                single = single.transpose();
                            }
                            let want = single.run(&ctx);
                            close(batched.column(l).as_slice(), want.as_slice());
                        }
                    }
                }
            }
        }
    }

    /// The flat per-lane mask gates each lane independently — two lanes
    /// with different visited sets share one masked sweep.
    #[test]
    fn mxm_flat_mask_gates_lanes_independently() {
        let csr = sample(48, 73);
        let ctx = Context::default();
        let mv = MultiVec::from_sources(48, &[0, 1]);
        // Lane 0 suppresses even nodes, lane 1 suppresses odd nodes.
        let allow: Vec<bool> = (0..48 * 2).map(|f| (f / 2) % 2 != f % 2).collect();
        let mask = Mask::new(allow.clone());
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            for dir in [Direction::Push, Direction::Pull] {
                let y = Op::mxm(&a, &mv)
                    .semiring(Semiring::Boolean)
                    .mask(&mask)
                    .direction(dir)
                    .run(&ctx);
                for i in 0..48 {
                    for l in 0..2 {
                        if !allow[i * 2 + l] {
                            assert_eq!(
                                y.get(i, l),
                                0.0,
                                "masked node {i} lane {l} must stay filtered ({backend:?} {dir:?})"
                            );
                        }
                    }
                }
                // The unmasked positions agree with the per-column masked mxv.
                for l in 0..2 {
                    let col_mask = Mask::new((0..48).map(|i| allow[i * 2 + l]).collect());
                    let want = Op::mxv(&a, &mv.column(l))
                        .semiring(Semiring::Boolean)
                        .mask(&col_mask)
                        .direction(dir)
                        .run(&ctx);
                    close(y.column(l).as_slice(), want.as_slice());
                }
            }
        }
    }

    #[test]
    fn mxm_fused_chain_matches_node_at_a_time() {
        for k in LANES {
            fused_chain_matches_node_at_a_time(k, [MXM, MXM_T]);
        }
    }

    /// The batched min-plus accumulator relaxes all lanes at once and
    /// equals the per-column SSSP-style relaxation.
    #[test]
    fn mxm_min_accum_equals_per_column_relaxation() {
        let csr = sample(56, 83);
        let ctx = Context::default();
        let semiring = Semiring::MinPlus(1.0);
        let mut dist = MultiVec::identity(56, 2, semiring);
        dist.set(0, 0, 0.0);
        dist.set(9, 1, 0.0);
        for backend in [Backend::Bit(TileSize::S16), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, backend);
            for dir in [Direction::Push, Direction::Pull] {
                let relaxed = Op::mxm(&a, &dist)
                    .transpose()
                    .semiring(semiring)
                    .direction(dir)
                    .accum(BinaryOp::Min, &dist)
                    .run(&ctx);
                for l in 0..2 {
                    let col = dist.column(l);
                    let want = Op::vxm(&col, &a)
                        .semiring(semiring)
                        .direction(dir)
                        .accum(BinaryOp::Min, &col)
                        .run(&ctx);
                    close(relaxed.column(l).as_slice(), want.as_slice());
                }
            }
        }
    }

    #[test]
    fn mxm_scale_input_matches_pre_scaled_operand() {
        for k in LANES {
            scale_input_matches_pre_scaled(k, MXM);
        }
    }

    #[test]
    fn mxm_auto_direction_switches_and_is_counted() {
        for k in LANES {
            auto_direction_switches_and_is_counted(k, MXM, |c| (c.push_mxm, c.pull_mxm));
        }
    }

    /// Entry pricing follows the kernel that runs, through pending deltas
    /// too: the same lane-sparse min-plus batch pushes on a built matrix and
    /// through a `DeltaOverlay`, whose re-fold touches only the positions the
    /// operand's entries reach — to the same result.
    #[test]
    fn mxm_entry_pricing_holds_through_the_overlay() {
        use crate::delta::EdgeDelta;
        let (n, k) = (512usize, 64usize);
        let csr = sample(n, 29);
        let semiring = Semiring::MinPlus(1.0);
        // Every node active, in one lane each: 512 entries / 64 lanes.
        let mut x = MultiVec::identity(n, k, semiring);
        for i in 0..n {
            x.set(i, i % k, i as f32);
        }
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let live = Matrix::from_csr(&csr, backend);
            let ctx = Context::default();
            let built = Op::mxm(&live, &x).semiring(semiring).run(&ctx);
            let stats = ctx.stats();
            assert_eq!((stats.push_mxm, stats.pull_mxm), (1, 0), "{backend:?}");
            assert_eq!(stats.refolded_positions, 0, "{backend:?}");

            // A pending log that leaves the edge set as it was.
            let (r, c, _) = csr.iter().next().unwrap();
            live.apply_deltas(&[EdgeDelta::delete(r, c), EdgeDelta::insert(r, c)])
                .unwrap();
            let overlaid = Op::mxm(&live.snapshot(), &x).semiring(semiring).run(&ctx);
            let stats = ctx.stats();
            assert_eq!((stats.push_mxm, stats.pull_mxm), (2, 0), "{backend:?}");
            // One patched column, active in one lane: one position of the
            // one dirty row, not its 64.
            assert_eq!(stats.refolded_positions, 1, "{backend:?}");
            assert_eq!(overlaid, built, "{backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "mxm dimension mismatch")]
    fn mxm_rejects_bad_dimensions() {
        rejects_bad_dimensions(&LANES, MXM, "mxm");
    }

    /// Check the word product on `a` against the Boolean `mxm` under a
    /// complemented mask, bit for bit and decision for decision — either
    /// orientation × lane counts on both sides of a word × a thin and a dense
    /// frontier × direction — and return what it computed and how often it
    /// pushed, for comparing two matrices that hold the same edges.
    fn lane_products_equal_the_masked_boolean_mxm(
        a: &Matrix,
        ctx: &Context,
    ) -> Vec<(LaneBits, u64)> {
        let mut results = Vec::new();
        for transpose in [false, true] {
            let (contracted, produced) = if transpose {
                (a.nrows(), a.ncols())
            } else {
                (a.ncols(), a.nrows())
            };
            for (k, every) in [(1usize, 5usize), (5, 9), (64, 2), (70, 5)] {
                let x: MultiVec = operand(contracted, k, |i, l| {
                    ((i * 7 + l) % every == 0) as u8 as f32
                });
                let seen: MultiVec =
                    operand(produced, k, |i, l| ((i + l * 3) % 4 == 0) as u8 as f32);
                let (xb, sb) = (LaneBits::from_multivec(&x), LaneBits::from_multivec(&seen));
                let mask = Mask::complemented(seen.as_slice().iter().map(|&v| v != 0.0).collect());
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    let before = ctx.stats();
                    let mut flat = Op::mxm(a, &x).semiring(Semiring::Boolean).direction(dir);
                    let mut words = Op::mxm_lanes(a, &xb).direction(dir);
                    if transpose {
                        (flat, words) = (flat.transpose(), words.transpose());
                    }
                    let want = flat.mask(&mask).run(ctx);
                    let mid = ctx.stats();
                    let got = words.and_not(&sb).try_run(ctx).unwrap().unwrap();
                    let after = ctx.stats();
                    let what = format!("{:?} transpose={transpose} k={k} {dir:?}", a.backend());
                    assert_eq!(got, LaneBits::from_multivec(&want), "{what}");
                    // Same direction, same frontier counts, no conversion.
                    let resolved = |a: &ExecCounts, b: &ExecCounts| {
                        (
                            b.pull_mxm - a.pull_mxm,
                            b.push_mxm - a.push_mxm,
                            b.push_frontier_nodes - a.push_frontier_nodes,
                            b.push_frontier_entries - a.push_frontier_entries,
                        )
                    };
                    assert_eq!(resolved(&mid, &after), resolved(&before, &mid), "{what}");
                    assert_eq!(after.converted_elems, mid.converted_elems, "{what}");
                    assert!(mid.converted_elems > before.converted_elems, "{what}");
                    results.push((got, after.push_mxm - mid.push_mxm));
                }
                // Without `and_not` it is the unmasked product.
                let bare = Op::mxm(a, &x).semiring(Semiring::Boolean);
                let words = Op::mxm_lanes(a, &xb);
                let (want, got) = if transpose {
                    (bare.transpose().run(ctx), words.transpose().try_run(ctx))
                } else {
                    (bare.run(ctx), words.try_run(ctx))
                };
                assert_eq!(got.unwrap().unwrap(), LaneBits::from_multivec(&want));
            }
        }
        results
    }

    /// The word product is the Boolean `mxm` under a complemented mask on
    /// every tile size, rectangular operands included.
    #[test]
    fn mxm_lanes_equals_the_masked_boolean_mxm() {
        let csr = sample_rect(53, 38, 17);
        let ctx = Context::default();
        for ts in TileSize::ALL {
            let a = Matrix::from_csr_ctx(&csr, Backend::Bit(ts), &ctx);
            lane_products_equal_the_masked_boolean_mxm(&a, &ctx);
        }
    }

    /// A 53 × 38 pattern whose row 6 is empty, and a log over it with
    /// duplicate inserts, an insert then deleted, a delete of an absent edge,
    /// self-loops, a row emptied (11) and the empty row filled.
    fn hostile_rect_log() -> (Csr, Vec<crate::delta::EdgeDelta>) {
        use crate::delta::EdgeDelta;
        let full = sample_rect(53, 38, 17);
        let mut coo = Coo::new(53, 38);
        for (r, c, _) in full.iter().filter(|&(r, _, _)| r != 6) {
            coo.push_edge(r, c).unwrap();
        }
        let csr = coo.to_binary_csr();
        let absent = (0..38).find(|&c| csr.get(2, c).is_none()).unwrap();
        let mut log = vec![
            EdgeDelta::insert(0, 37),
            EdgeDelta::insert(0, 37),
            EdgeDelta::insert(40, 3),
            EdgeDelta::delete(40, 3),
            EdgeDelta::delete(2, absent),
            EdgeDelta::insert(9, 9),
            EdgeDelta::delete(20, 20),
            EdgeDelta::insert(6, 1),
            EdgeDelta::insert(6, 30),
            EdgeDelta::insert(52, 0),
        ];
        log.extend(csr.row(11).0.iter().map(|&c| EdgeDelta::delete(11, c)));
        (csr, log)
    }

    /// Run `check` on every tile size over [`hostile_rect_log`]'s pending
    /// snapshot, its transpose (a base built of the merged transpose) and a
    /// rebuild of each, and require the two to agree in what `check`
    /// returns.
    fn pending_equals_rebuilt<R: PartialEq + std::fmt::Debug>(
        check: impl Fn(&Matrix, &Context) -> R,
    ) {
        let (csr, log) = hostile_rect_log();
        let ctx = Context::default();
        for ts in TileSize::ALL {
            let live = Matrix::from_csr_ctx(&csr, Backend::Bit(ts), &ctx);
            live.apply_deltas(&log).unwrap();
            let snap = live.snapshot();
            let transposed = snap.transpose();
            for view in [snap.matrix(), &transposed] {
                let rebuilt = Matrix::from_csr_ctx(view.csr(), Backend::Bit(ts), &ctx);
                assert_eq!(
                    check(view, &ctx),
                    check(&rebuilt, &ctx),
                    "{ts:?} {}x{}",
                    view.nrows(),
                    view.ncols()
                );
            }
        }
    }

    /// … and through pending deltas it is, besides, the word product of a
    /// rebuild, to the same per-call directions, with a log of duplicate
    /// inserts, an insert then deleted, a delete of an absent edge,
    /// self-loops, a row emptied and an empty row filled.
    #[test]
    fn mxm_lanes_through_pending_deltas_equals_a_rebuild_and_the_masked_boolean_mxm() {
        pending_equals_rebuilt(lane_products_equal_the_masked_boolean_mxm);
    }

    #[test]
    fn mxm_lanes_reports_shape_violations_and_backends_without_a_word_product() {
        let csr = sample_rect(20, 12, 5);
        let ctx = Context::default();
        let a = Matrix::from_csr_ctx(&csr, Backend::default_bit(), &ctx);
        let x = LaneBits::zeros(12, 3);
        // A wrong-length frontier, in either orientation.
        assert_eq!(
            Op::mxm_lanes(&a, &x).transpose().try_run(&ctx),
            Err(GrbError::DimensionMismatch {
                op: "mxm",
                expected: 20,
                got: 12
            })
        );
        // `excluded` must have the output's shape: nodes and lanes.
        for (bad, expected, got) in [
            (LaneBits::zeros(12, 3), 20, 12),
            (LaneBits::zeros(20, 4), 3, 4),
        ] {
            let err = Op::mxm_lanes(&a, &x)
                .and_not(&bad)
                .try_run(&ctx)
                .unwrap_err();
            assert!(
                matches!(err, GrbError::LengthMismatch { expected: e, got: g, .. } if (e, g) == (expected, got)),
                "{err}"
            );
            assert!(err.to_string().contains("excluded lanes"), "{err}");
        }
        let c = ctx.stats();
        assert_eq!(
            (c.pull_mxm, c.push_mxm),
            (0, 0),
            "a rejected product does not run"
        );

        // No word product: the float baseline, built or read through
        // pending deltas.  Nothing runs and no fail point is polled …
        let plan =
            FaultPlan::new().with(FailSpec::always("grb.mxm_dispatch", FaultAction::Transient));
        let inj = std::sync::Arc::new(FaultInjector::new(1, plan));
        ctx.set_fault_injector(Some(inj.clone()));
        let float = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
        let float_pending = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
        float_pending.insert_edge(0, 0).unwrap();
        for m in [&float, &*float_pending.snapshot()] {
            assert_eq!(Op::mxm_lanes(m, &x).try_run(&ctx), Ok(None));
            // … while a wrong shape is still an error.
            assert!(Op::mxm_lanes(m, &x).transpose().try_run(&ctx).is_err());
        }
        assert_eq!(inj.counts().transients, 0);
        let c = ctx.stats();
        assert_eq!((c.pull_mxm, c.push_mxm), (0, 0));
        // … and the bit matrix polls it once per call, built or read through
        // pending deltas: a `Backend::Bit` base under an overlay has the
        // word product.
        let pending = Matrix::from_csr_ctx(&csr, Backend::default_bit(), &ctx);
        pending.insert_edge(0, 0).unwrap();
        for m in [&a, &*pending.snapshot()] {
            assert_eq!(
                Op::mxm_lanes(m, &x).try_run(&ctx),
                Err(GrbError::FaultInjected {
                    point: "grb.mxm_dispatch"
                })
            );
        }
        assert_eq!(inj.counts().transients, 2);
        ctx.set_fault_injector(None);
        let got = Op::mxm_lanes(&pending.snapshot(), &x).try_run(&ctx);
        assert_eq!(got, Ok(Some(LaneBits::zeros(20, 3))));
    }

    /// Check the node-bit products on `a` against the Boolean `vxm` — and
    /// the one-lane `mxm` — under a complemented mask, bit for bit and
    /// decision for decision: either orientation × a thin, a dense and an
    /// empty frontier × direction.  Returns what it computed and how often
    /// it pushed, for comparing two matrices that hold the same edges.
    fn bit_products_equal_the_masked_boolean_vxm(
        a: &Matrix,
        ctx: &Context,
    ) -> Vec<(NodeBits, u64)> {
        let bits = |v: &[f32]| {
            let set: Vec<usize> = (0..v.len()).filter(|&i| v[i] != 0.0).collect();
            NodeBits::from_indices(v.len(), &set)
        };
        let mut results = Vec::new();
        for transpose in [false, true] {
            // `vxm` flips: plain contracts the rows.
            let (contracted, produced) = if transpose {
                (a.ncols(), a.nrows())
            } else {
                (a.nrows(), a.ncols())
            };
            for every in [9usize, 2, usize::MAX] {
                let x: Vector = operand(contracted, 1, |i, _| ((i + 1) % every == 0) as u8 as f32);
                let seen: Vector = operand(produced, 1, |i, _| (i % 4 == 0) as u8 as f32);
                let (xb, sb) = (bits(x.as_slice()), bits(seen.as_slice()));
                let mask = Mask::complemented(seen.as_slice().iter().map(|&v| v != 0.0).collect());
                let x1 = MultiVec::from_vec(x.as_slice().to_vec(), contracted, 1);
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    let what = format!("{:?} transpose={transpose} 1/{every} {dir:?}", a.backend());
                    let mut flat = Op::vxm(&x, a).semiring(Semiring::Boolean).direction(dir);
                    let mut words = Op::vxm_bits(&xb, a).direction(dir);
                    // `mxm` does not flip: its transpose is the other one.
                    let mut flat1 = Op::mxm(a, &x1).semiring(Semiring::Boolean).direction(dir);
                    let mut words1 = Op::mxm_bits(a, &xb).direction(dir);
                    if transpose {
                        (flat, words) = (flat.transpose(), words.transpose());
                    } else {
                        (flat1, words1) = (flat1.transpose(), words1.transpose());
                    }
                    let resolved = |a: &ExecCounts, b: &ExecCounts| {
                        (
                            (b.pull_mxv - a.pull_mxv, b.push_mxv - a.push_mxv),
                            (b.pull_mxm - a.pull_mxm, b.push_mxm - a.push_mxm),
                            b.push_frontier_nodes - a.push_frontier_nodes,
                            b.push_frontier_entries - a.push_frontier_entries,
                        )
                    };
                    let before = ctx.stats();
                    let want = flat.mask(&mask).run(ctx);
                    let mid = ctx.stats();
                    let got = words.and_not(&sb).try_run(ctx).unwrap().unwrap();
                    let after = ctx.stats();
                    assert_eq!(got, bits(want.as_slice()), "{what}");
                    assert_eq!(got.len(), produced, "{what}");
                    // Same direction, same frontier counts, no conversion.
                    assert_eq!(resolved(&mid, &after), resolved(&before, &mid), "{what}");
                    assert_eq!(
                        (after.pull_mxm, after.push_mxm),
                        (before.pull_mxm, before.push_mxm),
                        "{what}"
                    );
                    assert_eq!(after.converted_elems, mid.converted_elems, "{what}");
                    let converted = mid.converted_elems > before.converted_elems;
                    assert_eq!(converted, produced > 0, "{what}");

                    // The one-lane batch: the same bits, counted as an `mxm`.
                    let want1 = flat1.mask(&mask).run(ctx);
                    assert_eq!(want1.as_slice(), want.as_slice(), "{what}");
                    let mid1 = ctx.stats();
                    let got1 = words1.and_not(&sb).try_run(ctx).unwrap().unwrap();
                    let after1 = ctx.stats();
                    assert_eq!(got1, got, "{what}");
                    assert_eq!(resolved(&mid1, &after1), resolved(&after, &mid1), "{what}");
                    assert_eq!(
                        (after1.pull_mxv, after1.push_mxv),
                        (after.pull_mxv, after.push_mxv),
                        "{what}"
                    );
                    assert_eq!(after1.converted_elems, mid1.converted_elems, "{what}");
                    results.push((got, after.push_mxv - mid.push_mxv));
                }
                // Without `and_not` it is the unmasked product.
                let bare = Op::vxm(&x, a).semiring(Semiring::Boolean);
                let words = Op::vxm_bits(&xb, a);
                let (want, got) = if transpose {
                    (bare.transpose().run(ctx), words.transpose().try_run(ctx))
                } else {
                    (bare.run(ctx), words.try_run(ctx))
                };
                assert_eq!(got.unwrap().unwrap(), bits(want.as_slice()));
            }
        }
        results
    }

    /// The node-bit product is the Boolean `vxm` under a complemented mask on
    /// every tile size: rectangular operands, an empty matrix, fewer nodes
    /// than a tile holds, self-loops, and a last vertex alone in a ragged
    /// last tile.
    #[test]
    fn vxm_bits_equals_the_masked_boolean_vxm() {
        let mut loops = Coo::new(3, 3);
        for (r, c) in [(0, 0), (0, 1), (1, 1), (2, 0)] {
            loops.push_edge(r, c).unwrap();
        }
        let mut ragged = Coo::new(65, 65);
        for i in 0..64 {
            ragged.push_undirected_edge(i, 64).unwrap();
            ragged.push_edge(i, (i * 7 + 1) % 64).unwrap();
        }
        let graphs = [
            sample_rect(53, 38, 17),
            Csr::empty(0, 0),
            Csr::empty(5, 9),
            loops.to_binary_csr(),
            ragged.to_binary_csr(),
        ];
        let ctx = Context::default();
        for csr in &graphs {
            for ts in TileSize::ALL {
                let a = Matrix::from_csr_ctx(csr, Backend::Bit(ts), &ctx);
                bit_products_equal_the_masked_boolean_vxm(&a, &ctx);
            }
        }
    }

    /// … and through pending deltas it is, besides, the node-bit product of
    /// a rebuild, to the same per-call directions.
    #[test]
    fn vxm_bits_through_pending_deltas_equals_a_rebuild_and_the_masked_boolean_vxm() {
        pending_equals_rebuilt(bit_products_equal_the_masked_boolean_vxm);
    }

    #[test]
    fn vxm_bits_reports_shape_violations_and_backends_without_a_word_product() {
        let csr = sample_rect(20, 12, 5);
        let ctx = Context::default();
        let a = Matrix::from_csr_ctx(&csr, Backend::default_bit(), &ctx);
        let (x, y) = (NodeBits::zeros(20), NodeBits::zeros(12));
        // A wrong-length frontier or `excluded`, in either orientation and
        // under either name, is a typed error.
        let mismatch = |op, expected, got| Err(GrbError::DimensionMismatch { op, expected, got });
        assert_eq!(Op::vxm_bits(&y, &a).try_run(&ctx), mismatch("vxm", 20, 12));
        assert_eq!(
            Op::vxm_bits(&x, &a).transpose().try_run(&ctx),
            mismatch("vxm", 12, 20)
        );
        assert_eq!(
            Op::vxm_bits(&x, &a).and_not(&x).try_run(&ctx),
            mismatch("vxm", 12, 20)
        );
        assert_eq!(Op::mxm_bits(&a, &x).try_run(&ctx), mismatch("mxm", 12, 20));
        assert_eq!(
            Op::mxm_bits(&a, &y).and_not(&y).try_run(&ctx),
            mismatch("mxm", 20, 12)
        );
        let c = ctx.stats();
        assert_eq!(
            (c.pull_mxv, c.push_mxv, c.pull_mxm, c.push_mxm),
            (0, 0, 0, 0),
            "a rejected product does not run"
        );

        // No word product: the float baseline, built or read through
        // pending deltas.  Nothing runs and no fail point is polled …
        let plan = FaultPlan::new()
            .with(FailSpec::always("grb.mxv_dispatch", FaultAction::Transient))
            .with(FailSpec::always("grb.mxm_dispatch", FaultAction::Transient));
        let inj = std::sync::Arc::new(FaultInjector::new(1, plan));
        ctx.set_fault_injector(Some(inj.clone()));
        let float = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
        let float_pending = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
        float_pending.insert_edge(0, 0).unwrap();
        for m in [&float, &*float_pending.snapshot()] {
            assert_eq!(Op::vxm_bits(&x, m).try_run(&ctx), Ok(None));
            assert_eq!(Op::mxm_bits(m, &y).try_run(&ctx), Ok(None));
            // … while a wrong shape is still an error.
            assert!(Op::vxm_bits(&y, m).try_run(&ctx).is_err());
        }
        assert_eq!(inj.counts().transients, 0);
        // … and the bit matrix polls its shape's point once per call, built
        // or read through pending deltas.
        let pending = Matrix::from_csr_ctx(&csr, Backend::default_bit(), &ctx);
        pending.insert_edge(0, 0).unwrap();
        for m in [&a, &*pending.snapshot()] {
            let injected = |point| Err(GrbError::FaultInjected { point });
            assert_eq!(
                Op::vxm_bits(&x, m).try_run(&ctx),
                injected("grb.mxv_dispatch")
            );
            assert_eq!(
                Op::mxm_bits(m, &y).try_run(&ctx),
                injected("grb.mxm_dispatch")
            );
        }
        assert_eq!(inj.counts().transients, 4);
        let c = ctx.stats();
        assert_eq!(
            (c.pull_mxv, c.push_mxv, c.pull_mxm, c.push_mxm),
            (0, 0, 0, 0)
        );
        ctx.set_fault_injector(None);
        let got = Op::vxm_bits(&x, &pending.snapshot()).try_run(&ctx);
        assert_eq!(got, Ok(Some(NodeBits::zeros(12))));
    }

    /// `build()` produces an inert expression that `ctx.evaluate` runs.
    #[test]
    fn build_then_evaluate_equals_run() {
        let csr = sample(30, 61);
        let a = Matrix::from_csr(&csr, Backend::FloatCsr);
        let ctx = Context::default();
        let x = Vector::from_vec((0..30).map(|i| i as f32).collect());
        let before = ctx.stats();
        let expr = Op::mxv(&a, &x).affine(2.0, 0.0).build();
        assert_eq!(ctx.stats(), before, "build must not execute");
        let via_evaluate = ctx.evaluate(expr);
        let via_run = Op::mxv(&a, &x).affine(2.0, 0.0).run(&ctx);
        assert_eq!(via_evaluate, via_run);
    }
}
