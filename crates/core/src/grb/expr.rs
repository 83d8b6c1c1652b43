//! The lazy expression IR behind the `Op` builders (GraphBLAS non-blocking
//! mode).
//!
//! Since PR 3 the builder methods of [`Op`](super::Op) no longer execute
//! anything: they assemble an [`Expr`] — a small chain-shaped expression
//! graph — and nothing runs until `.run(&ctx)` /
//! [`Context::evaluate`](super::Context::evaluate) hands the graph to the
//! planner in [`super::plan`], which pattern-matches fusable chains and emits
//! fused kernel calls.
//!
//! # Shape of the IR
//!
//! An expression is a *chain*: one [`Producer`] (a leaf vector or a
//! matrix-vector product with its mask/descriptor/input-scaling), followed by
//! up to [`MAX_STAGES`] element-wise [`Stage`]s (apply / select / affine /
//! ewise-with-a-leaf), optionally terminated by a GraphBLAS accumulator
//! (`w ⊕= t`, [`Expr::set_accum`]).  Chains cover every fusable pattern the
//! algorithms produce — mxv+mask+accum, apply/select folded into a consuming
//! ewise pass, collapsed ewise chains — while staying **allocation-free**:
//! the stage list is an inline array of references, never a boxed tree, so
//! building and evaluating an expression in an algorithm's inner loop puts
//! nothing on the heap.  Operations whose operands are themselves unevaluated
//! expressions (e.g. an ewise of two matrix products) are expressed as two
//! chains evaluated in sequence; the planner's node-at-a-time fallback keeps
//! the semantics of any chain identical whether or not it fuses.
//!
//! # Semantics
//!
//! Evaluating a chain is *defined* by its unfused (node-at-a-time)
//! execution:
//!
//! 1. `t = producer` — the masked matrix product (masked-out positions hold
//!    the semiring identity) or a copy of the leaf;
//! 2. each stage transforms `t` element-wise, in order;
//! 3. with an accumulator `(⊕, w)`: `out[i] = w[i] ⊕ t[i]`, else `out = t`.
//!
//! The planner may only fuse a chain into fewer sweeps when the fused kernel
//! provably produces the same result (see [`super::plan`] for the rules);
//! [`Fusion::NodeAtATime`] forces the fallback, which the parity suite and
//! the perf harness use to compare both paths.
//!
//! Building a chain is inert — nothing executes until the context evaluates
//! it:
//!
//! ```
//! use bitgblas_core::grb::{Context, Op};
//! use bitgblas_core::{Backend, BinaryOp, Matrix, Vector};
//! # use bitgblas_sparse::Coo;
//! # let mut coo = Coo::new(3, 3);
//! # coo.push_edge(0, 1).unwrap();
//! # let csr = coo.to_binary_csr();
//! let ctx = Context::default();
//! let a = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
//! let x = Vector::indicator(3, &[0]);
//! let base = Vector::from_vec(vec![0.5, 0.5, 0.5]);
//!
//! // mxv → affine stage → max-accumulator, assembled but not yet run:
//! let expr = Op::mxv(&a, &x)
//!     .affine(2.0, 1.0)
//!     .accum(BinaryOp::Max, &base)
//!     .build();
//!
//! // One fused sweep happens here.
//! let y = ctx.evaluate(expr);
//! assert_eq!(y.get(0), 1.0); // max(base = 0.5, 2·(A·x)[0] + 1 = 1)
//! ```
//!
//! # One IR for both operand shapes
//!
//! [`Expr`] is generic in the [`Operand`] shape it carries: a [`Vector`]
//! (one lane per node — `Op::mxv` / `Op::vxm`, the default) or an `n × k`
//! [`MultiVec`] ([`Op::mxm`](super::Op::mxm) — `k` concurrent traversals per
//! sweep).  A vector is the one-lane multi-vector: stages, accumulator and
//! mask all address the **flat** node-major storage (`i*k + l`), so the same
//! stage machinery and the same planner path serve both.

use crate::semiring::{BinaryOp, Semiring};

use super::backend::BitB2sr;
use super::descriptor::{Descriptor, Mask};
use super::error::GrbError;
use super::matrix::Matrix;
use super::multivec::MultiVec;
use super::op::Context;
use super::plan::{self, MxvPipeline};
use super::vector::Vector;
use super::workspace::{ExecStats, Workspace};

use shape::FrontierSize;

/// Maximum number of element-wise stages one expression chain can carry.
///
/// The capacity is fixed (stages are stored inline) so that building an
/// expression never allocates; algorithm inner loops need 1–3 stages.
pub const MAX_STAGES: usize = 8;

/// Whether the planner may fuse an expression into combined kernel sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fusion {
    /// Fuse whenever a matching fused kernel exists (the default).
    #[default]
    Fused,
    /// Execute one node per sweep — the reference semantics.  Used by the
    /// parity tests and the fused-vs-unfused benchmark rows.
    NodeAtATime,
}

/// One element-wise stage of an expression chain.
///
/// Stages transform the chain's running value `acc` at position `i`.  The
/// closure-carrying variants hold `Sync` references so fused kernels can run
/// them from parallel sweeps; pass closures by reference (`.apply(&f)`) so
/// the expression stays allocation-free.
#[derive(Clone, Copy)]
pub enum Stage<'a> {
    /// `acc = mul · acc + add` — the fusion-friendly form of the affine
    /// `apply`s the algorithms use (PageRank's `α·contrib + teleport`).
    Affine {
        /// Multiplier.
        mul: f32,
        /// Addend.
        add: f32,
    },
    /// `acc = f(acc)` (GraphBLAS `apply`).
    Apply(&'a (dyn Fn(f32) -> f32 + Sync)),
    /// `acc = 1.0 if pred(acc) else 0.0` (GraphBLAS `select`).
    Select(&'a (dyn Fn(f32) -> bool + Sync)),
    /// `acc = op(acc, operand[i])` — one collapsed ewise link.
    Ewise {
        /// The element-wise operator.
        op: BinaryOp,
        /// The second operand.
        operand: &'a [f32],
    },
}

impl Stage<'_> {
    /// Evaluate this stage at position `i` with running value `acc`.
    #[inline]
    pub fn eval(&self, i: usize, acc: f32) -> f32 {
        match self {
            Stage::Affine { mul, add } => mul * acc + add,
            Stage::Apply(f) => f(acc),
            Stage::Select(pred) => {
                if pred(acc) {
                    1.0
                } else {
                    0.0
                }
            }
            Stage::Ewise { op, operand } => op.apply(acc, operand[i]),
        }
    }
}

impl std::fmt::Debug for Stage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Stage::Affine { mul, add } => write!(f, "Affine({mul}·x + {add})"),
            Stage::Apply(_) => f.write_str("Apply(fn)"),
            Stage::Select(_) => f.write_str("Select(pred)"),
            Stage::Ewise { op, operand } => write!(f, "Ewise({op:?}, [..{}])", operand.len()),
        }
    }
}

/// The two operand shapes of a product: a [`Vector`] (lanes = 1) or a
/// [`MultiVec`] (lanes = `k`).
///
/// This is the type parameter of the front end ([`Expr`], the product
/// builder, [`Context::evaluate`](super::Context::evaluate)) — not an
/// extension point.  It is sealed: everything shape-dependent lives on its
/// crate-private supertrait, so there is nothing for a caller to implement
/// or call, and each shape is monomorphised (the single-vector scans stay
/// plain slice loops).
pub trait Operand: shape::Shape {}
impl Operand for Vector {}
impl Operand for MultiVec {}

pub(crate) mod shape {
    use super::*;

    /// What one scan of a push operand counts (and, as a limit, where the
    /// scan may give up): the nodes with any lane differing from the
    /// semiring identity, their non-identity `(node, lane)` entries, and
    /// the edges their scatter folds, `Σ deg(u) · active_lanes(u)` over the
    /// rows the scatter walks.  How
    /// [`Direction::Auto`](crate::grb::Direction) prices them is in
    /// `grb::direction`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct FrontierSize {
        pub nodes: usize,
        pub entries: usize,
        pub edges: usize,
    }

    /// The one-lane operand scan (a [`Vector`], or a [`MultiVec`] of one
    /// lane — a served query): one compare per node against the identity,
    /// resolved once, and the degree read only for an active node.
    pub(super) fn one_lane_frontier_into(
        flat: &[f32],
        identity: f32,
        rows: &[usize],
        stop_past: FrontierSize,
        out: &mut Vec<usize>,
    ) -> FrontierSize {
        // One lane per node: nodes and entries are the same count.
        let limit = stop_past.nodes.min(stop_past.entries);
        let mut edges = 0usize;
        out.clear();
        for (i, &v) in flat.iter().enumerate() {
            if v != identity {
                out.push(i);
                edges += rows[i + 1] - rows[i];
                if out.len() > limit || edges > stop_past.edges {
                    break;
                }
            }
        }
        FrontierSize {
            nodes: out.len(),
            entries: out.len(),
            edges,
        }
    }

    /// The only shape-dependent pieces of the planner's one product path,
    /// over the flat node-major storage (`flat[i*k + l]` = node `i`, lane
    /// `l`).  Not nameable outside the crate — that is what seals
    /// [`Operand`].
    pub trait Shape: Sized + std::fmt::Debug {
        /// The fail point polled before dispatching a product.
        const FAIL_POINT: &'static str;
        /// Whether the backend may be handed the fused chain.
        /// Single-vector sweeps finish each output in their store; the
        /// batched kernels produce the bare product and the planner
        /// collapses the epilogue into one pass over the flat output.
        const FUSES_INTO_SWEEP: bool;
        /// The operation name a `GrbError::DimensionMismatch` reports, by
        /// the producer's `flip`.
        const OP_NAMES: [&'static str; 2];
        /// `(nodes, lanes)`.
        fn shape(&self) -> (usize, usize);
        /// The flat node-major storage.
        fn flat(&self) -> &[f32];
        /// Consume into the flat storage (returned to the workspace pool).
        fn into_flat(self) -> Vec<f32>;
        /// Rebuild a result from a pooled buffer of `n · k` entries.
        fn from_flat(flat: Vec<f32>, n: usize, k: usize) -> Self;
        /// `self[i,l] · scale[i]`, materialised in the pooled buffer `buf`.
        fn scaled(&self, scale: &[f32], buf: Vec<f32>) -> Self;
        /// The planner's one operand scan: **replace** the contents of
        /// `out` with the indices, ascending, of the nodes holding a lane
        /// that differs from the semiring identity — the push frontier —
        /// and return how many nodes, non-identity entries and scattered
        /// edges that is, an active node's degree read off `rows`, the row
        /// pointer of the representation the scatter walks.  The scan
        /// gives up once any count passes `stop_past`; what it returns
        /// then is a prefix and a lower bound, enough to know the product
        /// pulls.
        fn frontier_into(
            &self,
            semiring: Semiring,
            rows: &[usize],
            stop_past: FrontierSize,
            out: &mut Vec<usize>,
        ) -> FrontierSize;
        /// Hand the pipeline to the built backend's entry point of this
        /// shape.
        fn product_into(base: &BitB2sr, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>);
        /// Count one resolved product (`{pull,push}_{mxv,mxm}`).
        fn record_product(stats: &ExecStats, push: bool);
        /// Plan and run a chain of this shape.  A per-shape method so the
        /// generic planner is compiled once, in this crate, rather than
        /// re-instantiated — cut off from its inlinable helpers — in every
        /// crate that evaluates a chain.
        fn try_execute(expr: &Expr<'_, Self>, ctx: &Context) -> Result<Self, GrbError>;
    }
}

impl shape::Shape for Vector {
    const FAIL_POINT: &'static str = "grb.mxv_dispatch";
    const OP_NAMES: [&'static str; 2] = ["mxv", "vxm"];
    const FUSES_INTO_SWEEP: bool = true;

    fn shape(&self) -> (usize, usize) {
        (self.len(), 1)
    }
    fn flat(&self) -> &[f32] {
        self.as_slice()
    }
    fn into_flat(self) -> Vec<f32> {
        self.into_vec()
    }
    fn from_flat(flat: Vec<f32>, _n: usize, _k: usize) -> Self {
        Vector::from_vec(flat)
    }
    fn scaled(&self, scale: &[f32], mut buf: Vec<f32>) -> Self {
        buf.extend(self.as_slice().iter().zip(scale).map(|(&x, &s)| x * s));
        Vector::from_vec(buf)
    }
    fn frontier_into(
        &self,
        semiring: Semiring,
        rows: &[usize],
        stop_past: FrontierSize,
        out: &mut Vec<usize>,
    ) -> FrontierSize {
        let identity = semiring.identity();
        shape::one_lane_frontier_into(self.as_slice(), identity, rows, stop_past, out)
    }
    fn product_into(base: &BitB2sr, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        base.mxv_into(p, ws, out);
    }
    fn record_product(stats: &ExecStats, push: bool) {
        stats.record_mxv(push);
    }
    fn try_execute(expr: &Expr<'_, Self>, ctx: &Context) -> Result<Self, GrbError> {
        plan::try_execute(expr, ctx)
    }
}

impl shape::Shape for MultiVec {
    const FAIL_POINT: &'static str = "grb.mxm_dispatch";
    const OP_NAMES: [&'static str; 2] = ["mxm", "mxm"];
    const FUSES_INTO_SWEEP: bool = false;

    fn shape(&self) -> (usize, usize) {
        (self.n_nodes(), self.n_lanes())
    }
    fn flat(&self) -> &[f32] {
        self.as_slice()
    }
    fn into_flat(self) -> Vec<f32> {
        self.into_vec()
    }
    fn from_flat(flat: Vec<f32>, n: usize, k: usize) -> Self {
        MultiVec::from_vec(flat, n, k)
    }
    fn scaled(&self, scale: &[f32], mut buf: Vec<f32>) -> Self {
        let (n, k) = (self.n_nodes(), self.n_lanes());
        buf.extend(
            self.as_slice()
                .chunks_exact(k)
                .zip(scale)
                .flat_map(|(lanes, &s)| lanes.iter().map(move |&x| x * s)),
        );
        MultiVec::from_vec(buf, n, k)
    }
    fn frontier_into(
        &self,
        semiring: Semiring,
        rows: &[usize],
        stop_past: FrontierSize,
        out: &mut Vec<usize>,
    ) -> FrontierSize {
        let (k, identity) = (self.n_lanes(), semiring.identity());
        if k == 1 {
            return shape::one_lane_frontier_into(self.as_slice(), identity, rows, stop_past, out);
        }
        out.clear();
        let (mut entries, mut edges) = (0usize, 0usize);
        for (i, lanes) in self.as_slice().chunks_exact(k).enumerate() {
            let active = lanes.iter().filter(|&&v| v != identity).count();
            if active > 0 {
                out.push(i);
                entries += active;
                edges += (rows[i + 1] - rows[i]) * active;
                if out.len() > stop_past.nodes
                    || entries > stop_past.entries
                    || edges > stop_past.edges
                {
                    break;
                }
            }
        }
        FrontierSize {
            nodes: out.len(),
            entries,
            edges,
        }
    }
    fn product_into(base: &BitB2sr, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        base.mxm_into(p, ws, out);
    }
    fn record_product(stats: &ExecStats, push: bool) {
        stats.record_mxm(push);
    }
    fn try_execute(expr: &Expr<'_, Self>, ctx: &Context) -> Result<Self, GrbError> {
        plan::try_execute(expr, ctx)
    }
}

/// The root of an expression chain: what produces the initial value.
#[derive(Debug)]
pub enum Producer<'a, V = Vector> {
    /// An already-materialized operand (copied into the chain's output).
    Leaf(&'a V),
    /// A matrix product over a semiring — matrix × vector, or matrix ×
    /// multivector (`k` simultaneous traversals advanced by one sweep) —
    /// with the full descriptor surface of the builder API.
    Product {
        /// The matrix operand.
        a: &'a Matrix,
        /// The vector / `n × k` multivector operand.
        x: &'a V,
        /// The semiring of the product.
        semiring: Semiring,
        /// Optional output mask over the **flat** output (length
        /// `produced · k`; position `i*k + l` gates node `i` of lane `l`).
        /// Masked-out positions produce the semiring identity, exactly like
        /// the masked kernel sweeps.
        mask: Option<&'a Mask>,
        /// Descriptor switches (transpose, direction).
        desc: Descriptor,
        /// `true` for the `vxm` orientation (`y = x ⊕.⊗ A`); always `false`
        /// for `mxm`, whose `.transpose()` plays that role.
        flip: bool,
        /// Optional per-node input scaling: the operand is read as
        /// `x[i,l] · scale[i]` (PageRank's out-degree normalisation, folded
        /// into the product instead of materialising a scaled copy through
        /// the API).
        scale: Option<&'a Vector>,
    },
}

/// A lazy expression chain: producer → element-wise stages → accumulator.
///
/// Built by the [`Op`](super::Op) builders; evaluated by
/// [`Context::evaluate`](super::Context::evaluate) (or the builders'
/// `.run(&ctx)` shorthand) through the planner.  `Expr` is `Copy` and holds
/// only references — constructing one allocates nothing.  `V` is the
/// [`Operand`] shape; an ewise stage's operand and the accumulator baseline
/// have the output's shape.
#[derive(Debug)]
#[must_use = "expressions do nothing until run(&ctx) / ctx.evaluate(..)"]
pub struct Expr<'a, V = Vector> {
    pub(crate) producer: Producer<'a, V>,
    /// Inline stage storage; only the first `n_stages` slots are live (the
    /// rest hold identity-affine fillers so the array stays `Copy`).
    stages: [Stage<'a>; MAX_STAGES],
    n_stages: usize,
    pub(crate) accum: Option<(BinaryOp, &'a V)>,
    fusion: Fusion,
}

// Manual impls: the derives would demand `V: Copy`, but a chain only holds
// references to its operands.
impl<V> Clone for Producer<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Producer<'_, V> {}
impl<V> Clone for Expr<'_, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<V> Copy for Expr<'_, V> {}

/// The inert filler stage unused slots hold.
const IDENTITY_STAGE: Stage<'static> = Stage::Affine { mul: 1.0, add: 0.0 };

impl<'a, V: Operand> Expr<'a, V> {
    /// A chain whose producer is an existing vector / multi-vector.
    pub fn leaf(v: &'a V) -> Self {
        Self::from_producer(Producer::Leaf(v))
    }

    /// A chain rooted at the given producer (used by the builders).
    pub(crate) fn from_producer(producer: Producer<'a, V>) -> Self {
        Expr {
            producer,
            stages: [IDENTITY_STAGE; MAX_STAGES],
            n_stages: 0,
            accum: None,
            fusion: Fusion::Fused,
        }
    }

    /// Set whether the planner may fuse this chain.
    pub fn set_fusion(&mut self, fusion: Fusion) {
        self.fusion = fusion;
    }

    /// Whether the planner may fuse this chain.
    pub fn fusion(&self) -> Fusion {
        self.fusion
    }

    /// Append an element-wise stage to the chain (applied to every lane of
    /// every node).
    ///
    /// # Panics
    /// Panics when the chain already holds [`MAX_STAGES`] stages.
    pub fn push_stage(&mut self, stage: Stage<'a>) {
        assert!(
            self.n_stages < MAX_STAGES,
            "expression chain exceeds {MAX_STAGES} stages; evaluate intermediate results"
        );
        self.stages[self.n_stages] = stage;
        self.n_stages += 1;
    }

    /// Terminate the chain with a GraphBLAS accumulator: the evaluated
    /// result becomes `out[i] = w[i] ⊕ t[i]` over the flat storage.
    pub fn set_accum(&mut self, op: BinaryOp, w: &'a V) {
        self.accum = Some((op, w));
    }

    /// The chain's element-wise stages, in evaluation order.
    pub fn stages(&self) -> &[Stage<'a>] {
        &self.stages[..self.n_stages]
    }
}

/// Run every stage in order at position `i`, starting from `acc`.
#[inline]
pub fn eval_stages(stages: &[Stage<'_>], i: usize, mut acc: f32) -> f32 {
    for s in stages {
        acc = s.eval(i, acc);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_evaluate_in_order() {
        let operand = [10.0f32, 20.0, 30.0];
        let double = |v: f32| v * 2.0;
        let v = Vector::zeros(3);
        let mut e = Expr::leaf(&v);
        e.push_stage(Stage::Apply(&double));
        e.push_stage(Stage::Affine { mul: 1.0, add: 3.0 });
        e.push_stage(Stage::Ewise {
            op: BinaryOp::Plus,
            operand: &operand,
        });
        // (1.0·2 + 3) + operand[1] = 25.0
        assert_eq!(eval_stages(e.stages(), 1, 1.0), 25.0);
        assert_eq!(e.stages().len(), 3);
    }

    #[test]
    fn select_and_affine_stage_eval() {
        let pos = |v: f32| v > 0.5;
        assert_eq!(Stage::Select(&pos).eval(0, 0.7), 1.0);
        assert_eq!(Stage::Select(&pos).eval(0, 0.2), 0.0);
        assert_eq!(Stage::Affine { mul: 2.0, add: 1.0 }.eval(9, 3.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn chain_capacity_is_enforced() {
        let v = Vector::zeros(1);
        let mut e = Expr::leaf(&v);
        for _ in 0..=MAX_STAGES {
            e.push_stage(Stage::Affine { mul: 1.0, add: 0.0 });
        }
    }

    #[test]
    fn debug_formatting_is_total() {
        let v = Vector::zeros(2);
        let f = |v: f32| v;
        let p = |_: f32| true;
        let operand = [0.0f32; 2];
        let mut e = Expr::leaf(&v);
        e.push_stage(Stage::Apply(&f));
        e.push_stage(Stage::Select(&p));
        e.push_stage(Stage::Ewise {
            op: BinaryOp::Min,
            operand: &operand,
        });
        let s = format!("{e:?}");
        assert!(s.contains("Apply"), "{s}");
        assert!(s.contains("Select"), "{s}");
    }
}
