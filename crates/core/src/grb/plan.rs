//! The execution planner: walks a lazy [`Expr`] chain, pattern-matches the
//! fusable shapes and emits fused backend calls.
//!
//! This is the "non-blocking mode" half of the GrB layer redesign: the
//! builders assemble expression chains ([`super::expr`]) and this module
//! decides how many kernel sweeps each chain costs.
//!
//! # Fusion rules
//!
//! Every product reaches the built backend as an [`MxvPipeline`]: a
//! single-vector one through [`BitB2sr::mxv_into`], a batched one (`k`
//! lanes) through [`BitB2sr::mxm_into`] — and, on a matrix with pending
//! deltas, then the overlay's re-fold of the dirty rows the operand reaches
//! (`DeltaOverlay::refold_dirty`).  One planner path (`execute_product`)
//! serves both [`Operand`] shapes; what differs is a constant of the shape,
//! `FUSES_INTO_SWEEP`.  For a
//! single-vector chain the planner hands the backend the whole chain — one
//! sweep — when the direction allows it:
//!
//! * **Pull** (dense sweep) — always fusable: the sweep produces each output
//!   row's final semiring value `t[i]` in one go, so the mask, every
//!   element-wise stage and the accumulator fold into the store
//!   (`out[i] = w[i] ⊕ stages(t[i])`).
//! * **Push** (sparse scatter) — the scatter produces `t` by *partial*
//!   updates, so element-wise stages cannot run until the scatter finishes:
//!   * no accumulator → fusable; stages run as one collapsed epilogue pass
//!     over the output;
//!   * accumulator whose operator **is** the semiring's additive monoid and
//!     no stages → fusable by seeding the output with the accumulation
//!     baseline and letting the scatter ⊕-fold into it (associativity +
//!     commutativity of the monoid make the partial order irrelevant);
//!   * anything else (non-monoid accumulator, accumulator + stages) →
//!     the bare product (a pipeline with no stages and no accumulator),
//!     with the epilogue still collapsed into one chain sweep
//!     ([`run_chain_in_place_parallel`]).
//!
//! A batched (`mxm`) **pull** is always the bare product — one batched
//! sweep, mask applied by the kernel — followed by **one** collapsed
//! epilogue pass over the flat `n × k` output: the batched sweeps do not
//! finish in their store (folding the epilogue into them is ROADMAP item 6).
//! A batched **push** takes the chain in the one case a scatter can finish
//! it — the monoid accumulator, seeded exactly as for a single vector (the
//! `sssp_multi` round: no fill-identity pass and no separate `n · k`
//! accumulator pass) — and is the bare product plus the epilogue pass
//! otherwise.
//!
//! Chains rooted at a leaf collapse into a single element-wise sweep
//! (apply/select folded into the consuming ewise pass).
//!
//! [`Fusion::NodeAtATime`] disables all of the above and executes the
//! *defining* semantics — the bare product, then one full pass per stage,
//! then an accumulator pass — which is what the fused≡unfused parity suite
//! and the fused-vs-unfused benchmark rows compare against.
//!
//! # Direction and workspace
//!
//! Direction resolution ([`Direction::Auto`]) happens *before* planning and
//! is identical for both paths: one scan of the operand builds the pooled
//! push frontier and counts what
//! [`choose_direction`](super::choose_direction) prices — entries for a
//! full-precision batch, whose scatter is lane-sparse, nodes otherwise; the
//! scan stops early once the count is past any push — and
//! a push product adds those counts to
//! [`ExecCounts::push_frontier_nodes`](super::ExecCounts) /
//! `push_frontier_entries`.  Fused pipelines draw every scratch buffer
//! (scaled operand, frontier list, output) from the context's
//! [`Workspace`] pool, so a steady-state fused loop
//! allocates nothing (`crates/core/tests/zero_alloc.rs`).

use crate::delta::DeltaOverlay;
use crate::faultinject::{FaultAction, InjectedPanic};
use crate::semiring::{BinaryOp, Semiring};

use super::backend::BitB2sr;
use super::descriptor::{Descriptor, Mask};
use super::direction::{scan_and_choose, scan_and_choose_words, Direction};
use super::error::GrbError;
use super::expr::shape::FrontierSize;
use super::expr::{eval_stages, Expr, Fusion, Operand, Producer, Stage};
use super::lanebits::LaneBits;
use super::matrix::{Backend, Matrix};
use super::nodebits::NodeBits;
use super::op::Context;
use super::workspace::{ExecStats, Workspace};

/// Poll the named fail point on the context's injector (if any): a
/// `Transient` action becomes a typed [`GrbError::FaultInjected`], a
/// `Panic` action panics with the recognisable [`InjectedPanic`] payload,
/// and `Latency` is counted by the injector but is a no-op here (the
/// virtual-clock layers upstream account the added time).
fn poll_fail_point(ctx: &Context, point: &'static str) -> Result<(), GrbError> {
    if let Some(inj) = ctx.fault_injector() {
        match inj.fire(point, None) {
            Some(FaultAction::Panic) => std::panic::panic_any(InjectedPanic { point }),
            Some(FaultAction::Transient) => return Err(GrbError::FaultInjected { point }),
            Some(FaultAction::Latency(_)) | None => {}
        }
    }
    Ok(())
}

/// Everything a backend needs to execute one product and whatever part of
/// its chain the planner fused onto it ([`BitB2sr::mxv_into`] for one
/// lane, [`BitB2sr::mxm_into`] for `k`): the (pre-scaled) flat operand
/// and its lane count, the resolved direction (`frontier` is `Some` for
/// push), the semiring, the mask, the collapsed element-wise epilogue and
/// the accumulator.  With no stages and no accumulator it is the bare
/// product.  Mask, stages and accumulator all address the **flat** output
/// (`i*k + l` = node `i`, lane `l`).
///
/// `transpose` is in `mxv` convention with the `vxm` flip already folded in:
/// the pull sweep runs on `Aᵀ` iff `transpose`, the push scatter walks the
/// opposite representation.
#[derive(Debug, Clone, Copy)]
pub struct MxvPipeline<'a> {
    /// The dense flat node-major operand (already input-scaled if the chain
    /// requested it).
    pub x: &'a [f32],
    /// Lanes per node: 1 for a vector, `k` for an `n × k` multi-vector.
    pub k: usize,
    /// `Some(active node indices, ascending)` when the resolved direction is
    /// push.
    pub frontier: Option<&'a [usize]>,
    /// The semiring of the product.
    pub semiring: Semiring,
    /// Optional output mask.
    pub mask: Option<&'a Mask>,
    /// Pull representation selector in `mxv` convention (flip folded in).
    pub transpose: bool,
    /// Collapsed element-wise epilogue, in evaluation order.
    pub stages: &'a [Stage<'a>],
    /// Optional accumulator `(⊕, baseline)`.
    pub accum: Option<(BinaryOp, &'a [f32])>,
}

impl MxvPipeline<'_> {
    /// Finish one output position: mask, stages and accumulator applied to
    /// the raw semiring value `raw` of flat position `i`.  This is the single
    /// definition of the pipeline's store semantics — every fused kernel
    /// funnels through it (or through a shape the planner proved
    /// equivalent).
    #[inline]
    pub fn finish(&self, i: usize, raw: f32) -> f32 {
        let t = match self.mask {
            Some(m) if !m.allows(i) => self.semiring.identity(),
            _ => raw,
        };
        let t = eval_stages(self.stages, i, t);
        match self.accum {
            Some((op, base)) => op.apply(base[i], t),
            None => t,
        }
    }

    /// True for the bare product: no stage and no accumulator follow it.
    pub fn is_bare(&self) -> bool {
        self.stages.is_empty() && self.accum.is_none()
    }

    /// Apply [`MxvPipeline::finish`] in place to a product whose mask the
    /// kernel already applied — the epilogue pass of pipelines that cannot
    /// finish inside their sweep (push scatters, packed Boolean pulls).  A
    /// bare pipeline has nothing left to do.
    pub fn finish_in_place(&self, out: &mut [f32]) {
        if self.is_bare() {
            return;
        }
        for (i, v) in out.iter_mut().enumerate() {
            *v = self.finish(i, *v);
        }
    }

    /// True when the scatter may ⊕-fold straight into the accumulation
    /// baseline (monoid accumulator, no intervening stages).
    ///
    /// The output is seeded with `⊕(base, identity)` — what the pull stores
    /// where no term arrives, not `base` itself for a NaN (`min` / `max`)
    /// or `−0.0` (`+`) base — and the terms fold into it: `⊕(base, t)` for
    /// `+` / `min` / `max`, but **not** for `Or`, which normalises any
    /// nonzero baseline to `1.0` — Boolean accumulations therefore always
    /// take the scatter + epilogue path.
    pub fn push_folds_accum(&self) -> bool {
        self.stages.is_empty()
            && self
                .accum
                .is_some_and(|(op, _)| op.matches_monoid(self.semiring) && op != BinaryOp::Or)
    }
}

/// Run a collapsed element-wise chain in place, split across cores for long
/// vectors: `out[i] = w[i] ⊕ stages(out[i])` — leaf-chain evaluation, the
/// epilogue of partially fused push pipelines and of batched products.
pub fn run_chain_in_place_parallel(
    stages: &[Stage<'_>],
    accum: Option<(BinaryOp, &[f32])>,
    out: &mut [f32],
) {
    use rayon::prelude::*;
    match accum {
        Some((op, base)) => out.par_iter_mut().enumerate().for_each(|(i, v)| {
            *v = op.apply(base[i], eval_stages(stages, i, *v));
        }),
        None => out.par_iter_mut().enumerate().for_each(|(i, v)| {
            *v = eval_stages(stages, i, *v);
        }),
    }
}

/// Run the pipeline `p` on `a`'s pinned view: the product of the built base
/// through the shape's entry point, then — when `a` reads through pending
/// deltas — the overlay's re-fold of the dirty positions the operand
/// reaches.  The one place an `f32` product meets the overlay, as
/// [`execute_word_product`] is for the word products.
pub(crate) fn product_into<V: Operand>(
    a: &Matrix,
    p: &MxvPipeline<'_>,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    V::product_into(a.base(), p, ws, out);
    if let Some(overlay) = a.overlay() {
        overlay.refold_dirty(a.base(), p, ws, out);
    }
}

/// Resolve the direction of one product into its push frontier: `None` is
/// pull, `Some((ascending frontier nodes, their size))` is push.  A push —
/// forced, or possible under Auto — scans the operand once into a pooled
/// list: `scan(auto, list)` collects the whole frontier when forced and
/// decides while it scans (`direction::scan_and_choose*`) under Auto.
fn resolve_frontier(
    requested: Direction,
    ws: &Workspace,
    scan: impl FnOnce(bool, &mut Vec<usize>) -> (Direction, FrontierSize),
) -> Option<(Vec<usize>, FrontierSize)> {
    if requested == Direction::Pull {
        return None;
    }
    let mut list = ws.take_empty::<usize>();
    let (direction, size) = scan(requested == Direction::Auto, &mut list);
    if direction == Direction::Push {
        Some((list, size))
    } else {
        ws.give(list);
        None
    }
}

/// Count one resolved batched or single product and, for a push, what it
/// scattered from; the frontier list goes back to the pool.
fn record_direction(
    ws: &Workspace,
    record_product: impl FnOnce(&ExecStats, bool),
    frontier: Option<(Vec<usize>, FrontierSize)>,
) {
    record_product(ws.stats(), frontier.is_some());
    if let Some((list, size)) = frontier {
        ws.stats().record_push_frontier(size.nodes, size.entries);
        ws.give(list);
    }
}

/// Evaluate an expression chain against a context (the implementation of
/// [`Context::try_evaluate`]; [`Context::evaluate`] panics on the `Err`).
pub(crate) fn try_execute<V: Operand>(expr: &Expr<'_, V>, ctx: &Context) -> Result<V, GrbError> {
    match expr.producer {
        Producer::Leaf(v) => execute_leaf(expr, v, ctx),
        Producer::Product { .. } => execute_product(expr, ctx),
    }
}

/// Evaluate `fold` over the chain's result without materialising it when
/// the chain is a leaf chain (the fused reduce path); matrix-rooted chains
/// evaluate normally and recycle the intermediate.
pub(crate) fn execute_reduce(expr: &Expr<'_>, fold: Semiring, ctx: &Context) -> f32 {
    ctx.workspace().stats().record_reduce();
    match expr.producer {
        Producer::Leaf(v) if expr.fusion() == Fusion::Fused => {
            let stages = expr.stages();
            let accum = expr.accum.map(|(op, w)| (op, w.as_slice()));
            check_chain_lengths(expr, v.len()).unwrap_or_else(|e| panic!("{e}"));
            // Monomorphic fast path for the dot-product shape
            // (`Op::ewise_mult(&a, &b).reduce()`).
            if accum.is_none() && fold == Semiring::Arithmetic {
                if let [Stage::Ewise {
                    op: BinaryOp::Times,
                    operand,
                }] = stages
                {
                    return v
                        .as_slice()
                        .iter()
                        .zip(*operand)
                        .map(|(&a, &b)| a * b)
                        .sum();
                }
            }
            let mut acc = fold.identity();
            for (i, &raw) in v.as_slice().iter().enumerate() {
                let t = eval_stages(stages, i, raw);
                let t = match accum {
                    Some((op, base)) => op.apply(base[i], t),
                    None => t,
                };
                acc = fold.reduce(acc, t);
            }
            acc
        }
        _ => {
            let out = try_execute(expr, ctx).unwrap_or_else(|e| panic!("{e}"));
            let r = fold.reduce_slice(out.as_slice());
            ctx.recycle(out);
            r
        }
    }
}

/// Check every stage operand and the accumulator match the flat produced
/// length (`produced = nodes · lanes`).
fn check_chain_lengths<V: Operand>(expr: &Expr<'_, V>, produced: usize) -> Result<(), GrbError> {
    for stage in expr.stages() {
        if let Stage::Ewise { operand, .. } = stage {
            let what = "ewise stage operand length must equal output length";
            GrbError::check_len(what, produced, operand.len())?;
        }
    }
    if let Some((_, w)) = expr.accum {
        let what = "accumulator length must equal output length";
        GrbError::check_len(what, produced, w.flat().len())?;
    }
    Ok(())
}

/// The defining node-at-a-time epilogue: one full pass per stage, then an
/// accumulator pass (shared by the single-vector and batched chains — both
/// run their stages over flat storage).
fn finish_node_at_a_time(
    stages: &[Stage<'_>],
    accum: Option<(BinaryOp, &[f32])>,
    ws: &Workspace,
    out: &mut [f32],
) {
    for stage in stages {
        match stage {
            Stage::Ewise { .. } => ws.stats().record_ewise(),
            Stage::Select(_) => ws.stats().record_select(),
            Stage::Apply(_) | Stage::Affine { .. } => ws.stats().record_apply(),
        }
        for (i, v) in out.iter_mut().enumerate() {
            *v = stage.eval(i, *v);
        }
    }
    if let Some((op, base)) = accum {
        for (i, v) in out.iter_mut().enumerate() {
            *v = op.apply(base[i], *v);
        }
    }
}

fn execute_leaf<V: Operand>(expr: &Expr<'_, V>, v: &V, ctx: &Context) -> Result<V, GrbError> {
    let (n, k) = v.shape();
    check_chain_lengths(expr, n * k)?;
    let ws = ctx.workspace();
    let mut out = ws.take_empty::<f32>();
    out.extend_from_slice(v.flat());
    let accum = expr.accum.map(|(op, w)| (op, w.flat()));
    if expr.fusion() == Fusion::Fused {
        ws.stats().record_ewise_chain();
        run_chain_in_place_parallel(expr.stages(), accum, &mut out);
    } else {
        finish_node_at_a_time(expr.stages(), accum, ws, &mut out);
    }
    Ok(V::from_flat(out, n, k))
}

/// Execute a matrix-product producer and its epilogue — the one planner
/// path for `mxv` / `vxm` (`V = Vector`) and `mxm` (`V = MultiVec`).
fn execute_product<V: Operand>(expr: &Expr<'_, V>, ctx: &Context) -> Result<V, GrbError> {
    let Producer::Product {
        a,
        x,
        semiring,
        mask,
        desc,
        flip,
        scale,
    } = expr.producer
    else {
        unreachable!("execute_product is only called for Product producers")
    };
    // `mxv` convention with the `vxm` flip folded in.
    let transpose = desc.transpose != flip;
    let (x_nodes, k) = x.shape();
    // Output node count is the non-contracted dimension.
    let (contracted, produced) = if transpose {
        (a.nrows(), a.ncols())
    } else {
        (a.ncols(), a.nrows())
    };
    if contracted != x_nodes {
        return Err(GrbError::DimensionMismatch {
            op: V::OP_NAMES[flip as usize],
            expected: contracted,
            got: x_nodes,
        });
    }
    if let Some(m) = mask {
        let what = "mask length must equal output length";
        GrbError::check_len(what, produced * k, m.len())?;
    }
    if let Some(s) = scale {
        let what = "input scale length must equal the operand's node count";
        GrbError::check_len(what, contracted, s.len())?;
    }
    check_chain_lengths(expr, produced * k)?;
    poll_fail_point(ctx, V::FAIL_POINT)?;

    let ws = ctx.workspace();
    let mut out = ws.take_empty::<f32>();

    // Materialize the scaled operand (if any) into pooled scratch,
    // broadcast across the lanes of each node; the pull sweep gathers each
    // entry many times, so scaling once up front is strictly cheaper than
    // scaling per gathered edge.
    let scaled: Option<V> = scale.map(|s| x.scaled(s.as_slice(), ws.take_empty()));
    let x = scaled.as_ref().unwrap_or(x);

    // Resolve the direction before planning.  A push — forced, or possible
    // under Auto — scans the operand once: the scan builds the pooled
    // frontier list and counts its nodes and non-identity entries; Auto
    // prices the count the scatter's cost follows (`choose_direction`) and
    // lets the scan give up once the count is past any push.  An explicit
    // push on an unsafe semiring is coerced back to pull.  The threshold is
    // parallelism-aware: every push is serial, the pull side is priced at
    // the host parallelism its rayon sweeps fan out to.
    let requested = if semiring.push_safe() {
        desc.direction
    } else {
        Direction::Pull
    };
    let frontier = resolve_frontier(requested, ws, |auto, list| {
        if !auto {
            let size = x.frontier_into(semiring, FrontierSize::UNBOUNDED, list);
            return (Direction::Push, size);
        }
        scan_and_choose(x, semiring, a.nnz(), rayon::current_num_threads(), list)
    });

    let accum = expr.accum.map(|(op, w)| (op, w.flat()));
    let fuse = expr.fusion() == Fusion::Fused;
    // The bare product and the whole chain, as the backend sees them.
    let product = MxvPipeline {
        x: x.flat(),
        k,
        frontier: frontier.as_ref().map(|(list, _)| list.as_slice()),
        semiring,
        mask,
        transpose,
        stages: &[],
        accum: None,
    };
    let chain = MxvPipeline {
        stages: expr.stages(),
        accum,
        ..product
    };
    // The backend takes the whole chain when the shape's sweeps finish in
    // their store and the direction can carry the accumulator — and, in
    // either shape, when a push scatter can fold the accumulator by
    // seeding its output with the baseline.  The stageless, unscaled shape
    // is one backend call either way and is not counted as a fusion.
    let fused_sweep = fuse
        && !(chain.is_bare() && scale.is_none())
        && if frontier.is_some() {
            chain.push_folds_accum() || (V::FUSES_INTO_SWEEP && accum.is_none())
        } else {
            V::FUSES_INTO_SWEEP
        };
    if fused_sweep {
        product_into::<V>(a, &chain, ws, &mut out);
        ws.stats().record_fused_mxv();
    } else {
        product_into::<V>(a, &product, ws, &mut out);
        if !chain.is_bare() {
            if fuse {
                // Partial fusion (a batched product, or a push with an
                // accumulator the scatter cannot fold): the epilogue still
                // collapses into one chain sweep.
                run_chain_in_place_parallel(expr.stages(), accum, &mut out);
                ws.stats().record_ewise_chain();
            } else {
                finish_node_at_a_time(expr.stages(), accum, ws, &mut out);
            }
        }
    }
    record_direction(ws, V::record_product, frontier);
    if let Some(scaled) = scaled {
        ws.give(scaled.into_flat());
    }
    debug_assert_eq!(out.len(), produced * k);
    Ok(V::from_flat(out, produced, k))
}

/// The two Boolean operands held in words between operations: [`LaneBits`]
/// (`k` lanes per node) and [`NodeBits`] (one bit per node).
///
/// The type parameter of the word-product builder
/// ([`WordProductBuilder`](super::op::WordProductBuilder)) — not an extension
/// point.  Sealed like [`Operand`]: everything the one word product path
/// (`execute_word_product`) needs of either lives on a crate-private
/// supertrait.
pub trait WordOperand: words::WordOps {}
impl WordOperand for LaneBits {}
impl WordOperand for NodeBits {}

pub(crate) mod words {
    use super::*;

    /// What `execute_word_product` needs of a [`WordOperand`].  Not nameable
    /// outside the crate — that is what seals it.
    pub trait WordOps: Sized {
        /// `(nodes, lanes)`.
        fn shape(&self) -> (usize, usize);
        /// Check `excluded` has the shape of `self`'s product over `produced`
        /// output nodes (`op` names the product in the error).
        fn check_excluded(
            &self,
            excluded: &Self,
            produced: usize,
            op: &'static str,
        ) -> Result<(), GrbError>;
        /// The planner's operand scan over words: **replace** `out` with the
        /// indices, ascending, of the nodes holding a set bit — the push
        /// frontier — giving up once their count passes `stop_past_nodes`.
        fn frontier_into(&self, stop_past_nodes: usize, out: &mut Vec<usize>) -> FrontierSize;
        /// `(A ⊕.⊗ self) & !excluded` over `produced` output nodes on the
        /// built bit backend (on `Aᵀ` with `transpose`; `frontier` is `Some`
        /// for push), then the overlay's word re-fold of the dirty rows the
        /// operand reaches.  The result's buffer comes from the pool.
        #[allow(clippy::too_many_arguments)]
        fn product(
            &self,
            bit: &BitB2sr,
            overlay: Option<&DeltaOverlay>,
            frontier: Option<&[usize]>,
            excluded: Option<&Self>,
            transpose: bool,
            produced: usize,
            ws: &Workspace,
        ) -> Self;
    }
}

/// The Boolean product over words (the implementation of
/// [`Op::mxm_lanes`](super::Op::mxm_lanes) on [`LaneBits`] and of
/// [`Op::vxm_bits`](super::Op::vxm_bits) / [`Op::mxm_bits`](super::Op::mxm_bits)
/// on [`NodeBits`]): `next = (A ⊕.⊗ x) & !excluded`, on `Aᵀ` when
/// `desc.transpose != flip`.  `Ok(None)` when the matrix has no word
/// product, which its `kind()` decides: a `Backend::Bit` matrix, tiled or
/// not, has it — built, or through pending deltas (the base's product, then
/// the overlay's word re-fold of the dirty rows the frontier reaches); the
/// float baseline does not.  Checks, fail point, direction resolution and counters are
/// `execute_product::<V>`'s for a Boolean product with a complemented mask —
/// `V` is the operand-shape marker they are read off, [`Vector`](super::Vector)
/// for `vxm` and [`MultiVec`](super::MultiVec) for a batch of any lane count,
/// one included — so a caller that falls back to that chain when this
/// declines resolves, counts and fails every round the same way.
pub(crate) fn execute_word_product<X: WordOperand, V: Operand>(
    a: &Matrix,
    x: &X,
    excluded: Option<&X>,
    desc: Descriptor,
    flip: bool,
    ctx: &Context,
) -> Result<Option<X>, GrbError> {
    let transpose = desc.transpose != flip;
    let op = V::OP_NAMES[flip as usize];
    let (x_nodes, k) = x.shape();
    let (contracted, produced) = if transpose {
        (a.nrows(), a.ncols())
    } else {
        (a.ncols(), a.nrows())
    };
    if contracted != x_nodes {
        return Err(GrbError::DimensionMismatch {
            op,
            expected: contracted,
            got: x_nodes,
        });
    }
    if let Some(e) = excluded {
        x.check_excluded(e, produced, op)?;
    }
    if !matches!(a.resolved_backend(), Backend::Bit(_)) {
        return Ok(None);
    }
    poll_fail_point(ctx, V::FAIL_POINT)?;

    let ws = ctx.workspace();
    let frontier = resolve_frontier(desc.direction, ws, |auto, list| {
        if !auto {
            return (Direction::Push, x.frontier_into(usize::MAX, list));
        }
        scan_and_choose_words(
            (x_nodes, k),
            a.nnz(),
            rayon::current_num_threads(),
            |stop_past_nodes| x.frontier_into(stop_past_nodes, list),
        )
    });
    let list = frontier.as_ref().map(|(list, _)| list.as_slice());
    let next = x.product(
        a.base(),
        a.overlay(),
        list,
        excluded,
        transpose,
        produced,
        ws,
    );
    record_direction(ws, V::record_product, frontier);
    Ok(Some(next))
}
