//! The pluggable storage/kernel backend trait and its two built-in
//! implementations.
//!
//! [`GrbBackend`] is the seam between the planner (`grb::plan`) and a storage
//! format.  It lists what a backend must do and nothing else: report its
//! shape and CSR views, run one product pipeline per operand shape
//! ([`GrbBackend::mxv_into`] for a vector, [`GrbBackend::mxm_into`] for an
//! `n × k` multi-vector), the masked product reduction of Triangle
//! Counting, and expose its row-shard plans.  Every method is required — no
//! provided body computes a product, so a backend can never drop silently
//! to a slower path.  The layer ships two implementations —
//!
//! * [`BitB2sr`] — B2SR storage + the bit kernels of [`crate::kernels`]
//!   (the paper's contribution);
//! * [`FloatCsr`] — 32-bit-float CSR + row-parallel reference sweeps (the
//!   GraphBLAST/cuSPARSE stand-in baseline) —
//!
//! plus the merge-on-read [`DeltaOverlay`](crate::delta::DeltaOverlay),
//! which forwards to a base backend and re-folds its dirty rows.  Backends
//! defined outside this crate implement the same fourteen methods; neither
//! the [`super::Matrix`] object nor the algorithms know which one they are
//! running on.
//!
//! The trait is object-safe: matrices hold an `Arc<dyn GrbBackend>`, and
//! cross-backend operations (`mxm_reduce_masked` with mixed operands)
//! negotiate through [`GrbBackend::as_any`] downcasts, falling back to the
//! always-available CSR view when the operands' concrete types differ.
//!
//! # Sharded push execution
//!
//! Every push (sparse-frontier) product of both built-in backends runs
//! through one routine, `push_scatter`: cut the ascending frontier at the
//! plan's row-shard boundaries, decide — from the frontier and the plan
//! alone, never from the thread count — whether the modelled scatter work
//! dominates the fixed-order merge ([`worth_sharding`]), and either run the
//! serial kernel once per segment into privatized buffers (checked out of
//! the workspace pool *before* the fan-out, so workers never touch the pool)
//! and merge them in ascending segment order, or run the serial kernel on
//! the whole frontier.  Scratch and cut buffers cycle through the pool, so
//! the sharded steady state stays allocation-free at `threads == 1` (the
//! parallel path additionally pays the scoped thread spawns).

use std::any::Any;
use std::sync::OnceLock;

use bitgblas_bitops::BitWord;
use bitgblas_sparse::{ops as float_ops, Csr};

use crate::b2sr::convert::RetileCounts;
use crate::b2sr::format::with_b2sr;
use crate::b2sr::{B2sr, B2srMatrix, TileSize};
use crate::kernels::bmm::{fold_all_lanes, lanes_are_dense, ActiveLanes, LANE_BLOCK};
use crate::kernels::bmv::pack_segments_into;
use crate::kernels::simd;
use crate::kernels::{
    bmm_bin_bin_sum_masked_nt, bmm_bin_bits_into, bmm_bin_full_into, bmm_push_bin_full,
    bmm_push_bits, bmv_bin_bin_bin_masked_into, bmv_bin_bin_bin_masked_simd_into,
    bmv_bin_full_full_fused_into, bmv_push_bin_bin, bmv_push_bin_full, pack_vector_bits_into,
};
use crate::semiring::{with_semiring_ops, Semiring};
use crate::shard::{merge_segments, scatter_segments, worth_sharding, ShardConfig, ShardPlan};

use super::descriptor::Mask;
use super::lanebits::{expand_lane_words_into, pack_lane_words_from};
use super::matrix::Backend;
use super::multivec::lane_words_per_node;
use super::nodebits::{join_tile_words, split_into_tile_words};
use super::plan::{self, MxvPipeline};
use super::workspace::{Poolable, Workspace};

/// A storage format plus the kernels implementing the matrix products on
/// it.
///
/// All vector operands are dense `f32` slices (the GrB layer's
/// [`super::Vector`] wraps one); binarized packing for the Boolean semiring
/// happens inside the backend, where the storage format is known.  The
/// `transpose` flags are in `mxv` convention (the planner folds the `vxm`
/// flip in) and select the cached `Aᵀ` representation, so both traversal
/// directions are one call.  Vector-only operations (`reduce`, `ewise_*`,
/// `apply`, `select`) never reach a backend — the planner runs them.
pub trait GrbBackend: std::fmt::Debug + Send + Sync {
    /// The resolved backend kind (never [`Backend::Auto`]).
    fn kind(&self) -> Backend;

    /// Number of rows.
    fn nrows(&self) -> usize;

    /// Number of columns.
    fn ncols(&self) -> usize;

    /// Number of stored edges.
    fn nnz(&self) -> usize;

    /// The binary CSR view.  Always available: it is the interchange format
    /// conversions and cross-backend fallbacks go through.
    fn csr(&self) -> &Csr;

    /// The binary CSR view of `Aᵀ`, built and cached on first use.
    fn csr_t(&self) -> &Csr;

    /// Run one single-vector product pipeline (`p.k == 1`):
    /// `out[i] = p.finish(i, t[i])` where `t = A ⊕.⊗ p.x` (on `Aᵀ` with
    /// `p.transpose`), in as few sweeps as the storage allows.  The backend
    /// sizes `out` itself and draws its scratch from the workspace pool.
    ///
    /// * `p.frontier` is the direction: `None` is the dense pull sweep;
    ///   `Some(active indices, ascending)` is the push scatter, which
    ///   traverses only those entries' edges and walks the *opposite*
    ///   representation from the pull sweep (a pure-push `vxm` traversal
    ///   never builds `Aᵀ`).  The planner only requests push for
    ///   [`Semiring::push_safe`] semirings.
    /// * Empty `p.stages` and no `p.accum` is the bare (masked) product —
    ///   what [`Fusion::NodeAtATime`](super::Fusion::NodeAtATime) and
    ///   partially fused push shapes ask for.
    /// * Anything else is a fused pipeline the planner proved fusable (see
    ///   `grb::plan`); [`MxvPipeline::finish`] is the single definition of
    ///   its store semantics.
    fn mxv_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>);

    /// Run one batched product pipeline — [`mxv_into`] over `p.k` lanes:
    /// `p.x` is a flat node-major `n × k` frontier matrix (`x[i*k + l]` =
    /// node `i`, lane `l`), and **one** sweep loads each tile once and
    /// applies it to every lane.
    ///
    /// `p.frontier` lists, in ascending order, the *node* indices with at
    /// least one lane differing from the semiring identity; only those
    /// nodes' edges are traversed and each edge scatters all `k` lane
    /// non-identity lane contributions at once.  The planner hands this
    /// entry point the bare product (the shape's `FUSES_INTO_SWEEP` is
    /// `false`) and one fused shape: a push whose monoid accumulator the
    /// scatter can fold ([`MxvPipeline::push_folds_accum`] — the built-in
    /// backends seed the output with the baseline and scatter straight into
    /// it).  Any other pipeline a backend is handed it may finish with one
    /// [`MxvPipeline::finish_in_place`] pass over the flat output, which is
    /// always correct.
    ///
    /// [`mxv_into`]: GrbBackend::mxv_into
    fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>);

    /// `Σ_{(i,j) ∈ mask} (A · B)[i][j]` over the arithmetic semiring — the
    /// Triangle Counting primitive — or `A · Bᵀ` with `transpose_b`, the
    /// orientation the kernels run in (they intersect rows of `A` with rows
    /// of the second factor's transpose, so `transpose_b` reads `b` itself
    /// and the plain product reads its cached transpose).  `b` and `mask`
    /// may be any backend; the implementation downcasts and falls back to
    /// the CSR reference kernel when the concrete types (or tile sizes)
    /// differ.  The caller checks the shapes.
    fn mxm_reduce_masked(
        &self,
        b: &dyn GrbBackend,
        mask: &dyn GrbBackend,
        transpose_b: bool,
    ) -> f64;

    /// The row-shard plan of a scatter representation, if one has been
    /// cut: `of_transpose` selects the plan over `Aᵀ`'s rows (the `mxv`
    /// push representation) instead of `A`'s.  `None` means pushes on that
    /// representation run (and are priced by `Direction::Auto` as) serial —
    /// what a backend without a sharded scatter always reports.
    fn shard_plan(&self, of_transpose: bool) -> Option<&ShardPlan>;

    /// Storage bytes of the active representation.
    fn storage_bytes(&self) -> usize;

    /// A new backend of the same kind holding `Aᵀ`.
    fn transpose_view(&self) -> Box<dyn GrbBackend>;

    /// Clone into a boxed backend (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn GrbBackend>;

    /// Downcast support for cross-backend negotiation.
    fn as_any(&self) -> &dyn Any;
}

/// Reference-kernel `mxm_reduce_masked` over the CSR views — the
/// cross-backend fallback path.  `spgemm_masked_sum` treats its second
/// operand as the second factor's transpose stored by rows: `b`'s transpose
/// CSR for `A · B`, `b`'s own CSR for `A · Bᵀ`.
pub(crate) fn csr_mxm_reduce_masked(
    a: &dyn GrbBackend,
    b: &dyn GrbBackend,
    mask: &dyn GrbBackend,
    transpose_b: bool,
) -> f64 {
    let bt = if transpose_b { b.csr() } else { b.csr_t() };
    float_ops::spgemm_masked_sum(a.csr(), bt, mask.csr())
        .expect("operand dimensions checked by the caller")
}

/// Expand Boolean node words ([`NodeBits`](super::NodeBits)' layout) into a
/// dense `f32` indicator, with an optional mask filter — the common tail of
/// the `f32` Boolean pull and push arms (`out` must hold `n` zeros).  Costs
/// the words plus the set bits.
fn expand_node_words_into(yw: &[u64], mask: Option<&Mask>, out: &mut [f32]) {
    for (at, &word) in yw.iter().enumerate() {
        for b in word.iter_ones() {
            let i = at * 64 + b as usize;
            if mask.is_none_or(|mk| mk.allows(i)) {
                out[i] = 1.0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Sharded-or-serial push scatter
// ---------------------------------------------------------------------------

/// Average out-degree of a scatter representation with `nnz` edges over
/// `nrows` rows — the frontier-edge estimate [`worth_sharding`] weighs
/// against the merge cost.  `nnz` is the backend's O(1) edge count (equal
/// for `A` and `Aᵀ`), never a sweep over the representation.
fn avg_degree(nnz: usize, nrows: usize) -> usize {
    (nnz / nrows.max(1)).max(1)
}

/// One push scatter into `y`, sharded when the plan and the frontier
/// warrant it and serial otherwise (see the module docs for the recipe).
///
/// `scatter(segment, chunk)` is the serial kernel: it folds the edges of the
/// ascending frontier rows `segment` into `chunk`, which is shaped like `y`.
/// `y` arrives pre-seeded (zeros, the semiring identity, or an accumulation
/// baseline); the privatized chunks start from `fill`, the identity of
/// `merge`, and fold into `y` in ascending segment order, so per position
/// the fold grouping depends only on the plan and the frontier — results
/// are bit-identical across thread counts, and for exact monoids equal to
/// the serial scatter outright.
///
/// `lanes` is the number of `y` positions per output node (1 for a single
/// vector, `k` or the lane-word count for a batch): per-edge work and
/// per-position merge both scale by it, so the engagement test runs on node
/// counts and the lanes enter only the scratch-footprint bound.
#[allow(clippy::too_many_arguments)]
fn push_scatter<T: Poolable + Sync>(
    ws: &Workspace,
    plan: &ShardPlan,
    frontier: &[usize],
    avg_deg: usize,
    lanes: usize,
    fill: T,
    y: &mut [T],
    scatter: impl Fn(&[usize], &mut [T]) + Sync,
    merge: impl Fn(T, T) -> T + Sync,
) {
    let mut cuts: Vec<usize> = ws.take_empty();
    plan.segment_frontier(frontier, &mut cuts);
    let n_seg = cuts.len().saturating_sub(1);
    let width = y.len();
    let elem_bytes = lanes * std::mem::size_of::<T>();
    if worth_sharding(frontier.len(), avg_deg, n_seg, width / lanes, elem_bytes) {
        let mut scratch = ws.take(n_seg * width, fill);
        let threads = ws.push_threads();
        scatter_segments(threads, n_seg, &mut scratch, width, |s, chunk| {
            scatter(&frontier[cuts[s]..cuts[s + 1]], chunk)
        });
        merge_segments(threads, n_seg, &scratch, width, y, merge);
        ws.stats().record_sharded_push(n_seg);
        ws.give(scratch);
    } else {
        scatter(frontier, y);
    }
    ws.give(cuts);
}

/// The per-row scatter weights a shard plan is cut from: the cumulative
/// weight pointer, the boundary alignment, and the row count (see
/// [`ShardPlan::from_weights`]).
type RowWeights<'a> = (&'a [usize], usize, usize);

/// Row weights of a CSR scatter representation: edges per row.
fn csr_weights(csr: &Csr) -> RowWeights<'_> {
    (csr.rowptr(), 1, csr.nrows())
}

/// Row weights of a B2SR scatter representation: tile counts are the
/// per-tile-row weight proxy, and boundaries fall on tile rows.
fn b2sr_weights(m: &B2srMatrix) -> RowWeights<'_> {
    with_b2sr!(m, |m| (m.tile_rowptr(), m.tile_dim(), m.nrows()))
}

/// The row-shard plans of a backend's two scatter representations, shared
/// by both built-in backends.  Each is [`ShardPlan::from_weights`] of its
/// representation under the one stored config — a function of what was
/// built, whichever way it was built.
#[derive(Debug, Clone)]
struct ScatterPlans {
    cfg: ShardConfig,
    /// Plan over `A`'s rows (the `vxm` push representation), cut by the
    /// backend's constructor.
    forward: ShardPlan,
    /// Plan over `Aᵀ`'s rows (the `mxv` push representation), cut when
    /// `Aᵀ` is first scattered.
    transposed: OnceLock<ShardPlan>,
}

impl ScatterPlans {
    fn cut(cfg: ShardConfig, (ptr, align, nrows): RowWeights<'_>) -> ShardPlan {
        ShardPlan::from_weights(ptr, align, nrows, cfg)
    }

    fn new(cfg: ShardConfig, forward: RowWeights<'_>) -> Self {
        ScatterPlans {
            cfg,
            forward: Self::cut(cfg, forward),
            transposed: OnceLock::new(),
        }
    }

    /// The plan of one representation, if cut.
    fn get(&self, of_transpose: bool) -> Option<&ShardPlan> {
        if of_transpose {
            self.transposed.get()
        } else {
            Some(&self.forward)
        }
    }

    /// The plan of one representation; `weights` are that representation's
    /// (by the time a push executes, the representation itself exists).
    fn get_or_plan(&self, of_transpose: bool, weights: RowWeights<'_>) -> &ShardPlan {
        if of_transpose {
            self.transposed.get_or_init(|| Self::cut(self.cfg, weights))
        } else {
            &self.forward
        }
    }

    /// The plans of the transpose view: the view's `A` is this matrix's
    /// `Aᵀ` (whose weights are `transposed`), so the two plans swap roles.
    fn swapped(&self, transposed: RowWeights<'_>) -> Self {
        ScatterPlans {
            cfg: self.cfg,
            forward: self.get_or_plan(true, transposed).clone(),
            transposed: OnceLock::from(self.forward.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// BitB2sr
// ---------------------------------------------------------------------------

/// The Bit-GraphBLAS backend: B2SR storage, bit kernels (Tables II and III).
#[derive(Debug)]
pub struct BitB2sr {
    csr: Csr,
    b2sr: B2srMatrix,
    csr_t: OnceLock<Csr>,
    b2sr_t: OnceLock<B2srMatrix>,
    shards: ScatterPlans,
}

impl BitB2sr {
    /// Convert a binary CSR matrix into B2SR with the given tile size and
    /// cut its row-shard plan under `cfg`.  The conversion is eager (the
    /// "one-time conversion cost" the paper amortizes); the transpose
    /// representations and their plan are built lazily.
    pub fn new(csr: &Csr, tile_size: TileSize, cfg: ShardConfig) -> Self {
        let bin = if csr.is_binary() {
            csr.clone()
        } else {
            csr.binarized()
        };
        BitB2sr::retiled(bin, tile_size, cfg, None).0
    }

    /// The backend of `bin`, an all-ones CSR taken by value and on trust
    /// (the compaction path hands over the merge it just wrote).  With
    /// `prev` — the backend of the same matrix before its ascending dirty
    /// rows changed — only the tile-rows holding a dirty row are converted
    /// ([`B2srMatrix::retile`]); the shard plan is cut from the result
    /// either way.
    pub(crate) fn retiled(
        bin: Csr,
        tile_size: TileSize,
        cfg: ShardConfig,
        prev: Option<(&BitB2sr, &[usize])>,
    ) -> (Self, RetileCounts) {
        debug_assert!(bin.is_binary());
        let prev = prev.map(|(old, dirty_rows)| (&old.b2sr, dirty_rows));
        let (b2sr, counts) = B2srMatrix::retile(&bin, tile_size, prev);
        let backend = BitB2sr {
            shards: ScatterPlans::new(cfg, b2sr_weights(&b2sr)),
            csr: bin,
            b2sr,
            csr_t: OnceLock::new(),
            b2sr_t: OnceLock::new(),
        };
        (backend, counts)
    }

    /// The B2SR representation.
    pub fn b2sr(&self) -> &B2srMatrix {
        &self.b2sr
    }

    /// The B2SR representation of `Aᵀ`, built and cached on first use.
    pub fn b2sr_t(&self) -> &B2srMatrix {
        self.b2sr_t.get_or_init(|| self.b2sr.transpose())
    }

    /// The tile size of the underlying B2SR matrix.
    pub fn tile_size(&self) -> TileSize {
        self.b2sr.tile_size()
    }

    /// `Aᵀ`'s representation iff `transposed`.  The pull sweep of a product
    /// runs on `rep(transpose)`; the push scatter walks the *rows* of the
    /// representation whose rows are the frontier's domain —
    /// `rep(!transpose)`.
    fn rep(&self, transposed: bool) -> &B2srMatrix {
        if transposed {
            self.b2sr_t()
        } else {
            &self.b2sr
        }
    }

    /// The scatter representation of a push product with its shard plan and
    /// average degree.
    fn scatter_rep(&self, transpose: bool) -> (&B2srMatrix, &ShardPlan, usize) {
        let rep = self.rep(!transpose);
        let plan = self.shards.get_or_plan(!transpose, b2sr_weights(rep));
        (rep, plan, avg_degree(self.csr.nnz(), rep.nrows()))
    }

    /// The batched Boolean product in lane words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` hold
    /// `k.div_ceil(64)` words per node ([`LaneBits`](super::LaneBits)'s
    /// layout), `frontier` is `mxm_into`'s — `Some(ascending nodes holding a
    /// set lane)` for push — and `yw` is a pooled buffer sized here.  Not a
    /// trait method: the op layer ([`Op::mxm_lanes`](super::Op::mxm_lanes))
    /// finds it by downcast, and the `f32` Boolean arms of `mxm_into` run the
    /// same two bodies between a pack and an expand.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lane_product(
        &self,
        xw: &[u64],
        k: usize,
        frontier: Option<&[usize]>,
        excluded: Option<&[u64]>,
        transpose: bool,
        ws: &Workspace,
        yw: &mut Vec<u64>,
    ) {
        match frontier {
            Some(frontier) => {
                let wpn = lane_words_per_node(k);
                let (rep, plan, avg) = self.scatter_rep(transpose);
                with_b2sr!(rep, |m| lane_push(
                    m, xw, wpn, frontier, plan, avg, excluded, ws, yw
                ))
            }
            None => with_b2sr!(self.rep(transpose), |m| lane_pull(
                m, xw, k, excluded, ws, yw
            )),
        }
    }

    /// The single-vector Boolean product in node words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` are in
    /// [`NodeBits`](super::NodeBits)' layout, `frontier` is `mxv_into`'s —
    /// `Some(ascending set indices of xw)` for push — and `yw` is a pooled
    /// buffer sized here.  [`lane_product`](Self::lane_product)'s one-bit
    /// sibling, found the same way ([`Op::vxm_bits`](super::Op::vxm_bits));
    /// the `f32` Boolean arms of `mxv_into` run the same two bodies between a
    /// pack and an expand.
    pub(crate) fn bits_product(
        &self,
        xw: &[u64],
        frontier: Option<&[usize]>,
        excluded: Option<&[u64]>,
        transpose: bool,
        ws: &Workspace,
        yw: &mut Vec<u64>,
    ) {
        match frontier {
            Some(frontier) => {
                let (rep, plan, avg) = self.scatter_rep(transpose);
                with_b2sr!(rep, |m| bits_push(m, frontier, plan, avg, excluded, ws, yw))
            }
            None => with_b2sr!(self.rep(transpose), |m| bits_pull(m, xw, excluded, ws, yw)),
        }
    }
}

/// Evaluate `$body` with `$allow: Fn(usize) -> bool` bound to the flat
/// output mask test, once with the mask and once without: the unmasked
/// expansion is `|_| true`, which the batched scatter kernels' lane loops
/// compile away (SSSP and PPR never carry a mask).
macro_rules! with_mask_hook {
    ($mask:expr, |$allow:ident| $body:expr) => {
        match $mask {
            Some(mk) => {
                let $allow = |flat: usize| mk.allows(flat);
                $body
            }
            None => {
                let $allow = |_: usize| true;
                $body
            }
        }
    };
}

/// Seed the output of a full-precision push scatter.  A foldable accumulator
/// ([`MxvPipeline::push_folds_accum`]) seeds it with the baseline, so the
/// scatter ⊕-folds straight into it and finishes the pipeline (sharded
/// segments fold from the identity and merge into the seed with the monoid,
/// exactly like the serial kernel) — returns `true`.  Everything else
/// scatters from the identity and still owes the collapsed epilogue
/// ([`MxvPipeline::finish_in_place`]) — returns `false`.
fn seed_push_output(p: &MxvPipeline<'_>, produced: usize, out: &mut Vec<f32>) -> bool {
    out.clear();
    match p.accum {
        Some((op, base)) if p.push_folds_accum() => {
            debug_assert!(op.matches_monoid(p.semiring));
            out.extend_from_slice(base);
            true
        }
        _ => {
            out.resize(produced, p.semiring.identity());
            false
        }
    }
}

/// The pull sweep of a single-vector pipeline on one B2SR width.
fn bit_pull<W: BitWord + Poolable>(
    m: &B2sr<W>,
    p: &MxvPipeline<'_>,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let dim = m.tile_dim();
    if p.semiring != Semiring::Boolean {
        // Full precision: one tile-granular sweep, bare or fused alike, with
        // the semiring and the finish both dispatched once per call (see
        // `bmv_bin_full_full_fused_into`).  The mask rides inside the
        // finishing closure — the bit sweep computes every row's raw value
        // regardless, exactly like the masked bit kernels.
        out.clear();
        out.resize(m.n_tile_rows() * dim, 0.0);
        plan::dispatch_finish(
            p,
            BitPullSink {
                m,
                semiring: p.semiring,
                x: p.x,
                out: out.as_mut_slice(),
            },
        );
        out.truncate(m.nrows());
        return;
    }
    // Boolean: pack → the node-word sweep → expand; the collapsed epilogue
    // (if any) runs over the expansion.  The mask rides into the kernel as
    // suppressed-row words, so the expansion has nothing left to filter.
    let mut xw: Vec<u64> = ws.take_empty();
    pack_segments_into(p.x, 64, &mut xw, |&v| v != 0.0);
    let sup = p.mask.map(|mk| {
        let mut mw: Vec<u64> = ws.take_empty();
        let complemented = mk.is_complemented();
        pack_segments_into(mk.structure(), 64, &mut mw, |&set| set == complemented);
        mw
    });
    let mut yw: Vec<u64> = ws.take_empty();
    bits_pull(m, &xw, sup.as_deref(), ws, &mut yw);
    out.clear();
    out.resize(m.nrows(), 0.0);
    expand_node_words_into(&yw, None, out);
    ws.stats()
        .record_converted(p.x.len() + p.mask.map_or(0, Mask::len) + out.len());
    ws.give(xw);
    ws.give(yw);
    if let Some(mw) = sup {
        ws.give(mw);
    }
    p.finish_in_place(out);
}

/// The single-vector Boolean pull sweep in node words on one B2SR width —
/// `yw = (m ⊕.⊗ xw) & !sup`, the minimal-footprint bin/bin/bin scheme — the
/// one body under [`BitB2sr::bits_product`] and the `f32` Boolean arm of
/// [`bit_pull`].  Operand and suppressed rows are re-laid out as tile words
/// (`n / 8` bytes each), the sweep stops where the answer is known
/// (`kernels::bmv`), and `yw` (a pooled buffer, sized here) receives the
/// node words of `nrows` entries.  Scalar vs SWAR tile body is the workspace
/// policy's decision (forced, env-seeded, or the constant Auto mask); the
/// two are word-identical — tests/simd_parity.rs.
fn bits_pull<W: BitWord + Poolable>(
    m: &B2sr<W>,
    xw: &[u64],
    sup: Option<&[u64]>,
    ws: &Workspace,
    yw: &mut Vec<u64>,
) {
    let dim = m.tile_dim();
    let mut xp: Vec<W> = ws.take_empty();
    split_into_tile_words(xw, dim, m.n_tile_cols(), &mut xp);
    let mp = sup.map(|sup| {
        let mut mp: Vec<W> = ws.take_empty();
        split_into_tile_words(sup, dim, m.n_tile_rows(), &mut mp);
        mp
    });
    let mut tiles: Vec<W> = ws.take(m.n_tile_rows(), W::ZERO);
    if ws.simd_enabled(dim) {
        bmv_bin_bin_bin_masked_simd_into(m, &xp, mp.as_deref(), &mut tiles);
    } else {
        bmv_bin_bin_bin_masked_into(m, &xp, mp.as_deref(), &mut tiles);
    }
    join_tile_words(&tiles, dim, m.nrows(), yw);
    ws.give(xp);
    ws.give(tiles);
    if let Some(mp) = mp {
        ws.give(mp);
    }
}

/// The single-vector Boolean push scatter in node words over the rows of one
/// B2SR width (`m` is the scatter representation), finished with the AND-NOT
/// of `excluded` — the push half of [`bits_pull`]'s contract.  The scatter
/// and its merge are word-granular: one OR covers `tile_dim` outputs, so the
/// engagement test counts tile words.  `yw` receives the node words of
/// `ncols` entries.
fn bits_push<W: BitWord + Poolable>(
    m: &B2sr<W>,
    frontier: &[usize],
    plan: &ShardPlan,
    avg_deg: usize,
    excluded: Option<&[u64]>,
    ws: &Workspace,
    yw: &mut Vec<u64>,
) {
    let mut tiles: Vec<W> = ws.take(m.n_tile_cols(), W::ZERO);
    push_scatter(
        ws,
        plan,
        frontier,
        avg_deg,
        1,
        W::ZERO,
        &mut tiles,
        |segment, chunk| bmv_push_bin_bin(m, segment, chunk),
        |acc, v| acc | v,
    );
    join_tile_words(&tiles, m.tile_dim(), m.ncols(), yw);
    if let Some(excluded) = excluded {
        simd::andnot_into(yw, excluded);
    }
    ws.give(tiles);
}

/// The push scatter of a single-vector pipeline over the rows of one B2SR
/// width (`m` is the scatter representation).
fn bit_push<W: BitWord + Poolable>(
    m: &B2sr<W>,
    p: &MxvPipeline<'_>,
    frontier: &[usize],
    plan: &ShardPlan,
    avg_deg: usize,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let produced = m.ncols();
    if p.semiring == Semiring::Boolean {
        // The node-word scatter → expand.  Every Boolean pipeline scatters
        // from the identity and runs the collapsed epilogue over the
        // expansion: `Or` would normalise a seeded baseline
        // (`push_folds_accum` excludes it) and the packed words could not
        // carry one anyway.  The mask filters the expansion, which visits
        // the set bits only.
        let mut yw: Vec<u64> = ws.take_empty();
        bits_push(m, frontier, plan, avg_deg, None, ws, &mut yw);
        out.clear();
        out.resize(produced, 0.0);
        expand_node_words_into(&yw, p.mask, out);
        ws.stats().record_converted(out.len());
        ws.give(yw);
        p.finish_in_place(out);
        return;
    }
    let semiring = p.semiring;
    let finished = seed_push_output(p, produced, out);
    let allow = |j: usize| p.mask.is_none_or(|mk| mk.allows(j));
    push_scatter(
        ws,
        plan,
        frontier,
        avg_deg,
        1,
        semiring.identity(),
        out,
        |segment, chunk| bmv_push_bin_full(m, p.x, segment, semiring, allow, chunk),
        |acc, v| semiring.reduce(acc, v),
    );
    if !finished {
        p.finish_in_place(out);
    }
}

/// The batched Boolean pull sweep in lane words on one B2SR width —
/// `yw = (m ⊕.⊗ xw) & !sup` — the one body under [`BitB2sr::lane_product`]
/// and the `f32` Boolean arm of [`bit_mxm_pull`].  `yw` (a pooled buffer,
/// sized here) receives `nrows · wpn` words.
fn lane_pull<W: BitWord + Poolable>(
    m: &B2sr<W>,
    xw: &[u64],
    k: usize,
    sup: Option<&[u64]>,
    ws: &Workspace,
    yw: &mut Vec<u64>,
) {
    let dim = m.tile_dim();
    let wpn = lane_words_per_node(k);
    // The any-lane-active tile word per tile column lets the sweep skip
    // inactive columns at word granularity.
    let mut xa: Vec<W> = ws.take(m.n_tile_cols(), W::ZERO);
    for (active, nodes) in xa.iter_mut().zip(xw.chunks(dim * wpn)) {
        for (c, lanes) in nodes.chunks_exact(wpn).enumerate() {
            if lanes.iter().any(|&w| w != 0) {
                *active = active.with_bit(c as u32);
            }
        }
    }
    // The kernel writes whole tile-rows; the padding rows hold no edge.
    yw.clear();
    yw.resize(m.n_tile_rows() * dim * wpn, 0);
    bmm_bin_bits_into(m, xw, k, &xa, sup, yw);
    yw.truncate(m.nrows() * wpn);
    ws.give(xa);
}

/// The batched Boolean push scatter in lane words over the rows of one B2SR
/// width (`m` is the scatter representation), finished with the AND-NOT of
/// `excluded` — the push half of [`lane_pull`]'s contract.  `yw` receives
/// `ncols · wpn` words.
#[allow(clippy::too_many_arguments)]
fn lane_push<W: BitWord>(
    m: &B2sr<W>,
    xw: &[u64],
    wpn: usize,
    frontier: &[usize],
    plan: &ShardPlan,
    avg_deg: usize,
    excluded: Option<&[u64]>,
    ws: &Workspace,
    yw: &mut Vec<u64>,
) {
    yw.clear();
    yw.resize(m.ncols() * wpn, 0);
    push_scatter(
        ws,
        plan,
        frontier,
        avg_deg,
        wpn,
        0u64,
        yw,
        |segment, chunk| bmm_push_bits(m, segment, xw, wpn, chunk),
        |acc, v| acc | v,
    );
    if let Some(excluded) = excluded {
        simd::andnot_into(yw, excluded);
    }
}

/// The batched pull sweep on one B2SR width.
fn bit_mxm_pull<W: BitWord + Poolable>(
    m: &B2sr<W>,
    p: &MxvPipeline<'_>,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let (x, k, semiring, mask) = (p.x, p.k, p.semiring, p.mask);
    let dim = m.tile_dim();
    let nrows = m.nrows();
    out.clear();
    if semiring == Semiring::Boolean {
        // Pack → the word sweep → expand.  The flat mask rides into the
        // kernel as suppressed lane words, so fully-masked rows (every lane
        // visited, the common late-traversal state) are skipped at word
        // granularity and the expansion has nothing left to filter.
        let mut xw: Vec<u64> = ws.take_empty();
        pack_lane_words_from(x, k, |v| v != 0.0, &mut xw);
        let sup: Option<Vec<u64>> = mask.map(|mk| {
            let mut mw: Vec<u64> = ws.take_empty();
            let complemented = mk.is_complemented();
            pack_lane_words_from(mk.structure(), k, |set| set == complemented, &mut mw);
            mw
        });
        let mut yw: Vec<u64> = ws.take_empty();
        lane_pull(m, &xw, k, sup.as_deref(), ws, &mut yw);
        out.resize(nrows * k, 0.0);
        expand_lane_words_into(&yw, k, None, out);
        ws.stats()
            .record_converted(x.len() + mask.map_or(0, Mask::len) + out.len());
        ws.give(xw);
        ws.give(yw);
        if let Some(mw) = sup {
            ws.give(mw);
        }
    } else {
        // The tilewise any-lane-active indicator lets the sweep skip
        // inactive columns at word granularity (exact for push-safe
        // semirings, where identity entries contribute nothing).
        let mut active: Vec<bool> = ws.take_empty();
        let mut xa: Vec<W> = ws.take_empty();
        if semiring.push_safe() {
            active.extend(
                x.chunks_exact(k)
                    .map(|lanes| lanes.iter().any(|&v| !semiring.is_identity(v))),
            );
            pack_vector_bits_into(&active, dim, &mut xa);
        }
        out.resize(m.n_tile_rows() * dim * k, semiring.identity());
        let xa_opt = semiring.push_safe().then_some(xa.as_slice());
        bmm_bin_full_into(m, x, k, semiring, xa_opt, out);
        out.truncate(nrows * k);
        if let Some(mk) = mask {
            let identity = semiring.identity();
            for (flat, v) in out.iter_mut().enumerate() {
                if !mk.allows(flat) {
                    *v = identity;
                }
            }
        }
        ws.give(active);
        ws.give(xa);
    }
    p.finish_in_place(out);
}

/// The batched push scatter over the rows of one B2SR width (`m` is the
/// scatter representation).
fn bit_mxm_push<W: BitWord>(
    m: &B2sr<W>,
    p: &MxvPipeline<'_>,
    frontier: &[usize],
    plan: &ShardPlan,
    avg_deg: usize,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let (x, k, semiring, mask) = (p.x, p.k, p.semiring, p.mask);
    let produced = m.ncols();
    out.clear();
    if semiring == Semiring::Boolean {
        // Pack → the word scatter → expand.  The mask filters the expansion
        // (which skips all-zero nodes) instead of being staged into words:
        // after a thin frontier most nodes are.
        let wpn = lane_words_per_node(k);
        let mut xw: Vec<u64> = ws.take_empty();
        pack_lane_words_from(x, k, |v| v != 0.0, &mut xw);
        let mut yw: Vec<u64> = ws.take_empty();
        lane_push(m, &xw, wpn, frontier, plan, avg_deg, None, ws, &mut yw);
        out.resize(produced * k, 0.0);
        expand_lane_words_into(&yw, k, mask, out);
        ws.stats().record_converted(x.len() + out.len());
        ws.give(xw);
        ws.give(yw);
    } else {
        let finished = seed_push_output(p, produced * k, out);
        with_mask_hook!(mask, |allow| push_scatter(
            ws,
            plan,
            frontier,
            avg_deg,
            k,
            semiring.identity(),
            out,
            |segment, chunk| bmm_push_bin_full(m, x, k, segment, semiring, allow, chunk),
            |acc, v| semiring.reduce(acc, v),
        ));
        if finished {
            return;
        }
    }
    p.finish_in_place(out);
}

impl GrbBackend for BitB2sr {
    fn kind(&self) -> Backend {
        Backend::Bit(self.b2sr.tile_size())
    }

    fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    fn csr(&self) -> &Csr {
        &self.csr
    }

    fn csr_t(&self) -> &Csr {
        self.csr_t.get_or_init(|| self.csr.transpose())
    }

    fn mxv_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            Some(frontier) => {
                let (rep, plan, avg) = self.scatter_rep(p.transpose);
                with_b2sr!(rep, |m| bit_push(m, p, frontier, plan, avg, ws, out))
            }
            None => with_b2sr!(self.rep(p.transpose), |m| bit_pull(m, p, ws, out)),
        }
    }

    fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            Some(frontier) => {
                let (rep, plan, avg) = self.scatter_rep(p.transpose);
                with_b2sr!(rep, |m| bit_mxm_push(m, p, frontier, plan, avg, ws, out))
            }
            None => with_b2sr!(self.rep(p.transpose), |m| bit_mxm_pull(m, p, ws, out)),
        }
    }

    fn mxm_reduce_masked(
        &self,
        b: &dyn GrbBackend,
        mask: &dyn GrbBackend,
        transpose_b: bool,
    ) -> f64 {
        // The one-call bit path needs all three operands in B2SR with the
        // same tile size; anything else goes through the CSR fallback.
        fn bit(o: &dyn GrbBackend) -> Option<&BitB2sr> {
            o.as_any().downcast_ref()
        }
        let (Some(bb), Some(mb)) = (bit(b), bit(mask)) else {
            return csr_mxm_reduce_masked(self, b, mask, transpose_b);
        };
        // The kernel reads the second factor's transpose by rows.
        let bt = bb.rep(!transpose_b);
        with_b2sr!(&self.b2sr, |a| {
            match (bt.inner(a.tile_dim()), mb.b2sr.inner(a.tile_dim())) {
                (Some(bt), Some(m)) => bmm_bin_bin_sum_masked_nt(a, bt, m) as f64,
                _ => csr_mxm_reduce_masked(self, b, mask, transpose_b),
            }
        })
    }

    fn shard_plan(&self, of_transpose: bool) -> Option<&ShardPlan> {
        self.shards.get(of_transpose)
    }

    fn storage_bytes(&self) -> usize {
        self.b2sr.storage_bytes()
    }

    fn transpose_view(&self) -> Box<dyn GrbBackend> {
        Box::new(BitB2sr {
            csr: self.csr_t().clone(),
            b2sr: self.b2sr_t().clone(),
            csr_t: OnceLock::from(self.csr.clone()),
            b2sr_t: OnceLock::from(self.b2sr.clone()),
            shards: self.shards.swapped(b2sr_weights(self.b2sr_t())),
        })
    }

    fn clone_box(&self) -> Box<dyn GrbBackend> {
        Box::new(BitB2sr {
            csr: self.csr.clone(),
            b2sr: self.b2sr.clone(),
            csr_t: OnceLock::new(),
            b2sr_t: OnceLock::new(),
            shards: self.shards.clone(),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// [`FinishSink`](plan::FinishSink) for the BitB2sr full-precision pull
/// sweep: runs the tile-granular [`bmv_bin_full_full_fused_into`] kernel with
/// the finishing closure [`plan::dispatch_finish`] monomorphised for the
/// pipeline's epilogue shape (the identity for a bare product).  `out` has
/// the padded length.
struct BitPullSink<'a, 'b, W: BitWord> {
    m: &'a B2sr<W>,
    semiring: Semiring,
    x: &'a [f32],
    out: &'b mut [f32],
}

impl<W: BitWord> plan::FinishSink for BitPullSink<'_, '_, W> {
    fn run<Fin: Fn(usize, f32) -> f32 + Sync>(self, fin: Fin) {
        bmv_bin_full_full_fused_into(self.m, self.x, self.semiring, fin, self.out);
    }
}

/// [`FinishSink`](plan::FinishSink) for the FloatCsr pull sweep: one pass
/// over the rows with the semiring dispatched **once per call** — each
/// semiring gets a monomorphised gather loop — and the pipeline epilogue
/// (handed in by [`plan::dispatch_finish`], itself monomorphised for the
/// common shapes) folded into the store.  Masked rows skip their edge walk
/// entirely (GraphBLAST's early exit).
struct CsrPullSink<'a, 'b> {
    csr: &'a Csr,
    semiring: Semiring,
    x: &'a [f32],
    mask: Option<&'a Mask>,
    out: &'b mut [f32],
}

impl plan::FinishSink for CsrPullSink<'_, '_> {
    fn run<Fin: Fn(usize, f32) -> f32 + Sync>(self, fin: Fin) {
        use rayon::prelude::*;
        let (csr, x, mask, out) = (self.csr, self.x, self.mask, self.out);
        with_semiring_ops!(self.semiring, |identity, combine, reduce| {
            out.par_iter_mut().enumerate().for_each(|(r, slot)| {
                let masked = match mask {
                    Some(m) => !m.allows(r),
                    None => false,
                };
                let raw = if masked {
                    identity
                } else {
                    let (cols, _) = csr.row(r);
                    let mut acc = identity;
                    for &c in cols {
                        acc = reduce(acc, combine(x[c]));
                    }
                    acc
                };
                *slot = fin(r, raw);
            })
        });
    }
}

// ---------------------------------------------------------------------------
// FloatCsr
// ---------------------------------------------------------------------------

/// The baseline backend: 32-bit-float CSR + reference kernels (the
/// GraphBLAST / cuSPARSE stand-in).
#[derive(Debug)]
pub struct FloatCsr {
    csr: Csr,
    csr_t: OnceLock<Csr>,
    shards: ScatterPlans,
}

impl FloatCsr {
    /// Wrap a binary CSR matrix (binarizing if needed) and cut its
    /// row-shard plan under `cfg`.
    pub fn new(csr: &Csr, cfg: ShardConfig) -> Self {
        let bin = if csr.is_binary() {
            csr.clone()
        } else {
            csr.binarized()
        };
        FloatCsr::from_binary(bin, cfg)
    }

    /// Wrap `bin`, an all-ones CSR taken by value and on trust (the
    /// compaction path hands over the merge it just wrote).
    pub(crate) fn from_binary(bin: Csr, cfg: ShardConfig) -> Self {
        debug_assert!(bin.is_binary());
        FloatCsr {
            shards: ScatterPlans::new(cfg, csr_weights(&bin)),
            csr: bin,
            csr_t: OnceLock::new(),
        }
    }

    /// `Aᵀ`'s representation iff `transposed` (pull runs on
    /// `rep(transpose)`, push scatters the rows of `rep(!transpose)` — see
    /// [`BitB2sr`]).
    fn rep(&self, transposed: bool) -> &Csr {
        if transposed {
            self.csr_t()
        } else {
            &self.csr
        }
    }

    /// The scatter representation of a push product with its shard plan
    /// (edge counts per row, [`crate::shard::SHARD_ALIGN`]-aligned
    /// boundaries) and average degree.
    fn scatter_rep(&self, transpose: bool) -> (&Csr, &ShardPlan, usize) {
        let rep = self.rep(!transpose);
        let plan = self.shards.get_or_plan(!transpose, csr_weights(rep));
        (rep, plan, avg_degree(self.csr.nnz(), rep.nrows()))
    }

    /// Batched pull sweep: row-parallel CSR matrix × multivector over an
    /// arbitrary semiring.  `y` has `nrows · k` entries; each row's `k` lane
    /// accumulators advance together so the row's column list is walked
    /// exactly once for the whole batch, under a semiring resolved once per
    /// call.
    fn float_mxm_into(
        csr: &Csr,
        x: &[f32],
        k: usize,
        semiring: Semiring,
        mask: Option<&Mask>,
        y: &mut [f32],
    ) {
        use rayon::prelude::*;
        with_semiring_ops!(semiring, |identity, combine, reduce| {
            y.par_chunks_mut(k).enumerate().for_each(|(r, out)| {
                out.fill(identity);
                // A row whose every lane is masked out produces only
                // identities — skip its edge walk entirely (GraphBLAST's
                // early exit, per batch: the common state of late traversal
                // iterations).
                if let Some(m) = mask {
                    if (0..k).all(|l| !m.allows(r * k + l)) {
                        return;
                    }
                }
                let (cols, _) = csr.row(r);
                for &c in cols {
                    for (d, &s) in out.iter_mut().zip(&x[c * k..][..k]) {
                        *d = reduce(*d, combine(s));
                    }
                }
                if let Some(m) = mask {
                    for (l, v) in out.iter_mut().enumerate() {
                        if !m.allows(r * k + l) {
                            *v = identity;
                        }
                    }
                }
            })
        });
    }

    /// Push scatter over the rows of `csr` (the representation whose rows are
    /// the frontier's domain), single-vector (`k = 1`) and batched alike:
    /// every frontier node's edge list is walked once and its lane
    /// contributions fold into each out-neighbour — all `k` of them when the
    /// node's lanes are dense, only the enumerated non-identity ones
    /// otherwise: the two arms, the crossover and the exactness argument of
    /// [`bmm_push_bin_full`], whose lane helpers this shares.  `allow` is
    /// the flat mask hook (`with_mask_hook!`) and the semiring is resolved
    /// once per call.  Serial and allocation-free, like the B2SR push
    /// kernels.  Always inlined, so the single-vector caller's `k = 1` folds
    /// the lane loop (a frontier node's one lane is active: always the dense
    /// arm).
    #[inline(always)]
    fn float_mxm_push_into(
        csr: &Csr,
        x: &[f32],
        k: usize,
        frontier: &[usize],
        semiring: Semiring,
        allow: impl Fn(usize) -> bool,
        y: &mut [f32],
    ) {
        with_semiring_ops!(semiring, |identity, combine, reduce| {
            for &u in frontier {
                let src = &x[u * k..][..k];
                let cols = csr.row(u).0;
                if lanes_are_dense(src, identity) {
                    for &j in cols {
                        fold_all_lanes(&mut y[j * k..][..k], src, j * k, &allow, combine, reduce);
                    }
                    continue;
                }
                for (b, block) in src.chunks(LANE_BLOCK).enumerate() {
                    let Some(lanes) = ActiveLanes::of(block, identity, combine) else {
                        continue;
                    };
                    for &j in cols {
                        let flat0 = j * k + b * LANE_BLOCK;
                        lanes.fold_into(&mut y[flat0..], flat0, &allow, reduce);
                    }
                }
            }
        });
    }

    /// The push scatter of a pipeline, single-vector and batched alike.  `k`
    /// is `p.k`, passed apart and the body always inlined, so `mxv_into`'s
    /// literal `1` folds the lane loop away.
    #[inline(always)]
    fn push_into(
        &self,
        p: &MxvPipeline<'_>,
        k: usize,
        frontier: &[usize],
        ws: &Workspace,
        out: &mut Vec<f32>,
    ) {
        let semiring = p.semiring;
        let (csr, plan, avg) = self.scatter_rep(p.transpose);
        let finished = seed_push_output(p, csr.ncols() * k, out);
        with_mask_hook!(p.mask, |allow| push_scatter(
            ws,
            plan,
            frontier,
            avg,
            k,
            semiring.identity(),
            out,
            |segment, chunk| Self::float_mxm_push_into(
                csr, p.x, k, segment, semiring, allow, chunk
            ),
            |acc, v| semiring.reduce(acc, v),
        ));
        if !finished {
            p.finish_in_place(out);
        }
    }
}

impl GrbBackend for FloatCsr {
    fn kind(&self) -> Backend {
        Backend::FloatCsr
    }

    fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    fn csr(&self) -> &Csr {
        &self.csr
    }

    fn csr_t(&self) -> &Csr {
        self.csr_t.get_or_init(|| self.csr.transpose())
    }

    fn mxv_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        let semiring = p.semiring;
        let Some(frontier) = p.frontier else {
            // Pull: one row sweep, bare or fused alike.
            let csr = self.rep(p.transpose);
            out.clear();
            out.resize(csr.nrows(), 0.0);
            plan::dispatch_finish(
                p,
                CsrPullSink {
                    csr,
                    semiring,
                    x: p.x,
                    mask: p.mask,
                    out,
                },
            );
            return;
        };
        self.push_into(p, 1, frontier, ws, out);
    }

    fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        let Some(frontier) = p.frontier else {
            let csr = self.rep(p.transpose);
            out.clear();
            out.resize(csr.nrows() * p.k, p.semiring.identity());
            Self::float_mxm_into(csr, p.x, p.k, p.semiring, p.mask, out);
            p.finish_in_place(out);
            return;
        };
        self.push_into(p, p.k, frontier, ws, out);
    }

    fn mxm_reduce_masked(
        &self,
        b: &dyn GrbBackend,
        mask: &dyn GrbBackend,
        transpose_b: bool,
    ) -> f64 {
        csr_mxm_reduce_masked(self, b, mask, transpose_b)
    }

    fn shard_plan(&self, of_transpose: bool) -> Option<&ShardPlan> {
        self.shards.get(of_transpose)
    }

    fn storage_bytes(&self) -> usize {
        self.csr.storage_bytes()
    }

    fn transpose_view(&self) -> Box<dyn GrbBackend> {
        Box::new(FloatCsr {
            csr: self.csr_t().clone(),
            csr_t: OnceLock::from(self.csr.clone()),
            shards: self.shards.swapped(csr_weights(self.csr_t())),
        })
    }

    fn clone_box(&self) -> Box<dyn GrbBackend> {
        Box::new(FloatCsr {
            csr: self.csr.clone(),
            csr_t: OnceLock::new(),
            shards: self.shards.clone(),
        })
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::b2sr::convert::from_csr;
    use crate::grb::{Context, Direction, Fusion, Matrix, MultiVec, Op, Vector};
    use crate::semiring::BinaryOp;
    use bitgblas_sparse::Coo;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample(n: usize, seed: u64) -> Csr {
        let mut coo = Coo::new(n, n);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n * 4 {
            let r = (next() % n as u64) as usize;
            let c = (next() % n as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    fn bit_b2sr(csr: &Csr, tile_size: TileSize) -> BitB2sr {
        BitB2sr::new(csr, tile_size, ShardConfig::default())
    }

    fn float_csr(csr: &Csr) -> FloatCsr {
        FloatCsr::new(csr, ShardConfig::default())
    }

    /// The bare pull product `A ⊕.⊗ x` through the trait.
    fn product(b: &dyn GrbBackend, x: &[f32], semiring: Semiring) -> Vec<f32> {
        let p = MxvPipeline {
            x,
            k: 1,
            frontier: None,
            semiring,
            mask: None,
            transpose: false,
            stages: &[],
            accum: None,
        };
        let mut out = Vec::new();
        b.mxv_into(&p, &Workspace::new(), &mut out);
        out
    }

    #[test]
    fn backends_agree_through_the_trait_object() {
        let csr = sample(70, 5);
        let x: Vec<f32> = (0..70).map(|i| (i % 7) as f32).collect();
        let backends: Vec<Box<dyn GrbBackend>> = vec![
            Box::new(float_csr(&csr)),
            Box::new(bit_b2sr(&csr, TileSize::S4)),
            Box::new(bit_b2sr(&csr, TileSize::S16)),
        ];
        let reference = product(&*backends[0], &x, Semiring::Arithmetic);
        for b in &backends[1..] {
            let got = product(&**b, &x, Semiring::Arithmetic);
            for (g, r) in got.iter().zip(&reference) {
                assert!((g - r).abs() < 1e-4, "{:?}", b.kind());
            }
        }
    }

    /// Direct coverage of the `csr_mxm_reduce_masked` fallback: every
    /// mixed-backend operand combination must produce the same triangle sum
    /// as the pure bit path, straight through the free function (not just
    /// incidentally via TC parity runs) — in both orientations of the second
    /// operand (`L · (Lᵀ)` and `L · (L)ᵀ`).
    #[test]
    fn csr_fallback_is_exact_for_every_mixed_operand_combination() {
        let adj = sample(72, 21).symmetrized().without_diagonal();
        let l = adj.lower_triangle();
        let lt = l.transpose();

        let a_bit = bit_b2sr(&l, TileSize::S8);
        let b_bit = bit_b2sr(&lt, TileSize::S8);
        let a_f = float_csr(&l);
        let b_f = float_csr(&lt);

        // The pure bit path (popcount BMM) is the reference.
        let expected = a_bit.mxm_reduce_masked(&b_bit, &a_bit, false);
        assert!(expected > 0.0, "sample graph must contain triangles");
        assert_eq!(a_bit.mxm_reduce_masked(&a_bit, &a_bit, true), expected);

        // (a, b for `A · B`, b for `A · Bᵀ`, mask)
        type Dyn<'a> = &'a dyn GrbBackend;
        let combos: [(Dyn, Dyn, Dyn, Dyn, &str); 5] = [
            (&a_f, &b_f, &a_f, &a_f, "float/float/float"),
            (&a_bit, &b_f, &a_f, &a_f, "bit/float/float"),
            (&a_f, &b_bit, &a_bit, &a_f, "float/bit/float"),
            (&a_f, &b_f, &a_f, &a_bit, "float/float/bit"),
            (&a_bit, &b_bit, &a_bit, &a_f, "bit/bit/float"),
        ];
        for (a, b, b_nt, m, what) in combos {
            assert_eq!(
                csr_mxm_reduce_masked(a, b, m, false),
                expected,
                "fallback diverges for {what}"
            );
            assert_eq!(
                csr_mxm_reduce_masked(a, b_nt, m, true),
                expected,
                "transposed-b fallback diverges for {what}"
            );
        }

        // The trait entry point routes mixed operands through the fallback
        // and must agree too.
        assert_eq!(a_bit.mxm_reduce_masked(&b_f, &a_bit, false), expected);
        assert_eq!(a_f.mxm_reduce_masked(&b_bit, &a_bit, false), expected);
        assert_eq!(a_bit.mxm_reduce_masked(&a_f, &a_bit, true), expected);
        assert_eq!(a_f.mxm_reduce_masked(&a_bit, &a_bit, true), expected);
    }

    #[test]
    fn mixed_tile_sizes_fall_back_instead_of_panicking() {
        let adj = sample(50, 3).symmetrized().without_diagonal();
        let l_csr = adj.lower_triangle();
        let a = bit_b2sr(&l_csr, TileSize::S8);
        let b = bit_b2sr(&l_csr.transpose(), TileSize::S16);
        let m = float_csr(&l_csr);
        let mixed = a.mxm_reduce_masked(&b, &m, false);
        let uniform_b = bit_b2sr(&l_csr.transpose(), TileSize::S8);
        let bit = a.mxm_reduce_masked(&uniform_b, &a, false);
        assert_eq!(mixed, bit, "fallback must produce the same triangle sum");
        // B2SR-4 and B2SR-8 share the `u8` packing word but not the kernel.
        let b4 = bit_b2sr(&l_csr.transpose(), TileSize::S4);
        assert_eq!(a.mxm_reduce_masked(&b4, &a, false), bit);
        // The same operands by rows: `L · (L)ᵀ` with a mismatched `L`.
        let l16 = bit_b2sr(&l_csr, TileSize::S16);
        let l4 = bit_b2sr(&l_csr, TileSize::S4);
        assert_eq!(a.mxm_reduce_masked(&l16, &a, true), bit);
        assert_eq!(a.mxm_reduce_masked(&l4, &a, true), bit);
        assert_eq!(a.mxm_reduce_masked(&a, &l16, true), bit);
    }

    #[test]
    fn transpose_view_swaps_dimensions_and_data() {
        let mut coo = Coo::new(6, 4);
        coo.push_edge(5, 1).unwrap();
        coo.push_edge(0, 3).unwrap();
        let csr = coo.to_binary_csr();
        for backend in [
            Box::new(bit_b2sr(&csr, TileSize::S4)) as Box<dyn GrbBackend>,
            Box::new(float_csr(&csr)) as Box<dyn GrbBackend>,
        ] {
            let t = backend.transpose_view();
            assert_eq!(t.nrows(), 4);
            assert_eq!(t.ncols(), 6);
            assert_eq!(t.kind(), backend.kind());
            assert_eq!(t.csr(), &csr.transpose());
            assert_eq!(t.csr_t(), &csr);
        }
    }

    #[test]
    fn clone_box_preserves_kind_and_contents() {
        let csr = sample(30, 11);
        let b: Box<dyn GrbBackend> = Box::new(bit_b2sr(&csr, TileSize::S32));
        let c = b.clone_box();
        assert_eq!(c.kind(), Backend::Bit(TileSize::S32));
        assert_eq!(c.nnz(), b.nnz());
        assert_eq!(c.csr(), b.csr());
    }

    /// A backend defined outside the built-in pair is a page: it implements
    /// the required methods — here by forwarding to a `FloatCsr` and
    /// counting the two product entry points — and every `Op` shape reaches
    /// it through exactly those.
    #[derive(Debug)]
    pub(crate) struct Spy {
        inner: FloatCsr,
        mxv_calls: AtomicUsize,
        mxm_calls: AtomicUsize,
    }

    impl Spy {
        pub(crate) fn new(csr: &Csr) -> Self {
            Spy {
                inner: float_csr(csr),
                mxv_calls: AtomicUsize::new(0),
                mxm_calls: AtomicUsize::new(0),
            }
        }
    }

    impl GrbBackend for Spy {
        fn kind(&self) -> Backend {
            self.inner.kind()
        }
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }
        fn ncols(&self) -> usize {
            self.inner.ncols()
        }
        fn nnz(&self) -> usize {
            self.inner.nnz()
        }
        fn csr(&self) -> &Csr {
            self.inner.csr()
        }
        fn csr_t(&self) -> &Csr {
            self.inner.csr_t()
        }
        fn mxv_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
            self.mxv_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.mxv_into(p, ws, out);
        }
        fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
            self.mxm_calls.fetch_add(1, Ordering::Relaxed);
            self.inner.mxm_into(p, ws, out);
        }
        fn mxm_reduce_masked(
            &self,
            b: &dyn GrbBackend,
            mask: &dyn GrbBackend,
            transpose_b: bool,
        ) -> f64 {
            self.inner.mxm_reduce_masked(b, mask, transpose_b)
        }
        fn shard_plan(&self, _: bool) -> Option<&ShardPlan> {
            None
        }
        fn storage_bytes(&self) -> usize {
            self.inner.storage_bytes()
        }
        fn transpose_view(&self) -> Box<dyn GrbBackend> {
            Box::new(Spy::new(self.inner.csr_t()))
        }
        fn clone_box(&self) -> Box<dyn GrbBackend> {
            Box::new(Spy::new(self.inner.csr()))
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn op_layer_reaches_an_external_backend_through_the_required_methods() {
        let csr = sample(36, 101);
        let ctx = Context::default();
        let external = Matrix::from_backend(Box::new(Spy::new(&csr)));
        let reference = Matrix::from_csr_ctx(&csr, Backend::FloatCsr, &ctx);
        let spy = |m: &Matrix| -> (usize, usize) {
            let s = m.state().as_any().downcast_ref::<Spy>().unwrap();
            (
                s.mxv_calls.load(Ordering::Relaxed),
                s.mxm_calls.load(Ordering::Relaxed),
            )
        };

        // Single-vector: mxv and vxm, both directions, bare / fused /
        // node-at-a-time — one `mxv_into` call each, results as built in.
        let x = Vector::indicator(36, &[0, 5, 11]);
        let dist = Vector::from_vec((0..36).map(|i| (i % 5) as f32).collect());
        let mut expected_calls = 0;
        for dir in [Direction::Push, Direction::Pull] {
            for fusion in [Fusion::Fused, Fusion::NodeAtATime] {
                let run = |m: &Matrix| {
                    let bare = Op::vxm(&x, m).direction(dir).fusion(fusion).run(&ctx);
                    let chain = Op::mxv(m, &dist)
                        .semiring(Semiring::MinPlus(1.0))
                        .direction(dir)
                        .fusion(fusion)
                        .affine(2.0, 1.0)
                        .accum(BinaryOp::Min, &dist)
                        .run(&ctx);
                    (bare, chain)
                };
                assert_eq!(run(&external), run(&reference), "{dir:?} {fusion:?}");
                expected_calls += 2;
            }
        }
        assert_eq!(spy(&external), (expected_calls, 0));

        // Batched: one `mxm_into` call per op, flat per-lane mask included.
        let mv = MultiVec::from_sources(36, &[0, 5, 11]);
        let mask = Mask::new((0..36 * 3).map(|f| f % 4 != 1).collect());
        for dir in [Direction::Push, Direction::Pull] {
            for transpose in [false, true] {
                let run = |m: &Matrix| {
                    let mut op = Op::mxm(m, &mv)
                        .semiring(Semiring::Boolean)
                        .mask(&mask)
                        .direction(dir);
                    if transpose {
                        op = op.transpose();
                    }
                    op.run(&ctx)
                };
                assert_eq!(
                    run(&external),
                    run(&reference),
                    "{dir:?} transpose={transpose}"
                );
            }
        }
        assert_eq!(spy(&external), (expected_calls, 4));
    }

    /// The one sharded-or-serial routine over its four scatter shapes
    /// (Boolean words, full precision, Boolean lane words, batched full
    /// precision): engaged on a multi-shard plan, its output is
    /// bit-identical at 1/2/4/8 threads, and for exact monoids equal to the
    /// serial kernel on the whole frontier.
    #[test]
    fn push_scatter_is_bit_identical_across_threads_and_equals_serial() {
        let a = sample(300, 53);
        let n = a.nrows();
        let b = from_csr::<u8>(&a, 8);
        let cfg = ShardConfig {
            threads: 4,
            cache_bytes: 2 << 20,
        };
        let plan = ShardPlan::from_weights(a.rowptr(), 1, n, cfg);
        assert!(plan.n_shards() >= 4, "precondition: {plan:?}");
        let avg = avg_degree(a.nnz(), n);
        let frontier: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let k = 70;
        let wpn = lane_words_per_node(k);
        let x: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.37 + 0.01).collect();
        let xk: Vec<f32> = (0..n * 3).map(|f| (f % 7) as f32 * 0.21 + 0.5).collect();
        let mut xw = vec![0u64; n * wpn];
        for (f, w) in xw.iter_mut().enumerate() {
            *w = (f as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7;
        }

        // Run one shape at every thread budget; returns the common output.
        fn at_every_budget<T: Poolable + Sync + PartialEq + std::fmt::Debug>(
            what: &str,
            run: impl Fn(&Workspace, &mut [T]),
            seed: Vec<T>,
        ) -> Vec<T> {
            let mut reference: Option<Vec<T>> = None;
            for threads in [1usize, 2, 4, 8] {
                let ws = Workspace::new();
                ws.set_push_threads(threads);
                let mut y = seed.clone();
                run(&ws, &mut y);
                assert_eq!(
                    ws.stats().snapshot().sharded_push,
                    1,
                    "{what}: the sharded path must engage"
                );
                match &reference {
                    None => reference = Some(y),
                    Some(r) => assert_eq!(&y, r, "{what} threads={threads}"),
                }
            }
            reference.unwrap()
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();

        // Boolean tile words.
        let words = |seg: &[usize], chunk: &mut [u8]| bmv_push_bin_bin(&b, seg, chunk);
        let got = at_every_budget(
            "bin words",
            |ws, y| push_scatter(ws, &plan, &frontier, avg, 1, 0u8, y, words, |p, q| p | q),
            vec![0u8; b.n_tile_cols()],
        );
        let mut serial = vec![0u8; b.n_tile_cols()];
        words(&frontier, &mut serial);
        assert_eq!(got, serial);

        // Boolean lane words (k > 64: two words per node).
        let lanes = |seg: &[usize], chunk: &mut [u64]| bmm_push_bits(&b, seg, &xw, wpn, chunk);
        let got = at_every_budget(
            "lane words",
            |ws, y| push_scatter(ws, &plan, &frontier, avg, wpn, 0u64, y, lanes, |p, q| p | q),
            vec![0u64; n * wpn],
        );
        let mut serial = vec![0u64; n * wpn];
        lanes(&frontier, &mut serial);
        assert_eq!(got, serial);

        // Full precision, single vector and batched; the float `+` is only
        // bit-stable across budgets, the exact monoids also equal serial.
        for semiring in [
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::Boolean,
        ] {
            let id = semiring.identity();
            let fold = |p: f32, q: f32| semiring.reduce(p, q);
            let full = |seg: &[usize], chunk: &mut [f32]| {
                bmv_push_bin_full(&b, &x, seg, semiring, |j| j % 5 != 0, chunk)
            };
            let multi = |seg: &[usize], chunk: &mut [f32]| {
                bmm_push_bin_full(&b, &xk, 3, seg, semiring, |_| true, chunk)
            };
            let got_full = at_every_budget(
                "full",
                |ws, y| push_scatter(ws, &plan, &frontier, avg, 1, id, y, full, fold),
                vec![id; n],
            );
            let got_multi = at_every_budget(
                "multi full",
                |ws, y| push_scatter(ws, &plan, &frontier, avg, 3, id, y, multi, fold),
                vec![id; n * 3],
            );
            if semiring != Semiring::Arithmetic {
                let mut serial = vec![id; n];
                full(&frontier, &mut serial);
                assert_eq!(bits(&got_full), bits(&serial), "{semiring:?}");
                let mut serial = vec![id; n * 3];
                multi(&frontier, &mut serial);
                assert_eq!(bits(&got_multi), bits(&serial), "{semiring:?}");
            }
        }

        // A frontier too thin to pay for the merge stays serial.
        let ws = Workspace::new();
        ws.set_push_threads(4);
        let mut y = vec![0u8; b.n_tile_cols()];
        push_scatter(&ws, &plan, &[7], avg, 1, 0u8, &mut y, words, |p, q| p | q);
        assert_eq!(ws.stats().snapshot().sharded_push, 0);
    }
}
