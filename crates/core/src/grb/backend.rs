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
//!   (the paper's contribution), whose full-precision pulls, Boolean
//!   products and masked product reduction read the CSR it also holds when
//!   its tiles are too sparse to sweep ([`CSR_PULL_BELOW_BITS_PER_TILE`],
//!   [`CSR_REDUCE_BELOW_BITS_PER_TILE`]), and whose full-precision pushes
//!   always scatter from it;
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
//! count over the always-available CSR views when the operands' concrete
//! types differ.
//!
//! # Sharded push execution
//!
//! Every push (sparse-frontier) product of both built-in backends runs
//! through one routine, `push_scatter` — the Boolean word scatters of
//! [`BitB2sr`] (tile words, or node and lane words from the CSR) and the
//! one full-precision scatter, [`csr_push_full`]: cut
//! the ascending frontier at the
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
use crate::kernels::bmv::pack_segments_into;
use crate::kernels::simd;
use crate::kernels::{
    bmm_bin_bin_sum_masked_nt, bmm_bin_bits_into, bmm_bin_full_into, bmm_push_bits,
    bmv_bin_bin_bin_masked_into, bmv_bin_full_full_fused_into, bmv_push_bin_bin, csr_bits_pull,
    csr_bits_push, csr_lanes_pull, csr_lanes_push, csr_pull_full, csr_push_full,
    pack_vector_bits_into,
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
    /// may be any backend; the implementation downcasts and counts over the
    /// CSR views when the concrete types (or tile sizes) differ.  The caller
    /// checks the shapes.
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

    /// Storage bytes of the backend's primary representation: the B2SR
    /// tiles for [`BitB2sr`] (also when its products read the CSR it holds,
    /// which is not counted), the float CSR for [`FloatCsr`].
    fn storage_bytes(&self) -> usize;

    /// A new backend of the same kind holding `Aᵀ`.
    fn transpose_view(&self) -> Box<dyn GrbBackend>;

    /// Clone into a boxed backend (object-safe `Clone`).
    fn clone_box(&self) -> Box<dyn GrbBackend>;

    /// Downcast support for cross-backend negotiation.
    fn as_any(&self) -> &dyn Any;
}

/// `mxm_reduce_masked` over the CSR views: [`FloatCsr`]'s and
/// [`DeltaOverlay`](crate::delta::DeltaOverlay)'s product, the cross-backend
/// fallback, and a hypersparse [`BitB2sr`]'s route
/// ([`BitB2sr::masked_reduce_reads_csr`]).  `spgemm_masked_count` takes its
/// second operand as the second factor's transpose stored by rows: `b`'s
/// transpose CSR for `A · B`, `b`'s own CSR for `A · Bᵀ`.  Every backend's
/// `csr()` is all-ones, so the exact count is the sum of `1.0 · 1.0`
/// products the arithmetic semiring would form.
pub(crate) fn csr_mxm_reduce_masked(
    a: &dyn GrbBackend,
    b: &dyn GrbBackend,
    mask: &dyn GrbBackend,
    transpose_b: bool,
) -> f64 {
    let bt = if transpose_b { b.csr() } else { b.csr_t() };
    float_ops::spgemm_masked_count(a.csr(), bt, mask.csr())
        .expect("operand dimensions checked by the caller") as f64
}

/// `b`'s CSR, or `Aᵀ`'s iff `transposed`: the representation a row pull
/// reads, and a full-precision push scatters for the opposite flag.
fn csr_rep(b: &dyn GrbBackend, transposed: bool) -> &Csr {
    if transposed {
        b.csr_t()
    } else {
        b.csr()
    }
}

/// `csr` as the all-ones CSR a backend holds: a clone when it already is one.
pub(crate) fn binary_copy(csr: &Csr) -> Csr {
    if csr.is_binary() {
        csr.clone()
    } else {
        csr.binarized()
    }
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

/// Average out-degree of a scatter representation with `nnz` edges over the
/// rows `plan` partitions — the frontier-edge estimate [`worth_sharding`]
/// weighs against the merge cost.  `nnz` is the backend's O(1) edge count
/// (equal for `A` and `Aᵀ`), never a sweep over the representation.
fn avg_degree(nnz: usize, plan: &ShardPlan) -> usize {
    (nnz / plan.bounds()[plan.n_shards()].max(1)).max(1)
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

    /// The plan of one representation; `weights` yields that
    /// representation's, and runs only when the plan is first cut.
    fn get_or_plan<'w>(
        &self,
        of_transpose: bool,
        weights: impl FnOnce() -> RowWeights<'w>,
    ) -> &ShardPlan {
        if of_transpose {
            self.transposed
                .get_or_init(|| Self::cut(self.cfg, weights()))
        } else {
            &self.forward
        }
    }

    /// The plans of the transpose view: the view's `A` is this matrix's
    /// `Aᵀ` (whose weights are `transposed`), so the two plans swap roles.
    fn swapped(&self, transposed: RowWeights<'_>) -> Self {
        ScatterPlans {
            cfg: self.cfg,
            forward: self.get_or_plan(true, || transposed).clone(),
            transposed: OnceLock::from(self.forward.clone()),
        }
    }
}

// ---------------------------------------------------------------------------
// BitB2sr
// ---------------------------------------------------------------------------

/// The mean bits per non-empty tile below which a [`BitB2sr`]'s
/// full-precision pulls read its CSR instead of sweeping its tiles (see
/// [`BitB2sr::full_pull_reads_csr`]) — the paper's Table V fill classes,
/// where a scatter-pattern matrix's tiles hold one or two bits and the tile
/// sweep pays a tile's load, chunk packing and junk fold for each.
///
/// Why a selector and not one path: with every non-Boolean pull routed
/// (this constant at +∞), ten alternating pairs of the repo benchmark's mesh
/// workloads (B2SR-8, one pinned core) against the tile sweep read, on
/// `mesh_read` / `mesh_mixed`, `cc_ms` +36 % / +25 % (a MinPlus pull, which
/// the sweep then won on dense tiles), `query_p95_ms` 2.2× / 2.1× (the
/// batched PPR lanes), `setup_s` +40 % / +38 % and `peak_rss_mb` +5 % / +4 %
/// (the `csr_t` the route builds) — three bounds broken — against
/// `pagerank_ms` −34 % / −29 %.  So dense tiles keep the sweep.  That was
/// measured before the row pull folded MinPlus in four chains
/// ([`csr_pull_full`]); the kernels below say the `cc_ms` loss has gone,
/// the other two stand until measured again.
///
/// The kernels: `taskset -c 1 cargo bench -p bitgblas-bench --bench bmv --
/// bmv_pull_fill` (bare kernels, 16 384 vertices, one pinned core of a
/// 2-vCPU Xeon VM, two runs) times the tile sweep beside the row pull the
/// engine runs, [`csr_pull_full`].  With R-MAT's edge count laid out in
/// scattered tiles of `b` bits each, so that fill is the one variable, row
/// pull ÷ sweep at B2SR-8 is:
///
/// | bits / tile | 1 | 2 | 4 | 6 | 8 | 16 | 64 |
/// |---|---|---|---|---|---|---|---|
/// | Arithmetic | 0.24–0.35 | 0.45–0.67 | 0.65–0.71 | 0.76–0.86 | 0.69–0.88 | 0.95–0.98 | 0.76–1.07 |
/// | MinPlus | 0.30–0.45 | 0.56–0.57 | 0.73–0.74 | 0.84–0.95 | 0.84–0.89 | 0.80–0.86 | 0.59–0.65 |
///
/// The row pull wins or ties at every fill.  The MinPlus crossover is gone:
/// with one `f32::min` chain per row the two crossed between 6 and 8 bits
/// and the sweep won the mesh's MinPlus pull (1.29–1.34); four chains put
/// the mesh at 0.49–0.63 (Arithmetic 0.68–0.77).  (Until then these rows
/// timed `sparse::ops::spmv_semiring`, which reads the values array and
/// matches the semiring per entry, and put the Arithmetic crossing at 6–8
/// bits as well.)  So the bare kernels no longer place the constant; it
/// stays at 4 for the end-to-end losses above, and routes only where the
/// row pull wins by a quarter or more.  The benchmark's graphs sit far from
/// it: R-MAT at 2.0 bits per tile (0.28, MinPlus 0.22–0.30) routes, the
/// mesh at 51.8 does not (`crossover_separates_the_benchmark_graphs`).
///
/// One number serves every width because it never routes to a slower pull:
/// at B2SR-4, -16 and -32 the row pull wins or ties at every fill of the
/// sweep (≤ 0.64, 1.14 and 0.99 Arithmetic; ≤ 0.89 MinPlus), and R-MAT
/// (1.5 and 3.2 bits) routes at B2SR-4 and -16.  It routes too little
/// there instead: R-MAT at B2SR-32 reads 6.0 bits and keeps a sweep about
/// 10× slower than the row pull.  Not measured: the batched pull against
/// fill (only end to end, above), more than one core, and any width but
/// B2SR-8 end to end — the benchmark runs B2SR-8 only.
///
/// # The Boolean products
///
/// The same constant routes the Boolean products
/// ([`BitB2sr::boolean_reads_csr`]).  `taskset -c 1 cargo bench -p
/// bitgblas-bench --bench bmv -- bmv_bool_fill` (same graphs, host and core,
/// two runs) times the tile Boolean pull and push beside the four CSR word
/// kernels — node words at `k = 1` ([`csr_bits_pull`], [`csr_bits_push`]),
/// lane words at `k = 64` ([`csr_lanes_pull`], [`csr_lanes_push`]) — at a
/// 1 % frontier as a BFS's first rounds meet it, a half frontier with
/// three quarters visited and a full frontier with nothing visited.  CSR ÷
/// tiles at B2SR-8, each cell over the states named and both runs:
///
/// | bits / tile | node pull 1 % | node pull ½, full | node push | lane pull 1 % | lane pull ½, full | lane push |
/// |---|---|---|---|---|---|---|
/// | 1 | 0.42–0.46 | 0.22–0.32 | 0.11–0.15 | 0.06–0.09 | 0.02–0.29 | 0.06–0.07 |
/// | 2 | 0.99–1.25 | 0.39–0.63 | 0.25–0.30 | 0.13–0.19 | 0.02–0.60 | 0.07–0.09 |
/// | 4 | 2.59–3.02 | 0.42–0.70 | 0.43–0.68 | 0.22 | 0.05–0.18 | 0.08–0.14 |
/// | 8 | 5.13–5.92 | 0.71–2.35 | 0.74–1.17 | 0.33–0.40 | 0.08–0.22 | 0.18–0.29 |
/// | 16 | 12–14 | 2.96–3.47 | 1.88–2.42 | 0.53–0.56 | 0.07–0.56 | 0.29–0.43 |
/// | 64 | 19–27 | 3.13–5.55 | 3.41–7.89 | 1.52–2.47 | 0.19–0.88 | 0.53–0.67 |
/// | R-MAT, 2.0 | 0.65–0.73 | 0.08–0.23 | 0.17–0.40 | 0.08 | 0.01–0.27 | 0.06–0.09 |
/// | mesh, 51.8 | 33–36 | 2.92–38 | 5.80–9.61 | 0.92–1.04 | 0.05–0.56 | 0.32–0.40 |
///
/// The single-vector products cross between 4 and 8 bits, except the node
/// pull at a 1 % frontier, which crosses near 2 — but a BFS pulls at large
/// frontiers (`Direction::Auto` is Beamer's switch), where the CSR wins to
/// 4 bits.  So the pull's constant serves, and no second one is needed.  At
/// the other widths, under 4 bits, every cell is ≤ 0.70 but that same node
/// pull at a 1 % frontier at 2 bits per tile (B2SR-4 1.45–1.49, B2SR-16
/// 0.82–1.05); R-MAT routes at B2SR-4 and -16 (1.5 and 3.2 bits: ≤ 0.85),
/// and at B2SR-32 (6.0 bits) keeps tiles that lose every cell but that one
/// (1.24–1.60; the rest 0.01–0.97).  The lane products cross higher — the
/// tile lane push walks every tile of a node's tile-row — and win the mesh
/// too (½ and full pulls 0.05–0.56, pushes 0.32–0.40), which the constant
/// leaves on tiles: the mesh's single-vector products, where tiles win by
/// 2.9–38×, decide its BFS.
pub const CSR_PULL_BELOW_BITS_PER_TILE: f64 = 4.0;

/// The mean bits per non-empty tile below which a [`BitB2sr`]'s masked
/// product reduction counts over the operands' CSRs instead of intersecting
/// tiles (see [`BitB2sr::masked_reduce_reads_csr`]) — Triangle Counting's
/// `Σ (L · Lᵀ) .* L` on a scatter-pattern `L`, whose tiles hold a bit or two
/// and give the tile kernel one popcount per mask bit for a word or two of
/// work.  The count is exact, so routing moves time, never the result.
///
/// Not [`CSR_PULL_BELOW_BITS_PER_TILE`]: the reduction's kernels cross at a
/// lower fill.  `taskset -c 1 cargo bench -p bitgblas-bench --bench bmm --
/// bmm_tc_fill` (bare kernels, 16 384 vertices, one pinned core of a 2-vCPU
/// Xeon VM, two runs) times `bmm_bin_bin_sum_masked_nt` beside
/// `ops::spgemm_masked_count` on the lower triangle `L` of a symmetric
/// graph.  With R-MAT(14, 16)'s edge count laid out in scattered mirrored
/// tiles, so that fill is the one variable, count ÷ tile kernel at `L`'s
/// fill (bits per tile) is:
///
/// | width | ≈ 1 | ≈ 2 | ≈ 3 | ≈ 4 | ≈ 6 | ≈ 9 | ≈ 16 |
/// |---|---|---|---|---|---|---|---|
/// | B2SR-4 | 0.35–0.36 | 0.88–0.89 | 1.38–1.49 | 1.60–2.16 | 2.00–2.60 | 3.20–4.91 | 4.07–6.15 |
/// | B2SR-8 | 0.18–0.20 | 0.40–0.54 | 1.01–1.33 | 1.20–1.38 | 1.99–2.03 | 2.90–3.25 | 5.78–6.05 |
/// | B2SR-16 | 0.05 | 0.18 | 0.28–0.36 | 0.60–0.76 | 1.16–1.17 | 1.72–1.76 | 4.07–4.10 |
/// | B2SR-32 | — | 0.05–0.06 | 0.07–0.08 | 0.11 | 0.27–0.33 | 0.57–0.62 | 1.95–2.35 |
///
/// (The columns are nominal: `L`'s measured fills are 1.0–1.3, 2.0–2.3,
/// 3.0–3.2, 4.0–4.2, 6.0–7.0, 8.0–9.0 and 16–17.)  The two kernels cross
/// between 2 and 3 bits at B2SR-4, just under 3 at B2SR-8, between 4 and 6
/// at B2SR-16 and between 9 and 16 at B2SR-32 — about a third of a bit per
/// tile row from B2SR-8 up.  The constant routes only below every width's
/// crossing, so it never routes to the slower kernel; the closest measured
/// fill under it, 2.0 at B2SR-4, still reads 0.88–0.89.  The benchmark's
/// graphs sit far from it: R-MAT's `L` at 2.03 bits per B2SR-8 tile (0.28)
/// routes, the mesh's at 46.5 (3.6–4.3) does not
/// (`crossover_separates_the_benchmark_graphs`).  It routes too little at
/// the wide widths: R-MAT's `L` at B2SR-16 (3.2 bits, 0.36–0.38) and
/// B2SR-32 (6.0 bits, 0.57–0.61) keeps the tile kernel.  Not measured: more
/// than one core, and any width but B2SR-8 end to end.
pub const CSR_REDUCE_BELOW_BITS_PER_TILE: f64 = 2.5;

/// The Bit-GraphBLAS backend: B2SR storage, bit kernels (Tables II and III),
/// and the binary CSR it was built from (the interchange view), which its
/// full-precision pulls, its Boolean products and its masked product
/// reduction read when the tiles are hypersparse
/// ([`BitB2sr::full_pull_reads_csr`], [`BitB2sr::boolean_reads_csr`],
/// [`BitB2sr::masked_reduce_reads_csr`]).
#[derive(Debug)]
pub struct BitB2sr {
    csr: Csr,
    b2sr: B2srMatrix,
    csr_t: OnceLock<Csr>,
    b2sr_t: OnceLock<B2srMatrix>,
    shards: ScatterPlans,
    /// Mean bits per non-empty tile, `csr.nnz() / b2sr.n_tiles()` (NaN for
    /// an empty matrix, which routes nothing); fixed when the tiles are
    /// built, and what both CSR routes are decided from.
    bits_per_tile: f64,
}

impl BitB2sr {
    /// Convert a binary CSR matrix into B2SR with the given tile size and
    /// cut its row-shard plan under `cfg`.  The conversion is eager (the
    /// "one-time conversion cost" the paper amortizes); the transpose
    /// representations and their plan are built lazily.
    pub fn new(csr: &Csr, tile_size: TileSize, cfg: ShardConfig) -> Self {
        BitB2sr::retiled(binary_copy(csr), tile_size, cfg, None).0
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
            bits_per_tile: bin.nnz() as f64 / b2sr.n_tiles() as f64,
            csr: bin,
            b2sr,
            csr_t: OnceLock::new(),
            b2sr_t: OnceLock::new(),
        };
        (backend, counts)
    }

    /// Whether this matrix's full-precision pulls — `mxv` and `vxm`, bare,
    /// fused, masked or not, and batched — read the CSR the backend already
    /// holds (`csr`, or `csr_t` for the transposed sweep) through the same
    /// row pull as [`FloatCsr`], instead of sweeping the tiles.  True when
    /// the mean bits per non-empty tile is under
    /// [`CSR_PULL_BELOW_BITS_PER_TILE`]; decided once, where the tiles are
    /// built, from two stored counts (never from [`B2srMatrix::nnz`], a
    /// popcount sweep).  `Aᵀ` has the same edges and tiles, so the transpose
    /// view keeps the flag.  Full-precision pushes read the CSR either way;
    /// the Boolean products route under the same constant
    /// ([`boolean_reads_csr`](Self::boolean_reads_csr)).  Both pulls fold a
    /// row's columns in ascending order, so the two paths agree bit for bit.
    pub fn full_pull_reads_csr(&self) -> bool {
        self.bits_per_tile < CSR_PULL_BELOW_BITS_PER_TILE
    }

    /// Whether this matrix's masked product reduction
    /// ([`GrbBackend::mxm_reduce_masked`] with this matrix as `A`) counts
    /// over the operands' CSRs instead of intersecting tiles: true when the
    /// mean bits per non-empty tile is under
    /// [`CSR_REDUCE_BELOW_BITS_PER_TILE`], decided from the same stored fill
    /// as [`full_pull_reads_csr`](Self::full_pull_reads_csr).  The count is
    /// exact, so the two paths return the same number.
    pub fn masked_reduce_reads_csr(&self) -> bool {
        self.bits_per_tile < CSR_REDUCE_BELOW_BITS_PER_TILE
    }

    /// Whether this matrix's Boolean products — pull and push, in node
    /// words (`bits_product`: [`Op::vxm_bits`](super::Op::vxm_bits)) and lane
    /// words (`lane_product`: [`Op::mxm_lanes`](super::Op::mxm_lanes)), and
    /// so the `f32` Boolean arms of `mxv_into` / `mxm_into` — read the CSR the backend already holds
    /// (`csr_t` or `csr`, whichever the product walks) instead of the tiles.
    /// Decided from the same stored fill as
    /// [`full_pull_reads_csr`](Self::full_pull_reads_csr), under
    /// [`CSR_PULL_BELOW_BITS_PER_TILE`].  OR is exact, so the two paths give
    /// the same words.
    pub fn boolean_reads_csr(&self) -> bool {
        self.bits_per_tile < CSR_PULL_BELOW_BITS_PER_TILE
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

    /// The shard plan of a push product's scatter representation — cut
    /// from its tiles, the Boolean word scatter's unit — and its average
    /// degree.
    fn scatter_plan(&self, transpose: bool) -> (&ShardPlan, usize) {
        let plan = self
            .shards
            .get_or_plan(!transpose, || b2sr_weights(self.rep(!transpose)));
        (plan, avg_degree(self.csr.nnz(), plan))
    }

    /// The tile scatter representation of a Boolean push product with its
    /// shard plan and average degree.
    fn scatter_rep(&self, transpose: bool) -> (&B2srMatrix, &ShardPlan, usize) {
        let (plan, avg) = self.scatter_plan(transpose);
        (self.rep(!transpose), plan, avg)
    }

    /// The CSR scatter representation of a full-precision push product, with
    /// the same shard plan as the tiles' ([`csr_push`]).
    fn csr_scatter_rep(&self, transpose: bool) -> CsrScatter<'_> {
        let (plan, avg) = self.scatter_plan(transpose);
        (csr_rep(self, !transpose), plan, avg)
    }

    /// The batched Boolean product in lane words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` hold
    /// `k.div_ceil(64)` words per node ([`LaneBits`](super::LaneBits)'s
    /// layout), `frontier` is `mxm_into`'s — `Some(ascending nodes holding a
    /// set lane)` for push — and `yw` is a pooled buffer sized here.  Not a
    /// trait method: the op layer ([`Op::mxm_lanes`](super::Op::mxm_lanes))
    /// finds it by downcast, and the `f32` Boolean arm of `mxm_into`
    /// ([`boolean_batch`](Self::boolean_batch)) runs it between a pack and an
    /// expand.  A matrix whose Boolean products read the CSR
    /// ([`boolean_reads_csr`](Self::boolean_reads_csr)) runs
    /// [`csr_lanes_pull`] on `csr_rep(transpose)` or scatters
    /// [`csr_lanes_push`] from `csr_rep(!transpose)`; any other sweeps or
    /// scatters its tiles.  Both give the same words.
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
        let wpn = lane_words_per_node(k);
        match frontier {
            Some(frontier) if self.boolean_reads_csr() => {
                let (csr, plan, avg) = self.csr_scatter_rep(transpose);
                let scatter = |segment: &[usize], chunk: &mut [u64]| {
                    csr_lanes_push(csr, segment, xw, wpn, chunk)
                };
                let words = csr.ncols() * wpn;
                or_scatter(ws, plan, frontier, avg, wpn, words, excluded, yw, scatter)
            }
            Some(frontier) => {
                let (rep, plan, avg) = self.scatter_rep(transpose);
                with_b2sr!(rep, |m| {
                    let scatter = |segment: &[usize], chunk: &mut [u64]| {
                        bmm_push_bits(m, segment, xw, wpn, chunk)
                    };
                    let words = m.ncols() * wpn;
                    or_scatter(ws, plan, frontier, avg, wpn, words, excluded, yw, scatter)
                })
            }
            None if self.boolean_reads_csr() => {
                let csr = csr_rep(self, transpose);
                yw.clear();
                yw.resize(csr.nrows() * wpn, 0);
                csr_lanes_pull(csr, xw, k, excluded, yw);
            }
            None => with_b2sr!(self.rep(transpose), |m| lane_pull(
                m, xw, k, excluded, ws, yw
            )),
        }
    }

    /// The single-vector Boolean product in node words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` are in
    /// [`NodeBits`](super::NodeBits)' layout, `frontier` is `mxv_into`'s —
    /// `Some(ascending set indices of xw)` for push, which reads no `xw` —
    /// and `yw` is a pooled buffer sized here.
    /// [`lane_product`](Self::lane_product)'s one-bit sibling, found the same
    /// way ([`Op::vxm_bits`](super::Op::vxm_bits)) and routed the same way
    /// ([`csr_bits_pull`], [`csr_bits_push`]); the `f32` Boolean arm of
    /// `mxv_into` ([`boolean_vector`](Self::boolean_vector)) runs it between
    /// a pack and an expand.
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
            Some(frontier) if self.boolean_reads_csr() => {
                let (csr, plan, avg) = self.csr_scatter_rep(transpose);
                let scatter =
                    |segment: &[usize], chunk: &mut [u64]| csr_bits_push(csr, segment, chunk);
                let words = csr.ncols().div_ceil(64);
                or_scatter(ws, plan, frontier, avg, 1, words, excluded, yw, scatter)
            }
            Some(frontier) => {
                let (rep, plan, avg) = self.scatter_rep(transpose);
                with_b2sr!(rep, |m| bits_push(m, frontier, plan, avg, excluded, ws, yw))
            }
            None if self.boolean_reads_csr() => {
                let csr = csr_rep(self, transpose);
                yw.clear();
                yw.resize(csr.nrows().div_ceil(64), 0);
                csr_bits_pull(csr, xw, excluded, yw);
            }
            None => with_b2sr!(self.rep(transpose), |m| bits_pull(m, xw, excluded, ws, yw)),
        }
    }

    /// The `f32` Boolean product of a single-vector pipeline: the operand
    /// packed into node words → [`bits_product`](Self::bits_product) → the
    /// words expanded to a `0.0` / `1.0` indicator, and the collapsed
    /// epilogue (if any) over the expansion.  A pull takes the mask into the
    /// product as suppressed rows, so the expansion has nothing left to
    /// filter; a push packs neither (its frontier is the operand's set
    /// entries) and the mask filters the expansion, which visits the set
    /// bits only.  Every Boolean pipeline scatters from the identity: `Or`
    /// would normalise a seeded baseline (`push_folds_accum` excludes it)
    /// and the words could not carry one anyway.  Out of line, like
    /// [`csr_push_vector`]: the full-precision arms of `mxv_into` keep their
    /// code.
    #[inline(never)]
    fn boolean_vector(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        let mut xw: Vec<u64> = ws.take_empty();
        let mut sup = None;
        let mut converted = 0;
        if p.frontier.is_none() {
            pack_segments_into(p.x, 64, &mut xw, |&v| v != 0.0);
            sup = p.mask.map(|mk| {
                let mut mw: Vec<u64> = ws.take_empty();
                let complemented = mk.is_complemented();
                pack_segments_into(mk.structure(), 64, &mut mw, |&set| set == complemented);
                mw
            });
            converted = p.x.len() + p.mask.map_or(0, Mask::len);
        }
        let mut yw: Vec<u64> = ws.take_empty();
        self.bits_product(&xw, p.frontier, sup.as_deref(), p.transpose, ws, &mut yw);
        out.clear();
        out.resize(self.produced(p.transpose), 0.0);
        let filter = p.mask.filter(|_| p.frontier.is_some());
        expand_node_words_into(&yw, filter, out);
        ws.stats().record_converted(converted + out.len());
        ws.give(xw);
        ws.give(yw);
        if let Some(mw) = sup {
            ws.give(mw);
        }
        p.finish_in_place(out);
    }

    /// The `f32` Boolean product of a batched pipeline:
    /// [`boolean_vector`](Self::boolean_vector) in lane words, through
    /// [`lane_product`](Self::lane_product).  A pull takes the flat mask as
    /// suppressed lane words, so fully-masked rows (every lane visited, the
    /// common late-traversal state) walk nothing; a push filters the
    /// expansion (which skips all-zero nodes) instead of staging the mask:
    /// after a thin frontier most nodes are.
    #[inline(never)]
    fn boolean_batch(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        let (x, k) = (p.x, p.k);
        let mut xw: Vec<u64> = ws.take_empty();
        pack_lane_words_from(x, k, |v| v != 0.0, &mut xw);
        let mut sup = None;
        let mut converted = x.len();
        if let (None, Some(mk)) = (p.frontier, p.mask) {
            let mut mw: Vec<u64> = ws.take_empty();
            let complemented = mk.is_complemented();
            pack_lane_words_from(mk.structure(), k, |set| set == complemented, &mut mw);
            sup = Some(mw);
            converted += mk.len();
        }
        let mut yw: Vec<u64> = ws.take_empty();
        self.lane_product(&xw, k, p.frontier, sup.as_deref(), p.transpose, ws, &mut yw);
        out.clear();
        out.resize(self.produced(p.transpose) * k, 0.0);
        let filter = p.mask.filter(|_| p.frontier.is_some());
        expand_lane_words_into(&yw, k, filter, out);
        ws.stats().record_converted(converted + out.len());
        ws.give(xw);
        ws.give(yw);
        if let Some(mw) = sup {
            ws.give(mw);
        }
        p.finish_in_place(out);
    }

    /// Entries a product produces: `A`'s rows, or `Aᵀ`'s with `transpose`.
    fn produced(&self, transpose: bool) -> usize {
        if transpose {
            self.ncols()
        } else {
            self.nrows()
        }
    }
}

/// A Boolean word scatter through [`push_scatter`]: `yw` is sized to `words`
/// zeros, `scatter` ORs a frontier segment's edges into its chunk (`lanes`
/// words per output node), and the result is finished with the AND-NOT of
/// `excluded`.
#[allow(clippy::too_many_arguments)]
fn or_scatter(
    ws: &Workspace,
    plan: &ShardPlan,
    frontier: &[usize],
    avg_deg: usize,
    lanes: usize,
    words: usize,
    excluded: Option<&[u64]>,
    yw: &mut Vec<u64>,
    scatter: impl Fn(&[usize], &mut [u64]) + Sync,
) {
    yw.clear();
    yw.resize(words, 0);
    push_scatter(
        ws,
        plan,
        frontier,
        avg_deg,
        lanes,
        0u64,
        yw,
        scatter,
        |acc, v| acc | v,
    );
    if let Some(excluded) = excluded {
        simd::andnot_into(yw, excluded);
    }
}

/// Evaluate `$body` with `$allow: Fn(usize) -> bool` bound to the flat
/// output mask test, once with the mask and once without: the unmasked
/// expansion is `|_| true`, which the scatter's lane loops compile away
/// (SSSP and PPR never carry a mask).
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
/// ([`MxvPipeline::push_folds_accum`]) seeds it with `base ⊕ identity`, so
/// the scatter ⊕-folds straight into it and finishes the pipeline (sharded
/// segments fold from the identity and merge into the seed with the monoid,
/// exactly like the serial kernel) — returns `true`.  `base ⊕ identity` is
/// what the pull stores where no term arrives, so unreached and masked-out
/// positions read alike both ways (a NaN or `−0.0` baseline is not kept).
/// Everything else scatters from the identity and still owes the collapsed
/// epilogue ([`MxvPipeline::finish_in_place`]) — returns `false`.
fn seed_push_output(p: &MxvPipeline<'_>, produced: usize, out: &mut Vec<f32>) -> bool {
    out.clear();
    match p.accum {
        Some((op, base)) if p.push_folds_accum() => {
            debug_assert!(op.matches_monoid(p.semiring), "`reduce` is `op`");
            with_semiring_ops!(p.semiring, |identity, _combine, reduce| out
                .extend(base.iter().map(|&b| reduce(b, identity))));
            true
        }
        _ => {
            out.resize(produced, p.semiring.identity());
            false
        }
    }
}

/// The full-precision pull sweep of a single-vector pipeline on one B2SR
/// width: one tile-granular sweep, bare or fused alike, with the semiring
/// and the finish both dispatched once per call (see
/// `bmv_bin_full_full_fused_into`).  The mask rides inside the finishing
/// closure — the bit sweep computes every row's raw value regardless,
/// exactly like the masked bit kernels.
fn bit_pull<W: BitWord>(m: &B2sr<W>, p: &MxvPipeline<'_>, out: &mut Vec<f32>) {
    debug_assert!(
        p.semiring != Semiring::Boolean,
        "a Boolean pull runs in words"
    );
    let dim = m.tile_dim();
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
}

/// The single-vector Boolean pull sweep in node words on one B2SR width —
/// `yw = (m ⊕.⊗ xw) & !sup`, the minimal-footprint bin/bin/bin scheme — the
/// tile body under [`BitB2sr::bits_product`].  Operand and suppressed rows
/// are re-laid out as tile words (`n / 8` bytes each), the sweep stops where
/// the answer is known (`kernels::bmv`), and `yw` (a pooled buffer, sized
/// here) receives the node words of `nrows` entries.
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
    bmv_bin_bin_bin_masked_into(m, &xp, mp.as_deref(), &mut tiles);
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

/// The batched Boolean pull sweep in lane words on one B2SR width —
/// `yw = (m ⊕.⊗ xw) & !sup` — the tile body under
/// [`BitB2sr::lane_product`].  `yw` (a pooled buffer, sized here) receives
/// `nrows · wpn` words.
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

/// The batched full-precision pull sweep on one B2SR width.  The tilewise
/// any-lane-active indicator lets the sweep skip inactive columns at word
/// granularity (exact for push-safe semirings, where identity entries
/// contribute nothing).
fn bit_mxm_pull<W: BitWord + Poolable>(
    m: &B2sr<W>,
    p: &MxvPipeline<'_>,
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let (x, k, semiring, mask) = (p.x, p.k, p.semiring, p.mask);
    debug_assert!(
        semiring != Semiring::Boolean,
        "a Boolean pull runs in words"
    );
    let dim = m.tile_dim();
    let mut active: Vec<bool> = ws.take_empty();
    let mut xa: Vec<W> = ws.take_empty();
    if semiring.push_safe() {
        active.extend(
            x.chunks_exact(k)
                .map(|lanes| lanes.iter().any(|&v| !semiring.is_identity(v))),
        );
        pack_vector_bits_into(&active, dim, &mut xa);
    }
    out.clear();
    out.resize(m.n_tile_rows() * dim * k, semiring.identity());
    let xa_opt = semiring.push_safe().then_some(xa.as_slice());
    bmm_bin_full_into(m, x, k, semiring, xa_opt, out);
    out.truncate(m.nrows() * k);
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
            _ if p.semiring == Semiring::Boolean => self.boolean_vector(p, ws, out),
            Some(frontier) => {
                csr_push_vector(self.csr_scatter_rep(p.transpose), p, frontier, ws, out)
            }
            None if self.full_pull_reads_csr() => csr_pull(csr_rep(self, p.transpose), p, out),
            None => with_b2sr!(self.rep(p.transpose), |m| bit_pull(m, p, out)),
        }
    }

    fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            _ if p.semiring == Semiring::Boolean => self.boolean_batch(p, ws, out),
            Some(frontier) => {
                csr_push_batch(self.csr_scatter_rep(p.transpose), p, frontier, ws, out)
            }
            None if self.full_pull_reads_csr() => csr_mxm_pull(csr_rep(self, p.transpose), p, out),
            None => with_b2sr!(self.rep(p.transpose), |m| bit_mxm_pull(m, p, ws, out)),
        }
    }

    fn mxm_reduce_masked(
        &self,
        b: &dyn GrbBackend,
        mask: &dyn GrbBackend,
        transpose_b: bool,
    ) -> f64 {
        // Hypersparse tiles count over the CSRs.  Otherwise the one-call bit
        // path needs all three operands in B2SR with the same tile size;
        // anything else goes through the CSR count too.
        fn bit(o: &dyn GrbBackend) -> Option<&BitB2sr> {
            o.as_any().downcast_ref()
        }
        let (bb, mb) = match (bit(b), bit(mask)) {
            (Some(bb), Some(mb)) if !self.masked_reduce_reads_csr() => (bb, mb),
            _ => return csr_mxm_reduce_masked(self, b, mask, transpose_b),
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
            bits_per_tile: self.bits_per_tile,
        })
    }

    fn clone_box(&self) -> Box<dyn GrbBackend> {
        Box::new(BitB2sr {
            csr: self.csr.clone(),
            b2sr: self.b2sr.clone(),
            csr_t: OnceLock::new(),
            b2sr_t: OnceLock::new(),
            shards: self.shards.clone(),
            bits_per_tile: self.bits_per_tile,
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

/// [`FinishSink`](plan::FinishSink) for the CSR row pull: runs
/// [`csr_pull_full`] with the pipeline epilogue (handed in by
/// [`plan::dispatch_finish`], itself monomorphised for the common shapes)
/// folded into the store.  Masked rows skip their edge walk entirely
/// (GraphBLAST's early exit).
struct CsrPullSink<'a, 'b> {
    csr: &'a Csr,
    semiring: Semiring,
    x: &'a [f32],
    mask: Option<&'a Mask>,
    out: &'b mut [f32],
}

impl plan::FinishSink for CsrPullSink<'_, '_> {
    fn run<Fin: Fn(usize, f32) -> f32 + Sync>(self, fin: Fin) {
        let mask = self.mask;
        let allow = |r: usize| mask.is_none_or(|m| m.allows(r));
        csr_pull_full(self.csr, self.x, self.semiring, allow, fin, self.out);
    }
}

/// The row pull of a single-vector pipeline over `csr`, bare or fused alike
/// ([`CsrPullSink`]) — [`FloatCsr`]'s pull, a [`BitB2sr`]'s full-precision
/// one when its tiles are too sparse to sweep, and a one-lane batch's on
/// either ([`csr_mxm_pull`]).
fn csr_pull(csr: &Csr, p: &MxvPipeline<'_>, out: &mut Vec<f32>) {
    out.clear();
    out.resize(csr.nrows(), 0.0);
    plan::dispatch_finish(
        p,
        CsrPullSink {
            csr,
            semiring: p.semiring,
            x: p.x,
            mask: p.mask,
            out,
        },
    );
}

/// The batched row pull of a pipeline over `csr`.  One lane is the vector
/// pull, [`csr_pull`]: at `k = 1` the operand, the output and the flat mask
/// index `r·k + l = r` are laid out as a vector's.  Wider batches run
/// [`FloatCsr::float_mxm_into`] and the epilogue pass.
fn csr_mxm_pull(csr: &Csr, p: &MxvPipeline<'_>, out: &mut Vec<f32>) {
    if p.k == 1 {
        return csr_pull(csr, p, out);
    }
    out.clear();
    out.resize(csr.nrows() * p.k, p.semiring.identity());
    FloatCsr::float_mxm_into(csr, p.x, p.k, p.semiring, p.mask, out);
    p.finish_in_place(out);
}

/// The scatter representation of a full-precision push: the CSR whose rows
/// are the frontier's domain, the shard plan its scatter is cut by, and its
/// average degree.
type CsrScatter<'a> = (&'a Csr, &'a ShardPlan, usize);

/// Every full-precision push of [`FloatCsr`] and [`BitB2sr`] (and so of a
/// `DeltaOverlay` over either): seed the output ([`seed_push_output`]), run
/// [`csr_push_full`] through `push_scatter` on the representation's shard
/// plan, and finish what the seed did not.  `k` is `p.k`, passed apart, so
/// the single-vector entry point's literal `1` folds the lane loop away.
#[inline(always)]
fn csr_push(
    (csr, plan, avg): CsrScatter<'_>,
    p: &MxvPipeline<'_>,
    k: usize,
    frontier: &[usize],
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    let semiring = p.semiring;
    let finished = seed_push_output(p, csr.ncols() * k, out);
    with_mask_hook!(p.mask, |allow| push_scatter(
        ws,
        plan,
        frontier,
        avg,
        k,
        semiring.identity(),
        out,
        |segment, chunk| csr_push_full(csr, p.x, k, segment, semiring, allow, chunk),
        |acc, v| semiring.reduce(acc, v),
    ));
    if !finished {
        p.finish_in_place(out);
    }
}

/// [`csr_push`] at `k = 1`.  Out of line: inlined into `mxv_into`, the
/// scatter reshapes the code of the pull arms beside it.
#[inline(never)]
fn csr_push_vector(
    rep: CsrScatter<'_>,
    p: &MxvPipeline<'_>,
    frontier: &[usize],
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    csr_push(rep, p, 1, frontier, ws, out)
}

/// [`csr_push`] at `p.k`, out of line like [`csr_push_vector`].
#[inline(never)]
fn csr_push_batch(
    rep: CsrScatter<'_>,
    p: &MxvPipeline<'_>,
    frontier: &[usize],
    ws: &Workspace,
    out: &mut Vec<f32>,
) {
    csr_push(rep, p, p.k, frontier, ws, out)
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
        FloatCsr::from_binary(binary_copy(csr), cfg)
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

    /// The scatter representation of a push product with its shard plan
    /// (edge counts per row, [`crate::shard::SHARD_ALIGN`]-aligned
    /// boundaries) and average degree.
    fn scatter_rep(&self, transpose: bool) -> CsrScatter<'_> {
        let rep = csr_rep(self, !transpose);
        let plan = self.shards.get_or_plan(!transpose, || csr_weights(rep));
        (rep, plan, avg_degree(self.csr.nnz(), plan))
    }

    /// Batched pull sweep: row-parallel CSR matrix × multivector over an
    /// arbitrary semiring.  `y` has `nrows · k` entries; each row's `k` lane
    /// accumulators advance together so the row's column list is walked
    /// exactly once for the whole batch, under a semiring resolved once per
    /// call.  Never one lane: that batch is the vector pull
    /// ([`csr_mxm_pull`]).
    fn float_mxm_into(
        csr: &Csr,
        x: &[f32],
        k: usize,
        semiring: Semiring,
        mask: Option<&Mask>,
        y: &mut [f32],
    ) {
        use rayon::prelude::*;
        debug_assert!(k > 1, "a one-lane batch is the vector pull");
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
        match p.frontier {
            Some(frontier) => csr_push_vector(self.scatter_rep(p.transpose), p, frontier, ws, out),
            None => csr_pull(csr_rep(self, p.transpose), p, out),
        }
    }

    fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            Some(frontier) => csr_push_batch(self.scatter_rep(p.transpose), p, frontier, ws, out),
            None => csr_mxm_pull(csr_rep(self, p.transpose), p, out),
        }
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
        sample_coo(n, n, n * 4, seed).to_binary_csr()
    }

    /// `edges` random edges of an `nrows × ncols` matrix.
    fn sample_coo(nrows: usize, ncols: usize, edges: usize, seed: u64) -> Coo {
        let mut coo = Coo::new(nrows, ncols);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..edges {
            let r = (next() % nrows as u64) as usize;
            let c = (next() % ncols as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo
    }

    /// Every `(r, c)` with `0 < |r − c| ≤ width`: B2SR tiles holding tens of
    /// bits, which the full-precision pull sweeps.
    fn banded(n: usize, width: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(width)..(r + width + 1).min(n) {
                if c != r {
                    coo.push_edge(r, c).unwrap();
                }
            }
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

    /// The flag of a built matrix's pull route: `Some` on a [`BitB2sr`].
    fn pull_reads_csr(b: &dyn GrbBackend) -> Option<bool> {
        b.as_any()
            .downcast_ref::<BitB2sr>()
            .map(BitB2sr::full_pull_reads_csr)
    }

    #[test]
    fn backends_agree_through_the_trait_object() {
        // A scattered graph, whose pulls read the CSR, and a banded one,
        // whose pulls sweep the tiles.
        for (csr, routed) in [(sample(70, 5), true), (banded(70, 6), false)] {
            let x: Vec<f32> = (0..70).map(|i| (i % 7) as f32).collect();
            let backends: Vec<Box<dyn GrbBackend>> = vec![
                Box::new(float_csr(&csr)),
                Box::new(bit_b2sr(&csr, TileSize::S4)),
                Box::new(bit_b2sr(&csr, TileSize::S8)),
            ];
            let reference = product(&*backends[0], &x, Semiring::Arithmetic);
            for b in &backends[1..] {
                assert_eq!(pull_reads_csr(&**b), Some(routed), "{:?}", b.kind());
                let got = product(&**b, &x, Semiring::Arithmetic);
                for (g, r) in got.iter().zip(&reference) {
                    assert!((g - r).abs() < 1e-4, "{:?}", b.kind());
                }
            }
        }
    }

    /// Both crossovers lie strictly between the repo benchmark's two fills,
    /// so the one graph routes and a retune cannot silently route the other.
    /// The pull's, which the Boolean products share: R-MAT(14, 16) at 2.0
    /// bits per B2SR-8 tile, the banded mesh at 51.8 — the Boolean flag is
    /// checked on the two graphs themselves.  The masked reduction's, on the lower triangles
    /// Triangle Counting reduces: R-MAT's `L` at 2.03, the mesh's at 46.5 —
    /// built here as the benchmark builds them, through
    /// `Matrix::lower_triangle`.  The flags follow their definition on both
    /// sides, the transpose view and a clone keep them (`Aᵀ` has the same
    /// edges and tiles), and a compaction re-derives them from its tiles.
    #[test]
    fn crossover_separates_the_benchmark_graphs() {
        use crate::delta::EdgeDelta;
        use bitgblas_datagen::generators;

        const PULL: f64 = CSR_PULL_BELOW_BITS_PER_TILE;
        const REDUCE: f64 = CSR_REDUCE_BELOW_BITS_PER_TILE;
        const { assert!(2.0 < PULL && PULL < 51.8) };
        const { assert!(2.03 < REDUCE && REDUCE < 46.5) };
        for (csr, routed) in [(sample(300, 7), true), (banded(300, 6), false)] {
            let b = bit_b2sr(&csr, TileSize::S8);
            let fill = csr.nnz() as f64 / b.b2sr().n_tiles() as f64;
            assert_eq!(b.full_pull_reads_csr(), routed, "{fill} bits per tile");
            assert_eq!(pull_reads_csr(&*b.transpose_view()), Some(routed));
            assert_eq!(pull_reads_csr(&*b.clone_box()), Some(routed));
        }

        let reduce_reads_csr = |b: &dyn GrbBackend| {
            b.as_any()
                .downcast_ref::<BitB2sr>()
                .map(BitB2sr::masked_reduce_reads_csr)
        };
        // The Boolean products' flag, on the graphs themselves.
        let boolean_reads_csr = |b: &dyn GrbBackend| {
            b.as_any()
                .downcast_ref::<BitB2sr>()
                .map(BitB2sr::boolean_reads_csr)
        };
        let rmat = generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized();
        let mesh = generators::banded(2048, 32, 0.7, 5);
        for (adj, (lo, hi), routed) in [(&rmat, (1.9, 2.1), true), (&mesh, (51.0, 52.0), false)] {
            let a = Matrix::from_csr(adj, Backend::Bit(TileSize::S8));
            let fill = a.nnz() as f64 / a.b2sr().unwrap().n_tiles() as f64;
            assert!(lo < fill && fill < hi, "{fill} bits per tile");
            let b = a.state();
            assert_eq!(boolean_reads_csr(b), Some(routed), "{fill} bits per tile");
            assert_eq!(boolean_reads_csr(&*b.transpose_view()), Some(routed));
            assert_eq!(boolean_reads_csr(&*b.clone_box()), Some(routed));
            let n = a.nrows();
            a.apply_deltas(&[EdgeDelta::insert(n - 1, 0)]).unwrap();
            a.compact(a.context()).unwrap();
            assert_eq!(boolean_reads_csr(a.snapshot().state()), Some(routed));
        }

        for (adj, (lo, hi), routed) in [(rmat, (2.0, 2.1), true), (mesh, (46.0, 47.0), false)] {
            let l = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8)).lower_triangle();
            let fill = l.nnz() as f64 / l.b2sr().unwrap().n_tiles() as f64;
            assert!(lo < fill && fill < hi, "{fill} bits per tile");
            let b = l.state();
            assert_eq!(reduce_reads_csr(b), Some(routed), "{fill} bits per tile");
            assert_eq!(reduce_reads_csr(&*b.transpose_view()), Some(routed));
            assert_eq!(reduce_reads_csr(&*b.clone_box()), Some(routed));
            let n = l.nrows();
            let deltas = [EdgeDelta::insert(n - 1, 0), EdgeDelta::insert(n / 2, 1)];
            l.apply_deltas(&deltas).unwrap();
            l.compact(l.context()).unwrap();
            assert_eq!(l.compactions(), 1);
            assert_eq!(reduce_reads_csr(l.snapshot().state()), Some(routed));
        }
    }

    /// Scattered edges of a ragged rectangular matrix (2001 × 1501, no side
    /// a tile multiple) plus eight hub rows and eight hub columns of 60
    /// edges: a bit or two per tile at every width, so every product routes
    /// to the CSR, and lines long enough that another fold order would
    /// change their float sums.
    fn ragged_with_hubs() -> Csr {
        let (nrows, ncols) = (2001, 1501);
        let mut coo = sample_coo(nrows, ncols, 1500, 17);
        for hub in 0..8 {
            for i in 0..60 {
                coo.push_edge(hub * 250, (i * 97 + hub * 13) % ncols)
                    .unwrap();
                coo.push_edge((i * 131 + hub * 7) % nrows, hub * 180 + 1)
                    .unwrap();
            }
        }
        coo.to_binary_csr()
    }

    /// A routed pull is the tile sweep, bit for bit.  The backend no longer
    /// sweeps the tiles of a matrix whose full-precision pulls read the CSR,
    /// so the sweep bodies are called here directly — `bit_pull` (over
    /// `bmv_bin_full_full_fused_into`) and `bit_mxm_pull` (over
    /// `bmm_bin_full_into`) — against `mxv_into` / `mxm_into`: every width,
    /// both orientations of a ragged rectangular matrix, one lane and batches
    /// of 3 and 64; bare, affine (PageRank), `min`-accumulated (SSSP), masked
    /// and complemented-mask pipelines; operands and baselines holding NaN,
    /// ±inf, −0.0, subnormals and the extremes, under Arithmetic, MaxTimes of
    /// either sign and MinPlus at every hostile weight — 0, 1, −2.5, −0.0,
    /// ±∞ and NaN, so the four-chain fold and the one chain of
    /// `MinPlus(−0.0)` both meet the sweep.
    #[test]
    fn routed_pull_equals_the_tile_sweep_bitwise() {
        use crate::grb::expr::Stage;
        use crate::kernels::bmm::tests::{HOSTILE_GRID, HOSTILE_WEIGHTS};

        let csr = ragged_with_hubs();
        let value = |f: usize, semiring: Semiring| match f % 7 {
            0 | 1 => HOSTILE_GRID[(f / 7) % HOSTILE_GRID.len()],
            2 | 3 => semiring.identity(),
            _ => 0.37 * (f % 11) as f32 - 1.5,
        };
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let ws = Workspace::new();
        let affine = [Stage::Affine {
            mul: 0.85,
            add: 0.01,
        }];
        for ts in TileSize::ALL {
            let b = bit_b2sr(&csr, ts);
            assert!(b.full_pull_reads_csr(), "{ts:?}");
            for transpose in [false, true] {
                let (produced, contracted) = if transpose {
                    (csr.ncols(), csr.nrows())
                } else {
                    (csr.nrows(), csr.ncols())
                };
                let min_plus = HOSTILE_WEIGHTS.map(Semiring::MinPlus);
                let others = [
                    Semiring::Arithmetic,
                    Semiring::MaxTimes(0.75),
                    Semiring::MaxTimes(-0.5),
                ];
                for semiring in min_plus.into_iter().chain(others) {
                    for k in [1usize, 3, 64] {
                        let x: Vec<f32> = (0..contracted * k).map(|f| value(f, semiring)).collect();
                        let base: Vec<f32> =
                            (0..produced * k).map(|f| value(f + 3, semiring)).collect();
                        let structure: Vec<bool> = (0..produced * k).map(|f| f % 3 != 1).collect();
                        let mask = Mask::new(structure.clone());
                        let complemented = Mask::complemented(structure);
                        let min = Some((BinaryOp::Min, base.as_slice()));
                        let shapes: [(&[Stage<'_>], _, Option<&Mask>); 5] = [
                            (&[], None, None),
                            (&affine, None, None),
                            (&[], min, None),
                            (&[], None, Some(&mask)),
                            (&affine, min, Some(&complemented)),
                        ];
                        for (shape, (stages, accum, mask)) in shapes.into_iter().enumerate() {
                            let p = MxvPipeline {
                                x: &x,
                                k,
                                frontier: None,
                                semiring,
                                mask,
                                transpose,
                                stages,
                                accum,
                            };
                            let what = format!(
                                "{ts:?} transpose={transpose} {semiring:?} k={k} shape {shape}"
                            );
                            let (mut got, mut want) = (Vec::new(), Vec::new());
                            b.mxm_into(&p, &ws, &mut got);
                            with_b2sr!(b.rep(transpose), |m| bit_mxm_pull(m, &p, &ws, &mut want));
                            assert_eq!(bits(&got), bits(&want), "mxm {what}");
                            if k == 1 {
                                b.mxv_into(&p, &ws, &mut got);
                                with_b2sr!(b.rep(transpose), |m| bit_pull(m, &p, &mut want));
                                assert_eq!(bits(&got), bits(&want), "mxv {what}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// `b` with its stored fill replaced: `0.0` routes every product that
    /// can read the CSR there, NaN none — the same arrays on the other
    /// route.
    fn refilled(b: &BitB2sr, bits_per_tile: f64) -> BitB2sr {
        BitB2sr {
            csr: b.csr.clone(),
            b2sr: b.b2sr.clone(),
            csr_t: OnceLock::new(),
            b2sr_t: OnceLock::new(),
            shards: b.shards.clone(),
            bits_per_tile,
        }
    }

    /// A routed Boolean product is the tile kernels' product, word for word:
    /// node words ([`BitB2sr::bits_product`]), lane words
    /// ([`BitB2sr::lane_product`]) and the `f32` arms of `mxv_into` /
    /// `mxm_into`, pull and push, on a matrix and its twin on the other
    /// route — the ragged hub matrix (routed) and a banded one of 301
    /// vertices (tiled) at every width, both orientations, `k` of 1, 3, 64,
    /// 65 and 130 (one, two and three words per node, ragged last words);
    /// bare, masked and fully suppressed, from an empty, a thin and a
    /// half-full frontier.
    #[test]
    fn routed_boolean_products_equal_the_tile_kernels_bitwise() {
        let ws = Workspace::new();
        for (csr, routed) in [(ragged_with_hubs(), true), (banded(301, 6), false)] {
            for ts in TileSize::ALL {
                let b = bit_b2sr(&csr, ts);
                assert_eq!(b.boolean_reads_csr(), routed, "{ts:?}");
                let twin = refilled(&b, if routed { f64::NAN } else { 0.0 });
                assert_eq!(twin.boolean_reads_csr(), !routed);
                for transpose in [false, true] {
                    let (produced, contracted) = if transpose {
                        (csr.ncols(), csr.nrows())
                    } else {
                        (csr.nrows(), csr.ncols())
                    };
                    for k in [1usize, 3, 64, 65, 130] {
                        let what = format!("{ts:?} routed={routed} transpose={transpose} k={k}");
                        assert_boolean_twins_agree(
                            &b,
                            &twin,
                            (produced, contracted),
                            k,
                            transpose,
                            &ws,
                            &what,
                        );
                    }
                }
            }
        }
    }

    /// [`routed_boolean_products_equal_the_tile_kernels_bitwise`] at one
    /// width, orientation and lane count.
    fn assert_boolean_twins_agree(
        b: &BitB2sr,
        twin: &BitB2sr,
        (produced, contracted): (usize, usize),
        k: usize,
        transpose: bool,
        ws: &Workspace,
        what: &str,
    ) {
        // Operands: flat `contracted × k` lane flags.
        let empty = |_: usize| false;
        let thin = |f: usize| (f / k) % 37 == 5 && (f % k) % 3 != 1;
        let half = |f: usize| (f * 7 + f / k).is_multiple_of(2);
        // Masks over the flat `produced × k` output: `true` is allowed.
        let partial = |f: usize| !(f * 5 + f / k).is_multiple_of(3);
        type Flags<'a> = &'a dyn Fn(usize) -> bool;
        let cases: [(Flags, Option<Flags>); 6] = [
            (&empty, Some(&partial)),
            (&thin, None),
            (&thin, Some(&partial)),
            (&half, None),
            (&half, Some(&partial)),
            (&half, Some(&empty)),
        ];
        for (case, (active, allowed)) in cases.into_iter().enumerate() {
            let flags: Vec<bool> = (0..contracted * k).map(active).collect();
            let x: Vec<f32> = flags.iter().map(|&a| if a { 1.0 } else { 0.0 }).collect();
            let mask = allowed.map(|allowed| Mask::new((0..produced * k).map(allowed).collect()));
            let frontier: Vec<usize> = (0..contracted)
                .filter(|&u| flags[u * k..][..k].iter().any(|&a| a))
                .collect();
            // The words: node words at one lane, lane words at any.
            let (mut xw, mut lw, mut sup, mut lsup) = (Vec::new(), Vec::new(), None, None);
            pack_segments_into(&flags, 64, &mut xw, |&a| a);
            pack_lane_words_from(&flags, k, |a| a, &mut lw);
            if let Some(mk) = &mask {
                let (mut s, mut ls) = (Vec::new(), Vec::new());
                pack_segments_into(mk.structure(), 64, &mut s, |&a| !a);
                pack_lane_words_from(mk.structure(), k, |a| !a, &mut ls);
                (sup, lsup) = (Some(s), Some(ls));
            }
            for push in [false, true] {
                let front = push.then_some(frontier.as_slice());
                let what = format!("{what} case {case} push={push}");
                let (mut got, mut want) = (Vec::new(), Vec::new());
                if k == 1 {
                    b.bits_product(&xw, front, sup.as_deref(), transpose, ws, &mut got);
                    twin.bits_product(&xw, front, sup.as_deref(), transpose, ws, &mut want);
                    assert_eq!(got, want, "node words {what}");
                    assert_eq!(got.len(), produced.div_ceil(64));
                }
                b.lane_product(&lw, k, front, lsup.as_deref(), transpose, ws, &mut got);
                twin.lane_product(&lw, k, front, lsup.as_deref(), transpose, ws, &mut want);
                assert_eq!(got, want, "lane words {what}");
                assert_eq!(got.len(), produced * lane_words_per_node(k));
                if case == 0 {
                    assert!(
                        got.iter().all(|&w| w == 0),
                        "an empty frontier reaches nothing"
                    );
                }
                let p = MxvPipeline {
                    x: &x,
                    k,
                    frontier: front,
                    semiring: Semiring::Boolean,
                    mask: mask.as_ref(),
                    transpose,
                    stages: &[],
                    accum: None,
                };
                let (mut got, mut want) = (Vec::new(), Vec::new());
                b.mxm_into(&p, ws, &mut got);
                twin.mxm_into(&p, ws, &mut want);
                assert_eq!(got, want, "mxm {what}");
                if k == 1 {
                    b.mxv_into(&p, ws, &mut got);
                    twin.mxv_into(&p, ws, &mut want);
                    assert_eq!(got, want, "mxv {what}");
                }
                if case == 5 {
                    assert!(got.iter().all(|&v| v == 0.0), "every row suppressed");
                }
            }
        }
    }

    /// A seeded push stores what the pull stores wherever no term arrives —
    /// `base ⊕ identity`, `finish` of the identity — on both backends, through
    /// `mxv_into` (one lane) and `mxm_into` (three): MinPlus, MaxTimes and
    /// Arithmetic accumulations over NaN, ±∞ and ±0.0 baselines, at the
    /// positions a thin frontier does not reach and those the mask drops,
    /// both orientations of a rectangular matrix.  Everywhere else the two
    /// backends' pushes (one scatter body) agree bit for bit.
    #[test]
    fn seeded_push_stores_the_pull_baseline_where_the_frontier_does_not_reach() {
        let csr = sample_coo(61, 47, 150, 29).to_binary_csr();
        let (bit, float) = (bit_b2sr(&csr, TileSize::S8), float_csr(&csr));
        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.5];
        let ws = Workspace::new();
        for semiring in [
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(2.0),
            Semiring::Arithmetic,
        ] {
            let id = semiring.identity();
            for (transpose, k) in [(false, 1), (true, 1), (false, 3), (true, 3)] {
                let scattered = if transpose {
                    csr.clone()
                } else {
                    csr.transpose()
                };
                let (contracted, produced) = (scattered.nrows(), scattered.ncols());
                // Every seventh node carries one lane.
                let x: Vec<f32> = (0..contracted * k)
                    .map(|f| match (f / k, f % k) {
                        (u, l) if u % 7 == 0 && l == u % k => 0.5 + (f % 5) as f32,
                        _ => id,
                    })
                    .collect();
                let frontier: Vec<usize> = (0..contracted)
                    .filter(|&u| x[u * k..][..k].iter().any(|&v| v != id))
                    .collect();
                // A position is untouched unless a term reaches it unmasked.
                let mask = Mask::new((0..produced * k).map(|f| f % 4 != 1).collect());
                let mut untouched = vec![true; produced * k];
                for &u in &frontier {
                    for &j in scattered.row(u).0 {
                        for f in (j * k..j * k + k).filter(|&f| x[u * k + f % k] != id) {
                            untouched[f] = !mask.allows(f);
                        }
                    }
                }
                assert!(untouched.iter().filter(|&&t| t).count() > produced * k / 2);
                let base: Vec<f32> = (0..produced * k)
                    .map(|f| hostile[f % hostile.len()])
                    .collect();
                let run = |b: &dyn GrbBackend, push: bool| {
                    let p = MxvPipeline {
                        x: &x,
                        k,
                        frontier: push.then_some(frontier.as_slice()),
                        semiring,
                        mask: Some(&mask),
                        transpose,
                        stages: &[],
                        accum: Some((BinaryOp::monoid_of(semiring), base.as_slice())),
                    };
                    let mut out = Vec::new();
                    match k {
                        1 => b.mxv_into(&p, &ws, &mut out),
                        _ => b.mxm_into(&p, &ws, &mut out),
                    }
                    out.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                };
                for b in [&bit as &dyn GrbBackend, &float] {
                    let (pull, push) = (run(b, false), run(b, true));
                    for f in (0..produced * k).filter(|&f| untouched[f]) {
                        let what = format!("{:?} {semiring:?} {transpose} k={k} at {f}", b.kind());
                        assert_eq!(push[f], pull[f], "{what}: base {}", base[f]);
                    }
                }
                assert_eq!(run(&bit, true), run(&float, true), "{semiring:?}");
            }
        }
    }

    /// The tile kernel's triangle sum over `L`, called directly — the
    /// reference for every `mxm_reduce_masked` path, whichever way `l`'s
    /// own reduction routes.
    fn tile_kernel_triangles(l: &BitB2sr) -> f64 {
        with_b2sr!(l.b2sr(), |m| bmm_bin_bin_sum_masked_nt(m, m, m)) as f64
    }

    /// Direct coverage of the `csr_mxm_reduce_masked` fallback: every
    /// mixed-backend operand combination must produce the same triangle sum
    /// as the tile kernel, straight through the free function (not just
    /// incidentally via TC parity runs) — in both orientations of the second
    /// operand (`L · (Lᵀ)` and `L · (L)ᵀ`) — on an `L` whose own reduction
    /// intersects tiles and on one (under 2.5 bits per tile) whose own
    /// reduction counts over the CSRs.
    #[test]
    fn csr_fallback_is_exact_for_every_mixed_operand_combination() {
        for (n, seed, routed) in [(72, 21, false), (300, 7, true)] {
            let adj = sample(n, seed).symmetrized().without_diagonal();
            let l = adj.lower_triangle();
            let lt = l.transpose();

            let a_bit = bit_b2sr(&l, TileSize::S8);
            let b_bit = bit_b2sr(&lt, TileSize::S8);
            let a_f = float_csr(&l);
            let b_f = float_csr(&lt);
            assert_eq!(a_bit.masked_reduce_reads_csr(), routed, "n = {n}");

            // The popcount BMM, called directly, is the reference.
            let expected = tile_kernel_triangles(&a_bit);
            assert!(expected > 0.0, "sample graph must contain triangles");
            assert_eq!(a_bit.mxm_reduce_masked(&b_bit, &a_bit, false), expected);
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

            // The trait entry point routes mixed operands through the
            // fallback and must agree too.
            assert_eq!(a_bit.mxm_reduce_masked(&b_f, &a_bit, false), expected);
            assert_eq!(a_f.mxm_reduce_masked(&b_bit, &a_bit, false), expected);
            assert_eq!(a_bit.mxm_reduce_masked(&a_f, &a_bit, true), expected);
            assert_eq!(a_f.mxm_reduce_masked(&a_bit, &a_bit, true), expected);
        }
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
        assert_eq!(bit, tile_kernel_triangles(&a));
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

    /// The one sharded-or-serial routine over its six scatter shapes
    /// (Boolean tile words and tile lane words, the CSR node words and lane
    /// words, and the full-precision CSR scatter at one lane and at three):
    /// engaged on a multi-shard plan of a rectangular matrix, its output is
    /// bit-identical at 1/2/4/8 threads, and for exact monoids equal to the
    /// serial kernel on the whole frontier.
    #[test]
    fn push_scatter_is_bit_identical_across_threads_and_equals_serial() {
        let a = sample_coo(300, 283, 1200, 53).to_binary_csr();
        let (n, ncols) = (a.nrows(), a.ncols());
        let b = from_csr::<u8>(&a, 8);
        let cfg = ShardConfig {
            threads: 4,
            cache_bytes: 2 << 20,
        };
        let plan = ShardPlan::from_weights(a.rowptr(), 1, n, cfg);
        assert!(plan.n_shards() >= 4, "precondition: {plan:?}");
        let avg = avg_degree(a.nnz(), &plan);
        let frontier: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let k = 70;
        let wpn = lane_words_per_node(k);
        let mut x: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.37 + 0.01).collect();
        let mut xk: Vec<f32> = (0..n * 3).map(|f| (f % 7) as f32 * 0.21 + 0.5).collect();
        // −0.0 and +∞ among the terms (−∞ too would put NaN, which `==`
        // cannot compare, into the Arithmetic outputs).
        for (f, v) in x.iter_mut().chain(&mut xk).enumerate() {
            if f % 13 < 2 {
                *v = [-0.0, f32::INFINITY][f % 13];
            }
        }
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
            vec![0u64; ncols * wpn],
        );
        let mut serial_lanes = vec![0u64; ncols * wpn];
        lanes(&frontier, &mut serial_lanes);
        assert_eq!(got, serial_lanes);

        // The CSR node-word and lane-word scatters of a routed matrix: the
        // same ORs as the tile scatters above (the bits of `words` and
        // `lanes`), and the engagement test counts node words.
        let node_words = |seg: &[usize], chunk: &mut [u64]| csr_bits_push(&a, seg, chunk);
        let got = at_every_budget(
            "csr node words",
            |ws, y| {
                push_scatter(ws, &plan, &frontier, avg, 1, 0u64, y, node_words, |p, q| {
                    p | q
                })
            },
            vec![0u64; ncols.div_ceil(64)],
        );
        let mut serial = vec![0u64; ncols.div_ceil(64)];
        node_words(&frontier, &mut serial);
        assert_eq!(got, serial);
        let mut tiles = vec![0u8; b.n_tile_cols()];
        words(&frontier, &mut tiles);
        let mut joined = Vec::new();
        join_tile_words(&tiles, 8, ncols, &mut joined);
        assert_eq!(got, joined, "the tile scatter's bits");
        let csr_lanes = |seg: &[usize], chunk: &mut [u64]| csr_lanes_push(&a, seg, &xw, wpn, chunk);
        let got = at_every_budget(
            "csr lane words",
            |ws, y| {
                push_scatter(
                    ws,
                    &plan,
                    &frontier,
                    avg,
                    wpn,
                    0u64,
                    y,
                    csr_lanes,
                    |p, q| p | q,
                )
            },
            vec![0u64; ncols * wpn],
        );
        assert_eq!(got, serial_lanes, "the tile lane scatter's words");

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
                csr_push_full(&a, &x, 1, seg, semiring, |j| j % 5 != 0, chunk)
            };
            let multi = |seg: &[usize], chunk: &mut [f32]| {
                csr_push_full(&a, &xk, 3, seg, semiring, |_| true, chunk)
            };
            let got_full = at_every_budget(
                "full",
                |ws, y| push_scatter(ws, &plan, &frontier, avg, 1, id, y, full, fold),
                vec![id; ncols],
            );
            let got_multi = at_every_budget(
                "multi full",
                |ws, y| push_scatter(ws, &plan, &frontier, avg, 3, id, y, multi, fold),
                vec![id; ncols * 3],
            );
            if semiring != Semiring::Arithmetic {
                let mut serial = vec![id; ncols];
                full(&frontier, &mut serial);
                assert_eq!(bits(&got_full), bits(&serial), "{semiring:?}");
                let mut serial = vec![id; ncols * 3];
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
