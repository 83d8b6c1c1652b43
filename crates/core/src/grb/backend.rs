//! The built backend: one storage type, [`BitB2sr`], and the products on it.
//!
//! Every matrix is built as a [`BitB2sr`]: the binary CSR every matrix
//! holds, plus — under [`Backend::Bit`] — B2SR tiles and the bit kernels of
//! [`crate::kernels`] (the paper's contribution).  It runs one product
//! pipeline per operand shape ([`BitB2sr::mxv_into`] for a vector,
//! [`BitB2sr::mxm_into`] for an `n × k` multi-vector) and the masked product
//! reduction of Triangle Counting ([`BitB2sr::mxm_reduce_masked`]), whose
//! operand it builds once and keeps ([`BitB2sr::triangle_operand`]).  Tiles
//! serve two products — the single-vector Boolean product in node words and
//! the masked reduction — and exist only where they fill: a `Backend::Bit`
//! matrix under [`MIN_TILE_FILL`] bits per non-empty tile (scaled above
//! B2SR-8) builds none and
//! runs those two on its CSR as well — the masked reduction as AND +
//! popcount over the CSR's rows packed into 64-column words
//! ([`csr_words_masked_count`]).  Every other product reads the CSR on
//! every matrix: every full-precision pull and push, and every lane-word
//! product, the `f32` Boolean batch included.  A [`Backend::FloatCsr`]
//! matrix is the paper's float baseline (the GraphBLAST/cuSPARSE stand-in):
//! never tiled, every product, the Boolean ones included, runs on `f32` over
//! the CSR, and it has no word product; its masked reduction counts column
//! indices (`ops::spgemm_masked_count`).
//!
//! A matrix with pending edge deltas reads through a
//! [`DeltaOverlay`](crate::delta::DeltaOverlay) beside its built base: the
//! planner runs the base's product, then the overlay re-folds the dirty
//! rows the operand reaches.  A built backend is never mutated once built
//! (its lazy views are `OnceLock`s), so matrices, snapshots and clones share
//! it behind an `Arc`.
//!
//! # Serial push execution
//!
//! Every push runs its serial kernel once over the whole ascending frontier:
//! the node-word scatter of a tiled matrix over its tiles, each tile's OR
//! shifted straight into the node word of its tile-column
//! ([`tile_bits_push`]), the node-word scatter of a matrix without tiles
//! ([`csr_bits_push`]), every lane-word scatter ([`csr_lanes_push`]) and
//! every full-precision push — any `f32` semiring, one lane or a batch, and
//! the float baseline's `f32` Boolean push — through [`csr_push_full`].  The
//! fold order is the frontier's, so a push's result never depends on the
//! host's thread count.  Either node-word scatter writes the output's zeroed
//! words and one word per tile (or edge) its frontier touches, no more
//! ([`ExecCounts::push_words`](super::ExecCounts)).  A row-shard scatter of
//! the tile words, privatized
//! per segment and ORed in order, measured 1.38–1.97× slower at two threads
//! than this serial one on the mesh, and went.

use std::sync::{Arc, OnceLock};

use bitgblas_bitops::BitWord;
use bitgblas_sparse::{ops as float_ops, Csr};

use crate::b2sr::convert::{count_tiles, RetileCounts};
use crate::b2sr::format::with_b2sr;
use crate::b2sr::{B2srMatrix, TileSize};
use crate::kernels::bmv::pack_segments_into;
use crate::kernels::simd;
use crate::kernels::{
    bmm_bin_bin_sum_masked_nt, csr_bits_pull, csr_bits_push, csr_lanes_pull, csr_lanes_push,
    csr_pull_full, csr_push_full, csr_words_masked_count, tile_bits_pull, tile_bits_push, RowWords,
};
use crate::semiring::{with_semiring_ops, BinaryOp, Semiring};

use super::auto;
use super::descriptor::Mask;
use super::expr::Stage;
use super::lanebits::{expand_lane_words_into, pack_lane_words_from};
use super::matrix::Backend;
use super::multivec::lane_words_per_node;
use super::plan::MxvPipeline;
use super::workspace::Workspace;

/// The masked product reduction over CSR views: `Σ_{(i,j) ∈ mask} (A ·
/// B)[i][j]` with `bt` the second factor's transpose stored by rows (`B`'s
/// transpose CSR for `A · B`, `B`'s own CSR for `A · Bᵀ`).  The product of
/// every operand triple that is not three [`BitB2sr`]s tiled alike: a
/// matrix without tiles, one with pending deltas (its merged views), mixed
/// tile sizes.  Handed `bt`'s row `words` — a triple of `Backend::Bit`
/// matrices — it ANDs them ([`csr_words_masked_count`]); otherwise — the
/// float baseline takes part — it counts column indices
/// (`spgemm_masked_count`).  Every CSR a matrix holds is all-ones, so
/// either exact count is the sum of `1.0 · 1.0` products the arithmetic
/// semiring would form.
pub(crate) fn csr_mxm_reduce_masked(
    a: &Csr,
    bt: &Csr,
    mask: &Csr,
    words: Option<&RowWords>,
) -> f64 {
    match words {
        Some(words) => csr_words_masked_count(a, words, mask) as f64,
        None => float_ops::spgemm_masked_count(a, bt, mask)
            .expect("operand dimensions checked by the caller") as f64,
    }
}

/// True iff every one of `kinds` is a `Backend::Bit` matrix: a masked
/// reduction of such a triple without common tiles reads the second
/// factor's row words.
pub(crate) fn all_bit(kinds: [Backend; 3]) -> bool {
    kinds.iter().all(|k| matches!(k, Backend::Bit(_)))
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
// BitB2sr
// ---------------------------------------------------------------------------

/// The fill, in mean bits per non-empty tile, from which a [`Backend::Bit`]
/// matrix holds B2SR tiles, scaled by `dim / 8` above B2SR-8: [`BitB2sr`]
/// builds them iff `8 · nnz ≥ MIN_TILE_FILL · n_tiles · max(dim, 8)` (8 bits
/// per tile at B2SR-16, 16 at B2SR-32), counting the tiles before it
/// converts (the converter's discover step, which packs nothing), and a
/// compaction decides again from what it folded.  Tiles serve two products: the
/// single-vector Boolean product in node words (pull and push) and the
/// masked reduction of Triangle Counting.  Under the fill — the paper's
/// Table V scatter class, whose tiles hold a bit or two — those two read
/// the CSR the matrix holds as well, in node words and as the word count
/// ([`csr_words_masked_count`]) over its rows packed into 64-column words.
/// Every other product reads the CSR on every matrix, tiled or not.  The
/// paths agree bit for bit (both pulls fold a row's columns in ascending
/// order, OR is exact, the count is exact), so the choice moves time and
/// memory, never a result.  The benchmark's graphs sit far from it:
/// R-MAT(14, 16) at 2.0 bits per B2SR-8 tile and its `L` at 2.03 hold none,
/// the mesh at 51.8 and its `L` at 46.5 hold tiles
/// (`tiles_exist_only_where_a_product_sweeps_them`).
///
/// # The Boolean products
///
/// `taskset -c 1 cargo bench -p bitgblas-bench --bench bmv -- bmv_bool_fill`
/// (bare kernels, 16 384 vertices, one pinned core of a 2-vCPU Xeon VM, two
/// runs) times the tile Boolean pull and push beside the CSR word kernels —
/// node words at `k = 1` ([`csr_bits_pull`], [`csr_bits_push`]), lane words
/// at `k = 64` ([`csr_lanes_pull`], [`csr_lanes_push`]) — with R-MAT's edge
/// count laid out in scattered tiles of `b` bits each, so that fill is the
/// one variable, at a 1 % frontier as a BFS's first rounds meet it, a half
/// frontier with three quarters visited and a full frontier with nothing
/// visited.  CSR ÷ tiles of the node words at B2SR-8, each cell over the
/// states named and both runs:
///
/// | bits / tile | node pull 1 % | node pull ½, full | node push |
/// |---|---|---|---|
/// | 1 | 0.42–0.46 | 0.22–0.32 | 0.11–0.15 |
/// | 2 | 0.99–1.25 | 0.39–0.63 | 0.25–0.30 |
/// | 4 | 2.59–3.02 | 0.42–0.70 | 0.43–0.68 |
/// | 8 | 5.13–5.92 | 0.71–2.35 | 0.74–1.17 |
/// | 16 | 12–14 | 2.96–3.47 | 1.88–2.42 |
/// | 64 | 19–27 | 3.13–5.55 | 3.41–7.89 |
/// | R-MAT, 2.0 | 0.65–0.73 | 0.08–0.23 | 0.17–0.40 |
/// | mesh, 51.8 | 33–36 | 2.92–38 | 5.80–9.61 |
///
/// The node-word products cross between 4 and 8 bits, except the pull at a
/// 1 % frontier, which crosses near 2 — but a BFS pulls at large frontiers
/// (`Direction::Auto` is Beamer's switch), where the CSR wins to 4 bits.
/// So the fill serves.  At the other widths, under 4 bits, every cell is ≤
/// 0.70 but that same pull at a 1 % frontier at 2 bits per tile (B2SR-4
/// 1.45–1.49, B2SR-16 0.82–1.05); R-MAT holds no tiles at B2SR-4 and -16
/// (1.5 and 3.2 bits: ≤ 0.85), nor at B2SR-32 (6.0 bits, under that
/// width's 16).  The tiles it held there while the gate was 4 bits at
/// every width lost every cell but that one (1.24–1.60; the rest
/// 0.01–0.97), and whole algorithms by more: BFS 2.36–2.49 ms and Triangle
/// Counting 61–62 ms, against 0.24 and 7.5 ms without tiles.
///
/// The lane words read the CSR at every fill: the tile lane push walks every
/// tile of a node's tile-row, and the lane products lose to the CSR through
/// 16 bits per tile in every state (½ and full pulls 0.02–0.60, pushes
/// 0.06–0.43, 1 % pulls 0.06–0.56) and on the mesh, which holds tiles (½
/// and full pulls 0.05–0.56, pushes 0.32–0.40, 1 % pulls 0.92–1.04).  Only
/// the 1 % pull at 64 bits per tile favours the tiles (1.52–2.47), a fill
/// no benchmark graph reaches.
///
/// # The full-precision products
///
/// Every full-precision pull reads the CSR on every matrix, as every push
/// does.  `taskset -c 1 cargo bench -p bitgblas-bench --bench bmv --
/// bmv_pull_fill` (same graphs, host and core, two runs) times the tile
/// sweep beside the row pull the engine runs, [`csr_pull_full`], whose
/// MinPlus fold takes a row's least operand by compare-select and adds the
/// weight once.  Row pull ÷ sweep at B2SR-8:
///
/// | bits / tile | 1 | 2 | 4 | 6 | 8 | 16 | 64 |
/// |---|---|---|---|---|---|---|---|
/// | Arithmetic | 0.24–0.31 | 0.44–0.49 | 0.57–0.61 | 0.70–0.72 | 0.72–0.75 | 0.81–0.83 | 0.46–0.47 |
/// | MinPlus | 0.22 | 0.37–0.39 | 0.54–0.57 | 0.55–0.57 | 0.54–0.56 | 0.59–0.67 | 0.30 |
///
/// The row pull wins at every fill, the mesh included (MinPlus 0.31–0.37,
/// Arithmetic 0.49–0.52; R-MAT 0.20–0.21 and 0.23–0.27), and at every other
/// width (MinPlus ≤ 0.48, 0.58 and 0.65 at B2SR-4, -16 and -32; Arithmetic
/// ≤ 0.61, 0.72 and 0.62).  The MinPlus row was 0.30–0.95 at B2SR-8 with
/// the `f32::min` fold.  The Arithmetic row's code did not change, yet its
/// 64-bit cell read 0.46–0.47 where it had read 0.76–1.07: that is how far
/// the host moves a cell between sessions.  End to end, ten
/// alternating pairs of the repo benchmark's mesh workloads (B2SR-8, one
/// pinned core of the same VM), every full-precision pull and every lane
/// product on the CSR against the tile sweeps, read in medians
/// (`mesh_read` / `mesh_mixed`): `pagerank_ms` 0.62× / 0.66× and `cc_ms`
/// 0.65× / 0.71× in every pair, `drain_qps` 1.11× / 1.07×, `peak_rss_mb`
/// +6.7 % / +3.2 % (the `csr_t` the row pulls built beside `b2sr_t` — an
/// asymmetric matrix's cost only: a symmetric one, as the mesh is, has since
/// read its own CSR and tiles as its transpose), a served query's p50 and
/// p95 1.07× and 1.10× / 0.99× and 1.04×, and every other end-to-end metric
/// 0.92–1.06× — none past its bound.  Not measured: the batched pull against
/// fill (only end to end), and more than one core.
///
/// # The masked reduction
///
/// Triangle Counting's `Σ (L · Lᵀ) .* L` intersects tiles
/// ([`bmm_bin_bin_sum_masked_nt`]) when all three operands hold them.
/// Otherwise a bit matrix's `L` is ranked by degree and counted as AND +
/// popcount over its CSR's row words ([`csr_words_masked_count`]); the
/// float baseline counts column indices (`ops::spgemm_masked_count`).
/// `taskset -c 1 cargo bench -p bitgblas-bench --bench bmm -- bmm_tc_fill`
/// times them on the lower triangle `L` of a symmetric graph:
/// R-MAT(14, 16)'s edge count laid out in scattered mirrored tiles, so that
/// fill is the one variable — the tile kernel on the index-ordered `L`, the
/// word count on `L` ranked by degree (`{name}/words`, the operand a matrix
/// without tiles builds; `{name}/words_portable`, its build for a host
/// without `popcnt`) and the index count on the index-ordered `L`
/// (`{name}/count`).  Word count ÷ tile kernel at `L`'s fill (bits per
/// tile; bare kernels, 16 384 vertices, one pinned core of a 2-vCPU Xeon
/// VM, the medians the command prints, two runs; the word count on the
/// `popcnt` instruction, which that host has):
///
/// | width | ≈ 1 | ≈ 2 | ≈ 3 | ≈ 4 | ≈ 6 | ≈ 9 | ≈ 16 |
/// |---|---|---|---|---|---|---|---|
/// | B2SR-4 | 0.31–0.33 | 0.80–0.91 | 1.82–1.90 | 2.31–2.34 | 3.31–3.86 | 4.26–5.92 | 1.88–2.68 |
/// | B2SR-8 | 0.08–0.11 | 0.40 | 0.89 | 1.36–1.38 | 2.58–2.93 | 3.74–4.23 | 7.56–7.88 |
/// | B2SR-16 | 0.03 | 0.12–0.14 | 0.30–0.32 | 0.55–0.58 | 1.14–1.41 | 1.90–2.94 | 4.63–4.64 |
/// | B2SR-32 | — | 0.03–0.04 | 0.04–0.07 | 0.12–0.14 | 0.32–0.40 | 0.47–0.75 | 1.93–2.35 |
///
/// (The columns are nominal: `L`'s measured fills are 1.0–1.3, 2.0–2.3,
/// 3.0–3.2, 4.0–4.2, 6.0–7.0, 8.0–9.0 and 16–17.)  The word count and the
/// tile kernel cross between 2 and 3 bits at B2SR-4, between 3 and 4 at
/// B2SR-8, between 4 and 6 at B2SR-16 and between 9 and 16 at B2SR-32.
/// The gate (4, 4, 8 and 16 bits) sits at or above each crossing, so an
/// `L` between a crossing and its gate is counted in words where the tile
/// kernel would be faster: 1.82–1.90× the tile kernel at B2SR-4 (≈ 3 bits)
/// and 1.14–1.41× at B2SR-16 (≈ 6); at B2SR-8 the crossing meets the gate.
/// No benchmark workload's `L` is in those bands.  These scattered graphs
/// have no hubs, so most of their ranked `L`s pack only 1.06–1.38 entries per
/// 64-column word, and there the words cost 0.43–1.53× the index count (an
/// Erdős–Rényi `L` at 1.06 entries per word: 1.09–1.11×): a word is one
/// `popcnt`, an index a compare, and a word holds little more than one
/// index.  The portable build, which a host without `popcnt` runs, costs
/// 1.02–1.97× the `popcnt` build on them.  A skewed graph's ranked `L`
/// packs and its words beat both: R-MAT's `L` (1.5, 2.0, 3.2 and 6.0 bits
/// per tile at B2SR-4 to -32, 2.63 entries per word) 0.04–0.08× the tile
/// kernel at every width, against the index count's 0.17–0.40×; the mesh's
/// (12.9–466 bits) 1.17–2.60×.  Not measured: more than one core, any
/// width but B2SR-8 end to end, and a graph without hubs or tiles end to
/// end.
pub const MIN_TILE_FILL: usize = 4;

/// The most non-empty `dim × dim` tiles `nnz` entries fill ([`MIN_TILE_FILL`]).
pub(crate) fn max_filled_tiles(nnz: usize, dim: usize) -> usize {
    8 * nnz / (MIN_TILE_FILL * dim.max(8))
}

/// `bin`'s non-empty `dim × dim` tiles, counted until too many to fill, and
/// whether they fill: the tile gate.
pub(crate) fn gate_count(bin: &Csr, dim: usize) -> (usize, bool) {
    let limit = max_filled_tiles(bin.nnz(), dim);
    let n_tiles = count_tiles(bin, dim, limit);
    (n_tiles, n_tiles <= limit)
}

/// The built backend every matrix holds: the binary CSR (the interchange
/// view, and what every full-precision product and every lane-word product
/// reads) plus, under [`Backend::Bit`] where they fill ([`MIN_TILE_FILL`]),
/// B2SR tiles and the two bit kernels that read them: the node-word
/// Boolean pull and push (Table II's bin/bin/bin) and the masked count
/// (Table III).  Without tiles those two run on the CSR too — in node words,
/// and as the word count over the CSR's rows packed into 64-column words,
/// packed on the first count and kept.
/// The Boolean products of a `Backend::Bit` matrix run in bit words; the
/// float baseline, [`Backend::FloatCsr`], runs everything on `f32` and
/// counts its masked reduction by column index.
#[derive(Debug)]
pub struct BitB2sr {
    /// What the matrix was built as, tiled or not.
    kind: Backend,
    csr: Csr,
    /// `Aᵀ`'s CSR, built on first use — never for a symmetric matrix, whose
    /// `csr_t()` is `csr`.
    csr_t: OnceLock<Csr>,
    /// Whether `A == Aᵀ`, checked ([`Csr::is_symmetric`]) where the first
    /// transpose would be built: never while building or compacting.
    symmetric: OnceLock<bool>,
    /// The B2SR tiles, under `Backend::Bit` at a fill worth sweeping.
    tiles: Option<Tiles>,
    /// Triangle Counting's operand, built on first use
    /// ([`triangle_operand`](Self::triangle_operand)).
    triangle: OnceLock<Arc<BitB2sr>>,
    /// The CSR's rows in bit words, packed on first use (`row_words`).
    words: OnceLock<RowWords>,
    /// `Aᵀ`'s row pointer alone — `A`'s column counts — counted on first
    /// use where a push would scatter `Aᵀ`'s rows and `Aᵀ` is not built
    /// ([`scatter_rows`](Self::scatter_rows)).
    rowptr_t: OnceLock<Vec<usize>>,
}

/// What a tiled [`BitB2sr`] holds beside its CSR.
#[derive(Debug)]
struct Tiles {
    b2sr: B2srMatrix,
    /// `Aᵀ`'s tiles, built on first use — never for a symmetric matrix.
    b2sr_t: OnceLock<B2srMatrix>,
}

impl Tiles {
    /// The tiles `b2sr`, their transpose not yet built.
    fn new(b2sr: B2srMatrix) -> Self {
        Tiles {
            b2sr,
            b2sr_t: OnceLock::new(),
        }
    }
}

impl BitB2sr {
    /// The `Backend::Bit(tile_size)` backend of a CSR matrix.  The
    /// conversion is eager (the "one-time conversion cost" the paper
    /// amortizes) where the matrix is worth tiling ([`MIN_TILE_FILL`]); the
    /// transpose representations are built lazily.
    pub fn new(csr: &Csr, tile_size: TileSize) -> Self {
        BitB2sr::of_kind(binary_copy(csr), Backend::Bit(tile_size), None).0
    }

    /// The backend of `kind` over `bin`, an all-ones CSR taken by value and
    /// on trust (the compaction path hands over the merge it just wrote).
    /// Under `Backend::Bit` it holds tiles iff they fill, counted
    /// ([`gate_count`]) before converting; `Backend::Auto` builds the kind
    /// [`auto::decide`] counted.  With a tiled
    /// `prev` — the backend of the same matrix before its ascending dirty
    /// rows changed — only the tile-rows holding a dirty row convert
    /// ([`B2srMatrix::retile`]), and the result is kept if it still fills.
    /// The counts are zero when no tiles are.
    pub(crate) fn of_kind(
        bin: Csr,
        kind: Backend,
        prev: Option<(&BitB2sr, &[usize])>,
    ) -> (Self, RetileCounts) {
        debug_assert!(bin.is_binary());
        let (kind, built) = match kind {
            Backend::Bit(ts) => (
                kind,
                match prev.and_then(|(old, dirty_rows)| Some((old.b2sr()?, dirty_rows))) {
                    Some(prev) => {
                        Some(B2srMatrix::retile(&bin, ts, Some(prev))).filter(|(b2sr, _)| {
                            b2sr.n_tiles() <= max_filled_tiles(bin.nnz(), ts.dim())
                        })
                    }
                    None => {
                        let (_, fills) = gate_count(&bin, ts.dim());
                        fills.then(|| B2srMatrix::retile(&bin, ts, None))
                    }
                },
            ),
            Backend::Auto => {
                let d = auto::decide(&bin);
                let Backend::Bit(ts) = d.chosen else {
                    unreachable!("Auto resolves to a bit backend")
                };
                let built = d.tiled.then(|| B2srMatrix::retile(&bin, ts, None));
                (d.chosen, built)
            }
            Backend::FloatCsr => (kind, None),
        };
        let (tiles, counts) = match built {
            Some((b2sr, counts)) => (Some(Tiles::new(b2sr)), counts),
            None => (None, RetileCounts::default()),
        };
        (BitB2sr::with_tiles(kind, bin, tiles), counts)
    }

    /// The backend of `kind` over `bin` holding `tiles`, its lazy views not
    /// yet built.
    fn with_tiles(kind: Backend, bin: Csr, tiles: Option<Tiles>) -> Self {
        BitB2sr {
            kind,
            csr: bin,
            csr_t: OnceLock::new(),
            symmetric: OnceLock::new(),
            tiles,
            triangle: OnceLock::new(),
            words: OnceLock::new(),
            rowptr_t: OnceLock::new(),
        }
    }

    /// Triangle Counting's `L` of `bin`, an all-ones CSR, as a backend of
    /// `kind`: the strictly lower triangle, where it holds tiles under
    /// `kind` (the tile kernel needs the index order's bands), else the same
    /// graph ranked by descending degree
    /// ([`Csr::degree_ranked_lower_triangle`]), without tiles.  Either
    /// counts every triangle once; in degree order every row holds only its
    /// higher-degree neighbours, the hubs' low columns, so it packs into few
    /// 64-column words for the word count.  A matrix that is not square
    /// keeps the index order, whose shapes the product then rejects.
    pub(crate) fn triangle_operand_of(bin: &Csr, kind: Backend) -> BitB2sr {
        let (l, _) = BitB2sr::of_kind(bin.lower_triangle(), kind, None);
        if l.tiles.is_some() || bin.nrows() != bin.ncols() {
            return l;
        }
        // Free `L` before its ranked copy is built.
        drop(l);
        BitB2sr::with_tiles(kind, bin.degree_ranked_lower_triangle(), None)
    }

    /// Triangle Counting's operand for this matrix — the index-ordered `L`
    /// where it holds tiles, else `L` ranked by degree, without tiles
    /// (`triangle_operand_of` of its CSR) — built on first use and cached:
    /// every later count, and every clone or snapshot sharing this backend,
    /// reads the same one.
    pub fn triangle_operand(&self) -> &Arc<BitB2sr> {
        self.triangle
            .get_or_init(|| Arc::new(BitB2sr::triangle_operand_of(&self.csr, self.kind)))
    }

    /// The CSR's rows in bit words, what the masked reduction of a
    /// `Backend::Bit` matrix without common tiles reads its second factor
    /// as.  Packed on first use and cached, so building and compacting
    /// never pay for it and only a masked count asks.
    pub(crate) fn row_words(&self) -> &RowWords {
        self.words.get_or_init(|| RowWords::from_csr(&self.csr))
    }

    /// The B2SR representation, if the matrix has tiles.
    pub fn b2sr(&self) -> Option<&B2srMatrix> {
        self.tiles.as_ref().map(|t| &t.b2sr)
    }

    /// The B2SR representation of `Aᵀ`, if the matrix has tiles: its
    /// [`b2sr`](Self::b2sr) when it is symmetric, built and cached on first
    /// use otherwise.
    pub fn b2sr_t(&self) -> Option<&B2srMatrix> {
        self.tile_rep(true)
    }

    /// The tiles of `A`, or of `Aᵀ` iff `transposed`, if the matrix has
    /// tiles.  The pull sweep of a product runs on `tile_rep(transpose)`;
    /// the push scatter walks the *rows* of the representation whose rows
    /// are the frontier's domain — `tile_rep(!transpose)`.
    fn tile_rep(&self, transposed: bool) -> Option<&B2srMatrix> {
        let tiles = self.tiles.as_ref()?;
        Some(if transposed && !self.is_symmetric() {
            tiles.b2sr_t.get_or_init(|| tiles.b2sr.transpose())
        } else {
            &tiles.b2sr
        })
    }

    /// The resolved backend kind (never [`Backend::Auto`]).
    pub fn kind(&self) -> Backend {
        self.kind
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    /// Number of stored edges.
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    /// The binary CSR view: every matrix holds it, and it is what every
    /// full-precision and every lane-word product reads.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The binary CSR view of `Aᵀ`: [`csr`](Self::csr) itself when the
    /// matrix is symmetric, built and cached on first use otherwise.
    pub fn csr_t(&self) -> &Csr {
        if self.is_symmetric() {
            &self.csr
        } else {
            self.csr_t.get_or_init(|| self.csr.transpose())
        }
    }

    /// True iff `A == Aᵀ`: one pass over the CSR ([`Csr::is_symmetric`]) on
    /// first use — the first transposed product, `csr_t()`, `b2sr_t()` or
    /// this call — and cached.  A symmetric matrix is its own transpose, so
    /// it never builds a second CSR or a second tile set.
    pub fn is_symmetric(&self) -> bool {
        *self.symmetric.get_or_init(|| self.csr.is_symmetric())
    }

    /// Take `symmetric` as [`is_symmetric`](Self::is_symmetric)'s answer,
    /// decided elsewhere of this very matrix (a compaction carries its
    /// overlay's); an answer already decided stays.
    pub(crate) fn carry_symmetry(&self, symmetric: bool) {
        let _ = self.symmetric.set(symmetric);
    }

    /// The CSR of `A`, or of `Aᵀ` iff `transposed`: the representation a row
    /// pull reads, and a push scatters for the opposite flag.
    fn csr_rep(&self, transposed: bool) -> &Csr {
        if transposed {
            self.csr_t()
        } else {
            &self.csr
        }
    }

    /// The row pointer of the representation a push scatter walks for a
    /// product in `transpose` convention — `csr_rep(!transpose)`'s: the
    /// degrees [`Direction::Auto`](super::Direction) prices a frontier's
    /// edges by.  That is the CSR itself for a transposed product (`vxm`)
    /// and on a symmetric matrix.  Otherwise it is `Aᵀ`'s, read off `Aᵀ`
    /// where that is built and else counted from `A`'s columns once: a
    /// transpose is never built only to price a product.
    pub(crate) fn scatter_rows(&self, transpose: bool) -> &[usize] {
        if transpose || self.is_symmetric() {
            return self.csr.rowptr();
        }
        match self.csr_t.get() {
            Some(t) => t.rowptr(),
            None => self.rowptr_t.get_or_init(|| self.csr.transpose_rowptr()),
        }
    }

    /// Storage bytes of the primary representation: the B2SR tiles when the
    /// matrix holds them (its CSR, which every matrix holds, is not counted
    /// then), its CSR otherwise.
    pub fn storage_bytes(&self) -> usize {
        self.b2sr()
            .map_or_else(|| self.csr.storage_bytes(), B2srMatrix::storage_bytes)
    }

    /// A backend of the same kind holding `Aᵀ`: the cached transposes become
    /// the views, tiles included.  A symmetric matrix's is a copy, known
    /// symmetric (`Matrix::transpose` shares the backend instead).
    pub fn transpose_view(&self) -> BitB2sr {
        // `Aᵀ`'s transpose is `A`, cached unless it is the view itself.
        let symmetric = self.is_symmetric();
        BitB2sr {
            kind: self.kind,
            csr: self.csr_t().clone(),
            csr_t: if symmetric {
                OnceLock::new()
            } else {
                OnceLock::from(self.csr.clone())
            },
            symmetric: OnceLock::from(symmetric),
            tiles: self.tiles.as_ref().map(|t| Tiles {
                b2sr: self.tile_rep(true).expect("tiled").clone(),
                b2sr_t: if symmetric {
                    OnceLock::new()
                } else {
                    OnceLock::from(t.b2sr.clone())
                },
            }),
            triangle: OnceLock::new(),
            words: OnceLock::new(),
            rowptr_t: OnceLock::new(),
        }
    }

    /// Run one single-vector product pipeline (`p.k == 1`):
    /// `out[i] = p.finish(i, t[i])` where `t = A ⊕.⊗ p.x` (on `Aᵀ` with
    /// `p.transpose`), in as few sweeps as the storage allows.  `out` is
    /// sized here and scratch comes from the workspace pool.
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
    ///
    /// The Boolean semiring on a `Backend::Bit` matrix runs in node words;
    /// every other product reads the CSR — the row pull, or the serial
    /// scatter.
    pub fn mxv_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            _ if p.semiring == Semiring::Boolean && matches!(self.kind, Backend::Bit(_)) => {
                self.boolean_vector(p, ws, out)
            }
            Some(frontier) => csr_push_vector(self.csr_rep(!p.transpose), p, frontier, out),
            None => csr_pull(self.csr_rep(p.transpose), p, out),
        }
    }

    /// Run one batched product pipeline — [`mxv_into`](Self::mxv_into) over
    /// `p.k` lanes: `p.x` is a flat node-major `n × k` frontier matrix
    /// (`x[i*k + l]` = node `i`, lane `l`), and **one** pass over the matrix
    /// applies each edge to every lane.
    ///
    /// `p.frontier` lists, in ascending order, the *node* indices with at
    /// least one lane differing from the semiring identity; only those
    /// nodes' edges are traversed, and the scatter folds a node's
    /// non-identity lanes only.  The planner hands this entry point the bare
    /// product (the shape's `FUSES_INTO_SWEEP` is `false`) and one fused
    /// shape: a push whose monoid accumulator the scatter can fold
    /// ([`MxvPipeline::push_folds_accum`] — the output is seeded with the
    /// baseline and the scatter folds straight into it).  Any other pipeline
    /// finishes with one [`MxvPipeline::finish_in_place`] pass over the flat
    /// output.
    pub fn mxm_into(&self, p: &MxvPipeline<'_>, ws: &Workspace, out: &mut Vec<f32>) {
        match p.frontier {
            _ if p.semiring == Semiring::Boolean && matches!(self.kind, Backend::Bit(_)) => {
                self.boolean_batch(p, ws, out)
            }
            Some(frontier) => csr_push_batch(self.csr_rep(!p.transpose), p, frontier, out),
            None => csr_mxm_pull(self.csr_rep(p.transpose), p, out),
        }
    }

    /// `Σ_{(i,j) ∈ mask} (A · B)[i][j]` over the arithmetic semiring — the
    /// Triangle Counting primitive — or `A · Bᵀ` with `transpose_b`, the
    /// orientation the kernels run in (they intersect rows of `A` with rows
    /// of the second factor's transpose, so `transpose_b` reads `b` itself
    /// and the plain product reads its cached transpose).  Three operands
    /// tiled at one size intersect tiles ([`bmm_bin_bin_sum_masked_nt`]);
    /// any other triple of `Backend::Bit` matrices ANDs the second factor's
    /// row words ([`csr_words_masked_count`]) — the words it caches of its
    /// own rows where it reads them (`A · Bᵀ`, or a symmetric `B`), words
    /// packed for the call otherwise — and every other triple counts column
    /// indices (`ops::spgemm_masked_count`), the float baseline's count.
    /// The caller checks the shapes.
    pub fn mxm_reduce_masked(&self, b: &BitB2sr, mask: &BitB2sr, transpose_b: bool) -> f64 {
        let count = || {
            let bt = b.csr_rep(!transpose_b);
            let packed;
            let words = if !all_bit([self.kind, b.kind, mask.kind]) {
                None
            } else if std::ptr::eq(bt, &b.csr) {
                Some(b.row_words())
            } else {
                packed = RowWords::from_csr(bt);
                Some(&packed)
            };
            csr_mxm_reduce_masked(&self.csr, bt, &mask.csr, words)
        };
        let (Some(at), Some(mt)) = (&self.tiles, &mask.tiles) else {
            return count();
        };
        // The kernel reads the second factor's transpose by rows.
        let Some(bt) = b.tile_rep(!transpose_b) else {
            return count();
        };
        with_b2sr!(&at.b2sr, |a| {
            match (bt.inner(a.tile_dim()), mt.b2sr.inner(a.tile_dim())) {
                (Some(bt), Some(m)) => bmm_bin_bin_sum_masked_nt(a, bt, m) as f64,
                _ => count(),
            }
        })
    }

    /// The batched Boolean product in lane words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` hold
    /// `k.div_ceil(64)` words per node ([`LaneBits`](super::LaneBits)'s
    /// layout), `frontier` is `mxm_into`'s — `Some(ascending nodes holding a
    /// set lane)` for push — and `yw` is a pooled buffer sized here.  The op
    /// layer ([`Op::mxm_lanes`](super::Op::mxm_lanes)) runs it on a
    /// `Backend::Bit` matrix, and the `f32` Boolean arm of `mxm_into`
    /// ([`boolean_batch`](Self::boolean_batch)) runs it between a pack and an
    /// expand.  Tiled or not, it runs
    /// [`csr_lanes_pull`] on `csr_rep(transpose)` or scatters
    /// [`csr_lanes_push`] serially from `csr_rep(!transpose)`: the lane
    /// products lose to the CSR even on dense tiles ([`MIN_TILE_FILL`]).
    pub(crate) fn lane_product(
        &self,
        xw: &[u64],
        k: usize,
        frontier: Option<&[usize]>,
        excluded: Option<&[u64]>,
        transpose: bool,
        yw: &mut Vec<u64>,
    ) {
        match frontier {
            Some(frontier) => {
                let csr = self.csr_rep(!transpose);
                let wpn = lane_words_per_node(k);
                or_into(yw, csr.ncols() * wpn, excluded, |y| {
                    csr_lanes_push(csr, frontier, xw, wpn, y)
                })
            }
            None => {
                let csr = self.csr_rep(transpose);
                yw.clear();
                yw.resize(csr.nrows() * lane_words_per_node(k), 0);
                csr_lanes_pull(csr, xw, k, excluded, yw);
            }
        }
    }

    /// The single-vector Boolean product in node words, `yw = (A ⊕.⊗ xw) &
    /// !excluded` (on `Aᵀ` with `transpose`): `xw` and `excluded` are in
    /// [`NodeBits`](super::NodeBits)' layout, `frontier` is `mxv_into`'s —
    /// `Some(ascending set indices of xw)` for push, which reads no `xw` —
    /// and `yw` is a pooled buffer sized here.
    /// [`lane_product`](Self::lane_product)'s one-bit sibling, run the same
    /// way ([`Op::vxm_bits`](super::Op::vxm_bits)); the `f32` Boolean arm of
    /// `mxv_into` ([`boolean_vector`](Self::boolean_vector)) runs it between
    /// a pack and an expand.  The one product tiles serve beside the masked
    /// reduction, in node words both ways: a tiled matrix's pull sweeps
    /// them reading each operand and suppressed tile as a field of its node
    /// word and ORing each tile-row into its output word
    /// ([`tile_bits_pull`]), its push ORs each frontier tile straight into
    /// the output's node words ([`tile_bits_push`]) — no tile-word buffer,
    /// no re-layout; one without runs [`csr_bits_pull`] or
    /// [`csr_bits_push`] on its CSR.  A pull sizes `yw` to the output's
    /// node words and overwrites every one.  A push
    /// counts the words it wrote ([`ExecCounts::push_words`](super::ExecCounts)):
    /// the `yw` it zeroed plus the kernel's ORs, so beyond sizing `yw` it
    /// costs what its frontier touches.
    pub(crate) fn bits_product(
        &self,
        xw: &[u64],
        frontier: Option<&[usize]>,
        excluded: Option<&[u64]>,
        transpose: bool,
        ws: &Workspace,
        yw: &mut Vec<u64>,
    ) {
        // A push scatters the rows of the orientation its pull would not sweep.
        match (frontier, self.tile_rep(transpose != frontier.is_some())) {
            (Some(frontier), tiles) => {
                // Into the output's node words, zeroed here: each frontier
                // tile ORs its selected rows straight in, or each edge does.
                let words = self.produced(transpose).div_ceil(64);
                let ored = or_into(yw, words, excluded, |y| match tiles {
                    Some(tiles) => with_b2sr!(tiles, |m| tile_bits_push(m, frontier, y)),
                    None => csr_bits_push(self.csr_rep(!transpose), frontier, y),
                });
                ws.stats().record_push_words(words + ored);
            }
            (None, tiles) => {
                yw.clear();
                yw.resize(self.produced(transpose).div_ceil(64), 0);
                match tiles {
                    Some(tiles) => with_b2sr!(tiles, |m| tile_bits_pull(m, xw, excluded, yw)),
                    None => csr_bits_pull(self.csr_rep(transpose), xw, excluded, yw),
                }
            }
        }
    }

    /// The `f32` Boolean product of a single-vector pipeline on a
    /// `Backend::Bit` matrix: the operand packed into node words →
    /// [`bits_product`](Self::bits_product) → the words expanded to a `0.0`
    /// / `1.0` indicator, and the collapsed epilogue (if any) over the
    /// expansion.  A pull takes the mask into the product as suppressed
    /// rows, so the expansion has nothing left to filter; a push packs
    /// neither (its frontier is the operand's set entries) and the mask
    /// filters the expansion, which visits the set bits only.  Every Boolean
    /// pipeline scatters from the identity: `Or` would normalise a seeded
    /// baseline (`push_folds_accum` excludes it) and the words could not
    /// carry one anyway.  Out of line, like [`csr_push_vector`]: the
    /// full-precision arms of `mxv_into` keep their code.
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

    /// The `f32` Boolean product of a batched pipeline on a `Backend::Bit`
    /// matrix:
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
        self.lane_product(&xw, k, p.frontier, sup.as_deref(), p.transpose, &mut yw);
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

/// A Boolean word push into `yw`: sized to `words` zeros, ORed into by
/// `scatter`, and finished with the AND-NOT of `excluded`.  Returns what
/// `scatter` returns.
fn or_into<R>(
    yw: &mut Vec<u64>,
    words: usize,
    excluded: Option<&[u64]>,
    scatter: impl FnOnce(&mut [u64]) -> R,
) -> R {
    yw.clear();
    yw.resize(words, 0);
    let r = scatter(yw);
    if let Some(excluded) = excluded {
        simd::andnot_into(yw, excluded);
    }
    r
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
/// the scatter ⊕-folds straight into it and finishes the pipeline — returns
/// `true`.  `base ⊕ identity` is `op.apply(base, identity)`, what the
/// pull's finish stores where no term arrives, so unreached and masked-out
/// positions read alike both ways: a NaN (`min` / `max`) or `−0.0` (`+`)
/// baseline is not kept, and the scatter's fold never starts from a NaN.
/// It is computed as the fold of the one term `base` from the identity,
/// `reduce(identity, base)` — the same bits, since the identity is never
/// NaN — so the semiring resolves once per call, not per entry.  Everything
/// else scatters from the identity and still owes the collapsed epilogue
/// ([`MxvPipeline::finish_in_place`]) — returns `false`.
fn seed_push_output(p: &MxvPipeline<'_>, produced: usize, out: &mut Vec<f32>) -> bool {
    out.clear();
    match p.accum {
        Some((op, base)) if p.push_folds_accum() => {
            debug_assert!(op.matches_monoid(p.semiring), "the scatter folds by `op`");
            with_semiring_ops!(p.semiring, |identity, _combine, reduce| out
                .extend(base.iter().map(|&b| reduce(identity, b))));
            true
        }
        _ => {
            out.resize(produced, p.semiring.identity());
            false
        }
    }
}

/// The row pull of a single-vector pipeline over `csr`, bare or fused alike
/// — every full-precision pull (and the float baseline's Boolean one), a
/// one-lane batch's included ([`csr_mxm_pull`]).  Masked rows skip their
/// edge walk ([`csr_pull_full`]'s `allow`: GraphBLAST's early exit), and
/// the pipeline's epilogue folds into the store through a finishing closure
/// monomorphised for its shape: the common fused shapes — a single affine
/// stage (PageRank's update), a monoid accumulator (SSSP's `min`), the bare
/// product — get dedicated closures, so the row loop carries no per-row
/// stage interpretation; everything else runs the general
/// [`MxvPipeline::finish`] interpreter, which is always correct.  The
/// closures are `finish`'s `op.apply(baseline, t)`, baseline first (the
/// tie rule of `semiring`), since a `DeltaOverlay` re-folds with `finish`
/// what this pull stored.
fn csr_pull(csr: &Csr, p: &MxvPipeline<'_>, out: &mut Vec<f32>) {
    out.clear();
    out.resize(csr.nrows(), 0.0);
    let allow = |r: usize| p.mask.is_none_or(|m| m.allows(r));
    macro_rules! pull {
        ($fin:expr) => {
            csr_pull_full(csr, p.x, p.semiring, allow, $fin, out)
        };
    }
    match (p.stages, p.accum, p.mask) {
        ([Stage::Affine { mul, add }], None, None) => {
            let (mul, add) = (*mul, *add);
            pull!(move |_, t| mul * t + add)
        }
        ([], Some((BinaryOp::Min, base)), None) => {
            pull!(move |i, t| BinaryOp::Min.apply(base[i], t))
        }
        ([], Some((BinaryOp::Max, base)), None) => {
            pull!(move |i, t| BinaryOp::Max.apply(base[i], t))
        }
        ([], Some((BinaryOp::Plus, base)), None) => pull!(move |i, t| base[i] + t),
        ([], None, None) => pull!(|_, t| t),
        _ => pull!(|i, t| p.finish(i, t)),
    }
}

/// The batched row pull of a pipeline over `csr`.  One lane is the vector
/// pull, [`csr_pull`]: at `k = 1` the operand, the output and the flat mask
/// index `r·k + l = r` are laid out as a vector's.  Wider batches walk each
/// row once for all `k` lanes, under a semiring resolved once per call, and
/// finish in one epilogue pass.
fn csr_mxm_pull(csr: &Csr, p: &MxvPipeline<'_>, out: &mut Vec<f32>) {
    use rayon::prelude::*;
    if p.k == 1 {
        return csr_pull(csr, p, out);
    }
    out.clear();
    out.resize(csr.nrows() * p.k, p.semiring.identity());
    let (x, k, mask) = (p.x, p.k, p.mask);
    with_semiring_ops!(p.semiring, |identity, combine, reduce| {
        out.par_chunks_mut(k).enumerate().for_each(|(r, lanes)| {
            // A row whose every lane is masked out produces only identities
            // — skip its edge walk entirely (GraphBLAST's early exit, per
            // batch: the common state of late traversal iterations).
            if let Some(m) = mask {
                if (0..k).all(|l| !m.allows(r * k + l)) {
                    return;
                }
            }
            for &c in csr.row(r).0 {
                for (d, &s) in lanes.iter_mut().zip(&x[c * k..][..k]) {
                    *d = reduce(*d, combine(s));
                }
            }
            if let Some(m) = mask {
                for (l, v) in lanes.iter_mut().enumerate() {
                    if !m.allows(r * k + l) {
                        *v = identity;
                    }
                }
            }
        })
    });
    p.finish_in_place(out);
}

/// Every full-precision push — any `f32` semiring on a `Backend::Bit`
/// matrix, tiled or not, every semiring on the float baseline, and so a
/// `DeltaOverlay`'s over either:
/// seed the output ([`seed_push_output`]), run [`csr_push_full`] once over
/// the whole ascending frontier of `csr`, the representation whose rows are
/// the frontier's domain, and finish what the seed did not.  Serial by
/// construction, so the folds group alike at every thread budget.  `k` is
/// `p.k`, passed apart, so the single-vector entry point's literal `1`
/// folds the lane loop away.
#[inline(always)]
fn csr_push(csr: &Csr, p: &MxvPipeline<'_>, k: usize, frontier: &[usize], out: &mut Vec<f32>) {
    let finished = seed_push_output(p, csr.ncols() * k, out);
    with_mask_hook!(p.mask, |allow| csr_push_full(
        csr, p.x, k, frontier, p.semiring, allow, out
    ));
    if !finished {
        p.finish_in_place(out);
    }
}

/// [`csr_push`] at `k = 1`.  Out of line: inlined into `mxv_into`, the
/// scatter reshapes the code of the pull arms beside it.
#[inline(never)]
fn csr_push_vector(csr: &Csr, p: &MxvPipeline<'_>, frontier: &[usize], out: &mut Vec<f32>) {
    csr_push(csr, p, 1, frontier, out)
}

/// [`csr_push`] at `p.k`, out of line like [`csr_push_vector`].
#[inline(never)]
fn csr_push_batch(csr: &Csr, p: &MxvPipeline<'_>, frontier: &[usize], out: &mut Vec<f32>) {
    csr_push(csr, p, p.k, frontier, out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::b2sr::convert::from_csr;
    use crate::grb::{Context, Direction, Matrix, Op, Vector};
    use crate::kernels::bmv_push_bin_bin;
    use crate::semiring::BinaryOp;
    use bitgblas_sparse::Coo;
    use std::sync::Arc;

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
    /// bits.
    pub(crate) fn banded(n: usize, width: usize) -> Csr {
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
        BitB2sr::new(csr, tile_size)
    }

    /// The float baseline: the backend without tiles.
    fn float_csr(csr: &Csr) -> BitB2sr {
        let kind = Backend::FloatCsr;
        BitB2sr::of_kind(binary_copy(csr), kind, None).0
    }

    /// The bare pull product `A ⊕.⊗ x`.
    fn product(b: &BitB2sr, x: &[f32], semiring: Semiring) -> Vec<f32> {
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

    /// `csr`'s `Backend::Bit(ts)` backend with the tile choice forced: the
    /// same CSR with tiles or without, whatever its fill — twins whose
    /// products must agree bit for bit.
    fn twin(csr: &Csr, ts: TileSize, tiled: bool) -> BitB2sr {
        let csr = binary_copy(csr);
        let b2sr = tiled.then(|| B2srMatrix::from_csr(&csr, ts));
        BitB2sr::with_tiles(Backend::Bit(ts), csr, b2sr.map(Tiles::new))
    }

    #[test]
    fn backend_kinds_agree_on_the_product() {
        // A scattered graph, which holds no tiles, and a banded one, which
        // holds them.
        for (csr, hypersparse) in [(sample(70, 5), true), (banded(70, 6), false)] {
            let x: Vec<f32> = (0..70).map(|i| (i % 7) as f32).collect();
            let backends = [
                float_csr(&csr),
                bit_b2sr(&csr, TileSize::S4),
                bit_b2sr(&csr, TileSize::S8),
            ];
            let reference = product(&backends[0], &x, Semiring::Arithmetic);
            for b in &backends[1..] {
                assert_eq!(b.b2sr().is_none(), hypersparse, "{:?}", b.kind());
                let got = product(b, &x, Semiring::Arithmetic);
                for (g, r) in got.iter().zip(&reference) {
                    assert!((g - r).abs() < 1e-4, "{:?}", b.kind());
                }
            }
        }
    }

    /// Tiles exist exactly where they fill to [`MIN_TILE_FILL`] bits — the
    /// counted `nnz / n_tiles` — scaled by `max(dim, 8) / 8`, at every
    /// width, on the repo benchmark's two graphs and on the lower triangles
    /// Triangle Counting reduces, built as the benchmark builds them
    /// (`Matrix::lower_triangle`).  At B2SR-8, R-MAT(14, 16) at 2.0 bits per
    /// tile and its `L` at 2.03 hold none; the mesh at 51.8 and its `L` at
    /// 46.5 hold tiles, so a retune of the constant between the two cannot
    /// silently tile the one or untile the other.  At B2SR-32 R-MAT's 5.9
    /// bits are under that width's 16, so it holds none there either — and
    /// Triangle Counting's
    /// operand is R-MAT's `L` ranked by degree, untiled, and the mesh's
    /// index-ordered `L`, tiled.  The choice survives the
    /// transpose view, a matrix clone and a compaction, and a compaction
    /// that crosses the fill re-decides it either way.  A `Backend::Bit`
    /// matrix without tiles keeps its kind and its word product, reports its
    /// CSR's bytes, and pushes its Boolean words from the CSR.
    #[test]
    fn tiles_exist_only_where_a_product_sweeps_them() {
        use crate::delta::EdgeDelta;
        use crate::grb::{LaneBits, NodeBits};
        use bitgblas_datagen::generators;

        const { assert!(2 < MIN_TILE_FILL && MIN_TILE_FILL < 46) };
        let rmat = generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized();
        let mesh = generators::banded(2048, 32, 0.7, 5);
        let fills = |m: &Matrix, ts: TileSize| {
            let n_tiles = count_tiles(m.csr(), ts.dim(), usize::MAX);
            let scaled = MIN_TILE_FILL * ts.dim().max(8);
            (
                8 * m.nnz() >= scaled * n_tiles,
                m.nnz() as f64 / n_tiles as f64,
            )
        };
        for ts in TileSize::ALL {
            for adj in [&rmat, &mesh] {
                let a = Matrix::from_csr(adj, Backend::Bit(ts));
                for m in [a.lower_triangle(), a] {
                    let (tiled, fill) = fills(&m, ts);
                    let what = format!("{ts:?}: {fill} bits per tile");
                    assert_eq!(m.b2sr().is_some(), tiled, "{what}");
                    assert_eq!(m.resolved_backend(), Backend::Bit(ts), "{what}");
                    let t = m.transpose();
                    assert_eq!(
                        (t.b2sr().is_some(), t.resolved_backend()),
                        (tiled, m.resolved_backend())
                    );
                    assert_eq!(m.clone().b2sr().is_some(), tiled, "{what}");
                    let n = m.nrows();
                    m.apply_deltas(&[EdgeDelta::insert(n - 1, 0)]).unwrap();
                    let report = m.compact(m.context()).unwrap();
                    assert_eq!(m.snapshot().b2sr().is_some(), tiled, "{what}");
                    if !tiled {
                        assert_eq!(report.tiles_retiled + report.tiles_spliced, 0);
                    }
                }
            }
        }
        // The pins: where the benchmark's graphs sit at B2SR-8.
        let s8 = |adj: &Csr| Matrix::from_csr(adj, Backend::Bit(TileSize::S8));
        for (adj, (lo, hi), (l_lo, l_hi)) in [
            (&rmat, (1.9, 2.1), (2.0, 2.1)),
            (&mesh, (51.0, 52.0), (46.0, 47.0)),
        ] {
            let a = s8(adj);
            let (_, fill) = fills(&a, TileSize::S8);
            assert!(lo < fill && fill < hi, "{fill} bits per tile");
            let (_, fill) = fills(&a.lower_triangle(), TileSize::S8);
            assert!(l_lo < fill && fill < l_hi, "L: {fill} bits per tile");
        }
        let (_, fill) = fills(
            &Matrix::from_csr(&rmat, Backend::Bit(TileSize::S32)),
            TileSize::S32,
        );
        assert!(
            5.5 < fill && fill < 6.5,
            "R-MAT: {fill} bits per B2SR-32 tile"
        );
        let (r, m) = (s8(&rmat), s8(&mesh));
        assert!(r.b2sr().is_none() && r.lower_triangle().b2sr().is_none());
        assert!(m.b2sr().is_some() && m.lower_triangle().b2sr().is_some());
        // Triangle Counting's operand: R-MAT's degree-ranked and untiled,
        // the mesh's the index-ordered `L`, tiled.
        let (r_op, m_op) = (r.triangle_operand(), m.triangle_operand());
        assert!(r_op.b2sr().is_none());
        assert_eq!(r_op.csr(), &r.csr().degree_ranked_lower_triangle());
        assert_ne!(r_op.csr(), &r.csr().lower_triangle());
        // The work the ranking saves: hubs first, R-MAT's rows pack into
        // fewer 64-column words than half their entries (80 918 for
        // 213 073), and the count ANDs a fifth of the words it would with
        // the labels reversed, hubs last (1.07 M against 5.30 M).
        let (words, nnz) = (r_op.base().row_words().n_words(), r_op.nnz());
        assert!(2 * words < nnz, "{words} row words for {nnz} entries");
        let ands = |l: &Csr| {
            let words = RowWords::from_csr(l);
            l.iter().map(|(_, c, _)| words.row(c).len()).sum::<usize>()
        };
        let n = r_op.nrows();
        let mut reversed = Coo::new(n, n);
        for (r, c, _) in r_op.csr().iter() {
            reversed.push_edge(n - 1 - c, n - 1 - r).unwrap();
        }
        let (ranked, hubs_last) = (ands(r_op.csr()), ands(&reversed.to_binary_csr()));
        assert!(
            4 * ranked < hubs_last,
            "{ranked} word ANDs, {hubs_last} reversed"
        );
        assert!(m_op.b2sr().is_some());
        assert_eq!(m_op.csr(), &m.csr().lower_triangle());
        assert_eq!(m_op.b2sr(), m.lower_triangle().b2sr());

        // A tile-less bit matrix: its kind, its word product, its CSR's
        // bytes, and its Boolean pushes.
        let ctx = Context::default();
        let a = Matrix::from_csr_ctx(&rmat, Backend::Bit(TileSize::S8), &ctx);
        assert_eq!(a.resolved_backend(), Backend::Bit(TileSize::S8));
        assert_eq!(a.storage_bytes(), a.csr().storage_bytes());
        let n = a.nrows();
        let half: Vec<usize> = (0..n).step_by(2).collect();
        let frontier = NodeBits::from_indices(n, &half);
        let lanes = LaneBits::from_sources(n, &half[..64]);
        for d in [Direction::Push, Direction::Pull] {
            let next = Op::vxm_bits(&frontier, &a).direction(d).try_run(&ctx);
            assert!(next.unwrap().is_some(), "{d:?}");
            let next = Op::mxm_lanes(&a, &lanes)
                .transpose()
                .direction(d)
                .try_run(&ctx);
            assert!(next.unwrap().is_some(), "{d:?}");
            let x = Vector::indicator(n, &half);
            let _ = Op::vxm(&x, &a)
                .semiring(Semiring::Boolean)
                .direction(d)
                .run(&ctx);
        }
        assert_eq!(ctx.stats().push_mxv, 2);

        // A compaction across the fill: 64 tiles of one bit each gain four
        // bits each (5 bits per tile: tiled), then lose them again.
        let mut thin = Coo::new(64, 64);
        for t in 0..64 {
            thin.push_edge((t / 8) * 8, (t % 8) * 8).unwrap();
        }
        let thin = thin.to_binary_csr();
        let fill_in: Vec<EdgeDelta> = (0..64)
            .flat_map(|t| (1..5).map(move |i| EdgeDelta::insert((t / 8) * 8 + i, (t % 8) * 8 + i)))
            .collect();
        let a = s8(&thin);
        assert!(a.b2sr().is_none());
        a.apply_deltas(&fill_in).unwrap();
        let gained = a.compact(a.context()).unwrap();
        let dense = a.snapshot();
        assert_eq!(dense.b2sr(), s8(dense.csr()).b2sr());
        assert_eq!(dense.b2sr().map(B2srMatrix::n_tiles), Some(64));
        assert_eq!(
            (
                gained.tile_rows_retiled,
                gained.tiles_retiled,
                gained.tiles_spliced
            ),
            (8, 64, 0)
        );
        let thinning: Vec<EdgeDelta> = fill_in
            .iter()
            .map(|d| EdgeDelta::delete(d.row, d.col))
            .collect();
        a.apply_deltas(&thinning).unwrap();
        let lost = a.compact(a.context()).unwrap();
        assert_eq!(a.snapshot().csr(), &thin);
        assert!(a.snapshot().b2sr().is_none());
        assert_eq!(
            (
                lost.tile_rows_retiled,
                lost.tiles_retiled,
                lost.tiles_spliced
            ),
            (0, 0, 0)
        );
        assert_eq!(a.snapshot().resolved_backend(), Backend::Bit(TileSize::S8));
    }

    /// Scattered edges of a ragged rectangular matrix (2001 × 1501, no side
    /// a tile multiple) plus eight hub rows and eight hub columns of 60
    /// edges: a bit or two per tile at every width, so it holds no tiles,
    /// and lines long enough that another fold order would change their
    /// float sums.
    pub(crate) fn ragged_with_hubs() -> Csr {
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

    /// The gate at its edge, at every width: two diagonal `dim × dim` tiles
    /// holding `MIN_TILE_FILL · 2 · max(dim, 8) / 8` entries between them
    /// build tiles, one entry fewer builds none, and both keep the kind.
    #[test]
    fn the_tile_gate_holds_at_its_exact_boundary() {
        for ts in TileSize::ALL {
            let dim = ts.dim();
            let threshold = MIN_TILE_FILL * 2 * dim.max(8) / 8;
            for (nnz, tiled) in [(threshold, true), (threshold - 1, false)] {
                let mut coo = Coo::new(2 * dim, 2 * dim);
                for i in 0..nnz {
                    let (t, p) = (i % 2, i / 2);
                    coo.push_edge(t * dim + p / dim, t * dim + p % dim).unwrap();
                }
                let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(ts));
                assert_eq!(count_tiles(m.csr(), dim, usize::MAX), 2, "{ts} {nnz}");
                assert_eq!(m.b2sr().is_some(), tiled, "{ts}: {nnz} entries");
                assert_eq!(m.resolved_backend(), Backend::Bit(ts));
            }
        }
    }

    /// A Boolean product without tiles is the tile kernels' product, word
    /// for word: node words ([`BitB2sr::bits_product`]) and the `f32` arm of
    /// `mxv_into` over them, pull and push, on a matrix and its twin with the
    /// other tile choice — the ragged hub matrix (untiled) and a banded one
    /// of 301 vertices (tiled) at every width, both orientations; bare,
    /// masked and fully suppressed, from an empty, a thin and a half-full
    /// frontier.  Lane words run the CSR tiled or not, and their kernels
    /// are pinned to the tile lane kernels in `kernels::bmm`
    /// (`csr_lane_products_equal_the_tile_lane_kernels_bitwise`); here the
    /// `f32` arm of `mxm_into` over them ([`BitB2sr::lane_product`] between a
    /// pack and an expand) equals the float baseline's `f32` Boolean
    /// product, at `k` of 1, 3, 64, 65 and 130 (one, two and three words per
    /// node, ragged last words).
    #[test]
    fn routed_boolean_products_equal_the_tile_kernels_bitwise() {
        let ws = Workspace::new();
        for (csr, tiled) in [(ragged_with_hubs(), false), (banded(301, 6), true)] {
            for ts in TileSize::ALL {
                let b = bit_b2sr(&csr, ts);
                assert_eq!(b.b2sr().is_some(), tiled, "{ts:?}");
                let twin = twin(&csr, ts, !tiled);
                let float = float_csr(&csr);
                for transpose in [false, true] {
                    let (produced, contracted) = if transpose {
                        (csr.ncols(), csr.nrows())
                    } else {
                        (csr.nrows(), csr.ncols())
                    };
                    for k in [1usize, 3, 64, 65, 130] {
                        let what = format!("{ts:?} tiled={tiled} transpose={transpose} k={k}");
                        assert_boolean_twins_agree(
                            &b,
                            (&twin, &float),
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
        (twin, float): (&BitB2sr, &BitB2sr),
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
            // The node words, at one lane.
            let (mut xw, mut sup) = (Vec::new(), None);
            pack_segments_into(&flags, 64, &mut xw, |&a| a);
            if let Some(mk) = &mask {
                let mut s = Vec::new();
                pack_segments_into(mk.structure(), 64, &mut s, |&a| !a);
                sup = Some(s);
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
                    if case == 0 {
                        assert!(
                            got.iter().all(|&w| w == 0),
                            "an empty frontier reaches nothing"
                        );
                    }
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
                float.mxm_into(&p, ws, &mut want);
                assert_eq!(got, want, "mxm {what}");
                assert!(got.iter().all(|&v| v == 0.0 || v == 1.0), "an indicator");
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
    /// `base ⊕ identity`, `finish` of the identity — on a tiled matrix and on
    /// the float baseline, through `mxv_into` (one lane) and `mxm_into`
    /// (three): MinPlus, MaxTimes and Arithmetic accumulations over NaN, ±∞
    /// and ±0.0 baselines, at the positions a thin frontier does not reach
    /// and those the mask drops, both orientations of a rectangular matrix.
    /// Everywhere else the two matrices' pushes (one scatter body) agree bit
    /// for bit.
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
                let run = |b: &BitB2sr, push: bool| {
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
                for b in [&bit, &float] {
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

    /// The tile kernel's triangle sum over `L`, called directly on its tiled
    /// B2SR-8 twin — the reference for every `mxm_reduce_masked` path,
    /// whether or not `l` holds tiles itself.
    fn tile_kernel_triangles(l: &Csr) -> f64 {
        let tiled = twin(l, TileSize::S8, true);
        with_b2sr!(tiled.b2sr().unwrap(), |m| bmm_bin_bin_sum_masked_nt(
            m, m, m
        )) as f64
    }

    /// A masked reduction without tiles is the tile kernel's, bit for bit:
    /// `mxm_reduce_masked` over untiled twins (a CSR count) against tiled
    /// ones (`bmm_bin_bin_sum_masked_nt`) at every width, `A · B` and
    /// `A · Bᵀ`.  On the ragged hub matrix (`A · Aᵀ` under a scattered
    /// square mask) and on Triangle Counting's `L` of a thin band at 3.6
    /// bits per B2SR-8 tile — inside the 2.5–4 band where a matrix holds no
    /// tiles although the tile kernel is the faster one at B2SR-4 and -8.
    #[test]
    fn masked_reduction_twins_agree_bitwise() {
        use bitgblas_datagen::generators;

        let ragged = ragged_with_hubs();
        let ragged_t = ragged.transpose();
        let mask = sample_coo(2001, 2001, 200_000, 41).to_binary_csr();
        let l = generators::banded(2048, 32, 0.035, 5).lower_triangle();
        let fill = l.nnz() as f64 / count_tiles(&l, 8, usize::MAX) as f64;
        assert!(2.5 < fill && fill < 4.0, "{fill} bits per tile");
        // (a, b for `A · B`, b for `A · Bᵀ`, mask)
        let cases = [
            (&ragged, &ragged_t, &ragged, &mask),
            (&l, &l.transpose(), &l, &l),
        ];
        for (case, (a, b, b_nt, mask)) in cases.into_iter().enumerate() {
            for ts in TileSize::ALL {
                let [got, want] = [false, true].map(|tiled| {
                    let [a, b, b_nt, mask] = [a, b, b_nt, mask].map(|m| twin(m, ts, tiled));
                    let product = a.mxm_reduce_masked(&b, &mask, false);
                    (product, a.mxm_reduce_masked(&b_nt, &mask, true))
                });
                assert_eq!(
                    got.0.to_bits(),
                    want.0.to_bits(),
                    "case {case} {ts:?} A · B"
                );
                assert_eq!(
                    got.1.to_bits(),
                    want.1.to_bits(),
                    "case {case} {ts:?} A · Bᵀ"
                );
                assert!(got.0 > 0.0 && got.0 == got.1, "case {case} {ts:?}: {got:?}");
            }
        }
    }

    /// Direct coverage of the `csr_mxm_reduce_masked` fallback: every
    /// mixed-kind operand combination must produce the same triangle sum as
    /// the tile kernel, straight through the free function (not just
    /// incidentally via TC parity runs) — in both orientations of the second
    /// operand (`L · (Lᵀ)` and `L · (L)ᵀ`) — on an `L` that holds tiles and
    /// on one (under 4 bits per tile) that does not.
    #[test]
    fn csr_fallback_is_exact_for_every_mixed_operand_combination() {
        for (n, seed, untiled) in [(72, 21, false), (300, 7, true)] {
            let adj = sample(n, seed).symmetrized().without_diagonal();
            let l = adj.lower_triangle();
            let lt = l.transpose();

            let a_bit = bit_b2sr(&l, TileSize::S8);
            let b_bit = bit_b2sr(&lt, TileSize::S8);
            let a_f = float_csr(&l);
            let b_f = float_csr(&lt);
            assert_eq!(a_bit.b2sr().is_none(), untiled, "n = {n}");

            // The popcount BMM, called directly, is the reference.
            let expected = tile_kernel_triangles(&l);
            assert!(expected > 0.0, "sample graph must contain triangles");
            assert_eq!(a_bit.mxm_reduce_masked(&b_bit, &a_bit, false), expected);
            assert_eq!(a_bit.mxm_reduce_masked(&a_bit, &a_bit, true), expected);

            // (a, b for `A · B`, b for `A · Bᵀ`, mask)
            type B<'a> = &'a BitB2sr;
            let combos: [(B, B, B, B, &str); 5] = [
                (&a_f, &b_f, &a_f, &a_f, "float/float/float"),
                (&a_bit, &b_f, &a_f, &a_f, "bit/float/float"),
                (&a_f, &b_bit, &a_bit, &a_f, "float/bit/float"),
                (&a_f, &b_f, &a_f, &a_bit, "float/float/bit"),
                (&a_bit, &b_bit, &a_bit, &a_f, "bit/bit/float"),
            ];
            // Either count over the same views, whichever kinds they come
            // from: by index, and over the second factor's words.
            for words in [false, true] {
                for &(a, b, b_nt, m, what) in &combos {
                    let run = |bt: &Csr| {
                        let packed = words.then(|| RowWords::from_csr(bt));
                        csr_mxm_reduce_masked(a.csr(), bt, m.csr(), packed.as_ref())
                    };
                    assert_eq!(run(b.csr_t()), expected, "{what}, words: {words}");
                    assert_eq!(run(b_nt.csr()), expected, "{what}ᵀ, words: {words}");
                }
            }

            // The method routes mixed operands through the fallback and
            // must agree too.
            assert_eq!(a_bit.mxm_reduce_masked(&b_f, &a_bit, false), expected);
            assert_eq!(a_f.mxm_reduce_masked(&b_bit, &a_bit, false), expected);
            assert_eq!(a_bit.mxm_reduce_masked(&a_f, &a_bit, true), expected);
            assert_eq!(a_f.mxm_reduce_masked(&a_bit, &a_bit, true), expected);
        }
    }

    /// A bit matrix without tiles reads its triangle operand's row words,
    /// packed on the first count and kept, on a skewed graph (R-MAT, hubs
    /// first) and on one without hubs (Erdős–Rényi) alike; the float
    /// baseline packs none.  Every count equals both bare kernels'.
    #[test]
    fn the_masked_count_reads_words_on_bit_matrices_only() {
        use bitgblas_datagen::generators;

        let rmat = generators::rmat(12, 16, 0.57, 0.19, 0.19, 5).symmetrized();
        let er = generators::erdos_renyi(4096, 8.0 / 4096.0, true, 3);
        for adj in [&rmat, &er] {
            for kind in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
                let m = Matrix::from_csr(adj, kind);
                let l = m.triangle_operand();
                assert!(l.b2sr().is_none(), "{kind:?}");
                assert!(l.base().words.get().is_none(), "packed before a count");
                let count = Op::mxm_reduce(&l, &l, &l).transpose_b().run(m.context());
                let words = RowWords::from_csr(l.csr());
                let index = float_ops::spgemm_masked_count(l.csr(), l.csr(), l.csr()).unwrap();
                assert_eq!(csr_words_masked_count(l.csr(), &words, l.csr()), index);
                assert_eq!(count, index as f64, "{kind:?}");
                let cached = l.base().words.get().map(RowWords::n_words);
                match kind {
                    Backend::FloatCsr => assert_eq!(cached, None, "the baseline packs no words"),
                    _ => assert_eq!(cached, Some(words.n_words()), "{kind:?}"),
                }
            }
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
        assert_eq!(bit, tile_kernel_triangles(&l_csr));
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
        for backend in [bit_b2sr(&csr, TileSize::S4), float_csr(&csr)] {
            let t = backend.transpose_view();
            assert_eq!(t.nrows(), 4);
            assert_eq!(t.ncols(), 6);
            assert_eq!(t.kind(), backend.kind());
            assert_eq!(t.csr(), &csr.transpose());
            assert_eq!(t.csr_t(), &csr);
        }
    }

    /// A matrix clone shares the built backend — kind, contents and lazy
    /// views alike — under a context and a mutation history of its own.
    /// The one `BitB2sr` a version cell holds is what its handles read: the
    /// matrix, a snapshot with an empty log, a clone of either and the base
    /// under a pending overlay hold it (so storage is never copied); a
    /// compaction's new base is another.
    #[test]
    fn matrix_clone_shares_the_backend_and_keeps_kind_and_contents() {
        let csr = sample(30, 11);
        for kind in [Backend::Bit(TileSize::S32), Backend::FloatCsr] {
            let a = Matrix::from_csr(&csr, kind);
            let c = a.clone();
            assert_eq!(c.resolved_backend(), kind);
            assert_eq!((c.nnz(), c.csr()), (a.nnz(), a.csr()));
            assert!(std::ptr::eq(a.csr_t(), c.csr_t()), "one backend");
            assert_eq!(c.b2sr().is_some(), kind != Backend::FloatCsr);
            c.insert_edge(0, 1).unwrap();
            assert_eq!((a.delta_len(), c.delta_len()), (0, 1));

            let idle = a.snapshot();
            let pending = c.snapshot();
            assert!(idle.overlay().is_none() && pending.overlay().is_some());
            let idle_clone = idle.matrix().clone();
            for shared in [&c, idle.matrix(), &*idle.clone(), &idle_clone] {
                assert!(Arc::ptr_eq(a.base(), shared.base()), "{kind:?}");
            }
            assert!(Arc::ptr_eq(a.base(), pending.base()), "under the overlay");
            assert!(std::ptr::eq(a.csr(), pending.base().csr()));

            c.compact(c.context()).unwrap();
            let compacted = c.snapshot();
            assert!(compacted.overlay().is_none());
            assert!(!Arc::ptr_eq(a.base(), compacted.base()), "a new base");
            assert_eq!(compacted.csr(), pending.csr());
            // The pinned pending view still reads the old base.
            assert!(Arc::ptr_eq(a.base(), pending.base()));
        }
    }

    /// A symmetric matrix is its own transpose: a tiled `Bit(S8)` mesh and a
    /// `FloatCsr` R-MAT return their own CSR (and tiles) as `Aᵀ`'s, run a
    /// transposed product on those arrays, and a `transpose()` shares the
    /// built backend.  An asymmetric matrix builds a separate `Aᵀ`, and its
    /// `transpose()` a backend of its own.
    #[test]
    fn a_symmetric_matrix_shares_its_own_transpose() {
        use bitgblas_datagen::generators;

        let mesh = generators::banded(512, 16, 0.7, 5);
        let rmat = generators::rmat(10, 8, 0.57, 0.19, 0.19, 5).symmetrized();
        let directed = sample(300, 9);
        for (adj, kind, tiled) in [
            (&mesh, Backend::Bit(TileSize::S8), true),
            (&rmat, Backend::FloatCsr, false),
        ] {
            let m = Matrix::from_csr(adj, kind);
            assert!(m.is_symmetric(), "{kind:?}");
            assert!(std::ptr::eq(m.csr_t(), m.csr()), "{kind:?}");
            assert_eq!(m.b2sr().is_some(), tiled);
            if let (Some(b), Some(bt)) = (m.b2sr(), m.b2sr_t()) {
                assert!(std::ptr::eq(b, bt), "one tile set");
            }
            assert!(Arc::ptr_eq(m.base(), m.transpose().base()), "{kind:?}");
            let view = m.base().transpose_view();
            assert_eq!((view.csr(), view.b2sr()), (m.csr(), m.b2sr()));
            assert!(
                std::ptr::eq(view.csr_t(), view.csr()),
                "a copy, known symmetric"
            );
            let x: Vec<f32> = (0..m.nrows()).map(|i| (i % 5) as f32).collect();
            let y = Vector::from_vec(x);
            let [fwd, back] = [false, true].map(|t| {
                let op = Op::mxv(&m, &y).semiring(Semiring::MinPlus(0.0));
                let op = if t { op.transpose() } else { op };
                op.run(m.context()).as_slice().to_vec()
            });
            assert_eq!(fwd, back, "{kind:?}");
            assert!(m.base().csr_t.get().is_none(), "no second CSR");
        }
        for kind in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&directed, kind);
            assert!(!m.is_symmetric());
            assert_eq!(m.csr_t(), &m.csr().transpose());
            assert!(!std::ptr::eq(m.csr_t(), m.csr()), "a separate array");
            let t = m.transpose();
            assert!(!Arc::ptr_eq(m.base(), t.base()));
            assert_eq!(t.csr(), m.csr_t());
        }
    }

    /// A compaction carries the symmetry answer its overlay has decided to
    /// the base it folds, and starts no check of its own: a mirrored log
    /// folds to a base known symmetric, a one-way delete to one known
    /// asymmetric — each answer `csr().is_symmetric()`'s — and an overlay
    /// nobody asked leaves the new base undecided.
    #[test]
    fn a_compaction_carries_a_decided_symmetry_answer() {
        use crate::delta::EdgeDelta;
        use bitgblas_datagen::generators;

        let rmat = generators::rmat(10, 8, 0.57, 0.19, 0.19, 5).symmetrized();
        let (r, c, _) = rmat.iter().find(|&(r, c, _)| r != c).expect("an edge");
        let mirrored = [EdgeDelta::delete(r, c), EdgeDelta::delete(c, r)];
        let one_way = [EdgeDelta::delete(r, c)];
        for kind in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            for (log, symmetric) in [(&mirrored[..], true), (&one_way[..], false)] {
                let what = format!("{kind:?} symmetric {symmetric}");
                let m = Matrix::from_csr(&rmat, kind);
                m.apply_deltas(log).unwrap();
                assert_eq!(m.snapshot().is_symmetric(), symmetric, "{what}");
                m.compact(m.context()).unwrap();
                let folded = m.snapshot();
                assert_eq!(folded.base().symmetric.get(), Some(&symmetric), "{what}");
                assert_eq!(folded.csr().is_symmetric(), symmetric, "{what}");

                m.apply_deltas(&[EdgeDelta::insert(r, c)]).unwrap();
                m.compact(m.context()).unwrap();
                assert_eq!(m.snapshot().base().symmetric.get(), None, "{what}");
            }
        }
    }

    /// The node-word push's tile scatter ([`tile_bits_push`], under
    /// [`BitB2sr::bits_product`]) ORs the same node words as the CSR
    /// node-word push of a matrix without tiles, `==` on words, and bit for
    /// bit the tile-word scatter ([`bmv_push_bin_bin`]), at every width: on
    /// a rectangular matrix whose 283 columns are a multiple
    /// of neither 64 nor the tile width (the last tile is ragged), from an
    /// empty, a one-node, a spread, a last-tile-row-only and a fat frontier,
    /// bare and with an `excluded` set.  B2SR-4 keeps its tile words in the
    /// low half of a `u8`: no spare high bit is ever set, so none can be
    /// shifted into the next tile's columns.
    #[test]
    fn tile_node_word_push_equals_the_csr_push() {
        use crate::grb::NodeBits;

        let a = sample_coo(300, 283, 1200, 53).to_binary_csr();
        let n = a.nrows();
        let excluded: Vec<u64> = (0..a.ncols().div_ceil(64))
            .map(|w| 0x9249_2492_4924_9249u64.rotate_left(w as u32))
            .collect();
        let fat: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let frontiers = [vec![], vec![7], vec![0, 150, 299], vec![289, 293, 299], fat];
        fn check<W: BitWord>(a: &Csr, ts: TileSize, frontiers: &[Vec<usize>], excluded: &[u64]) {
            let (ncols, dim) = (a.ncols(), ts.dim());
            let b = from_csr::<W>(a, dim);
            assert!(
                !ncols.is_multiple_of(dim),
                "precondition: a ragged last tile"
            );
            let spare = (0..b.n_tiles()).flat_map(|idx| b.tile_words(idx));
            assert!(spare.clone().all(|w| w.to_u64() >> dim == 0), "dim {dim}");
            let (tiled, ws) = (twin(a, ts, true), Workspace::new());
            for frontier in frontiers {
                let what = format!("dim {dim}, {} frontier nodes", frontier.len());
                let mut node_words = vec![0u64; ncols.div_ceil(64)];
                let edges = csr_bits_push(a, frontier, &mut node_words);
                assert_eq!(
                    edges,
                    frontier.iter().map(|&u| a.row(u).0.len()).sum(),
                    "{what}"
                );
                let mut direct = vec![0u64; ncols.div_ceil(64)];
                let ored = tile_bits_push(&b, frontier, &mut direct);
                assert_eq!(direct, node_words, "{what}: tile_bits_push");
                let mut rows: Vec<usize> = frontier.iter().map(|&u| u / dim).collect();
                rows.dedup();
                let tiles: usize = rows.iter().map(|&tr| b.tile_row_range(tr).len()).sum();
                assert_eq!(
                    ored, tiles,
                    "{what}: one OR per tile of the frontier's tile-rows"
                );

                let mut tile_words = vec![W::ZERO; b.n_tile_cols()];
                bmv_push_bin_bin(&b, frontier, &mut tile_words);
                assert!(
                    same_bits(&tile_words, dim, &node_words, ncols),
                    "{what}: the tile-word scatter"
                );

                let xw = NodeBits::from_indices(a.nrows(), frontier);
                let mut yw = vec![u64::MAX; 3];
                let before = ws.stats().snapshot().push_words;
                tiled.bits_product(xw.as_words(), Some(frontier), None, true, &ws, &mut yw);
                let words = ws.stats().snapshot().push_words - before;
                assert_eq!(yw, node_words, "{what}: bits_product");
                assert_eq!(
                    words as usize,
                    node_words.len() + ored,
                    "{what}: words written"
                );
                let sup = Some(excluded);
                tiled.bits_product(xw.as_words(), Some(frontier), sup, true, &ws, &mut yw);
                let want: Vec<u64> = node_words
                    .iter()
                    .zip(excluded)
                    .map(|(y, e)| y & !e)
                    .collect();
                assert_eq!(yw, want, "{what}: bits_product AND-NOT excluded");
            }
        }
        check::<u8>(&a, TileSize::S4, &frontiers, &excluded);
        check::<u8>(&a, TileSize::S8, &frontiers, &excluded);
        check::<u16>(&a, TileSize::S16, &frontiers, &excluded);
        check::<u32>(&a, TileSize::S32, &frontiers, &excluded);
    }

    /// Tile words of `dim` bits hold exactly the first `n` bits of
    /// `node_words` (bit `i % dim` of word `i / dim` against bit `i % 64` of
    /// word `i / 64`), and no bit past `dim` in any tile word.
    fn same_bits<W: BitWord>(tile_words: &[W], dim: usize, node_words: &[u64], n: usize) -> bool {
        tile_words.iter().all(|w| w.to_u64() >> dim == 0)
            && (0..n).all(|i| {
                tile_words[i / dim].bit((i % dim) as u32)
                    == (node_words[i / 64] >> (i % 64) & 1 == 1)
            })
    }

    /// The node-word pull's tile sweep ([`tile_bits_pull`], under
    /// [`BitB2sr::bits_product`]) stores the same node words as the CSR
    /// node-word pull of a matrix without tiles ([`csr_bits_pull`]), `==` on
    /// words, and bit for bit the tile-word sweep
    /// ([`bmv_bin_bin_bin_masked_into`]), at every width: on the push
    /// twin's ragged 300 × 283 matrix, from an empty, a one-node, a spread,
    /// a last-tile-column-only and a fat operand, and one holding every
    /// other 4-column tile, each bare and with suppressed rows that also
    /// alternate by four.  At B2SR-4 every tile's neighbouring columns (and
    /// rows) are then set where its own are not: a field read that kept the
    /// next tile's bits would see them.
    #[test]
    fn tile_node_word_pull_equals_the_csr_pull() {
        use crate::grb::NodeBits;
        use crate::kernels::{bmv_bin_bin_bin_masked_into, pack_vector_bits};

        let a = sample_coo(300, 283, 1200, 53).to_binary_csr();
        let (nrows, ncols) = (a.nrows(), a.ncols());
        let fat: Vec<usize> = (0..ncols).filter(|c| c % 3 != 1).collect();
        let checker: Vec<usize> = (0..ncols).filter(|c| c / 4 % 2 == 1).collect();
        let operands = [
            vec![],
            vec![7],
            vec![0, 150, 282],
            vec![281, 282],
            fat,
            checker,
        ];
        let sup: Vec<bool> = (0..nrows).map(|r| r / 4 % 2 == 1 || r % 5 == 0).collect();
        fn check<W: BitWord>(a: &Csr, ts: TileSize, operands: &[Vec<usize>], sup: &[bool]) {
            let (nrows, ncols, dim) = (a.nrows(), a.ncols(), ts.dim());
            let b = from_csr::<W>(a, dim);
            let (tiled, ws) = (twin(a, ts, true), Workspace::new());
            let sup_words = NodeBits::from_indices(nrows, &ones(sup));
            let sup_tiles = pack_vector_bits::<W>(sup, dim);
            let mut reached = 0;
            for operand in operands {
                let xw = NodeBits::from_indices(ncols, operand);
                let x: Vec<bool> = (0..ncols).map(|c| xw.get(c)).collect();
                let xp = pack_vector_bits::<W>(&x, dim);
                for masked in [false, true] {
                    let what = format!(
                        "dim {dim}, {} operand nodes, masked {masked}",
                        operand.len()
                    );
                    let sup_w = masked.then_some(sup_words.as_words());
                    let mut node_words = vec![u64::MAX; nrows.div_ceil(64)];
                    csr_bits_pull(a, xw.as_words(), sup_w, &mut node_words);
                    reached += node_words.iter().map(|w| w.count_ones()).sum::<u32>();

                    let mut direct = vec![u64::MAX; nrows.div_ceil(64)];
                    tile_bits_pull(&b, xw.as_words(), sup_w, &mut direct);
                    assert_eq!(direct, node_words, "{what}: tile_bits_pull");

                    let mut tile_words = vec![W::ONES; b.n_tile_rows()];
                    let mp = masked.then_some(&sup_tiles[..]);
                    bmv_bin_bin_bin_masked_into(&b, &xp, mp, &mut tile_words);
                    assert!(
                        same_bits(&tile_words, dim, &node_words, nrows),
                        "{what}: the tile-word sweep"
                    );

                    let mut yw = vec![u64::MAX; 3];
                    tiled.bits_product(xw.as_words(), None, sup_w, false, &ws, &mut yw);
                    assert_eq!(yw, node_words, "{what}: bits_product");
                }
            }
            assert!(reached > 0, "dim {dim}: some pull reaches a row");
        }
        fn ones(flags: &[bool]) -> Vec<usize> {
            (0..flags.len()).filter(|&i| flags[i]).collect()
        }
        check::<u8>(&a, TileSize::S4, &operands, &sup);
        check::<u8>(&a, TileSize::S8, &operands, &sup);
        check::<u16>(&a, TileSize::S16, &operands, &sup);
        check::<u32>(&a, TileSize::S32, &operands, &sup);
    }

    /// A node-word push writes what its frontier touches
    /// ([`ExecCounts::push_words`](crate::grb::ExecCounts)): every round of
    /// a forced-push BFS from one vertex — `next = frontier · A & !visited`,
    /// the product `bfs` runs — on `banded(512, 16)` and `grid2d(32, 32)` at
    /// every width writes at most the output's node words plus one word per
    /// tile of the frontier's tile-rows on the tiled twin, or per frontier
    /// edge on the twin without tiles, and the two twins reach alike.  A
    /// push that re-laid its output out through a zeroed tile-word buffer
    /// would write `ncols / dim` words more every round.
    #[test]
    fn a_node_word_push_writes_what_its_frontier_touches() {
        use crate::grb::NodeBits;
        use bitgblas_datagen::generators;

        for csr in [banded(512, 16), generators::grid2d(32, 32)] {
            let n = csr.nrows();
            let source = n / 3;
            for ts in TileSize::ALL {
                let tiles = B2srMatrix::from_csr(&csr, ts);
                let tiles_touched = |frontier: &[usize]| -> usize {
                    with_b2sr!(&tiles, |m| {
                        let mut rows: Vec<usize> =
                            frontier.iter().map(|&u| u / m.tile_dim()).collect();
                        rows.dedup();
                        rows.iter().map(|&tr| m.tile_row_range(tr).len()).sum()
                    })
                };
                let edges_touched = |frontier: &[usize]| -> usize {
                    frontier.iter().map(|&u| csr.row(u).0.len()).sum()
                };
                let twins = [true, false].map(|tiled| (tiled, twin(&csr, ts, tiled)));
                let ws = Workspace::new();
                let mut visited = NodeBits::from_indices(n, &[source]);
                let mut frontier = vec![source];
                let mut rounds = 0;
                while !frontier.is_empty() {
                    let xw = NodeBits::from_indices(n, &frontier);
                    let mut reached = Vec::new();
                    for (tiled, b) in &twins {
                        let what = format!("{ts:?} tiled={tiled} n={n} round {rounds}");
                        assert_eq!(b.b2sr().is_some(), *tiled, "{what}");
                        let before = ws.stats().snapshot().push_words;
                        let mut yw = Vec::new();
                        let (front, sup) = (Some(&frontier[..]), Some(visited.as_words()));
                        b.bits_product(xw.as_words(), front, sup, true, &ws, &mut yw);
                        let words = (ws.stats().snapshot().push_words - before) as usize;
                        let touched = if *tiled {
                            tiles_touched(&frontier)
                        } else {
                            edges_touched(&frontier)
                        };
                        assert!(words >= n.div_ceil(64), "{what}: {words} words counted");
                        assert!(
                            words <= n.div_ceil(64) + touched,
                            "{what}: {words} words written for {touched} touched"
                        );
                        reached.push(yw);
                    }
                    assert_eq!(reached[0], reached[1], "{ts:?} round {rounds}");
                    let next = NodeBits::from_words(reached.swap_remove(0), n);
                    visited.or_assign(&next);
                    frontier = next.ones().collect();
                    rounds += 1;
                }
                assert_eq!(visited.count_ones(), n, "{ts:?}: the graph is connected");
                assert!(rounds > 8, "{ts:?}: {rounds} rounds");
            }
        }
    }
}
