//! Traversal direction: push (sparse-frontier scatter) vs pull (dense sweep).
//!
//! A BFS/SSSP iteration with a handful of active vertices does not need to
//! sweep every tile-row of the matrix — the classic SpMV-vs-SpMSpV
//! (pull-vs-push) split of direction-optimizing traversal (Beamer et al.).
//! The GrB layer exposes the choice as a [`Direction`] descriptor switch:
//!
//! * [`Direction::Pull`] — the dense sweep: every output row reduces over
//!   its incoming edges.  One pass over the whole matrix, perfectly
//!   streaming, parallel; cost is independent of the frontier size.
//! * [`Direction::Push`] — the sparse scatter: only the frontier's rows are
//!   walked and their out-edges scattered into the output.  Cost is
//!   proportional to the frontier's edge count, but the writes are random.
//! * [`Direction::Auto`] — decide per operation from what the frontier
//!   costs to scatter, by one of the two rules below.
//!
//! # Two families, two rules
//!
//! Pull streams the whole matrix plus the operand once:
//! `pull ∝ nnz + n` per lane.  What a push costs depends on the product:
//!
//! * **Full precision** (every push-safe semiring but `Boolean`: SSSP's
//!   `MinPlus`, PageRank's and PPR's `Arithmetic`) — the scatter
//!   (`kernels::csr_push_full`) folds one `f32` per (out-edge, active lane)
//!   of each frontier node, and the scan counts exactly that,
//!   `m_f = Σ_{u ∈ frontier} deg(u) · active_lanes(u)`, from the row
//!   pointer the scatter walks.  The sweep folds all `k` lanes of every
//!   edge.  Push wins while
//!
//!   ```text
//!   m_f · W · P  <  (nnz + n) · k        (W = FULL_PRECISION_EDGE_WEIGHT = 2)
//!   ```
//!
//!   On a CPU a scattered `f32` fold costs about what a streamed one does
//!   (the crossings are on [`FULL_PRECISION_EDGE_WEIGHT`]), so `W` is small
//!   and a frontier is priced by the edges it actually has: a hub pulls, a
//!   rim of leaves pushes.
//! * **Boolean** (`bfs`, `bfs_multi`, the Boolean `f32` products) — priced
//!   by frontier nodes at the average degree, against a transaction penalty:
//!
//!   ```text
//!   nodes · d̄ · α · P  <  nnz + n        (α = SCATTER_EDGE_WEIGHT = 16)
//!   ```
//!
//!   The Boolean pull exits a row at its first frontier in-neighbour
//!   (bottom-up), so `nnz + n` overprices it, and the lane-word scatter ORs
//!   one word per edge whatever lanes are set, so the lane factor cancels.
//!   Pricing BFS by its exact edges loses at either weight (see
//!   [`SCATTER_EDGE_WEIGHT`]); the node rule stays.
//!
//! `P` is the pull's parallelism: every push runs serially while the pull
//! sweep fans out over the host's cores.  Both weights are `const`s —
//! nothing is timed at run time, so two contexts on one input plan alike.

use crate::semiring::Semiring;

use super::expr::shape::{FrontierSize, Shape};

/// Which traversal direction an `mxv`/`vxm` executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Sparse-frontier scatter (SpMSpV): walk only the active rows.
    Push,
    /// Dense sweep (SpMV): reduce every output row over its edges.
    Pull,
    /// Pick per operation from the frontier's scatter cost (the default).
    #[default]
    Auto,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Direction::Push => "push",
            Direction::Pull => "pull",
            Direction::Auto => "auto",
        })
    }
}

/// The price of one Boolean frontier node's average out-edge against one
/// streamed pull element, at equal parallelism: the penalty α of the
/// Boolean rule (`nodes · d̄ · α · P < nnz + n`).  Sixteen is a random write
/// wasting a 128-byte memory transaction where a streamed edge pays ~8
/// coalesced bytes, and the textbook Beamer α ≈ 14.
///
/// Boolean products keep node pricing because their pull is bottom-up: it
/// leaves a row at its first frontier in-neighbour, so it costs far less
/// than `nnz + n` once the frontier is wide.  Pricing BFS by its exact
/// frontier edges instead was measured to lose (R-MAT(14,16), 8 sources,
/// one core): node pricing at 16 ran 1.44 ms against a per-level oracle's
/// 1.35 ms, edge pricing at 16 ran 1.49 ms, and edge pricing at the
/// full-precision weight ran 3.64 ms.
pub const SCATTER_EDGE_WEIGHT: usize = 16;

/// The price of one scattered full-precision fold — one (out-edge, active
/// lane) of a frontier node — against one streamed pull element, at equal
/// parallelism: `W` in `m_f · W · P < (nnz + n) · k`.
///
/// Measured on one pinned core of a 2-vCPU Xeon VM, per round of `sssp` on
/// the symmetrized R-MAT(14,16) (`nnz + n` = 442 k): a frontier of 286 k
/// edges pushed in 0.51 ms against a 0.77 ms pull, one of 368 k edges in
/// 0.82 ms against 0.74 ms — a crossing near `W` = 1.2–1.5 — and a fully
/// dense `Arithmetic` push costs 1.4–2× its pull.  At 2 the rule matched a
/// per-level oracle (every round timed both ways) within 1 % on batched
/// SSSP (4 to 64 lanes) and on PPR, and read 0.69–0.83× of node pricing's
/// time on vector and one-lane SSSP; 1.5 was about 3 % better on vector
/// SSSP alone.  One constant serves every full-precision product, and at 2
/// an operand active on every node of a graph with `d̄ ≥ 1` always pulls.
pub const FULL_PRECISION_EDGE_WEIGHT: usize = 2;

/// The most pull workers either rule credits the sweep with, so a
/// pathological thread count cannot price every push out.
const MAX_PULL_PARALLELISM: usize = 16;

/// The parallelism `P` of a pull sweep that fans out to `pull_threads`
/// workers, clamped to `1..=MAX_PULL_PARALLELISM`.
fn pull_parallelism(pull_threads: usize) -> f64 {
    pull_threads.clamp(1, MAX_PULL_PARALLELISM) as f64
}

/// Resolve [`Direction::Auto`] for one product of an `(n, k)` operand
/// (`n` nodes, `k` lanes) with an `nnz`-edge matrix whose pull sweep fans
/// out to `pull_threads` workers, given the frontier the operand scan
/// counted: `nodes` holding a non-identity lane, and `edges`, the
/// (out-edge, active lane) pairs their scatter folds.
///
/// Returns [`Direction::Pull`] for semirings where identity-valued entries
/// still contribute (see [`Semiring::push_safe`]).  Otherwise one of two
/// rules decides, by what the push costs (see the module docs):
///
/// ```text
/// full precision:  edges · FULL_PRECISION_EDGE_WEIGHT · P  <  (nnz + n) · k
/// Boolean:         nodes · d̄ · SCATTER_EDGE_WEIGHT · P     <   nnz + n
/// ```
///
/// with `P = pull_threads` clamped to 1..=16.  The full-precision rule
/// prices the scatter's exact work: sixty-four SSSP lanes that each changed
/// 32 vertices push even when the union of those vertices is the whole
/// graph, a handful of leaves push where a hub of the same node count
/// pulls, and an operand active on every lane of every node (a dense PPR
/// batch) pulls on any graph with at least as many edges as nodes.  The Boolean rule ignores `edges`: its pull is
/// bottom-up and its lane-word scatter ORs one word per edge whatever lanes
/// are set, so it prices nodes at the average degree, as it always has.
/// At `k = 1` the two shapes coincide, so a one-lane batch decides exactly
/// as the vector does.
pub fn choose_direction(
    nodes: usize,
    edges: usize,
    shape: (usize, usize),
    nnz: usize,
    semiring: Semiring,
    pull_threads: usize,
) -> Direction {
    if !semiring.push_safe() {
        return Direction::Pull;
    }
    let (unit, pull) = prices(semiring, shape, nnz, pull_threads);
    let priced = if semiring == Semiring::Boolean {
        nodes
    } else {
        edges
    };
    if (priced as f64) * unit < pull {
        Direction::Push
    } else {
        Direction::Pull
    }
}

/// The two sides of [`choose_direction`]'s rule for `semiring`: the price
/// of one priced unit — a Boolean frontier node, `d̄ · α · P`, or a
/// full-precision fold, `W · P` — and the pull's, `nnz + n` per lane the
/// rule counts (one for Boolean, whose lane factor cancels).
fn prices(
    semiring: Semiring,
    (n, k): (usize, usize),
    nnz: usize,
    pull_threads: usize,
) -> (f64, f64) {
    let parallelism = pull_parallelism(pull_threads);
    let sweep = nnz as f64 + n as f64;
    if semiring == Semiring::Boolean {
        let avg_deg = (nnz as f64 / n.max(1) as f64).max(1.0);
        (avg_deg * (SCATTER_EDGE_WEIGHT as f64 * parallelism), sweep)
    } else {
        (
            FULL_PRECISION_EDGE_WEIGHT as f64 * parallelism,
            sweep * k as f64,
        )
    }
}

impl FrontierSize {
    /// No limit: a forced push collects the whole frontier.
    pub const UNBOUNDED: Self = FrontierSize {
        nodes: usize::MAX,
        entries: usize::MAX,
        edges: usize::MAX,
    };
}

/// Where an operand scan may give up: past these counts
/// [`choose_direction`] answers pull with the same remaining arguments.
/// The Boolean rule bounds the nodes, the full-precision one the edges;
/// each bound is the rule's break-even rounded up, with one unit of slack
/// for the float division — the decision itself is always
/// [`choose_direction`] on what the scan returns.
fn scan_limits(
    shape: (usize, usize),
    semiring: Semiring,
    nnz: usize,
    pull_threads: usize,
) -> FrontierSize {
    let (unit, pull) = prices(semiring, shape, nnz, pull_threads);
    let budget = (pull / unit).ceil() as usize + 1;
    if semiring == Semiring::Boolean {
        FrontierSize {
            nodes: budget,
            ..FrontierSize::UNBOUNDED
        }
    } else {
        FrontierSize {
            edges: budget,
            ..FrontierSize::UNBOUNDED
        }
    }
}

/// Resolve [`Direction::Auto`] for the operand `x` of a product with an
/// `nnz`-edge matrix, in **one scan**: the scan fills `frontier` (a pooled
/// buffer, cleared first) and counts the frontier's nodes, entries and —
/// reading `rows`, the row pointer of the representation the scatter walks,
/// for active nodes only — edges; once the priced count is past any push it
/// stops, so a dense operand (a PageRank vector) costs a bounded prefix
/// rather than a count and then a collect.  On [`Direction::Push`]
/// `frontier` is the complete push frontier and the returned size is exact;
/// on [`Direction::Pull`] both are partial.  The caller has already ruled
/// out a semiring that is not push-safe.
pub(crate) fn scan_and_choose<V: Shape>(
    x: &V,
    semiring: Semiring,
    rows: &[usize],
    nnz: usize,
    pull_threads: usize,
    frontier: &mut Vec<usize>,
) -> (Direction, FrontierSize) {
    let shape = x.shape();
    let stop_past = scan_limits(shape, semiring, nnz, pull_threads);
    let size = x.frontier_into(semiring, rows, stop_past, frontier);
    let direction = choose_direction(size.nodes, size.edges, shape, nnz, semiring, pull_threads);
    (direction, size)
}

/// [`scan_and_choose`] for a Boolean operand already held in words
/// (`LaneBits`, `NodeBits`) of `shape = (nodes, lanes)`: the same budget, the
/// same rule, over the nodes holding a set bit — so a round of `bfs` /
/// `bfs_multi` resolves as it does through `f32`.  `scan(stop_past_nodes)`
/// is the operand's frontier scan.
pub(crate) fn scan_and_choose_words(
    shape: (usize, usize),
    nnz: usize,
    pull_threads: usize,
    scan: impl FnOnce(usize) -> FrontierSize,
) -> (Direction, FrontierSize) {
    let boolean = Semiring::Boolean;
    let size = scan(scan_limits(shape, boolean, nnz, pull_threads).nodes);
    let direction = choose_direction(size.nodes, size.edges, shape, nnz, boolean, pull_threads);
    (direction, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `choose_direction` for a Boolean product of `n` nodes.
    fn boolean(nodes: usize, n: usize, nnz: usize, pull_threads: usize) -> Direction {
        choose_direction(nodes, 0, (n, 1), nnz, Semiring::Boolean, pull_threads)
    }

    /// `choose_direction` for a full-precision product of `(n, k)`.
    fn full(edges: usize, (n, k): (usize, usize), nnz: usize, pull_threads: usize) -> Direction {
        let min_plus = Semiring::MinPlus(1.0);
        choose_direction(0, edges, (n, k), nnz, min_plus, pull_threads)
    }

    #[test]
    fn default_is_auto_and_display_is_lowercase() {
        assert_eq!(Direction::default(), Direction::Auto);
        assert_eq!(Direction::Push.to_string(), "push");
        assert_eq!(Direction::Pull.to_string(), "pull");
        assert_eq!(Direction::Auto.to_string(), "auto");
    }

    /// [`SCATTER_EDGE_WEIGHT`]'s crossing: for `nnz ≫ n` on one core a
    /// Boolean frontier pushes below `n / 16` nodes and pulls above —
    /// Beamer's textbook `f < n / α`, α ≈ 14–16.
    #[test]
    fn boolean_weight_crosses_at_beamers_alpha() {
        let (n, nnz) = (1usize << 14, (1usize << 14) * 256);
        let crossing = n / SCATTER_EDGE_WEIGHT;
        assert_eq!(crossing, 1024);
        // (nnz + n) / (d̄ · 16) = 257 n / (256 · 16): just over n / 16.
        assert_eq!(boolean(crossing, n, nnz, 1), Direction::Push);
        assert_eq!(boolean(crossing + 5, n, nnz, 1), Direction::Pull);
    }

    /// [`FULL_PRECISION_EDGE_WEIGHT`]'s crossing on the R-MAT round it was
    /// measured on (`nnz + n` = 442 k, one core): the break-even is half the
    /// sweep, so both measured frontiers — 286 k edges, which pushed faster,
    /// and 368 k, which pulled faster — pull; and every operand active on
    /// all lanes of every node pulls on a graph with `d̄ ≥ 1`, where a dense
    /// push costs 1.4–2× its pull.
    #[test]
    fn full_precision_weight_crosses_at_half_the_sweep() {
        let (n, nnz) = (16_384usize, 425_600usize);
        assert_eq!(nnz + n, 441_984);
        let even = (nnz + n) / FULL_PRECISION_EDGE_WEIGHT;
        assert_eq!(full(even - 1, (n, 1), nnz, 1), Direction::Push);
        assert_eq!(full(even, (n, 1), nnz, 1), Direction::Pull);
        assert_eq!(full(286_000, (n, 1), nnz, 1), Direction::Pull);
        assert_eq!(full(368_000, (n, 1), nnz, 1), Direction::Pull);
        for (n, nnz) in [(300usize, 300), (2048, 92_000), (n, nnz)] {
            for k in [1usize, 3, 64] {
                assert_eq!(
                    full(nnz * k, (n, k), nnz, 1),
                    Direction::Pull,
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn sparse_frontiers_push_and_dense_frontiers_pull() {
        let (n, nnz) = (8192, 8192 * 16);
        let choose = |f| boolean(f, n, nnz, 1);
        assert_eq!(choose(1), Direction::Push);
        assert_eq!(choose(0), Direction::Push);
        assert_eq!(choose(n), Direction::Pull);
        // The crossover sits near n / penalty for nnz >> n.
        let threshold = (nnz + n) / (16 * 16);
        assert_eq!(choose(threshold / 2), Direction::Push);
        assert_eq!(choose(threshold * 2), Direction::Pull);
        // A full-precision frontier with no edges costs the scatter nothing.
        assert_eq!(full(0, (n, 1), nnz, 1), Direction::Push);
        assert_eq!(full(nnz, (n, 1), nnz, 1), Direction::Pull);
    }

    #[test]
    fn serial_push_on_a_parallel_host_is_penalized() {
        // One pull worker: the bare weights.
        assert_eq!(pull_parallelism(1), 1.0);
        assert_eq!(pull_parallelism(0), 1.0);
        // An 8-wide pull sweep: both rules scale by its parallelism.
        assert_eq!(pull_parallelism(8), 8.0);
        // Clamped, so a pathological configuration cannot drive the penalty
        // to infinity.
        assert_eq!(pull_parallelism(64), 16.0);
        assert_eq!(pull_parallelism(1_000_000), 16.0);
    }

    #[test]
    fn configured_threshold_flips_earlier_for_serial_push() {
        let (n, nnz) = (8192, 8192 * 16);
        // A frontier that pushes against a one-wide pull sweep…
        let f = (nnz + n) / (16 * 16) / 2;
        assert_eq!(boolean(f, n, nnz, 1), Direction::Push);
        // …pulls against an 8-wide one (α × 8 prices it out).
        assert_eq!(boolean(f, n, nnz, 8), Direction::Pull);
        // Tiny frontiers still push.
        assert_eq!(boolean(1, n, nnz, 8), Direction::Push);
        assert_eq!(boolean(1, n, nnz, 64), Direction::Push);
        // The same for full-precision folds.
        let m_f = (nnz + n) / 4;
        assert_eq!(full(m_f, (n, 1), nnz, 1), Direction::Push);
        assert_eq!(full(m_f, (n, 1), nnz, 8), Direction::Pull);
        assert_eq!(full(16, (n, 1), nnz, 64), Direction::Push);
    }

    /// The break-even sits at `(nnz + n) / (d̄ · α·P)` frontier nodes for
    /// Boolean products and at `(nnz + n) · k / (W·P)` folds for
    /// full-precision ones, at every pull parallelism `P`.
    #[test]
    fn tuned_threshold_honors_a_measured_alpha() {
        let (n, nnz) = (8192usize, 8192 * 16);
        for (pull, p) in [(1, 1.0), (8, 8.0), (64, 16.0)] {
            let even = (nnz + n) as f64 / (16.0 * 16.0 * p);
            let choose = |f| boolean(f, n, nnz, pull);
            assert_eq!(
                choose(even.floor() as usize - 1),
                Direction::Push,
                "P={pull}"
            );
            assert_eq!(
                choose(even.ceil() as usize + 1),
                Direction::Pull,
                "P={pull}"
            );
            for k in [1usize, 64] {
                let even = ((nnz + n) * k) as f64 / (2.0 * p);
                let choose = |m_f| full(m_f, (n, k), nnz, pull);
                let what = format!("P={pull} k={k}");
                assert_eq!(choose(even.floor() as usize - 1), Direction::Push, "{what}");
                assert_eq!(choose(even.ceil() as usize + 1), Direction::Pull, "{what}");
            }
        }
    }

    #[test]
    fn push_unsafe_semirings_always_pull() {
        // MaxTimes with a non-positive factor cannot skip identity entries.
        let choose = |sr| choose_direction(1, 1, (1000, 1), 16_000, sr, 1);
        assert_eq!(choose(Semiring::MaxTimes(-2.0)), Direction::Pull);
        assert_eq!(choose(Semiring::MaxTimes(2.0)), Direction::Push);
    }
    // -- the one-scan Auto resolution ----------------------------------------

    use crate::grb::{MultiVec, Vector};

    /// `scan_and_choose` against a one-wide pull sweep, over a matrix whose
    /// scatter walks the rows of `rows`.
    fn auto<V: Shape>(x: &V, semiring: Semiring, rows: &[usize]) -> (Direction, FrontierSize) {
        let nnz = rows[rows.len() - 1];
        // A stale list: the scan replaces it.
        let mut list = vec![usize::MAX; 3];
        let (direction, size) = scan_and_choose(x, semiring, rows, nnz, 1, &mut list);
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "ascending, no stale entry"
        );
        assert_eq!(list.len(), size.nodes);
        (direction, size)
    }

    /// A row pointer of the given degrees.
    fn row_pointer(degrees: impl IntoIterator<Item = usize>) -> Vec<usize> {
        std::iter::once(0)
            .chain(degrees.into_iter().scan(0, |end, d| {
                *end += d;
                Some(*end)
            }))
            .collect()
    }

    #[test]
    fn full_precision_is_priced_by_edges_boolean_by_nodes() {
        // The repo benchmark's mesh: 2048 nodes, d̄ ≈ 45.
        let mesh = bitgblas_datagen::generators::banded(2048, 32, 0.7, 5);
        let rows = mesh.rowptr();
        let (n, k) = (2048usize, 64usize);
        let min_plus = Semiring::MinPlus(1.0);
        // Sixty-four SSSP lanes, each with its own 32-node changed set: the
        // union is every node, but a node carries one lane.
        let mut sparse = MultiVec::identity(n, k, min_plus);
        let mut sparse_bool = MultiVec::zeros(n, k);
        for i in 0..n {
            sparse.set(i, i / 32, 1.0);
            sparse_bool.set(i, i / 32, 1.0);
        }
        let (direction, size) = auto(&sparse, min_plus, rows);
        assert_eq!((size.nodes, size.entries, size.edges), (n, n, mesh.nnz()));
        assert_eq!(
            direction,
            Direction::Push,
            "nnz folds against 64 lanes' sweep"
        );
        // The same union with every lane active is a dense batch.
        let dense = MultiVec::filled(n, k, 1.0);
        assert_eq!(auto(&dense, min_plus, rows).0, Direction::Pull);
        assert_eq!(auto(&dense, Semiring::Arithmetic, rows).0, Direction::Pull);
        // The lane-word scatter ORs one word per edge whatever lanes are
        // set: Boolean decisions stay node-granular, and both operands cover
        // every node.
        assert_eq!(
            auto(&sparse_bool, Semiring::Boolean, rows).0,
            Direction::Pull
        );
        assert_eq!(auto(&dense, Semiring::Boolean, rows).0, Direction::Pull);
        // … and a handful of nodes push, however many lanes they carry.
        let mut few = MultiVec::zeros(n, k);
        for l in 0..k {
            few.set(7, l, 1.0);
            few.set(900, l, 1.0);
        }
        assert_eq!(auto(&few, Semiring::Boolean, rows).0, Direction::Push);
    }

    /// At one node count a hub's frontier pulls and a rim of leaves pushes
    /// under the full-precision rule, while the Boolean rule, pricing nodes
    /// at the average degree, answers the same for both.
    #[test]
    fn a_hub_pulls_where_leaves_of_the_same_count_push() {
        // Four hubs of degree 1000, 1996 leaves of degree 1: the hubs' 4000
        // folds cost past the sweep, the leaves' 4 nothing.
        let n = 2000usize;
        let rows = row_pointer((0..n).map(|i| if i < 4 { 1000 } else { 1 }));
        for semiring in [Semiring::MinPlus(1.0), Semiring::Arithmetic] {
            let mut hubs = Vector::identity(n, semiring);
            let mut leaves = Vector::identity(n, semiring);
            for i in 0..4 {
                hubs.set(i, 1.0);
                leaves.set(4 + i, 1.0);
            }
            let (d, size) = auto(&hubs, semiring, &rows);
            assert_eq!((d, size.nodes, size.edges), (Direction::Pull, 4, 4000));
            let (d, size) = auto(&leaves, semiring, &rows);
            assert_eq!((d, size.nodes, size.edges), (Direction::Push, 4, 4));
        }
        let mut hubs = Vector::zeros(n);
        let mut leaves = Vector::zeros(n);
        for i in 0..4 {
            hubs.set(i, 1.0);
            leaves.set(4 + i, 1.0);
        }
        let boolean = Semiring::Boolean;
        assert_eq!(
            auto(&hubs, boolean, &rows).0,
            auto(&leaves, boolean, &rows).0
        );
    }

    /// A one-lane batch decides as the vector does at every frontier size,
    /// over a uniform and over a degree-skewed row pointer, and both decide
    /// as [`choose_direction`] does on the full counts.
    #[test]
    fn one_lane_batch_decides_as_the_vector_for_every_count() {
        let n = 300usize;
        let uniform = row_pointer(std::iter::repeat_n(16, n));
        // Every 37th node a hub of degree 120, the rest 0 to 4.
        let skewed = row_pointer((0..n).map(|i| if i % 37 == 0 { 120 } else { i % 5 }));
        for rows in [&uniform, &skewed] {
            let nnz = rows[n];
            for semiring in [
                Semiring::Boolean,
                Semiring::Arithmetic,
                Semiring::MinPlus(1.0),
            ] {
                let mut v = Vector::identity(n, semiring);
                let mut edges = 0;
                for f in 0..=n {
                    if f > 0 {
                        // Spread the active entries over the whole range.
                        let i = ((f - 1) * 7) % n;
                        v.set(i, 1.0);
                        edges += rows[i + 1] - rows[i];
                    }
                    let mv = MultiVec::from_vec(v.as_slice().to_vec(), n, 1);
                    let (vector, _) = auto(&v, semiring, rows);
                    let (batch, _) = auto(&mv, semiring, rows);
                    // Stopping the scan early never changes the decision made
                    // on the full count.
                    let counted = choose_direction(f, edges, (n, 1), nnz, semiring, 1);
                    let what = format!("{semiring:?} f={f} nnz={nnz}");
                    assert_eq!((vector, batch), (counted, counted), "{what}");
                }
            }
        }
    }

    #[test]
    fn scan_budget_bounds_every_push() {
        for (n, nnz) in [
            (1usize, 0usize),
            (10, 3),
            (300, 4800),
            (8192, 8192 * 16),
            (2048, 92_000),
        ] {
            // Pull parallelism 1, 8 and past the clamp.
            for pull in [1, 8, 64] {
                let what = format!("n={n} nnz={nnz} pull threads={pull}");
                let stop = scan_limits((n, 1), Semiring::Boolean, nnz, pull);
                let budget = stop.nodes;
                assert_eq!((stop.entries, stop.edges), (usize::MAX, usize::MAX));
                let choose = |f| boolean(f, n, nnz, pull);
                assert_eq!(choose(budget + 1), Direction::Pull, "{what}");
                // One unit of slack, no more: the scan stops near the
                // break-even, not after the whole operand.
                if budget > 2 {
                    assert_eq!(choose(budget - 3), Direction::Push, "{what}");
                }
                for k in [1usize, 5, 64] {
                    let stop = scan_limits((n, k), Semiring::Arithmetic, nnz, pull);
                    let budget = stop.edges;
                    assert_eq!((stop.nodes, stop.entries), (usize::MAX, usize::MAX));
                    let choose = |m_f| full(m_f, (n, k), nnz, pull);
                    assert_eq!(choose(budget + 1), Direction::Pull, "{what} k={k}");
                    if budget > 2 {
                        assert_eq!(choose(budget - 3), Direction::Push, "{what} k={k}");
                    }
                }
            }
        }
    }
}
