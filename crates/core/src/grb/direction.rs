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
//! * [`Direction::Auto`] — decide per operation from the frontier density,
//!   using the same first-order memory-traffic reasoning as the
//!   [`Backend::Auto`](super::Backend) format selection.
//!
//! # The threshold
//!
//! Pull streams the whole matrix plus the operand vector once:
//! `pull_bytes ∝ nnz + n`.  Push touches `f · d̄` edges (`f` = frontier
//! size, `d̄` = average degree), but every scattered write lands on a random
//! cache line, so each push edge costs a whole memory transaction where a
//! pull edge costs its coalesced share — a penalty of
//! `transaction_bytes / edge_bytes`, the constant
//! [`SCATTER_EDGE_WEIGHT`].  Push wins while
//!
//! ```text
//! f · d̄ · penalty  <  nnz + n        (penalty = 128 / 8 = 16, the value
//!                                      on both Table-VI devices)
//! ```
//!
//! which for `nnz ≫ n` reduces to the familiar Beamer-style `f < n / α`
//! with `α ≈ penalty` — the textbook α ≈ 14 rediscovered from the traffic
//! model.

use crate::semiring::Semiring;
use crate::shard::SCATTER_EDGE_WEIGHT;

use super::expr::shape::{FrontierSize, Shape};

/// Which traversal direction an `mxv`/`vxm` executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// Sparse-frontier scatter (SpMSpV): walk only the active rows.
    Push,
    /// Dense sweep (SpMV): reduce every output row over its edges.
    Pull,
    /// Pick per operation from the frontier density (the default).
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

/// The parallelism-aware scatter penalty over a base penalty α.
///
/// The base penalty prices one scattered edge against one streamed pull
/// edge *at equal parallelism*.  When the push engine runs on fewer worker
/// threads than the pull sweep fans out to (`push_threads <
/// pull_threads`), every push edge is additionally slower by the thread
/// ratio; when both sides scale alike the ratio is 1 and α is the base
/// penalty.  [`choose_direction`] passes [`SCATTER_EDGE_WEIGHT`] as α.
pub fn scatter_penalty_parallel_alpha(alpha: f64, push_threads: usize, pull_threads: usize) -> f64 {
    let ratio = (pull_threads.max(1) as f64 / push_threads.max(1) as f64).max(1.0);
    (alpha * ratio).clamp(4.0, 256.0)
}

/// Resolve [`Direction::Auto`] for one operation: a frontier priced at
/// `frontier_nnz` (active nodes of a vector; per product kind below) of an
/// `n`-node operand against a matrix with `nnz` edges, at base scatter
/// penalty [`SCATTER_EDGE_WEIGHT`].
///
/// Returns [`Direction::Pull`] for semirings where identity-valued entries
/// still contribute (see [`Semiring::push_safe`]); otherwise compares the
/// modelled push traffic against the pull sweep:
///
/// ```text
/// f · d̄ · α(push_threads, pull_threads)  [+ n]   <   nnz + n
/// ```
///
/// `push_threads` is the sharded scatter's worker budget
/// ([`Context::threads`](super::Context::threads)), `pull_threads` the
/// parallelism of the dense sweep (the host's, since the pull kernels fan
/// out through the global rayon pool).  α becomes
/// [`scatter_penalty_parallel_alpha`], so a serial push on a parallel host
/// is priced α·P and flips to pull earlier; and when the sharded engine can
/// engage (`push_threads > 1`) the push side carries one extra streamed
/// output pass (`+ n`) for the deterministic fixed-order merge of the
/// privatized shard buffers.
///
/// # What `frontier_nnz` is, per product kind
///
/// The planner's one operand scan counts the frontier's nodes (any lane
/// differing from the identity) and its non-identity `(node, lane)` entries
/// and prices the count the scatter's cost follows:
///
/// * **single vector** (`k = 1`): nodes = entries, the frontier size `f`;
/// * **Boolean batch** — the lane-word scatter ORs one word per edge
///   whatever lanes are set, against a sweep doing the same per edge, so the
///   lane factor cancels and `frontier_nnz = nodes`:
///   `nodes · d̄ · α < nnz + n`;
/// * **full-precision batch on a lane-sparse scatter** — the built-in
///   backends' scatter folds only a node's non-identity lanes per out-edge
///   (`kernels::bmm_push_bin_full`) while the sweep folds all `k` lanes of
///   every edge, so push costs `entries · d̄ · α` against pull's
///   `(nnz + n) · k`; dividing by `k`, `frontier_nnz = entries / k`:
///   `(entries / k) · d̄ · α < nnz + n`.  Sixty-four SSSP lanes that each
///   changed 32 vertices push even when the union of those vertices is the
///   whole graph; the same union with every lane active (a PPR batch) pulls.
///   A `DeltaOverlay` over a built-in backend is priced the same way: after
///   the base's scatter it re-folds only the dirty positions an active entry
///   reaches;
/// * **full-precision batch on any other backend** — an external
///   [`GrbBackend`](super::GrbBackend), whose scatter is not known to be
///   lane-sparse.  Priced by nodes, like the Boolean batch:
///   `nodes · d̄ · α < nnz + n`.
///
/// At `k = 1` all of these coincide, so a one-lane batch decides exactly
/// as the vector does.
pub fn choose_direction(
    frontier_nnz: usize,
    n: usize,
    nnz: usize,
    semiring: Semiring,
    push_threads: usize,
    pull_threads: usize,
) -> Direction {
    if !semiring.push_safe() {
        return Direction::Pull;
    }
    let (avg_deg, alpha, merge) = push_cost_terms(n, nnz, push_threads, pull_threads);
    let push_cost = frontier_nnz as f64 * avg_deg * alpha + merge;
    let pull_cost = nnz as f64 + n as f64;
    if push_cost < pull_cost {
        Direction::Push
    } else {
        Direction::Pull
    }
}

/// The push side of [`choose_direction`]'s inequality: `(d̄, α(push_threads,
/// pull_threads), merge surcharge)`.
fn push_cost_terms(
    n: usize,
    nnz: usize,
    push_threads: usize,
    pull_threads: usize,
) -> (f64, f64, f64) {
    let avg_deg = (nnz as f64 / n.max(1) as f64).max(1.0);
    let alpha =
        scatter_penalty_parallel_alpha(SCATTER_EDGE_WEIGHT as f64, push_threads, pull_threads);
    let merge = if push_threads > 1 { n as f64 } else { 0.0 };
    (avg_deg, alpha, merge)
}

impl FrontierSize {
    /// No limit: a forced push collects the whole frontier.
    pub const UNBOUNDED: Self = FrontierSize {
        nodes: usize::MAX,
        entries: usize::MAX,
    };

    /// The `frontier_nnz` [`choose_direction`] prices for a `k`-lane
    /// product over `semiring` (see its docs).
    fn priced(self, k: usize, by_entries: bool) -> usize {
        if by_entries {
            self.entries / k
        } else {
            self.nodes
        }
    }
}

/// An upper bound on the `frontier_nnz` for which [`choose_direction`] can
/// still answer push with the same remaining arguments: every larger count
/// pulls.  (The break-even of the inequality, rounded up with one unit of
/// slack for the float division — the decision itself is always
/// [`choose_direction`] on the count the scan returns.)
fn push_scan_budget(n: usize, nnz: usize, push_threads: usize, pull_threads: usize) -> usize {
    let (avg_deg, alpha, merge) = push_cost_terms(n, nnz, push_threads, pull_threads);
    ((nnz as f64 + n as f64 - merge) / (avg_deg * alpha)).ceil() as usize + 1
}

/// Resolve [`Direction::Auto`] for the operand `x` of a product with an
/// `nnz`-edge matrix, in **one scan**: the scan fills `frontier` (a pooled
/// buffer, cleared first) and counts what [`choose_direction`] prices; once
/// the count is past any push it stops, so a dense operand (a PageRank
/// vector) costs a bounded prefix rather than a count and then a collect.
/// On [`Direction::Push`] `frontier` is the complete push frontier and the
/// returned size is exact; on [`Direction::Pull`] both are partial.
/// `lane_sparse_scatter` says whether the backend's full-precision batched
/// scatter folds active lanes only, i.e. whether such a product is priced
/// by entries.  The caller has already ruled out a semiring that is not
/// push-safe.
pub(crate) fn scan_and_choose<V: Shape>(
    x: &V,
    semiring: Semiring,
    lane_sparse_scatter: bool,
    nnz: usize,
    push_threads: usize,
    pull_threads: usize,
    frontier: &mut Vec<usize>,
) -> (Direction, FrontierSize) {
    let by_entries = lane_sparse_scatter && semiring != Semiring::Boolean;
    let scan = |stop_past| x.frontier_into(semiring, stop_past, frontier);
    let threads = (push_threads, pull_threads);
    scan_within_budget(x.shape(), semiring, by_entries, nnz, threads, scan)
}

/// [`scan_and_choose`] for a Boolean operand already held in words
/// (`LaneBits`, `NodeBits`) of `shape = (nodes, lanes)`: the same budget, the
/// same inequality, over the nodes holding a set bit — so a round of `bfs` /
/// `bfs_multi` resolves as it does through `f32`.  `scan(stop_past_nodes)`
/// is the operand's frontier scan.
pub(crate) fn scan_and_choose_words(
    shape: (usize, usize),
    nnz: usize,
    push_threads: usize,
    pull_threads: usize,
    scan: impl FnOnce(usize) -> FrontierSize,
) -> (Direction, FrontierSize) {
    let scan = |stop_past: FrontierSize| scan(stop_past.nodes);
    let threads = (push_threads, pull_threads);
    scan_within_budget(shape, Semiring::Boolean, false, nnz, threads, scan)
}

/// The body of the two scans above: hand `scan` the counts past which no
/// push is possible, then decide on what it counted.
fn scan_within_budget(
    (n, k): (usize, usize),
    semiring: Semiring,
    by_entries: bool,
    nnz: usize,
    (push_threads, pull_threads): (usize, usize),
    scan: impl FnOnce(FrontierSize) -> FrontierSize,
) -> (Direction, FrontierSize) {
    // Stop once the priced count is past `budget`: nodes, or for a product
    // priced by entries, entries / k > budget  ⇔  entries ≥ (budget + 1) · k.
    let budget = push_scan_budget(n, nnz, push_threads, pull_threads);
    let mut stop_past = FrontierSize::UNBOUNDED;
    if by_entries {
        stop_past.entries = budget.saturating_add(1).saturating_mul(k) - 1;
    } else {
        stop_past.nodes = budget;
    }
    let size = scan(stop_past);
    let priced = size.priced(k, by_entries);
    let direction = choose_direction(priced, n, nnz, semiring, push_threads, pull_threads);
    (direction, size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::SHARD_CACHE_BYTES;
    use bitgblas_perfmodel::pascal_gtx1080;

    #[test]
    fn default_is_auto_and_display_is_lowercase() {
        assert_eq!(Direction::default(), Direction::Auto);
        assert_eq!(Direction::Push.to_string(), "push");
        assert_eq!(Direction::Pull.to_string(), "pull");
        assert_eq!(Direction::Auto.to_string(), "auto");
    }

    /// The two planning constants are what the default profile yields: its
    /// transaction width over 8 coalesced bytes, and its L2.
    #[test]
    fn penalty_comes_from_the_transaction_width() {
        let pascal = pascal_gtx1080();
        assert_eq!(SCATTER_EDGE_WEIGHT, pascal.transaction_bytes / 8);
        assert_eq!(SHARD_CACHE_BYTES, pascal.l2_kb * 1024);
    }

    #[test]
    fn sparse_frontiers_push_and_dense_frontiers_pull() {
        let (n, nnz) = (8192, 8192 * 16);
        let choose = |f| choose_direction(f, n, nnz, Semiring::Boolean, 1, 1);
        assert_eq!(choose(1), Direction::Push);
        assert_eq!(choose(0), Direction::Push);
        assert_eq!(choose(n), Direction::Pull);
        // The crossover sits near n / penalty for nnz >> n.
        let threshold = (nnz + n) / (16 * 16);
        assert_eq!(choose(threshold / 2), Direction::Push);
        assert_eq!(choose(threshold * 2), Direction::Pull);
    }

    #[test]
    fn serial_push_on_a_parallel_host_is_penalized() {
        let alpha = SCATTER_EDGE_WEIGHT as f64;
        // Equal parallelism: the pure transaction penalty.
        assert_eq!(scatter_penalty_parallel_alpha(alpha, 8, 8), 16.0);
        assert_eq!(scatter_penalty_parallel_alpha(alpha, 1, 1), 16.0);
        // Serial push vs an 8-wide pull: α scales by the thread ratio.
        assert_eq!(scatter_penalty_parallel_alpha(alpha, 1, 8), 128.0);
        // More push than pull workers never *discounts* below the device α.
        assert_eq!(scatter_penalty_parallel_alpha(alpha, 16, 8), 16.0);
        // The ratio is clamped so a pathological configuration cannot
        // drive the penalty to infinity.
        assert_eq!(scatter_penalty_parallel_alpha(alpha, 1, 1_000_000), 256.0);
    }

    #[test]
    fn configured_threshold_flips_earlier_for_serial_push() {
        let (n, nnz) = (8192, 8192 * 16);
        let choose = |f, push, pull| choose_direction(f, n, nnz, Semiring::Boolean, push, pull);
        // A frontier that pushes under equal parallelism…
        let f = (nnz + n) / (16 * 16) / 2;
        assert_eq!(choose(f, 8, 8), Direction::Push);
        // …pulls when the push side would run serially against an 8-wide
        // pull sweep (α × 8 prices it out).
        assert_eq!(choose(f, 1, 8), Direction::Pull);
        // Tiny frontiers still push even with the merge surcharge.
        assert_eq!(choose(1, 8, 8), Direction::Push);
    }

    #[test]
    fn tuned_threshold_honors_a_measured_alpha() {
        // The thread-ratio scaling works on whatever base α it is handed…
        assert_eq!(scatter_penalty_parallel_alpha(8.0, 1, 1), 8.0);
        assert_eq!(scatter_penalty_parallel_alpha(32.0, 1, 4), 128.0);
        // …and clamps it (a degenerate α cannot zero the penalty out).
        assert_eq!(scatter_penalty_parallel_alpha(0.0, 1, 1), 4.0);
        assert_eq!(scatter_penalty_parallel_alpha(1e9, 1, 1), 256.0);
    }

    #[test]
    fn push_unsafe_semirings_always_pull() {
        // MaxTimes with a non-positive factor cannot skip identity entries.
        let choose = |sr| choose_direction(1, 1000, 16_000, sr, 1, 1);
        assert_eq!(choose(Semiring::MaxTimes(-2.0)), Direction::Pull);
        assert_eq!(choose(Semiring::MaxTimes(2.0)), Direction::Push);
    }
    // -- the one-scan Auto resolution ----------------------------------------

    use crate::grb::{MultiVec, Vector};

    /// `scan_and_choose` at equal parallelism.
    fn auto<V: Shape>(x: &V, semiring: Semiring, nnz: usize) -> (Direction, FrontierSize) {
        // A stale list: the scan replaces it.
        let mut list = vec![usize::MAX; 3];
        let (direction, size) = scan_and_choose(x, semiring, true, nnz, 1, 1, &mut list);
        assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "ascending, no stale entry"
        );
        assert_eq!(list.len(), size.nodes);
        (direction, size)
    }

    #[test]
    fn full_precision_batches_are_priced_by_entries_boolean_ones_by_nodes() {
        // The repo benchmark's mesh: 2048 nodes, d̄ ≈ 45.
        let nnz = bitgblas_datagen::generators::banded(2048, 32, 0.7, 5).nnz();
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
        let (direction, size) = auto(&sparse, min_plus, nnz);
        assert_eq!((size.nodes, size.entries), (n, n));
        assert_eq!(
            direction,
            Direction::Push,
            "2048 entries / 64 lanes = 32 priced"
        );
        // The same union with every lane active is a dense batch.
        let dense = MultiVec::filled(n, k, 1.0);
        assert_eq!(auto(&dense, min_plus, nnz).0, Direction::Pull);
        assert_eq!(auto(&dense, Semiring::Arithmetic, nnz).0, Direction::Pull);
        // The lane-word scatter ORs one word per edge whatever lanes are
        // set: Boolean decisions stay node-granular, and both operands cover
        // every node.
        assert_eq!(
            auto(&sparse_bool, Semiring::Boolean, nnz).0,
            Direction::Pull
        );
        assert_eq!(auto(&dense, Semiring::Boolean, nnz).0, Direction::Pull);
        // … and a handful of nodes push, however many lanes they carry.
        let mut few = MultiVec::zeros(n, k);
        for l in 0..k {
            few.set(7, l, 1.0);
            few.set(900, l, 1.0);
        }
        assert_eq!(auto(&few, Semiring::Boolean, nnz).0, Direction::Push);
        // A backend whose scatter is not lane-sparse prices the union.
        let mut list = Vec::new();
        let by_nodes = scan_and_choose(&sparse, min_plus, false, nnz, 1, 1, &mut list);
        assert_eq!(by_nodes.0, Direction::Pull);
        let mut few = MultiVec::identity(n, k, min_plus);
        for l in 0..k {
            few.set(7, l, 1.0);
        }
        let by_nodes = scan_and_choose(&few, min_plus, false, nnz, 1, 1, &mut list);
        assert_eq!(by_nodes.0, Direction::Push);
    }

    #[test]
    fn one_lane_batch_decides_as_the_vector_for_every_count() {
        let (n, nnz) = (300usize, 300 * 16);
        for semiring in [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
        ] {
            for f in 0..=n {
                let mut v = Vector::identity(n, semiring);
                for i in 0..f {
                    // Spread the active entries over the whole range.
                    v.set((i * 7) % n, 1.0);
                }
                let mv = MultiVec::from_vec(v.as_slice().to_vec(), n, 1);
                let (vector, _) = auto(&v, semiring, nnz);
                let (batch, _) = auto(&mv, semiring, nnz);
                // Stopping the scan early never changes the decision made
                // on the full count.
                let counted = choose_direction(f, n, nnz, semiring, 1, 1);
                assert_eq!((vector, batch), (counted, counted), "{semiring:?} f={f}");
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
            // Thread ratios 1, 8 and past the clamp: α = 16, 128, 256.
            for (push, pull) in [(1, 1), (1, 8), (8, 8), (1, 64)] {
                let budget = push_scan_budget(n, nnz, push, pull);
                let choose = |f| choose_direction(f, n, nnz, Semiring::Boolean, push, pull);
                let what = format!("n={n} nnz={nnz} threads={push}/{pull}");
                assert_eq!(choose(budget + 1), Direction::Pull, "{what}");
                // One unit of slack, no more: the scan stops near the
                // break-even, not after the whole operand.
                if budget > 2 {
                    assert_eq!(choose(budget - 3), Direction::Push, "{what}");
                }
            }
        }
    }
}
