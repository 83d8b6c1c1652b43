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
//! `transaction_bytes / edge_bytes` taken from the device profile the
//! [`Context`](super::Context) already carries for format selection.  Push
//! wins while
//!
//! ```text
//! f · d̄ · penalty  <  nnz + n        (penalty = transaction_bytes / 8,
//!                                      clamped to [4, 32]; 16 on both
//!                                      Table-VI devices)
//! ```
//!
//! which for `nnz ≫ n` reduces to the familiar Beamer-style `f < n / α`
//! with `α ≈ penalty` — the textbook α ≈ 14 rediscovered from the traffic
//! model.

use bitgblas_perfmodel::DeviceProfile;

use crate::semiring::Semiring;

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

/// The modelled cost multiplier of one scattered (push) edge relative to one
/// streamed (pull) edge: a random write wastes a whole global-memory
/// transaction where the pull sweep pays ~8 coalesced bytes per edge.
pub fn scatter_penalty(device: &DeviceProfile) -> f64 {
    (device.transaction_bytes as f64 / 8.0).clamp(4.0, 32.0)
}

/// The parallelism-aware scatter penalty (PR 5) over a base penalty α.
///
/// The base penalty prices one scattered edge against one streamed pull
/// edge *at equal parallelism*.  When the push engine runs on fewer worker
/// threads than the pull sweep fans out to (`push_threads <
/// pull_threads`), every push edge is additionally slower by the thread
/// ratio — this is exactly the miscalibration the pre-PR-5 model had
/// baked in permanently: it compared a parallel pull against a serial push
/// with the equal-parallelism α, overpricing pull and flipping to push too
/// late to matter and too often to be cheap.  With the sharded engine both
/// sides scale, the ratio is 1 and α returns to the base penalty.
///
/// α is [`scatter_penalty`] of the device profile until
/// [`Context::calibrate`](super::Context::calibrate) replaces it with the
/// host's *measured* random-vs-sequential bandwidth ratio (PR 9).
pub fn scatter_penalty_parallel_alpha(alpha: f64, push_threads: usize, pull_threads: usize) -> f64 {
    let ratio = (pull_threads.max(1) as f64 / push_threads.max(1) as f64).max(1.0);
    (alpha * ratio).clamp(4.0, 256.0)
}

/// Resolve [`Direction::Auto`] for one operation: `frontier_nnz` active
/// nodes of an `n`-node operand against a matrix with `nnz` edges, at base
/// scatter penalty `alpha` (the context's calibrated profile).
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
/// A batched (`n × k`) operand is scored on its **node-granular** frontier
/// (nodes with any active lane): the scatter visits each active node's
/// edges once and the sweep streams the matrix once, both doing `k` lanes of
/// work per edge, so the lane factor cancels and the batched threshold *is*
/// the single-vector one.
pub fn choose_direction(
    frontier_nnz: usize,
    n: usize,
    nnz: usize,
    semiring: Semiring,
    alpha: f64,
    push_threads: usize,
    pull_threads: usize,
) -> Direction {
    if !semiring.push_safe() {
        return Direction::Pull;
    }
    let avg_deg = (nnz as f64 / n.max(1) as f64).max(1.0);
    let alpha = scatter_penalty_parallel_alpha(alpha, push_threads, pull_threads);
    let merge = if push_threads > 1 { n as f64 } else { 0.0 };
    let push_cost = frontier_nnz as f64 * avg_deg * alpha + merge;
    let pull_cost = nnz as f64 + n as f64;
    if push_cost < pull_cost {
        Direction::Push
    } else {
        Direction::Pull
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_perfmodel::{pascal_gtx1080, volta_titanv};

    #[test]
    fn default_is_auto_and_display_is_lowercase() {
        assert_eq!(Direction::default(), Direction::Auto);
        assert_eq!(Direction::Push.to_string(), "push");
        assert_eq!(Direction::Pull.to_string(), "pull");
        assert_eq!(Direction::Auto.to_string(), "auto");
    }

    #[test]
    fn penalty_comes_from_the_transaction_width() {
        // 128-byte transactions on both Table-VI devices → penalty 16.
        assert_eq!(scatter_penalty(&pascal_gtx1080()), 16.0);
        assert_eq!(scatter_penalty(&volta_titanv()), 16.0);
    }

    #[test]
    fn sparse_frontiers_push_and_dense_frontiers_pull() {
        let alpha = scatter_penalty(&pascal_gtx1080());
        let (n, nnz) = (8192, 8192 * 16);
        let choose = |f| choose_direction(f, n, nnz, Semiring::Boolean, alpha, 1, 1);
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
        let alpha = scatter_penalty(&pascal_gtx1080());
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
        let alpha = scatter_penalty(&pascal_gtx1080());
        let (n, nnz) = (8192, 8192 * 16);
        let choose =
            |f, push, pull| choose_direction(f, n, nnz, Semiring::Boolean, alpha, push, pull);
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
        let (n, nnz) = (8192, 8192 * 16);
        let sr = Semiring::Boolean;
        // A frontier right between the α=8 and α=32 crossovers flips with
        // the measured penalty.
        let f = (nnz + n) / (16 * 16);
        assert_eq!(choose_direction(f, n, nnz, sr, 8.0, 1, 1), Direction::Push);
        assert_eq!(choose_direction(f, n, nnz, sr, 32.0, 1, 1), Direction::Pull);
        // α is still clamped (a degenerate measurement cannot zero it out).
        assert_eq!(scatter_penalty_parallel_alpha(0.0, 1, 1), 4.0);
        assert_eq!(scatter_penalty_parallel_alpha(1e9, 1, 1), 256.0);
    }

    #[test]
    fn push_unsafe_semirings_always_pull() {
        // MaxTimes with a non-positive factor cannot skip identity entries.
        let choose = |sr| choose_direction(1, 1000, 16_000, sr, 16.0, 1, 1);
        assert_eq!(choose(Semiring::MaxTimes(-2.0)), Direction::Pull);
        assert_eq!(choose(Semiring::MaxTimes(2.0)), Direction::Push);
    }
}
