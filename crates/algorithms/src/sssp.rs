//! Single-Source Shortest Path over the tropical min-plus semiring (§V).
//!
//! The paper implements delta-stepping SSSP as in GraphBLAST, with
//! `bmv_bin_full_full()` carrying the distance vector in full precision and
//! treating the adjacency matrix's zeros as `+∞` (unreachable).  On an
//! unweighted (binary) graph delta-stepping degenerates to synchronous
//! Bellman-Ford rounds — every edge has weight 1 and every bucket holds one
//! frontier — so the implementation here iterates min-plus `vxm` relaxations
//! until the distance vector reaches a fixpoint, which yields exactly the
//! same distances.
//!
//! Since PR 3 each relaxation round is **one fused expression** with the
//! GraphBLAS accumulator as a first-class node:
//!
//! ```text
//! dist' = Op::vxm(&dist, a)
//!     .semiring(Semiring::MinPlus(1.0))
//!     .accum(BinaryOp::Min, &dist)      // dist = min(dist, relaxed), fused
//!     .run(ctx)
//! ```
//!
//! `min` is the min-plus monoid, so the accumulation folds into the kernel
//! sweep itself: the pull sweep stores `min(dist[v], relaxed[v])` directly,
//! and the push scatter seeds the output with `dist` and ⊕-folds the
//! frontier's contributions into it — no intermediate "relaxed" vector
//! exists in either direction.
//!
//! Like BFS, the relaxation is direction-optimizing: while few vertices
//! have finite distances, [`Direction::Auto`] walks only their out-edges
//! (push); once the reached set grows dense it switches to the pull sweep.
//! Because min is exact under reordering, push and pull produce bit-equal
//! distances.  The inner loop is allocation-free in steady state — the
//! distance vectors cycle through the matrix context's workspace pool.

use bitgblas_core::grb::{Direction, Fusion, GrbError, Matrix, MultiVec, Op, Vector};
use bitgblas_core::{BinaryOp, Semiring};

use crate::validate::{check_batch_nonempty, check_sources};

/// The result of an SSSP run.
#[derive(Debug, Clone, PartialEq)]
pub struct SsspResult {
    /// `distances[v]` = length of the shortest path from the source
    /// (`f32::INFINITY` when unreachable).
    pub distances: Vec<f32>,
    /// Number of relaxation rounds executed.
    pub iterations: usize,
}

/// Run SSSP from `source` over unit edge weights, with per-iteration
/// automatic direction selection.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn sssp(a: &Matrix, source: usize) -> SsspResult {
    sssp_dir(a, source, Direction::Auto)
}

/// As [`sssp`], forcing the given traversal direction for every relaxation
/// round.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn sssp_dir(a: &Matrix, source: usize, direction: Direction) -> SsspResult {
    sssp_with(a, source, direction, Fusion::Fused)
}

/// As [`sssp_dir`], additionally controlling whether the per-round
/// expression may fuse ([`Fusion::NodeAtATime`] is the benchmark/parity
/// baseline).
///
/// # Panics
/// Panics if `source` is out of range ([`try_sssp_with`] is the fallible
/// form).
pub fn sssp_with(a: &Matrix, source: usize, direction: Direction, fusion: Fusion) -> SsspResult {
    try_sssp_with(a, source, direction, fusion).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`sssp_with`], reporting an out-of-range source as a typed
/// [`GrbError`] instead of panicking.
pub fn try_sssp_with(
    a: &Matrix,
    source: usize,
    direction: Direction,
    fusion: Fusion,
) -> Result<SsspResult, GrbError> {
    let n = a.nrows();
    check_sources(n, std::slice::from_ref(&source), "source vertex")?;

    let ctx = a.context();
    let semiring = Semiring::MinPlus(1.0);
    let mut dist = Vector::identity(n, semiring);
    dist.set(source, 0.0);

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        // dist' = min(dist, min_u (dist[u] + 1)) over edges u -> v: the
        // relaxation and the accumulate step of the tropical semiring in a
        // single fused sweep (keeps the source at 0 and any
        // already-shorter paths).
        let next = Op::vxm(&dist, a)
            .semiring(semiring)
            .direction(direction)
            .accum(BinaryOp::Min, &dist)
            .fusion(fusion)
            .try_run(ctx)?;
        // Fixpoint test: min-accumulation only ever lowers a distance.
        let changed = next
            .as_slice()
            .iter()
            .zip(dist.as_slice())
            .any(|(n, d)| n < d);
        ctx.recycle(std::mem::replace(&mut dist, next));
        if !changed || iterations >= n {
            break;
        }
    }

    Ok(SsspResult {
        distances: dist.into_vec(),
        iterations,
    })
}

/// The result of a batched multi-source SSSP run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSsspResult {
    /// Flat node-major `n × k` distance matrix: `distances[v*k + l]` =
    /// shortest-path length from source `l` to vertex `v`
    /// (`f32::INFINITY` when unreachable).
    pub distances: Vec<f32>,
    /// Number of traversals in the batch (`k`).
    pub n_sources: usize,
    /// Number of batched relaxation rounds executed.
    pub iterations: usize,
}

impl MultiSsspResult {
    /// The distance from source `l` to vertex `v`.
    pub fn distance(&self, v: usize, l: usize) -> f32 {
        self.distances[v * self.n_sources + l]
    }
}

/// Run `sources.len()` simultaneous SSSP traversals (unit edge weights) as
/// one batched relaxation loop: each round is a single min-plus matrix ×
/// multivector sweep with the `min` accumulator folded over the whole
/// `n × k` distance matrix — the landmark-distance-sketch workload (see
/// `examples/landmark_sketch.rs`).  Uses [`Direction::Auto`] per round.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range.
pub fn sssp_multi(a: &Matrix, sources: &[usize]) -> MultiSsspResult {
    sssp_multi_dir(a, sources, Direction::Auto)
}

/// As [`sssp_multi`], forcing the given traversal direction for every
/// relaxation round.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range
/// ([`try_sssp_multi_dir`] is the fallible form).
pub fn sssp_multi_dir(a: &Matrix, sources: &[usize], direction: Direction) -> MultiSsspResult {
    try_sssp_multi_dir(a, sources, direction).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`sssp_multi_dir`], reporting an empty batch or an out-of-range
/// source as a typed [`GrbError`] instead of panicking.
pub fn try_sssp_multi_dir(
    a: &Matrix,
    sources: &[usize],
    direction: Direction,
) -> Result<MultiSsspResult, GrbError> {
    let n = a.nrows();
    let k = sources.len();
    check_batch_nonempty(k, "sssp_multi needs at least one source")?;
    check_sources(n, sources, "source vertex")?;
    let ctx = a.context();
    let semiring = Semiring::MinPlus(1.0);

    let mut dist = MultiVec::identity(n, k, semiring);
    for (l, &s) in sources.iter().enumerate() {
        dist.set(s, l, 0.0);
    }

    let mut iterations = 0usize;
    loop {
        iterations += 1;
        // One relaxation round for all k sources: dist' = min(dist, Aᵀ ⊕.⊗
        // dist) over min-plus, the accumulator folded across every lane.
        let next = Op::mxm(a, &dist)
            .transpose()
            .semiring(semiring)
            .direction(direction)
            .accum(BinaryOp::Min, &dist)
            .try_run(ctx)?;
        let changed = next
            .as_slice()
            .iter()
            .zip(dist.as_slice())
            .any(|(n, d)| n < d);
        ctx.recycle(std::mem::replace(&mut dist, next));
        if !changed || iterations >= n {
            break;
        }
    }

    Ok(MultiSsspResult {
        distances: dist.into_vec(),
        n_sources: k,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    fn assert_distances_match(got: &[f32], want: &[f32]) {
        assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let both_inf = g.is_infinite() && w.is_infinite();
            assert!(both_inf || (g - w).abs() < 1e-5, "vertex {i}: {g} vs {w}");
        }
    }

    #[test]
    fn sssp_matches_reference_on_random_graphs() {
        for seed in [4u64, 5] {
            let adj = generators::erdos_renyi(100, 0.04, true, seed);
            let expected = reference::sssp_distances(&adj, 0);
            for backend in [
                Backend::Bit(TileSize::S4),
                Backend::Bit(TileSize::S8),
                Backend::Bit(TileSize::S32),
                Backend::FloatCsr,
                Backend::Auto,
            ] {
                let m = Matrix::from_csr(&adj, backend);
                let got = sssp(&m, 0);
                assert_distances_match(&got.distances, &expected);
            }
        }
    }

    #[test]
    fn sssp_equals_bfs_levels_on_unit_weights() {
        let adj = generators::grid2d(8, 8);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S16));
        let got = sssp(&m, 10);
        let levels = reference::bfs_levels(&adj, 10);
        for (d, l) in got.distances.iter().zip(levels) {
            if l < 0 {
                assert!(d.is_infinite());
            } else {
                assert_eq!(*d, l as f32);
            }
        }
    }

    #[test]
    fn sssp_on_directed_chain() {
        let mut coo = Coo::new(5, 5);
        for i in 0..4usize {
            coo.push_edge(i, i + 1).unwrap();
        }
        let adj = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            let got = sssp(&m, 0);
            assert_eq!(got.distances, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
            // Distances from the tail: everything upstream unreachable.
            let tail = sssp(&m, 4);
            assert!(tail.distances[..4].iter().all(|d| d.is_infinite()));
            assert_eq!(tail.distances[4], 0.0);
        }
    }

    #[test]
    fn sssp_iteration_count_is_bounded_by_eccentricity() {
        let adj = generators::path(12);
        let m = Matrix::from_csr(&adj, Backend::FloatCsr);
        let got = sssp(&m, 0);
        // 11 productive rounds + 1 fixpoint-detection round.
        assert_eq!(got.iterations, 12);
        assert_eq!(got.distances[11], 11.0);
    }

    #[test]
    fn forced_directions_agree_exactly() {
        // min is exact under reordering, so push ≡ pull bit-for-bit.
        let adj = generators::erdos_renyi(130, 0.03, true, 6);
        for backend in [Backend::Bit(TileSize::S16), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            let pull = sssp_dir(&m, 2, Direction::Pull);
            let push = sssp_dir(&m, 2, Direction::Push);
            let auto = sssp_dir(&m, 2, Direction::Auto);
            assert_eq!(push.distances, pull.distances, "{backend:?}");
            assert_eq!(auto.distances, pull.distances, "{backend:?}");
            assert_eq!(push.iterations, pull.iterations);
        }
    }

    #[test]
    fn fused_accumulation_equals_node_at_a_time() {
        let adj = generators::erdos_renyi(110, 0.035, true, 9);
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let fused = sssp_with(&m, 3, dir, Fusion::Fused);
                let unfused = sssp_with(&m, 3, dir, Fusion::NodeAtATime);
                assert_eq!(fused.distances, unfused.distances, "{backend:?} {dir:?}");
                assert_eq!(fused.iterations, unfused.iterations, "{backend:?} {dir:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sssp_rejects_bad_source() {
        let adj = generators::path(4);
        let m = Matrix::from_csr(&adj, Backend::FloatCsr);
        let _ = sssp(&m, 4);
    }

    // -- batched multi-source SSSP ------------------------------------------

    /// Every lane of a batched run equals the single-source run from that
    /// lane's source, bit-for-bit (min is exact under reordering).
    #[test]
    fn sssp_multi_lanes_equal_single_source_runs() {
        let adj = generators::erdos_renyi(100, 0.035, true, 17);
        let sources = [0usize, 42, 99];
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto] {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let batched = sssp_multi_dir(&m, &sources, dir);
                for (l, &s) in sources.iter().enumerate() {
                    let single = sssp_dir(&m, s, dir);
                    for v in 0..100 {
                        assert_eq!(
                            batched.distance(v, l),
                            single.distances[v],
                            "{backend:?} {dir:?} lane {l} vertex {v}"
                        );
                    }
                }
            }
        }
    }

    /// The batched round count is the maximum of the per-source counts (the
    /// batch runs until the slowest lane reaches its fixpoint).
    #[test]
    fn sssp_multi_runs_to_the_slowest_lane() {
        let adj = generators::path(12);
        let m = Matrix::from_csr(&adj, Backend::FloatCsr);
        let batched = sssp_multi(&m, &[0, 10]);
        // Source 0 needs 11 productive rounds; source 10 only 1.
        assert_eq!(batched.iterations, 12);
        assert_eq!(batched.distance(11, 0), 11.0);
        assert_eq!(batched.distance(11, 1), 1.0);
    }
}
