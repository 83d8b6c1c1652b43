//! Single-Source Shortest Path over the tropical min-plus semiring (§V).
//!
//! The paper implements delta-stepping SSSP as in GraphBLAST, with
//! the bin/full/full BMV carrying the distance vector in full precision and
//! treating the adjacency matrix's zeros as `+∞` (unreachable).  The point
//! of delta-stepping is that a round relaxes only the edges of vertices
//! whose distance just dropped; on an unweighted (binary) graph every edge
//! has weight 1 and every bucket holds one frontier, so it degenerates to a
//! **changed-set Bellman-Ford**: synchronous min-plus relaxation rounds,
//! each from the vertices the previous round lowered, until a round lowers
//! nothing.
//!
//! # `dist` and `delta`
//!
//! The loop keeps two operands of the same shape, both cycling through the
//! matrix context's workspace pool:
//!
//! * `dist` — the best distance known so far: the accumulator baseline;
//! * `delta` — `dist` where the last round lowered it and the min-plus
//!   identity (`+∞`) everywhere else: the product's operand.  Initially
//!   just the sources, at 0.
//!
//! One round is **one fused expression** with the GraphBLAS accumulator as
//! a first-class node:
//!
//! ```text
//! next = Op::vxm(&delta, a)
//!     .semiring(Semiring::MinPlus(1.0))
//!     .accum(BinaryOp::Min, &dist)      // next = min(dist, relaxed), fused
//!     .run(ctx)
//! ```
//!
//! followed by one pass over `(next, dist, delta)` that is at once the
//! fixpoint test (`any(next < dist)`) and the builder of the next `delta`,
//! written in place.  `min` is the min-plus monoid, so the accumulation
//! folds into the kernel sweep itself: the pull sweep stores
//! `min(dist[v], relaxed[v])` directly, and the push scatter seeds the
//! output with `dist` and ⊕-folds the frontier's contributions into it — no
//! intermediate "relaxed" vector exists in either direction.
//!
//! # Why rounds and bits are those of the full-operand loop
//!
//! Relaxing from all of `dist` every round (what this module did before)
//! computes `min(dist[v], min_u dist[u] + 1)` over *every* reached
//! in-neighbour `u`.  A `u` that did not change last round offered the same
//! `dist[u] + 1` in the round after it last did, and `dist[v]` has been at
//! most that ever since; `min` is exact, so dropping those terms changes no
//! bit of `next`, hence no fixpoint test and no round count.  The last round
//! scatters the last changed set and finds nothing lower, as before.  What
//! changes is the work: the push frontier of a round is the changed set, so
//! over a whole run each reached vertex (each reached `(vertex, lane)` of a
//! batch) is scattered from **exactly once** — `ExecCounts::
//! push_frontier_nodes` / `push_frontier_entries` count it and the tests
//! below assert it.
//!
//! Like BFS, the relaxation is direction-optimizing: while the changed set
//! is small, [`Direction::Auto`] walks only its out-edges (push); a round
//! that lowers a large share of the graph takes the pull sweep, which skips
//! the identity entries of `delta` tile-wise.  Because min is exact under
//! reordering, push and pull produce bit-equal distances.  The inner loop is
//! allocation-free in steady state (`crates/core/tests/zero_alloc.rs`).

use bitgblas_core::grb::{
    Context, Direction, Fusion, GrbError, Matrix, MultiVec, Op, Operand, Vector,
};
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
    let delta = Vector::from_vec(pooled_copy(ctx, dist.as_slice()));

    // next = min(dist, min_u (delta[u] + 1)) over edges u -> v: the
    // relaxation and the accumulate step of the tropical semiring in a
    // single fused sweep (keeps the source at 0 and any already-shorter
    // paths).
    let (dist, iterations) = relax_to_fixpoint(a, dist, delta, |delta, dist| {
        Op::vxm(delta, a)
            .semiring(semiring)
            .direction(direction)
            .accum(BinaryOp::Min, dist)
            .fusion(fusion)
            .try_run(ctx)
    })?;

    Ok(SsspResult {
        distances: dist.into_vec(),
        iterations,
    })
}

/// The flat storage of the two operand shapes the relaxation loop runs over
/// (a vector is the one-lane multi-vector).
trait Flat: Operand {
    fn values(&self) -> &[f32];
    fn values_mut(&mut self) -> &mut [f32];
}

impl Flat for Vector {
    fn values(&self) -> &[f32] {
        self.as_slice()
    }
    fn values_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl Flat for MultiVec {
    fn values(&self) -> &[f32] {
        self.as_slice()
    }
    fn values_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

/// A copy of `src` in a buffer out of the context's pool — the first
/// `delta` (the loop hands it back when it ends, so a run leaves the pool
/// as it found it).
fn pooled_copy(ctx: &Context, src: &[f32]) -> Vec<f32> {
    let mut buf = ctx.workspace().take_empty();
    buf.extend_from_slice(src);
    buf
}

/// The changed-set relaxation loop, for one lane or `k`: run
/// `round(&delta, &dist)` — one min-plus product of `delta` accumulated
/// with `min` into `dist` — until a round lowers nothing (or `n` rounds, the
/// Bellman-Ford bound).  After each round a single pass compares the result
/// with `dist` and rewrites `delta` in place: the new value where it
/// dropped, `+∞` elsewhere.  Returns the final distances and the number of
/// rounds run.
fn relax_to_fixpoint<V: Flat>(
    a: &Matrix,
    mut dist: V,
    mut delta: V,
    round: impl Fn(&V, &V) -> Result<V, GrbError>,
) -> Result<(V, usize), GrbError> {
    let ctx = a.context();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        let next = round(&delta, &dist)?;
        // Min-accumulation only ever lowers a distance.
        let mut changed = false;
        for ((slot, &new), &old) in delta
            .values_mut()
            .iter_mut()
            .zip(next.values())
            .zip(dist.values())
        {
            let dropped = new < old;
            changed |= dropped;
            *slot = if dropped { new } else { f32::INFINITY };
        }
        ctx.recycle(std::mem::replace(&mut dist, next));
        if !changed || iterations >= a.nrows() {
            break;
        }
    }
    ctx.recycle(delta);
    Ok((dist, iterations))
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
    let delta = MultiVec::from_vec(pooled_copy(ctx, dist.as_slice()), n, k);

    // One relaxation round for all k sources: next = min(dist, Aᵀ ⊕.⊗
    // delta) over min-plus, the accumulator folded across every lane.
    let (dist, iterations) = relax_to_fixpoint(a, dist, delta, |delta, dist| {
        Op::mxm(a, delta)
            .transpose()
            .semiring(semiring)
            .direction(direction)
            .accum(BinaryOp::Min, dist)
            .try_run(ctx)
    })?;

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
    use bitgblas_sparse::{Coo, Csr};

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
    // -- changed-set rounds: parity with the full-operand loop, and the work
    //    invariant ----------------------------------------------------------

    /// The loop this module ran before the changed set: the whole distance
    /// vector is the operand of every round.  Kept as the reference the
    /// changed-set loop must equal bit for bit, round for round.
    fn full_operand_fixpoint<V: Flat>(
        a: &Matrix,
        mut dist: V,
        round: impl Fn(&V, &V) -> Result<V, GrbError>,
    ) -> (Vec<f32>, usize) {
        let mut iterations = 0usize;
        loop {
            iterations += 1;
            let next = round(&dist, &dist).unwrap();
            let changed = next.values().iter().zip(dist.values()).any(|(n, d)| n < d);
            dist = next;
            if !changed || iterations >= a.nrows() {
                return (dist.values().to_vec(), iterations);
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|d| d.to_bits()).collect()
    }

    fn edges(n: usize, list: &[(usize, usize)]) -> Csr {
        let mut coo = Coo::new(n, n);
        for &(r, c) in list {
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    /// Small graphs with the shapes a changed set can trip on.
    fn parity_graphs() -> Vec<(&'static str, Csr)> {
        let chain: Vec<_> = (0..18).map(|i| (i, i + 1)).collect();
        // Two undirected paths, 0..10 and 10..23, never joined.
        let two: Vec<_> = (0..22)
            .filter(|&i| i != 9)
            .flat_map(|i| [(i, i + 1), (i + 1, i)])
            .collect();
        let mut loops: Vec<_> = (0..30).map(|i| (i, i)).collect();
        loops.extend(
            generators::erdos_renyi(30, 0.08, true, 3)
                .iter()
                .map(|(r, c, _)| (r, c)),
        );
        vec![
            ("single vertex", edges(1, &[])),
            ("single vertex with a self-loop", edges(1, &[(0, 0)])),
            // Sources include the tail, which has no out-edge.
            ("directed chain", edges(19, &chain)),
            ("star", generators::star(37)),
            ("two components", edges(23, &two)),
            ("self-loops", edges(30, &loops)),
        ]
    }

    /// Run `f` on every backend the parity covers — the merge-on-read
    /// overlay with pending inserts **and** deletes included.
    fn for_each_parity_matrix(adj: &Csr, mut f: impl FnMut(&str, &Matrix)) {
        let n = adj.nrows();
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
            Backend::Auto,
        ] {
            f(&format!("{backend:?}"), &Matrix::from_csr(adj, backend));
        }
        let base = Matrix::from_csr(adj, Backend::Bit(TileSize::S8));
        base.insert_edge(0, n - 1).unwrap();
        base.insert_edge(n / 2, 0).unwrap();
        if let Some((r, c, _)) = adj.iter().next() {
            base.delete_edge(r, c).unwrap();
        }
        base.delete_edge(n - 1, n / 2).unwrap();
        assert!(base.delta_len() >= 3);
        f("DeltaOverlay", &base.snapshot());
    }

    /// Changed-set ≡ full-operand, by `to_bits` and on `iterations`, for
    /// every backend × direction × fusion × batch width, single-source and
    /// batched, through the public entry points wherever they can express
    /// the case.
    #[test]
    fn changed_set_rounds_equal_the_full_operand_loop_bitwise() {
        let semiring = Semiring::MinPlus(1.0);
        for (gname, adj) in parity_graphs() {
            let n = adj.nrows();
            for_each_parity_matrix(&adj, |bname, a| {
                let ctx = a.context();
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    for fusion in [Fusion::Fused, Fusion::NodeAtATime] {
                        let what = format!("{gname} / {bname} / {dir:?} / {fusion:?}");
                        // Single source, from the last vertex (no out-edge
                        // on the chain) and from vertex 0.
                        for source in [n - 1, 0] {
                            let mut start = Vector::identity(n, semiring);
                            start.set(source, 0.0);
                            let (want, rounds) = full_operand_fixpoint(a, start, |x, dist| {
                                Op::vxm(x, a)
                                    .semiring(semiring)
                                    .direction(dir)
                                    .accum(BinaryOp::Min, dist)
                                    .fusion(fusion)
                                    .try_run(ctx)
                            });
                            let got = sssp_with(a, source, dir, fusion);
                            assert_eq!(bits(&got.distances), bits(&want), "{what} source {source}");
                            assert_eq!(got.iterations, rounds, "{what} source {source}");
                        }
                        for k in [1usize, 3, 64, 70] {
                            let sources: Vec<usize> = (0..k).map(|l| (l * 7 + n - 1) % n).collect();
                            let mut start = MultiVec::identity(n, k, semiring);
                            for (l, &s) in sources.iter().enumerate() {
                                start.set(s, l, 0.0);
                            }
                            let round = |x: &MultiVec, dist: &MultiVec| {
                                Op::mxm(a, x)
                                    .transpose()
                                    .semiring(semiring)
                                    .direction(dir)
                                    .accum(BinaryOp::Min, dist)
                                    .fusion(fusion)
                                    .try_run(ctx)
                            };
                            let (want, rounds) = full_operand_fixpoint(a, start.clone(), round);
                            // `sssp_multi_dir` is the fused loop; the
                            // node-at-a-time one runs through the same body.
                            let (got, got_rounds) = if fusion == Fusion::Fused {
                                let r = sssp_multi_dir(a, &sources, dir);
                                (r.distances, r.iterations)
                            } else {
                                let (dist, rounds) =
                                    relax_to_fixpoint(a, start.clone(), start, round).unwrap();
                                (dist.into_vec(), rounds)
                            };
                            assert_eq!(bits(&got), bits(&want), "{what} k={k}");
                            assert_eq!(got_rounds, rounds, "{what} k={k}");
                        }
                    }
                }
            });
        }
    }

    /// The work invariant: a forced-push run scatters from each reached
    /// vertex — each reached `(vertex, lane)` of a batch — **exactly once**.
    /// The full-operand loop reads the sum over rounds of everything reached
    /// so far here; that is the regression this test exists to catch.
    #[test]
    fn forced_push_scatters_from_each_reached_vertex_exactly_once() {
        let chain: Vec<_> = (0..40).map(|i| (i, i + 1)).collect();
        // A grid and a far-away path that no source below can reach.
        let mut islands: Vec<_> = generators::grid2d(5, 5)
            .iter()
            .map(|(r, c, _)| (r, c))
            .collect();
        islands.extend((25..39).flat_map(|i| [(i, i + 1), (i + 1, i)]));
        let graphs = [
            ("path", generators::path(33)),
            ("grid2d", generators::grid2d(9, 7)),
            ("erdos_renyi", generators::erdos_renyi(120, 0.03, true, 8)),
            ("directed chain", edges(41, &chain)),
            ("unreachable component", edges(40, &islands)),
        ];
        for (gname, adj) in graphs {
            let n = adj.nrows();
            for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
                let a = Matrix::from_csr(&adj, backend);
                let ctx = a.context();
                let finite = |d: &[f32]| d.iter().filter(|d| d.is_finite()).count() as u64;

                let before = ctx.stats();
                let single = sssp_dir(&a, 3, Direction::Push);
                let after = ctx.stats();
                assert_eq!(after.push_mxv - before.push_mxv, single.iterations as u64);
                assert_eq!(
                    after.push_frontier_nodes - before.push_frontier_nodes,
                    finite(&single.distances),
                    "{gname} {backend:?}: one scatter per reached vertex"
                );
                assert_eq!(
                    after.push_frontier_entries - before.push_frontier_entries,
                    finite(&single.distances),
                    "{gname} {backend:?}: one lane, entries = nodes"
                );
                assert!(
                    finite(&single.distances) > 1,
                    "{gname}: the run must reach something"
                );

                let sources: Vec<usize> = (0..5).map(|l| (l * 11) % n.min(25)).collect();
                let before = ctx.stats();
                let multi = sssp_multi_dir(&a, &sources, Direction::Push);
                let after = ctx.stats();
                assert_eq!(after.push_mxm - before.push_mxm, multi.iterations as u64);
                assert_eq!(
                    after.push_frontier_entries - before.push_frontier_entries,
                    finite(&multi.distances),
                    "{gname} {backend:?}: one scatter per reached (vertex, lane)"
                );
                // Lanes share nodes: no more nodes than entries.
                let nodes = after.push_frontier_nodes - before.push_frontier_nodes;
                assert!(nodes <= finite(&multi.distances), "{gname} {backend:?}");
            }
        }
    }
}
