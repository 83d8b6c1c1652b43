//! Betweenness Centrality — Brandes' algorithm batched over frontier
//! matrices.
//!
//! Betweenness centrality needs one full shortest-path exploration *per
//! source*; it is the canonical consumer of the batched multi-source
//! traversal engine.  The whole computation is two phases of batched
//! matrix × multivector sweeps over the `n × k` frontier matrix (`k` =
//! number of sampled sources):
//!
//! 1. **Forward** — breadth-first path counting: each round advances every
//!    lane's frontier with one arithmetic-semiring `mxm` (`Aᵀ ⊕.⊗ F`)
//!    masked to each lane's unvisited vertices, accumulating the
//!    shortest-path counts `σ`; the per-depth frontier matrices are kept
//!    for the backward phase.
//! 2. **Backward** — dependency accumulation in reverse depth order: one
//!    `mxm` (`A ⊕.⊗ W`, the reverse traversal direction) per depth
//!    propagates `(1 + δ(w)) / σ(w)` from depth `d` back to depth `d-1`,
//!    exactly Brandes' recurrence `δ(v) = Σ_{w} σ(v)/σ(w) · (1 + δ(w))`
//!    evaluated for all `k` sources at once.
//!
//! With `sources` covering every vertex the result is exact betweenness;
//! with a sample it is the standard sampled estimator (the per-source
//! dependencies of the sampled sources).  Both match the textbook
//! reference (`reference::betweenness`) lane-for-lane.
//!
//! **Precision**: the engine carries path counts `σ` in `f32` (the GrB
//! layer's scalar type, like GPU float BC implementations), so `σ` is
//! exact only up to 2²⁴ paths; graphs whose shortest-path counts exceed
//! that accumulate rounding in the `δ` ratios.  The `f64`-accumulating
//! [`reference::betweenness`](crate::reference::betweenness) is the
//! arbitrary-count oracle.

use bitgblas_core::grb::{Direction, Mask, Matrix, MultiVec, Op};
use bitgblas_core::Semiring;

/// The result of a batched betweenness-centrality run.
#[derive(Debug, Clone, PartialEq)]
pub struct BcResult {
    /// `centrality[v]` = Σ over sampled sources of `v`'s Brandes dependency
    /// (exact betweenness when every vertex is a source).
    pub centrality: Vec<f32>,
    /// Number of sources in the batch (`k`).
    pub n_sources: usize,
    /// Depth of the deepest shortest-path tree in the batch.
    pub depth: usize,
}

/// Batched Brandes betweenness centrality from the given sources, with
/// per-round automatic direction selection.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range.
pub fn betweenness_centrality(a: &Matrix, sources: &[usize]) -> BcResult {
    betweenness_centrality_dir(a, sources, Direction::Auto)
}

/// As [`betweenness_centrality`], forcing the given traversal direction for
/// every batched sweep of both phases.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range.
pub fn betweenness_centrality_dir(a: &Matrix, sources: &[usize], direction: Direction) -> BcResult {
    let n = a.nrows();
    let k = sources.len();
    assert!(k > 0, "betweenness_centrality needs at least one source");
    for &s in sources {
        assert!(s < n, "source vertex {s} out of range (n = {n})");
    }
    let ctx = a.context();

    // -- Forward phase: batched BFS with shortest-path counting -----------
    //
    // `paths[v, l]` = σ_l(v), the number of shortest paths from source `l`
    // to `v`; `frontiers[d]` holds the per-depth path-count increments
    // (nonzero pattern = the vertices at depth `d` in lane `l`'s tree).
    let mut paths = MultiVec::from_sources(n, sources);
    let mut unvisited = {
        let mut flags = vec![false; n * k];
        for (l, &s) in sources.iter().enumerate() {
            flags[s * k + l] = true;
        }
        Mask::complemented(flags)
    };
    let mut frontiers: Vec<MultiVec> = vec![paths.clone()];

    loop {
        let frontier = frontiers.last().expect("seeded with the sources");
        // One hop of every lane: σ-increments flow along the edges, gated
        // by each lane's own unvisited set.
        let next = Op::mxm(a, frontier)
            .transpose()
            .semiring(Semiring::Arithmetic)
            .mask(&unvisited)
            .direction(direction)
            .run(ctx);
        let mut any = false;
        for (f, &x) in next.as_slice().iter().enumerate() {
            if x != 0.0 {
                unvisited.set(f, true);
                any = true;
            }
        }
        if !any || frontiers.len() > n {
            ctx.recycle(next);
            break;
        }
        for (p, &x) in paths.as_mut_slice().iter_mut().zip(next.as_slice()) {
            *p += x;
        }
        frontiers.push(next);
    }
    let depth = frontiers.len() - 1;

    // -- Backward phase: dependency accumulation --------------------------
    //
    // `bcu[v, l]` = 1 + δ_l(v).  Walking the depths in reverse, one
    // arithmetic `mxm` in the *reverse* traversal direction propagates each
    // depth's scaled dependencies to its predecessors.  The depth-1 → 0
    // step is skipped: it would only accumulate the sources' own
    // dependencies, which Brandes excludes from their centrality.
    let mut bcu = MultiVec::filled(n, k, 1.0);
    let mut w = MultiVec::zeros(n, k);
    for d in (2..=depth).rev() {
        // w = (bcu / σ) restricted to the depth-d vertices of each lane.
        for (f, slot) in w.as_mut_slice().iter_mut().enumerate() {
            *slot = if frontiers[d].as_slice()[f] != 0.0 {
                bcu.as_slice()[f] / paths.as_slice()[f]
            } else {
                0.0
            };
        }
        // t[v] = Σ_{v -> u} w[u]: one reverse sweep for all lanes.
        let t = Op::mxm(a, &w)
            .semiring(Semiring::Arithmetic)
            .direction(direction)
            .run(ctx);
        // bcu += t .* σ on the depth-(d-1) vertices.
        for (f, b) in bcu.as_mut_slice().iter_mut().enumerate() {
            if frontiers[d - 1].as_slice()[f] != 0.0 {
                *b += t.as_slice()[f] * paths.as_slice()[f];
            }
        }
        ctx.recycle(t);
    }

    // centrality(v) = Σ_l δ_l(v) = Σ_l (bcu[v, l] - 1); unreached (v, l)
    // pairs kept bcu = 1 and contribute nothing, and the skipped depth-0
    // step kept every source's own dependency out of its total.
    let centrality = bcu
        .as_slice()
        .chunks_exact(k)
        .map(|lanes| lanes.iter().map(|&b| b - 1.0).sum())
        .collect();

    BcResult {
        centrality,
        n_sources: k,
        depth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len());
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
            let tol = 1e-3 + 1e-3 * w.abs();
            assert!((g - w).abs() < tol, "{what}: vertex {v}: {g} vs {w}");
        }
    }

    #[test]
    fn path_graph_interior_vertices_carry_the_load() {
        // Directed chain 0 -> 1 -> 2 -> 3: exact BC (all sources) is
        // [0, 2, 2, 0] (vertex 1 lies on 0→2 and 0→3, vertex 2 on 0→3
        // and 1→3).
        let mut coo = Coo::new(4, 4);
        for i in 0..3usize {
            coo.push_edge(i, i + 1).unwrap();
        }
        let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S4));
        let r = betweenness_centrality(&m, &[0, 1, 2, 3]);
        assert_close(&r.centrality, &[0.0, 2.0, 2.0, 0.0], "chain");
        assert_eq!(r.depth, 3);

        // The undirected path counts each ordered pair both ways: [0,4,4,0].
        let undirected = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let ru = betweenness_centrality(&undirected, &[0, 1, 2, 3]);
        assert_close(&ru.centrality, &[0.0, 4.0, 4.0, 0.0], "undirected path");
    }

    #[test]
    fn diamond_splits_dependency_between_parallel_paths() {
        // 0 -> {1, 2} -> 3: two shortest paths 0→3, each middle vertex 1/2.
        let mut coo = Coo::new(4, 4);
        for &(u, v) in &[(0, 1), (0, 2), (1, 3), (2, 3)] {
            coo.push_edge(u, v).unwrap();
        }
        let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::FloatCsr);
        let r = betweenness_centrality(&m, &[0]);
        assert_close(&r.centrality, &[0.0, 0.5, 0.5, 0.0], "diamond");
    }

    #[test]
    fn matches_reference_on_random_graphs_all_backends_and_directions() {
        for seed in [3u64, 11] {
            let adj = generators::erdos_renyi(70, 0.05, true, seed);
            let sources: Vec<usize> = (0..70).step_by(7).collect();
            let expected = reference::betweenness(&adj, &sources);
            for backend in [
                Backend::Bit(TileSize::S4),
                Backend::Bit(TileSize::S8),
                Backend::FloatCsr,
                Backend::Auto,
            ] {
                let m = Matrix::from_csr(&adj, backend);
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    let got = betweenness_centrality_dir(&m, &sources, dir);
                    assert_close(
                        &got.centrality,
                        &expected,
                        &format!("seed {seed} {backend:?} {dir:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn exact_bc_on_undirected_star_peaks_at_the_hub() {
        let adj = generators::star(9).symmetrized();
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let all: Vec<usize> = (0..9).collect();
        let r = betweenness_centrality(&m, &all);
        let expected = reference::betweenness(&adj, &all);
        assert_close(&r.centrality, &expected, "star");
        for leaf in 1..9 {
            assert!(r.centrality[0] > r.centrality[leaf]);
        }
    }

    #[test]
    fn edgeless_graph_has_zero_centrality() {
        let m = Matrix::from_csr(&bitgblas_sparse::Csr::empty(6, 6), Backend::FloatCsr);
        let r = betweenness_centrality(&m, &[0, 3]);
        assert!(r.centrality.iter().all(|&c| c == 0.0));
        assert_eq!(r.depth, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_source() {
        let m = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let _ = betweenness_centrality(&m, &[9]);
    }
}
