//! Connected Components via the FastSV linear-algebraic algorithm (§V).
//!
//! The paper follows GraphBLAST's CC, which is based on FastSV (Zhang, Azad,
//! Buluç): every vertex carries a parent pointer `f`, and each round
//! 1. gathers the minimum parent of each vertex's neighbours with a tropical
//!    min `mxv` (`MinPlus(0.0)`: the CSR row pull `csr_pull_full` on every
//!    backend, which takes each row's least parent by compare-select in
//!    four accumulators and adds the weight once per row) — and, only when
//!    the matrix is not symmetric, a second pull on `Aᵀ` min-folded onto
//!    the first, so a directed input is followed both ways,
//! 2. *hooks* the grandparent of each vertex onto that minimum
//!    (`f[f[u]] = min(f[f[u]], mnp[u])`), also hooking the vertex itself, and
//! 3. *shortcuts* every vertex to its grandparent (`f[u] = f[f[u]]`),
//!
//! repeating until the parent vector stops changing.  Vertices of the same
//! component end up pointing at the component's minimum vertex id.

use bitgblas_core::grb::{Direction, Matrix, Op, Vector};
use bitgblas_core::{BinaryOp, Semiring};

/// The result of a connected-components run.
#[derive(Debug, Clone, PartialEq)]
pub struct CcResult {
    /// `labels[v]` = smallest vertex id in `v`'s component.
    pub labels: Vec<usize>,
    /// Number of connected components.
    pub n_components: usize,
    /// Number of FastSV rounds executed.
    pub iterations: usize,
}

/// Run FastSV connected components.  The graph is treated as undirected: if
/// `a` is not symmetric its transpose edges are still followed because the
/// neighbour-minimum is computed in both directions.  A symmetric `a`
/// ([`Matrix::is_symmetric`], decided once per matrix) is its own transpose,
/// so its rounds pull once.
pub fn connected_components(a: &Matrix) -> CcResult {
    let n = a.nrows();
    if n == 0 {
        return CcResult {
            labels: Vec::new(),
            n_components: 0,
            iterations: 0,
        };
    }

    // Propagate minima along edges; the semiring adds 0 so values are the
    // neighbours' labels themselves.  The matrix context's workspace
    // recycles the per-round vectors.
    let ctx = a.context();
    let semiring = Semiring::MinPlus(0.0);
    let symmetric = a.is_symmetric();

    let mut parent: Vec<usize> = (0..n).collect();
    let mut parent_f = Vector::zeros(n);
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        for (pf, &p) in parent_f.as_mut_slice().iter_mut().zip(&parent) {
            *pf = p as f32;
        }

        // Minimum neighbour parent, in both edge directions so directed
        // inputs behave as undirected graphs.  On a symmetric matrix the
        // backward sweep would recompute the forward one; otherwise it
        // min-folds straight onto the forward result through the fused
        // accumulator, so no separate "backward" vector is materialised.
        // The parent vector is fully dense (every entry finite), so both
        // products pull outright: there is no frontier to price, and
        // `Direction::Auto` would scan a prefix of the operand every round
        // to find that out (and would push on a graph with fewer edges
        // than vertices, where its pull is priced at `nnz + n`).
        let forward = Op::mxv(a, &parent_f)
            .semiring(semiring)
            .direction(Direction::Pull)
            .run(ctx);
        let mnp = if symmetric {
            forward
        } else {
            let both = Op::mxv(a, &parent_f)
                .semiring(semiring)
                .direction(Direction::Pull)
                .transpose()
                .accum(BinaryOp::Min, &forward)
                .run(ctx);
            ctx.recycle(forward);
            both
        };

        let mut next = parent.clone();
        for (u, &candidate) in mnp.as_slice().iter().enumerate() {
            if candidate.is_finite() {
                let cand = candidate as usize;
                // Stochastic hooking: hook u's parent and u itself onto the
                // candidate root.
                let pu = parent[u];
                if cand < next[pu] {
                    next[pu] = cand;
                }
                if cand < next[u] {
                    next[u] = cand;
                }
            }
        }
        ctx.recycle(mnp);

        // Shortcutting: point every vertex at its grandparent until stable
        // within this round (path halving).
        let mut changed_shortcut = true;
        while changed_shortcut {
            changed_shortcut = false;
            for u in 0..n {
                let gp = next[next[u]];
                if gp < next[u] {
                    next[u] = gp;
                    changed_shortcut = true;
                }
            }
        }

        if next == parent || iterations >= n {
            parent = next;
            break;
        }
        parent = next;
    }

    let mut uniq: Vec<usize> = parent.clone();
    uniq.sort_unstable();
    uniq.dedup();
    CcResult {
        n_components: uniq.len(),
        labels: parent,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::{Coo, Csr};

    fn check_against_reference(adj: &Csr, backend: Backend) {
        let expected = reference::cc_labels(adj);
        let m = Matrix::from_csr(adj, backend);
        let got = connected_components(&m);
        assert_eq!(got.labels, expected, "{backend:?}");
        assert_eq!(got.n_components, reference::cc_count(adj));
    }

    #[test]
    fn multiple_components_all_backends() {
        // Three components: a triangle, a path, an isolated vertex.
        let mut coo = Coo::new(9, 9);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)] {
            coo.push_undirected_edge(a, b).unwrap();
        }
        let adj = coo.to_binary_csr();
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
            Backend::Auto,
        ] {
            check_against_reference(&adj, backend);
        }
    }

    #[test]
    fn random_graphs_match_union_find() {
        for seed in [3u64, 7, 13] {
            let adj = generators::erdos_renyi(120, 0.015, true, seed);
            check_against_reference(&adj, Backend::Bit(TileSize::S8));
            check_against_reference(&adj, Backend::FloatCsr);
        }
    }

    #[test]
    fn fully_connected_graph_is_one_component() {
        let adj = generators::complete(20);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S32));
        let got = connected_components(&m);
        assert_eq!(got.n_components, 1);
        assert!(got.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn edgeless_graph_has_n_components() {
        let adj = Csr::empty(7, 7);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let got = connected_components(&m);
        assert_eq!(got.n_components, 7);
        assert_eq!(got.labels, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn directed_edges_are_treated_as_undirected() {
        // A directed chain still forms a single weak component.
        let mut coo = Coo::new(6, 6);
        for i in 0..5usize {
            coo.push_edge(i + 1, i).unwrap(); // edges point "backwards"
        }
        let adj = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            let got = connected_components(&m);
            assert_eq!(got.n_components, 1, "{backend:?}");
            assert!(got.labels.iter().all(|&l| l == 0));
        }
    }

    /// The mirror pull runs only where `Aᵀ ≠ A`: `iterations` pulls on a
    /// symmetric matrix, `2 · iterations` on the directed chain of
    /// [`directed_edges_are_treated_as_undirected`] (the second fused onto
    /// the first through its `min` accumulator) — with the same labels.
    #[test]
    fn only_an_asymmetric_matrix_pulls_its_transpose() {
        let mut coo = Coo::new(6, 6);
        for i in 0..5usize {
            coo.push_edge(i + 1, i).unwrap();
        }
        let chain = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            for (adj, pulls) in [(&chain, 2), (&chain.symmetrized(), 1)] {
                let m = Matrix::from_csr(adj, backend);
                let before = m.context().stats();
                let got = connected_components(&m);
                let after = m.context().stats();
                assert_eq!(got.labels, vec![0; 6], "{backend:?}");
                let rounds = got.iterations as u64;
                assert_eq!(after.pull_mxv - before.pull_mxv, pulls * rounds);
                assert_eq!(after.fused_mxv - before.fused_mxv, (pulls - 1) * rounds);
            }
        }
    }

    /// A symmetric base of two triangles with one pending edge staged in
    /// one direction only, `1 → 4`: the snapshot is not symmetric, so CC
    /// pulls `Aᵀ` too and finds one component (the forward pull alone
    /// never carries 1's label to 4).
    #[test]
    fn a_one_directional_pending_insert_joins_two_components() {
        let mut coo = Coo::new(6, 6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            coo.push_undirected_edge(a, b).unwrap();
        }
        let adj = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            assert_eq!(connected_components(&m).n_components, 2);
            m.insert_edge(1, 4).unwrap();
            let snap = m.snapshot();
            assert!(!snap.is_symmetric());
            let got = connected_components(&snap);
            assert_eq!(got.n_components, 1, "{backend:?}");
            assert_eq!(got.labels, vec![0; 6]);
        }
    }

    #[test]
    fn converges_quickly_on_long_paths() {
        // FastSV's shortcutting gives logarithmic-style convergence, far
        // fewer rounds than the path length.
        let adj = generators::path(256);
        let m = Matrix::from_csr(&adj, Backend::FloatCsr);
        let got = connected_components(&m);
        assert_eq!(got.n_components, 1);
        assert!(got.iterations <= 20, "took {} rounds", got.iterations);
    }
}
