//! Triangle Counting over the arithmetic semiring (§V).
//!
//! Following Azad–Buluç and Wolf (as GraphBLAST does), the triangle count of
//! an undirected simple graph is
//!
//! ```text
//!     #triangles = Σ ( L · Lᵀ ) .* L
//! ```
//!
//! where `L` is the strictly lower-triangular part of the adjacency matrix
//! and `.*` is the element-wise mask.  Entry `(i, j)` of `L · Lᵀ` is the
//! size of the intersection of `L`'s rows `i` and `j`, so the product is
//! asked for as `A · Bᵀ` (`.transpose_b()`) and `Lᵀ` is never built: `L` is
//! all three operands.  They are binary, so on the bit backend the whole
//! computation is a single `bmm_bin_bin_sum_masked_nt()` call whose per-tile
//! popcounts are accumulated straight into the global sum — the paper fuses
//! the reduction into the `mxm()` the same way.

use bitgblas_core::grb::{Matrix, Op};

/// Count the triangles of the undirected graph held by `a`.
///
/// The matrix is expected to be symmetric (an undirected adjacency matrix);
/// self-loops are ignored because only the strictly lower triangle
/// participates.
pub fn triangle_count(a: &Matrix) -> u64 {
    let ctx = a.context();
    let l = a.lower_triangle();
    let sum = Op::mxm_reduce(&l, &l, &l).transpose_b().run(ctx);
    sum.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
            Backend::Auto,
        ]
    }

    #[test]
    fn counts_known_graphs() {
        // K4 has 4 triangles, K5 has 10, C5 has none, the Grötzsch graph
        // (mycielskian4) is triangle-free.
        let cases = vec![
            (generators::complete(4), 4u64),
            (generators::complete(5), 10u64),
            (generators::cycle(5), 0u64),
            (generators::mycielskian(4), 0u64),
            (generators::star(12), 0u64),
        ];
        for (adj, expected) in cases {
            for backend in backends() {
                let m = Matrix::from_csr(&adj, backend);
                assert_eq!(triangle_count(&m), expected, "{backend:?}");
            }
        }
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let adj = generators::erdos_renyi(90, 0.06, true, seed);
            let expected = reference::triangle_count(&adj);
            for backend in backends() {
                let m = Matrix::from_csr(&adj, backend);
                assert_eq!(triangle_count(&m), expected, "seed {seed} {backend:?}");
            }
        }
    }

    /// Large enough (≥ 64 tile-rows at every tile size) that the kernel's
    /// tile-row sweep splits across workers on a multi-core host.
    #[test]
    fn matches_reference_on_power_law_graph() {
        let adj = generators::rmat(11, 6, 0.57, 0.19, 0.19, 77).symmetrized();
        let expected = reference::triangle_count(&adj);
        assert!(expected > 0);
        for backend in backends() {
            let m = Matrix::from_csr(&adj, backend);
            assert_eq!(triangle_count(&m), expected, "{backend:?}");
        }
    }

    #[test]
    fn self_loops_do_not_create_triangles() {
        let mut coo = Coo::new(4, 4);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2)] {
            coo.push_undirected_edge(a, b).unwrap();
        }
        for i in 0..4usize {
            coo.push_edge(i, i).unwrap();
        }
        let adj = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            assert_eq!(triangle_count(&m), 1, "{backend:?}");
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = Matrix::from_csr(
            &bitgblas_sparse::Csr::empty(10, 10),
            Backend::Bit(TileSize::S8),
        );
        assert_eq!(triangle_count(&empty), 0);
        let pathish = Matrix::from_csr(&generators::path(30), Backend::FloatCsr);
        assert_eq!(triangle_count(&pathish), 0);
    }
}
