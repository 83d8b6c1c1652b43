//! Triangle Counting over the arithmetic semiring (§V).
//!
//! Following Azad–Buluç and Wolf (as GraphBLAST does), the triangle count of
//! an undirected simple graph is
//!
//! ```text
//!     #triangles = Σ ( L · Lᵀ ) .* L
//! ```
//!
//! where `L` is an acyclic orientation of the graph — the strictly
//! lower-triangular part of the adjacency matrix, or that part with the
//! vertices relabelled — and `.*` is the element-wise mask.  Entry `(i, j)`
//! of `L · Lᵀ` is the size of the intersection of `L`'s rows `i` and `j`, so
//! the product is asked for as `A · Bᵀ` (`.transpose_b()`) and `Lᵀ` is never
//! built: `L` is all three operands.  They are binary, so on the bit backend
//! the whole computation is one reducing call — the paper fuses the
//! reduction into the `mxm()` the same way: `bmm_bin_bin_sum_masked_nt()`,
//! whose per-tile popcounts are accumulated straight into the global sum.
//!
//! The matrix builds `L` once and keeps it
//! ([`Matrix::triangle_operand`]), as the paper amortizes its one-time
//! conversion (§III-B): every later count skips the copy and the tile count
//! or conversion.  Which orientation it builds depends on one thing it can
//! observe, whether `L` holds tiles under the matrix's kind
//! (`MIN_TILE_FILL`):
//!
//! * **tiles** (the mesh): the index-ordered `L`, whose bands the tile
//!   kernel needs;
//! * **no tiles** (R-MAT's case, and every `FloatCsr` matrix): `L` relabelled
//!   by descending degree, ties by ascending id, as linear-algebra triangle
//!   counters order vertices (Azad–Buluç–Gilbert), so every row holds only
//!   its higher-degree neighbours and those sit in the first few 64-column
//!   words.  A bit matrix counts it as the paper's masked BMM does, AND +
//!   popcount over row words (`kernels::csr_words_masked_count`, the words
//!   packed on the first count and kept beside `L`); the float baseline
//!   counts column indices (`ops::spgemm_masked_count`).
//!
//! Every acyclic orientation holds each triangle exactly once, so the two
//! count the same, on directed input too.

use bitgblas_core::grb::{Matrix, Op};

/// Count the triangles of the undirected graph held by `a`.
///
/// The matrix is expected to be symmetric (an undirected adjacency matrix);
/// self-loops are ignored because only the strictly lower triangle
/// participates.  The first call builds the operand and caches it on the
/// matrix (or on its pending deltas), with, on a bit matrix without tiles,
/// its row words; every later call on the same epoch runs the one reducing
/// product only: the tile kernel, the word count or, on the float baseline,
/// the index count.
pub fn triangle_count(a: &Matrix) -> u64 {
    let ctx = a.context();
    let l = a.triangle_operand();
    let sum = Op::mxm_reduce(&l, &l, &l).transpose_b().run(ctx);
    sum.round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::{ops, Coo, Csr};

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
    /// tile-row sweep splits across workers on a multi-core host.  `L`'s
    /// B2SR-4 and B2SR-8 tiles hold 1.5 and 2.3 bits, so those two backends
    /// count over the CSR, which is also pinned to the merge bare.
    #[test]
    fn matches_reference_on_power_law_graph() {
        let adj = generators::rmat(11, 6, 0.57, 0.19, 0.19, 77).symmetrized();
        let expected = reference::triangle_count(&adj);
        assert!(expected > 0);
        let l = adj.lower_triangle();
        assert_eq!(ops::spgemm_masked_count(&l, &l, &l).unwrap(), expected);
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

    /// `adj` with every self-loop added.
    fn with_self_loops(adj: &Csr) -> Csr {
        let mut coo = Coo::new(adj.nrows(), adj.ncols());
        for (r, c, _) in adj.iter().filter(|&(r, c, _)| r != c) {
            coo.push_edge(r, c).unwrap();
        }
        for i in 0..adj.nrows() {
            coo.push_edge(i, i).unwrap();
        }
        coo.to_binary_csr()
    }

    /// Either operand order counts what the reference counts: the
    /// degree-ranked `L`, the index-ordered `L` (`Matrix::lower_triangle`)
    /// and `triangle_count`, which reads whichever the matrix built — the
    /// index order exactly where that holds tiles.  Symmetric and directed
    /// inputs, self-loops, `n = 0` and `n = 1`, shapes no tile width
    /// divides, a banded graph that holds tiles at every width, on every
    /// backend.  Through pending deltas — a staged triangle, counted by
    /// `triangle_count` and by the product over a pending `L` — the counts
    /// equal a rebuilt matrix's.
    #[test]
    fn either_operand_order_counts_every_triangle_once() {
        use bitgblas_core::delta::EdgeDelta;

        let graphs = [
            Csr::empty(0, 0),
            Csr::empty(1, 1),
            Csr::identity(1),
            with_self_loops(&generators::erdos_renyi(90, 0.06, true, 4)),
            generators::erdos_renyi(77, 0.08, false, 5),
            generators::banded(100, 8, 0.8, 6),
            generators::rmat(9, 8, 0.57, 0.19, 0.19, 7).symmetrized(),
            generators::rmat(9, 8, 0.57, 0.19, 0.19, 8),
        ];
        let mut orders = [false; 2];
        for (g, adj) in graphs.iter().enumerate() {
            let expected = reference::triangle_count(adj);
            let bin = adj.binarized();
            let ranked = bin.degree_ranked_lower_triangle();
            assert_eq!(
                ops::spgemm_masked_count(&ranked, &ranked, &ranked).unwrap(),
                expected
            );
            for backend in backends() {
                let what = format!("graph {g} {backend:?}");
                let m = Matrix::from_csr(adj, backend);
                let l = m.lower_triangle();
                let index = Op::mxm_reduce(&l, &l, &l).transpose_b().run(m.context());
                assert_eq!(index.round() as u64, expected, "{what}");
                assert_eq!(triangle_count(&m), expected, "{what}");
                let operand = m.triangle_operand();
                let tiled = operand.b2sr().is_some();
                orders[usize::from(tiled)] = true;
                let want = if tiled {
                    bin.lower_triangle()
                } else {
                    ranked.clone()
                };
                assert_eq!(operand.csr(), &want, "{what}");
                assert_eq!(operand.resolved_backend(), m.resolved_backend(), "{what}");

                // A triangle on 0, n / 2 and n - 1 staged: through the
                // overlay's operand, and as the product of a pending `L`.
                let n = adj.nrows();
                if n < 3 {
                    continue;
                }
                let log: Vec<EdgeDelta> = [(n / 2, 0), (n - 1, 0), (n - 1, n / 2)]
                    .iter()
                    .flat_map(|&(r, c)| [EdgeDelta::insert(r, c), EdgeDelta::insert(c, r)])
                    .collect();
                m.apply_deltas(&log).unwrap();
                l.apply_deltas(&log.iter().step_by(2).copied().collect::<Vec<_>>())
                    .unwrap();
                let (snap, l) = (m.snapshot(), l.snapshot());
                let rebuilt = Matrix::from_csr(snap.csr(), backend);
                let staged = reference::triangle_count(snap.csr());
                assert!(staged > expected, "{what}: the log closes a triangle");
                assert_eq!(triangle_count(&snap), staged, "{what}");
                assert_eq!(triangle_count(&rebuilt), staged, "{what}");
                assert!(l.overlay().is_some());
                let l_rebuilt = Matrix::from_csr(l.csr(), backend);
                let [pending, built] = [&l, &l_rebuilt]
                    .map(|l| Op::mxm_reduce(l, l, l).transpose_b().run(m.context()));
                assert_eq!(pending.round() as u64, staged, "{what}: pending L");
                assert_eq!(built.to_bits(), pending.to_bits(), "{what}: rebuilt L");
            }
        }
        assert_eq!(orders, [true, true], "both operand orders ran");
    }

    /// The operand is built once per built base and once per overlay: two
    /// counts read one operand, a clone and a snapshot of the same epoch
    /// share it, a new append or a compaction builds a fresh one, and a
    /// count through pending deltas equals a rebuilt matrix's.
    #[test]
    fn the_operand_is_built_once_per_base_and_overlay() {
        use bitgblas_core::delta::EdgeDelta;
        use std::ptr;

        let adj = generators::erdos_renyi(90, 0.06, true, 9);
        let mirrored = |a: usize, b: usize| [EdgeDelta::insert(a, b), EdgeDelta::insert(b, a)];
        let log: Vec<EdgeDelta> = [
            mirrored(1, 2),
            mirrored(2, 3),
            mirrored(1, 3),
            mirrored(5, 40),
        ]
        .concat();
        for backend in backends() {
            let m = Matrix::from_csr(&adj, backend);
            let count = triangle_count(&m);
            let operand = m.triangle_operand();
            assert_eq!(triangle_count(&m), count, "{backend:?}");
            assert!(
                ptr::eq(m.triangle_operand().csr(), operand.csr()),
                "{backend:?}"
            );
            assert!(ptr::eq(m.clone().triangle_operand().csr(), operand.csr()));
            assert!(ptr::eq(
                m.snapshot().triangle_operand().csr(),
                operand.csr()
            ));

            m.apply_deltas(&log).unwrap();
            let snap = m.snapshot();
            let rebuilt = Matrix::from_csr(snap.csr(), backend);
            let pending = triangle_count(&snap);
            assert_eq!(pending, triangle_count(&rebuilt), "{backend:?}");
            assert_eq!(
                pending,
                reference::triangle_count(snap.csr()),
                "{backend:?}"
            );
            assert!(pending > count, "{backend:?}: the log closes a triangle");
            let staged = snap.triangle_operand();
            assert!(!ptr::eq(staged.csr(), operand.csr()));
            assert_eq!(triangle_count(&snap), pending);
            assert!(ptr::eq(snap.triangle_operand().csr(), staged.csr()));
            assert!(ptr::eq(m.snapshot().triangle_operand().csr(), staged.csr()));

            m.insert_edge(7, 8).unwrap();
            let appended = m.snapshot();
            assert!(!ptr::eq(appended.triangle_operand().csr(), staged.csr()));
            m.compact(m.context()).unwrap();
            let compacted = m.snapshot();
            assert!(compacted.overlay().is_none());
            let fresh = compacted.triangle_operand();
            assert!(!ptr::eq(fresh.csr(), appended.triangle_operand().csr()));
            assert_eq!(triangle_count(&compacted), triangle_count(&appended));
        }
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let empty = Matrix::from_csr(&Csr::empty(10, 10), Backend::Bit(TileSize::S8));
        assert_eq!(triangle_count(&empty), 0);
        let pathish = Matrix::from_csr(&generators::path(30), Backend::FloatCsr);
        assert_eq!(triangle_count(&pathish), 0);
    }
}
