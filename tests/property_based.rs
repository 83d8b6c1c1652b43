//! Property-based tests (proptest) on the core data structures and kernels:
//! random binary matrices and vectors, checked against the float reference
//! kernels and structural invariants.

use proptest::prelude::*;

use bit_graphblas::core::b2sr::convert::from_csr;
use bit_graphblas::core::b2sr::B2sr;
use bit_graphblas::core::kernels::{
    bmm_bin_bin_sum, bmv_bin_bin_bin_into, bmv_bin_bin_full_masked, bmv_bin_full_full_into,
    pack_vector_tilewise_into,
};
use bit_graphblas::core::{DeltaSnapshot, Semiring};
use bit_graphblas::prelude::*;
use bit_graphblas::sparse::ops;

/// The full-precision pull sweep into a fresh vector of `nrows` entries.
fn pull_full<W: bit_graphblas::bitops::BitWord>(b: &B2sr<W>, x: &[f32], s: Semiring) -> Vec<f32> {
    let mut y = vec![s.identity(); b.n_tile_rows() * b.tile_dim()];
    bmv_bin_full_full_into(b, x, s, &mut y);
    y.truncate(b.nrows());
    y
}

/// Strategy: a random binary square matrix as an edge list.
fn matrix_strategy(max_n: usize, max_edges: usize) -> impl Strategy<Value = Csr> {
    (2usize..max_n).prop_flat_map(move |n| {
        proptest::collection::vec((0..n, 0..n), 0..max_edges).prop_map(move |edges| {
            let mut coo = Coo::new(n, n);
            for (r, c) in edges {
                coo.push_edge(r, c).expect("in bounds");
            }
            coo.to_binary_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// CSR -> B2SR -> CSR is the identity for every tile size.
    #[test]
    fn b2sr_roundtrip_is_identity(csr in matrix_strategy(120, 600)) {
        prop_assert_eq!(&from_csr::<u8>(&csr, 4).to_csr(), &csr);
        prop_assert_eq!(&from_csr::<u8>(&csr, 8).to_csr(), &csr);
        prop_assert_eq!(&from_csr::<u16>(&csr, 16).to_csr(), &csr);
        prop_assert_eq!(&from_csr::<u32>(&csr, 32).to_csr(), &csr);
    }

    /// Transposing twice is the identity, and the transpose matches CSR's —
    /// at every width, the 8×8 `u64` swap and the bit loop alike.
    #[test]
    fn b2sr_transpose_involution(csr in matrix_strategy(100, 500)) {
        for ts in TileSize::ALL {
            let b = B2srMatrix::from_csr(&csr, ts);
            let t = b.transpose();
            prop_assert_eq!(t.to_csr(), csr.transpose());
            prop_assert_eq!(&t, &B2srMatrix::from_csr(&csr.transpose(), ts));
            prop_assert_eq!(t.transpose(), b);
        }
    }

    /// Re-tiling the dirty tile-rows of a mutated matrix and splicing the
    /// clean ones equals converting the merged matrix from scratch, field
    /// for field, at every width — for random logs (duplicates, phantom
    /// deletes and self-loops included) over sizes on both sides of every
    /// tile boundary, on scattered edges with or without a band of width 3.
    /// So does a compaction: its base holds the rebuild's tiles — none where
    /// they would not fill — and a compaction that keeps none counts none.
    #[test]
    fn retile_rows_equals_a_full_conversion(
        size in 0usize..6,
        band in any::<bool>(),
        edges in proptest::collection::vec((0usize..200, 0usize..200), 0..500),
        log in proptest::collection::vec((any::<bool>(), 0usize..200, 0usize..200), 0..60),
    ) {
        let n = [0usize, 1, 5, 63, 65, 200][size];
        let mut coo = Coo::new(n, n);
        for (r, c) in edges.into_iter().filter(|_| n > 0) {
            coo.push_edge(r % n, c % n).expect("in bounds");
        }
        for r in (0..n).filter(|_| band) {
            for c in r.saturating_sub(3)..(r + 4).min(n) {
                coo.push_edge(r, c).expect("in bounds");
            }
        }
        let base = coo.to_binary_csr();
        let log: Vec<EdgeDelta> = log
            .into_iter()
            .filter(|_| n > 0)
            .map(|(insert, r, c)| match insert {
                true => EdgeDelta::insert(r % n, c % n),
                false => EdgeDelta::delete(r % n, c % n),
            })
            .collect();
        let delta = DeltaSnapshot::build(&base, &log);
        let merged = delta.merge_csr(&base, false);
        for ts in TileSize::ALL {
            let old = B2srMatrix::from_csr(&base, ts);
            let (retiled, counts) = B2srMatrix::retile(&merged, ts, Some((&old, delta.dirty_rows())));
            prop_assert_eq!(&retiled, &B2srMatrix::from_csr(&merged, ts));
            prop_assert!(counts.tile_rows_retiled <= delta.dirty_rows().len());
            prop_assert_eq!(counts.tiles_retiled + counts.tiles_spliced, retiled.n_tiles());

            let m = Matrix::from_csr(&base, Backend::Bit(ts));
            m.apply_deltas(&log).unwrap();
            let report = m.compact(m.context()).unwrap();
            let head = m.snapshot();
            prop_assert_eq!(head.b2sr(), Matrix::from_csr(&merged, Backend::Bit(ts)).b2sr());
            let counts = (report.tile_rows_retiled, report.tiles_retiled, report.tiles_spliced);
            match head.b2sr() {
                None => prop_assert_eq!(counts, (0, 0, 0)),
                Some(b) if !log.is_empty() => {
                    prop_assert_eq!(counts.1 + counts.2, b.n_tiles())
                }
                Some(_) => {}
            }
        }
    }

    /// The number of set bits always equals the CSR nnz, and the storage
    /// accounting never reports fewer bytes than the raw tile payload.
    #[test]
    fn b2sr_structural_invariants(csr in matrix_strategy(150, 900)) {
        for ts in TileSize::ALL {
            let b = B2srMatrix::from_csr(&csr, ts);
            prop_assert_eq!(b.nnz() as usize, csr.nnz());
            let tile_payload = b.n_tiles() * ts.bytes_per_tile();
            prop_assert!(b.storage_bytes() >= tile_payload);
            // Tile count can never exceed nnz (every non-empty tile holds >= 1 bit).
            prop_assert!(b.n_tiles() <= csr.nnz().max(1));
        }
    }

    /// The bin/full/full sweep over the arithmetic semiring equals the float SpMV.
    #[test]
    fn bmv_arithmetic_matches_float_spmv(
        csr in matrix_strategy(90, 500),
        seed in 0u64..1000,
    ) {
        let n = csr.ncols();
        let x: Vec<f32> = (0..n).map(|i| ((i as u64 * 31 + seed) % 7) as f32).collect();
        let expected = ops::spmv(&csr, &DenseVec::from_vec(x.clone())).unwrap();
        let b = from_csr::<u8>(&csr, 8);
        let got = pull_full(&b, &x, Semiring::Arithmetic);
        for (g, e) in got.iter().zip(expected.as_slice()) {
            prop_assert!((g - e).abs() < 1e-3, "{} vs {}", g, e);
        }
    }

    /// The Boolean BMV computes exactly the reachability relation.
    #[test]
    fn bmv_boolean_is_reachability(csr in matrix_strategy(80, 400), active in proptest::collection::vec(any::<bool>(), 80)) {
        let n = csr.ncols();
        let x: Vec<f32> = (0..n).map(|i| if *active.get(i).unwrap_or(&false) { 1.0 } else { 0.0 }).collect();
        let b = from_csr::<u32>(&csr, 32);
        let mut xp: Vec<u32> = Vec::new();
        pack_vector_tilewise_into(&x, 32, &mut xp);
        let mut got = vec![0u32; b.n_tile_rows()];
        bmv_bin_bin_bin_into(&b, &xp, &mut got);
        for r in 0..csr.nrows() {
            let expect = csr.row(r).0.iter().any(|&c| x[c] != 0.0);
            prop_assert_eq!(got[r / 32] >> (r % 32) & 1 == 1, expect, "row {}", r);
        }
        // And the counting variant agrees with an explicit count.
        let counts = bmv_bin_bin_full_masked(&b, &xp, None);
        for (r, &cnt) in counts.iter().enumerate() {
            let expect = csr.row(r).0.iter().filter(|&&c| x[c] != 0.0).count() as f32;
            prop_assert_eq!(cnt, expect);
        }
    }

    /// The min-plus BMV equals the float min-plus SpMV on binary weights.
    #[test]
    fn bmv_minplus_matches_float(csr in matrix_strategy(70, 400), src in 0usize..70) {
        let n = csr.ncols();
        let src = src % n;
        let mut x = vec![f32::INFINITY; n];
        x[src] = 0.0;
        let expected = ops::spmv_semiring(&csr, &DenseVec::from_vec(x.clone()), ops::SemiringKind::MinPlus).unwrap();
        let b = from_csr::<u16>(&csr, 16);
        let got = pull_full(&b, &x, Semiring::MinPlus(1.0));
        prop_assert_eq!(got, expected.as_slice().to_vec());
    }

    /// The BMM total sum equals the float SpGEMM total sum.
    #[test]
    fn bmm_sum_matches_float_spgemm(a in matrix_strategy(60, 300), b in matrix_strategy(60, 300)) {
        // Make the dimensions agree by trimming to the smaller n.
        let n = a.nrows().min(b.nrows());
        let a = Csr::from_dense(&sub_dense(&a, n), n, n);
        let b = Csr::from_dense(&sub_dense(&b, n), n, n);
        let expected = ops::reduce_sum(&ops::spgemm(&a, &b).unwrap()) as u64;
        let got = bmm_bin_bin_sum(&from_csr::<u8>(&a, 8), &from_csr::<u8>(&b, 8));
        prop_assert_eq!(got, expected);
    }

    /// BFS levels from the GrB pipeline match the queue-based reference for
    /// every backend.
    #[test]
    fn bfs_matches_reference(csr in matrix_strategy(80, 400), src in 0usize..80) {
        let src = src % csr.nrows();
        let expected = bit_graphblas::algorithms::reference::bfs_levels(&csr, src);
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&csr, backend);
            let got = bfs(&m, src);
            prop_assert_eq!(&got.levels, &expected);
        }
    }

    /// Triangle counting is backend-independent and matches the reference on
    /// symmetrized graphs.
    #[test]
    fn tc_matches_reference(csr in matrix_strategy(60, 350)) {
        let adj = csr.symmetrized().without_diagonal();
        let expected = bit_graphblas::algorithms::reference::triangle_count(&adj);
        for backend in [Backend::Bit(TileSize::S4), Backend::Bit(TileSize::S32), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            prop_assert_eq!(triangle_count(&m), expected);
        }
    }

    /// `Σ mask .* (A · Bᵀ)` asked for with `.transpose_b()` equals the plain
    /// product on the materialised transpose and the float row-merge
    /// reference, for a non-symmetric `b` and an arbitrary mask.
    #[test]
    fn mxm_reduce_transpose_b_matches_transposed_operand(
        a in matrix_strategy(60, 350),
        b in matrix_strategy(60, 350),
        mask in matrix_strategy(60, 350),
    ) {
        // Make the dimensions agree by trimming to the smallest n.
        let n = a.nrows().min(b.nrows()).min(mask.nrows());
        let [a, b, mask] = [a, b, mask].map(|m| Csr::from_dense(&sub_dense(&m, n), n, n));
        let expected = ops::spgemm_masked_sum(&a, &b, &mask).unwrap();
        let ctx = Context::default();
        for backend in [Backend::Bit(TileSize::S4), Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let [a, b, mask] = [&a, &b, &mask].map(|m| Matrix::from_csr(m, backend));
            let by_rows = Op::mxm_reduce(&a, &b, &mask).transpose_b().run(&ctx);
            let plain = Op::mxm_reduce(&a, &b.transpose(), &mask).run(&ctx);
            prop_assert_eq!((by_rows, plain), (expected, expected), "{:?}", backend);
        }
    }
}

/// Dense top-left `n × n` sub-matrix of a CSR (helper for the BMM properties).
fn sub_dense(csr: &Csr, n: usize) -> Vec<f32> {
    let mut d = vec![0.0f32; n * n];
    for (r, c, v) in csr.iter() {
        if r < n && c < n {
            d[r * n + c] = v;
        }
    }
    d
}
