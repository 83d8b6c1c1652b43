//! Reference full-precision kernels — the cuSPARSE / GraphBLAST stand-ins.
//!
//! Every speedup reported by the paper is *relative to* full-precision CSR
//! kernels: `cusparseScsrmv` / `cusparseScsrgemm` for the kernel plots
//! (Figures 6–7) and GraphBLAST's masked SpMV/SpMSpV for the algorithm tables
//! (Tables VII–IX).  This module implements those baselines from scratch:
//!
//! * [`spmv`] / [`spmv_parallel`] — row-parallel CSR SpMV (`y = A·x`),
//! * [`spmv_semiring`] — SpMV over min-plus / arithmetic semirings for
//!   SSSP/CC/PR baselines,
//! * [`spgemm`] / [`spgemm_parallel`] — Gustavson row-by-row SpGEMM,
//! * [`spgemm_masked_sum`] — masked SpGEMM reduced to a scalar, the baseline
//!   for Triangle Counting, and [`spgemm_masked_count`], its pattern count
//!   by rows (what a CSR-held Triangle Count runs).

use rayon::prelude::*;

use crate::csr::Csr;
use crate::dense::DenseVec;
use crate::error::SparseError;

/// Check that `A` (`m×n`) and `x` (length `n`) are compatible for SpMV.
fn check_spmv_dims(a: &Csr, x_len: usize) -> Result<(), SparseError> {
    if a.ncols() != x_len {
        return Err(SparseError::DimensionMismatch {
            op: "spmv",
            left: (a.nrows(), a.ncols()),
            right: (x_len, 1),
        });
    }
    Ok(())
}

/// Sequential CSR SpMV: `y = A · x` over the arithmetic semiring.
///
/// This is the single-threaded reference used to validate every other kernel.
pub fn spmv(a: &Csr, x: &DenseVec) -> Result<DenseVec, SparseError> {
    check_spmv_dims(a, x.len())?;
    let xs = x.as_slice();
    let mut y = vec![0.0f32; a.nrows()];
    for (r, out) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(r);
        let mut acc = 0.0f32;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * xs[c];
        }
        *out = acc;
    }
    Ok(DenseVec::from_vec(y))
}

/// Row-parallel CSR SpMV — the `cusparseScsrmv` stand-in used as the baseline
/// in the kernel benchmarks.  One Rayon task per chunk of rows mirrors the
/// one-warp-per-row-chunk scheduling of the GPU baseline.
pub fn spmv_parallel(a: &Csr, x: &DenseVec) -> Result<DenseVec, SparseError> {
    check_spmv_dims(a, x.len())?;
    let xs = x.as_slice();
    let mut y = vec![0.0f32; a.nrows()];
    y.par_iter_mut().enumerate().for_each(|(r, out)| {
        let (cols, vals) = a.row(r);
        let mut acc = 0.0f32;
        for (&c, &v) in cols.iter().zip(vals) {
            acc += v * xs[c];
        }
        *out = acc;
    });
    Ok(DenseVec::from_vec(y))
}

/// The semiring selector for [`spmv_semiring`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiringKind {
    /// `(+, ×)` over reals — PageRank, TC.
    Arithmetic,
    /// `(min, +)` with identity `+∞` — SSSP, CC.
    MinPlus,
    /// `(max, ×)` — MIS, graph colouring.
    MaxTimes,
    /// `(|, &)` over booleans encoded as 0.0/1.0 — BFS.
    Boolean,
}

/// CSR SpMV generalized over the semirings of Table IV, used by the baseline
/// (GraphBLAST-like) algorithm implementations.
pub fn spmv_semiring(a: &Csr, x: &DenseVec, kind: SemiringKind) -> Result<DenseVec, SparseError> {
    check_spmv_dims(a, x.len())?;
    let xs = x.as_slice();
    let identity = match kind {
        SemiringKind::Arithmetic | SemiringKind::Boolean => 0.0f32,
        SemiringKind::MinPlus => f32::INFINITY,
        SemiringKind::MaxTimes => f32::NEG_INFINITY,
    };
    let mut y = vec![identity; a.nrows()];
    y.par_iter_mut().enumerate().for_each(|(r, out)| {
        let (cols, vals) = a.row(r);
        let mut acc = identity;
        for (&c, &v) in cols.iter().zip(vals) {
            match kind {
                SemiringKind::Arithmetic => acc += v * xs[c],
                SemiringKind::Boolean => {
                    if v != 0.0 && xs[c] != 0.0 {
                        acc = 1.0;
                    }
                }
                SemiringKind::MinPlus => acc = acc.min(v + xs[c]),
                SemiringKind::MaxTimes => acc = acc.max(v * xs[c]),
            }
        }
        *out = acc;
    });
    Ok(DenseVec::from_vec(y))
}

/// Check SpGEMM operand compatibility.
fn check_spgemm_dims(a: &Csr, b: &Csr) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "spgemm",
            left: (a.nrows(), a.ncols()),
            right: (b.nrows(), b.ncols()),
        });
    }
    Ok(())
}

/// Sequential Gustavson SpGEMM: `C = A · B` over the arithmetic semiring.
pub fn spgemm(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    check_spgemm_dims(a, b)?;
    let rows = gustavson_rows(a, b, 0..a.nrows());
    Ok(assemble_rows(a.nrows(), b.ncols(), rows))
}

/// Row-parallel Gustavson SpGEMM — the `cusparseScsrgemm` stand-in.
pub fn spgemm_parallel(a: &Csr, b: &Csr) -> Result<Csr, SparseError> {
    check_spgemm_dims(a, b)?;
    let rows: Vec<(Vec<usize>, Vec<f32>)> = (0..a.nrows())
        .into_par_iter()
        .map(|r| gustavson_row(a, b, r))
        .collect();
    Ok(assemble_rows(a.nrows(), b.ncols(), rows))
}

fn gustavson_rows(a: &Csr, b: &Csr, range: std::ops::Range<usize>) -> Vec<(Vec<usize>, Vec<f32>)> {
    range.map(|r| gustavson_row(a, b, r)).collect()
}

/// Compute one output row of `A·B` with a dense accumulator (Gustavson).
fn gustavson_row(a: &Csr, b: &Csr, r: usize) -> (Vec<usize>, Vec<f32>) {
    // A dense accumulator plus occupancy markers sized to B's column count;
    // allocated per call to stay thread-safe under Rayon (the allocation cost
    // is part of what the bit kernels avoid, as in the real baseline).
    let mut dense = vec![0.0f32; b.ncols()];
    let mut occupied = vec![false; b.ncols()];
    let mut touched: Vec<usize> = Vec::new();
    let (a_cols, a_vals) = a.row(r);
    for (&k, &av) in a_cols.iter().zip(a_vals) {
        let (b_cols, b_vals) = b.row(k);
        for (&c, &bv) in b_cols.iter().zip(b_vals) {
            if !occupied[c] {
                occupied[c] = true;
                touched.push(c);
            }
            dense[c] += av * bv;
        }
    }
    touched.sort_unstable();
    let vals: Vec<f32> = touched.iter().map(|&c| dense[c]).collect();
    (touched, vals)
}

fn assemble_rows(nrows: usize, ncols: usize, rows: Vec<(Vec<usize>, Vec<f32>)>) -> Csr {
    let mut rowptr = vec![0usize; nrows + 1];
    let mut colind = Vec::new();
    let mut values = Vec::new();
    for (r, (cols, vals)) in rows.into_iter().enumerate() {
        colind.extend_from_slice(&cols);
        values.extend_from_slice(&vals);
        rowptr[r + 1] = colind.len();
    }
    Csr::from_raw(nrows, ncols, rowptr, colind, values)
        .expect("gustavson assembly produces valid CSR")
}

/// Check the operands of a masked `A · Bᵀ` reduction: `a` is `m × p`, `b`
/// (`Bᵀ` by rows) is `q × p`, `mask` is `m × q`.
fn check_masked_dims(op: &'static str, a: &Csr, b: &Csr, mask: &Csr) -> Result<(), SparseError> {
    if a.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch {
            op,
            left: (a.nrows(), a.ncols()),
            right: (b.ncols(), b.nrows()),
        });
    }
    if mask.nrows() != a.nrows() || mask.ncols() != b.nrows() {
        return Err(SparseError::DimensionMismatch {
            op,
            left: (a.nrows(), b.nrows()),
            right: (mask.nrows(), mask.ncols()),
        });
    }
    Ok(())
}

/// Masked SpGEMM reduced to a scalar: `sum(mask .* (A · B))`, counting each
/// product only where the mask has a stored entry.  The second operand is
/// `Bᵀ` stored by rows (`a` is `m × p`, `b` is `q × p`, `mask` is `m × q`):
/// entry `(r, c)` of the product is the dot product of `a`'s row `r` and
/// `b`'s row `c`.  With `a = b = mask = L` this is exactly the GraphBLAS
/// triangle-counting formulation `Σ (L · Lᵀ) .* L` the baseline TC uses.
pub fn spgemm_masked_sum(a: &Csr, b: &Csr, mask: &Csr) -> Result<f64, SparseError> {
    check_masked_dims("spgemm_masked_sum", a, b, mask)?;
    let total: f64 = (0..a.nrows())
        .into_par_iter()
        .map(|r| {
            let (mask_cols, _) = mask.row(r);
            if mask_cols.is_empty() {
                return 0.0f64;
            }
            let (a_cols, a_vals) = a.row(r);
            let mut row_sum = 0.0f64;
            // For each masked output position (r, c), compute the dot product
            // of A's row r and B's column c via merge of sorted index lists.
            for &c in mask_cols {
                // Column c of B is row c of `b` (= Bᵀ): a merge of two rows.
                let (bt_cols, bt_vals) = b.row(c);
                let mut i = 0;
                let mut j = 0;
                while i < a_cols.len() && j < bt_cols.len() {
                    match a_cols[i].cmp(&bt_cols[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            row_sum += (a_vals[i] * bt_vals[j]) as f64;
                            i += 1;
                            j += 1;
                        }
                    }
                }
            }
            row_sum
        })
        .sum();
    Ok(total)
}

/// The pattern count of [`spgemm_masked_sum`]: `Σ_{(r, c) ∈ mask} |a_r ∩ b_c|`
/// over the operands' stored positions, values ignored — the same number
/// for all-ones operands, exactly.  Same shapes: `b` is `Bᵀ` by rows.
///
/// Read by rows with a marker array in place of a merge per mask entry:
/// row `a_r` is stamped into a per-worker `stamp` (`stamp[k] = r` for every
/// `k ∈ a_r`), then every `b_c` with `c ∈ mask_r` is walked adding
/// `stamp[k] == r`, branch-free.  A row is stamped once and rows are
/// distinct, so no reset pass is needed; the stamps are `usize`, like the
/// row ids they hold.  Work is `Σ_r |a_r| + Σ_{(r, c) ∈ mask} |b_c|` against
/// the merge's `Σ_{(r, c) ∈ mask} (|a_r| + |b_c|)`, with no data-dependent
/// branch in the inner loop.
pub fn spgemm_masked_count(a: &Csr, b: &Csr, mask: &Csr) -> Result<u64, SparseError> {
    check_masked_dims("spgemm_masked_count", a, b, mask)?;
    Ok((0..a.nrows())
        .into_par_iter()
        .map_init(
            || vec![usize::MAX; a.ncols()],
            |stamp, r| {
                let (mask_cols, a_cols) = (mask.row(r).0, a.row(r).0);
                if mask_cols.is_empty() || a_cols.is_empty() {
                    return 0u64;
                }
                for &k in a_cols {
                    stamp[k] = r;
                }
                let mut count = 0u64;
                for &c in mask_cols {
                    for &k in b.row(c).0 {
                        count += u64::from(stamp[k] == r);
                    }
                }
                count
            },
        )
        .sum())
}

/// Sum all stored values of a matrix (the reduction step of TC).
pub fn reduce_sum(a: &Csr) -> f64 {
    a.values().iter().map(|&v| v as f64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample_a() -> Csr {
        // [ 1 2 0 ]
        // [ 0 0 3 ]
        // [ 4 0 5 ]
        Csr::from_dense(&[1., 2., 0., 0., 0., 3., 4., 0., 5.], 3, 3)
    }

    fn sample_b() -> Csr {
        // [ 1 0 ]
        // [ 0 1 ]
        // [ 2 2 ]
        Csr::from_dense(&[1., 0., 0., 1., 2., 2.], 3, 2)
    }

    #[test]
    fn spmv_matches_dense_computation() {
        let a = sample_a();
        let x = DenseVec::from_vec(vec![1.0, 2.0, 3.0]);
        let y = spmv(&a, &x).unwrap();
        assert_eq!(y.as_slice(), &[5.0, 9.0, 19.0]);
        let yp = spmv_parallel(&a, &x).unwrap();
        assert_eq!(yp, y);
    }

    #[test]
    fn spmv_dimension_mismatch() {
        let a = sample_a();
        let x = DenseVec::zeros(5);
        assert!(spmv(&a, &x).is_err());
        assert!(spmv_parallel(&a, &x).is_err());
    }

    #[test]
    fn semiring_spmv_minplus() {
        // Distances via one relaxation step from x.
        let a = sample_a();
        let x = DenseVec::from_vec(vec![0.0, f32::INFINITY, 10.0]);
        let y = spmv_semiring(&a, &x, SemiringKind::MinPlus).unwrap();
        // row0: min(1+0, 2+inf) = 1 ; row1: 3+10 = 13 ; row2: min(4+0, 5+10) = 4
        assert_eq!(y.as_slice(), &[1.0, 13.0, 4.0]);
    }

    #[test]
    fn semiring_spmv_boolean_and_maxtimes() {
        let a = sample_a().binarized();
        let x = DenseVec::from_vec(vec![1.0, 0.0, 0.0]);
        let y = spmv_semiring(&a, &x, SemiringKind::Boolean).unwrap();
        assert_eq!(y.as_slice(), &[1.0, 0.0, 1.0]);
        let m = spmv_semiring(
            &sample_a(),
            &DenseVec::filled(3, 1.0),
            SemiringKind::MaxTimes,
        )
        .unwrap();
        assert_eq!(m.as_slice(), &[2.0, 3.0, 5.0]);
    }

    #[test]
    fn spgemm_matches_dense_multiply() {
        let a = sample_a();
        let b = sample_b();
        let c = spgemm(&a, &b).unwrap();
        // Dense reference.
        let ad = a.to_dense();
        let bd = b.to_dense();
        let mut expected = vec![0.0f32; 3 * 2];
        for i in 0..3 {
            for k in 0..3 {
                for j in 0..2 {
                    expected[i * 2 + j] += ad[i * 3 + k] * bd[k * 2 + j];
                }
            }
        }
        assert_eq!(c.to_dense(), expected);
        let cp = spgemm_parallel(&a, &b).unwrap();
        assert_eq!(cp, c);
    }

    #[test]
    fn spgemm_dimension_mismatch() {
        let a = sample_a();
        let bad = Csr::identity(5);
        assert!(spgemm(&a, &bad).is_err());
        assert!(spgemm_parallel(&a, &bad).is_err());
    }

    #[test]
    fn masked_sum_counts_triangles_of_k3() {
        // Complete graph on 3 vertices has exactly 1 triangle.
        let mut coo = Coo::new(3, 3);
        for a in 0..3usize {
            for b in 0..3usize {
                if a != b {
                    coo.push(a, b, 1.0).unwrap();
                }
            }
        }
        let adj = Csr::from_coo(&coo);
        let l = adj.lower_triangle();
        // C = L * L^T masked by L, summed = number of triangles.
        // spgemm_masked_sum treats the second operand as B^T (rows = columns
        // of B), so passing `l` directly gives rows of L = columns of L^T.
        let tri = spgemm_masked_sum(&l, &l, &l).unwrap();
        assert_eq!(tri, 1.0);
        assert_eq!(spgemm_masked_count(&l, &l, &l).unwrap(), 1);
    }

    #[test]
    fn masked_sum_dimension_checks() {
        let a = sample_a();
        assert!(spgemm_masked_sum(&a, &a, &Csr::identity(2)).is_err());
        assert!(spgemm_masked_count(&a, &a, &Csr::identity(2)).is_err());
        assert!(spgemm_masked_count(&a, &sample_b(), &Csr::identity(3)).is_err());
    }

    /// The count reads patterns: on weighted operands it counts the pairs
    /// the merge multiplies, and on their all-ones copies both agree.
    #[test]
    fn masked_count_counts_the_pairs_the_merge_multiplies() {
        let a = sample_a();
        let mask = Csr::from_dense(&[1., 1., 0., 0., 1., 1., 1., 0., 1.], 3, 3);
        // Rows of `a`: {0,1}, {2}, {0,2}; pairs (r,c) in the mask:
        // (0,0) 2, (0,1) 0, (1,1) 1, (1,2) 1, (2,0) 1, (2,2) 2.
        assert_eq!(spgemm_masked_count(&a, &a, &mask).unwrap(), 7);
        let bin = a.binarized();
        assert_eq!(spgemm_masked_sum(&bin, &bin, &mask).unwrap(), 7.0);
    }

    #[test]
    fn masked_sum_takes_a_rectangular_second_operand_by_rows() {
        // A is 2×3, Bᵀ is 4×3, the mask 2×4: every shape differs.
        let mut a = Coo::new(2, 3);
        for &(r, c) in &[(0, 0), (0, 2), (1, 1), (1, 2)] {
            a.push(r, c, 1.0).unwrap();
        }
        let mut bt = Coo::new(4, 3);
        for &(r, c) in &[(0, 0), (0, 2), (1, 1), (3, 0), (3, 1), (3, 2)] {
            bt.push(r, c, 1.0).unwrap();
        }
        let (a, bt) = (Csr::from_coo(&a), Csr::from_coo(&bt));
        let product = spgemm(&a, &bt.transpose()).unwrap();
        let mut mask = Coo::new(2, 4);
        for &(r, c) in &[(0, 0), (0, 3), (1, 1), (1, 2)] {
            mask.push(r, c, 1.0).unwrap();
        }
        let mask = Csr::from_coo(&mask);
        let expected: f64 = mask
            .iter()
            .map(|(r, c, _)| product.get(r, c).unwrap_or(0.0) as f64)
            .sum();
        assert_eq!(expected, 5.0);
        assert_eq!(spgemm_masked_sum(&a, &bt, &mask).unwrap(), expected);
        assert_eq!(spgemm_masked_count(&a, &bt, &mask).unwrap(), 5);
        // The inner dimension is the *column* count of both operands.
        assert!(spgemm_masked_sum(&a, &bt.transpose(), &mask).is_err());
        assert!(spgemm_masked_count(&a, &bt.transpose(), &mask).is_err());
    }

    #[test]
    fn reduce_sum_adds_values() {
        let a = sample_a();
        assert_eq!(reduce_sum(&a), 15.0);
        assert_eq!(reduce_sum(&Csr::empty(3, 3)), 0.0);
    }
}
