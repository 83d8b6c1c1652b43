//! Compressed Sparse Row — the workhorse format and the baseline's storage.
//!
//! The paper's baselines (cuSPARSE `csrmv`/`csrgemm`, GraphBLAST) all operate
//! on 32-bit-float CSR; B2SR is constructed *from* CSR.  This module provides
//! a complete CSR implementation: construction from COO, structural
//! validation, row access, transpose (`csr2csc` analogue), binarization,
//! dense conversion, and helpers used by the tile-extraction step of the
//! CSR→B2SR converter.

use std::cmp::Reverse;

use crate::coo::Coo;
use crate::error::SparseError;

/// A sparse matrix in Compressed Sparse Row format with `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    values: Vec<f32>,
}

impl Csr {
    /// Create an empty `nrows × ncols` matrix (no stored entries).
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Build from raw CSR arrays, validating the structure.
    ///
    /// Requirements checked: `rowptr.len() == nrows + 1`, `rowptr` monotone
    /// non-decreasing starting at 0, `rowptr[nrows] == colind.len() ==
    /// values.len()`, all column indices in range, and column indices sorted
    /// strictly increasing within each row.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, SparseError> {
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::MalformedStructure(format!(
                "rowptr has length {}, expected {}",
                rowptr.len(),
                nrows + 1
            )));
        }
        if rowptr[0] != 0 {
            return Err(SparseError::MalformedStructure(
                "rowptr[0] must be 0".into(),
            ));
        }
        if colind.len() != values.len() {
            return Err(SparseError::MalformedStructure(format!(
                "colind ({}) and values ({}) have different lengths",
                colind.len(),
                values.len()
            )));
        }
        if *rowptr.last().unwrap() != colind.len() {
            return Err(SparseError::MalformedStructure(format!(
                "rowptr[nrows] = {} but there are {} stored entries",
                rowptr.last().unwrap(),
                colind.len()
            )));
        }
        for r in 0..nrows {
            if rowptr[r] > rowptr[r + 1] {
                return Err(SparseError::MalformedStructure(format!(
                    "rowptr is not monotone at row {r}"
                )));
            }
            let row = &colind[rowptr[r]..rowptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::MalformedStructure(format!(
                        "column indices not strictly increasing in row {r}"
                    )));
                }
            }
            if let Some(&c) = row.last() {
                if c >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        nrows,
                        ncols,
                    });
                }
            }
        }
        Ok(Csr {
            nrows,
            ncols,
            rowptr,
            colind,
            values,
        })
    }

    /// Build from a COO matrix, summing duplicate entries and sorting column
    /// indices within each row.
    pub fn from_coo(coo: &Coo) -> Self {
        Self::try_from_coo(coo).unwrap_or_else(|e| panic!("{e}"))
    }

    /// As [`Csr::from_coo`], but a row count whose row pointer cannot be
    /// allocated is an error rather than an overflow panic or an allocation
    /// abort: a read matrix's dimensions come from outside.
    pub(crate) fn try_from_coo(coo: &Coo) -> Result<Self, SparseError> {
        let nrows = coo.nrows();
        let ncols = coo.ncols();
        let (rows, cols, vals) = coo.raw();

        // Counting sort by row.
        let mut rowptr = zeroed_rowptr(nrows)?;
        for &r in rows {
            rowptr[r + 1] += 1;
        }
        for i in 0..nrows {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = zeroed_rowptr(nrows)?;
        next.copy_from_slice(&rowptr);
        let nnz = rows.len();
        let mut colind = vec![0usize; nnz];
        let mut values = vec![0f32; nnz];
        for i in 0..nnz {
            let slot = next[rows[i]];
            colind[slot] = cols[i];
            values[slot] = vals[i];
            next[rows[i]] += 1;
        }

        // Sort within each row and merge duplicates.
        let mut out_colind = Vec::with_capacity(nnz);
        let mut out_values = Vec::with_capacity(nnz);
        let mut out_rowptr = zeroed_rowptr(nrows)?;
        let mut scratch: Vec<(usize, f32)> = Vec::new();
        for r in 0..nrows {
            scratch.clear();
            scratch.extend(
                colind[rowptr[r]..rowptr[r + 1]]
                    .iter()
                    .copied()
                    .zip(values[rowptr[r]..rowptr[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_colind.push(c);
                out_values.push(v);
                i = j;
            }
            out_rowptr[r + 1] = out_colind.len();
        }

        Ok(Csr {
            nrows,
            ncols,
            rowptr: out_rowptr,
            colind: out_colind,
            values: out_values,
        })
    }

    /// Build a dense matrix (row-major `nrows × ncols` slice) into CSR,
    /// storing every nonzero element.
    pub fn from_dense(dense: &[f32], nrows: usize, ncols: usize) -> Self {
        assert_eq!(dense.len(), nrows * ncols);
        let mut rowptr = vec![0usize; nrows + 1];
        let mut colind = Vec::new();
        let mut values = Vec::new();
        for r in 0..nrows {
            for c in 0..ncols {
                let v = dense[r * ncols + c];
                if v != 0.0 {
                    colind.push(c);
                    values.push(v);
                }
            }
            rowptr[r + 1] = colind.len();
        }
        Csr {
            nrows,
            ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// Identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            rowptr: (0..=n).collect(),
            colind: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Nonzero density `nnz / (nrows * ncols)`, the x-axis of Figures 6 and 7.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// The row-pointer array (`nrows + 1` entries).
    pub fn rowptr(&self) -> &[usize] {
        &self.rowptr
    }

    /// The column-index array (`nnz` entries).
    pub fn colind(&self) -> &[usize] {
        &self.colind
    }

    /// The value array (`nnz` entries).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Mutable access to the values (structure is immutable).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// Column indices and values of row `r`.
    pub fn row(&self, r: usize) -> (&[usize], &[f32]) {
        let range = self.rowptr[r]..self.rowptr[r + 1];
        (&self.colind[range.clone()], &self.values[range])
    }

    /// Number of stored entries in row `r`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.rowptr[r + 1] - self.rowptr[r]
    }

    /// Value at `(r, c)` if stored.
    pub fn get(&self, r: usize, c: usize) -> Option<f32> {
        let (cols, vals) = self.row(r);
        cols.binary_search(&c).ok().map(|i| vals[i])
    }

    /// Iterate over all stored entries in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Out-degree of every row (used by PageRank's column-stochastic scaling).
    pub fn out_degrees(&self) -> Vec<usize> {
        (0..self.nrows).map(|r| self.row_nnz(r)).collect()
    }

    /// Storage footprint in bytes of the CSR arrays, assuming 4-byte integers
    /// for `rowptr`/`colind` and 4-byte floats — the "CSR size" denominator of
    /// the paper's compression ratio.
    pub fn storage_bytes(&self) -> usize {
        4 * (self.rowptr.len() + self.colind.len() + self.values.len())
    }

    /// A copy with every stored value replaced by `1.0`, dropping explicit
    /// zeros: the binary adjacency-matrix view.
    pub fn binarized(&self) -> Csr {
        let mut rowptr = vec![0usize; self.nrows + 1];
        let mut colind = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v != 0.0 {
                    colind.push(c);
                    values.push(1.0);
                }
            }
            rowptr[r + 1] = colind.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// True if every stored value equals `1.0` (a homogeneous / binary graph).
    pub fn is_binary(&self) -> bool {
        self.values.iter().all(|&v| v == 1.0)
    }

    /// Transpose into a new CSR matrix (`A^T` stored row-major) — the
    /// stand-in for the paper's use of `cusparseScsr2csc()`.
    pub fn transpose(&self) -> Csr {
        let mut rowptr = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            rowptr[c + 1] += 1;
        }
        for i in 0..self.ncols {
            rowptr[i + 1] += rowptr[i];
        }
        let mut next = rowptr.clone();
        let mut colind = vec![0usize; self.nnz()];
        let mut values = vec![0f32; self.nnz()];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c];
                colind[slot] = r;
                values[slot] = v;
                next[c] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr,
            colind,
            values,
        }
    }

    /// True iff the matrix equals its [`transpose`](Csr::transpose), values
    /// included: square, and every stored `(r, c, v)` has a stored `(c, r,
    /// v)`.  One pass over the entries in row-major order with a cursor per
    /// row: the mirrors `(c, r)` of a row-major walk arrive in ascending `r`
    /// for each `c`, so each must be the next unconsumed entry of row `c`.
    /// Every match consumes a distinct entry, so `nnz` matches consume them
    /// all.  Stops at the first entry without its mirror.
    pub fn is_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let mut cursor = self.rowptr[..self.nrows].to_vec();
        (0..self.nrows).all(|r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals).all(|(&c, &v)| {
                let at = cursor[c];
                let matched =
                    at < self.rowptr[c + 1] && self.colind[at] == r && self.values[at] == v;
                cursor[c] += 1;
                matched
            })
        })
    }

    /// Strictly lower-triangular part (`r > c`), used by Triangle Counting.
    pub fn lower_triangle(&self) -> Csr {
        let mut rowptr = vec![0usize; self.nrows + 1];
        let mut colind = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c < r {
                    colind.push(c);
                    values.push(v);
                }
            }
            rowptr[r + 1] = colind.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// The strictly lower triangle in degree order: the undirected graph
    /// whose edges are this square matrix's strictly lower entries `{r, c}`
    /// (`c < r`), its vertices relabelled by descending degree in that
    /// graph, ties by ascending id (the hubs get the smallest labels), each
    /// edge stored once, in the row of its higher-labelled end.  Binary
    /// (every value `1.0`).  Any acyclic orientation of a graph holds each
    /// of its triangles once, as `i > j > k`, so Triangle Counting's
    /// `Σ (L·Lᵀ) .* L` over this `L` counts what it counts over
    /// [`lower_triangle`](Csr::lower_triangle) — while every row holds only
    /// the neighbours of higher degree, packed into the first few 64-column
    /// words, so a row-word count ANDs few words per row.
    ///
    /// Two counting sorts, `O(nnz + n log n)`: the edges are bucketed by
    /// their lower end, then scattered to their higher end's row in that
    /// order, so every row comes out ascending.  The buckets are the one
    /// copy of the edges alive beside the result.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn degree_ranked_lower_triangle(&self) -> Csr {
        assert_eq!(
            self.nrows, self.ncols,
            "a vertex order needs a square matrix"
        );
        let n = self.nrows;
        let mut degree = vec![0usize; n];
        self.for_each_lower(|r, c| {
            degree[r] += 1;
            degree[c] += 1;
        });
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&v| (Reverse(degree[v]), v));
        let mut rank = degree;
        for (k, &v) in order.iter().enumerate() {
            rank[v] = k;
        }
        drop(order);
        // Every edge as (higher rank, lower rank).
        let ranked = |r: usize, c: usize| (rank[r].max(rank[c]), rank[r].min(rank[c]));
        let mut rowptr = vec![0usize; n + 1];
        let mut lowptr = vec![0usize; n + 1];
        self.for_each_lower(|r, c| {
            let (hi, lo) = ranked(r, c);
            rowptr[hi + 1] += 1;
            lowptr[lo + 1] += 1;
        });
        for i in 0..n {
            rowptr[i + 1] += rowptr[i];
            lowptr[i + 1] += lowptr[i];
        }
        let nnz = rowptr[n];
        let mut highs = vec![0usize; nnz];
        let mut next = lowptr.clone();
        self.for_each_lower(|r, c| {
            let (hi, lo) = ranked(r, c);
            highs[next[lo]] = hi;
            next[lo] += 1;
        });
        let mut colind = vec![0usize; nnz];
        next.copy_from_slice(&rowptr);
        for lo in 0..n {
            for &hi in &highs[lowptr[lo]..lowptr[lo + 1]] {
                colind[next[hi]] = lo;
                next[hi] += 1;
            }
        }
        drop(highs);
        Csr {
            nrows: n,
            ncols: n,
            rowptr,
            colind,
            values: vec![1.0; nnz],
        }
    }

    /// Call `f(r, c)` for every stored entry of the strictly lower
    /// triangle (`c < r`), rows ascending.
    fn for_each_lower(&self, mut f: impl FnMut(usize, usize)) {
        for r in 0..self.nrows {
            let cols = self.row(r).0;
            for &c in &cols[..cols.partition_point(|&c| c < r)] {
                f(r, c);
            }
        }
    }

    /// A copy without diagonal entries.
    pub fn without_diagonal(&self) -> Csr {
        let mut rowptr = vec![0usize; self.nrows + 1];
        let mut colind = Vec::new();
        let mut values = Vec::new();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if c != r {
                    colind.push(c);
                    values.push(v);
                }
            }
            rowptr[r + 1] = colind.len();
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// Symmetrize: `A ∨ A^T` with binary values — turns a directed adjacency
    /// matrix into an undirected one.
    pub fn symmetrized(&self) -> Csr {
        let t = self.transpose();
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz() * 2);
        for (r, c, _) in self.iter() {
            coo.push(r, c, 1.0).expect("indices already validated");
        }
        for (r, c, _) in t.iter() {
            coo.push(r, c, 1.0).expect("indices already validated");
        }
        Csr::from_coo(&coo).binarized()
    }

    /// Expand to a dense row-major matrix (tests and small examples only).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut dense = vec![0.0f32; self.nrows * self.ncols];
        for (r, c, v) in self.iter() {
            dense[r * self.ncols + c] = v;
        }
        dense
    }
}

/// A zeroed row pointer of `nrows + 1` entries, or an error when that
/// length overflows or cannot be allocated.
fn zeroed_rowptr(nrows: usize) -> Result<Vec<usize>, SparseError> {
    let too_large = || {
        SparseError::MalformedStructure(format!(
            "a {nrows}-row matrix needs a row pointer larger than can be allocated"
        ))
    };
    let len = nrows.checked_add(1).ok_or_else(too_large)?;
    let mut rowptr = Vec::new();
    rowptr.try_reserve_exact(len).map_err(|_| too_large())?;
    rowptr.resize(len, 0);
    Ok(rowptr)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // 4x4:
        // [ 1 0 2 0 ]
        // [ 0 0 0 3 ]
        // [ 4 5 0 0 ]
        // [ 0 0 0 6 ]
        let mut coo = Coo::new(4, 4);
        for &(r, c, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 3, 3.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
            (3, 3, 6.0),
        ] {
            coo.push(r, c, v).unwrap();
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_sorts_and_counts() {
        let a = small();
        assert_eq!(a.nnz(), 6);
        assert_eq!(a.rowptr(), &[0, 2, 3, 5, 6]);
        assert_eq!(a.row(0), (&[0usize, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(a.row(2), (&[0usize, 1][..], &[4.0f32, 5.0][..]));
        assert_eq!(a.get(1, 3), Some(3.0));
        assert_eq!(a.get(1, 0), None);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.5).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        let a = Csr::from_coo(&coo);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.get(0, 1), Some(4.0));
    }

    #[test]
    fn from_raw_validation() {
        assert!(Csr::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // wrong rowptr length
        assert!(Csr::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_err());
        // non-monotone
        assert!(Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // unsorted columns in a row
        assert!(Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]).is_err());
        // column out of range
        assert!(Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // nnz mismatch
        assert!(Csr::from_raw(1, 2, vec![0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let a = small();
        let dense = a.to_dense();
        let back = Csr::from_dense(&dense, 4, 4);
        assert_eq!(a, back);
    }

    #[test]
    fn transpose_is_involution_and_correct() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.get(3, 1), Some(3.0));
        assert_eq!(t.get(0, 2), Some(4.0));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn identity_and_degrees() {
        let i = Csr::identity(5);
        assert_eq!(i.nnz(), 5);
        assert!(i.is_binary());
        assert_eq!(i.out_degrees(), vec![1; 5]);
        let a = small();
        assert_eq!(a.out_degrees(), vec![2, 1, 2, 1]);
    }

    #[test]
    fn triangles_and_diagonal() {
        let a = small();
        let lower = a.lower_triangle();
        assert_eq!(lower.nnz(), 2); // (2,0) and (2,1)
        let nodiag = a.without_diagonal();
        assert_eq!(nodiag.nnz(), 4);
    }

    /// The degree-ranked triangle is a valid binary CSR (rows strictly
    /// ascending, `from_raw`'s checks), strictly lower, and holds the same
    /// undirected edges as the strictly lower triangle under the relabel by
    /// descending degree, ties by ascending id — on symmetric and directed
    /// inputs, self-loops included, and on the empty matrix.  A star's hub
    /// is labelled 0 wherever it sits, so every edge lands in column 0.
    #[test]
    fn degree_ranked_lower_triangle_relabels_the_lower_edges() {
        for (n, mirrored, seed) in [(0, true, 1), (1, true, 1), (37, true, 2), (50, false, 3)] {
            let a = if n == 0 {
                Csr::empty(0, 0)
            } else {
                random(n, n, 4 * n, mirrored, seed)
            };
            let l = a.lower_triangle();
            let ranked = a.degree_ranked_lower_triangle();
            let (rowptr, colind) = (ranked.rowptr.clone(), ranked.colind.clone());
            let valid = Csr::from_raw(n, n, rowptr, colind, ranked.values.clone()).unwrap();
            assert_eq!(valid, ranked);
            assert!(ranked.is_binary() && ranked.iter().all(|(r, c, _)| c < r));
            let mut degree = vec![0usize; n];
            for (r, c, _) in l.iter() {
                degree[r] += 1;
                degree[c] += 1;
            }
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&u, &v| degree[v].cmp(&degree[u]).then(u.cmp(&v)));
            let rank = |v: usize| order.iter().position(|&u| u == v).unwrap();
            let mut relabelled: Vec<(usize, usize)> = l
                .iter()
                .map(|(r, c, _)| (rank(r).max(rank(c)), rank(r).min(rank(c))))
                .collect();
            relabelled.sort_unstable();
            let stored: Vec<(usize, usize)> = ranked.iter().map(|(r, c, _)| (r, c)).collect();
            assert_eq!(stored, relabelled, "n = {n}");
        }
        // A star centred on vertex 5: the hub ranks first, and the leaves
        // keep their id order behind it.
        let mut star = Coo::new(9, 9);
        for leaf in (0..9).filter(|&v| v != 5) {
            star.push(5, leaf, 1.0).unwrap();
            star.push(leaf, 5, 1.0).unwrap();
        }
        let ranked = Csr::from_coo(&star).degree_ranked_lower_triangle();
        let stored: Vec<(usize, usize)> = ranked.iter().map(|(r, c, _)| (r, c)).collect();
        assert_eq!(stored, (1..9).map(|r| (r, 0)).collect::<Vec<_>>());
    }

    #[test]
    fn symmetrized_is_symmetric_binary() {
        let a = small();
        let s = a.symmetrized();
        assert!(s.is_binary());
        for (r, c, _) in s.iter() {
            assert_eq!(s.get(c, r), Some(1.0), "missing mirror of ({r},{c})");
        }
    }

    /// `edges` random weighted entries of an `nrows × ncols` matrix, and the
    /// same entries mirrored (weights kept) when `mirrored`.
    fn random(nrows: usize, ncols: usize, edges: usize, mirrored: bool, seed: u64) -> Csr {
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut coo = Coo::new(nrows, ncols);
        for _ in 0..edges {
            let (r, c) = (next() as usize % nrows, next() as usize % ncols);
            let v = (next() % 5) as f32 + 0.5;
            coo.push(r, c, v).unwrap();
            if mirrored && r != c {
                coo.push(c, r, v).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    /// The cursor pass answers what `*a == a.transpose()` answers, values
    /// compared too, on every shape the pass could get wrong.
    #[test]
    fn is_symmetric_equals_comparing_with_the_transpose() {
        let mut cases = vec![
            small(),
            small().symmetrized(),
            Csr::empty(0, 0),
            Csr::empty(5, 5),
            Csr::identity(6),
            random(7, 11, 30, false, 3),
            random(11, 7, 30, false, 4),
            random(9, 9, 0, false, 5),
        ];
        for seed in 1..=12 {
            cases.push(random(40, 40, 90, seed % 2 == 0, seed));
        }
        // A symmetric matrix whose one mirrored weight differs.
        let mut weights = random(30, 30, 60, true, 21);
        let last = weights.nnz() - 1;
        weights.values_mut()[last] += 1.0;
        cases.push(weights);
        // A mirror missing from the last row only.
        let mut coo = Coo::new(8, 8);
        for (r, c) in [(0, 7), (7, 0), (2, 5), (5, 2), (3, 6)] {
            coo.push_edge(r, c).unwrap();
        }
        cases.push(coo.to_binary_csr());
        let mut coo = Coo::new(8, 8);
        for (r, c) in [(1, 4), (4, 1), (7, 6)] {
            coo.push_edge(r, c).unwrap();
        }
        cases.push(coo.to_binary_csr());
        // A directed cycle: every in-degree equals the out-degree.
        let mut coo = Coo::new(6, 6);
        for i in 0..6 {
            coo.push_edge(i, (i + 1) % 6).unwrap();
        }
        cases.push(coo.to_binary_csr());

        for (i, a) in cases.iter().enumerate() {
            assert_eq!(a.is_symmetric(), *a == a.transpose(), "case {i}: {a:?}");
        }
        let symmetric = cases.iter().filter(|a| a.is_symmetric()).count();
        assert_eq!((symmetric, cases.len() - symmetric), (11, 13));
        assert!(Csr::empty(0, 0).is_symmetric() && !Csr::empty(3, 4).is_symmetric());
    }

    #[test]
    fn binarized_drops_explicit_zeros() {
        let a = Csr::from_raw(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![0.0, 2.0, -1.0]).unwrap();
        let b = a.binarized();
        assert_eq!(b.nnz(), 2);
        assert!(b.is_binary());
        assert_eq!(b.get(0, 0), None);
    }

    #[test]
    fn density_and_storage() {
        let a = small();
        assert!((a.density() - 6.0 / 16.0).abs() < 1e-12);
        assert_eq!(a.storage_bytes(), 4 * (5 + 6 + 6));
        assert_eq!(Csr::empty(0, 0).density(), 0.0);
    }

    #[test]
    fn iter_visits_all_entries_in_order() {
        let a = small();
        let entries: Vec<_> = a.iter().collect();
        assert_eq!(entries.len(), 6);
        assert!(entries.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
