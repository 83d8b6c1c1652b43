//! Coordinate (triplet) format — the construction format.
//!
//! COO is the natural format for building matrices incrementally (generators,
//! Matrix Market readers).  It is converted to [`crate::Csr`] before any
//! computation.

use crate::error::SparseError;

/// A sparse matrix in coordinate (COO / triplet) format.
///
/// Entries may be pushed in any order and may contain duplicates; duplicates
/// are summed during [`Coo::to_csr`] conversion (the GraphBLAS "dup" build
/// semantics for the arithmetic semiring; for adjacency matrices duplicates
/// simply stay nonzero).
#[derive(Debug, Clone, PartialEq)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f32>,
}

impl Coo {
    /// Create an empty `nrows × ncols` COO matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Create an empty COO matrix with reserved capacity for `nnz` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, nnz: usize) -> Self {
        Coo {
            nrows,
            ncols,
            rows: Vec::with_capacity(nnz),
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
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

    /// Number of stored entries (including any duplicates or explicit zeros).
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Append a single entry.
    pub fn push(&mut self, row: usize, col: usize, val: f32) -> Result<(), SparseError> {
        if row >= self.nrows || col >= self.ncols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(val);
        Ok(())
    }

    /// Append an entry with value `1.0` — convenient for adjacency matrices.
    pub fn push_edge(&mut self, row: usize, col: usize) -> Result<(), SparseError> {
        self.push(row, col, 1.0)
    }

    /// Append both `(row, col)` and `(col, row)` with value `1.0`, building an
    /// undirected (symmetric) adjacency matrix.
    pub fn push_undirected_edge(&mut self, a: usize, b: usize) -> Result<(), SparseError> {
        self.push(a, b, 1.0)?;
        if a != b {
            self.push(b, a, 1.0)?;
        }
        Ok(())
    }

    /// Iterate over the stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Convert to CSR.  Duplicate entries are summed, entries whose summed
    /// value is exactly `0.0` are kept (explicit zeros are preserved so that
    /// binarization decisions stay with the caller).
    pub fn to_csr(&self) -> crate::Csr {
        crate::Csr::from_coo(self)
    }

    /// Convert to CSR, dropping entries whose summed value is `0.0` and
    /// mapping every remaining value to `1.0` — the "binary adjacency matrix"
    /// view used throughout the paper.
    pub fn to_binary_csr(&self) -> crate::Csr {
        let csr = self.to_csr();
        csr.binarized()
    }

    /// Access the raw triplet arrays `(rows, cols, vals)`.
    pub fn raw(&self) -> (&[usize], &[usize], &[f32]) {
        (&self.rows, &self.cols, &self.vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix() {
        let coo = Coo::new(5, 7);
        assert_eq!(coo.nrows(), 5);
        assert_eq!(coo.ncols(), 7);
        assert_eq!(coo.nnz(), 0);
        assert_eq!(coo.iter().count(), 0);
    }

    #[test]
    fn push_and_iterate() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0).unwrap();
        coo.push(2, 2, -1.0).unwrap();
        coo.push_edge(1, 0).unwrap();
        let triplets: Vec<_> = coo.iter().collect();
        assert_eq!(triplets, vec![(0, 1, 2.0), (2, 2, -1.0), (1, 0, 1.0)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = Coo::new(2, 2);
        assert!(matches!(
            coo.push(2, 0, 1.0),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
        assert!(coo.push(0, 5, 1.0).is_err());
        assert_eq!(coo.nnz(), 0);
    }

    #[test]
    fn undirected_edge_adds_both_directions() {
        let mut coo = Coo::new(4, 4);
        coo.push_undirected_edge(1, 3).unwrap();
        coo.push_undirected_edge(2, 2).unwrap(); // self loop added once
        assert_eq!(coo.nnz(), 3);
        let entries: Vec<_> = coo.iter().map(|(r, c, _)| (r, c)).collect();
        assert!(entries.contains(&(1, 3)));
        assert!(entries.contains(&(3, 1)));
        assert!(entries.contains(&(2, 2)));
    }

    #[test]
    fn binary_csr_maps_values_to_one() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 5.0).unwrap();
        coo.push(1, 2, -3.5).unwrap();
        coo.push(2, 1, 0.0).unwrap(); // explicit zero dropped by binarized()
        let csr = coo.to_binary_csr();
        assert_eq!(csr.nnz(), 2);
        assert!(csr.values().iter().all(|&v| v == 1.0));
    }
}
