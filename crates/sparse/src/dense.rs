//! Dense vectors — the operand/result vectors of the reference kernels.
//!
//! Bit-GraphBLAS keeps frontiers dense (binarized or full-precision), so
//! [`DenseVec`] is the one vector type of this crate.

use std::ops::{Index, IndexMut};

/// A dense `f32` vector.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVec {
    data: Vec<f32>,
}

impl DenseVec {
    /// Vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        DenseVec { data: vec![0.0; n] }
    }

    /// Vector of `n` copies of `value`.
    pub fn filled(n: usize, value: f32) -> Self {
        DenseVec {
            data: vec![value; n],
        }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(data: Vec<f32>) -> Self {
        DenseVec { data }
    }

    /// Indicator vector: 1.0 at the given positions, 0.0 elsewhere.
    pub fn indicator(n: usize, positions: &[usize]) -> Self {
        let mut v = Self::zeros(n);
        for &p in positions {
            v.data[p] = 1.0;
        }
        v
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying slice.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the underlying `Vec`.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&x| x != 0.0).count()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }

    /// Element-wise maximum-norm distance to another vector (used for
    /// PageRank convergence checks).
    pub fn max_abs_diff(&self, other: &DenseVec) -> f32 {
        assert_eq!(self.len(), other.len());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Set every entry to `value`.
    pub fn fill(&mut self, value: f32) {
        self.data.iter_mut().for_each(|x| *x = value);
    }

    /// Scale all entries by `s`.
    pub fn scale(&mut self, s: f32) {
        self.data.iter_mut().for_each(|x| *x *= s);
    }
}

impl Index<usize> for DenseVec {
    type Output = f32;
    fn index(&self, i: usize) -> &f32 {
        &self.data[i]
    }
}

impl IndexMut<usize> for DenseVec {
    fn index_mut(&mut self, i: usize) -> &mut f32 {
        &mut self.data[i]
    }
}

impl From<Vec<f32>> for DenseVec {
    fn from(data: Vec<f32>) -> Self {
        DenseVec { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(DenseVec::zeros(4).as_slice(), &[0.0; 4]);
        assert_eq!(DenseVec::filled(3, 2.5).as_slice(), &[2.5; 3]);
        let ind = DenseVec::indicator(5, &[1, 3]);
        assert_eq!(ind.as_slice(), &[0.0, 1.0, 0.0, 1.0, 0.0]);
        assert_eq!(ind.nnz(), 2);
    }

    #[test]
    fn indexing_and_mutation() {
        let mut v = DenseVec::zeros(3);
        v[1] = 7.0;
        assert_eq!(v[1], 7.0);
        v.fill(1.0);
        assert_eq!(v.sum(), 3.0);
        v.scale(2.0);
        assert_eq!(v.sum(), 6.0);
    }

    #[test]
    fn diff_and_counts() {
        let a = DenseVec::from_vec(vec![1.0, 2.0, 3.0]);
        let b = DenseVec::from_vec(vec![1.5, 2.0, 2.0]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        let c = DenseVec::from_vec(vec![f32::INFINITY, 0.0, 1.0]);
        assert_eq!(c.nnz(), 2); // inf counts as nonzero, 0.0 does not
    }
}
