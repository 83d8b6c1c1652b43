//! The GrB-style vector object.
//!
//! Bit-GraphBLAS keeps frontier vectors dense: binarized for Boolean
//! semirings, full-precision for the others (§V).  `Vector` is the
//! full-precision one: it wraps a dense `f32` buffer and provides the
//! frontier-style constructors and queries the algorithms need.  The
//! binarized one is [`NodeBits`](super::NodeBits), which a Boolean traversal
//! on a bit backend keeps from round to round
//! ([`Op::vxm_bits`](super::Op::vxm_bits)); a Boolean product handed a
//! `Vector` packs it on the way in and expands its result on the way out
//! (`ExecCounts::converted_elems` counts that).

use bitgblas_sparse::DenseVec;

use crate::semiring::Semiring;

/// A dense GraphBLAS-style vector of `f32` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: DenseVec,
}

impl Vector {
    /// Vector of `n` zeros.
    pub fn zeros(n: usize) -> Self {
        Vector {
            data: DenseVec::zeros(n),
        }
    }

    /// Vector filled with the identity of the given semiring (`0`, `+∞` or
    /// `-∞`), the "empty" state for that domain.
    pub fn identity(n: usize, semiring: Semiring) -> Self {
        Vector {
            data: DenseVec::filled(n, semiring.identity()),
        }
    }

    /// Indicator vector with `1.0` at `positions`.
    pub fn indicator(n: usize, positions: &[usize]) -> Self {
        Vector {
            data: DenseVec::indicator(n, positions),
        }
    }

    /// Wrap an existing buffer.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Vector {
            data: DenseVec::from_vec(v),
        }
    }

    /// Length of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying slice.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable access to the underlying slice.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data.as_mut_slice()
    }

    /// Consume into a `Vec<f32>`.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_vec()
    }

    /// The value at position `i`.
    pub fn get(&self, i: usize) -> f32 {
        self.data[i]
    }

    /// Set the value at position `i`.
    pub fn set(&mut self, i: usize, v: f32) {
        self.data[i] = v;
    }

    /// Number of nonzero entries.
    pub fn nnz(&self) -> usize {
        self.data.nnz()
    }

    /// Maximum absolute difference to another vector (PageRank convergence).
    pub fn max_abs_diff(&self, other: &Vector) -> f32 {
        self.data.max_abs_diff(&other.data)
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.sum()
    }
}

impl From<Vec<f32>> for Vector {
    fn from(v: Vec<f32>) -> Self {
        Vector::from_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_queries() {
        let z = Vector::zeros(4);
        assert_eq!(z.len(), 4);
        assert_eq!(z.nnz(), 0);
        let inf = Vector::identity(3, Semiring::MinPlus(1.0));
        assert!(inf.as_slice().iter().all(|v| v.is_infinite()));
        let ind = Vector::indicator(5, &[0, 4]);
        assert_eq!(ind.nnz(), 2);
    }

    #[test]
    fn get_set_and_conversion() {
        let mut v = Vector::zeros(3);
        v.set(1, 4.5);
        assert_eq!(v.get(1), 4.5);
        assert_eq!(v.clone().into_vec(), vec![0.0, 4.5, 0.0]);
        let w: Vector = vec![1.0, 2.0].into();
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty());
        assert_eq!(w.sum(), 3.0);
    }
}
