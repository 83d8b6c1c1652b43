//! The GrB-style multi-vector object: `n × k` frontier matrices.
//!
//! A traversal serving many concurrent queries does not need to sweep the
//! adjacency matrix once per query: `k` simultaneous BFS/SSSP frontiers form
//! an `n × k` **frontier matrix**, and one masked matrix-times-multivector
//! product advances all `k` traversals while loading each matrix tile
//! exactly once — the same traffic-amortization argument the paper makes for
//! bit-packing, applied across queries instead of across matrix elements.
//!
//! # Layout
//!
//! A [`MultiVec`] stores its `n × k` entries **node-major** (row-major): the
//! `k` lane values of node `i` are contiguous at `data[i*k .. (i+1)*k]`.
//! This is the layout the batched kernels want — when an edge `(u, v)` is
//! traversed, all `k` lane contributions of `u` are one contiguous read and
//! all `k` lane updates of `v` are one contiguous write.
//!
//! For the Boolean semiring the lanes additionally pack into **lane words**:
//! `k.div_ceil(64)` `u64` words per node, bit `l` of word `l / 64` set iff
//! lane `l` is active.  That packed form is its own type,
//! [`LaneBits`](super::LaneBits), which also owns the conversion both ways;
//! a batched Boolean scatter over it advances up to 64 traversals with a
//! single `OR` per edge (see `kernels::bmm`).
//!
//! Columns convert to and from the single-query [`Vector`] type
//! ([`MultiVec::column`], [`MultiVec::from_columns`]), which is what the
//! parity suite uses to prove column `j` of a batched traversal equals the
//! single-source run from source `j`.

use crate::semiring::Semiring;

use super::vector::Vector;

/// Number of `u64` lane words each node needs to hold `k` lane bits.
#[inline]
pub fn lane_words_per_node(k: usize) -> usize {
    k.div_ceil(64)
}

/// A dense `n × k` multi-vector: `k` parallel lanes (queries) per node.
///
/// See the [module docs](self) for the storage layout.  Construct one lane
/// per traversal source with [`MultiVec::from_sources`]:
///
/// ```
/// use bitgblas_core::grb::MultiVec;
///
/// let f = MultiVec::from_sources(4, &[1, 3]);
/// assert_eq!((f.n_nodes(), f.n_lanes()), (4, 2));
/// assert_eq!(f.get(1, 0), 1.0);
/// assert_eq!(f.get(3, 1), 1.0);
/// assert_eq!(f.column(0).as_slice(), &[0.0, 1.0, 0.0, 0.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVec {
    data: Vec<f32>,
    n: usize,
    k: usize,
}

impl MultiVec {
    /// An `n × k` multi-vector of zeros.
    ///
    /// # Panics
    /// Panics when `k` is zero (a multi-vector carries at least one lane).
    pub fn zeros(n: usize, k: usize) -> Self {
        Self::filled(n, k, 0.0)
    }

    /// An `n × k` multi-vector with every entry set to `fill`.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn filled(n: usize, k: usize, fill: f32) -> Self {
        assert!(k > 0, "a multi-vector needs at least one lane");
        MultiVec {
            data: vec![fill; n * k],
            n,
            k,
        }
    }

    /// An `n × k` multi-vector filled with the identity of the given
    /// semiring (`0`, `+∞` or `-∞`) — the "empty" state for that domain.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn identity(n: usize, k: usize, semiring: Semiring) -> Self {
        Self::filled(n, k, semiring.identity())
    }

    /// The frontier matrix of `sources.len()` traversals: lane `l` is the
    /// indicator of `sources[l]`.
    ///
    /// # Panics
    /// Panics when `sources` is empty or any source is out of range.
    pub fn from_sources(n: usize, sources: &[usize]) -> Self {
        let mut mv = Self::zeros(n, sources.len());
        for (l, &s) in sources.iter().enumerate() {
            assert!(s < n, "source vertex {s} out of range (n = {n})");
            mv.set(s, l, 1.0);
        }
        mv
    }

    /// Wrap an existing flat node-major buffer of length `n * k`.
    ///
    /// # Panics
    /// Panics when `k` is zero or the buffer length is not `n * k`.
    pub fn from_vec(data: Vec<f32>, n: usize, k: usize) -> Self {
        assert!(k > 0, "a multi-vector needs at least one lane");
        assert_eq!(data.len(), n * k, "buffer length must be n * k");
        MultiVec { data, n, k }
    }

    /// Assemble a multi-vector from equal-length column vectors (lane `l` =
    /// `columns[l]`).
    ///
    /// # Panics
    /// Panics when `columns` is empty or the lengths differ.
    pub fn from_columns(columns: &[Vector]) -> Self {
        assert!(
            !columns.is_empty(),
            "a multi-vector needs at least one lane"
        );
        let n = columns[0].len();
        let k = columns.len();
        let mut mv = Self::zeros(n, k);
        for (l, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), n, "all columns must have the same length");
            for (i, &v) in col.as_slice().iter().enumerate() {
                mv.set(i, l, v);
            }
        }
        mv
    }

    /// Number of nodes (rows).
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of lanes (columns / concurrent queries).
    pub fn n_lanes(&self) -> usize {
        self.k
    }

    /// The flat node-major storage (`data[i*k + l]` = node `i`, lane `l`).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat node-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat node-major buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The value of node `i`, lane `l`.
    pub fn get(&self, i: usize, l: usize) -> f32 {
        self.data[i * self.k + l]
    }

    /// Set the value of node `i`, lane `l`.
    pub fn set(&mut self, i: usize, l: usize, v: f32) {
        self.data[i * self.k + l] = v;
    }

    /// Copy lane `l` out as a single-query [`Vector`].
    pub fn column(&self, l: usize) -> Vector {
        assert!(l < self.k, "lane {l} out of range (k = {})", self.k);
        Vector::from_vec((0..self.n).map(|i| self.get(i, l)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grb::expr::shape::{FrontierSize, Shape};

    #[test]
    fn constructors_and_queries() {
        let mv = MultiVec::from_sources(5, &[0, 4, 0]);
        assert_eq!(mv.n_nodes(), 5);
        assert_eq!(mv.n_lanes(), 3);
        assert_eq!(mv.get(0, 0), 1.0);
        assert_eq!(mv.get(0, 2), 1.0);
        assert_eq!(mv.get(4, 1), 1.0);
        assert_eq!(mv.get(4, 0), 0.0);

        let id = MultiVec::identity(3, 2, Semiring::MinPlus(1.0));
        assert!(id.as_slice().iter().all(|v| v.is_infinite()));
    }

    #[test]
    fn columns_round_trip() {
        let a = Vector::from_vec(vec![1.0, 0.0, 3.0]);
        let b = Vector::from_vec(vec![0.0, 2.0, 0.0]);
        let mv = MultiVec::from_columns(&[a.clone(), b.clone()]);
        assert_eq!(mv.column(0), a);
        assert_eq!(mv.column(1), b);
        assert_eq!(mv.as_slice(), &[1.0, 0.0, 0.0, 2.0, 3.0, 0.0]);
    }

    #[test]
    fn frontier_nodes_are_node_granular() {
        let mut mv = MultiVec::zeros(6, 2);
        mv.set(1, 0, 1.0);
        mv.set(1, 1, 1.0);
        mv.set(4, 1, 1.0);
        // The scan replaces whatever the pooled buffer held.
        let mut f = vec![99, 98];
        let size = mv.frontier_into(Semiring::Boolean, FrontierSize::UNBOUNDED, &mut f);
        assert_eq!(f, vec![1, 4]);
        assert_eq!((size.nodes, size.entries), (2, 3));
        // Past a limit it gives up with a prefix: enough to know it pulls.
        let stop = FrontierSize {
            nodes: usize::MAX,
            entries: 1,
        };
        let size = mv.frontier_into(Semiring::Boolean, stop, &mut f);
        assert_eq!((f.as_slice(), size.entries), (&[1][..], 2));
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_are_rejected() {
        let _ = MultiVec::zeros(4, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_is_rejected() {
        let _ = MultiVec::from_sources(4, &[4]);
    }
}
