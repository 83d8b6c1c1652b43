//! Correctness checks, all outside timed spans: results are compared with
//! `bitgblas_algorithms::reference` on a CSR the benchmark maintains itself
//! by replaying the deltas it submitted.

use bitgblas_algorithms::{reference, PprConfig};
use bitgblas_core::delta::DeltaOp;
use bitgblas_core::EdgeDelta;
use bitgblas_serve::{Query, QueryResult};
use bitgblas_sparse::Csr;

/// PageRank and PPR scores must be within this of the dense reference,
/// relative to the largest reference score (scores sum to 1 over the graph,
/// so an absolute 1e-4 would exceed most of them).
pub const RANK_TOLERANCE: f32 = 1e-4;

/// An adjacency structure that applies deltas one at a time, independently
/// of `core::delta`: sorted neighbour lists, last operation wins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeReplay {
    rows: Vec<Vec<usize>>,
    ncols: usize,
}

impl EdgeReplay {
    /// Start from `base` (values are ignored: the graph is binary).
    pub fn new(base: &Csr) -> Self {
        EdgeReplay {
            rows: (0..base.nrows()).map(|r| base.row(r).0.to_vec()).collect(),
            ncols: base.ncols(),
        }
    }

    /// Apply one delta.
    pub fn apply(&mut self, delta: &EdgeDelta) {
        let row = &mut self.rows[delta.row];
        match (row.binary_search(&delta.col), delta.op) {
            (Err(at), DeltaOp::Insert) => row.insert(at, delta.col),
            (Ok(at), DeltaOp::Delete) => {
                row.remove(at);
            }
            _ => {}
        }
    }

    /// The current graph as a binary CSR.
    pub fn to_csr(&self) -> Csr {
        let mut rowptr = Vec::with_capacity(self.rows.len() + 1);
        rowptr.push(0);
        let mut colind = Vec::new();
        for row in &self.rows {
            colind.extend_from_slice(row);
            rowptr.push(colind.len());
        }
        let values = vec![1.0f32; colind.len()];
        Csr::from_raw(self.rows.len(), self.ncols, rowptr, colind, values)
            .expect("sorted, in-range neighbour lists form a valid CSR")
    }
}

/// Whether two binary CSRs hold the same edges.
pub fn same_structure(a: &Csr, b: &Csr) -> bool {
    a.nrows() == b.nrows()
        && a.ncols() == b.ncols()
        && a.rowptr() == b.rowptr()
        && a.colind() == b.colind()
}

/// Whether every score is within [`RANK_TOLERANCE`] of the reference.
pub fn ranks_agree(got: &[f32], want: &[f32]) -> bool {
    let scale = want.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= RANK_TOLERANCE * scale)
}

/// Whether two distance vectors are equal (∞ = unreachable on both sides).
pub fn distances_agree(got: &[f32], want: &[f32]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g == w)
}

/// Check one read ticket's result against the reference on `adj`, the graph
/// as it stood when the ticket's batch was dispatched.
pub fn read_result_agrees(adj: &Csr, query: &Query, result: &QueryResult) -> bool {
    match (query, result) {
        (Query::Bfs { source }, QueryResult::Bfs { levels }) => {
            *levels == reference::bfs_levels(adj, *source)
        }
        (Query::Sssp { source }, QueryResult::Sssp { distances }) => {
            distances_agree(distances, &reference::sssp_distances(adj, *source))
        }
        (Query::Ppr { seed, config }, QueryResult::Ppr { scores }) => {
            let PprConfig {
                alpha, iterations, ..
            } = *config;
            ranks_agree(scores, &reference::ppr(adj, *seed, alpha, iterations))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_sparse::Coo;

    #[test]
    fn replay_applies_last_op_wins_and_ignores_no_ops() {
        let mut coo = Coo::new(4, 4);
        coo.push_edge(0, 1).unwrap();
        coo.push_edge(2, 3).unwrap();
        let base = coo.to_binary_csr();
        let mut r = EdgeReplay::new(&base);
        for d in [
            EdgeDelta::insert(0, 3),
            EdgeDelta::insert(0, 1), // already present
            EdgeDelta::delete(2, 3),
            EdgeDelta::delete(1, 2), // absent
            EdgeDelta::insert(2, 3),
            EdgeDelta::delete(0, 1),
        ] {
            r.apply(&d);
        }
        let got = r.to_csr();
        let mut want = Coo::new(4, 4);
        want.push_edge(0, 3).unwrap();
        want.push_edge(2, 3).unwrap();
        assert!(same_structure(&got, &want.to_binary_csr()));
        assert!(!same_structure(&got, &base));
    }

    #[test]
    fn rank_tolerance_is_relative_to_the_largest_score() {
        let want = [0.5f32, 0.25, 0.25];
        assert!(ranks_agree(&[0.50004, 0.25, 0.25], &want));
        assert!(!ranks_agree(&[0.5001, 0.25, 0.25], &want));
        assert!(!ranks_agree(&[0.5, 0.25], &want));
        assert!(distances_agree(
            &[0.0, f32::INFINITY],
            &[0.0, f32::INFINITY]
        ));
        assert!(!distances_agree(&[0.0, 2.0], &[0.0, f32::INFINITY]));
    }
}
