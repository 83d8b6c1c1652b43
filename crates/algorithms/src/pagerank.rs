//! PageRank over the arithmetic semiring (§V).
//!
//! Each iteration multiplies the rank vector by the column-stochastic
//! adjacency matrix.  Because the Bit-GraphBLAS matrix stays binary, the
//! out-degree normalisation cannot be folded into the matrix values; the
//! paper instead divides each vertex's rank by its out-degree before the
//! bin/full/full BMV multiply, then adds the teleport term.
//!
//! Since PR 3 the whole iteration is **one fused expression**: the
//! out-degree normalisation rides along as the product's input scaling, the
//! `α·contrib + teleport + dangling` update is an affine stage folded into
//! the same sweep, and the dangling-mass dot product is a fused
//! chain-reduce that never materialises:
//!
//! ```text
//! dangling = Op::ewise_mult(&rank, &dangling_mask).reduce().run(ctx);
//! rank' = Op::vxm(&rank, a)
//!     .scale_input(&inv_out_degree)
//!     .semiring(Semiring::Arithmetic)
//!     .affine(alpha, teleport + alpha * dangling / n)
//!     .run(ctx);
//! ```
//!
//! Under [`Fusion::NodeAtATime`] the identical expression executes one
//! sweep per node — the baseline the benchmark's `grb.pagerank_unfused_ms`
//! probe and the parity suite compare against.
//!
//! The paper's evaluation fixes the configuration to at most 10 iterations,
//! α = 0.85 and tolerance 1e-9; those are the defaults of
//! [`PageRankConfig`].

use bitgblas_core::grb::{Fusion, Matrix, Op, Vector};
use bitgblas_core::Semiring;

/// PageRank parameters (paper defaults: α = 0.85, 10 iterations, ε = 1e-9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor α.
    pub alpha: f32,
    /// Maximum number of iterations.
    pub max_iterations: usize,
    /// Early-exit tolerance on the max-norm change of the rank vector.
    pub tolerance: f32,
    /// Whether the per-iteration expression may fuse (default: fused).
    /// [`Fusion::NodeAtATime`] is the benchmark/parity baseline.
    pub fusion: Fusion,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            alpha: 0.85,
            max_iterations: 10,
            tolerance: 1e-9,
            fusion: Fusion::Fused,
        }
    }
}

/// The result of a PageRank run.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankResult {
    /// The rank of every vertex (sums to ≈ 1).
    pub ranks: Vec<f32>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Max-norm change of the final iteration.
    pub last_delta: f32,
}

/// Run PageRank on the graph held by `a`.
pub fn pagerank(a: &Matrix, config: &PageRankConfig) -> PageRankResult {
    let n = a.nrows();
    if n == 0 {
        return PageRankResult {
            ranks: Vec::new(),
            iterations: 0,
            last_delta: 0.0,
        };
    }
    // The matrix context's workspace recycles the per-iteration vectors.
    let ctx = a.context();
    let out_deg = a.out_degrees();
    // 1/deg as the product's input scaling; dangling vertices (out-degree 0)
    // scale to zero and redistribute uniformly through the dangling term.
    let inv_deg = Vector::from_vec(
        out_deg
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
            .collect(),
    );
    let dangling_mask = Vector::from_vec(
        out_deg
            .iter()
            .map(|&d| if d == 0 { 1.0 } else { 0.0 })
            .collect(),
    );
    let teleport = (1.0 - config.alpha) / n as f32;

    let mut rank = Vector::from_vec(vec![1.0 / n as f32; n]);
    let mut iterations = 0usize;
    let mut last_delta = f32::INFINITY;

    while iterations < config.max_iterations {
        iterations += 1;

        // Dangling mass: a fused dot product (never materialised).
        let dangling = Op::ewise_mult(&rank, &dangling_mask)
            .fusion(config.fusion)
            .reduce()
            .run(ctx);
        let dangling_share = config.alpha * dangling / n as f32;

        // contrib[v] = Σ_{u : u->v} rank[u] / deg(u), then
        // rank'[v] = α·contrib[v] + teleport + dangling share — one fused
        // sweep: input scaling, arithmetic-semiring pull along the edges
        // and the affine update all happen at the store.  The rank vector
        // is dense, so Direction::Auto resolves to pull.
        let next = Op::vxm(&rank, a)
            .scale_input(&inv_deg)
            .semiring(Semiring::Arithmetic)
            .affine(config.alpha, teleport + dangling_share)
            .fusion(config.fusion)
            .run(ctx);

        last_delta = next.max_abs_diff(&rank);
        ctx.recycle(std::mem::replace(&mut rank, next));
        if last_delta <= config.tolerance {
            break;
        }
    }

    PageRankResult {
        ranks: rank.into_vec(),
        iterations,
        last_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    #[test]
    fn ranks_sum_to_one_on_all_backends() {
        let adj = generators::erdos_renyi(150, 0.03, false, 8);
        for backend in [
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
            Backend::Auto,
        ] {
            let m = Matrix::from_csr(&adj, backend);
            let pr = pagerank(&m, &PageRankConfig::default());
            let total: f32 = pr.ranks.iter().sum();
            assert!((total - 1.0).abs() < 1e-3, "{backend:?}: total {total}");
            assert!(pr.iterations <= 10);
        }
    }

    #[test]
    fn bit_and_float_backends_agree() {
        let adj = generators::rmat(7, 8, 0.57, 0.19, 0.19, 21);
        let config = PageRankConfig {
            max_iterations: 20,
            ..Default::default()
        };
        let float = pagerank(&Matrix::from_csr(&adj, Backend::FloatCsr), &config);
        for ts in TileSize::ALL {
            let bit = pagerank(&Matrix::from_csr(&adj, Backend::Bit(ts)), &config);
            for (i, (b, f)) in bit.ranks.iter().zip(&float.ranks).enumerate() {
                assert!((b - f).abs() < 1e-5, "{ts}: vertex {i}: {b} vs {f}");
            }
        }
    }

    #[test]
    fn fused_and_node_at_a_time_agree_on_every_backend() {
        let adj = generators::rmat(7, 8, 0.57, 0.19, 0.19, 23);
        let fused_cfg = PageRankConfig {
            max_iterations: 15,
            ..Default::default()
        };
        let unfused_cfg = PageRankConfig {
            fusion: Fusion::NodeAtATime,
            ..fused_cfg
        };
        for backend in [
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::FloatCsr,
        ] {
            let m = Matrix::from_csr(&adj, backend);
            let fused = pagerank(&m, &fused_cfg);
            let unfused = pagerank(&m, &unfused_cfg);
            assert_eq!(fused.iterations, unfused.iterations, "{backend:?}");
            for (i, (a, b)) in fused.ranks.iter().zip(&unfused.ranks).enumerate() {
                assert!((a - b).abs() < 1e-6, "{backend:?}: vertex {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn agrees_with_dense_reference() {
        let adj = generators::erdos_renyi(80, 0.05, false, 10);
        let config = PageRankConfig {
            max_iterations: 40,
            tolerance: 0.0,
            ..Default::default()
        };
        let got = pagerank(&Matrix::from_csr(&adj, Backend::Bit(TileSize::S8)), &config);
        let expected = reference::pagerank_dense(&adj, 0.85, 40);
        for (i, (g, e)) in got.ranks.iter().zip(&expected).enumerate() {
            assert!((g - e).abs() < 1e-4, "vertex {i}: {g} vs {e}");
        }
    }

    #[test]
    fn star_hub_has_highest_rank() {
        // Directed star: all leaves point at vertex 0.
        let mut coo = Coo::new(9, 9);
        for i in 1..9usize {
            coo.push_edge(i, 0).unwrap();
        }
        let adj = coo.to_binary_csr();
        let pr = pagerank(
            &Matrix::from_csr(&adj, Backend::Bit(TileSize::S8)),
            &PageRankConfig::default(),
        );
        for i in 1..9 {
            assert!(pr.ranks[0] > pr.ranks[i]);
        }
    }

    #[test]
    fn tolerance_terminates_early_on_fixed_point() {
        // A ring reaches its uniform stationary distribution immediately.
        let adj = generators::cycle(16);
        let config = PageRankConfig {
            max_iterations: 50,
            tolerance: 1e-6,
            ..Default::default()
        };
        let pr = pagerank(&Matrix::from_csr(&adj, Backend::FloatCsr), &config);
        assert!(
            pr.iterations < 50,
            "should converge early, took {}",
            pr.iterations
        );
        let uniform = 1.0 / 16.0;
        for r in &pr.ranks {
            assert!((r - uniform).abs() < 1e-4);
        }
    }

    #[test]
    fn empty_graph() {
        let m = Matrix::from_csr(&bitgblas_sparse::Csr::empty(0, 0), Backend::FloatCsr);
        let pr = pagerank(&m, &PageRankConfig::default());
        assert!(pr.ranks.is_empty());
        assert_eq!(pr.iterations, 0);
    }
}
