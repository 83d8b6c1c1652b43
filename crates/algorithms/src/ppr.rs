//! Personalized PageRank — the serving layer's flagship batched query.
//!
//! Plain PageRank teleports uniformly; **personalized** PageRank (PPR)
//! teleports back to a single seed vertex, so the stationary distribution
//! measures proximity *to that seed* — the "people you may know" /
//! related-content primitive a graph service answers millions of times with
//! different seeds.  Each seed is an independent query over the *same*
//! adjacency matrix, which makes PPR a natural [`MultiVec`] workload: `k`
//! personalization lanes advance through one batched sweep per iteration
//! that loads each adjacency tile once (the same traffic-amortization
//! argument the paper makes for bit-packing, applied across queries).
//!
//! Like the PageRank module, the per-iteration update rides the `Op::mxm`
//! expression fusion: the out-degree normalisation is the product's input
//! scaling, the damping is an affine stage, and the per-lane teleport (a
//! sparse `n × k` multi-vector holding each lane's seed mass) folds in as an
//! element-wise stage — one fused sweep per iteration:
//!
//! ```text
//! rank' = Op::mxm(&a, &rank)
//!     .transpose()                       // rank'ᵥ = Σ_{u→v} rankᵤ / deg(u)
//!     .scale_input(&inv_out_degree)
//!     .semiring(Semiring::Arithmetic)
//!     .affine(alpha, 0.0)                // damp
//!     .then_ewise(BinaryOp::Plus, &teleport)  // per-lane seed mass
//!     .run(ctx)
//! ```
//!
//! # Fixed iteration count (batch-invariant execution)
//!
//! PPR runs a **fixed** number of power iterations with no early-exit
//! tolerance ([`PprConfig::iterations`]).  This is deliberate: the serving
//! layer coalesces arbitrary arrivals into one batch, and a tolerance-based
//! exit would make each lane's arithmetic depend on *which other lanes* it
//! was batched with (converged lanes would keep iterating until the slowest
//! lane finishes, drifting past their standalone fixpoint).  With a fixed
//! count every lane performs exactly the same floating-point work whatever
//! the batch composition, so a coalesced query is bit-identical to the same
//! query run standalone — the parity guarantee `bitgblas-serve` proptests.
//!
//! Dangling mass (rank sitting on out-degree-0 vertices) returns to each
//! lane's own seed, keeping every lane's mass at exactly 1 and the teleport
//! personalized rather than uniform.

use bitgblas_core::grb::{Direction, Fusion, GrbError, Matrix, MultiVec, Op};
use bitgblas_core::{BinaryOp, Semiring};

use crate::validate::{check_batch_nonempty, check_sources};

/// Personalized PageRank parameters (α = 0.85, 10 power iterations).
///
/// There is no early-exit tolerance — see the [module docs](self) for why a
/// fixed iteration count is what makes batched execution bit-identical to
/// standalone execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PprConfig {
    /// Damping factor α (teleport probability is `1 - α`).
    pub alpha: f32,
    /// Exact number of power iterations executed.
    pub iterations: usize,
    /// Whether the per-iteration expression may fuse (default: fused).
    /// [`Fusion::NodeAtATime`] is the benchmark/parity baseline.
    pub fusion: Fusion,
}

impl Default for PprConfig {
    fn default() -> Self {
        PprConfig {
            alpha: 0.85,
            iterations: 10,
            fusion: Fusion::Fused,
        }
    }
}

/// The result of a single-seed PPR run.
#[derive(Debug, Clone, PartialEq)]
pub struct PprResult {
    /// `scores[v]` = stationary probability of vertex `v` under the
    /// seed-teleporting random walk (sums to ≈ 1).
    pub scores: Vec<f32>,
    /// Number of power iterations executed (always
    /// [`PprConfig::iterations`]).
    pub iterations: usize,
}

/// The result of a batched multi-seed PPR run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPprResult {
    /// Flat node-major `n × k` score matrix: `scores[v*k + l]` = the PPR
    /// score of vertex `v` personalized to seed `l`.  Column `l` equals
    /// [`ppr`] from `seeds[l]` bit-for-bit (the parity suite proves it).
    pub scores: Vec<f32>,
    /// Number of personalization lanes in the batch (`k`).
    pub n_seeds: usize,
    /// Number of power iterations executed.
    pub iterations: usize,
}

impl MultiPprResult {
    /// The score of vertex `v` personalized to seed lane `l`.
    pub fn score(&self, v: usize, l: usize) -> f32 {
        self.scores[v * self.n_seeds + l]
    }

    /// Copy lane `l` out as a plain score vector.
    pub fn column(&self, l: usize) -> Vec<f32> {
        assert!(
            l < self.n_seeds,
            "lane {l} out of range (k = {})",
            self.n_seeds
        );
        (0..self.scores.len() / self.n_seeds)
            .map(|v| self.score(v, l))
            .collect()
    }
}

/// Run personalized PageRank from a single `seed` vertex.
///
/// Executes through the batched engine with `k = 1`, so a standalone query
/// and a coalesced one take the same code path — the serving layer's parity
/// baseline.
///
/// # Panics
/// Panics if `seed` is out of range.
pub fn ppr(a: &Matrix, seed: usize, config: &PprConfig) -> PprResult {
    let multi = ppr_multi(a, &[seed], config);
    PprResult {
        scores: multi.column(0),
        iterations: multi.iterations,
    }
}

/// Run `seeds.len()` personalized PageRank queries as **one** batched power
/// iteration over an `n × k` rank matrix: every iteration advances all `k`
/// personalization lanes with a single fused arithmetic-semiring sweep.
/// Repeated seeds are fine (each lane is independent).
///
/// # Panics
/// Panics if `seeds` is empty or any seed is out of range.
pub fn ppr_multi(a: &Matrix, seeds: &[usize], config: &PprConfig) -> MultiPprResult {
    ppr_multi_dir(a, seeds, config, Direction::Auto)
}

/// As [`ppr_multi`], forcing the given traversal direction for every
/// iteration (the rank matrix is dense, so [`Direction::Auto`] resolves to
/// pull; the knob exists for ablations).
///
/// # Panics
/// Panics if `seeds` is empty or any seed is out of range
/// ([`try_ppr_multi_dir`] is the fallible form).
pub fn ppr_multi_dir(
    a: &Matrix,
    seeds: &[usize],
    config: &PprConfig,
    direction: Direction,
) -> MultiPprResult {
    try_ppr_multi_dir(a, seeds, config, direction).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`ppr_multi_dir`], reporting an empty batch or an out-of-range seed
/// as a typed [`GrbError`] instead of panicking.
pub fn try_ppr_multi_dir(
    a: &Matrix,
    seeds: &[usize],
    config: &PprConfig,
    direction: Direction,
) -> Result<MultiPprResult, GrbError> {
    let n = a.nrows();
    let k = seeds.len();
    check_batch_nonempty(k, "ppr_multi needs at least one seed")?;
    check_sources(n, seeds, "seed vertex")?;
    if n == 0 {
        return Ok(MultiPprResult {
            scores: Vec::new(),
            n_seeds: k,
            iterations: 0,
        });
    }
    let ctx = a.context();
    let out_deg = a.out_degrees();
    let inv_deg = bitgblas_core::Vector::from_vec(
        out_deg
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
            .collect(),
    );
    let dangling_nodes: Vec<usize> = (0..n).filter(|&u| out_deg[u] == 0).collect();

    // All mass starts on the seed; the walk never loses it (dangling mass
    // returns to the seed), so each lane's scores sum to 1 throughout.
    let mut rank = MultiVec::zeros(n, k);
    for (l, &s) in seeds.iter().enumerate() {
        rank.set(s, l, 1.0);
    }
    // The per-lane teleport operand: lane l holds its whole teleport mass at
    // seeds[l].  Seed entries are rewritten each iteration (the dangling
    // share changes); everything else stays zero.
    let mut teleport = MultiVec::zeros(n, k);

    for _ in 0..config.iterations {
        // Per-lane dangling mass: rank stranded on out-degree-0 vertices
        // flows back to that lane's seed.
        let flat = rank.as_slice();
        for (l, &s) in seeds.iter().enumerate() {
            let dangling: f32 = dangling_nodes.iter().map(|&u| flat[u * k + l]).sum();
            teleport.set(s, l, (1.0 - config.alpha) + config.alpha * dangling);
        }

        // One fused sweep for all k lanes: normalise by out-degree at the
        // read, pull along the edges over the arithmetic semiring, damp, and
        // add each lane's teleport mass at the store.
        let next = Op::mxm(a, &rank)
            .transpose()
            .scale_input(&inv_deg)
            .semiring(Semiring::Arithmetic)
            .direction(direction)
            .affine(config.alpha, 0.0)
            .then_ewise(BinaryOp::Plus, &teleport)
            .fusion(config.fusion)
            .try_run(ctx)?;
        ctx.recycle(std::mem::replace(&mut rank, next));
    }

    Ok(MultiPprResult {
        scores: rank.into_vec(),
        n_seeds: k,
        iterations: config.iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, Matrix, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    #[test]
    fn matches_dense_reference_on_random_graphs() {
        let adj = generators::erdos_renyi(90, 0.05, true, 12);
        let config = PprConfig {
            iterations: 25,
            ..Default::default()
        };
        for backend in [
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::FloatCsr,
            Backend::Auto,
        ] {
            let m = Matrix::from_csr(&adj, backend);
            for seed in [0usize, 41, 89] {
                let got = ppr(&m, seed, &config);
                let expected = reference::ppr(&adj, seed, 0.85, 25);
                for (v, (g, e)) in got.scores.iter().zip(&expected).enumerate() {
                    assert!(
                        (g - e).abs() < 1e-4,
                        "{backend:?} seed {seed} vertex {v}: {g} vs {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_lane_sums_to_one() {
        let adj = generators::rmat(7, 8, 0.57, 0.19, 0.19, 31);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let seeds = [3usize, 77, 3, 120];
        let got = ppr_multi(&m, &seeds, &PprConfig::default());
        for l in 0..seeds.len() {
            let total: f32 = got.column(l).iter().sum();
            assert!((total - 1.0).abs() < 1e-3, "lane {l}: total {total}");
        }
    }

    /// Every lane of a batched run is bit-identical to the standalone run
    /// from that lane's seed — the serving layer's coalescing guarantee.
    #[test]
    fn batched_lanes_equal_standalone_runs_bitwise() {
        let adj = generators::erdos_renyi(100, 0.04, true, 7);
        let seeds = [5usize, 0, 99, 5, 42];
        let config = PprConfig::default();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto] {
            let m = Matrix::from_csr(&adj, backend);
            let batched = ppr_multi(&m, &seeds, &config);
            for (l, &s) in seeds.iter().enumerate() {
                let single = ppr(&m, s, &config);
                for v in 0..adj.nrows() {
                    assert_eq!(
                        batched.score(v, l).to_bits(),
                        single.scores[v].to_bits(),
                        "{backend:?} lane {l} vertex {v}"
                    );
                }
            }
        }
    }

    /// Batching more seeds than one lane word (k > 64) still matches the
    /// standalone runs — the boundary the serving layer's 64-lane cap sits
    /// on.
    #[test]
    fn handles_more_than_64_lanes() {
        let adj = generators::grid2d(8, 8);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let seeds: Vec<usize> = (0..70).map(|l| (l * 11) % 64).collect();
        let config = PprConfig {
            iterations: 5,
            ..Default::default()
        };
        let batched = ppr_multi(&m, &seeds, &config);
        for (l, &s) in seeds.iter().enumerate().step_by(7) {
            let single = ppr(&m, s, &config);
            for v in 0..64 {
                assert_eq!(batched.score(v, l), single.scores[v], "lane {l} vertex {v}");
            }
        }
    }

    #[test]
    fn fused_and_node_at_a_time_agree() {
        let adj = generators::erdos_renyi(80, 0.05, true, 19);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S16));
        let fused = ppr_multi(&m, &[2, 40], &PprConfig::default());
        let unfused = ppr_multi(
            &m,
            &[2, 40],
            &PprConfig {
                fusion: Fusion::NodeAtATime,
                ..Default::default()
            },
        );
        for (i, (a, b)) in fused.scores.iter().zip(&unfused.scores).enumerate() {
            assert!((a - b).abs() < 1e-6, "entry {i}: {a} vs {b}");
        }
    }

    #[test]
    fn personalization_concentrates_on_the_seed() {
        // Undirected star centred on 0, seed = leaf 3.  The hub relays every
        // walk so it scores highest overall (≈ α/(1+α)), but the teleport
        // singles the seed out far above every other leaf, which all tie.
        let mut coo = Coo::new(9, 9);
        for i in 1..9usize {
            coo.push_undirected_edge(0, i).unwrap();
        }
        let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S8));
        let got = ppr(
            &m,
            3,
            &PprConfig {
                iterations: 30,
                ..Default::default()
            },
        );
        assert!(got.scores[0] > got.scores[3], "hub relays every walk");
        for v in 1..9 {
            if v != 3 {
                assert!(
                    got.scores[3] > 2.0 * got.scores[v],
                    "seed far above leaf {v}: {} vs {}",
                    got.scores[3],
                    got.scores[v]
                );
            }
        }
    }

    #[test]
    fn dangling_mass_returns_to_the_seed() {
        // 0 -> 1 -> 2 and 2 has no out-edges: mass reaching 2 teleports back
        // to the seed, so the chain keeps a stationary distribution summing
        // to 1 with the seed strictly positive.
        let mut coo = Coo::new(3, 3);
        coo.push_edge(0, 1).unwrap();
        coo.push_edge(1, 2).unwrap();
        let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::FloatCsr);
        let got = ppr(
            &m,
            0,
            &PprConfig {
                iterations: 40,
                ..Default::default()
            },
        );
        let total: f32 = got.scores.iter().sum();
        assert!((total - 1.0).abs() < 1e-4, "total {total}");
        assert!(got.scores[0] > 0.2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_seed() {
        let m = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let _ = ppr(&m, 4, &PprConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn rejects_empty_batch() {
        let m = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let _ = ppr_multi(&m, &[], &PprConfig::default());
    }
}
