//! Breadth-First Search over the Boolean semiring (§V of the paper).
//!
//! Each iteration performs a one-hop edge traversal of the current frontier
//! with `vxm()` over the Boolean semiring, then filters out already-visited
//! vertices with a complemented mask.  On the bit backend the pull sweep
//! maps to `bmv_bin_bin_bin_masked()`: the frontier and the visited mask are
//! both binarized, and the mask is applied with a bitwise AND-NOT right
//! before the output store (no early exit, to avoid warp divergence — §V).
//!
//! The traversal is **direction-optimizing**: with the default
//! [`Direction::Auto`] each iteration picks the push (sparse-frontier
//! scatter) or pull (dense sweep) kernel from the frontier density, the
//! classic Beamer-style switch.  The inner loop is allocation-free in steady
//! state — the frontier vectors cycle through the matrix context's workspace
//! pool and the visited mask is updated in place (proved by the
//! allocation-counter test in `bitgblas-core`).

use bitgblas_core::grb::{Direction, GrbError, Mask, Matrix, MultiVec, Op, Vector};
use bitgblas_core::Semiring;

use crate::validate::{check_batch_nonempty, check_sources};

/// The result of a BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct BfsResult {
    /// `levels[v]` = number of hops from the source, `-1` if unreachable.
    pub levels: Vec<i64>,
    /// Number of `vxm` iterations executed (= eccentricity of the source + 1).
    pub iterations: usize,
    /// Number of vertices reached (including the source).
    pub n_reached: usize,
}

/// Run BFS from `source` on the graph held by `a` (treated as directed; pass
/// a symmetrized matrix for undirected traversal).  Uses
/// [`Direction::Auto`]: each iteration picks push or pull from the frontier
/// density.
///
/// # Panics
/// Panics if `source` is out of range.
pub fn bfs(a: &Matrix, source: usize) -> BfsResult {
    bfs_dir(a, source, Direction::Auto)
}

/// As [`bfs`], forcing the given traversal direction for every iteration
/// (`Push` = sparse scatter, `Pull` = dense sweep, `Auto` = per-iteration
/// Beamer-style switch).
///
/// # Panics
/// Panics if `source` is out of range ([`try_bfs_dir`] is the fallible
/// form).
pub fn bfs_dir(a: &Matrix, source: usize, direction: Direction) -> BfsResult {
    try_bfs_dir(a, source, direction).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`bfs_dir`], reporting an out-of-range source as a typed
/// [`GrbError`] instead of panicking — the entry point a serving stack
/// validates through.
pub fn try_bfs_dir(a: &Matrix, source: usize, direction: Direction) -> Result<BfsResult, GrbError> {
    let n = a.nrows();
    check_sources(n, std::slice::from_ref(&source), "source vertex")?;
    // The matrix's own context supplies the workspace pool, so the frontier
    // buffers recycle across iterations instead of being reallocated.
    let ctx = a.context();

    let mut levels = vec![-1i64; n];
    levels[source] = 0;
    let mut visited = {
        let mut flags = vec![false; n];
        flags[source] = true;
        // ¬visited, updated in place each level — never rebuilt.
        Mask::complemented(flags)
    };

    let mut frontier = Vector::indicator(n, &[source]);
    let mut level = 0i64;
    let mut iterations = 0usize;
    let mut n_reached = 1usize;

    loop {
        iterations += 1;
        level += 1;

        // next = frontier ⊕.⊗ A over the Boolean semiring, masked by ¬visited.
        let next = Op::vxm(&frontier, a)
            .semiring(Semiring::Boolean)
            .mask(&visited)
            .direction(direction)
            .try_run(ctx)?;

        // Record levels and update the visited set.
        let mut any = false;
        for (v, &x) in next.as_slice().iter().enumerate() {
            if x != 0.0 {
                visited.set(v, true);
                levels[v] = level;
                n_reached += 1;
                any = true;
            }
        }
        // The previous frontier's buffer goes back to the pool.
        ctx.recycle(std::mem::replace(&mut frontier, next));
        if !any || iterations >= n {
            break;
        }
    }

    Ok(BfsResult {
        levels,
        iterations,
        n_reached,
    })
}

/// The result of a batched multi-source BFS run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBfsResult {
    /// Flat node-major `n × k` level matrix: `levels[v*k + l]` = number of
    /// hops from source `l` to vertex `v`, `-1` if unreachable.  Column `l`
    /// equals [`bfs`] from `sources[l]` (the parity suite proves it).
    pub levels: Vec<i64>,
    /// Number of traversals in the batch (`k`).
    pub n_sources: usize,
    /// Number of batched `mxm` iterations executed (= the maximum source
    /// eccentricity + 1).
    pub iterations: usize,
    /// Total vertices reached summed over all lanes (sources included).
    pub n_reached: usize,
}

impl MultiBfsResult {
    /// The level of vertex `v` in traversal lane `l`.
    pub fn level(&self, v: usize, l: usize) -> i64 {
        self.levels[v * self.n_sources + l]
    }
}

/// Run `sources.len()` simultaneous BFS traversals as **one** batched
/// traversal over an `n × k` frontier matrix: every iteration advances all
/// still-active traversals with a single masked matrix × multivector sweep
/// that loads each adjacency tile once (on the bit backend, one `OR` per
/// edge serves up to 64 lanes).  This is how a traversal service amortizes
/// the matrix traffic across concurrent queries — the batched analogue of
/// the paper's bit-packing argument.
///
/// Uses [`Direction::Auto`]: each iteration picks push or pull from the
/// node-granular frontier density.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range.
pub fn bfs_multi(a: &Matrix, sources: &[usize]) -> MultiBfsResult {
    bfs_multi_dir(a, sources, Direction::Auto)
}

/// As [`bfs_multi`], forcing the given traversal direction for every
/// iteration.
///
/// # Panics
/// Panics if `sources` is empty or any source is out of range
/// ([`try_bfs_multi_dir`] is the fallible form).
pub fn bfs_multi_dir(a: &Matrix, sources: &[usize], direction: Direction) -> MultiBfsResult {
    try_bfs_multi_dir(a, sources, direction).unwrap_or_else(|e| panic!("{e}"))
}

/// As [`bfs_multi_dir`], reporting an empty batch or an out-of-range source
/// as a typed [`GrbError`] instead of panicking.
pub fn try_bfs_multi_dir(
    a: &Matrix,
    sources: &[usize],
    direction: Direction,
) -> Result<MultiBfsResult, GrbError> {
    let n = a.nrows();
    let k = sources.len();
    check_batch_nonempty(k, "bfs_multi needs at least one source")?;
    check_sources(n, sources, "source vertex")?;
    let ctx = a.context();

    let mut levels = vec![-1i64; n * k];
    let mut visited = {
        let mut flags = vec![false; n * k];
        for (l, &s) in sources.iter().enumerate() {
            levels[s * k + l] = 0;
            flags[s * k + l] = true;
        }
        // The flat per-lane ¬visited mask: each lane keeps its own visited
        // set, all k of them filtered by the same masked sweep.
        Mask::complemented(flags)
    };

    let mut frontier = MultiVec::from_sources(n, sources);
    let mut level = 0i64;
    let mut iterations = 0usize;
    let mut n_reached = k;

    loop {
        iterations += 1;
        level += 1;

        // next = Aᵀ ⊕.⊗ F over the Boolean semiring (one hop of every lane
        // at once), masked by each lane's ¬visited.
        let next = Op::mxm(a, &frontier)
            .transpose()
            .semiring(Semiring::Boolean)
            .mask(&visited)
            .direction(direction)
            .try_run(ctx)?;

        let mut any = false;
        for (f, &x) in next.as_slice().iter().enumerate() {
            if x != 0.0 {
                visited.set(f, true);
                levels[f] = level;
                n_reached += 1;
                any = true;
            }
        }
        ctx.recycle(std::mem::replace(&mut frontier, next));
        if !any || iterations >= n {
            break;
        }
    }
    ctx.recycle(frontier);

    Ok(MultiBfsResult {
        levels,
        n_sources: k,
        iterations,
        n_reached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;
    use bitgblas_sparse::Coo;

    fn backends() -> Vec<Backend> {
        vec![
            Backend::Bit(TileSize::S4),
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S16),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
            Backend::Auto,
        ]
    }

    #[test]
    fn bfs_matches_reference_on_chain_and_star() {
        let chain = generators::path(17);
        let star = generators::star(20);
        for adj in [chain, star] {
            let expected = reference::bfs_levels(&adj, 0);
            for backend in backends() {
                let m = Matrix::from_csr(&adj, backend);
                let got = bfs(&m, 0);
                assert_eq!(got.levels, expected, "{backend:?}");
            }
        }
    }

    #[test]
    fn bfs_matches_reference_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let adj = generators::erdos_renyi(120, 0.03, true, seed);
            let expected = reference::bfs_levels(&adj, 5);
            for backend in [
                Backend::Bit(TileSize::S8),
                Backend::Bit(TileSize::S32),
                Backend::FloatCsr,
            ] {
                let m = Matrix::from_csr(&adj, backend);
                let got = bfs(&m, 5);
                assert_eq!(got.levels, expected, "seed {seed} {backend:?}");
                assert_eq!(
                    got.n_reached as usize,
                    expected.iter().filter(|&&l| l >= 0).count()
                );
            }
        }
    }

    #[test]
    fn bfs_on_disconnected_graph_leaves_unreached_at_minus_one() {
        let mut coo = Coo::new(10, 10);
        coo.push_undirected_edge(0, 1).unwrap();
        coo.push_undirected_edge(1, 2).unwrap();
        coo.push_undirected_edge(5, 6).unwrap();
        let adj = coo.to_binary_csr();
        for backend in backends() {
            let m = Matrix::from_csr(&adj, backend);
            let got = bfs(&m, 0);
            assert_eq!(got.levels[5], -1);
            assert_eq!(got.levels[6], -1);
            assert_eq!(got.n_reached, 3);
        }
    }

    #[test]
    fn bfs_on_directed_graph_respects_edge_direction() {
        // 0 -> 1 -> 2, and 3 -> 0: vertex 3 unreachable from 0.
        let mut coo = Coo::new(4, 4);
        coo.push_edge(0, 1).unwrap();
        coo.push_edge(1, 2).unwrap();
        coo.push_edge(3, 0).unwrap();
        let adj = coo.to_binary_csr();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&adj, backend);
            let got = bfs(&m, 0);
            assert_eq!(got.levels, vec![0, 1, 2, -1], "{backend:?}");
        }
    }

    #[test]
    fn bfs_iteration_count_is_graph_depth() {
        let adj = generators::path(9); // 0-1-...-8
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let got = bfs(&m, 0);
        assert_eq!(got.levels[8], 8);
        // 8 productive levels + 1 terminating empty iteration.
        assert_eq!(got.iterations, 9);
    }

    #[test]
    fn forced_directions_agree_with_auto() {
        for seed in [2u64, 9] {
            let adj = generators::erdos_renyi(150, 0.03, true, seed);
            let expected = reference::bfs_levels(&adj, 3);
            for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
                let m = Matrix::from_csr(&adj, backend);
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    let got = bfs_dir(&m, 3, dir);
                    assert_eq!(got.levels, expected, "{backend:?} {dir:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bfs_rejects_bad_source() {
        let adj = generators::path(4);
        let m = Matrix::from_csr(&adj, Backend::FloatCsr);
        let _ = bfs(&m, 10);
    }

    // -- batched multi-source BFS -------------------------------------------

    /// Every lane of a batched run equals the single-source run from that
    /// lane's source, on every backend and direction.
    #[test]
    fn bfs_multi_lanes_equal_single_source_runs() {
        for seed in [1u64, 7] {
            let adj = generators::erdos_renyi(110, 0.03, true, seed);
            let sources = [5usize, 0, 77, 5];
            for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto] {
                let m = Matrix::from_csr(&adj, backend);
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    let batched = bfs_multi_dir(&m, &sources, dir);
                    assert_eq!(batched.n_sources, 4);
                    let mut total_reached = 0usize;
                    for (l, &s) in sources.iter().enumerate() {
                        let single = bfs_dir(&m, s, dir);
                        for v in 0..adj.nrows() {
                            assert_eq!(
                                batched.level(v, l),
                                single.levels[v],
                                "seed {seed} {backend:?} {dir:?} lane {l} vertex {v}"
                            );
                        }
                        total_reached += single.n_reached;
                    }
                    assert_eq!(batched.n_reached, total_reached);
                }
            }
        }
    }

    /// A batch over a disconnected graph keeps the lanes' reachable sets
    /// separate (no cross-lane leakage through the shared sweep).
    #[test]
    fn bfs_multi_lanes_do_not_leak_across_components() {
        let mut coo = Coo::new(10, 10);
        coo.push_undirected_edge(0, 1).unwrap();
        coo.push_undirected_edge(1, 2).unwrap();
        coo.push_undirected_edge(5, 6).unwrap();
        let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S4));
        let r = bfs_multi(&m, &[0, 5]);
        // Lane 0 sees only {0,1,2}; lane 1 only {5,6}.
        assert_eq!(r.level(2, 0), 2);
        assert_eq!(r.level(5, 0), -1);
        assert_eq!(r.level(6, 1), 1);
        assert_eq!(r.level(0, 1), -1);
        assert_eq!(r.n_reached, 5);
    }

    /// Batching more sources than one lane word (k > 64) still matches the
    /// single-source runs — the lane words spill into multiple u64s.
    #[test]
    fn bfs_multi_handles_more_than_64_lanes() {
        let adj = generators::grid2d(9, 9);
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let sources: Vec<usize> = (0..70).map(|l| (l * 13) % 81).collect();
        let batched = bfs_multi(&m, &sources);
        for (l, &s) in sources.iter().enumerate().step_by(9) {
            let single = bfs(&m, s);
            for v in 0..81 {
                assert_eq!(batched.level(v, l), single.levels[v], "lane {l}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn bfs_multi_rejects_empty_batch() {
        let m = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let _ = bfs_multi(&m, &[]);
    }
}
