//! Breadth-First Search over the Boolean semiring (§V of the paper).
//!
//! Each iteration performs a one-hop edge traversal of the current frontier
//! with `vxm()` over the Boolean semiring and filters out already-visited
//! vertices with a complemented mask.  On a bit backend the traversal is the
//! paper's scheme as it stands: frontier and visited set stay binarized from
//! one round to the next ([`NodeBits`], [`Op::vxm_bits`]), and the mask is a
//! bitwise AND-NOT right before the output store.  The rounds run on the
//! format whose fill wins (Table V): a matrix that holds tiles sweeps them
//! (`bmv_bin_bin_bin_masked_into()`) and scatters tile words, one too
//! sparse to hold any (`MIN_TILE_FILL`) pulls from its CSR
//! (`csr_bits_pull()`) and scatters CSR node words serially
//! (`csr_bits_push()`).  The paper's GPU kernel walks every tile
//! whatever the mask says, to keep a warp from diverging; the CPU sweep has
//! no warp and leaves a tile-row once every row the mask lets through is
//! reached, and the CSR pull stops a row at its first frontier in-neighbour
//! (Beamer's bottom-up step) — same words stored, less read.  Any other
//! backend runs the same rounds over `f32` vectors.
//!
//! The traversal is **direction-optimizing**: with the default
//! [`Direction::Auto`] each iteration picks the push (sparse-frontier
//! scatter) or pull (dense sweep) kernel from the frontier density, the
//! classic Beamer-style switch.  The inner loop is allocation-free in steady
//! state — the frontier words cycle through the matrix context's workspace
//! pool and the visited set is updated in place (proved by the
//! allocation-counter test in `bitgblas-core`).

use bitgblas_core::grb::{
    Direction, GrbError, LaneBits, Mask, Matrix, MultiVec, NodeBits, Op, Vector,
};
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
///
/// On a bit backend — built, or read through pending deltas — the rounds run
/// in bits and convert nothing; any other backend runs them over `f32`.
pub fn try_bfs_dir(a: &Matrix, source: usize, direction: Direction) -> Result<BfsResult, GrbError> {
    let n = a.nrows();
    check_sources(n, std::slice::from_ref(&source), "source vertex")?;
    let ctx = a.context();
    let mut levels = vec![-1i64; n];
    levels[source] = 0;
    let bits = bit_rounds(a, source, &mut levels, |frontier, visited| {
        Op::vxm_bits(frontier, a)
            .and_not(visited)
            .direction(direction)
            .try_run(ctx)
    })?;
    let (iterations, found) = match bits {
        Some(done) => done,
        // No word product: the float baseline runs on `f32`.
        None => vector_rounds(a, source, direction, &mut levels)?,
    };
    Ok(BfsResult {
        levels,
        iterations,
        n_reached: 1 + found,
    })
}

/// The rounds of one traversal in bits: `next = (frontier ⊕.⊗ A) & !visited`
/// as one word `product(frontier, visited)`, levels written from the set bits
/// of `next` only, `visited |= next`.  `None` when the backend has no word
/// product.  The caller picks which product it is — `bfs`'s `vxm`, or the
/// one-lane `mxm` of a one-source `bfs_multi`.
fn bit_rounds(
    a: &Matrix,
    source: usize,
    levels: &mut [i64],
    product: impl Fn(&NodeBits, &NodeBits) -> Result<Option<NodeBits>, GrbError>,
) -> Result<Option<(usize, usize)>, GrbError> {
    let n = a.nrows();
    // The matrix's own context supplies the workspace pool, so the frontier
    // words recycle across iterations instead of being reallocated.
    let ctx = a.context();
    let mut frontier = NodeBits::from_indices(n, &[source]);
    let mut visited = frontier.clone();
    let done = run_rounds(n, |level| {
        let Some(next) = product(&frontier, &visited)? else {
            return Ok(None);
        };
        let mut found = 0usize;
        for v in next.ones() {
            levels[v] = level;
            found += 1;
        }
        visited.or_assign(&next);
        std::mem::replace(&mut frontier, next).recycle(ctx);
        Ok(Some(found))
    });
    frontier.recycle(ctx);
    done
}

/// The same rounds over an `f32` vector: a masked Boolean `vxm` and a scan
/// of its output.
fn vector_rounds(
    a: &Matrix,
    source: usize,
    direction: Direction,
    levels: &mut [i64],
) -> Result<(usize, usize), GrbError> {
    let n = a.nrows();
    let ctx = a.context();
    let mut visited = {
        let mut flags = vec![false; n];
        flags[source] = true;
        // ¬visited, updated in place each level — never rebuilt.
        Mask::complemented(flags)
    };
    let mut frontier = Vector::indicator(n, &[source]);
    let done = run_rounds(n, |level| {
        // next = frontier ⊕.⊗ A over the Boolean semiring, masked by ¬visited.
        let next = Op::vxm(&frontier, a)
            .semiring(Semiring::Boolean)
            .mask(&visited)
            .direction(direction)
            .try_run(ctx)?;
        let mut found = 0usize;
        for (v, &x) in next.as_slice().iter().enumerate() {
            if x != 0.0 {
                visited.set(v, true);
                levels[v] = level;
                found += 1;
            }
        }
        // The previous frontier's buffer goes back to the pool.
        ctx.recycle(std::mem::replace(&mut frontier, next));
        Ok(Some(found))
    });
    ctx.recycle(frontier);
    Ok(done?.expect("the f32 step runs on every backend"))
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
///
/// On a bit backend — built, or read through pending deltas — the frontier
/// and the visited set stay in lane words from round to round
/// ([`LaneBits`]: one bit per traversal, the paper's binarized vectors for
/// `k` traversals) and a round converts nothing; any other backend runs the
/// same rounds over `f32` lanes.  A batch of one source runs [`bfs`]'s rounds
/// in [`NodeBits`] — a bit per vertex, not a `u64` per vertex carrying one —
/// through [`Op::mxm_bits`], so it still counts and fails as the batch it is.
pub fn try_bfs_multi_dir(
    a: &Matrix,
    sources: &[usize],
    direction: Direction,
) -> Result<MultiBfsResult, GrbError> {
    let n = a.nrows();
    let k = sources.len();
    check_batch_nonempty(k, "bfs_multi needs at least one source")?;
    check_sources(n, sources, "source vertex")?;

    let mut levels = vec![-1i64; n * k];
    for (l, &s) in sources.iter().enumerate() {
        levels[s * k + l] = 0;
    }
    let words = match *sources {
        [source] => bit_rounds(a, source, &mut levels, |frontier, visited| {
            Op::mxm_bits(a, frontier)
                .transpose()
                .and_not(visited)
                .direction(direction)
                .try_run(a.context())
        })?,
        _ => word_rounds(a, sources, direction, &mut levels)?,
    };
    let (iterations, found) = match words {
        Some(done) => done,
        // No word product: the float baseline runs on `f32`.
        None => flat_rounds(a, sources, direction, &mut levels)?,
    };
    Ok(MultiBfsResult {
        levels,
        n_sources: k,
        iterations,
        n_reached: k + found,
    })
}

/// Drive the rounds of a traversal over `n` vertices: `step(level)`
/// advances every lane one hop, records `level` for what it newly reached
/// and returns how many `(vertex, lane)` pairs that was — or `None`, before
/// it has changed anything, when it cannot run on this matrix at all.
/// Returns `(iterations, pairs reached beyond the sources)`.
fn run_rounds(
    n: usize,
    mut step: impl FnMut(i64) -> Result<Option<usize>, GrbError>,
) -> Result<Option<(usize, usize)>, GrbError> {
    let (mut iterations, mut reached) = (0usize, 0usize);
    loop {
        let Some(found) = step(iterations as i64 + 1)? else {
            return Ok(None);
        };
        iterations += 1;
        reached += found;
        if found == 0 || iterations >= n {
            return Ok(Some((iterations, reached)));
        }
    }
}

/// The rounds in lane words: `next = (Aᵀ·frontier) & !visited` as one word
/// product, levels written from the set bits of `next` only,
/// `visited |= next`.  `None` when the backend has no word product.
fn word_rounds(
    a: &Matrix,
    sources: &[usize],
    direction: Direction,
    levels: &mut [i64],
) -> Result<Option<(usize, usize)>, GrbError> {
    let (n, k) = (a.nrows(), sources.len());
    let ctx = a.context();
    let mut frontier = LaneBits::from_sources(n, sources);
    let mut visited = frontier.clone();
    let done = run_rounds(n, |level| {
        let product = Op::mxm_lanes(a, &frontier)
            .transpose()
            .and_not(&visited)
            .direction(direction)
            .try_run(ctx)?;
        let Some(next) = product else {
            return Ok(None);
        };
        let mut found = 0usize;
        for (v, l) in next.ones() {
            levels[v * k + l] = level;
            found += 1;
        }
        visited.or_assign(&next);
        std::mem::replace(&mut frontier, next).recycle(ctx);
        Ok(Some(found))
    });
    frontier.recycle(ctx);
    done
}

/// The same rounds over `f32` lanes: a masked Boolean `mxm` and a scan of
/// its flat `n × k` output.
fn flat_rounds(
    a: &Matrix,
    sources: &[usize],
    direction: Direction,
    levels: &mut [i64],
) -> Result<(usize, usize), GrbError> {
    let (n, k) = (a.nrows(), sources.len());
    let ctx = a.context();
    let mut visited = {
        let mut flags = vec![false; n * k];
        for (l, &s) in sources.iter().enumerate() {
            flags[s * k + l] = true;
        }
        // The flat per-lane ¬visited mask: each lane keeps its own visited
        // set, all k of them filtered by the same masked sweep.
        Mask::complemented(flags)
    };
    let mut frontier = MultiVec::from_sources(n, sources);
    let done = run_rounds(n, |level| {
        // next = Aᵀ ⊕.⊗ F over the Boolean semiring (one hop of every lane
        // at once), masked by each lane's ¬visited.
        let next = Op::mxm(a, &frontier)
            .transpose()
            .semiring(Semiring::Boolean)
            .mask(&visited)
            .direction(direction)
            .try_run(ctx)?;
        let mut found = 0usize;
        for (f, &x) in next.as_slice().iter().enumerate() {
            if x != 0.0 {
                visited.set(f, true);
                levels[f] = level;
                found += 1;
            }
        }
        ctx.recycle(std::mem::replace(&mut frontier, next));
        Ok(Some(found))
    });
    ctx.recycle(frontier);
    Ok(done?.expect("the f32 step runs on every backend"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use bitgblas_core::{Backend, EdgeDelta, TileSize};
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

    // -- the word loop against the f32 loop ----------------------------------

    /// One of the traversal loops, run to completion on `m`.
    #[derive(Debug, PartialEq)]
    struct LoopRun {
        levels: Vec<i64>,
        /// `(iterations, pairs reached beyond the sources)`.
        done: (usize, usize),
        /// `[pull_mxv, push_mxv, pull_mxm, push_mxm]` the run added: its
        /// per-round directions, under the product kind it counts as.
        directions: [u64; 4],
    }

    /// Run one loop from seeded levels; returns it with the `converted_elems`
    /// it added.
    fn measure_loop(
        m: &Matrix,
        sources: &[usize],
        run: impl FnOnce(&mut [i64]) -> (usize, usize),
    ) -> (LoopRun, u64) {
        let k = sources.len();
        let mut levels = vec![-1i64; m.nrows() * k];
        for (l, &s) in sources.iter().enumerate() {
            levels[s * k + l] = 0;
        }
        let before = m.context().stats();
        let done = run(&mut levels);
        let after = m.context().stats();
        let directions = [
            after.pull_mxv - before.pull_mxv,
            after.push_mxv - before.push_mxv,
            after.pull_mxm - before.pull_mxm,
            after.push_mxm - before.push_mxm,
        ];
        let run = LoopRun {
            levels,
            done,
            directions,
        };
        (run, after.converted_elems - before.converted_elems)
    }

    /// The word loop on `m`, measured.
    fn word_loop(m: &Matrix, sources: &[usize], dir: Direction) -> (LoopRun, u64) {
        measure_loop(m, sources, |levels| {
            word_rounds(m, sources, dir, levels)
                .unwrap()
                .expect("a bit backend has the word product")
        })
    }

    /// The `f32` loop on `m`, measured.
    fn flat_loop(m: &Matrix, sources: &[usize], dir: Direction) -> (LoopRun, u64) {
        measure_loop(m, sources, |levels| {
            flat_rounds(m, sources, dir, levels).unwrap()
        })
    }

    /// Run both loops; returns them with the `converted_elems` each added.
    fn both_loops(m: &Matrix, sources: &[usize], dir: Direction) -> [(LoopRun, u64); 2] {
        [word_loop(m, sources, dir), flat_loop(m, sources, dir)]
    }

    /// The parity list's graphs.
    fn parity_graphs() -> Vec<(&'static str, bitgblas_sparse::Csr)> {
        let mut two = Coo::new(41, 41);
        for i in 0..19 {
            two.push_undirected_edge(i, i + 1).unwrap();
            two.push_undirected_edge(21 + i, 22 + i).unwrap();
        }
        vec![
            ("path", generators::path(37)),
            ("star", generators::star(33)),
            ("grid", generators::grid2d(9, 7)),
            ("erdos-renyi", generators::erdos_renyi(97, 0.04, true, 11)),
            (
                "directed erdos-renyi",
                generators::erdos_renyi(70, 0.05, false, 3),
            ),
            (
                "r-mat",
                generators::rmat(7, 6, 0.57, 0.19, 0.19, 5).symmetrized(),
            ),
            ("two components", two.to_binary_csr()),
            ("n below every tile dim", generators::path(3)),
        ]
    }

    #[test]
    fn word_loop_equals_f32_loop_on_every_bit_backend_direction_and_width() {
        for (what, adj) in parity_graphs() {
            let n = adj.nrows();
            for ts in [TileSize::S4, TileSize::S8, TileSize::S16, TileSize::S32] {
                let m = Matrix::from_csr(&adj, Backend::Bit(ts));
                for k in [1usize, 3, 64, 65, 130] {
                    // Wraps around small graphs: duplicate sources included.
                    let mut sources: Vec<usize> = (0..k).map(|l| (l * 13 + 5) % n).collect();
                    if k >= 3 {
                        sources[2] = sources[0];
                    }
                    for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                        let [(words, packed), (flat, unpacked)] = both_loops(&m, &sources, dir);
                        assert_eq!(words, flat, "{what} {ts:?} k={k} {dir:?}");
                        assert_eq!(packed, 0, "the word loop converts nothing");
                        let rounds = flat.done.0 as u64;
                        assert!(unpacked >= rounds * (n * k) as u64, "{what} {unpacked}");
                        // … and the public entry point is the word loop.
                        let got = bfs_multi_dir(&m, &sources, dir);
                        assert_eq!(got.levels, words.levels);
                        assert_eq!(
                            (got.iterations, got.n_reached),
                            (words.done.0, k + words.done.1)
                        );
                    }
                }
            }
        }
    }

    /// `adj` with vertex `n - 2` emptied, and a log over it with duplicate
    /// inserts, an insert then deleted, a delete of an absent edge, a
    /// self-loop, a row emptied and the empty row filled.
    fn hostile_log(adj: &bitgblas_sparse::Csr) -> (bitgblas_sparse::Csr, Vec<EdgeDelta>) {
        let n = adj.nrows();
        let (filled, emptied) = (n.saturating_sub(2), n / 2);
        let mut coo = Coo::new(n, n);
        for (r, c, _) in adj.iter().filter(|&(r, _, _)| r != filled) {
            coo.push_edge(r, c).unwrap();
        }
        let base = coo.to_binary_csr();
        let mut log = vec![
            EdgeDelta::insert(0, n - 1),
            EdgeDelta::insert(0, n - 1),
            EdgeDelta::insert(n / 3, 0),
            EdgeDelta::delete(n / 3, 0),
            EdgeDelta::delete(n - 1, n - 1),
            EdgeDelta::insert(1 % n, 1 % n),
            EdgeDelta::insert(filled, 0),
            EdgeDelta::insert(filled, n - 1),
        ];
        log.extend(
            base.row(emptied)
                .0
                .iter()
                .map(|&c| EdgeDelta::delete(emptied, c)),
        );
        (base, log)
    }

    /// Through pending deltas the word loop is the `f32` loop of the same
    /// snapshot and the word loop of a rebuild — levels, rounds, reached
    /// pairs and per-round directions — converting nothing: every tile size
    /// × lane count × direction, on the snapshot and on its transpose.
    #[test]
    fn word_loop_through_pending_deltas_equals_the_f32_loop_and_a_rebuild() {
        for (what, adj) in parity_graphs() {
            let n = adj.nrows();
            let (base, log) = hostile_log(&adj);
            for ts in [TileSize::S4, TileSize::S8, TileSize::S16, TileSize::S32] {
                let live = Matrix::from_csr(&base, Backend::Bit(ts));
                live.apply_deltas(&log).unwrap();
                let snap = live.snapshot();
                let transposed = snap.transpose();
                for view in [snap.matrix(), &transposed] {
                    let rebuilt = Matrix::from_csr(view.csr(), Backend::Bit(ts));
                    for k in [1usize, 5, 64, 70] {
                        let sources: Vec<usize> = (0..k).map(|l| (l * 13 + 5) % n).collect();
                        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                            let (words, packed) = word_loop(view, &sources, dir);
                            let (scratch, _) = word_loop(&rebuilt, &sources, dir);
                            assert_eq!(words, scratch, "{what} {ts:?} k={k} {dir:?}");
                            assert_eq!(packed, 0, "the word loop converts nothing");
                            // The f32 loop is the slow side: one width.
                            if ts == TileSize::S8 {
                                let (flat, _) = flat_loop(view, &sources, dir);
                                assert_eq!(words, flat, "{what} k={k} {dir:?}");
                            }
                        }
                    }
                }
            }
        }
    }

    // -- the single-source bit loop against the f32 loop ----------------------

    /// `bfs`'s bit loop on `m`, measured.
    fn bit_loop(m: &Matrix, source: usize, dir: Direction) -> (LoopRun, u64) {
        measure_loop(m, &[source], |levels| {
            bit_rounds(m, source, levels, |frontier, visited| {
                Op::vxm_bits(frontier, m)
                    .and_not(visited)
                    .direction(dir)
                    .try_run(m.context())
            })
            .unwrap()
            .expect("a bit backend has the word product")
        })
    }

    /// `bfs`'s `f32` loop on `m`, measured.
    fn vector_loop(m: &Matrix, source: usize, dir: Direction) -> (LoopRun, u64) {
        measure_loop(m, &[source], |levels| {
            vector_rounds(m, source, dir, levels).unwrap()
        })
    }

    /// The public single-source entry points on `m` against one measured run
    /// of the bit loop: `bfs` is it, and a one-source `bfs_multi` is it
    /// counted as a batch; neither converts anything.
    fn assert_entry_points_run_the_bit_loop(
        m: &Matrix,
        source: usize,
        dir: Direction,
        bits: &LoopRun,
        what: &str,
    ) {
        let before = m.context().stats();
        let got = bfs_dir(m, source, dir);
        let mid = m.context().stats();
        let batch = bfs_multi_dir(m, &[source], dir);
        let after = m.context().stats();
        assert_eq!(got.levels, bits.levels, "{what}");
        assert_eq!(
            (got.iterations, got.n_reached),
            (bits.done.0, 1 + bits.done.1),
            "{what}"
        );
        // Column 0 of an `n × 1` level matrix is the matrix.
        assert_eq!(batch.levels, got.levels, "{what}");
        assert_eq!(
            (batch.iterations, batch.n_reached, batch.n_sources),
            (got.iterations, got.n_reached, 1),
            "{what}"
        );
        let [pull, push, ..] = bits.directions;
        assert_eq!(
            (
                mid.pull_mxv - before.pull_mxv,
                mid.push_mxv - before.push_mxv
            ),
            (pull, push),
            "{what}"
        );
        assert_eq!(
            (after.pull_mxm - mid.pull_mxm, after.push_mxm - mid.push_mxm),
            (pull, push),
            "{what}"
        );
        assert_eq!(
            (mid.pull_mxm, mid.push_mxm, after.pull_mxv, after.push_mxv),
            (before.pull_mxm, before.push_mxm, mid.pull_mxv, mid.push_mxv),
            "{what}"
        );
        assert_eq!(after.converted_elems, before.converted_elems, "{what}");
    }

    #[test]
    fn bit_loop_equals_the_f32_loop_and_the_reference_on_every_bit_backend_and_direction() {
        for (what, adj) in parity_graphs() {
            let n = adj.nrows();
            for ts in [TileSize::S4, TileSize::S8, TileSize::S16, TileSize::S32] {
                let m = Matrix::from_csr(&adj, Backend::Bit(ts));
                // A vertex inside the graph, and the last one: alone in a
                // ragged last tile on most of these.
                for source in [5 % n, n - 1] {
                    let want = reference::bfs_levels(&adj, source);
                    for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                        let what = format!("{what} {ts:?} from {source} {dir:?}");
                        let (bits, packed) = bit_loop(&m, source, dir);
                        let (flat, unpacked) = vector_loop(&m, source, dir);
                        assert_eq!(bits, flat, "{what}");
                        assert_eq!(bits.levels, want, "{what}");
                        assert_eq!(packed, 0, "the bit loop converts nothing");
                        assert!(unpacked >= (flat.done.0 * n) as u64, "{what} {unpacked}");
                        assert_entry_points_run_the_bit_loop(&m, source, dir, &bits, &what);
                    }
                }
            }
        }
    }

    /// Through pending deltas — [`hostile_log`]: self-loops, a row emptied,
    /// an empty row filled — `bfs` and a one-source `bfs_multi` are the bit
    /// loop of a rebuild and the `f32` loop of the same snapshot, converting
    /// nothing: every tile size × direction, on the snapshot and on its
    /// transpose.
    #[test]
    fn bit_loop_through_pending_deltas_equals_the_f32_loop_and_a_rebuild() {
        for (what, adj) in parity_graphs() {
            let n = adj.nrows();
            let (base, log) = hostile_log(&adj);
            for ts in [TileSize::S4, TileSize::S8, TileSize::S16, TileSize::S32] {
                let live = Matrix::from_csr(&base, Backend::Bit(ts));
                live.apply_deltas(&log).unwrap();
                let snap = live.snapshot();
                let transposed = snap.transpose();
                for view in [snap.matrix(), &transposed] {
                    let rebuilt = Matrix::from_csr(view.csr(), Backend::Bit(ts));
                    for source in [0, n.saturating_sub(2)] {
                        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                            let what = format!("{what} {ts:?} from {source} {dir:?}");
                            let (bits, packed) = bit_loop(view, source, dir);
                            let (scratch, _) = bit_loop(&rebuilt, source, dir);
                            let (flat, _) = vector_loop(view, source, dir);
                            assert_eq!(bits, scratch, "{what}");
                            assert_eq!(bits, flat, "{what}");
                            assert_eq!(packed, 0, "the bit loop converts nothing");
                            assert_entry_points_run_the_bit_loop(view, source, dir, &bits, &what);
                        }
                    }
                }
            }
        }
    }

    /// The work counters that gate the representation: a bit backend converts
    /// nothing, built or read through pending deltas, and agrees with a
    /// rebuild; forced push scatters from every reached `(vertex, lane)`
    /// exactly once.
    #[test]
    fn a_bit_backend_runs_in_words_through_pending_deltas_and_the_counters_say_so() {
        let adj = generators::erdos_renyi(90, 0.04, true, 4);
        let sources = [5usize, 0, 77, 5, 31];
        let built = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        let converted = |m: &Matrix, dir: Direction| {
            let before = m.context().stats();
            let r = bfs_multi_dir(m, &sources, dir);
            let after = m.context().stats();
            (r, after.converted_elems - before.converted_elems)
        };
        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
            let (_, added) = converted(&built, dir);
            assert_eq!(added, 0, "{dir:?}");
        }

        // Pending deltas: the snapshot reads through a `DeltaOverlay`.
        let mutated = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
        mutated.insert_edge(5, 80).unwrap();
        mutated.insert_edge(80, 5).unwrap();
        mutated.delete_edge(0, adj.row(0).0[0]).unwrap();
        let snap = mutated.snapshot();
        let rebuilt = Matrix::from_csr(snap.csr(), Backend::Bit(TileSize::S8));

        // Forced push: every reached (vertex, lane) is a frontier entry of
        // exactly one round, with or without a pending log.
        for m in [&built, &*snap] {
            let before = m.context().stats();
            let r = bfs_multi_dir(m, &sources, Direction::Push);
            let after = m.context().stats();
            assert_eq!(
                after.push_frontier_entries - before.push_frontier_entries,
                r.n_reached as u64
            );
            assert_eq!(after.push_mxm - before.push_mxm, r.iterations as u64);
        }

        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
            let (want, _) = converted(&rebuilt, dir);
            let (got, added) = converted(&snap, dir);
            assert_eq!(got, want, "overlay {dir:?}");
            assert_eq!(added, 0, "overlay {dir:?}");
        }
    }

    /// The word loops compute the same thing in either direction — on
    /// R-MAT(10, 16) at B2SR-16, whose 8.5 bits per tile it holds (at B2SR-8,
    /// 3.8 bits, it would hold no tiles), so the node-word push of `bfs`
    /// scatters tile words; the lane words of `bfs_multi` scatter from the
    /// CSR.
    #[test]
    fn word_loop_is_identical_across_directions() {
        let adj = generators::rmat(10, 16, 0.57, 0.19, 0.19, 9).symmetrized();
        let sources: Vec<usize> = (0..70).map(|l| (l * 29 + 3) % adj.nrows()).collect();
        let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S16));
        assert!(m.b2sr().is_some(), "precondition: the matrix holds tiles");
        let want_one = bfs_dir(&m, sources[0], Direction::Push);
        let want = bfs_multi_dir(&m, &sources, Direction::Push);
        assert_eq!(
            bfs_dir(&m, sources[0], Direction::Pull).levels,
            want_one.levels
        );
        assert_eq!(
            bfs_multi_dir(&m, &sources, Direction::Pull).levels,
            want.levels
        );
        assert_eq!(
            bfs_dir(&m, sources[0], Direction::Auto).levels,
            want_one.levels
        );
        assert_eq!(
            bfs_multi_dir(&m, &sources, Direction::Auto).levels,
            want.levels
        );
    }

    /// Serve's retry and bisection paths depend on a transient injected at
    /// the batched dispatch coming back as a typed error.
    #[test]
    fn injected_dispatch_transient_surfaces_from_the_word_loop() {
        use bitgblas_core::{FailSpec, FaultAction, FaultInjector, FaultPlan};
        let m = Matrix::from_csr(&generators::path(20), Backend::Bit(TileSize::S8));
        // Let two rounds through, fail the third.
        let plan = FaultPlan::new()
            .with(FailSpec::always("grb.mxm_dispatch", FaultAction::Latency(1)).with_max_fires(2))
            .with(FailSpec::always("grb.mxm_dispatch", FaultAction::Transient).with_max_fires(1));
        let inj = std::sync::Arc::new(FaultInjector::new(7, plan));
        m.context().set_fault_injector(Some(inj));
        let before = m.context().stats();
        assert_eq!(
            try_bfs_multi_dir(&m, &[0, 7], Direction::Auto),
            Err(GrbError::FaultInjected {
                point: "grb.mxm_dispatch"
            })
        );
        let after = m.context().stats();
        assert_eq!(
            after.pull_mxm + after.push_mxm - before.pull_mxm - before.push_mxm,
            2
        );
        // The plan is spent: the retry runs clean, in words.
        let retry = try_bfs_multi_dir(&m, &[0, 7], Direction::Auto).unwrap();
        assert_eq!(retry.level(19, 0), 19);
        assert_eq!(m.context().stats().converted_elems, 0);
    }

    /// … and the same of the bit loop, at the point of the product it stands
    /// in for: `grb.mxv_dispatch` under `bfs`, `grb.mxm_dispatch` under a
    /// one-source `bfs_multi` (what serve injects at on a one-lane batch).
    #[test]
    fn injected_dispatch_transients_surface_from_the_bit_loop() {
        use bitgblas_core::{FailSpec, FaultAction, FaultInjector, FaultPlan};
        let m = Matrix::from_csr(&generators::path(20), Backend::Bit(TileSize::S8));
        type Run = fn(&Matrix) -> Result<i64, GrbError>;
        let runs: [(&'static str, Run); 2] = [
            ("grb.mxv_dispatch", |m| {
                try_bfs_dir(m, 0, Direction::Auto).map(|r| r.levels[19])
            }),
            ("grb.mxm_dispatch", |m| {
                try_bfs_multi_dir(m, &[0], Direction::Auto).map(|r| r.level(19, 0))
            }),
        ];
        for (point, run) in runs {
            // Let two rounds through, fail the third.
            let plan = FaultPlan::new()
                .with(FailSpec::always(point, FaultAction::Latency(1)).with_max_fires(2))
                .with(FailSpec::always(point, FaultAction::Transient).with_max_fires(1));
            let inj = std::sync::Arc::new(FaultInjector::new(7, plan));
            m.context().set_fault_injector(Some(inj));
            let before = m.context().stats();
            assert_eq!(run(&m), Err(GrbError::FaultInjected { point }));
            let after = m.context().stats();
            let products = |c: &bitgblas_core::grb::ExecCounts| {
                c.pull_mxv + c.push_mxv + c.pull_mxm + c.push_mxm
            };
            assert_eq!(products(&after) - products(&before), 2, "{point}");
            // The plan is spent: the retry runs clean, in bits.
            assert_eq!(run(&m), Ok(19), "{point}");
            assert_eq!(m.context().stats().converted_elems, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one source")]
    fn bfs_multi_rejects_empty_batch() {
        let m = Matrix::from_csr(&generators::path(4), Backend::FloatCsr);
        let _ = bfs_multi(&m, &[]);
    }
}
