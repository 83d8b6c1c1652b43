//! Backend-parity property suite: every algorithm must produce identical
//! results on `Bit(S4)`, `Bit(S8)`, `Bit(S16)`, `FloatCsr` and `Auto` for
//! random graphs drawn from the `datagen` generators — the acceptance bar of
//! every backend kind.
//!
//! Unlike `property_based.rs` (which drives the kernels on uniform random
//! edge lists), this suite samples *structured* graphs — every generator
//! family the paper's corpus covers — so the automatic format selection is
//! exercised across patterns that resolve to different backends.

mod common;

use proptest::prelude::*;

use bit_graphblas::algorithms::{bfs_multi_dir, reference, sssp_multi_dir};
use bit_graphblas::core::grb::choose_direction;
use bit_graphblas::core::grb::direction::SCATTER_EDGE_WEIGHT;
use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

use common::{
    assert_f32_slices_match, direction_backends, graph_strategy, large_graph_strategy,
    parity_backends,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BFS levels match the queue-based reference on every backend.
    #[test]
    fn bfs_parity(adj in graph_strategy(), src in 0usize..1000) {
        let src = src % adj.nrows();
        let expected = reference::bfs_levels(&adj, src);
        for backend in parity_backends() {
            let m = Matrix::from_csr(&adj, backend);
            prop_assert_eq!(&bfs(&m, src).levels, &expected, "{:?}", backend);
        }
    }

    /// SSSP distances match Bellman-Ford on every backend.
    #[test]
    fn sssp_parity(adj in graph_strategy(), src in 0usize..1000) {
        let src = src % adj.nrows();
        let expected = reference::sssp_distances(&adj, src);
        for backend in parity_backends() {
            let m = Matrix::from_csr(&adj, backend);
            assert_f32_slices_match(&sssp(&m, src).distances, &expected, "sssp", backend);
        }
    }

    /// PageRank ranks agree with the float baseline on every backend.
    #[test]
    fn pagerank_parity(adj in graph_strategy()) {
        let config = PageRankConfig { max_iterations: 15, ..Default::default() };
        let baseline = pagerank(&Matrix::from_csr(&adj, Backend::FloatCsr), &config);
        for backend in parity_backends() {
            let got = pagerank(&Matrix::from_csr(&adj, backend), &config);
            prop_assert_eq!(got.iterations, baseline.iterations, "{:?}", backend);
            assert_f32_slices_match(&got.ranks, &baseline.ranks, "pagerank", backend);
        }
    }

    /// Connected-component labels match union-find on every backend.
    #[test]
    fn cc_parity(adj in graph_strategy()) {
        let expected = reference::cc_labels(&adj);
        for backend in parity_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let got = connected_components(&m);
            prop_assert_eq!(&got.labels, &expected, "{:?}", backend);
        }
    }

    /// Triangle counts match the wedge-checking reference on every backend.
    /// (TC takes lower triangles, so Auto re-decides on `L` and `Lᵀ` and may
    /// even mix backends — the cross-backend fallback must stay exact.)
    #[test]
    fn tc_parity(adj in graph_strategy()) {
        let sym = adj.symmetrized().without_diagonal();
        let expected = reference::triangle_count(&sym);
        for backend in parity_backends() {
            let m = Matrix::from_csr(&sym, backend);
            prop_assert_eq!(triangle_count(&m), expected, "{:?}", backend);
        }
    }

    /// BFS levels are identical whichever traversal direction is forced —
    /// push, pull and the per-iteration Auto switch — on every backend the
    /// direction engine supports.
    #[test]
    fn bfs_direction_parity(adj in graph_strategy(), src in 0usize..1000) {
        let src = src % adj.nrows();
        let expected = reference::bfs_levels(&adj, src);
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let got = bfs_dir(&m, src, dir);
                prop_assert_eq!(&got.levels, &expected, "{:?} {:?}", backend, dir);
            }
        }
    }

    /// SSSP distances are bit-identical across directions (min is exact
    /// under reordering) and match Bellman-Ford.
    #[test]
    fn sssp_direction_parity(adj in graph_strategy(), src in 0usize..1000) {
        let src = src % adj.nrows();
        let expected = reference::sssp_distances(&adj, src);
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let pull = sssp_dir(&m, src, Direction::Pull);
            for dir in [Direction::Push, Direction::Auto] {
                let got = sssp_dir(&m, src, dir);
                prop_assert_eq!(&got.distances, &pull.distances, "{:?} {:?}", backend, dir);
            }
            assert_f32_slices_match(&pull.distances, &expected, "sssp", backend);
        }
    }

    /// PR-3 fusion parity: a representative expression chain — product,
    /// affine stage, ewise link, accumulator, with and without a mask —
    /// produces identical results whether the planner fuses it or executes
    /// node-at-a-time, on every direction and every acceptance backend.
    #[test]
    fn fused_pipeline_equals_node_at_a_time(adj in graph_strategy(), src in 0usize..1000) {
        let n = adj.nrows();
        let src = src % n;
        let ctx = Context::default();
        let sparse = Vector::indicator(n, &[src]);
        let dense = Vector::from_vec((0..n).map(|i| (i % 5) as f32 * 0.5).collect());
        let operand = Vector::from_vec((0..n).map(|i| (i % 7) as f32).collect());
        let base = Vector::from_vec((0..n).map(|i| (i % 3) as f32).collect());
        let mask = Mask::new((0..n).map(|i| i % 4 != 1).collect());
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            for (x, semiring) in [(&sparse, Semiring::Boolean), (&dense, Semiring::Arithmetic)] {
                for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                    for masked in [false, true] {
                        let build = |fusion: Fusion| {
                            let mut op = Op::vxm(x, &m)
                                .semiring(semiring)
                                .direction(dir)
                                .affine(2.0, 1.0)
                                .then_ewise(BinaryOp::Plus, &operand)
                                .accum(BinaryOp::Max, &base)
                                .fusion(fusion);
                            if masked {
                                op = op.mask(&mask);
                            }
                            op.run(&ctx)
                        };
                        let fused = build(Fusion::Fused);
                        let unfused = build(Fusion::NodeAtATime);
                        assert_f32_slices_match(
                            fused.as_slice(),
                            unfused.as_slice(),
                            "fused pipeline",
                            backend,
                        );
                    }
                }
            }
            // The monoid-accumulator shape that folds into the sweep.
            let mut dist = Vector::identity(n, Semiring::MinPlus(1.0));
            dist.set(src, 0.0);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let relax = |fusion: Fusion| {
                    Op::vxm(&dist, &m)
                        .semiring(Semiring::MinPlus(1.0))
                        .direction(dir)
                        .accum(BinaryOp::Min, &dist)
                        .fusion(fusion)
                        .run(&ctx)
                };
                prop_assert_eq!(
                    relax(Fusion::Fused),
                    relax(Fusion::NodeAtATime),
                    "min-accum {:?} {:?}",
                    backend,
                    dir
                );
            }
        }
    }

    /// Batched multi-source BFS parity (PR 4): column `j` of `bfs_multi`
    /// equals `bfs_dir` from source `j`, on every acceptance backend
    /// (including `Auto`) in push, pull and auto — the contract of the
    /// frontier-matrix engine.
    #[test]
    fn bfs_multi_column_equals_single_source(adj in graph_strategy(), seed in 0usize..1000) {
        let n = adj.nrows();
        // Three sources spread from the seed, duplicates allowed.
        let sources = [seed % n, (seed * 7 + 13) % n, (seed * 31 + 5) % n];
        let mut backends = direction_backends();
        backends.push(Backend::Auto);
        for backend in backends {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let batched = bfs_multi_dir(&m, &sources, dir);
                for (l, &s) in sources.iter().enumerate() {
                    let single = bfs_dir(&m, s, dir);
                    for v in 0..n {
                        prop_assert_eq!(
                            batched.level(v, l),
                            single.levels[v],
                            "{:?} {:?} lane {} vertex {}",
                            backend, dir, l, v
                        );
                    }
                }
            }
        }
    }

    /// Batched multi-source SSSP parity: every lane equals the
    /// single-source distances bit-for-bit across backends and directions.
    #[test]
    fn sssp_multi_column_equals_single_source(adj in graph_strategy(), seed in 0usize..1000) {
        let n = adj.nrows();
        let sources = [seed % n, (seed * 11 + 3) % n];
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                let batched = sssp_multi_dir(&m, &sources, dir);
                for (l, &s) in sources.iter().enumerate() {
                    let single = sssp_dir(&m, s, dir);
                    for v in 0..n {
                        prop_assert_eq!(
                            batched.distance(v, l),
                            single.distances[v],
                            "{:?} {:?} lane {} vertex {}",
                            backend, dir, l, v
                        );
                    }
                }
            }
        }
    }

    /// Whole-algorithm fusion parity: fused PageRank and SSSP equal their
    /// node-at-a-time executions on every acceptance backend.
    #[test]
    fn algorithm_fusion_parity(adj in graph_strategy(), src in 0usize..1000) {
        let src = src % adj.nrows();
        let fused_cfg = PageRankConfig { max_iterations: 12, ..Default::default() };
        let unfused_cfg = PageRankConfig { fusion: Fusion::NodeAtATime, ..fused_cfg };
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let pr_fused = pagerank(&m, &fused_cfg);
            let pr_unfused = pagerank(&m, &unfused_cfg);
            prop_assert_eq!(pr_fused.iterations, pr_unfused.iterations, "{:?}", backend);
            for (v, (a, b)) in pr_fused.ranks.iter().zip(&pr_unfused.ranks).enumerate() {
                prop_assert!(
                    (a - b).abs() < 1e-6,
                    "pagerank {:?}: vertex {}: {} vs {}",
                    backend, v, a, b
                );
            }
            let ss_fused = sssp_with(&m, src, Direction::Auto, Fusion::Fused);
            let ss_unfused = sssp_with(&m, src, Direction::Auto, Fusion::NodeAtATime);
            prop_assert_eq!(
                &ss_fused.distances,
                &ss_unfused.distances,
                "sssp {:?}",
                backend
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Serial push execution
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On every bit tile size and the float baseline, forced-push BFS and
    /// SSSP on larger graphs equal the pull (SSSP by `to_bits`: its
    /// min-plus sums of unit weights are exact) and BFS equals Auto.
    #[test]
    fn forced_push_equals_pull_and_auto_on_large_graphs(
        adj in large_graph_strategy(),
        src in 0usize..1_000,
    ) {
        let src = src % adj.nrows();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        for backend in direction_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let levels = bfs_dir(&m, src, Direction::Push).levels;
            let dist = bits(&sssp_dir(&m, src, Direction::Push).distances);
            let pull = bfs_dir(&m, src, Direction::Pull).levels;
            let auto = bfs_dir(&m, src, Direction::Auto).levels;
            prop_assert_eq!(&pull, &levels, "{:?} push≠pull", backend);
            prop_assert_eq!(&auto, &levels, "{:?} auto≠push", backend);
            let pull = bits(&sssp_dir(&m, src, Direction::Pull).distances);
            prop_assert_eq!(&pull, &dist, "{:?} SSSP push≠pull", backend);
        }
    }
}

/// Every full-precision push is one serial scatter: on a dense-tile matrix
/// (the mesh at B2SR-8), on a hypersparse bit matrix (R-MAT at B2SR-8, 2.9
/// bits per tile: no tiles) and on the float baseline (R-MAT), forced-push
/// Arithmetic, MinPlus and MaxTimes products — one lane (`vxm`) and three
/// (`mxm`, both orientations), each seeded by its monoid accumulator over a
/// baseline of NaN, ±∞ and ±0.0, with NaN, ±∞ and −0.0 among the operand
/// entries — equal, by `to_bits`, the seed `base ⊕ identity` plus one
/// `csr_push_full` call over the whole ascending frontier.
#[test]
fn full_precision_push_equals_one_serial_scatter() {
    use bit_graphblas::core::kernels::csr_push_full;

    let mesh = generators::banded(2048, 32, 0.7, 5);
    let rmat = generators::rmat(11, 12, 0.57, 0.19, 0.19, 17).symmetrized();
    let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 1.5];
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    for (adj, backend, tiled) in [
        (&mesh, Backend::Bit(TileSize::S8), true),
        (&rmat, Backend::Bit(TileSize::S8), false),
        (&rmat, Backend::FloatCsr, false),
    ] {
        let ctx = Context::default();
        let m = Matrix::from_csr_ctx(adj, backend, &ctx);
        let n = m.nrows();
        assert_eq!(m.b2sr().is_some(), tiled, "{backend:?}");
        for semiring in [
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(0.5),
        ] {
            let id = semiring.identity();
            let op = BinaryOp::monoid_of(semiring);
            for k in [1usize, 3] {
                // Two nodes in three carry terms, a few of them hostile —
                // few enough that most outputs stay finite.
                let x: Vec<f32> = (0..n * k)
                    .map(|f| match (f / k % 3, f % 211) {
                        (0, _) => id,
                        (_, 0) => hostile[(f / 211) % 4],
                        (_, r) => 0.37 * (r % 7) as f32 - 1.1,
                    })
                    .collect();
                let base: Vec<f32> = (0..n * k).map(|f| hostile[f % hostile.len()]).collect();
                let frontier: Vec<usize> = (0..n)
                    .filter(|&u| x[u * k..][..k].iter().any(|&v| !semiring.is_identity(v)))
                    .collect();
                // The seed plus one serial scatter over the rows of `scattered`.
                let serial = |scattered: &Csr| {
                    let mut y: Vec<f32> = base.iter().map(|&b| op.apply(b, id)).collect();
                    csr_push_full(scattered, &x, k, &frontier, semiring, |_| true, &mut y);
                    bits(&y)
                };
                let what = format!("{backend:?} {semiring:?} k={k}");
                if k == 1 {
                    let (xv, bv) = (Vector::from_vec(x.clone()), Vector::from_vec(base.clone()));
                    let got = Op::vxm(&xv, &m)
                        .semiring(semiring)
                        .direction(Direction::Push)
                        .accum(op, &bv)
                        .run(&ctx);
                    assert_eq!(bits(got.as_slice()), serial(m.csr()), "vxm {what}");
                }
                let xk = MultiVec::from_vec(x.clone(), n, k);
                let bk = MultiVec::from_vec(base.clone(), n, k);
                for transpose in [false, true] {
                    let mut product = Op::mxm(&m, &xk)
                        .semiring(semiring)
                        .direction(Direction::Push)
                        .accum(op, &bk);
                    if transpose {
                        product = product.transpose();
                    }
                    let scattered = if transpose { m.csr() } else { m.csr_t() };
                    let got = product.run(&ctx);
                    assert_eq!(
                        bits(got.as_slice()),
                        serial(scattered),
                        "mxm {what} {transpose}"
                    );
                }
            }
        }
    }
}

/// Every lane-word push scatters from the CSR.  On the mesh at B2SR-8,
/// which holds tiles, forced-push lane products — `Op::mxm_lanes` in words
/// and the `f32` Boolean batch, both orientations, 64 lanes — equal their
/// pulls; and `Direction::Auto` resolves the two alike for frontiers of 1
/// to 160 nodes, which cross its push/pull threshold.
#[test]
fn lane_word_push_equals_its_pull() {
    let mesh = generators::banded(2048, 32, 0.7, 5);
    let ctx = Context::default();
    let m = Matrix::from_csr_ctx(&mesh, Backend::Bit(TileSize::S8), &ctx);
    let n = m.nrows();
    assert!(m.b2sr().is_some(), "precondition: the mesh holds tiles");

    // Lane `l` of node `i` is set in a fifth of the (node, lane) pairs.
    let k = 64;
    let flat = (0..n * k).map(|f| ((f / k * 7 + f % k) % 5 == 0) as u8 as f32);
    let xk = MultiVec::from_vec(flat.collect(), n, k);
    let lanes = LaneBits::from_multivec(&xk);
    for transpose in [false, true] {
        let run = |d: Direction| {
            let (mut words, mut batch) = (
                Op::mxm_lanes(&m, &lanes).direction(d),
                Op::mxm(&m, &xk).semiring(Semiring::Boolean).direction(d),
            );
            if transpose {
                (words, batch) = (words.transpose(), batch.transpose());
            }
            (words.try_run(&ctx).unwrap().unwrap(), batch.run(&ctx))
        };
        let push = run(Direction::Push);
        assert_eq!(push, run(Direction::Pull), "transpose={transpose}");
    }

    // Auto: per frontier size, whether each product pushed.
    let resolved: Vec<(bool, bool)> = (1..=160usize)
        .map(|f| {
            let mut x = vec![0.0f32; n];
            for i in 0..f {
                x[i * (n / f)] = 1.0;
            }
            let xk = MultiVec::from_vec(x, n, 1);
            let lanes = LaneBits::from_multivec(&xk);
            let pushed = |run: &dyn Fn()| {
                let before = ctx.stats().push_mxm;
                run();
                ctx.stats().push_mxm > before
            };
            let words = || {
                let next = Op::mxm_lanes(&m, &lanes).transpose().try_run(&ctx);
                next.unwrap().unwrap().recycle(&ctx);
            };
            let batch = || {
                let next = Op::mxm(&m, &xk).semiring(Semiring::Boolean).transpose();
                ctx.recycle(next.run(&ctx));
            };
            (pushed(&words), pushed(&batch))
        })
        .collect();
    assert!(
        resolved.contains(&(true, true)) && resolved.contains(&(false, false)),
        "precondition: the sweep crosses the threshold: {resolved:?}"
    );
    assert!(
        resolved.iter().all(|(words, batch)| words == batch),
        "the word and f32 batches resolve alike: {resolved:?}"
    );
}

/// The node-word push runs on tiles where the matrix holds them (the mesh
/// at B2SR-8) and on the CSR where it does not (R-MAT at B2SR-8): on both, a
/// fat frontier spread across the whole row range pushes to what it pulls.
#[test]
fn node_word_push_equals_pull_with_and_without_tiles() {
    let mesh = generators::banded(2048, 32, 0.7, 5);
    let rmat = generators::rmat(11, 12, 0.57, 0.19, 0.19, 17).symmetrized();
    let ctx = Context::default();
    for (adj, tiled) in [(&mesh, true), (&rmat, false)] {
        let n = adj.nrows();
        let positions: Vec<usize> = (0..n).step_by(3).collect();
        let x = Vector::indicator(n, &positions);
        let m = Matrix::from_csr_ctx(adj, Backend::Bit(TileSize::S8), &ctx);
        assert_eq!(m.b2sr().is_some(), tiled);
        let run = |d: Direction| {
            Op::vxm(&x, &m)
                .semiring(Semiring::Boolean)
                .direction(d)
                .run(&ctx)
        };
        assert_eq!(run(Direction::Push), run(Direction::Pull), "tiled={tiled}");
    }
}

/// `Context::with_threads` is the default context: on the mesh at B2SR-8,
/// built under `Context::with_threads(4)` and under `Context::default()`,
/// forced-push `bfs_dir`, `bfs_multi_dir` (64 sources) and `Op::vxm_bits`
/// agree bit for bit between the two contexts and with their pulls, and
/// neither context counts a sharded push or a shard segment.
#[test]
fn with_threads_context_pushes_as_the_default_one() {
    let mesh = generators::banded(2048, 32, 0.7, 5);
    let sources: Vec<usize> = (0..64).map(|l| (l * 31 + 7) % mesh.nrows()).collect();
    let frontier = NodeBits::from_indices(mesh.nrows(), &sources);
    // A matrix runs its traversals on its own copy of the context it was
    // built with; the word product runs on the context handed to it.
    let run = |ctx: &Context, d: Direction| {
        let m = Matrix::from_csr_ctx(&mesh, Backend::Bit(TileSize::S8), ctx);
        assert!(m.b2sr().is_some(), "precondition: the mesh holds tiles");
        let next = Op::vxm_bits(&frontier, &m)
            .direction(d)
            .try_run(ctx)
            .unwrap()
            .unwrap();
        let got = (
            bfs_dir(&m, sources[0], d).levels,
            bfs_multi_dir(&m, &sources, d).levels,
            next,
        );
        for s in [ctx.stats(), m.context().stats()] {
            assert_eq!((s.sharded_push, s.shard_segments), (0, 0), "{d:?}");
        }
        let s = m.context().stats();
        let pushed = (s.push_mxv > 0, s.push_mxm > 0);
        assert_eq!(pushed, (d == Direction::Push, d == Direction::Push));
        got
    };
    let (threaded, default) = (Context::with_threads(4), Context::default());
    let push = run(&threaded, Direction::Push);
    assert!(
        push == run(&default, Direction::Push),
        "with_threads(4) ≠ default"
    );
    assert!(push == run(&threaded, Direction::Pull), "push ≠ pull");
    assert!(
        push == run(&default, Direction::Pull),
        "push ≠ pull (default)"
    );
}

/// Edge case: an all-identity operand (empty frontier) produces the
/// identity output in every direction, including a source vertex with no
/// out-edges terminating BFS after one iteration.
#[test]
fn empty_frontier_is_identity_in_every_direction() {
    let adj = generators::erdos_renyi(96, 0.04, true, 42);
    let ctx = Context::default();
    let zero = Vector::zeros(96);
    let inf = Vector::identity(96, Semiring::MinPlus(1.0));
    for backend in [
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
        Backend::Bit(TileSize::S16),
        Backend::FloatCsr,
    ] {
        let m = Matrix::from_csr(&adj, backend);
        for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
            let bool_out = Op::vxm(&zero, &m)
                .semiring(Semiring::Boolean)
                .direction(dir)
                .run(&ctx);
            assert_eq!(bool_out.nnz(), 0, "{backend:?} {dir:?}");
            let minplus_out = Op::vxm(&inf, &m)
                .semiring(Semiring::MinPlus(1.0))
                .direction(dir)
                .run(&ctx);
            assert!(
                minplus_out.as_slice().iter().all(|v| v.is_infinite()),
                "{backend:?} {dir:?}"
            );
        }
    }

    // BFS from an out-degree-0 vertex: one empty iteration, any direction.
    let mut coo = Coo::new(8, 8);
    coo.push_edge(1, 2).unwrap();
    let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S4));
    for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
        let r = bfs_dir(&m, 0, dir);
        assert_eq!(r.n_reached, 1, "{dir:?}");
        assert_eq!(r.iterations, 1, "{dir:?}");
    }
}

/// Shapes that straddle tile boundaries (n = 17, 33, 65: one row/column
/// past a tile edge for every tile size) — the ragged last tile-row and
/// tile-column of the Boolean pull — reach the reference BFS levels at every
/// tile width, pulled and under the per-iteration switch.
#[test]
fn tile_straddling_shapes_match_the_reference() {
    for n in [17usize, 33, 65] {
        for adj in [
            generators::erdos_renyi(n, 0.15, true, n as u64),
            generators::cycle(n),
        ] {
            let expected = reference::bfs_levels(&adj, 0);
            for backend in TileSize::ALL
                .map(Backend::Bit)
                .into_iter()
                .chain([Backend::Auto])
            {
                let m = Matrix::from_csr(&adj, backend);
                for dir in [Direction::Pull, Direction::Auto] {
                    let got = bfs_dir(&m, 0, dir);
                    assert_eq!(got.levels, expected, "n={n} {backend:?} {dir:?}");
                }
            }
        }
    }
}

/// Edge case: frontiers straddling the Beamer-style switch threshold —
/// fully dense (forces pull under Auto), exactly at, just below and just
/// above the modelled crossover — all agree with both forced directions.
#[test]
fn full_density_and_threshold_frontiers_agree() {
    let adj = generators::erdos_renyi(256, 0.03, true, 7);
    let ctx = Context::default();
    let nnz = adj.nnz();
    // The crossover frontier size of the traffic model (see
    // grb::choose_direction): f * d̄ * penalty = nnz + n.
    let threshold = ((nnz + 256) as f64
        / ((nnz as f64 / 256.0).max(1.0) * SCATTER_EDGE_WEIGHT as f64))
        as usize;
    let sizes = [threshold.saturating_sub(1), threshold, threshold + 1, 256];
    for backend in [Backend::Bit(TileSize::S16), Backend::FloatCsr] {
        let m = Matrix::from_csr(&adj, backend);
        for &k in &sizes {
            let positions: Vec<usize> = (0..k.min(256)).collect();
            let x = Vector::indicator(256, &positions);
            let pull = Op::vxm(&x, &m)
                .semiring(Semiring::Boolean)
                .direction(Direction::Pull)
                .run(&ctx);
            let push = Op::vxm(&x, &m)
                .semiring(Semiring::Boolean)
                .direction(Direction::Push)
                .run(&ctx);
            let auto = Op::vxm(&x, &m)
                .semiring(Semiring::Boolean)
                .direction(Direction::Auto)
                .run(&ctx);
            assert_eq!(push, pull, "{backend:?} frontier {k}");
            assert_eq!(auto, pull, "{backend:?} frontier {k}");
        }
    }
}

/// The full-precision analogue: frontiers straddling the edge-priced rule
/// (`m_f · W · P < nnz + n`, `grb::choose_direction`) — one fold below, at
/// and one above its crossover, a hub-only frontier (a few nodes whose
/// edges are past it) and a leaf-heavy one (many nodes, few edges) — give
/// push ≡ pull ≡ auto by `to_bits` under `MinPlus` and `Arithmetic`, and
/// Auto's choice, read off the context's counters, is the rule's: the
/// leaf-heavy frontier pushes where node pricing pulled, the hubs pull.
#[test]
fn full_precision_edge_threshold_frontiers_agree() {
    let adj = generators::rmat(9, 8, 0.57, 0.19, 0.19, 11).symmetrized();
    let (n, nnz) = (adj.nrows(), adj.nnz());
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    let degree = |i: usize| adj.row_nnz(i);
    // The least frontier edge count that pulls.
    let crossover = (1..=nnz)
        .find(|&m_f| {
            let d = choose_direction(0, m_f, (n, 1), nnz, Semiring::Arithmetic, threads);
            d == Direction::Pull
        })
        .expect("a dense operand pulls");
    let node_pricing =
        |nodes: usize| choose_direction(nodes, 0, (n, 1), nnz, Semiring::Boolean, threads);
    let mut by_degree: Vec<usize> = (0..n).filter(|&i| degree(i) > 0).collect();
    by_degree.sort_by_key(|&i| (std::cmp::Reverse(degree(i)), i));
    // Highest degrees first, each node taken while it fits: exact once the
    // degree-1 nodes are reached.
    let with_edges = |target: usize| {
        let mut sum = 0;
        let nodes: Vec<usize> = by_degree
            .iter()
            .copied()
            .filter(|&i| {
                let fits = sum + degree(i) <= target;
                sum += if fits { degree(i) } else { 0 };
                fits
            })
            .collect();
        assert_eq!(sum, target, "no exact frontier of {target} edges");
        nodes
    };
    let hubs: Vec<usize> = by_degree
        .iter()
        .copied()
        .scan(0, |sum, i| {
            let take = *sum < crossover;
            *sum += degree(i);
            take.then_some(i)
        })
        .collect();
    let leaves: Vec<usize> = by_degree.iter().rev().copied().take(n / 4).collect();
    let edges = |nodes: &[usize]| nodes.iter().map(|&i| degree(i)).sum::<usize>();
    assert!(edges(&leaves) < crossover, "the leaves' edges are few");
    assert_eq!(node_pricing(leaves.len()), Direction::Pull, "many leaves");
    assert!(2 * hubs.len() < leaves.len(), "a few hubs, many leaves");
    let frontiers = [
        ("one below", with_edges(crossover - 1), Direction::Push),
        ("at", with_edges(crossover), Direction::Pull),
        ("one above", with_edges(crossover + 1), Direction::Pull),
        ("hub-only", hubs, Direction::Pull),
        ("leaf-heavy", leaves, Direction::Push),
    ];
    let bits = |v: &Vector| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
        let m = Matrix::from_csr(&adj, backend);
        let ctx = Context::default();
        for semiring in [Semiring::MinPlus(1.0), Semiring::Arithmetic] {
            for (what, nodes, want) in &frontiers {
                let mut x = Vector::identity(n, semiring);
                for &i in nodes {
                    x.set(i, 1.0 + (i % 5) as f32 * 0.25);
                }
                let run = |direction| {
                    let before = ctx.stats();
                    let y = Op::vxm(&x, &m)
                        .semiring(semiring)
                        .direction(direction)
                        .run(&ctx);
                    let after = ctx.stats();
                    let pushed = after.push_mxv - before.push_mxv == 1;
                    if pushed {
                        let edges_counted = after.push_frontier_edges - before.push_frontier_edges;
                        assert_eq!(edges_counted as usize, edges(nodes), "{what}");
                    }
                    (y, pushed)
                };
                let label = format!("{backend:?} {semiring:?} {what}");
                let (pull, _) = run(Direction::Pull);
                let (push, _) = run(Direction::Push);
                let (auto, auto_pushed) = run(Direction::Auto);
                assert_eq!(bits(&push), bits(&pull), "{label}");
                assert_eq!(bits(&auto), bits(&pull), "{label}");
                let chosen = if auto_pushed {
                    Direction::Push
                } else {
                    Direction::Pull
                };
                assert_eq!(chosen, *want, "{label}: {} edges", edges(nodes));
            }
        }
    }
}

/// A whole Auto BFS on a structured graph actually *switches*: the context
/// counters must record both push iterations (sparse fringe) and pull
/// iterations (the dense hump).
#[test]
fn auto_bfs_uses_both_directions_on_a_dense_hump_graph() {
    let adj = generators::rmat(11, 16, 0.57, 0.19, 0.19, 3).symmetrized();
    let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let r = bfs_dir(&m, 0, Direction::Auto);
    assert!(r.n_reached > 1000, "RMAT core must be reachable");
    let stats = m.context().stats();
    assert!(
        stats.push_mxv > 0,
        "sparse fringe iterations must push: {stats:?}"
    );
    assert!(
        stats.pull_mxv > 0,
        "the dense hump iteration must pull: {stats:?}"
    );
}

/// The paper's Figure-5 story, end to end: `Backend::Auto` resolves each
/// pattern to the widest tile size whose counted tiles fill — the band and
/// the blocks to B2SR-32 — and a pattern whose tiles fill at no width
/// (R-MAT, unstructured scatter) to `Bit(S8)` without tiles, never to the
/// float baseline.  The choice is deterministic, and it is the widest width
/// at which a `Backend::Bit` build of the same graph holds tiles.
#[test]
fn auto_selection_differs_across_corpus_patterns() {
    let mut coo = Coo::new(4096, 4096);
    for r in (0..4096usize).step_by(3) {
        coo.push_edge(r, (r * 7 + 13) % 4096).unwrap();
    }
    for (what, adj, want, tiled) in [
        (
            "band",
            generators::banded(2048, 3, 0.8, 7),
            TileSize::S32,
            true,
        ),
        (
            "blocks",
            generators::block_community(16, 64, 0.5, 1e-5, 9),
            TileSize::S32,
            true,
        ),
        (
            "R-MAT",
            generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized(),
            TileSize::S8,
            false,
        ),
        ("scatter", coo.to_binary_csr(), TileSize::S8, false),
    ] {
        let m = Matrix::from_csr(&adj, Backend::Auto);
        assert_eq!(m.backend(), Backend::Auto, "{what}");
        assert_eq!(m.resolved_backend(), Backend::Bit(want), "{what}");
        assert_eq!(m.b2sr().is_some(), tiled, "{what}");
        assert_eq!(
            Matrix::from_csr(&adj, Backend::Auto).resolved_backend(),
            m.resolved_backend(),
            "{what}"
        );
        let widest = TileSize::ALL
            .into_iter()
            .rev()
            .find(|&ts| Matrix::from_csr(&adj, Backend::Bit(ts)).b2sr().is_some());
        assert_eq!(widest, tiled.then_some(want), "{what}");
    }
}

/// The pin that keeps the one planner path honest: the **bare** product of
/// a one-lane `MultiVec` through `Op::mxm` is bit-identical to `Op::mxv` /
/// `Op::vxm` on the same operand — every backend (an overlay with pending
/// inserts and deletes included), semiring, direction and mask sense.  And
/// the one that keeps the one pull sweep honest: the bare and masked-bare
/// pull on every bit width, and through the overlay, is bit-identical to
/// `FloatCsr` on the same graph.  The batched row — four lanes under a
/// per-(node, lane) mask — holds that against `FloatCsr` in both directions.
/// Two graphs, so that bit matrices pull with tiles and without: a scatter
/// pattern (no tiles at B2SR-4) and a band (tiles at every width).  MinPlus
/// over hostile operands holds the same on both
/// ([`assert_min_plus_one_lane_parity`]).
#[test]
fn one_lane_mxm_equals_mxv_and_vxm_bitwise() {
    let scatter = generators::erdos_renyi(96, 0.05, true, 131);
    let band = generators::banded(96, 6, 0.8, 131);
    for ts in TileSize::ALL {
        let tiled = |adj: &Csr| Matrix::from_csr(adj, Backend::Bit(ts)).b2sr().is_some();
        assert!(tiled(&band), "{ts:?}");
        if ts == TileSize::S4 {
            assert!(!tiled(&scatter));
        }
    }
    for base in [scatter, band] {
        assert_min_plus_one_lane_parity(&base);
        assert_one_lane_parity(base);
    }
}

/// A snapshot of `base` on `backend` with inserts and deletes pending: a
/// `DeltaOverlay` over the built backend.
fn with_pending_deltas(base: &Csr, backend: Backend) -> Snapshot {
    let n = base.nrows();
    let live = Matrix::from_csr(base, backend);
    let mut deltas: Vec<EdgeDelta> = (0..n)
        .step_by(5)
        .map(|i| EdgeDelta::insert(i, (i * 7 + 3) % n))
        .collect();
    deltas.extend(
        base.iter()
            .step_by(4)
            .map(|(r, c, _)| EdgeDelta::delete(r, c)),
    );
    live.apply_deltas(&deltas).unwrap();
    let overlay = live.snapshot();
    assert_ne!(overlay.csr(), base, "the deltas must be pending");
    overlay
}

/// MinPlus over hostile operands, the row pull's compare-select fold and
/// the one chain of `MinPlus(−0.0)`, `±∞` and NaN: an operand holding NaN,
/// ±∞, −0.0 and subnormals beside unreached nodes, every weight in {0, 1,
/// −2.5, −0.0, ±∞, NaN}; bare, masked (plain and complemented), `min`-accumulated over
/// a hostile baseline (SSSP's shape) and affine (PPR's).  On `FloatCsr`,
/// B2SR-4 (no tiles on the scatter pattern), B2SR-8, and an overlay
/// over `FloatCsr` and over B2SR-4: the one-lane `Op::mxm` is bit-identical
/// to `Op::mxv` / `Op::vxm` both ways, and every pull to `FloatCsr`'s on the
/// same graph.
fn assert_min_plus_one_lane_parity(base: &Csr) {
    let n = base.nrows();
    let ctx = Context::default();
    let built = [
        Backend::FloatCsr,
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
    ]
    .map(|b| Matrix::from_csr(base, b));
    let overlays =
        [Backend::FloatCsr, Backend::Bit(TileSize::S4)].map(|b| with_pending_deltas(base, b));
    let merged_float = Matrix::from_csr(overlays[0].csr(), Backend::FloatCsr);
    let float = &built[0];
    // (name, matrix, `FloatCsr` on the same graph)
    let matrices: [(&str, &Matrix, &Matrix); 5] = [
        ("FloatCsr", float, float),
        ("Bit(S4)", &built[1], float),
        ("Bit(S8)", &built[2], float),
        ("overlay on FloatCsr", &overlays[0], &merged_float),
        ("overlay on Bit(S4)", &overlays[1], &merged_float),
    ];
    let grid = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -0.0,
        0.0,
        1e-45,
        -f32::MIN_POSITIVE / 2.0,
        1.5,
        -2.5,
    ];
    // A third of the nodes unreached (`+∞`, the identity), the rest the grid.
    let x: Vector = (0..n)
        .map(|i| match i % 3 {
            0 => f32::INFINITY,
            _ => grid[(i * 5) % grid.len()],
        })
        .collect::<Vec<f32>>()
        .into();
    let dist: Vector = (0..n)
        .map(|i| grid[(i * 7 + 2) % grid.len()])
        .collect::<Vec<f32>>()
        .into();
    let structure: Vec<bool> = (0..n).map(|i| i % 3 != 1).collect();
    let masks = [Mask::new(structure.clone()), Mask::complemented(structure)];
    let lane = MultiVec::from_columns(std::slice::from_ref(&x));
    let lane_dist = MultiVec::from_columns(std::slice::from_ref(&dist));
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    for (backend, a, float) in matrices {
        for w in [
            0.0,
            1.0,
            -2.5,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ] {
            let semiring = Semiring::MinPlus(w);
            for dir in [Direction::Push, Direction::Pull] {
                for flip in [false, true] {
                    for shape in 0..5 {
                        let single = |a: &Matrix| {
                            let mut one = if flip { Op::vxm(&x, a) } else { Op::mxv(a, &x) };
                            one = one.semiring(semiring).direction(dir);
                            one = match shape {
                                1 | 2 => one.mask(&masks[shape - 1]),
                                3 => one.accum(BinaryOp::Min, &dist),
                                4 => one.affine(0.85, 0.01),
                                _ => one,
                            };
                            bits(one.run(&ctx).as_slice())
                        };
                        let mut many = Op::mxm(a, &lane).semiring(semiring).direction(dir);
                        if flip {
                            many = many.transpose();
                        }
                        many = match shape {
                            1 | 2 => many.mask(&masks[shape - 1]),
                            3 => many.accum(BinaryOp::Min, &lane_dist),
                            4 => many.affine(0.85, 0.01),
                            _ => many,
                        };
                        let what =
                            format!("{backend} MinPlus({w:?}) {dir:?} flip={flip} shape {shape}");
                        let one = single(a);
                        assert_eq!(bits(many.run(&ctx).as_slice()), one, "{what}");
                        if dir == Direction::Pull {
                            assert_eq!(one, single(float), "vs FloatCsr: {what}");
                        }
                    }
                }
            }
        }
    }
}

fn assert_one_lane_parity(base: Csr) {
    let n = base.nrows();
    let ctx = Context::default();
    let overlay = with_pending_deltas(&base, Backend::Bit(TileSize::S8));
    let built = [
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
        Backend::Bit(TileSize::S16),
        Backend::Bit(TileSize::S32),
        Backend::FloatCsr,
    ]
    .map(|b| Matrix::from_csr(&base, b));
    let float = &built[4];
    let merged_float = Matrix::from_csr(overlay.csr(), Backend::FloatCsr);
    // (name, matrix, `FloatCsr` on the same graph)
    let matrices: [(&str, &Matrix, &Matrix); 6] = [
        ("Bit(S4)", &built[0], float),
        ("Bit(S8)", &built[1], float),
        ("Bit(S16)", &built[2], float),
        ("Bit(S32)", &built[3], float),
        ("FloatCsr", float, float),
        ("overlay on Bit(S8)", &overlay, &merged_float),
    ];
    // Unmasked, plain and complemented; over `n` and over the batched row's
    // flat `n · LANES`.
    const LANES: usize = 4;
    let masks_over = |len: usize| {
        let structure: Vec<bool> = (0..len).map(|i| i % 3 != 1).collect();
        [
            None,
            Some(Mask::new(structure.clone())),
            Some(Mask::complemented(structure)),
        ]
    };
    let (masks, batch_masks) = (masks_over(n), masks_over(n * LANES));
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    for (backend, a, float) in matrices {
        for semiring in [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.5),
            Semiring::MaxTimes(0.75),
        ] {
            // Active on a third of the nodes, with values whose float sums
            // depend on the fold order.
            let active = |i: usize| match semiring {
                Semiring::Boolean => 1.0,
                _ => 0.37 * (i % 11) as f32 + 0.1,
            };
            let x: Vector = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        active(i)
                    } else {
                        semiring.identity()
                    }
                })
                .collect::<Vec<f32>>()
                .into();
            let lane = MultiVec::from_columns(std::slice::from_ref(&x));
            let batch = MultiVec::from_vec(
                (0..n * LANES)
                    .map(|f| match (f / LANES + f % LANES) % 3 {
                        0 => active(f),
                        _ => semiring.identity(),
                    })
                    .collect(),
                n,
                LANES,
            );
            for dir in [Direction::Push, Direction::Pull] {
                for (mask, batch_mask) in masks.iter().zip(&batch_masks) {
                    for flip in [false, true] {
                        let what = format!("{backend} {semiring:?} {dir:?} flip={flip} {mask:?}");
                        let single = |a: &Matrix| {
                            let mut one = if flip { Op::vxm(&x, a) } else { Op::mxv(a, &x) };
                            one = one.semiring(semiring).direction(dir);
                            if let Some(m) = mask {
                                one = one.mask(m);
                            }
                            bits(one.run(&ctx).as_slice())
                        };
                        let mut many = Op::mxm(a, &lane).semiring(semiring).direction(dir);
                        if flip {
                            many = many.transpose();
                        }
                        if let Some(m) = mask {
                            many = many.mask(m);
                        }
                        let one = single(a);
                        assert_eq!(bits(many.run(&ctx).as_slice()), one, "{what}");
                        if dir == Direction::Pull {
                            assert_eq!(one, single(float), "vs FloatCsr: {what}");
                        }
                        // The batched row, masked per (node, lane): every
                        // backend against `FloatCsr`, scatter and sweep alike
                        // (an overlay re-folds its dirty rows in sweep order
                        // under a scatter too, so there its float sums agree
                        // with a scatter's only to rounding).
                        let refolded_scatter = std::ptr::eq(a, &*overlay)
                            && dir == Direction::Push
                            && semiring == Semiring::Arithmetic;
                        let batched = |a: &Matrix| {
                            let mut many = Op::mxm(a, &batch).semiring(semiring).direction(dir);
                            if flip {
                                many = many.transpose();
                            }
                            if let Some(m) = batch_mask {
                                many = many.mask(m);
                            }
                            bits(many.run(&ctx).as_slice())
                        };
                        if !refolded_scatter {
                            assert_eq!(batched(a), batched(float), "{LANES} lanes: {what}");
                        }
                    }
                }
            }
        }
    }
}

/// Every `try_run` shape violation — operand, mask, scale, stage operand,
/// accumulator — is the same `GrbError` from both shapes (the operand check
/// differs only in the operation it names).
#[test]
fn shape_violations_are_the_same_error_from_both_shapes() {
    use bit_graphblas::core::grb::GrbError;
    let adj = generators::erdos_renyi(12, 0.2, true, 5);
    let a = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let ctx = Context::default();
    let (good, short) = (Vector::zeros(12), Vector::zeros(9));
    let (good_mv, short_mv) = (MultiVec::zeros(12, 1), MultiVec::zeros(9, 1));
    let short_mask = Mask::new(vec![true; 9]);

    let dim = |op| GrbError::DimensionMismatch {
        op,
        expected: 12,
        got: 9,
    };
    assert_eq!(Op::mxv(&a, &short).try_run(&ctx), Err(dim("mxv")));
    assert_eq!(Op::vxm(&short, &a).try_run(&ctx), Err(dim("vxm")));
    assert_eq!(Op::mxm(&a, &short_mv).try_run(&ctx), Err(dim("mxm")));

    let (one, many) = (|| Op::mxv(&a, &good), || Op::mxm(&a, &good_mv));
    let plus = BinaryOp::Plus;
    for (what, single, batched) in [
        (
            "mask length must equal output length",
            one().mask(&short_mask).try_run(&ctx).err(),
            many().mask(&short_mask).try_run(&ctx).err(),
        ),
        (
            "input scale length must equal the operand's node count",
            one().scale_input(&short).try_run(&ctx).err(),
            many().scale_input(&short).try_run(&ctx).err(),
        ),
        (
            "ewise stage operand length must equal output length",
            one().then_ewise(plus, &short).try_run(&ctx).err(),
            many().then_ewise(plus, &short_mv).try_run(&ctx).err(),
        ),
        (
            "accumulator length must equal output length",
            one().accum(plus, &short).try_run(&ctx).err(),
            many().accum(plus, &short_mv).try_run(&ctx).err(),
        ),
    ] {
        let expected = Some(GrbError::LengthMismatch {
            what,
            expected: 12,
            got: 9,
        });
        assert_eq!((single, batched), (expected, expected), "{what}");
    }
    let c = ctx.stats();
    assert_eq!(c.pull_mxv + c.push_mxv + c.pull_mxm + c.push_mxm, 0);
}
