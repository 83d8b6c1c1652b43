//! Backend-parity property suite: every algorithm must produce identical
//! results on `Bit(S4)`, `Bit(S8)`, `Bit(S16)`, `FloatCsr` and `Auto` for
//! random graphs drawn from the `datagen` generators — the acceptance bar of
//! the `GrbBackend` redesign.
//!
//! Unlike `property_based.rs` (which drives the kernels on uniform random
//! edge lists), this suite samples *structured* graphs — every generator
//! family the paper's corpus covers — so the automatic format selection is
//! exercised across patterns that resolve to different backends.

mod common;

use proptest::prelude::*;

use bit_graphblas::algorithms::{bfs_multi_dir, reference, sssp_multi_dir};
use bit_graphblas::core::shard::SCATTER_EDGE_WEIGHT;
use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

use common::{
    assert_f32_slices_match, direction_backends, graph_strategy, parity_backends,
    shardable_graph_strategy,
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
// Sharded parallel push determinism (PR 5)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// PR-5 acceptance: on every bit tile size and the float baseline,
    /// forced-push BFS and SSSP produce **bit-identical** outputs whether
    /// the sharded scatter executes on 1, 2, 4 or 8 threads — including
    /// SSSP's min-plus float semiring, where the fixed-segment-order merge
    /// is what pins the fold grouping — and push ≡ pull ≡ auto parity
    /// holds throughout.
    #[test]
    fn sharded_push_is_bit_identical_across_thread_counts(
        adj in shardable_graph_strategy(),
        src in 0usize..1_000,
    ) {
        let src = src % adj.nrows();
        for backend in direction_backends() {
            // Build with an 8-thread budget so the plan is actually sharded.
            let ctx = Context::with_threads(8);
            let m = Matrix::from_csr_ctx(&adj, backend, &ctx);

            let mut ref_levels: Option<Vec<i64>> = None;
            let mut ref_dist_bits: Option<Vec<u32>> = None;
            for threads in [1usize, 2, 4, 8] {
                m.context().set_threads(threads);
                let levels = bfs_dir(&m, src, Direction::Push).levels;
                let dist = sssp_dir(&m, src, Direction::Push).distances;
                let dist_bits: Vec<u32> = dist.iter().map(|v| v.to_bits()).collect();
                match (&ref_levels, &ref_dist_bits) {
                    (None, _) => {
                        ref_levels = Some(levels);
                        ref_dist_bits = Some(dist_bits);
                    }
                    (Some(rl), Some(rd)) => {
                        prop_assert_eq!(&levels, rl, "{:?} BFS diverged at {} threads", backend, threads);
                        prop_assert_eq!(&dist_bits, rd, "{:?} SSSP diverged at {} threads", backend, threads);
                    }
                    _ => unreachable!(),
                }
            }

            // Push ≡ pull ≡ auto on the same (sharded) matrix.
            m.context().set_threads(8);
            let pull = bfs_dir(&m, src, Direction::Pull).levels;
            let auto = bfs_dir(&m, src, Direction::Auto).levels;
            prop_assert_eq!(&pull, ref_levels.as_ref().unwrap(), "{:?} push≠pull", backend);
            prop_assert_eq!(&auto, ref_levels.as_ref().unwrap(), "{:?} auto≠push", backend);
        }
    }

    /// The arithmetic semiring's float `+` is where merge grouping matters
    /// most: a fat forced-push product must still be bit-identical across
    /// thread counts (the grouping is pinned by the plan, not the threads).
    #[test]
    fn sharded_arithmetic_push_is_bit_identical(adj in shardable_graph_strategy(), seed in 1u64..1_000) {
        let n = adj.nrows();
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let ctx = Context::with_threads(8);
            let m = Matrix::from_csr_ctx(&adj, backend, &ctx);
            // A fat, irregular frontier with varied float values.
            let x = Vector::from_vec(
                (0..n)
                    .map(|i| {
                        let h = (i as u64).wrapping_mul(seed) % 7;
                        if h < 3 { h as f32 * 0.321 + 0.1 } else { 0.0 }
                    })
                    .collect(),
            );
            let mut reference: Option<Vec<u32>> = None;
            for threads in [1usize, 2, 4, 8] {
                ctx.set_threads(threads);
                let y = Op::vxm(&x, &m)
                    .semiring(Semiring::Arithmetic)
                    .direction(Direction::Push)
                    .run(&ctx);
                let bits: Vec<u32> = y.as_slice().iter().map(|v| v.to_bits()).collect();
                match &reference {
                    None => reference = Some(bits),
                    Some(r) => prop_assert_eq!(&bits, r, "{:?} threads={}", backend, threads),
                }
            }
        }
    }
}

/// The sharded path must actually *run* on a shard-worthy push (engagement
/// is observable through the context counters), and a serial-budget context
/// must keep every scatter on the serial kernels.
#[test]
fn sharded_push_engages_and_serial_contexts_stay_serial() {
    let adj = generators::rmat(11, 12, 0.57, 0.19, 0.19, 17).symmetrized();
    let n = adj.nrows();
    // A fat frontier spread across the whole row range spans many shards.
    let positions: Vec<usize> = (0..n).step_by(3).collect();
    let x = Vector::indicator(n, &positions);

    let parallel_ctx = Context::with_threads(8);
    let m = Matrix::from_csr_ctx(&adj, Backend::Bit(TileSize::S8), &parallel_ctx);
    let plan = m
        .state()
        .shard_plan(false)
        .expect("an 8-thread context must shard a 2048-row matrix");
    assert!(plan.n_shards() > 1, "plan must be partitioned: {plan:?}");
    Op::vxm(&x, &m)
        .semiring(Semiring::Boolean)
        .direction(Direction::Push)
        .run(&parallel_ctx);
    let stats = parallel_ctx.stats();
    assert!(
        stats.sharded_push > 0 && stats.shard_segments > 1,
        "shard-worthy push must take the sharded path: {stats:?}"
    );

    let serial_ctx = Context::with_threads(1);
    let ms = Matrix::from_csr_ctx(&adj, Backend::Bit(TileSize::S8), &serial_ctx);
    assert_eq!(
        ms.state().shard_plan(false).map(|p| p.n_shards()),
        Some(1),
        "a serial-budget context must build single-shard plans"
    );
    Op::vxm(&x, &ms)
        .semiring(Semiring::Boolean)
        .direction(Direction::Push)
        .run(&serial_ctx);
    assert_eq!(
        serial_ctx.stats().sharded_push,
        0,
        "serial plans must never fan out"
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
    for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
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

/// The paper's Figure-5 story, end to end: `Backend::Auto` picks *different*
/// tile sizes for at least two corpus patterns, and keeps CSR for scatter
/// with nothing to exploit.
#[test]
fn auto_selection_differs_across_corpus_patterns() {
    let banded = Matrix::from_csr(&generators::banded(2048, 3, 0.8, 7), Backend::Auto);
    let blocks = Matrix::from_csr(
        &generators::block_community(16, 64, 0.5, 1e-5, 9),
        Backend::Auto,
    );

    let banded_ts = match banded.resolved_backend() {
        Backend::Bit(ts) => ts,
        other => panic!("banded should resolve to a bit backend, got {other:?}"),
    };
    let blocks_ts = match blocks.resolved_backend() {
        Backend::Bit(ts) => ts,
        other => panic!("block pattern should resolve to a bit backend, got {other:?}"),
    };
    assert_ne!(
        banded_ts, blocks_ts,
        "auto selection must adapt the tile size to the pattern"
    );
    assert!(
        banded_ts.dim() < blocks_ts.dim(),
        "thin bands want smaller tiles than dense blocks"
    );

    // Unstructured scatter with ~1 bit per touched tile: keep the original CSR.
    let mut coo = Coo::new(4096, 4096);
    for r in (0..4096usize).step_by(3) {
        coo.push_edge(r, (r * 7 + 13) % 4096).unwrap();
    }
    let scatter = Matrix::from_csr(&coo.to_binary_csr(), Backend::Auto);
    assert_eq!(scatter.resolved_backend(), Backend::FloatCsr);
}

/// The pin that keeps the one planner path honest: the **bare** product of
/// a one-lane `MultiVec` through `Op::mxm` is bit-identical to `Op::mxv` /
/// `Op::vxm` on the same operand — every backend (an overlay with pending
/// inserts and deletes included), semiring, direction and mask sense.  And
/// the one that keeps the one pull sweep honest: the bare and masked-bare
/// pull on every bit width, and through the overlay, is bit-identical to
/// `FloatCsr` on the same graph.  The batched row — four lanes under a
/// per-(node, lane) mask — holds that against `FloatCsr` in both directions.
#[test]
fn one_lane_mxm_equals_mxv_and_vxm_bitwise() {
    let n = 96;
    let base = generators::erdos_renyi(n, 0.05, true, 131);
    let ctx = Context::default();
    let live = Matrix::from_csr(&base, Backend::Bit(TileSize::S8));
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
    assert_ne!(overlay.csr(), &base, "the deltas must be pending");
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
