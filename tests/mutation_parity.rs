//! Parity and snapshot-isolation proptests for the streaming-mutation
//! subsystem (PR 8).
//!
//! Two invariants, each over random base graphs and random edge-delta
//! streams:
//!
//! * **overlay parity** — traversals through a `base ⊕ delta` overlay
//!   snapshot equal the same traversals on the graph built from scratch
//!   with the deltas already folded in, across Bit8 / FloatCsr / Auto;
//! * **snapshot isolation** — a reader pinned to epoch E observes
//!   bit-identical results no matter how many writer appends and
//!   compactions land after E was taken (including appends racing from
//!   another thread).
//!
//! And plain tests on what the paths *cost* and how they are planned, on
//! exact counters: `refolded_positions` follows what the operand reaches,
//! `Direction::Auto` resolves every round through pending deltas as on the
//! compacted matrix, an append normalizes its own batch
//! (`entries_normalized`), and a compaction re-tiles the tile-rows its batch
//! dirtied (`CompactReport`) and equals a from-scratch build.

use proptest::prelude::*;

use std::collections::BTreeSet;

use bit_graphblas::algorithms::{bfs_multi_dir, sssp_multi_dir};
use bit_graphblas::core::{DeltaOverlay, DeltaSnapshot};
use bit_graphblas::prelude::*;

/// A random base graph (edge list) plus a random delta stream over the
/// same vertex set.  Deletions draw from the base edges by index so they
/// actually hit present edges about half the time.
fn graph_and_deltas() -> impl Strategy<Value = (Csr, Vec<EdgeDelta>)> {
    (4usize..40).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..120);
        let deltas = proptest::collection::vec((any::<bool>(), 0..n, 0..n), 0..40);
        (edges, deltas).prop_map(move |(edges, deltas)| {
            let mut coo = Coo::new(n, n);
            for (r, c) in edges {
                coo.push_edge(r, c).expect("in bounds");
            }
            let deltas = deltas
                .into_iter()
                .map(|(insert, r, c)| {
                    if insert {
                        EdgeDelta::insert(r, c)
                    } else {
                        EdgeDelta::delete(r, c)
                    }
                })
                .collect();
            (coo.to_binary_csr(), deltas)
        })
    })
}

/// The ground truth: fold `deltas` into `base` edge by edge (last op wins)
/// and rebuild a CSR from scratch.
fn folded_csr(base: &Csr, deltas: &[EdgeDelta]) -> Csr {
    let mut edges: BTreeSet<(usize, usize)> = base.iter().map(|(r, c, _)| (r, c)).collect();
    for d in deltas {
        match d.op {
            bit_graphblas::core::delta::DeltaOp::Insert => {
                edges.insert((d.row, d.col));
            }
            bit_graphblas::core::delta::DeltaOp::Delete => {
                edges.remove(&(d.row, d.col));
            }
        }
    }
    let mut coo = Coo::new(base.nrows(), base.ncols());
    for (r, c) in edges {
        coo.push_edge(r, c).expect("in bounds");
    }
    coo.to_binary_csr()
}

/// A mesh with symmetric in-band inserts and deletes pending: the matrix,
/// and its log (no pair appears twice, so one staged entry per delta).
fn mesh_with_pending_deltas(backend: Backend) -> (Matrix, Vec<EdgeDelta>) {
    let adj = bit_graphblas::datagen::generators::grid2d(16, 16);
    let m = Matrix::from_csr(&adj, backend);
    let mut log = Vec::new();
    for v in (3..250).step_by(9) {
        // A shortcut two columns on, and every other one loses a grid edge.
        log.extend([EdgeDelta::insert(v, v + 2), EdgeDelta::insert(v + 2, v)]);
        if v % 2 == 0 && adj.get(v, v + 1).is_some() {
            log.extend([EdgeDelta::delete(v, v + 1), EdgeDelta::delete(v + 1, v)]);
        }
    }
    m.apply_deltas(&log).unwrap();
    (m, log)
}

/// ROADMAP item 5's gates, on exact counters: a compaction re-tiles the
/// tile-rows its dirty rows fall in and copies the rest; the result is a
/// from-scratch build, array for array.  On a band, whose tiles fill; a
/// hypersparse R-MAT holds no tiles, so its compaction builds none and
/// counts none, like the float baseline's.
#[test]
fn compaction_retiles_what_the_batch_dirtied() {
    let adj = bit_graphblas::datagen::generators::banded(4096, 16, 0.5, 5);
    let n = adj.nrows();
    let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let tiles_before = m.b2sr().expect("bit backend").n_tiles();
    assert_eq!(n.div_ceil(8), 512);

    // 64 deltas spread uniformly over the rows (a multiplicative hash).
    let deltas: Vec<EdgeDelta> = (0..64usize)
        .map(|i| {
            let (r, c) = (i * 2_654_435_761 % n, (i * 40_503 + 17) % n);
            if i % 4 == 3 {
                EdgeDelta::delete(r, adj.row(r).0.first().copied().unwrap_or(c))
            } else {
                EdgeDelta::insert(r, c)
            }
        })
        .collect();
    m.apply_deltas(&deltas).unwrap();
    let normalized = m.entries_normalized();
    let report = m.compact(m.context()).unwrap();
    assert_eq!(
        m.entries_normalized(),
        normalized,
        "nothing raced in: a compaction normalizes nothing"
    );

    let head = m.snapshot();
    let tiles = head.b2sr().expect("compaction re-tiles").n_tiles();
    assert!(report.dirty_rows <= 64);
    assert!(report.tile_rows_retiled <= report.dirty_rows);
    assert_eq!(report.tiles_retiled + report.tiles_spliced, tiles);
    assert!(
        report.tiles_retiled < tiles_before / 2,
        "{report:?} of {tiles_before} tiles"
    );

    let scratch = Matrix::from_csr(&folded_csr(&adj, &deltas), Backend::Bit(TileSize::S8));
    assert_eq!(head.csr(), scratch.csr());
    assert_eq!(head.b2sr(), scratch.b2sr());

    // A float base and a hypersparse bit base have no tiles to count.
    let rmat = bit_graphblas::datagen::generators::rmat(12, 8, 0.57, 0.19, 0.19, 5).symmetrized();
    for (adj, backend) in [
        (&adj, Backend::FloatCsr),
        (&rmat, Backend::Bit(TileSize::S8)),
    ] {
        let f = Matrix::from_csr(adj, backend);
        f.apply_deltas(&deltas).unwrap();
        let report = f.compact(f.context()).unwrap();
        assert_eq!(
            (
                report.tile_rows_retiled,
                report.tiles_retiled,
                report.tiles_spliced
            ),
            (0, 0, 0),
            "{backend:?}"
        );
        assert!(f.snapshot().b2sr().is_none(), "{backend:?}");
        let scratch = Matrix::from_csr(&folded_csr(adj, &deltas), backend);
        assert_eq!(f.snapshot().csr(), scratch.csr());
    }
}

/// An append normalizes its own batch, however deep the log under it.
#[test]
fn an_append_normalizes_its_batch_not_the_log() {
    let adj = bit_graphblas::datagen::generators::rmat(12, 8, 0.57, 0.19, 0.19, 5).symmetrized();
    let n = adj.nrows();
    let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let delta = |i: usize| EdgeDelta::insert(i * 7919 % n, (i * 104_729 + 3) % n);
    m.apply_deltas(&(0..4096).map(delta).collect::<Vec<_>>())
        .unwrap();
    assert_eq!(m.entries_normalized(), 4096);
    for batch in 0..64 {
        let deltas: Vec<EdgeDelta> = (0..16).map(|i| delta(4096 + batch * 16 + i)).collect();
        m.apply_deltas(&deltas).unwrap();
    }
    assert_eq!(m.entries_normalized(), 4096 + 1024);
    assert_eq!(m.delta_len(), 4096 + 1024);
}

/// ROADMAP item 2(d) for overlay reads: the re-fold's exact work counter
/// follows what the operand reaches, not the size of the dirty set.
#[test]
fn overlay_refolds_what_the_operand_reaches() {
    for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
        let (m, log) = mesh_with_pending_deltas(backend);
        let snap = m.snapshot();
        let dirty_rows = log.iter().map(|d| d.row).collect::<BTreeSet<_>>().len() as u64;
        let refolded = |run: &dyn Fn()| {
            let before = snap.context().stats();
            run();
            let after = snap.context().stats();
            let ops = after.pull_mxv + after.push_mxv - before.pull_mxv - before.push_mxv;
            (after.refolded_positions - before.refolded_positions, ops)
        };

        // Forced-push BFS: each vertex is in the frontier once, so each
        // staged entry fires at most once over the whole traversal.
        let (bfs_refolds, rounds) = refolded(&|| {
            let r = bfs_dir(&snap, 0, Direction::Push);
            assert_eq!(r.n_reached, 256);
        });
        assert!(
            bfs_refolds > 0,
            "{backend:?}: the traversal crosses patched rows"
        );
        assert!(
            bfs_refolds <= log.len() as u64,
            "{backend:?}: {bfs_refolds}"
        );
        assert!(
            bfs_refolds < dirty_rows * rounds,
            "{backend:?}: {bfs_refolds}"
        );

        // An all-identity operand reaches nothing.
        let zero = Vector::zeros(256);
        for dir in [Direction::Push, Direction::Pull] {
            let (none, ops) = refolded(&|| {
                let _ = Op::vxm(&zero, &snap).direction(dir).run(snap.context());
            });
            assert_eq!((none, ops), (0, 1), "{backend:?} {dir:?}");
        }

        // A dense operand (PageRank's ranks) reaches every dirty row, every
        // iteration — what every op paid before the probe.
        let (dense, iterations) = refolded(&|| {
            let _ = pagerank(&snap, &PageRankConfig::default());
        });
        assert_eq!(dense, dirty_rows * iterations, "{backend:?}");
    }
}

/// `Direction::Auto` resolves every round through pending deltas as it does
/// on the compacted matrix: the node-word rounds of `bfs`, which push tile
/// words on the compacted matrix, and the batched rounds of `bfs_multi` and
/// `sssp_multi`.  R-MAT at B2SR-16 (5.5 bits per tile) holds tiles; at
/// B2SR-8 (2.9) it would hold none.
#[test]
fn auto_resolves_overlay_rounds_as_the_compacted_matrix_does() {
    let adj = bit_graphblas::datagen::generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized();
    let n = adj.nrows();
    let m = Matrix::from_csr(&adj, Backend::Bit(TileSize::S16));
    // Dirty rows stay among the first eighth.
    let dirty = n / 8;
    let deltas: Vec<EdgeDelta> = (0..200)
        .flat_map(|i| {
            let (r, c) = ((i * 37 + 5) % dirty, (i * 101 + 11) % dirty);
            [EdgeDelta::insert(r, c), EdgeDelta::insert(c, r)]
        })
        .collect();
    m.apply_deltas(&deltas).unwrap();
    let pending = m.snapshot();
    m.compact(m.context()).unwrap();
    let compacted = m.snapshot();
    // One reads through the overlay (no B2SR view of its own), one is built.
    assert!(pending.b2sr().is_none() && compacted.b2sr().is_some());
    assert_eq!(pending.csr(), compacted.csr());

    let sources: Vec<usize> = (0..70).map(|l| (l * 29 + 3) % n).collect();
    // `(push, pull)` rounds a run added on the context the snapshots share,
    // single-vector and batched.
    let rounds = |run: &dyn Fn()| {
        let before = m.context().stats();
        run();
        let after = m.context().stats();
        (
            after.push_mxv - before.push_mxv,
            after.pull_mxv - before.pull_mxv,
            after.push_mxm - before.push_mxm,
            after.pull_mxm - before.pull_mxm,
        )
    };
    let bfs_one = |snap: &Matrix| bfs_dir(snap, sources[0], Direction::Auto);
    let (on_pending, on_compacted) = (
        rounds(&|| drop(bfs_one(&pending))),
        rounds(&|| drop(bfs_one(&compacted))),
    );
    assert!(
        on_pending.0 > 0 && on_pending.1 > 0,
        "both directions occur: {on_pending:?}"
    );
    assert_eq!(on_pending, on_compacted, "bfs");
    assert_eq!(bfs_one(&pending), bfs_one(&compacted));
    let bfs_rounds =
        |snap: &Matrix| rounds(&|| drop(bfs_multi_dir(snap, &sources, Direction::Auto)));
    let sssp_rounds =
        |snap: &Matrix| rounds(&|| drop(sssp_multi_dir(snap, &sources, Direction::Auto)));
    let (on_pending, on_compacted) = (bfs_rounds(&pending), bfs_rounds(&compacted));
    assert!(
        on_pending.2 > 0 && on_pending.3 > 0,
        "both directions occur: {on_pending:?}"
    );
    assert_eq!(on_pending, on_compacted, "bfs_multi");
    assert_eq!(sssp_rounds(&pending), sssp_rounds(&compacted), "sssp_multi");
    assert_eq!(
        bfs_multi_dir(&pending, &sources, Direction::Auto),
        bfs_multi_dir(&compacted, &sources, Direction::Auto)
    );
    assert_eq!(
        sssp_multi_dir(&pending, &sources, Direction::Auto),
        sssp_multi_dir(&compacted, &sources, Direction::Auto)
    );
}

/// A compacted matrix is a from-scratch build of the same CSR: its tiles or
/// their absence, and every push — node-word, lane-word and full-precision,
/// one serial scatter each — bit for bit.  Three compactions of a ring of
/// dense tiles: dense rows beside the diagonal densify the first rows;
/// scattered edges on the same rows drop the fill under `MIN_TILE_FILL`, so
/// the bit backend's compaction keeps no tiles and pushes its words from the
/// CSR; deleting them (and the ring links they landed on) brings the tiles
/// back.  The float baseline never has tiles.
#[test]
fn compacted_tiles_and_push_products_equal_a_rebuild() {
    let n = 8192usize;
    let mut ring = Coo::new(n, n);
    for r in 0..n {
        for d in 1..=4 {
            ring.push_edge(r, (r + d) % n).unwrap();
        }
    }
    let ring = ring.to_binary_csr();
    let skew: Vec<EdgeDelta> = (0..1024)
        .flat_map(|r| (0..24).map(move |i| EdgeDelta::insert(r, r + 5 + i)))
        .collect();
    let scatter: Vec<EdgeDelta> = (0..1024)
        .flat_map(|r| (0..24).map(move |i| EdgeDelta::insert(r, (r * 37 + i * 331 + 7) % n)))
        .collect();
    let x = Vector::from_vec((0..n).map(|i| (i % 11) as f32 * 0.37 + 0.01).collect());
    let xk = MultiVec::from_vec(
        (0..n * 3).map(|f| (f % 7) as f32 * 0.21 + 0.5).collect(),
        n,
        3,
    );
    let active: Vec<usize> = (0..n).filter(|i| i % 11 != 3).collect();
    let node_words = NodeBits::from_indices(n, &active);
    let lane_words = LaneBits::from_multivec(&xk);
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
    // Forced-push products over both scatter representations — Arithmetic,
    // and the Boolean word products (none on the float baseline).
    let products = |m: &Matrix| {
        let ctx = m.context();
        let push = Direction::Push;
        let vxm = Op::vxm(&x, m)
            .semiring(Semiring::Arithmetic)
            .direction(push);
        let mxm = || {
            Op::mxm(m, &xk)
                .semiring(Semiring::Arithmetic)
                .direction(push)
        };
        let arithmetic = [
            bits(vxm.run(ctx).as_slice()),
            bits(mxm().transpose().run(ctx).as_slice()),
            bits(mxm().run(ctx).as_slice()),
        ];
        let nodes = || Op::vxm_bits(&node_words, m).direction(push);
        let lanes = || Op::mxm_lanes(m, &lane_words).direction(push);
        let words = (
            (nodes().try_run(ctx), nodes().transpose().try_run(ctx)),
            lanes().transpose().try_run(ctx),
            lanes().try_run(ctx),
        );
        (arithmetic, words)
    };
    let tiled = |m: &Matrix| m.b2sr().is_some();
    for backend in [Backend::FloatCsr, Backend::Bit(TileSize::S8)] {
        let m = Matrix::from_csr(&ring, backend);
        let bit = backend != Backend::FloatCsr;
        assert_eq!(tiled(&m), bit, "the ring's tiles are dense");
        let unscatter: Vec<EdgeDelta> = scatter
            .iter()
            .map(|d| EdgeDelta::delete(d.row, d.col))
            .collect();
        for (batch, holds_tiles) in [(&skew, bit), (&scatter, false), (&unscatter, bit)] {
            m.apply_deltas(batch).unwrap();
            m.compact(m.context()).unwrap();
            let compacted = m.snapshot();
            let rebuilt = Matrix::from_csr_ctx(compacted.csr(), backend, m.context());
            assert_eq!(tiled(&compacted), holds_tiles, "{backend:?}");
            assert_eq!(compacted.b2sr(), rebuilt.b2sr(), "{backend:?}");

            let (got, got_words) = products(&compacted);
            let (want, want_words) = products(&rebuilt);
            assert!(got == want, "{backend:?}: a full-precision push differs");
            assert_eq!(got_words, want_words, "{backend:?}");
            if bit {
                let ((node, node_t), transposed, lanes) = got_words;
                assert!(node.unwrap().is_some() && node_t.unwrap().is_some());
                assert!(transposed.unwrap().is_some() && lanes.unwrap().is_some());
            }
        }
    }
}

const BACKENDS: [Backend; 3] = [Backend::Bit(TileSize::S8), Backend::FloatCsr, Backend::Auto];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlay parity: BFS levels, SSSP distances and CC labels through the
    /// merge-on-read overlay are identical to a from-scratch build of the
    /// mutated graph — on the bit backend, the float baseline, and Auto —
    /// single-source and batched (whole results: levels / distances, round
    /// counts, reached counts), in every direction.
    #[test]
    fn overlay_traversals_match_a_scratch_build((base, deltas) in graph_and_deltas()) {
        let expected_csr = folded_csr(&base, &deltas);
        for backend in BACKENDS {
            let m = Matrix::from_csr(&base, backend);
            m.apply_deltas(&deltas).unwrap();
            let snap = m.snapshot();
            let scratch = Matrix::from_csr(&expected_csr, backend);

            prop_assert_eq!(snap.csr(), scratch.csr(), "{:?}: merged CSR", backend);
            prop_assert_eq!(
                bfs(&snap, 0).levels,
                bfs(&scratch, 0).levels,
                "{:?}: BFS",
                backend
            );
            prop_assert_eq!(
                sssp(&snap, 0).distances,
                sssp(&scratch, 0).distances,
                "{:?}: SSSP",
                backend
            );
            let (a, b) = (connected_components(&snap), connected_components(&scratch));
            prop_assert_eq!(a.labels, b.labels, "{:?}: CC labels", backend);
            prop_assert_eq!(a.n_components, b.n_components, "{:?}: CC count", backend);

            // Batched × overlay: more lanes than one word, duplicates included.
            let n = base.nrows();
            let sources: Vec<usize> = (0..70).map(|l| (l * 7) % n).collect();
            for dir in [Direction::Push, Direction::Pull, Direction::Auto] {
                prop_assert_eq!(
                    bfs_multi_dir(&snap, &sources, dir),
                    bfs_multi_dir(&scratch, &sources, dir),
                    "{:?} {:?}: batched BFS",
                    backend,
                    dir
                );
                prop_assert_eq!(
                    sssp_multi_dir(&snap, &sources[..5], dir),
                    sssp_multi_dir(&scratch, &sources[..5], dir),
                    "{:?} {:?}: batched SSSP",
                    backend,
                    dir
                );
            }
        }
    }

    /// Snapshot isolation: a reader pinned to epoch E is bit-stable across
    /// concurrent writer appends from another thread AND across an explicit
    /// compaction, on both backends.
    #[test]
    fn pinned_snapshots_are_bit_stable_under_writes((base, deltas) in graph_and_deltas()) {
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let m = Matrix::from_csr(&base, backend);
            // Stage half the stream, pin E, then race the rest in.
            let (first, rest) = deltas.split_at(deltas.len() / 2);
            m.apply_deltas(first).unwrap();
            let snap = m.snapshot();
            let epoch = snap.epoch();
            let levels = bfs(&snap, 0).levels;
            let distances = sssp(&snap, 0).distances;

            std::thread::scope(|scope| {
                let writer = scope.spawn(|| {
                    for d in rest {
                        m.apply_deltas(std::slice::from_ref(d)).unwrap();
                    }
                });
                // Interleave reads with the writer's appends.
                for _ in 0..3 {
                    assert_eq!(bfs(&snap, 0).levels, levels);
                }
                writer.join().expect("writer thread");
            });

            // After every append landed, and again after a compaction, the
            // pinned reader still answers bit-identically.
            m.compact(m.context()).unwrap();
            prop_assert_eq!(snap.epoch(), epoch);
            prop_assert_eq!(bfs(&snap, 0).levels, levels, "{:?}: BFS stable", backend);
            prop_assert_eq!(
                sssp(&snap, 0).distances,
                distances,
                "{:?}: SSSP stable",
                backend
            );
            // And the post-compaction head equals the scratch build — the
            // tiles too, array for array.
            let folded = folded_csr(&base, &deltas);
            let compacted = m.snapshot();
            prop_assert_eq!(compacted.csr(), &folded, "{:?}: folded head", backend);
            prop_assert_eq!(compacted.b2sr(), Matrix::from_csr(&folded, backend).b2sr());

            // The compacted base is pinned in turn; ten more appends and an
            // incremental compaction (clean tile-rows copied out of this very
            // base) later it still reads its own rows bit for bit, and so
            // does the first pin.
            let tiles = compacted.b2sr().cloned();
            let levels_compacted = bfs(&compacted, 0).levels;
            let n = base.nrows();
            let more: Vec<EdgeDelta> = (0..10)
                .map(|i| match (i * 7 % n, (i * 5 + 1) % n) {
                    (r, c) if i % 3 == 0 => EdgeDelta::delete(r, c),
                    (r, c) => EdgeDelta::insert(r, c),
                })
                .collect();
            for d in &more {
                m.apply_deltas(std::slice::from_ref(d)).unwrap();
            }
            let report = m.compact(m.context()).unwrap();
            prop_assert!(report.tile_rows_retiled <= report.dirty_rows);
            prop_assert_eq!(compacted.csr(), &folded);
            prop_assert_eq!(compacted.b2sr(), tiles.as_ref());
            prop_assert_eq!(&bfs(&compacted, 0).levels, &levels_compacted);
            prop_assert_eq!(snap.epoch(), epoch);
            prop_assert_eq!(&bfs(&snap, 0).levels, &levels);
            let all: Vec<EdgeDelta> = deltas.iter().chain(&more).copied().collect();
            let refolded = folded_csr(&base, &all);
            let head = m.snapshot();
            prop_assert_eq!(head.csr(), &refolded);
            prop_assert_eq!(head.b2sr(), Matrix::from_csr(&refolded, backend).b2sr());
            prop_assert_eq!(
                report.tiles_retiled + report.tiles_spliced,
                head.b2sr().map_or(0, B2srMatrix::n_tiles)
            );
        }
    }

    /// The staged view a head carries after every append of a randomly cut
    /// log is the from-scratch normalization of the whole log so far, and
    /// the normalizer has been shown each entry exactly once.
    #[test]
    fn staged_view_equals_a_whole_log_normalization_after_every_append(
        (base, deltas) in graph_and_deltas(),
        cuts in proptest::collection::vec(1usize..9, 40),
    ) {
        let m = Matrix::from_csr(&base, Backend::Bit(TileSize::S8));
        let (mut seen, mut cuts) = (0usize, cuts.into_iter());
        while seen < deltas.len() {
            let batch = cuts.next().unwrap_or(1).min(deltas.len() - seen);
            m.apply_deltas(&deltas[seen..seen + batch]).unwrap();
            seen += batch;
            let snap = m.snapshot();
            let overlay = snap
                .state()
                .as_any()
                .downcast_ref::<DeltaOverlay>()
                .expect("a pending log reads through an overlay");
            prop_assert_eq!(overlay.delta(), &DeltaSnapshot::build(&base, &deltas[..seen]));
            prop_assert_eq!(m.entries_normalized(), seen as u64);
        }
    }
}
