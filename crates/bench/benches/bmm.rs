//! Criterion bench: BMM (bit SpGEMM) vs the float Gustavson SpGEMM baseline
//! (the counterpart of Figures 6d / 7d), the Triangle Counting reduction's
//! tile kernel beside the index and word counts across tile fill, the batched
//! full-precision matrix × multivector kernels behind `sssp_multi` /
//! `ppr_multi`, the lane-density sweep of the full-precision push scatter,
//! the lane-word step of `bfs_multi` at a thin and at a full frontier, and
//! forced-push traversals at one and at two threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::time::Duration;

use bitgblas_algorithms::{bfs_dir, bfs_multi_dir, sssp_dir, sssp_multi_dir};
use bitgblas_bench::scattered_tiles;
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::grb::{Direction, LaneBits, Op};
use bitgblas_core::kernels::{
    bmm_bin_bin_sum, bmm_bin_bin_sum_masked_nt, bmm_bin_full_into, bmv_bin_full_full_fused_into,
    csr_push_full, csr_words_masked_count, RowWords,
};
use bitgblas_core::{Backend, EdgeDelta, Matrix, Semiring, TileSize};
use bitgblas_datagen::generators;
use bitgblas_sparse::{ops, Coo, Csr};

fn bench_matrices() -> Vec<(&'static str, Csr)> {
    vec![
        (
            "blocks_1k",
            generators::block_community(16, 64, 0.35, 1e-5, 1),
        ),
        ("banded_2k", generators::banded(2048, 4, 0.7, 2)),
        ("mycielskian10", generators::mycielskian(10)),
    ]
}

fn bmm_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    for (name, csr) in bench_matrices() {
        // Baseline: float SpGEMM followed by a reduction (cuSPARSE csrgemm + sum).
        group.bench_with_input(
            BenchmarkId::new("csr_spgemm_baseline", name),
            &csr,
            |b, csr| {
                b.iter(|| ops::reduce_sum(&ops::spgemm_parallel(csr, csr).unwrap()));
            },
        );

        let b8 = from_csr::<u8>(&csr, 8);
        group.bench_function(BenchmarkId::new("bmm_bin_bin_sum/B2SR-8", name), |b| {
            b.iter(|| bmm_bin_bin_sum(&b8, &b8));
        });
        let b32 = from_csr::<u32>(&csr, 32);
        group.bench_function(BenchmarkId::new("bmm_bin_bin_sum/B2SR-32", name), |b| {
            b.iter(|| bmm_bin_bin_sum(&b32, &b32));
        });

        // The Triangle-Counting shape: L * L^T masked by L.  Both kernels
        // take the second operand as `Bᵀ` by rows, so `L` is all three.
        let l = csr.symmetrized().without_diagonal().lower_triangle();
        let lb = from_csr::<u32>(&l, 32);
        group.bench_function(
            BenchmarkId::new("bmm_bin_bin_sum_masked_nt/tc_shape", name),
            |b| {
                b.iter(|| bmm_bin_bin_sum_masked_nt(&lb, &lb, &lb));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("csr_spgemm_masked_baseline/tc_shape", name),
            &l,
            |b, l| {
                b.iter(|| ops::spgemm_masked_sum(l, l, l).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("csr_spgemm_masked_count/tc_shape", name),
            &l,
            |b, l| {
                b.iter(|| ops::spgemm_masked_count(l, l, l).unwrap());
            },
        );
        // What a bit matrix without tiles runs: the word count over the
        // degree-ranked `L`, its row words packed once (the engine caches
        // them).
        let ranked = l.degree_ranked_lower_triangle();
        let words = RowWords::from_csr(&ranked);
        group.bench_function(
            BenchmarkId::new("csr_words_masked_count/tc_shape", name),
            |b| {
                b.iter(|| csr_words_masked_count(&ranked, &words, &ranked));
            },
        );
    }
    group.finish();
}

/// The fill sweep behind the masked-reduction table of
/// `grb::backend::MIN_TILE_FILL`: Triangle Counting's masked
/// reduction `Σ (L · Lᵀ) .* L` as the tile kernel
/// (`bmm_bin_bin_sum_masked_nt`, `L` all three operands) at every tile width
/// beside the index count of the same `L` (`ops::spgemm_masked_count`,
/// `{name}/count`) and the word count a bit matrix without tiles runs
/// (`csr_words_masked_count`, `{name}/words`: over `L` ranked by degree, the
/// operand such a matrix builds, its row words packed once), all bare.
/// `L` is the lower triangle of a symmetric graph: R-MAT(14, 16), the
/// benchmark's mesh pattern, and `tiles{d}x{d}_{b}bits` — R-MAT's edge count
/// laid out in scattered `d × d` tiles of `b` bits each, mirrored, so that
/// fill is the one variable.  16 384 vertices throughout; a tile row's id
/// ends in `L`'s mean bits per non-empty tile.  Not in CI (≈ 2 min):
/// `-- bmm_tc_fill`.
fn bmm_tc_fill_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm_tc_fill");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let n = 16384;
    let lower = |csr: Csr| csr.symmetrized().lower_triangle();
    let mut graphs: Vec<(String, Csr, Vec<TileSize>)> = vec![
        (
            "rmat".into(),
            lower(generators::rmat(14, 16, 0.57, 0.19, 0.19, 5)),
            TileSize::ALL.into(),
        ),
        (
            "mesh".into(),
            lower(generators::banded(n, 32, 0.7, 5)),
            TileSize::ALL.into(),
        ),
    ];
    for ts in TileSize::ALL {
        let d = ts.dim();
        for bits in [1, 2, 3, 4, 6, 8, 16, 64] {
            if bits <= d * d && bits <= 16 * d {
                let name = format!("tiles{d}x{d}_{bits}bits");
                graphs.push((name, lower(scattered_tiles(n, d, bits)), vec![ts]));
            }
        }
    }
    for (name, l, widths) in &graphs {
        group.bench_function(format!("{name}/count"), |b| {
            b.iter(|| ops::spgemm_masked_count(l, l, l).unwrap())
        });
        let ranked = l.degree_ranked_lower_triangle();
        let words = RowWords::from_csr(&ranked);
        group.bench_function(format!("{name}/words"), |b| {
            b.iter(|| csr_words_masked_count(&ranked, &words, &ranked))
        });
        for &ts in widths {
            let mut tile = |tiles: usize, run: &mut dyn FnMut() -> u64| {
                let bits = l.nnz() as f64 / tiles as f64;
                let id = format!("{name}/tile/{ts}_{bits:.1}_bits");
                group.bench_function(id, |b| b.iter(&mut *run));
            };
            match ts {
                TileSize::S4 | TileSize::S8 => {
                    let m = from_csr::<u8>(l, ts.dim());
                    tile(m.n_tiles(), &mut || bmm_bin_bin_sum_masked_nt(&m, &m, &m));
                }
                TileSize::S16 => {
                    let m = from_csr::<u16>(l, 16);
                    tile(m.n_tiles(), &mut || bmm_bin_bin_sum_masked_nt(&m, &m, &m));
                }
                TileSize::S32 => {
                    let m = from_csr::<u32>(l, 32);
                    tile(m.n_tiles(), &mut || bmm_bin_bin_sum_masked_nt(&m, &m, &m));
                }
            }
        }
    }
    group.finish();
}

/// The batched full-precision product: the B2SR-8 pull sweep at three batch
/// widths under both served semirings, the fused single-vector sweep it
/// must stay close to at `k = 1`, and the push scatter (over the CSR, as
/// every backend pushes full precision) from a 1 % frontier.  `rmat_s14` is
/// the repo benchmark's R-MAT graph, where two thirds of the B2SR-8 tiles
/// hold one bit.
fn bmm_batched_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm_batched");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let rmat = generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized();
    for (name, csr) in bench_matrices().into_iter().chain([("rmat_s14", rmat)]) {
        let n = csr.ncols();
        let b8 = from_csr::<u8>(&csr, 8);
        let padded = b8.n_tile_rows() * 8;
        let operand = |len: usize| -> Vec<f32> { (0..len).map(|i| ((i % 5) + 1) as f32).collect() };

        for semiring in [Semiring::Arithmetic, Semiring::MinPlus(1.0)] {
            for k in [1usize, 16, 64] {
                let x = operand(n * k);
                let mut y = vec![0.0f32; padded * k];
                group.bench_function(
                    BenchmarkId::new(format!("bmm_bin_full_into/{semiring:?}/k{k}"), name),
                    |b| b.iter(|| bmm_bin_full_into(&b8, &x, k, semiring, None, &mut y)),
                );
            }
            let x = operand(n);
            let mut y = vec![0.0f32; padded];
            group.bench_function(
                BenchmarkId::new(format!("bmv_bin_full_full_fused_into/{semiring:?}"), name),
                |b| b.iter(|| bmv_bin_full_full_fused_into(&b8, &x, semiring, |_, t| t, &mut y)),
            );
        }

        // Push: every hundredth node active in all 16 lanes.
        let k = 16;
        let semiring = Semiring::MinPlus(1.0);
        let frontier: Vec<usize> = (0..csr.nrows()).step_by(100).collect();
        let mut x = vec![semiring.identity(); csr.nrows() * k];
        for &u in &frontier {
            x[u * k..][..k].fill(1.0);
        }
        let mut y = vec![semiring.identity(); n * k];
        group.bench_function(
            BenchmarkId::new("csr_push_full/MinPlus/k16/frontier_1pct", name),
            |b| {
                b.iter(|| {
                    y.fill(semiring.identity());
                    csr_push_full(&csr, &x, k, &frontier, semiring, |_| true, &mut y)
                })
            },
        );
    }
    group.finish();
}

/// The lane-density sweep behind `csr_push_full`'s dense-versus-enumerated
/// crossover (`DENSE_LANE_DIVISOR` in `kernels/bmm.rs`, whose doc holds the
/// numbers): `k = 64` min-plus lanes, every node in the frontier — sixty-four
/// SSSP lanes' changed sets union to the whole graph — with 1, 4, 8, 12, 16,
/// 32 or all 64 lanes active per node, on the repo benchmark's banded mesh and
/// R-MAT graph.  The enumerated arm's time grows with the active lanes; from
/// the crossover on the rows sit at the dense arm's flat cost.  `ppr_dense`
/// is the PPR-shaped case (arithmetic, every lane active), which runs the
/// dense arm only.  ≈ 20 s.
fn bmm_lane_density_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm_lane_density");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let k = 64usize;
    let graphs = [
        ("banded_2k_w32", generators::banded(2048, 32, 0.7, 5)),
        (
            "rmat_s14",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
    ];
    for (name, csr) in graphs {
        let n = csr.nrows();
        let frontier: Vec<usize> = (0..n).collect();
        let mut bench = |label: String, semiring: Semiring, active: usize| {
            // Node u's active lanes are spread evenly, rotated by u.
            let mut x = vec![semiring.identity(); n * k];
            for u in 0..n {
                for i in 0..active {
                    x[u * k + (u + i * k / active) % k] = 1.0 + (i % 3) as f32;
                }
            }
            let mut y = vec![semiring.identity(); n * k];
            group.bench_function(BenchmarkId::new(label, name), |b| {
                b.iter(|| {
                    y.fill(semiring.identity());
                    csr_push_full(&csr, &x, k, &frontier, semiring, |_| true, &mut y)
                })
            });
        };
        for active in [1usize, 4, 8, 12, 16, 32, 64] {
            bench(
                format!("csr_push_full/MinPlus/k64/active{active}"),
                Semiring::MinPlus(1.0),
                active,
            );
        }
        bench(
            "csr_push_full/Arithmetic/k64/ppr_dense".to_string(),
            Semiring::Arithmetic,
            k,
        );
    }
    group.finish();
}

/// One round of `bfs_multi` in lane words (`Op::mxm_lanes`, 64 lanes, nothing
/// visited yet) on the repo benchmark's two graphs: from every hundredth node
/// — the thin frontier the kernel probes use, which `Direction::Auto` pushes
/// — and from every node, which it pulls.  With dozens of sources the union
/// of the wavefronts is the whole graph for most of a run, so the full row
/// is what a round costs once nothing is converted around it: one word OR
/// per edge.  The `overlay_*` rows run the same round on the same edge set
/// read through a few hundred pending deltas (`DeltaOverlay`): the base's
/// product plus the word re-fold of the dirty rows the frontier reaches.
fn bmm_lane_word_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmm_lane_words");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let k = 64usize;
    let graphs = [
        ("banded_2k_w32", generators::banded(2048, 32, 0.7, 5)),
        (
            "rmat_s14",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
    ];
    for (name, csr) in graphs {
        let n = csr.nrows();
        let built = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        // The same edge set behind a pending log: the edges among 384
        // symmetric pairs near the diagonal (inside the mesh's band) are
        // taken out of the base and inserted back by the log, so both sides
        // compute the same product.
        let moved: BTreeSet<(usize, usize)> = (0..384)
            .map(|i| ((i * 37 + 5) % (n - 17), 1 + i % 16))
            .flat_map(|(r, d)| [(r, r + d), (r + d, r)])
            .filter(|&(r, c)| csr.get(r, c).is_some())
            .collect();
        let mut without = Coo::new(n, n);
        for (r, c, _) in csr.iter().filter(|&(r, c, _)| !moved.contains(&(r, c))) {
            without.push_edge(r, c).expect("in bounds");
        }
        let pending = Matrix::from_csr(&without.to_binary_csr(), Backend::Bit(TileSize::S8));
        let log: Vec<EdgeDelta> = moved
            .iter()
            .map(|&(r, c)| EdgeDelta::insert(r, c))
            .collect();
        pending.apply_deltas(&log).expect("in bounds");
        let pending = pending.snapshot();

        let visited = LaneBits::zeros(n, k);
        for (prefix, a) in [("", &built), ("overlay_", &*pending)] {
            let ctx = a.context();
            for (label, stride) in [("frontier_1pct", 100usize), ("frontier_full", 1)] {
                let mut frontier = LaneBits::zeros(n, k);
                for u in (0..n).step_by(stride) {
                    for l in 0..k {
                        frontier.set(u, l);
                    }
                }
                group.bench_function(
                    BenchmarkId::new(format!("mxm_lanes/k64/{prefix}{label}"), name),
                    |b| {
                        b.iter(|| {
                            let next = Op::mxm_lanes(a, &frontier)
                                .transpose()
                                .and_not(&visited)
                                .try_run(ctx)
                                .expect("well-shaped operands")
                                .expect("a bit backend has the word product");
                            next.recycle(ctx)
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

/// Forced-push traversals — `bfs_dir`, `bfs_multi_dir` (64 sources),
/// `sssp_dir` and `sssp_multi_dir` (64 sources) — on the repo benchmark's two
/// graphs at B2SR-8, one build each.  Every push is one serial scatter: the
/// node words of `bfs_dir` on the mesh's tiles, everything else from the
/// CSR (R-MAT holds no tiles at B2SR-8).  Unpinned, ≈ 20 s;
/// `cargo bench -p bitgblas-bench --bench bmm -- push_dir/mesh` runs the
/// mesh half.
fn push_dir_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("push_dir");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let graphs = [
        ("mesh", generators::banded(2048, 32, 0.7, 5)),
        (
            "rmat",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
    ];
    type Run = fn(&Matrix, &[usize]);
    let algorithms: [(&str, Run); 4] = [
        ("bfs_dir", |m, s| drop(bfs_dir(m, s[0], Direction::Push))),
        ("bfs_multi_dir", |m, s| {
            drop(bfs_multi_dir(m, s, Direction::Push))
        }),
        ("sssp_dir", |m, s| drop(sssp_dir(m, s[0], Direction::Push))),
        ("sssp_multi_dir", |m, s| {
            drop(sssp_multi_dir(m, s, Direction::Push))
        }),
    ];
    for (name, csr) in graphs {
        let n = csr.nrows();
        let sources: Vec<usize> = (0..64).map(|l| (l * 997 + 3) % n).collect();
        let m = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        for (alg, run) in algorithms {
            let id = BenchmarkId::new(name, alg);
            group.bench_function(id, |b| b.iter(|| run(&m, &sources)));
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bmm_benches,
    bmm_tc_fill_benches,
    bmm_batched_benches,
    bmm_lane_density_benches,
    bmm_lane_word_benches,
    push_dir_benches
);
criterion_main!(benches);
