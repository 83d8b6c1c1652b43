//! Criterion bench: BMM (bit SpGEMM) vs the float Gustavson SpGEMM baseline
//! (the counterpart of Figures 6d / 7d), the batched full-precision
//! matrix × multivector kernels behind `sssp_multi` / `ppr_multi`, the
//! lane-density sweep of the batched scatter, and the lane-word step of
//! `bfs_multi` at a thin and at a full frontier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::time::Duration;

use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::grb::{LaneBits, Op};
use bitgblas_core::kernels::{
    bmm_bin_bin_sum, bmm_bin_bin_sum_masked_nt, bmm_bin_full_into, bmm_push_bin_full,
    bmv_bin_full_full_fused_into,
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
    }
    group.finish();
}

/// The batched full-precision product at B2SR-8: the pull sweep at three
/// batch widths under both served semirings, the fused single-vector sweep
/// it must stay close to at `k = 1`, and the push scatter from a 1 %
/// frontier.  `rmat_s14` is the repo benchmark's R-MAT graph, where two
/// thirds of the tiles hold one bit.
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
            BenchmarkId::new("bmm_push_bin_full/MinPlus/k16/frontier_1pct", name),
            |b| {
                b.iter(|| {
                    y.fill(semiring.identity());
                    bmm_push_bin_full(&b8, &x, k, &frontier, semiring, |_| true, &mut y)
                })
            },
        );
    }
    group.finish();
}

/// The lane-density sweep behind `bmm_push_bin_full`'s dense-versus-
/// enumerated crossover (`DENSE_LANE_DIVISOR` in `kernels/bmm.rs`): `k = 64`
/// min-plus lanes, every node in the frontier — sixty-four SSSP lanes'
/// changed sets union to the whole graph — with 1, 4, 16, 32 or all 64 lanes
/// active per node, on the repo benchmark's banded mesh and R-MAT graph.
/// The enumerated arm's time grows with the active lanes; from the
/// crossover on the rows sit at the dense arm's flat cost.  `ppr_dense` is
/// the PPR-shaped case (arithmetic, every lane active): the dense arm must
/// cost what the kernel cost before it had a second arm.
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
        let b8 = from_csr::<u8>(&csr, 8);
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
                    bmm_push_bin_full(&b8, &x, k, &frontier, semiring, |_| true, &mut y)
                })
            });
        };
        for active in [1usize, 4, 16, 32, 64] {
            bench(
                format!("bmm_push_bin_full/MinPlus/k64/active{active}"),
                Semiring::MinPlus(1.0),
                active,
            );
        }
        bench(
            "bmm_push_bin_full/Arithmetic/k64/ppr_dense".to_string(),
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

criterion_group!(
    benches,
    bmm_benches,
    bmm_batched_benches,
    bmm_lane_density_benches,
    bmm_lane_word_benches
);
criterion_main!(benches);
