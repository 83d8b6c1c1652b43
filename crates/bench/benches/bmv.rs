//! Criterion bench: BMV kernel schemes vs the float CSR SpMV baseline
//! (the statistically-sound counterpart of Figures 6a–c / 7a–c), the
//! full-precision pull on the repo benchmark's two graphs, and the
//! scalar-vs-SWAR Boolean pull sweep across frontier densities and across
//! how much of a BFS is already visited.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_algorithms::reference;
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::kernels::{
    bmv_bin_bin_bin_into, bmv_bin_bin_bin_masked_into, bmv_bin_bin_bin_masked_simd_into,
    bmv_bin_bin_bin_simd_into, bmv_bin_bin_full_masked, bmv_bin_full_full_into, pack_vector_bits,
    pack_vector_tilewise_into,
};
use bitgblas_core::Semiring;
use bitgblas_datagen::generators;
use bitgblas_sparse::{ops, Csr, DenseVec};

fn bench_matrices() -> Vec<(&'static str, Csr)> {
    vec![
        ("banded_4k", generators::banded(4096, 3, 0.7, 1)),
        (
            "blocks_2k",
            generators::block_community(32, 64, 0.3, 1e-5, 2),
        ),
        ("scatter_4k", generators::erdos_renyi(4096, 0.002, true, 3)),
    ]
}

fn bmv_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    for (name, csr) in bench_matrices() {
        let n = csr.ncols();
        let x: Vec<f32> = (0..n).map(|i| ((i % 5) + 1) as f32).collect();
        let x_dense = DenseVec::from_vec(x.clone());

        // Baseline: float CSR SpMV (cuSPARSE stand-in).
        group.bench_with_input(
            BenchmarkId::new("csr_spmv_baseline", name),
            &csr,
            |b, csr| {
                b.iter(|| ops::spmv_parallel(csr, &x_dense).unwrap());
            },
        );

        // B2SR-8 and B2SR-32 variants of the three BMV schemes.
        let b8 = from_csr::<u8>(&csr, 8);
        let b32 = from_csr::<u32>(&csr, 32);
        let (mut x8, mut x32) = (Vec::new(), Vec::new());
        pack_vector_tilewise_into(&x, 8, &mut x8);
        pack_vector_tilewise_into(&x, 32, &mut x32);
        let (mut y8, mut y32) = (vec![0u8; b8.n_tile_rows()], vec![0u32; b32.n_tile_rows()]);
        // One full-precision output buffer, padded for the wider tile.
        let mut yf = vec![0.0f32; b32.n_tile_rows() * 32];

        group.bench_function(BenchmarkId::new("bmv_bin_bin_bin_into/B2SR-8", name), |b| {
            b.iter(|| bmv_bin_bin_bin_into(&b8, &x8, &mut y8))
        });
        group.bench_function(
            BenchmarkId::new("bmv_bin_bin_bin_into/B2SR-32", name),
            |b| b.iter(|| bmv_bin_bin_bin_into(&b32, &x32, &mut y32)),
        );
        group.bench_function(
            BenchmarkId::new("bmv_bin_bin_full_masked/B2SR-8", name),
            |b| b.iter(|| bmv_bin_bin_full_masked(&b8, &x8, None)),
        );
        group.bench_function(
            BenchmarkId::new("bmv_bin_full_full_into/B2SR-8", name),
            |b| b.iter(|| bmv_bin_full_full_into(&b8, &x, Semiring::Arithmetic, &mut yf)),
        );
        group.bench_function(
            BenchmarkId::new("bmv_bin_full_full_into/B2SR-32", name),
            |b| b.iter(|| bmv_bin_full_full_into(&b32, &x, Semiring::Arithmetic, &mut yf)),
        );
    }
    group.finish();
}

/// The two forms of the Boolean pull sweep `SimdPolicy` chooses between, at
/// B2SR-8 on the repo benchmark's two graphs, from a 1 % frontier — what the
/// benchmark's `kernels.bmv_pull_bool*_ms` probes time — to the half and
/// full frontiers at which `Direction::Auto` actually picks pull.
fn bmv_pull_density_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv_pull_density");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let graphs = [
        ("banded_2k_w32", generators::banded(2048, 32, 0.7, 5)),
        (
            "rmat_s14",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
    ];
    for (name, csr) in graphs {
        let n = csr.nrows();
        // Pull sweeps run on the transpose (`vxm` pulls along in-edges).
        let bt = from_csr::<u8>(&csr.transpose(), 8);
        let mut y = vec![0u8; bt.n_tile_rows()];
        for (label, stride) in [
            ("frontier_1pct", 100usize),
            ("frontier_half", 2),
            ("frontier_full", 1),
        ] {
            let flags: Vec<bool> = (0..n).map(|i| i % stride == 0).collect();
            let x = pack_vector_bits::<u8>(&flags, 8);
            group.bench_function(
                BenchmarkId::new(format!("bmv_bin_bin_bin_into/{label}"), name),
                |b| b.iter(|| bmv_bin_bin_bin_into(&bt, &x, &mut y)),
            );
            group.bench_function(
                BenchmarkId::new(format!("bmv_bin_bin_bin_simd_into/{label}"), name),
                |b| b.iter(|| bmv_bin_bin_bin_simd_into(&bt, &x, &mut y)),
            );
        }
    }
    group.finish();
}

/// The full-precision pull — the product behind PageRank, CC and dense SSSP
/// rounds — at B2SR-8 on the repo benchmark's two graphs, beside the float
/// CSR `spmv` the benchmark's `kernels.bmv_speedup` divides by.  On R-MAT
/// most tiles hold one or two bits, so the sweep's cost is how it enumerates
/// them; on the mesh every tile holds five or more.
fn bmv_pull_full_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv_pull_full");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let graphs = [
        ("banded_2k_w32", generators::banded(2048, 32, 0.7, 5)),
        (
            "rmat_s14",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
    ];
    for (name, csr) in graphs {
        // Pull sweeps run on the transpose (`mxv` on `Aᵀ` is `vxm` on `A`).
        let t = csr.transpose();
        let bt = from_csr::<u8>(&t, 8);
        let x: Vec<f32> = (0..t.ncols()).map(|i| (i % 5 + 1) as f32).collect();
        let x_dense = DenseVec::from_vec(x.clone());
        let mut y = vec![0.0f32; bt.n_tile_rows() * 8];
        group.bench_function(BenchmarkId::new("csr_spmv", name), |b| {
            b.iter(|| ops::spmv(&t, &x_dense).unwrap())
        });
        for (label, semiring) in [
            ("arithmetic", Semiring::Arithmetic),
            ("min_plus", Semiring::MinPlus(1.0)),
        ] {
            group.bench_function(
                BenchmarkId::new(format!("bmv_bin_full_full_into/{label}"), name),
                |b| b.iter(|| bmv_bin_full_full_into(&bt, &x, semiring, &mut y)),
            );
        }
    }
    group.finish();
}

/// The masked Boolean pull as a BFS meets it: the sweep stops walking a
/// tile-row once every unsuppressed row is reached, so its cost follows what
/// is left to find.  Suppressed rows are the first 0 / 50 / 95 % of the
/// vertices in the order a BFS from the highest-degree vertex visits them —
/// so on R-MAT the visited tile-rows are the hubs', which hold most of the
/// tiles — at 1 % and 50 % frontiers, both tile bodies, B2SR-8, on the repo
/// benchmark's two graphs.
fn bmv_pull_masked_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv_pull_masked");
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
    for (name, csr) in graphs {
        let n = csr.nrows();
        let bt = from_csr::<u8>(&csr.transpose(), 8);
        let mut y = vec![0u8; bt.n_tile_rows()];
        // BFS visiting order: by level, unreached vertices last.
        let hub = (0..n).max_by_key(|&r| csr.row(r).0.len()).unwrap();
        let levels = reference::bfs_levels(&csr, hub);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (levels[v] < 0, levels[v], v));
        for visited_pct in [0usize, 50, 95] {
            let mut flags = vec![false; n];
            for &v in &order[..n * visited_pct / 100] {
                flags[v] = true;
            }
            let visited = pack_vector_bits::<u8>(&flags, 8);
            for (frontier, stride) in [("frontier_1pct", 100usize), ("frontier_half", 2)] {
                let flags: Vec<bool> = (0..n).map(|i| i % stride == 0).collect();
                let x = pack_vector_bits::<u8>(&flags, 8);
                let id = |body: &str| format!("{name}/{body}/visited_{visited_pct}");
                group.bench_function(BenchmarkId::new(id("scalar"), frontier), |b| {
                    b.iter(|| bmv_bin_bin_bin_masked_into(&bt, &x, Some(&visited), &mut y))
                });
                group.bench_function(BenchmarkId::new(id("swar"), frontier), |b| {
                    b.iter(|| bmv_bin_bin_bin_masked_simd_into(&bt, &x, Some(&visited), &mut y))
                });
            }
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bmv_benches,
    bmv_pull_density_benches,
    bmv_pull_full_benches,
    bmv_pull_masked_benches
);
criterion_main!(benches);
