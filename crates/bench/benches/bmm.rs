//! Criterion bench: BMM (bit SpGEMM) vs the float Gustavson SpGEMM baseline
//! (the counterpart of Figures 6d / 7d).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::kernels::{bmm_bin_bin_sum, bmm_bin_bin_sum_masked_nt};
use bitgblas_datagen::generators;
use bitgblas_sparse::{ops, Csr};

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

criterion_group!(benches, bmm_benches);
criterion_main!(benches);
