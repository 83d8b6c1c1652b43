//! Criterion bench: ablations of the design choices called out in DESIGN.md.
//!
//! 1. **Tile size** — the same BMV across all four B2SR variants (which tile
//!    size wins depends on the matrix pattern, Figure 3/5).
//! 2. **Binarized vs full-precision multiplier vector** — the bin/bin/full
//!    scheme vs the bin/full/full one on the same matrix (Figure 6b vs 6c).
//! 3. **Mask fused in the kernel vs applied afterwards** — the BFS masking
//!    choice of §V.
//! 4. **Column-major vs row-major tile packing** of a dense tile.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_bitops::pack::{pack_tile_colmajor, pack_tile_rowmajor};
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::kernels::{
    bmv_bin_bin_bin_into, bmv_bin_bin_bin_masked_into, bmv_bin_bin_full_masked,
    bmv_bin_full_full_into, pack_vector_bits, pack_vector_tilewise_into,
};
use bitgblas_core::Semiring;
use bitgblas_datagen::generators;

fn ablation_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let csr = generators::banded(4096, 3, 0.7, 11);
    let n = csr.ncols();
    let x: Vec<f32> = (0..n).map(|i| ((i % 4) + 1) as f32).collect();

    // 1. Tile-size sweep for the same scheme.
    let b4 = from_csr::<u8>(&csr, 4);
    let b8 = from_csr::<u8>(&csr, 8);
    let b16 = from_csr::<u16>(&csr, 16);
    let b32 = from_csr::<u32>(&csr, 32);
    // One output buffer, padded for the widest tile.
    let mut y = vec![0.0f32; b32.n_tile_rows() * 32];
    group.bench_function(BenchmarkId::new("tile_size/bmv_full", "B2SR-4"), |b| {
        b.iter(|| bmv_bin_full_full_into(&b4, &x, Semiring::Arithmetic, &mut y));
    });
    group.bench_function(BenchmarkId::new("tile_size/bmv_full", "B2SR-8"), |b| {
        b.iter(|| bmv_bin_full_full_into(&b8, &x, Semiring::Arithmetic, &mut y));
    });
    group.bench_function(BenchmarkId::new("tile_size/bmv_full", "B2SR-16"), |b| {
        b.iter(|| bmv_bin_full_full_into(&b16, &x, Semiring::Arithmetic, &mut y));
    });
    group.bench_function(BenchmarkId::new("tile_size/bmv_full", "B2SR-32"), |b| {
        b.iter(|| bmv_bin_full_full_into(&b32, &x, Semiring::Arithmetic, &mut y));
    });

    // 2. Binarized vs full-precision multiplier vector.
    let mut x8 = Vec::new();
    pack_vector_tilewise_into(&x, 8, &mut x8);
    group.bench_function("vector_precision/binarized_bin_bin_full", |b| {
        b.iter(|| bmv_bin_bin_full_masked(&b8, &x8, None));
    });
    group.bench_function("vector_precision/full_bin_full_full", |b| {
        b.iter(|| bmv_bin_full_full_into(&b8, &x, Semiring::Arithmetic, &mut y));
    });

    // 3. Mask fused in the kernel vs applied after the kernel.
    let visited: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let mask8 = pack_vector_bits::<u8>(&visited, 8);
    group.bench_function("masking/fused_in_kernel", |b| {
        b.iter(|| {
            let mut y = vec![0u8; b8.n_tile_rows()];
            bmv_bin_bin_bin_masked_into(&b8, &x8, Some(&mask8), &mut y);
            y
        });
    });
    group.bench_function("masking/post_filter", |b| {
        b.iter(|| {
            let mut y = vec![0u8; b8.n_tile_rows()];
            bmv_bin_bin_bin_into(&b8, &x8, &mut y);
            for (w, m) in y.iter_mut().zip(&mask8) {
                *w &= !m;
            }
            y
        });
    });

    // 4. Column-major vs row-major packing of a dense 32x32 tile.
    let tile: Vec<f32> = (0..32 * 32)
        .map(|i| if i % 3 == 0 { 1.0 } else { 0.0 })
        .collect();
    group.bench_function("packing/row_major", |b| {
        b.iter(|| pack_tile_rowmajor::<u32>(&tile, 32));
    });
    group.bench_function("packing/col_major", |b| {
        b.iter(|| pack_tile_colmajor::<u32>(&tile, 32));
    });

    group.finish();
}

criterion_group!(benches, ablation_benches);
criterion_main!(benches);
