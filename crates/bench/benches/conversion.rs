//! Criterion bench: the write path's three layers, kernel by kernel.
//!
//! * `conversion/csr_to_b2sr*` — CSR → B2SR for the four tile sizes (§III-B,
//!   the 3–34 ms bit-packing overhead the paper amortizes), on three
//!   synthetic patterns and on the two graphs the repo benchmark runs
//!   (`rmat_14_16`, `mesh_2048_32`);
//! * `conversion/retile/*pct_dirty` — `B2sr::retile_rows` with that share of
//!   the tile-rows dirty (one row each, evenly spread): what a compaction
//!   pays for its tiles;
//! * `conversion/b2sr8_transpose/*` — the tile-wise transpose every set-up
//!   and the first pull after every compaction pays;
//! * `delta/append/depth_*` — one 16-delta `apply_deltas` on that many
//!   pending entries: what an append pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::delta::EdgeDelta;
use bitgblas_core::{Backend, Matrix, TileSize};
use bitgblas_datagen::generators;
use bitgblas_sparse::Csr;

/// The repo benchmark's two graphs (`benchmark/src/inputs.rs`, seed 5).
fn benchmark_graphs() -> Vec<(&'static str, Csr)> {
    vec![
        (
            "rmat_14_16",
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
        ),
        ("mesh_2048_32", generators::banded(2048, 32, 0.7, 5)),
    ]
}

fn bench_matrices() -> Vec<(&'static str, Csr)> {
    let mut all = vec![
        ("banded_8k", generators::banded(8192, 3, 0.7, 1)),
        (
            "delaunay_like_16k",
            generators::stripes(16384, &[1, 2, 127, 128], 0.75, 2),
        ),
        (
            "blocks_4k",
            generators::block_community(64, 64, 0.3, 1e-5, 3),
        ),
    ];
    all.extend(benchmark_graphs());
    all
}

fn conversion_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("conversion");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    for (name, csr) in bench_matrices() {
        group.bench_with_input(BenchmarkId::new("csr_to_b2sr4", name), &csr, |b, csr| {
            b.iter(|| from_csr::<u8>(csr, 4));
        });
        group.bench_with_input(BenchmarkId::new("csr_to_b2sr8", name), &csr, |b, csr| {
            b.iter(|| from_csr::<u8>(csr, 8));
        });
        group.bench_with_input(BenchmarkId::new("csr_to_b2sr16", name), &csr, |b, csr| {
            b.iter(|| from_csr::<u16>(csr, 16));
        });
        group.bench_with_input(BenchmarkId::new("csr_to_b2sr32", name), &csr, |b, csr| {
            b.iter(|| from_csr::<u32>(csr, 32));
        });
        // Transpose cost of the already-converted matrix (the "simpler
        // transpose" merit claimed for the format).
        let b8 = from_csr::<u8>(&csr, 8);
        group.bench_function(BenchmarkId::new("b2sr8_transpose", name), |b| {
            b.iter(|| b8.transpose());
        });
    }

    for (name, csr) in benchmark_graphs() {
        let old = from_csr::<u8>(&csr, 8);
        let tile_rows = old.n_tile_rows();
        for pct in [1usize, 10, 40, 100] {
            let dirty_tile_rows = (tile_rows * pct / 100).max(1);
            let dirty: Vec<usize> = (0..dirty_tile_rows)
                .map(|i| i * tile_rows / dirty_tile_rows * 8)
                .collect();
            group.bench_function(
                BenchmarkId::new(format!("retile/{pct}pct_dirty"), name),
                |b| b.iter(|| old.retile_rows(&csr, &dirty)),
            );
        }
    }
    group.finish();
}

fn append_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let (_, csr) = benchmark_graphs().swap_remove(0);
    let n = csr.nrows();
    for depth in [0usize, 1024, 4096] {
        let m = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        let pending: Vec<EdgeDelta> = (0..depth)
            .map(|i| EdgeDelta::insert(i * 7919 % n, i * 104_729 % n))
            .collect();
        m.apply_deltas(&pending).expect("in range");
        // The same sixteen edges every time: the log grows, the number of
        // distinct pending edges — what an append's cost may depend on —
        // stays at `depth + 16`.
        let batch: Vec<EdgeDelta> = (0..16)
            .map(|i| EdgeDelta::insert(i * 1009 % n, (i * 2003 + 1) % n))
            .collect();
        group.bench_function(BenchmarkId::new("append", format!("depth_{depth}")), |b| {
            b.iter(|| m.apply_deltas(&batch).expect("in range"));
        });
    }
    group.finish();
}

criterion_group!(benches, conversion_benches, append_benches);
criterion_main!(benches);
