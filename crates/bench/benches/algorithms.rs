//! Criterion bench: end-to-end graph algorithms on the bit backend vs the
//! float-CSR baseline (the counterpart of Tables VII/VIII/IX).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_algorithms::{
    bfs, connected_components, pagerank, sssp, sssp_multi, triangle_count, PageRankConfig,
};
use bitgblas_core::{Backend, Matrix, TileSize};
use bitgblas_datagen::generators;
use bitgblas_sparse::Csr;

fn bench_graphs() -> Vec<(&'static str, Csr)> {
    vec![
        ("grid_48x48", generators::grid2d(48, 48)),
        ("banded_2k", generators::banded(2048, 3, 0.7, 5)),
        ("rmat_10", generators::rmat(10, 8, 0.57, 0.19, 0.19, 6)),
    ]
}

fn backends() -> Vec<(&'static str, Backend)> {
    vec![
        ("b2sr8", Backend::Bit(TileSize::S8)),
        ("float_csr", Backend::FloatCsr),
    ]
}

fn algorithm_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("algorithms");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    for (gname, adj) in bench_graphs() {
        for (bname, backend) in backends() {
            let m = Matrix::from_csr(&adj, backend);
            group.bench_function(BenchmarkId::new(format!("bfs/{bname}"), gname), |b| {
                b.iter(|| bfs(&m, 0));
            });
            group.bench_function(BenchmarkId::new(format!("sssp/{bname}"), gname), |b| {
                b.iter(|| sssp(&m, 0));
            });
            // A full served batch: 64 sources spread over the graph.
            let sources: Vec<usize> = (0..64).map(|l| l * m.nrows() / 64).collect();
            group.bench_function(
                BenchmarkId::new(format!("sssp_multi64/{bname}"), gname),
                |b| {
                    b.iter(|| sssp_multi(&m, &sources));
                },
            );
            group.bench_function(BenchmarkId::new(format!("pagerank/{bname}"), gname), |b| {
                b.iter(|| pagerank(&m, &PageRankConfig::default()));
            });
            group.bench_function(BenchmarkId::new(format!("cc/{bname}"), gname), |b| {
                b.iter(|| connected_components(&m));
            });
            group.bench_function(BenchmarkId::new(format!("tc/{bname}"), gname), |b| {
                b.iter(|| triangle_count(&m));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, algorithm_benches);
criterion_main!(benches);
