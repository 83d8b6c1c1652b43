//! Criterion bench: BMV kernel schemes vs the float CSR SpMV baseline
//! (the statistically-sound counterpart of Figures 6a–c / 7a–c), the
//! full-precision pull on the repo benchmark's two graphs and across tile
//! fill beside the CSR row pull, the Boolean
//! pull sweep across frontier densities and across how much of a BFS is
//! already visited, and the Boolean products (pull and push, one lane and
//! 64) across tile fill beside their CSR kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use bitgblas_algorithms::reference;
use bitgblas_bench::scattered_tiles;
use bitgblas_bitops::BitWord;
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::b2sr::B2sr;
use bitgblas_core::kernels::{
    bmm_bin_bits_into, bmm_push_bits, bmv_bin_bin_bin_into, bmv_bin_bin_bin_masked_into,
    bmv_bin_bin_full_masked, bmv_bin_full_full_into, bmv_push_bin_bin, csr_bits_pull,
    csr_bits_push, csr_lanes_pull, csr_lanes_push, csr_pull_full, pack_vector_bits,
    pack_vector_tilewise_into,
};
use bitgblas_core::{Semiring, TileSize};
use bitgblas_datagen::generators;
use bitgblas_sparse::ops;
use bitgblas_sparse::{Csr, DenseVec};

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

/// The Boolean pull sweep at B2SR-8 on the repo benchmark's two graphs, from
/// a 1 % frontier — what the benchmark's `kernels.bmv_pull_bool*_ms` probes
/// time — to the half and full frontiers at which `Direction::Auto`
/// actually picks pull.
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
        }
    }
    group.finish();
}

/// The full-precision pull — the product behind PageRank, CC and dense SSSP
/// rounds — at B2SR-8 on the repo benchmark's two graphs, beside the CSR
/// row pull the engine runs where tiles are hypersparse (`csr_pull_full`,
/// bare) and the float CSR `spmv` the benchmark's `kernels.bmv_speedup`
/// divides by.  On R-MAT most tiles hold one or two bits, so the sweep's
/// cost is how it enumerates them; on the mesh every tile holds five or
/// more.
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
            group.bench_function(BenchmarkId::new(format!("csr_pull/{label}"), name), |b| {
                b.iter(|| csr_pull_full(&t, &x, semiring, |_| true, |_, v| v, &mut y))
            });
        }
    }
    group.finish();
}

/// The fill sweep behind `grb::backend::CSR_PULL_BELOW_BITS_PER_TILE`: the
/// full-precision tile sweep beside the CSR row pull of the same matrix,
/// both bare kernels as the engine runs them (`bmv_bin_full_full_into`,
/// `csr_pull_full`; serial under `taskset -c 1`), at every tile width under
/// Arithmetic and MinPlus.
/// `tiles{d}x{d}_{b}bits` lays R-MAT(14, 16)'s edge count out in scattered
/// `d × d` tiles of `b` bits each, so that fill is the one variable; R-MAT
/// itself and the benchmark's mesh pattern run at every width.  16 384
/// vertices throughout; a sweep's id ends in its mean bits per non-empty
/// tile.  Not in CI (≈ 3 min): `-- bmv_pull_fill`.
fn bmv_pull_fill_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv_pull_fill");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(300));

    let n = 16384;
    let mut graphs: Vec<(String, Csr, Vec<TileSize>)> = vec![
        (
            "rmat".into(),
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
            TileSize::ALL.into(),
        ),
        (
            "mesh".into(),
            generators::banded(n, 32, 0.7, 5),
            TileSize::ALL.into(),
        ),
    ];
    for ts in TileSize::ALL {
        let d = ts.dim();
        for bits in [1, 2, 4, 6, 8, 16, 64, 256] {
            if bits <= d * d && bits <= 16 * d {
                let name = format!("tiles{d}x{d}_{bits}bits");
                graphs.push((name, scattered_tiles(n, d, bits), vec![ts]));
            }
        }
    }
    let x: Vec<f32> = (0..n).map(|i| (i % 5 + 1) as f32).collect();
    let mut y = vec![0.0f32; n];
    let semirings = [
        ("arithmetic", Semiring::Arithmetic),
        ("min_plus", Semiring::MinPlus(1.0)),
    ];
    for (name, csr, widths) in &graphs {
        for (label, semiring) in semirings {
            group.bench_function(format!("{name}/{label}/csr_pull"), |b| {
                b.iter(|| csr_pull_full(csr, &x, semiring, |_| true, |_, v| v, &mut y))
            });
            for &ts in widths {
                let mut sweep = |tiles: usize, run: &mut dyn FnMut()| {
                    let bits = csr.nnz() as f64 / tiles as f64;
                    let id = format!("{name}/{label}/tile_sweep/{ts}_{bits:.1}_bits");
                    group.bench_function(id, |b| b.iter(&mut *run));
                };
                let y = &mut y;
                match ts {
                    TileSize::S4 | TileSize::S8 => {
                        let m = from_csr::<u8>(csr, ts.dim());
                        sweep(m.n_tiles(), &mut || {
                            bmv_bin_full_full_into(&m, &x, semiring, y)
                        });
                    }
                    TileSize::S16 => {
                        let m = from_csr::<u16>(csr, 16);
                        sweep(m.n_tiles(), &mut || {
                            bmv_bin_full_full_into(&m, &x, semiring, y)
                        });
                    }
                    TileSize::S32 => {
                        let m = from_csr::<u32>(csr, 32);
                        sweep(m.n_tiles(), &mut || {
                            bmv_bin_full_full_into(&m, &x, semiring, y)
                        });
                    }
                }
            }
        }
    }
    group.finish();
}

/// The masked Boolean pull as a BFS meets it: the sweep stops walking a
/// tile-row once every unsuppressed row is reached, so its cost follows what
/// is left to find.  Suppressed rows are the first 0 / 50 / 95 % of the
/// vertices in the order a BFS from the highest-degree vertex visits them —
/// so on R-MAT the visited tile-rows are the hubs', which hold most of the
/// tiles — at 1 % and 50 % frontiers, B2SR-8, on the repo benchmark's two
/// graphs.
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
                let id = format!("{name}/visited_{visited_pct}");
                group.bench_function(BenchmarkId::new(id, frontier), |b| {
                    b.iter(|| bmv_bin_bin_bin_masked_into(&bt, &x, Some(&visited), &mut y))
                });
            }
        }
    }
    group.finish();
}

/// One traversal state of the Boolean fill sweep, per lane: the frontier
/// and the visited (suppressed) set.
struct BoolState {
    frontier: Vec<bool>,
    visited: Vec<bool>,
}

/// The names of [`bool_states`]' three states, in its order.
const BOOL_STATES: [&str; 3] = ["frontier_1pct", "frontier_half", "frontier_full"];

/// The three states `bmv_bool_fill` times, cut from one BFS visiting order
/// (by level from the source, unreached vertices last): a 1 % frontier as
/// the first rounds meet it (the frontier is all that is visited), a half
/// frontier at the middle of the traversal (the middle half of the order,
/// everything before it visited too), and a full frontier with nothing
/// visited — the bare product's worst case.
fn bool_states(csr: &Csr, source: usize) -> [BoolState; 3] {
    let n = csr.nrows();
    let levels = reference::bfs_levels(csr, source);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by_key(|&v| (levels[v] < 0, levels[v], v));
    let window = |from: usize, to: usize, seen: usize| {
        let mut state = BoolState {
            frontier: vec![false; n],
            visited: vec![false; n],
        };
        for &v in &order[from..to] {
            state.frontier[v] = true;
        }
        for &v in &order[..seen] {
            state.visited[v] = true;
        }
        state
    };
    [
        window(0, n / 100, n / 100),
        window(n / 4, 3 * n / 4, 3 * n / 4),
        window(0, n, 0),
    ]
}

/// `flags` as node words (bit `i % 64` of word `i / 64`).
fn node_words(flags: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; flags.len().div_ceil(64)];
    for (i, _) in flags.iter().enumerate().filter(|(_, &f)| f) {
        words[i / 64] |= 1 << (i % 64);
    }
    words
}

/// The operands of one state at one lane count: the frontier and visited
/// sets in node words (`k = 1`) or lane words (`k = 64`, one word per node),
/// the any-lane-active and all-lanes-visited flags, and the push frontier
/// (nodes holding a lane).
struct BoolOperands {
    id: String,
    k: usize,
    xw: Vec<u64>,
    sup: Vec<u64>,
    active: Vec<bool>,
    visited: Vec<bool>,
    frontier: Vec<usize>,
}

impl BoolOperands {
    fn new(id: String, lanes: &[&BoolState]) -> Self {
        let n = lanes[0].frontier.len();
        let lane_words = |of: fn(&BoolState) -> &Vec<bool>| -> Vec<u64> {
            (0..n)
                .map(|v| {
                    let set = lanes.iter().enumerate().filter(|(_, s)| of(s)[v]);
                    set.fold(0u64, |w, (l, _)| w | 1 << l)
                })
                .collect()
        };
        let (xw, sup) = if lanes.len() == 1 {
            (
                node_words(&lanes[0].frontier),
                node_words(&lanes[0].visited),
            )
        } else {
            (lane_words(|s| &s.frontier), lane_words(|s| &s.visited))
        };
        let active: Vec<bool> = (0..n)
            .map(|v| lanes.iter().any(|s| s.frontier[v]))
            .collect();
        let visited: Vec<bool> = (0..n).map(|v| lanes.iter().all(|s| s.visited[v])).collect();
        let frontier = (0..n).filter(|&v| active[v]).collect();
        BoolOperands {
            id,
            k: lanes.len(),
            xw,
            sup,
            active,
            visited,
            frontier,
        }
    }
}

/// The four CSR word kernels on one state: node words at `k = 1`, lane
/// words at `k = 64`.
fn bool_csr_rows(group: &mut criterion::BenchmarkGroup<'_>, csr: &Csr, ops: &BoolOperands) {
    let (id, k) = (&ops.id, ops.k);
    let mut y = vec![0u64; csr.nrows() * k.div_ceil(64)];
    if k == 1 {
        group.bench_function(format!("{id}/csr_pull"), |b| {
            b.iter(|| csr_bits_pull(csr, &ops.xw, Some(&ops.sup), &mut y))
        });
        group.bench_function(format!("{id}/csr_push"), |b| {
            b.iter(|| {
                y.fill(0);
                csr_bits_push(csr, &ops.frontier, &mut y)
            })
        });
    } else {
        group.bench_function(format!("{id}/csr_pull"), |b| {
            b.iter(|| csr_lanes_pull(csr, &ops.xw, k, Some(&ops.sup), &mut y))
        });
        group.bench_function(format!("{id}/csr_push"), |b| {
            b.iter(|| {
                y.fill(0);
                csr_lanes_push(csr, &ops.frontier, &ops.xw, 1, &mut y)
            })
        });
    }
}

/// The tile Boolean pull and push of one state on one width: the masked
/// node-word sweep and the tile-word scatter at `k = 1`, the lane-word
/// sweep and scatter at `k = 64`.  Bare kernels, outputs in tile words;
/// the engine also re-lays a single vector's words out each way
/// (`n / 8` bytes), which these rows leave out.
fn bool_tile_rows<W: BitWord>(
    group: &mut criterion::BenchmarkGroup<'_>,
    width: &str,
    m: &B2sr<W>,
    ops: &BoolOperands,
) {
    let id = &ops.id;
    let dim = m.tile_dim();
    if ops.k == 1 {
        let x = pack_vector_bits::<W>(&ops.active, dim);
        let sup = pack_vector_bits::<W>(&ops.visited, dim);
        let mut y = vec![W::ZERO; m.n_tile_rows().max(m.n_tile_cols())];
        group.bench_function(format!("{id}/{width}/tile_pull"), |b| {
            b.iter(|| bmv_bin_bin_bin_masked_into(m, &x, Some(&sup), &mut y))
        });
        group.bench_function(format!("{id}/{width}/tile_push"), |b| {
            b.iter(|| {
                y.fill(W::ZERO);
                bmv_push_bin_bin(m, &ops.frontier, &mut y)
            })
        });
    } else {
        let xa = pack_vector_bits::<W>(&ops.active, dim);
        let mut y = vec![0u64; m.n_tile_rows() * dim * ops.k.div_ceil(64)];
        group.bench_function(format!("{id}/{width}/tile_pull"), |b| {
            b.iter(|| bmm_bin_bits_into(m, &ops.xw, ops.k, &xa, Some(&ops.sup), &mut y))
        });
        group.bench_function(format!("{id}/{width}/tile_push"), |b| {
            b.iter(|| {
                y.fill(0);
                bmm_push_bits(m, &ops.frontier, &ops.xw, 1, &mut y)
            })
        });
    }
}

/// The fill sweep behind `grb::backend::CSR_PULL_BELOW_BITS_PER_TILE`'s
/// Boolean route: the tile Boolean pull and push beside the four CSR word
/// kernels (`csr_bits_pull` / `csr_bits_push` at `k = 1`, `csr_lanes_pull` /
/// `csr_lanes_push` at `k = 64`), bare and serial under `taskset -c 1`, on
/// the graphs of `bmv_pull_fill` — R-MAT(14, 16) and the benchmark's mesh
/// pattern at every width, and `scattered_tiles` at each fill — at the
/// three states of [`bool_states`]: lane `l` of the 64 runs from the
/// `l`-th highest-degree vertex, the single vector from the highest.  Pulls
/// and pushes walk the rows of the matrix itself.  Ids read
/// `{graph}/k{1,64}/{state}/csr_{pull,push}` and
/// `…/{width}_{bits per tile}_bits/tile_{pull,push}`.  Not in CI but for
/// its R-MAT rows (`-- bmv_bool_fill/rmat`, ≈ 13 s with the file's set-up);
/// all of it takes ≈ 3 min.
fn bmv_bool_fill_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmv_bool_fill");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(100))
        .warm_up_time(Duration::from_millis(20));

    let n = 16384;
    let mut graphs: Vec<(String, Csr, Vec<TileSize>)> = vec![
        (
            "rmat".into(),
            generators::rmat(14, 16, 0.57, 0.19, 0.19, 5).symmetrized(),
            TileSize::ALL.into(),
        ),
        (
            "mesh".into(),
            generators::banded(n, 32, 0.7, 5),
            TileSize::ALL.into(),
        ),
    ];
    for ts in TileSize::ALL {
        let d = ts.dim();
        for bits in [1, 2, 4, 8, 16, 64] {
            if bits <= d * d && bits <= 16 * d {
                let name = format!("tiles{d}x{d}_{bits}bits");
                graphs.push((name, scattered_tiles(n, d, bits), vec![ts]));
            }
        }
    }
    for (name, csr, widths) in &graphs {
        let mut by_degree: Vec<usize> = (0..csr.nrows()).collect();
        by_degree.sort_by_key(|&v| (std::cmp::Reverse(csr.row(v).0.len()), v));
        let lanes: Vec<[BoolState; 3]> = by_degree[..64]
            .iter()
            .map(|&s| bool_states(csr, s))
            .collect();
        let mut operands = Vec::new();
        for k in [1usize, 64] {
            for (st, label) in BOOL_STATES.iter().enumerate() {
                let states: Vec<&BoolState> = lanes[..k].iter().map(|l| &l[st]).collect();
                operands.push(BoolOperands::new(format!("{name}/k{k}/{label}"), &states));
            }
        }
        for ops in &operands {
            bool_csr_rows(&mut group, csr, ops);
        }
        for &ts in widths {
            macro_rules! tiles {
                ($w:ty) => {{
                    let m = from_csr::<$w>(csr, ts.dim());
                    let width = format!("{ts}_{:.1}_bits", csr.nnz() as f64 / m.n_tiles() as f64);
                    for ops in &operands {
                        bool_tile_rows(&mut group, &width, &m, ops);
                    }
                }};
            }
            match ts {
                TileSize::S4 | TileSize::S8 => tiles!(u8),
                TileSize::S16 => tiles!(u16),
                TileSize::S32 => tiles!(u32),
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
    bmv_pull_fill_benches,
    bmv_pull_masked_benches,
    bmv_bool_fill_benches
);
criterion_main!(benches);
