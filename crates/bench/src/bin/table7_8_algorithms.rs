//! Tables VII and VIII — SpMV-based graph algorithm runtimes (BFS, SSSP, PR,
//! CC): Bit-GraphBLAS (B2SR-8) vs the float-CSR baseline (the GraphBLAST
//! stand-in), per matrix, with algorithm-level and kernel-level timings.
//!
//! `--device pascal` (Table VII) and `--device volta` (Table VIII) select the
//! GPU profile used for the analytic memory-model column; the wall-clock
//! columns are measured on this machine and are identical between the two
//! invocations, exactly as the substitution table in DESIGN.md explains.
//!
//! Run with:
//! `cargo run -p bitgblas-bench --release --bin table7_8_algorithms -- --device pascal`

use std::time::Instant;

use bitgblas_algorithms::{bfs, connected_components, pagerank, sssp, PageRankConfig};
use bitgblas_bench::{device_from_args, fmt_speedup, load, table7_matrices};
use bitgblas_core::grb::{Context, Matrix, Op, Vector};

use bitgblas_core::{Backend, Semiring, TileSize};
use bitgblas_perfmodel::traffic::compare_traffic;
use bitgblas_perfmodel::B2srLayout;

/// Wall-clock milliseconds of one invocation.
fn ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// One matrix-vector kernel invocation time (the "kernel" rows of the table):
/// a single full mxv over the algorithm's semiring.
fn kernel_ms(m: &Matrix, semiring: Semiring) -> f64 {
    let ctx = Context::default();
    let x = Vector::from_vec((0..m.ncols()).map(|i| (i % 3) as f32).collect());
    let _warm = Op::mxv(m, &x).semiring(semiring).run(&ctx);
    let (_, t) = ms(|| Op::mxv(m, &x).semiring(semiring).run(&ctx));
    t
}

fn main() {
    let device = device_from_args();
    let table = if device.architecture == "Pascal" {
        "Table VII"
    } else {
        "Table VIII"
    };
    println!(
        "{table}: SpMV-based graph algorithms, Bit-GraphBLAS (B2SR-8) vs float-CSR baseline\n\
         (wall-clock ms on the CPU substrate; 'model' = analytic load-transaction reduction on {})\n",
        device.name
    );
    println!(
        "{:<16} {:<10} {:>10} {:>10} {:>9} | {:>10} {:>10} {:>9} {:>8}",
        "matrix",
        "row",
        "BFS base",
        "BFS ours",
        "speedup",
        "SSSP base",
        "SSSP ours",
        "speedup",
        "model"
    );

    for name in table7_matrices() {
        let csr = load(name);
        let baseline = Matrix::from_csr(&csr, Backend::FloatCsr);
        let ours = Matrix::from_csr(&csr, Backend::Bit(TileSize::S8));
        // The model's layout is the B2SR-8 conversion's tile structure,
        // whether or not the engine holds tiles for this matrix.
        let layout = B2srLayout::from_csr(&csr, 8);
        let cmp = compare_traffic(&csr, &layout, &device);

        // Algorithm-level timings.
        let (_, bfs_base) = ms(|| bfs(&baseline, 0));
        let (_, bfs_ours) = ms(|| bfs(&ours, 0));
        let (_, sssp_base) = ms(|| sssp(&baseline, 0));
        let (_, sssp_ours) = ms(|| sssp(&ours, 0));
        let (_, pr_base) = ms(|| pagerank(&baseline, &PageRankConfig::default()));
        let (_, pr_ours) = ms(|| pagerank(&ours, &PageRankConfig::default()));
        let (_, cc_base) = ms(|| connected_components(&baseline));
        let (_, cc_ours) = ms(|| connected_components(&ours));

        println!(
            "{:<16} {:<10} {:>10.2} {:>10.2} {:>9} | {:>10.2} {:>10.2} {:>9} {:>7.1}x",
            name,
            "algorithm",
            bfs_base,
            bfs_ours,
            fmt_speedup(bfs_base, bfs_ours),
            sssp_base,
            sssp_ours,
            fmt_speedup(sssp_base, sssp_ours),
            cmp.transaction_reduction
        );

        // Kernel-level timings (one semiring mxv per algorithm family).
        let kb_bool_base = kernel_ms(&baseline, Semiring::Boolean);
        let kb_bool_ours = kernel_ms(&ours, Semiring::Boolean);
        let kb_trop_base = kernel_ms(&baseline, Semiring::MinPlus(1.0));
        let kb_trop_ours = kernel_ms(&ours, Semiring::MinPlus(1.0));
        println!(
            "{:<16} {:<10} {:>10.3} {:>10.3} {:>9} | {:>10.3} {:>10.3} {:>9} {:>8}",
            "",
            "kernel",
            kb_bool_base,
            kb_bool_ours,
            fmt_speedup(kb_bool_base, kb_bool_ours),
            kb_trop_base,
            kb_trop_ours,
            fmt_speedup(kb_trop_base, kb_trop_ours),
            ""
        );

        println!(
            "{:<16} {:<10} {:>10.2} {:>10.2} {:>9} | {:>10.2} {:>10.2} {:>9}   (PR | CC, algorithm)",
            "",
            "pr/cc",
            pr_base,
            pr_ours,
            fmt_speedup(pr_base, pr_ours),
            cc_base,
            cc_ours,
            fmt_speedup(cc_base, cc_ours)
        );
    }

    println!(
        "\nPaper: BFS accelerates 3-433x (best on diagonal-pattern matrices), SSSP/PR/CC mostly\n\
         1-20x algorithm-level; the per-category ordering (diagonal > block/stripe) and the\n\
         kernel-vs-algorithm gap are the features to compare."
    );
}
