//! Figure 5 — compression of the evaluation corpus: (a) histogram of the
//! B2SR/CSR compression ratio per tile size, (b) number of matrices whose
//! optimal (smallest) representation is each tile size, and how many are
//! compressed (< 100 %) at all.
//!
//! The paper runs this over the 521 SuiteSparse binary matrices; here the
//! synthetic sweep of `bitgblas-datagen` plays that role (120 matrices across
//! the six pattern categories), plus every named stand-in.
//!
//! Run with: `cargo run -p bitgblas-bench --release --bin fig5_compression`

use bitgblas_datagen::corpus;
use bitgblas_perfmodel::b2sr::{stats, TILE_DIMS};
use bitgblas_sparse::Csr;

fn main() {
    // Corpus: the parameterised sweep plus the named stand-ins.
    let mut matrices: Vec<(String, Csr)> = corpus::corpus_sweep(120, 0x521)
        .into_iter()
        .map(|e| (e.name, e.matrix))
        .collect();
    for name in corpus::named_matrix_list() {
        matrices.push((name.to_string(), corpus::named_matrix(name).unwrap()));
    }
    println!("corpus: {} matrices\n", matrices.len());

    // Figure 5a: histogram of compression ratios per tile size (10 % buckets).
    println!(
        "Figure 5a: compression-ratio histogram (# matrices per 10% bucket, ratio = B2SR/CSR)"
    );
    println!(
        "{:>10} {:>7} {:>7} {:>7} {:>7}",
        "bucket", "4x4", "8x8", "16x16", "32x32"
    );
    // One census per matrix and width feeds both panels.
    let mut hist = [[0usize; 4]; 11]; // 0-10%, ..., 90-100%, >100%
    let mut optimal = [0usize; 4];
    let mut compressed = [0usize; 4];
    for (_, csr) in &matrices {
        let census = stats::stats_all_sizes(csr);
        for (k, s) in census.iter().enumerate() {
            let ratio = s.compression_ratio;
            let bucket = if ratio >= 1.0 {
                10
            } else {
                (ratio * 10.0) as usize
            };
            hist[bucket][k] += 1;
            if ratio < 1.0 {
                compressed[k] += 1;
            }
        }
        let best = stats::optimal(&census).unwrap().tile_dim;
        optimal[TILE_DIMS.iter().position(|&d| d == best).unwrap()] += 1;
    }
    for (b, row) in hist.iter().enumerate() {
        let label = if b == 10 {
            ">100%".to_string()
        } else {
            format!("{}-{}%", b * 10, b * 10 + 10)
        };
        println!(
            "{:>10} {:>7} {:>7} {:>7} {:>7}",
            label, row[0], row[1], row[2], row[3]
        );
    }

    // Figure 5b: optimal and compressed counts per tile size.
    println!("\nFigure 5b: per-tile-size counts over the corpus");
    println!("{:<12} {:>9} {:>12}", "tile size", "optimal", "compressed");
    for (k, dim) in TILE_DIMS.iter().enumerate() {
        println!(
            "{:<12} {:>9} {:>12}",
            format!("B2SR-{dim}"),
            optimal[k],
            compressed[k]
        );
    }
    println!(
        "\nPaper (521 matrices): optimal = 162 / 291 / 26 / 12 and compressed = 491 / 421 / 329 / 263\n\
         for B2SR-4/8/16/32 — small tiles are optimal for most matrices and almost all matrices\n\
         compress under B2SR-4; the synthetic corpus should show the same ordering."
    );
}
