//! Tile-size selection with the sampling profile (Algorithm 1) and the
//! per-matrix compression report of §III-C.
//!
//! Not every matrix benefits from B2SR; the paper provides a cheap sampling
//! profile so users can decide offline whether to convert and which tile size
//! to use.  This example runs the profile on matrices from every structural
//! category and compares the estimate against the exact storage statistics.
//!
//! Run with: `cargo run --release --example format_selection`

use bit_graphblas::core::grb::{auto_decision, Context};
use bit_graphblas::datagen::{classify, corpus, generators};
use bit_graphblas::perfmodel::b2sr::{sample_profile, stats, TILE_DIMS};

fn main() {
    let matrices: Vec<(&str, bit_graphblas::sparse::Csr)> = vec![
        ("banded mesh", generators::banded(4096, 3, 0.7, 1)),
        (
            "random scatter",
            generators::erdos_renyi(4096, 0.001, true, 2),
        ),
        (
            "block communities",
            generators::block_community(32, 64, 0.3, 1e-5, 3),
        ),
        (
            "stripes",
            generators::stripes(4096, &[1, 512, 1024], 0.8, 4),
        ),
        ("road grid", generators::grid2d(64, 64)),
        (
            "mycielskian12",
            corpus::named_matrix("mycielskian12").unwrap(),
        ),
    ];

    let ctx = Context::default();
    println!(
        "{:<20} {:>10} {:>11} {:>14} {:>14} {:>14} {:>9} {:>16}",
        "matrix",
        "pattern",
        "nnz",
        "sampled best",
        "actual best",
        "actual ratio",
        "convert?",
        "Backend::Auto"
    );

    for (name, csr) in &matrices {
        let category = classify::classify(csr);

        // Algorithm 1: sample 256 rows and estimate the compression per tile size.
        let profile = sample_profile(csr, 256, 0xB17);
        let recommended = profile.recommended_tile_dim();

        // Exact statistics for comparison.
        let census = stats::stats_all_sizes(csr);
        let actual = stats::optimal(&census).unwrap();

        // The decision Backend::Auto makes instead: the tiles counted at
        // each width, widest first, and the first width whose tiles fill.
        let decision = auto_decision(csr, &ctx);

        println!(
            "{:<20} {:>10} {:>11} {:>14} {:>14} {:>13.1}% {:>9} {:>16}",
            name,
            category.to_string(),
            csr.nnz(),
            format!("B2SR-{recommended}"),
            format!("B2SR-{}", actual.tile_dim),
            actual.compression_ratio * 100.0,
            if profile.worth_converting() {
                "yes"
            } else {
                "no"
            },
            format!(
                "{:?}{}",
                decision.chosen,
                if decision.tiled { "" } else { " untiled" }
            )
        );
    }

    // The §III-C mycielskian12 storage walk-through: CSR vs all four variants.
    let myc = corpus::named_matrix("mycielskian12").unwrap();
    println!(
        "\nmycielskian12 storage breakdown (paper §III-C reports the same non-monotone shape):"
    );
    println!("  CSR      {:>10} bytes", myc.storage_bytes());
    for dim in TILE_DIMS {
        let s = stats::stats_for(&myc, dim);
        println!(
            "  {:8} {:>10} bytes  ({:.1}% of CSR)",
            format!("B2SR-{dim}"),
            s.b2sr_bytes,
            s.compression_ratio * 100.0
        );
    }
}
