//! PageRank over a synthetic power-law web graph (R-MAT), plus connected
//! components — the arithmetic and tropical semiring workloads of §V.
//!
//! Run with: `cargo run --release --example webgraph_pagerank`

use std::time::Instant;

use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

fn main() {
    // Scale-13 R-MAT: 8192 pages, ~16 links per page, heavy-tailed degrees.
    let adjacency = generators::rmat(13, 16, 0.57, 0.19, 0.19, 2022);
    println!(
        "web graph: {} pages, {} links, max out-degree {}",
        adjacency.nrows(),
        adjacency.nnz(),
        adjacency.out_degrees().iter().max().unwrap()
    );

    let config = PageRankConfig::default(); // alpha 0.85, 10 iterations — the paper's setup
    let mut last_ranks: Option<Vec<f32>> = None;

    for (label, backend) in [
        ("Bit-GraphBLAS (B2SR-8)", Backend::Bit(TileSize::S8)),
        ("float-CSR baseline", Backend::FloatCsr),
        ("auto-selected", Backend::Auto),
    ] {
        let graph = Matrix::from_csr(&adjacency, backend);
        if backend == Backend::Auto {
            println!("auto selection resolved to {:?}", graph.resolved_backend());
        }

        let t0 = Instant::now();
        let pr = pagerank(&graph, &config);
        let pr_time = t0.elapsed();

        let t1 = Instant::now();
        let cc = connected_components(&graph);
        let cc_time = t1.elapsed();

        println!(
            "{label:<26} PageRank {:>8.2} ms ({} iters)   CC {:>8.2} ms ({} components)",
            pr_time.as_secs_f64() * 1e3,
            pr.iterations,
            cc_time.as_secs_f64() * 1e3,
            cc.n_components
        );

        if let Some(prev) = &last_ranks {
            let max_diff = pr
                .ranks
                .iter()
                .zip(prev)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(
                max_diff < 1e-4,
                "backends disagree on PageRank (max diff {max_diff})"
            );
        }
        last_ranks = Some(pr.ranks.clone());

        // Top pages by rank.
        let mut ranked: Vec<(usize, f32)> = pr.ranks.iter().copied().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top: Vec<String> = ranked
            .iter()
            .take(5)
            .map(|(v, r)| format!("{v} ({r:.4})"))
            .collect();
        println!("    top pages: {}", top.join(", "));
    }

    println!("\nboth backends produce the same ranking (within 1e-4)");

    // The PR-3 lazy expression graph: the same PageRank iterations executed
    // as fused sweeps (the default, GraphBLAS non-blocking mode) vs one
    // kernel per expression node.
    let graph = Matrix::from_csr(&adjacency, Backend::Bit(TileSize::S8));
    let fixed = PageRankConfig {
        tolerance: 0.0,
        ..config
    };
    // One untimed run first: it builds the matrix's cached transpose and
    // warms the workspace pool, which the first timed run would otherwise
    // pay for alone.
    pagerank(&graph, &fixed);
    let t0 = Instant::now();
    let fused = pagerank(&graph, &fixed);
    let fused_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let unfused = pagerank(
        &graph,
        &PageRankConfig {
            fusion: Fusion::NodeAtATime,
            ..fixed
        },
    );
    let unfused_ms = t1.elapsed().as_secs_f64() * 1e3;
    let max_diff = fused
        .ranks
        .iter()
        .zip(&unfused.ranks)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "operator fusion: fused {fused_ms:.2} ms vs node-at-a-time {unfused_ms:.2} ms \
         ({:.2}x, max rank diff {max_diff:.1e})",
        unfused_ms / fused_ms
    );
}
