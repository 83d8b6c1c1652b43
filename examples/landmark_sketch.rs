//! Landmark distance sketches: answer point-to-point distance queries in
//! O(k) from one batched multi-source traversal.
//!
//! A distance oracle for a service with millions of users cannot afford one
//! BFS per query.  The landmark (a.k.a. ALT / distance-labelling) sketch
//! precomputes the distances from `k` landmark vertices to every vertex —
//! here with **one** `sssp_multi` call whose `n × k` distance matrix is
//! filled by batched min-plus sweeps that read each adjacency tile once for
//! all landmarks — and then estimates any query distance by the triangle
//! inequality:
//!
//! ```text
//! d(u, v)  ≤  min over landmarks L of  d(u, L) + d(L, v)
//! ```
//!
//! (an upper bound; exact whenever some shortest u→v path passes through a
//! landmark).  The example builds the sketch on an RMAT-like power-law
//! graph, compares the batched build against k sequential SSSP runs,
//! reports the estimate quality on sampled queries, and then mutates the
//! graph live: the hop counts are refreshed with one `bfs_multi` read
//! through the pending delta log, equal to a rebuild.
//!
//! Run with: `cargo run --release --example landmark_sketch`

use std::time::Instant;

use bit_graphblas::algorithms::sssp_multi;
use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

fn main() {
    // A scale-12 symmetrized RMAT graph: a social-network-like topology
    // where a handful of hub landmarks covers most shortest paths.
    let adjacency = generators::rmat(12, 16, 0.57, 0.19, 0.19, 7).symmetrized();
    let n = adjacency.nrows();
    println!("graph: {} vertices, {} edges", n, adjacency.nnz());

    let graph = Matrix::from_csr(&adjacency, Backend::Bit(TileSize::S8));

    // Pick the k highest-degree vertices as landmarks (hubs cover the most
    // shortest paths on a power-law graph).
    let k = 16usize;
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&v| std::cmp::Reverse(adjacency.row(v).0.len()));
    let landmarks: Vec<usize> = by_degree[..k].to_vec();
    println!("landmarks (top-{k} by degree): {landmarks:?}");

    // Build the sketch: one batched k-source SSSP.
    let start = Instant::now();
    let sketch = sssp_multi(&graph, &landmarks);
    let batched = start.elapsed();
    println!(
        "sketch built in {batched:.2?} ({} relaxation rounds, one n x {k} distance matrix)",
        sketch.iterations
    );

    // The same distances one query at a time, for comparison.
    let start = Instant::now();
    for &l in &landmarks {
        let single = bit_graphblas::algorithms::sssp(&graph, l);
        std::hint::black_box(single);
    }
    let sequential = start.elapsed();
    println!(
        "sequential {k} x sssp: {sequential:.2?}  (batched speedup {:.2}x)",
        sequential.as_secs_f64() / batched.as_secs_f64()
    );

    // Answer sampled queries from the sketch and compare with the truth.
    let mut exact_hits = 0usize;
    let mut total = 0usize;
    let mut stretch_sum = 0.0f64;
    for q in 0..32usize {
        let u = (q * 131 + 7) % n;
        let v = (q * 977 + 401) % n;
        let truth = bit_graphblas::algorithms::sssp(&graph, u).distances[v];
        if !truth.is_finite() {
            continue;
        }
        // Sketch estimate: min over landmarks of d(u, L) + d(L, v).  The
        // graph is symmetrized, so d(u, L) = d(L, u) — both rows come from
        // the one precomputed matrix.
        let estimate = (0..k)
            .map(|l| sketch.distance(u, l) + sketch.distance(v, l))
            .fold(f32::INFINITY, f32::min);
        total += 1;
        if estimate == truth {
            exact_hits += 1;
        }
        stretch_sum += (estimate / truth.max(1.0)) as f64;
        if q < 5 {
            println!("  d({u}, {v}) = {truth}, sketch estimate {estimate}");
        }
    }
    println!(
        "queries: {total} answered, {exact_hits} exact, mean stretch {:.3}",
        stretch_sum / total.max(1) as f64
    );

    // Live mutations: friendships form and end while the oracle serves.
    // Mutations append to the matrix's delta log; a snapshot reads the base
    // tiles through the pending patches, and refreshing the sketch's hop
    // counts is one batched BFS that still runs in lane words — it re-folds
    // only the patched rows its frontier reaches.
    let mut deltas = Vec::new();
    for i in 0..64usize {
        // A new tie between two low-degree vertices …
        let (u, v) = (by_degree[n - 1 - i], by_degree[n / 2 + i]);
        deltas.extend([EdgeDelta::insert(u, v), EdgeDelta::insert(v, u)]);
        // … and a hub loses one.
        let hub = landmarks[i % k];
        let lost = adjacency.row(hub).0[i];
        deltas.extend([EdgeDelta::delete(hub, lost), EdgeDelta::delete(lost, hub)]);
    }
    graph.apply_deltas(&deltas).expect("in-range edges");
    let pending = graph.snapshot();
    let before = pending.context().stats();
    let start = Instant::now();
    let refreshed = bfs_multi(&pending, &landmarks);
    let through_log = start.elapsed();
    let after = pending.context().stats();

    // The same graph rebuilt from scratch answers identically.
    let rebuilt = Matrix::from_csr(pending.csr(), Backend::Bit(TileSize::S8));
    assert_eq!(refreshed, bfs_multi(&rebuilt, &landmarks));
    assert_eq!(after.converted_elems, before.converted_elems);
    let hops = |level: i64| {
        if level < 0 {
            f32::INFINITY
        } else {
            level as f32
        }
    };
    let moved = (0..n * k)
        .filter(|&f| hops(refreshed.levels[f]) != sketch.distances[f])
        .count();
    let dirty_rows: std::collections::BTreeSet<usize> = deltas.iter().map(|d| d.row).collect();
    println!(
        "after {} pending edge mutations: hop counts refreshed through the delta log in \
         {through_log:.2?} ({} rounds), equal to a rebuild; {moved} (vertex, landmark) \
         distances moved",
        graph.delta_len(),
        refreshed.iterations
    );
    println!(
        "  0 elements converted between f32 and bits, {} lane words re-folded \
         (not {} dirty rows x {} rounds: only what the frontier reaches)",
        after.refolded_positions - before.refolded_positions,
        dirty_rows.len(),
        refreshed.iterations
    );
}
