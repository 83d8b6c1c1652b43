//! Quickstart: build a graph, convert it to B2SR, and run every algorithm on
//! both the Bit-GraphBLAS backend and the float-CSR baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use bit_graphblas::datagen::generators;
use bit_graphblas::perfmodel::b2sr::stats;
use bit_graphblas::prelude::*;

fn main() {
    // A mid-sized synthetic mesh: banded structure, the pattern class the
    // paper reports the largest gains on.
    let adjacency = generators::banded(4096, 3, 0.7, 42);
    println!(
        "graph: {} vertices, {} edges, density {:.2e}",
        adjacency.nrows(),
        adjacency.nnz(),
        adjacency.density()
    );

    // Storage: compare float CSR with the four B2SR variants (Figure 5 view).
    println!(
        "\nstorage (float CSR = {} bytes):",
        adjacency.storage_bytes()
    );
    for s in stats::stats_all_sizes(&adjacency) {
        println!(
            "  {:8}  {:9} bytes   compression ratio {:5.1}%   non-empty tiles {:5.1}%   occupancy {:4.1}%",
            format!("B2SR-{}", s.tile_dim),
            s.b2sr_bytes,
            s.compression_ratio * 100.0,
            s.nonempty_tile_ratio * 100.0,
            s.nonzero_occupancy * 100.0
        );
    }

    // Build the two explicit backends, plus the framework's own choice:
    // Backend::Auto counts the tiles at each width and picks the widest
    // whose tiles fill (B2SR-8 without tiles where none does).
    let bit = Matrix::from_csr(&adjacency, Backend::Bit(TileSize::S8));
    let baseline = Matrix::from_csr(&adjacency, Backend::FloatCsr);
    let auto = Matrix::from_csr(&adjacency, Backend::Auto);
    println!("\nBackend::Auto selected {:?}", auto.resolved_backend());

    // BFS.
    let bfs_bit = bfs(&bit, 0);
    let bfs_base = bfs(&baseline, 0);
    assert_eq!(bfs_bit.levels, bfs_base.levels);
    println!(
        "\nBFS from vertex 0: reached {} vertices in {} iterations (backends agree)",
        bfs_bit.n_reached, bfs_bit.iterations
    );

    // Batched BFS: an n × k frontier matrix advances k traversals with one
    // sweep per iteration.  On a built bit backend the frontier and the
    // visited set stay packed — one bit per traversal — from round to round,
    // so the run converts no element to or from f32 (an exact count the
    // context keeps); the float baseline holds its lanes as values.
    let sources = [0usize, 17, 255];
    let before = bit.context().stats().converted_elems;
    let batched = bfs_multi(&bit, &sources);
    let converted = bit.context().stats().converted_elems - before;
    assert_eq!(batched.level(255, 2), 0);
    assert_eq!(batched.levels, bfs_multi(&baseline, &sources).levels);
    for v in 0..adjacency.nrows() {
        assert_eq!(batched.level(v, 0), bfs_bit.levels[v]);
    }
    assert_eq!(converted, 0);
    println!(
        "batched BFS from {sources:?}: {} (vertex, lane) pairs reached in {} iterations, \
         {converted} elements converted between f32 and bits",
        batched.n_reached, batched.iterations
    );

    // SSSP.
    let sssp_bit = sssp(&bit, 0);
    let reached = sssp_bit.distances.iter().filter(|d| d.is_finite()).count();
    println!(
        "SSSP from vertex 0: {reached} reachable vertices, {} rounds",
        sssp_bit.iterations
    );
    // Each round relaxes from the vertices whose distance just dropped, so a
    // forced-push run walks every reached vertex's out-edges exactly once —
    // an exact work count the context keeps, not a timing.
    let before = bit.context().stats().push_frontier_nodes;
    let pushed = sssp_dir(&bit, 0, Direction::Push);
    assert_eq!(pushed.distances, sssp_bit.distances);
    println!(
        "  forced push: scattered from {} frontier nodes for {reached} reached vertices",
        bit.context().stats().push_frontier_nodes - before
    );

    // PageRank (paper configuration: alpha 0.85, 10 iterations).
    let pr = pagerank(&bit, &PageRankConfig::default());
    let top = pr
        .ranks
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap();
    println!(
        "PageRank: {} iterations, top vertex {} with rank {:.5}",
        pr.iterations, top.0, top.1
    );

    // Connected components.
    let cc = connected_components(&bit);
    println!("Connected components: {}", cc.n_components);

    // Triangle counting.
    let tri_bit = triangle_count(&bit);
    let tri_base = triangle_count(&baseline);
    assert_eq!(tri_bit, tri_base);
    assert_eq!(triangle_count(&auto), tri_bit);
    println!("Triangles: {tri_bit} (backends agree)");

    // Individual GraphBLAS operations compose through the builder API: a
    // one-hop Boolean traversal of the frontier {0}, masked to unvisited
    // vertices, exactly as BFS's inner loop does.
    let ctx = Context::default();
    let frontier = Vector::indicator(adjacency.nrows(), &[0]);
    let mut visited = vec![false; adjacency.nrows()];
    visited[0] = true;
    let next = Op::vxm(&frontier, &bit)
        .semiring(Semiring::Boolean)
        .mask(&Mask::complemented(visited))
        .run(&ctx);
    println!(
        "one builder-API hop from vertex 0 reaches {} vertices",
        next.nnz()
    );

    // The builders are lazy (GraphBLAS non-blocking mode): nothing ran yet
    // when an expression is built, and a whole chain — product, apply,
    // accumulator — fuses into one kernel sweep at run(&ctx).  Here: one
    // min-plus relaxation round with the accumulator folded into the sweep,
    // in the shape `sssp` runs it — `dist` is the accumulator baseline and
    // the operand is `delta`, the distances that dropped last round (at the
    // start, just the source), so a round walks the out-edges of what
    // changed, not of everything reached.
    let mut dist = Vector::identity(adjacency.nrows(), Semiring::MinPlus(1.0));
    dist.set(0, 0.0);
    let mut delta = dist.clone();
    let relaxed = Op::vxm(&delta, &bit)
        .semiring(Semiring::MinPlus(1.0))
        .accum(BinaryOp::Min, &dist)
        .run(&ctx);
    // One pass is both the fixpoint test and the next round's operand.
    for ((slot, &new), &old) in delta
        .as_mut_slice()
        .iter_mut()
        .zip(relaxed.as_slice())
        .zip(dist.as_slice())
    {
        *slot = if new < old { new } else { f32::INFINITY };
    }
    println!(
        "one fused relaxation round reaches {} vertices, {} of them new (fused pipelines run: {})",
        relaxed.as_slice().iter().filter(|d| d.is_finite()).count(),
        delta.as_slice().iter().filter(|d| d.is_finite()).count(),
        ctx.stats().fused_mxv
    );
}
