//! Seeded graph and matrix generators covering the paper's six structural
//! categories.
//!
//! Every generator returns a **binary, square** adjacency matrix in CSR form
//! (values all `1.0`), matching the homogeneous graphs Bit-GraphBLAS targets.
//! Generators take an explicit `seed` so experiments are reproducible.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bitgblas_sparse::{Coo, Csr};

/// Erdős–Rényi `G(n, p)` digraph, optionally symmetrized — the "dot" category
/// (nonzeros scattered at random).
pub fn erdos_renyi(n: usize, p: f64, symmetric: bool, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    // For very sparse graphs sample edge counts per row rather than testing
    // all n^2 pairs: geometric skipping over the flattened index space.
    let total = (n as f64) * (n as f64);
    let expected = (total * p).ceil() as usize;
    if p <= 0.05 {
        let mut inserted = std::collections::HashSet::with_capacity(expected);
        while inserted.len() < expected {
            let r = rng.gen_range(0..n);
            let c = rng.gen_range(0..n);
            if r != c && inserted.insert((r, c)) {
                coo.push_edge(r, c).expect("in bounds");
                if symmetric {
                    coo.push_edge(c, r).expect("in bounds");
                }
            }
        }
    } else {
        for r in 0..n {
            for c in 0..n {
                if r != c && rng.gen_bool(p) {
                    coo.push_edge(r, c).expect("in bounds");
                    if symmetric {
                        coo.push_edge(c, r).expect("in bounds");
                    }
                }
            }
        }
    }
    coo.to_binary_csr()
}

/// R-MAT power-law graph (Graph500-style) with partition probabilities
/// `(a, b, c, d)`; `d` is implied as `1 - a - b - c`.  Power-law graphs are
/// the "dot"/"hybrid" category and stress load balance.
pub fn rmat(scale: u32, edge_factor: usize, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    assert!(
        a + b + c < 1.0 + 1e-9,
        "partition probabilities must sum below 1"
    );
    let n = 1usize << scale;
    let n_edges = n * edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n_edges * 2);
    for _ in 0..n_edges {
        let (mut row, mut col) = (0usize, 0usize);
        let mut span = n >> 1;
        while span > 0 {
            let x: f64 = rng.gen();
            if x < a {
                // top-left: nothing added
            } else if x < a + b {
                col += span;
            } else if x < a + b + c {
                row += span;
            } else {
                row += span;
                col += span;
            }
            span >>= 1;
        }
        if row != col {
            coo.push_undirected_edge(row, col).expect("in bounds");
        }
    }
    coo.to_binary_csr()
}

/// Banded matrix: the main diagonal plus `bandwidth` sub/super-diagonals with
/// the given fill probability — the "diagonal" category (e.g. meshes such as
/// jagmesh6, whitaker3_dual, minnesota after reordering).
pub fn banded(n: usize, bandwidth: usize, fill: f64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(n);
        for c in lo..hi {
            if r != c && rng.gen_bool(fill) {
                coo.push_edge(r, c).expect("in bounds");
            }
        }
    }
    coo.to_binary_csr().symmetrized()
}

/// Block-community graph: `n_blocks` dense communities of `block_size`
/// vertices with `intra` fill, plus sparse `inter` connections — the "block"
/// category (net25, EX3, Erdos02 stand-ins).
pub fn block_community(
    n_blocks: usize,
    block_size: usize,
    intra: f64,
    inter: f64,
    seed: u64,
) -> Csr {
    let n = n_blocks * block_size;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for b in 0..n_blocks {
        let base = b * block_size;
        for i in 0..block_size {
            for j in 0..block_size {
                if i != j && rng.gen_bool(intra) {
                    coo.push_edge(base + i, base + j).expect("in bounds");
                }
            }
        }
    }
    // Sparse inter-community edges.
    let n_inter = ((n as f64) * (n as f64) * inter).ceil() as usize;
    for _ in 0..n_inter {
        let r = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if r / block_size != c / block_size {
            coo.push_edge(r, c).expect("in bounds");
        }
    }
    coo.to_binary_csr().symmetrized()
}

/// Stripe matrix: `n_stripes` off-diagonal lines at fixed offsets — the
/// "stripe" category (delaunay_n14, se, debr stand-ins have banded stripes at
/// regular offsets from circuit / mesh orderings).
pub fn stripes(n: usize, offsets: &[usize], fill: f64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(n, n);
    for r in 0..n {
        for &off in offsets {
            if off == 0 {
                continue;
            }
            if r + off < n && rng.gen_bool(fill) {
                coo.push_edge(r, r + off).expect("in bounds");
            }
            if r >= off && rng.gen_bool(fill) {
                coo.push_edge(r, r - off).expect("in bounds");
            }
        }
    }
    coo.to_binary_csr().symmetrized()
}

/// 2-D grid (rook adjacency) — the "road" category: every vertex connects to
/// its 4 neighbours in a `rows × cols` lattice.
pub fn grid2d(rows: usize, cols: usize) -> Csr {
    let n = rows * cols;
    let mut coo = Coo::new(n, n);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                coo.push_undirected_edge(id(r, c), id(r, c + 1))
                    .expect("in bounds");
            }
            if r + 1 < rows {
                coo.push_undirected_edge(id(r, c), id(r + 1, c))
                    .expect("in bounds");
            }
        }
    }
    coo.to_binary_csr()
}

/// 3-D grid (6-neighbour stencil) — stand-in for FEM/CFD meshes such as
/// 3dtube, sphere3, cage.
pub fn grid3d(nx: usize, ny: usize, nz: usize) -> Csr {
    let n = nx * ny * nz;
    let mut coo = Coo::new(n, n);
    let id = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                if x + 1 < nx {
                    coo.push_undirected_edge(id(x, y, z), id(x + 1, y, z))
                        .expect("in bounds");
                }
                if y + 1 < ny {
                    coo.push_undirected_edge(id(x, y, z), id(x, y + 1, z))
                        .expect("in bounds");
                }
                if z + 1 < nz {
                    coo.push_undirected_edge(id(x, y, z), id(x, y, z + 1))
                        .expect("in bounds");
                }
            }
        }
    }
    coo.to_binary_csr()
}

/// Path graph `P_n`.
pub fn path(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n.saturating_sub(1) {
        coo.push_undirected_edge(i, i + 1).expect("in bounds");
    }
    coo.to_binary_csr()
}

/// Cycle graph `C_n`.
pub fn cycle(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n.saturating_sub(1) {
        coo.push_undirected_edge(i, i + 1).expect("in bounds");
    }
    if n > 2 {
        coo.push_undirected_edge(n - 1, 0).expect("in bounds");
    }
    coo.to_binary_csr()
}

/// Star graph `S_n` (vertex 0 is the hub).
pub fn star(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 1..n {
        coo.push_undirected_edge(0, i).expect("in bounds");
    }
    coo.to_binary_csr()
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                coo.push_edge(i, j).expect("in bounds");
            }
        }
    }
    coo.to_binary_csr()
}

/// The Mycielski construction applied to a graph `g`: returns a
/// triangle-free(-preserving) graph with `2·n + 1` vertices and
/// `3·|E| + n` edges.
pub fn mycielski_step(g: &Csr) -> Csr {
    let n = g.nrows();
    let nn = 2 * n + 1;
    let w = 2 * n;
    let mut coo = Coo::new(nn, nn);
    // Original edges (upper triangle once, symmetrized below by construction).
    for (r, c, _) in g.iter() {
        if r < c {
            // v_r -- v_c
            coo.push_undirected_edge(r, c).expect("in bounds");
            // u_r -- v_c and v_r -- u_c
            coo.push_undirected_edge(n + r, c).expect("in bounds");
            coo.push_undirected_edge(r, n + c).expect("in bounds");
        }
    }
    // u_i -- w for all i.
    for i in 0..n {
        coo.push_undirected_edge(n + i, w).expect("in bounds");
    }
    coo.to_binary_csr()
}

/// `mycielskian(k)` for `k ≥ 2`: the Mycielskian family as catalogued in
/// SuiteSparse (mycielskian2 = K2, each further index applies one Mycielski
/// step).  mycielskian9 has 383 vertices, mycielskian12 has 3071.
pub fn mycielskian(k: u32) -> Csr {
    assert!(k >= 2, "mycielskian is defined for k >= 2");
    let mut g = complete(2); // mycielskian2 = K2
    for _ in 2..k {
        g = mycielski_step(&g);
    }
    g
}

/// A "hybrid" pattern: block communities overlaid with a random scatter and a
/// diagonal band — the paper's sixth category (a combination of two or more
/// patterns).
pub fn hybrid(n: usize, seed: u64) -> Csr {
    let band = banded(n, 2, 0.8, seed);
    let blocks = block_community(
        n.div_ceil(64).max(2),
        64.min(n / 2).max(2),
        0.2,
        0.0,
        seed + 1,
    );
    let scatter = erdos_renyi(n, (4.0 / n as f64).min(0.05), true, seed + 2);
    // Union of the three patterns, truncated/padded to n×n.
    let mut coo = Coo::new(n, n);
    for m in [&band, &blocks, &scatter] {
        for (r, c, _) in m.iter() {
            if r < n && c < n {
                coo.push_edge(r, c).expect("in bounds");
            }
        }
    }
    coo.to_binary_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_is_seeded_and_binary() {
        let a = erdos_renyi(128, 0.02, true, 7);
        let b = erdos_renyi(128, 0.02, true, 7);
        let c = erdos_renyi(128, 0.02, true, 8);
        assert_eq!(a, b, "same seed must give identical matrices");
        assert_ne!(a, c, "different seeds should differ");
        assert!(a.is_binary());
        assert!(a.nnz() > 0);
        assert_eq!(a.nrows(), 128);
    }

    #[test]
    fn erdos_renyi_dense_branch() {
        let a = erdos_renyi(32, 0.3, false, 3);
        assert!(a.density() > 0.15 && a.density() < 0.5);
        assert!(a.get(0, 0).is_none(), "no self loops");
    }

    #[test]
    fn rmat_produces_skewed_degrees() {
        let a = rmat(8, 8, 0.57, 0.19, 0.19, 42);
        assert_eq!(a.nrows(), 256);
        assert!(a.is_binary());
        let degs = a.out_degrees();
        let max = *degs.iter().max().unwrap();
        let avg = degs.iter().sum::<usize>() as f64 / degs.len() as f64;
        assert!(
            max as f64 > 3.0 * avg,
            "R-MAT should have hub vertices (max {max}, avg {avg})"
        );
        assert!(a.is_symmetric());
    }

    #[test]
    fn banded_stays_within_band() {
        let a = banded(64, 3, 1.0, 1);
        for (r, c, _) in a.iter() {
            assert!(r.abs_diff(c) <= 3);
        }
        assert!(a.is_symmetric());
    }

    #[test]
    fn block_community_is_block_structured() {
        let a = block_community(4, 16, 0.9, 0.0, 5);
        assert_eq!(a.nrows(), 64);
        for (r, c, _) in a.iter() {
            assert_eq!(r / 16, c / 16, "no inter-block edges when inter=0");
        }
    }

    #[test]
    fn stripes_only_at_requested_offsets() {
        let a = stripes(100, &[7, 13], 1.0, 2);
        for (r, c, _) in a.iter() {
            let d = r.abs_diff(c);
            assert!(d == 7 || d == 13, "unexpected offset {d}");
        }
    }

    #[test]
    fn grid2d_degrees_are_lattice_like() {
        let a = grid2d(10, 10);
        assert_eq!(a.nrows(), 100);
        let degs = a.out_degrees();
        assert_eq!(*degs.iter().max().unwrap(), 4);
        assert_eq!(*degs.iter().min().unwrap(), 2);
        assert_eq!(a.nnz(), 2 * (9 * 10 + 10 * 9));
        assert!(a.is_symmetric());
    }

    #[test]
    fn grid3d_counts_edges() {
        let a = grid3d(4, 4, 4);
        assert_eq!(a.nrows(), 64);
        // 3 * 4*4*3 undirected edges = 144, stored twice.
        assert_eq!(a.nnz(), 2 * 144);
    }

    #[test]
    fn small_classics() {
        assert_eq!(path(5).nnz(), 8);
        assert_eq!(cycle(5).nnz(), 10);
        assert_eq!(star(5).nnz(), 8);
        assert_eq!(complete(5).nnz(), 20);
        assert_eq!(cycle(2).nnz(), 2);
        assert_eq!(path(1).nnz(), 0);
    }

    #[test]
    fn mycielskian_sizes_match_catalogue() {
        // |V(k)| = 3 * 2^(k-2) - 1, |E(k+1)| = 3|E(k)| + |V(k)|.
        let m3 = mycielskian(3); // C5
        assert_eq!(m3.nrows(), 5);
        assert_eq!(m3.nnz(), 10);
        let m4 = mycielskian(4); // Grötzsch graph: 11 vertices, 20 edges
        assert_eq!(m4.nrows(), 11);
        assert_eq!(m4.nnz(), 40);
        let m9 = mycielskian(9);
        assert_eq!(m9.nrows(), 383);
        assert!(m9.is_symmetric());
    }

    #[test]
    fn mycielskian_is_triangle_free_early() {
        // The Mycielskian of a triangle-free graph is triangle-free; C5 and
        // the Grötzsch graph famously have chromatic number 3 and 4 with no
        // triangles.  Count triangles by trace(A^3)/6 on the small cases.
        for k in [3u32, 4, 5] {
            let a = mycielskian(k);
            let a2 = bitgblas_sparse::ops::spgemm(&a, &a).unwrap();
            let a3 = bitgblas_sparse::ops::spgemm(&a2, &a).unwrap();
            let trace: f32 = (0..a.nrows()).filter_map(|i| a3.get(i, i)).sum();
            assert_eq!(trace, 0.0, "mycielskian({k}) must be triangle-free");
        }
    }

    #[test]
    fn hybrid_combines_patterns() {
        let a = hybrid(256, 11);
        assert_eq!(a.nrows(), 256);
        assert!(a.is_binary());
        // Should contain both near-diagonal and far-from-diagonal entries.
        let near = a.iter().filter(|(r, c, _)| r.abs_diff(*c) <= 2).count();
        let far = a.iter().filter(|(r, c, _)| r.abs_diff(*c) > 16).count();
        assert!(near > 0 && far > 0);
    }

    #[test]
    #[should_panic(expected = "defined for k >= 2")]
    fn mycielskian_rejects_k1() {
        let _ = mycielskian(1);
    }
}
