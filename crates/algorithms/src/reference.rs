//! Simple, obviously-correct reference implementations used to validate the
//! GraphBLAS-based algorithms on both backends.
//!
//! These are classic textbook implementations operating directly on the CSR
//! adjacency structure: queue-based BFS, Bellman-Ford relaxation, union-find
//! connected components, neighbourhood-intersection triangle counting and a
//! dense PageRank power iteration.

use std::collections::VecDeque;

use bitgblas_sparse::Csr;

/// BFS levels from `source`: `levels[v]` is the number of hops from the
/// source, or `-1` when `v` is unreachable.
pub fn bfs_levels(adj: &Csr, source: usize) -> Vec<i64> {
    let n = adj.nrows();
    let mut levels = vec![-1i64; n];
    if source >= n {
        return levels;
    }
    let mut queue = VecDeque::new();
    levels[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let next = levels[u] + 1;
        for &v in adj.row(u).0 {
            if levels[v] < 0 {
                levels[v] = next;
                queue.push_back(v);
            }
        }
    }
    levels
}

/// Single-source shortest path distances over unit edge weights
/// (Bellman-Ford; returns `f32::INFINITY` for unreachable vertices).
pub fn sssp_distances(adj: &Csr, source: usize) -> Vec<f32> {
    let n = adj.nrows();
    let mut dist = vec![f32::INFINITY; n];
    if source >= n {
        return dist;
    }
    dist[source] = 0.0;
    // Unit weights: at most n-1 relaxation rounds.
    for _ in 0..n {
        let mut changed = false;
        for u in 0..n {
            if dist[u].is_finite() {
                let du = dist[u];
                for &v in adj.row(u).0 {
                    if du + 1.0 < dist[v] {
                        dist[v] = du + 1.0;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Connected-component labels via union-find; the label of each vertex is the
/// smallest vertex id in its component (treating the graph as undirected).
pub fn cc_labels(adj: &Csr) -> Vec<usize> {
    let n = adj.nrows();
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    for (r, c, _) in adj.iter() {
        let (a, b) = (find(&mut parent, r), find(&mut parent, c));
        if a != b {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            parent[hi] = lo;
        }
    }
    // Compress to the minimum vertex id of each component.
    let roots: Vec<usize> = (0..n).map(|v| find(&mut parent, v)).collect();
    let mut min_of_root = vec![usize::MAX; n];
    for (v, &r) in roots.iter().enumerate() {
        min_of_root[r] = min_of_root[r].min(v);
    }
    roots.iter().map(|&r| min_of_root[r]).collect()
}

/// Number of connected components.
pub fn cc_count(adj: &Csr) -> usize {
    let labels = cc_labels(adj);
    let mut uniq = labels;
    uniq.sort_unstable();
    uniq.dedup();
    uniq.len()
}

/// Triangle count of an undirected simple graph (each triangle counted once),
/// by intersecting the lower-triangular neighbourhoods.
pub fn triangle_count(adj: &Csr) -> u64 {
    let l = adj.lower_triangle();
    let mut count = 0u64;
    for u in 0..l.nrows() {
        let (nu, _) = l.row(u);
        for &v in nu {
            let (nv, _) = l.row(v);
            // |N^-(u) ∩ N^-(v)| via sorted merge.
            let (mut i, mut j) = (0usize, 0usize);
            while i < nu.len() && j < nv.len() {
                match nu[i].cmp(&nv[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        count += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
    }
    count
}

/// Dense PageRank power iteration with uniform teleport, matching the
/// paper's configuration (α = 0.85, fixed iteration count).
pub fn pagerank_dense(adj: &Csr, alpha: f32, iterations: usize) -> Vec<f32> {
    let n = adj.nrows();
    if n == 0 {
        return Vec::new();
    }
    let out_deg = adj.out_degrees();
    let mut rank = vec![1.0f32 / n as f32; n];
    for _ in 0..iterations {
        let mut next = vec![(1.0 - alpha) / n as f32; n];
        let mut dangling = 0.0f32;
        for u in 0..n {
            if out_deg[u] == 0 {
                dangling += rank[u];
                continue;
            }
            let share = alpha * rank[u] / out_deg[u] as f32;
            for &v in adj.row(u).0 {
                next[v] += share;
            }
        }
        // Dangling mass is spread uniformly.
        let spread = alpha * dangling / n as f32;
        for x in &mut next {
            *x += spread;
        }
        rank = next;
    }
    rank
}

/// Dense personalized PageRank power iteration: teleport (and dangling
/// mass) flow back to the single `seed` vertex, so the result measures
/// random-walk proximity to the seed.  Fixed iteration count, matching
/// [`crate::ppr::PprConfig`]'s batch-invariant execution model.
pub fn ppr(adj: &Csr, seed: usize, alpha: f32, iterations: usize) -> Vec<f32> {
    let n = adj.nrows();
    if n == 0 {
        return Vec::new();
    }
    assert!(seed < n, "seed vertex {seed} out of range (n = {n})");
    let out_deg = adj.out_degrees();
    let mut rank = vec![0.0f32; n];
    rank[seed] = 1.0;
    for _ in 0..iterations {
        let mut next = vec![0.0f32; n];
        let mut dangling = 0.0f32;
        for u in 0..n {
            if out_deg[u] == 0 {
                dangling += rank[u];
                continue;
            }
            let share = alpha * rank[u] / out_deg[u] as f32;
            for &v in adj.row(u).0 {
                next[v] += share;
            }
        }
        // The whole teleport mass — including stranded dangling mass — goes
        // to the seed, not uniformly.
        next[seed] += (1.0 - alpha) + alpha * dangling;
        rank = next;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_sparse::Coo;

    /// A small undirected graph: two components, one triangle.
    ///   0-1, 1-2, 0-2 (triangle), 2-3 ; 4-5
    fn sample() -> Csr {
        let mut coo = Coo::new(6, 6);
        for &(a, b) in &[(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)] {
            coo.push_undirected_edge(a, b).unwrap();
        }
        coo.to_binary_csr()
    }

    #[test]
    fn bfs_levels_on_sample() {
        let adj = sample();
        assert_eq!(bfs_levels(&adj, 0), vec![0, 1, 1, 2, -1, -1]);
        assert_eq!(bfs_levels(&adj, 4), vec![-1, -1, -1, -1, 0, 1]);
        assert_eq!(bfs_levels(&adj, 99), vec![-1; 6]);
    }

    #[test]
    fn sssp_matches_bfs_on_unit_weights() {
        let adj = sample();
        let d = sssp_distances(&adj, 0);
        let l = bfs_levels(&adj, 0);
        for (dist, lvl) in d.iter().zip(l) {
            if lvl < 0 {
                assert!(dist.is_infinite());
            } else {
                assert_eq!(*dist, lvl as f32);
            }
        }
    }

    #[test]
    fn cc_finds_two_components() {
        let adj = sample();
        assert_eq!(cc_count(&adj), 2);
        let labels = cc_labels(&adj);
        assert_eq!(labels[0], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[4]);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[4], 4);
    }

    #[test]
    fn triangle_count_on_sample_and_k4() {
        assert_eq!(triangle_count(&sample()), 1);
        let mut coo = Coo::new(4, 4);
        for a in 0..4usize {
            for b in (a + 1)..4 {
                coo.push_undirected_edge(a, b).unwrap();
            }
        }
        assert_eq!(triangle_count(&coo.to_binary_csr()), 4);
    }

    #[test]
    fn pagerank_sums_to_one_and_ranks_hubs_higher() {
        let mut coo = Coo::new(5, 5);
        // Star: everything points to 0.
        for i in 1..5usize {
            coo.push_edge(i, 0).unwrap();
        }
        let adj = coo.to_binary_csr();
        let pr = pagerank_dense(&adj, 0.85, 30);
        let total: f32 = pr.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "total {total}");
        for i in 1..5 {
            assert!(pr[0] > pr[i]);
        }
    }

    #[test]
    fn empty_graph_edge_cases() {
        let empty = Csr::empty(0, 0);
        assert!(pagerank_dense(&empty, 0.85, 5).is_empty());
        assert_eq!(triangle_count(&Csr::empty(3, 3)), 0);
        assert_eq!(cc_count(&Csr::empty(3, 3)), 3);
    }
}
