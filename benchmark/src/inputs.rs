//! Everything the engine is fed, generated from the run's seed: the graph,
//! the source set, the arrival schedule, the query mix and the deltas.

use bitgblas_algorithms::reference;
use bitgblas_core::EdgeDelta;
use bitgblas_datagen::generators;
use bitgblas_serve::Query;
use bitgblas_sparse::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec::{Graph, BFS_SHARE, GRAPH_SEED, INSERT_SHARE, MIX_BLOCK, SSSP_SHARE, WRITE_SHARE};

/// A seeded stream for one purpose, so that drawing more of one input (a
/// longer phase on a faster host) never shifts another.
pub fn stream(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generate the workload's graph.
pub fn generate(graph: Graph) -> Csr {
    match graph {
        Graph::Rmat { scale, edge_factor } => {
            generators::rmat(scale, edge_factor, 0.57, 0.19, 0.19, GRAPH_SEED).symmetrized()
        }
        Graph::Banded { n, bandwidth } => generators::banded(n, bandwidth, 0.7, GRAPH_SEED),
    }
}

/// The vertices of the largest connected component, ascending.
pub fn largest_component(adj: &Csr) -> Vec<usize> {
    let labels = reference::cc_labels(adj);
    let mut size = vec![0usize; adj.nrows()];
    for &l in &labels {
        size[l] += 1;
    }
    // Ties go to the smallest label, so the choice is a function of the graph.
    let Some(best) = (0..size.len()).max_by_key(|&l| (size[l], std::cmp::Reverse(l))) else {
        return Vec::new();
    };
    (0..labels.len()).filter(|&v| labels[v] == best).collect()
}

/// `count` sources spread over `component` (all of it when smaller): source
/// `i` comes from the middle tenth of the `i`-th of `count` equal slices of
/// the ascending vertex list.  Where a vertex sits decides what a traversal
/// from it costs — its eccentricity on the mesh, its degree on the R-MAT
/// graph, whose hubs have the low ids — so sources drawn freely would make
/// `sssp_ms` on the mesh, which has two of them, swing 1.5× with the seed.
pub fn pick_sources(component: &[usize], count: usize, rng: &mut StdRng) -> Vec<usize> {
    if count >= component.len() {
        return component.to_vec();
    }
    (0..count)
        .map(|i| {
            let jitter: f64 = rng.gen();
            let at = (i as f64 + 0.45 + 0.1 * jitter) * component.len() as f64 / count as f64;
            component[(at as usize).min(component.len() - 1)]
        })
        .collect()
}

/// Arrival times of a Poisson process: exponential gaps at `rate_qps`, in
/// nanoseconds of virtual time.  No wall clock is involved, so the generator
/// is never late.
#[derive(Debug, Clone)]
pub struct PoissonSchedule {
    rng: StdRng,
    rate_qps: f64,
    now_ns: u64,
}

impl PoissonSchedule {
    /// A schedule at `rate_qps` arrivals per second.
    pub fn new(rate_qps: f64, rng: StdRng) -> Self {
        PoissonSchedule {
            rng,
            rate_qps,
            now_ns: 0,
        }
    }
}

impl Iterator for PoissonSchedule {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let u: f64 = self.rng.gen();
        let gap_ns = (-(1.0 - u).ln() / self.rate_qps * 1e9).round() as u64;
        self.now_ns = self.now_ns.saturating_add(gap_ns.max(1));
        Some(self.now_ns)
    }
}

/// A random vertex pair to insert or delete.  On the R-MAT graph any pair;
/// on the mesh a pair inside the band, because a few hundred uniform
/// shortcuts would collapse the mesh's diameter — the property its workloads
/// exist for — from over a hundred to a handful.
pub fn random_pair(graph: Graph, n: usize, rng: &mut StdRng) -> (usize, usize) {
    match graph {
        Graph::Rmat { .. } => (rng.gen_range(0..n), rng.gen_range(0..n)),
        Graph::Banded { bandwidth, .. } => loop {
            let row = rng.gen_range(0..n);
            let lo = row.saturating_sub(bandwidth);
            let col = rng.gen_range(lo..(row + bandwidth + 1).min(n));
            if col != row {
                return (row, col);
            }
        },
    }
}

/// The query mix: 30 % BFS / 60 % SSSP / 10 % PPR (see
/// [`BFS_SHARE`]), and in a mixed stream a quarter of arrivals edge
/// mutations (80 % inserts).  The shares are exact within every block of
/// [`MIX_BLOCK`] arrivals and the order inside a block is a seeded shuffle.
/// The `j`-th of a block's `c` queries of one kind draws its source from the
/// `j`-th of `c` equal slices of the largest component's ascending vertex
/// list, because where a vertex sits decides what a traversal from it costs.
/// Two seeds therefore differ in order and in the sources within a slice,
/// not in how many expensive queries a phase happened to draw.
#[derive(Debug, Clone)]
pub struct QueryMix<'a> {
    rng: StdRng,
    component: &'a [usize],
    graph: Graph,
    n: usize,
    mixed: bool,
    block: Vec<Slot>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Bfs,
    Sssp,
    Ppr,
    Insert,
    Delete,
}

/// One arrival of a block: its kind, and for a read which slice of how many
/// its source comes from.
#[derive(Debug, Clone, Copy)]
struct Slot {
    kind: Kind,
    slice: usize,
    slices: usize,
}

impl<'a> QueryMix<'a> {
    /// A mix over `graph` with `n` vertices whose read sources come from
    /// `component`.
    pub fn new(component: &'a [usize], graph: Graph, n: usize, mixed: bool, rng: StdRng) -> Self {
        QueryMix {
            rng,
            component,
            graph,
            n,
            mixed,
            block: Vec::new(),
        }
    }

    fn refill(&mut self) {
        let share = |of: usize, s: f64| (of as f64 * s).round() as usize;
        let writes = if self.mixed {
            share(MIX_BLOCK, WRITE_SHARE)
        } else {
            0
        };
        let inserts = share(writes, INSERT_SHARE);
        let reads = MIX_BLOCK - writes;
        let bfs = share(reads, BFS_SHARE);
        let sssp = share(reads, SSSP_SHARE);
        self.block.clear();
        for (kind, count) in [
            (Kind::Bfs, bfs),
            (Kind::Sssp, sssp),
            (Kind::Ppr, reads - bfs - sssp),
            (Kind::Insert, inserts),
            (Kind::Delete, writes - inserts),
        ] {
            self.block.extend((0..count).map(|slice| Slot {
                kind,
                slice,
                slices: count,
            }));
        }
        for i in (1..self.block.len()).rev() {
            let j = self.rng.gen_range(0..i + 1);
            self.block.swap(i, j);
        }
    }
}

impl Iterator for QueryMix<'_> {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        if self.block.is_empty() {
            self.refill();
        }
        let Slot {
            kind,
            slice,
            slices,
        } = self.block.pop()?;
        Some(match kind {
            Kind::Bfs | Kind::Sssp | Kind::Ppr => {
                let len = self.component.len();
                let (lo, hi) = (slice * len / slices, (slice + 1) * len / slices);
                let source = self.component[self.rng.gen_range(lo..hi.max(lo + 1)).min(len - 1)];
                match kind {
                    Kind::Bfs => Query::bfs(source),
                    Kind::Sssp => Query::sssp(source),
                    _ => Query::ppr(source),
                }
            }
            Kind::Insert | Kind::Delete => {
                let (row, col) = random_pair(self.graph, self.n, &mut self.rng);
                if kind == Kind::Insert {
                    Query::insert_edge(row, col)
                } else {
                    Query::delete_edge(row, col)
                }
            }
        })
    }
}

/// `count` edge deltas, 80 % inserts — the `ingest` stream.
pub fn ingest_deltas(graph: Graph, n: usize, count: usize, rng: &mut StdRng) -> Vec<EdgeDelta> {
    (0..count)
        .map(|_| {
            let (row, col) = random_pair(graph, n, rng);
            if rng.gen_bool(INSERT_SHARE) {
                EdgeDelta::insert(row, col)
            } else {
                EdgeDelta::delete(row, col)
            }
        })
        .collect()
}

/// `pairs` new undirected edges as `2·pairs` insert deltas: the writes a
/// mixed workload leaves pending while its analytics rounds run.  Both
/// directions land in one batch, so the graph the rounds read stays
/// symmetric (connected components and the triangle count stay defined).
pub fn pending_deltas(graph: Graph, n: usize, pairs: usize, rng: &mut StdRng) -> Vec<EdgeDelta> {
    let mut out = Vec::with_capacity(2 * pairs);
    while out.len() < 2 * pairs {
        let (a, b) = random_pair(graph, n, rng);
        if a != b {
            out.push(EdgeDelta::insert(a, b));
            out.push(EdgeDelta::insert(b, a));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_core::delta::DeltaOp;
    use bitgblas_sparse::Coo;

    const RMAT: Graph = Graph::Rmat {
        scale: 4,
        edge_factor: 4,
    };

    #[test]
    fn poisson_schedule_repeats_per_seed_and_differs_across_seeds() {
        let take = |seed| -> Vec<u64> {
            PoissonSchedule::new(25.0, stream(seed, 1))
                .take(200)
                .collect()
        };
        let a = take(7);
        assert_eq!(a, take(7));
        assert_ne!(a, take(8));
        assert!(a.windows(2).all(|w| w[0] < w[1]), "arrivals are ordered");
        // 200 arrivals at 25/s span about 8 s of virtual time.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((5.0..12.0).contains(&span_s), "span {span_s}");
    }

    /// Two triangles, a path of five and an isolated vertex.
    fn islands() -> Csr {
        let mut coo = Coo::new(12, 12);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
            coo.push_undirected_edge(a, b).unwrap();
        }
        for v in 6..10 {
            coo.push_undirected_edge(v, v + 1).unwrap();
        }
        coo.to_binary_csr()
    }

    #[test]
    fn sources_come_from_the_largest_component_only() {
        let adj = islands();
        let component = largest_component(&adj);
        assert_eq!(component, vec![6, 7, 8, 9, 10]);
        for seed in 0..20 {
            let picked = pick_sources(&component, 3, &mut stream(seed, 2));
            assert_eq!(picked.len(), 3);
            assert!(picked.iter().all(|v| component.contains(v)));
            assert!(picked.windows(2).all(|w| w[0] < w[1]), "one per slice");
        }
        assert_eq!(pick_sources(&component, 9, &mut stream(1, 2)).len(), 5);
        // Two sources of a long path sit near its quarter points.
        let path: Vec<usize> = (0..1000).collect();
        for seed in 0..20 {
            let picked = pick_sources(&path, 2, &mut stream(seed, 2));
            assert!((225..275).contains(&picked[0]) && (725..775).contains(&picked[1]));
        }
        let reads: Vec<Query> = QueryMix::new(&component, RMAT, 12, false, stream(3, 3))
            .take(80)
            .collect();
        assert!(reads.iter().all(|q| component.contains(&q.source())));
    }

    #[test]
    fn mix_shares_are_exact_per_block() {
        let component: Vec<usize> = (0..50).collect();
        let count = |mixed: bool| {
            let mut c = [0usize; 5];
            for q in QueryMix::new(&component, RMAT, 50, mixed, stream(9, 3)).take(2 * MIX_BLOCK) {
                let i = match q {
                    Query::Bfs { .. } => 0,
                    Query::Sssp { .. } => 1,
                    Query::Ppr { .. } => 2,
                    Query::Mutate { delta } => match delta.op {
                        DeltaOp::Insert => 3,
                        DeltaOp::Delete => 4,
                    },
                };
                c[i] += 1;
            }
            c
        };
        assert_eq!(count(false), [24, 48, 8, 0, 0]);
        assert_eq!(count(true), [18, 36, 6, 16, 4]);
    }

    #[test]
    fn a_blocks_reads_of_one_kind_come_one_from_each_slice() {
        let component: Vec<usize> = (0..2400).collect();
        let mut sssp: Vec<usize> = QueryMix::new(&component, RMAT, 2400, false, stream(1, 3))
            .take(MIX_BLOCK)
            .filter_map(|q| match q {
                Query::Sssp { source } => Some(source),
                _ => None,
            })
            .collect();
        sssp.sort_unstable();
        assert_eq!(sssp.len(), 24);
        for (i, s) in sssp.iter().enumerate() {
            assert!((i * 100..(i + 1) * 100).contains(s), "slice {i} got {s}");
        }
    }

    #[test]
    fn mesh_mutations_stay_inside_the_band() {
        let mesh = Graph::Banded {
            n: 64,
            bandwidth: 4,
        };
        let mut rng = stream(5, 5);
        for _ in 0..500 {
            let (r, c) = random_pair(mesh, 64, &mut rng);
            assert!(r < 64 && c < 64 && r != c && r.abs_diff(c) <= 4);
        }
        assert!(ingest_deltas(mesh, 64, 100, &mut rng)
            .iter()
            .all(|d| d.row.abs_diff(d.col) <= 4));
    }

    #[test]
    fn pending_deltas_are_symmetric_pairs() {
        let d = pending_deltas(RMAT, 100, 10, &mut stream(4, 4));
        assert_eq!(d.len(), 20);
        for pair in d.chunks(2) {
            assert_eq!((pair[0].row, pair[0].col), (pair[1].col, pair[1].row));
            assert_ne!(pair[0].row, pair[0].col);
        }
    }
}
