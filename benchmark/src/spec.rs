//! What the benchmark runs and what it reports: the four workloads, the
//! end-to-end metrics with their regression bounds, and the per-layer
//! metrics.  `BENCHMARK.json` at the repo root repeats these tables; the
//! schema test keeps the two in step.

/// The graph a workload runs on, generated from [`GRAPH_SEED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Graph {
    /// `rmat(scale, edge_factor, .57, .19, .19, seed).symmetrized()`:
    /// power-law, low diameter, hypersparse 8×8 tiles.
    Rmat {
        /// log₂ of the vertex count.
        scale: u32,
        /// Edges drawn per vertex.
        edge_factor: usize,
    },
    /// `banded(n, bandwidth, 0.7, seed)`: a mesh, dense 8×8 tiles,
    /// diameter ≈ n / bandwidth.
    Banded {
        /// Vertex count.
        n: usize,
        /// Sub/super-diagonals on each side.
        bandwidth: usize,
    },
}

/// How often each algorithm runs in one closed-loop round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// BFS runs, one per source of the fixed source set.
    pub bfs: usize,
    /// SSSP runs, from the first sources of the set.
    pub sssp: usize,
    /// PageRank runs.
    pub pagerank: usize,
    /// Connected-components runs.
    pub cc: usize,
    /// Triangle-counting runs.
    pub tc: usize,
}

/// One workload: a graph and a traffic mix.  Every workload runs the same
/// phases — set-up, closed-loop analytics rounds, the open-loop `light`
/// phase, offline `drain` batches and `ingest` — because every workload has
/// to report every end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, as in `BENCHMARK.json`.
    pub why: &'static str,
    /// The graph.
    pub graph: Graph,
    /// One closed-loop round.
    pub round: Round,
    /// Whether a quarter of the `light` and `drain` arrivals are edge
    /// mutations, and the analytics rounds read through a pending delta log.
    pub mixed: bool,
    /// Offered load of the `light` phase, arrivals per second of virtual
    /// time.
    pub light_rate_qps: f64,
}

/// Sizes that differ between the full benchmark and `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Laps, when not derived from `--seconds`: how often the phases take
    /// turns.  There is one set-up before the first lap and one in each.
    pub laps: Option<usize>,
    /// Rounds, when not limited by time.
    pub rounds: Option<usize>,
    /// `light` arrivals, when not limited by time.
    pub light_arrivals: Option<usize>,
    /// Queries per `drain` unit.
    pub drain_unit: usize,
    /// `drain` units, when not limited by time.
    pub drain_units: Option<usize>,
    /// Mutation tickets per `ingest` unit; there is one unit in each lap,
    /// on the matrix that lap's set-up built.
    pub ingest_unit: usize,
    /// Symmetric edge pairs left pending before the rounds of a mixed
    /// workload.
    pub pending_pairs: usize,
    /// Rounds of the float baseline in the traced run.
    pub float_rounds: usize,
    /// Arrivals per rate of the traced run's load curve.
    pub curve_arrivals: usize,
    /// Lanes of the batched probes.
    pub probe_lanes: usize,
}

/// Seed of the graphs.  Like the paper's matrices, a workload's graph is the
/// same in every run; `--seed` drives the source set, the arrival schedule,
/// the query mix and the deltas.  A graph per seed would put what differs
/// between two random graphs — connected components converges in two
/// iterations on one mesh and three on the next, a 1.6× step in `cc_ms` —
/// into the run-to-run spread every later comparison is judged against.
pub const GRAPH_SEED: u64 = 5;

/// Shares of `--seconds` given to the time-limited phases, oracle checks
/// included.  The set-up and the `ingest` unit of every lap have a fixed
/// size and take about the rest on the sizing host.
pub const ROUNDS_SHARE: f64 = 0.32;
/// See [`ROUNDS_SHARE`].
pub const LIGHT_SHARE: f64 = 0.28;
/// See [`ROUNDS_SHARE`].
pub const DRAIN_SHARE: f64 = 0.26;
/// Seconds of `--seconds` per lap.
pub const LAP_SECONDS: f64 = 2.5;

/// Offered loads of the traced run's load curve; the first is the rate the
/// issue planned for `light`.
pub const CURVE_RATES_QPS: [f64; 4] = [25.0, 100.0, 200.0, 300.0];
/// Latency limit on `query_p95_ms` for `serve.slo_rate_qps`.
pub const SLO_P95_MS: f64 = 500.0;
/// The service's coalescing window, ticks (1 tick = 1 µs of virtual time).
pub const WINDOW_TICKS: u64 = 500;
/// Pending-log depth at which the service compacts in-band.
pub const COMPACT_AFTER: usize = 1024;
/// Arrivals per block of the query mix; every block holds exactly the
/// mix's shares.
pub const MIX_BLOCK: usize = 40;
/// Share of mutation tickets in a mixed stream, and of inserts among them.
pub const WRITE_SHARE: f64 = 0.25;
/// See [`WRITE_SHARE`].
pub const INSERT_SHARE: f64 = 0.8;
/// Shares of BFS and SSSP among the reads; the rest is PPR.  With 30 / 60 /
/// 10 both latency percentiles lie inside a mode of the service-time mix on
/// both graphs: on R-MAT (BFS ≈ 14 ms < SSSP ≈ 38 < PPR ≈ 74 alone in their
/// batch) the median is a low quantile of the SSSP lanes and p95 the median
/// PPR lane; on the mesh (PPR ≈ 4 < BFS ≈ 21 < SSSP ≈ 33) both are SSSP
/// lanes.  With the 60 / 30 / 10 first planned the R-MAT median was the
/// 83rd percentile of the BFS lanes, where host interference shows first.
pub const BFS_SHARE: f64 = 0.3;
/// See [`BFS_SHARE`].
pub const SSSP_SHARE: f64 = 0.6;
/// Every how many read tickets one is checked against the oracle.
pub const VERIFY_EVERY: usize = 8;

impl Graph {
    /// The `--smoke` stand-in: the same generator at a size that runs in
    /// milliseconds.
    pub fn smoke(self) -> Graph {
        match self {
            Graph::Rmat { edge_factor, .. } => Graph::Rmat {
                scale: 8,
                edge_factor,
            },
            Graph::Banded { .. } => Graph::Banded {
                n: 256,
                bandwidth: 8,
            },
        }
    }
}

impl Scale {
    /// The benchmark proper: phases limited by their share of `--seconds`.
    pub fn full() -> Scale {
        Scale {
            laps: None,
            rounds: None,
            light_arrivals: None,
            drain_unit: 4 * MIX_BLOCK,
            drain_units: None,
            ingest_unit: 16_384,
            pending_pairs: 256,
            float_rounds: 5,
            curve_arrivals: 300,
            probe_lanes: 64,
        }
    }

    /// `--smoke`: fixed small counts, every oracle check on.
    pub fn smoke() -> Scale {
        Scale {
            laps: Some(1),
            rounds: Some(3),
            light_arrivals: Some(60),
            drain_unit: 2 * MIX_BLOCK,
            drain_units: Some(1),
            ingest_unit: 1024,
            pending_pairs: 16,
            float_rounds: 1,
            curve_arrivals: 40,
            probe_lanes: 64,
        }
    }
}

const RMAT: Graph = Graph::Rmat {
    scale: 14,
    edge_factor: 16,
};
const MESH: Graph = Graph::Banded {
    n: 2048,
    bandwidth: 32,
};
/// Offered load of `light`: utilisation ≈ 0.02–0.05 on the sizing host, so
/// that the percentiles lie inside the modes of the service-time mix and not
/// in its queueing tail.  At the ISSUE's 25/s (utilisation ≈ 0.5) queueing
/// multiplies the host's timing noise: p50 read 37–228 ms over eight
/// back-to-back runs.  That rate is the first point of the load curve.
const LIGHT_RATE: f64 = 1.0;
// Triangle counting on the R-MAT graph costs as much as twenty PageRanks;
// one of it to four of the others keeps a round at ≈ 0.8 s, nine or ten
// rounds to a run.
const RMAT_ROUND: Round = Round {
    bfs: 8,
    sssp: 4,
    pagerank: 4,
    cc: 4,
    tc: 1,
};
const MESH_ROUND: Round = Round {
    bfs: 4,
    sssp: 2,
    pagerank: 4,
    cc: 4,
    tc: 2,
};

/// The workloads: two graphs × two traffic mixes.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "rmat_read",
        why: "Low-diameter power-law graph, hypersparse tiles, read-only: direction planner and push kernels do the traversals; pull sweeps mostly empty tiles (Table V's losing case). delta idle until ingest.",
        graph: RMAT,
        round: RMAT_ROUND,
        mixed: false,
        light_rate_qps: LIGHT_RATE,
    },
    Workload {
        name: "mesh_read",
        why: "Banded mesh, dense tiles, diameter 64, read-only: dozens of tiny-frontier iterations make per-op fixed cost dominate BFS/SSSP and batching pays least; PR/CC/TC pull dense tiles where B2SR should win.",
        graph: MESH,
        round: MESH_ROUND,
        mixed: false,
        light_rate_qps: LIGHT_RATE,
    },
    Workload {
        name: "rmat_mixed",
        why: "rmat_read with a quarter of arrivals edge inserts/deletes and compact_after(1024): reads go through the delta overlay beside appends and in-band compaction; analytics read a pending log.",
        graph: RMAT,
        round: RMAT_ROUND,
        mixed: true,
        light_rate_qps: LIGHT_RATE,
    },
    Workload {
        name: "mesh_mixed",
        why: "mesh_read with the same write share, kept inside the band: each of a traversal's many iterations pays the overlay's dirty-row re-fold; compaction re-tiles dense tiles, not hypersparse ones.",
        graph: MESH,
        round: MESH_ROUND,
        mixed: true,
        light_rate_qps: LIGHT_RATE,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// As written in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics.  `failed_share` is not among them because the
/// contract wants metrics that are never 0; it is printed, written to the
/// result file and carried by `failed` / `attempted` of the result line.
pub const END_TO_END: [EndToEnd; 11] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("bfs_ms", "ms", Better::Lower, 0.25),
    e2e("sssp_ms", "ms", Better::Lower, 0.25),
    e2e("pagerank_ms", "ms", Better::Lower, 0.25),
    e2e("cc_ms", "ms", Better::Lower, 0.25),
    e2e("tc_ms", "ms", Better::Lower, 0.25),
    e2e("query_p50_ms", "ms", Better::Lower, 0.25),
    e2e("query_p95_ms", "ms", Better::Lower, 0.25),
    e2e("drain_qps", "queries/s", Better::Higher, 0.25),
    e2e("ingest_per_s", "mutations/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Look an end-to-end metric up by name.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of a single layer: no bound, reported by the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PerLayer {
    /// `layer.metric`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Whether the value is a count that must repeat exactly between runs
    /// with equal seeds on one host.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn gain(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

/// The per-layer metrics, layer by layer (layers are the repo's modules).
pub const PER_LAYER: [PerLayer; 103] = [
    // datagen — kept so `setup_s` is not blamed for generation.
    timing("datagen.generate_ms", "ms"),
    // sparse — the paper's float baseline.
    timing("sparse.float_bfs_ms", "ms"),
    timing("sparse.float_sssp_ms", "ms"),
    timing("sparse.float_pagerank_ms", "ms"),
    timing("sparse.float_cc_ms", "ms"),
    timing("sparse.float_tc_ms", "ms"),
    timing("sparse.spmv_ms", "ms"),
    timing("sparse.spgemm_masked_sum_ms", "ms"),
    count("sparse.csr_bytes", "bytes"),
    // perfmodel — computed, not measured.
    timing("perfmodel.bmv_traffic_ratio", "ratio"),
    // core::b2sr
    timing("b2sr.convert_ms", "ms"),
    timing("b2sr.transpose_ms", "ms"),
    count("b2sr.tiles", "count"),
    count("b2sr.bytes", "bytes"),
    gain("b2sr.tile_fill", "fraction"),
    // core::kernels — direct calls on B2sr<u8>, 1 % frontier.
    timing("kernels.pack_ms", "ms"),
    timing("kernels.bmv_pull_bool_ms", "ms"),
    timing("kernels.bmv_pull_bool_simd_ms", "ms"),
    timing("kernels.bmv_pull_full_ms", "ms"),
    timing("kernels.bmv_pull_full_simd_ms", "ms"),
    timing("kernels.bmv_push_bool_ms", "ms"),
    timing("kernels.bmm_tc_ms", "ms"),
    timing("kernels.bmm_batch_bool_ms", "ms"),
    timing("kernels.bmm_batch_full_ms", "ms"),
    timing("kernels.bmm_push_bool_ms", "ms"),
    count("kernels.bmv_pull_words", "count"),
    gain("kernels.bmv_speedup", "ratio"),
    gain("kernels.bmm_speedup", "ratio"),
    // core::grb
    timing("grb.matrix_build_ms", "ms"),
    timing("grb.vxm_pull_bool_ms", "ms"),
    timing("grb.vxm_push_bool_ms", "ms"),
    timing("grb.mxv_pull_full_ms", "ms"),
    timing("grb.vxm_pull_overhead_ms", "ms"),
    timing("grb.vxm_push_overhead_ms", "ms"),
    timing("grb.pagerank_unfused_ms", "ms"),
    count("grb.pull_mxv", "count"),
    count("grb.push_mxv", "count"),
    count("grb.pull_mxm", "count"),
    count("grb.push_mxm", "count"),
    count("grb.fused_mxv", "count"),
    count("grb.sharded_push", "count"),
    count("grb.shard_segments", "count"),
    count("grb.auto_tile_dim", "count"),
    count("grb.storage_bytes", "bytes"),
    // core::shard
    timing("shard.bfs_push_t1_ms", "ms"),
    timing("shard.bfs_push_tn_ms", "ms"),
    gain("shard.push_scaling", "ratio"),
    // core::delta
    timing("delta.append_shallow_us", "us"),
    timing("delta.append_deep_us", "us"),
    timing("delta.append_depth_ratio", "ratio"),
    timing("delta.compact_ms", "ms"),
    timing("delta.snapshot_us", "us"),
    timing("delta.overlay_bfs_ms", "ms"),
    timing("delta.compacted_bfs_ms", "ms"),
    timing("delta.overlay_read_cost", "ratio"),
    count("delta.dirty_rows", "count"),
    // algorithms
    count("algorithms.bfs_iterations", "count"),
    count("algorithms.sssp_iterations", "count"),
    count("algorithms.pagerank_iterations", "count"),
    count("algorithms.cc_iterations", "count"),
    timing("algorithms.bfs_us_per_iteration", "us"),
    timing("algorithms.ppr_single_ms", "ms"),
    timing("algorithms.bfs_multi64_ms", "ms"),
    timing("algorithms.sssp_multi64_ms", "ms"),
    timing("algorithms.ppr_multi64_ms", "ms"),
    gain("algorithms.bfs_batch_gain", "ratio"),
    // serve
    timing("serve.submit_us", "us"),
    timing("serve.pump_ms", "ms"),
    timing("serve.take_result_us", "us"),
    timing("serve.overhead_us_per_batch", "us"),
    gain("serve.exec_share", "fraction"),
    timing("serve.queue_wait_p50_ms", "ms"),
    timing("serve.queue_wait_p95_ms", "ms"),
    timing("serve.query_p99_ms", "ms"),
    timing("serve.mutation_p95_ms", "ms"),
    timing("serve.utilization", "fraction"),
    gain("serve.occupancy_mean", "lanes"),
    timing("serve.batches", "count"),
    count("serve.drain_batches", "count"),
    gain("serve.drain_occupancy_mean", "lanes"),
    timing("serve.bfs_batch_ms", "ms"),
    timing("serve.sssp_batch_ms", "ms"),
    timing("serve.ppr_batch_ms", "ms"),
    timing("serve.mutate_batch_us", "us"),
    timing("serve.p50_ms.r25", "ms"),
    timing("serve.p95_ms.r25", "ms"),
    timing("serve.p50_ms.r100", "ms"),
    timing("serve.p95_ms.r100", "ms"),
    timing("serve.p50_ms.r200", "ms"),
    timing("serve.p95_ms.r200", "ms"),
    timing("serve.p50_ms.r300", "ms"),
    timing("serve.p95_ms.r300", "ms"),
    gain("serve.slo_rate_qps", "queries/s"),
    count("serve.compactions", "count"),
    count("serve.epochs_published", "count"),
    timing("serve.peak_queue_depth", "count"),
    gain("serve.conserved", "count"),
    gain("serve.light_queries", "count"),
    // bench
    timing("bench.trace_overhead_share", "fraction"),
    timing("bench.wall_per_cpu", "ratio"),
    timing("bench.host_slowdown", "ratio"),
    timing("bench.run_s", "s"),
    timing("bench.failed_share", "fraction"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && n.chars().next().unwrap().is_ascii_alphanumeric()
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| ok(n)));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Better::Lower));
    }
}
