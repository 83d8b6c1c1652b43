//! The per-layer metrics of a traced run: what the workload's phases
//! observed, probes that time calls into each layer's public functions on
//! the workload's own graph, and the load curve.  Everything is measured
//! from outside the layers; nothing here feeds an end-to-end metric.

use std::time::Instant;

use bitgblas_algorithms::{
    bfs, bfs_dir, bfs_multi, pagerank, ppr, ppr_multi, sssp_multi, Direction, Fusion,
    PageRankConfig, PprConfig,
};
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::grb::{auto_decision, Context, Op, Vector};
use bitgblas_core::kernels::{
    bmm_bin_bin_sum_masked, bmm_bin_bits_into, bmm_bin_full_into, bmm_push_bits,
    bmv_bin_bin_bin_into, bmv_bin_bin_bin_simd_into, bmv_bin_full_full_into,
    bmv_bin_full_full_simd_into, bmv_push_bin_bin, pack_vector_bits, pack_vector_tilewise_into,
};
use bitgblas_core::{Backend, Matrix, Semiring};
use bitgblas_perfmodel::{b2sr_bmv_traffic, csr_spmv_traffic, pascal_gtx1080, B2srLayout};
use bitgblas_sparse::{ops, Csr, DenseVec};
use rand::Rng;

use crate::clock::Limit;
use crate::host::clock;
use crate::inputs::{ingest_deltas, pick_sources, stream};
use crate::spec::{Scale, CURVE_RATES_QPS, SLO_P95_MS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{
    arrivals, open_loop, Ledger, Offline, OpenLoop, Outcome, Rounds, RunConfig, Tally, BACKEND,
};

/// Repetitions of a probe, and the time after which it stops early.
const PROBE_REPS: usize = 20;
const PROBE_BUDGET_S: f64 = 0.25;

/// Median milliseconds of `f` over up to [`PROBE_REPS`] calls (at least
/// three, so that a cold first call cannot be the median).
fn probe_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::with_capacity(PROBE_REPS);
    while samples.len() < 3
        || (samples.len() < PROBE_REPS && began.elapsed().as_secs_f64() < PROBE_BUDGET_S)
    {
        let t = clock();
        std::hint::black_box(f());
        samples.push((clock() - t).as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Whether latency kept rising through the phase: the median of the last
/// quarter of read tickets is more than twice that of the first quarter.
fn backlog_grows(open: &OpenLoop) -> bool {
    let l = &open.read_latency_ms;
    let q = l.len() / 4;
    q > 0 && median(&l[l.len() - q..]) > 2.0 * median(&l[..q])
}

/// The sparse layer: the paper's float baseline on the same round, and the
/// two CSR kernels the bit kernels are compared with.
fn sparse(out: &mut Vec<(&'static str, f64)>, o: &Outcome, cfg: &RunConfig, scale: &Scale) {
    let float = Matrix::from_csr(&o.adj, Backend::FloatCsr);
    let mut rounds = Rounds::new(cfg.workload, &o.sources, &o.adj);
    rounds.run(
        &float,
        Limit::Count(scale.float_rounds),
        false,
        &mut Tracer::new(false),
        &mut Tally::default(),
    );
    let r = &rounds.samples;
    out.push(("sparse.float_bfs_ms", r.bfs.median_ms()));
    out.push(("sparse.float_sssp_ms", r.sssp.median_ms()));
    out.push(("sparse.float_pagerank_ms", r.pagerank.median_ms()));
    out.push(("sparse.float_cc_ms", r.cc.median_ms()));
    out.push(("sparse.float_tc_ms", r.tc.median_ms()));
    let x = DenseVec::from_vec(dense_operand(o.adj.ncols()));
    out.push(("sparse.spmv_ms", probe_ms(|| ops::spmv(&o.adj, &x))));
    let l = o.adj.lower_triangle();
    out.push((
        "sparse.spgemm_masked_sum_ms",
        probe_ms(|| ops::spgemm_masked_sum(&l, &l, &l)),
    ));
    out.push(("sparse.csr_bytes", o.adj.storage_bytes() as f64));
}

/// A dense operand with no zero entry.
fn dense_operand(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i % 5 + 1) as f32).collect()
}

/// Every hundredth vertex: the 1 % frontier of the kernel probes.
fn frontier(n: usize) -> Vec<usize> {
    (0..n).step_by(100).collect()
}

/// `core::b2sr` and `core::kernels`: direct calls on `B2sr<u8>`.  Returns
/// (pull bool, pull bool simd, push bool) for the `grb` overheads.
fn b2sr_and_kernels(
    out: &mut Vec<(&'static str, f64)>,
    adj: &Csr,
    lanes: usize,
    seed: u64,
) -> [f64; 3] {
    let n = adj.nrows();
    out.push(("b2sr.convert_ms", probe_ms(|| from_csr::<u8>(adj, 8))));
    let b = from_csr::<u8>(adj, 8);
    out.push(("b2sr.transpose_ms", probe_ms(|| b.transpose())));
    // Pull products sweep the transpose (`vxm` pulls along in-edges).
    let bt = b.transpose();
    out.push(("b2sr.tiles", b.n_tiles() as f64));
    out.push(("b2sr.bytes", b.storage_bytes() as f64));
    out.push((
        "b2sr.tile_fill",
        b.nnz() as f64 / (64 * b.n_tiles().max(1)) as f64,
    ));

    let front = frontier(n);
    let x_bool = Vector::indicator(n, &front).into_vec();
    let x_full = dense_operand(n);
    let mut xp: Vec<u8> = Vec::new();
    out.push((
        "kernels.pack_ms",
        probe_ms(|| pack_vector_tilewise_into(&x_bool, 8, &mut xp)),
    ));
    let mut yw = vec![0u8; bt.n_tile_rows()];
    let pull_bool = probe_ms(|| bmv_bin_bin_bin_into(&bt, &xp, &mut yw));
    let pull_bool_simd = probe_ms(|| bmv_bin_bin_bin_simd_into(&bt, &xp, &mut yw));
    let mut y = vec![0.0f32; bt.n_tile_rows() * 8];
    let pull_full = probe_ms(|| bmv_bin_full_full_into(&bt, &x_full, Semiring::Arithmetic, &mut y));
    let pull_full_simd =
        probe_ms(|| bmv_bin_full_full_simd_into(&bt, &x_full, Semiring::Arithmetic, &mut y));
    let mut yp = vec![0u8; b.n_tile_cols()];
    let push_bool = probe_ms(|| {
        yp.fill(0);
        bmv_push_bin_bin(&b, &front, &mut yp)
    });
    out.push(("kernels.bmv_pull_bool_ms", pull_bool));
    out.push(("kernels.bmv_pull_bool_simd_ms", pull_bool_simd));
    out.push(("kernels.bmv_pull_full_ms", pull_full));
    out.push(("kernels.bmv_pull_full_simd_ms", pull_full_simd));
    out.push(("kernels.bmv_push_bool_ms", push_bool));

    let l = from_csr::<u8>(&adj.lower_triangle(), 8);
    let lt = l.transpose();
    let tc = probe_ms(|| bmm_bin_bin_sum_masked(&l, &lt, &l));
    out.push(("kernels.bmm_tc_ms", tc));

    // Batched operands: the frontier's nodes carry random lane words.
    let mut rng = stream(seed, 60);
    let mut xw = vec![0u64; n];
    let mut active = vec![false; n];
    for &v in &front {
        xw[v] = rng.gen_range(1..u64::MAX) >> (64 - lanes.clamp(1, 64));
        active[v] = xw[v] != 0;
    }
    let xa = pack_vector_bits::<u8>(&active, 8);
    let mut ybits = vec![0u64; bt.n_tile_rows() * 8];
    out.push((
        "kernels.bmm_batch_bool_ms",
        probe_ms(|| bmm_bin_bits_into(&bt, &xw, lanes, &xa, None, &mut ybits)),
    ));
    let x_multi = dense_operand(n * lanes);
    let mut y_multi = vec![0.0f32; bt.n_tile_rows() * 8 * lanes];
    out.push((
        "kernels.bmm_batch_full_ms",
        probe_ms(|| {
            bmm_bin_full_into(
                &bt,
                &x_multi,
                lanes,
                Semiring::Arithmetic,
                None,
                &mut y_multi,
            )
        }),
    ));
    let mut ypush = vec![0u64; n];
    out.push((
        "kernels.bmm_push_bool_ms",
        probe_ms(|| {
            ypush.fill(0);
            bmm_push_bits(&b, &front, &xw, 1, &mut ypush)
        }),
    ));
    out.push(("kernels.bmv_pull_words", bt.bit_tiles().len() as f64));
    let get = |name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (spmv, spgemm) = (get("sparse.spmv_ms"), get("sparse.spgemm_masked_sum_ms"));
    out.push(("kernels.bmv_speedup", spmv / pull_full));
    out.push(("kernels.bmm_speedup", spgemm / tc));
    [pull_bool, pull_bool_simd, push_bool]
}

/// `core::grb`: the same products through `Op` with forced direction.
fn grb(out: &mut Vec<(&'static str, f64)>, o: &Outcome, kernels: [f64; 3]) {
    let adj = &o.adj;
    let n = adj.nrows();
    let m = Matrix::from_csr(adj, BACKEND);
    let ctx = m.context();
    let x = Vector::indicator(n, &frontier(n));
    let x_full = Vector::from_vec(dense_operand(n));
    let vxm = |direction| {
        probe_ms(|| {
            let y = Op::vxm(&x, &m)
                .semiring(Semiring::Boolean)
                .direction(direction)
                .run(ctx);
            ctx.recycle(y);
        })
    };
    let (pull, push) = (vxm(Direction::Pull), vxm(Direction::Push));
    let mxv_full = probe_ms(|| {
        let y = Op::mxv(&m, &x_full)
            .semiring(Semiring::Arithmetic)
            .direction(Direction::Pull)
            .run(ctx);
        ctx.recycle(y);
    });
    let [k_pull, k_pull_simd, k_push] = kernels;
    let k_pull = if ctx.workspace().simd_enabled(8) {
        k_pull_simd
    } else {
        k_pull
    };
    let unfused = PageRankConfig {
        fusion: Fusion::NodeAtATime,
        ..PageRankConfig::default()
    };
    out.push(("grb.matrix_build_ms", o.matrix_build_ms));
    out.push(("grb.vxm_pull_bool_ms", pull));
    out.push(("grb.vxm_push_bool_ms", push));
    out.push(("grb.mxv_pull_full_ms", mxv_full));
    out.push(("grb.vxm_pull_overhead_ms", pull - k_pull));
    out.push(("grb.vxm_push_overhead_ms", push - k_push));
    out.push((
        "grb.pagerank_unfused_ms",
        probe_ms(|| pagerank(&m, &unfused)),
    ));
    let auto = match auto_decision(adj, ctx).chosen {
        Backend::Bit(ts) => ts.dim(),
        _ => 0,
    };
    out.push(("grb.auto_tile_dim", auto as f64));
    out.push(("grb.storage_bytes", m.storage_bytes() as f64));
}

/// `core::shard`: forced-push BFS at a budget of one thread and of the
/// host's CPU count (at least two).  The run is pinned to one CPU, so the
/// second figure is what the fan-out itself costs, not what it gains.
fn shard(out: &mut Vec<(&'static str, f64)>, o: &Outcome, host_cores: usize) {
    let at = |threads| {
        let m = Matrix::from_csr_ctx(&o.adj, BACKEND, &Context::with_threads(threads));
        probe_ms(|| bfs_dir(&m, o.sources[0], Direction::Push))
    };
    let (t1, tn) = (at(1), at(host_cores.max(2)));
    out.push(("shard.bfs_push_t1_ms", t1));
    out.push(("shard.bfs_push_tn_ms", tn));
    out.push(("shard.push_scaling", t1 / tn));
}

/// `core::delta`: appends at two log depths, compaction, overlay reads.
fn delta(out: &mut Vec<(&'static str, f64)>, o: &Outcome, seed: u64) {
    let n = o.adj.nrows();
    let m = Matrix::from_csr(&o.adj, BACKEND);
    let ctx = m.context();
    let mut rng = stream(seed, 61);
    let mut append_us = |m: &Matrix| {
        let batch = ingest_deltas(o.graph, n, 16, &mut rng);
        let t = clock();
        m.apply_deltas(&batch).expect("deltas are in range");
        (clock() - t).as_secs_f64() * 1e6
    };
    // Shallow: four 16-delta appends from an empty log, five times over.
    let mut shallow = Vec::new();
    for _ in 0..5 {
        shallow.extend((0..4).map(|_| append_us(&m)));
        m.compact(ctx).expect("compaction succeeds");
    }
    // Deep: the same append on top of 4096 pending deltas.
    let mut bulk = stream(seed, 62);
    let mut deep = Vec::new();
    let mut compact_ms = Vec::new();
    let mut dirty_rows = 0;
    let mut overlay_bfs = 0.0;
    let mut snapshot_us = 0.0;
    for cycle in 0..3 {
        m.apply_deltas(&ingest_deltas(o.graph, n, 4096, &mut bulk))
            .expect("deltas are in range");
        deep.extend((0..7).map(|_| append_us(&m)));
        if cycle == 0 {
            snapshot_us = probe_ms(|| m.snapshot()) * 1e3;
            let snap = m.snapshot();
            overlay_bfs = probe_ms(|| bfs(&snap, o.sources[0]));
        }
        let t = clock();
        let report = m.compact(ctx).expect("compaction succeeds");
        compact_ms.push((clock() - t).as_secs_f64() * 1e3);
        if cycle == 0 {
            dirty_rows = report.dirty_rows;
        }
    }
    let snap = m.snapshot();
    let compacted_bfs = probe_ms(|| bfs(&snap, o.sources[0]));
    let (shallow, deep) = (median(&shallow), median(&deep));
    out.push(("delta.append_shallow_us", shallow));
    out.push(("delta.append_deep_us", deep));
    out.push(("delta.append_depth_ratio", deep / shallow));
    out.push(("delta.compact_ms", median(&compact_ms)));
    out.push(("delta.snapshot_us", snapshot_us));
    out.push(("delta.overlay_bfs_ms", overlay_bfs));
    out.push(("delta.compacted_bfs_ms", compacted_bfs));
    out.push(("delta.overlay_read_cost", overlay_bfs / compacted_bfs));
    out.push(("delta.dirty_rows", dirty_rows as f64));
}

/// `algorithms`: the batched forms beside the single-source ones.
fn algorithms(out: &mut Vec<(&'static str, f64)>, o: &Outcome, lanes: usize, seed: u64) {
    let m = Matrix::from_csr(&o.adj, BACKEND);
    out.push(("algorithms.bfs_us_per_iteration", o.bfs_us_per_iteration));
    let config = PprConfig::default();
    let seeds = pick_sources(&o.component, lanes, &mut stream(seed, 63));
    out.push((
        "algorithms.ppr_single_ms",
        probe_ms(|| ppr(&m, seeds[0], &config)),
    ));
    let single = probe_ms(|| bfs(&m, seeds[0]));
    let multi = probe_ms(|| bfs_multi(&m, &seeds));
    out.push(("algorithms.bfs_multi64_ms", multi));
    out.push((
        "algorithms.sssp_multi64_ms",
        probe_ms(|| sssp_multi(&m, &seeds)),
    ));
    out.push((
        "algorithms.ppr_multi64_ms",
        probe_ms(|| ppr_multi(&m, &seeds, &config)),
    ));
    out.push((
        "algorithms.bfs_batch_gain",
        seeds.len() as f64 * single / multi,
    ));
}

/// `serve`: what the phases observed, then the load curve.  Returns the
/// curve's attempted and failed tickets.
fn serve(
    out: &mut Vec<(&'static str, f64)>,
    o: &Outcome,
    cfg: &RunConfig,
    scale: &Scale,
) -> (u64, u64) {
    // The laps of `light`, pooled.
    let pool = |f: fn(&OpenLoop) -> &Vec<f64>| -> Vec<f64> {
        o.light.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let us = |f: fn(&OpenLoop) -> &Vec<u64>| {
        let all: Vec<f64> = o
            .light
            .iter()
            .flat_map(|l| f(l).iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        median(&all)
    };
    let pumps = || o.light.iter().flat_map(|l| l.replay.pumps.iter());
    let pump_ms: Vec<f64> = pumps().map(|p| p.cost_ns as f64 / 1e6).collect();
    let (lanes, batches) = pumps().fold((0, 0), |(l, b), p| {
        (l + p.lanes.iter().sum::<usize>(), b + p.lanes.len())
    });
    let (busy_ns, span_ns) = o.light.iter().fold((0, 0), |(b, s), l| {
        (b + l.replay.busy_ns, s + l.replay.span_ns)
    });
    let (exec_us, pump_us) = o.light.iter().fold((0.0, 0.0), |(e, p), l| {
        let pump: f64 = l.replay.pumps.iter().map(|p| p.cost_ns as f64 / 1e3).sum();
        (e + l.exec_share * pump, p + pump)
    });
    let read_latency = pool(|l| &l.read_latency_ms);
    let read_wait = pool(|l| &l.read_wait_ms);
    let exec = |phase: &Offline, key: &str| phase.exec_us.get(key).map_or(0.0, |v| median(v));
    out.push(("serve.submit_us", us(|l| &l.replay.submit_ns)));
    out.push(("serve.pump_ms", median(&pump_ms)));
    out.push(("serve.take_result_us", us(|l| &l.replay.collect_ns)));
    out.push((
        "serve.overhead_us_per_batch",
        median(&pool(|l| &l.pump_overhead_us)),
    ));
    out.push(("serve.exec_share", exec_us / f64::max(pump_us, 1e-9)));
    out.push(("serve.queue_wait_p50_ms", percentile(&read_wait, 50.0)));
    out.push(("serve.queue_wait_p95_ms", percentile(&read_wait, 95.0)));
    out.push(("serve.query_p99_ms", percentile(&read_latency, 99.0)));
    out.push((
        "serve.mutation_p95_ms",
        percentile(&pool(|l| &l.mutation_latency_ms), 95.0),
    ));
    out.push(("serve.utilization", busy_ns as f64 / span_ns.max(1) as f64));
    out.push(("serve.occupancy_mean", lanes as f64 / batches.max(1) as f64));
    out.push(("serve.batches", batches as f64));
    out.push(("serve.drain_occupancy_mean", o.drain.occupancy_mean()));
    out.push(("serve.bfs_batch_ms", exec(&o.drain, "bfs") / 1e3));
    out.push(("serve.sssp_batch_ms", exec(&o.drain, "sssp") / 1e3));
    out.push(("serve.ppr_batch_ms", exec(&o.drain, "ppr") / 1e3));
    out.push(("serve.mutate_batch_us", exec(&o.ingest, "mutate")));

    // The load curve: reported, not gated.  From 100 q/s up the server is
    // saturated and latency depends on how long the run is.
    let n = o.adj.nrows();
    let m = Matrix::from_csr(&o.adj, BACKEND);
    let mut tally = Tally::default();
    let light_meets_slo =
        percentile(&read_latency, 95.0) <= SLO_P95_MS && !o.light.iter().any(backlog_grows);
    let mut slo_rate = if light_meets_slo {
        cfg.workload.light_rate_qps
    } else {
        0.0
    };
    const NAMES: [(&str, &str); 4] = [
        ("serve.p50_ms.r25", "serve.p95_ms.r25"),
        ("serve.p50_ms.r100", "serve.p95_ms.r100"),
        ("serve.p50_ms.r200", "serve.p95_ms.r200"),
        ("serve.p50_ms.r300", "serve.p95_ms.r300"),
    ];
    for (i, (&rate, (p50, p95))) in CURVE_RATES_QPS.iter().zip(NAMES).enumerate() {
        let open = open_loop(
            &m,
            arrivals(
                rate,
                &o.component,
                o.graph,
                n,
                cfg.workload.mixed,
                cfg.seed,
                50 + 2 * i as u64,
            ),
            Limit::Count(scale.curve_arrivals),
            "curve",
            &mut Tracer::new(false),
            &mut tally,
            // Results of the curve are counted, not checked against the
            // oracle: the phases above already were.
            &mut Ledger::default(),
        );
        let (v50, v95) = (
            percentile(&open.read_latency_ms, 50.0),
            percentile(&open.read_latency_ms, 95.0),
        );
        out.push((p50, v50));
        out.push((p95, v95));
        if v95 <= SLO_P95_MS && !backlog_grows(&open) {
            slo_rate = slo_rate.max(rate);
        }
    }
    out.push(("serve.slo_rate_qps", slo_rate));
    let peak = o
        .light
        .iter()
        .filter_map(|l| l.counts.map(|c| c.peak_queue_depth))
        .max();
    out.push(("serve.peak_queue_depth", peak.unwrap_or(0) as f64));
    let conserved = o
        .light
        .iter()
        .all(|l| l.counts.is_some_and(|c| c.is_conserved()))
        && o.drain.conserved
        && o.ingest.conserved;
    out.push(("serve.conserved", f64::from(u8::from(conserved))));
    out.push(("serve.light_queries", read_latency.len() as f64));
    (tally.attempted, tally.failed)
}

/// The counts a run records traced or not, which must repeat exactly
/// between two runs with one seed on one host: what the engine did in the
/// first round, and what the service did in the first `drain` and `ingest`
/// units.
pub fn exact_counts(o: &Outcome) -> Vec<(&'static str, f64)> {
    let (f, e) = (o.first_round, o.first_round.exec);
    vec![
        ("grb.pull_mxv", e.pull_mxv as f64),
        ("grb.push_mxv", e.push_mxv as f64),
        ("grb.pull_mxm", e.pull_mxm as f64),
        ("grb.push_mxm", e.push_mxm as f64),
        ("grb.fused_mxv", e.fused_mxv as f64),
        ("grb.sharded_push", e.sharded_push as f64),
        ("grb.shard_segments", e.shard_segments as f64),
        ("algorithms.bfs_iterations", f.bfs_iterations as f64),
        ("algorithms.sssp_iterations", f.sssp_iterations as f64),
        (
            "algorithms.pagerank_iterations",
            f.pagerank_iterations as f64,
        ),
        ("algorithms.cc_iterations", f.cc_iterations as f64),
        ("serve.drain_batches", o.drain.first_unit_batches as f64),
        ("serve.compactions", o.ingest.first_unit_compactions as f64),
        ("serve.epochs_published", o.ingest.first_unit_epochs as f64),
    ]
}

/// Every per-layer metric except `bench.run_s`, which `main` knows.  Also
/// returns the operations the load curve attempted and failed.
pub fn probe(o: &Outcome, cfg: &RunConfig) -> (Vec<(&'static str, f64)>, u64, u64) {
    let scale = cfg.scale();
    let mut out = vec![("datagen.generate_ms", o.generate_ms)];
    out.extend(exact_counts(o));
    sparse(&mut out, o, cfg, &scale);
    let layout = B2srLayout::from_csr(&o.adj, 8);
    let device = pascal_gtx1080();
    out.push((
        "perfmodel.bmv_traffic_ratio",
        b2sr_bmv_traffic(&layout, &device).bytes_loaded as f64
            / csr_spmv_traffic(&o.adj, &device).bytes_loaded as f64,
    ));
    let kernels = b2sr_and_kernels(&mut out, &o.adj, scale.probe_lanes, cfg.seed);
    grb(&mut out, o, kernels);
    shard(&mut out, o, cfg.host_cores);
    delta(&mut out, o, cfg.seed);
    algorithms(&mut out, o, scale.probe_lanes, cfg.seed);
    let (attempted, failed) = serve(&mut out, o, cfg, &scale);
    out.push(("bench.trace_overhead_share", o.trace_overhead_share));
    out.push(("bench.wall_per_cpu", o.tracer.wall_per_cpu()));
    out.push(("bench.host_slowdown", o.slowdown));
    out.push((
        "bench.failed_share",
        (o.failed + failed) as f64 / (o.attempted + attempted).max(1) as f64,
    ));
    (out, attempted, failed)
}
