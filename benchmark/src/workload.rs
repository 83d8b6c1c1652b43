//! One workload, run once: set-up, closed-loop analytics rounds, the
//! open-loop `light` phase, offline `drain` units and `ingest` units, with
//! every result checked against the oracle outside the timed spans.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bitgblas_algorithms::{
    bfs, connected_components, pagerank, ppr, reference, sssp, triangle_count, PageRankConfig,
};
use bitgblas_core::grb::ExecCounts;
use bitgblas_core::{Backend, EdgeDelta, Matrix, TileSize};
use bitgblas_serve::{
    BatchReport, CoalescingKey, GraphService, Query, QueryError, QueryResult, ServiceCounts, Tick,
    Ticket,
};
use bitgblas_sparse::Csr;
use rand::rngs::StdRng;

use crate::calibrate::Reference;
use crate::clock::{replay, Limit, Replay, Server};
use crate::inputs::{
    generate, ingest_deltas, largest_component, pending_deltas, pick_sources, stream,
    PoissonSchedule, QueryMix,
};
use crate::oracle::{distances_agree, ranks_agree, read_result_agrees, same_structure, EdgeReplay};
use crate::spec::{
    Graph, Scale, Workload, COMPACT_AFTER, DRAIN_SHARE, LAP_SECONDS, LIGHT_SHARE, ROUNDS_SHARE,
    VERIFY_EVERY, WINDOW_TICKS,
};
use crate::stats::{median, percentile, quartiles};
use crate::trace::{SpanId, Tracer};

/// The paper's backend, fixed so that one kernel instantiation is under
/// test; `Backend::Auto` would pick FloatCsr on R-MAT and bypass the bit
/// kernels.  The float baseline is a per-layer measurement.
pub const BACKEND: Backend = Backend::Bit(TileSize::S8);

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for (ignored by `--smoke`, which counts).
    pub seconds: f64,
    /// Whether to record spans (and, in `main`, probe the layers).
    pub trace: bool,
    /// Tiny sizes, fixed counts.
    pub smoke: bool,
    /// CPUs the process could use before it pinned itself to one.
    pub host_cores: usize,
}

impl RunConfig {
    /// The sizes this run uses.
    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

/// An end-to-end value with the samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// Metric name.
    pub name: &'static str,
    /// The reported value: the measured one at the reference speed (see
    /// [`crate::calibrate`]).
    pub value: f64,
    /// The value as measured.
    pub unscaled: f64,
    /// Quartiles of the per-unit samples, as measured.
    pub quartiles: Option<(f64, f64)>,
    /// Samples behind the value.
    pub samples: usize,
}

/// What the `light` phase (or one rate of the load curve) observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Latency of every read ticket, ms (due → resolution).
    pub read_latency_ms: Vec<f64>,
    /// Latency of every mutation ticket, ms.
    pub mutation_latency_ms: Vec<f64>,
    /// Queue wait of every read ticket, ms (due → dispatch).
    pub read_wait_ms: Vec<f64>,
    /// Per pump call: wall µs minus the batches' `exec_us`.
    pub pump_overhead_us: Vec<f64>,
    /// Σ `exec_us` over Σ pump wall time.
    pub exec_share: f64,
    /// The replay's raw times.
    pub replay: Replay,
    /// The service's counters at the end of the phase.
    pub counts: Option<ServiceCounts>,
}

/// What the `drain` and `ingest` phases observed besides their rates.
#[derive(Debug, Clone, Default)]
pub struct Offline {
    /// Per unit: tickets resolved per second.
    pub rate_per_s: Vec<f64>,
    /// Batches of the first unit (repeats exactly).
    pub first_unit_batches: usize,
    /// Lanes and batches over all units.
    pub lanes: usize,
    /// See `lanes`.
    pub batches: usize,
    /// Seconds the units' service calls took.
    pub seconds: f64,
    /// `exec_us` of every batch, by coalescing kind.
    pub exec_us: HashMap<&'static str, Vec<f64>>,
    /// Compactions and epochs the first unit caused (repeat exactly).
    pub first_unit_compactions: u64,
    /// See `first_unit_compactions`.
    pub first_unit_epochs: u64,
    /// Whether ticket conservation held at the end of the phase.
    pub conserved: bool,
}

impl Offline {
    /// Fold a later lap's units into this phase (the first lap's exact
    /// counts stay).
    fn absorb(&mut self, later: Offline) {
        if self.rate_per_s.is_empty() {
            *self = later;
            return;
        }
        self.rate_per_s.extend(later.rate_per_s);
        self.lanes += later.lanes;
        self.batches += later.batches;
        self.seconds += later.seconds;
        self.conserved &= later.conserved;
        for (key, v) in later.exec_us {
            self.exec_us.entry(key).or_default().extend(v);
        }
    }

    /// Lanes per batch.
    pub fn occupancy_mean(&self) -> f64 {
        self.lanes as f64 / self.batches.max(1) as f64
    }
}

/// Everything one run of a workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub end_to_end: Vec<Measured>,
    /// Operations attempted: algorithm runs and tickets.
    pub attempted: u64,
    /// Operations refused, resolved `Err`, or disagreeing with the oracle.
    pub failed: u64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
    /// Whether the end-of-run checks (final CSR, conservation) passed.
    pub final_checks_ok: bool,
    /// Seconds inside timed spans of the phases.
    pub timed_s: f64,
    /// Per-round engine counts and iteration counts of the first round.
    pub first_round: FirstRound,
    /// Median BFS segment time over its iterations, µs.
    pub bfs_us_per_iteration: f64,
    /// Median round time with span recording on over off, minus one.
    pub trace_overhead_share: f64,
    /// Graph generation, ms.
    pub generate_ms: f64,
    /// Median `Matrix::from_csr` over the set-ups, ms.
    pub matrix_build_ms: f64,
    /// The `light` phase, lap by lap.
    pub light: Vec<OpenLoop>,
    /// The `drain` phase.
    pub drain: Offline,
    /// The `ingest` phase.
    pub ingest: Offline,
    /// The spans.
    pub tracer: Tracer,
    /// The graph's kind and size, as run (the `--smoke` stand-in under
    /// `--smoke`).
    pub graph: Graph,
    /// The generated graph, for the layer probes.
    pub adj: Csr,
    /// The fixed source set.
    pub sources: Vec<usize>,
    /// The largest component.
    pub component: Vec<usize>,
    /// The reference kernel's time in this run over [`REFERENCE_MS`].
    pub slowdown: f64,
}

/// Counts of the first round, which repeat exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstRound {
    /// Engine op counts of the round.
    pub exec: ExecCounts,
    /// Iterations summed over the round's BFS runs.
    pub bfs_iterations: usize,
    /// … SSSP runs.
    pub sssp_iterations: usize,
    /// … PageRank runs.
    pub pagerank_iterations: usize,
    /// … connected-components runs.
    pub cc_iterations: usize,
}

/// Attempt / failure bookkeeping shared by the phases.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The first few failures.
    pub failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What a time-limited phase may spend, handed out lap by lap: at the end
/// of lap `l` of `L` the phase should have used `(l + 1) / L` of its
/// seconds, so a unit that overran in one lap is made up for in the next.
/// Under `--smoke` a phase has a count per lap instead.
#[derive(Debug)]
struct Budget {
    seconds: f64,
    count: Option<usize>,
    used_s: f64,
}

impl Budget {
    fn new(seconds: f64, count: Option<usize>) -> Self {
        Budget {
            seconds,
            count,
            used_s: 0.0,
        }
    }

    /// Run one lap's slice of the phase, charging it its wall time, oracle
    /// checks included.
    fn lap<R>(&mut self, lap: usize, laps: usize, phase: impl FnOnce(Limit) -> R) -> R {
        let limit = match self.count {
            Some(c) => Limit::Count(c.div_ceil(laps)),
            None => Limit::Seconds(self.seconds * (lap + 1) as f64 / laps as f64 - self.used_s),
        };
        let began = Instant::now();
        let out = phase(limit);
        self.used_s += began.elapsed().as_secs_f64();
        out
    }
}

/// The stretches of a run that added samples to one metric: how many each
/// added, and the host's slowdown during it (see [`crate::calibrate`]).
#[derive(Debug, Default)]
struct Stretches(Vec<(usize, f64)>);

impl Stretches {
    fn push(&mut self, samples: usize, slowdown: f64) {
        self.0.push((samples, slowdown));
    }

    fn scaled(&self, samples: &[f64], scale: impl Fn(f64, f64) -> f64) -> Vec<f64> {
        let slowdowns = self
            .0
            .iter()
            .flat_map(|&(count, slowdown)| std::iter::repeat_n(slowdown, count));
        samples
            .iter()
            .zip(slowdowns)
            .map(|(&x, slowdown)| scale(x, slowdown))
            .collect()
    }

    /// `samples` (times, in the order they were taken) at the reference
    /// speed.
    fn times(&self, samples: &[f64]) -> Vec<f64> {
        self.scaled(samples, |x, slowdown| x / slowdown)
    }

    /// `samples` (rates) at the reference speed.
    fn rates(&self, samples: &[f64]) -> Vec<f64> {
        self.scaled(samples, |x, slowdown| x * slowdown)
    }
}

/// A service as every phase builds it: admission never sheds, the window is
/// the ISSUE's 500 ticks, and the log compacts in-band at 1024 entries.
pub fn service(graph: &Matrix) -> GraphService<'_> {
    GraphService::builder(graph)
        .coalescing_window(WINDOW_TICKS)
        .queue_capacity(1 << 22)
        .compact_after(COMPACT_AFTER)
        .build()
}

fn key_name(key: CoalescingKey) -> &'static str {
    match key {
        CoalescingKey::Bfs => "bfs",
        CoalescingKey::Sssp => "sssp",
        CoalescingKey::Ppr { .. } => "ppr",
        CoalescingKey::Mutate => "mutate",
    }
}

/// A read result kept for the oracle, with the log position it was
/// dispatched at.
#[derive(Debug)]
struct Kept {
    query: Query,
    result: QueryResult,
    log_pos: usize,
}

/// Follows what the service did to the graph and which results to check:
/// deltas in the order their batches were dispatched, and every
/// `VERIFY_EVERY`-th read result.
#[derive(Debug, Default)]
pub struct Ledger {
    applied: Vec<EdgeDelta>,
    kept: Vec<Kept>,
    reads_seen: usize,
    verified: usize,
}

impl Ledger {
    /// Record a dispatched batch; returns the log position its lanes read at.
    fn dispatched(&mut self, report: &BatchReport, query_of: impl Fn(Ticket) -> Query) -> usize {
        if report.key == CoalescingKey::Mutate {
            for &t in &report.tickets {
                if let Query::Mutate { delta } = query_of(t) {
                    self.applied.push(delta);
                }
            }
        }
        self.applied.len()
    }

    /// Record a redeemed ticket.
    fn resolved(
        &mut self,
        tally: &mut Tally,
        query: Query,
        log_pos: usize,
        result: Option<Result<QueryResult, QueryError>>,
    ) {
        match result {
            None => tally.check(false, || format!("{query:?} never resolved")),
            Some(Err(e)) => tally.check(false, || format!("{query:?} resolved Err: {e}")),
            Some(Ok(result)) => match (&query, &result) {
                (Query::Mutate { .. }, QueryResult::Mutated { .. }) => {
                    tally.check(true, String::new)
                }
                (Query::Mutate { .. }, other) => {
                    tally.check(false, || format!("mutation resolved {other:?}"))
                }
                _ => {
                    self.reads_seen += 1;
                    if self.reads_seen % VERIFY_EVERY == 1 || VERIFY_EVERY == 1 {
                        // Counted when verified.
                        self.kept.push(Kept {
                            query,
                            result,
                            log_pos,
                        });
                    } else {
                        tally.check(true, String::new);
                    }
                }
            },
        }
    }

    /// Check the kept reads against the reference on the replayed graph and,
    /// on a read-only graph, some of them against the single-source engine
    /// run too; then bring `graph` up to date with everything applied.
    fn verify(&mut self, tally: &mut Tally, graph: &mut EdgeReplay, engine: Option<&Matrix>) {
        self.kept.sort_by_key(|k| k.log_pos);
        let mut pos = 0;
        let mut adj = graph.to_csr();
        for k in std::mem::take(&mut self.kept) {
            if k.log_pos > pos {
                for d in &self.applied[pos..k.log_pos] {
                    graph.apply(d);
                }
                pos = k.log_pos;
                adj = graph.to_csr();
            }
            let mut ok = read_result_agrees(&adj, &k.query, &k.result);
            // The engine's own single-source run costs ten times the
            // reference's; every fourth kept read gets it.
            self.verified += 1;
            if let (true, Some(m), 0) = (ok, engine, self.verified % 4) {
                ok = single_source_agrees(m, &k.query, &k.result);
            }
            tally.check(ok, || format!("{:?} disagrees with its oracle", k.query));
        }
        for d in &self.applied[pos..] {
            graph.apply(d);
        }
        self.applied.clear();
    }
}

/// Batched ≡ single: the served result equals the single-source algorithm on
/// the same matrix — bit for bit for BFS and SSSP, whose monoids are exact.
/// A PPR lane folds float sums in the order its batch's direction choices
/// give, and `Direction::Auto` decides on the whole batch's frontier, so a
/// lane served beside others is only held to the rank tolerance.
fn single_source_agrees(m: &Matrix, query: &Query, result: &QueryResult) -> bool {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (query, result) {
        (Query::Bfs { source }, QueryResult::Bfs { levels }) => *levels == bfs(m, *source).levels,
        (Query::Sssp { source }, QueryResult::Sssp { distances }) => {
            bits(distances) == bits(&sssp(m, *source).distances)
        }
        (Query::Ppr { seed, config }, QueryResult::Ppr { scores }) => {
            ranks_agree(scores, &ppr(m, *seed, config).scores)
        }
        _ => false,
    }
}

/// The real service behind the replay's [`Server`] trait: every call is
/// timed (and recorded as a span), the bookkeeping around it is not.
struct Timed<'s, 'g> {
    svc: GraphService<'g>,
    tracer: &'s mut Tracer,
    parent: Option<SpanId>,
    tally: &'s mut Tally,
    ledger: &'s mut Ledger,
    submitted: Vec<(Ticket, Query, usize)>,
    index: HashMap<Ticket, u64>,
    exec_us_of_pump: Vec<u64>,
    pumps: u64,
}

impl Server<Query> for Timed<'_, '_> {
    fn submit(&mut self, query: Query, due_us: u64) -> (Option<u64>, u64) {
        let id = self.submitted.len() as u64;
        let svc = &mut self.svc;
        let (res, took) = self.tracer.time_wall("serve.submit", self.parent, id, || {
            svc.submit(query, Tick(due_us), None)
        });
        let ticket = match res {
            Ok(t) => {
                self.submitted.push((t, query, 0));
                self.index.insert(t, id);
                Some(id)
            }
            Err(e) => {
                self.tally
                    .check(false, || format!("{query:?} refused: {e}"));
                None
            }
        };
        (ticket, took.as_nanos() as u64)
    }

    fn next_event_us(&self) -> Option<u64> {
        self.svc.next_event_time().map(|t| t.0)
    }

    fn pump(&mut self, now_us: u64) -> (Vec<Vec<u64>>, u64) {
        let svc = &mut self.svc;
        let (reports, took) = self.tracer.time("serve.pump", self.parent, self.pumps, || {
            svc.pump(Tick(now_us))
        });
        self.pumps += 1;
        if !reports.is_empty() {
            self.exec_us_of_pump
                .push(reports.iter().map(|r| r.exec_us).sum());
        }
        let mut batches = Vec::with_capacity(reports.len());
        for r in &reports {
            let submitted = &self.submitted;
            let index = &self.index;
            let log_pos = self
                .ledger
                .dispatched(r, |t| submitted[index[&t] as usize].1);
            let ids: Vec<u64> = r.tickets.iter().map(|t| self.index[t]).collect();
            for &id in &ids {
                self.submitted[id as usize].2 = log_pos;
            }
            batches.push(ids);
        }
        (batches, took.as_nanos() as u64)
    }

    fn collect(&mut self, id: u64) -> u64 {
        let (ticket, query, log_pos) = self.submitted[id as usize];
        let svc = &mut self.svc;
        let (res, took) = self
            .tracer
            .time_wall("serve.take_result", self.parent, id, || {
                svc.take_result(ticket)
            });
        self.ledger.resolved(self.tally, query, log_pos, res);
        took.as_nanos() as u64
    }
}

/// Drive `m` behind a fresh service with Poisson arrivals at `rate_qps`.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    m: &Matrix,
    arrivals: impl Iterator<Item = (u64, Query)>,
    until: Limit,
    phase: &'static str,
    tracer: &mut Tracer,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> OpenLoop {
    let parent = tracer.open(phase, None, 0);
    let mut server = Timed {
        svc: service(m),
        tracer,
        parent,
        tally,
        ledger,
        submitted: Vec::new(),
        index: HashMap::new(),
        exec_us_of_pump: Vec::new(),
        pumps: 0,
    };
    let r = replay(&mut server, arrivals, until);
    let counts = server.svc.stats().snapshot();
    let is_read = |id: u64| !matches!(server.submitted[id as usize].1, Query::Mutate { .. });
    let mut out = OpenLoop::default();
    for t in &r.tickets {
        let latency = (t.resolved_ns - t.due_ns) as f64 / 1e6;
        if is_read(t.ticket) {
            out.read_latency_ms.push(latency);
            out.read_wait_ms
                .push((t.dispatch_ns - t.due_ns) as f64 / 1e6);
        } else {
            out.mutation_latency_ms.push(latency);
        }
    }
    let pump_ns: u64 = r.pumps.iter().map(|p| p.cost_ns).sum();
    let exec_us: u64 = server.exec_us_of_pump.iter().sum();
    out.pump_overhead_us = r
        .pumps
        .iter()
        .zip(&server.exec_us_of_pump)
        .map(|(p, &e)| p.cost_ns as f64 / 1e3 - e as f64)
        .collect();
    out.exec_share = if pump_ns == 0 {
        0.0
    } else {
        exec_us as f64 * 1e3 / pump_ns as f64
    };
    out.counts = Some(counts);
    out.replay = r;
    tracer.close(parent);
    out
}

/// Arrivals of an open-loop phase: a Poisson schedule zipped with the mix.
pub fn arrivals<'a>(
    rate_qps: f64,
    component: &'a [usize],
    graph: Graph,
    n: usize,
    mixed: bool,
    seed: u64,
    purpose: u64,
) -> impl Iterator<Item = (u64, Query)> + 'a {
    PoissonSchedule::new(rate_qps, stream(seed, purpose)).zip(QueryMix::new(
        component,
        graph,
        n,
        mixed,
        stream(seed, purpose + 1),
    ))
}

/// One offline unit: submit `queries` at tick 0, flush, redeem.  Returns the
/// seconds the service calls took and the batch reports.
fn offline_unit(
    svc: &mut GraphService<'_>,
    queries: &[Query],
    unit: u64,
    parent: Option<SpanId>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    ledger: &mut Ledger,
) -> (f64, Vec<BatchReport>) {
    let span = tracer.open("unit", parent, unit);
    let mut tickets: Vec<Result<Ticket, String>> = Vec::with_capacity(queries.len());
    let ((), submit) = tracer.time("serve.submit", span, unit, || {
        for &q in queries {
            tickets.push(svc.submit(q, Tick(0), None).map_err(|e| e.to_string()));
        }
    });
    let (reports, flush) = tracer.time("serve.flush", span, unit, || svc.flush(Tick(0)));
    let mut results = Vec::with_capacity(queries.len());
    let ((), take) = tracer.time("serve.take_result", span, unit, || {
        for t in tickets.iter().flatten() {
            results.push(svc.take_result(*t));
        }
    });
    tracer.close(span);

    let query_of: HashMap<Ticket, Query> = tickets
        .iter()
        .zip(queries)
        .filter_map(|(t, &q)| t.as_ref().ok().map(|&t| (t, q)))
        .collect();
    let mut log_pos_of: HashMap<Ticket, usize> = HashMap::with_capacity(queries.len());
    for r in &reports {
        let pos = ledger.dispatched(r, |t| query_of[&t]);
        for &t in &r.tickets {
            log_pos_of.insert(t, pos);
        }
    }
    let mut results = results.into_iter();
    for (t, &q) in tickets.iter().zip(queries) {
        match t {
            Ok(t) => {
                let pos = log_pos_of.get(t).copied().unwrap_or(0);
                ledger.resolved(tally, q, pos, results.next().flatten());
            }
            Err(e) => tally.check(false, || format!("{q:?} refused: {e}")),
        }
    }
    ((submit + flush + take).as_secs_f64(), reports)
}

/// Repeat offline units on one service until `until`.
#[allow(clippy::too_many_arguments)]
fn offline_phase(
    m: &Matrix,
    phase: &'static str,
    until: Limit,
    mut next_unit: impl FnMut() -> Vec<Query>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    ledger: &mut Ledger,
    graph: &mut EdgeReplay,
    engine_check: bool,
) -> Offline {
    let parent = tracer.open(phase, None, 0);
    let mut svc = service(m);
    let mut out = Offline {
        conserved: true,
        ..Offline::default()
    };
    let began = Instant::now();
    let mut unit = 0usize;
    while until.allows(unit, began) {
        let queries = next_unit();
        let (seconds, reports) = offline_unit(
            &mut svc,
            &queries,
            unit as u64,
            parent,
            tracer,
            tally,
            ledger,
        );
        out.rate_per_s.push(queries.len() as f64 / seconds);
        out.seconds += seconds;
        for r in &reports {
            out.lanes += r.lanes;
            out.batches += 1;
            out.exec_us
                .entry(key_name(r.key))
                .or_default()
                .push(r.exec_us as f64);
        }
        if unit == 0 {
            let c = svc.stats().snapshot();
            out.first_unit_batches = reports.len();
            out.first_unit_compactions = c.compactions;
            out.first_unit_epochs = c.epochs_published;
        }
        // Oracle work between units, outside every timed span.
        ledger.verify(tally, graph, engine_check.then_some(m));
        unit += 1;
    }
    out.conserved = svc.is_idle() && svc.stats().snapshot().is_conserved();
    tracer.close(parent);
    out
}

/// One set-up: build the matrix and a service, then one untimed-in-the-
/// phases warm-up of each kind, which forces the lazy transposes and fills
/// the workspace pool.  Triangle counting is left out: it rebuilds its
/// lower-triangle operands on every call, so it has nothing to warm and
/// would make up two thirds of the figure.
fn setup(adj: &Csr, source: usize, no: u64, tracer: &mut Tracer) -> (Matrix, f64, f64) {
    let span = tracer.open("setup", None, no);
    let (m, build) = tracer.time("grb.matrix_build", span, no, || {
        Matrix::from_csr(adj, BACKEND)
    });
    let ((), warmup) = tracer.time("warmup", span, no, || {
        std::hint::black_box(bfs(&m, source));
        std::hint::black_box(sssp(&m, source));
        std::hint::black_box(pagerank(&m, &PageRankConfig::default()));
        std::hint::black_box(connected_components(&m));
        let mut svc = service(&m);
        for q in [Query::bfs(source), Query::sssp(source), Query::ppr(source)] {
            let _ = svc.submit(q, Tick(0), None);
        }
        std::hint::black_box(svc.flush(Tick(0)));
    });
    tracer.close(span);
    (m, (build + warmup).as_secs_f64(), ms(build))
}

/// Times of one algorithm over the rounds.
#[derive(Debug, Default, Clone)]
pub struct AlgSamples {
    /// Per round: mean ms of the algorithm's calls in that round.
    pub per_round: Vec<f64>,
    /// Per call position in the round (one per source, or per repeat): the
    /// ms of every round's call at that position.
    pub by_position: Vec<Vec<f64>>,
}

impl AlgSamples {
    fn record(&mut self, calls: &[Duration]) -> Duration {
        let total: Duration = calls.iter().sum();
        self.per_round.push(ms(total) / calls.len().max(1) as f64);
        self.by_position.resize(calls.len(), Vec::new());
        for (samples, call) in self.by_position.iter_mut().zip(calls) {
            samples.push(ms(*call));
        }
        total
    }

    /// Mean over call positions of the median time at that position.  Taken
    /// per position because a traversal's cost depends on its source, and so
    /// that a stall lands on one sample of one position and not on a whole
    /// round.
    pub fn median_ms(&self) -> f64 {
        self.median_ms_of(|position| position.to_vec())
    }

    fn median_ms_of(&self, scaled: impl Fn(&[f64]) -> Vec<f64>) -> f64 {
        self.by_position
            .iter()
            .map(|p| median(&scaled(p)))
            .sum::<f64>()
            / self.by_position.len().max(1) as f64
    }
}

/// What the rounds observed.
#[derive(Debug, Default)]
pub struct RoundSamples {
    /// BFS.
    pub bfs: AlgSamples,
    /// SSSP.
    pub sssp: AlgSamples,
    /// PageRank.
    pub pagerank: AlgSamples,
    /// Connected components.
    pub cc: AlgSamples,
    /// Triangle counting.
    pub tc: AlgSamples,
    round_ms_traced: Vec<f64>,
    round_ms_untraced: Vec<f64>,
    bfs_us_per_iteration: Vec<f64>,
    first: FirstRound,
    timed_s: f64,
}

fn exec_delta(after: ExecCounts, before: ExecCounts) -> ExecCounts {
    ExecCounts {
        pull_mxv: after.pull_mxv - before.pull_mxv,
        push_mxv: after.push_mxv - before.push_mxv,
        pull_mxm: after.pull_mxm - before.pull_mxm,
        push_mxm: after.push_mxm - before.push_mxm,
        sharded_push: after.sharded_push - before.sharded_push,
        shard_segments: after.shard_segments - before.shard_segments,
        fused_mxv: after.fused_mxv - before.fused_mxv,
        ..ExecCounts::default()
    }
}

/// The closed loop: one client, one round after another, every result
/// compared with the reference's, prepared before any timing.
pub struct Rounds<'a> {
    w: &'a Workload,
    sources: &'a [usize],
    view_adj: &'a Csr,
    bfs: Vec<Vec<i64>>,
    sssp: Vec<Vec<f32>>,
    pagerank: Vec<f32>,
    cc: usize,
    tc: u64,
    /// What the rounds run so far observed.
    pub samples: RoundSamples,
}

impl<'a> Rounds<'a> {
    /// Prepare the oracle for rounds of `w` on the graph `view_adj`.
    pub fn new(w: &'a Workload, sources: &'a [usize], view_adj: &'a Csr) -> Self {
        let config = PageRankConfig::default();
        Rounds {
            w,
            sources,
            view_adj,
            bfs: sources
                .iter()
                .take(w.round.bfs)
                .map(|&s| reference::bfs_levels(view_adj, s))
                .collect(),
            sssp: sources
                .iter()
                .take(w.round.sssp)
                .map(|&s| reference::sssp_distances(view_adj, s))
                .collect(),
            pagerank: reference::pagerank_dense(view_adj, config.alpha, config.max_iterations),
            cc: reference::cc_count(view_adj),
            tc: reference::triangle_count(view_adj),
            samples: RoundSamples::default(),
        }
    }

    /// Run rounds on `view` until `until`.
    pub fn run(
        &mut self,
        view: &Matrix,
        until: Limit,
        alternate_tracing: bool,
        tracer: &mut Tracer,
        tally: &mut Tally,
    ) {
        let phase = tracer.open("rounds", None, 0);
        let config = PageRankConfig::default();
        let began = Instant::now();
        let mut done = 0usize;
        while until.allows(done, began) {
            let r = self.samples.bfs.per_round.len();
            let recording = tracer.enabled;
            if alternate_tracing {
                tracer.enabled = recording && r.is_multiple_of(2);
            }
            let op = r as u64;
            let round = tracer.open("round", phase, op);
            let round_began = Instant::now();
            let before = view.context().stats();
            let mut first = FirstRound::default();
            let mut timed = Duration::ZERO;
            let mut calls = Vec::new();

            for (&s, want) in self.sources.iter().zip(&self.bfs) {
                let (res, t) = tracer.time("algorithms.bfs", round, op, || bfs(view, s));
                calls.push(t);
                first.bfs_iterations += res.iterations;
                tally.check(res.levels == *want, || {
                    format!("bfs from {s} disagrees with reference")
                });
            }
            let took = self.samples.bfs.record(&calls);
            self.samples
                .bfs_us_per_iteration
                .push(took.as_secs_f64() * 1e6 / first.bfs_iterations.max(1) as f64);
            timed += took;

            calls.clear();
            for (&s, want) in self.sources.iter().zip(&self.sssp) {
                let (res, t) = tracer.time("algorithms.sssp", round, op, || sssp(view, s));
                calls.push(t);
                first.sssp_iterations += res.iterations;
                tally.check(distances_agree(&res.distances, want), || {
                    format!("sssp from {s} disagrees with reference")
                });
            }
            timed += self.samples.sssp.record(&calls);

            calls.clear();
            for _ in 0..self.w.round.pagerank {
                let (res, t) =
                    tracer.time("algorithms.pagerank", round, op, || pagerank(view, &config));
                calls.push(t);
                first.pagerank_iterations += res.iterations;
                let ok = if res.iterations == config.max_iterations {
                    ranks_agree(&res.ranks, &self.pagerank)
                } else {
                    let want =
                        reference::pagerank_dense(self.view_adj, config.alpha, res.iterations);
                    ranks_agree(&res.ranks, &want)
                };
                tally.check(ok, || "pagerank disagrees with pagerank_dense".to_string());
            }
            timed += self.samples.pagerank.record(&calls);

            calls.clear();
            for _ in 0..self.w.round.cc {
                let (res, t) =
                    tracer.time("algorithms.cc", round, op, || connected_components(view));
                calls.push(t);
                first.cc_iterations += res.iterations;
                tally.check(res.n_components == self.cc, || {
                    format!(
                        "cc found {} components, reference {}",
                        res.n_components, self.cc
                    )
                });
            }
            timed += self.samples.cc.record(&calls);

            calls.clear();
            for _ in 0..self.w.round.tc {
                let (res, t) = tracer.time("algorithms.tc", round, op, || triangle_count(view));
                calls.push(t);
                tally.check(res == self.tc, || {
                    format!("tc counted {res}, reference {}", self.tc)
                });
            }
            timed += self.samples.tc.record(&calls);

            if r == 0 {
                first.exec = exec_delta(view.context().stats(), before);
                self.samples.first = first;
            }
            tracer.close(round);
            // Oracle comparisons sit inside the round but outside its timed
            // calls; the round time is only used for the paired tracing-on /
            // tracing-off comparison, where they cancel.
            let round_ms = ms(round_began.elapsed());
            if tracer.enabled {
                self.samples.round_ms_traced.push(round_ms);
            } else {
                self.samples.round_ms_untraced.push(round_ms);
            }
            tracer.enabled = recording;
            self.samples.timed_s += timed.as_secs_f64();
            done += 1;
        }
        tracer.close(phase);
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One lap's set-up and `ingest` unit: a fresh matrix, warmed up, then
/// `unit` mutation tickets submitted at tick 0 and flushed — from an empty
/// log on the generated graph, so that every unit of a run is the same work
/// on different deltas.  Afterwards the compacted matrix must equal an
/// independent replay of the unit.
#[allow(clippy::too_many_arguments)]
fn setup_and_ingest(
    adj: &Csr,
    graph: Graph,
    source: usize,
    no: u64,
    unit: usize,
    rng: &mut StdRng,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64, Offline, bool) {
    let (m, total, build) = setup(adj, source, no, tracer);
    let mut replayed = EdgeReplay::new(adj);
    let n = adj.nrows();
    let phase = offline_phase(
        &m,
        "ingest",
        Limit::Count(1),
        || {
            ingest_deltas(graph, n, unit, rng)
                .into_iter()
                .map(|delta| Query::Mutate { delta })
                .collect()
        },
        tracer,
        tally,
        &mut Ledger::default(),
        &mut replayed,
        false,
    );
    let compacted = m.delta_len() == 0 || m.compact(m.context()).is_ok();
    let agrees = compacted && same_structure(m.snapshot().csr(), &replayed.to_csr());
    (total, build, phase, agrees)
}

/// Run the workload once.
pub fn run(cfg: &RunConfig) -> Outcome {
    let w = cfg.workload;
    let graph = if cfg.smoke { w.graph.smoke() } else { w.graph };
    let scale = cfg.scale();
    let mut tracer = Tracer::new(cfg.trace);
    let mut tally = Tally::default();

    // Inputs and oracle preparation: outside set-up and every timed span.
    let began = Instant::now();
    let adj = generate(graph);
    let generate_ms = ms(began.elapsed());
    let n = adj.nrows();
    let component = largest_component(&adj);
    let sources = pick_sources(
        &component,
        w.round.bfs.max(w.round.sssp),
        &mut stream(cfg.seed, 10),
    );
    assert!(!sources.is_empty(), "the generated graph has no vertices");

    // Set-up: once here for the matrix the rounds, `light` and `drain` run
    // on, and once more in each lap, so that its samples too are spread
    // over the run.
    // The reference kernel runs in a burst before and after every phase of
    // every lap; the samples a phase took in between are reported at the
    // slowdown the two bursts read.
    let mut reference = Reference::new();
    reference.mark();
    let (m, total, build) = setup(&adj, sources[0], 0, &mut tracer);
    let mut setup_s = vec![total];
    let mut build_ms = vec![build];
    let mut setup_stretches = Stretches::default();
    setup_stretches.push(1, reference.mark());

    // A mixed workload's analytics read through a pending delta log.
    let mut graph_now = EdgeReplay::new(&adj);
    if w.mixed {
        let pending = pending_deltas(graph, n, scale.pending_pairs, &mut stream(cfg.seed, 11));
        m.apply_deltas(&pending)
            .expect("pending deltas are in range");
        pending.iter().for_each(|d| graph_now.apply(d));
    }
    let view = m.snapshot();
    let view_adj = graph_now.to_csr();
    let mut rounds = Rounds::new(w, &sources, &view_adj);

    // The phases take turns, lap after lap, so that every metric's samples
    // are spread over the whole run and a stretch of host interference
    // cannot land on one metric alone.
    // A traced run spends half of `--seconds` on the workload, because the
    // layer probes and the load curve that follow take half a minute more.
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let laps = scale
        .laps
        .unwrap_or(((seconds / LAP_SECONDS).round() as usize).max(1));
    let mut rounds_budget = Budget::new(seconds * ROUNDS_SHARE, scale.rounds);
    let mut light_budget = Budget::new(seconds * LIGHT_SHARE, scale.light_arrivals);
    let mut drain_budget = Budget::new(seconds * DRAIN_SHARE, scale.drain_units);
    let mut ledger = Ledger::default();
    let mut light = Vec::with_capacity(laps);
    let mut drain = Offline::default();
    let mut ingest = Offline::default();
    let mut ingest_agrees = true;
    let mut mix = QueryMix::new(&component, graph, n, w.mixed, stream(cfg.seed, 30));
    let mut ingest_rng: StdRng = stream(cfg.seed, 40);
    let mut round_stretches = Stretches::default();
    let mut light_stretches = Stretches::default();
    let mut drain_stretches = Stretches::default();
    for lap in 0..laps {
        reference.mark();
        let rounds_before = rounds.samples.bfs.per_round.len();
        rounds_budget.lap(lap, laps, |until| {
            rounds.run(&view, until, cfg.trace, &mut tracer, &mut tally)
        });
        round_stretches.push(
            rounds.samples.bfs.per_round.len() - rounds_before,
            reference.mark(),
        );

        // `light`: open loop on the service's own clock, a fresh service
        // and schedule per lap.
        let open = light_budget.lap(lap, laps, |until| {
            let open = open_loop(
                &m,
                arrivals(
                    w.light_rate_qps,
                    &component,
                    graph,
                    n,
                    w.mixed,
                    cfg.seed,
                    100 + 2 * lap as u64,
                ),
                until,
                "light",
                &mut tracer,
                &mut tally,
                &mut ledger,
            );
            ledger.verify(&mut tally, &mut graph_now, (!w.mixed).then_some(&m));
            open
        });
        light_stretches.push(open.read_latency_ms.len(), reference.mark());
        if open.replay.offered > 0 {
            light.push(open);
        }

        // `drain`: offline batches, everything submitted at tick 0.
        let units = drain_budget.lap(lap, laps, |until| {
            offline_phase(
                &m,
                "drain",
                until,
                || mix.by_ref().take(scale.drain_unit).collect(),
                &mut tracer,
                &mut tally,
                &mut ledger,
                &mut graph_now,
                !w.mixed,
            )
        });
        drain_stretches.push(units.rate_per_s.len(), reference.mark());
        drain.absorb(units);

        let (total, build, unit, agrees) = setup_and_ingest(
            &adj,
            graph,
            sources[0],
            1 + lap as u64,
            scale.ingest_unit,
            &mut ingest_rng,
            &mut tracer,
            &mut tally,
        );
        setup_stretches.push(1, reference.mark());
        setup_s.push(total);
        build_ms.push(build);
        ingest.absorb(unit);
        ingest_agrees &= agrees;
    }
    drop(view);

    // End-of-run checks: the compacted graphs equal an independent replay
    // of every delta submitted, and no ticket was lost.
    let light_conserved = light.iter().all(|l| {
        l.counts
            .is_some_and(|c| c.is_conserved() && c.queue_depth == 0)
    });
    let mut final_checks_ok = light_conserved && drain.conserved && ingest.conserved;
    if !final_checks_ok {
        tally
            .failures
            .push("ticket conservation broken".to_string());
    }
    let compacted = m.delta_len() == 0 || m.compact(m.context()).is_ok();
    let agrees = compacted && same_structure(m.snapshot().csr(), &graph_now.to_csr());
    if !(agrees && ingest_agrees) {
        final_checks_ok = false;
        tally
            .failures
            .push("final CSR differs from the replay of the submitted deltas".to_string());
    }

    let r = &rounds.samples;
    let timed_s = r.timed_s
        + light
            .iter()
            .map(|l| l.replay.busy_ns as f64 / 1e9)
            .sum::<f64>()
        + drain.seconds
        + ingest.seconds;
    let overhead = if r.round_ms_untraced.is_empty() || r.round_ms_traced.is_empty() {
        0.0
    } else {
        median(&r.round_ms_traced) / median(&r.round_ms_untraced) - 1.0
    };

    // Every sample is brought to the reference speed by the slowdown of the
    // stretch it was taken in; then a timing or a rate is the median of its
    // samples, and the latency percentiles are taken over the reads of all
    // laps together.  Memory is not a speed.
    let reads: Vec<f64> = light
        .iter()
        .flat_map(|l| l.read_latency_ms.iter().copied())
        .collect();
    let algorithm = |name, a: &AlgSamples| Measured {
        name,
        value: a.median_ms_of(|position| round_stretches.times(position)),
        unscaled: a.median_ms(),
        quartiles: Some(quartiles(&a.per_round)),
        samples: a.per_round.len(),
    };
    let estimate =
        |name, statistic: &dyn Fn(&[f64]) -> f64, scaled: &[f64], samples: &[f64]| Measured {
            name,
            value: statistic(scaled),
            unscaled: statistic(samples),
            quartiles: Some(quartiles(samples)),
            samples: samples.len(),
        };
    let reads_scaled = light_stretches.times(&reads);
    // One set-up and one `ingest` unit per stretch (the first set-up has no
    // unit).
    let ingest_stretches = Stretches(setup_stretches.0[1..].to_vec());
    let rss = peak_rss_mb();
    let end_to_end = vec![
        estimate(
            "setup_s",
            &median,
            &setup_stretches.times(&setup_s),
            &setup_s,
        ),
        algorithm("bfs_ms", &r.bfs),
        algorithm("sssp_ms", &r.sssp),
        algorithm("pagerank_ms", &r.pagerank),
        algorithm("cc_ms", &r.cc),
        algorithm("tc_ms", &r.tc),
        estimate(
            "query_p50_ms",
            &|v| percentile(v, 50.0),
            &reads_scaled,
            &reads,
        ),
        estimate(
            "query_p95_ms",
            &|v| percentile(v, 95.0),
            &reads_scaled,
            &reads,
        ),
        estimate(
            "drain_qps",
            &median,
            &drain_stretches.rates(&drain.rate_per_s),
            &drain.rate_per_s,
        ),
        estimate(
            "ingest_per_s",
            &median,
            &ingest_stretches.rates(&ingest.rate_per_s),
            &ingest.rate_per_s,
        ),
        Measured {
            name: "peak_rss_mb",
            value: rss,
            unscaled: rss,
            quartiles: None,
            samples: 1,
        },
    ];
    let slowdown = reference.overall();

    let first_round = r.first;
    let bfs_us_per_iteration = median(&r.bfs_us_per_iteration);
    Outcome {
        end_to_end,
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        final_checks_ok,
        timed_s,
        first_round,
        bfs_us_per_iteration,
        trace_overhead_share: overhead,
        generate_ms,
        matrix_build_ms: median(&build_ms),
        light,
        drain,
        ingest,
        tracer,
        graph,
        adj,
        sources,
        component,
        slowdown,
    }
}
