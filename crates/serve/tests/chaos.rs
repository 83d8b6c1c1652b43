//! Chaos suite: deterministic fault injection against the serving stack.
//!
//! Every test drives a [`GraphService`] with a seeded [`FaultInjector`]
//! and a hand-driven virtual clock, and asserts the failure-model
//! invariants:
//!
//! * **exactly-once resolution** — every admitted ticket resolves exactly
//!   once, as a result or a typed error, never silently;
//! * **conservation** — at quiescence
//!   `enqueued == completed + failed + deadline_misses + shed`;
//! * **containment** — a poisoned lane fails alone: bisection completes
//!   the innocent batch-mates and charges at most `2·⌈log₂ k⌉` extra
//!   engine calls;
//! * **determinism** — no wall-clock reads anywhere in retry, backoff or
//!   breaker decisions, so a replay with the same seed observes the same
//!   faults; and with **no** faults the service is bit-identical to a
//!   fault-free one.

use std::sync::Arc;

use proptest::prelude::*;

use bitgblas_core::faultinject::{FailSpec, FaultAction, FaultInjector, FaultPlan, InjectedPanic};
use bitgblas_core::{Backend, Matrix, TileSize};
use bitgblas_datagen::generators;
use bitgblas_serve::{
    BreakerState, FailureReason, GraphService, Query, QueryError, QueryResult, SubmitError, Tick,
    Ticket,
};

/// Silence the default panic hook for injected panics only — a chaos run
/// catches hundreds of them by design, and each would otherwise print a
/// backtrace banner.  Genuine panics still report normally.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                default_hook(info);
            }
        }));
    });
}

fn graph() -> Matrix {
    Matrix::from_csr(
        &generators::erdos_renyi(60, 0.06, true, 5),
        Backend::Bit(TileSize::S8),
    )
}

// -- containment / bisection ------------------------------------------------

/// One poisoned lane in an 8-lane batch: the 7 innocents complete with
/// correct results, only the culprit gets the typed failure, and the
/// bisection search stays within its logarithmic cost bound.
#[test]
fn bisection_isolates_the_poison_lane() {
    quiet_injected_panics();
    let g = graph();
    let poison_source = 5usize;
    let plan = FaultPlan::new()
        .with(FailSpec::always("serve.lane", FaultAction::Panic).with_arg(poison_source));
    let inj = Arc::new(FaultInjector::new(11, plan));
    let mut svc = GraphService::builder(&g)
        .coalescing_window(10)
        .fault_injector(inj.clone())
        .build();

    let sources = [0usize, 1, 2, 3, 4, 5, 6, 7];
    let tickets: Vec<Ticket> = sources
        .iter()
        .map(|&s| svc.submit(Query::bfs(s), Tick(0), None).unwrap())
        .collect();
    let reports = svc.pump(Tick(10));
    assert_eq!(reports.len(), 1, "one batch dispatched");
    assert_eq!(reports[0].lanes, 8);

    for (&s, &t) in sources.iter().zip(&tickets) {
        let got = svc.take_result(t).expect("every lane resolved");
        if s == poison_source {
            assert_eq!(
                got,
                Err(QueryError::ExecutionFailed {
                    reason: FailureReason::Panicked
                })
            );
        } else {
            let QueryResult::Bfs { levels } = got.expect("innocent lane completes") else {
                panic!("wrong result kind");
            };
            assert_eq!(levels, bitgblas_algorithms::bfs(&g, s).levels);
        }
    }
    let s = svc.stats().snapshot();
    assert_eq!(s.completed, 7);
    assert_eq!(s.failed, 1);
    assert!(s.panics_contained >= 1);
    // Cost bound: ≤ 2·⌈log₂ 8⌉ = 6 extra engine calls.
    assert!(
        s.bisection_dispatches <= 6,
        "bisection cost {} exceeds 2·log₂(8)",
        s.bisection_dispatches
    );
    assert!(s.is_conserved());
    assert!(inj.counts().panics >= 1);
}

// -- retry / backoff --------------------------------------------------------

/// A transiently-failing batch requeues with exponential backoff on the
/// virtual clock and succeeds on the retry — no wall clock involved.
#[test]
fn transient_failure_retries_with_deterministic_backoff() {
    quiet_injected_panics();
    let g = graph();
    let plan = FaultPlan::new()
        .with(FailSpec::always("serve.batch", FaultAction::Transient).with_max_fires(1));
    let inj = Arc::new(FaultInjector::new(3, plan));
    let mut svc = GraphService::builder(&g)
        .coalescing_window(10)
        .retry(2, 8)
        .fault_injector(inj)
        .build();

    let a = svc.submit(Query::sssp(1), Tick(0), None).unwrap();
    let b = svc.submit(Query::sssp(2), Tick(0), None).unwrap();
    // First dispatch at the window close fails transiently; both lanes
    // requeue with not_before = 10 + 8·2⁰ = 18.
    let reports = svc.pump(Tick(10));
    assert_eq!(reports.len(), 1);
    assert!(svc.take_result(a).is_none(), "still pending (requeued)");
    assert_eq!(svc.pending_len(), 2);
    assert_eq!(
        svc.next_event_time(),
        Some(Tick(18)),
        "next event is the backoff expiry, not the stale window"
    );
    // Before the backoff elapses nothing dispatches.
    assert!(svc.pump(Tick(17)).is_empty());
    // At 18 the retry dispatches and succeeds.
    let reports = svc.pump(Tick(18));
    assert_eq!(reports.len(), 1);
    for t in [a, b] {
        let QueryResult::Sssp { .. } = svc.take_result(t).unwrap().unwrap() else {
            panic!("wrong result kind");
        };
    }
    let s = svc.stats().snapshot();
    assert_eq!(s.retries, 2);
    assert_eq!(s.completed, 2);
    assert_eq!(s.batches_dispatched, 2, "original dispatch plus one retry");
    assert!(s.is_conserved());
}

/// When every attempt fails transiently, the retry budget bounds the work
/// and the query resolves with the typed exhaustion error.
#[test]
fn retries_exhausted_is_a_typed_terminal_failure() {
    quiet_injected_panics();
    let g = graph();
    let plan = FaultPlan::new().with(FailSpec::always("serve.batch", FaultAction::Transient));
    let inj = Arc::new(FaultInjector::new(4, plan));
    let mut svc = GraphService::builder(&g)
        .coalescing_window(0)
        .retry(1, 4)
        .fault_injector(inj)
        .build();

    let t = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
    // flush drains through the whole retry budget in one call (backoff is
    // ignored on the end-of-stream drain; the attempts cap still applies,
    // which is what guarantees termination under a 100%-transient plan).
    svc.flush(Tick(0));
    assert!(svc.is_idle());
    assert_eq!(
        svc.take_result(t).unwrap(),
        Err(QueryError::ExecutionFailed {
            reason: FailureReason::RetriesExhausted { attempts: 2 }
        })
    );
    let s = svc.stats().snapshot();
    assert_eq!(s.failed, 1);
    assert_eq!(s.retries, 1);
    assert!(s.is_conserved());
}

/// A transient injected at a *core* dispatch fail point (inside the
/// planner) surfaces as a typed error, not a crash, and the service
/// retries it to completion — the typed-error path works end to end.
#[test]
fn core_dispatch_transient_surfaces_as_a_retry() {
    quiet_injected_panics();
    let g = graph();
    let plan = FaultPlan::new()
        .with(FailSpec::always("grb.mxm_dispatch", FaultAction::Transient).with_max_fires(1));
    let inj = Arc::new(FaultInjector::new(6, plan));
    let mut svc = GraphService::builder(&g)
        .coalescing_window(0)
        .retry(2, 4)
        .fault_injector(inj.clone())
        .build();

    let t = svc.submit(Query::bfs(3), Tick(0), None).unwrap();
    svc.flush(Tick(0));
    let QueryResult::Bfs { levels } = svc.take_result(t).unwrap().unwrap() else {
        panic!("wrong result kind");
    };
    assert_eq!(levels, bitgblas_algorithms::bfs(&g, 3).levels);
    let s = svc.stats().snapshot();
    assert_eq!(s.retries, 1);
    assert_eq!(inj.counts().transients, 1);
    assert!(s.is_conserved());
}

// -- circuit breaker --------------------------------------------------------

/// Repeated panics on one coalescing key trip the breaker: the queue is
/// shed with a typed error, new submissions fail fast, and after the
/// cooldown a successful probe re-closes the circuit.
#[test]
fn breaker_trips_sheds_and_recovers_through_a_probe() {
    quiet_injected_panics();
    let g = graph();
    let plan =
        FaultPlan::new().with(FailSpec::always("serve.lane", FaultAction::Panic).with_arg(9));
    let inj = Arc::new(FaultInjector::new(8, plan));
    let mut svc = GraphService::builder(&g)
        .max_lanes(1)
        .coalescing_window(0)
        .breaker(2, 100)
        .fault_injector(inj)
        .build();

    let doomed: Vec<Ticket> = (0..3)
        .map(|_| svc.submit(Query::bfs(9), Tick(0), None).unwrap())
        .collect();
    // Two consecutive single-lane panics trip the breaker; the third query
    // is shed from the queue without executing.
    svc.pump(Tick(0));
    for (i, &t) in doomed.iter().enumerate() {
        let err = svc.take_result(t).unwrap().unwrap_err();
        if i < 2 {
            assert_eq!(
                err,
                QueryError::ExecutionFailed {
                    reason: FailureReason::Panicked
                }
            );
        } else {
            assert_eq!(err, QueryError::Shed { until: Tick(100) });
        }
    }
    assert_eq!(
        svc.breaker_state(Query::bfs(9).coalescing_key(), Tick(1)),
        Some(BreakerState::Open { until: Tick(100) })
    );
    // While open: fail fast at the door.
    assert_eq!(
        svc.submit(Query::bfs(0), Tick(50), None).unwrap_err(),
        SubmitError::CircuitOpen { until: Tick(100) }
    );
    // Other groups are unaffected.
    let other = svc.submit(Query::sssp(0), Tick(50), None).unwrap();
    svc.pump(Tick(50));
    assert!(svc.take_result(other).unwrap().is_ok());

    // After the cooldown the breaker half-opens: a healthy probe (source
    // 9 is the poisoned one; 0 is fine) re-closes it.
    let probe = svc.submit(Query::bfs(0), Tick(100), None).unwrap();
    assert_eq!(
        svc.breaker_state(Query::bfs(9).coalescing_key(), Tick(100)),
        Some(BreakerState::HalfOpen)
    );
    svc.pump(Tick(100));
    assert!(svc.take_result(probe).unwrap().is_ok());
    assert_eq!(
        svc.breaker_state(Query::bfs(9).coalescing_key(), Tick(101)),
        Some(BreakerState::Closed)
    );

    let s = svc.stats().snapshot();
    assert_eq!(s.breaker_trips, 1);
    assert_eq!(s.shed, 1);
    assert_eq!(s.rejected_circuit_open, 1);
    assert!(s.is_conserved());
}

/// A failed half-open probe re-opens the breaker for a fresh cooldown.
#[test]
fn failed_probe_reopens_the_breaker() {
    quiet_injected_panics();
    let g = graph();
    let plan =
        FaultPlan::new().with(FailSpec::always("serve.lane", FaultAction::Panic).with_arg(9));
    let inj = Arc::new(FaultInjector::new(8, plan));
    let mut svc = GraphService::builder(&g)
        .max_lanes(1)
        .coalescing_window(0)
        .breaker(1, 100)
        .fault_injector(inj)
        .build();

    let first = svc.submit(Query::bfs(9), Tick(0), None).unwrap();
    svc.pump(Tick(0));
    assert!(svc.take_result(first).unwrap().is_err());
    // Probe with the still-poisoned source: back to open, new cooldown.
    let probe = svc.submit(Query::bfs(9), Tick(100), None).unwrap();
    svc.pump(Tick(100));
    assert!(svc.take_result(probe).unwrap().is_err());
    assert_eq!(
        svc.submit(Query::bfs(0), Tick(150), None).unwrap_err(),
        SubmitError::CircuitOpen { until: Tick(200) }
    );
    assert_eq!(svc.stats().snapshot().breaker_trips, 2);
}

// -- admission --------------------------------------------------------------

/// The QueueFull backpressure lifecycle on a hand-driven clock: fill the
/// bounded queue, get refused, let deadlines shed the backlog, refill.
#[test]
fn queue_full_backpressure_fill_shed_drain_refill() {
    let g = graph();
    let mut svc = GraphService::builder(&g)
        .queue_capacity(3)
        .coalescing_window(1_000)
        .build();
    // Fill to capacity with doomed deadlines.
    let doomed: Vec<Ticket> = (0..3)
        .map(|i| svc.submit(Query::bfs(i), Tick(0), Some(Tick(10))).unwrap())
        .collect();
    // Full: the fourth is refused at the door.
    assert_eq!(
        svc.submit(Query::bfs(3), Tick(1), None).unwrap_err(),
        SubmitError::QueueFull { capacity: 3 }
    );
    // The driver sleeps through the deadlines: the backlog sheds as typed
    // expirations, freeing the queue.
    assert!(svc.pump(Tick(11)).is_empty());
    assert!(svc.is_idle());
    for t in doomed {
        assert!(matches!(
            svc.take_result(t),
            Some(Err(QueryError::DeadlineExpired { .. }))
        ));
    }
    // Refill and complete normally.
    let again: Vec<Ticket> = (0..3)
        .map(|i| svc.submit(Query::bfs(i), Tick(20), None).unwrap())
        .collect();
    svc.flush(Tick(21));
    for t in again {
        assert!(svc.take_result(t).unwrap().is_ok());
    }
    let s = svc.stats().snapshot();
    assert_eq!(s.rejected_queue_full, 1);
    assert_eq!(s.deadline_misses, 3);
    assert_eq!(s.completed, 3);
    assert!(s.is_conserved());
}

/// Opt-in feasibility admission: once the wait histogram knows dispatches
/// take ~100 ticks, a 50-tick deadline is refused at the door instead of
/// being admitted to die in queue.
#[test]
fn infeasible_deadlines_are_refused_when_opted_in() {
    let g = graph();
    let mut svc = GraphService::builder(&g)
        .coalescing_window(100)
        .deadline_feasibility(true)
        .build();
    // Warm the histogram: one query that waits the full 100-tick window
    // (bucket upper bound 128 → that's the p99 estimate).
    let warm = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
    svc.pump(Tick(100));
    assert!(svc.take_result(warm).unwrap().is_ok());
    // Deadline 50 ticks out, predicted wait 128: refused, typed.
    assert_eq!(
        svc.submit(Query::bfs(1), Tick(200), Some(Tick(250)))
            .unwrap_err(),
        SubmitError::InfeasibleDeadline {
            deadline: Tick(250),
            predicted: Tick(328)
        }
    );
    // A roomy deadline is admitted.
    let ok = svc
        .submit(Query::bfs(1), Tick(200), Some(Tick(400)))
        .unwrap();
    svc.pump(Tick(300));
    assert!(svc.take_result(ok).unwrap().is_ok());
    let s = svc.stats().snapshot();
    assert_eq!(s.rejected_infeasible, 1);
    assert_eq!(s.deadline_misses, 0, "the hopeless query never queued");
}

/// Source validation at submit, on both backends: a bad source never
/// reaches the engine, a good one completes (satellite check).
#[test]
fn submit_validates_sources_on_both_backends() {
    let csr = generators::erdos_renyi(40, 0.08, true, 13);
    for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
        let g = Matrix::from_csr(&csr, backend);
        let mut svc = GraphService::builder(&g).coalescing_window(0).build();
        for bad in [Query::bfs(40), Query::sssp(40), Query::ppr(9999)] {
            let err = svc.submit(bad, Tick(0), None).unwrap_err();
            assert!(
                matches!(err, SubmitError::SourceOutOfRange { n: 40, .. }),
                "{backend:?}: {bad:?} must be refused, got {err}"
            );
        }
        let ok = svc.submit(Query::bfs(39), Tick(0), None).unwrap();
        svc.pump(Tick(0));
        assert!(svc.take_result(ok).unwrap().is_ok(), "{backend:?}");
        assert_eq!(svc.stats().snapshot().enqueued, 1);
    }
}

// -- torn-epoch safety (PR 8) -----------------------------------------------

/// The `grb.delta_merge` fail point: a compaction that panics mid-fold
/// publishes nothing — the pre-compaction snapshot stays fully readable and
/// bit-identical, the epoch and the delta log are untouched, and a retry
/// after the fault clears folds normally.  (Satellite: no torn epoch.)
#[test]
fn panicking_compaction_leaves_the_pre_compaction_snapshot_readable() {
    quiet_injected_panics();
    let g = graph();
    let plan = FaultPlan::new()
        .with(FailSpec::always("grb.delta_merge", FaultAction::Panic).with_max_fires(1));
    let inj = Arc::new(FaultInjector::new(21, plan));
    g.context().set_fault_injector(Some(inj.clone()));

    g.insert_edge(59, 0).unwrap();
    g.delete_edge(0, 1).unwrap();
    let snap = g.snapshot();
    let levels_before = bitgblas_algorithms::bfs(&snap, 0).levels;
    let (epoch, depth) = (g.head_epoch(), g.delta_len());

    let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| g.compact(g.context())));
    let payload = torn.expect_err("the injected panic must surface");
    assert_eq!(
        payload.downcast_ref::<InjectedPanic>().map(|p| p.point),
        Some("grb.delta_merge")
    );
    // Nothing was published: same epoch, same log, and the snapshot taken
    // before the attempt still answers bit-identically.
    assert_eq!(g.head_epoch(), epoch);
    assert_eq!(g.delta_len(), depth);
    assert_eq!(bitgblas_algorithms::bfs(&snap, 0).levels, levels_before);
    assert_eq!(
        bitgblas_algorithms::bfs(&g.snapshot(), 0).levels,
        levels_before
    );

    // The fault budget is spent; the retry folds and the view is unchanged.
    let report = g.compact(g.context()).unwrap();
    assert_eq!(report.folded, depth);
    assert_eq!(g.delta_len(), 0);
    assert_eq!(
        bitgblas_algorithms::bfs(&g.snapshot(), 0).levels,
        levels_before
    );
    assert_eq!(bitgblas_algorithms::bfs(&snap, 0).levels, levels_before);
    assert_eq!(inj.counts().panics, 1);
}

/// Epoch isolation across an *incremental* compaction, with the fail point
/// armed in between: a snapshot of a compacted base, pinned before ten more
/// appends, survives a panicking and a transiently failing fold — epoch,
/// log, `entries_normalized` and every outstanding snapshot unchanged — and
/// then the fold that succeeds, which copies the clean tile-rows out of the
/// very tiles the snapshot reads.  On a band, whose B2SR-8 tiles fill (18.6
/// bits each); on a scatter at B2SR-4 (2.1 bits per tile) every base holds
/// no tiles and the fold converts and counts none.
#[test]
fn pinned_snapshots_survive_failed_and_incremental_compactions() {
    quiet_injected_panics();
    let band = generators::banded(60, 4, 0.6, 5);
    let scatter = generators::erdos_renyi(60, 0.06, true, 5);
    for (adj, ts) in [(band, TileSize::S8), (scatter, TileSize::S4)] {
        survive_failed_and_incremental_compactions(Matrix::from_csr(&adj, Backend::Bit(ts)));
    }
}

/// [`pinned_snapshots_survive_failed_and_incremental_compactions`] on `g`.
fn survive_failed_and_incremental_compactions(g: Matrix) {
    g.insert_edge(59, 0).unwrap();
    g.compact(g.context()).unwrap();
    let pinned_base = g.snapshot();
    let base_tiles = pinned_base.b2sr().cloned();
    let tiled = base_tiles.is_some();
    let base_csr = pinned_base.csr().clone();

    for i in 0..10 {
        if i % 3 == 0 {
            g.delete_edge(i, base_csr.row(i).0.first().copied().unwrap_or(0))
                .unwrap();
        } else {
            g.insert_edge(i * 5 % 60, (i * 11 + 2) % 60).unwrap();
        }
    }
    let pinned_overlay = g.snapshot();
    let overlay_csr = pinned_overlay.csr().clone();
    let levels = bitgblas_algorithms::bfs(&pinned_overlay, 0).levels;
    let before = (g.head_epoch(), g.delta_len(), g.entries_normalized());
    assert_eq!(before.1, 10);

    let unchanged = |what: &str| {
        assert_eq!(
            (g.head_epoch(), g.delta_len(), g.entries_normalized()),
            before,
            "{what}"
        );
        assert_eq!(pinned_base.b2sr(), base_tiles.as_ref(), "{what}");
        assert_eq!(pinned_base.csr(), &base_csr, "{what}");
        assert_eq!(pinned_overlay.csr(), &overlay_csr, "{what}");
        assert_eq!(
            bitgblas_algorithms::bfs(&pinned_overlay, 0).levels,
            levels,
            "{what}"
        );
    };
    for action in [FaultAction::Panic, FaultAction::Transient] {
        let plan = FaultPlan::new().with(FailSpec::always("grb.delta_merge", action));
        g.context()
            .set_fault_injector(Some(Arc::new(FaultInjector::new(23, plan))));
        let torn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.compact(g.context()).is_err()
        }));
        assert!(torn.unwrap_or(true), "{action:?} must fail the fold");
        unchanged(&format!("after {action:?}"));
    }

    g.context().set_fault_injector(None);
    let report = g.compact(g.context()).unwrap();
    assert_eq!(report.folded, 10);
    assert!(report.tile_rows_retiled <= report.dirty_rows);
    if tiled {
        assert!(report.tiles_spliced > 0, "clean tile-rows are copied over");
    } else {
        let counts = (
            report.tile_rows_retiled,
            report.tiles_retiled,
            report.tiles_spliced,
        );
        assert_eq!(counts, (0, 0, 0), "no tiles, nothing converted");
    }
    assert_eq!(g.entries_normalized(), before.2, "nothing raced in");
    // The new base is the overlay's graph in fresh arrays; the old base and
    // the overlay still read their own.
    let head = g.snapshot();
    assert_eq!(head.csr(), &overlay_csr);
    assert_eq!(head.b2sr().is_some(), tiled);
    assert_eq!(
        head.b2sr(),
        Matrix::from_csr(&overlay_csr, g.resolved_backend()).b2sr()
    );
    assert_eq!(pinned_base.b2sr(), base_tiles.as_ref());
    assert_eq!(pinned_base.csr(), &base_csr);
    assert_eq!(bitgblas_algorithms::bfs(&pinned_overlay, 0).levels, levels);
}

/// The same fault through the service's writer path: a panicking
/// `compact_after` fold is contained by the dispatch guard — queries keep
/// completing, nothing is lost, and the log survives for the next trigger.
#[test]
fn service_contains_a_panicking_compaction() {
    quiet_injected_panics();
    let g = graph();
    let plan = FaultPlan::new().with(FailSpec::always("grb.delta_merge", FaultAction::Panic));
    let inj = Arc::new(FaultInjector::new(22, plan));
    let mut svc = GraphService::builder(&g)
        .coalescing_window(0)
        .compact_after(1)
        .fault_injector(inj)
        .build();

    let tm = svc
        .submit(Query::insert_edge(59, 0), Tick(0), None)
        .unwrap();
    let tq = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
    svc.pump(Tick(0));
    // The mutation applied and the read completed; only the fold failed.
    assert_eq!(
        svc.take_result(tm).unwrap().unwrap(),
        QueryResult::Mutated { epoch: 1 }
    );
    assert!(svc.take_result(tq).unwrap().is_ok());
    assert_eq!(g.delta_len(), 1, "the unfolded log survives");
    let s = svc.stats().snapshot();
    assert_eq!(s.mutations_applied, 1);
    assert_eq!(s.compactions, 0);
    assert!(s.is_conserved());
    // New snapshots still read base ⊕ log.
    assert!(g.snapshot().csr().get(59, 0).is_some());
}

// -- determinism ------------------------------------------------------------

/// With an injector installed but an empty plan, every fail point is inert
/// and the service's answers are bit-identical to a plain service — the
/// fault machinery costs nothing when quiet.
#[test]
fn fault_free_replay_is_bit_identical() {
    let g = graph();
    let queries: Vec<Query> = (0..20)
        .map(|i| match i % 3 {
            0 => Query::bfs(i % 60),
            1 => Query::sssp(i % 60),
            _ => Query::ppr(i % 60),
        })
        .collect();

    let run = |svc: &mut GraphService<'_>| -> Vec<Result<QueryResult, QueryError>> {
        let tickets: Vec<Ticket> = queries
            .iter()
            .enumerate()
            .map(|(i, &q)| svc.submit(q, Tick(i as u64), None).unwrap())
            .collect();
        svc.flush(Tick(1000));
        tickets
            .into_iter()
            .map(|t| svc.take_result(t).unwrap())
            .collect()
    };

    let mut plain = GraphService::builder(&g).coalescing_window(5).build();
    let plain_results = run(&mut plain);

    let inj = Arc::new(FaultInjector::new(77, FaultPlan::new()));
    let mut chaos = GraphService::builder(&g)
        .coalescing_window(5)
        .fault_injector(inj.clone())
        .breaker(3, 50)
        .retry(2, 8)
        .build();
    let chaos_results = run(&mut chaos);

    assert_eq!(plain_results, chaos_results);
    assert_eq!(inj.counts().panics, 0);
    assert_eq!(inj.counts().transients, 0);
}

// -- chaos proptest ---------------------------------------------------------

fn query_stream(n: usize) -> impl Strategy<Value = Vec<Query>> {
    proptest::collection::vec((0usize..4, 0usize..1000), 1..50).prop_map(move |raw| {
        raw.into_iter()
            .map(|(kind, src)| match kind {
                0 => Query::bfs(src % n),
                1 => Query::sssp(src % n),
                2 => Query::ppr(src % n),
                // Mutations ride the same machinery and the same
                // conservation invariant as reads.
                _ => Query::insert_edge(src % n, (src / 7) % n),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline chaos invariant: under random fault plans (lane
    /// panics, batch transients, core transients, latency), every admitted
    /// ticket resolves exactly once and the stats conserve.
    #[test]
    fn chaos_every_admitted_ticket_resolves_exactly_once(
        seed in 0u64..10_000,
        queries in query_stream(60),
        pct_lane_panic in 0u64..25,
        pct_batch_transient in 0u64..40,
        pct_core_transient in 0u64..20,
    ) {
        quiet_injected_panics();
        let g = graph();
        let plan = FaultPlan::new()
            .with(FailSpec::always("serve.lane", FaultAction::Panic).with_probability(pct_lane_panic as f64 / 100.0))
            .with(FailSpec::always("serve.batch", FaultAction::Transient).with_probability(pct_batch_transient as f64 / 100.0))
            .with(FailSpec::always("grb.mxm_dispatch", FaultAction::Transient).with_probability(pct_core_transient as f64 / 100.0))
            .with(FailSpec::always("serve.batch", FaultAction::Latency(7)).with_probability(0.5));
        let inj = Arc::new(FaultInjector::new(seed, plan));
        let mut svc = GraphService::builder(&g)
            .coalescing_window(8)
            .max_lanes(16)
            .breaker(3, 64)
            .retry(2, 4)
            .queue_capacity(256)
            .fault_injector(inj)
            .build();

        // Submit with arrivals one tick apart; every fifth query carries a
        // deadline so the expiry path participates in conservation.
        let mut tickets: Vec<Ticket> = Vec::new();
        let mut now = Tick(0);
        for (i, &q) in queries.iter().enumerate() {
            now = Tick(i as u64);
            let deadline = (i % 5 == 4).then(|| now.after(6));
            match svc.submit(q, now, deadline) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::CircuitOpen { .. }) => {} // fail-fast is legal here
                Err(e) => panic!("unexpected refusal: {e}"),
            }
        }

        // Event-driven drain: step the clock to each next event.  The step
        // cap is a safety net; the backoff/attempts bounds guarantee the
        // loop ends long before it.
        let mut steps = 0;
        while let Some(t) = svc.next_event_time() {
            steps += 1;
            prop_assert!(steps < 10_000, "event loop did not converge");
            now = now.max(t);
            svc.pump(now);
        }
        svc.flush(now.after(1));
        prop_assert!(svc.is_idle());

        // Exactly once: every admitted ticket has exactly one resolution.
        for t in tickets {
            prop_assert!(svc.take_result(t).is_some(), "ticket resolved");
            prop_assert!(svc.take_result(t).is_none(), "slot consumed");
        }
        let s = svc.stats().snapshot();
        prop_assert!(s.is_conserved(),
            "conservation: enqueued {} = completed {} + failed {} + expired {} + shed {}",
            s.enqueued, s.completed, s.failed, s.deadline_misses, s.shed);
    }

    /// Replaying the same seed, plan and query stream twice produces the
    /// same counter totals — the whole failure path is deterministic.
    #[test]
    fn chaos_replays_are_deterministic(
        seed in 0u64..10_000,
        queries in query_stream(60),
    ) {
        quiet_injected_panics();
        let g = graph();
        let run = || {
            let plan = FaultPlan::new()
                .with(FailSpec::always("serve.lane", FaultAction::Panic).with_probability(0.15))
                .with(FailSpec::always("serve.batch", FaultAction::Transient).with_probability(0.3));
            let inj = Arc::new(FaultInjector::new(seed, plan));
            let mut svc = GraphService::builder(&g)
                .coalescing_window(4)
                .max_lanes(8)
                .breaker(2, 32)
                .retry(1, 4)
                .fault_injector(inj)
                .build();
            for (i, &q) in queries.iter().enumerate() {
                let _ = svc.submit(q, Tick(i as u64), None);
            }
            svc.flush(Tick(queries.len() as u64));
            svc.stats().snapshot()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(a, b);
    }
}
