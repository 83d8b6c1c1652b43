//! The [`GraphService`]: admission, lane-coalescing, deadline-aware
//! dispatch, fault containment and result demultiplexing.
//!
//! # Scheduling model
//!
//! The service is an explicitly-clocked event machine.  Producers
//! [`submit`](GraphService::submit) queries (admission: bounded queue with
//! backpressure, deadline sanity, source validation, circuit-breaker and
//! optional deadline-feasibility checks); a driver loop calls
//! [`pump`](GraphService::pump) with the current [`Tick`], and the service
//! dispatches every *ready* batch synchronously, demuxing per-lane results
//! into per-ticket slots redeemed with
//! [`take_result`](GraphService::take_result).  A group of compatible
//! pending queries (equal [`CoalescingKey`]) is ready when it holds at
//! least one *eligible* query (its retry backoff, if any, has elapsed) and
//! any of:
//!
//! * **full** — the group holds [`max_lanes`](GraphServiceBuilder::max_lanes)
//!   eligible queries (a full lane word: dispatch cannot get cheaper per
//!   query);
//! * **window closed** — the group's *oldest* eligible query has waited
//!   [`coalescing_window`](GraphServiceBuilder::coalescing_window) ticks (a
//!   lone query never waits longer than the window);
//! * **deadline reached** — some eligible member's deadline is `now`
//!   (dispatching at the deadline is the last legal moment, so a query is
//!   never coalesced *past* its deadline; queries whose deadline already
//!   passed are completed with the typed [`QueryError::DeadlineExpired`]
//!   instead, never silently dropped).
//!
//! [`next_event_time`](GraphService::next_event_time) tells the driver the
//! earliest tick at which any of those conditions can fire, so drivers
//! (and the open-loop benchmark) can step the virtual clock event-to-event
//! without polling.
//!
//! # Failure model
//!
//! Execution runs under a panic guard.  A panicking batch is **bisected**
//! to isolate the poison lane: halves re-execute independently, innocent
//! lanes complete normally, and only the culprit resolves with the typed
//! [`QueryError::ExecutionFailed`] — at a cost of at most `2·⌈log₂ k⌉`
//! extra engine calls for a `k`-lane batch.  Transient failures (typed
//! [`GrbError::FaultInjected`](bitgblas_core::grb::GrbError) from a fail
//! point, or any other typed engine error) are **retried** with
//! exponential backoff on the virtual clock, up to a budget; exhaustion is
//! a typed terminal failure.  Repeated panics on one coalescing key trip a
//! per-group **circuit breaker** (see [`BreakerState`]) that sheds the
//! group's queue and refuses new submissions until a cooldown elapses.
//!
//! The service itself never reads a wall clock — every scheduling decision
//! (including backoff and breaker cooldowns) is a function of
//! caller-supplied ticks, which is what makes the deadline and chaos tests
//! deterministic and the benchmark's arrival replay reproducible.  The
//! only `Instant` use is *reporting*: each [`BatchReport`] carries the
//! measured execution time of its batch, which drivers may feed back into
//! their virtual clock (the open-loop harness does) but the scheduler
//! never consults.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use bitgblas_algorithms::{try_bfs_multi_dir, try_ppr_multi_dir, try_sssp_multi_dir, PprConfig};
use bitgblas_core::faultinject::{FaultAction, FaultInjector, InjectedPanic};
use bitgblas_core::grb::{Direction, GrbError, Snapshot};
use bitgblas_core::{EdgeDelta, Fusion, Matrix};

use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::query::{
    CoalescingKey, FailureReason, Query, QueryError, QueryResult, SubmitError, Tick, Ticket,
};
use crate::stats::ServiceStats;

/// The hard lane cap: one `u64` lane word — a batch never exceeds 64
/// lanes, so every batched Boolean sweep advances the whole batch with one
/// OR per edge.
pub const MAX_BATCH_LANES: usize = 64;

/// One query waiting in a coalescing group.
#[derive(Debug, Clone, Copy)]
struct Pending {
    ticket: Ticket,
    query: Query,
    arrival: Tick,
    deadline: Option<Tick>,
    /// Dispatch attempts so far (0 until the first dispatch resolves).
    attempts: u32,
    /// Earliest tick this query may dispatch (arrival, or the end of its
    /// retry backoff).
    not_before: Tick,
}

/// What one [`pump`](GraphService::pump) dispatch executed.
#[derive(Debug, Clone)]
#[must_use = "the report carries the dispatch's tickets and measured cost"]
pub struct BatchReport {
    /// The coalescing group the batch came from.
    pub key: CoalescingKey,
    /// Number of lanes (coalesced queries) in the batch.
    pub lanes: usize,
    /// Measured execution time of the batched engine call plus any
    /// injected virtual latency, in microseconds.  Reporting only — the
    /// scheduler never reads it; drivers with a virtual clock may add it
    /// to their `now`.
    pub exec_us: u64,
    /// The tickets dispatched in this batch, in lane order.  A lane may
    /// resolve with a result, a typed failure, or a retry — redeem the
    /// ticket to find out.
    pub tickets: Vec<Ticket>,
}

/// Configures and builds a [`GraphService`] — see the [module
/// docs](self) for the scheduling and failure models.
#[derive(Debug, Clone)]
pub struct GraphServiceBuilder<'g> {
    graph: &'g Matrix,
    max_lanes: usize,
    window: u64,
    capacity: usize,
    direction: Direction,
    fault: Option<Arc<FaultInjector>>,
    breaker_cfg: Option<(u32, u64)>,
    retry_max: u32,
    backoff_base: u64,
    feasibility: bool,
    compact_after: Option<usize>,
}

impl<'g> GraphServiceBuilder<'g> {
    /// Maximum lanes coalesced into one batch, clamped to
    /// `1..=`[`MAX_BATCH_LANES`] (default: 64 — one full lane word).
    pub fn max_lanes(mut self, k: usize) -> Self {
        self.max_lanes = k.clamp(1, MAX_BATCH_LANES);
        self
    }

    /// The coalescing window in ticks: the longest a query may sit waiting
    /// for batch-mates before the service dispatches anyway (default: 1000).
    /// `0` disables coalescing-by-waiting — every pump dispatches whatever
    /// is queued.
    pub fn coalescing_window(mut self, ticks: u64) -> Self {
        self.window = ticks;
        self
    }

    /// Bounded queue capacity across all coalescing groups (default: 1024).
    /// Submissions beyond it are refused with [`SubmitError::QueueFull`] —
    /// the service sheds load at the door instead of growing an unbounded
    /// backlog.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Traversal direction for the batched executions (default:
    /// [`Direction::Auto`] — per-iteration Beamer switching on the batch
    /// frontier, priced per product kind by `choose_direction`).
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Install a seeded [`FaultInjector`].  The service polls the
    /// `serve.lane` (per lane, arg = source) and `serve.batch` (per engine
    /// call) fail points, and threads the injector into the graph's
    /// context so the core `grb.mxv_dispatch` / `grb.mxm_dispatch` points
    /// fire too.  Without an injector every fail point is inert and
    /// execution is bit-identical to a fault-free service.
    pub fn fault_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Enable the per-coalescing-group circuit breaker: `threshold`
    /// consecutive panicking dispatches trip it, shedding the group's
    /// queue and refusing new submissions for `cooldown_ticks`, after
    /// which one single-lane probe decides between re-closing and
    /// re-opening (default: disabled).
    pub fn breaker(mut self, threshold: u32, cooldown_ticks: u64) -> Self {
        self.breaker_cfg = Some((threshold.max(1), cooldown_ticks));
        self
    }

    /// Retry policy for transiently-failed lanes: up to `max_retries`
    /// requeues, the `i`-th waiting `backoff_base · 2^(i-1)` ticks before
    /// becoming eligible again (default: 2 retries, base 8 ticks).
    /// Exhaustion resolves the query with the typed
    /// [`QueryError::ExecutionFailed`].
    pub fn retry(mut self, max_retries: u32, backoff_base: u64) -> Self {
        self.retry_max = max_retries;
        self.backoff_base = backoff_base;
        self
    }

    /// Opt in to deadline-feasibility admission: a submission whose
    /// deadline precedes `now + p99 observed wait` is refused with
    /// [`SubmitError::InfeasibleDeadline`] instead of expiring in queue
    /// (default: off — the estimator needs a warmed-up wait histogram to
    /// be fair).
    pub fn deadline_feasibility(mut self, enabled: bool) -> Self {
        self.feasibility = enabled;
        self
    }

    /// Compaction trigger rule (PR 8): after a mutation dispatch, if the
    /// graph's pending delta log holds at least `depth` entries, the
    /// service folds it into fresh tiles with
    /// [`Matrix::compact`](bitgblas_core::Matrix::compact) (default:
    /// disabled — the owner compacts explicitly).  The fold runs under a
    /// panic guard and fires the `grb.delta_merge` fail point: a failing
    /// compaction is contained and the pre-compaction epoch stays fully
    /// readable.
    pub fn compact_after(mut self, depth: usize) -> Self {
        self.compact_after = Some(depth.max(1));
        self
    }

    /// Build the service.  Installs the fault injector (if any) on the
    /// graph's context, so core-level fail points fire for this graph's
    /// executions.
    pub fn build(self) -> GraphService<'g> {
        if let Some(inj) = &self.fault {
            self.graph.context().set_fault_injector(Some(inj.clone()));
        }
        GraphService {
            graph: self.graph,
            max_lanes: self.max_lanes,
            window: self.window,
            capacity: self.capacity,
            direction: self.direction,
            fault: self.fault,
            breaker_cfg: self.breaker_cfg,
            retry_max: self.retry_max,
            backoff_base: self.backoff_base,
            feasibility: self.feasibility,
            compact_after: self.compact_after,
            groups: Vec::new(),
            breakers: Vec::new(),
            pending_count: 0,
            completed: HashMap::new(),
            next_ticket: 0,
            stats: ServiceStats::default(),
        }
    }
}

/// How one dispatched lane resolved.
#[derive(Debug)]
enum LaneOutcome {
    Done(QueryResult),
    Transient,
    Poisoned,
}

/// How one engine call over a contiguous lane segment ended.
enum SegmentOutcome {
    Done(Vec<QueryResult>),
    Transient,
    Panicked,
}

/// A serving layer over one graph: coalesces independent arriving queries
/// into `k ≤ 64`-lane batched executions on the multi-source engine,
/// contains execution faults, and demuxes per-lane results back to
/// per-query tickets.
///
/// See the [crate docs](crate) for a worked example and the [module
/// docs](self) for the scheduling and failure models.
#[derive(Debug)]
pub struct GraphService<'g> {
    graph: &'g Matrix,
    max_lanes: usize,
    window: u64,
    capacity: usize,
    direction: Direction,
    fault: Option<Arc<FaultInjector>>,
    breaker_cfg: Option<(u32, u64)>,
    retry_max: u32,
    backoff_base: u64,
    feasibility: bool,
    compact_after: Option<usize>,
    /// Coalescing groups in first-appearance order (a `Vec`, not a
    /// `HashMap`, so dispatch order is deterministic for a deterministic
    /// drive).  Entries keep FIFO arrival order.
    groups: Vec<(CoalescingKey, VecDeque<Pending>)>,
    /// Breaker state per coalescing key (persists after a group drains).
    breakers: Vec<(CoalescingKey, CircuitBreaker)>,
    pending_count: usize,
    completed: HashMap<Ticket, Result<QueryResult, QueryError>>,
    next_ticket: u64,
    stats: ServiceStats,
}

impl<'g> GraphService<'g> {
    /// Start building a service over `graph` with default policy (64 lanes,
    /// window 1000 ticks, capacity 1024, [`Direction::Auto`], no fault
    /// injector, breaker disabled, 2 retries with base-8 backoff,
    /// feasibility admission off).
    pub fn builder(graph: &'g Matrix) -> GraphServiceBuilder<'g> {
        GraphServiceBuilder {
            graph,
            max_lanes: MAX_BATCH_LANES,
            window: 1000,
            capacity: 1024,
            direction: Direction::Auto,
            fault: None,
            breaker_cfg: None,
            retry_max: 2,
            backoff_base: 8,
            feasibility: false,
            compact_after: None,
        }
    }

    /// Admit a query at tick `now` with an optional dispatch deadline.
    ///
    /// Admission is where fault containment starts: a full queue refuses
    /// the query ([`SubmitError::QueueFull`]) instead of buffering without
    /// bound, a deadline at or before `now` is refused outright
    /// ([`SubmitError::DeadlineBeforeSubmission`]), an out-of-range source
    /// never reaches the engine ([`SubmitError::SourceOutOfRange`]), an
    /// open circuit breaker fails fast ([`SubmitError::CircuitOpen`]), and
    /// — when [`deadline_feasibility`](GraphServiceBuilder::deadline_feasibility)
    /// is on — a deadline the observed wait distribution says cannot be
    /// met is refused at the door ([`SubmitError::InfeasibleDeadline`]).
    pub fn submit(
        &mut self,
        query: Query,
        now: Tick,
        deadline: Option<Tick>,
    ) -> Result<Ticket, SubmitError> {
        let n = self.graph.nrows();
        if query.source() >= n {
            return Err(SubmitError::SourceOutOfRange {
                source: query.source(),
                n,
            });
        }
        // A mutation names two vertices; its row is covered by the source
        // check above, its column is validated here so a bad delta never
        // reaches the writer path.
        if let Query::Mutate { delta } = query {
            if delta.col >= self.graph.ncols() {
                return Err(SubmitError::SourceOutOfRange {
                    source: delta.col,
                    n: self.graph.ncols(),
                });
            }
        }
        let key = query.coalescing_key();
        if self.breaker_cfg.is_some() {
            if let Admission::Refuse { until } = self.breaker_mut(key).admission(now) {
                self.stats.record_rejected_circuit_open();
                return Err(SubmitError::CircuitOpen { until });
            }
        }
        if let Some(d) = deadline {
            if d <= now {
                self.stats.record_rejected_bad_deadline();
                return Err(SubmitError::DeadlineBeforeSubmission { deadline: d, now });
            }
            if self.feasibility {
                let predicted = now.after(self.stats.snapshot().wait_p99());
                if predicted > d {
                    self.stats.record_rejected_infeasible();
                    return Err(SubmitError::InfeasibleDeadline {
                        deadline: d,
                        predicted,
                    });
                }
            }
        }
        if self.pending_count >= self.capacity {
            self.stats.record_rejected_queue_full();
            return Err(SubmitError::QueueFull {
                capacity: self.capacity,
            });
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        let pending = Pending {
            ticket,
            query,
            arrival: now,
            deadline,
            attempts: 0,
            not_before: now,
        };
        match self.groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, q)) => q.push_back(pending),
            None => {
                let mut q = VecDeque::new();
                q.push_back(pending);
                self.groups.push((key, q));
            }
        }
        self.pending_count += 1;
        self.stats.record_enqueued(self.pending_count);
        Ok(ticket)
    }

    /// Advance the service to tick `now`: expire overdue queries (typed
    /// error completion), then dispatch every ready batch.  Returns one
    /// [`BatchReport`] per dispatched batch, in dispatch order.
    pub fn pump(&mut self, now: Tick) -> Vec<BatchReport> {
        self.expire(now);
        let mut reports = Vec::new();
        while let Some(gi) = self
            .groups
            .iter()
            .position(|(_, q)| self.group_ready(q, now))
        {
            if let Some(report) = self.dispatch(gi, now, false) {
                reports.push(report);
            }
        }
        self.groups.retain(|(_, q)| !q.is_empty());
        reports
    }

    /// Dispatch everything still pending regardless of window, occupancy
    /// or retry backoff (end-of-stream drain).  Expired queries still
    /// complete with the typed error, exactly as in
    /// [`pump`](GraphService::pump); retry budgets still apply, so the
    /// drain terminates even under a 100%-transient fault plan.
    pub fn flush(&mut self, now: Tick) -> Vec<BatchReport> {
        self.expire(now);
        let mut reports = Vec::new();
        while let Some(gi) = self.groups.iter().position(|(_, q)| !q.is_empty()) {
            if let Some(report) = self.dispatch(gi, now, true) {
                reports.push(report);
            }
        }
        self.groups.retain(|(_, q)| !q.is_empty());
        reports
    }

    /// The earliest tick at which some pending group becomes ready —
    /// accounting for retry backoff: a lane waiting out its backoff
    /// contributes candidates at its eligibility tick.  `None` when
    /// nothing is pending — drivers step their clock event-to-event with
    /// this instead of polling.
    pub fn next_event_time(&self) -> Option<Tick> {
        self.groups
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .filter_map(|(_, q)| self.group_next_event(q))
            .min()
    }

    /// Redeem a ticket: `Some(Ok(result))` once the query's batch ran,
    /// `Some(Err(QueryError))` if it expired, terminally failed or was
    /// shed, `None` while it is still pending (or was already taken).  The
    /// slot is consumed.
    pub fn take_result(&mut self, ticket: Ticket) -> Option<Result<QueryResult, QueryError>> {
        self.completed.remove(&ticket)
    }

    /// Number of queries waiting in coalescing groups (including lanes
    /// waiting out a retry backoff).
    pub fn pending_len(&self) -> usize {
        self.pending_count
    }

    /// `true` when no query is waiting (completed-but-unclaimed results may
    /// still be held).
    pub fn is_idle(&self) -> bool {
        self.pending_count == 0
    }

    /// The service metrics (lock-free counters — readable from any thread).
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The circuit-breaker state for `key` at `now`, or `None` when the
    /// breaker is disabled or the key has never dispatched.
    pub fn breaker_state(&mut self, key: CoalescingKey, now: Tick) -> Option<BreakerState> {
        self.breaker_cfg?;
        self.breakers
            .iter_mut()
            .find(|(k, _)| *k == key)
            .map(|(_, b)| b.state(now))
    }

    /// The graph this service answers queries about.
    pub fn graph(&self) -> &'g Matrix {
        self.graph
    }

    // -- internals ----------------------------------------------------------

    /// The breaker for `key`, created on first touch.
    fn breaker_mut(&mut self, key: CoalescingKey) -> &mut CircuitBreaker {
        let (threshold, cooldown) = self.breaker_cfg.unwrap_or((u32::MAX, 0));
        if let Some(i) = self.breakers.iter().position(|(k, _)| *k == key) {
            return &mut self.breakers[i].1;
        }
        self.breakers
            .push((key, CircuitBreaker::new(threshold, cooldown)));
        &mut self.breakers.last_mut().unwrap().1
    }

    /// Complete every pending query whose deadline has passed (`now` is
    /// strictly beyond it) with the typed expiry error.
    fn expire(&mut self, now: Tick) {
        let mut expired: Vec<(Ticket, Tick)> = Vec::new();
        for (_, q) in &mut self.groups {
            q.retain(|p| match p.deadline {
                Some(d) if now > d => {
                    expired.push((p.ticket, d));
                    false
                }
                _ => true,
            });
        }
        for (ticket, deadline) in expired {
            self.pending_count -= 1;
            self.completed
                .insert(ticket, Err(QueryError::DeadlineExpired { deadline, now }));
            self.stats.record_deadline_miss(self.pending_count);
        }
    }

    /// Is this group dispatchable at `now`?  (Holds an eligible query and
    /// is full, window-closed, or deadline-due among the eligible.)
    fn group_ready(&self, q: &VecDeque<Pending>, now: Tick) -> bool {
        let mut eligible = 0usize;
        let mut oldest: Option<Tick> = None;
        let mut deadline_due = false;
        for p in q {
            if p.not_before > now {
                continue;
            }
            eligible += 1;
            oldest = Some(oldest.map_or(p.arrival, |o| o.min(p.arrival)));
            deadline_due |= p.deadline.is_some_and(|d| now >= d);
        }
        match oldest {
            None => false,
            Some(oldest) => {
                eligible >= self.max_lanes || now >= oldest.after(self.window) || deadline_due
            }
        }
    }

    /// The earliest tick at which this (non-empty) group can become ready:
    /// the min over the full-batch candidate (the `max_lanes`-th smallest
    /// eligibility tick), each member's window close `max(eᵢ, arrivalᵢ +
    /// window)`, and each member's deadline `max(eᵢ, dᵢ)` (which also
    /// covers late expiry detection when the backoff outlives the
    /// deadline).
    fn group_next_event(&self, q: &VecDeque<Pending>) -> Option<Tick> {
        let mut cand: Option<Tick> = None;
        let mut fold = |t: Tick| cand = Some(cand.map_or(t, |c| c.min(t)));
        if q.len() >= self.max_lanes {
            let mut eligibles: Vec<Tick> = q.iter().map(|p| p.not_before).collect();
            eligibles.sort_unstable();
            fold(eligibles[self.max_lanes - 1]);
        }
        for p in q {
            fold(p.not_before.max(p.arrival.after(self.window)));
            if let Some(d) = p.deadline {
                fold(p.not_before.max(d));
            }
        }
        cand
    }

    /// Resolve every query still queued in group `gi` with the typed
    /// [`QueryError::Shed`] (circuit-breaker trip).
    fn shed_group(&mut self, gi: usize, until: Tick) {
        let (_, queue) = &mut self.groups[gi];
        let victims: Vec<Ticket> = queue.drain(..).map(|p| p.ticket).collect();
        for ticket in victims {
            self.pending_count -= 1;
            self.completed
                .insert(ticket, Err(QueryError::Shed { until }));
            self.stats.record_shed(1);
        }
    }

    /// Drain up to the lane cap of *eligible* queries off group `gi`
    /// (FIFO), execute them under the panic guard (bisecting on panic),
    /// resolve / retry each lane, and update the group's breaker.
    ///
    /// Returns `None` only when the breaker refuses the dispatch (the
    /// queue is shed instead).
    fn dispatch(&mut self, gi: usize, now: Tick, ignore_backoff: bool) -> Option<BatchReport> {
        let key = self.groups[gi].0;
        let cap = match self
            .breaker_cfg
            .map(|_| self.breaker_mut(key).admission(now))
        {
            Some(Admission::Refuse { until }) => {
                // Unreachable in normal operation (a trip sheds the queue
                // and an open breaker refuses submissions), kept as a
                // defensive guarantee that an open group never executes.
                self.shed_group(gi, until);
                return None;
            }
            Some(Admission::Probe) => 1,
            Some(Admission::Allow) | None => self.max_lanes,
        };

        let queue = &mut self.groups[gi].1;
        let mut batch: Vec<Pending> = Vec::new();
        let mut i = 0;
        while i < queue.len() && batch.len() < cap {
            if ignore_backoff || queue[i].not_before <= now {
                batch.push(queue.remove(i).unwrap());
            } else {
                i += 1;
            }
        }
        debug_assert!(
            !batch.is_empty(),
            "dispatch on a group with no eligible lane"
        );
        let k = batch.len();
        self.pending_count -= k;

        // Pre-sample the per-lane fail point ONCE per dispatch, so the
        // bisection search re-derives the same panics from these marks
        // instead of drawing fresh randomness on every probe — that is
        // what makes the search deterministic and guarantees it converges
        // on the poison lane.
        let mut panic_marks = vec![false; k];
        let mut extra_us = 0u64;
        let mut outcomes: Vec<Option<LaneOutcome>> = (0..k).map(|_| None).collect();
        if let Some(inj) = &self.fault {
            for (i, p) in batch.iter().enumerate() {
                match inj.fire("serve.lane", Some(p.query.source())) {
                    Some(FaultAction::Panic) => panic_marks[i] = true,
                    Some(FaultAction::Transient) => outcomes[i] = Some(LaneOutcome::Transient),
                    Some(FaultAction::Latency(us)) => extra_us += us,
                    None => {}
                }
            }
        }

        // Execute the lanes not already marked transient, as one guarded
        // engine call that bisects on panic.  Traversal segments read the
        // snapshot pinned HERE, once per dispatch: every lane of the batch
        // (including bisection re-executions) observes one epoch,
        // bit-stable no matter what the writer path publishes meanwhile.
        let snap = self.graph.snapshot();
        let exec_idx: Vec<usize> = (0..k).filter(|&i| outcomes[i].is_none()).collect();
        let seg: Vec<(Query, bool)> = exec_idx
            .iter()
            .map(|&i| (batch[i].query, panic_marks[i]))
            .collect();
        let started = std::time::Instant::now();
        let mut panicked = false;
        if !seg.is_empty() {
            let resolved = self.run_bisecting(&snap, key, &seg, &mut panicked, true);
            for (slot, outcome) in exec_idx.into_iter().zip(resolved) {
                outcomes[slot] = Some(outcome);
            }
        }
        let exec_us = started.elapsed().as_micros() as u64 + extra_us;

        // Resolve each lane: complete, terminally fail, or requeue with
        // exponential backoff on the virtual clock.
        let mut tickets = Vec::with_capacity(k);
        let mut n_completed = 0usize;
        let mut n_failed = 0usize;
        let mut requeue: Vec<Pending> = Vec::new();
        for (mut p, outcome) in batch.iter().copied().zip(outcomes) {
            tickets.push(p.ticket);
            match outcome.expect("every lane resolves") {
                LaneOutcome::Done(result) => {
                    self.completed.insert(p.ticket, Ok(result));
                    n_completed += 1;
                }
                LaneOutcome::Poisoned => {
                    self.completed.insert(
                        p.ticket,
                        Err(QueryError::ExecutionFailed {
                            reason: FailureReason::Panicked,
                        }),
                    );
                    n_failed += 1;
                }
                LaneOutcome::Transient => {
                    p.attempts += 1;
                    if p.attempts > self.retry_max {
                        self.completed.insert(
                            p.ticket,
                            Err(QueryError::ExecutionFailed {
                                reason: FailureReason::RetriesExhausted {
                                    attempts: p.attempts,
                                },
                            }),
                        );
                        n_failed += 1;
                    } else {
                        p.not_before = now.after(self.backoff_base << (p.attempts - 1));
                        requeue.push(p);
                    }
                }
            }
        }
        let n_retried = requeue.len();
        for p in requeue {
            self.groups[gi].1.push_back(p);
            self.pending_count += 1;
        }

        self.stats.record_completed(n_completed);
        self.stats.record_failed(n_failed);
        self.stats.record_retry(n_retried);
        self.stats.record_batch(
            k,
            batch.iter().map(|p| now.0.saturating_sub(p.arrival.0)),
            self.pending_count,
        );

        // Compaction trigger rule: after a mutation dispatch, fold the log
        // once it is deep enough.  Runs OUTSIDE the lane machinery (never
        // inside a bisectable segment, so a panicking fold can never
        // double-apply deltas) under its own panic guard: a failing
        // compaction is contained, the log and the published epoch are
        // untouched, and the next mutation dispatch simply retries.
        if key == CoalescingKey::Mutate {
            if let Some(depth) = self.compact_after {
                if self.graph.delta_len() >= depth {
                    let guarded = catch_unwind(AssertUnwindSafe(|| {
                        self.graph.compact(self.graph.context())
                    }));
                    if let Ok(Ok(_report)) = guarded {
                        self.stats.record_compaction();
                        self.stats.record_epoch_published();
                    }
                }
            }
        }

        // Batch-level breaker accounting: any caught panic is a failure,
        // a panic-free dispatch is a success.  A trip sheds what is left
        // of the group's queue (typed completion, never a silent drop).
        if self.breaker_cfg.is_some() {
            if panicked {
                if let Some(until) = self.breaker_mut(key).on_failure(now) {
                    self.stats.record_breaker_trip();
                    self.shed_group(gi, until);
                }
            } else {
                self.breaker_mut(key).on_success();
            }
        }

        Some(BatchReport {
            key,
            lanes: k,
            exec_us,
            tickets,
        })
    }

    /// Execute `seg` (source, presampled-panic-mark pairs) as one guarded
    /// engine call; on panic, bisect into halves until the poison lane is
    /// a singleton.  Innocent lanes complete with their results; the
    /// culprit resolves [`LaneOutcome::Poisoned`]; a typed engine error
    /// resolves the whole segment [`LaneOutcome::Transient`].
    fn run_bisecting(
        &self,
        snap: &Snapshot,
        key: CoalescingKey,
        seg: &[(Query, bool)],
        panicked: &mut bool,
        top_level: bool,
    ) -> Vec<LaneOutcome> {
        if !top_level {
            self.stats.record_bisection_dispatch();
        }
        match self.run_segment(snap, key, seg) {
            SegmentOutcome::Done(lanes) => lanes.into_iter().map(LaneOutcome::Done).collect(),
            SegmentOutcome::Transient => seg.iter().map(|_| LaneOutcome::Transient).collect(),
            SegmentOutcome::Panicked => {
                *panicked = true;
                self.stats.record_panic_contained();
                if seg.len() == 1 {
                    vec![LaneOutcome::Poisoned]
                } else {
                    let mid = seg.len() / 2;
                    let mut outcomes = self.run_bisecting(snap, key, &seg[..mid], panicked, false);
                    outcomes.extend(self.run_bisecting(snap, key, &seg[mid..], panicked, false));
                    outcomes
                }
            }
        }
    }

    /// One guarded engine call over a lane segment.  The panic guard is
    /// what keeps a poisoned lane from taking the service down: pooled
    /// workspace buffers are owned `Vec`s (no lock is held across kernel
    /// execution), so unwinding through the engine leaves the context
    /// usable.
    ///
    /// Traversal segments read `snap` — the epoch pinned at dispatch.
    /// Mutation segments write the *live* graph: the fail points fire
    /// first and the whole segment then lands as one atomic
    /// [`Matrix::apply_deltas`] append, so under bisection each innocent
    /// lane's delta is applied exactly once (a marked or panicking segment
    /// aborts before anything is appended) and a transiently-failed
    /// segment retries without having applied anything.
    fn run_segment(
        &self,
        snap: &Snapshot,
        key: CoalescingKey,
        seg: &[(Query, bool)],
    ) -> SegmentOutcome {
        let result = catch_unwind(AssertUnwindSafe(|| {
            if seg.iter().any(|&(_, mark)| mark) {
                std::panic::panic_any(InjectedPanic {
                    point: "serve.lane",
                });
            }
            if let Some(inj) = &self.fault {
                match inj.fire("serve.batch", None) {
                    Some(FaultAction::Panic) => std::panic::panic_any(InjectedPanic {
                        point: "serve.batch",
                    }),
                    Some(FaultAction::Transient) => {
                        return Err(GrbError::FaultInjected {
                            point: "serve.batch",
                        })
                    }
                    Some(FaultAction::Latency(_)) | None => {}
                }
            }
            if key == CoalescingKey::Mutate {
                let deltas: Vec<EdgeDelta> = seg
                    .iter()
                    .map(|&(q, _)| match q {
                        Query::Mutate { delta } => delta,
                        _ => unreachable!("non-mutation query in a Mutate group"),
                    })
                    .collect();
                let epoch = self.graph.apply_deltas(&deltas)?;
                self.stats.record_mutations_applied(deltas.len());
                self.stats.record_epoch_published();
                return Ok(seg.iter().map(|_| QueryResult::Mutated { epoch }).collect());
            }
            let sources: Vec<usize> = seg.iter().map(|&(q, _)| q.source()).collect();
            try_execute_batch(snap, self.direction, key, &sources)
        }));
        match result {
            Ok(Ok(lanes)) => SegmentOutcome::Done(lanes),
            Ok(Err(_)) => SegmentOutcome::Transient,
            Err(_payload) => SegmentOutcome::Panicked,
        }
    }
}

/// Run one coalesced batch on the batched engine and split the `n × k`
/// result into per-lane [`QueryResult`]s (lane order = `sources` order).
/// A typed engine error (e.g. an injected transient at a core dispatch
/// point) fails the whole call — the service retries the lanes.
fn try_execute_batch(
    graph: &Matrix,
    direction: Direction,
    key: CoalescingKey,
    sources: &[usize],
) -> Result<Vec<QueryResult>, GrbError> {
    let k = sources.len();
    Ok(match key {
        CoalescingKey::Bfs => {
            let r = try_bfs_multi_dir(graph, sources, direction)?;
            let lanes = demux(r.levels, k).into_iter();
            lanes.map(|levels| QueryResult::Bfs { levels }).collect()
        }
        CoalescingKey::Sssp => {
            let r = try_sssp_multi_dir(graph, sources, direction)?;
            let lanes = demux(r.distances, k).into_iter();
            lanes
                .map(|distances| QueryResult::Sssp { distances })
                .collect()
        }
        CoalescingKey::Ppr {
            alpha_bits,
            iterations,
            fused,
        } => {
            let config = PprConfig {
                alpha: f32::from_bits(alpha_bits),
                iterations,
                fusion: if fused {
                    Fusion::Fused
                } else {
                    Fusion::NodeAtATime
                },
            };
            let r = try_ppr_multi_dir(graph, sources, &config, direction)?;
            let lanes = demux(r.scores, k).into_iter();
            lanes.map(|scores| QueryResult::Ppr { scores }).collect()
        }
        // Mutation segments never reach the batched read engine: the
        // service applies them on the live graph in `run_segment`.
        CoalescingKey::Mutate => unreachable!("mutations are applied by the writer path"),
    })
}

/// Node rows read per block of [`demux`]: `64 · k` elements stay in cache
/// while the `k` lanes each take their stride of them.
const DEMUX_BLOCK_ROWS: usize = 64;

/// Split a flat node-major `n × k` result matrix into its `k` lane vectors
/// in one pass over `flat` — a block of node rows at a time, each lane
/// copying its column of the block — rather than `k` strided walks of the
/// whole matrix.  A one-lane result is its own lane and is handed over as it
/// is.
fn demux<T: Copy>(flat: Vec<T>, k: usize) -> Vec<Vec<T>> {
    if k == 1 {
        return vec![flat];
    }
    let n = flat.len() / k;
    let mut lanes: Vec<Vec<T>> = (0..k).map(|_| Vec::with_capacity(n)).collect();
    for block in flat.chunks(DEMUX_BLOCK_ROWS * k) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            lane.extend(block[l..].iter().step_by(k));
        }
    }
    lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_algorithms::{bfs, ppr, sssp};
    use bitgblas_core::{Backend, TileSize};
    use bitgblas_datagen::generators;

    fn graph() -> Matrix {
        Matrix::from_csr(
            &generators::erdos_renyi(80, 0.05, true, 3),
            Backend::Bit(TileSize::S8),
        )
    }

    #[test]
    fn demux_equals_a_strided_walk_per_lane() {
        // 150 rows: two whole blocks and a ragged third.
        let n = 2 * DEMUX_BLOCK_ROWS + 22;
        for k in [1usize, 2, 16, 48, 64, 65] {
            let flat: Vec<i64> = (0..n * k).map(|f| (f as i64 * 7) % 1001 - 3).collect();
            let want: Vec<Vec<i64>> = (0..k)
                .map(|l| flat.iter().skip(l).step_by(k).copied().collect())
                .collect();
            assert_eq!(demux(flat, k), want, "k = {k}");
        }
        assert_eq!(demux(Vec::<f32>::new(), 3), vec![Vec::<f32>::new(); 3]);
    }

    #[test]
    fn window_close_dispatches_a_lone_query() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(100).build();
        let t = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
        // Before the window closes nothing is ready.
        assert!(svc.pump(Tick(99)).is_empty());
        assert_eq!(svc.take_result(t), None);
        assert_eq!(svc.next_event_time(), Some(Tick(100)));
        // At the close it dispatches as a 1-lane batch.
        let reports = svc.pump(Tick(100));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].lanes, 1);
        let got = svc.take_result(t).unwrap().unwrap();
        assert_eq!(
            got,
            QueryResult::Bfs {
                levels: bfs(&g, 0).levels
            }
        );
    }

    #[test]
    fn full_batch_dispatches_before_the_window() {
        let g = graph();
        let mut svc = GraphService::builder(&g)
            .max_lanes(4)
            .coalescing_window(1_000_000)
            .build();
        let tickets: Vec<Ticket> = (0..9)
            .map(|i| svc.submit(Query::sssp(i), Tick(i as u64), None).unwrap())
            .collect();
        // 9 pending, cap 4: two full batches are ready, one remainder waits.
        let reports = svc.pump(Tick(10));
        assert_eq!(reports.iter().map(|r| r.lanes).collect::<Vec<_>>(), [4, 4]);
        assert_eq!(svc.pending_len(), 1);
        // FIFO: the first 8 tickets completed, the 9th still pending.
        for &t in &tickets[..8] {
            assert!(svc.take_result(t).is_some());
        }
        assert!(svc.take_result(tickets[8]).is_none());
        // The remainder leaves on flush.
        let drained = svc.flush(Tick(11));
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].lanes, 1);
        assert!(svc.is_idle());
    }

    #[test]
    fn incompatible_queries_do_not_share_a_batch() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(10).build();
        let _ = svc.submit(Query::bfs(1), Tick(0), None).unwrap();
        let _ = svc.submit(Query::sssp(1), Tick(0), None).unwrap();
        let _ = svc.submit(Query::ppr(1), Tick(0), None).unwrap();
        let _ = svc.submit(Query::bfs(2), Tick(0), None).unwrap();
        let reports = svc.pump(Tick(10));
        assert_eq!(reports.len(), 3, "three coalescing groups");
        let bfs_batch = reports
            .iter()
            .find(|r| r.key == CoalescingKey::Bfs)
            .unwrap();
        assert_eq!(bfs_batch.lanes, 2, "the two BFS queries coalesced");
    }

    #[test]
    fn results_match_standalone_runs() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(5).build();
        let tb = svc.submit(Query::bfs(7), Tick(0), None).unwrap();
        let ts = svc.submit(Query::sssp(7), Tick(0), None).unwrap();
        let tp = svc.submit(Query::ppr(7), Tick(0), None).unwrap();
        svc.pump(Tick(5));
        match svc.take_result(tb).unwrap().unwrap() {
            QueryResult::Bfs { levels } => assert_eq!(levels, bfs(&g, 7).levels),
            other => panic!("wrong result kind {other:?}"),
        }
        match svc.take_result(ts).unwrap().unwrap() {
            QueryResult::Sssp { distances } => {
                assert_eq!(distances, sssp(&g, 7).distances)
            }
            other => panic!("wrong result kind {other:?}"),
        }
        match svc.take_result(tp).unwrap().unwrap() {
            QueryResult::Ppr { scores } => {
                assert_eq!(scores, ppr(&g, 7, &PprConfig::default()).scores)
            }
            other => panic!("wrong result kind {other:?}"),
        }
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let g = graph();
        let mut svc = GraphService::builder(&g)
            .queue_capacity(2)
            .coalescing_window(100)
            .build();
        let _ = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
        let _ = svc.submit(Query::bfs(1), Tick(0), None).unwrap();
        let err = svc.submit(Query::bfs(2), Tick(0), None).unwrap_err();
        assert_eq!(err, SubmitError::QueueFull { capacity: 2 });
        // Dispatch frees the slots.
        svc.pump(Tick(100));
        assert!(svc.submit(Query::bfs(2), Tick(101), None).is_ok());
        let s = svc.stats().snapshot();
        assert_eq!(s.rejected_queue_full, 1);
        assert_eq!(s.enqueued, 3);
    }

    #[test]
    fn bad_submissions_are_refused() {
        let g = graph();
        let mut svc = GraphService::builder(&g).build();
        assert_eq!(
            svc.submit(Query::bfs(999), Tick(0), None).unwrap_err(),
            SubmitError::SourceOutOfRange { source: 999, n: 80 }
        );
        assert_eq!(
            svc.submit(Query::bfs(0), Tick(5), Some(Tick(5)))
                .unwrap_err(),
            SubmitError::DeadlineBeforeSubmission {
                deadline: Tick(5),
                now: Tick(5)
            }
        );
        assert_eq!(svc.stats().snapshot().rejected_bad_deadline, 1);
    }

    #[test]
    fn deadline_due_dispatches_early_and_takes_batchmates_along() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(1000).build();
        let urgent = svc.submit(Query::bfs(0), Tick(0), Some(Tick(50))).unwrap();
        let casual = svc.submit(Query::bfs(1), Tick(10), None).unwrap();
        // Well before the 1000-tick window, the deadline forces dispatch —
        // and the compatible casual query rides along (occupancy 2).
        assert_eq!(svc.next_event_time(), Some(Tick(50)));
        assert!(svc.pump(Tick(49)).is_empty());
        let reports = svc.pump(Tick(50));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].lanes, 2);
        assert!(svc.take_result(urgent).unwrap().is_ok());
        assert!(svc.take_result(casual).unwrap().is_ok());
        assert_eq!(svc.stats().snapshot().deadline_misses, 0);
    }

    #[test]
    fn stats_track_occupancy_and_waits() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(64).build();
        let _ = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
        let _ = svc.submit(Query::bfs(1), Tick(32), None).unwrap();
        svc.pump(Tick(64));
        let _ = svc.submit(Query::sssp(2), Tick(100), None).unwrap();
        svc.pump(Tick(164));
        let s = svc.stats().snapshot();
        assert_eq!(s.batches_dispatched, 2);
        assert_eq!(s.lanes_dispatched, 3);
        assert_eq!(s.max_batch_lanes, 2);
        assert_eq!(s.completed, 3);
        assert!(s.is_conserved());
        assert!((s.mean_batch_occupancy() - 1.5).abs() < 1e-12);
        // Waits 64, 32, 64 → p50/p99 in the [64, 128) bucket.
        assert_eq!(s.wait_p50(), 128);
        assert_eq!(s.wait_p99(), 128);
        assert_eq!(s.queue_depth, 0);
        assert_eq!(s.peak_queue_depth, 2);
    }

    #[test]
    fn mutations_coalesce_and_publish_one_epoch_per_batch() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(10).build();
        let ta = svc
            .submit(Query::insert_edge(0, 79), Tick(0), None)
            .unwrap();
        let tb = svc
            .submit(Query::insert_edge(79, 0), Tick(0), None)
            .unwrap();
        let tc = svc
            .submit(Query::delete_edge(0, 79), Tick(0), None)
            .unwrap();
        let reports = svc.pump(Tick(10));
        assert_eq!(reports.len(), 1, "mutations coalesce into one batch");
        assert_eq!(reports[0].key, CoalescingKey::Mutate);
        assert_eq!(reports[0].lanes, 3);
        // One atomic append → every lane resolves the same epoch.
        for t in [ta, tb, tc] {
            assert_eq!(
                svc.take_result(t).unwrap().unwrap(),
                QueryResult::Mutated { epoch: 1 }
            );
        }
        // Last-op-wins within the batch: (0,79) inserted then deleted.
        let snap = g.snapshot();
        assert!(snap.csr().get(79, 0).is_some());
        assert!(snap.csr().get(0, 79).is_none());
        let s = svc.stats().snapshot();
        assert_eq!(s.mutations_applied, 3);
        assert_eq!(s.epochs_published, 1);
        assert!(s.is_conserved());
    }

    #[test]
    fn traversals_read_the_snapshot_pinned_at_their_own_dispatch() {
        // A directed chain 0→1→2 with vertex 3 unreachable from 0.
        let mut coo = bitgblas_sparse::Coo::new(8, 8);
        coo.push_edge(0, 1).unwrap();
        coo.push_edge(1, 2).unwrap();
        let g = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S8));
        let baseline = bfs(&g, 0).levels;
        assert_eq!(baseline[3], -1);
        let mut svc = GraphService::builder(&g).coalescing_window(0).build();
        // Dispatch a BFS, then a mutation, then another BFS: the first read
        // must match the pre-mutation graph, the second the post-mutation
        // one — each dispatch pins its own epoch.
        let t1 = svc.submit(Query::bfs(0), Tick(0), None).unwrap();
        svc.pump(Tick(0));
        let tm = svc.submit(Query::insert_edge(0, 3), Tick(1), None).unwrap();
        let t2 = svc.submit(Query::bfs(0), Tick(1), None).unwrap();
        svc.pump(Tick(1));
        match svc.take_result(t1).unwrap().unwrap() {
            QueryResult::Bfs { levels } => assert_eq!(levels, baseline),
            other => panic!("wrong result kind {other:?}"),
        }
        assert!(svc.take_result(tm).unwrap().is_ok());
        match svc.take_result(t2).unwrap().unwrap() {
            QueryResult::Bfs { levels } => {
                assert_eq!(levels[3], 1, "post-mutation read sees the edge")
            }
            other => panic!("wrong result kind {other:?}"),
        }
        // The live handle itself still reads its construction-time view.
        assert_eq!(bfs(&g, 0).levels, baseline);
    }

    #[test]
    fn compact_after_folds_the_log_on_the_writer_path() {
        let g = graph();
        let mut svc = GraphService::builder(&g)
            .coalescing_window(0)
            .compact_after(2)
            .build();
        let _ = svc.submit(Query::insert_edge(1, 0), Tick(0), None).unwrap();
        svc.pump(Tick(0));
        // One pending delta: below the threshold, no fold.
        assert_eq!(g.delta_len(), 1);
        assert_eq!(svc.stats().snapshot().compactions, 0);
        let _ = svc.submit(Query::insert_edge(2, 0), Tick(1), None).unwrap();
        svc.pump(Tick(1));
        assert_eq!(g.delta_len(), 0, "threshold reached, log folded");
        let s = svc.stats().snapshot();
        assert_eq!(s.compactions, 1);
        assert_eq!(s.epochs_published, 3); // two mutation batches + one fold
        assert!(g.snapshot().b2sr().is_some(), "compaction re-tiled");
    }

    #[test]
    fn mutate_submissions_validate_both_endpoints() {
        let g = graph();
        let mut svc = GraphService::builder(&g).build();
        assert_eq!(
            svc.submit(Query::insert_edge(999, 0), Tick(0), None)
                .unwrap_err(),
            SubmitError::SourceOutOfRange { source: 999, n: 80 }
        );
        assert_eq!(
            svc.submit(Query::insert_edge(0, 999), Tick(0), None)
                .unwrap_err(),
            SubmitError::SourceOutOfRange { source: 999, n: 80 }
        );
    }

    #[test]
    fn repeated_sources_each_get_their_own_lane() {
        let g = graph();
        let mut svc = GraphService::builder(&g).coalescing_window(1).build();
        let a = svc.submit(Query::bfs(5), Tick(0), None).unwrap();
        let b = svc.submit(Query::bfs(5), Tick(0), None).unwrap();
        svc.pump(Tick(1));
        let ra = svc.take_result(a).unwrap().unwrap();
        let rb = svc.take_result(b).unwrap().unwrap();
        assert_eq!(ra, rb);
    }
}
