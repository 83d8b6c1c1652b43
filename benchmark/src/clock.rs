//! The virtual-clock open-loop replay.
//!
//! Arrivals carry their due time, so the generator is never late.  One
//! server handles everything: it is busy for the cost of every `submit`,
//! `pump` and `collect` call the driver makes (for the real service, the
//! measured wall time of that call — admission and demux are charged, not
//! only `BatchReport::exec_us`), and idle virtual time costs no wall time.
//! A ticket's latency runs from its due time to the moment the `pump` that
//! dispatched its batch returned.
//!
//! Limits of the model: one server and no network; a submit that arrives
//! while the server is busy is admitted when the server gets to it but keeps
//! its due time as arrival stamp; virtual time has the service's 1 µs tick
//! for scheduling decisions and nanoseconds for costs.

/// What the replay drives: the real service behind an adapter that times
/// each call, or a stub with fixed costs.
pub trait Server<Q> {
    /// Admit `query` with arrival stamp `due_us`.  Returns the ticket, or
    /// `None` when refused, and the call's cost in nanoseconds.
    fn submit(&mut self, query: Q, due_us: u64) -> (Option<u64>, u64);
    /// The earliest tick at which a pending batch becomes ready.
    fn next_event_us(&self) -> Option<u64>;
    /// Dispatch every batch ready at `now_us`.  Returns the tickets of each
    /// batch, in dispatch order, and the call's cost in nanoseconds.
    fn pump(&mut self, now_us: u64) -> (Vec<Vec<u64>>, u64);
    /// Redeem a dispatched ticket; returns the call's cost in nanoseconds.
    fn collect(&mut self, ticket: u64) -> u64;
}

/// When to stop admitting arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// After this many arrivals.
    Count(usize),
    /// Once this much wall time has passed since the replay began.
    Seconds(f64),
}

impl Limit {
    /// Whether a phase that has done `done` units since `began` may start
    /// another.
    pub fn allows(self, done: usize, began: std::time::Instant) -> bool {
        match self {
            Limit::Count(n) => done < n,
            Limit::Seconds(s) => began.elapsed().as_secs_f64() < s,
        }
    }
}

/// The times of one admitted ticket, nanoseconds of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TicketTimes {
    /// The ticket.
    pub ticket: u64,
    /// When it was due.
    pub due_ns: u64,
    /// The tick its batch was dispatched at.
    pub dispatch_ns: u64,
    /// When the dispatching `pump` returned.
    pub resolved_ns: u64,
}

/// One `pump` call that dispatched something.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PumpTimes {
    /// Lanes of each batch the call dispatched.
    pub lanes: Vec<usize>,
    /// Cost of the call, nanoseconds.
    pub cost_ns: u64,
}

/// What a replay observed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Replay {
    /// Admitted tickets in resolution order.
    pub tickets: Vec<TicketTimes>,
    /// Pump calls in order.
    pub pumps: Vec<PumpTimes>,
    /// Cost of every submit call, nanoseconds.
    pub submit_ns: Vec<u64>,
    /// Cost of every collect call, nanoseconds.
    pub collect_ns: Vec<u64>,
    /// Arrivals the server refused.
    pub refused: usize,
    /// Arrivals offered.
    pub offered: usize,
    /// Time the server was busy, nanoseconds.
    pub busy_ns: u64,
    /// First due time to last resolution, nanoseconds.
    pub span_ns: u64,
}

impl Replay {
    /// Busy share of the span.
    pub fn utilization(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.span_ns as f64
        }
    }
}

/// Replay `arrivals` (due time in nanoseconds, query) against `server`
/// until `limit`, then let the queue empty.
pub fn replay<Q, S: Server<Q>>(
    server: &mut S,
    arrivals: impl IntoIterator<Item = (u64, Q)>,
    limit: Limit,
) -> Replay {
    let wall = std::time::Instant::now();
    let mut arrivals = arrivals.into_iter();
    let mut out = Replay::default();
    let mut due_of: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut first_due_ns = None;
    let mut free_ns = 0u64;
    let more = |offered: usize| limit.allows(offered, wall);
    let mut next = if more(0) { arrivals.next() } else { None };
    loop {
        // A ready batch cannot start before the server is free.
        let dispatch_us = server
            .next_event_us()
            .map(|e| e.max(free_ns.div_ceil(1000)));
        let arrival_first = match (&next, dispatch_us) {
            (None, None) => break,
            (Some(_), None) => true,
            (Some((due_ns, _)), Some(d)) => due_ns / 1000 <= d,
            (None, Some(_)) => false,
        };
        if arrival_first {
            let (due_ns, query) = next.take().expect("checked above");
            first_due_ns.get_or_insert(due_ns);
            out.offered += 1;
            let (ticket, cost_ns) = server.submit(query, due_ns / 1000);
            match ticket {
                Some(t) => {
                    due_of.insert(t, due_ns);
                }
                None => out.refused += 1,
            }
            out.submit_ns.push(cost_ns);
            out.busy_ns += cost_ns;
            free_ns = free_ns.max(due_ns) + cost_ns;
            next = if more(out.offered) {
                arrivals.next()
            } else {
                None
            };
        } else {
            let now_us = dispatch_us.expect("checked above");
            let (batches, cost_ns) = server.pump(now_us);
            let dispatch_ns = now_us * 1000;
            let resolved_ns = dispatch_ns + cost_ns;
            out.busy_ns += cost_ns;
            free_ns = resolved_ns;
            if batches.is_empty() {
                // Nothing was ready after all (a stub may do this); step
                // past the event so the loop cannot spin.
                free_ns += 1000;
                continue;
            }
            out.pumps.push(PumpTimes {
                lanes: batches.iter().map(Vec::len).collect(),
                cost_ns,
            });
            for ticket in batches.into_iter().flatten() {
                if let Some(due_ns) = due_of.remove(&ticket) {
                    out.tickets.push(TicketTimes {
                        ticket,
                        due_ns,
                        dispatch_ns,
                        resolved_ns,
                    });
                }
                let c = server.collect(ticket);
                out.collect_ns.push(c);
                out.busy_ns += c;
                free_ns += c;
            }
        }
    }
    let end_ns = out.tickets.iter().map(|t| t.resolved_ns).max().unwrap_or(0);
    out.span_ns = end_ns.saturating_sub(first_due_ns.unwrap_or(0));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A server that batches everything queued once the oldest query has
    /// waited `window_us`, and whose every call has a fixed cost.
    struct Stub {
        window_us: u64,
        submit_ns: u64,
        pump_ns: u64,
        collect_ns: u64,
        queue: VecDeque<(u64, u64)>,
        next_ticket: u64,
    }

    impl Server<()> for Stub {
        fn submit(&mut self, _q: (), due_us: u64) -> (Option<u64>, u64) {
            let t = self.next_ticket;
            self.next_ticket += 1;
            self.queue.push_back((t, due_us));
            (Some(t), self.submit_ns)
        }
        fn next_event_us(&self) -> Option<u64> {
            self.queue.front().map(|&(_, due)| due + self.window_us)
        }
        fn pump(&mut self, now_us: u64) -> (Vec<Vec<u64>>, u64) {
            assert!(self.next_event_us().is_some_and(|e| e <= now_us));
            let batch: Vec<u64> = self.queue.drain(..).map(|(t, _)| t).collect();
            (vec![batch], self.pump_ns)
        }
        fn collect(&mut self, _ticket: u64) -> u64 {
            self.collect_ns
        }
    }

    #[test]
    fn reproduces_hand_computed_latencies_and_utilization() {
        let mut stub = Stub {
            window_us: 500,
            submit_ns: 1_000,
            pump_ns: 10_000_000,
            collect_ns: 2_000,
            queue: VecDeque::new(),
            next_ticket: 0,
        };
        // Due at 0 ms, 1 ms, 20 ms (virtual).
        let arrivals = [0u64, 1_000_000, 20_000_000].map(|d| (d, ()));
        let r = replay(&mut stub, arrivals, Limit::Count(3));

        // Ticket 0: alone when its window closes at 0.5 ms; the pump takes
        // 10 ms, so it resolves at 10.5 ms: latency 10.5 ms.
        // Ticket 1: due at 1 ms while the server is busy until 10.502 ms
        // (pump + one collect); admitted then (1 µs), its window closed long
        // ago, so it dispatches at the next whole tick, 10 503 µs, and
        // resolves at 20.503 ms: latency 19.503 ms, queue wait 9.503 ms.
        // Ticket 2: due at 20 ms, admitted at 20.505 ms once the server is
        // free (second pump ended 20.503, collect 0.002); its window closed
        // at 20.5 ms, dispatch at tick 20 506 µs, resolved at 30.506 ms:
        // latency 10.506 ms.
        let lat: Vec<u64> = r.tickets.iter().map(|t| t.resolved_ns - t.due_ns).collect();
        assert_eq!(lat, vec![10_500_000, 19_503_000, 10_506_000]);
        let wait: Vec<u64> = r.tickets.iter().map(|t| t.dispatch_ns - t.due_ns).collect();
        assert_eq!(wait, vec![500_000, 9_503_000, 506_000]);
        assert_eq!(r.pumps.len(), 3);
        assert!(r.pumps.iter().all(|p| p.lanes == vec![1]));
        assert_eq!((r.offered, r.refused), (3, 0));
        // Busy: 3 submits + 3 pumps + 3 collects.
        assert_eq!(r.busy_ns, 3 * 1_000 + 3 * 10_000_000 + 3 * 2_000);
        // Span: first due (0) to last resolution (30.506 ms).
        assert_eq!(r.span_ns, 30_506_000);
        assert!((r.utilization() - 30_009_000.0 / 30_506_000.0).abs() < 1e-12);
    }

    #[test]
    fn arrivals_due_before_a_dispatch_share_its_batch() {
        let mut stub = Stub {
            window_us: 500,
            submit_ns: 0,
            pump_ns: 1_000_000,
            collect_ns: 0,
            queue: VecDeque::new(),
            next_ticket: 0,
        };
        // Two arrivals inside one window, a third long after.
        let arrivals = [0u64, 400_000, 5_000_000].map(|d| (d, ()));
        let r = replay(&mut stub, arrivals, Limit::Count(3));
        let lanes: Vec<Vec<usize>> = r.pumps.iter().map(|p| p.lanes.clone()).collect();
        assert_eq!(lanes, vec![vec![2], vec![1]]);
        // Both resolve when the first pump returns, at 0.5 + 1 ms.
        assert_eq!(r.tickets[0].resolved_ns, 1_500_000);
        assert_eq!(r.tickets[1].resolved_ns - r.tickets[1].due_ns, 1_100_000);
        // Idle virtual time is not busy time.
        assert_eq!(r.busy_ns, 2_000_000);
    }

    #[test]
    fn count_limit_stops_admission() {
        let mut stub = Stub {
            window_us: 0,
            submit_ns: 0,
            pump_ns: 1,
            collect_ns: 0,
            queue: VecDeque::new(),
            next_ticket: 0,
        };
        let arrivals = (1..).map(|i| (i * 1_000_000u64, ()));
        let r = replay(&mut stub, arrivals, Limit::Count(5));
        assert_eq!((r.offered, r.tickets.len()), (5, 5));
    }
}
