//! Spans recorded by the benchmark around the calls it makes into a layer.
//!
//! Every timed call goes through [`Tracer::time`], traced or not, so the
//! traced and untraced runs read the clocks at the same places; recording
//! only adds the push onto an in-memory vector.  Spans inside the engine
//! are a later change (ROADMAP item 2).
//!
//! A span lies on the wall clock; the duration [`Tracer::time`] hands back,
//! which is what every metric is made of, is the process's CPU time inside
//! the span (see [`crate::host`] for why).

use std::time::{Duration, Instant};

use crate::host::clock;
use crate::json::Value;

/// Index of a recorded span (its position in the trace file).
pub type SpanId = u32;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, or a phase / unit name for the enclosing spans.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// CPU time the process used inside the span, nanoseconds (the wall
    /// time where the host has no such clock, and for the sub-microsecond
    /// calls timed with [`Tracer::time_wall`]).
    pub cpu_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The round, unit or ticket the span belongs to.
    pub op: u64,
}

/// Collects spans in memory; [`Tracer::to_json`] writes them out when the
/// workload ends.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are recorded (durations are always measured).
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Wall and CPU time inside [`Tracer::time`] calls so far.
    timed: (Duration, Duration),
}

impl Tracer {
    /// A tracer that records spans iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            timed: (Duration::ZERO, Duration::ZERO),
        }
    }

    /// Wall time of all [`Tracer::time`] calls so far over their CPU time:
    /// 1 on a host that leaves the process alone, as long as nothing inside
    /// the timed calls waits.
    pub fn wall_per_cpu(&self) -> f64 {
        let (wall, cpu) = self.timed;
        if cpu.is_zero() {
            1.0
        } else {
            wall.as_secs_f64() / cpu.as_secs_f64()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open an enclosing span (a phase, a round, a unit).  Returns `None`
    /// when not recording.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            // The CPU clock at the start, until `close` makes it a duration.
            cpu_ns: clock().as_nanos() as u64,
            parent,
            op,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let cpu_now = clock().as_nanos() as u64;
            let span = &mut self.spans[id as usize];
            span.end_ns = end_ns;
            span.cpu_ns = cpu_now.saturating_sub(span.cpu_ns);
        }
    }

    /// Run `f` and return the CPU time it took (its wall time where the
    /// host has no CPU clock); record it as a leaf span when recording.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let cpu_start = clock();
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        let took = clock().saturating_sub(cpu_start);
        self.timed.0 += wall;
        self.timed.1 += took;
        self.record(name, parent, op, start, wall, took);
        (out, took)
    }

    /// As [`Tracer::time`] on the wall clock alone, for calls that take
    /// about as long as reading the CPU clock does (a microsecond).
    pub fn time_wall<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let wall = start.elapsed();
        self.record(name, parent, op, start, wall, wall);
        (out, wall)
    }

    fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        start: Instant,
        wall: Duration,
        cpu: Duration,
    ) {
        if self.enabled {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + wall.as_nanos() as u64,
                cpu_ns: cpu.as_nanos() as u64,
                parent,
                op,
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let d = s.end_ns.saturating_sub(s.start_ns);
                own[p as usize] = own[p as usize].saturating_sub(d);
            }
        }
        own
    }

    /// The trace file: `{"spans": [{name, start_ns, end_ns, cpu_ns, parent, op}, …]}`.
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = Value::object();
                o.insert("name", Value::Str(s.name.to_string()));
                o.insert("start_ns", Value::Num(s.start_ns as f64));
                o.insert("end_ns", Value::Num(s.end_ns as f64));
                o.insert("cpu_ns", Value::Num(s.cpu_ns as f64));
                o.insert(
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                );
                o.insert("op", Value::Num(s.op as f64));
                o
            })
            .collect();
        let mut root = Value::object();
        root.insert("spans", Value::Arr(spans));
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let round = t.open("round", None, 7);
        let ((), a) = t.time("algorithms.bfs", round, 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let ((), b) = t.time("algorithms.sssp", round, 7, || {
            std::thread::sleep(Duration::from_millis(1))
        });
        t.close(round);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].op, 7);
        let total = spans[0].end_ns - spans[0].start_ns;
        let wall = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert!(wall(1) >= 2_000_000 && wall(2) >= 1_000_000);
        let own = t.self_times_ns();
        assert_eq!(own[0], total - wall(1) - wall(2));
        assert_eq!(own[1], wall(1));
        // The duration handed back is the span's CPU time.
        assert_eq!(
            (a, b),
            (
                Duration::from_nanos(spans[1].cpu_ns),
                Duration::from_nanos(spans[2].cpu_ns)
            )
        );
        // The CPU clock counts every thread of the process, the test
        // harness's other threads too, so the ratio has no lower bound here.
        assert!(t.wall_per_cpu() > 0.0);
        assert_eq!(t.to_json().get("spans").unwrap().items().len(), 3);
    }

    #[test]
    fn untraced_runs_measure_but_record_nothing() {
        let mut t = Tracer::new(false);
        let id = t.open("round", None, 0);
        assert_eq!(id, None);
        let (v, took) = t.time("x", id, 0, || 41 + 1);
        t.close(id);
        assert_eq!(v, 42);
        assert!(took.as_nanos() > 0 || took.is_zero());
        assert!(t.spans().is_empty());
    }
}
