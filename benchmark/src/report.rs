//! What a run prints and writes, and the `compare` subcommand.

use std::fmt::Write as _;
use std::process::Command;

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats::{median, quartiles, spread};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Quartiles of the in-run samples behind the value, and their count.
    pub detail: Option<(f64, f64, usize)>,
    /// The value as measured, where the reported one is scaled to the
    /// reference speed.
    pub unscaled: Option<f64>,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// CPUs this thread may run on right now.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Host facts recorded with every result: timings compare only between
/// runs on one host.  `host_cores` is the count before a run pinned itself.
pub fn host_facts(host_cores: usize) -> Value {
    let mut h = Value::object();
    h.insert("host_cores", Value::Num(host_cores as f64));
    h.insert("rustc", Value::Str(first_line_of("rustc", &["--version"])));
    h.insert(
        "commit",
        Value::Str(first_line_of("git", &["rev-parse", "HEAD"])),
    );
    h
}

/// The `workload metric value unit` lines.
pub fn metric_lines(workload: &str, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        write!(out, "{workload} {} {} {}", m.name, m.value, m.unit).expect("write to String");
        if let Some(raw) = m.unscaled {
            write!(out, " [measured {raw}").expect("write to String");
            if let Some((q1, q3, n)) = m.detail {
                write!(out, " q1 {q1} q3 {q3} n {n}").expect("write to String");
            }
            out.push(']');
        }
        out.push('\n');
    }
    out
}

/// `{name: {"value": v, "unit": u}}`, the `metrics` member of the result
/// line.
pub fn metrics_object(metrics: &[Metric]) -> Value {
    let mut o = Value::object();
    for m in metrics {
        let mut v = Value::object();
        v.insert("value", Value::Num(m.value));
        v.insert("unit", Value::Str(m.unit.to_string()));
        o.insert(m.name, v);
    }
    o
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut o = Value::object();
    o.insert("correct", Value::Bool(correct));
    o.insert("attempted", Value::Num(attempted as f64));
    o.insert("failed", Value::Num(failed as f64));
    o.insert("metrics", metrics_object(metrics));
    o.to_line()
}

/// The values of `workload`'s `metric` in a result file written by `run`.
fn values_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.items().iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// How `b` reads against `a` on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` wins nine tenths of the paired runs and the medians differ by
    /// more than `a`'s own interquartile range, or every run of `b` beats
    /// every run of `a`.
    Better,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// Neither.
    Unchanged,
    /// The run-to-run spread of either side is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge `b` against `a` (the base) by the rule of the choosing-metrics
/// guide, §6.5 and §8.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    if b.iter().all(|&x| a.iter().all(|&y| beats(x, y))) {
        return Verdict::Better;
    }
    if spread(a) > bound || spread(b) > bound {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma,
        Better::Higher => (ma - mb) / ma,
    };
    if worse_by > bound {
        return Verdict::Worse;
    }
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let ties = (0..pairs).filter(|&i| b[i] == a[i]).count();
    let (q1, q3) = quartiles(a);
    if pairs > ties && wins * 10 >= (pairs - ties) * 9 && (mb - ma).abs() > q3 - q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// The `compare A.json B.json` table; the flag says whether any pairing
/// read `worse`.
pub fn compare(a: &Value, b: &Value) -> (String, bool) {
    let mut out = String::new();
    let mut any_worse = false;
    writeln!(
        out,
        "workload metric unit | A median [q1 q3] n | B median [q1 q3] n | B/A | verdict (bound)"
    )
    .expect("write to String");
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            any_worse |= v == Verdict::Worse;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{} [{} {}] {}", median(v), q1, q3, v.len())
            };
            let ratio = if va.is_empty() || median(&va) == 0.0 {
                f64::NAN
            } else {
                median(&vb) / median(&va)
            };
            writeln!(
                out,
                "{} {} {} | {} | {} | {:.4} of A | {} ({})",
                w.name,
                m.name,
                m.unit,
                side(&va),
                side(&vb),
                ratio,
                v.as_str(),
                m.bound
            )
            .expect("write to String");
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            &[Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
                detail: None,
                unscaled: None,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"setup_s": {"value": 0.8127, "unit": "s"}}}"#
        );
    }

    #[test]
    fn verdicts_follow_the_guide() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let shifted = |k: f64| base.map(|x| x * k);
        let lower = Better::Lower;
        assert_eq!(verdict(&base, &base, lower, 0.1), Verdict::Unchanged);
        assert_eq!(verdict(&base, &shifted(1.2), lower, 0.1), Verdict::Worse);
        assert_eq!(verdict(&base, &shifted(0.5), lower, 0.1), Verdict::Better);
        // 3 % faster on every pair, more than the base's own spread.
        assert_eq!(verdict(&base, &shifted(0.97), lower, 0.1), Verdict::Better);
        // A gain hidden in noise wider than the bound stays unresolved.
        let noisy = [10.0, 14.0, 7.0, 12.0, 9.0, 15.0, 6.0, 11.0, 10.0, 13.0];
        assert_eq!(
            verdict(&noisy, &shifted(0.95), lower, 0.1),
            Verdict::Unresolved
        );
        // Higher-is-better flips the direction.
        assert_eq!(
            verdict(&base, &shifted(0.8), Better::Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &shifted(2.0), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(verdict(&[], &base, lower, 0.1), Verdict::Unresolved);
    }

    #[test]
    fn compare_prints_one_row_per_reported_pairing() {
        let file = |scale: f64| {
            let text = format!(
                r#"{{"workloads": {{"rmat_read": {{"end_to_end": {{
                    "bfs_ms": {{"unit": "ms", "values": [{}, {}, {}]}}}}}}}}}}"#,
                10.0 * scale,
                10.1 * scale,
                9.9 * scale
            );
            crate::json::parse(&text).unwrap()
        };
        let (table, worse) = compare(&file(1.0), &file(1.5));
        assert!(worse);
        let rows: Vec<&str> = table.lines().skip(1).collect();
        assert_eq!(rows.len(), 1);
        assert!(rows[0].starts_with("rmat_read bfs_ms ms | 10 ["));
        assert!(rows[0].contains("1.5000 of A") && rows[0].ends_with("worse (0.25)"));
        assert!(!compare(&file(1.0), &file(1.0)).1);
    }
}
