//! `BENCHMARK.json` against the contract's limits, against the tables in
//! `spec`, and against what a run actually emits.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use bitgblas_benchmark::json::{self, Value};
use bitgblas_benchmark::spec;

fn manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn keys(v: &Value) -> Vec<&str> {
    v.entries().iter().map(|(k, _)| k.as_str()).collect()
}

fn name_ok(n: &str) -> bool {
    n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn manifest_meets_the_contract() {
    let m = manifest();
    assert_eq!(
        keys(&m),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command: Vec<&str> = m
        .get("command")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!((1..=32).contains(&command.len()));
    assert!(command
        .iter()
        .all(|c| c.len() <= 200 && !c.starts_with('/') && !c.contains("..")));
    let paths: Vec<&str> = m
        .get("paths")
        .unwrap()
        .items()
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    // The command names no file of the repo outside `paths`.
    assert!(command
        .iter()
        .filter(|c| c.contains('/'))
        .all(|c| c.starts_with("benchmark/")));
    let seconds = m.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let workloads = m.get("workloads").unwrap().items();
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = m.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&end_to_end.len()));
    let per_layer = m.get("per_layer").unwrap().items();
    assert!((1..=128).contains(&per_layer.len()));

    // 4 + 22 × workloads runs, set-up and two builds within 3420 s: leave
    // ten seconds a run for set-up, oracle work and ingest, and two minutes
    // for the builds.
    let runs = 4.0 + 22.0 * workloads.len() as f64;
    assert!(runs * (seconds + 10.0) + 120.0 <= 3420.0);

    let mut names = BTreeSet::new();
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(names.insert(text(w, "name")));
    }
    for e in end_to_end {
        assert_eq!(keys(e), ["name", "unit", "better", "bound"]);
        let bound = e.get("bound").and_then(Value::as_f64).unwrap();
        assert!((0.0..=0.25).contains(&bound));
        assert!(names.insert(text(e, "name")));
    }
    for l in per_layer {
        assert_eq!(keys(l), ["name", "unit", "better"]);
        assert!(
            names.insert(text(l, "name")),
            "{} is used twice",
            text(l, "name")
        );
    }
    assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
    for metric in end_to_end.iter().chain(per_layer) {
        assert!(unit_ok(text(metric, "unit")), "{metric:?}");
        assert!(["lower", "higher"].contains(&text(metric, "better")));
    }

    let setup = end_to_end
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|e| e.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
}

#[test]
fn manifest_repeats_the_tables_in_spec() {
    let m = manifest();
    let declared: Vec<(&str, &str)> = m
        .get("workloads")
        .unwrap()
        .items()
        .iter()
        .map(|w| (text(w, "name"), text(w, "why")))
        .collect();
    let in_spec: Vec<(&str, &str)> = spec::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(declared, in_spec);

    let declared: Vec<(&str, &str, &str, f64)> = m
        .get("end_to_end")
        .unwrap()
        .items()
        .iter()
        .map(|e| {
            (
                text(e, "name"),
                text(e, "unit"),
                text(e, "better"),
                e.get("bound").and_then(Value::as_f64).unwrap(),
            )
        })
        .collect();
    let in_spec: Vec<(&str, &str, &str, f64)> = spec::END_TO_END
        .iter()
        .map(|e| (e.name, e.unit, e.better.as_str(), e.bound))
        .collect();
    assert_eq!(declared, in_spec);

    let declared: Vec<(&str, &str, &str)> = m
        .get("per_layer")
        .unwrap()
        .items()
        .iter()
        .map(|l| (text(l, "name"), text(l, "unit"), text(l, "better")))
        .collect();
    let in_spec: Vec<(&str, &str, &str)> = spec::PER_LAYER
        .iter()
        .map(|l| (l.name, l.unit, l.better.as_str()))
        .collect();
    assert_eq!(declared, in_spec);
}

/// The metrics of the result line of one run: `(name, unit)` in order.
fn emitted(workload: &str, trace: &str) -> (Value, Vec<(String, String)>) {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("schema-{workload}-{trace}"));
    let run = Command::new(env!("CARGO_BIN_EXE_bitgblas-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
        ])
        .args(["--trace", trace, "--smoke", "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8(run.stdout).unwrap();
    let line = json::parse(stdout.lines().last().expect("a result line")).expect("JSON");
    let metrics = line
        .get("metrics")
        .unwrap()
        .entries()
        .iter()
        .map(|(name, m)| {
            assert_eq!(keys(m), ["value", "unit"]);
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            (name.clone(), text(m, "unit").to_string())
        })
        .collect();
    (line, metrics)
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let m = manifest();
    let declared = |key: &str| -> Vec<(String, String)> {
        m.get(key)
            .unwrap()
            .items()
            .iter()
            .map(|e| (text(e, "name").to_string(), text(e, "unit").to_string()))
            .collect()
    };
    for w in m.get("workloads").unwrap().items() {
        let name = text(w, "name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (line, metrics) = emitted(name, trace);
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
            let attempted = line.get("attempted").and_then(Value::as_f64).unwrap();
            assert!(attempted >= 1.0 && attempted.fract() == 0.0);
            assert_eq!(metrics, declared(key), "{name} --trace {trace}");
        }
    }
}
