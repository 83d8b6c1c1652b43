//! The harness end to end at `--smoke` sizes: the one command runs the four
//! workloads, each in its own process, untraced and traced, with every
//! oracle check on.

use std::path::Path;
use std::process::Command;

use bitgblas_benchmark::json::{self, Value};
use bitgblas_benchmark::spec;

fn load(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn smoke_run_of_all_workloads_passes_every_check() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-all");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_bitgblas-benchmark"))
        .args([
            "run", "--smoke", "--trace", "--runs", "2", "--seed", "7", "--out",
        ])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "exit {:?}\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );

    let result = load(&out.join("result.json"));
    assert_eq!(result.get("runs").and_then(Value::as_f64), Some(2.0));
    assert!(result
        .get("host")
        .and_then(|h| h.get("host_cores"))
        .is_some());
    for w in &spec::WORKLOADS {
        let entry = result
            .get("workloads")
            .and_then(|ws| ws.get(w.name))
            .unwrap_or_else(|| panic!("{} missing from result.json", w.name));
        for m in &spec::END_TO_END {
            let values = entry
                .get("end_to_end")
                .and_then(|e| e.get(m.name))
                .and_then(|e| e.get("values"))
                .map(Value::items)
                .unwrap_or_default();
            assert_eq!(values.len(), 2, "{} {}", w.name, m.name);
            assert!(
                values.iter().all(|v| v.as_f64().is_some_and(|x| x > 0.0)),
                "{} {} must never be 0: {values:?}",
                w.name,
                m.name
            );
            // Every metric is printed by name with its unit.
            let line = format!("{} {} ", w.name, m.name);
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&line) && l.contains(&format!(" {}", m.unit))),
                "no line for {line}"
            );
        }
        let shares = entry
            .get("failed_share")
            .map(Value::items)
            .unwrap_or_default();
        assert!(shares.iter().all(|s| s.as_f64() == Some(0.0)), "{}", w.name);
        let layers = entry.get("per_layer").expect("traced pass recorded");
        assert_eq!(layers.entries().len(), spec::PER_LAYER.len());

        let trace = load(&out.join(format!("trace-{}.json", w.name)));
        let spans = trace.get("spans").map(Value::items).unwrap_or_default();
        assert!(spans.len() > 50, "{}: {} spans", w.name, spans.len());
        for name in [
            "setup",
            "round",
            "algorithms.bfs",
            "serve.submit",
            "serve.pump",
            "serve.flush",
        ] {
            assert!(
                spans
                    .iter()
                    .any(|s| s.get("name").and_then(Value::as_str) == Some(name)),
                "{}: no {name} span",
                w.name
            );
        }
        // Children lie inside their parents.
        for s in spans {
            let at = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).unwrap();
            if let Some(p) = s.get("parent").and_then(Value::as_f64) {
                let parent = &spans[p as usize];
                assert!(at(parent, "start_ns") <= at(s, "start_ns"));
                assert!(at(s, "end_ns") <= at(parent, "end_ns"));
            }
        }
    }

    // The same file compares as unchanged or unresolved against itself,
    // never worse.
    let path = out.join("result.json");
    let cmp = Command::new(env!("CARGO_BIN_EXE_bitgblas-benchmark"))
        .arg("compare")
        .args([&path, &path])
        .output()
        .expect("compare runs");
    assert!(cmp.status.success());
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert_eq!(
        table.lines().count(),
        1 + spec::WORKLOADS.len() * spec::END_TO_END.len()
    );
    assert!(!table.contains(" worse "));
}

#[test]
fn equal_seeds_repeat_the_exact_counts() {
    let exact_of = |dir: &str| {
        let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(dir);
        let run = Command::new(env!("CARGO_BIN_EXE_bitgblas-benchmark"))
            .args([
                "run",
                "--smoke",
                "--workload",
                "rmat_mixed",
                "--seed",
                "11",
                "--out",
            ])
            .arg(&out)
            .output()
            .expect("the benchmark binary runs");
        assert!(run.status.success());
        load(&out.join("run-rmat_mixed-trace0.json"))
            .get("exact")
            .cloned()
            .expect("exact counts recorded")
    };
    let (a, b) = (exact_of("exact-a"), exact_of("exact-b"));
    assert!(a.entries().len() >= 14);
    assert_eq!(a, b);
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result_line() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "0"],
        &["run", "--frobnicate"],
        &["compare", "only-one.json"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bitgblas-benchmark"))
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
