//! `bitgblas-benchmark run | compare` — see `README.md` beside this crate.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use bitgblas_benchmark::host;
use bitgblas_benchmark::json::{self, Value};
use bitgblas_benchmark::layers;
use bitgblas_benchmark::report::{self, Metric};
use bitgblas_benchmark::spec::{self, Workload};
use bitgblas_benchmark::stats;
use bitgblas_benchmark::workload::{self, Outcome, RunConfig};

const USAGE: &str = "usage:
  bitgblas-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                         [--smoke] [--runs K] [--out DIR]
  bitgblas-benchmark compare A.json B.json";

/// Default seed and, as in BENCHMARK.json, seconds measured per run.
const DEFAULT_SEED: u64 = 20_220_530;
const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug)]
struct RunArgs {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: u64,
    out: PathBuf,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(spec::workload(&name).ok_or_else(|| {
                    let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; known: {}", known.join(", "))
                })?);
            }
            "--seed" => {
                parsed.seed = value("a whole number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: expected a positive number")?;
            }
            "--runs" => {
                parsed.runs = value("a whole number")?
                    .parse()
                    .ok()
                    .filter(|k| *k >= 1)
                    .ok_or("--runs: expected a whole number ≥ 1")?;
            }
            "--out" => parsed.out = PathBuf::from(value("a directory")?),
            "--smoke" => parsed.smoke = true,
            // The driver passes `--trace 0|1`; by hand, `--trace` alone is on.
            "--trace" => {
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_file(out: &Path, workload: &str, trace: bool) -> PathBuf {
    out.join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

/// Run one workload in this process; `Ok(true)` when every check passed.
fn run_one(w: &'static Workload, args: &RunArgs) -> Result<bool, String> {
    let began = Instant::now();
    let host_cores = report::cpus();
    // Before the first call into the engine, which caches the CPU count.
    let pinned = host::pin_to_one_cpu();
    let cfg = RunConfig {
        workload: w,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        host_cores,
    };
    let mut o: Outcome = workload::run(&cfg);

    let mut exact = layers::exact_counts(&o);
    let metrics: Vec<Metric> = if args.trace {
        write_file(
            &args.out.join(format!("trace-{}.json", w.name)),
            &o.tracer.to_json().to_pretty(),
        )?;
        let (mut layer, attempted, failed) = layers::probe(&o, &cfg);
        o.attempted += attempted;
        o.failed += failed;
        layer.push(("bench.run_s", began.elapsed().as_secs_f64()));
        exact = layer
            .iter()
            .copied()
            .filter(|(name, _)| spec::PER_LAYER.iter().any(|m| m.name == *name && m.exact))
            .collect();
        spec::PER_LAYER
            .iter()
            .map(|m| {
                let value = layer
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("per-layer metric {} was not measured", m.name))
                    .1;
                Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                    detail: None,
                    unscaled: None,
                }
            })
            .collect()
    } else {
        o.end_to_end
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: m.value,
                unit: spec::end_to_end(m.name)
                    .unwrap_or_else(|| panic!("{} is not a declared metric", m.name))
                    .unit,
                detail: m.quartiles.map(|(q1, q3)| (q1, q3, m.samples)),
                unscaled: Some(m.unscaled),
            })
            .collect()
    };

    let correct = o.failed == 0 && o.final_checks_ok;
    let failed_share = o.failed as f64 / o.attempted.max(1) as f64;
    print!("{}", report::metric_lines(w.name, &metrics));
    println!("{} failed_share {failed_share} fraction", w.name);
    let reads: usize = o.light.iter().map(|l| l.read_latency_ms.len()).sum();
    println!(
        "{} light_reads {reads} count (ten or more lie beyond p{})",
        w.name,
        stats::highest_supported_percentile(reads)
    );
    println!("{} host_slowdown {} ratio", w.name, o.slowdown);
    for f in &o.failures {
        eprintln!("{}: FAILED: {f}", w.name);
    }

    let mut file = Value::object();
    file.insert("workload", Value::Str(w.name.to_string()));
    file.insert("seed", Value::Num(args.seed as f64));
    file.insert("seconds", Value::Num(args.seconds));
    file.insert("smoke", Value::Bool(args.smoke));
    file.insert("trace", Value::Bool(args.trace));
    file.insert("host", report::host_facts(host_cores));
    file.insert(
        "pinned_cpu",
        pinned.map_or(Value::Null, |cpu| Value::Num(cpu as f64)),
    );
    let clock = if host::cpu_time().is_some() {
        "process_cpu"
    } else {
        "wall"
    };
    file.insert("clock", Value::Str(clock.to_string()));
    file.insert("wall_per_cpu", Value::Num(o.tracer.wall_per_cpu()));
    file.insert("host_slowdown", Value::Num(o.slowdown));
    file.insert("wall_s", Value::Num(began.elapsed().as_secs_f64()));
    file.insert("timed_s", Value::Num(o.timed_s));
    file.insert("correct", Value::Bool(correct));
    file.insert("attempted", Value::Num(o.attempted as f64));
    file.insert("failed", Value::Num(o.failed as f64));
    file.insert("failed_share", Value::Num(failed_share));
    file.insert("metrics", report::metrics_object(&metrics));
    let mut unscaled = Value::object();
    for m in &metrics {
        if let Some(raw) = m.unscaled {
            unscaled.insert(m.name, Value::Num(raw));
        }
    }
    file.insert("measured", unscaled);
    let mut counts = Value::object();
    for (name, value) in &exact {
        counts.insert(name, Value::Num(*value));
    }
    file.insert("exact", counts);
    write_file(&run_file(&args.out, w.name, args.trace), &file.to_pretty())?;

    println!(
        "{}",
        report::result_line(correct, o.attempted, o.failed, &metrics)
    );
    Ok(correct)
}

/// Run `w` in a fresh child process — so that `setup_s` and `peak_rss_mb`
/// are the workload's own and one workload's warm state does not help the
/// next — and read back the file it wrote.
fn run_child(w: &Workload, args: &RunArgs, seed: u64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end.
    let status = cmd.status().map_err(|e| format!("spawn: {e}"))?;
    if !status.success() {
        return Err(format!("workload {} exited with {status}", w.name));
    }
    let path = run_file(&args.out, w.name, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Every workload, each in its own process; `--runs K` repeats them with
/// seeds `seed..seed+K`, `--trace` adds one traced pass and checks that the
/// exact counts of the two passes agree.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let began = Instant::now();
    let mut ok = true;
    let mut workloads = Value::object();
    for w in &spec::WORKLOADS {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        let mut failed_share = Vec::new();
        let mut first = None;
        for k in 0..args.runs {
            let file = run_child(w, args, args.seed + k, false)?;
            for (slot, m) in values.iter_mut().zip(&spec::END_TO_END) {
                let v = file
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("{}: no {} in its run file", w.name, m.name))?;
                slot.push(v);
            }
            failed_share.push(Value::Num(
                file.get("failed_share")
                    .and_then(Value::as_f64)
                    .unwrap_or(1.0),
            ));
            first.get_or_insert(file);
        }
        let mut end_to_end = Value::object();
        for (vals, m) in values.iter().zip(&spec::END_TO_END) {
            let mut e = Value::object();
            e.insert("unit", Value::Str(m.unit.to_string()));
            e.insert("better", Value::Str(m.better.as_str().to_string()));
            e.insert("bound", Value::Num(m.bound));
            e.insert(
                "values",
                Value::Arr(vals.iter().map(|&v| Value::Num(v)).collect()),
            );
            end_to_end.insert(m.name, e);
        }
        let mut entry = Value::object();
        entry.insert("end_to_end", end_to_end);
        entry.insert("failed_share", Value::Arr(failed_share));
        if args.trace {
            let traced = run_child(w, args, args.seed, true)?;
            let untraced = first.as_ref().and_then(|f| f.get("exact"));
            for (name, value) in traced.get("exact").map_or(&[][..], Value::entries) {
                let other = untraced.and_then(|u| u.get(name));
                if other.is_some_and(|o| o != value) {
                    ok = false;
                    eprintln!(
                        "{}: exact count {name} differs: traced {value:?}, untraced {other:?}",
                        w.name
                    );
                }
            }
            entry.insert(
                "per_layer",
                traced.get("metrics").cloned().unwrap_or(Value::Null),
            );
        }
        workloads.insert(w.name, entry);
    }
    let mut root = Value::object();
    root.insert("host", report::host_facts(report::cpus()));
    root.insert("seed", Value::Num(args.seed as f64));
    root.insert("seconds", Value::Num(args.seconds));
    root.insert("runs", Value::Num(args.runs as f64));
    root.insert("smoke", Value::Bool(args.smoke));
    root.insert("wall_s", Value::Num(began.elapsed().as_secs_f64()));
    root.insert("workloads", workloads);
    let path = args.out.join("result.json");
    write_file(&path, &root.to_pretty())?;
    println!("wrote {}", path.display());
    Ok(ok)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |p: &str| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (table, any_worse) = report::compare(&load(a)?, &load(b)?);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run_args(rest).and_then(|a| match a.workload {
            Some(w) => run_one(w, &a),
            None => run_all(&a),
        }),
        Some((cmd, [a, b])) if cmd == "compare" => compare(a, b),
        _ => Err(USAGE.to_string()),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
