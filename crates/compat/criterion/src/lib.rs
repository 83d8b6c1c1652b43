//! Offline stand-in for [criterion](https://crates.io/crates/criterion).
//!
//! Implements the subset of criterion's API the workspace benches use —
//! `criterion_group!` / `criterion_main!`, `Criterion::benchmark_group`,
//! `bench_function` / `bench_with_input`, `BenchmarkId` and `Bencher::iter` —
//! with a plain wall-clock measurement loop instead of criterion's
//! statistical machinery.  Each benchmark prints one line:
//! `group/function/parameter      median 1.234 ms  (n=10)`.
//!
//! As with criterion, `cargo bench --bench <file> -- <filter>` runs only the
//! benchmarks whose rendered id contains `<filter>`.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Prevent the optimizer from discarding a benchmarked value.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: String,
}

impl BenchmarkId {
    /// Identifier from a function name and a parameter value.
    pub fn new<F: Into<String>, P: Display>(function: F, parameter: P) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: parameter.to_string(),
        }
    }

    /// Identifier from a parameter value alone.
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            function: String::new(),
            parameter: parameter.to_string(),
        }
    }

    fn render(&self, group: &str) -> String {
        match (self.function.is_empty(), self.parameter.is_empty()) {
            (false, false) => format!("{group}/{}/{}", self.function, self.parameter),
            (false, true) => format!("{group}/{}", self.function),
            _ => format!("{group}/{}", self.parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(function: &str) -> Self {
        BenchmarkId {
            function: function.to_string(),
            parameter: String::new(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(function: String) -> Self {
        BenchmarkId {
            function,
            parameter: String::new(),
        }
    }
}

/// The measurement configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Run only benchmarks whose rendered id contains this.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            warm_up_time: Duration::from_millis(100),
            filter: None,
        }
    }
}

impl Criterion {
    /// Take the name filter from the command line: the first free argument
    /// (`cargo bench -- <filter>`), as criterion does.
    pub fn configure_from_args(mut self) -> Self {
        self.filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        self
    }

    /// Begin a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            criterion: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        run_one(
            name,
            self.filter.as_deref(),
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut f,
        );
        self
    }
}

/// A group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Target measurement time per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Warm-up time before measuring.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Benchmark `f` under `id`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        mut f: F,
    ) -> &mut Self {
        let label = id.into().render(&self.name);
        run_one(
            &label,
            self.criterion.filter.as_deref(),
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut f,
        );
        self
    }

    /// Benchmark `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = id.into().render(&self.name);
        run_one(
            &label,
            self.criterion.filter.as_deref(),
            self.sample_size,
            self.warm_up_time,
            self.measurement_time,
            &mut |b| f(b, input),
        );
        self
    }

    /// Finish the group (prints nothing extra; kept for API parity).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; call [`Bencher::iter`] with the hot loop.
pub struct Bencher {
    /// Collected per-sample durations (one per `iter` batch).
    samples: Vec<Duration>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
}

impl Bencher {
    /// Measure `f`, running it repeatedly.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run until the warm-up budget is spent (at least once).
        let warm_start = Instant::now();
        loop {
            black_box(f());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // Choose an inner iteration count so one sample is measurable.
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().max(Duration::from_nanos(50));
        let budget_per_sample = self.measurement_time / self.sample_size as u32;
        let inner = (budget_per_sample.as_nanos() / probe.as_nanos()).clamp(1, 1_000_000) as usize;
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..inner {
                black_box(f());
            }
            self.samples.push(start.elapsed() / inner as u32);
        }
    }

    fn median(&mut self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        self.samples.sort_unstable();
        self.samples[self.samples.len() / 2]
    }
}

fn run_one<F: FnMut(&mut Bencher)>(
    label: &str,
    filter: Option<&str>,
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    f: &mut F,
) {
    if filter.is_some_and(|wanted| !label.contains(wanted)) {
        return;
    }
    let mut bencher = Bencher {
        samples: Vec::new(),
        sample_size,
        warm_up_time,
        measurement_time,
    };
    f(&mut bencher);
    let median = bencher.median();
    println!(
        "{label:<60} median {:>10.4} ms  (n={sample_size})",
        median.as_secs_f64() * 1e3
    );
}

/// Define a benchmark group function from a list of `fn(&mut Criterion)`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define `main()` from one or more `criterion_group!` names.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("smoke");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(30))
            .warm_up_time(Duration::from_millis(5));
        let mut ran = 0u32;
        group.bench_function(BenchmarkId::new("sum", "1k"), |b| {
            b.iter(|| (0..1000u64).sum::<u64>());
            ran += 1;
        });
        group.bench_with_input(BenchmarkId::new("with_input", "x"), &41u64, |b, &x| {
            b.iter(|| x + 1);
        });
        group.finish();
        assert_eq!(ran, 1);
    }

    #[test]
    fn a_name_filter_skips_the_benchmarks_it_does_not_match() {
        let mut c = Criterion {
            filter: Some("wanted/".into()),
            ..Criterion::default()
        };
        let mut group = c.benchmark_group("smoke");
        group
            .sample_size(1)
            .measurement_time(Duration::from_millis(1))
            .warm_up_time(Duration::ZERO);
        let mut ran = Vec::new();
        for name in ["wanted", "other"] {
            group.bench_function(BenchmarkId::new(name, "x"), |b| {
                b.iter(|| 1 + 1);
                ran.push(name);
            });
        }
        assert_eq!(ran, ["wanted"]);
    }

    #[test]
    fn benchmark_id_rendering() {
        assert_eq!(BenchmarkId::new("f", "p").render("g"), "g/f/p");
        assert_eq!(BenchmarkId::from_parameter("p").render("g"), "g/p");
    }
}
