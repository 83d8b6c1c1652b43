//! # bitgblas-bench
//!
//! The experiment harness of the Bit-GraphBLAS reproduction.  Each binary in
//! `src/bin/` regenerates one table or figure of the paper's evaluation
//! (§VI); the Criterion benches in `benches/` provide statistically sound
//! kernel timings for the same comparisons.  (Performance over time is
//! measured by the repo benchmark in `benchmark/`, not here.)
//!
//! | Binary | Paper artefact |
//! |---|---|
//! | `table1_packing` | Table I — per-tile packing space savings |
//! | `fig3_tile_trends` | Figure 3a/3b — tile ratio and occupancy vs tile size |
//! | `fig5_compression` | Figure 5a/5b — compression histogram, optimal tile sizes |
//! | `table5_patterns` | Table V — pattern-category shares of the corpus |
//! | `fig6_7_kernels` | Figures 6/7 — BMV/BMM speedup over the float baseline |
//! | `table7_8_algorithms` | Tables VII/VIII — BFS/SSSP/PR/CC runtimes vs baseline |
//! | `table9_tc` | Table IX — Triangle Counting runtimes vs baseline |
//! | `memstats` | §VI-C — memory transactions and L1 hit rates |
//! | `conversion_overhead` | §III-B — CSR→B2SR conversion cost |
//!
//! This library holds the small shared utilities: wall-clock timing with
//! warm-up, geometric means, the fixed matrix lists used by the tables, and
//! the scattered-tile generator the fill sweeps share.

#![warn(missing_docs)]

use std::time::Instant;

use bitgblas_sparse::{Coo, Csr};

/// Number of timed repetitions used by the harness binaries (the paper
/// reports the average of 5 runs).
pub const RUNS: usize = 5;

/// Wall-clock statistics over the [`RUNS`] timed repetitions.
///
/// The paper reports 5-run averages, but on small graphs the mean hides
/// warm-up jitter (allocator growth, page faults, lazy transpose builds on
/// the first repetition after the warm-up call); `min` and `median` expose
/// the steady-state cost the average smears out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingStats {
    /// Arithmetic mean of the individual run times, in milliseconds.
    pub mean_ms: f64,
    /// Fastest single run, in milliseconds.
    pub min_ms: f64,
    /// Median run, in milliseconds.
    pub median_ms: f64,
}

/// Time `f` over [`RUNS`] individually-measured repetitions after one
/// warm-up call; returns mean, min and median wall-clock milliseconds.
pub fn time_stats_ms<T, F: FnMut() -> T>(mut f: F) -> TimingStats {
    let _warmup = f();
    let mut samples = [0.0f64; RUNS];
    for s in samples.iter_mut() {
        let start = Instant::now();
        std::hint::black_box(f());
        *s = start.elapsed().as_secs_f64() * 1e3;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    TimingStats {
        mean_ms: samples.iter().sum::<f64>() / RUNS as f64,
        min_ms: samples[0],
        median_ms: samples[RUNS / 2],
    }
}

/// Time `f` over [`RUNS`] repetitions after one warm-up call; returns the
/// average wall-clock milliseconds.
pub fn time_avg_ms<T, F: FnMut() -> T>(f: F) -> f64 {
    time_stats_ms(f).mean_ms
}

/// Geometric mean of a slice of positive values (0 when empty).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// The matrices of Tables VII and VIII (SpMV-based algorithm comparison).
pub fn table7_matrices() -> Vec<&'static str> {
    vec![
        "delaunay_n14",
        "se",
        "debr",
        "ash292",
        "netz4504_dual",
        "minnesota",
        "jagmesh6",
        "uk",
        "whitaker3_dual",
        "rajat07",
        "3dtube",
        "Erdos02",
        "mycielskian9",
        "EX3",
        "net25",
        "mycielskian10",
    ]
}

/// The matrices of Table IX (Triangle Counting comparison).
pub fn table9_matrices() -> Vec<&'static str> {
    vec![
        "delaunay_n14",
        "se",
        "debr",
        "sstmodel",
        "jagmesh2",
        "lock2232",
        "ramage02",
        "s4dkt3m2",
        "opt1",
        "trdheim",
        "3dtube",
        "mycielskian12",
        "Erdos02",
        "mycielskian9",
        "mycielskian13",
        "vsp_c-60_data_cti_cs4",
    ]
}

/// The matrices of Figure 3 (tile-size trend study).
pub fn fig3_matrices() -> Vec<&'static str> {
    vec!["G47", "sphere3", "cage", "will199", "email-Eu-core"]
}

/// Load a named corpus matrix, panicking with a clear message when absent.
pub fn load(name: &str) -> Csr {
    bitgblas_datagen::corpus::named_matrix(name)
        .unwrap_or_else(|| panic!("matrix {name} is not in the synthetic corpus"))
}

/// An `n × n` matrix of `dim × dim` tiles at scattered places holding `bits`
/// set bits each: every tile-row holds `16 · dim / bits` tiles at hashed
/// tile columns, so the edge count stays near R-MAT(14, 16)'s (16 a row)
/// whatever the fill, and the fill is the one thing that varies — the
/// operand of the `bmv_pull_fill` and `bmm_tc_fill` bench sweeps.
pub fn scattered_tiles(n: usize, dim: usize, bits: usize) -> Csr {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    let mut coo = Coo::new(n, n);
    for tr in 0..n / dim {
        for _ in 0..16 * dim / bits {
            let tc = next() % (n / dim);
            let start = next();
            // 23 is odd and `dim²` a power of two, so the `bits ≤ dim²`
            // positions are distinct.
            for i in 0..bits {
                let at = (start + i * 23) % (dim * dim);
                coo.push_edge(tr * dim + at / dim, tc * dim + at % dim)
                    .unwrap();
            }
        }
    }
    coo.to_binary_csr()
}

/// Pretty-print a speedup ("3.1x", "0.8x").
pub fn fmt_speedup(base_ms: f64, ours_ms: f64) -> String {
    if ours_ms <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", base_ms / ours_ms)
}

/// Parse `--device pascal|volta` style arguments; defaults to Pascal.
pub fn device_from_args() -> bitgblas_perfmodel::DeviceProfile {
    let args: Vec<String> = std::env::args().collect();
    let mut device = "pascal".to_string();
    for i in 0..args.len() {
        if args[i] == "--device" && i + 1 < args.len() {
            device = args[i + 1].clone();
        }
    }
    bitgblas_perfmodel::device::profile_by_name(&device)
        .unwrap_or_else(|| panic!("unknown device '{device}', expected 'pascal' or 'volta'"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn timing_returns_positive_average() {
        let ms = time_avg_ms(|| (0..1000u64).sum::<u64>());
        assert!(ms >= 0.0);
    }

    #[test]
    fn timing_stats_are_internally_consistent() {
        let stats = time_stats_ms(|| (0..10_000u64).sum::<u64>());
        assert!(stats.min_ms >= 0.0);
        assert!(stats.min_ms <= stats.median_ms, "{stats:?}");
        assert!(stats.min_ms <= stats.mean_ms, "{stats:?}");
        // The median of 5 sorted samples can never exceed the maximum, and
        // the mean sits between min and max.
        assert!(stats.mean_ms > 0.0 || stats.min_ms == 0.0);
    }

    #[test]
    fn table_matrix_lists_resolve_in_the_corpus() {
        for name in table7_matrices()
            .into_iter()
            .chain(table9_matrices())
            .chain(fig3_matrices())
        {
            let m = load(name);
            assert!(m.nnz() > 0, "{name}");
        }
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(fmt_speedup(10.0, 2.0), "5.0x");
        assert_eq!(fmt_speedup(1.0, 0.0), "inf");
    }
}
