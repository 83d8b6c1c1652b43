//! Figures 6 and 7 — speedup of the BMV/BMM kernels over the full-precision
//! CSR baseline, as a function of nonzero density, for the four B2SR tile
//! sizes.
//!
//! Two speedup series are reported per kernel scheme:
//!
//! * **measured** — wall-clock speedup of the bit kernel over the float CSR
//!   kernel on this machine's CPU substrate (the shape of the curve — which
//!   tile size wins where, how the gain grows with density — is what carries
//!   over from the paper);
//! * **modelled** — the analytic device-model speedup for the selected GPU
//!   profile (`--device pascal` reproduces Figure 6, `--device volta`
//!   Figure 7), capturing the architecture-dependent differences the CPU
//!   cannot show.
//!
//! Run with:
//! `cargo run -p bitgblas-bench --release --bin fig6_7_kernels -- --device pascal`

use bitgblas_bench::{device_from_args, geomean, load, time_avg_ms};
use bitgblas_core::b2sr::convert::from_csr;
use bitgblas_core::kernels::{
    bmm_bin_bin_sum, bmv_bin_bin_bin_into, bmv_bin_bin_full_masked, bmv_bin_full_full_into,
    pack_vector_tilewise_into,
};
use bitgblas_core::{Semiring, TileSize};
use bitgblas_datagen::corpus;
use bitgblas_perfmodel::{speedup_estimate, B2srLayout};
use bitgblas_sparse::{ops, Csr, DenseVec};

/// One evaluated matrix: name, the matrix, and its nonzero density.
struct Entry {
    name: String,
    csr: Csr,
    density: f64,
}

fn corpus_entries() -> Vec<Entry> {
    let mut out = Vec::new();
    // A slice of the synthetic sweep plus the named kernel-study matrices.
    for e in corpus::corpus_sweep(36, 0x67) {
        out.push(Entry {
            density: e.matrix.density(),
            name: e.name,
            csr: e.matrix,
        });
    }
    for name in [
        "ins2",
        "mycielskian9",
        "ash292",
        "jagmesh6",
        "Erdos02",
        "delaunay_n14",
    ] {
        let csr = load(name);
        out.push(Entry {
            density: csr.density(),
            name: name.to_string(),
            csr,
        });
    }
    out.sort_by(|a, b| a.density.partial_cmp(&b.density).unwrap());
    out
}

fn bucket_label(density: f64) -> &'static str {
    match density {
        d if d < 1e-6 => "E-07",
        d if d < 1e-5 => "E-06",
        d if d < 1e-4 => "E-05",
        d if d < 1e-3 => "E-04",
        d if d < 1e-2 => "E-03",
        d if d < 1e-1 => "E-02",
        _ => "E-01",
    }
}

/// Measured speedups of the three BMV schemes and BMM, per tile size, for one matrix.
fn kernel_speedups(csr: &Csr) -> [[f64; 4]; 4] {
    let n = csr.ncols();
    let x: Vec<f32> = (0..n).map(|i| ((i * 7 + 3) % 5) as f32).collect();
    let x_dense = DenseVec::from_vec(x.clone());

    // Baselines: cuSPARSE-style float CSR SpMV and SpGEMM.
    let spmv_ms = time_avg_ms(|| ops::spmv_parallel(csr, &x_dense).unwrap());
    let spgemm_ms = time_avg_ms(|| ops::spgemm_parallel(csr, csr).unwrap());

    let mut result = [[0.0f64; 4]; 4];
    for (k, ts) in TileSize::ALL.iter().enumerate() {
        macro_rules! with_variant {
            ($w:ty, $dim:expr) => {{
                let b = from_csr::<$w>(csr, $dim);
                let mut xp: Vec<$w> = Vec::new();
                pack_vector_tilewise_into(&x, $dim, &mut xp);
                let mut yw = vec![0 as $w; b.n_tile_rows()];
                let mut yf = vec![0.0f32; b.n_tile_rows() * $dim];
                let bbb = time_avg_ms(|| bmv_bin_bin_bin_into(&b, &xp, &mut yw));
                let bbf = time_avg_ms(|| bmv_bin_bin_full_masked(&b, &xp, None));
                let bff =
                    time_avg_ms(|| bmv_bin_full_full_into(&b, &x, Semiring::Arithmetic, &mut yf));
                let bmm = time_avg_ms(|| bmm_bin_bin_sum(&b, &b));
                [spmv_ms / bbb, spmv_ms / bbf, spmv_ms / bff, spgemm_ms / bmm]
            }};
        }
        let speeds = match ts {
            TileSize::S4 => with_variant!(u8, 4),
            TileSize::S8 => with_variant!(u8, 8),
            TileSize::S16 => with_variant!(u16, 16),
            TileSize::S32 => with_variant!(u32, 32),
        };
        for (scheme, &s) in speeds.iter().enumerate() {
            result[scheme][k] = s;
        }
    }
    result
}

fn main() {
    let device = device_from_args();
    let entries = corpus_entries();
    let schemes = [
        "bmv bin/bin/bin",
        "bmv bin/bin/full",
        "bmv bin/full/full",
        "bmm_bin_bin_sum",
    ];

    println!(
        "Figures 6/7: kernel speedup over the float CSR baseline ({} matrices, device model = {})",
        entries.len(),
        device.name
    );

    // Collect per-matrix speedups and group by density bucket.
    let mut per_bucket: std::collections::BTreeMap<&'static str, Vec<[[f64; 4]; 4]>> =
        std::collections::BTreeMap::new();
    let mut all: Vec<[[f64; 4]; 4]> = Vec::new();
    let mut modelled: Vec<(String, f64)> = Vec::new();
    for e in &entries {
        let s = kernel_speedups(&e.csr);
        per_bucket
            .entry(bucket_label(e.density))
            .or_default()
            .push(s);
        all.push(s);
        let layout = B2srLayout::from_csr(&e.csr, 8);
        modelled.push((e.name.clone(), speedup_estimate(&e.csr, &layout, &device)));
    }

    for (si, scheme) in schemes.iter().enumerate() {
        println!("\n{scheme}: measured geomean speedup per density bucket");
        println!(
            "{:>8} {:>9} {:>9} {:>9} {:>9} {:>6}",
            "density", "4x4", "8x8", "16x16", "32x32", "n"
        );
        for (bucket, rows) in &per_bucket {
            let mut per_ts = [0.0f64; 4];
            for (k, slot) in per_ts.iter_mut().enumerate() {
                let vals: Vec<f64> = rows.iter().map(|r| r[si][k]).collect();
                *slot = geomean(&vals);
            }
            println!(
                "{:>8} {:>8.2}x {:>8.2}x {:>8.2}x {:>8.2}x {:>6}",
                bucket,
                per_ts[0],
                per_ts[1],
                per_ts[2],
                per_ts[3],
                rows.len()
            );
        }
        // Overall averages and maxima (the numbers quoted in §VI-D).
        let mut line = String::new();
        for k in 0..4 {
            let vals: Vec<f64> = all.iter().map(|r| r[si][k]).collect();
            let max = vals.iter().cloned().fold(0.0, f64::max);
            line.push_str(&format!(
                "  {}: avg {:.2}x max {:.1}x",
                TileSize::ALL[k],
                geomean(&vals),
                max
            ));
        }
        println!("  overall:{line}");
    }

    println!(
        "\nanalytic {}-model BMV speedup (B2SR-8), top 8 matrices:",
        device.architecture
    );
    let mut modelled_sorted = modelled;
    modelled_sorted.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (name, s) in modelled_sorted.iter().take(8) {
        println!("  {:<24} {:>6.1}x", name, s);
    }

    println!(
        "\nPaper (Figures 6/7): BMV averages 2-3x with maxima of 25-40x; BMM averages 3.6-34x with\n\
         maxima in the thousands at high density (ins2); gains grow with nonzero density and the\n\
         BMM gap is the largest — the same ordering should be visible above."
    );
}
