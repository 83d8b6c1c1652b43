//! §III-B — bit-packing (CSR → B2SR) conversion overhead.
//!
//! The paper reports 3–34 ms for the conversion routine and argues the
//! one-time cost is amortized over repeated use of the graph; this harness
//! measures the conversion time of every Table VII matrix for all four tile
//! sizes and compares it with the cost of a single BMV, giving the number of
//! SpMV iterations needed to amortize the conversion.
//!
//! Run with: `cargo run -p bitgblas-bench --release --bin conversion_overhead`

use bitgblas_bench::{load, table7_matrices, time_avg_ms};
use bitgblas_core::b2sr::convert::from_csr_timed;
use bitgblas_core::kernels::bmv_bin_full_full_into;
use bitgblas_core::{Semiring, TileSize};
use bitgblas_sparse::{ops, DenseVec};

fn main() {
    println!("§III-B: CSR -> B2SR conversion overhead (ms) and amortization");
    println!(
        "{:<16} {:>10} {:>9} {:>9} {:>9} {:>9} {:>16}",
        "matrix", "nnz", "4x4", "8x8", "16x16", "32x32", "amortize (iters)"
    );

    for name in table7_matrices() {
        let csr = load(name);
        let x: Vec<f32> = (0..csr.ncols()).map(|i| (i % 3) as f32).collect();
        let x_dense = DenseVec::from_vec(x.clone());

        let mut times = Vec::new();
        for ts in TileSize::ALL {
            let t = match ts {
                TileSize::S4 => from_csr_timed::<u8>(&csr, 4).1,
                TileSize::S8 => from_csr_timed::<u8>(&csr, 8).1,
                TileSize::S16 => from_csr_timed::<u16>(&csr, 16).1,
                TileSize::S32 => from_csr_timed::<u32>(&csr, 32).1,
            };
            times.push(t * 1e3);
        }

        // Amortization: how many SpMV iterations does the B2SR-8 conversion
        // pay for, given the per-iteration saving over the float baseline?
        let b8 = from_csr_timed::<u8>(&csr, 8).0;
        let base_ms = time_avg_ms(|| ops::spmv_parallel(&csr, &x_dense).unwrap());
        let mut y = vec![0.0f32; b8.n_tile_rows() * 8];
        let ours_ms = time_avg_ms(|| bmv_bin_full_full_into(&b8, &x, Semiring::Arithmetic, &mut y));
        let amortize = if base_ms > ours_ms {
            format!("{:.0}", times[1] / (base_ms - ours_ms))
        } else {
            "n/a (no gain)".to_string()
        };

        println!(
            "{:<16} {:>10} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>16}",
            name,
            csr.nnz(),
            times[0],
            times[1],
            times[2],
            times[3],
            amortize
        );
    }

    println!(
        "\nPaper: the conversion routine costs 3-34 ms and is amortized by repeated kernel use."
    );
}
