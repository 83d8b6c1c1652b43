//! Table I — binarized packing format: per-tile storage of full-precision
//! CSR vs the bit-packed tile, and the resulting space saving.
//!
//! Run with: `cargo run -p bitgblas-bench --release --bin table1_packing`

use bitgblas_perfmodel::b2sr::stats::packing_table;

fn main() {
    println!("Table I: binarized packing format");
    println!(
        "{:<12} {:<26} {:<26} {:>18}",
        "Tile Size", "CSR storage (at most)", "Binarized packing", "Space saving/tile"
    );
    for row in packing_table() {
        let dim = row.tile_dim;
        let packed_desc = match dim {
            4 | 8 => format!("{dim} x 1 unsigned char"),
            16 => format!("{dim} x 1 unsigned short"),
            _ => format!("{dim} x 1 unsigned int"),
        };
        println!(
            "{:<12} {:<26} {:<26} {:>17.0}x",
            format!("{dim}x{dim}"),
            format!("{dim}x{dim} float ({} B)", row.csr_bytes_per_tile),
            format!("{packed_desc} ({} B)", row.packed_bytes_per_tile),
            row.saving_factor
        );
    }
    println!("\nPaper reports: 16x for 4x4 tiles and 32x for 8x8, 16x16 and 32x32 tiles.");
}
