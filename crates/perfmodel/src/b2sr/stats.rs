//! Storage statistics for B2SR — the quantities plotted in Figures 3 and 5
//! and tabulated in Table I — counted from the tile layout, not converted.

use bitgblas_sparse::Csr;

use super::TILE_DIMS;
use crate::traffic::{packing_word_bytes, B2srLayout};

/// One row of Table I: the per-tile packing format and its space saving.
#[derive(Debug, Clone, PartialEq)]
pub struct PackingRow {
    /// Tile dimension of the variant.
    pub tile_dim: usize,
    /// Bytes a full tile would occupy in 32-bit-float CSR storage
    /// ("at most": values + column indices).
    pub csr_bytes_per_tile: usize,
    /// Bytes of the binarized packed tile.
    pub packed_bytes_per_tile: usize,
    /// The space-saving factor (`csr / packed`).
    pub saving_factor: f64,
}

/// Compute Table I: the maximal per-tile space saving of each packing format
/// relative to 32-bit-float CSR value storage.
///
/// The paper counts only the 4-byte float values of a full tile against the
/// packed bit representation (`4×4 float → 4×1 uchar = 16×`, all larger tiles
/// = 32×).
pub fn packing_table() -> Vec<PackingRow> {
    TILE_DIMS
        .iter()
        .map(|&dim| {
            let csr_bytes = dim * dim * 4;
            let packed = dim * packing_word_bytes(dim);
            PackingRow {
                tile_dim: dim,
                csr_bytes_per_tile: csr_bytes,
                packed_bytes_per_tile: packed,
                saving_factor: csr_bytes as f64 / packed as f64,
            }
        })
        .collect()
}

/// Aggregate storage statistics of a matrix under one B2SR tile dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct B2srStats {
    /// The tile dimension the statistics refer to.
    pub tile_dim: usize,
    /// Number of non-empty tiles.
    pub n_tiles: usize,
    /// Total number of tile positions (`n_tile_rows × n_tile_cols`).
    pub n_tile_slots: usize,
    /// Fraction of tile positions that are non-empty (Figure 3a, in %
    /// when multiplied by 100).
    pub nonempty_tile_ratio: f64,
    /// Average fraction of set bits inside the non-empty tiles (Figure 3b).
    pub nonzero_occupancy: f64,
    /// B2SR storage footprint in bytes.
    pub b2sr_bytes: usize,
    /// CSR (float, 32-bit index) storage footprint in bytes.
    pub csr_bytes: usize,
    /// `b2sr_bytes / csr_bytes` — the paper's compression ratio (< 1 means
    /// B2SR is smaller; Figure 5a's x-axis as a percentage).
    pub compression_ratio: f64,
}

/// Compute the storage statistics of `csr` under `tile_dim`-wide tiles as a
/// conversion would store them: the tiles and bytes of
/// [`B2srLayout::from_csr`], and one set bit per stored value `!= 0.0` (an
/// explicit zero discovers its tile but sets no bit).
pub fn stats_for(csr: &Csr, tile_dim: usize) -> B2srStats {
    let layout = B2srLayout::from_csr(csr, tile_dim);
    let n_tiles = layout.n_tiles();
    let n_tile_slots = layout.n_tile_rows() * csr.ncols().div_ceil(tile_dim);
    let set_bits = csr.values().iter().filter(|&&v| v != 0.0).count();
    let ratio = |num: f64, den: usize| if den == 0 { 0.0 } else { num / den as f64 };
    let b2sr_bytes = layout.storage_bytes();
    let csr_bytes = csr.storage_bytes();
    B2srStats {
        tile_dim,
        n_tiles,
        n_tile_slots,
        nonempty_tile_ratio: ratio(n_tiles as f64, n_tile_slots),
        nonzero_occupancy: ratio(set_bits as f64, n_tiles * tile_dim * tile_dim),
        b2sr_bytes,
        csr_bytes,
        compression_ratio: ratio(b2sr_bytes as f64, csr_bytes),
    }
}

/// Compute the statistics for all four variants (one Figure 3 x-position per
/// entry), ordered as [`TILE_DIMS`].
pub fn stats_all_sizes(csr: &Csr) -> Vec<B2srStats> {
    TILE_DIMS.iter().map(|&dim| stats_for(csr, dim)).collect()
}

/// The entry with the smallest B2SR footprint: the "optimal" series of
/// Figure 5b (its "compressed" series counts the entries whose compression
/// ratio is below 1.0).  The first on a tie, `None` for no entries.
pub fn optimal(stats: &[B2srStats]) -> Option<&B2srStats> {
    stats.iter().min_by_key(|s| s.b2sr_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_sparse::Coo;

    fn banded(n: usize, bw: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(bw)..(r + bw + 1).min(n) {
                coo.push_edge(r, c).unwrap();
            }
        }
        coo.to_binary_csr()
    }

    #[test]
    fn table1_matches_paper() {
        let t = packing_table();
        assert_eq!(t.len(), 4);
        assert_eq!(t[0].saving_factor, 16.0); // 4x4
        assert_eq!(t[1].saving_factor, 32.0); // 8x8
        assert_eq!(t[2].saving_factor, 32.0); // 16x16
        assert_eq!(t[3].saving_factor, 32.0); // 32x32
        assert_eq!(t[3].csr_bytes_per_tile, 4096);
        assert_eq!(t[3].packed_bytes_per_tile, 128);
    }

    #[test]
    fn stats_are_consistent() {
        let a = banded(256, 2);
        for s in stats_all_sizes(&a) {
            assert!(s.nonempty_tile_ratio > 0.0 && s.nonempty_tile_ratio <= 1.0);
            assert!(s.nonzero_occupancy > 0.0 && s.nonzero_occupancy <= 1.0);
            assert!(s.b2sr_bytes > 0);
            assert_eq!(s.csr_bytes, a.storage_bytes());
            assert!((s.compression_ratio - s.b2sr_bytes as f64 / s.csr_bytes as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn banded_matrix_compresses_well() {
        // A banded matrix has dense tiles along the diagonal: B2SR should be
        // significantly smaller than float CSR for at least one tile size.
        let a = banded(1024, 3);
        let stats = stats_all_sizes(&a);
        let best = stats
            .iter()
            .map(|s| s.compression_ratio)
            .fold(f64::INFINITY, f64::min);
        assert!(best < 0.6, "expected good compression, got ratio {best}");
        assert_eq!(optimal(&stats).unwrap().compression_ratio, best);
    }

    #[test]
    fn scattered_matrix_compresses_poorly_at_large_tiles() {
        // One isolated nonzero per 32x32 tile region: every non-empty 32x32
        // tile stores 128 bytes for a single bit, worse than CSR's 12 bytes.
        let n = 512;
        let mut coo = Coo::new(n, n);
        for i in (0..n).step_by(32) {
            for j in (0..n).step_by(32) {
                coo.push_edge(i, j).unwrap();
            }
        }
        let a = coo.to_binary_csr();
        let s32 = stats_for(&a, 32);
        assert!(
            s32.compression_ratio > 1.0,
            "ratio {}",
            s32.compression_ratio
        );
        // The small-tile variant wastes much less.
        let s4 = stats_for(&a, 4);
        assert!(s4.compression_ratio < s32.compression_ratio);
        assert_eq!(optimal(&stats_all_sizes(&a)).unwrap().tile_dim, 4);
    }

    #[test]
    fn nonempty_ratio_grows_with_tile_size() {
        // Figure 3a trend: larger tiles -> fewer slots -> higher non-empty %.
        let a = banded(512, 1);
        let stats = stats_all_sizes(&a);
        for w in stats.windows(2) {
            assert!(
                w[1].nonempty_tile_ratio >= w[0].nonempty_tile_ratio - 1e-9,
                "{} -> {}",
                w[0].tile_dim,
                w[1].tile_dim
            );
        }
    }

    #[test]
    fn occupancy_falls_with_tile_size() {
        // Figure 3b trend: larger tiles dilute the nonzeros.
        let a = banded(512, 1);
        let stats = stats_all_sizes(&a);
        for w in stats.windows(2) {
            assert!(w[1].nonzero_occupancy <= w[0].nonzero_occupancy + 1e-9);
        }
    }

    #[test]
    fn empty_matrix_stats() {
        let a = Csr::empty(64, 64);
        let s = stats_for(&a, 8);
        assert_eq!(s.n_tiles, 0);
        assert_eq!(s.nonzero_occupancy, 0.0);
        assert_eq!(s.nonempty_tile_ratio, 0.0);
    }
}
