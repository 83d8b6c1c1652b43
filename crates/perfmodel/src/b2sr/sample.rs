//! The sampling-profile tile-size selector — Algorithm 1 of the paper.
//!
//! Converting a matrix to B2SR only pays off when the bit tiles capture
//! enough nonzeros.  Rather than converting with every tile size and
//! measuring (which costs as much as the conversions themselves), the paper
//! samples `N` rows, counts how many `k`-wide column buckets each sampled row
//! touches, and estimates the compression rate of each B2SR variant from
//! those counts.  Users then pick the tile size whose estimated compression
//! is acceptable — or keep CSR if none is.

use bitgblas_sparse::Csr;

use super::TILE_DIMS;
use crate::traffic::packing_word_bytes;

/// The per-tile-size estimate produced by the sampling profile.
#[derive(Debug, Clone, PartialEq)]
pub struct TileSizeEstimate {
    /// The tile dimension the estimate refers to.
    pub tile_dim: usize,
    /// Average number of touched `k`-wide column buckets per sampled row
    /// (`NnzBitRow` in Algorithm 1).
    pub avg_touched_buckets: f64,
    /// Average nonzeros per sampled row (`NnzElement`).
    pub avg_row_nnz: f64,
    /// Average occupancy of the touched buckets (nonzeros / (buckets × k)).
    pub est_occupancy: f64,
    /// Estimated `B2SR bytes / CSR bytes` compression ratio.
    pub est_compression_ratio: f64,
}

/// The result of running Algorithm 1 on a matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingProfile {
    /// Number of rows sampled.
    pub sampled_rows: usize,
    /// One estimate per B2SR variant, ordered as [`TILE_DIMS`].
    pub estimates: Vec<TileSizeEstimate>,
}

impl SamplingProfile {
    /// The tile dimension with the lowest estimated compression ratio.
    pub fn recommended_tile_dim(&self) -> usize {
        self.estimates
            .iter()
            .min_by(|a, b| {
                a.est_compression_ratio
                    .partial_cmp(&b.est_compression_ratio)
                    .unwrap()
            })
            .map_or(8, |e| e.tile_dim)
    }

    /// True if at least one variant is estimated to compress the matrix
    /// (ratio below 1.0) — the "worth converting" decision.
    pub fn worth_converting(&self) -> bool {
        self.estimates.iter().any(|e| e.est_compression_ratio < 1.0)
    }
}

/// Run the sampling profile (Algorithm 1) on `n_samples` rows of `csr`,
/// selected deterministically from `seed`.
///
/// Sampling more rows captures the matrix characteristics more accurately at
/// proportionally higher cost; `n_samples` is clamped to the number of rows.
pub fn sample_profile(csr: &Csr, n_samples: usize, seed: u64) -> SamplingProfile {
    let nrows = csr.nrows();
    let n_samples = n_samples.clamp(1, nrows.max(1));

    // Deterministic sample of row indices (splitmix-style hash of the index).
    let sampled: Vec<usize> = if n_samples >= nrows {
        (0..nrows).collect()
    } else {
        let mut rows: Vec<usize> = (0..n_samples)
            .map(|i| {
                let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as usize % nrows
            })
            .collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    };
    let n_sampled = sampled.len().max(1);

    let estimates = TILE_DIMS
        .iter()
        .map(|&k| {
            let mut total_buckets = 0usize;
            let mut total_nnz = 0usize;
            let mut bucket_scratch: Vec<usize> = Vec::new();
            for &r in &sampled {
                if r >= nrows {
                    continue;
                }
                let (cols, _) = csr.row(r);
                total_nnz += cols.len();
                bucket_scratch.clear();
                bucket_scratch.extend(cols.iter().map(|&c| c / k));
                bucket_scratch.dedup(); // columns are sorted, so buckets are too
                total_buckets += bucket_scratch.len();
            }
            let avg_touched_buckets = total_buckets as f64 / n_sampled as f64;
            let avg_row_nnz = total_nnz as f64 / n_sampled as f64;
            let est_occupancy = if total_buckets == 0 {
                0.0
            } else {
                total_nnz as f64 / (total_buckets as f64 * k as f64)
            };

            // Estimated storage per row, using the conservative (worst-case)
            // assumption that rows within the same tile-row touch *disjoint*
            // column buckets, so every touched bucket of a row costs a whole
            // tile (`bytes_per_tile` of BitTiles plus a 4-byte TileColInd
            // entry) and each row carries its 1/k share of TileRowPtr.  Row
            // sampling alone cannot observe vertical sharing, so the estimate
            // is an upper bound on the true B2SR size: a matrix judged "worth
            // converting" here will compress at least this well in practice.
            // CSR costs 4 bytes of column index + 4 bytes of value per
            // nonzero, plus 4 bytes of RowPtr per row.
            let est_b2sr_bytes_per_row =
                avg_touched_buckets * ((k * packing_word_bytes(k)) as f64 + 4.0) + 4.0 / k as f64;
            let est_csr_bytes_per_row = avg_row_nnz * 8.0 + 4.0;
            let est_compression_ratio = if est_csr_bytes_per_row == 0.0 {
                f64::INFINITY
            } else {
                est_b2sr_bytes_per_row / est_csr_bytes_per_row
            };

            TileSizeEstimate {
                tile_dim: k,
                avg_touched_buckets,
                avg_row_nnz,
                est_occupancy,
                est_compression_ratio,
            }
        })
        .collect();

    SamplingProfile {
        sampled_rows: n_sampled,
        estimates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::b2sr::stats;
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

    fn scattered(n: usize, stride: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for r in (0..n).step_by(stride) {
            coo.push_edge(r, (r * 7 + 13) % n).unwrap();
        }
        coo.to_binary_csr()
    }

    #[test]
    fn profile_contains_all_variants_and_is_deterministic() {
        let a = banded(512, 3);
        let p1 = sample_profile(&a, 64, 42);
        let p2 = sample_profile(&a, 64, 42);
        assert_eq!(p1, p2);
        assert_eq!(p1.estimates.len(), 4);
        assert!(p1.sampled_rows > 0 && p1.sampled_rows <= 64);
        let dims: Vec<usize> = p1.estimates.iter().map(|e| e.tile_dim).collect();
        assert_eq!(dims, TILE_DIMS);
    }

    #[test]
    fn banded_matrix_is_worth_converting() {
        let a = banded(1024, 3);
        let p = sample_profile(&a, 128, 7);
        assert!(p.worth_converting(), "estimates: {:#?}", p.estimates);
    }

    #[test]
    fn estimate_tracks_actual_compression_ordering() {
        // The estimated best tile size should actually compress the matrix
        // (sanity of the estimator rather than exact agreement).
        let a = banded(1024, 2);
        let p = sample_profile(&a, 256, 3);
        let rec = p.recommended_tile_dim();
        let actual = stats::stats_for(&a, rec);
        assert!(
            actual.compression_ratio < 1.0,
            "recommended B2SR-{rec} does not compress (actual {})",
            actual.compression_ratio
        );
    }

    #[test]
    fn sparse_scatter_is_not_worth_converting_at_large_tiles() {
        let a = scattered(4096, 3);
        let p = sample_profile(&a, 512, 9);
        let e32 = &p.estimates[3];
        assert_eq!(e32.tile_dim, 32);
        // One nonzero per touched 32-wide bucket: estimated ratio must exceed 1.
        assert!(e32.est_compression_ratio > 1.0, "{e32:?}");
    }

    #[test]
    fn sampling_everything_equals_full_scan() {
        let a = banded(100, 1);
        let p_all = sample_profile(&a, 100, 1);
        assert_eq!(p_all.sampled_rows, 100);
        let p_more = sample_profile(&a, 10_000, 1);
        assert_eq!(p_more.sampled_rows, 100, "clamped to nrows");
        assert_eq!(p_all.estimates, p_more.estimates);
    }

    #[test]
    fn occupancy_decreases_with_tile_size() {
        let a = banded(512, 1);
        let p = sample_profile(&a, 512, 0);
        let occs: Vec<f64> = p.estimates.iter().map(|e| e.est_occupancy).collect();
        for w in occs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "occupancy should not grow with tile size: {occs:?}"
            );
        }
    }
}
