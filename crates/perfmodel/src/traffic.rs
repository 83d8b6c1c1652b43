//! Memory-transaction modelling of the SpMV baseline and the BMV kernel.
//!
//! The model walks the access streams the two kernels generate:
//!
//! * **CSR SpMV** (the cuSPARSE/GraphBLAST baseline): stream `RowPtr`,
//!   `ColInd` and the 4-byte float values, plus a gather of `x[ColInd[k]]`
//!   for every stored entry — the gathers are the irregular part;
//! * **B2SR BMV**: stream `TileRowPtr`, `TileColInd` and the packed
//!   `BitTiles`, plus one contiguous vector-segment load of `tile_dim`
//!   entries per non-empty tile.
//!
//! Sequential streams are coalesced into `transaction_bytes`-wide
//! transactions; the vector gathers go through the L1 cache simulator to
//! estimate the hit rate, mirroring the counters the paper reports in §VI-C.
//!
//! The B2SR side of the model works on a [`B2srLayout`] — the upper-level
//! tile structure (dimensions plus the non-empty tile columns in storage
//! order) without the packed bits.  The layout is everything the traffic
//! model needs, it can be computed straight from a CSR matrix *without*
//! performing the conversion, and it keeps this crate independent of
//! `bitgblas-core`.

use bitgblas_sparse::Csr;

use crate::cache::CacheSim;
use crate::device::DeviceProfile;

/// The upper-level structure of a B2SR matrix: everything the traffic model
/// needs to know about a (real or hypothetical) conversion, without the
/// packed tile payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct B2srLayout {
    nrows: usize,
    ncols: usize,
    tile_dim: usize,
    /// Tile-column index of every non-empty tile, in storage order
    /// (tile-row major, ascending tile column within a tile-row).
    tile_colind: Vec<usize>,
}

impl B2srLayout {
    /// Compute the layout a CSR→B2SR conversion with `tile_dim` tiles would
    /// produce, without converting: one pass over the nonzeros per tile-row.
    pub fn from_csr(csr: &Csr, tile_dim: usize) -> Self {
        assert!(tile_dim > 0, "tile_dim must be positive");
        let nrows = csr.nrows();
        let n_tile_rows = nrows.div_ceil(tile_dim);
        let mut tile_colind = Vec::new();
        let mut bucket: Vec<usize> = Vec::new();
        for tr in 0..n_tile_rows {
            bucket.clear();
            for r in tr * tile_dim..((tr + 1) * tile_dim).min(nrows) {
                bucket.extend(csr.row(r).0.iter().map(|&c| c / tile_dim));
            }
            bucket.sort_unstable();
            bucket.dedup();
            tile_colind.extend_from_slice(&bucket);
        }
        B2srLayout {
            nrows,
            ncols: csr.ncols(),
            tile_dim,
            tile_colind,
        }
    }

    /// Number of rows of the represented matrix.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns of the represented matrix.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The tile dimension.
    pub fn tile_dim(&self) -> usize {
        self.tile_dim
    }

    /// Number of non-empty tiles.
    pub fn n_tiles(&self) -> usize {
        self.tile_colind.len()
    }

    /// Number of tile rows.
    pub fn n_tile_rows(&self) -> usize {
        self.nrows.div_ceil(self.tile_dim)
    }

    /// The tile-column index of every non-empty tile, in storage order.
    pub fn tile_colind(&self) -> &[usize] {
        &self.tile_colind
    }

    /// Bytes of one packed tile row.
    pub fn bytes_per_tile_row(&self) -> usize {
        packing_word_bytes(self.tile_dim)
    }

    /// Bytes of one whole packed tile.
    pub fn bytes_per_tile(&self) -> usize {
        self.tile_dim * self.bytes_per_tile_row()
    }

    /// Storage footprint of the represented B2SR matrix in bytes (4-byte
    /// integers for the two index arrays plus the packed tiles).
    pub fn storage_bytes(&self) -> usize {
        4 * (self.n_tile_rows() + 1 + self.n_tiles()) + self.bytes_per_tile() * self.n_tiles()
    }
}

/// Bytes of the packing word of one `tile_dim`-wide tile row (Table I: `u8`
/// up to 8-wide tiles, `u16` up to 16, `u32` up to 32, wider as needed).
pub(crate) fn packing_word_bytes(tile_dim: usize) -> usize {
    tile_dim.next_power_of_two().max(8) / 8
}

/// Aggregate memory traffic of one kernel invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryTraffic {
    /// Total bytes read from global memory (after L1 filtering of gathers).
    pub bytes_loaded: u64,
    /// Number of global-memory load transactions.
    pub load_transactions: u64,
    /// Estimated L1 hit rate of the vector accesses, in `[0, 1]`.
    pub l1_hit_rate: f64,
    /// Bytes of the matrix representation streamed (index arrays + values or
    /// bit tiles).
    pub matrix_bytes: u64,
    /// Bytes of vector data requested (before caching).
    pub vector_bytes_requested: u64,
}

/// Number of transactions needed to stream `bytes` sequentially.
fn stream_transactions(bytes: u64, transaction_bytes: usize) -> u64 {
    bytes.div_ceil(transaction_bytes as u64)
}

/// Model the memory traffic of one full-precision CSR SpMV (`y = A·x`).
pub fn csr_spmv_traffic(csr: &Csr, profile: &DeviceProfile) -> MemoryTraffic {
    let nnz = csr.nnz() as u64;
    let nrows = csr.nrows() as u64;

    // Streamed matrix data: RowPtr (4 B per row + 1), ColInd (4 B) and float
    // values (4 B) per stored entry.
    let matrix_bytes = 4 * (nrows + 1) + 8 * nnz;
    let mut transactions = stream_transactions(matrix_bytes, profile.transaction_bytes);

    // Vector gathers: one 4-byte access per stored entry at x[col].  The L1
    // filters repeated accesses; every miss costs a full transaction.
    let mut l1 = CacheSim::l1(profile.l1_per_sm_kb);
    let mut gather_misses = 0u64;
    for &c in csr.colind() {
        if !l1.access(c as u64 * 4) {
            gather_misses += 1;
        }
    }
    transactions += gather_misses;
    let vector_bytes_requested = 4 * nnz;
    let bytes_loaded = matrix_bytes + gather_misses * profile.transaction_bytes as u64;

    MemoryTraffic {
        bytes_loaded,
        load_transactions: transactions,
        l1_hit_rate: l1.hit_rate(),
        matrix_bytes,
        vector_bytes_requested,
    }
}

/// Model the memory traffic of one B2SR BMV (the bin/full/full shape: the
/// matrix is bit-packed, the vector is full precision and loaded one
/// `tile_dim`-entry segment per non-empty tile).
pub fn b2sr_bmv_traffic(layout: &B2srLayout, profile: &DeviceProfile) -> MemoryTraffic {
    let n_tiles = layout.n_tiles() as u64;
    let dim = layout.tile_dim() as u64;
    let tile_bytes = layout.bytes_per_tile() as u64;
    let n_tile_rows = layout.n_tile_rows() as u64;

    // Streamed matrix data: TileRowPtr, TileColInd (4 B each) and the packed
    // tiles.
    let matrix_bytes = 4 * (n_tile_rows + 1) + 4 * n_tiles + tile_bytes * n_tiles;
    let mut transactions = stream_transactions(matrix_bytes, profile.transaction_bytes);

    // Vector segments: one contiguous load of `dim` floats per non-empty
    // tile, at the tile column's offset.  Re-loads of the same segment are
    // filtered by the L1.
    let mut l1 = CacheSim::l1(profile.l1_per_sm_kb);
    let mut segment_misses = 0u64;
    // Walk tiles in storage order (tile columns within each tile row).
    for &tc in layout.tile_colind() {
        let addr = tc as u64 * dim * 4;
        let before = l1.misses();
        l1.access_range(addr, (dim * 4) as usize);
        segment_misses += l1.misses() - before;
    }
    transactions += segment_misses;
    let vector_bytes_requested = n_tiles * dim * 4;
    let bytes_loaded = matrix_bytes + segment_misses * profile.transaction_bytes as u64;

    MemoryTraffic {
        bytes_loaded,
        load_transactions: transactions,
        l1_hit_rate: l1.hit_rate(),
        matrix_bytes,
        vector_bytes_requested,
    }
}

/// The §VI-C style comparison of the two kernels on one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficComparison {
    /// Traffic of the CSR float baseline.
    pub csr: MemoryTraffic,
    /// Traffic of the B2SR bit kernel.
    pub b2sr: MemoryTraffic,
    /// `csr.load_transactions / b2sr.load_transactions`.
    pub transaction_reduction: f64,
    /// Increase of the L1 hit rate (percentage points).
    pub l1_hit_rate_gain: f64,
}

/// Compare the two kernels' modelled traffic on the same matrix.
pub fn compare_traffic(
    csr: &Csr,
    layout: &B2srLayout,
    profile: &DeviceProfile,
) -> TrafficComparison {
    let c = csr_spmv_traffic(csr, profile);
    let b = b2sr_bmv_traffic(layout, profile);
    let transaction_reduction = if b.load_transactions == 0 {
        f64::INFINITY
    } else {
        c.load_transactions as f64 / b.load_transactions as f64
    };
    let l1_hit_rate_gain = (b.l1_hit_rate - c.l1_hit_rate) * 100.0;
    TrafficComparison {
        csr: c,
        b2sr: b,
        transaction_reduction,
        l1_hit_rate_gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::pascal_gtx1080;
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
    fn layout_matches_hand_computed_tiles() {
        // 8x8 identity with tile_dim 4: two diagonal tiles.
        let mut coo = Coo::new(8, 8);
        for i in 0..8 {
            coo.push_edge(i, i).unwrap();
        }
        let csr = coo.to_binary_csr();
        let l = B2srLayout::from_csr(&csr, 4);
        assert_eq!(l.n_tiles(), 2);
        assert_eq!(l.tile_colind(), &[0, 1]);
        assert_eq!(l.n_tile_rows(), 2);
        assert_eq!(l.bytes_per_tile_row(), 1);
        assert_eq!(l.bytes_per_tile(), 4);
        // TileRowPtr (3) + TileColInd (2) ints, plus 2 tiles of 4 bytes.
        assert_eq!(l.storage_bytes(), 4 * 5 + 8);
    }

    #[test]
    fn layout_word_widths_follow_table1() {
        let csr = banded(64, 1);
        for (dim, bytes) in [(4usize, 1usize), (8, 1), (16, 2), (32, 4)] {
            let l = B2srLayout::from_csr(&csr, dim);
            assert_eq!(l.bytes_per_tile_row(), bytes, "dim {dim}");
        }
    }

    #[test]
    fn csr_traffic_scales_with_nnz() {
        let p = pascal_gtx1080();
        let small = csr_spmv_traffic(&banded(256, 2), &p);
        let large = csr_spmv_traffic(&banded(1024, 2), &p);
        assert!(large.bytes_loaded > small.bytes_loaded);
        assert!(large.load_transactions > small.load_transactions);
        assert!(small.l1_hit_rate > 0.0, "banded gathers have locality");
    }

    #[test]
    fn b2sr_traffic_is_smaller_on_banded_matrices() {
        let p = pascal_gtx1080();
        let a = banded(2048, 3);
        let l = B2srLayout::from_csr(&a, 8);
        let cmp = compare_traffic(&a, &l, &p);
        assert!(
            cmp.transaction_reduction > 1.5,
            "expected a clear transaction reduction, got {}",
            cmp.transaction_reduction
        );
        assert!(cmp.b2sr.matrix_bytes < cmp.csr.matrix_bytes);
    }

    #[test]
    fn block_dense_matrix_reproduces_vi_c_transaction_reduction() {
        // §VI-C reports a ~4× reduction in global load transactions for the
        // block-dense mycielskian8; a dense block pattern shows the same
        // effect in the model, and the reported rates stay within [0, 1].
        let p = pascal_gtx1080();
        let n = 256usize;
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for c in (r / 32) * 32..((r / 32) * 32 + 32).min(n) {
                if r != c {
                    coo.push_edge(r, c).unwrap();
                }
            }
        }
        let a = coo.to_binary_csr();
        let l = B2srLayout::from_csr(&a, 32);
        let cmp = compare_traffic(&a, &l, &p);
        assert!(
            cmp.transaction_reduction > 3.0,
            "expected a strong reduction on dense blocks, got {}",
            cmp.transaction_reduction
        );
        for rate in [cmp.csr.l1_hit_rate, cmp.b2sr.l1_hit_rate] {
            assert!((0.0..=1.0).contains(&rate));
        }
    }

    #[test]
    fn empty_matrix_produces_minimal_traffic() {
        let p = pascal_gtx1080();
        let a = Csr::empty(64, 64);
        let t = csr_spmv_traffic(&a, &p);
        assert_eq!(t.vector_bytes_requested, 0);
        assert!(t.load_transactions > 0, "row pointer is still streamed");
        let l = B2srLayout::from_csr(&a, 8);
        assert_eq!(l.n_tiles(), 0);
        let tb = b2sr_bmv_traffic(&l, &p);
        assert_eq!(tb.vector_bytes_requested, 0);
    }

    #[test]
    fn transaction_counts_use_device_width() {
        let mut narrow = pascal_gtx1080();
        narrow.transaction_bytes = 32;
        let wide = pascal_gtx1080();
        let a = banded(512, 2);
        let t_narrow = csr_spmv_traffic(&a, &narrow);
        let t_wide = csr_spmv_traffic(&a, &wide);
        assert!(t_narrow.load_transactions > t_wide.load_transactions);
    }
}
