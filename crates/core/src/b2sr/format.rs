//! The B2SR container types.

use bitgblas_bitops::BitWord;
use bitgblas_sparse::Csr;

use super::convert::RetileCounts;

/// The four tile dimensions evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileSize {
    /// 4×4 tiles packed into `u8` rows (B2SR-4).
    S4,
    /// 8×8 tiles packed into `u8` rows (B2SR-8).
    S8,
    /// 16×16 tiles packed into `u16` rows (B2SR-16).
    S16,
    /// 32×32 tiles packed into `u32` rows (B2SR-32).
    S32,
}

impl TileSize {
    /// All four variants, smallest first.
    pub const ALL: [TileSize; 4] = [TileSize::S4, TileSize::S8, TileSize::S16, TileSize::S32];

    /// The tile dimension (4, 8, 16 or 32).
    #[inline]
    pub fn dim(self) -> usize {
        match self {
            TileSize::S4 => 4,
            TileSize::S8 => 8,
            TileSize::S16 => 16,
            TileSize::S32 => 32,
        }
    }

    /// Bytes used to store one packed tile row (the packing word size of
    /// Table I).
    #[inline]
    pub fn bytes_per_tile_row(self) -> usize {
        match self {
            TileSize::S4 | TileSize::S8 => 1,
            TileSize::S16 => 2,
            TileSize::S32 => 4,
        }
    }

    /// Bytes used to store one whole packed tile.
    #[inline]
    pub fn bytes_per_tile(self) -> usize {
        self.dim() * self.bytes_per_tile_row()
    }

    /// The `TileSize` for a given dimension, if it is one of the supported
    /// four.
    pub fn from_dim(dim: usize) -> Option<TileSize> {
        match dim {
            4 => Some(TileSize::S4),
            8 => Some(TileSize::S8),
            16 => Some(TileSize::S16),
            32 => Some(TileSize::S32),
            _ => None,
        }
    }
}

impl std::fmt::Display for TileSize {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B2SR-{}", self.dim())
    }
}

/// A binary sparse matrix in Bit-Block Compressed Sparse Row format.
///
/// `W` is the packing word (`u8` for B2SR-4/8, `u16` for B2SR-16, `u32` for
/// B2SR-32); `tile_dim ≤ W::BITS` rows of `tile_dim` bits are stored per
/// non-empty tile, row-major, least-significant bit = left-most column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct B2sr<W: BitWord> {
    pub(crate) nrows: usize,
    pub(crate) ncols: usize,
    pub(crate) tile_dim: usize,
    pub(crate) n_tile_rows: usize,
    pub(crate) n_tile_cols: usize,
    /// Cumulative non-empty-tile counts per tile-row (`n_tile_rows + 1`).
    pub(crate) tile_rowptr: Vec<usize>,
    /// Tile-column index of each non-empty tile.
    pub(crate) tile_colind: Vec<usize>,
    /// `tile_dim` packed words per non-empty tile, concatenated.
    pub(crate) bit_tiles: Vec<W>,
}

impl<W: BitWord> B2sr<W> {
    /// Assemble a B2SR matrix from its raw parts (used by the converter and
    /// by tests that build tiles directly).
    ///
    /// # Panics
    /// Panics if the arrays are structurally inconsistent.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        tile_dim: usize,
        tile_rowptr: Vec<usize>,
        tile_colind: Vec<usize>,
        bit_tiles: Vec<W>,
    ) -> Self {
        assert!(
            tile_dim > 0 && tile_dim as u32 <= W::BITS,
            "tile_dim must fit the packing word"
        );
        let n_tile_rows = nrows.div_ceil(tile_dim);
        let n_tile_cols = ncols.div_ceil(tile_dim);
        assert_eq!(tile_rowptr.len(), n_tile_rows + 1, "tile_rowptr length");
        assert_eq!(
            *tile_rowptr.last().unwrap_or(&0),
            tile_colind.len(),
            "tile count"
        );
        assert_eq!(
            bit_tiles.len(),
            tile_colind.len() * tile_dim,
            "bit_tiles length"
        );
        debug_assert!(
            tile_colind.iter().all(|&c| c < n_tile_cols),
            "tile column in range"
        );
        B2sr {
            nrows,
            ncols,
            tile_dim,
            n_tile_rows,
            n_tile_cols,
            tile_rowptr,
            tile_colind,
            bit_tiles,
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

    /// The tile dimension (4, 8, 16 or 32).
    pub fn tile_dim(&self) -> usize {
        self.tile_dim
    }

    /// Number of tile rows (`ceil(nrows / tile_dim)`).
    pub fn n_tile_rows(&self) -> usize {
        self.n_tile_rows
    }

    /// Number of tile columns.
    pub fn n_tile_cols(&self) -> usize {
        self.n_tile_cols
    }

    /// Number of non-empty tiles.
    pub fn n_tiles(&self) -> usize {
        self.tile_colind.len()
    }

    /// The `TileRowPtr` array.
    pub fn tile_rowptr(&self) -> &[usize] {
        &self.tile_rowptr
    }

    /// The `TileColInd` array.
    pub fn tile_colind(&self) -> &[usize] {
        &self.tile_colind
    }

    /// The raw `BitTiles` storage.
    pub fn bit_tiles(&self) -> &[W] {
        &self.bit_tiles
    }

    /// The packed words of the tile at slot `idx` (row-major, `tile_dim`
    /// words).
    pub fn tile_words(&self, idx: usize) -> &[W] {
        &self.bit_tiles[idx * self.tile_dim..(idx + 1) * self.tile_dim]
    }

    /// Iterate over `(tile_row, tile_col, words)` for every non-empty tile.
    pub fn iter_tiles(&self) -> impl Iterator<Item = (usize, usize, &[W])> + '_ {
        (0..self.n_tile_rows).flat_map(move |tr| {
            (self.tile_rowptr[tr]..self.tile_rowptr[tr + 1])
                .map(move |idx| (tr, self.tile_colind[idx], self.tile_words(idx)))
        })
    }

    /// The slots (indices into `tile_colind`/`bit_tiles`) of tile-row `tr`.
    pub fn tile_row_range(&self, tr: usize) -> std::ops::Range<usize> {
        self.tile_rowptr[tr]..self.tile_rowptr[tr + 1]
    }

    /// Number of set bits across all tiles — equals the nnz of the original
    /// binary matrix.  This is a popcount sweep over every tile word, not a
    /// stored count, and not for hot paths: per-operation paths and the bit
    /// backend's tile decision take the edge count from the CSR view instead.
    pub fn nnz(&self) -> u64 {
        self.bit_tiles.iter().map(|w| w.popcount() as u64).sum()
    }

    /// Storage footprint in bytes, counting 4-byte integers for the two index
    /// arrays and the Table-I packing word size for the tiles.
    pub fn storage_bytes(&self) -> usize {
        let word_bytes = match TileSize::from_dim(self.tile_dim) {
            Some(ts) => ts.bytes_per_tile_row(),
            // Non-standard tile dims fall back to the word's own width.
            None => (W::BITS / 8) as usize,
        };
        4 * (self.tile_rowptr.len() + self.tile_colind.len()) + word_bytes * self.bit_tiles.len()
    }

    /// True if the bit at matrix coordinates `(r, c)` is set.
    pub fn get(&self, r: usize, c: usize) -> bool {
        if r >= self.nrows || c >= self.ncols {
            return false;
        }
        let (tr, tc) = (r / self.tile_dim, c / self.tile_dim);
        let range = self.tile_row_range(tr);
        let cols = &self.tile_colind[range.clone()];
        match cols.binary_search(&tc) {
            Ok(pos) => {
                let idx = range.start + pos;
                let word = self.tile_words(idx)[r % self.tile_dim];
                word.bit((c % self.tile_dim) as u32)
            }
            Err(_) => false,
        }
    }

    /// Reconstruct the binary CSR matrix (all values `1.0`).
    pub fn to_csr(&self) -> Csr {
        let mut coo = bitgblas_sparse::Coo::new(self.nrows, self.ncols);
        for (tr, tc, words) in self.iter_tiles() {
            for (dr, &w) in words.iter().enumerate() {
                let r = tr * self.tile_dim + dr;
                if r >= self.nrows {
                    break;
                }
                for dc in w.iter_ones() {
                    let c = tc * self.tile_dim + dc as usize;
                    if c < self.ncols {
                        coo.push_edge(r, c).expect("in bounds by construction");
                    }
                }
            }
        }
        coo.to_binary_csr()
    }

    /// Transpose: returns the B2SR representation of `A^T`.
    ///
    /// As the paper notes, only the upper-level index arrays need a CSR→CSC
    /// style permutation; each bit tile is transposed by a pure bit
    /// permutation, written straight into its slot of the result.
    pub fn transpose(&self) -> B2sr<W> {
        let dim = self.tile_dim;
        // Count tiles per transposed tile-row (= original tile-column).
        let n_trows_t = self.ncols.div_ceil(dim);
        let mut tile_rowptr = vec![0usize; n_trows_t + 1];
        for &tc in &self.tile_colind {
            tile_rowptr[tc + 1] += 1;
        }
        for i in 0..n_trows_t {
            tile_rowptr[i + 1] += tile_rowptr[i];
        }
        let mut next = tile_rowptr.clone();
        let n_tiles = self.n_tiles();
        let mut tile_colind = vec![0usize; n_tiles];
        let mut bit_tiles = vec![W::ZERO; n_tiles * dim];
        for tr in 0..self.n_tile_rows {
            for idx in self.tile_row_range(tr) {
                let slot = &mut next[self.tile_colind[idx]];
                tile_colind[*slot] = tr;
                let out = &mut bit_tiles[*slot * dim..(*slot + 1) * dim];
                bitgblas_bitops::pack::transpose_tile_into(self.tile_words(idx), dim, out);
                *slot += 1;
            }
        }
        // Tiles within a transposed tile-row must be sorted by tile column.
        // Because we visit the original tiles in (tr, tc) order, tiles land in
        // each bucket already sorted by tr (the new column index), so the
        // structure is valid as built.
        B2sr {
            nrows: self.ncols,
            ncols: self.nrows,
            tile_dim: dim,
            n_tile_rows: n_trows_t,
            n_tile_cols: self.nrows.div_ceil(dim),
            tile_rowptr,
            tile_colind,
            bit_tiles,
        }
    }
}

/// A type-erased B2SR matrix covering the four Table-I variants, so callers
/// can pick the tile size at run time (e.g. the width `Backend::Auto`'s tile
/// gate picks).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum B2srMatrix {
    /// B2SR-4 (4×4 tiles, `u8` packing).
    B4(B2sr<u8>),
    /// B2SR-8 (8×8 tiles, `u8` packing).
    B8(B2sr<u8>),
    /// B2SR-16 (16×16 tiles, `u16` packing).
    B16(B2sr<u16>),
    /// B2SR-32 (32×32 tiles, `u32` packing).
    B32(B2sr<u32>),
}

/// The one per-width dispatch: evaluate `$body` with `$m` bound to the inner
/// `&B2sr<W>` of a `&B2srMatrix`, once per variant, so `$body` is
/// monomorphised for each packing word (call a function generic over
/// `W: BitWord` to name the word type).
macro_rules! with_b2sr {
    ($matrix:expr, |$m:ident| $body:expr) => {
        match $matrix {
            $crate::b2sr::B2srMatrix::B4($m) => $body,
            $crate::b2sr::B2srMatrix::B8($m) => $body,
            $crate::b2sr::B2srMatrix::B16($m) => $body,
            $crate::b2sr::B2srMatrix::B32($m) => $body,
        }
    };
}
pub(crate) use with_b2sr;

impl B2srMatrix {
    /// Convert a binary CSR matrix into the requested B2SR variant.
    pub fn from_csr(csr: &Csr, size: TileSize) -> B2srMatrix {
        B2srMatrix::retile(csr, size, None).0
    }

    /// [`from_csr`](Self::from_csr), converting only the tile-rows that hold
    /// one of `prev`'s ascending dirty rows and copying the others from
    /// `prev`'s matrix — `csr` before those rows changed, in the same
    /// variant (any other is ignored).  See
    /// [`B2sr::retile_rows`](B2sr::retile_rows).
    pub fn retile(
        csr: &Csr,
        size: TileSize,
        prev: Option<(&B2srMatrix, &[usize])>,
    ) -> (B2srMatrix, RetileCounts) {
        fn variant<W: BitWord>(
            csr: &Csr,
            size: TileSize,
            prev: Option<(&B2srMatrix, &[usize])>,
            wrap: fn(B2sr<W>) -> B2srMatrix,
        ) -> (B2srMatrix, RetileCounts) {
            let prev = prev.and_then(|(m, dirty)| Some((m.inner::<W>(size.dim())?, dirty)));
            let (m, counts) = super::convert::retile(csr, size.dim(), prev);
            (wrap(m), counts)
        }
        match size {
            TileSize::S4 => variant::<u8>(csr, size, prev, B2srMatrix::B4),
            TileSize::S8 => variant::<u8>(csr, size, prev, B2srMatrix::B8),
            TileSize::S16 => variant::<u16>(csr, size, prev, B2srMatrix::B16),
            TileSize::S32 => variant::<u32>(csr, size, prev, B2srMatrix::B32),
        }
    }

    /// The tile size of this variant.
    pub fn tile_size(&self) -> TileSize {
        match self {
            B2srMatrix::B4(_) => TileSize::S4,
            B2srMatrix::B8(_) => TileSize::S8,
            B2srMatrix::B16(_) => TileSize::S16,
            B2srMatrix::B32(_) => TileSize::S32,
        }
    }

    /// The inner matrix, when its packing word is `W` and its tile
    /// dimension is `tile_dim` — how a kernel over several operands checks
    /// they share one variant.
    pub(crate) fn inner<W: BitWord>(&self, tile_dim: usize) -> Option<&B2sr<W>> {
        with_b2sr!(self, |m| (m as &dyn std::any::Any)
            .downcast_ref::<B2sr<W>>())
        .filter(|m| m.tile_dim() == tile_dim)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        with_b2sr!(self, |m| m.nrows())
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        with_b2sr!(self, |m| m.ncols())
    }

    /// Number of set bits (nnz of the binary matrix) — a popcount sweep over
    /// every tile word, not for hot paths; see [`B2sr::nnz`].
    pub fn nnz(&self) -> u64 {
        with_b2sr!(self, |m| m.nnz())
    }

    /// Number of non-empty tiles.
    pub fn n_tiles(&self) -> usize {
        with_b2sr!(self, |m| m.n_tiles())
    }

    /// Storage footprint in bytes.
    pub fn storage_bytes(&self) -> usize {
        with_b2sr!(self, |m| m.storage_bytes())
    }

    /// Reconstruct the binary CSR matrix.
    pub fn to_csr(&self) -> Csr {
        with_b2sr!(self, |m| m.to_csr())
    }

    /// Transpose, preserving the variant.
    pub fn transpose(&self) -> B2srMatrix {
        match self {
            B2srMatrix::B4(m) => B2srMatrix::B4(m.transpose()),
            B2srMatrix::B8(m) => B2srMatrix::B8(m.transpose()),
            B2srMatrix::B16(m) => B2srMatrix::B16(m.transpose()),
            B2srMatrix::B32(m) => B2srMatrix::B32(m.transpose()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_size_properties() {
        assert_eq!(TileSize::S4.dim(), 4);
        assert_eq!(TileSize::S32.dim(), 32);
        assert_eq!(TileSize::S4.bytes_per_tile(), 4);
        assert_eq!(TileSize::S8.bytes_per_tile(), 8);
        assert_eq!(TileSize::S16.bytes_per_tile(), 32);
        assert_eq!(TileSize::S32.bytes_per_tile(), 128);
        assert_eq!(TileSize::from_dim(16), Some(TileSize::S16));
        assert_eq!(TileSize::from_dim(7), None);
        assert_eq!(TileSize::S8.to_string(), "B2SR-8");
        assert_eq!(TileSize::ALL.len(), 4);
    }

    #[test]
    fn from_parts_and_accessors() {
        // A 4x4 matrix with one tile of dim 4: identity pattern.
        let words: Vec<u8> = vec![0b0001, 0b0010, 0b0100, 0b1000];
        let m = B2sr::<u8>::from_parts(4, 4, 4, vec![0, 1], vec![0], words.clone());
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.n_tiles(), 1);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.tile_words(0), &words[..]);
        assert!(m.get(2, 2));
        assert!(!m.get(2, 3));
        assert!(!m.get(9, 9));
        let tiles: Vec<_> = m.iter_tiles().collect();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0].0, 0);
        assert_eq!(tiles[0].1, 0);
    }

    #[test]
    #[should_panic(expected = "bit_tiles length")]
    fn from_parts_rejects_bad_lengths() {
        let _ = B2sr::<u8>::from_parts(4, 4, 4, vec![0, 1], vec![0], vec![0u8; 3]);
    }

    #[test]
    fn storage_accounting_matches_table1() {
        // One non-empty tile per variant: index arrays (2+1 ints) + tile bytes.
        let m4 = B2sr::<u8>::from_parts(4, 4, 4, vec![0, 1], vec![0], vec![0xFu8; 4]);
        assert_eq!(m4.storage_bytes(), 4 * 3 + 4);
        let m8 = B2sr::<u8>::from_parts(8, 8, 8, vec![0, 1], vec![0], vec![0xFFu8; 8]);
        assert_eq!(m8.storage_bytes(), 4 * 3 + 8);
        let m16 = B2sr::<u16>::from_parts(16, 16, 16, vec![0, 1], vec![0], vec![0u16; 16]);
        assert_eq!(m16.storage_bytes(), 4 * 3 + 32);
        let m32 = B2sr::<u32>::from_parts(32, 32, 32, vec![0, 1], vec![0], vec![0u32; 32]);
        assert_eq!(m32.storage_bytes(), 4 * 3 + 128);
    }
}
