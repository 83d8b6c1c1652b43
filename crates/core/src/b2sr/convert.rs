//! CSR → B2SR conversion, whole or by dirty tile-rows.
//!
//! The paper converts CSR to B2SR in two steps: `cusparseXcsr2bsrNnz()`
//! discovers the non-empty tiles per tile-row, then per-tile bit-packing
//! kernels encode each tile (§III-B, "Bit-packing overhead": the whole
//! routine costs 3–34 ms and is amortized over repeated use of the graph).
//! A graph served under live mutation pays it again at every compaction, so
//! here the cost follows what is touched.  There is one converter body,
//! the per-tile-row step of the private `retile`, and it runs serially:
//!
//! 1. *discover* — every stored entry of the tile-row's CSR rows marks its
//!    tile column in a two-level bitmap (a word per 64 tile columns and a
//!    summary word per 64 of those), so the step costs the tile-row's
//!    entries + its tiles + `n_tile_cols / 4096`, whatever the matrix width;
//! 2. *number* — the set bits, walked ascending through the summary, are the
//!    tile-row's `tile_colind`; each gets its slot in a reused
//!    `slot_of[tile_col]` table and the bitmap is left clear behind it;
//! 3. *pack* — every nonzero ORs its bit into
//!    `bit_tiles[(first + slot_of[tile_col]) · dim + local_row]`, in place in
//!    the output array.
//!
//! No per-tile-row buffer, no sort, no search, no stitch copy.  An explicit
//! zero discovers its tile (it is a stored entry) and sets no bit.
//!
//! [`from_csr`] runs the step on every tile-row.  [`B2sr::retile_rows`] runs
//! it on the tile-rows that hold a changed row and copies every run of clean
//! tile-rows — `tile_colind` and words verbatim, `tile_rowptr` shifted by
//! what the dirty tile-rows before it gained or lost — from the matrix being
//! replaced; the result is `==` to a full conversion, field for field.
//! `count_tiles` runs the discover step alone, for the tile count a matrix
//! is tiled by (`grb::backend::MIN_TILE_FILL`).

use bitgblas_bitops::BitWord;
use bitgblas_sparse::Csr;

use super::format::B2sr;

/// What one conversion did: exact counts, the same on every host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetileCounts {
    /// Tile-rows converted from their CSR rows.
    pub tile_rows_retiled: usize,
    /// Tiles those tile-rows hold in the result.
    pub tiles_retiled: usize,
    /// Tiles copied verbatim from the matrix being replaced.
    pub tiles_spliced: usize,
}

/// Convert a binary CSR matrix into B2SR with the given tile dimension.
///
/// Any nonzero value in `csr` is treated as a set bit (the matrix is
/// binarized on the fly), matching the paper's homogeneous-graph assumption.
///
/// # Panics
/// Panics if `tile_dim` is zero or larger than the packing word `W`.
pub fn from_csr<W: BitWord>(csr: &Csr, tile_dim: usize) -> B2sr<W> {
    retile(csr, tile_dim, None).0
}

impl<W: BitWord> B2sr<W> {
    /// The B2SR form of `merged` — this matrix after the ascending rows
    /// `dirty_rows` changed (same shape, same tile dimension) — converting
    /// only the tile-rows that hold a dirty row and copying the rest from
    /// `self`.  Equal to `from_csr(merged, self.tile_dim())` in every field.
    ///
    /// # Panics
    /// Panics if `merged`'s shape differs from this matrix's.
    pub fn retile_rows(&self, merged: &Csr, dirty_rows: &[usize]) -> (B2sr<W>, RetileCounts) {
        retile(merged, self.tile_dim, Some((self, dirty_rows)))
    }
}

/// The converter: tile-rows of `csr` holding one of `prev`'s dirty rows (all
/// of them without a `prev`) go through the discover / number / pack step,
/// the runs between them are copied from `prev`'s matrix.
///
/// # Panics
/// Panics if the tile dimension `dim` does not fit `W`, or if `prev`'s matrix
/// differs from `csr` in shape or from `dim` in tile dimension.
pub(crate) fn retile<W: BitWord>(
    csr: &Csr,
    dim: usize,
    prev: Option<(&B2sr<W>, &[usize])>,
) -> (B2sr<W>, RetileCounts) {
    assert!(
        dim > 0 && dim as u32 <= W::BITS,
        "tile_dim {dim} does not fit packing word of {} bits",
        W::BITS
    );
    if let Some((old, _)) = prev {
        assert_eq!(
            (old.nrows, old.ncols, old.tile_dim),
            (csr.nrows(), csr.ncols(), dim),
            "a re-tiled matrix keeps its shape and tile dimension"
        );
    }
    let (nrows, ncols) = (csr.nrows(), csr.ncols());
    let n_tile_rows = nrows.div_ceil(dim);
    let n_tile_cols = ncols.div_ceil(dim);
    let (rowptr, colind, values) = (csr.rowptr(), csr.colind(), csr.values());

    // Reused across tile-rows.
    let mut marks = TileMarks::new(ncols, dim);
    let mut slot_of = vec![0usize; n_tile_cols];

    // The tile-rows to convert, ascending: all of them without a `prev`.
    let dirty_tile_rows: Vec<usize> = match prev {
        None => (0..n_tile_rows).collect(),
        Some((_, dirty_rows)) => {
            debug_assert!(dirty_rows.windows(2).all(|w| w[0] <= w[1]));
            let mut of_rows: Vec<usize> = dirty_rows
                .iter()
                .map(|&r| r / dim)
                .filter(|&tr| tr < n_tile_rows)
                .collect();
            of_rows.dedup();
            of_rows
        }
    };
    // A splice reserves its arrays once, for the old tiles and a new tile per
    // dirty row — what a batch of scattered edge deltas adds at most; a row
    // that gained tiles by the dozen falls back on `Vec` growth, as a whole
    // conversion does (its only bound is the entry count).
    let reserve = prev.map_or(0, |(old, dirty_rows)| old.n_tiles() + dirty_rows.len());
    let mut out = Tiles {
        rowptr: vec![0usize; n_tile_rows + 1],
        colind: Vec::with_capacity(reserve),
        words: Vec::<W>::with_capacity(reserve * dim),
    };
    let mut counts = RetileCounts::default();
    let old = prev.map(|(old, _)| old);

    let mut clean_from = 0usize;
    for &tr in &dirty_tile_rows {
        if let Some(old) = old {
            counts.tiles_spliced += out.splice(old, clean_from, tr);
        }
        clean_from = tr + 1;

        let rows = tr * dim..((tr + 1) * dim).min(nrows);
        marks.discover(&colind[rowptr[rows.start]..rowptr[rows.end]]);
        // Number.
        let first = out.colind.len();
        marks.drain(|wi, mut word| {
            while word != 0 {
                let tc = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                slot_of[tc] = out.colind.len() - first;
                out.colind.push(tc);
            }
        });
        out.rowptr[tr + 1] = out.colind.len();
        // Pack.
        out.words.resize(out.colind.len() * dim, W::ZERO);
        let words = &mut out.words[first * dim..];
        for (local_r, r) in rows.enumerate() {
            let span = rowptr[r]..rowptr[r + 1];
            for (&c, &v) in colind[span.clone()].iter().zip(&values[span]) {
                if v != 0.0 {
                    let tc = marks.tile_of(c);
                    let w = &mut words[slot_of[tc] * dim + local_r];
                    *w = w.with_bit((c - tc * dim) as u32);
                }
            }
        }
        counts.tile_rows_retiled += 1;
        counts.tiles_retiled += out.colind.len() - first;
    }
    if let Some(old) = old {
        counts.tiles_spliced += out.splice(old, clean_from, n_tile_rows);
    }

    let m = B2sr::from_parts(nrows, ncols, dim, out.rowptr, out.colind, out.words);
    (m, counts)
}

/// The number of non-empty `dim × dim` tiles of `csr`: the converter's
/// discover step on every tile-row, numbering and packing nothing.
pub(crate) fn count_tiles(csr: &Csr, dim: usize) -> usize {
    let (nrows, rowptr, colind) = (csr.nrows(), csr.rowptr(), csr.colind());
    let mut marks = TileMarks::new(csr.ncols(), dim);
    let mut tiles = 0;
    for start in (0..nrows).step_by(dim) {
        let end = (start + dim).min(nrows);
        marks.discover(&colind[rowptr[start]..rowptr[end]]);
        marks.drain(|_, word| tiles += word.count_ones() as usize);
    }
    tiles
}

/// The tile columns one tile-row's entries reach, as a two-level bitmap: a
/// word per 64 tile columns and a summary word per 64 of those.  All clear
/// between tile-rows.
struct TileMarks {
    dim: usize,
    marks: Vec<u64>,
    summary: Vec<u64>,
}

impl TileMarks {
    fn new(ncols: usize, dim: usize) -> Self {
        let marks = vec![0u64; ncols.div_ceil(dim).div_ceil(64)];
        let summary = vec![0u64; marks.len().div_ceil(64)];
        TileMarks {
            dim,
            marks,
            summary,
        }
    }

    /// The tile column of column `c`: a shift for the power-of-two
    /// dimensions of Table I, a division for any other.
    #[inline(always)]
    fn tile_of(&self, c: usize) -> usize {
        if self.dim.is_power_of_two() {
            c >> self.dim.trailing_zeros()
        } else {
            c / self.dim
        }
    }

    /// Discover: mark the tile column of every entry of `cols`.  A row's
    /// columns ascend, so its bits gather in a register, stored once per
    /// mark word.
    fn discover(&mut self, cols: &[usize]) {
        let (mut at, mut bits) = (0, 0u64);
        for &c in cols {
            let tc = self.tile_of(c);
            if tc >> 6 != at {
                self.mark(at, bits);
                (at, bits) = (tc >> 6, 0);
            }
            bits |= 1 << (tc & 63);
        }
        self.mark(at, bits);
    }

    /// OR `bits` into mark word `at`, and its summary bit if any is set.
    fn mark(&mut self, at: usize, bits: u64) {
        if bits != 0 {
            self.marks[at] |= bits;
            self.summary[at >> 6] |= 1 << (at & 63);
        }
    }

    /// Hand every non-zero mark word `wi` (bit `b` is tile column
    /// `wi · 64 + b`) to `each`, ascending, and leave the bitmap clear.
    fn drain(&mut self, mut each: impl FnMut(usize, u64)) {
        for (si, s) in self.summary.iter_mut().enumerate() {
            let mut live = std::mem::take(s);
            while live != 0 {
                let wi = si * 64 + live.trailing_zeros() as usize;
                live &= live - 1;
                each(wi, std::mem::take(&mut self.marks[wi]));
            }
        }
    }
}

/// The three B2SR arrays under construction, filled tile-row by tile-row.
struct Tiles<W> {
    rowptr: Vec<usize>,
    colind: Vec<usize>,
    words: Vec<W>,
}

impl<W: BitWord> Tiles<W> {
    /// Append `old`'s tile-rows `[from, to)` verbatim — `tile_rowptr` shifted
    /// to where they land — and return how many tiles that was.
    fn splice(&mut self, old: &B2sr<W>, from: usize, to: usize) -> usize {
        let (first, last) = (old.tile_rowptr[from], old.tile_rowptr[to]);
        let at = self.colind.len();
        for tr in from..to {
            self.rowptr[tr + 1] = old.tile_rowptr[tr + 1] - first + at;
        }
        let dim = old.tile_dim;
        self.colind.extend_from_slice(&old.tile_colind[first..last]);
        self.words
            .extend_from_slice(&old.bit_tiles[first * dim..last * dim]);
        last - first
    }
}

/// Convenience wrapper: convert and return along with the conversion time in
/// seconds, for the conversion-overhead experiment (§III-B).
pub fn from_csr_timed<W: BitWord>(csr: &Csr, tile_dim: usize) -> (B2sr<W>, f64) {
    let start = std::time::Instant::now();
    let b = from_csr::<W>(csr, tile_dim);
    (b, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_sparse::Coo;

    fn sample(n: usize, seed: u64) -> Csr {
        // Deterministic pseudo-random binary matrix without external deps.
        let mut coo = Coo::new(n, n);
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..n * 4 {
            let r = (next() % n as u64) as usize;
            let c = (next() % n as u64) as usize;
            coo.push_edge(r, c).unwrap();
        }
        coo.to_binary_csr()
    }

    /// The converter this module replaced, kept as the oracle: per tile-row,
    /// sort and dedup the tile columns of every stored entry, then find each
    /// nonzero's tile by binary search.
    fn reference<W: BitWord>(csr: &Csr, tile_dim: usize) -> B2sr<W> {
        let nrows = csr.nrows();
        let mut tile_rowptr = vec![0usize];
        let (mut tile_colind, mut bit_tiles) = (Vec::new(), Vec::new());
        for r_start in (0..nrows).step_by(tile_dim) {
            let rows = r_start..(r_start + tile_dim).min(nrows);
            let mut tile_cols: Vec<usize> = rows
                .clone()
                .flat_map(|r| csr.row(r).0.iter().map(|&c| c / tile_dim))
                .collect();
            tile_cols.sort_unstable();
            tile_cols.dedup();
            let mut words = vec![W::ZERO; tile_cols.len() * tile_dim];
            for r in rows {
                let (cols, vals) = csr.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    if v != 0.0 {
                        let slot = tile_cols.binary_search(&(c / tile_dim)).unwrap();
                        let w = &mut words[slot * tile_dim + (r - r_start)];
                        *w = w.with_bit((c % tile_dim) as u32);
                    }
                }
            }
            tile_colind.extend(tile_cols);
            bit_tiles.extend(words);
            tile_rowptr.push(tile_colind.len());
        }
        B2sr::from_parts(
            nrows,
            csr.ncols(),
            tile_dim,
            tile_rowptr,
            tile_colind,
            bit_tiles,
        )
    }

    /// A pseudo-random `nrows × ncols` CSR with explicit zeros among its
    /// stored entries (every third one).
    fn rectangular(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rowptr = vec![0usize];
        let (mut colind, mut values) = (Vec::new(), Vec::new());
        for _ in 0..nrows {
            let mut cols: Vec<usize> = (0..per_row.min(ncols))
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % ncols as u64) as usize
                })
                .collect();
            cols.sort_unstable();
            cols.dedup();
            for c in cols {
                values.push(if colind.len() % 3 == 0 { 0.0 } else { 1.0 });
                colind.push(c);
            }
            rowptr.push(colind.len());
        }
        Csr::from_raw(nrows, ncols, rowptr, colind, values).unwrap()
    }

    fn for_each_width(mut check: impl FnMut(&dyn Fn(&Csr) -> bool, usize)) {
        check(&|a| from_csr::<u8>(a, 4) == reference::<u8>(a, 4), 4);
        check(&|a| from_csr::<u8>(a, 8) == reference::<u8>(a, 8), 8);
        check(&|a| from_csr::<u16>(a, 16) == reference::<u16>(a, 16), 16);
        check(&|a| from_csr::<u32>(a, 32) == reference::<u32>(a, 32), 32);
        // A dimension outside Table I, not a power of two.
        check(&|a| from_csr::<u8>(a, 5) == reference::<u8>(a, 5), 5);
    }

    #[test]
    fn equals_the_reference_on_rectangular_shapes_with_explicit_zeros() {
        let shapes = [
            (0, 0),
            (0, 9),
            (9, 0),
            (1, 1),
            (5, 300),
            (300, 5),
            (63, 65),
            (65, 63),
            (200, 130),
            // Wide enough for a second summary word at every width.
            (40, 4096 * 32 + 77),
        ];
        for (i, &(nrows, ncols)) in shapes.iter().enumerate() {
            for per_row in [1usize, 9, 70] {
                let a = rectangular(nrows, ncols, per_row, i as u64 + 1);
                for_each_width(|same, dim| assert!(same(&a), "{nrows}x{ncols} dim {dim}"));
            }
        }
    }

    /// `retile_rows` against a full conversion, whole struct, for a base
    /// and a log: through the log's own dirty rows, with every row called
    /// dirty, and — the log empty — with none.
    fn assert_retile_parity(base: &Csr, log: &[crate::delta::EdgeDelta]) {
        fn at<W: BitWord>(base: &Csr, merged: &Csr, dirty: &[usize], dim: usize) {
            let old = from_csr::<W>(base, dim);
            let full = from_csr::<W>(merged, dim);
            let (got, counts) = old.retile_rows(merged, dirty);
            assert_eq!(got, full, "dim {dim} dirty {dirty:?}");
            assert!(counts.tile_rows_retiled <= dirty.len());
            assert_eq!(counts.tiles_retiled + counts.tiles_spliced, full.n_tiles());
        }
        let delta = crate::delta::DeltaSnapshot::build(base, log);
        let merged = delta.merge_csr(base, false);
        let all: Vec<usize> = (0..base.nrows()).collect();
        for dirty in [delta.dirty_rows(), &all[..]] {
            at::<u8>(base, &merged, dirty, 4);
            at::<u8>(base, &merged, dirty, 8);
            at::<u16>(base, &merged, dirty, 16);
            at::<u32>(base, &merged, dirty, 32);
        }
    }

    #[test]
    fn retile_rows_equals_a_full_conversion_on_hostile_logs() {
        use crate::delta::EdgeDelta;
        for n in [0usize, 1, 5, 63, 65, 200] {
            let base = sample(n.max(1), n as u64 + 3);
            let base = if n == 0 { Csr::empty(0, 0) } else { base };
            // Nothing dirty.
            assert_retile_parity(&base, &[]);
            if n == 0 {
                continue;
            }
            let (r0, c0) = base.iter().next().map_or((0, 0), |(r, c, _)| (r, c));
            let absent = (0..n).find(|&c| base.get(n - 1, c).is_none()).unwrap_or(0);
            let mut log = vec![
                EdgeDelta::insert(n / 2, n / 3),
                EdgeDelta::insert(n / 2, n / 3), // duplicate insert
                EdgeDelta::insert(n / 3, n - 1),
                EdgeDelta::delete(n / 3, n - 1), // insert, then delete
                EdgeDelta::delete(n - 1, absent), // absent edge
                EdgeDelta::insert(n / 4, n / 4), // self-loop
                EdgeDelta::delete(r0, c0),       // a base edge
                EdgeDelta::insert(n - 1, 0),     // the last, partial tile-row
            ];
            assert_retile_parity(&base, &log);
            // A tile-row emptied (rows 0..32 cover one at every width) …
            let emptied: Vec<EdgeDelta> = base
                .iter()
                .filter(|&(r, _, _)| r < 32)
                .map(|(r, c, _)| EdgeDelta::delete(r, c))
                .collect();
            log.extend(&emptied);
            assert_retile_parity(&base, &log);
            // … and an empty one filled: the emptied matrix as the base.
            let hollow =
                crate::delta::DeltaSnapshot::build(&base, &emptied).merge_csr(&base, false);
            let refill: Vec<EdgeDelta> = (0..n.min(32))
                .map(|r| EdgeDelta::insert(r, (r * 7 + 1) % n))
                .collect();
            assert_retile_parity(&hollow, &refill);
        }
    }

    #[test]
    fn count_tiles_equals_the_converted_tile_count() {
        let shapes = [
            (0, 0),
            (9, 0),
            (1, 1),
            (63, 65),
            (200, 130),
            (40, 4096 * 32 + 77),
        ];
        for (seed, (nrows, ncols)) in shapes.into_iter().enumerate() {
            let a = rectangular(nrows, ncols, 7, seed as u64);
            for dim in [4, 5, 8] {
                assert_eq!(count_tiles(&a, dim), from_csr::<u8>(&a, dim).n_tiles());
            }
            assert_eq!(count_tiles(&a, 16), from_csr::<u16>(&a, 16).n_tiles());
            assert_eq!(count_tiles(&a, 32), from_csr::<u32>(&a, 32).n_tiles());
        }
    }

    #[test]
    fn retile_counts_follow_the_dirty_tile_rows() {
        let a = sample(200, 11);
        let old = from_csr::<u8>(&a, 8);
        // Rows 3 and 5 share tile-row 0; row 199 is in the last one.
        let (same, counts) = old.retile_rows(&a, &[3, 5, 199]);
        assert_eq!(same, old);
        assert_eq!(counts.tile_rows_retiled, 2);
        let retiled = old.tile_row_range(0).len() + old.tile_row_range(24).len();
        assert_eq!(counts.tiles_retiled, retiled);
        assert_eq!(counts.tiles_spliced, old.n_tiles() - retiled);
        // Out-of-range rows name no tile-row.
        assert_eq!(old.retile_rows(&a, &[200, 4096]).1.tile_rows_retiled, 0);
    }

    #[test]
    #[should_panic(expected = "keeps its shape")]
    fn retile_rows_rejects_another_shape() {
        let _ = from_csr::<u8>(&sample(16, 1), 8).retile_rows(&sample(24, 1), &[0]);
    }

    #[test]
    fn roundtrip_all_variants() {
        let a = sample(100, 3);
        assert_eq!(from_csr::<u8>(&a, 4).to_csr(), a);
        assert_eq!(from_csr::<u8>(&a, 8).to_csr(), a);
        assert_eq!(from_csr::<u16>(&a, 16).to_csr(), a);
        assert_eq!(from_csr::<u32>(&a, 32).to_csr(), a);
    }

    #[test]
    fn roundtrip_non_multiple_dimensions() {
        for n in [1usize, 5, 17, 33, 63, 65] {
            let a = sample(n, n as u64);
            let b = from_csr::<u32>(&a, 32);
            assert_eq!(b.to_csr(), a, "n={n}");
            assert_eq!(b.n_tile_rows(), n.div_ceil(32));
        }
    }

    #[test]
    fn nnz_preserved() {
        let a = sample(200, 9);
        for dim in [4usize, 8] {
            let b = from_csr::<u8>(&a, dim);
            assert_eq!(b.nnz() as usize, a.nnz());
        }
    }

    #[test]
    fn tile_structure_matches_reference() {
        // The upper level of B2SR is block-CSR over the non-empty tiles.
        let a = sample(96, 5);
        let b2 = from_csr::<u8>(&a, 8);
        let want = reference::<u8>(&a, 8);
        assert_eq!(b2.n_tiles(), want.n_tiles());
        assert_eq!(b2.tile_rowptr(), want.tile_rowptr());
        assert_eq!(b2.tile_colind(), want.tile_colind());
    }

    #[test]
    fn explicit_zeros_are_not_packed() {
        let a = Csr::from_raw(4, 4, vec![0, 2, 2, 2, 2], vec![0, 1], vec![0.0, 1.0]).unwrap();
        let b = from_csr::<u8>(&a, 4);
        assert_eq!(b.nnz(), 1);
        assert!(!b.get(0, 0));
        assert!(b.get(0, 1));
    }

    #[test]
    fn empty_matrix_converts() {
        let a = Csr::empty(40, 40);
        let b = from_csr::<u16>(&a, 16);
        assert_eq!(b.n_tiles(), 0);
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.to_csr().nnz(), 0);
    }

    #[test]
    fn transpose_matches_csr_transpose() {
        for_each_variant(&sample(70, 12));
        for_each_variant(&rectangular(37, 130, 9, 4).binarized());
    }

    fn for_each_variant(a: &Csr) {
        fn at<W: BitWord>(a: &Csr, dim: usize) {
            let b = from_csr::<W>(a, dim);
            let t = b.transpose();
            assert_eq!(t.to_csr(), a.transpose(), "dim {dim}");
            assert_eq!(t, from_csr::<W>(&a.transpose(), dim), "dim {dim}");
            assert_eq!(t.transpose(), b, "dim {dim}");
        }
        at::<u8>(a, 4);
        at::<u8>(a, 8);
        at::<u16>(a, 16);
        at::<u32>(a, 32);
    }

    #[test]
    fn timed_conversion_reports_duration() {
        let a = sample(128, 1);
        let (b, secs) = from_csr_timed::<u32>(&a, 32);
        assert!(secs >= 0.0);
        assert_eq!(b.to_csr(), a);
    }

    #[test]
    #[should_panic(expected = "does not fit packing word")]
    fn oversized_tile_dim_panics() {
        let a = sample(16, 2);
        let _ = from_csr::<u8>(&a, 16);
    }
}
