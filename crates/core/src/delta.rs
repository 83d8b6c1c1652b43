//! Streaming graph mutations (PR 8): the edge-delta log, merge-on-read
//! overlay, and versioned snapshot publication.
//!
//! Every layer below this one assumes a matrix frozen at build time — the
//! B2SR tiles, their transposes, the batched engine all pay their
//! conversion cost once, at construction.  This module makes the graph
//! *mutable under live serving* without giving that amortization up:
//!
//! * **Delta log** — writers append [`EdgeDelta`]s (insert/delete) to an
//!   append-only log held by the matrix's shared [`VersionCell`]; the base
//!   representation is never touched in place.
//! * **DCSR-style staging** — the log is normalized into a
//!   [`DeltaSnapshot`]: per-row patch lists over only the *dirty* rows
//!   ([`StagedRows`], a doubly-compressed layout storing nothing for the
//!   untouched rows), plus the mirrored per-column view so both traversal
//!   directions stay one lookup.  The cell keeps the normalized log between
//!   appends, so an append normalizes its own batch and flattens the staged
//!   view by a linear copy of what is pending
//!   ([`VersionCell::entries_normalized`] counts the entries normalized).
//! * **Merge-on-read overlay** — [`DeltaOverlay`] presents `base ⊕ delta`
//!   beside the unchanged built base (a [`BitB2sr`]): the planner runs each
//!   product — whole fused pipelines included — on the base, then the
//!   overlay re-folds the dirty positions the operand reaches — those with
//!   a non-identity entry in a *patched* column; every other one already
//!   holds its value — through a sorted merge of the base row and its patch
//!   and finishes them with the pipeline's own store semantics
//!   ([`MxvPipeline::finish`]).  The Boolean products in words
//!   (`Op::vxm_bits`, `Op::mxm_lanes`) go the same way: the base's word
//!   product, then a word re-fold.
//!   Traversals see the mutated graph with no rebuild, no per-clean-row
//!   overhead, no loss of operator fusion and nothing converted between
//!   `f32` and bits; a read costs the base product plus the patches the
//!   frontier touches (`ExecCounts::refolded_positions` counts them).
//! * **Versioned publication** — a [`VersionCell`] owns `(epoch, base,
//!   log, normalized log, overlay)` behind one mutex; appends and compactions
//!   swap a fully constructed head in a single critical section, so
//!   `Matrix::snapshot()` (an Arc-pinned epoch view) is always internally
//!   consistent and bit-stable for the lifetime of the handle, no matter
//!   how many writes land after it was taken.
//! * **Compaction** — [`VersionCell::compact`] folds the log into a fresh
//!   base of the same kind at the cost of what the log touched: the merged
//!   CSR copies clean row runs whole, a tiled [`BitB2sr`] base re-tiles only
//!   the tile-rows holding a dirty row and splices the others' tiles
//!   verbatim ([`B2sr::retile_rows`](crate::b2sr::B2sr::retile_rows); the
//!   [`CompactReport`] counts both), tiles kept only where they fill, so a
//!   compacted base equals a from-scratch build of the same CSR.  The
//!   `grb.delta_merge` fail point fires before any shared
//!   state is touched, so an injected panic or transient error leaves the
//!   pre-compaction epoch — and every outstanding snapshot — fully
//!   readable (no torn epoch; see the chaos suite in `bitgblas-serve`).
//!
//! # Exactness
//!
//! The overlay's patched rows are *pull* re-folds: `y[i] = ⊕_{c ∈ merged
//! row} ⊗(x[c])` in ascending column order, the same fold the from-scratch
//! build would run.  For the exact monoids the traversal algorithms use
//! (Boolean `∨`, tropical `min`), the fold grouping is irrelevant, so
//! overlay traversals are **bit-identical** to rebuilding the graph from
//! scratch — the property the `mutation_parity` proptests pin down.  Push
//! (sparse-frontier) sweeps patch the same way, which is exact because the
//! planner guarantees off-frontier operand entries contribute the
//! identity.  A dirty position none of whose patched columns carries a
//! non-identity term is not re-folded at all: base row and merged row differ
//! in the patched columns only, and an identity term changes no fold — so
//! what the base stored there is what a rebuild stores, bit for bit, under
//! all four semirings (NaN, ±inf and −0.0 operands included; pinned by
//! `identity_probe_is_bit_identical_to_a_rebuild_on_hostile_operands`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use bitgblas_sparse::Csr;

use crate::b2sr::convert::RetileCounts;
use crate::grb::backend::BitB2sr;
use crate::grb::error::GrbError;
use crate::grb::lanebits::LaneBits;
use crate::grb::multivec::lane_words_per_node;
use crate::grb::op::Context;
use crate::grb::plan::{poll_fail_point, MxvPipeline};
use crate::grb::workspace::Workspace;
use crate::kernels::simd::{andnot_into, or_into};
use crate::semiring::with_semiring_ops;

/// The compaction fail point: fired once per [`VersionCell::compact`] with
/// pending deltas, after the fold is staged but **before** any shared state
/// is mutated (see the module docs on torn-epoch safety).
pub const DELTA_MERGE_POINT: &str = "grb.delta_merge";

/// What a logged mutation does to its edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaOp {
    /// The edge exists from this point on (idempotent if already present).
    Insert,
    /// The edge is absent from this point on (idempotent if already absent).
    Delete,
}

/// One logged edge mutation.  The unit of the append-only delta log; the
/// serving layer's `Query::Mutate` carries exactly one of these per query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeDelta {
    /// Source vertex (row of the adjacency matrix).
    pub row: usize,
    /// Destination vertex (column of the adjacency matrix).
    pub col: usize,
    /// Insert or delete.
    pub op: DeltaOp,
}

impl EdgeDelta {
    /// An edge insertion.
    pub fn insert(row: usize, col: usize) -> Self {
        EdgeDelta {
            row,
            col,
            op: DeltaOp::Insert,
        }
    }

    /// An edge deletion.
    pub fn delete(row: usize, col: usize) -> Self {
        EdgeDelta {
            row,
            col,
            op: DeltaOp::Delete,
        }
    }
}

/// DCSR-style staged patch lists: only the keys (rows, or columns for the
/// mirrored view) touched by the log are stored, each with its sorted
/// patch entries `(other endpoint, present)` — `present` is the edge's
/// *final* state after last-op-wins normalization and overrides the base.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagedRows {
    /// Ascending dirty keys.
    index: Vec<usize>,
    /// `offsets[i] .. offsets[i+1]` delimits `index[i]`'s entries.
    offsets: Vec<usize>,
    /// `(other endpoint, present)` pairs, ascending per key.
    entries: Vec<(usize, bool)>,
}

impl StagedRows {
    /// Build from `(key, other, present)` triples sorted by `(key, other)`
    /// with unique `(key, other)` pairs.
    fn from_sorted(triples: impl ExactSizeIterator<Item = (usize, usize, bool)>) -> Self {
        let mut staged = StagedRows {
            entries: Vec::with_capacity(triples.len()),
            ..StagedRows::default()
        };
        for (key, other, present) in triples {
            if staged.index.last() != Some(&key) {
                staged.index.push(key);
                staged.offsets.push(staged.entries.len());
            }
            staged.entries.push((other, present));
        }
        staged.offsets.push(staged.entries.len());
        if staged.index.is_empty() {
            staged.offsets = vec![0];
        }
        staged
    }

    /// The ascending dirty keys.
    pub fn dirty(&self) -> &[usize] {
        &self.index
    }

    /// The patch entries of `key`, if it is dirty.
    pub fn patch(&self, key: usize) -> Option<&[(usize, bool)]> {
        let i = self.index.binary_search(&key).ok()?;
        Some(&self.entries[self.offsets[i]..self.offsets[i + 1]])
    }

    /// True when no key is staged.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Iterate `(key, patch entries)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(usize, bool)])> {
        self.index
            .iter()
            .enumerate()
            .map(move |(i, &key)| (key, &self.entries[self.offsets[i]..self.offsets[i + 1]]))
    }

    fn storage_bytes(&self) -> usize {
        self.index.len() * std::mem::size_of::<usize>()
            + self.offsets.len() * std::mem::size_of::<usize>()
            + self.entries.len() * std::mem::size_of::<(usize, bool)>()
    }
}

/// Walk the sorted merge of a base row's columns with a staged patch,
/// calling `f` once per present column in ascending order.  Patch entries
/// override the base on ties; absent (`present == false`) entries suppress
/// the base column.  Always inlined: every caller's closure folds into a
/// local the walk must keep in a register.
#[inline(always)]
fn for_each_merged(base: &[usize], patch: &[(usize, bool)], f: &mut impl FnMut(usize)) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < base.len() && j < patch.len() {
        let (b, (p, present)) = (base[i], patch[j]);
        if b < p {
            f(b);
            i += 1;
        } else {
            if present {
                f(p);
            }
            j += 1;
            if p == b {
                i += 1;
            }
        }
    }
    for &b in &base[i..] {
        f(b);
    }
    for &(p, present) in &patch[j..] {
        if present {
            f(p);
        }
    }
}

/// The normalized pending log in the form an append can extend: last op
/// wins per edge, with whether the base holds the edge looked up once, when
/// the edge first appears.  [`apply`](Self::apply) costs its batch;
/// [`snapshot`](Self::snapshot) flattens both orientations into the
/// [`StagedRows`] layout reads go through, a linear copy of what is pending.
#[derive(Debug, Default)]
struct LogNormalizer {
    /// `(row, col) → (present, in_base)`.
    by_row: BTreeMap<(usize, usize), (bool, bool)>,
    /// The column mirror, `(col, row) → present`.
    by_col: BTreeMap<(usize, usize), bool>,
    /// Log entries applied.
    watermark: usize,
    /// Edges present in the final state but absent in the base.
    inserted: usize,
    /// Edges absent in the final state but present in the base.
    deleted: usize,
}

impl LogNormalizer {
    /// Apply the next `batch` of the log, in order, against `base`.
    fn apply(&mut self, base: &Csr, batch: &[EdgeDelta]) {
        for d in batch {
            let present = d.op == DeltaOp::Insert;
            // A new edge starts from the base's state, looked up this once;
            // it counts below only if this op moves it away.
            let state = self.by_row.entry((d.row, d.col)).or_insert_with(|| {
                let in_base = base.get(d.row, d.col).is_some();
                (in_base, in_base)
            });
            let (was_present, in_base) = *state;
            if was_present != present {
                state.0 = present;
                let differing = if in_base {
                    &mut self.deleted
                } else {
                    &mut self.inserted
                };
                if present == in_base {
                    *differing -= 1;
                } else {
                    *differing += 1;
                }
            }
            self.by_col.insert((d.col, d.row), present);
        }
        self.watermark += batch.len();
    }

    /// The immutable staged view of everything applied so far.
    fn snapshot(&self) -> DeltaSnapshot {
        DeltaSnapshot {
            watermark: self.watermark,
            rows: StagedRows::from_sorted(self.by_row.iter().map(|(&(r, c), &(p, _))| (r, c, p))),
            cols: StagedRows::from_sorted(self.by_col.iter().map(|(&(c, r), &p)| (c, r, p))),
            inserted: self.inserted,
            deleted: self.deleted,
        }
    }
}

/// A normalized, immutable view of a delta-log prefix: last-op-wins per
/// edge, staged by row and (mirrored) by column, with the net edge-count
/// change accounted against a base CSR.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaSnapshot {
    /// Length of the log prefix this snapshot normalizes.
    watermark: usize,
    /// Patches staged by row (the forward traversal direction).
    rows: StagedRows,
    /// The same patches staged by column (the transpose direction).
    cols: StagedRows,
    /// Edges present in the final state but absent in the base.
    inserted: usize,
    /// Edges absent in the final state but present in the base.
    deleted: usize,
}

impl DeltaSnapshot {
    /// Normalize a log prefix against `base`: later ops win per `(row,
    /// col)`, no-ops (inserting a present edge, deleting an absent one)
    /// stage harmlessly and count nothing.  This is the normalizer a
    /// [`VersionCell`] keeps between appends, applied to an empty state.
    pub fn build(base: &Csr, log: &[EdgeDelta]) -> Self {
        let mut norm = LogNormalizer::default();
        norm.apply(base, log);
        norm.snapshot()
    }

    /// Length of the log prefix this snapshot covers.
    pub fn watermark(&self) -> usize {
        self.watermark
    }

    /// Ascending rows with at least one staged entry — the compaction
    /// fold's dirty set, and what the incremental re-tiling keys on.
    pub fn dirty_rows(&self) -> &[usize] {
        self.rows.dirty()
    }

    /// Net stored-edge change relative to the base.
    pub fn nnz_delta(&self) -> isize {
        self.inserted as isize - self.deleted as isize
    }

    /// Edges the final state adds over the base.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Base edges the final state removes.
    pub fn deleted(&self) -> usize {
        self.deleted
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The staged view of one direction: by column iff `of_transpose`.
    fn staged(&self, of_transpose: bool) -> &StagedRows {
        if of_transpose {
            &self.cols
        } else {
            &self.rows
        }
    }

    /// Materialize `base ⊕ delta` as a fresh binary CSR: every run of clean
    /// rows is one copy of its columns (its `rowptr` entries shifted), dirty
    /// rows get the sorted patch merge.  Pass the transpose base with
    /// `of_transpose` to materialize the transpose.
    pub fn merge_csr(&self, base: &Csr, of_transpose: bool) -> Csr {
        let nrows = base.nrows();
        let (base_ptr, base_cols) = (base.rowptr(), base.colind());
        let mut rowptr = Vec::with_capacity(nrows + 1);
        rowptr.push(0usize);
        let mut colind: Vec<usize> = Vec::with_capacity(base.nnz() + self.inserted);
        // Rows `[from, to)` verbatim.
        let copy_clean =
            |from: usize, to: usize, rowptr: &mut Vec<usize>, colind: &mut Vec<usize>| {
                let (first, start) = (base_ptr[from], colind.len());
                rowptr.extend(base_ptr[from + 1..=to].iter().map(|&p| p - first + start));
                colind.extend_from_slice(&base_cols[first..base_ptr[to]]);
            };
        let mut clean_from = 0usize;
        for (r, patch) in self.staged(of_transpose).iter() {
            if r >= nrows {
                break;
            }
            copy_clean(clean_from, r, &mut rowptr, &mut colind);
            for_each_merged(base.row(r).0, patch, &mut |c| colind.push(c));
            rowptr.push(colind.len());
            clean_from = r + 1;
        }
        copy_clean(clean_from, nrows, &mut rowptr, &mut colind);
        let values = vec![1.0f32; colind.len()];
        Csr::from_raw(nrows, base.ncols(), rowptr, colind, values)
            .expect("sorted patch merge preserves the CSR invariants")
    }

    /// True iff every staged entry that alters `base` has its mirror staged
    /// the same way: then `base ⊕ delta` is symmetric exactly when a
    /// symmetric `base` is.  An entry whose mirror is staged alike passes
    /// without a look at the base; any other is looked up once.  Costs the
    /// pending entries, not the base.
    fn mirrored(&self, base: &Csr) -> bool {
        self.rows.iter().all(|(r, patch)| {
            patch.iter().all(|&(c, present)| {
                let mirror = self.rows.patch(c).and_then(|m| {
                    let at = m.binary_search_by_key(&r, |&(other, _)| other).ok()?;
                    Some(m[at].1)
                });
                match mirror {
                    Some(mirror_present) => mirror_present == present,
                    None => base.get(r, c).is_some() == present,
                }
            })
        })
    }

    fn storage_bytes(&self) -> usize {
        self.rows.storage_bytes() + self.cols.storage_bytes()
    }
}

/// The merge-on-read view of a pending log: `base ⊕ delta` without a
/// rebuild, beside a built base it does not hold.  Every product runs on the
/// untouched base first — the base executes the whole pipeline it is handed,
/// fused or bare — then the dirty positions a patched column's non-identity
/// operand entry reaches are re-folded through the sorted patch merge and
/// finished by [`MxvPipeline::finish`]; a dirty position the operand does
/// not reach keeps what the base stored, which is already right.  So a read
/// costs the base product plus one probe per staged patch entry and lane,
/// and the planner treats a matrix with pending deltas as it treats its
/// base: entry pricing and — on a `Backend::Bit` base — the word products
/// (`plan::execute_word_product`, whose dirty rows `refold_dirty_bits` and
/// `refold_dirty_words` patch) all carry through.  The merged CSR views
/// materialize lazily (first `csr()`/`csr_t()` call) for the paths that
/// need whole-matrix structure (`mxm_reduce_masked`, `out_degrees`).
///
/// Push (sparse-frontier) sweeps run the base's serial scatter and patch the
/// dirty output rows with the same pull re-fold — exact, because the
/// planner guarantees off-frontier operand entries contribute the semiring
/// identity.
///
/// The overlay is paired with the base of the [`VersionCell`] that staged
/// it: every method taking a `base` expects that one.
#[derive(Debug)]
pub struct DeltaOverlay {
    delta: DeltaSnapshot,
    merged: OnceLock<Csr>,
    /// `(base ⊕ delta)ᵀ`, never built when the view is symmetric.
    merged_t: OnceLock<Csr>,
    /// Whether `base ⊕ delta` is symmetric, decided on first use — never
    /// by an append, which publishes a new overlay each time.  A compaction
    /// of this overlay carries a decided answer to the base it folds.
    symmetric: OnceLock<bool>,
    /// Triangle Counting's operand of `base ⊕ delta`, built on first use.
    triangle: OnceLock<Arc<BitB2sr>>,
}

impl DeltaOverlay {
    /// Overlay the staged `delta` on the base it was normalized against.
    pub(crate) fn new(delta: DeltaSnapshot) -> Self {
        DeltaOverlay {
            delta,
            merged: OnceLock::new(),
            merged_t: OnceLock::new(),
            symmetric: OnceLock::new(),
            triangle: OnceLock::new(),
        }
    }

    /// The staged snapshot this overlay reads through.
    pub fn delta(&self) -> &DeltaSnapshot {
        &self.delta
    }

    /// Edges of `base ⊕ delta`.
    pub(crate) fn nnz(&self, base: &BitB2sr) -> usize {
        (base.nnz() as isize + self.delta.nnz_delta()) as usize
    }

    /// The merged CSR of `base ⊕ delta`, built and cached on first use.
    pub(crate) fn csr(&self, base: &BitB2sr) -> &Csr {
        self.merged
            .get_or_init(|| self.delta.merge_csr(base.csr(), false))
    }

    /// The merged CSR of `(base ⊕ delta)ᵀ`: the merged [`csr`](Self::csr)
    /// itself over a symmetric base whose changes are all mirrored, built
    /// and cached on first use otherwise.
    pub(crate) fn csr_t(&self, base: &BitB2sr) -> &Csr {
        if base.is_symmetric() && self.is_symmetric(base) {
            return self.csr(base);
        }
        self.merged_t
            .get_or_init(|| self.delta.merge_csr(base.csr_t(), true))
    }

    /// True iff `base ⊕ delta` is symmetric, decided once per overlay.
    /// Over a symmetric base that is the mirror test of the staged entries
    /// alone, which merges nothing; over an asymmetric one the merged CSR's
    /// own check.
    pub(crate) fn is_symmetric(&self, base: &BitB2sr) -> bool {
        *self.symmetric.get_or_init(|| {
            if base.is_symmetric() {
                self.delta.mirrored(base.csr())
            } else {
                self.csr(base).is_symmetric()
            }
        })
    }

    /// Triangle Counting's operand of `base ⊕ delta`
    /// ([`BitB2sr::triangle_operand_of`] of the merged CSR, under the base's
    /// kind), built on first use and cached: every later count through this
    /// overlay reads the same one.
    pub(crate) fn triangle_operand(&self, base: &BitB2sr) -> &Arc<BitB2sr> {
        self.triangle
            .get_or_init(|| Arc::new(BitB2sr::triangle_operand_of(self.csr(base), base.kind())))
    }

    /// Bytes of the staged patches (the base's are counted apart).
    pub(crate) fn storage_bytes(&self) -> usize {
        self.delta.storage_bytes()
    }

    /// The staged patches and the base CSR of the representation a product
    /// with this `transpose` flag pulls from.
    fn dirty<'a>(&'a self, base: &'a BitB2sr, transpose: bool) -> (&'a StagedRows, &'a Csr) {
        let csr = if transpose { base.csr_t() } else { base.csr() };
        (self.delta.staged(transpose), csr)
    }

    /// Re-fold, after `base` ran the pipeline `p` into `out`, the dirty
    /// output positions its operand reaches ([`refold_lanes`](Self::refold_lanes)
    /// at `p.k` lanes, a literal one for a single vector).  Out of line: the
    /// planner calls it only for a matrix with pending deltas.
    #[inline(never)]
    pub(crate) fn refold_dirty(
        &self,
        base: &BitB2sr,
        p: &MxvPipeline<'_>,
        ws: &Workspace,
        out: &mut [f32],
    ) {
        match p.k {
            1 => self.refold_lanes(base, p, 1, ws, out),
            k => self.refold_lanes(base, p, k, ws, out),
        }
    }

    /// Re-fold the dirty output positions the operand reaches of a pipeline
    /// the base just ran, lane by lane over flat positions `i*k + l`, and
    /// finish them.  The raw value of a position is `⊕_{c ∈ merged row}
    /// ⊗(x[c,l])` over the sorted merge of the base row and its patch, in
    /// ascending column order — the fold a from-scratch build would run —
    /// under a semiring resolved once per call.
    ///
    /// **Identity probe.**  Base row and merged row differ in the patched
    /// columns only, and an identity term is a no-op under all four monoids
    /// (`+ 0.0`, `min(·, +inf)`, `max(·, −inf)`, OR — a fold that starts
    /// from the identity never holds the `−0.0` or NaN that would make it
    /// one), so a position whose patched columns all carry
    /// `⊗(x[c,l]) == identity` already holds its value from the base product
    /// and is left alone.  A NaN term compares unequal and takes the fold.
    /// What passes the probe is counted in
    /// [`ExecCounts::refolded_positions`](crate::grb::ExecCounts).
    ///
    /// `k` is `p.k`, passed apart and the body always inlined, so the
    /// single-vector caller's literal `1` folds the lane arithmetic away.
    #[inline(always)]
    fn refold_lanes(
        &self,
        base: &BitB2sr,
        p: &MxvPipeline<'_>,
        k: usize,
        ws: &Workspace,
        out: &mut [f32],
    ) {
        let (staged, base) = self.dirty(base, p.transpose);
        let mut refolded = 0usize;
        with_semiring_ops!(p.semiring, |identity, combine, reduce| {
            for (i, patch) in staged.iter() {
                for l in 0..k {
                    if patch
                        .iter()
                        .all(|&(c, _)| combine(p.x[c * k + l]) == identity)
                    {
                        continue;
                    }
                    refolded += 1;
                    let flat = i * k + l;
                    let mut raw = identity;
                    // A masked-out position finishes from the identity
                    // whatever its edges are: skip the fold.
                    if p.mask.is_none_or(|m| m.allows(flat)) {
                        for_each_merged(base.row(i).0, patch, &mut |c| {
                            raw = reduce(raw, combine(p.x[c * k + l]));
                        });
                    }
                    out[flat] = p.finish(flat, raw);
                }
            }
        });
        ws.stats().record_refolded(refolded);
    }

    /// [`refold_dirty`](Self::refold_dirty)'s `u64` sibling, for the lane-word
    /// product the base [`BitB2sr`] just ran on `x`
    /// ([`BitB2sr::lane_product`], same operand, exclusion and orientation):
    /// a dirty row one of whose patched columns holds a set lane becomes
    /// `(OR of xw[c] over the sorted merge of base row and patch) &
    /// !excluded[i]`; every other dirty row keeps the base's words.  Counts
    /// the words it re-folded.
    pub(crate) fn refold_dirty_words(
        &self,
        base: &BitB2sr,
        x: &LaneBits,
        excluded: Option<&[u64]>,
        transpose: bool,
        ws: &Workspace,
        yw: &mut [u64],
    ) {
        let (xw, wpn) = (x.as_words(), lane_words_per_node(x.n_lanes()));
        let node = |i: usize| i * wpn..(i + 1) * wpn;
        let (staged, base) = self.dirty(base, transpose);
        let mut refolded = 0usize;
        for (i, patch) in staged.iter() {
            if patch
                .iter()
                .all(|&(c, _)| xw[node(c)].iter().all(|&w| w == 0))
            {
                continue;
            }
            refolded += wpn;
            let row = &mut yw[node(i)];
            row.fill(0);
            for_each_merged(base.row(i).0, patch, &mut |c| or_into(row, &xw[node(c)]));
            if let Some(excluded) = excluded {
                andnot_into(row, &excluded[node(i)]);
            }
        }
        ws.stats().record_refolded(refolded);
    }

    /// [`refold_dirty_words`](Self::refold_dirty_words) at one bit per node,
    /// for the node-word product the base [`BitB2sr`] just ran
    /// ([`BitB2sr::bits_product`], same operand, exclusion and orientation):
    /// a dirty row one of whose patched columns is set in `xw` becomes `(OR
    /// of xw[c] over the sorted merge of base row and patch) & !excluded[i]`;
    /// every other dirty row keeps the base's bit.  Counts the bits it re-folded.
    pub(crate) fn refold_dirty_bits(
        &self,
        base: &BitB2sr,
        xw: &[u64],
        excluded: Option<&[u64]>,
        transpose: bool,
        ws: &Workspace,
        yw: &mut [u64],
    ) {
        let bit = |words: &[u64], i: usize| words[i / 64] >> (i % 64) & 1;
        let (staged, base) = self.dirty(base, transpose);
        let mut refolded = 0usize;
        for (i, patch) in staged.iter() {
            if patch.iter().all(|&(c, _)| bit(xw, c) == 0) {
                continue;
            }
            refolded += 1;
            let mut reached = 0u64;
            for_each_merged(base.row(i).0, patch, &mut |c| reached |= bit(xw, c));
            let keep = excluded.map_or(1, |e| bit(e, i) ^ 1);
            let at = i % 64;
            yw[i / 64] = (yw[i / 64] & !(1 << at)) | ((reached & keep) << at);
        }
        ws.stats().record_refolded(refolded);
    }
}

/// What one [`VersionCell::compact`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// The epoch the compacted base was published as.
    pub epoch: u64,
    /// Log entries folded into the new base (entries that raced in during
    /// the fold stay pending against it).
    pub folded: usize,
    /// Edges the fold added to the base.
    pub inserted: usize,
    /// Edges the fold removed from the base.
    pub deleted: usize,
    /// Rows the fold touched — the dirty set of the incremental re-tiling.
    pub dirty_rows: usize,
    /// Tile-rows converted from the merged CSR (`≤ dirty_rows` over a tiled
    /// base; 0, like the tile counts, when the new base holds no tiles).
    pub tile_rows_retiled: usize,
    /// Tiles of the new base those tile-rows hold.
    pub tiles_retiled: usize,
    /// Tiles of the new base copied verbatim from the old one
    /// (`tiles_retiled + tiles_spliced` is its tile count).
    pub tiles_spliced: usize,
}

/// The shared mutable version state behind a
/// [`Matrix`](crate::grb::Matrix): the current epoch, the compacted base,
/// the pending delta log, and the published head — the base, plus a
/// [`DeltaOverlay`] of the log when one is pending.
///
/// Publication protocol: every write path constructs its new head *fully*
/// before swapping it in under the one inner mutex, so readers pinning the
/// head ([`Matrix::snapshot`](crate::grb::Matrix::snapshot)) always observe
/// a consistent `(epoch, state)` pair, and an already-pinned snapshot is
/// never mutated — epochs are immutable once published.
#[derive(Debug)]
pub struct VersionCell {
    inner: Mutex<VersionInner>,
    /// Serializes whole compactions (the fold runs outside `inner`'s
    /// critical section so writers stay live during it).
    compact_gate: Mutex<()>,
}

#[derive(Debug)]
struct VersionInner {
    epoch: u64,
    base: Arc<BitB2sr>,
    log: Vec<EdgeDelta>,
    /// `log`, normalized against `base` (empty when `log` is).
    norm: LogNormalizer,
    /// The staged view of `norm` the head overlays on `base`; `None` when
    /// the log is empty and the head is the base itself.
    overlay: Option<Arc<DeltaOverlay>>,
    epochs_published: u64,
    compactions: u64,
    entries_normalized: u64,
}

impl VersionInner {
    /// Normalize the next `tail_len` entries of the log (its tail) and
    /// publish `base ⊕ log` as a new epoch: a fully built head swapped in by
    /// one assignment.
    fn publish(&mut self, tail_len: usize) {
        let tail = &self.log[self.log.len() - tail_len..];
        self.norm.apply(self.base.csr(), tail);
        self.entries_normalized += tail_len as u64;
        self.overlay =
            (!self.log.is_empty()).then(|| Arc::new(DeltaOverlay::new(self.norm.snapshot())));
        self.epoch += 1;
        self.epochs_published += 1;
    }
}

impl VersionCell {
    /// A fresh cell at epoch 0 with an empty log: `base` is the published
    /// head.
    pub fn new(base: Arc<BitB2sr>) -> Self {
        VersionCell {
            inner: Mutex::new(VersionInner {
                epoch: 0,
                base,
                log: Vec::new(),
                norm: LogNormalizer::default(),
                overlay: None,
                epochs_published: 0,
                compactions: 0,
                entries_normalized: 0,
            }),
            compact_gate: Mutex::new(()),
        }
    }

    /// Lock the inner state.  Poisoning is deliberately ignored: every
    /// mutation under this lock swaps fully constructed state in single
    /// assignments, so a panic mid-critical-section (only possible on
    /// allocation failure) still leaves a consistent head.
    fn lock(&self) -> MutexGuard<'_, VersionInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published head — the base and the overlay of the pending log, if
    /// any — and its epoch, pinned atomically.
    pub fn head(&self) -> (Arc<BitB2sr>, Option<Arc<DeltaOverlay>>, u64) {
        let inner = self.lock();
        (inner.base.clone(), inner.overlay.clone(), inner.epoch)
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.lock().epoch
    }

    /// Pending (uncompacted) log entries.
    pub fn log_len(&self) -> usize {
        self.lock().log.len()
    }

    /// Epochs published since construction (appends + compactions).
    pub fn epochs_published(&self) -> u64 {
        self.lock().epochs_published
    }

    /// Completed compactions since construction.
    pub fn compactions(&self) -> u64 {
        self.lock().compactions
    }

    /// Log entries run through the normalizer since construction: an append
    /// adds its own batch length, whatever is already pending; a compaction
    /// adds only what raced in behind the prefix it folded (re-normalized
    /// against the new base).  Exact, the same on every host.
    pub fn entries_normalized(&self) -> u64 {
        self.lock().entries_normalized
    }

    /// Append `deltas` to the log and publish a new epoch whose head
    /// overlays the full pending log on the base.  Normalizing costs the
    /// batch; staging the head is a linear copy of what is pending.  Returns
    /// the published epoch (the current one when `deltas` is empty).
    pub fn append(&self, deltas: &[EdgeDelta]) -> u64 {
        let mut inner = self.lock();
        if deltas.is_empty() {
            return inner.epoch;
        }
        inner.log.extend_from_slice(deltas);
        inner.publish(deltas.len());
        inner.epoch
    }

    /// Fold the pending log into a fresh base of the same backend kind and
    /// publish it as a new epoch.
    ///
    /// The fold (CSR merge, re-tiling of the dirty tile-rows)
    /// runs *outside* the inner critical section against the
    /// pinned `(base, staged log prefix)` — the head's own staged view, not
    /// a second normalization — so writers keep appending during it; entries
    /// that race in are re-normalized against the new base and stay pending.
    /// The [`DELTA_MERGE_POINT`] fail point fires before any shared state
    /// changes: an injected panic or transient error leaves the published
    /// epoch and every outstanding snapshot intact.
    ///
    /// A [`BitB2sr`] base converts only the tile-rows holding a dirty row
    /// and copies the rest of the old tiles
    /// ([`B2sr::retile_rows`](crate::b2sr::B2sr::retile_rows)); the new base
    /// shares nothing with the old, so pinned snapshots keep reading their
    /// own.
    pub fn compact(&self, ctx: &Context) -> Result<CompactReport, GrbError> {
        let _gate = self
            .compact_gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let (base, overlay) = {
            let inner = self.lock();
            let Some(overlay) = inner.overlay.clone() else {
                return Ok(CompactReport {
                    epoch: inner.epoch,
                    ..CompactReport::default()
                });
            };
            (inner.base.clone(), overlay)
        };
        poll_fail_point(ctx, DELTA_MERGE_POINT)?;
        let (new_base, retiled) = fold(&base, &overlay);
        Ok(self.install(new_base, overlay.delta(), retiled))
    }

    /// Publish `new_base` — [`fold`]'s result for the pinned prefix `delta`
    /// — in one critical section: the folded prefix leaves the log, whatever
    /// raced in behind it is normalized afresh against the new base.
    fn install(
        &self,
        new_base: Arc<BitB2sr>,
        delta: &DeltaSnapshot,
        retiled: RetileCounts,
    ) -> CompactReport {
        let mut inner = self.lock();
        inner.log.drain(..delta.watermark());
        inner.base = new_base;
        inner.norm = LogNormalizer::default();
        let raced_in = inner.log.len();
        inner.publish(raced_in);
        inner.compactions += 1;
        CompactReport {
            epoch: inner.epoch,
            folded: delta.watermark(),
            inserted: delta.inserted(),
            deleted: delta.deleted(),
            dirty_rows: delta.dirty_rows().len(),
            tile_rows_retiled: retiled.tile_rows_retiled,
            tiles_retiled: retiled.tiles_retiled,
            tiles_spliced: retiled.tiles_spliced,
        }
    }
}

/// `base ⊕ delta` as a fresh backend of `base`'s kind, re-tiling only the
/// tile-rows holding a dirty row: the part of a compaction that runs outside
/// the version lock.  Where `overlay` has already decided whether `base ⊕
/// delta` is symmetric, the new base takes that answer, so its first
/// transposed product runs no check; the fold starts none.
fn fold(base: &BitB2sr, overlay: &DeltaOverlay) -> (Arc<BitB2sr>, RetileCounts) {
    let delta = overlay.delta();
    let merged = delta.merge_csr(base.csr(), false);
    let prev = Some((base, delta.dirty_rows()));
    let (folded, counts) = BitB2sr::of_kind(merged, base.kind(), prev);
    if let Some(&symmetric) = overlay.symmetric.get() {
        folded.carry_symmetry(symmetric);
    }
    (Arc::new(folded), counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grb::plan::product_into;
    use crate::grb::{Backend, Matrix, MultiVec, Vector};
    use bitgblas_sparse::Coo;

    fn csr(n: usize, edges: &[(usize, usize)]) -> Csr {
        let mut coo = Coo::new(n, n);
        for &(r, c) in edges {
            coo.push(r, c, 1.0).unwrap();
        }
        Csr::from_coo(&coo)
    }

    #[test]
    fn snapshot_normalizes_last_op_wins() {
        let base = csr(4, &[(0, 1), (1, 2)]);
        let log = [
            EdgeDelta::insert(2, 3),
            EdgeDelta::delete(2, 3),
            EdgeDelta::insert(2, 3), // final: present
            EdgeDelta::delete(0, 1), // final: absent (was in base)
            EdgeDelta::insert(1, 2), // no-op: already in base
        ];
        let snap = DeltaSnapshot::build(&base, &log);
        assert_eq!(snap.watermark(), 5);
        assert_eq!(snap.inserted(), 1);
        assert_eq!(snap.deleted(), 1);
        assert_eq!(snap.nnz_delta(), 0);
        assert_eq!(snap.dirty_rows(), &[0, 1, 2]);
        assert_eq!(snap.staged(false).patch(2), Some(&[(3, true)][..]));
        assert_eq!(snap.staged(true).patch(1), Some(&[(0, false)][..]));
        assert!(snap.staged(false).patch(3).is_none());
    }

    #[test]
    fn merged_csr_equals_scratch_build() {
        let base = csr(5, &[(0, 1), (0, 3), (1, 2), (3, 4), (4, 0)]);
        let log = [
            EdgeDelta::insert(0, 2),
            EdgeDelta::delete(0, 3),
            EdgeDelta::insert(2, 0),
            EdgeDelta::delete(4, 0),
        ];
        let snap = DeltaSnapshot::build(&base, &log);
        let expect = csr(5, &[(0, 1), (0, 2), (1, 2), (2, 0), (3, 4)]);
        assert_eq!(snap.merge_csr(&base, false), expect);
        assert_eq!(snap.merge_csr(&base.transpose(), true), expect.transpose());
    }

    /// One pipeline on a matrix's pinned view, as the planner runs it
    /// (`mxv` for one lane, `mxm` for more): the base's product, then the
    /// overlay's re-fold when deltas are pending.
    fn run_into(m: &Matrix, p: &MxvPipeline<'_>, ws: &Workspace) -> Vec<f32> {
        let mut out = Vec::new();
        if p.k == 1 {
            product_into::<Vector>(m, p, ws, &mut out);
        } else {
            product_into::<MultiVec>(m, p, ws, &mut out);
        }
        out
    }

    /// [`run_into`] on a fresh workspace, as bits.
    fn run(m: &Matrix, p: &MxvPipeline<'_>) -> Vec<u32> {
        let out = run_into(m, p, &Workspace::new());
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// `base` with `log` pending: a snapshot reading through an overlay.
    fn pending(base: &Csr, backend: Backend, log: &[EdgeDelta]) -> crate::grb::Snapshot {
        let a = Matrix::from_csr(base, backend);
        a.apply_deltas(log).unwrap();
        let snap = a.snapshot();
        assert!(snap.overlay().is_some());
        snap
    }

    /// What a cell's pinned head reads: the merged CSR through its overlay,
    /// the base's otherwise.
    fn read(head: &(Arc<BitB2sr>, Option<Arc<DeltaOverlay>>, u64)) -> &Csr {
        match &head.1 {
            Some(overlay) => overlay.csr(&head.0),
            None => head.0.csr(),
        }
    }

    #[test]
    fn overlay_matches_scratch_build_on_kernels_and_views() {
        use crate::b2sr::TileSize;
        use crate::grb::descriptor::Mask;
        use crate::grb::expr::Stage;
        use crate::semiring::{BinaryOp, Semiring};
        use std::collections::BTreeSet;

        // A graph spanning several tiles at every width, with a pending log
        // that deletes base edges, inserts new ones and re-inserts a
        // deleted one.
        let n = 40;
        let mut edges: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 7 + 3) % n)])
            .collect();
        let base = csr(n, &edges.iter().copied().collect::<Vec<_>>());
        let log = [
            EdgeDelta::insert(0, 4),
            EdgeDelta::delete(2, 3),
            EdgeDelta::insert(5, 2),
            EdgeDelta::delete(9, 10),
            EdgeDelta::insert(9, 10),
            EdgeDelta::insert(33, 1),
            EdgeDelta::delete(17, 2),
            EdgeDelta::insert(39, 38),
        ];
        for d in &log {
            match d.op {
                DeltaOp::Insert => edges.insert((d.row, d.col)),
                DeltaOp::Delete => edges.remove(&(d.row, d.col)),
            };
        }
        let scratch = csr(n, &edges.iter().copied().collect::<Vec<_>>());

        // Operands: a sparse Boolean frontier and a tropical distance
        // vector (identity off the frontier, so push is exact).
        let x_bool: Vec<f32> = (0..n).map(|i| (i % 3 == 0) as u8 as f32).collect();
        let x_dist: Vec<f32> = (0..n)
            .map(|i| {
                if i % 4 == 1 {
                    i as f32 * 0.5
                } else {
                    f32::INFINITY
                }
            })
            .collect();
        let w: Vec<f32> = (0..n).map(|i| (i % 6) as f32).collect();
        let mask = Mask::new((0..n).map(|i| i % 5 != 0).collect());
        let affine = [Stage::Affine { mul: 2.0, add: 1.0 }];

        let backends = TileSize::ALL
            .map(Backend::Bit)
            .into_iter()
            .chain([Backend::FloatCsr]);
        for backend in backends {
            let overlay = pending(&base, backend, &log);
            let fresh = Matrix::from_csr(&scratch, backend);
            assert_eq!(overlay.nnz(), fresh.nnz());
            assert_eq!(overlay.csr(), fresh.csr());
            assert_eq!(overlay.csr_t(), fresh.csr_t());

            // Every pipeline shape — bare, fused stage, fused accumulator,
            // all of it under a mask — pulls and pushes the same bits
            // through the overlay as through the rebuilt matrix.
            for (semiring, x) in [
                (Semiring::Boolean, &x_bool),
                (Semiring::MinPlus(1.0), &x_dist),
            ] {
                let frontier: Vec<usize> =
                    (0..n).filter(|&i| !semiring.is_identity(x[i])).collect();
                let min_w: Option<(BinaryOp, &[f32])> = Some((BinaryOp::Min, &w));
                let shapes: [(&[Stage<'_>], _, Option<&Mask>); 5] = [
                    (&[], None, None),
                    (&[], None, Some(&mask)),
                    (&affine, None, None),
                    (&[], min_w, None),
                    (&affine, min_w, Some(&mask)),
                ];
                for (stages, accum, mask) in shapes {
                    for transpose in [false, true] {
                        for frontier in [None, Some(frontier.as_slice())] {
                            let p = MxvPipeline {
                                x,
                                k: 1,
                                frontier,
                                semiring,
                                mask,
                                transpose,
                                stages,
                                accum,
                            };
                            assert_eq!(run(&overlay, &p), run(&fresh, &p), "{backend:?} {p:?}");
                        }
                    }
                }
            }

            // The transpose starts from a built base of the merged
            // transpose, and flips orientation consistently.
            let tv = overlay.transpose();
            assert!(tv.overlay().is_none());
            assert_eq!(tv.csr(), &fresh.csr().transpose());
            let p = MxvPipeline {
                x: &x_bool,
                k: 1,
                frontier: None,
                semiring: Semiring::Boolean,
                mask: None,
                transpose: false,
                stages: &[],
                accum: None,
            };
            let flipped = MxvPipeline {
                transpose: true,
                ..p
            };
            assert_eq!(run(&tv, &p), run(&fresh, &flipped));
        }
    }

    /// The identity probe against a rebuild, by `to_bits`: NaN, ±inf and
    /// ±0.0 sitting in the patched columns (what the probe reads), under
    /// all four semirings (`MinPlus(−0.0)`, whose terms tie `±0.0`, too) ×
    /// pull / push × masked / unmasked × bare / a monoid accumulator over a
    /// NaN, ±inf and ±0.0 baseline (the one a push scatter folds from a
    /// seeded output) ×
    /// one lane / three — on a log with duplicate inserts, an insert then
    /// deleted, deletes of absent edges, self-loops, a row emptied and an
    /// empty row filled.
    #[test]
    fn identity_probe_is_bit_identical_to_a_rebuild_on_hostile_operands() {
        use crate::b2sr::TileSize;
        use crate::grb::descriptor::Mask;
        use crate::semiring::{BinaryOp, Semiring};
        use std::collections::BTreeSet;

        let n = 24;
        // Row 5 starts empty; row 9 is emptied by the log.
        let mut edges: BTreeSet<(usize, usize)> = (0..n)
            .filter(|&i| i != 5)
            .flat_map(|i| [(i, (i + 1) % n), (i, (i * 5 + 2) % n), (i, (i + 11) % n)])
            .collect();
        let base = csr(n, &edges.iter().copied().collect::<Vec<_>>());
        let mut log = vec![
            EdgeDelta::insert(0, 4),
            EdgeDelta::insert(0, 4), // duplicate insert
            EdgeDelta::insert(3, 17),
            EdgeDelta::delete(3, 17), // insert, then delete
            EdgeDelta::delete(2, 20), // absent edge
            EdgeDelta::insert(7, 7),  // self-loop
            EdgeDelta::delete(13, 13),
            EdgeDelta::insert(5, 8), // an empty row filled
            EdgeDelta::insert(5, 21),
            EdgeDelta::delete(1, 2),
        ];
        log.extend(base.row(9).0.iter().map(|&c| EdgeDelta::delete(9, c)));
        let mut endpoints = BTreeSet::new();
        for d in &log {
            match d.op {
                DeltaOp::Insert => edges.insert((d.row, d.col)),
                DeltaOp::Delete => edges.remove(&(d.row, d.col)),
            };
            endpoints.extend([d.row, d.col]);
        }
        let scratch = csr(n, &edges.iter().copied().collect::<Vec<_>>());

        let hostile = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0, 0.0, 2.5];
        let semirings = [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::MinPlus(-0.0),
            Semiring::MaxTimes(2.0),
        ];
        for backend in [Backend::Bit(TileSize::S8), Backend::FloatCsr] {
            let overlay = pending(&base, backend, &log);
            let fresh = Matrix::from_csr(&scratch, backend);
            for semiring in semirings {
                let monoid = BinaryOp::monoid_of(semiring);
                for k in [1usize, 3] {
                    // The patched columns hold one hostile value (`pick <
                    // 6`), or cycle through all of them; everything else is
                    // mostly the identity, so most probes have to decide.
                    for pick in 0..=hostile.len() {
                        let x: Vec<f32> = (0..n * k)
                            .map(|f| match (endpoints.contains(&(f / k)), f % 4) {
                                (true, _) => hostile[if pick < 6 { pick } else { f % 6 }],
                                (false, 1) => (f % 7) as f32 + 0.5,
                                (false, _) => semiring.identity(),
                            })
                            .collect();
                        let frontier: Vec<usize> = (0..n)
                            .filter(|&i| x[i * k..][..k].iter().any(|&v| !semiring.is_identity(v)))
                            .collect();
                        // No NaN baseline under `+`: which payload `NaN + NaN`
                        // keeps depends on the operand order a path compiled.
                        let nan = [f32::NAN, 2.0][(semiring == Semiring::Arithmetic) as usize];
                        let w: Vec<f32> = (0..n * k)
                            .map(|f| {
                                [1.5, -3.0, f32::INFINITY, 0.0, f32::NEG_INFINITY, -0.0, nan][f % 7]
                            })
                            .collect();
                        let mask = Mask::new((0..n * k).map(|f| f % 3 != 0).collect());
                        for transpose in [false, true] {
                            for push in [false, true] {
                                if push && !semiring.push_safe() {
                                    continue;
                                }
                                for mask in [None, Some(&mask)] {
                                    for accum in [None, Some((monoid, w.as_slice()))] {
                                        let p = MxvPipeline {
                                            x: &x,
                                            k,
                                            frontier: push.then_some(frontier.as_slice()),
                                            semiring,
                                            mask,
                                            transpose,
                                            stages: &[],
                                            accum,
                                        };
                                        assert_eq!(
                                            run(&overlay, &p),
                                            run(&fresh, &p),
                                            "{backend:?} pick {pick} {p:?}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// `refolded_positions` counts what the probe lets through: nothing for
    /// an all-identity operand, every dirty row for a dense one, and for a
    /// sparse one exactly the dirty positions a patched column's
    /// non-identity entry reaches.
    #[test]
    fn refolded_positions_follow_the_operand_not_the_dirty_set() {
        use crate::semiring::Semiring;
        let n = 32;
        let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
        // Four dirty rows; row 3 is patched in two columns.
        let log = [
            EdgeDelta::insert(3, 10),
            EdgeDelta::insert(3, 20),
            EdgeDelta::delete(8, 9),
            EdgeDelta::insert(15, 20),
            EdgeDelta::insert(30, 2),
        ];
        let overlay = pending(&csr(n, &edges), Backend::default_bit(), &log);
        let ws = Workspace::new();
        let refolded = |semiring: Semiring, k: usize, x: &[f32]| {
            let frontier: Vec<usize> = (0..n)
                .filter(|&i| x[i * k..][..k].iter().any(|&v| !semiring.is_identity(v)))
                .collect();
            let [pull, push] = [None, Some(frontier.as_slice())].map(|frontier| {
                let p = MxvPipeline {
                    x,
                    k,
                    frontier,
                    semiring,
                    mask: None,
                    transpose: false,
                    stages: &[],
                    accum: None,
                };
                let before = ws.stats().snapshot().refolded_positions;
                run_into(&overlay, &p, &ws);
                ws.stats().snapshot().refolded_positions - before
            });
            assert_eq!(
                pull, push,
                "{semiring:?} k={k}: one probe, either direction"
            );
            pull
        };
        for semiring in [Semiring::Boolean, Semiring::MinPlus(1.0)] {
            let id = semiring.identity();
            for k in [1usize, 4] {
                assert_eq!(refolded(semiring, k, &vec![id; n * k]), 0);
                // A dense operand (PageRank's): every lane of every dirty row.
                assert_eq!(refolded(semiring, k, &vec![1.0; n * k]), 4 * k as u64);
                // Column 20, lane 0 only: rows 3 and 15, one lane each.
                let mut x = vec![id; n * k];
                x[20 * k] = 1.0;
                assert_eq!(refolded(semiring, k, &x), 2);
                // An unpatched column next to patched ones: nothing.
                let mut x = vec![id; n * k];
                x[11 * k] = 1.0;
                assert_eq!(refolded(semiring, k, &x), 0);
            }
        }
    }

    #[test]
    fn version_cell_publishes_epochs_and_pins_snapshots() {
        let base = csr(4, &[(0, 1), (1, 2)]);
        let a = Matrix::from_csr(&base, Backend::FloatCsr);
        let cell = VersionCell::new(a.base().clone());
        let head0 = cell.head();
        assert_eq!(head0.2, 0);
        assert_eq!(cell.append(&[]), 0, "empty append publishes nothing");

        let e1 = cell.append(&[EdgeDelta::insert(2, 3)]);
        assert_eq!(e1, 1);
        let head1 = cell.head();
        assert_eq!(head1.1.as_ref().unwrap().nnz(&head1.0), 3);
        assert_eq!(read(&head1).nnz(), 3);
        // The pinned pre-append head is untouched.
        assert_eq!(read(&head0).nnz(), 2);
        assert!(read(&head0).get(2, 3).is_none());
        assert_eq!(cell.log_len(), 1);
        assert_eq!(cell.epochs_published(), 1);
    }

    #[test]
    fn compact_folds_the_log_and_keeps_old_snapshots_readable() {
        let base = csr(4, &[(0, 1), (1, 2), (3, 0)]);
        let a = Matrix::from_csr(&base, Backend::default_bit());
        let cell = VersionCell::new(a.base().clone());
        cell.append(&[EdgeDelta::insert(2, 3), EdgeDelta::delete(3, 0)]);
        let overlay_head = cell.head();
        let e_overlay = overlay_head.2;

        let ctx = Context::default();
        let report = cell.compact(&ctx).unwrap();
        assert_eq!(report.folded, 2);
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 1);
        assert_eq!(report.epoch, e_overlay + 1);
        assert_eq!(cell.log_len(), 0);
        assert_eq!(cell.compactions(), 1);

        let compacted = cell.head();
        // The compacted head is a built base of the original kind again.
        assert!(compacted.1.is_none());
        assert_eq!(compacted.0.kind(), Backend::default_bit());
        assert_eq!(read(&compacted), read(&overlay_head));
        // The pre-compaction overlay snapshot still reads the same bits.
        assert_eq!(read(&overlay_head).nnz(), 3);
        assert!(read(&overlay_head).get(2, 3).is_some());

        // Compacting an empty log publishes nothing.
        let again = cell.compact(&ctx).unwrap();
        assert_eq!(again.folded, 0);
        assert_eq!(again.epoch, report.epoch);
    }

    /// The normalizer a cell keeps between appends stages what a
    /// from-scratch normalization of the whole log stages, after every
    /// append of a hostile log cut at every batch size — counts included.
    #[test]
    fn incremental_normalization_equals_a_whole_log_build() {
        let base = csr(6, &[(0, 1), (1, 2), (2, 2), (3, 0), (5, 4)]);
        let log = [
            EdgeDelta::insert(0, 4),
            EdgeDelta::insert(0, 4), // duplicate insert
            EdgeDelta::delete(0, 1), // a base edge …
            EdgeDelta::insert(0, 1), // … restored
            EdgeDelta::insert(4, 4), // self-loop, then deleted
            EdgeDelta::delete(4, 4),
            EdgeDelta::delete(3, 3), // absent edge
            EdgeDelta::delete(2, 2),
            EdgeDelta::insert(2, 2),
            EdgeDelta::delete(2, 2), // base edge, deleted in the end
            EdgeDelta::insert(1, 2), // no-op on a base edge
            EdgeDelta::delete(5, 4),
        ];
        for batch in 1..=log.len() {
            let a = Matrix::from_csr(&base, Backend::FloatCsr);
            let cell = VersionCell::new(a.base().clone());
            let mut seen = 0;
            for chunk in log.chunks(batch) {
                cell.append(chunk);
                seen += chunk.len();
                let overlay = cell.lock().overlay.clone().expect("pending");
                assert_eq!(*overlay.delta(), DeltaSnapshot::build(&base, &log[..seen]));
                assert_eq!(cell.entries_normalized(), seen as u64);
            }
        }
    }

    /// Appends that race in behind a compaction's pinned prefix are
    /// normalized afresh against the new base — they and nothing else.
    #[test]
    fn a_compaction_renormalizes_only_what_raced_in() {
        let base = csr(8, &[(0, 1), (1, 2), (2, 3), (6, 7)]);
        let folded = [EdgeDelta::insert(3, 4), EdgeDelta::delete(0, 1)];
        // Against the *new* base: (3, 4) is now a base edge, (0, 1) is not.
        let raced = [
            EdgeDelta::delete(3, 4),
            EdgeDelta::insert(0, 1),
            EdgeDelta::insert(5, 5),
        ];
        let scratch = csr(8, &[(0, 1), (1, 2), (2, 3), (5, 5), (6, 7)]);
        let ctx = Context::default();
        for backend in [Backend::default_bit(), Backend::FloatCsr] {
            let a = Matrix::from_csr(&base, backend);
            let cell = VersionCell::new(a.base().clone());
            cell.append(&folded);

            // Nothing raced in: nothing normalized.
            let quiet = VersionCell::new(a.base().clone());
            quiet.append(&folded);
            quiet.compact(&ctx).unwrap();
            assert_eq!(quiet.entries_normalized(), folded.len() as u64);

            // `compact`, with an append between its fold and its install.
            let (pinned_base, overlay) = {
                let inner = cell.lock();
                (inner.base.clone(), inner.overlay.clone().expect("pending"))
            };
            let (new_base, retiled) = fold(&pinned_base, &overlay);
            cell.append(&raced);
            let before = cell.entries_normalized();
            let report = cell.install(new_base, overlay.delta(), retiled);
            assert_eq!(cell.entries_normalized() - before, raced.len() as u64);
            assert_eq!(report.folded, folded.len());
            assert_eq!(cell.log_len(), raced.len());

            let head = cell.head();
            assert_eq!(read(&head), &scratch, "{backend:?}");
            let overlay = head.1.as_ref().expect("the tail stays pending");
            assert_eq!(overlay.nnz(&head.0), scratch.nnz());
            let staged = overlay.delta();
            assert_eq!(*staged, DeltaSnapshot::build(head.0.csr(), &raced));
            assert_eq!((staged.inserted(), staged.deleted()), (2, 1));
        }
    }

    /// The transpose of a pending view starts its history from a built base
    /// of the merged transpose, never from an overlay: mutated and compacted,
    /// it re-tiles only the dirty tile-rows and equals a from-scratch build
    /// of the same edges, array for array.
    #[test]
    fn a_transposed_pending_view_compacts_to_a_rebuild() {
        use crate::b2sr::TileSize;
        use std::collections::BTreeSet;

        // An upper band of four, 8.5 bits per B2SR-8 tile: tiled.
        let n = 64;
        let mut edges: BTreeSet<(usize, usize)> = (0..n)
            .flat_map(|i| (i + 1..(i + 5).min(n)).map(move |j| (i, j)))
            .collect();
        let backend = Backend::Bit(TileSize::S8);
        let a = Matrix::from_csr(&csr(n, &Vec::from_iter(edges.iter().copied())), backend);
        let log = [
            EdgeDelta::insert(3, 40),
            EdgeDelta::delete(10, 11),
            EdgeDelta::insert(60, 2),
        ];
        a.apply_deltas(&log).unwrap();
        let snap = a.snapshot();
        let t = snap.transpose();
        assert!(t.overlay().is_none(), "a built base");
        assert_eq!(t.csr(), snap.csr_t());
        assert_eq!(t.resolved_backend(), backend);
        assert!(t.b2sr().is_some());
        assert_eq!(t.b2sr(), Matrix::from_csr(snap.csr_t(), backend).b2sr());

        // In `Aᵀ`'s coordinates: rows 0 and 5, both in tile-row 0.
        let t_log = [EdgeDelta::insert(0, 63), EdgeDelta::delete(5, 2)];
        t.apply_deltas(&t_log).unwrap();
        let report = t.compact(t.context()).unwrap();
        assert_eq!((report.folded, report.dirty_rows), (2, 2));
        assert_eq!(report.tile_rows_retiled, 1, "{report:?}");
        assert!(report.tiles_spliced > 0, "{report:?}");

        for d in &log {
            match d.op {
                DeltaOp::Insert => edges.insert((d.row, d.col)),
                DeltaOp::Delete => edges.remove(&(d.row, d.col)),
            };
        }
        let mut edges_t: BTreeSet<(usize, usize)> = edges.iter().map(|&(r, c)| (c, r)).collect();
        assert!(edges_t.insert((0, 63)) && edges_t.remove(&(5, 2)));
        let rebuilt = Matrix::from_csr(&csr(n, &Vec::from_iter(edges_t)), backend);
        let compacted = t.snapshot();
        assert!(compacted.overlay().is_none());
        assert_eq!(compacted.csr(), rebuilt.csr());
        assert_eq!(compacted.b2sr(), rebuilt.b2sr());
        assert_eq!(compacted.b2sr_t(), rebuilt.b2sr_t());
        assert_eq!(compacted.storage_bytes(), rebuilt.storage_bytes());
    }

    /// An overlay over a symmetric base is symmetric iff every staged change
    /// that alters the base has its mirror staged the same way — and then
    /// its `csr_t` is its merged `csr`.  Mirrored pairs (an insert and a
    /// delete each way) share; one one-directional insert does not; a
    /// one-directional delete of an absent edge alters nothing and still
    /// shares.  Over an asymmetric base the merged CSR decides, so deltas
    /// that mirror its one one-way edge make it symmetric.  Every answer is
    /// `csr == csr.transpose()`'s.
    #[test]
    fn an_overlay_is_symmetric_iff_its_changes_are_mirrored() {
        use crate::b2sr::TileSize;

        let ring: Vec<(usize, usize)> = (0..12)
            .flat_map(|i| [(i, (i + 1) % 12), ((i + 1) % 12, i)])
            .collect();
        let base = csr(12, &ring);
        let mirrored = [
            EdgeDelta::insert(2, 7),
            EdgeDelta::insert(7, 2),
            EdgeDelta::delete(4, 5),
            EdgeDelta::delete(5, 4),
            EdgeDelta::insert(9, 9),
        ];
        let one_way_insert = [EdgeDelta::insert(2, 7), EdgeDelta::insert(3, 8)];
        let one_way_noop_delete = [
            EdgeDelta::insert(2, 7),
            EdgeDelta::insert(7, 2),
            EdgeDelta::delete(0, 6),
            EdgeDelta::insert(0, 1),
        ];
        let mut one_way = ring.clone();
        one_way.push((0, 6));
        let asymmetric = csr(12, &one_way);
        let mirror_it = [EdgeDelta::insert(6, 0)];
        let cases: [(&Csr, &[EdgeDelta], bool); 4] = [
            (&base, &mirrored, true),
            (&base, &one_way_insert, false),
            (&base, &one_way_noop_delete, true),
            (&asymmetric, &mirror_it, true),
        ];
        for backend in [Backend::Bit(TileSize::S4), Backend::FloatCsr] {
            for (case, &(base, log, symmetric)) in cases.iter().enumerate() {
                let snap = pending(base, backend, log);
                let what = format!("{backend:?} case {case}");
                assert_eq!(snap.is_symmetric(), symmetric, "{what}");
                assert_eq!(*snap.csr() == snap.csr().transpose(), symmetric, "{what}");
                let shared = std::ptr::eq(snap.csr_t(), snap.csr());
                assert_eq!(shared, symmetric && base.is_symmetric(), "{what}");
                assert_eq!(snap.csr_t(), &snap.csr().transpose(), "{what}");
            }
        }
    }

    #[test]
    fn delta_merge_fail_point_leaves_the_epoch_intact() {
        use crate::faultinject::{FailSpec, FaultAction, FaultInjector, FaultPlan};

        let base = csr(4, &[(0, 1), (1, 2)]);
        let a = Matrix::from_csr(&base, Backend::FloatCsr);
        let cell = VersionCell::new(a.base().clone());
        cell.append(&[EdgeDelta::insert(2, 3)]);
        let epoch_before = cell.epoch();

        let ctx = Context::default();
        let plan =
            FaultPlan::new().with(FailSpec::always(DELTA_MERGE_POINT, FaultAction::Transient));
        ctx.set_fault_injector(Some(Arc::new(FaultInjector::new(7, plan))));
        let err = cell.compact(&ctx).unwrap_err();
        assert!(matches!(
            err,
            GrbError::FaultInjected {
                point: DELTA_MERGE_POINT
            }
        ));
        assert_eq!(cell.epoch(), epoch_before, "failed compaction published");
        assert_eq!(cell.log_len(), 1, "failed compaction drained the log");

        // Disarm and retry: the same pending log folds cleanly.
        ctx.set_fault_injector(None);
        let report = cell.compact(&ctx).unwrap();
        assert_eq!(report.folded, 1);
    }
}
