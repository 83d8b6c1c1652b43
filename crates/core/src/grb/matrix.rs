//! The GrB-style matrix object: a built backend, the overlay of its pending
//! edge deltas, and versioned, snapshot-isolated mutation (PR 8).

use std::sync::Arc;

use bitgblas_sparse::Csr;

use crate::b2sr::{B2srMatrix, TileSize};
use crate::delta::{CompactReport, DeltaOverlay, EdgeDelta, VersionCell};

use super::backend::{binary_copy, BitB2sr};
use super::error::GrbError;
use super::op::Context;

/// Which storage format and kernel family a [`Matrix`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Bit-GraphBLAS: B2SR storage + bit kernels (the paper's contribution)
    /// where the tiles fill; a sparser matrix keeps the kind, holds no tiles
    /// and runs on its CSR, its Boolean products in bit words
    /// ([`MIN_TILE_FILL`](super::backend::MIN_TILE_FILL)).
    Bit(TileSize),
    /// The baseline: 32-bit-float CSR + reference kernels (GraphBLAST /
    /// cuSPARSE stand-in) — the built-in backend without tiles.
    FloatCsr,
    /// Let the framework decide per matrix, the way the paper's Figure 5
    /// selects a tile size per matrix: `Bit` at the widest tile size whose
    /// counted tiles fill, or `Bit(S8)` without tiles where none does
    /// ([`auto_decision`](super::auto::auto_decision)).  Query the outcome
    /// with [`Matrix::resolved_backend`].
    Auto,
}

impl Backend {
    /// The default bit backend used by the paper's algorithm evaluation
    /// (B2SR-8 is optimal for the majority of matrices in Figure 5b).
    pub fn default_bit() -> Backend {
        Backend::Bit(TileSize::S8)
    }
}

/// A binary adjacency matrix held by the GraphBLAS-style layer.
///
/// The matrix reads a shared, built [`BitB2sr`] — the storage representation
/// plus the kernels operating on it — and, when edge deltas are pending on
/// it, the [`DeltaOverlay`] of those deltas.  Construction with
/// [`Backend::Bit`] builds the B2SR representation eagerly where its tiles
/// fill (the "one-time conversion cost" the paper amortizes);
/// [`Backend::Auto`] first counts which width that is
/// ([`auto_decision`](super::auto::auto_decision)).  Transposed
/// representations are cached lazily inside the backend; a symmetric matrix
/// is its own transpose and builds none.  Triangle Counting's operand is
/// cached the same way ([`Matrix::triangle_operand`]).
///
/// # Mutation and snapshot isolation (PR 8)
///
/// The *representation* a handle reads through is still frozen — but the
/// graph itself no longer is.  Every `Matrix` shares a
/// [`VersionCell`] holding the current epoch, a
/// compacted base, and an append-only edge-delta log:
///
/// * **writers** — [`insert_edge`](Matrix::insert_edge) /
///   [`delete_edge`](Matrix::delete_edge) /
///   [`apply_deltas`](Matrix::apply_deltas) append to the log and publish a
///   new epoch atomically; the published head overlays the staged deltas on
///   the unchanged base (merge-on-read, no rebuild);
/// * **readers** — [`snapshot`](Matrix::snapshot) pins the published head:
///   an immutable epoch view whose traversal results are bit-stable no
///   matter how many writes land afterwards.  Each `Matrix` value is itself
///   such a pinned view (its own kernels never observe later epochs);
/// * **compaction** — [`compact`](Matrix::compact) explicitly folds the log
///   into a fresh base of the same backend kind — tiles where they fill,
///   only the tile-rows holding a dirty row re-tiled.
pub struct Matrix {
    requested: Backend,
    /// The built representation every product runs on first.
    base: Arc<BitB2sr>,
    /// The pending deltas this handle reads through, re-folded after each
    /// product of `base`.
    overlay: Option<Arc<DeltaOverlay>>,
    /// The context the matrix was constructed with.  Snapshots share the
    /// `Arc` (same workspace pool, same fault injector).
    ctx: Arc<Context>,
    /// The shared version state mutations go through.
    versions: Arc<VersionCell>,
}

impl std::fmt::Debug for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matrix")
            .field("requested", &self.requested)
            .field("base", &self.base)
            .field("overlay", &self.overlay)
            .finish_non_exhaustive()
    }
}

impl Clone for Matrix {
    /// An independent handle on the same graph: the clone restarts the
    /// context with an empty workspace pool and begins a fresh mutation
    /// history from what this handle reads.  Without pending deltas that is
    /// the shared built backend itself (a built backend is never mutated —
    /// its lazy views are `OnceLock`s); a handle reading through pending
    /// deltas starts its clone from a backend built of the merged CSR.
    /// Deltas staged after this handle's view are *not* carried over —
    /// clone a [`snapshot`](Matrix::snapshot) to capture them.
    fn clone(&self) -> Self {
        let base = match &self.overlay {
            None => self.base.clone(),
            Some(_) => Arc::new(self.rebuilt(self.csr().clone())),
        };
        Matrix::from_parts(self.requested, base, Arc::new(Context::clone(&self.ctx)))
    }
}

/// An immutable epoch view returned by [`Matrix::snapshot`]: the matrix
/// state published at [`epoch`](Snapshot::epoch), pinned.  Dereferences to
/// [`Matrix`], so algorithms take it wherever they take `&Matrix`; every
/// traversal through it is bit-identical for the snapshot's lifetime
/// regardless of concurrent appends or compactions.
#[derive(Debug)]
pub struct Snapshot {
    matrix: Matrix,
    epoch: u64,
}

impl Clone for Snapshot {
    /// Cheap: clones the Arc pins, not the storage — and, unlike
    /// [`Matrix::clone`], keeps the context and the version cell.
    fn clone(&self) -> Self {
        Snapshot {
            matrix: Matrix {
                requested: self.matrix.requested,
                base: self.matrix.base.clone(),
                overlay: self.matrix.overlay.clone(),
                ctx: self.matrix.ctx.clone(),
                versions: self.matrix.versions.clone(),
            },
            epoch: self.epoch,
        }
    }
}

impl std::ops::Deref for Snapshot {
    type Target = Matrix;

    fn deref(&self) -> &Matrix {
        &self.matrix
    }
}

impl Snapshot {
    /// The epoch this snapshot pins.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pinned matrix view (also reachable by deref).
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }
}

impl Matrix {
    /// Build a matrix from any CSR with the default [`Context`]: values are
    /// binarized (every stored nonzero becomes an edge), matching the
    /// homogeneous-graph assumption.
    pub fn from_csr(csr: &Csr, backend: Backend) -> Self {
        Self::from_csr_ctx(csr, backend, &Context::default())
    }

    /// Build a matrix from any CSR, its operations drawing on `ctx`'s
    /// workspace pool and fault injector.
    pub fn from_csr_ctx(csr: &Csr, backend: Backend, ctx: &Context) -> Self {
        Matrix::from_binary_ctx(binary_copy(csr), backend, ctx)
    }

    /// [`from_csr_ctx`](Matrix::from_csr_ctx) of `bin`, an all-ones CSR
    /// taken by value and on trust: the backend keeps it as its CSR view.
    fn from_binary_ctx(bin: Csr, backend: Backend, ctx: &Context) -> Self {
        let (base, _) = BitB2sr::of_kind(bin, backend, None);
        Matrix::from_parts(backend, Arc::new(base), Arc::new(ctx.clone()))
    }

    /// Assemble a matrix around `base` with a fresh version cell pinned at
    /// it (epoch 0, empty log).
    fn from_parts(requested: Backend, base: Arc<BitB2sr>, ctx: Arc<Context>) -> Matrix {
        let versions = Arc::new(VersionCell::new(base.clone()));
        Matrix {
            requested,
            base,
            overlay: None,
            ctx,
            versions,
        }
    }

    /// A backend of this matrix's resolved kind built of `bin`, an all-ones
    /// CSR of what this handle reads (or of its transpose).
    fn rebuilt(&self, bin: Csr) -> BitB2sr {
        BitB2sr::of_kind(bin, self.resolved_backend(), None).0
    }

    /// The context this matrix was constructed with.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.base.nrows()
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.base.ncols()
    }

    /// Number of edges (stored entries) in this handle's pinned view.
    pub fn nnz(&self) -> usize {
        match &self.overlay {
            Some(overlay) => overlay.nnz(&self.base),
            None => self.base.nnz(),
        }
    }

    /// The backend this matrix was requested with (possibly
    /// [`Backend::Auto`]).
    pub fn backend(&self) -> Backend {
        self.requested
    }

    /// The backend actually executing operations (never [`Backend::Auto`]).
    pub fn resolved_backend(&self) -> Backend {
        self.base.kind()
    }

    /// The built representation every product of this handle runs on first
    /// (under the overlay, if any), as the matrix shares it.
    pub(crate) fn base(&self) -> &Arc<BitB2sr> {
        &self.base
    }

    /// The pending deltas this handle reads through: `Some` for a snapshot
    /// taken while the shared log held entries, `None` for a handle that
    /// reads its built base directly.
    pub fn overlay(&self) -> Option<&DeltaOverlay> {
        self.overlay.as_deref()
    }

    /// The binary CSR view (always available; merged on first use through
    /// pending deltas).
    pub fn csr(&self) -> &Csr {
        match &self.overlay {
            Some(overlay) => overlay.csr(&self.base),
            None => self.base.csr(),
        }
    }

    /// The B2SR view, present only when a [`Backend::Bit`] matrix holds
    /// tiles (they fill) *and* this handle reads the compacted base directly
    /// (a snapshot with staged deltas reads through the merge-on-read overlay
    /// instead, which serves [`Matrix::csr`] but no B2SR view until the next
    /// [`compact`](Matrix::compact)).
    pub fn b2sr(&self) -> Option<&B2srMatrix> {
        self.built().and_then(BitB2sr::b2sr)
    }

    /// The CSR view of `A^T`: [`csr`](Matrix::csr) itself when the matrix
    /// is known symmetric, built and cached on first use otherwise.
    pub fn csr_t(&self) -> &Csr {
        match &self.overlay {
            Some(overlay) => overlay.csr_t(&self.base),
            None => self.base.csr_t(),
        }
    }

    /// The B2SR view of `A^T`: [`b2sr`](Matrix::b2sr) itself when the
    /// matrix is symmetric, built and cached on first use otherwise (bit
    /// backends that hold tiles only; see [`Matrix::b2sr`]).
    pub fn b2sr_t(&self) -> Option<&B2srMatrix> {
        self.built().and_then(BitB2sr::b2sr_t)
    }

    /// The built base, iff this handle reads it directly (no pending deltas).
    pub(crate) fn built(&self) -> Option<&BitB2sr> {
        self.overlay.is_none().then_some(&*self.base)
    }

    /// Out-degree of every vertex (row nnz), used by PageRank.
    pub fn out_degrees(&self) -> Vec<usize> {
        self.csr().out_degrees()
    }

    /// Storage bytes of the backend's primary representation: the B2SR
    /// tiles of a bit backend that holds them (the CSR it also holds is not
    /// counted), the CSR of one that does not and of the float baseline,
    /// base + staged patches for overlays.
    pub fn storage_bytes(&self) -> usize {
        self.base.storage_bytes() + self.overlay.as_ref().map_or(0, |o| o.storage_bytes())
    }

    /// Pin the latest published epoch: an immutable view of `base ⊕ log`
    /// that stays bit-stable under concurrent appends and compactions.
    /// Cheap — three `Arc` clones under one short lock; the snapshot shares
    /// this matrix's context (workspace pool, fault injector) and version
    /// cell (so `snapshot().snapshot()` re-pins the head, and mutations
    /// through the snapshot land in the same log).
    pub fn snapshot(&self) -> Snapshot {
        let (base, overlay, epoch) = self.versions.head();
        Snapshot {
            matrix: Matrix {
                requested: self.requested,
                base,
                overlay,
                ctx: self.ctx.clone(),
                versions: self.versions.clone(),
            },
            epoch,
        }
    }

    /// Append one edge insertion to the delta log and publish a new epoch
    /// (atomic; visible to subsequent [`snapshot`](Matrix::snapshot)s, never
    /// to already-pinned ones).  Inserting a present edge is an idempotent
    /// no-op on the view.  Returns the published epoch.
    pub fn insert_edge(&self, row: usize, col: usize) -> Result<u64, GrbError> {
        self.apply_deltas(&[EdgeDelta::insert(row, col)])
    }

    /// Append one edge deletion to the delta log and publish a new epoch.
    /// Deleting an absent edge is an idempotent no-op on the view.  Returns
    /// the published epoch.
    pub fn delete_edge(&self, row: usize, col: usize) -> Result<u64, GrbError> {
        self.apply_deltas(&[EdgeDelta::delete(row, col)])
    }

    /// Append a batch of deltas and publish **one** new epoch covering all
    /// of them (the serving layer's writer path: a coalesced mutation batch
    /// costs one publication).  Deltas are validated against the vertex set
    /// first — dimensions never change — and on any out-of-range endpoint
    /// nothing is appended.  Returns the published epoch.
    pub fn apply_deltas(&self, deltas: &[EdgeDelta]) -> Result<u64, GrbError> {
        for d in deltas {
            if d.row >= self.nrows() {
                return Err(GrbError::SourceOutOfRange {
                    what: "delta edge row",
                    source: d.row,
                    n: self.nrows(),
                });
            }
            if d.col >= self.ncols() {
                return Err(GrbError::SourceOutOfRange {
                    what: "delta edge column",
                    source: d.col,
                    n: self.ncols(),
                });
            }
        }
        Ok(self.versions.append(deltas))
    }

    /// The currently published epoch of the shared version cell (this
    /// handle's own pinned view may be older).
    pub fn head_epoch(&self) -> u64 {
        self.versions.epoch()
    }

    /// Pending (uncompacted) entries in the shared delta log.
    pub fn delta_len(&self) -> usize {
        self.versions.log_len()
    }

    /// Epochs published by the shared version cell since construction.
    pub fn epochs_published(&self) -> u64 {
        self.versions.epochs_published()
    }

    /// Completed compactions of the shared version cell.
    pub fn compactions(&self) -> u64 {
        self.versions.compactions()
    }

    /// Log entries the shared version cell has normalized — the exact count
    /// of the write path's staging work
    /// ([`VersionCell::entries_normalized`]).
    pub fn entries_normalized(&self) -> u64 {
        self.versions.entries_normalized()
    }

    /// Fold the pending delta log into a fresh base representation of the
    /// same backend kind and publish it as a new epoch — the explicit
    /// re-tiling step that restores full kernel speed after a mutation
    /// burst.  Tiles rebuild *incrementally*: only the tile-rows holding a
    /// dirty row are re-tiled.  Outstanding
    /// snapshots are untouched, and the `grb.delta_merge` fail point (fired
    /// through `ctx`'s injector before publication) can prove it: a
    /// panicking or transiently-failing compaction leaves the current epoch
    /// fully readable.
    pub fn compact(&self, ctx: &Context) -> Result<CompactReport, GrbError> {
        self.versions.compact(ctx)
    }

    /// A new matrix holding the strictly lower triangle.  The requested
    /// backend is preserved — under [`Backend::Auto`] the framework
    /// re-decides on the new structure.  A backend's CSR view is all-ones,
    /// so its lower triangle is handed over as built.  Triangle Counting
    /// reads [`triangle_operand`](Matrix::triangle_operand) instead.
    pub fn lower_triangle(&self) -> Matrix {
        Matrix::from_binary_ctx(self.csr().lower_triangle(), self.requested, &self.ctx)
    }

    /// Triangle Counting's `L`, the one operand of `Σ (L·Lᵀ) .* L`, under
    /// this matrix's resolved kind: the strictly lower triangle where it
    /// holds tiles, else the same graph ranked by descending degree, without
    /// tiles (`BitB2sr::triangle_operand_of`).  Built on first use and
    /// cached on the built base — or, through pending deltas, on their
    /// overlay — so the handle shares it the way [`transpose`](Matrix::transpose)
    /// shares a symmetric base: every later call, a snapshot of the same
    /// epoch and, without pending deltas, a clone read the same operand; a
    /// compaction or a new append builds a fresh one.  The handle shares
    /// this matrix's context.
    pub fn triangle_operand(&self) -> Matrix {
        let operand = match &self.overlay {
            Some(overlay) => overlay.triangle_operand(&self.base),
            None => self.base.triangle_operand(),
        };
        Matrix::from_parts(self.requested, operand.clone(), self.ctx.clone())
    }

    /// A new matrix holding `A^T`, starting its own mutation history
    /// (mutating the transpose does not mutate the original).  Without
    /// pending deltas a symmetric matrix shares its built backend, and any
    /// other takes the backend's cached transpose representations instead
    /// of reconverting; through pending deltas it starts from a backend
    /// built of the merged transpose.
    pub fn transpose(&self) -> Matrix {
        let base = match &self.overlay {
            None if self.base.is_symmetric() => self.base.clone(),
            None => Arc::new(self.base.transpose_view()),
            Some(_) => Arc::new(self.rebuilt(self.csr_t().clone())),
        };
        Matrix::from_parts(self.requested, base, Arc::new(Context::clone(&self.ctx)))
    }

    /// True if the matrix equals its transpose (undirected graph).  Decided
    /// once per built base and once per overlay: a base by one pass over its
    /// CSR, pending deltas over a symmetric base by whether their changes
    /// are mirrored, and over an asymmetric base by the merged CSR.
    pub fn is_symmetric(&self) -> bool {
        match &self.overlay {
            Some(overlay) => overlay.is_symmetric(&self.base),
            None => self.base.is_symmetric(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_sparse::Coo;

    fn sample() -> Csr {
        let mut coo = Coo::new(6, 6);
        for &(r, c) in &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)] {
            coo.push(r, c, 2.5).unwrap(); // non-unit values: must be binarized
        }
        Csr::from_coo(&coo)
    }

    /// Every off-diagonal entry of a 6 × 6 matrix: 30 bits in one B2SR-32
    /// tile, over that width's 16.
    fn dense_sample() -> Csr {
        let mut coo = Coo::new(6, 6);
        for r in 0..6 {
            for c in (0..6).filter(|&c| c != r) {
                coo.push(r, c, 2.5).unwrap();
            }
        }
        Csr::from_coo(&coo)
    }

    /// The dense sample fills its one B2SR-32 tile with 30 bits, and the
    /// sample its four B2SR-4 tiles with 1.75 bits each: tiles at the first
    /// width, none at the second, the kind kept at both.
    #[test]
    fn construction_binarizes_and_builds_backend() {
        let a = Matrix::from_csr(&dense_sample(), Backend::Bit(TileSize::S32));
        assert!(a.csr().is_binary());
        assert_eq!(a.nnz(), 30);
        assert!(a.b2sr().is_some());
        assert_eq!(a.b2sr().unwrap().nnz(), 30);
        assert_eq!(a.b2sr().unwrap().tile_size(), TileSize::S32);
        assert_eq!(a.resolved_backend(), Backend::Bit(TileSize::S32));

        let thin = Matrix::from_csr(&sample(), Backend::Bit(TileSize::S4));
        assert!(thin.csr().is_binary());
        assert!(thin.b2sr().is_none() && thin.b2sr_t().is_none());
        assert_eq!(thin.resolved_backend(), Backend::Bit(TileSize::S4));

        let f = Matrix::from_csr(&sample(), Backend::FloatCsr);
        assert!(f.b2sr().is_none());
        assert!(f.b2sr_t().is_none());
    }

    #[test]
    fn auto_backend_resolves_to_a_concrete_state() {
        let a = Matrix::from_csr(&sample(), Backend::Auto);
        assert_eq!(a.backend(), Backend::Auto);
        assert_ne!(a.resolved_backend(), Backend::Auto);
        // Whatever was chosen, the data survives.
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.csr(), &sample().binarized());
    }

    #[test]
    fn transpose_views_are_cached_and_correct() {
        let a = Matrix::from_csr(&sample(), Backend::Bit(TileSize::S8));
        let t1 = a.csr_t() as *const Csr;
        let t2 = a.csr_t() as *const Csr;
        assert_eq!(t1, t2, "transpose must be cached");
        assert_eq!(a.csr_t(), &a.csr().transpose());
        let bt = a.b2sr_t().unwrap();
        assert_eq!(bt.to_csr(), a.csr().transpose());
    }

    #[test]
    fn lower_triangle_and_transpose_keep_backend() {
        let a = Matrix::from_csr(&sample(), Backend::Bit(TileSize::S16));
        let l = a.lower_triangle();
        assert_eq!(l.backend(), Backend::Bit(TileSize::S16));
        assert!(l.csr().iter().all(|(r, c, _)| c < r));
        let t = a.transpose();
        assert_eq!(t.nnz(), a.nnz());
        assert_eq!(t.resolved_backend(), a.resolved_backend());
        assert_eq!(t.csr(), &a.csr().transpose());
    }

    #[test]
    fn clone_preserves_backend_state() {
        let a = Matrix::from_csr(&sample(), Backend::Bit(TileSize::S4));
        let b = a.clone();
        assert_eq!(b.resolved_backend(), Backend::Bit(TileSize::S4));
        assert_eq!(b.csr(), a.csr());
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn symmetry_check() {
        let directed = Matrix::from_csr(&sample(), Backend::FloatCsr);
        assert!(!directed.is_symmetric());
        let sym = Matrix::from_csr(&sample().symmetrized(), Backend::FloatCsr);
        assert!(sym.is_symmetric());
    }

    /// The tiles' bytes where a bit matrix holds tiles (30 bits in one
    /// B2SR-32 tile), the CSR's where it does not (3.5 bits per B2SR-4 tile)
    /// and on the float baseline.
    #[test]
    fn storage_bytes_reflect_backend() {
        let csr = sample().symmetrized();
        let bit = Matrix::from_csr(&dense_sample(), Backend::Bit(TileSize::S32));
        let thin = Matrix::from_csr(&csr, Backend::Bit(TileSize::S4));
        let float = Matrix::from_csr(&csr, Backend::FloatCsr);
        assert_eq!(float.storage_bytes(), float.csr().storage_bytes());
        assert_eq!(bit.storage_bytes(), bit.b2sr().unwrap().storage_bytes());
        assert!(thin.b2sr().is_none());
        assert_eq!(thin.storage_bytes(), thin.csr().storage_bytes());
    }

    #[test]
    fn default_bit_backend_is_b2sr8() {
        assert_eq!(Backend::default_bit(), Backend::Bit(TileSize::S8));
    }

    #[test]
    fn mutations_publish_epochs_and_snapshots_pin_them() {
        let a = Matrix::from_csr(&sample(), Backend::default_bit());
        let before = a.snapshot();
        assert_eq!(before.epoch(), 0);
        assert_eq!(before.nnz(), 7);

        assert_eq!(a.insert_edge(5, 0).unwrap(), 1);
        assert_eq!(a.delete_edge(0, 1).unwrap(), 2);
        assert_eq!(a.head_epoch(), 2);
        assert_eq!(a.delta_len(), 2);
        // The live handle's own pinned view is epoch 0 by design...
        assert_eq!(a.nnz(), 7);
        // ...while a fresh snapshot reads base ⊕ log.
        let after = a.snapshot();
        assert_eq!(after.epoch(), 2);
        assert_eq!(after.nnz(), 7);
        assert!(after.csr().get(5, 0).is_some());
        assert!(after.csr().get(0, 1).is_none());
        // The earlier snapshot is bit-stable.
        assert!(before.csr().get(5, 0).is_none());
        assert!(before.csr().get(0, 1).is_some());
        // Snapshots re-pin the shared head.
        assert_eq!(before.snapshot().epoch(), 2);
    }

    #[test]
    fn out_of_range_deltas_are_rejected_atomically() {
        let a = Matrix::from_csr(&sample(), Backend::FloatCsr);
        let err = a.insert_edge(6, 0).unwrap_err();
        assert!(err.to_string().contains("delta edge row"));
        let err = a
            .apply_deltas(&[EdgeDelta::insert(0, 2), EdgeDelta::insert(0, 99)])
            .unwrap_err();
        assert!(err.to_string().contains("delta edge column"));
        // The valid prefix of the rejected batch was not applied.
        assert_eq!(a.delta_len(), 0);
        assert_eq!(a.head_epoch(), 0);
    }

    #[test]
    fn compaction_restores_the_bit_representation() {
        let a = Matrix::from_csr(&sample(), Backend::Bit(TileSize::S8));
        a.insert_edge(5, 0).unwrap();
        let staged = a.snapshot();
        assert!(staged.b2sr().is_none(), "overlay has no B2SR view");
        let report = a.compact(a.context()).unwrap();
        assert_eq!(report.folded, 1);
        assert_eq!(a.delta_len(), 0);
        let compacted = a.snapshot();
        assert!(compacted.b2sr().is_some(), "compaction re-tiles");
        assert_eq!(compacted.csr(), staged.csr());
        assert_eq!(compacted.resolved_backend(), Backend::Bit(TileSize::S8));
        assert_eq!(a.compactions(), 1);
        assert_eq!(a.epochs_published(), 2);
    }

    #[test]
    fn clone_starts_a_fresh_history() {
        let a = Matrix::from_csr(&sample(), Backend::FloatCsr);
        a.insert_edge(5, 0).unwrap();
        let b = a.clone();
        assert_eq!(b.delta_len(), 0, "pending deltas are not carried");
        assert_eq!(b.head_epoch(), 0);
        b.insert_edge(4, 0).unwrap();
        assert!(a.snapshot().csr().get(4, 0).is_none());
    }
}
