//! Row-shard partition plans for the parallel push (scatter) engine.
//!
//! The scatter writes of different frontier rows can land on the same
//! output position, so a serial push kernel processes the frontier in
//! ascending order on one core.  This module supplies the partitioning
//! scheme that parallelises the scatter without giving up determinism:
//!
//! * a [`ShardPlan`] splits a scatter representation's **rows** into
//!   contiguous, edge-balanced, cache-sized ranges ("row shards"), cut by
//!   the backend's constructor from a [`ShardConfig`] (worker thread count +
//!   cache budget) — a function of the built representation and the config,
//!   so a compacted matrix and a from-scratch build of the same CSR carry
//!   the same plan;
//! * at execution time the ascending frontier is cut at the shard boundaries
//!   into **segments** ([`ShardPlan::segment_frontier`]); each segment
//!   scatters serially into a *privatized* output buffer, segments run on
//!   worker threads concurrently ([`scatter_segments`]), and the private
//!   buffers are folded into the real output **in fixed segment order**
//!   ([`merge_segments`]).
//!
//! # Determinism guarantee
//!
//! Per output position, the merge folds the segment contributions in
//! ascending segment order, and within a segment the scatter folds in
//! ascending frontier order — so the grouping of the semiring-monoid folds
//! is a pure function of the *plan and the frontier*, never of how many
//! threads executed the segments.  Results are therefore **bit-identical
//! across thread counts** (1, 2, 4, 8, …), including for float semirings
//! where fold grouping matters (`+` is not associative in `f32`); for
//! idempotent/exact monoids (`min`, `max`, `or`) the sharded result is
//! additionally bit-identical to the fully serial scatter.

/// Upper bound on the number of shards in one plan.  Bounds both the merge
/// cost (one privatized buffer per *active* segment is folded into the
/// output) and the scratch footprint (`n_segments × output_width`).
pub const MAX_SHARDS: usize = 32;

/// Row alignment of shard boundaries: a multiple of every B2SR tile
/// dimension (4/8/16/32), so a bit-tile row never straddles two shards.
pub const SHARD_ALIGN: usize = 32;

/// The modelled cost of one scattered edge relative to one streamed
/// element: a random write wastes a whole 128-byte memory transaction where
/// a streamed edge pays ~8 coalesced bytes.  `Direction::Auto` prices push
/// edges with it (the base α of `grb::choose_direction`) and
/// [`worth_sharding`] uses it as the scatter-vs-merge work ratio.
pub const SCATTER_EDGE_WEIGHT: usize = 16;

/// The cache budget shards are sized against (2 MiB, a last-level-cache
/// slice): what every [`Context`](crate::grb::Context) plans with.
pub(crate) const SHARD_CACHE_BYTES: usize = 2 << 20;

/// The effective parallelism of this host — what the rayon stand-in's pull
/// sweeps fan out to.  Cached after the first query:
/// `available_parallelism` consults the cgroup filesystem on Linux, which
/// allocates, and this is called on zero-allocation hot paths.
pub fn machine_parallelism() -> usize {
    static CACHED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CACHED.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Parameters a [`ShardPlan`] is derived from: the scatter-side worker
/// thread budget and the cache budget the per-shard working set should fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker threads the sharded scatter may fan out to (1 = serial push:
    /// plans degenerate to a single shard).
    pub threads: usize,
    /// Last-level cache budget in bytes; shards are sized so one shard's
    /// edge data is a cache-resident fraction of it.
    pub cache_bytes: usize,
}

impl Default for ShardConfig {
    /// Host parallelism and a 2 MiB cache budget.
    fn default() -> Self {
        ShardConfig {
            threads: machine_parallelism(),
            cache_bytes: SHARD_CACHE_BYTES,
        }
    }
}

/// A partition of a scatter representation's rows into contiguous shards.
///
/// `bounds` is ascending with `bounds[0] == 0` and `bounds.last() == nrows`;
/// shard `s` covers rows `bounds[s] .. bounds[s+1]`.  Boundaries are aligned
/// to [`SHARD_ALIGN`] rows (for B2SR, to tile-row boundaries), and the plan
/// balances the matrix's *edge* counts across shards, not its row counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// The trivial single-shard plan (serial scatter).
    pub fn single(nrows: usize) -> Self {
        ShardPlan {
            bounds: vec![0, nrows],
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The shard boundaries (ascending row indices, first 0, last `nrows`).
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Build a plan over row weights given as a cumulative (rowptr-style)
    /// array: `cum[u]` is the total weight of the first `u` *units*, each
    /// unit covering `rows_per_unit` consecutive rows.  CSR passes its
    /// `rowptr` with `rows_per_unit == 1`; B2SR passes its tile-row pointer
    /// with `rows_per_unit == tile_dim` so boundaries fall on tile rows.
    ///
    /// The sizing rule: the per-shard weight target is a cache-resident
    /// slice of the config's budget (`cache_bytes / 64`, floored at 1024
    /// units), the shard count is clamped to `[threads, 4·threads]` so
    /// every worker has work, and both [`MAX_SHARDS`] and the
    /// [`SHARD_ALIGN`] row granularity cap it from above.  Degenerate
    /// inputs (serial config, tiny or empty matrices) get the single-shard
    /// plan, which keeps the serial kernels on their old path.
    pub fn from_weights(
        cum: &[usize],
        rows_per_unit: usize,
        nrows: usize,
        cfg: ShardConfig,
    ) -> ShardPlan {
        let units = cum.len().saturating_sub(1);
        let total = cum.last().copied().unwrap_or(0);
        let threads = cfg.threads;
        if threads <= 1
            || units == 0
            || total == 0
            || nrows < threads.max(2).saturating_mul(SHARD_ALIGN)
        {
            return ShardPlan::single(nrows);
        }
        let target = (cfg.cache_bytes / 64).max(1024);
        let n = (total / target)
            .clamp(threads, threads.saturating_mul(4))
            .min(MAX_SHARDS)
            .min(nrows / SHARD_ALIGN);
        if n <= 1 {
            return ShardPlan::single(nrows);
        }
        let align_units = SHARD_ALIGN.div_ceil(rows_per_unit.max(1)).max(1);
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0usize);
        for i in 1..n {
            // The unit where the i-th equal-weight cut falls, rounded up to
            // the alignment granularity.
            let want = total / n * i;
            let u = cum.partition_point(|&c| c < want);
            let ua = u.div_ceil(align_units) * align_units;
            let row = (ua * rows_per_unit).min(nrows);
            if row > *bounds.last().expect("bounds never empty") && row < nrows {
                bounds.push(row);
            }
        }
        bounds.push(nrows);
        if bounds.len() < 3 {
            return ShardPlan::single(nrows);
        }
        ShardPlan { bounds }
    }

    /// Cut an ascending frontier at the shard boundaries: on return `cuts`
    /// holds `n_segments + 1` positions into `frontier` such that segment
    /// `s` is `frontier[cuts[s] .. cuts[s+1]]`, every segment lies entirely
    /// within one shard, and no segment is empty (shards with no frontier
    /// rows contribute no cut).  `cuts` is cleared first; an empty frontier
    /// yields `cuts == [0]` (zero segments).
    pub fn segment_frontier(&self, frontier: &[usize], cuts: &mut Vec<usize>) {
        cuts.clear();
        cuts.push(0);
        let mut pos = 0usize;
        for &bound in &self.bounds[1..] {
            let end = pos + frontier[pos..].partition_point(|&r| r < bound);
            if end > pos {
                cuts.push(end);
            }
            pos = end;
        }
        // Frontier rows at or past the last bound (ragged callers) form one
        // trailing segment.
        if pos < frontier.len() {
            cuts.push(frontier.len());
        }
    }
}

/// Upper bound on the privatized scratch one sharded scatter may check out
/// (`n_segments × output_width` elements).  Scatters whose scratch would
/// exceed this stay on the serial kernel — the bound is a pure function of
/// the plan, frontier and output shape, so it cannot break the
/// across-thread-counts determinism, and it keeps a pathological shape
/// (huge output × many lanes × many segments) from pinning gigabytes in
/// the workspace pool.
pub const SCRATCH_BYTE_CAP: usize = 64 << 20;

/// Should a scatter with `frontier_len` active rows of average degree
/// `avg_deg` over `n_segments` frontier segments use the sharded engine?
/// `produced` is the merged element count and `elem_bytes` the element
/// size, bounding the scratch footprint.
///
/// The sharded path pays a deterministic merge pass of `n_segments ×
/// produced` streamed elements on top of the scatter; it is engaged only
/// when the modelled scatter work (frontier edges, each costing
/// [`SCATTER_EDGE_WEIGHT`] streamed-element equivalents) dominates that
/// merge, and the privatized scratch stays under [`SCRATCH_BYTE_CAP`].
/// The predicate is a pure function of the frontier, the plan and the
/// output shape — never of the executing thread count — which is what
/// keeps results bit-identical across thread counts.
pub fn worth_sharding(
    frontier_len: usize,
    avg_deg: usize,
    n_segments: usize,
    produced: usize,
    elem_bytes: usize,
) -> bool {
    n_segments > 1
        && (frontier_len as u128) * (avg_deg.max(1) as u128) * (SCATTER_EDGE_WEIGHT as u128)
            >= (n_segments as u128) * (produced as u128)
        && (n_segments as u128) * (produced as u128) * (elem_bytes as u128)
            <= SCRATCH_BYTE_CAP as u128
}

/// Run `scatter(segment_index, private_chunk)` for every frontier segment,
/// on up to `threads` scoped worker threads.  `scratch` supplies one
/// `width`-sized private chunk per segment (`scratch[s*width ..
/// (s+1)*width]`), pre-initialised by the caller; segments are assigned to
/// workers round-robin.  With `threads <= 1` (or a single segment) the
/// segments run inline on the caller's thread — same chunks, same order, no
/// spawn, no allocation.
pub fn scatter_segments<T, F>(
    threads: usize,
    n_segments: usize,
    scratch: &mut [T],
    width: usize,
    scatter: F,
) where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if n_segments == 0 {
        return;
    }
    debug_assert!(scratch.len() >= n_segments * width);
    if threads <= 1 || n_segments == 1 {
        for (s, chunk) in scratch.chunks_mut(width).take(n_segments).enumerate() {
            scatter(s, chunk);
        }
        return;
    }
    let workers = threads.min(n_segments);
    // Hand whole chunks to workers round-robin; the Vec-of-lists is the only
    // allocation of the parallel path (the thread spawns below dwarf it).
    let mut per_worker: Vec<Vec<(usize, &mut [T])>> = (0..workers)
        .map(|_| Vec::with_capacity(n_segments.div_ceil(workers)))
        .collect();
    for (s, chunk) in scratch.chunks_mut(width).take(n_segments).enumerate() {
        per_worker[s % workers].push((s, chunk));
    }
    // The caller works worker 0's list itself instead of idling in the
    // join: `workers`-wide execution costs `workers - 1` spawns.
    std::thread::scope(|scope| {
        let mut lists = per_worker.into_iter();
        let mine = lists.next().expect("workers >= 1");
        for list in lists {
            let scatter = &scatter;
            scope.spawn(move || {
                for (s, chunk) in list {
                    scatter(s, chunk);
                }
            });
        }
        for (s, chunk) in mine {
            scatter(s, chunk);
        }
    });
}

/// Fold the per-segment private buffers into `out`, position-parallel:
/// `out[i] = fold(... fold(fold(out[i], seg0[i]), seg1[i]) ...)` — segment
/// order is ascending for every position regardless of how the positions
/// are split across threads, which is the merge half of the determinism
/// guarantee.  `out` arrives pre-seeded (zeros, the semiring identity, or
/// an accumulation baseline).
pub fn merge_segments<T, F>(
    threads: usize,
    n_segments: usize,
    scratch: &[T],
    width: usize,
    out: &mut [T],
    fold: F,
) where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    if n_segments == 0 {
        return;
    }
    debug_assert!(scratch.len() >= n_segments * width);
    debug_assert!(out.len() <= width);
    let run = |start: usize, part: &mut [T]| {
        for s in 0..n_segments {
            let seg = &scratch[s * width + start..s * width + start + part.len()];
            for (o, &v) in part.iter_mut().zip(seg) {
                *o = fold(*o, v);
            }
        }
    };
    if threads <= 1 || out.len() < 4096 {
        run(0, out);
        return;
    }
    let workers = threads.min(out.len());
    let chunk = out.len().div_ceil(workers);
    // As in `scatter_segments`, the caller folds the first range itself.
    std::thread::scope(|scope| {
        let mut parts = out.chunks_mut(chunk).enumerate();
        let mine = parts.next();
        for (ci, part) in parts {
            let run = &run;
            scope.spawn(move || run(ci * chunk, part));
        }
        if let Some((ci, part)) = mine {
            run(ci * chunk, part);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(threads: usize) -> ShardConfig {
        ShardConfig {
            threads,
            cache_bytes: 2 << 20,
        }
    }

    /// A rowptr with `deg` edges per row.
    fn uniform_rowptr(nrows: usize, deg: usize) -> Vec<usize> {
        (0..=nrows).map(|r| r * deg).collect()
    }

    #[test]
    fn serial_config_and_tiny_matrices_get_single_shards() {
        let rp = uniform_rowptr(4096, 8);
        assert_eq!(ShardPlan::from_weights(&rp, 1, 4096, cfg(1)).n_shards(), 1);
        let tiny = uniform_rowptr(64, 8);
        assert_eq!(ShardPlan::from_weights(&tiny, 1, 64, cfg(8)).n_shards(), 1);
        assert_eq!(ShardPlan::from_weights(&[0], 1, 0, cfg(8)).n_shards(), 1);
    }

    #[test]
    fn plans_are_aligned_balanced_and_bounded() {
        let nrows = 8192;
        let rp = uniform_rowptr(nrows, 16);
        let plan = ShardPlan::from_weights(&rp, 1, nrows, cfg(4));
        assert!(plan.n_shards() >= 4, "want ≥ threads shards, got {plan:?}");
        assert!(plan.n_shards() <= MAX_SHARDS);
        assert_eq!(plan.bounds()[0], 0);
        assert_eq!(*plan.bounds().last().unwrap(), nrows);
        for w in plan.bounds().windows(2) {
            assert!(w[0] < w[1], "bounds must be strictly ascending");
        }
        for &b in &plan.bounds()[1..plan.bounds().len() - 1] {
            assert_eq!(b % SHARD_ALIGN, 0, "interior bounds must be aligned");
        }
        // Uniform weights → near-equal shard sizes.
        let sizes: Vec<usize> = plan.bounds().windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 2 * SHARD_ALIGN, "unbalanced shards: {sizes:?}");
    }

    #[test]
    fn skewed_weights_move_the_boundaries() {
        // All the weight in the first quarter of the rows.
        let nrows = 4096;
        let cum: Vec<usize> = (0..=nrows)
            .map(|r| {
                if r < nrows / 4 {
                    r * 32
                } else {
                    nrows / 4 * 32
                }
            })
            .collect();
        let plan = ShardPlan::from_weights(&cum, 1, nrows, cfg(4));
        assert!(plan.n_shards() > 1);
        // Every interior boundary must fall inside the weighted quarter.
        for &b in &plan.bounds()[1..plan.bounds().len() - 1] {
            assert!(
                b <= nrows / 4 + SHARD_ALIGN,
                "boundary {b} ignores the weight skew"
            );
        }
    }

    #[test]
    fn tile_row_units_scale_boundaries_to_rows() {
        // 512 tile-rows of dim 8 → 4096 rows; uniform tile counts.
        let cum: Vec<usize> = (0..=512).map(|t| t * 4).collect();
        let plan = ShardPlan::from_weights(&cum, 8, 4096, cfg(4));
        assert!(plan.n_shards() > 1);
        for &b in plan.bounds() {
            assert_eq!(b % 8, 0, "bounds must fall on tile rows");
        }
        assert_eq!(*plan.bounds().last().unwrap(), 4096);
    }

    #[test]
    fn segment_frontier_respects_bounds_and_skips_empty_shards() {
        let plan = ShardPlan {
            bounds: vec![0, 128, 256, 384, 512],
        };
        let frontier = [3, 64, 127, 300, 301, 510];
        let mut cuts = vec![99];
        plan.segment_frontier(&frontier, &mut cuts);
        // Shard 0: rows 3,64,127; shard 1: none; shard 2: 300,301; shard 3: 510.
        assert_eq!(cuts, vec![0, 3, 5, 6]);
        plan.segment_frontier(&[], &mut cuts);
        assert_eq!(cuts, vec![0]);
        plan.segment_frontier(&[200], &mut cuts);
        assert_eq!(cuts, vec![0, 1]);
    }

    #[test]
    fn worth_sharding_weighs_scatter_against_merge_and_memory() {
        // Fat frontier over few segments: engage.
        assert!(worth_sharding(1024, 16, 4, 8192, 4));
        // A couple of rows over many segments: merge dominates, stay serial.
        assert!(!worth_sharding(2, 4, 8, 8192, 4));
        // Single segment never engages.
        assert!(!worth_sharding(10_000, 16, 1, 8192, 4));
        // A scratch footprint past the byte cap stays serial no matter how
        // much scatter work there is (32 segs × 1M outputs × 64 lanes × 4B).
        assert!(!worth_sharding(500_000, 64, 32, 1 << 20, 64 * 4));
        // The same shape with one lane and fewer segments fits and engages.
        assert!(worth_sharding(500_000, 64, 8, 1 << 20, 4));
    }

    #[test]
    fn scatter_and_merge_are_deterministic_across_thread_counts() {
        // Fold with a grouping-sensitive float op and verify bit-identity
        // across executions with 1, 2, 4 and 8 threads.
        let n_seg = 5;
        let width = 1000;
        let reference: Option<Vec<u32>> = None;
        let mut reference = reference;
        for threads in [1usize, 2, 4, 8] {
            let mut scratch = vec![0.0f32; n_seg * width];
            scatter_segments(threads, n_seg, &mut scratch, width, |s, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (s as f32 + 1.0) * 0.1 + i as f32 * 1e-3;
                }
            });
            let mut out = vec![0.25f32; width];
            merge_segments(threads, n_seg, &scratch, width, &mut out, |a, b| a + b);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(&bits, r, "threads={threads} diverged"),
            }
        }
    }

    #[test]
    fn merge_folds_segments_in_ascending_order() {
        // A non-commutative fold exposes the order: f(a, b) = 2a + b.
        let scratch = [1.0f32, 10.0, 100.0];
        let mut out = [0.0f32];
        merge_segments(1, 3, &scratch, 1, &mut out, |a, b| 2.0 * a + b);
        // ((0*2+1)*2+10)*2+100 = 124.
        assert_eq!(out[0], 124.0);
    }
}
