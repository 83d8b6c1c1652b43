//! Allocation-counter proof of the zero-allocation steady state.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase fills the context's workspace pool, the exact BFS inner-loop
//! sequence (the Boolean `vxm` in bits in the push direction, level
//! recording, frontier recycling) must perform **zero** heap allocations per
//! iteration.
//!
//! The push paths are the ones certified here — every push is one serial
//! scatter over the whole frontier: every buffer — the frontier index list,
//! the scatter words, the output vector — cycles through the workspace
//! pool.
//!
//! # What is counted
//!
//! Each test counts the allocations of **its own thread**.  A process-wide
//! count cannot be made deterministic under the test harness: the harness's
//! main thread allocates whenever a test finishes (it formats the result
//! line and spawns the next test thread, which allocates while starting
//! up), and that lands inside another test's measured window — a
//! serialising lock across every test still left 74 of 150 runs of this
//! binary failing on a 2-core host, and the parent's process-wide counter
//! fails even under `--test-threads=1`.  Nothing the claim covers is lost:
//! every operation measured here runs on the calling thread (inputs below
//! the pull sweeps' sequential cut-off, push scatters serial by
//! construction), and a sweep that did fan out would be caught on this thread
//! too, because spawning a scoped worker allocates on the spawning thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bitgblas_core::grb::{
    Context, Direction, LaneBits, Mask, MultiVec, NodeBits, Op, Snapshot, Vector,
};
use bitgblas_core::{Backend, BinaryOp, Matrix, Semiring, TileSize};
use bitgblas_sparse::{Coo, Csr};

/// Counts, per thread, every allocation and reallocation passing through
/// the global allocator of this test binary.
struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // A thread that is tearing down its locals is past any measured window.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only a const-initialised thread-local.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// How a fixture is tiled, relative to the fill under which a bit matrix
/// holds no tiles and runs its full-precision pulls and Boolean products on
/// its CSR (`grb::backend::MIN_TILE_FILL`).  The full-precision
/// pull and the Boolean round tests run on both sides, so both paths keep
/// their proof.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Tiles {
    /// B2SR-8, the graph alone (a chain or ring: hypersparse, no tiles).
    Plain,
    /// Hypersparse: no tiles, so full-precision pulls and Boolean products
    /// read the CSR.
    Sparse,
    /// Dense tiles: full-precision pulls and Boolean products sweep them.
    Dense,
}

/// Build `csr` at B2SR-`ts`, and check that it holds tiles as `tiles` says.
fn build(csr: &Csr, ts: TileSize, tiles: Tiles) -> Matrix {
    let a = Matrix::from_csr(csr, Backend::Bit(ts));
    match tiles {
        Tiles::Plain => {}
        Tiles::Sparse => assert!(a.b2sr().is_none(), "a hypersparse fixture"),
        Tiles::Dense => assert!(a.b2sr().is_some(), "a dense-tile fixture"),
    }
    a
}

/// A directed chain 0 → 1 → … → n-1: the frontier stays a single vertex, so
/// every iteration exercises the identical push-path code with stable buffer
/// sizes.
fn chain(n: usize) -> Matrix {
    chain_tiled(n, &[], Tiles::Plain)
}

/// [`chain`] with the links out of `missing` left out, tiled as `tiles`
/// says: B2SR-4 for [`Tiles::Sparse`] (2 bits per tile), and for
/// [`Tiles::Dense`] B2SR-8 with every link back inside an 8-vertex block
/// added (≈ 18 bits per tile) — a back link shortens no path out of a lower
/// vertex, so levels and distances from vertex 0 are the chain's.
fn chain_tiled(n: usize, missing: &[usize], tiles: Tiles) -> Matrix {
    let mut coo = Coo::new(n, n);
    for i in (0..n - 1).filter(|i| !missing.contains(i)) {
        coo.push_edge(i, i + 1).unwrap();
    }
    if tiles == Tiles::Dense {
        for i in 0..n {
            for j in i - i % 8..i {
                coo.push_edge(i, j).unwrap();
            }
        }
    }
    let ts = match tiles {
        Tiles::Sparse => TileSize::S4,
        Tiles::Plain | Tiles::Dense => TileSize::S8,
    };
    build(&coo.to_binary_csr(), ts, tiles)
}

/// [`chain_tiled`] as a snapshot: built, or — `pending` — read through
/// pending deltas: a base missing the links out of vertices 9 and 14 with a
/// log that inserts them, so every product goes through the `DeltaOverlay`
/// and a traversal only gets past vertex 9 if its re-fold ran.
fn chain_snapshot(n: usize, pending: bool, tiles: Tiles) -> Snapshot {
    if !pending {
        return chain_tiled(n, &[], tiles).snapshot();
    }
    let a = chain_tiled(n, &[9, 14], tiles);
    a.insert_edge(9, 10).unwrap();
    a.insert_edge(14, 15).unwrap();
    a.snapshot()
}

/// One BFS level: exactly the inner-loop body of
/// `bitgblas_algorithms::bfs_dir` on a bit backend (the Boolean `vxm` in
/// bits with `¬visited` as an AND-NOT, level recording from the set bits,
/// visited update, frontier recycle).
fn bfs_level(
    a: &Matrix,
    ctx: &Context,
    direction: Direction,
    frontier: &mut NodeBits,
    visited: &mut NodeBits,
    levels: &mut [i64],
    level: i64,
) {
    let next = Op::vxm_bits(frontier, a)
        .and_not(visited)
        .direction(direction)
        .try_run(ctx)
        .expect("well-shaped operands")
        .expect("a bit backend has the word product");
    for v in next.ones() {
        levels[v] = level;
    }
    visited.or_assign(&next);
    std::mem::replace(frontier, next).recycle(ctx);
}

/// Forty levels of [`bfs_level`] down the chain `a`, the last thirty-two of
/// them measured: zero allocations, real work, nothing converted.
fn assert_bfs_levels_allocation_free(a: &Matrix, direction: Direction, what: &str) {
    let n = a.nrows();
    let ctx = a.context();
    let mut levels = vec![-1i64; n];
    levels[0] = 0;
    let mut frontier = NodeBits::from_indices(n, &[0]);
    let mut visited = frontier.clone();

    // Warm-up: the first iterations grow the pool (frontier list, node
    // words) to their steady-state capacities.
    for level in 1..=8i64 {
        bfs_level(
            a,
            ctx,
            direction,
            &mut frontier,
            &mut visited,
            &mut levels,
            level,
        );
    }

    // Steady state: the same sequence must touch the allocator zero times.
    let before = allocations();
    assert!(
        before > 0,
        "set-up and warm-up allocate: the counter is live"
    );
    for level in 9..=40i64 {
        bfs_level(
            a,
            ctx,
            direction,
            &mut frontier,
            &mut visited,
            &mut levels,
            level,
        );
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{what}: BFS inner loop allocated {} times in 32 steady-state iterations",
        after - before
    );

    // The traversal still did real work while being measured, in bits.
    assert_eq!(levels[40], 40);
    assert_eq!(levels[41], -1);
    assert_eq!(ctx.stats().converted_elems, 0);
}

/// The push rounds of `bfs` — on a built matrix, and read through pending
/// deltas, where the walk only gets past vertex 9 if the overlay's bit
/// re-fold ran.
#[test]
fn bfs_inner_loop_is_allocation_free_after_warmup() {
    for pending in [false, true] {
        let a = &chain_snapshot(512, pending, Tiles::Plain);
        let what = if pending { "pending log" } else { "built" };
        assert_bfs_levels_allocation_free(a, Direction::Push, what);
        assert_eq!(a.context().stats().refolded_positions > 0, pending);
    }
}

/// A small graph for the PageRank pipelines (every vertex has out-edges,
/// sizes stay identical across iterations): for [`Tiles::Sparse`] a ring
/// with a scattered chord out of every vertex at B2SR-4, for
/// [`Tiles::Dense`] a ring linking every vertex to the three on either side
/// at B2SR-8.
fn ring_graph(n: usize, tiles: Tiles) -> Matrix {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        match tiles {
            Tiles::Dense => {
                for d in [1, 2, 3, n - 3, n - 2, n - 1] {
                    coo.push_edge(i, (i + d) % n).unwrap();
                }
            }
            Tiles::Plain | Tiles::Sparse => {
                coo.push_edge(i, (i + 1) % n).unwrap();
                coo.push_edge(i, (i * 7 + 3) % n).unwrap();
            }
        }
    }
    let ts = match tiles {
        Tiles::Dense => TileSize::S8,
        Tiles::Plain | Tiles::Sparse => TileSize::S4,
    };
    build(&coo.to_binary_csr(), ts, tiles)
}

/// The fused PageRank pipeline — dangling dot (fused chain-reduce), the
/// scale+mxv+affine expression (one fused sweep) and the rank recycle —
/// must allocate zero bytes per iteration once the pool is warm, whether
/// the pull reads the CSR or sweeps the tiles.
#[test]
fn fused_pagerank_pipeline_is_allocation_free_after_warmup() {
    for tiles in [Tiles::Sparse, Tiles::Dense] {
        fused_pagerank_rounds(ring_graph(512, tiles), tiles);
    }
}

fn fused_pagerank_rounds(a: Matrix, tiles: Tiles) {
    let n = a.nrows();
    let ctx = a.context();
    let inv_deg = Vector::from_vec(
        a.out_degrees()
            .iter()
            .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
            .collect(),
    );
    let dangling_mask = Vector::zeros(n);
    let alpha = 0.85f32;
    let teleport = (1.0 - alpha) / n as f32;
    let mut rank = Vector::from_vec(vec![1.0 / n as f32; n]);

    let iteration = |rank: &mut Vector| {
        let dangling = Op::ewise_mult(rank, &dangling_mask).reduce().run(ctx);
        let next = Op::vxm(rank, &a)
            .scale_input(&inv_deg)
            .semiring(Semiring::Arithmetic)
            .affine(alpha, teleport + alpha * dangling / n as f32)
            .run(ctx);
        let _delta = next.max_abs_diff(rank);
        ctx.recycle(std::mem::replace(rank, next));
    };

    for _ in 0..12 {
        iteration(&mut rank);
    }
    let before = allocations();
    for _ in 0..24 {
        iteration(&mut rank);
    }
    assert_eq!(
        allocations() - before,
        0,
        "fused PageRank pipeline allocated in steady state ({tiles:?})"
    );
    let total: f32 = rank.as_slice().iter().sum();
    assert!((total - 1.0).abs() < 1e-3, "ranks still sum to 1: {total}");
}

/// The fused SSSP pipeline — min-plus relaxation with the `min`
/// accumulator folded into the sweep — must allocate zero bytes per round
/// once the pool is warm.
#[test]
fn fused_sssp_accum_pipeline_is_allocation_free_after_warmup() {
    let n = 256;
    let a = chain(n);
    let ctx = a.context();
    let semiring = Semiring::MinPlus(1.0);
    let mut dist = Vector::identity(n, semiring);
    dist.set(0, 0.0);
    // Seed the frontier-list buffer for the whole run (the SSSP frontier
    // grows by one chain vertex per round), as in the relaxation test
    // above.
    ctx.workspace().give::<usize>(Vec::with_capacity(n));

    let round = |dist: &mut Vector| {
        let next = Op::vxm(&*dist, &a)
            .semiring(semiring)
            .direction(Direction::Push)
            .accum(BinaryOp::Min, &*dist)
            .run(ctx);
        let _changed = next
            .as_slice()
            .iter()
            .zip(dist.as_slice())
            .any(|(n, d)| n < d);
        ctx.recycle(std::mem::replace(dist, next));
    };

    for _ in 0..8 {
        round(&mut dist);
    }
    let before = allocations();
    for _ in 0..24 {
        round(&mut dist);
    }
    assert_eq!(
        allocations() - before,
        0,
        "fused SSSP accumulation pipeline allocated in steady state"
    );
    assert_eq!(dist.get(20), 20.0);
}

/// The pull direction must meet the same bar as the push paths: after
/// warm-up, a pull round of `bfs` allocates **zero** bytes per iteration —
/// the result's node words cycle through the workspace pool, and the pull
/// reads the operand and suppressed-row node words in place — on the chain
/// without tiles (the CSR word pull) and on its dense-tile twin (the tile
/// pull, which stages no tile words).
#[test]
fn pull_bfs_inner_loop_is_allocation_free_after_warmup() {
    for tiles in [Tiles::Plain, Tiles::Dense] {
        let a = chain_tiled(512, &[], tiles);
        assert_bfs_levels_allocation_free(&a, Direction::Pull, &format!("pull {tiles:?}"));
    }
}

/// A masked bare full-precision pull — the min-plus relaxation sweep with a
/// mask and nothing fused behind it — must also run allocation-free in
/// steady state: the mask rides in the sweep's finishing closure, so the
/// only buffer is the pooled output (no staged `Vec<bool>`, no packed mask
/// words) — whether the pull reads the CSR or sweeps the tiles.
#[test]
fn masked_bare_full_precision_pull_is_allocation_free_after_warmup() {
    for tiles in [Tiles::Sparse, Tiles::Dense] {
        masked_min_plus_rounds(chain_tiled(256, &[], tiles), tiles);
    }
}

fn masked_min_plus_rounds(a: Matrix, tiles: Tiles) {
    let n = a.nrows();
    let ctx = a.context();
    let semiring = Semiring::MinPlus(1.0);
    let mut dist = Vector::identity(n, semiring);
    dist.set(0, 0.0);
    // Every third vertex is masked out: its entry stays the identity, so
    // the relaxation stops at vertex 2.
    let mask = Mask::complemented((0..n).map(|i| i % 3 == 0).collect());

    let round = |dist: &mut Vector| {
        let relaxed = Op::vxm(&*dist, &a)
            .semiring(semiring)
            .mask(&mask)
            .direction(Direction::Pull)
            .run(ctx);
        for (d, &r) in dist.as_mut_slice().iter_mut().zip(relaxed.as_slice()) {
            if r < *d {
                *d = r;
            }
        }
        ctx.recycle(relaxed);
    };

    for _ in 0..8 {
        round(&mut dist);
    }
    let before = allocations();
    for _ in 0..24 {
        round(&mut dist);
    }
    assert_eq!(
        allocations() - before,
        0,
        "masked bare min-plus pull allocated in steady state ({tiles:?})"
    );
    assert_eq!(dist.get(2), 2.0);
    assert!(dist.get(3).is_infinite() && dist.get(4).is_infinite());
}

/// The batched full-precision product behind every served SSSP and PPR
/// query must be allocation-free in steady state at a few lanes and at a
/// full batch, in both directions: an `sssp_multi`-shaped round (min-plus
/// `mxm` over `Aᵀ` with the `min` accumulator) forced push and forced pull,
/// and a `ppr_multi`-shaped round (input scaling, arithmetic `mxm`, affine
/// damping, per-lane teleport stage).  The sweeps fold lanes in place in
/// the pooled output; a per-call scratch buffer would show here.  The node
/// count shrinks as the batch widens so that `n · k` stays below the
/// sequential cut-off of the sweeps and of the epilogue pass (see the
/// module docs).  The pulls run on both sides of the CSR-pull crossover.
#[test]
fn batched_full_precision_rounds_are_allocation_free_after_warmup() {
    let cases = [(3usize, 256usize), (64, 24)];
    for ((k, n), tiles) in cases
        .into_iter()
        .flat_map(|c| [(c, Tiles::Sparse), (c, Tiles::Dense)])
    {
        // sssp_multi: lane l starts at chain vertex l mod n.
        let a = chain_tiled(n, &[], tiles);
        let ctx = a.context();
        let semiring = Semiring::MinPlus(1.0);
        for direction in [Direction::Push, Direction::Pull] {
            let mut dist = MultiVec::identity(n, k, semiring);
            for l in 0..k {
                dist.set(l % n, l, 0.0);
            }
            // The frontier list grows by a chain vertex per round; seed the
            // pool with one big enough for the run, as the single-vector
            // relaxation test does.
            ctx.workspace().give::<usize>(Vec::with_capacity(n));
            let round = |dist: &mut MultiVec| {
                let next = Op::mxm(&a, &*dist)
                    .transpose()
                    .semiring(semiring)
                    .direction(direction)
                    .accum(BinaryOp::Min, &*dist)
                    .run(ctx);
                ctx.recycle(std::mem::replace(dist, next));
            };
            for _ in 0..8 {
                round(&mut dist);
            }
            let pushes_before = ctx.stats().push_mxm;
            let before = allocations();
            for _ in 0..24 {
                round(&mut dist);
            }
            assert_eq!(
                allocations() - before,
                0,
                "sssp_multi round allocated in steady state (k={k}, {direction:?}, {tiles:?})"
            );
            assert_eq!(
                ctx.stats().push_mxm - pushes_before,
                if direction == Direction::Push { 24 } else { 0 },
                "every measured round must have taken the forced direction"
            );
            assert_eq!(dist.get(20, 0), 20.0);
            assert_eq!(dist.get(20, 2), 18.0);
        }

        // ppr_multi: lane l teleports to vertex l mod n.
        let a = ring_graph(n, tiles);
        let ctx = a.context();
        let inv_deg = Vector::from_vec(
            a.out_degrees()
                .iter()
                .map(|&d| if d == 0 { 0.0 } else { 1.0 / d as f32 })
                .collect(),
        );
        let alpha = 0.85f32;
        let mut rank = MultiVec::zeros(n, k);
        let mut teleport = MultiVec::zeros(n, k);
        for l in 0..k {
            rank.set(l % n, l, 1.0);
            teleport.set(l % n, l, 1.0 - alpha);
        }
        let iteration = |rank: &mut MultiVec| {
            let next = Op::mxm(&a, &*rank)
                .transpose()
                .scale_input(&inv_deg)
                .semiring(Semiring::Arithmetic)
                .affine(alpha, 0.0)
                .then_ewise(BinaryOp::Plus, &teleport)
                .run(ctx);
            ctx.recycle(std::mem::replace(rank, next));
        };
        // Auto pushes while the lanes' mass covers few edges and pulls once
        // it has spread — on the dense k = 3 ring first in round 14 with
        // two pull workers, round 26 with one: warm up past the switch, so
        // the measured rounds draw every buffer of both directions from a
        // warmed pool.
        let (pushes, pulls) = (ctx.stats().push_mxm, ctx.stats().pull_mxm);
        for _ in 0..40 {
            iteration(&mut rank);
        }
        let warmed = ctx.stats();
        assert!(
            warmed.push_mxm > pushes && warmed.pull_mxm > pulls,
            "the warm-up must run both directions (k={k}, {tiles:?}): {warmed:?}"
        );
        let before = allocations();
        for _ in 0..24 {
            iteration(&mut rank);
        }
        assert_eq!(
            allocations() - before,
            0,
            "ppr_multi round allocated in steady state (k={k}, {tiles:?})"
        );
        let mass: f32 = rank.as_slice().chunks_exact(k).map(|lanes| lanes[0]).sum();
        assert!((mass - 1.0).abs() < 1e-3, "lane 0 still sums to 1: {mass}");
    }
}

/// A `bfs_multi` round in lane words — the product `(Aᵀ·frontier) &
/// !visited`, levels from its set bits, `visited |= next`, the old frontier
/// back to the pool — allocates nothing in either direction, at one word per
/// node and at two — on a built matrix and through pending deltas (the
/// overlay's word re-fold).
#[test]
fn batched_bfs_rounds_are_allocation_free_after_warmup() {
    let cases = [(3usize, 256usize), (70, 24)];
    for ((k, n), pending) in cases.into_iter().flat_map(|c| [(c, false), (c, true)]) {
        let a = &chain_snapshot(n, pending, Tiles::Plain);
        let refolded_before = a.context().stats().refolded_positions;
        for direction in [Direction::Push, Direction::Pull] {
            assert_bfs_multi_rounds_allocation_free(a, k, direction, "");
        }
        let refolded = a.context().stats().refolded_positions - refolded_before;
        assert_eq!(refolded > 0, pending, "the overlay re-folds in words");
    }
}

/// Twenty `bfs_multi` rounds of `k` lanes down the chain `a` (lane `l` from
/// vertex `l mod n`), the last fourteen measured: zero allocations, the
/// forced direction every round, nothing converted, and the levels right.
fn assert_bfs_multi_rounds_allocation_free(a: &Matrix, k: usize, direction: Direction, what: &str) {
    let n = a.nrows();
    let ctx = a.context();
    let sources: Vec<usize> = (0..k).map(|l| l % n).collect();
    let mut frontier = LaneBits::from_sources(n, &sources);
    let mut visited = frontier.clone();
    let mut levels = vec![-1i64; n * k];
    // A frontier list big enough for the run, as above.
    ctx.workspace().give::<usize>(Vec::with_capacity(n));
    let mut round = |level: i64| {
        let next = Op::mxm_lanes(a, &frontier)
            .transpose()
            .and_not(&visited)
            .direction(direction)
            .try_run(ctx)
            .expect("well-shaped operands")
            .expect("a bit backend has the word product");
        for (v, l) in next.ones() {
            levels[v * k + l] = level;
        }
        visited.or_assign(&next);
        std::mem::replace(&mut frontier, next).recycle(ctx);
    };
    for level in 1..=6 {
        round(level);
    }
    let counts_before = ctx.stats();
    let before = allocations();
    for level in 7..=20 {
        round(level);
    }
    assert_eq!(
        allocations() - before,
        0,
        "bfs_multi round allocated in steady state (k={k}, {direction:?}{what})"
    );
    let counts = ctx.stats();
    assert_eq!(
        counts.push_mxm - counts_before.push_mxm,
        if direction == Direction::Push { 14 } else { 0 },
        "every measured round must have taken the forced direction"
    );
    assert_eq!(counts.converted_elems, 0);
    // Lane 1 started at vertex 1: vertex 20 is 19 hops out.
    assert_eq!(levels[20 * k + 1], 19);
}

/// `bfs` and a three-source `bfs_multi`, pushed and pulled, allocate nothing
/// in steady state on both sides of the Boolean route: the CSR word kernels
/// of a hypersparse matrix and the tile kernels of a dense one (`n · k`
/// stays under the pull sweeps' sequential cut-off, see the module docs).
#[test]
fn boolean_rounds_are_allocation_free_on_both_routes() {
    for tiles in [Tiles::Sparse, Tiles::Dense] {
        for direction in [Direction::Push, Direction::Pull] {
            let what = format!(" {tiles:?}");
            let a = chain_tiled(512, &[], tiles);
            assert_bfs_levels_allocation_free(&a, direction, &what);
            let a = chain_tiled(256, &[], tiles);
            assert_bfs_multi_rounds_allocation_free(&a, 3, direction, &what);
        }
    }
}

/// The compare-and-build pass of a changed-set SSSP round, as
/// `bitgblas_algorithms::sssp` runs it: `delta` becomes `next` where it
/// dropped below `dist` and `+∞` elsewhere, in place.
fn rebuild_delta(next: &[f32], dist: &[f32], delta: &mut [f32]) {
    for ((slot, &new), &old) in delta.iter_mut().zip(next).zip(dist) {
        *slot = if new < old { new } else { f32::INFINITY };
    }
}

/// Warm `round` up, then require 24 more calls to allocate nothing and —
/// when `direction` is push — to have scattered from a non-empty changed
/// set through the push path every time.
fn assert_changed_set_rounds_allocation_free(
    what: &str,
    ctx: &Context,
    direction: Direction,
    pushes: fn(&Context) -> u64,
    mut round: impl FnMut(),
) {
    for _ in 0..8 {
        round();
    }
    let (pushes_before, entries_before) = (pushes(ctx), ctx.stats().push_frontier_entries);
    let before = allocations();
    for _ in 0..24 {
        round();
    }
    assert_eq!(
        allocations() - before,
        0,
        "changed-set SSSP round allocated in steady state ({what}, {direction:?})"
    );
    if direction == Direction::Push {
        assert_eq!(pushes(ctx) - pushes_before, 24, "{what}: forced push");
        assert!(
            ctx.stats().push_frontier_entries > entries_before,
            "{what}: the measured rounds still scattered from a changed set"
        );
    }
}

/// The rounds production SSSP runs since the changed set: the operand is
/// `delta` (what dropped last round), the accumulator baseline is `dist`,
/// and one in-place pass rebuilds `delta` — single vector, a few lanes and
/// a full batch, forced push and forced pull.  The merged count-and-collect
/// frontier scan and the lane enumeration of the batched scatter run here;
/// a per-call buffer in either would show.  Both sides of the CSR-pull
/// crossover.
#[test]
fn changed_set_sssp_rounds_are_allocation_free_after_warmup() {
    let semiring = Semiring::MinPlus(1.0);
    let sides = [Direction::Push, Direction::Pull]
        .into_iter()
        .flat_map(|d| [(d, Tiles::Sparse), (d, Tiles::Dense)]);
    for (direction, tiles) in sides {
        // Single vector: the changed set is one chain vertex per round.
        let n = 256;
        let a = chain_tiled(n, &[], tiles);
        let ctx = a.context();
        let mut dist = Vector::identity(n, semiring);
        dist.set(0, 0.0);
        let mut delta = dist.clone();
        assert_changed_set_rounds_allocation_free(
            &format!("vector {tiles:?}"),
            ctx,
            direction,
            |ctx| ctx.stats().push_mxv,
            || {
                let next = Op::vxm(&delta, &a)
                    .semiring(semiring)
                    .direction(direction)
                    .accum(BinaryOp::Min, &dist)
                    .run(ctx);
                rebuild_delta(next.as_slice(), dist.as_slice(), delta.as_mut_slice());
                ctx.recycle(std::mem::replace(&mut dist, next));
            },
        );
        assert_eq!(dist.get(31), 31.0);

        // Batched: lane l starts at chain vertex 2·l (mod n), so lanes are
        // at different vertices and a node carries a few of them at most.
        // The node count shrinks as the batch widens to keep `n · k` below
        // the sweeps' sequential cut-off (see the module docs); lanes that reach the chain's end
        // drop out of the changed set, lane 0 walks all of it.
        // On a built matrix and through pending deltas (the overlay's `f32`
        // re-fold after the base's scatter).
        let cases = [(3usize, 256usize), (64, 24)];
        for ((k, n), pending) in cases.into_iter().flat_map(|c| [(c, false), (c, true)]) {
            let a = &chain_snapshot(n, pending, tiles);
            let ctx = a.context();
            let mut dist = MultiVec::identity(n, k, semiring);
            for l in 0..k {
                dist.set((2 * l) % n, l, 0.0);
            }
            let mut delta = dist.clone();
            assert_changed_set_rounds_allocation_free(
                &format!("k={k} pending={pending} {tiles:?}"),
                ctx,
                direction,
                |ctx| ctx.stats().push_mxm,
                || {
                    let next = Op::mxm(a, &delta)
                        .transpose()
                        .semiring(semiring)
                        .direction(direction)
                        .accum(BinaryOp::Min, &dist)
                        .run(ctx);
                    rebuild_delta(next.as_slice(), dist.as_slice(), delta.as_mut_slice());
                    ctx.recycle(std::mem::replace(&mut dist, next));
                },
            );
            assert_eq!(dist.get(20, 0), 20.0);
            assert_eq!(ctx.stats().refolded_positions > 0, pending);
        }
    }
}

#[test]
fn sssp_style_relaxation_is_allocation_free_after_warmup() {
    let n = 256;
    let a = chain(n);
    let ctx = a.context();
    let semiring = Semiring::MinPlus(1.0);
    let mut dist = Vector::identity(n, semiring);
    dist.set(0, 0.0);

    // The SSSP frontier (all finite-distance vertices) grows by one chain
    // vertex per round, so seed the pool with a frontier-list buffer big
    // enough for the whole run — exactly what a warm long-running service
    // pool looks like.  Every other buffer reaches its steady-state
    // capacity during the warm-up rounds on its own.
    ctx.workspace().give::<usize>(Vec::with_capacity(n));

    let round = |dist: &mut Vector| {
        let relaxed = Op::vxm(&*dist, &a)
            .semiring(semiring)
            .direction(Direction::Push)
            .run(ctx);
        for (d, &r) in dist.as_mut_slice().iter_mut().zip(relaxed.as_slice()) {
            if r < *d {
                *d = r;
            }
        }
        ctx.recycle(relaxed);
    };

    for _ in 0..8 {
        round(&mut dist);
    }
    let before = allocations();
    for _ in 0..24 {
        round(&mut dist);
    }
    assert_eq!(
        allocations() - before,
        0,
        "SSSP relaxation allocated in steady state"
    );
    assert_eq!(dist.get(20), 20.0);
}
