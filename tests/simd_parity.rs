//! Differential SIMD parity harness: the scalar and the SWAR form of the
//! single-vector Boolean pull sweep — the one thing [`SimdPolicy`] selects —
//! must be **word-identical** on every tile size, mask shape and thread
//! budget.
//!
//! Each property pins one side of the differential with
//! [`SimdPolicy::ForceScalar`] and the other with
//! [`SimdPolicy::ForceVector`], runs the same whole traversal on both, and
//! compares outputs exactly.  Full-precision products (SSSP, PageRank, PPR)
//! and every batched product have one body whatever the policy says, so
//! they have no differential here: `kernels::bmv`'s unit tests pin the one
//! full-precision sweep against its per-bit definition, and
//! `backend_parity.rs` pins it against `FloatCsr` at the op layer.
//!
//! Also covered here: the `BITGBLAS_SIMD` env knob (which seeds a fresh
//! context; `Context::set_simd_policy` overrides it).

mod common;

use proptest::prelude::*;

use bit_graphblas::core::grb::SIMD_ENV_VAR;
use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

use common::{graph_strategy, simd_backends};

/// Run `run` on `m` with the matrix context pinned to `policy`.
fn forced<T>(m: &Matrix, policy: SimdPolicy, run: impl FnOnce(&Matrix) -> T) -> T {
    m.context().set_simd_policy(policy);
    run(m)
}

/// Exact bit pattern of a float slice — the comparison currency of the
/// whole harness.
fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// BFS levels are identical between the forced scalar and forced
    /// vector sweeps on every SIMD-capable backend, in pull and in the
    /// per-iteration auto switch (whose push iterations are the same code
    /// on both sides — the differential isolates the pull sweep the policy
    /// selects).
    #[test]
    fn bfs_vector_equals_scalar(adj in graph_strategy(), src in 0usize..1_000) {
        let src = src % adj.nrows();
        for backend in simd_backends() {
            let m = Matrix::from_csr(&adj, backend);
            for dir in [Direction::Pull, Direction::Auto] {
                let scalar = forced(&m, SimdPolicy::ForceScalar, |m| bfs_dir(m, src, dir));
                let vector = forced(&m, SimdPolicy::ForceVector, |m| bfs_dir(m, src, dir));
                prop_assert_eq!(&vector.levels, &scalar.levels, "bfs {:?} {:?}", backend, dir);
            }
        }
    }

    /// The differential holds at every thread budget — 1, 2, 4 and 8 — and
    /// the vector sweep is additionally identical *across* budgets.
    #[test]
    fn vector_equals_scalar_across_thread_budgets(adj in graph_strategy(), src in 0usize..1_000) {
        let src = src % adj.nrows();
        for backend in simd_backends() {
            let ctx = Context::with_threads(8);
            let m = Matrix::from_csr_ctx(&adj, backend, &ctx);
            let mut ref_levels: Option<Vec<i64>> = None;
            for threads in [1usize, 2, 4, 8] {
                m.context().set_threads(threads);
                let s_bfs = forced(&m, SimdPolicy::ForceScalar, |m| {
                    bfs_dir(m, src, Direction::Pull).levels
                });
                let v_bfs = forced(&m, SimdPolicy::ForceVector, |m| {
                    bfs_dir(m, src, Direction::Pull).levels
                });
                prop_assert_eq!(&v_bfs, &s_bfs, "bfs {:?} threads={}", backend, threads);
                match &ref_levels {
                    None => ref_levels = Some(v_bfs),
                    Some(rl) => {
                        prop_assert_eq!(&v_bfs, rl, "{:?} diverged at {} threads", backend, threads);
                    }
                }
            }
        }
    }
}

/// Empty frontiers: an all-zero operand stays all-zero through the vector
/// pull sweep, exactly as through the scalar one, and BFS from an
/// out-degree-0 vertex terminates identically.
#[test]
fn empty_frontier_is_identity_on_the_vector_path() {
    let adj = generators::erdos_renyi(96, 0.04, true, 42);
    let zero = Vector::zeros(96);
    for backend in simd_backends() {
        let ctx = Context::default();
        let m = Matrix::from_csr_ctx(&adj, backend, &ctx);
        for policy in [SimdPolicy::ForceScalar, SimdPolicy::ForceVector] {
            ctx.set_simd_policy(policy);
            let bool_out = Op::vxm(&zero, &m)
                .semiring(Semiring::Boolean)
                .direction(Direction::Pull)
                .run(&ctx);
            assert_eq!(bool_out.nnz(), 0, "{backend:?} {policy:?}");
        }
    }

    let mut coo = Coo::new(8, 8);
    coo.push_edge(1, 2).unwrap();
    let m = Matrix::from_csr(&coo.to_binary_csr(), Backend::Bit(TileSize::S4));
    let s = forced(&m, SimdPolicy::ForceScalar, |m| {
        bfs_dir(m, 0, Direction::Pull)
    });
    let v = forced(&m, SimdPolicy::ForceVector, |m| {
        bfs_dir(m, 0, Direction::Pull)
    });
    assert_eq!((v.n_reached, v.iterations), (s.n_reached, s.iterations));
    assert_eq!(v.levels, s.levels);
}

/// Shapes that straddle tile boundaries (n = 17, 33, 65: one row/column
/// past a tile edge for every tile size) — the partial-tile tails the
/// vector masks must handle exactly like the scalar bounds checks.
#[test]
fn tile_straddling_shapes_vector_equals_scalar() {
    for n in [17usize, 33, 65] {
        for adj in [
            generators::erdos_renyi(n, 0.15, true, n as u64),
            generators::cycle(n),
        ] {
            for backend in simd_backends() {
                let m = Matrix::from_csr(&adj, backend);
                let s = forced(&m, SimdPolicy::ForceScalar, |m| {
                    bfs_dir(m, 0, Direction::Pull)
                });
                let v = forced(&m, SimdPolicy::ForceVector, |m| {
                    bfs_dir(m, 0, Direction::Pull)
                });
                assert_eq!(v.levels, s.levels, "bfs n={n} {backend:?}");
            }
        }
    }
}

/// The `BITGBLAS_SIMD` environment variable seeds the policy of freshly
/// constructed contexts; unparseable values fall back to `Auto`.
///
/// (Every other test in this binary pins its policy explicitly before each
/// measured run, so the transient seed cannot perturb them.)
#[test]
fn env_var_seeds_fresh_contexts() {
    for (value, expect) in [
        ("scalar", SimdPolicy::ForceScalar),
        ("off", SimdPolicy::ForceScalar),
        ("vector", SimdPolicy::ForceVector),
        ("on", SimdPolicy::ForceVector),
        ("auto", SimdPolicy::Auto),
        ("warp-speed", SimdPolicy::Auto),
    ] {
        std::env::set_var(SIMD_ENV_VAR, value);
        assert_eq!(Context::default().simd_policy(), expect, "{value:?}");
    }
    std::env::remove_var(SIMD_ENV_VAR);
    assert_eq!(Context::default().simd_policy(), SimdPolicy::Auto);
}

/// One product pinned to each side by the context policy — the only
/// per-context selection layer above the env seed: the two runs agree
/// bit-for-bit, and the policy stays where the harness pinned it.
#[test]
fn context_policy_pins_one_op_and_both_sides_agree_bitwise() {
    let adj = generators::erdos_renyi(120, 0.05, true, 9);
    let ctx = Context::default();
    let m = Matrix::from_csr_ctx(&adj, Backend::Bit(TileSize::S8), &ctx);
    let x = Vector::from_vec((0..120).map(|i| (i % 5) as f32 * 0.25).collect());
    let pinned = |policy: SimdPolicy| {
        ctx.set_simd_policy(policy);
        let y = Op::vxm(&x, &m)
            .semiring(Semiring::Boolean)
            .direction(Direction::Pull)
            .run(&ctx);
        assert_eq!(ctx.simd_policy(), policy, "an op must not move the policy");
        y
    };
    let scalar = pinned(SimdPolicy::ForceScalar);
    let vector = pinned(SimdPolicy::ForceVector);
    assert_eq!(bits(vector.as_slice()), bits(scalar.as_slice()));
}
