//! Shared strategies and assertions for the repo-level parity suites
//! (`backend_parity.rs`, `mutation_parity.rs`): the structured-graph generator
//! strategies and the backend lists every differential harness iterates.
//!
//! Each integration-test binary compiles its own copy and uses a subset.
#![allow(dead_code)]

use proptest::prelude::*;

use bit_graphblas::datagen::generators;
use bit_graphblas::prelude::*;

/// The backends whose results must be indistinguishable.
pub fn parity_backends() -> Vec<Backend> {
    vec![
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
        Backend::Bit(TileSize::S16),
        Backend::FloatCsr,
        Backend::Auto,
    ]
}

/// The backends the ISSUE-2 direction engine must keep exact: every bit
/// tile size named by the acceptance bar plus the float baseline.
pub fn direction_backends() -> Vec<Backend> {
    vec![
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
        Backend::Bit(TileSize::S16),
        Backend::FloatCsr,
    ]
}

/// Strategy: a random structured graph from one of the generator families
/// (dot, diagonal, block, stripe, road), sized to keep the suite fast.
pub fn graph_strategy() -> impl Strategy<Value = Csr> {
    (0usize..5, 1u64..1_000).prop_map(|(family, seed)| match family {
        0 => generators::erdos_renyi(60 + (seed % 60) as usize, 0.04, seed % 2 == 0, seed),
        1 => generators::banded(
            80 + (seed % 80) as usize,
            1 + (seed % 4) as usize,
            0.7,
            seed,
        ),
        2 => generators::block_community(3 + (seed % 4) as usize, 24, 0.4, 1e-3, seed),
        3 => generators::stripes(90 + (seed % 60) as usize, &[1, 17, 40], 0.8, seed),
        _ => {
            let side = 7 + (seed % 6) as usize;
            generators::grid2d(side, side + 1)
        }
    })
}

/// Strategy: graphs of 1536 to 2048 rows — R-MAT, Erdős–Rényi and a banded
/// mesh — larger than the small `graph_strategy` corpus, so a traversal
/// runs many rounds on either side of `Direction::Auto`'s threshold.
pub fn large_graph_strategy() -> impl Strategy<Value = Csr> {
    (0usize..3, 1u64..1_000).prop_map(|(family, seed)| match family {
        0 => generators::rmat(11, 12, 0.57, 0.19, 0.19, seed).symmetrized(),
        1 => generators::erdos_renyi(1536 + (seed % 512) as usize, 0.008, seed % 2 == 0, seed),
        _ => generators::banded(2048, 6, 0.7, seed),
    })
}

/// Assert two float slices match within tolerance (infinities must pair up).
pub fn assert_f32_slices_match(got: &[f32], want: &[f32], what: &str, backend: Backend) {
    assert_eq!(got.len(), want.len());
    for (v, (g, w)) in got.iter().zip(want).enumerate() {
        let both_inf = g.is_infinite() && w.is_infinite();
        assert!(
            both_inf || (g - w).abs() < 1e-4,
            "{what} / {backend:?}: vertex {v}: {g} vs {w}"
        );
    }
}
