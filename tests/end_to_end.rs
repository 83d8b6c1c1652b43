//! Cross-crate integration tests: build graphs with the generators, convert
//! them through every B2SR variant, run every algorithm on every backend and
//! check the answers against the reference implementations.

use bit_graphblas::algorithms::{self, reference, PageRankConfig};
use bit_graphblas::datagen::{classify, corpus, generators, PatternCategory};
use bit_graphblas::perfmodel::b2sr::{sample_profile, stats, TILE_DIMS};
use bit_graphblas::prelude::*;

fn all_backends() -> Vec<Backend> {
    vec![
        Backend::Bit(TileSize::S4),
        Backend::Bit(TileSize::S8),
        Backend::Bit(TileSize::S16),
        Backend::Bit(TileSize::S32),
        Backend::FloatCsr,
        Backend::Auto,
    ]
}

/// A representative set of small-to-mid graphs from every pattern category.
fn test_graphs() -> Vec<(String, Csr)> {
    vec![
        ("banded".to_string(), generators::banded(300, 3, 0.7, 1)),
        (
            "erdos_renyi".to_string(),
            generators::erdos_renyi(250, 0.02, true, 2),
        ),
        (
            "rmat".to_string(),
            generators::rmat(8, 8, 0.57, 0.19, 0.19, 3),
        ),
        ("grid".to_string(), generators::grid2d(18, 17)),
        (
            "blocks".to_string(),
            generators::block_community(5, 40, 0.3, 1e-4, 4),
        ),
        (
            "stripes".to_string(),
            generators::stripes(260, &[1, 37, 90], 0.8, 5),
        ),
        ("mycielskian7".to_string(), generators::mycielskian(7)),
    ]
}

#[test]
fn bfs_agrees_with_reference_on_all_backends_and_graphs() {
    for (name, adj) in test_graphs() {
        let expected = reference::bfs_levels(&adj, 0);
        for backend in all_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let got = bfs(&m, 0);
            assert_eq!(got.levels, expected, "{name} / {backend:?}");
        }
    }
}

#[test]
fn sssp_agrees_with_reference_on_all_backends_and_graphs() {
    for (name, adj) in test_graphs() {
        let expected = reference::sssp_distances(&adj, 1);
        for backend in all_backends() {
            let m = Matrix::from_csr(&adj, backend);
            let got = sssp(&m, 1);
            for (v, (g, e)) in got.distances.iter().zip(&expected).enumerate() {
                let both_inf = g.is_infinite() && e.is_infinite();
                assert!(
                    both_inf || (g - e).abs() < 1e-4,
                    "{name} / {backend:?}: vertex {v}: {g} vs {e}"
                );
            }
        }
    }
}

#[test]
fn connected_components_agree_with_union_find() {
    for (name, adj) in test_graphs() {
        let expected = reference::cc_labels(&adj);
        for backend in [
            Backend::Bit(TileSize::S8),
            Backend::Bit(TileSize::S32),
            Backend::FloatCsr,
        ] {
            let m = Matrix::from_csr(&adj, backend);
            let got = connected_components(&m);
            assert_eq!(got.labels, expected, "{name} / {backend:?}");
        }
    }
}

#[test]
fn triangle_counts_agree_with_reference() {
    for (name, adj) in test_graphs() {
        let expected = reference::triangle_count(&adj);
        for backend in all_backends() {
            let m = Matrix::from_csr(&adj, backend);
            assert_eq!(triangle_count(&m), expected, "{name} / {backend:?}");
        }
    }
}

#[test]
fn pagerank_is_backend_independent_and_normalised() {
    for (name, adj) in test_graphs() {
        let config = PageRankConfig {
            max_iterations: 15,
            ..Default::default()
        };
        let baseline = pagerank(&Matrix::from_csr(&adj, Backend::FloatCsr), &config);
        let total: f32 = baseline.ranks.iter().sum();
        assert!((total - 1.0).abs() < 1e-2, "{name}: ranks sum to {total}");
        for backend in [Backend::Bit(TileSize::S4), Backend::Bit(TileSize::S16)] {
            let got = pagerank(&Matrix::from_csr(&adj, backend), &config);
            for (v, (g, b)) in got.ranks.iter().zip(&baseline.ranks).enumerate() {
                assert!((g - b).abs() < 1e-4, "{name} / {backend:?}: vertex {v}");
            }
        }
    }
}

#[test]
fn b2sr_roundtrip_preserves_every_corpus_matrix() {
    for name in corpus::named_matrix_list().into_iter().take(12) {
        let csr = corpus::named_matrix(name).unwrap();
        for ts in TileSize::ALL {
            let b2sr = B2srMatrix::from_csr(&csr, ts);
            assert_eq!(b2sr.to_csr(), csr, "{name} via {ts}");
            assert_eq!(b2sr.nnz() as usize, csr.nnz(), "{name} via {ts}");
        }
    }
}

#[test]
fn compression_statistics_are_consistent_with_conversion() {
    assert_eq!(TILE_DIMS, TileSize::ALL.map(TileSize::dim));
    let adj = generators::banded(1024, 4, 0.8, 9);
    // 6 × 11 with a stored 0.0 at (5, 9): alone in its tile at B2SR-4 and
    // -8, beside a 1.0 at -16 and -32.  It discovers its tile but sets no bit.
    let explicit_zero = Csr::from_raw(
        6,
        11,
        vec![0, 1, 1, 1, 1, 1, 3],
        vec![0, 9, 10],
        vec![1.0, 0.0, 1.0],
    )
    .unwrap();
    for csr in [&adj, &explicit_zero] {
        for ts in TileSize::ALL {
            let dim = ts.dim();
            let s = stats::stats_for(csr, dim);
            let b = B2srMatrix::from_csr(csr, ts);
            assert_eq!(s.n_tiles, b.n_tiles(), "{ts}");
            assert_eq!(
                s.n_tile_slots,
                csr.nrows().div_ceil(dim) * csr.ncols().div_ceil(dim)
            );
            assert_eq!(s.b2sr_bytes, b.storage_bytes(), "{ts}");
            let occupancy = b.nnz() as f64 / (b.n_tiles() * dim * dim) as f64;
            assert_eq!(s.nonzero_occupancy.to_bits(), occupancy.to_bits(), "{ts}");
        }
    }
    // The paper's headline: banded matrices compress well under B2SR.
    let census = stats::stats_all_sizes(&adj);
    assert!(stats::optimal(&census).unwrap().compression_ratio < 0.7);
}

#[test]
fn sampling_profile_recommendation_actually_compresses() {
    for (name, adj) in [
        ("banded", generators::banded(2048, 3, 0.7, 11)),
        ("blocks", generators::block_community(16, 64, 0.3, 1e-5, 12)),
    ] {
        let profile = sample_profile(&adj, 256, 13);
        assert!(
            profile.worth_converting(),
            "{name} should be worth converting"
        );
        let rec = profile.recommended_tile_dim();
        let actual = stats::stats_for(&adj, rec);
        assert!(
            actual.compression_ratio < 1.0,
            "{name}: recommended B2SR-{rec} does not compress"
        );
    }
}

#[test]
fn classifier_assigns_expected_categories_to_generators() {
    assert_eq!(
        classify(&generators::banded(512, 3, 0.8, 1)),
        PatternCategory::Diagonal
    );
    assert_eq!(
        classify(&generators::stripes(1024, &[97, 211], 0.9, 2)),
        PatternCategory::Stripe
    );
    assert_eq!(
        classify(&generators::erdos_renyi(512, 0.01, true, 3)),
        PatternCategory::Dot
    );
}

#[test]
fn grb_ops_compose_into_custom_algorithms() {
    // A user-level composition: two-hop reachability via two builder calls.
    let ctx = Context::default();
    let adj = generators::erdos_renyi(200, 0.03, true, 21);
    let bit = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let float = Matrix::from_csr(&adj, Backend::FloatCsr);
    let start = Vector::indicator(200, &[0]);

    let two_hop = |a: &Matrix| {
        let hop1 = Op::vxm(&start, a).semiring(Semiring::Boolean).run(&ctx);
        Op::vxm(&hop1, a).semiring(Semiring::Boolean).run(&ctx)
    };
    let hop2_bit = two_hop(&bit);
    let hop2_float = two_hop(&float);

    for (b, f) in hop2_bit.as_slice().iter().zip(hop2_float.as_slice()) {
        assert_eq!(*b != 0.0, *f != 0.0);
    }
    assert!(Op::reduce(&hop2_bit).run(&ctx) > 0.0);

    // The transpose-descriptor formulation of the same traversal agrees.
    let hop1 = Op::mxv(&bit, &start)
        .semiring(Semiring::Boolean)
        .desc(Descriptor::with_transpose())
        .run(&ctx);
    let hop2 = Op::mxv(&bit, &hop1)
        .semiring(Semiring::Boolean)
        .desc(Descriptor::with_transpose())
        .run(&ctx);
    assert_eq!(hop2.as_slice(), hop2_bit.as_slice());

    // Deferred expressions are inert until evaluated, and chains collapse:
    // select(two-hop reachability) equals the Boolean product itself.
    let reachable = |v: f32| v != 0.0;
    let chained = Op::mxv(&bit, &hop1)
        .semiring(Semiring::Boolean)
        .desc(Descriptor::with_transpose())
        .select(&reachable)
        .run(&ctx);
    assert_eq!(chained.as_slice(), hop2_bit.as_slice());
}

#[test]
fn storage_backend_choice_changes_bytes_not_results() {
    let adj = corpus::named_matrix("ash292").unwrap();
    let bit = Matrix::from_csr(&adj, Backend::Bit(TileSize::S8));
    let float = Matrix::from_csr(&adj, Backend::FloatCsr);
    assert!(
        bit.storage_bytes() < float.storage_bytes(),
        "B2SR-8 must compress ash292"
    );
    assert_eq!(
        algorithms::bfs(&bit, 0).levels,
        algorithms::bfs(&float, 0).levels
    );
}
