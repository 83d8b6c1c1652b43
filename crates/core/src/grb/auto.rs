//! [`Backend::Auto`]: the tile gate ([`MIN_TILE_FILL`], scaled to the
//! width), counted at every width — the paper's per-matrix tile size
//! (Figure 5).  The tiles are counted widest first with the converter's
//! discover step, and the matrix resolves to `Bit(ts)` at the first width
//! whose tiles fill; where none does, to `Bit(S8)` without tiles (every
//! width runs the same CSR kernels then).  B2SR-4 is never counted: its
//! gate is B2SR-8's 4 bits per tile, and a matrix has at least as many 4 × 4
//! tiles as 8 × 8 ones.  Auto never resolves to [`Backend::FloatCsr`]: a
//! bit matrix without tiles ran BFS 3–18× faster than it on every graph
//! probed, and lost only Triangle Counting on graphs without hubs or tiles.
//!
//! [`MIN_TILE_FILL`]: super::backend::MIN_TILE_FILL

use bitgblas_sparse::Csr;

use crate::b2sr::TileSize;

use super::backend::gate_count;
use super::matrix::Backend;
use super::op::Context;

/// The record of one automatic backend decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoDecision {
    /// The tiles counted at each width, widest first, down to the first
    /// that fills or to B2SR-8; a width that does not fill stops counting
    /// once its tiles are too many, so its count is a lower bound.
    pub tiles: Vec<(TileSize, usize)>,
    /// Whether the chosen width's tiles fill: false only where none does.
    pub tiled: bool,
    /// The chosen backend: always a [`Backend::Bit`].
    pub chosen: Backend,
}

/// Decide [`Backend::Auto`] for `csr`'s stored entries.  The context is not
/// read; the parameter is kept so existing callers compile.
pub fn auto_decision(csr: &Csr, _ctx: &Context) -> AutoDecision {
    decide(csr)
}

/// [`auto_decision`], as [`BitB2sr`](super::BitB2sr) builds a
/// `Backend::Auto` matrix.
pub(crate) fn decide(csr: &Csr) -> AutoDecision {
    let mut tiles = Vec::with_capacity(3);
    for ts in [TileSize::S32, TileSize::S16, TileSize::S8] {
        let (n_tiles, tiled) = gate_count(csr, ts.dim());
        tiles.push((ts, n_tiles));
        if tiled || ts == TileSize::S8 {
            let chosen = Backend::Bit(ts);
            return AutoDecision {
                tiles,
                tiled,
                chosen,
            };
        }
    }
    unreachable!("the loop returns at B2SR-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitgblas_datagen::generators;

    /// One nonzero every third row: every touched tile holds a bit or two.
    fn scatter() -> Csr {
        let mut coo = bitgblas_sparse::Coo::new(4096, 4096);
        for r in (0..4096usize).step_by(3) {
            coo.push_edge(r, (r * 7 + 13) % 4096).unwrap();
        }
        coo.to_binary_csr()
    }

    /// The oracle: the widest width whose counted tiles fill, else S8.
    fn widest_filled(csr: &Csr) -> (Backend, bool) {
        for ts in TileSize::ALL.into_iter().rev() {
            let n_tiles = crate::B2srMatrix::from_csr(csr, ts).n_tiles();
            if 8 * csr.nnz() >= 4 * n_tiles * ts.dim().max(8) {
                return (Backend::Bit(ts), true);
            }
        }
        (Backend::Bit(TileSize::S8), false)
    }

    #[test]
    fn decision_is_deterministic_and_never_auto() {
        for csr in [
            generators::banded(512, 3, 0.7, 1),
            generators::erdos_renyi(400, 0.01, true, 2),
            generators::block_community(8, 64, 0.4, 1e-5, 3),
            generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized(),
            scatter(),
        ] {
            let d1 = decide(&csr);
            assert_eq!(d1, auto_decision(&csr, &Context::default()));
            assert!(matches!(d1.chosen, Backend::Bit(_)), "{d1:?}");
            assert_eq!(d1.chosen, widest_filled(&csr).0, "{d1:?}");
            // Counted widest first, down to the choice or to B2SR-8.
            let widths: Vec<TileSize> = d1.tiles.iter().map(|&(ts, _)| ts).collect();
            let all = [TileSize::S32, TileSize::S16, TileSize::S8];
            assert_eq!(widths, all[..widths.len()]);
            assert_eq!(d1.tiled, widest_filled(&csr).1);
            // Exact where the tiles fill; past the gate where they do not.
            for &(ts, n_tiles) in &d1.tiles {
                let exact = crate::B2srMatrix::from_csr(&csr, ts).n_tiles();
                if d1.tiled && Backend::Bit(ts) == d1.chosen {
                    assert_eq!(n_tiles, exact, "{ts}");
                } else {
                    assert!(n_tiles <= exact, "{ts}");
                    assert!(8 * csr.nnz() < 4 * n_tiles * ts.dim().max(8), "{ts}");
                }
            }
            if d1.tiled {
                assert_eq!(Backend::Bit(*widths.last().unwrap()), d1.chosen);
            } else {
                assert_eq!(widths.len(), 3);
            }
            let built = crate::Matrix::from_csr(&csr, Backend::Auto);
            assert_eq!(built.resolved_backend(), d1.chosen);
            assert_eq!(built.b2sr().is_some(), widest_filled(&csr).1);
        }
    }

    #[test]
    fn banded_matrix_picks_the_widest_width_that_fills() {
        let band = generators::banded(2048, 3, 0.8, 7);
        let d = decide(&band);
        assert_eq!(widest_filled(&band), (d.chosen, true), "{d:?}");
    }

    #[test]
    fn block_dense_matrix_picks_a_large_bit_tile() {
        let d = decide(&generators::block_community(16, 64, 0.5, 1e-5, 9));
        match d.chosen {
            Backend::Bit(ts) => assert!(ts.dim() >= 16, "blocks chose {ts}, decision {d:?}"),
            other => panic!("block pattern should convert to B2SR, chose {other:?} ({d:?})"),
        }
    }

    /// Scatter and R-MAT fill their tiles at no width: an untiled `Bit(S8)`.
    #[test]
    fn sparse_scatter_resolves_to_an_untiled_bit_matrix() {
        for csr in [
            scatter(),
            generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized(),
        ] {
            let d = decide(&csr);
            assert_eq!(
                (d.chosen, d.tiled),
                (Backend::Bit(TileSize::S8), false),
                "{d:?}"
            );
            assert_eq!(d.tiles.len(), 3, "{d:?}");
            assert!(crate::Matrix::from_csr(&csr, Backend::Auto)
                .b2sr()
                .is_none());
        }
    }

    #[test]
    fn different_patterns_yield_different_tile_sizes() {
        let blocks = decide(&generators::block_community(16, 64, 0.5, 1e-5, 9)).chosen;
        let scatter = decide(&scatter()).chosen;
        assert_ne!(scatter, blocks, "scatter {scatter:?} vs blocks {blocks:?}");
    }
}
