//! The paper-table binaries feed the memory-traffic model a
//! `bitgblas_perfmodel::B2srLayout::from_csr` — the tile structure worked
//! out from the CSR, without converting.  It must be the engine converter's
//! tile structure, or the binaries' model column moves: the same tile
//! columns, in the same order, the same tiles per tile-row and the same
//! storage bytes, at every width, on a band, on an R-MAT and on a 6 × 11
//! shape whose explicit zero sits alone in its tile.

use bitgblas_core::{B2srMatrix, TileSize};
use bitgblas_datagen::generators;
use bitgblas_perfmodel::B2srLayout;
use bitgblas_sparse::Csr;

#[test]
fn perfmodel_layout_equals_the_converted_tile_structure() {
    // (0, 0), (2, 7), (4, 3) and an explicit zero at (5, 10).
    let ragged = Csr::from_raw(
        6,
        11,
        vec![0, 1, 1, 2, 2, 3, 4],
        vec![0, 7, 3, 10],
        vec![1.0, 1.0, 1.0, 0.0],
    )
    .unwrap();
    for csr in [
        generators::banded(2048, 32, 0.7, 5),
        generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized(),
        ragged,
    ] {
        for ts in TileSize::ALL {
            let b2sr = B2srMatrix::from_csr(&csr, ts);
            let (colind, rowptr) = match &b2sr {
                B2srMatrix::B4(m) | B2srMatrix::B8(m) => (m.tile_colind(), m.tile_rowptr()),
                B2srMatrix::B16(m) => (m.tile_colind(), m.tile_rowptr()),
                B2srMatrix::B32(m) => (m.tile_colind(), m.tile_rowptr()),
            };
            let what = format!("{ts} on {} × {}", csr.nrows(), csr.ncols());
            let layout = B2srLayout::from_csr(&csr, ts.dim());
            assert_eq!(layout.tile_colind(), colind, "{what}");
            assert_eq!(layout.n_tiles(), b2sr.n_tiles(), "{what}");
            assert_eq!(layout.tile_rowptr(), rowptr, "{what}: tiles per tile-row");
            assert_eq!(layout.storage_bytes(), b2sr.storage_bytes(), "{what}");
            assert_eq!(
                (layout.nrows(), layout.ncols(), layout.tile_dim()),
                (b2sr.nrows(), b2sr.ncols(), ts.dim()),
                "{what}"
            );
        }
    }
}
