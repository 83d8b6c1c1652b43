//! The paper-table binaries feed the memory-traffic model a
//! `bitgblas_perfmodel::B2srLayout::from_csr` — the tile structure worked
//! out from the CSR, without converting.  It must be the engine converter's
//! tile structure, or the binaries' model column moves: the same tile
//! columns, in the same order, at every width, on a band and on an R-MAT.

use bitgblas_core::{B2srMatrix, TileSize};
use bitgblas_datagen::generators;
use bitgblas_perfmodel::B2srLayout;

#[test]
fn perfmodel_layout_equals_the_converted_tile_structure() {
    for csr in [
        generators::banded(2048, 32, 0.7, 5),
        generators::rmat(11, 12, 0.57, 0.19, 0.19, 9).symmetrized(),
    ] {
        for ts in TileSize::ALL {
            let b2sr = B2srMatrix::from_csr(&csr, ts);
            let converted = match &b2sr {
                B2srMatrix::B4(m) | B2srMatrix::B8(m) => m.tile_colind(),
                B2srMatrix::B16(m) => m.tile_colind(),
                B2srMatrix::B32(m) => m.tile_colind(),
            };
            let layout = B2srLayout::from_csr(&csr, ts.dim());
            assert_eq!(layout.tile_colind(), converted, "{ts}");
            assert_eq!(
                (layout.nrows(), layout.ncols(), layout.tile_dim()),
                (b2sr.nrows(), b2sr.ncols(), ts.dim()),
                "{ts}"
            );
        }
    }
}
