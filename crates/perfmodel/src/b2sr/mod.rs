//! The paper's B2SR storage census and tile-size sampling profile, computed
//! from a CSR matrix without converting it.
//!
//! * [`stats`] — storage accounting: compression ratio, non-empty-tile ratio,
//!   nonzero occupancy (Figures 3 and 5, Table I), counted from the
//!   [`B2srLayout`](crate::B2srLayout) a conversion would produce;
//! * [`sample`] — the sampling-profile tile-size selector (Algorithm 1).
//!
//! Both speak tile dimensions as `usize`, [`TILE_DIMS`] being the four
//! variants of Table I.  `Backend::Auto` in `bitgblas-core` reads neither:
//! it counts the tiles at each width itself.

pub mod sample;
pub mod stats;

pub use sample::{sample_profile, SamplingProfile};
pub use stats::{B2srStats, PackingRow};

/// The tile dimensions of B2SR-4, -8, -16 and -32, smallest first.
pub const TILE_DIMS: [usize; 4] = [4, 8, 16, 32];
