//! Bit-native Boolean vectors: the representation a single Boolean
//! traversal keeps **between** operations.
//!
//! The paper's BFS (§V) holds the frontier and the visited vector binarized
//! from one iteration to the next and applies `¬visited` with a bitwise
//! AND-NOT at the store.  [`NodeBits`] is that vector — one bit per vertex —
//! and a round of `bfs` over it is
//!
//! ```text
//! next     = (frontier ⊕.⊗ A) & !visited      // Op::vxm_bits(..).and_not(..)
//! visited |= next                              // NodeBits::or_assign
//! ```
//!
//! with no `f32` anywhere.  It is the single-vector sibling of
//! [`LaneBits`](super::LaneBits) (one *word* per vertex, one bit per
//! traversal): a one-lane batch is a vector, and in bits it is this one.
//!
//! # Layout
//!
//! `n.div_ceil(64)` `u64` words, bit `i % 64` of word `i / 64` is vertex `i`
//! — independent of the matrix's tile width, like `LaneBits`.  A tiled
//! matrix's kernels read and write these words in place, `dim` bits at a
//! time: tile `t`'s segment is the field at bit `t · dim` (`dim` divides
//! 64).  Its pull reads each operand and suppressed field where it lies and
//! ORs each tile-row's result into its output word
//! (`kernels::tile_bits_pull`); its push ORs each tile straight into the
//! word of its tile-column (`kernels::tile_bits_push`).  Neither re-lays
//! anything.
//! Bits past vertex `n - 1` in the last word are never set.

use bitgblas_bitops::BitWord;

use crate::delta::DeltaOverlay;

use super::backend::BitB2sr;
use super::error::GrbError;
use super::expr::shape::FrontierSize;
use super::op::Context;
use super::plan::words::WordOps;
use super::workspace::Workspace;

/// `n` Boolean entries packed into `u64` words.
///
/// See the [module docs](self) for the layout.
///
/// ```
/// use bitgblas_core::grb::NodeBits;
///
/// let mut seen = NodeBits::from_indices(70, &[1, 69]);
/// assert!(seen.get(1) && seen.get(69) && !seen.get(2));
/// let mut next = NodeBits::zeros(70);
/// next.set(64);
/// seen.or_assign(&next);
/// assert_eq!(seen.ones().collect::<Vec<_>>(), vec![1, 64, 69]);
/// assert_eq!(seen.count_ones(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeBits {
    words: Vec<u64>,
    n: usize,
}

impl NodeBits {
    /// `n` entries, none set.
    pub fn zeros(n: usize) -> Self {
        Self::from_words(vec![0; n.div_ceil(64)], n)
    }

    /// `n` entries with exactly `indices` set (duplicates are fine).
    ///
    /// # Panics
    /// Panics when an index is out of range.
    pub fn from_indices(n: usize, indices: &[usize]) -> Self {
        let mut bits = Self::zeros(n);
        for &i in indices {
            bits.set(i);
        }
        bits
    }

    /// Wrap words already in the layout (a product's output); the caller
    /// guarantees the length and the clear tail bits.
    pub(crate) fn from_words(words: Vec<u64>, n: usize) -> Self {
        debug_assert_eq!(words.len(), n.div_ceil(64));
        NodeBits { words, n }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The packed words.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Is entry `i` set?
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.n, "index {i} out of range (n = {})", self.n);
        self.words[i / 64] >> (i % 64) & 1 != 0
    }

    /// Set entry `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.n, "index {i} out of range (n = {})", self.n);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// `self |= other`, word by word.
    ///
    /// # Panics
    /// Panics when the lengths differ.
    pub fn or_assign(&mut self, other: &NodeBits) {
        assert_eq!(self.n, other.n, "node bits must have the same length");
        crate::kernels::simd::or_into(&mut self.words, &other.words);
    }

    /// The set indices, ascending.  Costs the words plus the set bits, not
    /// `n`.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(at, &word)| word.iter_ones().map(move |b| at * 64 + b as usize))
    }

    /// How many entries are set.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Return the word buffer to the context's pool, for the next product's
    /// output.
    pub fn recycle(self, ctx: &Context) {
        ctx.workspace().give(self.words);
    }
}

impl WordOps for NodeBits {
    fn shape(&self) -> (usize, usize) {
        (self.n, 1)
    }

    fn check_excluded(
        &self,
        excluded: &Self,
        produced: usize,
        op: &'static str,
    ) -> Result<(), GrbError> {
        if excluded.n == produced {
            return Ok(());
        }
        Err(GrbError::DimensionMismatch {
            op,
            expected: produced,
            got: excluded.n,
        })
    }

    /// The push frontier is the set bits, read off the words in
    /// `O(n / 64 + f)`; past the limit it is a prefix, enough to know the
    /// product pulls.
    fn frontier_into(
        &self,
        rows: &[usize],
        stop_past_nodes: usize,
        out: &mut Vec<usize>,
    ) -> FrontierSize {
        out.clear();
        // One past the limit, as the `f32` scans count.
        out.extend(self.ones().take(stop_past_nodes.saturating_add(1)));
        FrontierSize {
            nodes: out.len(),
            entries: out.len(),
            edges: out.iter().map(|&i| rows[i + 1] - rows[i]).sum(),
        }
    }

    fn product(
        &self,
        bit: &BitB2sr,
        overlay: Option<&DeltaOverlay>,
        frontier: Option<&[usize]>,
        excluded: Option<&Self>,
        transpose: bool,
        produced: usize,
        ws: &Workspace,
    ) -> Self {
        let (xw, excluded) = (&self.words[..], excluded.map(NodeBits::as_words));
        let mut yw = ws.take_empty::<u64>();
        bit.bits_product(xw, frontier, excluded, transpose, ws, &mut yw);
        if let Some(overlay) = overlay {
            overlay.refold_dirty_bits(bit, xw, excluded, transpose, ws, &mut yw);
        }
        NodeBits::from_words(yw, produced)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_round_trip_at_every_word_boundary() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let want: Vec<usize> = (0..n).filter(|i| i % 3 == 0 || i + 1 == n).collect();
            let bits = NodeBits::from_indices(n, &want);
            assert_eq!((bits.len(), bits.is_empty()), (n, n == 0));
            assert_eq!(bits.as_words().len(), n.div_ceil(64));
            assert_eq!(bits.ones().collect::<Vec<_>>(), want, "n = {n}");
            assert_eq!(bits.count_ones(), want.len());
            assert!((0..n).all(|i| bits.get(i) == want.contains(&i)));
        }
    }

    #[test]
    fn or_assign_and_the_frontier_scan() {
        let mut seen = NodeBits::from_indices(200, &[4, 4, 199]);
        let mut next = NodeBits::zeros(200);
        next.set(64);
        next.set(4);
        seen.or_assign(&next);
        assert_eq!(seen.ones().collect::<Vec<_>>(), vec![4, 64, 199]);
        // The scan replaces whatever the pooled buffer held, and reads each
        // listed node's degree off the row pointer (node i has degree i + 1).
        let rows: Vec<usize> = (0..=200).map(|i| i * (i + 1) / 2).collect();
        let mut list = vec![99, 98];
        let size = seen.frontier_into(&rows, usize::MAX, &mut list);
        assert_eq!(list, vec![4, 64, 199]);
        assert_eq!((size.nodes, size.entries, size.edges), (3, 3, 5 + 65 + 200));
        // Past the limit it gives up with a prefix.
        let size = seen.frontier_into(&rows, 1, &mut list);
        assert_eq!((list.as_slice(), size.nodes), (&[4, 64][..], 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_is_rejected() {
        let _ = NodeBits::from_indices(4, &[4]);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn or_assign_rejects_a_length_mismatch() {
        NodeBits::zeros(4).or_assign(&NodeBits::zeros(5));
    }
}
