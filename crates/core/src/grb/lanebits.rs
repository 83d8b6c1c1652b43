//! Bit-native `n × k` Boolean lanes: the representation a batched Boolean
//! traversal keeps **between** operations.
//!
//! The paper's BFS (§V) holds the frontier and the visited vector binarized
//! from one iteration to the next and applies `¬visited` with a bitwise
//! AND-NOT at the store.  [`LaneBits`] is that idea for `k` concurrent
//! traversals (Then et al., *The More the Merrier*, VLDB 2014): one machine
//! word per vertex, one bit per traversal, so a round is
//!
//! ```text
//! next     = (Aᵀ ⊕.⊗ frontier) & !visited      // Op::mxm_lanes(..).and_not(..)
//! visited |= next                               // LaneBits::or_assign
//! ```
//!
//! and nothing is converted to or from `f32` on the way (the [`MultiVec`]
//! round trip exists for seeding and for reading a result out).
//!
//! # Layout
//!
//! [`lane_words_per_node`]`(k)` `u64` words per node, node-major: bit
//! `l % 64` of word `i * wpn + l / 64` is lane `l` of node `i` — the operand
//! layout of `kernels::bmm::{csr_lanes_pull, csr_lanes_push}`.  Bits past
//! lane `k - 1` in a node's last word are never set.

use bitgblas_bitops::BitWord;

use crate::delta::DeltaOverlay;

use super::backend::BitB2sr;
use super::descriptor::Mask;
use super::error::GrbError;
use super::expr::shape::FrontierSize;
use super::multivec::{lane_words_per_node, MultiVec};
use super::op::Context;
use super::plan::words::WordOps;
use super::workspace::Workspace;

/// `n × k` Boolean lanes packed into per-node `u64` words.
///
/// See the [module docs](self) for the layout.
///
/// ```
/// use bitgblas_core::grb::{LaneBits, MultiVec};
///
/// let mut seen = LaneBits::from_sources(4, &[1, 3]);
/// assert!(seen.get(1, 0) && seen.get(3, 1) && !seen.get(1, 1));
/// let mut next = LaneBits::zeros(4, 2);
/// next.set(2, 0);
/// seen.or_assign(&next);
/// assert_eq!(seen.ones().collect::<Vec<_>>(), vec![(1, 0), (2, 0), (3, 1)]);
/// assert_eq!(LaneBits::from_multivec(&seen.to_multivec()), seen);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneBits {
    words: Vec<u64>,
    n: usize,
    k: usize,
}

impl LaneBits {
    /// `n × k` lanes, none set.
    ///
    /// # Panics
    /// Panics when `k` is zero.
    pub fn zeros(n: usize, k: usize) -> Self {
        assert!(k > 0, "lane bits need at least one lane");
        Self::from_words(vec![0; n * lane_words_per_node(k)], n, k)
    }

    /// The frontier of `sources.len()` traversals: lane `l` holds exactly
    /// `sources[l]`.
    ///
    /// # Panics
    /// Panics when `sources` is empty or any source is out of range.
    pub fn from_sources(n: usize, sources: &[usize]) -> Self {
        let mut bits = Self::zeros(n, sources.len());
        for (l, &s) in sources.iter().enumerate() {
            assert!(s < n, "source vertex {s} out of range (n = {n})");
            bits.set(s, l);
        }
        bits
    }

    /// The non-zero pattern of a multi-vector.
    pub fn from_multivec(mv: &MultiVec) -> Self {
        let mut words = Vec::new();
        pack_lane_words_from(mv.as_slice(), mv.n_lanes(), |v| v != 0.0, &mut words);
        Self::from_words(words, mv.n_nodes(), mv.n_lanes())
    }

    /// The `1.0` / `0.0` indicator of the set lanes.
    pub fn to_multivec(&self) -> MultiVec {
        let mut mv = MultiVec::zeros(self.n, self.k);
        expand_lane_words_into(&self.words, self.k, None, mv.as_mut_slice());
        mv
    }

    /// Wrap words already in the layout (a kernel's output); the caller
    /// guarantees the length and the clear tail bits.
    pub(crate) fn from_words(words: Vec<u64>, n: usize, k: usize) -> Self {
        debug_assert_eq!(words.len(), n * lane_words_per_node(k));
        LaneBits { words, n, k }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of lanes per node.
    pub fn n_lanes(&self) -> usize {
        self.k
    }

    /// The packed words, node-major.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Is lane `l` of node `i` set?
    pub fn get(&self, i: usize, l: usize) -> bool {
        assert!(l < self.k, "lane {l} out of range (k = {})", self.k);
        self.words[i * lane_words_per_node(self.k) + l / 64] >> (l % 64) & 1 != 0
    }

    /// Set lane `l` of node `i`.
    pub fn set(&mut self, i: usize, l: usize) {
        assert!(l < self.k, "lane {l} out of range (k = {})", self.k);
        self.words[i * lane_words_per_node(self.k) + l / 64] |= 1u64 << (l % 64);
    }

    /// `self |= other`, word by word.
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn or_assign(&mut self, other: &LaneBits) {
        assert_eq!(
            (self.n, self.k),
            (other.n, other.k),
            "lane bits must have the same shape"
        );
        crate::kernels::simd::or_into(&mut self.words, &other.words);
    }

    /// The set `(node, lane)` pairs, nodes ascending and lanes ascending
    /// within a node.  Costs the words plus the set bits, not `n · k`.
    pub fn ones(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let wpn = lane_words_per_node(self.k);
        self.words.iter().enumerate().flat_map(move |(at, &word)| {
            let (i, base) = (at / wpn, at % wpn * 64);
            word.iter_ones().map(move |b| (i, base + b as usize))
        })
    }

    /// Return the word buffer to the context's pool, for the next product's
    /// output.
    pub fn recycle(self, ctx: &Context) {
        ctx.workspace().give(self.words);
    }
}

impl WordOps for LaneBits {
    fn shape(&self) -> (usize, usize) {
        (self.n, self.k)
    }

    fn check_excluded(
        &self,
        excluded: &Self,
        produced: usize,
        _op: &'static str,
    ) -> Result<(), GrbError> {
        let what = "excluded lanes must have one row per output node";
        GrbError::check_len(what, produced, excluded.n)?;
        let what = "excluded lanes must have the operand's lane count";
        GrbError::check_len(what, self.k, excluded.k)
    }

    /// Counts the set lanes of the nodes it lists as `entries`; what it
    /// returns past the limit is a prefix, enough to know the product pulls.
    fn frontier_into(&self, stop_past_nodes: usize, out: &mut Vec<usize>) -> FrontierSize {
        out.clear();
        let mut entries = 0usize;
        for (i, words) in self
            .words
            .chunks_exact(lane_words_per_node(self.k))
            .enumerate()
        {
            let active: u32 = words.iter().map(|w| w.count_ones()).sum();
            if active > 0 {
                out.push(i);
                entries += active as usize;
                if out.len() > stop_past_nodes {
                    break;
                }
            }
        }
        FrontierSize {
            nodes: out.len(),
            entries,
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
        let (xw, excluded) = (&self.words[..], excluded.map(LaneBits::as_words));
        let mut yw = ws.take_empty::<u64>();
        bit.lane_product(xw, self.k, frontier, excluded, transpose, &mut yw);
        if let Some(overlay) = overlay {
            overlay.refold_dirty_words(bit, self, excluded, transpose, ws, &mut yw);
        }
        LaneBits::from_words(yw, produced, self.k)
    }
}

/// Pack any flat node-major `n × k` slice into per-node lane words, setting
/// bit `l` where `active(value)` holds — the `f32` → bits side of an op
/// boundary ([`LaneBits::from_multivec`], and the built-in bit backend's
/// `f32` Boolean products).  Node-parallel.
pub(crate) fn pack_lane_words_from<T: Copy + Sync, F: Fn(T) -> bool + Sync>(
    flat: &[T],
    k: usize,
    active: F,
    out: &mut Vec<u64>,
) {
    use rayon::prelude::*;
    let wpn = lane_words_per_node(k);
    let n = flat.len() / k;
    out.clear();
    out.resize(n * wpn, 0u64);
    out.par_chunks_mut(wpn).enumerate().for_each(|(i, words)| {
        for (l, &v) in flat[i * k..(i + 1) * k].iter().enumerate() {
            if active(v) {
                words[l / 64] |= 1u64 << (l % 64);
            }
        }
    });
}

/// Expand per-node lane words into a flat node-major `f32` indicator, with
/// an optional flat per-lane mask filter — the bits → `f32` side of an op
/// boundary (`out` must hold `n · k` zeros).
pub(crate) fn expand_lane_words_into(yw: &[u64], k: usize, mask: Option<&Mask>, out: &mut [f32]) {
    use rayon::prelude::*;
    let wpn = lane_words_per_node(k);
    out.par_chunks_mut(k).enumerate().for_each(|(i, lanes)| {
        let words = &yw[i * wpn..(i + 1) * wpn];
        if words.iter().all(|&w| w == 0) {
            return;
        }
        for (l, slot) in lanes.iter_mut().enumerate() {
            if words[l / 64] >> (l % 64) & 1 != 0 && mask.is_none_or(|m| m.allows(i * k + l)) {
                *slot = 1.0;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multivec_round_trips_at_every_word_boundary() {
        for k in [1usize, 3, 8, 64, 65, 130] {
            let n = 7;
            let mut mv = MultiVec::zeros(n, k);
            let mut expected = Vec::new();
            for i in 0..n {
                for l in 0..k {
                    if (i * 31 + l * 7) % 3 == 0 {
                        mv.set(i, l, 2.5);
                        expected.push((i, l));
                    }
                }
            }
            let bits = LaneBits::from_multivec(&mv);
            assert_eq!(bits.as_words().len(), n * lane_words_per_node(k));
            assert_eq!(bits.ones().collect::<Vec<_>>(), expected, "k = {k}");
            assert!(expected.iter().all(|&(i, l)| bits.get(i, l)));
            // Back out as the indicator of the pattern.
            let back = bits.to_multivec();
            for (got, want) in back.as_slice().iter().zip(mv.as_slice()) {
                assert_eq!(*got, if *want != 0.0 { 1.0 } else { 0.0 }, "k = {k}");
            }
            assert_eq!(LaneBits::from_multivec(&back), bits);
        }
    }

    #[test]
    fn sources_or_and_the_frontier_scan() {
        let mut seen = LaneBits::from_sources(6, &[4, 1, 4]);
        assert_eq!(
            seen.ones().collect::<Vec<_>>(),
            vec![(1, 1), (4, 0), (4, 2)]
        );
        assert_eq!(
            seen,
            LaneBits::from_multivec(&MultiVec::from_sources(6, &[4, 1, 4]))
        );
        let mut next = LaneBits::zeros(6, 3);
        next.set(0, 2);
        next.set(4, 0);
        seen.or_assign(&next);
        assert_eq!(seen.ones().count(), 4);
        // The scan replaces whatever the pooled buffer held.
        let mut list = vec![99, 98];
        let size = seen.frontier_into(usize::MAX, &mut list);
        assert_eq!(list, vec![0, 1, 4]);
        assert_eq!((size.nodes, size.entries), (3, 4));
        // Past the limit it gives up with a prefix.
        let size = seen.frontier_into(1, &mut list);
        assert_eq!((list.as_slice(), size.nodes), (&[0, 1][..], 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_is_rejected() {
        let _ = LaneBits::from_sources(4, &[4]);
    }

    #[test]
    #[should_panic(expected = "same shape")]
    fn or_assign_rejects_a_shape_mismatch() {
        LaneBits::zeros(4, 2).or_assign(&LaneBits::zeros(4, 3));
    }
}
