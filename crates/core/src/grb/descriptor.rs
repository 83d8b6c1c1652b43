//! Masks and descriptors for the GrB-style operations.

use super::direction::Direction;

/// A vector mask: controls which output positions an operation may write.
///
/// With `complement == false` (the GraphBLAS default) position `i` is written
/// only where `structure[i]` is `true`.  With `complement == true` the sense
/// is inverted — this is the form BFS uses (`¬visited`): only *unvisited*
/// vertices may receive a new frontier value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mask {
    structure: Vec<bool>,
    complement: bool,
}

impl Mask {
    /// A mask that allows writes where `structure[i]` is `true`.
    pub fn new(structure: Vec<bool>) -> Self {
        Mask {
            structure,
            complement: false,
        }
    }

    /// A mask that allows writes where `structure[i]` is `false`
    /// (complemented mask, e.g. "not yet visited").
    pub fn complemented(structure: Vec<bool>) -> Self {
        Mask {
            structure,
            complement: true,
        }
    }

    /// Length of the mask.
    pub fn len(&self) -> usize {
        self.structure.len()
    }

    /// True if the mask has zero length.
    pub fn is_empty(&self) -> bool {
        self.structure.is_empty()
    }

    /// Whether the mask is complemented.
    pub fn is_complemented(&self) -> bool {
        self.complement
    }

    /// The raw structure flags.
    pub fn structure(&self) -> &[bool] {
        &self.structure
    }

    /// Set structure flag `i` in place — e.g. marking a vertex visited in a
    /// complemented BFS mask without rebuilding (and reallocating) the mask
    /// every iteration.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, value: bool) {
        self.structure[i] = value;
    }

    /// Does the mask allow writing output position `i`?
    #[inline]
    pub fn allows(&self, i: usize) -> bool {
        let set = self.structure.get(i).copied().unwrap_or(false);
        set != self.complement
    }
}

/// Operation descriptor: the handful of GraphBLAS descriptor switches the
/// algorithms need.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Use the transpose of the matrix operand (`GrB_TRAN`).  The [`Matrix`]
    /// object caches its transpose on first use.
    pub transpose: bool,
    /// Traversal direction for `mxv`/`vxm`: push (sparse scatter), pull
    /// (dense sweep), or per-operation automatic selection (the default —
    /// see [`Direction`]).
    pub direction: Direction,
}

#[allow(unused_imports)]
use super::matrix::Matrix;

impl Descriptor {
    /// The default descriptor (no transpose, [`Direction::Auto`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Descriptor with the transpose flag set.
    pub fn with_transpose() -> Self {
        Descriptor {
            transpose: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_mask_allows_set_positions() {
        let m = Mask::new(vec![true, false, true]);
        assert!(m.allows(0));
        assert!(!m.allows(1));
        assert!(m.allows(2));
        assert!(!m.allows(7), "out of range defaults to not allowed");
        assert!(!m.is_complemented());
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn complemented_mask_inverts_sense() {
        let m = Mask::complemented(vec![true, false, true]);
        assert!(!m.allows(0));
        assert!(m.allows(1));
        assert!(!m.allows(2));
        assert!(
            m.allows(9),
            "out of range counts as unset, which a complemented mask allows"
        );
        assert!(m.is_complemented());
    }

    #[test]
    fn descriptor_defaults() {
        let d = Descriptor::new();
        assert!(!d.transpose);
        assert_eq!(d.direction, Direction::Auto);
        assert!(Descriptor::with_transpose().transpose);
    }

    #[test]
    fn mask_set_updates_in_place() {
        let mut m = Mask::complemented(vec![false, false]);
        assert!(m.allows(1));
        m.set(1, true);
        assert!(!m.allows(1));
    }
}
