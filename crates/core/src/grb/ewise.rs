//! Masked assignment.
//!
//! User-facing element-wise operations go through the lazy chain builders
//! of [`Op`](super::Op) (`Op::ewise_add(&a, &b).apply(&f).run(&ctx)`), which
//! collapse whole chains into one sweep in the planner; what is left here
//! is the one element-wise update that is not a chain stage.

use super::descriptor::Mask;
use super::vector::Vector;

/// Masked assignment: copy `src[i]` into `dst[i]` wherever the mask allows
/// it, leaving the other positions untouched (GraphBLAS `assign` with a
/// mask and no replace).
pub fn assign_masked(dst: &mut Vector, src: &Vector, mask: &Mask) {
    assert_eq!(dst.len(), src.len(), "assign_masked requires equal lengths");
    for i in 0..dst.len() {
        if mask.allows(i) {
            dst.set(i, src.get(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_masked_only_touches_allowed_positions() {
        let mut dst = Vector::from_vec(vec![0.0; 4]);
        let src = Vector::from_vec(vec![1.0, 2.0, 3.0, 4.0]);
        let mask = Mask::new(vec![true, false, true, false]);
        assign_masked(&mut dst, &src, &mask);
        assert_eq!(dst.as_slice(), &[1.0, 0.0, 3.0, 0.0]);

        let complemented = Mask::complemented(vec![true, false, true, false]);
        assign_masked(&mut dst, &src, &complemented);
        assert_eq!(dst.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
