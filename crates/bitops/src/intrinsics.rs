//! Software forms of the two CUDA bit intrinsics the tile packer in
//! [`crate::pack`] is built from.  (`__popc` is [`crate::BitWord::popcount`],
//! `count_ones`: one instruction where the build target has one, a software
//! bit-twiddle on baseline x86-64, which has no `popcnt` — the row-word
//! Triangle Counting kernel in `bitgblas-core` is also built with `popcnt`
//! and runs that build where the host has the instruction.  The kernels have
//! no use for software shuffles or warp reductions — a tile-row of the
//! matrix stands where a warp does.)

/// Bit reversal of a 32-bit word — software `__brev()`.
///
/// Used during column-major packing: `brev(ballot(pred))` rotates a bit-column
/// 90° anticlockwise into a bit-row (§IV of the paper).
#[inline(always)]
pub fn brev_u32(x: u32) -> u32 {
    x.reverse_bits()
}

/// Warp vote — software `__ballot_sync(FULL_MASK, pred)` — over an iterator
/// of per-lane predicates (e.g. `f[i] > 0.0` while packing a float tile): bit
/// `l` of the result is set iff lane `l`'s predicate was true.  This is
/// exactly the "transpose a bit-column into a bit-row (90° clockwise)"
/// operation described in the paper.
///
/// Lanes beyond the iterator's length are treated as inactive (predicate
/// false), which matches a partially-populated warp at a matrix edge.
#[inline]
pub fn ballot_from<I: IntoIterator<Item = bool>>(preds: I) -> u32 {
    let mut word = 0u32;
    for (lane, p) in preds.into_iter().enumerate() {
        debug_assert!(lane < 32, "a warp has at most 32 lanes");
        if p {
            word |= 1u32 << lane;
        }
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brev_reverses() {
        assert_eq!(brev_u32(0x0000_0001), 0x8000_0000);
        assert_eq!(brev_u32(brev_u32(0xDEAD_BEEF)), 0xDEAD_BEEF);
    }

    #[test]
    fn ballot_collects_predicates() {
        assert_eq!(ballot_from([true, false, true, true]), 0b1101);
        assert_eq!(ballot_from([true; 32]), u32::MAX);
        assert_eq!(ballot_from([]), 0);
    }
}
