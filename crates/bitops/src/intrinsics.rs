//! Software implementations of the CUDA bit intrinsics used by Bit-GraphBLAS.
//!
//! Each function documents the CUDA intrinsic it stands in for.  The functions
//! operate on plain integers (or small arrays standing for warp register
//! files), so they can be called directly from tight loops.

/// The full-warp participation mask, equivalent to CUDA's `0xFFFFFFFF` mask
/// argument of `__ballot_sync` / `__shfl_sync`.
pub const FULL_MASK: u32 = 0xFFFF_FFFF;

/// Population count of a 32-bit word — software `__popc()`.
///
/// Together with a bitwise AND this realizes the bit-dot-product at the heart
/// of both BMV and BMM:
///
/// ```
/// use bitgblas_bitops::popc_u32;
/// let a_row = 0b1011_0010u32;
/// let b_col = 0b1010_0110u32;
/// assert_eq!(popc_u32(a_row & b_col), 3);
/// ```
#[inline(always)]
pub fn popc_u32(x: u32) -> u32 {
    x.count_ones()
}

/// Population count of a 64-bit word — software `__popcll()`.
#[inline(always)]
pub fn popc_u64(x: u64) -> u32 {
    x.count_ones()
}

/// Bit reversal of a 32-bit word — software `__brev()`.
///
/// Used during column-major packing: `brev(ballot(pred))` rotates a bit-column
/// 90° anticlockwise into a bit-row (§IV of the paper).
#[inline(always)]
pub fn brev_u32(x: u32) -> u32 {
    x.reverse_bits()
}

/// Bit reversal of an 8-bit word, used by the 4×4 and 8×8 tile packers.
#[inline(always)]
pub fn brev_u8(x: u8) -> u8 {
    x.reverse_bits()
}

/// Bit reversal of a 16-bit word, used by the 16×16 tile packer.
#[inline(always)]
pub fn brev_u16(x: u16) -> u16 {
    x.reverse_bits()
}

/// Warp vote — software `__ballot_sync(FULL_MASK, pred)`.
///
/// `preds[l]` is the predicate evaluated by lane `l`; the result has bit `l`
/// set iff lane `l`'s predicate was true.  This is exactly the "transpose a
/// bit-column into a bit-row (90° clockwise)" operation described in the
/// paper.
///
/// Lanes beyond `preds.len()` are treated as inactive (predicate false), which
/// matches a partially-populated warp at a matrix edge.
#[inline]
pub fn ballot(preds: &[bool]) -> u32 {
    debug_assert!(preds.len() <= 32, "a warp has at most 32 lanes");
    let mut word = 0u32;
    for (lane, &p) in preds.iter().enumerate() {
        if p {
            word |= 1u32 << lane;
        }
    }
    word
}

/// Warp vote from an iterator of predicates, convenient when the predicate is
/// computed on the fly (e.g. `f[i] > 0.0` while packing a float tile).
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

/// Warp shuffle — software `__shfl_sync(FULL_MASK, value, src_lane)`.
///
/// `regs` is the per-lane register file (one value per lane); the call returns
/// the value held by `src_lane`.  In the BMM kernel this broadcasts bit-row
/// `k` of the B tile to every lane so each lane can accumulate its own output
/// bit-row.
#[inline(always)]
pub fn shfl<T: Copy>(regs: &[T], src_lane: usize) -> T {
    regs[src_lane % regs.len()]
}

/// Software `__shfl_down_sync`: returns the register of `lane + delta`, or the
/// lane's own value when the source would fall outside the warp.  Used by the
/// warp-level reduction helpers.
#[inline(always)]
pub fn shfl_down<T: Copy>(regs: &[T], lane: usize, delta: usize) -> T {
    let src = lane + delta;
    if src < regs.len() {
        regs[src]
    } else {
        regs[lane]
    }
}

/// Warp-level sum reduction implemented with `shfl_down`, mirroring the
/// classic butterfly reduction on GPUs.  Returns the sum of all lane values.
#[inline]
pub fn warp_reduce_sum(regs: &[u32]) -> u64 {
    // The software model can reduce directly, but we keep the butterfly shape
    // so the operation count matches the GPU implementation (log2(32) steps).
    let mut vals: Vec<u64> = regs.iter().map(|&v| v as u64).collect();
    let n = vals.len();
    let mut delta = 1;
    while delta < n {
        for lane in 0..n {
            let src = lane + delta;
            if src < n {
                vals[lane] += vals[src];
            }
        }
        delta <<= 1;
    }
    vals.first().copied().unwrap_or(0)
}

/// Warp-level minimum reduction over `f32` registers (used by the min-plus
/// semiring kernels, e.g. SSSP relaxation).
#[inline]
pub fn warp_reduce_min(regs: &[f32]) -> f32 {
    regs.iter().copied().fold(f32::INFINITY, f32::min)
}

/// Find-first-set (1-based like CUDA's `__ffs`): position of the least
/// significant set bit, 0 when no bit is set.
#[inline(always)]
pub fn ffs_u32(x: u32) -> u32 {
    if x == 0 {
        0
    } else {
        x.trailing_zeros() + 1
    }
}

/// Count leading zeros — software `__clz()`.
#[inline(always)]
pub fn clz_u32(x: u32) -> u32 {
    x.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popc_counts_bits() {
        assert_eq!(popc_u32(0), 0);
        assert_eq!(popc_u32(u32::MAX), 32);
        assert_eq!(popc_u32(0b1010_1010), 4);
        assert_eq!(popc_u64(u64::MAX), 64);
    }

    #[test]
    fn popc_and_is_dot_product() {
        // Bit-dot-product of two binary vectors packed into words.
        let a = 0b1101_0011u32;
        let b = 0b0101_0110u32;
        let expected: u32 = (0..8).map(|i| ((a >> i) & 1) * ((b >> i) & 1)).sum();
        assert_eq!(popc_u32(a & b), expected);
    }

    #[test]
    fn brev_reverses() {
        assert_eq!(brev_u32(0x0000_0001), 0x8000_0000);
        assert_eq!(brev_u32(brev_u32(0xDEAD_BEEF)), 0xDEAD_BEEF);
        assert_eq!(brev_u8(0b0000_0001), 0b1000_0000);
        assert_eq!(brev_u16(0x0001), 0x8000);
    }

    #[test]
    fn ballot_collects_predicates() {
        let preds = [true, false, true, true];
        assert_eq!(ballot(&preds), 0b1101);
        let all = [true; 32];
        assert_eq!(ballot(&all), u32::MAX);
        assert_eq!(ballot(&[]), 0);
    }

    #[test]
    fn ballot_from_iterator_matches_slice_form() {
        let preds = [true, true, false, false, true];
        assert_eq!(ballot(&preds), ballot_from(preds.iter().copied()));
    }

    #[test]
    fn shfl_broadcasts_lane_value() {
        let regs: Vec<u32> = (0..32).map(|i| i * 10).collect();
        assert_eq!(shfl(&regs, 0), 0);
        assert_eq!(shfl(&regs, 7), 70);
        assert_eq!(shfl(&regs, 31), 310);
        // Wraps like a masked modulo rather than UB for out-of-range lanes.
        assert_eq!(shfl(&regs, 32), 0);
    }

    #[test]
    fn shfl_down_shifts_within_warp() {
        let regs: Vec<u32> = (0..8).collect();
        assert_eq!(shfl_down(&regs, 0, 4), 4);
        assert_eq!(shfl_down(&regs, 6, 4), 6); // out of range -> own value
    }

    #[test]
    fn warp_reduce_sum_adds_all_lanes() {
        let regs: Vec<u32> = (1..=32).collect();
        assert_eq!(warp_reduce_sum(&regs), (1..=32u64).sum());
        assert_eq!(warp_reduce_sum(&[]), 0);
        assert_eq!(warp_reduce_sum(&[7]), 7);
    }

    #[test]
    fn warp_reduce_min_finds_minimum() {
        let regs = [3.5f32, 1.25, 9.0, 2.0];
        assert_eq!(warp_reduce_min(&regs), 1.25);
        assert_eq!(warp_reduce_min(&[]), f32::INFINITY);
    }

    #[test]
    fn ffs_and_clz() {
        assert_eq!(ffs_u32(0), 0);
        assert_eq!(ffs_u32(1), 1);
        assert_eq!(ffs_u32(0b1000), 4);
        assert_eq!(clz_u32(1), 31);
        assert_eq!(clz_u32(u32::MAX), 0);
    }
}
