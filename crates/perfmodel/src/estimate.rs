//! Bandwidth-bound time estimates derived from the traffic model.
//!
//! Sparse kernels on GPUs are memory-bound, so a first-order time estimate is
//! `bytes_loaded / effective_bandwidth`, with a small compute term for the
//! bit intrinsics scaled by the device's `bit_intrinsic_throughput` (Volta's
//! explicit warp synchronisation makes the bit kernels slightly slower per
//! instruction than Pascal — the effect the paper observes in §VI-E).  These
//! estimates are *not* a replacement for the measured wall-clock numbers of
//! the benchmark harness; they reproduce the architecture-dependent trends
//! (which device helps which kernel) that the CPU substrate cannot show.
//!
//! Like the traffic model, the B2SR estimates take a [`B2srLayout`] so they
//! can be computed for a *hypothetical* conversion, without converting.

use bitgblas_sparse::Csr;

use crate::device::DeviceProfile;
use crate::traffic::{b2sr_bmv_traffic, csr_spmv_traffic, B2srLayout, MemoryTraffic};

/// An analytic estimate for one kernel on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelEstimate {
    /// Modelled memory traffic.
    pub traffic: MemoryTraffic,
    /// Memory time in milliseconds (`bytes / bandwidth`).
    pub memory_time_ms: f64,
    /// Compute time in milliseconds (per-element op cost / SM throughput).
    pub compute_time_ms: f64,
    /// Total estimate: max of the two (perfect overlap assumption).
    pub total_time_ms: f64,
}

/// Seconds per elementary warp operation, calibrated so that the absolute
/// numbers land in the same millisecond range as the paper's tables; only
/// ratios between kernels/devices are meaningful.
const OP_TIME_NS: f64 = 0.5;

fn make_estimate(
    traffic: MemoryTraffic,
    ops: f64,
    profile: &DeviceProfile,
    is_bit: bool,
) -> KernelEstimate {
    let memory_time_ms = traffic.bytes_loaded as f64 / (profile.mem_bandwidth_gbps * 1e9) * 1e3;
    let throughput = profile.sm_count as f64
        * if is_bit {
            profile.bit_intrinsic_throughput
        } else {
            1.0
        };
    let compute_time_ms = ops * OP_TIME_NS * 1e-6 / throughput;
    let total_time_ms = memory_time_ms.max(compute_time_ms);
    KernelEstimate {
        traffic,
        memory_time_ms,
        compute_time_ms,
        total_time_ms,
    }
}

/// Estimate the time of one float CSR SpMV on `profile`.
pub fn estimate_csr_spmv(csr: &Csr, profile: &DeviceProfile) -> KernelEstimate {
    let traffic = csr_spmv_traffic(csr, profile);
    // One fused multiply-add per stored entry.
    make_estimate(traffic, csr.nnz() as f64, profile, false)
}

/// Estimate the time of one B2SR BMV with the given (real or hypothetical)
/// tile layout on `profile`.
pub fn estimate_b2sr_bmv(layout: &B2srLayout, profile: &DeviceProfile) -> KernelEstimate {
    let traffic = b2sr_bmv_traffic(layout, profile);
    // One AND+popcount per packed word of every non-empty tile.
    let ops = layout.n_tiles() as f64 * layout.tile_dim() as f64;
    make_estimate(traffic, ops, profile, true)
}

/// The modelled speedup of the B2SR BMV over the CSR SpMV baseline on one
/// device — the analytic counterpart of one point of Figures 6/7.
pub fn speedup_estimate(csr: &Csr, layout: &B2srLayout, profile: &DeviceProfile) -> f64 {
    let base = estimate_csr_spmv(csr, profile);
    let bit = estimate_b2sr_bmv(layout, profile);
    if bit.total_time_ms == 0.0 {
        f64::INFINITY
    } else {
        base.total_time_ms / bit.total_time_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{pascal_gtx1080, volta_titanv};
    use bitgblas_sparse::Coo;

    fn banded(n: usize, bw: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(bw)..(r + bw + 1).min(n) {
                coo.push_edge(r, c).unwrap();
            }
        }
        coo.to_binary_csr()
    }

    #[test]
    fn estimates_are_positive_and_consistent() {
        let a = banded(2048, 3);
        let l = B2srLayout::from_csr(&a, 8);
        for profile in [pascal_gtx1080(), volta_titanv()] {
            let base = estimate_csr_spmv(&a, &profile);
            let bit = estimate_b2sr_bmv(&l, &profile);
            assert!(base.total_time_ms > 0.0);
            assert!(bit.total_time_ms > 0.0);
            assert!(base.total_time_ms >= base.memory_time_ms.max(base.compute_time_ms) - 1e-12);
        }
    }

    #[test]
    fn bit_kernel_is_modelled_faster_on_compressible_matrices() {
        let a = banded(4096, 3);
        let l = B2srLayout::from_csr(&a, 8);
        for profile in [pascal_gtx1080(), volta_titanv()] {
            let s = speedup_estimate(&a, &l, &profile);
            assert!(s > 1.0, "{}: modelled speedup {s}", profile.name);
        }
    }

    #[test]
    fn volta_narrows_the_modelled_gap() {
        // The paper observes smaller B2SR speedups on Volta because the
        // baseline benefits from the higher bandwidth while the bit kernels
        // pay for explicit warp synchronisation.  The model reproduces the
        // direction of that effect.
        let a = banded(4096, 3);
        let l = B2srLayout::from_csr(&a, 8);
        let s_pascal = speedup_estimate(&a, &l, &pascal_gtx1080());
        let s_volta = speedup_estimate(&a, &l, &volta_titanv());
        assert!(
            s_volta <= s_pascal * 1.05,
            "volta speedup {s_volta} should not exceed pascal {s_pascal}"
        );
    }

    #[test]
    fn baseline_absolute_time_drops_on_volta() {
        let a = banded(4096, 3);
        let t_pascal = estimate_csr_spmv(&a, &pascal_gtx1080()).total_time_ms;
        let t_volta = estimate_csr_spmv(&a, &volta_titanv()).total_time_ms;
        assert!(
            t_volta < t_pascal,
            "higher bandwidth must lower the baseline estimate"
        );
    }
}
