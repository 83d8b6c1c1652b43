//! The reference kernel: how fast the host is running right now.
//!
//! Pinning and CPU time ([`crate::host`]) take the hypervisor's withheld
//! time out of the readings, but not what the host's other tenants do to
//! the code while it runs: a busy sibling hardware thread, a contended
//! last-level cache, a clock that boosts while the neighbours are idle.  On
//! the sizing host that moves everything the benchmark times by tens of
//! percent, and moves it together (the measurements are in `README.md`, "One
//! CPU, CPU time, reference speed").
//!
//! So a run times a fixed piece of work of its own — never the engine's
//! code, so no change to the engine can move it — in a burst before and
//! after every phase of every lap, and divides every sample of that stretch
//! by the stretch's *slowdown*: the kernel's time in the two bursts around
//! it over [`REFERENCE_MS`].  On the sizing host in a middling state the
//! slowdown is 1 and the reported times are the measured ones; on any other
//! host they are scaled by about one factor, the same for both sides of a
//! comparison.  Every run prints and records its overall slowdown and the
//! unscaled values beside the reported ones.
//!
//! The kernel is half loads at scattered addresses of a table twice the
//! second-level cache and half AND-popcount sweeps over bit vectors that
//! fit in it — what the engine's traversals and its bit kernels are made of.
//! Each half alone tracked one kind of operation better and the other worse.

use crate::host::clock;
use crate::stats::percentile;

/// The kernel's time at the reference speed, ms: its lower quartile on the
/// sizing host in a middling state (it read 0.80 – 1.05 over a morning).
pub const REFERENCE_MS: f64 = 0.90;

/// Calls of the kernel in one burst.
const BURST: usize = 8;

/// Words of the gather table (8 MiB: twice the sizing host's second-level
/// cache) and of each bit vector (512 KiB: both fit in it).
const TABLE_WORDS: usize = 1 << 20;
const BITS_WORDS: usize = 1 << 16;
/// Loads per call, and sweeps over the bit vectors per call.
const GATHERS: usize = 100_000;
const SWEEPS: usize = 8;

/// The reference kernel and its timings so far in this run.
#[derive(Debug)]
pub struct Reference {
    table: Vec<u64>,
    a: Vec<u64>,
    b: Vec<u64>,
    samples_ms: Vec<f64>,
}

/// Lower quartile of `samples_ms` over [`REFERENCE_MS`].
fn slowdown(samples_ms: &[f64]) -> f64 {
    percentile(samples_ms, 25.0) / REFERENCE_MS
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocate and fill the kernel's operands.
    pub fn new() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut fill = |n: usize| -> Vec<u64> {
            (0..n)
                .map(|_| {
                    x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    x
                })
                .collect()
        };
        Reference {
            table: fill(TABLE_WORDS),
            a: fill(BITS_WORDS),
            b: fill(BITS_WORDS),
            samples_ms: Vec::new(),
        }
    }

    /// One call of the kernel: the same work every time.
    fn kernel(&self) -> u64 {
        let mut sum = 0u64;
        let mut at = 12_345u64;
        for _ in 0..GATHERS {
            at = at
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sum = sum.wrapping_add(self.table[(at >> 20) as usize & (TABLE_WORDS - 1)]);
        }
        for _ in 0..SWEEPS {
            for (x, y) in std::hint::black_box(&self.a).iter().zip(&self.b) {
                sum += u64::from((x & y).count_ones());
            }
        }
        sum
    }

    /// Time a burst of calls and return the slowdown of the stretch that
    /// ends here: that of this burst and the one before it together.
    pub fn mark(&mut self) -> f64 {
        let previous = self.samples_ms.len().saturating_sub(BURST);
        for _ in 0..BURST {
            let began = clock();
            std::hint::black_box(self.kernel());
            self.samples_ms.push((clock() - began).as_secs_f64() * 1e3);
        }
        slowdown(&self.samples_ms[previous..])
    }

    /// The slowdown over the whole run so far.
    pub fn overall(&self) -> f64 {
        slowdown(&self.samples_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_call() {
        let mut r = Reference::new();
        assert_eq!(r.kernel(), r.kernel());
        let (first, second) = (r.mark(), r.mark());
        assert_eq!(r.samples_ms.len(), 2 * BURST);
        assert!(first > 0.0 && second > 0.0 && r.overall() > 0.0);
        assert_eq!(slowdown(&[REFERENCE_MS; 5]), 1.0);
    }
}
