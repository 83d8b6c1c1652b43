//! GraphBLAS semirings — Table IV of the paper.
//!
//! Matrix-centric graph computing models traversal as matrix operations over
//! a semiring `(⊕, ⊗, identity)`.  Because Bit-GraphBLAS keeps the adjacency
//! matrix binary, the multiplicative operand coming from the matrix is always
//! "edge present / absent"; the semiring therefore only needs to describe how
//! a present edge combines with the vector operand (`⊗`) and how the partial
//! products reduce (`⊕`).
//!
//! | Semiring      | Domain          | Algorithms       | `⊗(x)`      | `⊕`   |
//! |---------------|-----------------|------------------|-------------|-------|
//! | Boolean       | {0, 1}          | BFS, MIS, GC     | `x ≠ 0`     | OR    |
//! | Arithmetic    | ℝ               | PR, TC, LGC      | `x`         | +     |
//! | Min-plus      | ℝ ∪ {+∞}        | SSSP, CC         | `x + w`     | min   |
//! | Max-times     | ℝ               | MIS, GC          | `x · w`     | max   |
//!
//! Every scalar operator is written once, here, and the enum methods,
//! `with_semiring_ops!` and the kernels call it: `select_min` /
//! `select_max` (`min` / `max`), `or` (Boolean `⊕`) and `nonzero`
//! (Boolean `⊗`); the crate's clippy settings refuse `f32::min` / `f32::max`.
//!
//! **Tie rule.**  A fold step `select_min(acc, v)` takes `v` only if it is
//! strictly below `acc` (`select_max`: above): on a `±0.0` tie the
//! accumulator — the earlier operand in written fold order — is kept, and a
//! NaN `v` is never selected.  A fold starts at the identity, so its
//! accumulator is never NaN.  [`BinaryOp::Min`] / [`BinaryOp::Max`] take a
//! caller's value as left operand (a baseline, an e-wise chain's value) and
//! skip it when it is NaN: `minNum` / `maxNum` (IEEE 754-2019) for NaN, the
//! tie rule for `±0.0`.

/// A semiring over `f32` as used by the BMV/BMM kernels and the GrB ops.
///
/// `MinPlus` carries the uniform edge weight applied to every present edge
/// (1.0 for hop-count SSSP on an unweighted graph, 0.0 for FastSV-style
/// minimum propagation).  `MaxTimes` carries the uniform edge factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Semiring {
    /// Boolean (OR, AND) — BFS and other reachability-style algorithms.
    Boolean,
    /// Arithmetic (+, ×) — PageRank, Triangle Counting.
    Arithmetic,
    /// Tropical min-plus (min, +) with the given uniform edge weight.
    MinPlus(f32),
    /// Tropical max-times (max, ×) with the given uniform edge factor.
    MaxTimes(f32),
}

impl Semiring {
    /// The identity element of the additive monoid (the value of an "empty"
    /// output entry).
    #[inline]
    pub fn identity(&self) -> f32 {
        match self {
            Semiring::Boolean => 0.0,
            Semiring::Arithmetic => 0.0,
            Semiring::MinPlus(_) => f32::INFINITY,
            Semiring::MaxTimes(_) => f32::NEG_INFINITY,
        }
    }

    /// The multiplicative step for a *present* edge: combine the vector value
    /// `x` with the (implicit, binary) matrix entry.
    #[inline]
    pub fn combine(&self, x: f32) -> f32 {
        match self {
            Semiring::Boolean => nonzero(x),
            Semiring::Arithmetic => x,
            Semiring::MinPlus(w) => x + w,
            Semiring::MaxTimes(w) => x * w,
        }
    }

    /// The additive reduction `acc ⊕ v`.
    #[inline]
    pub fn reduce(&self, acc: f32, v: f32) -> f32 {
        match self {
            Semiring::Boolean => or(acc, v),
            Semiring::Arithmetic => acc + v,
            Semiring::MinPlus(_) => select_min(acc, v),
            Semiring::MaxTimes(_) => select_max(acc, v),
        }
    }

    /// Reduce a full slice starting from the identity.
    #[inline]
    pub fn reduce_slice(&self, xs: &[f32]) -> f32 {
        xs.iter()
            .fold(self.identity(), |acc, &v| self.reduce(acc, v))
    }

    /// True when entries holding the additive identity can be *skipped* by a
    /// sparse (push-direction) kernel without changing the result, i.e.
    /// `⊕(acc, ⊗(identity)) == acc` for every `acc`.
    ///
    /// Holds for Boolean (`0` contributes nothing to OR), arithmetic
    /// (`x + 0 = x`), and min-plus (`∞ + w = ∞` loses every `min`).  For
    /// max-times it requires a positive edge factor: with `w ≤ 0`,
    /// `-∞ · w` is `+∞` or NaN rather than the identity, so identity
    /// entries still contribute and only the dense pull sweep is exact.
    #[inline]
    pub fn push_safe(&self) -> bool {
        match self {
            Semiring::Boolean | Semiring::Arithmetic | Semiring::MinPlus(_) => true,
            Semiring::MaxTimes(w) => *w > 0.0,
        }
    }

    /// True when an output value equals the semiring's "no contribution"
    /// value — used to decide whether a vertex was reached.
    #[inline]
    pub fn is_identity(&self, v: f32) -> bool {
        match self {
            Semiring::Boolean | Semiring::Arithmetic => v == 0.0,
            Semiring::MinPlus(_) => v == f32::INFINITY,
            Semiring::MaxTimes(_) => v == f32::NEG_INFINITY,
        }
    }
}

/// Resolve a [`Semiring`] **once per call**: evaluates `$body` with
/// `$identity: f32`, `$combine: Fn(f32) -> f32` and `$reduce: Fn(f32, f32)
/// -> f32` bound to the semiring's monomorphic operations, once per variant,
/// so a sweep written in `$body` compiles to four loops that carry no
/// `match` per edge.  The closures compute exactly [`Semiring::identity`],
/// [`Semiring::combine`] and [`Semiring::reduce`] (pinned bit for bit by
/// `resolved_ops_equal_the_enum_methods_bitwise`), and this is the only
/// place a sweep resolves its semiring: no kernel calls the enum methods per
/// edge (the tests do, as the oracle).
macro_rules! with_semiring_ops {
    ($semiring:expr, |$identity:ident, $combine:ident, $reduce:ident| $body:expr) => {
        match $semiring {
            $crate::semiring::Semiring::Boolean => {
                let $identity = 0.0f32;
                let $combine = $crate::semiring::nonzero;
                let $reduce = $crate::semiring::or;
                $body
            }
            $crate::semiring::Semiring::Arithmetic => {
                let $identity = 0.0f32;
                let $combine = |v: f32| v;
                let $reduce = |acc: f32, v: f32| acc + v;
                $body
            }
            $crate::semiring::Semiring::MinPlus(w) => {
                let $identity = f32::INFINITY;
                let $combine = move |v: f32| v + w;
                let $reduce = $crate::semiring::select_min;
                $body
            }
            $crate::semiring::Semiring::MaxTimes(w) => {
                let $identity = f32::NEG_INFINITY;
                let $combine = move |v: f32| v * w;
                let $reduce = $crate::semiring::select_max;
                $body
            }
        }
    };
}
pub(crate) use with_semiring_ops;

/// The `min` fold step under the tie rule (module doc): one `minss`.
#[inline(always)]
pub(crate) fn select_min(acc: f32, v: f32) -> f32 {
    if v < acc {
        v
    } else {
        acc
    }
}

/// The `max` fold step: [`select_min`] with the comparison reversed.
#[inline(always)]
pub(crate) fn select_max(acc: f32, v: f32) -> f32 {
    if v > acc {
        v
    } else {
        acc
    }
}

/// Boolean `⊕`: `1.0` iff either operand is nonzero (NaN included).
#[inline(always)]
pub(crate) fn or(a: f32, b: f32) -> f32 {
    f32::from(a != 0.0 || b != 0.0)
}

/// Boolean `⊗`: `1.0` iff `x` is nonzero (NaN included), else `0.0`.
#[inline(always)]
pub(crate) fn nonzero(x: f32) -> f32 {
    or(x, 0.0)
}

/// The weight `w` of a `MinPlus(w)` fold that may regroup its operands and
/// add `w` once (`kernels::csr_pull_full`'s four chains): every finite `w`
/// but `−0.0` (by bits).  Then no term `x + w` is `−0.0` (round-to-nearest
/// gives `−0.0` only for `−0.0 + −0.0`), so `min` over the non-NaN terms is
/// a total order's, in any grouping; rounding is monotone, so it is
/// `fl(m + w)` for the least non-NaN operand `m`, a `±0.0` tie in `m`
/// giving one sum; and [`select_min`] from `+∞` skips NaN as the chain does
/// (`+∞ + w = +∞`).  `MinPlus(−0.0)` is refused: its terms tie `±0.0`, which
/// the tie rule answers by position.  So is a `±∞` or NaN `w`: `m + w` may
/// be NaN (`−∞ + ∞`, `m + NaN`) where the chain skips every NaN term.
#[inline(always)]
pub(crate) fn min_plus_any_order(semiring: Semiring) -> Option<f32> {
    match semiring {
        Semiring::MinPlus(w) if w.is_finite() && w.to_bits() != (-0.0f32).to_bits() => Some(w),
        _ => None,
    }
}

/// A binary scalar operator, as used by the GraphBLAS accumulator
/// (`w ⊕= t`) and the element-wise stages of the lazy expression IR.
///
/// Each semiring's additive monoid and multiplicative op map onto one of
/// these ([`BinaryOp::monoid_of`] / [`BinaryOp::mult_of`]), which is what
/// lets the planner collapse `ewise_add` / `ewise_mult` chains and fold
/// accumulators into the matrix-product sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `a + b`.
    Plus,
    /// `a · b`.
    Times,
    /// `min(a, b)`: `select_min` with a NaN `a` skipped (`minNum`).
    Min,
    /// `max(a, b)`: `select_max` with a NaN `a` skipped (`maxNum`).
    Max,
    /// Logical OR over the {0, 1} encoding (`1.0` iff either is nonzero).
    Or,
    /// Logical AND over the {0, 1} encoding (`1.0` iff both are nonzero).
    And,
}

impl BinaryOp {
    /// Apply the operator.
    #[inline]
    pub fn apply(&self, a: f32, b: f32) -> f32 {
        match self {
            BinaryOp::Plus => a + b,
            BinaryOp::Times => a * b,
            BinaryOp::Min if a.is_nan() => b,
            BinaryOp::Max if a.is_nan() => b,
            BinaryOp::Min => select_min(a, b),
            BinaryOp::Max => select_max(a, b),
            BinaryOp::Or => or(a, b),
            BinaryOp::And => f32::from(a != 0.0 && b != 0.0),
        }
    }

    /// The operator implementing the given semiring's additive monoid `⊕`
    /// (what `ewise_add` means under that semiring).
    #[inline]
    pub fn monoid_of(semiring: Semiring) -> BinaryOp {
        match semiring {
            Semiring::Boolean => BinaryOp::Or,
            Semiring::Arithmetic => BinaryOp::Plus,
            Semiring::MinPlus(_) => BinaryOp::Min,
            Semiring::MaxTimes(_) => BinaryOp::Max,
        }
    }

    /// The operator implementing the given semiring's element-wise
    /// multiplication `⊗` (what `ewise_mult` means under that semiring:
    /// Hadamard product for arithmetic/max-times, addition for min-plus,
    /// AND for Boolean).
    #[inline]
    pub fn mult_of(semiring: Semiring) -> BinaryOp {
        match semiring {
            Semiring::Boolean => BinaryOp::And,
            Semiring::Arithmetic | Semiring::MaxTimes(_) => BinaryOp::Times,
            Semiring::MinPlus(_) => BinaryOp::Plus,
        }
    }

    /// True when this operator *is* the semiring's additive monoid — the
    /// condition under which an accumulator can be folded into the
    /// matrix-product sweep itself (`⊕`-folding contributions straight into
    /// the accumulation baseline is associative + commutative, so partial
    /// push scatters stay exact).
    #[inline]
    pub fn matches_monoid(&self, semiring: Semiring) -> bool {
        *self == Self::monoid_of(semiring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(Semiring::Boolean.identity(), 0.0);
        assert_eq!(Semiring::Arithmetic.identity(), 0.0);
        assert_eq!(Semiring::MinPlus(1.0).identity(), f32::INFINITY);
        assert_eq!(Semiring::MaxTimes(1.0).identity(), f32::NEG_INFINITY);
    }

    #[test]
    fn boolean_semiring_is_or_and() {
        let s = Semiring::Boolean;
        assert_eq!(s.combine(5.0), 1.0);
        assert_eq!(s.combine(0.0), 0.0);
        assert_eq!(s.reduce(0.0, 1.0), 1.0);
        assert_eq!(s.reduce(0.0, 0.0), 0.0);
        assert_eq!(s.reduce_slice(&[0.0, 0.0, 2.0]), 1.0);
    }

    #[test]
    fn arithmetic_semiring_sums_products() {
        let s = Semiring::Arithmetic;
        assert_eq!(s.combine(2.5), 2.5);
        assert_eq!(s.reduce(1.0, 2.0), 3.0);
        assert_eq!(s.reduce_slice(&[1.0, 2.0, 3.0]), 6.0);
    }

    #[test]
    fn minplus_relaxation() {
        let s = Semiring::MinPlus(1.0);
        assert_eq!(s.combine(3.0), 4.0);
        assert_eq!(s.reduce(10.0, 4.0), 4.0);
        assert_eq!(s.reduce(f32::INFINITY, 7.0), 7.0);
        assert!(s.is_identity(f32::INFINITY));
        assert!(!s.is_identity(0.0));
        // Zero-weight variant used by FastSV minimum propagation.
        let s0 = Semiring::MinPlus(0.0);
        assert_eq!(s0.combine(3.0), 3.0);
    }

    #[test]
    fn maxtimes() {
        let s = Semiring::MaxTimes(2.0);
        assert_eq!(s.combine(3.0), 6.0);
        assert_eq!(s.reduce(1.0, 6.0), 6.0);
        assert_eq!(s.reduce_slice(&[1.0, 9.0, 4.0]), 9.0);
        assert!(s.is_identity(f32::NEG_INFINITY));
    }

    #[test]
    fn push_safety_matches_identity_absorption() {
        assert!(Semiring::Boolean.push_safe());
        assert!(Semiring::Arithmetic.push_safe());
        assert!(Semiring::MinPlus(0.0).push_safe());
        assert!(Semiring::MinPlus(5.0).push_safe());
        assert!(Semiring::MaxTimes(1.0).push_safe());
        assert!(!Semiring::MaxTimes(0.0).push_safe());
        assert!(!Semiring::MaxTimes(-1.0).push_safe());
    }

    #[test]
    fn binary_ops_apply_their_operator() {
        assert_eq!(BinaryOp::Plus.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Times.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(BinaryOp::Or.apply(0.0, 3.0), 1.0);
        assert_eq!(BinaryOp::Or.apply(0.0, 0.0), 0.0);
        assert_eq!(BinaryOp::And.apply(0.0, 3.0), 0.0);
        assert_eq!(BinaryOp::And.apply(2.0, 3.0), 1.0);
    }

    #[test]
    fn binary_ops_map_to_semiring_monoids_and_mults() {
        assert_eq!(BinaryOp::monoid_of(Semiring::Boolean), BinaryOp::Or);
        assert_eq!(BinaryOp::monoid_of(Semiring::Arithmetic), BinaryOp::Plus);
        assert_eq!(BinaryOp::monoid_of(Semiring::MinPlus(1.0)), BinaryOp::Min);
        assert_eq!(BinaryOp::monoid_of(Semiring::MaxTimes(1.0)), BinaryOp::Max);
        assert_eq!(BinaryOp::mult_of(Semiring::Boolean), BinaryOp::And);
        assert_eq!(BinaryOp::mult_of(Semiring::Arithmetic), BinaryOp::Times);
        assert_eq!(BinaryOp::mult_of(Semiring::MinPlus(0.0)), BinaryOp::Plus);
        assert!(BinaryOp::Min.matches_monoid(Semiring::MinPlus(1.0)));
        assert!(!BinaryOp::Min.matches_monoid(Semiring::Arithmetic));
        // The monoid op folded with the semiring's reduce must agree, a
        // signed-zero tie included (both keep the left operand).
        for s in [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(1.0),
        ] {
            let op = BinaryOp::monoid_of(s);
            let pairs = [
                (0.0f32, 0.0f32),
                (1.0, 0.0),
                (2.0, 3.0),
                (5.0, 1.0),
                (0.0, -0.0),
                (-0.0, 0.0),
            ];
            for (a, b) in pairs {
                assert_eq!(
                    op.apply(a, b).to_bits(),
                    s.reduce(a, b).to_bits(),
                    "{s:?} {a} {b}"
                );
            }
        }
    }

    /// The once-per-call closures are the enum methods, bit for bit — NaN,
    /// ±∞ and −0.0 included, for every edge weight sign.
    #[test]
    fn resolved_ops_equal_the_enum_methods_bitwise() {
        let values = [
            0.0f32,
            -0.0,
            1.0,
            -2.5,
            3.0e38,
            f32::MIN_POSITIVE,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for s in [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::MinPlus(-0.0),
            Semiring::MaxTimes(2.0),
            Semiring::MaxTimes(0.0),
            Semiring::MaxTimes(-1.0),
        ] {
            with_semiring_ops!(s, |identity, combine, reduce| {
                assert_eq!(identity.to_bits(), s.identity().to_bits(), "{s:?}");
                for a in values {
                    assert_eq!(combine(a).to_bits(), s.combine(a).to_bits(), "{s:?} {a}");
                    for b in values {
                        assert_eq!(
                            reduce(a, b).to_bits(),
                            s.reduce(a, b).to_bits(),
                            "{s:?} {a} {b}"
                        );
                    }
                }
            });
        }
    }

    #[test]
    fn reduce_slice_of_empty_is_identity() {
        for s in [
            Semiring::Boolean,
            Semiring::Arithmetic,
            Semiring::MinPlus(1.0),
            Semiring::MaxTimes(1.0),
        ] {
            assert_eq!(s.reduce_slice(&[]), s.identity());
        }
    }
}
