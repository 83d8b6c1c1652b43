//! Typed errors for the fallible GrB entry points (PR 7).
//!
//! Historically every shape violation in the op layer was an `assert!` —
//! acceptable for a standalone algorithm run, fatal for a serving stack
//! where one malformed query detonates a 64-lane batch.  [`GrbError`] is
//! the typed form of every precondition the planner checks; the fallible
//! entry points ([`Context::try_evaluate`](super::Context::try_evaluate),
//! the product builder's
//! [`try_run`](super::op::ProductBuilder::try_run) and the algorithms'
//! `try_*` wrappers) return it instead of panicking.
//!
//! The panicking entry points (`run`, `evaluate`) are kept as thin wrappers
//! that panic with the error's `Display` text, so existing
//! `#[should_panic(expected = "dimension mismatch")]`-style tests keep
//! their message contracts: every `Display` implementation below preserves
//! the historical assert message as a substring.

/// A typed precondition violation (or injected fault) from the GrB layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GrbError {
    /// The contracted dimension of a product does not match the operand
    /// length (`mxv`/`vxm`/`mxm`).
    DimensionMismatch {
        /// Which operation detected the mismatch (`"mxv"`, `"vxm"`, `"mxm"`).
        op: &'static str,
        /// The contracted matrix dimension.
        expected: usize,
        /// The operand length actually supplied.
        got: usize,
    },
    /// Some chain operand (mask, input scale, ewise stage, accumulator) has
    /// the wrong length for the produced output.
    LengthMismatch {
        /// The historical assert message for this operand kind.
        what: &'static str,
        /// The required length.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// A traversal source/seed vertex does not exist in the graph.
    SourceOutOfRange {
        /// `"source vertex"` or `"seed vertex"` — matches the historical
        /// panic wording of the algorithm that rejected it.
        what: &'static str,
        /// The offending vertex id.
        source: usize,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// A batched entry point was handed zero sources.
    EmptyBatch {
        /// The historical assert message (e.g. `"bfs_multi needs at least
        /// one source"`).
        what: &'static str,
    },
    /// A seeded fail point ([`crate::faultinject`]) injected a transient
    /// error at this dispatch.  Callers treat it like any other transient
    /// failure: safe to retry.
    FaultInjected {
        /// The fail-point name that fired.
        point: &'static str,
    },
}

impl GrbError {
    /// `Ok` when a chain operand of kind `what` has the `expected` length,
    /// the [`GrbError::LengthMismatch`] naming it otherwise.
    pub(crate) fn check_len(what: &'static str, expected: usize, got: usize) -> Result<(), Self> {
        if got == expected {
            return Ok(());
        }
        Err(GrbError::LengthMismatch {
            what,
            expected,
            got,
        })
    }
}

impl std::fmt::Display for GrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GrbError::DimensionMismatch { op, expected, got } => write!(
                f,
                "{op} dimension mismatch (contracted dimension {expected}, operand length {got})"
            ),
            GrbError::LengthMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} (expected {expected}, got {got})"),
            GrbError::SourceOutOfRange { what, source, n } => {
                write!(f, "{what} {source} out of range (n = {n})")
            }
            GrbError::EmptyBatch { what } => f.write_str(what),
            GrbError::FaultInjected { point } => {
                write!(f, "injected transient fault at fail point `{point}`")
            }
        }
    }
}

impl std::error::Error for GrbError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `Display` keeps the historical assert message as a substring —
    /// the contract that lets the panicking wrappers satisfy the existing
    /// `#[should_panic(expected = ...)]` suites.
    #[test]
    fn display_preserves_historical_messages() {
        let cases: [(GrbError, &str); 5] = [
            (
                GrbError::DimensionMismatch {
                    op: "mxv",
                    expected: 4,
                    got: 5,
                },
                "mxv dimension mismatch",
            ),
            (
                GrbError::LengthMismatch {
                    what: "mask length must equal output length",
                    expected: 4,
                    got: 5,
                },
                "mask length must equal output length",
            ),
            (
                GrbError::SourceOutOfRange {
                    what: "source vertex",
                    source: 10,
                    n: 4,
                },
                "source vertex 10 out of range (n = 4)",
            ),
            (
                GrbError::EmptyBatch {
                    what: "bfs_multi needs at least one source",
                },
                "at least one source",
            ),
            (
                GrbError::FaultInjected {
                    point: "grb.mxv_dispatch",
                },
                "grb.mxv_dispatch",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle:?}"
            );
        }
    }
}
