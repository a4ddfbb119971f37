//! Unified error taxonomy for the fallible executors (`run_plan`,
//! `count_segmented_checkpointed_recorded`, the budgeted decompositions).
//!
//! The infallible entry points (`count`, `tip_numbers`, …) keep their
//! original panicking contracts for trusted inputs; everything reachable
//! from untrusted data routes through [`BflyError`] instead. One enum
//! covers the whole workspace so the CLI can map error *classes* to
//! process exit codes and callers can `?` across crate boundaries:
//! `From` bridges lift [`bfly_graph::io::IoError`],
//! [`bfly_sparse::SparseError`], and the telemetry
//! [`ReportError`] into it.

use bfly_graph::io::IoError;
use bfly_sparse::SparseError;
use bfly_telemetry::ReportError;

/// Workspace-wide result alias for the fallible API.
pub type Result<T> = std::result::Result<T, BflyError>;

/// Every way a fallible bfly operation can fail.
#[derive(Debug)]
pub enum BflyError {
    /// A graph failed up-front invariant validation (index out of range,
    /// unsorted adjacency, mismatched forward/transpose views, …).
    InvalidGraph {
        /// What the validator found, with the offending location.
        reason: String,
    },
    /// A counting accumulator exceeded `u64`. Carries the exact partial
    /// total (promoted to `u128`, never wrapped) and the site it
    /// overflowed at.
    CountOverflow {
        /// Exact value of the accumulator at the point of failure.
        partial: u128,
        /// Which accumulator overflowed (`"count_adaptive"`, …).
        context: &'static str,
    },
    /// A [`ResourceBudget`](crate::budget::ResourceBudget) limit would be
    /// exceeded and no cheaper fallback exists.
    BudgetExceeded {
        /// Which limit: `"bytes"`, `"wedge_work"`, or `"deadline"`.
        resource: &'static str,
        /// The configured cap.
        limit: u64,
        /// What the operation needed (0 when unknowable, e.g. deadline).
        requested: u64,
    },
    /// Graph loading / file I/O failure.
    Io(IoError),
    /// Sparse-substrate failure (shape mismatch, malformed structure).
    Sparse(SparseError),
    /// Telemetry report ingestion failure.
    Report(ReportError),
}

/// Finish a checked total for a fallible entry point: a sum past `u64`
/// becomes [`BflyError::CountOverflow`] carrying the exact total.
pub(crate) fn checked_total(acc: bfly_sparse::CheckedAccum, context: &'static str) -> Result<u64> {
    acc.finish()
        .map_err(|partial| BflyError::CountOverflow { partial, context })
}

/// Unwrap a fallible result for an infallible entry point: on error,
/// panic with it and the executor that returns it as a typed error.
pub(crate) fn expect_ok<T>(r: Result<T>, executor: &'static str) -> T {
    r.unwrap_or_else(|e| panic!("{e}; call {executor} for a typed error"))
}

impl std::fmt::Display for BflyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BflyError::InvalidGraph { reason } => write!(f, "invalid graph: {reason}"),
            BflyError::CountOverflow { partial, context } => write!(
                f,
                "count overflow in {context}: exact total {partial} exceeds u64"
            ),
            BflyError::BudgetExceeded {
                resource,
                limit,
                requested,
            } => {
                if *requested == 0 {
                    write!(f, "resource budget exceeded: {resource} limit {limit}")
                } else {
                    write!(
                        f,
                        "resource budget exceeded: {resource} needs {requested}, limit {limit}"
                    )
                }
            }
            BflyError::Io(e) => write!(f, "{e}"),
            BflyError::Sparse(e) => write!(f, "{e}"),
            BflyError::Report(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BflyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BflyError::Io(e) => Some(e),
            BflyError::Sparse(e) => Some(e),
            BflyError::Report(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::convert::Infallible> for BflyError {
    fn from(e: std::convert::Infallible) -> Self {
        match e {}
    }
}

impl From<IoError> for BflyError {
    fn from(e: IoError) -> Self {
        BflyError::Io(e)
    }
}

impl From<SparseError> for BflyError {
    fn from(e: SparseError) -> Self {
        BflyError::Sparse(e)
    }
}

impl From<ReportError> for BflyError {
    fn from(e: ReportError) -> Self {
        BflyError::Report(e)
    }
}

impl From<std::io::Error> for BflyError {
    fn from(e: std::io::Error) -> Self {
        BflyError::Io(IoError::Io(e))
    }
}

/// Validate the structural invariants every kernel assumes, so a typed
/// run (this, then the executor) fails with [`BflyError::InvalidGraph`] up front instead of
/// panicking (or reading out of bounds) mid-kernel. Checks both the
/// forward and transposed biadjacency views: column indices in range,
/// rows strictly sorted (sorted merge and binary-search kernels rely on
/// it), and matching edge totals between the two views. Cost is one
/// O(E) sweep — negligible next to any counting pass.
pub fn validate_graph(g: &bfly_graph::BipartiteGraph) -> Result<()> {
    validate_pattern(g.biadjacency(), g.nv2(), "biadjacency")?;
    validate_pattern(g.biadjacency_t(), g.nv1(), "biadjacency_t")?;
    let (fwd, bwd) = (g.biadjacency().nnz(), g.biadjacency_t().nnz());
    if fwd != bwd {
        return Err(BflyError::InvalidGraph {
            reason: format!("forward view has {fwd} edges but transpose has {bwd}"),
        });
    }
    Ok(())
}

fn validate_pattern(p: &bfly_sparse::Pattern, ncols: usize, what: &str) -> Result<()> {
    for i in 0..p.nrows() {
        let row = p.row(i);
        for (k, &c) in row.iter().enumerate() {
            if c as usize >= ncols {
                return Err(BflyError::InvalidGraph {
                    reason: format!("{what}: row {i} references column {c} >= {ncols}"),
                });
            }
            if k > 0 && row[k - 1] >= c {
                return Err(BflyError::InvalidGraph {
                    reason: format!(
                        "{what}: row {i} not strictly sorted at position {k} ({} then {c})",
                        row[k - 1]
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::BipartiteGraph;

    #[test]
    fn valid_graphs_pass() {
        validate_graph(&BipartiteGraph::complete(3, 4)).unwrap();
        validate_graph(&BipartiteGraph::from_edges(2, 2, &[]).unwrap()).unwrap();
        validate_graph(&BipartiteGraph::from_edges(0, 0, &[]).unwrap()).unwrap();
    }

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<BflyError> = vec![
            BflyError::InvalidGraph { reason: "x".into() },
            BflyError::CountOverflow {
                partial: 1 << 70,
                context: "test",
            },
            BflyError::BudgetExceeded {
                resource: "bytes",
                limit: 10,
                requested: 20,
            },
            BflyError::BudgetExceeded {
                resource: "deadline",
                limit: 5,
                requested: 0,
            },
            BflyError::Sparse(SparseError::Malformed("m")),
            BflyError::Report(ReportError::Json("j".into())),
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn bridges_lift_foreign_errors() {
        let e: BflyError = SparseError::Malformed("bad").into();
        assert!(matches!(e, BflyError::Sparse(_)));
        let e: BflyError = ReportError::Json("nope".into()).into();
        assert!(matches!(e, BflyError::Report(_)));
        let e: BflyError = std::io::Error::other("io").into();
        assert!(matches!(e, BflyError::Io(IoError::Io(_))));
        let e: BflyError = IoError::Parse {
            line: 3,
            msg: "bad".into(),
        }
        .into();
        assert!(matches!(e, BflyError::Io(IoError::Parse { line: 3, .. })));
    }
}
