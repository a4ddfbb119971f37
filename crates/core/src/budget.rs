//! Resource budgets and graceful degradation.
//!
//! A [`ResourceBudget`] caps what an operation may consume along three
//! axes — scratch **bytes**, **wedge work** (the Σ C(deg, 2) unit every
//! cost model in [`crate::adaptive`] already speaks), and a wall-clock
//! **deadline** checked at phase boundaries. Budget-aware entry points
//! degrade in preference order instead of aborting:
//!
//! 1. pick a cheaper plan (fewer parallel chunks, then sequential, then
//!    the fixed member without the degree-ordered relabel) when a limit
//!    would be crossed,
//! 2. return a [`Partial`] result tagged `complete = false` when a
//!    deadline expires mid-computation,
//! 3. only when no cheaper shape exists, fail with
//!    [`BflyError::BudgetExceeded`].
//!
//! Every degradation is observable: budgeted paths emit `budget.*`
//! gauges and a `degraded` span through whatever
//! [`Recorder`] they were handed, so a
//! production run that silently fell back is visible in its run report.

use crate::error::BflyError;
use bfly_telemetry::Recorder;
use std::time::{Duration, Instant};

/// Limits an operation must stay within. `None` on any axis means
/// unlimited; [`ResourceBudget::default`] is unlimited on all three.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceBudget {
    /// Cap on total bytes of working memory: the resident input graph
    /// *plus* everything the operation allocates (accumulators, scratch
    /// pools). A cap below the resident graph itself is a meaningful
    /// request — the adaptive planner answers it with the out-of-core
    /// sharded tier ([`ExecMode::Sharded`](crate::adaptive::ExecMode)),
    /// which never materialises the whole graph.
    pub max_bytes: Option<u64>,
    /// Cap on wedge work (Σ C(deg, 2) over the traversed side) — the
    /// budget analogue of the profile's `est_work`.
    pub max_wedge_work: Option<u64>,
    /// Wall-clock deadline, checked at phase/round boundaries (never
    /// inside a kernel's inner loop).
    pub deadline: Option<Instant>,
}

impl ResourceBudget {
    /// No limits on any axis.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Returns `true` when no axis is constrained (the common fast path:
    /// budgeted code skips its checks entirely).
    pub fn is_unlimited(&self) -> bool {
        self.max_bytes.is_none() && self.max_wedge_work.is_none() && self.deadline.is_none()
    }

    /// Builder: cap working memory.
    pub fn with_max_bytes(mut self, bytes: u64) -> Self {
        self.max_bytes = Some(bytes);
        self
    }

    /// Builder: cap wedge work.
    pub fn with_max_wedge_work(mut self, work: u64) -> Self {
        self.max_wedge_work = Some(work);
        self
    }

    /// Builder: deadline `d` from now.
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }

    /// Builder: absolute deadline.
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Whether `bytes` of scratch fits the byte budget.
    pub fn bytes_fit(&self, bytes: u64) -> bool {
        self.max_bytes.is_none_or(|cap| bytes <= cap)
    }

    /// Fail with [`BflyError::BudgetExceeded`] if `bytes` of scratch
    /// would cross the byte cap.
    pub fn check_bytes(&self, bytes: u64) -> crate::error::Result<()> {
        match self.max_bytes {
            Some(cap) if bytes > cap => Err(BflyError::BudgetExceeded {
                resource: "bytes",
                limit: cap,
                requested: bytes,
            }),
            _ => Ok(()),
        }
    }

    /// Fail with [`BflyError::BudgetExceeded`] if the estimated wedge
    /// work crosses the work cap.
    pub fn check_wedge_work(&self, work: u64) -> crate::error::Result<()> {
        match self.max_wedge_work {
            Some(cap) if work > cap => Err(BflyError::BudgetExceeded {
                resource: "wedge_work",
                limit: cap,
                requested: work,
            }),
            _ => Ok(()),
        }
    }

    /// Enforce the byte cap against *measured* live bytes from the
    /// tracking allocator (feature `alloc-track`, installed by the
    /// binary). Complements [`ResourceBudget::check_bytes`], which
    /// works on a-priori estimates: the estimate rejects a plan before
    /// allocating, the measurement catches what estimates miss. A no-op
    /// `Ok(())` when tracking is inactive, so budgeted paths call it
    /// unconditionally at phase boundaries.
    pub fn check_measured_bytes(&self) -> crate::error::Result<()> {
        if !bfly_telemetry::mem::tracking_active() {
            return Ok(());
        }
        self.check_bytes(bfly_telemetry::mem::current_bytes())
    }

    /// Emit the configured limits as `budget.*` gauges so run reports
    /// show what a run was capped at.
    pub fn record_limits<R: Recorder>(&self, rec: &mut R) {
        if !R::ENABLED {
            return;
        }
        if let Some(b) = self.max_bytes {
            rec.gauge("budget.max_bytes", b as f64);
        }
        if let Some(w) = self.max_wedge_work {
            rec.gauge("budget.max_wedge_work", w as f64);
        }
        if self.deadline.is_some() {
            rec.gauge("budget.deadline_set", 1.0);
        }
    }
}

/// Record one degradation decision: a `budget.degraded` gauge naming the
/// axis (1 = bytes, 2 = wedge_work, 3 = deadline) plus a zero-length
/// `degraded` span so trace views show *where* in the run the fallback
/// happened.
pub fn record_degraded<R: Recorder>(rec: &mut R, axis: &'static str) {
    if !R::ENABLED {
        return;
    }
    let code = match axis {
        "bytes" => 1.0,
        "wedge_work" => 2.0,
        _ => 3.0,
    };
    rec.gauge("budget.degraded", code);
    rec.span_enter("degraded");
    rec.span_exit("degraded");
}

/// Emit the tracking allocator's measurements as `mem.current_bytes` /
/// `mem.peak_bytes` gauges. Quiet unless the `alloc-track` allocator is
/// installed, so reports never carry misleading zeros.
pub fn record_memory<R: Recorder>(rec: &mut R) {
    if !R::ENABLED || !bfly_telemetry::mem::tracking_active() {
        return;
    }
    rec.gauge(
        "mem.current_bytes",
        bfly_telemetry::mem::current_bytes() as f64,
    );
    rec.gauge("mem.peak_bytes", bfly_telemetry::mem::peak_bytes() as f64);
}

/// A result that may have been cut short by a deadline. `complete =
/// true` means `value` is exactly what the unbudgeted path returns;
/// `complete = false` means the computation stopped at the last phase
/// boundary before the deadline and `value` holds best-effort state
/// (documented per entry point).
#[derive(Debug, Clone, PartialEq)]
pub struct Partial<T> {
    /// The (possibly truncated) result.
    pub value: T,
    /// Whether the computation ran to completion.
    pub complete: bool,
    /// Estimated fraction of the predicted total work that was done when
    /// the result was produced: `Some(1.0)` for complete results, a
    /// `[0, 1]` estimate against the plan's work forecast at truncation
    /// (see [`bfly_telemetry::WorkForecast`]), `None` when no forecast
    /// was available to measure against.
    pub fraction: Option<f64>,
}

impl<T> Partial<T> {
    /// A result that ran to completion.
    pub fn complete(value: T) -> Self {
        Partial {
            value,
            complete: true,
            fraction: Some(1.0),
        }
    }

    /// The same outcome carrying `f(value)`.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> Partial<U> {
        Partial {
            value: f(self.value),
            complete: self.complete,
            fraction: self.fraction,
        }
    }

    /// A result cut short at a phase boundary, progress unknown.
    pub fn truncated(value: T) -> Self {
        Partial {
            value,
            complete: false,
            fraction: None,
        }
    }

    /// Annotate the completed fraction after the fact (e.g. the CLI
    /// measuring hub counters against the plan forecast); clamped to
    /// `[0, 1]`. Complete results keep their exact 1.0.
    pub fn with_fraction(mut self, fraction: f64) -> Self {
        if !self.complete {
            self.fraction = Some(fraction.clamp(0.0, 1.0));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_telemetry::InMemoryRecorder;

    #[test]
    fn unlimited_accepts_everything() {
        let b = ResourceBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.bytes_fit(u64::MAX));
        b.check_bytes(u64::MAX).unwrap();
        b.check_wedge_work(u64::MAX).unwrap();
    }

    #[test]
    fn byte_and_work_caps_enforce() {
        let b = ResourceBudget::unlimited()
            .with_max_bytes(1000)
            .with_max_wedge_work(50);
        assert!(!b.is_unlimited());
        assert!(b.bytes_fit(1000));
        assert!(!b.bytes_fit(1001));
        b.check_bytes(1000).unwrap();
        let e = b.check_bytes(1001).unwrap_err();
        assert!(
            matches!(
                e,
                BflyError::BudgetExceeded {
                    resource: "bytes",
                    limit: 1000,
                    requested: 1001
                }
            ),
            "{e}"
        );
        assert!(matches!(
            b.check_wedge_work(51).unwrap_err(),
            BflyError::BudgetExceeded {
                resource: "wedge_work",
                ..
            }
        ));
    }

    #[test]
    fn limits_and_degradations_are_recorded() {
        let mut rec = InMemoryRecorder::new();
        ResourceBudget::unlimited()
            .with_max_bytes(64)
            .with_max_wedge_work(128)
            .with_deadline_in(Duration::from_secs(1))
            .record_limits(&mut rec);
        assert_eq!(rec.gauge_value("budget.max_bytes"), Some(64.0));
        assert_eq!(rec.gauge_value("budget.max_wedge_work"), Some(128.0));
        assert_eq!(rec.gauge_value("budget.deadline_set"), Some(1.0));
        record_degraded(&mut rec, "bytes");
        assert_eq!(rec.gauge_value("budget.degraded"), Some(1.0));
        assert!(rec.spans().iter().any(|s| s.name == "degraded"));
    }

    #[test]
    fn partial_constructors() {
        let done = Partial::complete(7u64);
        assert!(done.complete);
        assert_eq!(done.fraction, Some(1.0));
        let cut = Partial::truncated(7u64);
        assert!(!cut.complete);
        assert_eq!(cut.fraction, None);
        // with_fraction annotates truncated results but never rewrites a
        // complete one.
        assert_eq!(cut.with_fraction(0.6).fraction, Some(0.6));
        assert_eq!(done.with_fraction(0.6).fraction, Some(1.0));
    }
}
