//! Report comparison for the perf regression gate.
//!
//! [`diff_reports`] lines up two [`RunReport`]s and produces a row per
//! comparable quantity. Only **counters** gate (exceed the threshold →
//! failure) by default: they are deterministic for a fixed graph and
//! algorithm, so the CI gate is immune to machine noise. Wall-clock rows
//! — span totals, histogram quantiles, gauges — are reported
//! for humans but never fail the gate, unless explicitly promoted:
//! `--hist` gates histogram p50/p99 rows at a separate tolerance, and
//! `--gauges` does the same for gauge rows (useful for deterministic
//! levels like `mem.peak_bytes`; wall-clock-shaped `span.*` gauges stay
//! informational even then).

use crate::report::RunReport;

/// One compared quantity.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Quantity class: `"counter"`, `"gauge"`, `"span"`, or `"hist"`.
    pub kind: &'static str,
    /// Quantity name (histograms carry a `/p50` style suffix).
    pub name: String,
    /// Value in the base report (0 when absent).
    pub base: f64,
    /// Value in the new report (0 when absent).
    pub new: f64,
    /// Relative change in percent; `INFINITY` when appearing from zero.
    pub delta_pct: f64,
    /// Whether this row participates in the pass/fail decision.
    pub gated: bool,
}

impl DiffRow {
    /// Does this row alone exceed `threshold_pct`?
    pub fn exceeds(&self, threshold_pct: f64) -> bool {
        self.delta_pct.abs() > threshold_pct
    }
}

/// Result of comparing two reports.
#[derive(Debug, Clone)]
pub struct ReportDiff {
    /// All compared rows, gated (counters) first.
    pub rows: Vec<DiffRow>,
    /// Threshold the gate was evaluated against, percent.
    pub threshold_pct: f64,
    /// When set, histogram p50/p99 rows gate at this separate tolerance
    /// (percent); `None` keeps them informational.
    pub hist_tolerance_pct: Option<f64>,
    /// When set, gauge rows gate at this separate tolerance (percent);
    /// `None` keeps them informational. `span.*` gauges (wall-clock
    /// span aggregates that reports saved by earlier builds carry) never
    /// gate.
    pub gauge_tolerance_pct: Option<f64>,
}

impl ReportDiff {
    /// The threshold a row is judged against: histogram quantile rows
    /// use the `--hist` tolerance, gauge rows the `--gauges` tolerance,
    /// everything else gated uses the counter threshold.
    fn row_threshold(&self, row: &DiffRow) -> f64 {
        match row.kind {
            "hist" => self.hist_tolerance_pct.unwrap_or(self.threshold_pct),
            "gauge" => self.gauge_tolerance_pct.unwrap_or(self.threshold_pct),
            _ => self.threshold_pct,
        }
    }

    /// Gated rows whose change exceeds their threshold.
    pub fn failures(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.gated && r.exceeds(self.row_threshold(r)))
            .collect()
    }

    /// True when no gated row exceeds the threshold.
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Human table of all rows with changes, plus the verdict line.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:<28} {:>16} {:>16} {:>10}  gate",
            "kind", "name", "base", "new", "delta"
        );
        for r in &self.rows {
            if r.base == r.new {
                continue; // unchanged rows stay out of the way
            }
            let delta = if r.delta_pct.is_infinite() {
                "new".to_string()
            } else {
                format!("{:+.2}%", r.delta_pct)
            };
            let gate = if !r.gated {
                "info"
            } else if r.exceeds(self.row_threshold(r)) {
                "FAIL"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{:<8} {:<28} {:>16} {:>16} {:>10}  {}",
                r.kind,
                r.name,
                trim_num(r.base),
                trim_num(r.new),
                delta,
                gate
            );
        }
        let fails = self.failures();
        if fails.is_empty() {
            let _ = writeln!(
                out,
                "diff: ok ({} rows compared, threshold {}%)",
                self.rows.len(),
                self.threshold_pct
            );
        } else {
            let hists = fails.iter().filter(|r| r.kind == "hist").count();
            let gauges = fails.iter().filter(|r| r.kind == "gauge").count();
            let counters = fails.len() - hists - gauges;
            let mut what = Vec::new();
            if counters > 0 {
                what.push(format!(
                    "{counters} counter(s) past the {}% threshold",
                    self.threshold_pct
                ));
            }
            if hists > 0 {
                what.push(format!(
                    "{hists} histogram quantile(s) past the {}% tolerance",
                    self.hist_tolerance_pct.unwrap_or(self.threshold_pct)
                ));
            }
            if gauges > 0 {
                what.push(format!(
                    "{gauges} gauge(s) past the {}% tolerance",
                    self.gauge_tolerance_pct.unwrap_or(self.threshold_pct)
                ));
            }
            let _ = writeln!(out, "diff: {}", what.join(", "));
        }
        out
    }
}

/// Integers print without a fraction; everything else gets 4 digits.
fn trim_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.4}")
    }
}

/// Relative change in percent. Equal values (including 0 → 0) are 0;
/// appearing from zero is `INFINITY` (always past any threshold).
pub(crate) fn delta_pct(base: f64, new: f64) -> f64 {
    if base == new {
        0.0
    } else if base == 0.0 {
        f64::INFINITY
    } else {
        (new - base) / base * 100.0
    }
}

/// Union of names from two keyed row sets, base order first.
fn name_union<'a>(
    base: impl Iterator<Item = &'a str>,
    new: impl Iterator<Item = &'a str>,
) -> Vec<String> {
    let mut names: Vec<String> = base.map(str::to_string).collect();
    for n in new {
        if !names.iter().any(|b| b == n) {
            names.push(n.to_string());
        }
    }
    names
}

/// Compare two reports. Counters gate at `threshold_pct`; span totals,
/// histogram quantiles and gauges are informational unless promoted:
///
/// * `hist_tolerance_pct` gates the histogram **p50/p99** rows at that
///   tolerance (`report diff --hist`). p90 stays informational either
///   way: the gated pair matches the quantiles the paper's skew plots
///   report. Quantiles are wall-clock-adjacent for latency histograms,
///   so pick a tolerance with machine noise in mind — work-shaped
///   histograms (`vertex_wedges`) are deterministic and gate tightly.
/// * `gauge_tolerance_pct` gates gauge rows the same way
///   (`report diff --gauges`), aimed at deterministic levels —
///   `mem.peak_bytes`, `plan.est_work`, `budget.degraded`. `span.*`
///   gauges (wall-clock span aggregates that reports saved by earlier
///   builds carry) always stay informational, like the span rows.
pub fn diff_reports(
    base: &RunReport,
    new: &RunReport,
    threshold_pct: f64,
    hist_tolerance_pct: Option<f64>,
    gauge_tolerance_pct: Option<f64>,
) -> ReportDiff {
    let mut rows = Vec::new();

    let counter = |r: &RunReport, n: &str| r.counter(n).unwrap_or(0) as f64;
    for name in name_union(
        base.counters.iter().map(|(n, _)| n.as_str()),
        new.counters.iter().map(|(n, _)| n.as_str()),
    ) {
        let (b, v) = (counter(base, &name), counter(new, &name));
        rows.push(DiffRow {
            kind: "counter",
            name,
            base: b,
            new: v,
            delta_pct: delta_pct(b, v),
            gated: true,
        });
    }

    let gauge = |r: &RunReport, n: &str| {
        r.gauges
            .iter()
            .find(|(gn, _)| gn == n)
            .map_or(0.0, |&(_, v)| v)
    };
    for name in name_union(
        base.gauges.iter().map(|(n, _)| n.as_str()),
        new.gauges.iter().map(|(n, _)| n.as_str()),
    ) {
        let (b, v) = (gauge(base, &name), gauge(new, &name));
        let gated = gauge_tolerance_pct.is_some() && !name.starts_with("span.");
        rows.push(DiffRow {
            kind: "gauge",
            name,
            base: b,
            new: v,
            delta_pct: delta_pct(b, v),
            gated,
        });
    }

    let (base_spans, new_spans) = (base.span_totals(), new.span_totals());
    let span_total = |rows: &[(String, f64, u64)], n: &str| {
        rows.iter().find(|(sn, _, _)| sn == n).map_or(0.0, |r| r.1)
    };
    for name in name_union(
        base_spans.iter().map(|(n, _, _)| n.as_str()),
        new_spans.iter().map(|(n, _, _)| n.as_str()),
    ) {
        let (b, v) = (
            span_total(&base_spans, &name),
            span_total(&new_spans, &name),
        );
        rows.push(DiffRow {
            kind: "span",
            name,
            base: b,
            new: v,
            delta_pct: delta_pct(b, v),
            gated: false,
        });
    }

    for name in name_union(
        base.histograms.iter().map(|(n, _)| n.as_str()),
        new.histograms.iter().map(|(n, _)| n.as_str()),
    ) {
        for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
            let quant = |r: &RunReport| r.histogram(&name).map_or(0.0, |h| h.quantile(q));
            let (b, v) = (quant(base), quant(new));
            rows.push(DiffRow {
                kind: "hist",
                name: format!("{name}/{suffix}"),
                base: b,
                new: v,
                delta_pct: delta_pct(b, v),
                gated: hist_tolerance_pct.is_some() && suffix != "p90",
            });
        }
    }

    ReportDiff {
        rows,
        threshold_pct,
        hist_tolerance_pct,
        gauge_tolerance_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::json::Json;
    use crate::span::SpanRow;

    fn base_report() -> RunReport {
        let mut h = Histogram::new();
        h.record(100);
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![("dataset".into(), Json::Str("g".into()))],
            counters: vec![("wedges_expanded".into(), 1000), ("spa_scatters".into(), 0)],
            gauges: vec![("par_imbalance".into(), 1.0)],
            series: vec![],
            spans: vec![SpanRow {
                name: "count".into(),
                thread: 0,
                depth: 0,
                start_us: 0,
                dur_us: 500_000,
                counters: vec![],
            }],
            histograms: vec![("vertex_wedges".into(), h)],
        }
    }

    #[test]
    fn identical_reports_pass() {
        let rep = base_report();
        let d = diff_reports(&rep, &rep, 10.0, None, None);
        assert!(d.passed());
        assert!(d.failures().is_empty());
        assert!(d.render_table().contains("diff: ok"));
    }

    #[test]
    fn inflated_counter_fails_the_gate() {
        let base = base_report();
        let mut new = base_report();
        new.counters[0].1 = 1200; // +20% past a 10% threshold
        let d = diff_reports(&base, &new, 10.0, None, None);
        assert!(!d.passed());
        let fails = d.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].name, "wedges_expanded");
        assert!((fails[0].delta_pct - 20.0).abs() < 1e-9);
        assert!(d.render_table().contains("FAIL"));
    }

    #[test]
    fn within_threshold_counter_passes() {
        let base = base_report();
        let mut new = base_report();
        new.counters[0].1 = 1050; // +5% under a 10% threshold
        assert!(diff_reports(&base, &new, 10.0, None, None).passed());
    }

    #[test]
    fn counter_appearing_from_zero_always_gates() {
        let base = base_report();
        let mut new = base_report();
        new.counters[1].1 = 3; // spa_scatters: 0 → 3
        let d = diff_reports(&base, &new, 1e9, None, None);
        assert!(!d.passed());
        assert!(d.render_table().contains("new"));
    }

    #[test]
    fn timing_rows_never_gate() {
        let base = base_report();
        let mut new = base_report();
        new.spans[0].dur_us = 50_000_000; // 100x slower wall clock
        new.gauges[0].1 = 99.0;
        let d = diff_reports(&base, &new, 10.0, None, None);
        assert!(d.passed(), "wall-clock rows must not gate");
        // ... but they do show up in the table.
        assert!(d.render_table().contains("span"));
    }

    #[test]
    fn hist_quantiles_gate_only_with_a_tolerance() {
        let base = base_report();
        let mut new = base_report();
        // Shift the single histogram sample two octaves up: p50 moves
        // far past any reasonable tolerance.
        let mut h = Histogram::new();
        h.record(400);
        new.histograms[0].1 = h;
        // Default diff: informational only.
        assert!(diff_reports(&base, &new, 10.0, None, None).passed());
        // --hist: p50/p99 gate at the tolerance.
        let d = diff_reports(&base, &new, 10.0, Some(25.0), None);
        assert!(!d.passed());
        let fails = d.failures();
        assert!(fails.iter().all(|r| r.kind == "hist"));
        assert!(fails.iter().any(|r| r.name == "vertex_wedges/p50"));
        assert!(fails.iter().any(|r| r.name == "vertex_wedges/p99"));
        assert!(
            !fails.iter().any(|r| r.name.ends_with("/p90")),
            "p90 stays informational"
        );
        assert!(d.render_table().contains("histogram quantile"));
    }

    #[test]
    fn hist_within_tolerance_passes_while_counters_still_gate() {
        let base = base_report();
        let mut new = base_report();
        new.counters[0].1 = 1200; // +20%
        let d = diff_reports(&base, &new, 10.0, Some(50.0), None);
        let fails = d.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].kind, "counter");
        // Identical histograms never trip the tolerance.
        assert!(diff_reports(&base, &base, 10.0, Some(0.0), None).passed());
    }

    #[test]
    fn gauges_gate_only_with_a_tolerance() {
        let mut base = base_report();
        base.gauges.push(("mem.peak_bytes".into(), 1000.0));
        let mut new = base.clone();
        new.gauges[1].1 = 1500.0; // mem.peak_bytes +50%
                                  // Default diff: informational only.
        assert!(diff_reports(&base, &new, 10.0, None, None).passed());
        // --gauges: gauge rows gate at the tolerance.
        let d = diff_reports(&base, &new, 10.0, None, Some(25.0));
        assert!(!d.passed());
        let fails = d.failures();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].kind, "gauge");
        assert_eq!(fails[0].name, "mem.peak_bytes");
        assert!(d.render_table().contains("gauge(s) past the 25% tolerance"));
        // Within tolerance: passes.
        assert!(diff_reports(&base, &new, 10.0, None, Some(60.0)).passed());
    }

    #[test]
    fn span_gauges_stay_informational_even_with_gauge_gating() {
        let mut base = base_report();
        base.gauges.push(("span.count.total_us".into(), 100.0));
        let mut new = base.clone();
        new.gauges[1].1 = 100000.0; // wall clock exploded; still info
        let d = diff_reports(&base, &new, 10.0, None, Some(25.0));
        assert!(d.passed(), "span.* gauges are wall-clock, never gated");
        // par_imbalance, a non-span gauge, does gate.
        new.gauges[0].1 = 50.0;
        assert!(!diff_reports(&base, &new, 10.0, None, Some(25.0)).passed());
    }

    #[test]
    fn names_only_in_new_report_are_compared() {
        let base = base_report();
        let mut new = base_report();
        new.counters.push(("par_chunks".into(), 8));
        let d = diff_reports(&base, &new, 10.0, None, None);
        assert!(d.rows.iter().any(|r| r.name == "par_chunks"));
        assert!(!d.passed());
    }
}
