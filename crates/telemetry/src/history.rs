//! Cross-run performance history: fold many run reports into one
//! schema-versioned time series and gate on regressions.
//!
//! A [`History`] groups runs into **series** keyed by what makes runs
//! comparable — command/bench name, dataset, invariant/algorithm, and
//! thread count, all taken from report `meta` — and keeps, per run, the
//! deterministic work counters plus gauges. `bfly report history DIR…`
//! folds every `*.json` report (single [`RunReport`] documents and the
//! `BENCH_*.json` arrays the bench binaries write) into `history.json`,
//! prints per-counter trend lines, and with `--gate` fails when the
//! newest run of any series drifts past a threshold against its
//! predecessor — [`diff_reports`] of the two runs, extended along the
//! time axis.
//!
//! Folding is idempotent: a run whose `source` (file path, plus `#i`
//! for array elements) is already present replaces the old entry
//! instead of appending, so re-running over a directory converges.

use crate::diff::{delta_pct, diff_reports};
use crate::json::Json;
use crate::report::{ReportError, RunReport};

/// Typed failure modes of history ingestion.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryError {
    /// Input text is not valid JSON.
    Json(String),
    /// Valid JSON with the wrong shape, or an unreadable report inside.
    Schema(String),
    /// A history file written by a newer bfly.
    FutureSchema {
        /// Version the document declares.
        found: u64,
        /// Newest version this build can read.
        max: u64,
    },
}

impl std::fmt::Display for HistoryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HistoryError::Json(m) => write!(f, "not valid JSON: {m}"),
            HistoryError::Schema(m) => write!(f, "{m}"),
            HistoryError::FutureSchema { found, max } => write!(
                f,
                "history schema v{found} is newer than this build supports (max v{max})"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

/// One recorded run inside a series.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryRun {
    /// Where the run came from: the report path, with `#index` appended
    /// for elements of a bench-report array.
    pub source: String,
    /// Counter totals (report order).
    pub counters: Vec<(String, u64)>,
    /// Gauge values.
    pub gauges: Vec<(String, f64)>,
}

impl HistoryRun {
    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The run as a report holding only its counters and gauges.
    fn as_report(&self) -> RunReport {
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: Vec::new(),
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            series: Vec::new(),
            spans: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

/// All runs of one comparable configuration, oldest first.
#[derive(Debug, Clone, PartialEq)]
pub struct HistorySeries {
    /// Identity: `command:dataset:algorithm:threads` built from meta.
    pub key: String,
    /// Runs in fold order.
    pub runs: Vec<HistoryRun>,
}

/// One counter's trajectory across a series, for the trend table.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Series the row belongs to.
    pub series: String,
    /// Counter name.
    pub counter: String,
    /// The counter's value in every run, oldest first.
    pub values: Vec<u64>,
}

impl TrendRow {
    /// Relative change of the last run against the first, percent.
    pub fn delta_pct(&self) -> f64 {
        match (self.values.first(), self.values.last()) {
            (Some(&a), Some(&b)) => delta_pct(a as f64, b as f64),
            _ => 0.0,
        }
    }

    /// Unicode sparkline of the trajectory, scaled to its own range.
    pub fn spark(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let (lo, hi) = self
            .values
            .iter()
            .fold((u64::MAX, 0u64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        self.values
            .iter()
            .map(|&v| {
                if hi == lo {
                    BARS[3]
                } else {
                    let t = (v - lo) as f64 / (hi - lo) as f64;
                    BARS[((t * 7.0).round() as usize).min(7)]
                }
            })
            .collect()
    }
}

/// A regression found by [`History::gate`].
#[derive(Debug, Clone, PartialEq)]
pub struct GateFailure {
    /// Series the regression is in.
    pub series: String,
    /// Counter that drifted.
    pub counter: String,
    /// Value in the previous run.
    pub base: u64,
    /// Value in the newest run.
    pub new: u64,
    /// Relative change, percent (`INFINITY` when appearing from zero).
    pub delta_pct: f64,
}

impl std::fmt::Display for GateFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let delta = if self.delta_pct.is_infinite() {
            "new".to_string()
        } else {
            format!("{:+.2}%", self.delta_pct)
        };
        write!(
            f,
            "{}: {} {} -> {} ({delta})",
            self.series, self.counter, self.base, self.new
        )
    }
}

/// Schema-versioned collection of [`HistorySeries`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// All series, in first-seen order.
    pub series: Vec<HistorySeries>,
}

impl History {
    /// Current history document schema version.
    pub const SCHEMA_VERSION: u64 = 1;

    /// Empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Build the series key for a report: `command:dataset:algorithm:`
    /// `threads`, each component pulled from meta (bench reports use
    /// `bench`/`invariant` for the first/third slots; absent components
    /// print as `?`).
    pub fn series_key(meta: &[(String, Json)]) -> String {
        let get = |names: &[&str]| -> String {
            for n in names {
                if let Some((_, v)) = meta.iter().find(|(k, _)| k == n) {
                    return match v {
                        Json::Str(s) => s.clone(),
                        other => other.compact(),
                    };
                }
            }
            "?".to_string()
        };
        format!(
            "{}:{}:{}:{}",
            get(&["command", "bench"]),
            get(&["dataset"]),
            get(&["algorithm", "invariant"]),
            get(&["threads"])
        )
    }

    /// Fold one report in under `source`. Same-source runs are replaced
    /// (idempotent re-folds); new sources append as the newest run.
    pub fn fold_report(&mut self, source: &str, rep: &RunReport) {
        let key = Self::series_key(&rep.meta);
        let run = HistoryRun {
            source: source.to_string(),
            counters: rep.counters.clone(),
            gauges: rep.gauges.clone(),
        };
        let series = if let Some(s) = self.series.iter_mut().find(|s| s.key == key) {
            s
        } else {
            self.series.push(HistorySeries {
                key,
                runs: Vec::new(),
            });
            self.series.last_mut().unwrap()
        };
        if let Some(existing) = series.runs.iter_mut().find(|r| r.source == source) {
            *existing = run;
        } else {
            series.runs.push(run);
        }
    }

    /// Fold a report file's text: either a single [`RunReport`] document
    /// or an array of them (the `BENCH_*.json` shape). Returns how many
    /// runs were folded.
    pub fn fold_json_text(&mut self, source: &str, text: &str) -> Result<usize, HistoryError> {
        let j = Json::parse(text).map_err(HistoryError::Json)?;
        let report_err = |e: ReportError| HistoryError::Schema(format!("{source}: {e}"));
        match &j {
            Json::Arr(items) => {
                let mut n = 0;
                for (i, item) in items.iter().enumerate() {
                    let rep = RunReport::from_json(item).map_err(report_err)?;
                    self.fold_report(&format!("{source}#{i}"), &rep);
                    n += 1;
                }
                Ok(n)
            }
            _ => {
                let rep = RunReport::from_json(&j).map_err(report_err)?;
                self.fold_report(source, &rep);
                Ok(1)
            }
        }
    }

    /// Trend rows: one per (series, counter) where the counter is
    /// nonzero in at least one run, in series order.
    pub fn trend_rows(&self) -> Vec<TrendRow> {
        let mut rows = Vec::new();
        for s in &self.series {
            let mut names: Vec<&str> = Vec::new();
            for r in &s.runs {
                for (n, v) in &r.counters {
                    if *v != 0 && !names.contains(&n.as_str()) {
                        names.push(n);
                    }
                }
            }
            for name in names {
                rows.push(TrendRow {
                    series: s.key.clone(),
                    counter: name.to_string(),
                    values: s.runs.iter().map(|r| r.counter(name)).collect(),
                });
            }
        }
        rows
    }

    /// Regressions of the newest run of each series against its
    /// immediate predecessor: the failures of their [`diff_reports`] —
    /// counters only, both directions, past `threshold_pct`. Series with
    /// fewer than two runs never gate.
    pub fn gate(&self, threshold_pct: f64) -> Vec<GateFailure> {
        let mut fails = Vec::new();
        for s in &self.series {
            let [.., prev, last] = s.runs.as_slice() else {
                continue;
            };
            let d = diff_reports(
                &prev.as_report(),
                &last.as_report(),
                threshold_pct,
                None,
                None,
            );
            fails.extend(d.failures().into_iter().map(|r| GateFailure {
                series: s.key.clone(),
                counter: r.name.clone(),
                base: prev.counter(&r.name),
                new: last.counter(&r.name),
                delta_pct: r.delta_pct,
            }));
        }
        fails
    }

    /// Human table: per series, run count and per-counter trend lines.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if self.series.is_empty() {
            let _ = writeln!(out, "history: empty");
            return out;
        }
        for s in &self.series {
            let _ = writeln!(out, "{}  ({} run(s))", s.key, s.runs.len());
            for row in self.trend_rows().iter().filter(|r| r.series == s.key) {
                let first = row.values.first().copied().unwrap_or(0);
                let last = row.values.last().copied().unwrap_or(0);
                let delta = if row.delta_pct().is_infinite() {
                    "new".to_string()
                } else {
                    format!("{:+.2}%", row.delta_pct())
                };
                let _ = writeln!(
                    out,
                    "  {:<22} {} {:>14} -> {:<14} {delta}",
                    row.counter,
                    row.spark(),
                    first,
                    last
                );
            }
        }
        out
    }

    /// Lower to JSON.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "history_schema_version".to_string(),
                Json::UInt(Self::SCHEMA_VERSION),
            ),
            (
                "series".to_string(),
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("key".to_string(), Json::Str(s.key.clone())),
                                (
                                    "runs".to_string(),
                                    Json::Arr(
                                        s.runs
                                            .iter()
                                            .map(|r| {
                                                Json::Obj(vec![
                                                    (
                                                        "source".to_string(),
                                                        Json::Str(r.source.clone()),
                                                    ),
                                                    (
                                                        "counters".to_string(),
                                                        Json::Obj(
                                                            r.counters
                                                                .iter()
                                                                .map(|(n, v)| {
                                                                    (n.clone(), Json::UInt(*v))
                                                                })
                                                                .collect(),
                                                        ),
                                                    ),
                                                    (
                                                        "gauges".to_string(),
                                                        Json::Obj(
                                                            r.gauges
                                                                .iter()
                                                                .map(|(n, v)| {
                                                                    (n.clone(), Json::Float(*v))
                                                                })
                                                                .collect(),
                                                        ),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serialize as pretty JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse a history document.
    pub fn parse(text: &str) -> Result<History, HistoryError> {
        let j = Json::parse(text).map_err(HistoryError::Json)?;
        let obj = j
            .as_obj()
            .ok_or_else(|| HistoryError::Schema("history: expected object".into()))?;
        let version = obj
            .iter()
            .find(|(n, _)| n == "history_schema_version")
            .and_then(|(_, v)| v.as_u64())
            .ok_or_else(|| {
                HistoryError::Schema("history: missing `history_schema_version`".into())
            })?;
        if version > Self::SCHEMA_VERSION {
            return Err(HistoryError::FutureSchema {
                found: version,
                max: Self::SCHEMA_VERSION,
            });
        }
        let schema = |m: String| HistoryError::Schema(m);
        let series = obj
            .iter()
            .find(|(n, _)| n == "series")
            .map(|(_, v)| v)
            .ok_or_else(|| schema("history: missing `series`".into()))?
            .as_arr()
            .ok_or_else(|| schema("series: expected array".into()))?
            .iter()
            .map(|s| {
                let key = s
                    .get("key")
                    .and_then(|k| k.as_str())
                    .ok_or_else(|| schema("series key: expected string".into()))?
                    .to_string();
                let runs = s
                    .get("runs")
                    .and_then(|r| r.as_arr())
                    .ok_or_else(|| schema("series runs: expected array".into()))?
                    .iter()
                    .map(|r| {
                        let source = r
                            .get("source")
                            .and_then(|v| v.as_str())
                            .ok_or_else(|| schema("run source: expected string".into()))?
                            .to_string();
                        let counters = r
                            .get("counters")
                            .and_then(|v| v.as_obj())
                            .ok_or_else(|| schema("run counters: expected object".into()))?
                            .iter()
                            .map(|(n, v)| {
                                v.as_u64().map(|v| (n.clone(), v)).ok_or_else(|| {
                                    schema(format!("counter `{n}`: expected integer"))
                                })
                            })
                            .collect::<Result<_, _>>()?;
                        let gauges = r
                            .get("gauges")
                            .and_then(|v| v.as_obj())
                            .ok_or_else(|| schema("run gauges: expected object".into()))?
                            .iter()
                            .map(|(n, v)| {
                                v.as_f64()
                                    .map(|v| (n.clone(), v))
                                    .ok_or_else(|| schema(format!("gauge `{n}`: expected number")))
                            })
                            .collect::<Result<_, _>>()?;
                        Ok(HistoryRun {
                            source,
                            counters,
                            gauges,
                        })
                    })
                    .collect::<Result<_, HistoryError>>()?;
                Ok(HistorySeries { key, runs })
            })
            .collect::<Result<_, HistoryError>>()?;
        Ok(History { series })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bench: &str, dataset: &str, threads: u64, wedges: u64) -> RunReport {
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![
                ("bench".to_string(), Json::Str(bench.to_string())),
                ("dataset".to_string(), Json::Str(dataset.to_string())),
                ("invariant".to_string(), Json::Str("Inv2".to_string())),
                ("threads".to_string(), Json::UInt(threads)),
            ],
            counters: vec![
                ("wedges_expanded".to_string(), wedges),
                ("spa_scatters".to_string(), 0),
            ],
            gauges: vec![("par_imbalance".to_string(), 1.0)],
            series: vec![],
            spans: vec![],
            histograms: vec![],
        }
    }

    #[test]
    fn series_key_uses_meta_and_falls_back() {
        let rep = report("fig10", "g", 4, 10);
        assert_eq!(History::series_key(&rep.meta), "fig10:g:Inv2:4");
        assert_eq!(History::series_key(&[]), "?:?:?:?");
    }

    #[test]
    fn folding_groups_by_key_and_is_idempotent() {
        let mut h = History::new();
        h.fold_report("a.json", &report("fig10", "g", 4, 10));
        h.fold_report("b.json", &report("fig10", "g", 4, 12));
        h.fold_report("c.json", &report("fig10", "other", 4, 99));
        assert_eq!(h.series.len(), 2);
        assert_eq!(h.series[0].runs.len(), 2);
        // Re-folding the same source replaces, not appends.
        h.fold_report("b.json", &report("fig10", "g", 4, 13));
        assert_eq!(h.series[0].runs.len(), 2);
        assert_eq!(h.series[0].runs[1].counter("wedges_expanded"), 13);
    }

    #[test]
    fn bench_arrays_fold_per_element() {
        let arr = Json::Arr(vec![
            report("fig10", "g", 1, 5).to_json(),
            report("fig10", "g", 2, 6).to_json(),
        ])
        .pretty();
        let mut h = History::new();
        let n = h.fold_json_text("BENCH_fig10.json", &arr).unwrap();
        assert_eq!(n, 2);
        assert_eq!(h.series.len(), 2, "different thread counts split series");
        assert_eq!(h.series[0].runs[0].source, "BENCH_fig10.json#0");
    }

    #[test]
    fn json_round_trips() {
        let mut h = History::new();
        h.fold_report("a.json", &report("fig10", "g", 4, 10));
        h.fold_report("b.json", &report("fig10", "g", 4, 11));
        let back = History::parse(&h.to_json_string()).unwrap();
        assert_eq!(h, back);
    }

    #[test]
    fn future_history_schema_is_rejected() {
        let doc = r#"{"history_schema_version": 99, "series": []}"#;
        assert!(matches!(
            History::parse(doc),
            Err(HistoryError::FutureSchema { found: 99, .. })
        ));
        assert!(matches!(
            History::parse("not json {"),
            Err(HistoryError::Json(_))
        ));
    }

    #[test]
    fn gate_passes_identical_and_fails_inflated() {
        let mut h = History::new();
        h.fold_report("r1.json", &report("fig10", "g", 4, 1000));
        h.fold_report("r2.json", &report("fig10", "g", 4, 1000));
        assert!(h.gate(10.0).is_empty(), "identical runs must pass");
        h.fold_report("r3.json", &report("fig10", "g", 4, 1200));
        let fails = h.gate(10.0);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].counter, "wedges_expanded");
        assert!((fails[0].delta_pct - 20.0).abs() < 1e-9);
        assert!(fails[0].to_string().contains("wedges_expanded"));
        // Within threshold passes; only the last two runs are compared.
        assert!(h.gate(25.0).is_empty());
    }

    #[test]
    fn single_run_series_never_gates() {
        let mut h = History::new();
        h.fold_report("r1.json", &report("fig10", "g", 4, 1000));
        assert!(h.gate(0.0).is_empty());
    }

    #[test]
    fn counter_appearing_from_zero_gates() {
        let mut h = History::new();
        h.fold_report("r1.json", &report("fig10", "g", 4, 1000));
        let mut inflated = report("fig10", "g", 4, 1000);
        inflated.counters[1].1 = 7; // spa_scatters 0 -> 7
        h.fold_report("r2.json", &inflated);
        let fails = h.gate(1e9);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].delta_pct.is_infinite());
    }

    #[test]
    fn trend_table_shows_sparklines() {
        let mut h = History::new();
        for (i, w) in [(1, 100u64), (2, 150), (3, 120)] {
            h.fold_report(&format!("r{i}.json"), &report("fig10", "g", 4, w));
        }
        let rows = h.trend_rows();
        assert_eq!(rows.len(), 1, "all-zero counters stay out of the table");
        assert_eq!(rows[0].values, vec![100, 150, 120]);
        assert_eq!(rows[0].spark().chars().count(), 3);
        let table = h.render_table();
        assert!(table.contains("fig10:g:Inv2:4"));
        assert!(table.contains("wedges_expanded"));
        assert!(History::new().render_table().contains("empty"));
    }
}
