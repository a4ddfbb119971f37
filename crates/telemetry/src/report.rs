//! Schema-versioned machine-readable run reports.
//!
//! Schema history:
//! - **v1** (PR 1): meta, counters, gauges, flat phases, series.
//! - **v2**: adds `spans` (hierarchical, per-thread timed spans with
//!   counter deltas) and `histograms` (log-bucketed value distributions).
//! - **v3** (this layer): drops `phases` — every timed region is a span.
//!
//! Older documents still parse: absent sections come back empty, and
//! each v1/v2 `phases` row comes back as a track-0, depth-0 span of its
//! total, so saved reports keep their timing. Documents claiming a
//! *newer* schema are rejected with a clear error instead of a confusing
//! field-level failure.

use crate::hist::Histogram;
use crate::json::Json;
use crate::span::SpanRow;

/// Typed failure modes of report ingestion, so callers (the CLI's
/// `report show|diff|flame`) can distinguish "this isn't JSON at all"
/// from "valid JSON with the wrong shape" from "produced by a newer
/// bfly" without string-matching error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// The input text is not valid JSON (lexer/parser failure).
    Json(String),
    /// Valid JSON, but not a report of any supported schema: a missing
    /// or ill-typed field.
    Schema(String),
    /// A well-formed report claiming a schema version newer than this
    /// build understands.
    FutureSchema {
        /// Version the document declares.
        found: u64,
        /// Newest version this build can read.
        max: u64,
    },
}

impl std::fmt::Display for ReportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReportError::Json(msg) => write!(f, "not valid JSON: {msg}"),
            ReportError::Schema(msg) => write!(f, "{msg}"),
            ReportError::FutureSchema { found, max } => write!(
                f,
                "report schema v{found} is newer than this build supports \
                 (max v{max}); upgrade bfly to read it"
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// Schema-versioned, machine-readable record of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Format version; bump when the shape of the JSON changes.
    pub schema_version: u64,
    /// Free-form run context: dataset, invariant, threads, scale, …
    pub meta: Vec<(String, Json)>,
    /// `(name, value)` for every [`crate::Counter`], in
    /// [`crate::Counter::ALL`] order.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins point measurements.
    pub gauges: Vec<(String, f64)>,
    /// Named value sequences (per-round, per-chunk, …).
    pub series: Vec<(String, Vec<f64>)>,
    /// Finished spans across all threads, in merge order (v2+).
    pub spans: Vec<SpanRow>,
    /// Named value distributions (v2+).
    pub histograms: Vec<(String, Histogram)>,
}

impl RunReport {
    /// Current report schema version.
    pub const SCHEMA_VERSION: u64 = 3;

    /// Value of a counter by report name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The named histogram, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Distinct span track ids, ascending (0 = main thread).
    pub fn span_threads(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Total duration by span name, seconds, in first-seen order.
    pub fn span_totals(&self) -> Vec<(String, f64, u64)> {
        let mut rows: Vec<(String, f64, u64)> = Vec::new();
        for s in &self.spans {
            if let Some(row) = rows.iter_mut().find(|(n, _, _)| *n == s.name) {
                row.1 += s.dur_us as f64 / 1e6;
                row.2 += 1;
            } else {
                rows.push((s.name.clone(), s.dur_us as f64 / 1e6, 1));
            }
        }
        rows
    }

    /// Lower the report to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::UInt(self.schema_version)),
            ("meta".into(), Json::Obj(self.meta.clone())),
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "series".into(),
                Json::Obj(
                    self.series
                        .iter()
                        .map(|(n, v)| {
                            (
                                n.clone(),
                                Json::Arr(v.iter().map(|&x| Json::Float(x)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("thread".into(), Json::UInt(s.thread as u64)),
                                ("depth".into(), Json::UInt(s.depth as u64)),
                                ("start_us".into(), Json::UInt(s.start_us)),
                                ("dur_us".into(), Json::UInt(s.dur_us)),
                                (
                                    "counters".into(),
                                    Json::Obj(
                                        s.counters
                                            .iter()
                                            .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstruct a report from [`RunReport::to_json`] output. Accepts
    /// schemas v1 to v3 (see the module docs for what older ones map
    /// to); documents
    /// declaring a newer schema fail with
    /// [`ReportError::FutureSchema`], ill-shaped ones with
    /// [`ReportError::Schema`].
    pub fn from_json(j: &Json) -> Result<RunReport, ReportError> {
        let obj = j
            .as_obj()
            .ok_or_else(|| ReportError::Schema("report: expected object".into()))?;
        let version = obj
            .iter()
            .find(|(n, _)| n == "schema_version")
            .map(|(_, v)| v)
            .ok_or_else(|| ReportError::Schema("report: missing field `schema_version`".into()))?
            .as_u64()
            .ok_or_else(|| {
                ReportError::Schema("schema_version: expected unsigned integer".into())
            })?;
        if version > RunReport::SCHEMA_VERSION {
            return Err(ReportError::FutureSchema {
                found: version,
                max: RunReport::SCHEMA_VERSION,
            });
        }
        Self::sections_from_obj(obj, version).map_err(ReportError::Schema)
    }

    /// Field-level decoding shared by every supported schema version;
    /// `String` errors become [`ReportError::Schema`] at the boundary.
    fn sections_from_obj(obj: &[(String, Json)], schema_version: u64) -> Result<RunReport, String> {
        let field = |name: &str| -> Result<&Json, String> {
            obj.iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("report: missing field `{name}`"))
        };
        let meta = field("meta")?
            .as_obj()
            .ok_or("meta: expected object")?
            .to_vec();
        let counters = field("counters")?
            .as_obj()
            .ok_or("counters: expected object")?
            .iter()
            .map(|(n, v)| {
                v.as_u64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("counter `{n}`: expected unsigned integer"))
            })
            .collect::<Result<_, _>>()?;
        let gauges = field("gauges")?
            .as_obj()
            .ok_or("gauges: expected object")?
            .iter()
            .map(|(n, v)| {
                v.as_f64()
                    .map(|v| (n.clone(), v))
                    .ok_or_else(|| format!("gauge `{n}`: expected number"))
            })
            .collect::<Result<_, _>>()?;
        let series = field("series")?
            .as_obj()
            .ok_or("series: expected object")?
            .iter()
            .map(|(n, v)| {
                let vals = v
                    .as_arr()
                    .ok_or_else(|| format!("series `{n}`: expected array"))?
                    .iter()
                    .map(|x| {
                        x.as_f64()
                            .ok_or_else(|| format!("series `{n}`: expected numbers"))
                    })
                    .collect::<Result<_, _>>()?;
                Ok((n.clone(), vals))
            })
            .collect::<Result<_, String>>()?;
        // v1/v2 `phases`: each row's total becomes a top-level span on
        // track 0, ahead of the document's own spans.
        let mut spans: Vec<SpanRow> = match field("phases") {
            Err(_) => Vec::new(),
            Ok(v) => v
                .as_arr()
                .ok_or("phases: expected array")?
                .iter()
                .map(|p| {
                    let get = |k: &str| p.get(k).ok_or_else(|| format!("phase: missing `{k}`"));
                    let seconds = get("seconds")?.as_f64().ok_or("phase seconds: number")?;
                    Ok(SpanRow {
                        name: get("name")?
                            .as_str()
                            .ok_or("phase name: expected string")?
                            .to_string(),
                        thread: 0,
                        depth: 0,
                        start_us: 0,
                        dur_us: (seconds * 1e6).round() as u64,
                        counters: Vec::new(),
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        // v2 sections: absent in v1 documents, default to empty.
        let own_spans: Vec<SpanRow> = match field("spans") {
            Err(_) => Vec::new(),
            Ok(v) => v
                .as_arr()
                .ok_or("spans: expected array")?
                .iter()
                .map(|s| {
                    let get = |k: &str| s.get(k).ok_or_else(|| format!("span: missing `{k}`"));
                    let counters = get("counters")?
                        .as_obj()
                        .ok_or("span counters: expected object")?
                        .iter()
                        .map(|(n, v)| {
                            v.as_u64()
                                .map(|v| (n.clone(), v))
                                .ok_or_else(|| format!("span counter `{n}`: integer"))
                        })
                        .collect::<Result<_, _>>()?;
                    Ok(SpanRow {
                        name: get("name")?
                            .as_str()
                            .ok_or("span name: expected string")?
                            .to_string(),
                        thread: get("thread")?.as_u64().ok_or("span thread: integer")? as u32,
                        depth: get("depth")?.as_u64().ok_or("span depth: integer")? as u32,
                        start_us: get("start_us")?.as_u64().ok_or("span start_us: integer")?,
                        dur_us: get("dur_us")?.as_u64().ok_or("span dur_us: integer")?,
                        counters,
                    })
                })
                .collect::<Result<_, String>>()?,
        };
        spans.extend(own_spans);
        let histograms = match field("histograms") {
            Err(_) => Vec::new(),
            Ok(v) => v
                .as_obj()
                .ok_or("histograms: expected object")?
                .iter()
                .map(|(n, h)| Histogram::from_json(h).map(|h| (n.clone(), h)))
                .collect::<Result<_, String>>()?,
        };
        Ok(RunReport {
            schema_version,
            meta,
            counters,
            gauges,
            series,
            spans,
            histograms,
        })
    }

    /// Serialize as pretty-printed JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }

    /// Parse JSON text produced by [`RunReport::to_json_string`].
    /// Non-JSON input fails with [`ReportError::Json`].
    pub fn parse(text: &str) -> Result<RunReport, ReportError> {
        RunReport::from_json(&Json::parse(text).map_err(ReportError::Json)?)
    }

    /// Human-oriented table for `--stats` / `report show`: all meta,
    /// non-zero counters, every gauge, span aggregate, histogram summary,
    /// and series.
    pub fn render_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "run report (schema v{})", self.schema_version);
        for (k, v) in &self.meta {
            let _ = writeln!(out, "  {k:<22} {}", v.compact());
        }
        for (n, v) in &self.counters {
            if *v != 0 {
                let _ = writeln!(out, "  {n:<22} {v}");
            }
        }
        for (n, v) in &self.gauges {
            let _ = writeln!(out, "  {n:<22} {v:.4}");
        }
        let threads = self.span_threads();
        if !self.spans.is_empty() {
            let _ = writeln!(
                out,
                "  spans {:<16} {} across {} thread(s)",
                "",
                self.spans.len(),
                threads.len()
            );
        }
        for (name, secs, count) in self.span_totals() {
            let _ = writeln!(out, "  span  {name:<16} {secs:>12.6}s  x{count}");
        }
        for (n, h) in &self.histograms {
            let _ = writeln!(out, "  hist  {:<16} {}", n, h.summary());
        }
        for (n, v) in &self.series {
            let shown: Vec<String> = v.iter().take(8).map(|x| format!("{x}")).collect();
            let ell = if v.len() > 8 { ", …" } else { "" };
            let _ = writeln!(
                out,
                "  series {:<15} [{}{}] ({} values)",
                n,
                shown.join(", "),
                ell,
                v.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut h = Histogram::new();
        h.record(3);
        h.record(300);
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![("dataset".into(), Json::Str("k33".into()))],
            counters: vec![("wedges_expanded".into(), 42)],
            gauges: vec![("par_imbalance".into(), 1.25)],
            series: vec![("rounds".into(), vec![4.0, 2.0])],
            spans: vec![SpanRow {
                name: "chunk".into(),
                thread: 1,
                depth: 0,
                start_us: 10,
                dur_us: 90,
                counters: vec![("wedges_expanded".into(), 42)],
            }],
            histograms: vec![("chunk_us".into(), h)],
        }
    }

    #[test]
    fn v3_round_trips() {
        let rep = sample();
        let back = RunReport::parse(&rep.to_json_string()).unwrap();
        assert_eq!(rep, back);
    }

    #[test]
    fn v1_documents_still_parse() {
        let v1 = r#"{
            "schema_version": 1,
            "meta": {"dataset": "k33"},
            "counters": {"wedges_expanded": 42},
            "gauges": {},
            "phases": [{"name": "count", "seconds": 0.5, "count": 1}],
            "series": {}
        }"#;
        let rep = RunReport::parse(v1).unwrap();
        assert_eq!(rep.schema_version, 1);
        assert_eq!(rep.counter("wedges_expanded"), Some(42));
        let phase = SpanRow {
            name: "count".into(),
            thread: 0,
            depth: 0,
            start_us: 0,
            dur_us: 500_000,
            counters: vec![],
        };
        assert_eq!(rep.spans, vec![phase]);
        assert!(rep.histograms.is_empty());
    }

    #[test]
    fn future_schema_is_rejected_clearly() {
        let v99 = r#"{"schema_version": 99, "meta": {}, "counters": {},
                      "gauges": {}, "phases": [], "series": {}}"#;
        let err = RunReport::parse(v99).unwrap_err();
        assert_eq!(
            err,
            ReportError::FutureSchema {
                found: 99,
                max: RunReport::SCHEMA_VERSION
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("v99"), "error should name the version: {msg}");
        assert!(msg.contains("newer"), "error should say why: {msg}");
    }

    #[test]
    fn error_classes_are_distinguishable() {
        // Not JSON at all.
        assert!(matches!(
            RunReport::parse("not json {"),
            Err(ReportError::Json(_))
        ));
        // JSON, wrong shape.
        assert!(matches!(
            RunReport::parse("[1, 2, 3]"),
            Err(ReportError::Schema(_))
        ));
        assert!(matches!(
            RunReport::parse(r#"{"schema_version": "two"}"#),
            Err(ReportError::Schema(_))
        ));
    }

    #[test]
    fn span_helpers_aggregate() {
        let rep = sample();
        assert_eq!(rep.span_threads(), vec![1]);
        let totals = rep.span_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].0, "chunk");
        assert_eq!(totals[0].2, 1);
        assert!((totals[0].1 - 90e-6).abs() < 1e-12);
    }

    #[test]
    fn table_mentions_spans_and_hists() {
        let t = sample().render_table();
        assert!(t.contains("span  chunk"));
        assert!(t.contains("hist  chunk_us"));
    }
}
