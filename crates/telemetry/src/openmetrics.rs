//! OpenMetrics / Prometheus text exposition, dependency-free.
//!
//! [`to_openmetrics`] renders a [`RunReport`] in the OpenMetrics text
//! format: `# TYPE` metadata, `_total`-suffixed counters, labeled
//! gauges for span aggregates, full cumulative-`le`
//! histogram families, and the mandatory `# EOF` terminator — what a
//! Prometheus scrape would return.
//!
//! The inverse direction ships too: [`parse_exposition`] lexes the text
//! back into typed samples and [`validate_exposition`] enforces the
//! format's structural rules (declared families, counter naming,
//! cumulative buckets). Both exist so the exposition is testable
//! offline — the round-trip test in `tests/concurrent_recording.rs`
//! exports a board-attached recorder's report and checks the counters
//! against it.
//!
//! All metric names are prefixed `bfly_` and sanitized (`.` → `_`), so
//! `mem.peak_bytes` scrapes as `bfly_mem_peak_bytes`.

use crate::hist::Histogram;
use crate::report::RunReport;

/// Map an internal metric name onto the exposition charset
/// (`[a-zA-Z0-9_:]`, not starting with a digit) and prefix `bfly_`.
fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 5);
    out.push_str("bfly_");
    for ch in raw.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Exposition-format float: `+Inf`/`-Inf`/`NaN` spelled out, integers
/// without a fraction.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn histogram_lines(out: &mut String, name: &str, h: &Histogram) {
    use std::fmt::Write;
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cum = 0u64;
    for (b, &c) in h.bucket_counts().iter().enumerate() {
        if c == 0 {
            continue;
        }
        cum += c;
        let (_, hi) = Histogram::bucket_bounds(b);
        let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", h.sum());
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Render a report as OpenMetrics text exposition. Deterministic: the
/// output order follows the report's own section order.
pub fn to_openmetrics(rep: &RunReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for (n, v) in &rep.counters {
        let name = metric_name(n);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name}_total {v}");
    }
    for (n, v) in &rep.gauges {
        let name = metric_name(n);
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {}", fmt_value(*v));
    }
    let span_totals = rep.span_totals();
    if !span_totals.is_empty() {
        let _ = writeln!(out, "# TYPE bfly_span_seconds gauge");
        for (n, secs, _) in &span_totals {
            let _ = writeln!(
                out,
                "bfly_span_seconds{{span=\"{}\"}} {}",
                escape_label(n),
                fmt_value(*secs)
            );
        }
        let _ = writeln!(out, "# TYPE bfly_span_runs gauge");
        for (n, _, count) in &span_totals {
            let _ = writeln!(
                out,
                "bfly_span_runs{{span=\"{}\"}} {count}",
                escape_label(n)
            );
        }
    }
    for (n, h) in &rep.histograms {
        let name = metric_name(n);
        histogram_lines(&mut out, &name, h);
        // The log-bucketed histogram keeps exact extremes the buckets
        // can't express; export them as companion gauges.
        if let Some(min) = h.min() {
            let _ = writeln!(out, "# TYPE {name}_min gauge");
            let _ = writeln!(out, "{name}_min {min}");
            let _ = writeln!(out, "# TYPE {name}_max gauge");
            let _ = writeln!(out, "{name}_max {}", h.max());
        }
    }
    out.push_str("# EOF\n");
    out
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Full sample name (including `_total`/`_bucket`-style suffixes).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Parsed value.
    pub value: f64,
}

/// Parsed exposition: `# TYPE` declarations plus all samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// `(family, type)` in declaration order.
    pub types: Vec<(String, String)>,
    /// All samples in source order.
    pub samples: Vec<Sample>,
    /// Whether the mandatory `# EOF` terminator was present.
    pub saw_eof: bool,
}

impl Exposition {
    /// Value of the unlabeled sample `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.is_empty())
            .map(|s| s.value)
    }

    /// Value of a sample with one specific label.
    pub fn labeled_value(&self, name: &str, key: &str, label: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.name == name && s.labels.iter().any(|(k, v)| k == key && v == label))
            .map(|s| s.value)
    }

    /// Declared type of a family, if any.
    pub fn family_type(&self, family: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(f, _)| f == family)
            .map(|(_, t)| t.as_str())
    }
}

fn valid_metric_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn parse_number(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s.parse::<f64>().map_err(|_| format!("bad number `{s}`")),
    }
}

/// Parse label pairs from the text between `{` and `}`.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let mut labels = Vec::new();
    let mut rest = s;
    loop {
        rest = rest.trim_start_matches(',');
        if rest.is_empty() {
            return Ok(labels);
        }
        let eq = rest.find('=').ok_or("label missing `=`")?;
        let key = rest[..eq].trim().to_string();
        if !valid_metric_name(&key) {
            return Err(format!("bad label name `{key}`"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err("label value must be quoted".into());
        }
        // Scan the quoted value honoring backslash escapes.
        let mut value = String::new();
        let mut chars = after[1..].char_indices();
        let mut end = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, 'n')) => value.push('\n'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, '\\')) => value.push('\\'),
                    _ => return Err("bad escape in label value".into()),
                },
                '"' => {
                    end = Some(i);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = end.ok_or("unterminated label value")?;
        labels.push((key, value));
        rest = &after[1 + end + 1..];
    }
}

/// Lex exposition text into [`Exposition`]. Fails on malformed lines;
/// structural rules are [`validate_exposition`]'s job.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if comment == "EOF" {
                exp.saw_eof = true;
            } else if let Some(decl) = comment.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let family = parts.next().ok_or_else(|| err("TYPE: no family".into()))?;
                let ty = parts.next().ok_or_else(|| err("TYPE: no type".into()))?;
                if !valid_metric_name(family) {
                    return Err(err(format!("bad family name `{family}`")));
                }
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return Err(err(format!("unknown metric type `{ty}`")));
                }
                exp.types.push((family.to_string(), ty.to_string()));
            }
            // Other comments (# HELP, # UNIT, free text) are ignored.
            continue;
        }
        if exp.saw_eof {
            return Err(err("content after # EOF".into()));
        }
        // Sample line: name[{labels}] value
        let (name, labels, value_str) = if let Some(brace) = line.find('{') {
            let close = line.rfind('}').ok_or_else(|| err("unclosed `{`".into()))?;
            (
                &line[..brace],
                parse_labels(&line[brace + 1..close]).map_err(err)?,
                line[close + 1..].trim(),
            )
        } else {
            let sp = line
                .find(char::is_whitespace)
                .ok_or_else(|| err("sample has no value".into()))?;
            (&line[..sp], Vec::new(), line[sp..].trim())
        };
        if !valid_metric_name(name) {
            return Err(err(format!("bad metric name `{name}`")));
        }
        // A timestamp may follow the value; take the first token.
        let value_tok = value_str
            .split_whitespace()
            .next()
            .ok_or_else(|| err("sample has no value".into()))?;
        exp.samples.push(Sample {
            name: name.to_string(),
            labels,
            value: parse_number(value_tok).map_err(err)?,
        });
    }
    Ok(exp)
}

/// The family a sample belongs to, given the declared families.
fn family_of<'a>(exp: &'a Exposition, sample: &str) -> Option<&'a str> {
    exp.types
        .iter()
        .map(|(f, _)| f.as_str())
        .filter(|f| {
            sample == *f
                || sample
                    .strip_prefix(*f)
                    .is_some_and(|rest| matches!(rest, "_total" | "_bucket" | "_sum" | "_count"))
        })
        // Longest match wins: `bfly_x_min` must bind to family
        // `bfly_x_min`, not to `bfly_x` with an unknown suffix.
        .max_by_key(|f| f.len())
}

/// Enforce the structural rules of the exposition format:
///
/// 1. the document ends with `# EOF`;
/// 2. every sample belongs to a declared `# TYPE` family, declared once;
/// 3. counter samples are named `<family>_total`;
/// 4. histogram families expose `_bucket` (with an `le` label),
///    `_sum`, and `_count`; bucket counts are cumulative
///    (non-decreasing in `le` order), the last bucket is `le="+Inf"`,
///    and its value equals `_count`.
pub fn validate_exposition(text: &str) -> Result<(), String> {
    let exp = parse_exposition(text)?;
    if !exp.saw_eof {
        return Err("missing `# EOF` terminator".into());
    }
    for (i, (family, _)) in exp.types.iter().enumerate() {
        if exp.types[..i].iter().any(|(f, _)| f == family) {
            return Err(format!("family `{family}` declared more than once"));
        }
    }
    for s in &exp.samples {
        let family = family_of(&exp, &s.name)
            .ok_or_else(|| format!("sample `{}` has no # TYPE declaration", s.name))?;
        let ty = exp.family_type(family).unwrap_or("untyped");
        if ty == "counter" && s.name != format!("{family}_total") {
            return Err(format!(
                "counter family `{family}` has sample `{}` (want `{family}_total`)",
                s.name
            ));
        }
        if ty == "histogram"
            && s.name == format!("{family}_bucket")
            && !s.labels.iter().any(|(k, _)| k == "le")
        {
            return Err(format!("histogram bucket of `{family}` lacks `le`"));
        }
    }
    // Per-histogram cumulative checks.
    for (family, ty) in &exp.types {
        if ty != "histogram" {
            continue;
        }
        let bucket_name = format!("{family}_bucket");
        let buckets: Vec<&Sample> = exp
            .samples
            .iter()
            .filter(|s| s.name == bucket_name)
            .collect();
        if buckets.is_empty() {
            return Err(format!("histogram `{family}` has no buckets"));
        }
        let mut prev = f64::NEG_INFINITY;
        for b in &buckets {
            if b.value < prev {
                return Err(format!("histogram `{family}` buckets not cumulative"));
            }
            prev = b.value;
        }
        let last = buckets.last().unwrap();
        let inf = last.labels.iter().any(|(k, v)| k == "le" && v == "+Inf");
        if !inf {
            return Err(format!(
                "histogram `{family}` last bucket must be le=\"+Inf\""
            ));
        }
        let count = exp
            .value(&format!("{family}_count"))
            .ok_or_else(|| format!("histogram `{family}` missing `_count`"))?;
        exp.value(&format!("{family}_sum"))
            .ok_or_else(|| format!("histogram `{family}` missing `_sum`"))?;
        if last.value != count {
            return Err(format!(
                "histogram `{family}`: +Inf bucket {} != count {count}",
                last.value
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::span::SpanRow;
    use crate::{Counter, InMemoryRecorder, Recorder};

    fn sample_report() -> RunReport {
        let mut rec = InMemoryRecorder::new();
        rec.incr(Counter::WedgesExpanded, 1234);
        rec.incr(Counter::ParChunks, 4);
        rec.gauge("par_imbalance", 1.25);
        rec.gauge("mem.peak_bytes", 4096.0);
        rec.span_enter("count");
        rec.span_enter("chunk");
        rec.span_exit("chunk");
        rec.span_exit("count");
        for v in [3u64, 9, 200, 4000] {
            rec.hist_record("chunk_us", v);
        }
        rec.report(vec![("dataset".to_string(), Json::Str("g".to_string()))])
    }

    #[test]
    fn exposition_is_valid_and_terminated() {
        let text = to_openmetrics(&sample_report());
        assert!(text.ends_with("# EOF\n"), "{text}");
        validate_exposition(&text).unwrap();
    }

    #[test]
    fn values_round_trip_through_the_parser() {
        let rep = sample_report();
        let exp = parse_exposition(&to_openmetrics(&rep)).unwrap();
        assert_eq!(exp.value("bfly_wedges_expanded_total"), Some(1234.0));
        assert_eq!(exp.value("bfly_par_chunks_total"), Some(4.0));
        assert_eq!(exp.value("bfly_par_imbalance"), Some(1.25));
        // Dotted names sanitize.
        assert_eq!(exp.value("bfly_mem_peak_bytes"), Some(4096.0));
        assert_eq!(
            exp.labeled_value("bfly_span_runs", "span", "chunk"),
            Some(1.0)
        );
        assert_eq!(
            exp.labeled_value("bfly_span_runs", "span", "count"),
            Some(1.0)
        );
        assert_eq!(exp.value("bfly_chunk_us_count"), Some(4.0));
        assert_eq!(exp.value("bfly_chunk_us_sum"), Some(4212.0));
        assert_eq!(exp.value("bfly_chunk_us_min"), Some(3.0));
        assert_eq!(exp.value("bfly_chunk_us_max"), Some(4000.0));
        assert_eq!(
            exp.labeled_value("bfly_chunk_us_bucket", "le", "+Inf"),
            Some(4.0)
        );
        assert_eq!(exp.family_type("bfly_wedges_expanded"), Some("counter"));
        assert_eq!(exp.family_type("bfly_chunk_us"), Some("histogram"));
    }

    #[test]
    fn buckets_are_cumulative_with_inclusive_upper_bounds() {
        let mut h = crate::Histogram::new();
        h.record(1); // bucket le="1"
        h.record(2); // bucket le="3"
        h.record(3); // bucket le="3"
        let rep = RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![],
            counters: vec![],
            gauges: vec![],
            series: vec![],
            spans: vec![],
            histograms: vec![("w".to_string(), h)],
        };
        let exp = parse_exposition(&to_openmetrics(&rep)).unwrap();
        assert_eq!(exp.labeled_value("bfly_w_bucket", "le", "1"), Some(1.0));
        assert_eq!(exp.labeled_value("bfly_w_bucket", "le", "3"), Some(3.0));
        assert_eq!(exp.labeled_value("bfly_w_bucket", "le", "+Inf"), Some(3.0));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(validate_exposition("bfly_x_total 1\n").is_err(), "no EOF");
        assert!(
            validate_exposition("bfly_x_total 1\n# EOF\n").is_err(),
            "no TYPE"
        );
        assert!(
            validate_exposition("# TYPE bfly_x counter\nbfly_x 1\n# EOF\n").is_err(),
            "counter without _total"
        );
        assert!(
            validate_exposition(
                "# TYPE bfly_h histogram\n\
                 bfly_h_bucket{le=\"1\"} 5\n\
                 bfly_h_bucket{le=\"+Inf\"} 3\n\
                 bfly_h_sum 9\nbfly_h_count 3\n# EOF\n"
            )
            .is_err(),
            "non-cumulative buckets"
        );
        assert!(validate_exposition("9bad_name 1\n# EOF\n").is_err(), "name");
        assert!(
            validate_exposition("# TYPE bfly_x gauge\nbfly_x nope\n# EOF\n").is_err(),
            "value"
        );
    }

    #[test]
    fn label_escapes_round_trip() {
        let rep = RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![],
            counters: vec![],
            gauges: vec![],
            series: vec![],
            spans: vec![SpanRow {
                name: "a\"b\\c".to_string(),
                thread: 0,
                depth: 0,
                start_us: 0,
                dur_us: 1_000_000,
                counters: vec![],
            }],
            histograms: vec![],
        };
        let text = to_openmetrics(&rep);
        validate_exposition(&text).unwrap();
        let exp = parse_exposition(&text).unwrap();
        assert_eq!(
            exp.labeled_value("bfly_span_seconds", "span", "a\"b\\c"),
            Some(1.0)
        );
    }
}
