//! Trace exporters: Chrome Trace Event JSON and a self-contained HTML
//! flame view.
//!
//! Both render the `spans` section of a [`RunReport`]. The Chrome
//! format (loadable in `chrome://tracing` or Perfetto) maps each span
//! thread to a track via "M" (metadata) thread-name events plus "X"
//! (complete) events; the flame view is a single dependency-free HTML
//! file with spans laid out as positioned blocks per thread lane —
//! nothing to install on the machine that opens it.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::RunReport;

impl RunReport {
    /// Lower the report's spans to Chrome Trace Event Format.
    pub fn to_chrome_trace(&self) -> Json {
        let mut events: Vec<Json> = Vec::new();
        events.push(meta_event(0, "process_name", "bfly"));
        for tid in self.span_threads() {
            let name = thread_label(tid);
            events.push(meta_event(tid, "thread_name", &name));
        }
        for s in &self.spans {
            let args: Vec<(String, Json)> = s
                .counters
                .iter()
                .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                .collect();
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(s.thread as u64)),
                ("ts".into(), Json::UInt(s.start_us)),
                ("dur".into(), Json::UInt(s.dur_us)),
                ("args".into(), Json::Obj(args)),
            ]));
        }
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }

    /// Chrome trace as pretty JSON text.
    pub fn to_chrome_trace_string(&self) -> String {
        self.to_chrome_trace().pretty()
    }

    /// Render a dependency-free HTML flame view of the span tree.
    pub fn to_flame_html(&self) -> String {
        const ROW_PX: u32 = 22;
        let total_us = self
            .spans
            .iter()
            .map(|s| s.start_us + s.dur_us)
            .max()
            .unwrap_or(0)
            .max(1);

        let mut out = String::new();
        out.push_str(
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>bfly flame view</title>\n",
        );
        out.push_str(
            "<style>\n\
             body { font: 13px/1.4 system-ui, sans-serif; margin: 1rem; background: #fafafa; }\n\
             h1 { font-size: 1.1rem; }\n\
             table { border-collapse: collapse; margin: 0.5rem 0 1rem; }\n\
             td, th { border: 1px solid #ccc; padding: 2px 8px; text-align: left; }\n\
             .lane { position: relative; background: #fff; border: 1px solid #ddd;\n\
                     margin-bottom: 0.75rem; overflow: hidden; }\n\
             .lane h2 { font-size: 0.8rem; margin: 2px 6px; color: #555; }\n\
             .span { position: absolute; height: 20px; box-sizing: border-box;\n\
                     border: 1px solid rgba(0,0,0,0.25); border-radius: 2px;\n\
                     font-size: 11px; overflow: hidden; white-space: nowrap;\n\
                     padding: 1px 3px; color: #102; }\n\
             </style></head><body>\n",
        );
        let _ = writeln!(out, "<h1>bfly flame view</h1>");
        if !self.meta.is_empty() {
            out.push_str("<table><tr><th>meta</th><th>value</th></tr>\n");
            for (k, v) in &self.meta {
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td></tr>",
                    escape(k),
                    escape(&v.compact())
                );
            }
            out.push_str("</table>\n");
        }
        if !self.histograms.is_empty() {
            out.push_str("<table><tr><th>histogram</th><th>summary</th></tr>\n");
            for (n, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td></tr>",
                    escape(n),
                    escape(&h.summary())
                );
            }
            out.push_str("</table>\n");
        }
        let _ = writeln!(
            out,
            "<p>{} span(s), {} µs total timeline</p>",
            self.spans.len(),
            total_us
        );
        for tid in self.span_threads() {
            let lane: Vec<_> = self.spans.iter().filter(|s| s.thread == tid).collect();
            let depth = lane.iter().map(|s| s.depth).max().unwrap_or(0) + 1;
            let _ = writeln!(
                out,
                "<div class=\"lane\" style=\"height: {}px\">\n<h2>{}</h2>",
                depth * ROW_PX + 24,
                escape(&thread_label(tid))
            );
            for s in lane {
                let left = s.start_us as f64 / total_us as f64 * 100.0;
                let width = (s.dur_us.max(1)) as f64 / total_us as f64 * 100.0;
                let top = 24 + s.depth * ROW_PX;
                let mut tip = format!("{} — {} µs", s.name, s.dur_us);
                for (n, v) in &s.counters {
                    let _ = write!(tip, "\n{n}: {v}");
                }
                let _ = writeln!(
                    out,
                    "<div class=\"span\" style=\"left: {left:.4}%; width: {width:.4}%; \
                     top: {top}px; background: hsl({hue}, 70%, 75%)\" title=\"{tip}\">{name}</div>",
                    hue = hue(&s.name),
                    tip = escape(&tip),
                    name = escape(&s.name),
                );
            }
            out.push_str("</div>\n");
        }
        out.push_str("</body></html>\n");
        out
    }
}

/// Track label for a span thread id.
fn thread_label(tid: u32) -> String {
    if tid == 0 {
        "main".to_string()
    } else {
        format!("worker-{tid}")
    }
}

/// Chrome "M" metadata event setting a process/thread name.
fn meta_event(tid: u32, kind: &str, name: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(kind.into())),
        ("ph".into(), Json::Str("M".into())),
        ("pid".into(), Json::UInt(1)),
        ("tid".into(), Json::UInt(tid as u64)),
        (
            "args".into(),
            Json::Obj(vec![("name".into(), Json::Str(name.into()))]),
        ),
    ])
}

/// Stable color hue for a span name (FNV-1a over the bytes).
fn hue(name: &str) -> u32 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    (h % 360) as u32
}

/// Minimal HTML escaping for text and attribute values.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\n' => out.push_str("&#10;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRow;

    fn report_with_spans() -> RunReport {
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta: vec![("dataset".into(), Json::Str("k<3>".into()))],
            counters: vec![],
            gauges: vec![],
            series: vec![],
            spans: vec![
                SpanRow {
                    name: "count".into(),
                    thread: 0,
                    depth: 0,
                    start_us: 0,
                    dur_us: 100,
                    counters: vec![("wedges_expanded".into(), 9)],
                },
                SpanRow {
                    name: "chunk".into(),
                    thread: 1,
                    depth: 0,
                    start_us: 5,
                    dur_us: 40,
                    counters: vec![],
                },
                SpanRow {
                    name: "chunk".into(),
                    thread: 2,
                    depth: 0,
                    start_us: 5,
                    dur_us: 45,
                    counters: vec![],
                },
            ],
            histograms: vec![],
        }
    }

    #[test]
    fn chrome_trace_has_tracks_and_events() {
        let rep = report_with_spans();
        let trace = rep.to_chrome_trace();
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        let thread_names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(thread_names, vec!["main", "worker-1", "worker-2"]);
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(
            complete[0].get("args").unwrap().get("wedges_expanded"),
            Some(&Json::UInt(9))
        );
        // The whole document parses back as valid JSON.
        assert!(Json::parse(&rep.to_chrome_trace_string()).is_ok());
    }

    #[test]
    fn flame_html_is_self_contained_and_escaped() {
        let html = report_with_spans().to_flame_html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("worker-2"));
        assert!(html.contains("k&lt;3&gt;"), "meta must be escaped");
        assert!(!html.contains("<script"), "no scripts, no external deps");
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn flame_html_handles_empty_reports() {
        let mut rep = report_with_spans();
        rep.spans.clear();
        let html = rep.to_flame_html();
        assert!(html.contains("0 span(s)"));
    }
}
