//! NDJSON event streaming: one JSON object per line, flushed as it
//! happens, so a long run can be watched (or piped into `jq`) live
//! instead of waiting for the end-of-run report.
//!
//! An [`InMemoryRecorder`](crate::InMemoryRecorder) with a sink attached
//! ([`InMemoryRecorder::with_sink`](crate::InMemoryRecorder::with_sink))
//! mirrors the events worth streaming as they occur:
//!
//! * `run_start` — when the sink is attached;
//! * `span` — every finished span (own spans and worker-trace spans at
//!   merge time), with its counter deltas;
//! * `gauge` — on every gauge write;
//! * `counters`, `hist` — totals at report time;
//! * `run_end` — last line, carrying the run meta.
//!
//! A liveness monitor emits its `heartbeat` and `stall` events into the
//! same [`SharedSink`], so every producer shares one `seq` lane. Counter
//! increments are *not* streamed per-event — `incr` sits in the hot
//! loops — they ride on span deltas and the final `counters` line.
//! Every line is flushed immediately; write errors are counted and
//! reported on `run_end` (`"write_errors"`), never allowed to kill the
//! run. The full report is still produced at the end, so `--stream`
//! composes with `--stats`/`--report`/`--trace`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use crate::flight::FlightRecorder;
use crate::json::Json;
use crate::report::RunReport;
use crate::span::SpanRow;

/// Line-oriented JSON event writer with a monotonically increasing
/// `seq` field, so consumers can detect gaps/reordering.
pub struct NdjsonSink {
    out: Box<dyn Write + Send>,
    seq: u64,
    write_errors: u64,
}

impl std::fmt::Debug for NdjsonSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NdjsonSink")
            .field("seq", &self.seq)
            .field("write_errors", &self.write_errors)
            .finish_non_exhaustive()
    }
}

impl NdjsonSink {
    /// Stream to an arbitrary writer.
    pub fn from_writer(out: Box<dyn Write + Send>) -> Self {
        NdjsonSink {
            out,
            seq: 0,
            write_errors: 0,
        }
    }

    /// Stream to stdout (the `--stream -` path).
    pub fn stdout() -> Self {
        Self::from_writer(Box::new(std::io::stdout()))
    }

    /// Discard every line. Used when only the side effects of emission
    /// matter — e.g. `--flight-recorder` without `--stream` still wants
    /// heartbeats stamped with `seq` and teed into the ring.
    pub fn null() -> Self {
        Self::from_writer(Box::new(std::io::sink()))
    }

    /// Stream to a file, created or truncated.
    pub fn file(path: &str) -> std::io::Result<Self> {
        Ok(Self::from_writer(Box::new(std::fs::File::create(path)?)))
    }

    /// Emit one event line (`{"type":..., "seq":..., ...fields}`) and
    /// flush it. IO failures increment an internal error count instead
    /// of propagating: telemetry must not abort the run it observes.
    pub fn emit(&mut self, ty: &str, fields: Vec<(String, Json)>) {
        self.emit_line(ty, fields);
    }

    /// [`NdjsonSink::emit`] that also hands the rendered line back to the
    /// caller (with the `seq` it was stamped with), so wrappers like
    /// [`SharedSink`] can tee it into a [`FlightRecorder`].
    fn emit_line(&mut self, ty: &str, fields: Vec<(String, Json)>) -> (u64, String) {
        let seq = self.seq;
        let mut obj = vec![
            ("type".to_string(), Json::Str(ty.to_string())),
            ("seq".to_string(), Json::UInt(seq)),
        ];
        obj.extend(fields);
        self.seq += 1;
        let line = Json::Obj(obj).compact();
        if writeln!(self.out, "{line}")
            .and_then(|_| self.out.flush())
            .is_err()
        {
            self.write_errors += 1;
        }
        (seq, line)
    }

    /// Events emitted so far.
    pub fn events(&self) -> u64 {
        self.seq
    }

    /// Write failures swallowed so far (reported on `run_end`).
    pub fn write_errors(&self) -> u64 {
        self.write_errors
    }

    /// Wrap this sink so several producers (the recorder on the main
    /// thread, a monitor thread emitting heartbeats) can interleave
    /// events under one monotonic `seq`.
    pub fn into_shared(self) -> SharedSink {
        SharedSink::new(self)
    }
}

/// A cloneable handle over one [`NdjsonSink`]: every [`SharedSink::emit`]
/// takes the internal lock for the whole line, so events from different
/// threads never interleave mid-line and `seq` stays strictly monotonic
/// across all producers. Optionally tees every emitted line into a
/// [`FlightRecorder`] ring so crash dumps carry the recent event tail.
#[derive(Clone)]
pub struct SharedSink {
    sink: Arc<Mutex<NdjsonSink>>,
    flight: Option<Arc<FlightRecorder>>,
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink")
            .field("flight", &self.flight.is_some())
            .finish_non_exhaustive()
    }
}

impl SharedSink {
    /// Share `sink` between producers.
    pub fn new(sink: NdjsonSink) -> Self {
        SharedSink {
            sink: Arc::new(Mutex::new(sink)),
            flight: None,
        }
    }

    /// Tee every emitted line into `flight` (in addition to the sink's
    /// writer).
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Emit one event line under the sink lock. See [`NdjsonSink::emit`].
    pub fn emit(&self, ty: &str, fields: Vec<(String, Json)>) {
        let (seq, line) = match self.sink.lock() {
            Ok(mut sink) => sink.emit_line(ty, fields),
            Err(poisoned) => poisoned.into_inner().emit_line(ty, fields),
        };
        if let Some(flight) = &self.flight {
            flight.record(seq, &line);
        }
    }

    /// Events emitted so far (across all producers).
    pub fn events(&self) -> u64 {
        match self.sink.lock() {
            Ok(sink) => sink.events(),
            Err(poisoned) => poisoned.into_inner().events(),
        }
    }

    /// Write failures swallowed so far.
    pub fn write_errors(&self) -> u64 {
        match self.sink.lock() {
            Ok(sink) => sink.write_errors(),
            Err(poisoned) => poisoned.into_inner().write_errors(),
        }
    }
}

impl SharedSink {
    /// Stream one finished span with its counter deltas.
    pub(crate) fn emit_span(&self, s: &SpanRow) {
        self.emit(
            "span",
            vec![
                ("name".to_string(), Json::Str(s.name.clone())),
                ("thread".to_string(), Json::UInt(s.thread as u64)),
                ("depth".to_string(), Json::UInt(s.depth as u64)),
                ("start_us".to_string(), Json::UInt(s.start_us)),
                ("dur_us".to_string(), Json::UInt(s.dur_us)),
                (
                    "counters".to_string(),
                    Json::Obj(
                        s.counters
                            .iter()
                            .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                            .collect(),
                    ),
                ),
            ],
        );
    }

    /// Stream the closing lines of a run from its final report: the
    /// non-zero `counters`, one `hist` per histogram, then `run_end`
    /// with the run meta and the write errors swallowed so far.
    pub(crate) fn emit_close(&self, rep: &RunReport) {
        self.emit(
            "counters",
            vec![(
                "values".to_string(),
                Json::Obj(
                    rep.counters
                        .iter()
                        .filter(|(_, v)| *v != 0)
                        .map(|(n, v)| (n.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            )],
        );
        for (n, h) in &rep.histograms {
            self.emit(
                "hist",
                vec![
                    ("name".to_string(), Json::Str(n.clone())),
                    ("count".to_string(), Json::UInt(h.count())),
                    ("sum".to_string(), Json::UInt(h.sum())),
                    ("p50".to_string(), Json::Float(h.p50())),
                    ("p99".to_string(), Json::Float(h.p99())),
                    ("max".to_string(), Json::UInt(h.max())),
                ],
            );
        }
        let errors = self.write_errors();
        self.emit(
            "run_end",
            vec![
                ("meta".to_string(), Json::Obj(rep.meta.clone())),
                ("write_errors".to_string(), Json::UInt(errors)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Counter, InMemoryRecorder, Recorder};

    /// Shared in-memory sink target for asserting on emitted lines.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn lines(buf: &Buf) -> Vec<Json> {
        let bytes = buf.0.lock().unwrap();
        let text = std::str::from_utf8(&bytes).unwrap();
        text.lines()
            .map(|l| Json::parse(l).expect("every line is standalone JSON"))
            .collect()
    }

    fn event_types(events: &[Json]) -> Vec<String> {
        events
            .iter()
            .map(|e| e.get("type").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn events_stream_in_order_with_contiguous_seq() {
        let buf = Buf::default();
        let sink = NdjsonSink::from_writer(Box::new(buf.clone())).into_shared();
        let mut rec = InMemoryRecorder::new().with_sink(sink);
        rec.span_enter("work");
        rec.incr(Counter::WedgesExpanded, 9);
        rec.span_exit("work");
        rec.gauge("par_imbalance", 1.5);
        rec.span_enter("count");
        rec.span_exit("count");
        rec.hist_record("w", 3);
        let rep = rec.report(vec![("dataset".to_string(), Json::Str("g".to_string()))]);
        assert_eq!(rep.counter("wedges_expanded"), Some(9));

        let events = lines(&buf);
        let types = event_types(&events);
        assert_eq!(
            types,
            vec![
                "run_start",
                "span",
                "gauge",
                "span",
                "counters",
                "hist",
                "run_end"
            ]
        );
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.get("seq").unwrap().as_u64(), Some(i as u64), "seq gap");
        }
        let span = &events[1];
        assert_eq!(span.get("name").unwrap().as_str(), Some("work"));
        assert_eq!(
            span.get("counters")
                .unwrap()
                .get("wedges_expanded")
                .unwrap()
                .as_u64(),
            Some(9)
        );
        let end = events.last().unwrap();
        assert_eq!(
            end.get("meta").unwrap().get("dataset").unwrap().as_str(),
            Some("g")
        );
        assert_eq!(end.get("write_errors").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn merged_worker_spans_stream_too() {
        let buf = Buf::default();
        let sink = NdjsonSink::from_writer(Box::new(buf.clone())).into_shared();
        let mut rec = InMemoryRecorder::new().with_sink(sink);
        let mut t = rec.fork();
        t.span_enter("chunk");
        t.incr(Counter::ParChunks, 1);
        t.span_exit("chunk");
        rec.join(2, t);
        let events = lines(&buf);
        let span = events
            .iter()
            .find(|e| e.get("type").unwrap().as_str() == Some("span"))
            .expect("merged span streamed");
        assert_eq!(span.get("thread").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn without_a_sink_it_is_a_plain_recorder() {
        let mut rec = InMemoryRecorder::new();
        rec.incr(Counter::PeelRounds, 2);
        let rep = rec.report(vec![]);
        assert_eq!(rep.counter("peel_rounds"), Some(2));
    }
}
