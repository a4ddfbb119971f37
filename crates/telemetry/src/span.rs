//! Hierarchical spans and per-thread trace streams.
//!
//! A span is a named, nested slice of wall-clock time with the counter
//! work done inside it attached as a delta. The main thread records
//! spans straight into an `InMemoryRecorder`; parallel workers cannot
//! share that `&mut` sink, so each fills a [`ThreadTrace`] — a
//! self-contained recorder holding raw spans against the global
//! monotonic clock — forked from the caller's recorder and joined back
//! after the worker finishes ([`crate::Recorder::join`]), which is when
//! raw `Instant`s are rebased onto the run's epoch and become
//! [`SpanRow`]s. A trace forked from a recorder with a [`LiveBoard`]
//! carries the board and publishes its counters there as it runs.

use std::sync::Arc;
use std::time::Instant;

use crate::hist::Histogram;
use crate::{Counter, LiveBoard, Recorder, WorkTally};

/// Default cap on buffered spans per sink; further spans are counted as
/// dropped rather than growing memory without bound on adversarial
/// inputs. Override per-process with the `BFLY_SPAN_CAP` env var.
pub const DEFAULT_SPAN_CAP: usize = 1 << 16;

/// Parse a `BFLY_SPAN_CAP` value. Absent or unparseable input falls
/// back to [`DEFAULT_SPAN_CAP`]; `0` is legal and drops every span
/// but the recorder's own top-level ones (counters and histograms are
/// unaffected).
pub fn parse_span_cap(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .unwrap_or(DEFAULT_SPAN_CAP)
}

/// Process-wide span cap: `BFLY_SPAN_CAP` read once, then cached.
pub(crate) fn env_span_cap() -> usize {
    use std::sync::OnceLock;
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| parse_span_cap(std::env::var("BFLY_SPAN_CAP").ok().as_deref()))
}

/// One finished span, rebased to the run epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Name given to `span_enter`.
    pub name: String,
    /// Track the span ran on: 0 = main thread, `1 + chunk index` for
    /// parallel workers.
    pub thread: u32,
    /// Nesting depth within its thread (0 = top level).
    pub depth: u32,
    /// Start offset from the run epoch, microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
    /// Counter deltas attributed to this span (non-zero entries only).
    pub counters: Vec<(String, u64)>,
}

/// A span closed on some thread, still holding raw [`Instant`]s.
/// `Instant` is globally monotonic, so worker spans and main-thread
/// spans share a timeline once both are rebased to the same epoch.
#[derive(Debug, Clone)]
pub(crate) struct RawSpan {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub depth: u32,
    pub delta: WorkTally,
}

impl RawSpan {
    /// Rebase onto `epoch` as a finished row on track `thread`.
    pub(crate) fn into_row(self, epoch: Instant, thread: u32) -> SpanRow {
        let start_us = self
            .start
            .checked_duration_since(epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        let dur_us = self
            .end
            .checked_duration_since(self.start)
            .unwrap_or_default()
            .as_micros() as u64;
        SpanRow {
            name: self.name.to_string(),
            thread,
            depth: self.depth,
            start_us,
            dur_us,
            counters: nonzero_counters(&self.delta),
        }
    }
}

/// Non-zero counter entries of a tally, in report order.
pub(crate) fn nonzero_counters(t: &WorkTally) -> Vec<(String, u64)> {
    Counter::ALL
        .into_iter()
        .filter(|&c| t.get(c) != 0)
        .map(|c| (c.name().to_string(), t.get(c)))
        .collect()
}

/// Per-worker event stream: counters, spans, and histograms recorded by
/// one thread, merged into the parent recorder after the join.
#[derive(Debug)]
pub struct ThreadTrace {
    pub(crate) tally: WorkTally,
    pub(crate) spans: Vec<RawSpan>,
    open: Vec<(&'static str, Instant, WorkTally)>,
    pub(crate) hists: Vec<(&'static str, Histogram)>,
    pub(crate) dropped: u64,
    cap: usize,
    board: Option<Arc<LiveBoard>>,
}

impl Default for ThreadTrace {
    fn default() -> Self {
        ThreadTrace::new()
    }
}

impl ThreadTrace {
    /// Fresh, empty trace with the process-wide span cap
    /// (`BFLY_SPAN_CAP`, default [`DEFAULT_SPAN_CAP`]).
    pub fn new() -> Self {
        ThreadTrace {
            tally: WorkTally::new(),
            spans: Vec::new(),
            open: Vec::new(),
            hists: Vec::new(),
            dropped: 0,
            cap: env_span_cap(),
            board: None,
        }
    }

    /// Override the span cap for this trace.
    pub fn with_span_cap(mut self, cap: usize) -> Self {
        self.cap = cap;
        self
    }

    /// Publish every counter increment on `board` as well (a trace
    /// forked from a board-attached recorder).
    pub(crate) fn with_board(mut self, board: Option<Arc<LiveBoard>>) -> Self {
        self.board = board;
        self
    }

    /// Counter totals recorded so far.
    pub fn tally(&self) -> &WorkTally {
        &self.tally
    }

    /// Number of finished spans buffered.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Close any spans left open (e.g. an early return inside a worker)
    /// so the trace is consistent before merging.
    pub fn finish(&mut self) {
        while let Some((name, _, _)) = self.open.last().copied() {
            self.span_exit(name);
        }
    }
}

impl Recorder for ThreadTrace {
    const ENABLED: bool = true;
    type Worker = ThreadTrace;

    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        self.tally.add(c, n);
        if let Some(board) = &self.board {
            board.incr(c, n);
        }
    }

    fn span_enter(&mut self, name: &'static str) {
        self.open.push((name, Instant::now(), self.tally));
    }

    fn span_exit(&mut self, name: &'static str) {
        let Some(pos) = self.open.iter().rposition(|(n, _, _)| *n == name) else {
            return; // unmatched exit: ignore rather than corrupt the stack
        };
        // Implicitly close anything opened inside the span being exited.
        while self.open.len() > pos + 1 {
            let (inner, _, _) = self.open[self.open.len() - 1];
            self.span_exit(inner);
        }
        let (name, start, before) = self.open.pop().expect("span stack non-empty");
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.spans.push(RawSpan {
            name,
            start,
            end: Instant::now(),
            depth: pos as u32,
            delta: self.tally.delta_since(&before),
        });
    }

    fn hist_record(&mut self, name: &'static str, value: u64) {
        if let Some((_, h)) = self.hists.iter_mut().find(|(n, _)| *n == name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.hists.push((name, h));
        }
    }

    fn fork(&self) -> ThreadTrace {
        ThreadTrace::new()
            .with_span_cap(self.cap)
            .with_board(self.board.clone())
    }

    /// A trace has a single track, so a nested worker's spans land on it.
    /// The nested worker already published its counters on the board.
    fn join(&mut self, _track: u32, mut worker: ThreadTrace) {
        worker.finish();
        self.tally.absorb(&worker.tally);
        for raw in worker.spans {
            if self.spans.len() >= self.cap {
                self.dropped += 1;
            } else {
                self.spans.push(raw);
            }
        }
        for (name, h) in &worker.hists {
            if let Some((_, mine)) = self.hists.iter_mut().find(|(n, _)| n == name) {
                mine.merge(h);
            } else {
                self.hists.push((name, h.clone()));
            }
        }
        self.dropped += worker.dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_attach_counter_deltas() {
        let mut t = ThreadTrace::new();
        t.span_enter("outer");
        t.incr(Counter::WedgesExpanded, 5);
        t.span_enter("inner");
        t.incr(Counter::WedgesExpanded, 7);
        t.span_exit("inner");
        t.span_exit("outer");
        assert_eq!(t.span_count(), 2);
        let inner = &t.spans[0];
        let outer = &t.spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.delta.get(Counter::WedgesExpanded), 7);
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.depth, 0);
        // The outer delta covers everything inside it.
        assert_eq!(outer.delta.get(Counter::WedgesExpanded), 12);
    }

    #[test]
    fn exit_closes_inner_spans_implicitly() {
        let mut t = ThreadTrace::new();
        t.span_enter("outer");
        t.span_enter("inner");
        t.span_exit("outer"); // inner never explicitly closed
        assert_eq!(t.span_count(), 2);
        assert!(t.spans.iter().any(|s| s.name == "inner"));
    }

    #[test]
    fn unmatched_exit_is_ignored_and_finish_drains() {
        let mut t = ThreadTrace::new();
        t.span_exit("ghost");
        assert_eq!(t.span_count(), 0);
        t.span_enter("left-open");
        t.finish();
        assert_eq!(t.span_count(), 1);
    }

    #[test]
    fn span_cap_counts_drops() {
        let mut t = ThreadTrace::new().with_span_cap(16);
        for _ in 0..16 + 10 {
            t.span_enter("s");
            t.span_exit("s");
        }
        assert_eq!(t.span_count(), 16);
        assert_eq!(t.dropped, 10);
    }

    #[test]
    fn span_cap_zero_drops_everything() {
        let mut t = ThreadTrace::new().with_span_cap(0);
        t.span_enter("s");
        t.incr(Counter::WedgesExpanded, 1);
        t.span_exit("s");
        assert_eq!(t.span_count(), 0);
        assert_eq!(t.dropped, 1);
        // Counters are unaffected by span drops.
        assert_eq!(t.tally().get(Counter::WedgesExpanded), 1);
    }

    #[test]
    fn parse_span_cap_falls_back_on_garbage() {
        assert_eq!(parse_span_cap(None), DEFAULT_SPAN_CAP);
        assert_eq!(parse_span_cap(Some("")), DEFAULT_SPAN_CAP);
        assert_eq!(parse_span_cap(Some("not-a-number")), DEFAULT_SPAN_CAP);
        assert_eq!(parse_span_cap(Some("-3")), DEFAULT_SPAN_CAP);
        assert_eq!(parse_span_cap(Some("0")), 0);
        assert_eq!(parse_span_cap(Some(" 1024 ")), 1024);
    }

    #[test]
    fn rows_rebase_onto_epoch() {
        let epoch = Instant::now();
        let mut t = ThreadTrace::new();
        t.span_enter("work");
        t.incr(Counter::SpaScatters, 3);
        t.span_exit("work");
        let row = t.spans.remove(0).into_row(epoch, 2);
        assert_eq!(row.thread, 2);
        assert_eq!(row.counters, vec![("spa_scatters".to_string(), 3)]);
    }

    #[test]
    fn hist_record_accumulates_by_name() {
        let mut t = ThreadTrace::new();
        t.hist_record("w", 4);
        t.hist_record("w", 9);
        t.hist_record("other", 1);
        assert_eq!(t.hists.len(), 2);
        let (_, h) = t.hists.iter().find(|(n, _)| *n == "w").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 9);
    }
}
