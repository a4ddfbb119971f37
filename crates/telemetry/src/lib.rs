//! Work counters, hierarchical spans, histograms, and machine-readable
//! run reports.
//!
//! The counting engine and the peeling drivers are instrumented against
//! the [`Recorder`] trait. The
//! trait carries a `const ENABLED: bool`; every instrumentation site in
//! the hot paths is guarded by `if R::ENABLED { ... }`, so with the
//! default [`NoopRecorder`] the branch is a compile-time constant and the
//! whole site monomorphizes away — the uninstrumented build pays nothing.
//!
//! [`InMemoryRecorder`] is the one real implementation, behind every
//! telemetry flag: it aggregates counters into a flat array, keeps named
//! series, collects hierarchical [`SpanRow`]s with attached counter
//! deltas, buckets values into [`Histogram`]s, and renders everything as
//! a [`RunReport`] — a schema-versioned (v3; v1 and v2 still parse),
//! JSON-serializable record of one run that the CLI (`--report`) and
//! the bench binaries (`BENCH_*.json`) emit.
//! Spans are the one timing primitive: every timed region is a span, and
//! [`RunReport::span_totals`] folds them by name. With a [`SharedSink`]
//! attached the recorder also streams its events as NDJSON
//! (`--stream`); with a [`LiveBoard`] attached it mirrors counters and
//! gauges onto the board a liveness monitor samples (`--progress`,
//! `--flight-recorder`).
//!
//! Parallel code cannot share one `&mut Recorder` across workers, so
//! every recorder hands each worker one of its own
//! ([`Recorder::fork`]) and takes it back after the join
//! ([`Recorder::join`]). [`InMemoryRecorder`] forks a [`ThreadTrace`]
//! (counters + spans + histograms against the global monotonic clock,
//! carrying the recorder's board) and joins it onto its own span track;
//! [`NoopRecorder`] forks itself and compiles away.
//!
//! Every other view is a rendering of a saved report (`bfly report`): the
//! table ([`RunReport::render_table`], `report show`), Chrome Trace
//! Event JSON ([`RunReport::to_chrome_trace`], `report trace`, for
//! `chrome://tracing` / Perfetto) and a self-contained HTML flame view
//! ([`RunReport::to_flame_html`], `report flame`); two reports compare
//! via [`diff_reports`] (`report diff`), the CI perf gate.
//!
//! JSON is hand-rolled ([`Json`]) because the build environment has no
//! serde; the emitter and the recursive-descent parser round-trip every
//! report (property-tested in `crates/telemetry/tests`).

use std::sync::Arc;
use std::time::Instant;

mod board;
mod diff;
pub mod flight;
mod hist;
mod json;
pub mod mem;
pub mod progress;
mod report;
mod span;
mod stream;
mod trace;
pub mod watchdog;

pub use board::LiveBoard;
pub use diff::{diff_reports, DiffRow, ReportDiff};
pub use flight::{install_panic_hook, FlightRecorder, DEFAULT_FLIGHT_CAPACITY};
pub use hist::Histogram;
pub use json::Json;
pub use progress::{
    GateWriter, Monitor, MonitorConfig, MonitorStats, ProgressModel, StderrGate, WorkForecast,
};
pub use report::{ReportError, RunReport};
pub use span::{parse_span_cap, SpanRow, ThreadTrace, DEFAULT_SPAN_CAP};
pub use stream::{NdjsonSink, SharedSink};
pub use watchdog::StallWatchdog;

/// Every work counter the engine knows. Adding a variant: append it to
/// `Counter::TABLE` **in discriminant order** — `ALL`, `name`, and
/// `from_name` all derive from that one table (and a test pins the
/// order), so a new variant cannot silently break report parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Wedges expanded through partitioned-side vertices (engine inner loop).
    WedgesExpanded,
    /// Hits on the counting kernels' pair accumulator, one per wedge.
    SpaScatters,
    /// First touches: accumulator hits that found their slot at 0 (one
    /// per distinct far endpoint of an exposed vertex).
    AccumEntries,
    /// Vertices of the partitioned side exposed (outer-loop iterations).
    VerticesExposed,
    /// Parallel chunks executed.
    ParChunks,
    /// Peeling fixed-point rounds.
    PeelRounds,
    /// Vertices removed across all peeling rounds.
    PeeledVertices,
    /// Edges removed across all peeling rounds.
    PeeledEdges,
    /// Edges present in the surviving subgraph each round, summed — the
    /// recomputation volume of the naive "recount after every round" loop.
    RecomputeEdges,
    /// Scores/supports repaired by the bucket-peeling engine (touched
    /// delta entries, summed over rounds) — the incremental counterpart
    /// of [`Counter::RecomputeEdges`].
    SupportsRecomputed,
    /// Stall windows detected by the liveness watchdog (see
    /// [`watchdog::StallWatchdog`]): sampling intervals in which no
    /// monitored counter advanced for the configured patience. Raised by
    /// the monitor thread, never by kernels.
    StallsDetected,
    /// Vertex-range shards completed by the sharded execution mode
    /// (in-memory or out-of-core); each shard's partial merges exactly
    /// into the total.
    ShardsProcessed,
    /// Positioned reads retried after a transient `io::Error`
    /// (`Interrupted`, `WouldBlock`, ...). Each retried *attempt* counts
    /// once; a read that succeeds first try contributes zero.
    IoRetries,
    /// Positioned reads abandoned after exhausting the retry budget; the
    /// run surfaces the final error with the attempt count.
    IoGiveups,
    /// Shard partials durably persisted to a `--checkpoint` directory
    /// (temp-file + fsync + rename, one per completed shard).
    CheckpointsWritten,
    /// Shards skipped on `--resume` because a valid checkpoint already
    /// held their partial; the persisted partial merges instead.
    ShardsSkippedResume,
}

impl Counter {
    /// Single source of truth: every counter with its stable report
    /// name, in discriminant order.
    const TABLE: [(Counter, &'static str); 16] = [
        (Counter::WedgesExpanded, "wedges_expanded"),
        (Counter::SpaScatters, "spa_scatters"),
        (Counter::AccumEntries, "accum_entries"),
        (Counter::VerticesExposed, "vertices_exposed"),
        (Counter::ParChunks, "par_chunks"),
        (Counter::PeelRounds, "peel_rounds"),
        (Counter::PeeledVertices, "peeled_vertices"),
        (Counter::PeeledEdges, "peeled_edges"),
        (Counter::RecomputeEdges, "recompute_edges"),
        (Counter::SupportsRecomputed, "supports_recomputed"),
        (Counter::StallsDetected, "stalls_detected"),
        (Counter::ShardsProcessed, "shards_processed"),
        (Counter::IoRetries, "io_retries"),
        (Counter::IoGiveups, "io_giveups"),
        (Counter::CheckpointsWritten, "checkpoints_written"),
        (Counter::ShardsSkippedResume, "shards_skipped_resume"),
    ];

    /// Number of counters (length of [`Counter::ALL`]).
    pub const COUNT: usize = Counter::TABLE.len();

    /// All counters, in report order (derived from `Counter::TABLE`).
    pub const ALL: [Counter; Counter::COUNT] = {
        let mut all = [Counter::WedgesExpanded; Counter::COUNT];
        let mut i = 0;
        while i < Counter::COUNT {
            all[i] = Counter::TABLE[i].0;
            i += 1;
        }
        all
    };

    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        Counter::TABLE[self as usize].1
    }

    /// Parse a report name back to the counter.
    pub fn from_name(name: &str) -> Option<Counter> {
        Counter::TABLE
            .iter()
            .find(|(_, n)| *n == name)
            .map(|&(c, _)| c)
    }
}

/// Plain additive bundle of counters: the tally behind every recorder
/// and span delta.
#[derive(Debug, Clone, Copy)]
pub struct WorkTally {
    counts: [u64; Counter::COUNT],
}

impl Default for WorkTally {
    fn default() -> Self {
        WorkTally::new()
    }
}

impl WorkTally {
    /// All-zero tally.
    pub const fn new() -> Self {
        WorkTally {
            counts: [0; Counter::COUNT],
        }
    }

    /// Add `n` to `c`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Current value of `c`.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Element-wise sum with another tally.
    pub fn absorb(&mut self, other: &WorkTally) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// Element-wise difference against an earlier snapshot of the same
    /// tally — the work done since that snapshot (span counter deltas).
    pub fn delta_since(&self, earlier: &WorkTally) -> WorkTally {
        let mut out = WorkTally::new();
        for (i, slot) in out.counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }
}

/// Instrumentation sink. All methods have empty defaults so a recorder
/// implements only what it stores; hot paths must guard every call site
/// with `if R::ENABLED` so the noop case folds away entirely.
pub trait Recorder {
    /// `false` promises every method is a no-op; instrumentation sites
    /// compile out under that promise.
    const ENABLED: bool;

    /// What [`Recorder::fork`] hands a parallel worker. Disabled
    /// recorders must fork disabled workers.
    type Worker: Recorder + Send;

    /// Add `n` to counter `c`.
    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        let _ = (c, n);
    }

    /// Record a point-in-time measurement (last write wins).
    #[inline]
    fn gauge(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Append `value` to the named series.
    #[inline]
    fn series_push(&mut self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Open a span: a named, nestable slice of wall-clock time that
    /// carries the counter work done inside it as a delta.
    #[inline]
    fn span_enter(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Close the innermost open span named `name`.
    #[inline]
    fn span_exit(&mut self, name: &'static str) {
        let _ = name;
    }

    /// Record one sample into the named histogram.
    #[inline]
    fn hist_record(&mut self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Hand out the recorder one parallel worker records into. Called on
    /// the caller's thread before the fork; the worker moves to its
    /// thread and comes back through [`Recorder::join`].
    fn fork(&self) -> Self::Worker;

    /// Take a worker back after its join: counters always, spans and
    /// histograms if the recorder keeps them. `track` is the span track
    /// (0 is the caller's own, so workers are numbered from 1).
    fn join(&mut self, track: u32, worker: Self::Worker);
}

/// The zero-cost default recorder: every call is a no-op and
/// `ENABLED = false` lets guarded call sites vanish at monomorphization.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    const ENABLED: bool = false;
    type Worker = NoopRecorder;

    #[inline]
    fn fork(&self) -> NoopRecorder {
        NoopRecorder
    }

    #[inline]
    fn join(&mut self, _track: u32, _worker: NoopRecorder) {}
}

/// Forwarding impl so an `InMemoryRecorder` can be threaded through APIs
/// that take the recorder by value (`&mut R` is itself a `Recorder`).
impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;
    type Worker = R::Worker;

    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        (**self).incr(c, n);
    }

    #[inline]
    fn gauge(&mut self, name: &'static str, value: f64) {
        (**self).gauge(name, value);
    }

    #[inline]
    fn series_push(&mut self, name: &'static str, value: f64) {
        (**self).series_push(name, value);
    }

    #[inline]
    fn span_enter(&mut self, name: &'static str) {
        (**self).span_enter(name);
    }

    #[inline]
    fn span_exit(&mut self, name: &'static str) {
        (**self).span_exit(name);
    }

    #[inline]
    fn hist_record(&mut self, name: &'static str, value: u64) {
        (**self).hist_record(name, value);
    }

    #[inline]
    fn fork(&self) -> R::Worker {
        (**self).fork()
    }

    #[inline]
    fn join(&mut self, track: u32, worker: R::Worker) {
        (**self).join(track, worker);
    }
}

/// The recorder behind every telemetry flag (`--report`, `--stream`,
/// `--progress`, `--flight-recorder`). Spans recorded directly on it
/// land on track 0 (the main thread); forked worker traces keep their
/// own tracks via [`Recorder::join`]. An
/// attached [`SharedSink`] streams its events as they happen, and an
/// attached [`LiveBoard`] sees its counters and gauges — and its
/// workers' counters — while the run is in flight.
#[derive(Debug)]
pub struct InMemoryRecorder {
    /// Timeline origin: all span timestamps are offsets from here.
    epoch: Instant,
    tally: WorkTally,
    gauges: Vec<(&'static str, f64)>,
    series: Vec<(&'static str, Vec<f64>)>,
    spans: Vec<SpanRow>,
    /// Buffered spans that count against the span cap: all but the
    /// recorder's own top-level spans.
    capped: usize,
    /// Open spans: name, start, counter snapshot, and the allocator peak
    /// watermark saved at entry (0 unless `alloc-track` is active).
    open_spans: Vec<(&'static str, Instant, WorkTally, u64)>,
    hists: Vec<(&'static str, Histogram)>,
    spans_dropped: u64,
    sink: Option<SharedSink>,
    board: Option<Arc<LiveBoard>>,
}

impl Default for InMemoryRecorder {
    fn default() -> Self {
        InMemoryRecorder::new()
    }
}

impl InMemoryRecorder {
    /// Fresh, empty recorder; the span timeline starts now. Spans past
    /// the `BFLY_SPAN_CAP` cap (default [`DEFAULT_SPAN_CAP`]) are counted
    /// in the `spans_dropped` gauge rather than buffered. The spans this
    /// recorder closes itself at depth 0 (track 0) are the run's
    /// top-level timing: they never count against the cap.
    pub fn new() -> Self {
        InMemoryRecorder {
            epoch: Instant::now(),
            tally: WorkTally::new(),
            gauges: Vec::new(),
            series: Vec::new(),
            spans: Vec::new(),
            capped: 0,
            open_spans: Vec::new(),
            hists: Vec::new(),
            spans_dropped: 0,
            sink: None,
            board: None,
        }
    }

    /// Stream this recorder's events to `sink`, starting with the
    /// `run_start` line emitted now. Other producers (a liveness
    /// monitor's heartbeats) may share the sink; every event then shares
    /// one monotonic `seq`.
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        sink.emit("run_start", vec![]);
        self.sink = Some(sink);
        self
    }

    /// Mirror every counter increment and gauge write onto `board`, and
    /// hand the board to every forked worker, so a monitor sees the run's
    /// work before the joins.
    pub fn with_board(mut self, board: Arc<LiveBoard>) -> Self {
        self.board = Some(board);
        self
    }

    /// Stop mirroring onto the board and hand it back. A finished
    /// monitor's outcome is then recorded here without being counted on
    /// the board a second time.
    pub fn take_board(&mut self) -> Option<Arc<LiveBoard>> {
        self.board.take()
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.tally.get(c)
    }

    /// Last value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// The named series, if any values were pushed.
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_slice())
    }

    /// Finished spans collected so far (all tracks).
    pub fn spans(&self) -> &[SpanRow] {
        &self.spans
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// What the recorder holds so far, as a report: finished spans only,
    /// nothing closed and nothing streamed. Error-path flight dumps use
    /// it.
    pub fn snapshot(&self, meta: Vec<(String, Json)>) -> RunReport {
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .iter()
            .map(|&(n, v)| (n.to_string(), v))
            .collect();
        if self.spans_dropped > 0 {
            gauges.push(("spans_dropped".to_string(), self.spans_dropped as f64));
        }
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta,
            counters: Counter::ALL
                .into_iter()
                .map(|c| (c.name().to_string(), self.tally.get(c)))
                .collect(),
            gauges,
            series: self
                .series
                .iter()
                .map(|(n, v)| (n.to_string(), v.clone()))
                .collect(),
            spans: self.spans.clone(),
            histograms: self
                .hists
                .iter()
                .map(|(n, h)| (n.to_string(), h.clone()))
                .collect(),
        }
    }

    /// Render the recorder into a report. `meta` carries run context
    /// (dataset, invariant, threads, …); unfinished spans are closed at
    /// render time so an aborted path still reports. When
    /// streaming, the spans closed here and the closing `counters` /
    /// `hist` / `run_end` lines are emitted.
    pub fn report(&mut self, meta: Vec<(String, Json)>) -> RunReport {
        while let Some((name, _, _, _)) = self.open_spans.last().copied() {
            self.span_exit(name);
        }
        let rep = self.snapshot(meta);
        if let Some(sink) = &self.sink {
            sink.emit_close(&rep);
        }
        rep
    }

    /// Keep one finished span (streaming it) unless it counts against
    /// the span cap (`capped`) and the cap is full.
    fn push_span(&mut self, row: SpanRow, capped: bool) {
        if capped {
            if self.capped >= span::env_span_cap() {
                self.spans_dropped += 1;
                return;
            }
            self.capped += 1;
        }
        if let Some(sink) = &self.sink {
            sink.emit_span(&row);
        }
        self.spans.push(row);
    }
}

impl Recorder for InMemoryRecorder {
    const ENABLED: bool = true;
    type Worker = ThreadTrace;

    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        self.tally.add(c, n);
        if let Some(board) = &self.board {
            board.incr(c, n);
        }
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        if let Some(slot) = self.gauges.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.gauges.push((name, value));
        }
        if let Some(board) = &self.board {
            board.set_gauge(name, value);
        }
        if let Some(sink) = &self.sink {
            sink.emit(
                "gauge",
                vec![
                    ("name".to_string(), Json::Str(name.to_string())),
                    ("value".to_string(), Json::Float(value)),
                ],
            );
        }
    }

    fn series_push(&mut self, name: &'static str, value: f64) {
        if let Some((_, v)) = self.series.iter_mut().find(|(n, _)| *n == name) {
            v.push(value);
        } else {
            self.series.push((name, vec![value]));
        }
    }

    fn span_enter(&mut self, name: &'static str) {
        // With the tracking allocator active, scope the allocator's peak
        // watermark to this span: save the outer peak, restart the peak
        // from the current level, and restore on exit. Without
        // `alloc-track` these are all no-ops returning 0.
        let saved_peak = if mem::tracking_active() {
            let p = mem::peak_bytes();
            mem::reset_peak();
            p
        } else {
            0
        };
        self.open_spans
            .push((name, Instant::now(), self.tally, saved_peak));
    }

    fn span_exit(&mut self, name: &'static str) {
        let Some(pos) = self.open_spans.iter().rposition(|(n, _, _, _)| *n == name) else {
            return; // unmatched exit: ignore rather than corrupt the stack
        };
        // Implicitly close anything opened inside the span being exited.
        while self.open_spans.len() > pos + 1 {
            let (inner, _, _, _) = self.open_spans[self.open_spans.len() - 1];
            self.span_exit(inner);
        }
        let (name, start, before, saved_peak) =
            self.open_spans.pop().expect("span stack non-empty");
        let mut counters = span::nonzero_counters(&self.tally.delta_since(&before));
        if mem::tracking_active() {
            let scope_peak = mem::peak_bytes();
            mem::restore_peak(saved_peak);
            counters.push(("mem.peak_bytes".to_string(), scope_peak));
        }
        let start_us = start
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_micros() as u64;
        let row = SpanRow {
            name: name.to_string(),
            thread: 0,
            depth: pos as u32,
            start_us,
            dur_us: start.elapsed().as_micros() as u64,
            counters,
        };
        self.push_span(row, pos > 0);
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
        ThreadTrace::new().with_board(self.board.clone())
    }

    /// The worker's counters already reached the board as it ran, so
    /// only the recorder's own tally absorbs them here.
    fn join(&mut self, track: u32, mut trace: ThreadTrace) {
        trace.finish();
        self.tally.absorb(trace.tally());
        for raw in std::mem::take(&mut trace.spans) {
            self.push_span(raw.into_row(self.epoch, track), true);
        }
        for (name, h) in &trace.hists {
            if let Some((_, mine)) = self.hists.iter_mut().find(|(n, _)| n == name) {
                mine.merge(h);
            } else {
                self.hists.push((name, h.clone()));
            }
        }
        self.spans_dropped += trace.dropped;
    }
}

/// Run `f` inside a named span: a [`SpanRow`] on the recorder's
/// timeline carrying the counter work done inside it. The clock is only
/// read when the recorder is enabled.
#[inline]
pub fn timed_span<R: Recorder, T>(
    rec: &mut R,
    name: &'static str,
    f: impl FnOnce(&mut R) -> T,
) -> T {
    if R::ENABLED {
        rec.span_enter(name);
    }
    let out = f(rec);
    if R::ENABLED {
        rec.span_exit(name);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoopRecorder>(), 0);
        const { assert!(!NoopRecorder::ENABLED) };
    }

    #[test]
    fn counter_table_is_in_discriminant_order() {
        // `Counter::name` indexes TABLE by discriminant; this pins the
        // invariant the table comment demands.
        for (i, (c, _)) in Counter::TABLE.iter().enumerate() {
            assert_eq!(*c as usize, i, "TABLE out of order at index {i}");
        }
    }

    #[test]
    fn every_counter_name_round_trips() {
        for c in Counter::ALL {
            assert_eq!(Counter::from_name(c.name()), Some(c), "{c:?}");
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn counters_aggregate() {
        let mut r = InMemoryRecorder::new();
        r.incr(Counter::WedgesExpanded, 10);
        r.incr(Counter::WedgesExpanded, 5);
        let mut t = r.fork();
        t.incr(Counter::WedgesExpanded, 7);
        t.incr(Counter::SpaScatters, 3);
        r.join(1, t);
        assert_eq!(r.counter(Counter::WedgesExpanded), 22);
        assert_eq!(r.counter(Counter::SpaScatters), 3);
    }

    #[test]
    fn tally_delta_since_snapshot() {
        let mut t = WorkTally::new();
        t.add(Counter::WedgesExpanded, 5);
        let snap = t;
        t.add(Counter::WedgesExpanded, 7);
        t.add(Counter::SpaScatters, 2);
        let d = t.delta_since(&snap);
        assert_eq!(d.get(Counter::WedgesExpanded), 7);
        assert_eq!(d.get(Counter::SpaScatters), 2);
    }

    #[test]
    fn gauges_last_write_wins_and_series_append() {
        let mut r = InMemoryRecorder::new();
        r.gauge("imbalance", 1.5);
        r.gauge("imbalance", 2.5);
        r.series_push("rounds", 4.0);
        r.series_push("rounds", 2.0);
        assert_eq!(r.gauge_value("imbalance"), Some(2.5));
        assert_eq!(r.series("rounds"), Some(&[4.0, 2.0][..]));
    }

    #[test]
    fn unclosed_phase_and_span_close_at_report() {
        let mut r = InMemoryRecorder::new();
        r.span_enter("outer");
        r.span_enter("left-open");
        let rep = r.report(vec![]);
        let names: Vec<(&str, u32)> = rep.spans.iter().map(|s| (&*s.name, s.depth)).collect();
        assert_eq!(names, vec![("left-open", 1), ("outer", 0)]);
    }

    #[test]
    fn main_thread_spans_nest_with_deltas() {
        let mut r = InMemoryRecorder::new();
        timed_span(&mut r, "outer", |r| {
            r.incr(Counter::VerticesExposed, 1);
            timed_span(r, "inner", |r| {
                r.incr(Counter::WedgesExpanded, 4);
            });
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].thread, 0);
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].counters, vec![("wedges_expanded".to_string(), 4)]);
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert_eq!(spans[1].counters.len(), 2);
    }

    #[test]
    fn joined_worker_brings_counters_spans_hists() {
        let mut r = InMemoryRecorder::new();
        let mut t = r.fork();
        t.span_enter("chunk");
        t.incr(Counter::WedgesExpanded, 11);
        t.hist_record("chunk_us", 42);
        t.span_exit("chunk");
        r.hist_record("chunk_us", 7);
        r.join(3, t);
        assert_eq!(r.counter(Counter::WedgesExpanded), 11);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.spans()[0].thread, 3);
        let h = r.histogram("chunk_us").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 42);
    }

    #[test]
    fn counter_only_recorders_fork_and_join_tallies() {
        // A nested worker left with an open span still counts.
        let mut trace = ThreadTrace::new();
        let mut inner = trace.fork();
        inner.span_enter("open");
        inner.incr(Counter::WedgesExpanded, 4);
        trace.join(1, inner);
        assert_eq!(trace.tally().get(Counter::WedgesExpanded), 4);
        assert_eq!(trace.span_count(), 1);
    }

    #[test]
    fn report_json_round_trips() {
        let mut r = InMemoryRecorder::new();
        r.incr(Counter::WedgesExpanded, 12345);
        r.incr(Counter::PeelRounds, 3);
        r.gauge("par_imbalance", 1.25);
        r.series_push("peel_removed", 10.0);
        r.series_push("peel_removed", 4.0);
        timed_span(&mut r, "select", |_| ());
        timed_span(&mut r, "count", |r| {
            r.hist_record("vertex_wedges", 17);
        });
        let rep = r.report(vec![
            ("dataset".into(), Json::Str("k33".into())),
            ("threads".into(), Json::UInt(4)),
        ]);
        let text = rep.to_json_string();
        let back = RunReport::parse(&text).unwrap();
        assert_eq!(rep, back);
    }
}
