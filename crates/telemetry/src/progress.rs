//! Live progress, ETA, and the background monitor thread.
//!
//! A [`Monitor`] periodically samples the run's [`LiveBoard`] — the
//! counters and gauges the run's recorder and its forked workers mirror
//! as they go — and turns the deltas into liveness signals:
//!
//! * a [`ProgressModel`] seeded with predicted total work (exact
//!   Σ C(deg, 2) wedge totals for counting plans, support-update
//!   estimates for peel plans) tracks completion from the board's work
//!   counters and sets `progress.fraction` / `progress.eta_ms` gauges on
//!   the board;
//! * `heartbeat` NDJSON events are interleaved into the run's
//!   [`SharedSink`] under the same monotonic `seq`
//!   as the recorder's own events;
//! * a [`StallWatchdog`] fires a `stall` event (with the board's
//!   counters and gauges) when no monitored counter advances for the
//!   configured patience — the run is never killed;
//! * an optional TTY-aware progress line is rendered to the process-wide
//!   [`StderrGate`], the same locked writer the CLI routes its human
//!   summary through, so `--progress` and `--stream -` never interleave
//!   mid-line on stderr.
//!
//! [`Monitor::finish`] hands back the final fraction, ETA and stall
//! count, for the caller to record on the run's recorder. Everything
//! here is opt-in: no monitor thread exists unless [`Monitor::spawn`] is
//! called, so runs without liveness flags keep the zero-overhead
//! guarantee of the noop recorder path.

use std::io::{IsTerminal, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::watchdog::StallWatchdog;
use crate::{Counter, LiveBoard, SharedSink, WorkTally};

/// Predicted total work for a run: which counter measures it and how
/// many units the planner expects. Counting plans forecast
/// `wedges_expanded` exactly (Σ C(deg, 2) over the traversed side);
/// peel plans forecast `supports_recomputed` from the support-update
/// estimate, which is approximate — [`ProgressModel`] clamps
/// accordingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkForecast {
    /// The counter that accumulates the forecast work unit.
    pub counter: Counter,
    /// Predicted total units (0 = unknown).
    pub total: u64,
}

impl WorkForecast {
    /// Forecast `total` units on `counter`.
    pub fn new(counter: Counter, total: u64) -> Self {
        WorkForecast { counter, total }
    }
}

/// Completion estimator: cumulative work done against a predicted
/// total. Deliberately clock-free — elapsed time is an argument, not an
/// `Instant::now()` call — so ETA behaviour is exactly testable under a
/// synthetic clock.
#[derive(Debug, Clone)]
pub struct ProgressModel {
    total: u64,
    done: u64,
    finished: bool,
}

impl ProgressModel {
    /// Model with `total` predicted units (0 = unknown: fraction stays 0
    /// until [`ProgressModel::finish`]).
    pub fn new(total: u64) -> Self {
        ProgressModel {
            total,
            done: 0,
            finished: false,
        }
    }

    /// Replace the predicted total (forecasts can arrive after the
    /// monitor starts, once the planner has run).
    pub fn set_total(&mut self, total: u64) {
        self.total = total;
    }

    /// Predicted total units.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Record the cumulative work counter value (monotone; stale
    /// values are ignored so fraction never regresses).
    pub fn observe(&mut self, done: u64) {
        self.done = self.done.max(done);
    }

    /// Units observed so far.
    pub fn done(&self) -> u64 {
        self.done
    }

    /// Mark the run complete: fraction snaps to exactly 1.0 even when
    /// the forecast over-estimated (or was unknown).
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Completion in `[0, 1]`. Non-decreasing as long as `observe` feeds
    /// a cumulative counter; exactly 1.0 after [`ProgressModel::finish`].
    pub fn fraction(&self) -> f64 {
        if self.finished {
            return 1.0;
        }
        if self.total == 0 {
            return 0.0;
        }
        (self.done as f64 / self.total as f64).clamp(0.0, 1.0)
    }

    /// Remaining wall-clock estimate in ms, assuming the observed mean
    /// rate holds: `elapsed · (1 − f) / f`. `None` until any progress
    /// exists; `Some(0)` once complete. Under a constant rate this is
    /// monotone non-increasing in elapsed time.
    pub fn eta_ms(&self, elapsed_ms: u64) -> Option<u64> {
        let f = self.fraction();
        if f <= 0.0 {
            return None;
        }
        if f >= 1.0 {
            return Some(0);
        }
        Some((elapsed_ms as f64 * (1.0 - f) / f).round() as u64)
    }
}

/// Process-wide locked stderr writer shared by the `--progress` line and
/// the CLI's human output when both land on stderr (`--stream -`). The
/// gate owns the "is a progress line currently displayed?" state: any
/// full line printed through it first erases an open progress line, so
/// the two producers never interleave mid-line and a summary never gets
/// appended to a half-drawn progress bar.
pub struct StderrGate {
    state: Mutex<GateState>,
}

struct GateState {
    /// A `\r`-rewritten progress line is currently displayed (TTY mode).
    line_open: bool,
    tty: bool,
}

impl StderrGate {
    fn new() -> Self {
        StderrGate {
            state: Mutex::new(GateState {
                line_open: false,
                tty: std::io::stderr().is_terminal(),
            }),
        }
    }

    /// The process-wide gate (stderr's TTY-ness is probed once).
    pub fn global() -> &'static StderrGate {
        static GATE: OnceLock<StderrGate> = OnceLock::new();
        GATE.get_or_init(StderrGate::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Whether stderr is a terminal (drives `\r` rewriting vs discrete
    /// lines).
    pub fn is_tty(&self) -> bool {
        self.lock().tty
    }

    /// Render/update the progress line. On a TTY the line is redrawn in
    /// place (`\r` + clear); otherwise it is printed as a plain line
    /// (callers throttle non-TTY updates).
    pub fn progress_update(&self, text: &str) {
        let mut st = self.lock();
        let mut err = std::io::stderr().lock();
        if st.tty {
            let _ = write!(err, "\r\x1b[2K{text}");
            let _ = err.flush();
            st.line_open = true;
        } else {
            let _ = writeln!(err, "{text}");
        }
    }

    /// Print a full line, erasing any open progress line first.
    pub fn println(&self, text: &str) {
        self.write_bytes(text.as_bytes(), true);
    }

    /// Raw write used by [`GateWriter`]; `newline` appends `\n`.
    fn write_bytes(&self, bytes: &[u8], newline: bool) {
        let mut st = self.lock();
        let mut err = std::io::stderr().lock();
        if st.line_open {
            let _ = write!(err, "\r\x1b[2K");
            st.line_open = false;
        }
        let _ = err.write_all(bytes);
        if newline {
            let _ = err.write_all(b"\n");
        }
        let _ = err.flush();
    }

    /// Terminate an open progress line (called when the monitor stops)
    /// so subsequent writes start on a fresh line.
    pub fn finish_line(&self) {
        let mut st = self.lock();
        if st.line_open {
            let mut err = std::io::stderr().lock();
            let _ = err.write_all(b"\n");
            let _ = err.flush();
            st.line_open = false;
        }
    }
}

/// `io::Write` adapter that routes complete lines through the
/// [`StderrGate`], buffering partial writes so a formatted line reaches
/// stderr as one atomic write even though `write_fmt` delivers it in
/// fragments. The CLI hands this to `run()` as the summary writer when
/// `--progress` shares stderr with the human output.
pub struct GateWriter {
    gate: &'static StderrGate,
    buf: Vec<u8>,
}

impl GateWriter {
    /// Writer over `gate`.
    pub fn new(gate: &'static StderrGate) -> Self {
        GateWriter {
            gate,
            buf: Vec::new(),
        }
    }

    fn drain_complete_lines(&mut self) {
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let rest = self.buf.split_off(pos + 1);
            let line = std::mem::replace(&mut self.buf, rest);
            self.gate.write_bytes(&line, false);
        }
    }
}

impl Write for GateWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(buf);
        self.drain_complete_lines();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            let rest = std::mem::take(&mut self.buf);
            self.gate.write_bytes(&rest, false);
        }
        Ok(())
    }
}

impl Drop for GateWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Monitor thread configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Sampling interval between board samples.
    pub interval: Duration,
    /// Consecutive idle intervals before the watchdog fires.
    pub stall_intervals: u32,
    /// Render the TTY-aware progress line to the global [`StderrGate`].
    pub progress_line: bool,
    /// Label shown in the progress line (e.g. the subcommand name).
    pub label: String,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            interval: Duration::from_millis(200),
            stall_intervals: 5,
            progress_line: false,
            label: "run".to_string(),
        }
    }
}

/// Sentinel for "no forecast yet" in the shared counter-index cell.
const NO_FORECAST: usize = usize::MAX;

struct MonitorShared {
    stop: Mutex<bool>,
    wake: Condvar,
    /// Forecast handed over after planning: counter discriminant (or
    /// [`NO_FORECAST`]) and predicted total.
    forecast_counter: AtomicUsize,
    forecast_total: AtomicU64,
}

/// What the monitor thread did and last measured, returned by
/// [`Monitor::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitorStats {
    /// Board samples taken.
    pub samples: u64,
    /// Heartbeat events emitted (excluding the final one).
    pub heartbeats: u64,
    /// Stall windows detected.
    pub stalls: u64,
    /// Final completion: exactly 1.0 for a complete run, else the last
    /// sampled fraction.
    pub fraction: f64,
    /// Final ETA in ms: 0 for a complete run, else the last sampled one
    /// (`None` if no sample ever saw progress).
    pub eta_ms: Option<u64>,
}

/// Handle to the background monitor thread. Dropping without calling
/// [`Monitor::finish`] stops the thread without a final heartbeat.
pub struct Monitor {
    shared: Arc<MonitorShared>,
    handle: Option<std::thread::JoinHandle<MonitorStats>>,
    sink: Option<SharedSink>,
    progress_line: bool,
    started: Instant,
}

impl Monitor {
    /// Spawn the monitor thread over `board`. Heartbeat/stall events go
    /// to `sink` when given (sharing its `seq` with every other
    /// producer); the progress line goes to the global [`StderrGate`]
    /// when `cfg.progress_line` is set.
    pub fn spawn(board: Arc<LiveBoard>, sink: Option<SharedSink>, cfg: MonitorConfig) -> Monitor {
        let shared = Arc::new(MonitorShared {
            stop: Mutex::new(false),
            wake: Condvar::new(),
            forecast_counter: AtomicUsize::new(NO_FORECAST),
            forecast_total: AtomicU64::new(0),
        });
        let started = Instant::now();
        let worker = MonitorWorker {
            board,
            sink: sink.clone(),
            shared: Arc::clone(&shared),
            cfg: cfg.clone(),
            started,
        };
        let handle = std::thread::Builder::new()
            .name("bfly-monitor".to_string())
            .spawn(move || worker.run())
            .expect("spawn monitor thread");
        Monitor {
            shared,
            handle: Some(handle),
            sink,
            progress_line: cfg.progress_line,
            started,
        }
    }

    /// Hand the monitor its work forecast (callable after spawn, once
    /// the planner knows predicted totals).
    pub fn set_forecast(&self, f: WorkForecast) {
        self.shared.forecast_total.store(f.total, Ordering::Relaxed);
        self.shared
            .forecast_counter
            .store(f.counter as usize, Ordering::Release);
    }

    /// Stop the thread, emit the final heartbeat (fraction exactly 1.0
    /// when `complete`), release the progress line, and return the
    /// thread's stats with the final fraction and ETA.
    pub fn finish(mut self, complete: bool) -> MonitorStats {
        let mut stats = self.stop_thread();
        if complete {
            stats.fraction = 1.0;
            stats.eta_ms = Some(0);
        }
        let fraction = stats.fraction;
        if let Some(sink) = &self.sink {
            sink.emit(
                "heartbeat",
                vec![
                    (
                        "elapsed_ms".to_string(),
                        Json::UInt(self.started.elapsed().as_millis() as u64),
                    ),
                    ("fraction".to_string(), Json::Float(fraction)),
                    ("final".to_string(), Json::Bool(true)),
                    ("complete".to_string(), Json::Bool(complete)),
                ],
            );
        }
        if self.progress_line {
            StderrGate::global().finish_line();
        }
        stats
    }

    fn stop_thread(&mut self) -> MonitorStats {
        if let Some(handle) = self.handle.take() {
            {
                let mut stop = match self.shared.stop.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                *stop = true;
            }
            self.shared.wake.notify_all();
            handle.join().unwrap_or_default()
        } else {
            MonitorStats::default()
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.stop_thread();
    }
}

struct MonitorWorker {
    board: Arc<LiveBoard>,
    sink: Option<SharedSink>,
    shared: Arc<MonitorShared>,
    cfg: MonitorConfig,
    started: Instant,
}

impl MonitorWorker {
    fn run(self) -> MonitorStats {
        let mut model = ProgressModel::new(0);
        let mut dog = StallWatchdog::new(self.cfg.stall_intervals);
        let mut last = self.board.counters();
        let mut stats = MonitorStats::default();
        let mut last_pct_printed: i64 = -1;
        loop {
            {
                let stop = match self.shared.stop.lock() {
                    Ok(g) => g,
                    Err(p) => p.into_inner(),
                };
                if *stop {
                    break;
                }
                let (stop, _) = self
                    .shared
                    .wake
                    .wait_timeout(stop, self.cfg.interval)
                    .unwrap_or_else(|p| p.into_inner());
                if *stop {
                    break;
                }
            }
            stats.samples += 1;
            let snap = self.board.counters();
            let delta = snap.delta_since(&last);
            let advanced = Counter::ALL
                .iter()
                .any(|&c| c != Counter::StallsDetected && delta.get(c) > 0);

            // Fold the forecast in (it may arrive after spawn).
            let cidx = self.shared.forecast_counter.load(Ordering::Acquire);
            if cidx != NO_FORECAST {
                model.set_total(self.shared.forecast_total.load(Ordering::Relaxed));
                model.observe(snap.get(Counter::ALL[cidx]));
            }
            let fraction = model.fraction();
            stats.fraction = fraction;
            self.board.set_gauge("progress.fraction", fraction);
            let elapsed_ms = self.started.elapsed().as_millis() as u64;
            let eta = model.eta_ms(elapsed_ms);
            if let Some(eta) = eta {
                stats.eta_ms = Some(eta);
                self.board.set_gauge("progress.eta_ms", eta as f64);
            }

            if let Some(sink) = &self.sink {
                let mut fields = vec![
                    ("elapsed_ms".to_string(), Json::UInt(elapsed_ms)),
                    ("fraction".to_string(), Json::Float(fraction)),
                    ("done".to_string(), Json::UInt(model.done())),
                    ("total".to_string(), Json::UInt(model.total())),
                    ("stalls".to_string(), Json::UInt(dog.stalls())),
                ];
                if let Some(eta) = eta {
                    fields.push(("eta_ms".to_string(), Json::UInt(eta)));
                }
                sink.emit("heartbeat", fields);
                stats.heartbeats += 1;
            }

            if self.cfg.progress_line {
                self.render_progress_line(fraction, eta, &dog, &mut last_pct_printed);
            }

            if dog.observe(advanced) {
                stats.stalls += 1;
                self.board.incr(Counter::StallsDetected, 1);
                if let Some(sink) = &self.sink {
                    let mut fields = vec![
                        ("elapsed_ms".to_string(), Json::UInt(elapsed_ms)),
                        (
                            "idle_intervals".to_string(),
                            Json::UInt(dog.idle_intervals() as u64),
                        ),
                        ("fraction".to_string(), Json::Float(fraction)),
                    ];
                    fields.extend(snapshot_fields(&snap, &self.board.gauges()));
                    sink.emit("stall", fields);
                }
                if self.cfg.progress_line {
                    StderrGate::global().println(&format!(
                        "warning: {}: no counter progress for {} sampling intervals \
                         ({} ms each); run continues",
                        self.cfg.label,
                        dog.idle_intervals(),
                        self.cfg.interval.as_millis()
                    ));
                }
            }
            last = snap;
        }
        stats
    }

    fn render_progress_line(
        &self,
        fraction: f64,
        eta: Option<u64>,
        dog: &StallWatchdog,
        last_pct_printed: &mut i64,
    ) {
        let gate = StderrGate::global();
        let pct = (fraction * 100.0).floor() as i64;
        // Off-TTY, print only when the whole percent moves so logs are
        // not flooded at the sampling rate.
        if !gate.is_tty() && pct == *last_pct_printed {
            return;
        }
        *last_pct_printed = pct;
        let eta_txt = match eta {
            Some(ms) if ms >= 1000 => format!("{:.1}s", ms as f64 / 1000.0),
            Some(ms) => format!("{ms}ms"),
            None => "?".to_string(),
        };
        let stall_txt = if dog.is_stalled() { " [stalled]" } else { "" };
        gate.progress_update(&format!(
            "{}: {:5.1}% | elapsed {:.1}s | eta {}{}",
            self.cfg.label,
            fraction * 100.0,
            self.started.elapsed().as_secs_f64(),
            eta_txt,
            stall_txt,
        ));
    }
}

/// The snapshot portion of a `stall` event: the board's non-zero
/// counters and its gauges, and the tracking allocator's `mem.*`
/// readings. The spans finished so far are in the stream and the flight
/// ring already.
fn snapshot_fields(counters: &WorkTally, gauges: &[(&'static str, f64)]) -> Vec<(String, Json)> {
    let counters = Counter::ALL
        .iter()
        .filter(|&&c| counters.get(c) != 0)
        .map(|&c| (c.name().to_string(), Json::UInt(counters.get(c))))
        .collect();
    let gauges = gauges
        .iter()
        .map(|&(n, v)| (n.to_string(), Json::Float(v)))
        .collect();
    vec![
        ("counters".to_string(), Json::Obj(counters)),
        ("gauges".to_string(), Json::Obj(gauges)),
        (
            "mem".to_string(),
            Json::Obj(vec![
                (
                    "tracking_active".to_string(),
                    Json::Bool(crate::mem::tracking_active()),
                ),
                (
                    "current_bytes".to_string(),
                    Json::UInt(crate::mem::current_bytes()),
                ),
                (
                    "peak_bytes".to_string(),
                    Json::UInt(crate::mem::peak_bytes()),
                ),
            ]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, NdjsonSink, Recorder};

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
        std::str::from_utf8(&bytes)
            .unwrap()
            .lines()
            .map(|l| Json::parse(l).expect("line parses"))
            .collect()
    }

    #[test]
    fn fraction_tracks_done_over_total_and_clamps() {
        let mut m = ProgressModel::new(100);
        assert_eq!(m.fraction(), 0.0);
        m.observe(25);
        assert_eq!(m.fraction(), 0.25);
        // Cumulative counters never regress; stale observations are kept.
        m.observe(10);
        assert_eq!(m.fraction(), 0.25);
        m.observe(250);
        assert_eq!(m.fraction(), 1.0);
    }

    #[test]
    fn unknown_total_stays_at_zero_until_finish() {
        let mut m = ProgressModel::new(0);
        m.observe(1_000_000);
        assert_eq!(m.fraction(), 0.0);
        assert_eq!(m.eta_ms(500), None);
        m.finish();
        assert_eq!(m.fraction(), 1.0);
        assert_eq!(m.eta_ms(500), Some(0));
    }

    #[test]
    fn eta_is_monotone_under_a_synthetic_clock() {
        // Constant rate: 10 units per synthetic tick of 100 ms.
        let mut m = ProgressModel::new(1000);
        let mut last_eta = u64::MAX;
        for tick in 1..=99u64 {
            m.observe(tick * 10);
            let eta = m.eta_ms(tick * 100).expect("progress exists");
            assert!(
                eta <= last_eta,
                "eta regressed at tick {tick}: {eta} > {last_eta}"
            );
            last_eta = eta;
        }
        m.observe(1000);
        assert_eq!(m.eta_ms(10_000), Some(0));
    }

    #[test]
    fn monitor_emits_heartbeats_with_shared_monotonic_seq() {
        let buf = Buf::default();
        let sink = NdjsonSink::from_writer(Box::new(buf.clone())).into_shared();
        let board = Arc::new(LiveBoard::new());
        let mut rec = InMemoryRecorder::new()
            .with_sink(sink.clone())
            .with_board(Arc::clone(&board));
        let monitor = Monitor::spawn(
            Arc::clone(&board),
            Some(sink),
            MonitorConfig {
                interval: Duration::from_millis(2),
                ..MonitorConfig::default()
            },
        );
        monitor.set_forecast(WorkForecast::new(Counter::WedgesExpanded, 1000));
        // Kernel-side events interleave with the monitor's heartbeats.
        for _ in 0..20 {
            rec.span_enter("work");
            rec.incr(Counter::WedgesExpanded, 50);
            rec.span_exit("work");
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = monitor.finish(true);
        assert!(stats.samples > 0, "monitor sampled");
        assert!(stats.heartbeats > 0, "heartbeats emitted");
        assert_eq!((stats.fraction, stats.eta_ms), (1.0, Some(0)));

        let events = lines(&buf);
        let mut prev_seq = None;
        for e in &events {
            let seq = e.get("seq").unwrap().as_u64().unwrap();
            if let Some(p) = prev_seq {
                assert!(seq > p, "seq must be strictly monotonic: {seq} after {p}");
            }
            prev_seq = Some(seq);
        }
        let types: Vec<&str> = events
            .iter()
            .map(|e| e.get("type").unwrap().as_str().unwrap())
            .collect();
        assert!(types.contains(&"heartbeat"));
        assert!(types.contains(&"span"), "kernel events interleave");

        // Heartbeat fractions are non-decreasing and end at exactly 1.0.
        let fractions: Vec<f64> = events
            .iter()
            .filter(|e| e.get("type").unwrap().as_str() == Some("heartbeat"))
            .map(|e| match e.get("fraction").unwrap() {
                Json::Float(f) => *f,
                Json::UInt(u) => *u as f64,
                other => panic!("fraction not numeric: {other:?}"),
            })
            .collect();
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "fraction regressed: {w:?}");
        }
        assert_eq!(*fractions.last().unwrap(), 1.0);
        assert_eq!(board.counter(Counter::StallsDetected), 0);
    }

    #[test]
    fn monitor_detects_a_stall_exactly_once_per_window() {
        let buf = Buf::default();
        let sink = NdjsonSink::from_writer(Box::new(buf.clone())).into_shared();
        let board = Arc::new(LiveBoard::new());
        let monitor = Monitor::spawn(
            Arc::clone(&board),
            Some(sink),
            MonitorConfig {
                interval: Duration::from_millis(2),
                stall_intervals: 3,
                ..MonitorConfig::default()
            },
        );
        // No counter ever advances: one stall window, however long we wait.
        std::thread::sleep(Duration::from_millis(60));
        let stats = monitor.finish(false);
        assert_eq!(stats.stalls, 1, "exactly one stall per window");
        assert_eq!(board.counter(Counter::StallsDetected), 1);

        let events = lines(&buf);
        let stalls: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("type").unwrap().as_str() == Some("stall"))
            .collect();
        assert_eq!(stalls.len(), 1);
        let stall = stalls[0];
        assert!(stall.get("counters").is_some());
        assert!(stall.get("gauges").is_some());
        assert!(stall.get("mem").is_some());
        assert_eq!(
            stall.get("idle_intervals").unwrap().as_u64(),
            Some(3),
            "fires when patience is exhausted"
        );
    }

    #[test]
    fn gate_writer_delivers_whole_lines() {
        // Exercise the buffering logic against a plain sink-less gate:
        // we can't capture process stderr here, but the line-splitting
        // behaviour is what satellite 6 depends on.
        let mut w = GateWriter::new(StderrGate::global());
        // Fragmented writes assemble into lines (no panic, fully consumed).
        assert_eq!(w.write(b"hel").unwrap(), 3);
        assert_eq!(w.write(b"lo\nwor").unwrap(), 6);
        assert_eq!(w.write(b"ld\n").unwrap(), 3);
        w.flush().unwrap();
    }
}
