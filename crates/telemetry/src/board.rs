//! The live board: what a liveness monitor reads while a run is in
//! flight.
//!
//! A run records into one [`InMemoryRecorder`](crate::InMemoryRecorder),
//! which buffers everything until the report. `--progress` and
//! `--flight-recorder` also need the run's counters *during* the run,
//! from another thread. So the recorder, and every
//! [`ThreadTrace`](crate::ThreadTrace) it forks, can hold an `Arc` to a
//! [`LiveBoard`] and mirror onto it:
//!
//! * **counters** — a flat `[AtomicU64; Counter::COUNT]` with relaxed
//!   adds. Each increment lands once, from whichever thread did the
//!   work, so forked workers show their work before the join, and after
//!   the last join the board's totals equal the recorder's.
//! * **gauges** — last-write values behind one mutex. Only the caller's
//!   recorder and the monitor write them, a few times per run.
//!
//! The board is not a recorder: spans, series and histograms stay
//! on the recorder. The monitor samples the board for heartbeats, the
//! stall watchdog and the `progress.*` gauges, and the panic hook dumps
//! it, because a panicking thread cannot reach the recorder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::Json;
use crate::report::RunReport;
use crate::{Counter, WorkTally};

/// Atomic counters and last-write gauges, shared by a run's recorders
/// and read by its monitor. See the module docs.
#[derive(Debug)]
pub struct LiveBoard {
    counters: [AtomicU64; Counter::COUNT],
    /// A poisoned lock is recovered, not propagated: every update is one
    /// store or one push, so the list stays valid, and the panic hook
    /// must still read it while a thread panics.
    gauges: Mutex<Vec<(&'static str, f64)>>,
}

impl Default for LiveBoard {
    fn default() -> Self {
        LiveBoard::new()
    }
}

impl LiveBoard {
    /// Empty board: every counter zero, no gauges.
    pub fn new() -> Self {
        LiveBoard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: Mutex::new(Vec::new()),
        }
    }

    /// Add `n` to counter `c` (lock-free).
    #[inline]
    pub fn incr(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Every counter, read one atomic at a time: exact at a quiescent
    /// point, and mid-run each value is one the counter really held.
    pub fn counters(&self) -> WorkTally {
        let mut t = WorkTally::new();
        for c in Counter::ALL {
            t.add(c, self.counter(c));
        }
        t
    }

    /// Set a gauge (last write wins across threads).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        let mut gauges = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        match gauges.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => gauges.push((name, value)),
        }
    }

    /// Every gauge set so far, in first-write order.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        self.gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// The board as a [`RunReport`] with counters and gauges only — what
    /// a panic dump can still say about the run.
    pub fn report(&self, meta: Vec<(String, Json)>) -> RunReport {
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta,
            counters: Counter::ALL
                .into_iter()
                .map(|c| (c.name().to_string(), self.counter(c)))
                .collect(),
            gauges: self
                .gauges()
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
            series: Vec::new(),
            spans: Vec::new(),
            histograms: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InMemoryRecorder, Recorder};
    use std::sync::Arc;

    #[test]
    fn board_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<LiveBoard>();
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let board = LiveBoard::new();
        board.incr(Counter::WedgesExpanded, 5);
        board.incr(Counter::WedgesExpanded, 7);
        board.set_gauge("par_imbalance", 1.5);
        board.set_gauge("par_imbalance", 2.5);
        assert_eq!(board.counter(Counter::WedgesExpanded), 12);
        assert_eq!(board.counters().get(Counter::WedgesExpanded), 12);
        assert_eq!(board.gauges(), vec![("par_imbalance", 2.5)]);
    }

    #[test]
    fn forked_workers_publish_live() {
        let board = Arc::new(LiveBoard::new());
        let mut rec = InMemoryRecorder::new().with_board(Arc::clone(&board));
        rec.incr(Counter::VerticesExposed, 2);
        rec.gauge("plan.chunks", 1.0);
        let mut worker = rec.fork();
        std::thread::scope(|s| {
            s.spawn(|| {
                worker.span_enter("chunk");
                worker.incr(Counter::WedgesExpanded, 11);
                worker.hist_record("chunk_us", 42);
                worker.span_exit("chunk");
            });
        });
        // Visible before the join: the worker wrote through to the board,
        // while the recorder has not seen the chunk yet.
        assert_eq!(board.counter(Counter::WedgesExpanded), 11);
        assert_eq!(rec.counter(Counter::WedgesExpanded), 0);
        rec.join(1, worker);
        // After the join the board equals the recorder, with nothing
        // counted twice.
        for c in Counter::ALL {
            assert_eq!(board.counter(c), rec.counter(c), "{}", c.name());
        }
        assert_eq!(board.gauges(), vec![("plan.chunks", 1.0)]);
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn report_carries_counters_and_gauges_only() {
        let board = LiveBoard::new();
        board.incr(Counter::PeelRounds, 4);
        board.set_gauge("budget.max_bytes", 1e6);
        let rep = board.report(vec![(
            "flight_reason".to_string(),
            Json::Str("panic".to_string()),
        )]);
        assert_eq!(rep.counter("peel_rounds"), Some(4));
        assert_eq!(rep.gauges, vec![("budget.max_bytes".to_string(), 1e6)]);
        assert!(rep.spans.is_empty() && rep.histograms.is_empty());
        let back = RunReport::parse(&rep.to_json_string()).unwrap();
        assert_eq!(rep, back);
    }
}
