//! Crash flight recorder: a fixed-size ring of the most recent telemetry
//! events, dumped together with a final [`RunReport`] snapshot when a run
//! dies — by panic (via [`install_panic_hook`], which can only reach the
//! [`LiveBoard`]'s counters and gauges) or by deadline truncation or an
//! error (the CLI dumps the run's own recorder report explicitly).
//! Post-mortems then see the last spans, heartbeats, stalls, and gauges
//! leading up to the failure without depending on the run ever reaching
//! its report.
//!
//! The ring is write-optimised for many producers: slots are claimed
//! with a single lock-free `fetch_add`, and each slot is guarded by its
//! own mutex that is only ever contended when a writer laps a reader (or
//! another writer) on the same slot. Writers never block each other on a
//! shared lock, and recording never allocates beyond the event line
//! itself.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::Json;
use crate::report::RunReport;
use crate::LiveBoard;

/// Version stamp on every dump so consumers can detect format drift.
pub const FLIGHT_FORMAT_VERSION: u64 = 1;

/// Default ring capacity used by the CLI: enough for minutes of
/// heartbeats at the default sampling interval.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// One ring slot: the `seq` an event was stamped with plus its rendered
/// NDJSON line, absent until a writer claims the slot.
type Slot = Mutex<Option<(u64, String)>>;

/// Fixed-capacity ring of `(seq, ndjson-line)` telemetry events.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    claimed: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("claimed", &self.claimed.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// Ring holding the last `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| Mutex::new(None))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlightRecorder {
            slots,
            claimed: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        (self.claimed.load(Ordering::Relaxed) as usize).min(self.slots.len())
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.claimed.load(Ordering::Relaxed) == 0
    }

    /// Events recorded over the ring's lifetime, including overwritten
    /// ones.
    pub fn recorded(&self) -> u64 {
        self.claimed.load(Ordering::Relaxed)
    }

    /// Record one event line. Thread-safe; the slot claim is a single
    /// `fetch_add`, so producers never serialise against each other on a
    /// shared lock. Older events are overwritten once the ring is full.
    pub fn record(&self, seq: u64, line: &str) {
        let i = self.claimed.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        let entry = Some((seq, line.to_string()));
        match self.slots[i].lock() {
            Ok(mut slot) => *slot = entry,
            Err(poisoned) => *poisoned.into_inner() = entry,
        }
    }

    /// Retained events ordered oldest-first by `seq`. Slots mid-write by
    /// a concurrent producer are skipped rather than blocked on.
    pub fn events(&self) -> Vec<(u64, String)> {
        let mut out: Vec<(u64, String)> = self
            .slots
            .iter()
            .filter_map(|slot| match slot.lock() {
                Ok(s) => s.clone(),
                Err(poisoned) => poisoned.into_inner().clone(),
            })
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Render the dump document: format version, the reason the run
    /// died, how many events the ring dropped, the retained event tail
    /// (each line re-parsed so the dump is one self-contained JSON
    /// document), and the final snapshot report.
    pub fn dump(&self, snapshot: Option<&RunReport>, reason: &str) -> String {
        let events = self.events();
        let dropped = self.recorded().saturating_sub(events.len() as u64);
        let mut obj = vec![
            ("type".to_string(), Json::Str("flight_recorder".to_string())),
            ("version".to_string(), Json::UInt(FLIGHT_FORMAT_VERSION)),
            ("reason".to_string(), Json::Str(reason.to_string())),
            ("dropped".to_string(), Json::UInt(dropped)),
            (
                "events".to_string(),
                Json::Arr(
                    events
                        .iter()
                        .map(|(_, line)| {
                            Json::parse(line).unwrap_or_else(|_| Json::Str(line.clone()))
                        })
                        .collect(),
                ),
            ),
        ];
        if let Some(rep) = snapshot {
            obj.push(("snapshot".to_string(), rep.to_json()));
        }
        Json::Obj(obj).pretty()
    }

    /// Write [`FlightRecorder::dump`] to `path` (created or truncated).
    pub fn dump_to_file(
        &self,
        path: &str,
        snapshot: Option<&RunReport>,
        reason: &str,
    ) -> std::io::Result<()> {
        let doc = self.dump(snapshot, reason);
        let mut f = std::fs::File::create(path)?;
        f.write_all(doc.as_bytes())?;
        writeln!(f)?;
        f.flush()
    }
}

/// Chain a panic hook that dumps `flight` plus the `board`'s counters and
/// gauges to `path` before delegating to the previous hook. The dump is
/// best-effort: IO errors are swallowed (a failing dump must not mask
/// the original panic).
pub fn install_panic_hook(flight: Arc<FlightRecorder>, board: Arc<LiveBoard>, path: String) {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let reason = format!("panic: {info}");
        let snap = board.report(vec![(
            "flight_reason".to_string(),
            Json::Str(reason.clone()),
        )]);
        let _ = flight.dump_to_file(&path, Some(&snap), &reason);
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Counter;

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest_events() {
        let ring = FlightRecorder::new(4);
        assert!(ring.is_empty());
        for seq in 0..10u64 {
            ring.record(seq, &format!("{{\"seq\":{seq}}}"));
        }
        assert_eq!(ring.capacity(), 4);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.recorded(), 10);
        let seqs: Vec<u64> = ring.events().iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "oldest-first tail of the stream");
    }

    #[test]
    fn zero_capacity_is_clamped_not_a_panic() {
        let ring = FlightRecorder::new(0);
        ring.record(0, "{}");
        assert_eq!(ring.capacity(), 1);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn concurrent_writers_never_lose_the_claim_count() {
        let ring = Arc::new(FlightRecorder::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    ring.record(t * 1000 + i, "{}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ring.recorded(), 400);
        assert_eq!(ring.len(), 8);
    }

    #[test]
    fn dump_is_parseable_json_with_events_and_snapshot() {
        let ring = FlightRecorder::new(8);
        ring.record(0, r#"{"type":"heartbeat","seq":0}"#);
        ring.record(1, "not json at all");
        let board = LiveBoard::new();
        board.incr(Counter::WedgesExpanded, 7);
        let snap = board.report(vec![]);
        let doc = ring.dump(Some(&snap), "deadline");
        let j = Json::parse(&doc).expect("dump parses");
        assert_eq!(j.get("type").unwrap().as_str(), Some("flight_recorder"));
        assert_eq!(j.get("reason").unwrap().as_str(), Some("deadline"));
        assert_eq!(j.get("dropped").unwrap().as_u64(), Some(0));
        let events = j.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("type").unwrap().as_str(), Some("heartbeat"));
        // Unparseable lines are preserved verbatim as strings.
        assert_eq!(events[1].as_str(), Some("not json at all"));
        let snap_counters = j.get("snapshot").unwrap().get("counters").unwrap();
        assert_eq!(
            snap_counters.get("wedges_expanded").unwrap().as_u64(),
            Some(7)
        );
    }
}
