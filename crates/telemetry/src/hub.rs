//! Live, shareable telemetry hub.
//!
//! [`MetricsHub`] is the concurrent counterpart of
//! [`InMemoryRecorder`](crate::InMemoryRecorder): one hub can be shared
//! by reference across threads and across many runs in one process (the
//! per-request sink a `bfly serve` daemon needs), and scraped live while
//! work is in flight. The layout is chosen so the hot paths never
//! block:
//!
//! * **counters** — a flat `[AtomicU64; Counter::COUNT]`, lock-free
//!   relaxed adds; totals are exact because u64 addition is associative
//!   and commutative (the same algebra `CheckedAccum` merges rely on).
//! * **gauges** — a registry of f64-bit atomics behind an `RwLock` that
//!   is only write-locked the first time a name appears.
//! * **histograms / phases / series / span aggregates** — sharded
//!   `Mutex`es; each thread is assigned a shard round-robin on first
//!   use, so contention is bounded by threads-per-shard, and shard
//!   merges happen only at [`MetricsHub::snapshot`] time.
//! * **spans** — recorded through a `thread_local` stack (no shared
//!   state on enter) and folded into per-name aggregates
//!   ([`SpanAgg`]: count / total / max duration) rather than buffered
//!   as rows: a long-lived hub must not grow without bound, so the
//!   span cap and `spans_dropped` machinery of the buffering recorders
//!   does not apply here.
//!
//! Because the hub records through `&self`, it implements
//! [`Recorder`] **for `&MetricsHub`** — any instrumented API taking
//! `&mut R` accepts `&mut &hub`, and many such borrows can live at
//! once: [`Recorder::fork`] hands every parallel worker the same hub, so
//! workers publish live and the join has nothing left to fold.
//!
//! [`MetricsHub::snapshot`] returns a [`MetricsSnapshot`] — a coherent*
//! copy of everything above. `MetricsSnapshot::delta_since` subtracts an
//! earlier snapshot element-wise (exact for counters, bucket-exact for
//! histograms), which is what a scrape loop or a per-request accounting
//! layer uses. (*Counters are read one atomic at a time, so a snapshot
//! taken mid-run can observe one counter ahead of another; taken at a
//! quiescent point it is exact.)

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

use crate::hist::Histogram;
use crate::json::Json;
use crate::report::{PhaseRow, RunReport};
use crate::{Counter, Recorder};

/// Number of mutex shards for histogram/phase/series/span-agg state.
const NSHARDS: usize = 8;

/// Cap on buffered values per series name per shard: a hub outlives
/// many runs, and series are the only unbounded-by-design stream.
/// Overflow is counted in the `series_dropped` gauge.
const SERIES_CAP: usize = 4096;

/// Aggregated view of one span name: the hub keeps totals, not rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanAgg {
    /// Spans closed under this name.
    pub count: u64,
    /// Summed duration, microseconds.
    pub total_us: u64,
    /// Longest single span, microseconds.
    pub max_us: u64,
}

impl SpanAgg {
    fn absorb_one(&mut self, dur_us: u64) {
        self.count += 1;
        self.total_us += dur_us;
        self.max_us = self.max_us.max(dur_us);
    }

    fn absorb(&mut self, other: &SpanAgg) {
        self.count += other.count;
        self.total_us += other.total_us;
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Element-wise difference against an earlier snapshot (max_us is
    /// carried from the later aggregate — a maximum has no inverse).
    fn saturating_sub(&self, earlier: &SpanAgg) -> SpanAgg {
        SpanAgg {
            count: self.count.saturating_sub(earlier.count),
            total_us: self.total_us.saturating_sub(earlier.total_us),
            max_us: self.max_us,
        }
    }
}

#[derive(Debug, Default)]
struct HubShard {
    hists: Vec<(&'static str, Histogram)>,
    spans: Vec<(&'static str, SpanAgg)>,
    phases: Vec<(&'static str, f64, u64)>,
    series: Vec<(&'static str, Vec<f64>)>,
}

impl HubShard {
    fn hist(&mut self, name: &'static str) -> &mut Histogram {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            &mut self.hists[i].1
        } else {
            self.hists.push((name, Histogram::new()));
            &mut self.hists.last_mut().unwrap().1
        }
    }

    fn span(&mut self, name: &'static str) -> &mut SpanAgg {
        if let Some(i) = self.spans.iter().position(|(n, _)| *n == name) {
            &mut self.spans[i].1
        } else {
            self.spans.push((name, SpanAgg::default()));
            &mut self.spans.last_mut().unwrap().1
        }
    }
}

thread_local! {
    /// Open spans of *hub* recorders on this thread: (hub identity,
    /// name, entry time). One stack serves every hub — entries are keyed
    /// by the hub's address so two hubs interleave safely.
    static HUB_SPANS: RefCell<Vec<(usize, &'static str, Instant)>> =
        const { RefCell::new(Vec::new()) };

    /// This thread's assigned shard per hub (hub identity, shard index).
    static HUB_SHARD: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Lock-free-hot-path concurrent recorder. See the module docs for the
/// layout; construct with [`MetricsHub::new`], share with `&hub`.
#[derive(Debug)]
pub struct MetricsHub {
    counters: [AtomicU64; Counter::COUNT],
    gauges: RwLock<Vec<(&'static str, AtomicU64)>>,
    shards: Vec<Mutex<HubShard>>,
    next_shard: AtomicUsize,
    series_dropped: AtomicU64,
    spans_dropped: AtomicU64,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub::new()
    }
}

impl MetricsHub {
    /// Fresh hub with all state zero.
    pub fn new() -> Self {
        MetricsHub {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: RwLock::new(Vec::new()),
            shards: (0..NSHARDS)
                .map(|_| Mutex::new(HubShard::default()))
                .collect(),
            next_shard: AtomicUsize::new(0),
            series_dropped: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
        }
    }

    /// Stable identity for thread-local keying.
    #[inline]
    fn id(&self) -> usize {
        self as *const MetricsHub as usize
    }

    /// The calling thread's shard, assigned round-robin on first use.
    fn shard(&self) -> &Mutex<HubShard> {
        let idx = HUB_SHARD.with(|m| {
            let mut m = m.borrow_mut();
            if let Some(&(_, idx)) = m.iter().find(|(id, _)| *id == self.id()) {
                idx
            } else {
                let idx = self.next_shard.fetch_add(1, Ordering::Relaxed) % NSHARDS;
                m.push((self.id(), idx));
                idx
            }
        });
        &self.shards[idx]
    }

    /// Add `n` to counter `c` (lock-free).
    #[inline]
    pub fn incr(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of a counter.
    #[inline]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize].load(Ordering::Relaxed)
    }

    /// Set a gauge (last write wins across threads).
    pub fn set_gauge(&self, name: &'static str, value: f64) {
        let bits = value.to_bits();
        {
            let gauges = self.gauges.read().expect("hub gauges poisoned");
            if let Some((_, slot)) = gauges.iter().find(|(n, _)| *n == name) {
                slot.store(bits, Ordering::Relaxed);
                return;
            }
        }
        let mut gauges = self.gauges.write().expect("hub gauges poisoned");
        if let Some((_, slot)) = gauges.iter().find(|(n, _)| *n == name) {
            slot.store(bits, Ordering::Relaxed);
        } else {
            gauges.push((name, AtomicU64::new(bits)));
        }
    }

    /// Last value of a gauge, if set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let gauges = self.gauges.read().expect("hub gauges poisoned");
        gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| f64::from_bits(v.load(Ordering::Relaxed)))
    }

    /// Record one histogram sample into this thread's shard.
    pub fn record_hist(&self, name: &'static str, value: u64) {
        self.shard()
            .lock()
            .expect("hub shard poisoned")
            .hist(name)
            .record(value);
    }

    /// Append to a named series (capped at [`SERIES_CAP`] per shard;
    /// overflow increments the `series_dropped` gauge).
    pub fn push_series(&self, name: &'static str, value: f64) {
        let mut shard = self.shard().lock().expect("hub shard poisoned");
        let slot = if let Some(i) = shard.series.iter().position(|(n, _)| *n == name) {
            &mut shard.series[i].1
        } else {
            shard.series.push((name, Vec::new()));
            &mut shard.series.last_mut().unwrap().1
        };
        if slot.len() >= SERIES_CAP {
            drop(shard);
            self.series_dropped.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.push(value);
        }
    }

    /// Open a span on the calling thread.
    pub fn enter_span(&self, name: &'static str) {
        HUB_SPANS.with(|s| s.borrow_mut().push((self.id(), name, Instant::now())));
    }

    /// Close the innermost open span named `name` on the calling thread,
    /// implicitly closing this hub's spans nested inside it. Unmatched
    /// exits are ignored.
    pub fn exit_span(&self, name: &'static str) {
        let closed: Vec<(&'static str, u64)> = HUB_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let Some(pos) = s
                .iter()
                .rposition(|(id, n, _)| *id == self.id() && *n == name)
            else {
                return Vec::new();
            };
            let now = Instant::now();
            let mut closed = Vec::new();
            let mut i = s.len();
            while i > pos {
                i -= 1;
                if s[i].0 == self.id() {
                    let (_, n, t0) = s.remove(i);
                    closed.push((n, now.duration_since(t0).as_micros() as u64));
                }
            }
            closed
        });
        if closed.is_empty() {
            return;
        }
        let mut shard = self.shard().lock().expect("hub shard poisoned");
        for (n, dur) in closed {
            shard.span(n).absorb_one(dur);
        }
    }

    /// Fold a phase duration in (shared-state mirror of
    /// `phase_start`/`phase_end`; the hub only sees finished phases).
    fn add_phase(&self, name: &'static str, secs: f64) {
        let mut shard = self.shard().lock().expect("hub shard poisoned");
        if let Some(row) = shard.phases.iter_mut().find(|(n, _, _)| *n == name) {
            row.1 += secs;
            row.2 += 1;
        } else {
            shard.phases.push((name, secs, 1));
        }
    }

    /// Coherent copy of every metric for export or delta accounting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for (i, c) in self.counters.iter().enumerate() {
            counters[i] = c.load(Ordering::Relaxed);
        }
        let gauges = {
            let g = self.gauges.read().expect("hub gauges poisoned");
            g.iter()
                .map(|(n, v)| (n.to_string(), f64::from_bits(v.load(Ordering::Relaxed))))
                .collect()
        };
        let mut hists: Vec<(String, Histogram)> = Vec::new();
        let mut spans: Vec<(String, SpanAgg)> = Vec::new();
        let mut phases: Vec<(String, f64, u64)> = Vec::new();
        let mut series: Vec<(String, Vec<f64>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("hub shard poisoned");
            for (n, h) in &shard.hists {
                if let Some((_, mine)) = hists.iter_mut().find(|(m, _)| m == n) {
                    mine.merge(h);
                } else {
                    hists.push((n.to_string(), h.clone()));
                }
            }
            for (n, agg) in &shard.spans {
                if let Some((_, mine)) = spans.iter_mut().find(|(m, _)| m == n) {
                    mine.absorb(agg);
                } else {
                    spans.push((n.to_string(), *agg));
                }
            }
            for (n, secs, count) in &shard.phases {
                if let Some(row) = phases.iter_mut().find(|(m, _, _)| m == n) {
                    row.1 += secs;
                    row.2 += count;
                } else {
                    phases.push((n.to_string(), *secs, *count));
                }
            }
            for (n, vals) in &shard.series {
                if let Some((_, mine)) = series.iter_mut().find(|(m, _)| m == n) {
                    mine.extend_from_slice(vals);
                } else {
                    series.push((n.to_string(), vals.clone()));
                }
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            phases,
            spans,
            series,
            hists,
            spans_dropped: self.spans_dropped.load(Ordering::Relaxed),
            series_dropped: self.series_dropped.load(Ordering::Relaxed),
        }
    }
}

/// The `Recorder` face of the hub: implemented on `&MetricsHub` (not
/// `MetricsHub`) so instrumented APIs taking `&mut R` can be handed
/// `&mut &hub` while other threads hold their own borrows.
impl<'a> Recorder for &'a MetricsHub {
    const ENABLED: bool = true;
    type Worker = &'a MetricsHub;

    #[inline]
    fn incr(&mut self, c: Counter, n: u64) {
        MetricsHub::incr(self, c, n);
    }

    fn gauge(&mut self, name: &'static str, value: f64) {
        self.set_gauge(name, value);
    }

    fn series_push(&mut self, name: &'static str, value: f64) {
        self.push_series(name, value);
    }

    fn phase_start(&mut self, name: &'static str) {
        // Phases reuse the span stack for timing; only the closed
        // duration is shared.
        self.enter_span(name);
    }

    fn phase_end(&mut self, name: &'static str) {
        let dur = HUB_SPANS.with(|s| {
            let mut s = s.borrow_mut();
            let pos = s
                .iter()
                .rposition(|(id, n, _)| *id == self.id() && *n == name)?;
            let (_, _, t0) = s.remove(pos);
            Some(t0.elapsed().as_secs_f64())
        });
        if let Some(secs) = dur {
            self.add_phase(name, secs);
        }
    }

    fn span_enter(&mut self, name: &'static str) {
        self.enter_span(name);
    }

    fn span_exit(&mut self, name: &'static str) {
        self.exit_span(name);
    }

    fn hist_record(&mut self, name: &'static str, value: u64) {
        self.record_hist(name, value);
    }

    fn fork(&self) -> &'a MetricsHub {
        self
    }

    /// Workers published into the hub as they ran: nothing to fold.
    fn join(&mut self, _track: u32, _worker: &'a MetricsHub) {}
}

/// Point-in-time copy of a [`MetricsHub`]'s state.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Gauge values (registration order).
    pub gauges: Vec<(String, f64)>,
    /// `(name, seconds, count)` per folded phase.
    pub phases: Vec<(String, f64, u64)>,
    /// Per-name span aggregates.
    pub spans: Vec<(String, SpanAgg)>,
    /// Named series (concatenated across shards in shard order).
    pub series: Vec<(String, Vec<f64>)>,
    /// Merged histograms.
    pub hists: Vec<(String, Histogram)>,
    /// Worker-trace spans dropped at their per-trace cap.
    pub spans_dropped: u64,
    /// Series values dropped at the hub's cap.
    pub series_dropped: u64,
}

impl MetricsSnapshot {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// What happened between `earlier` and `self`: counters subtract
    /// exactly (the same u64 algebra `CheckedAccum` merges use),
    /// histograms bucket-wise ([`Histogram::saturating_sub`]), span
    /// aggregates by count/total. Gauges and series keep the later
    /// value — a gauge is a level, not a flow.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = [0u64; Counter::COUNT];
        for (i, slot) in counters.iter_mut().enumerate() {
            *slot = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        let hists = self
            .hists
            .iter()
            .map(|(n, h)| {
                let d = match earlier.hists.iter().find(|(m, _)| m == n) {
                    Some((_, e)) => h.saturating_sub(e),
                    None => h.clone(),
                };
                (n.clone(), d)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(n, agg)| {
                let d = match earlier.spans.iter().find(|(m, _)| m == n) {
                    Some((_, e)) => agg.saturating_sub(e),
                    None => *agg,
                };
                (n.clone(), d)
            })
            .collect();
        let phases = self
            .phases
            .iter()
            .map(
                |(n, secs, count)| match earlier.phases.iter().find(|(m, _, _)| m == n) {
                    Some((_, es, ec)) => (
                        (*n).clone(),
                        (secs - es).max(0.0),
                        count.saturating_sub(*ec),
                    ),
                    None => ((*n).clone(), *secs, *count),
                },
            )
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            phases,
            spans,
            series: self.series.clone(),
            hists,
            spans_dropped: self.spans_dropped.saturating_sub(earlier.spans_dropped),
            series_dropped: self.series_dropped.saturating_sub(earlier.series_dropped),
        }
    }

    /// Lower to a [`RunReport`] so the whole report toolchain — JSON,
    /// OpenMetrics exposition, `report show`/`diff`, history folding —
    /// works on hub state. Span aggregates become `span.<name>.count` /
    /// `.total_us` / `.max_us` gauges (the hub keeps no rows).
    pub fn to_report(&self, meta: Vec<(String, Json)>) -> RunReport {
        let mut gauges: Vec<(String, f64)> = self.gauges.clone();
        for (n, agg) in &self.spans {
            gauges.push((format!("span.{n}.count"), agg.count as f64));
            gauges.push((format!("span.{n}.total_us"), agg.total_us as f64));
            gauges.push((format!("span.{n}.max_us"), agg.max_us as f64));
        }
        if self.spans_dropped > 0 {
            gauges.push(("spans_dropped".to_string(), self.spans_dropped as f64));
        }
        if self.series_dropped > 0 {
            gauges.push(("series_dropped".to_string(), self.series_dropped as f64));
        }
        RunReport {
            schema_version: RunReport::SCHEMA_VERSION,
            meta,
            counters: Counter::ALL
                .into_iter()
                .map(|c| (c.name().to_string(), self.counter(c)))
                .collect(),
            gauges,
            phases: self
                .phases
                .iter()
                .map(|(n, s, c)| PhaseRow {
                    name: n.clone(),
                    seconds: *s,
                    count: *c,
                })
                .collect(),
            series: self.series.clone(),
            spans: Vec::new(),
            histograms: self.hists.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed_span;

    #[test]
    fn hub_is_sync_and_send() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<MetricsHub>();
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let hub = MetricsHub::new();
        hub.incr(Counter::WedgesExpanded, 5);
        hub.incr(Counter::WedgesExpanded, 7);
        hub.set_gauge("par_imbalance", 1.5);
        hub.set_gauge("par_imbalance", 2.5);
        assert_eq!(hub.counter(Counter::WedgesExpanded), 12);
        assert_eq!(hub.gauge_value("par_imbalance"), Some(2.5));
        assert_eq!(hub.gauge_value("missing"), None);
    }

    #[test]
    fn hub_usable_through_the_recorder_trait() {
        let hub = MetricsHub::new();
        let mut rec = &hub;
        rec.incr(Counter::SpaScatters, 3);
        rec.hist_record("w", 9);
        timed_span(&mut rec, "outer", |r| {
            r.incr(Counter::WedgesExpanded, 2);
        });
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Counter::SpaScatters), 3);
        assert_eq!(snap.counter(Counter::WedgesExpanded), 2);
        assert_eq!(snap.histogram("w").unwrap().count(), 1);
        let (_, agg) = snap.spans.iter().find(|(n, _)| n == "outer").unwrap();
        assert_eq!(agg.count, 1);
    }

    #[test]
    fn exit_closes_same_hub_inner_spans_only() {
        let a = MetricsHub::new();
        let b = MetricsHub::new();
        a.enter_span("outer");
        b.enter_span("other-hub");
        a.enter_span("inner");
        a.exit_span("outer"); // closes inner + outer on a, leaves b alone
        let snap = a.snapshot();
        assert_eq!(snap.spans.len(), 2);
        b.exit_span("other-hub");
        let sb = b.snapshot();
        assert_eq!(sb.spans.len(), 1);
        assert_eq!(sb.spans[0].0, "other-hub");
    }

    #[test]
    fn forked_workers_publish_live() {
        let hub = MetricsHub::new();
        let mut rec = &hub;
        let mut worker = rec.fork();
        std::thread::scope(|s| {
            s.spawn(|| {
                worker.span_enter("chunk");
                worker.incr(Counter::WedgesExpanded, 11);
                worker.hist_record("chunk_us", 42);
                worker.span_exit("chunk");
            });
        });
        // Visible before the join: the worker wrote straight into the hub.
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Counter::WedgesExpanded), 11);
        assert_eq!(snap.histogram("chunk_us").unwrap().max(), 42);
        let (_, agg) = snap.spans.iter().find(|(n, _)| n == "chunk").unwrap();
        assert_eq!(agg.count, 1);
        rec.join(1, worker);
        assert_eq!(hub.snapshot(), snap);
    }

    #[test]
    fn delta_since_subtracts_exactly() {
        let hub = MetricsHub::new();
        hub.incr(Counter::WedgesExpanded, 100);
        hub.record_hist("w", 5);
        let first = hub.snapshot();
        hub.incr(Counter::WedgesExpanded, 23);
        hub.record_hist("w", 6);
        hub.record_hist("w", 7);
        let second = hub.snapshot();
        let d = second.delta_since(&first);
        assert_eq!(d.counter(Counter::WedgesExpanded), 23);
        assert_eq!(d.histogram("w").unwrap().count(), 2);
        // Self-delta is zero.
        let z = second.delta_since(&second);
        assert_eq!(z.counter(Counter::WedgesExpanded), 0);
        assert_eq!(z.histogram("w").unwrap().count(), 0);
    }

    #[test]
    fn series_cap_counts_drops() {
        let hub = MetricsHub::new();
        for i in 0..(SERIES_CAP + 5) {
            hub.push_series("s", i as f64);
        }
        let snap = hub.snapshot();
        let (_, vals) = snap.series.iter().find(|(n, _)| n == "s").unwrap();
        assert_eq!(vals.len(), SERIES_CAP);
        assert_eq!(snap.series_dropped, 5);
    }

    #[test]
    fn snapshot_lowers_to_report() {
        let hub = MetricsHub::new();
        hub.incr(Counter::PeelRounds, 4);
        hub.set_gauge("budget.max_bytes", 1e6);
        hub.enter_span("round");
        hub.exit_span("round");
        let rep = hub.snapshot().to_report(vec![(
            "command".to_string(),
            Json::Str("serve".to_string()),
        )]);
        assert_eq!(rep.counter("peel_rounds"), Some(4));
        assert!(rep
            .gauges
            .iter()
            .any(|(n, v)| n == "span.round.count" && *v == 1.0));
        // Report round-trips through the normal JSON path.
        let back = RunReport::parse(&rep.to_json_string()).unwrap();
        assert_eq!(rep, back);
    }

    #[test]
    fn threads_hammering_counters_sum_exactly() {
        let hub = MetricsHub::new();
        let threads = 8u64;
        let per = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per {
                        hub.incr(Counter::WedgesExpanded, 1);
                        hub.record_hist("w", 3);
                    }
                });
            }
        });
        let snap = hub.snapshot();
        assert_eq!(snap.counter(Counter::WedgesExpanded), threads * per);
        assert_eq!(snap.histogram("w").unwrap().count(), threads * per);
    }
}
