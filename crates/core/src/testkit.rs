//! Shared test fixtures and proptest strategies (feature `testkit`).
//!
//! The integration tests under `tests/` all need the same thing: a spread
//! of bipartite graphs across the regimes where butterfly counters
//! misbehave differently — uniform, power-law-ish skewed, star-heavy,
//! near-empty, and complete-biclique — generated deterministically from
//! the vendored RNG shim. Before this module each test file carried its
//! own copy of that battery; now they (and future differential harnesses)
//! share one.
//!
//! Enable with the `testkit` cargo feature; the module is test support,
//! not library API, and makes no stability promises.

use bfly_graph::generators::{chung_lu, uniform_exact, with_planted_biclique};
use bfly_graph::BipartiteGraph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Upper bound per side used by the bounded [`arb_graph`] strategy.
pub const MAX_SIDE: u32 = 24;

/// Uniform random graph with exactly `nedges` distinct edges.
pub fn uniform_graph(m: usize, n: usize, nedges: usize, seed: u64) -> BipartiteGraph {
    uniform_exact(m, n, nedges, &mut StdRng::seed_from_u64(seed))
}

/// Power-law-ish skewed graph (Chung–Lu with exponent `exp` on both
/// sides); larger `exp` → heavier hubs.
pub fn skewed_graph(m: usize, n: usize, nedges: usize, exp: f64, seed: u64) -> BipartiteGraph {
    chung_lu(m, n, nedges, exp, exp, &mut StdRng::seed_from_u64(seed))
}

/// Star-heavy graph: `hubs` V1 vertices each adjacent to every V2 leaf,
/// plus a sprinkle of random background edges — the shape where one
/// partition side does catastrophically more wedge work than the other.
pub fn star_heavy_graph(hubs: usize, leaves: usize, noise: usize, seed: u64) -> BipartiteGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = hubs + noise.max(1);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for h in 0..hubs as u32 {
        for v in 0..leaves as u32 {
            edges.push((h, v));
        }
    }
    for _ in 0..noise {
        let u = hubs as u32 + rng.random_range(0..noise.max(1) as u32);
        let v = rng.random_range(0..leaves.max(1) as u32);
        edges.push((u, v));
    }
    BipartiteGraph::from_edges(m, leaves.max(1), &edges).expect("generated edges in range")
}

/// Near-empty graph: at most a handful of edges scattered over a large
/// vertex set (exercises the all-zero-degree paths).
pub fn near_empty_graph(m: usize, n: usize, nedges: usize, seed: u64) -> BipartiteGraph {
    uniform_exact(m, n, nedges.min(3), &mut StdRng::seed_from_u64(seed))
}

/// Complete biclique `K_{m,n}` — the densest regime, `C(m,2)·C(n,2)`
/// butterflies.
pub fn biclique(m: usize, n: usize) -> BipartiteGraph {
    BipartiteGraph::complete(m, n)
}

/// The named fixture battery: one representative per regime plus the
/// degenerate shapes every counter must survive. Deterministic across
/// runs (fixed seeds), so failures name a reproducible graph.
pub fn fixture_battery() -> Vec<(String, BipartiteGraph)> {
    let mut out: Vec<(String, BipartiteGraph)> = vec![
        ("uniform-20x20x80".into(), uniform_graph(20, 20, 80, 1001)),
        ("uniform-50x10x150".into(), uniform_graph(50, 10, 150, 1001)),
        ("uniform-10x60x200".into(), uniform_graph(10, 60, 200, 1001)),
        ("skewed-0.3".into(), skewed_graph(60, 45, 300, 0.3, 1002)),
        ("skewed-0.7".into(), skewed_graph(60, 45, 300, 0.7, 1002)),
        ("skewed-1.0".into(), skewed_graph(60, 45, 300, 1.0, 1002)),
        ("star-heavy".into(), star_heavy_graph(3, 40, 30, 1003)),
        ("near-empty".into(), near_empty_graph(40, 50, 3, 1004)),
        ("biclique-6x6".into(), biclique(6, 6)),
        ("biclique-2x12".into(), biclique(2, 12)),
        ("empty".into(), BipartiteGraph::empty(10, 10)),
        ("single-v1".into(), BipartiteGraph::complete(1, 20)),
        ("single-v2".into(), BipartiteGraph::complete(20, 1)),
    ];
    let matching: Vec<(u32, u32)> = (0..15).map(|i| (i, i)).collect();
    out.push((
        "perfect-matching".into(),
        BipartiteGraph::from_edges(15, 15, &matching).expect("matching edges in range"),
    ));
    let base = uniform_graph(40, 40, 100, 1005);
    out.push((
        "planted-biclique".into(),
        with_planted_biclique(&base, &[0, 1, 2, 3, 4, 5], &[10, 11, 12, 13]),
    ));
    out
}

/// Star of bicliques: disjoint `K_{k,k+1}` for `k` in `sizes`, plus a
/// V1 centre adjacent to every biclique's V2 vertices and a V2 centre
/// adjacent to every biclique's V1 vertices. Each centre's row dies one
/// biclique at a time, at that biclique's level.
pub fn star_of_bicliques(sizes: &[usize]) -> BipartiteGraph {
    let (m, n) = sizes.iter().fold((1, 1), |(m, n), &k| (m + k, n + k + 1));
    let mut edges = Vec::new();
    let (mut u0, mut v0) = (1u32, 1u32);
    for &k in sizes {
        let (us, vs) = (u0..u0 + k as u32, v0..v0 + k as u32 + 1);
        for u in us.clone() {
            edges.push((u, 0));
            edges.extend(vs.clone().map(|v| (u, v)));
        }
        edges.extend(vs.map(|v| (0, v)));
        u0 += k as u32;
        v0 += k as u32 + 1;
    }
    BipartiteGraph::from_edges(m, n, &edges).expect("generated edges in range")
}

/// Inputs whose hub rows die a little at a time over many peel rounds,
/// so the wing engine compacts them repeatedly and its repairs take both
/// of their sides: a planted `K_{6,10}` over uniform background whose
/// hub rows run on in nested tails (hub `h` also reaches leaves
/// `10..10 + 8h`), so each hub row loses most of its entries, tail
/// first, before the biclique peels; and a [`star_of_bicliques`].
pub fn hub_death_fixtures() -> Vec<(String, BipartiteGraph)> {
    let mut hub_biclique = uniform_graph(60, 60, 240, 1006);
    for h in 0..6u32 {
        let leaves: Vec<u32> = (0..10 + 8 * h).collect();
        hub_biclique = with_planted_biclique(&hub_biclique, &[h], &leaves);
    }
    vec![
        ("hub-biclique".into(), hub_biclique),
        (
            "star-of-bicliques".into(),
            star_of_bicliques(&[2, 3, 4, 5, 6, 7]),
        ),
    ]
}

/// Strategy: arbitrary simple bipartite graph with up to [`MAX_SIDE`]
/// vertices per side and up to 80 (pre-dedup) edges. This is the bounded
/// edge-list generator previously copy-pasted into each proptest file.
pub fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1..=MAX_SIDE, 1..=MAX_SIDE).prop_flat_map(|(m, n)| {
        proptest::collection::vec((0..m, 0..n), 0..80).prop_map(move |edges| {
            BipartiteGraph::from_edges(m as usize, n as usize, &edges)
                .expect("bounded edges are valid")
        })
    })
}

/// Strategy: a graph drawn from one of the five named regimes (uniform,
/// skewed, star-heavy, near-empty, complete-biclique), selected by the
/// generated `family` index with a generated seed — the differential
/// harness's input distribution. The shim has no `prop_oneof`, so the
/// union is a selector integer matched inside one `prop_map`.
pub fn arb_family_graph() -> impl Strategy<Value = BipartiteGraph> {
    (0u32..5, 0u64..u64::MAX).prop_map(|(family, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        match family {
            0 => {
                let m = rng.random_range(2..40usize);
                let n = rng.random_range(2..40usize);
                let e = rng.random_range(0..=(m * n / 2));
                uniform_exact(m, n, e, &mut rng)
            }
            1 => {
                let m = rng.random_range(4..50usize);
                let n = rng.random_range(4..50usize);
                let e = rng.random_range(0..=(m * n / 3));
                let exp = 0.3 + 0.7 * rng.random_f64();
                chung_lu(m, n, e, exp, exp, &mut rng)
            }
            2 => {
                let hubs = rng.random_range(1..4usize);
                let leaves = rng.random_range(2..30usize);
                let noise = rng.random_range(0..20usize);
                star_heavy_graph(hubs, leaves, noise, rng.next_u64())
            }
            3 => {
                let m = rng.random_range(1..60usize);
                let n = rng.random_range(1..60usize);
                let e = rng.random_range(0..=3usize).min(m * n);
                uniform_exact(m, n, e, &mut rng)
            }
            _ => {
                let m = rng.random_range(1..10usize);
                let n = rng.random_range(1..10usize);
                BipartiteGraph::complete(m, n)
            }
        }
    })
}

/// Deterministic fault-injection wrapper over an in-memory byte stream —
/// dependency-free (std only), for driving loaders and CLIs through the
/// I/O failure modes a real filesystem produces:
///
/// * **short reads** ([`FaultyReader::with_chunk`]): each `read` returns
///   at most `chunk` bytes, so multi-byte tokens straddle call
///   boundaries;
/// * **interleaved errors** ([`FaultyReader::with_error_at`]): one
///   `std::io::Error` of the given kind fires when the cursor reaches
///   byte `n`; `ErrorKind::Interrupted` models a retryable signal (std's
///   own readers retry it), anything else a hard failure the consumer
///   must surface;
/// * **truncation** ([`FaultyReader::with_truncation`]): clean EOF at
///   byte `n`, as if the file were cut mid-write;
/// * **slowness** ([`FaultyReader::with_delay`]): sleep before each
///   `read`, modelling a congested pipe or cold storage — combined with
///   `with_chunk` this starves a consumer for a controllable wall-clock
///   span (the stall-watchdog tests drive on it);
/// * **fault schedules** ([`FaultyReader::with_fault_schedule`],
///   [`FaultyReader::with_transient_at`]): a deterministic list of
///   [`ScheduledFault`]s — each arms at a byte offset and fires a fixed
///   number of times (transient-N-times-then-succeed) or forever — the
///   vocabulary the retry-policy and kill-and-resume tests drive on;
///   [`seeded_fault_schedule`] derives a reproducible schedule from a
///   seed.
#[derive(Debug, Clone)]
pub struct FaultyReader {
    data: Vec<u8>,
    pos: usize,
    chunk: Option<usize>,
    error_at: Option<(usize, std::io::ErrorKind)>,
    fired: bool,
    truncate_at: Option<usize>,
    delay: Option<std::time::Duration>,
    schedule: Vec<ScheduledFault>,
}

/// One entry of a deterministic fault schedule (see
/// [`FaultyReader::with_fault_schedule`] and [`FaultyWriter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Cursor offset (bytes produced/consumed so far) at which the
    /// fault arms.
    pub at: usize,
    /// The `std::io::ErrorKind` raised. `Interrupted`/`WouldBlock`/
    /// `TimedOut` model transient faults a retry policy should absorb;
    /// anything else is a hard failure.
    pub kind: std::io::ErrorKind,
    /// How many calls fail once armed before I/O proceeds —
    /// transient-N-times-then-succeed. `usize::MAX` never stops firing
    /// (a permanently broken region).
    pub times: usize,
}

impl ScheduledFault {
    /// Transient fault: `Interrupted`, `times` times, at offset `at`.
    pub fn transient(at: usize, times: usize) -> Self {
        ScheduledFault {
            at,
            kind: std::io::ErrorKind::Interrupted,
            times,
        }
    }

    /// Permanent fault of `kind` at offset `at`.
    pub fn hard(at: usize, kind: std::io::ErrorKind) -> Self {
        ScheduledFault {
            at,
            kind,
            times: usize::MAX,
        }
    }
}

/// Derive a reproducible fault schedule from a seed: `count` transient
/// faults (1–3 firings each) at xorshift-chosen offsets within
/// `0..len`. Deterministic — the same seed always yields the same
/// schedule, so a failing chaos test names a replayable scenario.
pub fn seeded_fault_schedule(seed: u64, len: usize, count: usize) -> Vec<ScheduledFault> {
    // Golden-ratio mixing keeps adjacent seeds from collapsing into the
    // same xorshift state (a bare `seed | 1` would alias 2k and 2k+1).
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let at = if len == 0 { 0 } else { (next() as usize) % len };
        let times = 1 + (next() as usize) % 3;
        out.push(ScheduledFault::transient(at, times));
    }
    out.sort_by_key(|f| f.at);
    out
}

impl FaultyReader {
    /// A well-behaved reader over `data`; compose faults with the
    /// builder methods.
    pub fn new(data: impl Into<Vec<u8>>) -> Self {
        FaultyReader {
            data: data.into(),
            pos: 0,
            chunk: None,
            error_at: None,
            fired: false,
            truncate_at: None,
            delay: None,
            schedule: Vec::new(),
        }
    }

    /// Return at most `chunk` bytes per `read` call (`chunk ≥ 1`).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Fail with `kind` (once) when the cursor reaches byte `n`.
    pub fn with_error_at(mut self, n: usize, kind: std::io::ErrorKind) -> Self {
        self.error_at = Some((n, kind));
        self
    }

    /// Report EOF once `n` bytes have been produced.
    pub fn with_truncation(mut self, n: usize) -> Self {
        self.truncate_at = Some(n);
        self
    }

    /// Sleep `delay` before every `read` call (a slow pipe). Pair with
    /// [`FaultyReader::with_chunk`] to stretch a fixed payload over a
    /// chosen wall-clock span.
    pub fn with_delay(mut self, delay: std::time::Duration) -> Self {
        self.delay = Some(delay);
        self
    }

    /// Install a deterministic fault schedule (entries checked in
    /// order on every `read`; see [`ScheduledFault`]).
    pub fn with_fault_schedule(mut self, schedule: Vec<ScheduledFault>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shorthand: fail with `Interrupted` `times` times once the cursor
    /// reaches byte `n`, then succeed — the transient-then-recover
    /// shape a retry policy must absorb.
    pub fn with_transient_at(mut self, n: usize, times: usize) -> Self {
        self.schedule.push(ScheduledFault::transient(n, times));
        self
    }
}

impl std::io::Read for FaultyReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(delay) = self.delay {
            std::thread::sleep(delay);
        }
        if let Some((n, kind)) = self.error_at {
            if !self.fired && self.pos >= n {
                self.fired = true;
                return Err(std::io::Error::new(kind, "injected fault"));
            }
        }
        let pos = self.pos;
        for f in &mut self.schedule {
            if pos >= f.at && f.times > 0 {
                if f.times != usize::MAX {
                    f.times -= 1;
                }
                return Err(std::io::Error::new(f.kind, "scheduled fault"));
            }
        }
        let end = self.truncate_at.unwrap_or(usize::MAX).min(self.data.len());
        if self.pos >= end || buf.is_empty() {
            return Ok(0);
        }
        let take = (end - self.pos)
            .min(buf.len())
            .min(self.chunk.unwrap_or(usize::MAX));
        buf[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
        self.pos += take;
        Ok(take)
    }
}

/// Fault-injecting [`std::io::Write`] counterpart of [`FaultyReader`]:
/// collects bytes in memory and fails according to the same
/// [`ScheduledFault`] vocabulary — how atomic-write paths (converter
/// assembly, checkpoint persist) are driven through partial-write and
/// error-mid-write scenarios without touching a real filesystem.
///
/// * **scheduled faults** ([`FaultyWriter::with_fault_schedule`],
///   [`FaultyWriter::with_transient_at`]): arm at a written-byte offset,
///   fire `times` calls, then let writes proceed;
/// * **short writes** ([`FaultyWriter::with_chunk`]): accept at most
///   `chunk` bytes per `write` call, so callers that ignore partial
///   writes corrupt their output visibly;
/// * **truncation** ([`FaultyWriter::with_capacity_limit`]): report
///   `WriteZero`-style disk-full once `n` bytes have been accepted — a
///   crash/ENOSPC mid-write leaves exactly the accepted prefix, which
///   is what a torn (non-atomic) output file looks like.
#[derive(Debug, Clone, Default)]
pub struct FaultyWriter {
    data: Vec<u8>,
    chunk: Option<usize>,
    capacity: Option<usize>,
    schedule: Vec<ScheduledFault>,
}

impl FaultyWriter {
    /// A well-behaved in-memory writer; compose faults with the builder
    /// methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Accept at most `chunk` bytes per `write` call (`chunk ≥ 1`).
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        self.chunk = Some(chunk.max(1));
        self
    }

    /// Fail with `WriteZero` ("no space") once `n` bytes are stored.
    pub fn with_capacity_limit(mut self, n: usize) -> Self {
        self.capacity = Some(n);
        self
    }

    /// Install a deterministic fault schedule (offsets measure bytes
    /// accepted so far).
    pub fn with_fault_schedule(mut self, schedule: Vec<ScheduledFault>) -> Self {
        self.schedule = schedule;
        self
    }

    /// Shorthand: fail with `Interrupted` `times` times once `n` bytes
    /// are stored, then succeed.
    pub fn with_transient_at(mut self, n: usize, times: usize) -> Self {
        self.schedule.push(ScheduledFault::transient(n, times));
        self
    }

    /// Bytes accepted so far.
    pub fn written(&self) -> &[u8] {
        &self.data
    }

    /// Consume the writer, returning the accepted bytes.
    pub fn into_inner(self) -> Vec<u8> {
        self.data
    }
}

impl std::io::Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pos = self.data.len();
        for f in &mut self.schedule {
            if pos >= f.at && f.times > 0 {
                if f.times != usize::MAX {
                    f.times -= 1;
                }
                return Err(std::io::Error::new(f.kind, "scheduled fault"));
            }
        }
        if let Some(cap) = self.capacity {
            if pos >= cap {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "injected disk-full",
                ));
            }
            let take = (cap - pos)
                .min(buf.len())
                .min(self.chunk.unwrap_or(usize::MAX));
            self.data.extend_from_slice(&buf[..take]);
            return Ok(take);
        }
        let take = buf.len().min(self.chunk.unwrap_or(usize::MAX));
        self.data.extend_from_slice(&buf[..take]);
        Ok(take)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// [`count_segmented_checkpointed_recorded`](crate::count_segmented_checkpointed_recorded)
/// with an explicit pin bound for the opposite-side
/// [`RowReader`](bfly_graph::RowReader) instead of the one taken from the
/// budget's slack, so differential tests can cross pin bounds and prove
/// the pin changes no count, counter, plan or refusal.
pub fn count_segmented_pinned<R: bfly_telemetry::Recorder>(
    sg: &bfly_graph::SegmentedGraph,
    shards: Option<usize>,
    budget: &crate::ResourceBudget,
    ckpt: Option<&crate::CheckpointConfig>,
    pin_bytes: u64,
    rec: &mut R,
) -> crate::error::Result<crate::Partial<(u64, crate::adaptive::Plan)>> {
    let (profile, plan) =
        crate::profile_and_plan_segmented_recorded(sg, shards, None, budget, rec)?;
    let pinned = Some(pin_bytes);
    let r = crate::family::sharded::run_on_disk(sg, &profile, &plan, budget, ckpt, pinned, rec)?;
    Ok(r.map(|count| (count, plan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    #[test]
    fn faulty_reader_short_reads_deliver_everything() {
        let mut r = FaultyReader::new(&b"hello world"[..]).with_chunk(3);
        let mut out = String::new();
        r.read_to_string(&mut out).unwrap();
        assert_eq!(out, "hello world");
    }

    #[test]
    fn faulty_reader_truncates_cleanly() {
        let mut r = FaultyReader::new(&b"0123456789"[..]).with_truncation(4);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"0123");
    }

    #[test]
    fn faulty_reader_injects_hard_errors_and_retryable_interrupts() {
        let mut r = FaultyReader::new(&b"abcdef"[..])
            .with_chunk(2)
            .with_error_at(4, std::io::ErrorKind::UnexpectedEof);
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(out, b"abcd");
        // Interrupted errors are transparently retried by read_to_end.
        let mut r = FaultyReader::new(&b"abcdef"[..])
            .with_chunk(2)
            .with_error_at(2, std::io::ErrorKind::Interrupted);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn scheduled_transient_fault_fires_then_clears() {
        // Two Interrupted firings at byte 3, then the stream completes:
        // read_to_end retries Interrupted transparently, so the full
        // payload arrives and the schedule is exhausted.
        let mut r = FaultyReader::new(&b"abcdef"[..])
            .with_chunk(2)
            .with_fault_schedule(vec![ScheduledFault::transient(3, 2)]);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn scheduled_hard_fault_never_clears() {
        let mut r = FaultyReader::new(&b"abcdef"[..])
            .with_chunk(2)
            .with_fault_schedule(vec![ScheduledFault::hard(
                4,
                std::io::ErrorKind::UnexpectedEof,
            )]);
        let mut out = Vec::new();
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(out, b"abcd");
        // Retrying does not help: the fault is permanent.
        let err = r.read_to_end(&mut out).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn seeded_fault_schedule_is_deterministic() {
        let a = seeded_fault_schedule(42, 1000, 5);
        let b = seeded_fault_schedule(42, 1000, 5);
        assert_eq!(a.len(), 5);
        for (fa, fb) in a.iter().zip(b.iter()) {
            assert_eq!(fa.at, fb.at);
            assert_eq!(fa.times, fb.times);
            assert!(fa.at < 1000);
            assert!((1..=3).contains(&fa.times));
        }
        // Offsets are sorted so faults fire in stream order.
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at));
        // A different seed lands different offsets (overwhelmingly likely).
        let c = seeded_fault_schedule(43, 1000, 5);
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x.at != y.at));
    }

    #[test]
    fn seeded_schedule_streams_survive_retrying_readers() {
        // A reader carrying a purely-transient seeded schedule always
        // delivers the full payload through read_to_end's retry loop.
        let payload: Vec<u8> = (0..512u32).map(|i| (i % 251) as u8).collect();
        for seed in [1u64, 7, 99] {
            let sched = seeded_fault_schedule(seed, payload.len(), 4);
            let mut r = FaultyReader::new(&payload[..])
                .with_chunk(13)
                .with_fault_schedule(sched);
            let mut out = Vec::new();
            r.read_to_end(&mut out).unwrap();
            assert_eq!(out, payload, "seed {seed}");
        }
    }

    #[test]
    fn faulty_writer_collects_bytes_and_honors_chunking() {
        use std::io::Write;
        let mut w = FaultyWriter::new().with_chunk(3);
        w.write_all(b"hello world").unwrap();
        assert_eq!(w.written(), b"hello world");
        assert_eq!(w.into_inner(), b"hello world");
    }

    #[test]
    fn faulty_writer_transient_then_succeeds() {
        use std::io::Write;
        // write_all does NOT retry Interrupted for us the way
        // read_to_end does, so drive it manually like a retry loop would.
        let mut w = FaultyWriter::new().with_chunk(2).with_transient_at(4, 2);
        let data = b"abcdefgh";
        let mut off = 0;
        let mut interrupts = 0;
        while off < data.len() {
            match w.write(&data[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => interrupts += 1,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(interrupts, 2);
        assert_eq!(w.written(), data);
    }

    #[test]
    fn faulty_writer_disk_full_preserves_prefix() {
        use std::io::Write;
        let mut w = FaultyWriter::new().with_capacity_limit(6);
        let err = w.write_all(b"0123456789").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
        // Exactly the accepted prefix survives — what a torn non-atomic
        // output file looks like after ENOSPC.
        assert_eq!(w.written(), b"012345");
    }

    #[test]
    fn battery_is_deterministic_and_nonempty() {
        let a = fixture_battery();
        let b = fixture_battery();
        assert!(a.len() >= 10);
        for ((na, ga), (nb, gb)) in a.iter().zip(b.iter()) {
            assert_eq!(na, nb);
            assert_eq!(ga, gb, "{na} not deterministic");
        }
        // At least one fixture from each interesting regime is non-trivial.
        assert!(a
            .iter()
            .any(|(n, g)| n.starts_with("skewed") && g.nedges() > 0));
        assert!(a.iter().any(|(n, g)| n == "empty" && g.nedges() == 0));
    }

    #[test]
    fn star_heavy_has_a_dominant_side() {
        let g = star_heavy_graph(2, 30, 10, 7);
        // The hubs see every leaf; wedge work through V1 dwarfs V2's.
        assert!(g.wedges_through_v1() > g.wedges_through_v2());
    }
}
