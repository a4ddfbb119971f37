//! Stress: recording from parallel workers must not change what is
//! counted.
//!
//! Every parallel count forks the caller's recorder once per chunk
//! (`Recorder::fork`) and joins it back after the chunk ran
//! (`Recorder::join`): `InMemoryRecorder` forks a private trace merged
//! onto the chunk's own span track — carrying the recorder's live board,
//! if any, so workers publish their counters as they go — and
//! `NoopRecorder` forks nothing at all. These tests pin the contract
//! that this is lossless: for every member, recorder, thread count, and
//! deadline, the counter totals equal the sequential recorder's, the
//! board's equal the recorder's, the butterfly count is unchanged, and
//! the per-chunk span streams cover every chunk exactly once.

use bfly::core::telemetry::{
    Counter, InMemoryRecorder, Json, LiveBoard, NoopRecorder, Recorder, RunReport,
};
use bfly::core::{
    count_via_spgemm, run_plan, select_plan, ExecMode, GraphProfile, Invariant, Member, Plan,
};
use bfly::graph::generators::{chung_lu, uniform_exact};
use bfly::graph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn graphs() -> Vec<BipartiteGraph> {
    let mut out = Vec::new();
    for seed in [7u64, 99, 2024] {
        let mut rng = StdRng::seed_from_u64(seed);
        out.push(uniform_exact(120, 90, 900, &mut rng));
    }
    let mut rng = StdRng::seed_from_u64(5150);
    out.push(chung_lu(200, 160, 1400, 0.8, 0.8, &mut rng));
    out.push(BipartiteGraph::complete(12, 10));
    out.push(BipartiteGraph::empty(40, 40));
    out
}

/// The forced fixed parallel plan — one chunk per worker of the current
/// pool — through the one executor.
fn parallel_recorded<R: Recorder>(g: &BipartiteGraph, inv: Invariant, rec: &mut R) -> u64 {
    let mode = ExecMode::Parallel {
        chunks: rayon::current_num_threads(),
    };
    let plan = Plan::forced(g, Member::Fixed(inv), mode, None);
    run_plan(g, &plan, None, rec).unwrap().value
}

fn sequential_tally(g: &BipartiteGraph, inv: Invariant) -> (u64, Vec<(Counter, u64)>) {
    let mut rec = InMemoryRecorder::new();
    let plan = Plan::forced(g, Member::Fixed(inv), ExecMode::Flat, None);
    let xi = run_plan(g, &plan, None, &mut rec).unwrap().value;
    let tally = Counter::ALL
        .into_iter()
        .map(|c| (c, rec.counter(c)))
        .collect();
    (xi, tally)
}

/// The work counters shared by the sequential and parallel paths. The
/// parallel path additionally bumps `ParChunks`, which the sequential one
/// never touches, so it is compared separately.
fn comparable(c: Counter) -> bool {
    c != Counter::ParChunks
}

#[test]
fn merged_parallel_counters_equal_sequential_for_all_invariants() {
    for g in graphs() {
        for inv in Invariant::ALL {
            let (seq_xi, seq_tally) = sequential_tally(&g, inv);
            for threads in [1usize, 2, 3, 4, 7] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut rec = InMemoryRecorder::new();
                let par_xi = pool.install(|| parallel_recorded(&g, inv, &mut rec));
                assert_eq!(par_xi, seq_xi, "{inv} with {threads} threads: count");
                for &(c, want) in seq_tally.iter().filter(|(c, _)| comparable(*c)) {
                    assert_eq!(
                        rec.counter(c),
                        want,
                        "{inv} with {threads} threads: counter {}",
                        c.name()
                    );
                }
            }
        }
    }
}

/// Counter totals other than `par_chunks`, in [`Counter::ALL`] order.
fn counters_of(get: impl Fn(Counter) -> u64) -> Vec<(Counter, u64)> {
    Counter::ALL
        .into_iter()
        .filter(|&c| comparable(c))
        .map(|c| (c, get(c)))
        .collect()
}

/// Each chunk of a buffered run left exactly one `chunk` span and one
/// `chunk_us` sample, on a track of its own numbered from 1.
fn assert_one_span_per_chunk(rec: &InMemoryRecorder, what: &str) {
    let nchunks = rec.counter(Counter::ParChunks);
    let mut tracks: Vec<u32> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "chunk")
        .map(|s| s.thread)
        .collect();
    assert_eq!(tracks.len() as u64, nchunks, "{what}: chunk spans");
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(tracks.len() as u64, nchunks, "{what}: one track per chunk");
    assert!(
        tracks.iter().all(|&t| t >= 1),
        "{what}: worker tracks from 1"
    );
    let samples = rec.histogram("chunk_us").map_or(0, |h| h.count());
    assert_eq!(samples, nchunks, "{what}: chunk_us samples");
}

/// The recorder contract as one table: every counting member (the eight
/// fixed invariants, priority, ranked) × recorder (noop, buffered, live:
/// buffered with a [`LiveBoard`] attached) × threads {1, 2, 4} ×
/// deadline {none, an hour out}, through the one plan executor. Counts
/// equal the sequential run's, every counter but `par_chunks` is
/// bitwise-equal to the sequential buffered run's, on the live row the
/// board's counters equal the recorder's, and on both buffered rows every
/// chunk has exactly one span and one latency sample on its own track.
#[test]
fn recorder_contract_table() {
    let members = Invariant::ALL
        .map(Member::Fixed)
        .into_iter()
        .chain([Member::Priority, Member::Ranked]);
    let graphs = graphs();
    let bases: Vec<Plan> = graphs
        .iter()
        .map(|g| select_plan(&GraphProfile::compute(g), false, 0))
        .collect();
    for member in members {
        for (g, base) in graphs.iter().zip(&bases) {
            let plan = |mode| Plan {
                member,
                invariant: match member {
                    Member::Fixed(inv) => inv,
                    _ => base.invariant,
                },
                degree_ordered: false,
                mode,
                ..base.clone()
            };
            let mut seq = InMemoryRecorder::new();
            let want = run_plan(g, &plan(ExecMode::Flat), None, &mut seq).unwrap();
            assert!(want.complete);
            assert_eq!(want.value, count_via_spgemm(g), "{member:?}");
            let want_counters = counters_of(|c| seq.counter(c));
            for threads in [1usize, 2, 4] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let par = plan(ExecMode::Parallel { chunks: threads });
                for deadline in [None, Some(Instant::now() + Duration::from_secs(3600))] {
                    let what = format!("{member:?} x{threads} deadline {:?}", deadline.is_some());
                    let r = pool.install(|| run_plan(g, &par, deadline, &mut NoopRecorder));
                    let r = r.unwrap();
                    assert!(r.complete, "{what}: noop");
                    assert_eq!(r.value, want.value, "{what}: noop count");

                    let mut rec = InMemoryRecorder::new();
                    let r = pool
                        .install(|| run_plan(g, &par, deadline, &mut rec))
                        .unwrap();
                    assert!(r.complete, "{what}: buffered");
                    assert_eq!(r.value, want.value, "{what}: buffered count");
                    assert_eq!(counters_of(|c| rec.counter(c)), want_counters, "{what}");
                    assert_one_span_per_chunk(&rec, &what);

                    let board = Arc::new(LiveBoard::new());
                    let mut rec = InMemoryRecorder::new().with_board(Arc::clone(&board));
                    let r = pool
                        .install(|| run_plan(g, &par, deadline, &mut rec))
                        .unwrap();
                    assert!(r.complete, "{what}: live");
                    assert_eq!(r.value, want.value, "{what}: live count");
                    assert_eq!(counters_of(|c| rec.counter(c)), want_counters, "{what}");
                    for c in Counter::ALL {
                        assert_eq!(
                            board.counter(c),
                            rec.counter(c),
                            "{what}: board {}",
                            c.name()
                        );
                    }
                    assert_one_span_per_chunk(&rec, &what);
                }
            }
        }
    }
}

#[test]
fn every_chunk_leaves_exactly_one_span_and_latency_sample() {
    let mut rng = StdRng::seed_from_u64(31);
    let g = uniform_exact(150, 150, 1200, &mut rng);
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let mut rec = InMemoryRecorder::new();
        pool.install(|| parallel_recorded(&g, Invariant::Inv2, &mut rec));
        let nchunks = rec.counter(Counter::ParChunks);
        assert!(nchunks >= 1);
        let chunk_spans = rec
            .spans()
            .iter()
            .filter(|s| s.name == "chunk")
            .collect::<Vec<_>>();
        assert_eq!(chunk_spans.len() as u64, nchunks, "{threads} threads");
        // Worker tracks are numbered from 1 and each chunk has its own.
        let mut tids: Vec<u32> = chunk_spans.iter().map(|s| s.thread).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len() as u64, nchunks);
        assert!(tids.iter().all(|&t| t >= 1));
        // Per-chunk latency histogram has one sample per chunk.
        let hist = rec.histogram("chunk_us").expect("chunk_us histogram");
        assert_eq!(hist.count(), nchunks);
    }
}

/// Raw hammering: N threads incrementing the same board counters
/// concurrently must lose nothing — totals equal the single-threaded sum
/// exactly (the atomics are relaxed, but additions commute).
#[test]
fn board_hammered_from_threads_matches_single_threaded_sums() {
    let board = LiveBoard::new();
    let threads = 8u64;
    let per = 20_000u64;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let board = &board;
            s.spawn(move || {
                for _ in 0..per {
                    board.incr(Counter::WedgesExpanded, 1);
                    board.incr(Counter::SpaScatters, 2);
                }
            });
        }
    });
    assert_eq!(board.counter(Counter::WedgesExpanded), threads * per);
    assert_eq!(board.counter(Counter::SpaScatters), 2 * threads * per);
}

/// A live recorder's report (a parallel run with a board attached)
/// round-trips through its JSON text with the counter totals intact —
/// the board's and the recorder's alike.
#[test]
fn live_report_json_round_trip() {
    let mut rng = StdRng::seed_from_u64(4096);
    let g = uniform_exact(100, 80, 700, &mut rng);
    let board = Arc::new(LiveBoard::new());
    let mut rec = InMemoryRecorder::new().with_board(Arc::clone(&board));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    pool.install(|| parallel_recorded(&g, Invariant::Inv2, &mut rec));
    let rep = rec.report(vec![(
        "command".to_string(),
        Json::Str("count".to_string()),
    )]);
    let back = RunReport::parse(&rep.to_json_string()).expect("parseable report");
    let wedges = rec.counter(Counter::WedgesExpanded);
    assert!(wedges > 0);
    assert_eq!(board.counter(Counter::WedgesExpanded), wedges);
    assert_eq!(
        back.counter("wedges_expanded"),
        Some(wedges),
        "counter survives the text round-trip"
    );
}

#[test]
fn repeated_recorded_runs_are_deterministic() {
    let mut rng = StdRng::seed_from_u64(616);
    let g = chung_lu(180, 140, 1100, 0.7, 0.7, &mut rng);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    let tally_of = || {
        let mut rec = InMemoryRecorder::new();
        let xi = pool.install(|| parallel_recorded(&g, Invariant::Inv6, &mut rec));
        let tally: Vec<(Counter, u64)> = Counter::ALL
            .into_iter()
            .map(|c| (c, rec.counter(c)))
            .collect();
        (xi, tally)
    };
    let first = tally_of();
    for _ in 0..4 {
        assert_eq!(tally_of(), first);
    }
}
