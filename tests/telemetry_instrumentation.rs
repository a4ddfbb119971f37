//! Integration tests for the instrumentation layer: the work counters the
//! engine reports must match closed-form combinatorics, the no-op recorder
//! must not change results, and [`RunReport`] JSON must round-trip.

use bfly::core::peel::{k_tip_recorded, k_wing_recorded};
use bfly::core::telemetry::Recorder;
use bfly::core::telemetry::{Counter, InMemoryRecorder, Json, RunReport};
use bfly::core::{count, run_plan, ExecMode, Invariant, Member, Plan};
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;

/// `inv` run sequentially through the one executor, recording into `rec`.
fn recorded_count(g: &BipartiteGraph, inv: Invariant, rec: &mut InMemoryRecorder) -> u64 {
    let plan = Plan::forced(g, Member::Fixed(inv), ExecMode::Flat, None);
    run_plan(g, &plan, None, rec).unwrap().value
}

const MAX_SIDE: u32 = 24;

/// Run the forced plan `member` × `mode` through the one executor.
fn forced_recorded<R: Recorder>(
    g: &BipartiteGraph,
    member: Member,
    mode: ExecMode,
    rec: &mut R,
) -> u64 {
    let plan = Plan::forced(g, member, mode, None);
    run_plan(g, &plan, None, rec).unwrap().value
}

/// One chunk per worker of rayon's current pool.
fn parallel_mode() -> ExecMode {
    ExecMode::Parallel {
        chunks: rayon::current_num_threads(),
    }
}

fn arb_graph() -> impl Strategy<Value = BipartiteGraph> {
    (1..=MAX_SIDE, 1..=MAX_SIDE).prop_flat_map(|(m, n)| {
        proptest::collection::vec((0..m, 0..n), 0..80).prop_map(move |edges| {
            BipartiteGraph::from_edges(m as usize, n as usize, &edges)
                .expect("bounded edges are valid")
        })
    })
}

/// Σ over one side of C(deg, 2): the number of wedges centered there.
fn analytic_wedges(g: &BipartiteGraph, center: Side) -> u64 {
    let degs: Vec<u64> = match center {
        Side::V1 => (0..g.nv1())
            .map(|u| g.neighbors_v1(u).len() as u64)
            .collect(),
        Side::V2 => (0..g.nv2())
            .map(|v| g.neighbors_v2(v).len() as u64)
            .collect(),
    };
    degs.iter().map(|&d| d * d.saturating_sub(1) / 2).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine expands exactly one wedge per unordered neighbour pair of
    /// each center vertex: `wedges_expanded` equals Σ C(deg, 2) over the
    /// side *opposite* the partitioned one, for every invariant, regardless
    /// of traversal direction or update part.
    #[test]
    fn wedges_expanded_matches_analytic_count(g in arb_graph()) {
        for inv in Invariant::ALL {
            let center = match inv.partitioned_side() {
                Side::V2 => Side::V1,
                Side::V1 => Side::V2,
            };
            let want = analytic_wedges(&g, center);
            let mut rec = InMemoryRecorder::new();
            let xi = recorded_count(&g, inv, &mut rec);
            prop_assert_eq!(xi, count(&g, inv), "{} count drifted", inv);
            prop_assert_eq!(
                rec.counter(Counter::WedgesExpanded),
                want,
                "{} wedge counter",
                inv
            );
            // Every wedge is exactly one accumulator scatter.
            prop_assert_eq!(rec.counter(Counter::SpaScatters), want, "{} scatters", inv);
        }
    }

    /// The recorded parallel path splits the same work across chunks: the
    /// merged counters equal the sequential ones and the per-chunk series
    /// sums to the total.
    #[test]
    fn parallel_chunks_partition_the_work(g in arb_graph()) {
        let inv = Invariant::Inv2;
        let want = analytic_wedges(&g, Side::V1);
        let mut rec = InMemoryRecorder::new();
        let xi = forced_recorded(&g, Member::Fixed(inv), parallel_mode(), &mut rec);
        prop_assert_eq!(xi, count(&g, inv));
        prop_assert_eq!(rec.counter(Counter::WedgesExpanded), want);
        let rep = rec.report(Vec::new());
        let per_chunk: f64 = rep
            .series
            .iter()
            .find(|(n, _)| n == "par_chunk_wedges")
            .map(|(_, v)| v.iter().sum())
            .unwrap_or(0.0);
        prop_assert_eq!(per_chunk as u64, want);
    }
}

#[test]
fn progress_fraction_reaches_exactly_one_for_global_order_kernels() {
    // The forecast fix: the priority/ranked members seed the progress
    // monitor with the closed-form priority wedge total instead of the
    // one-side Σ C(deg, 2) formula, so the final heartbeat lands on
    // fraction == 1.0 exactly — never short of it, and (pinned via the
    // un-clamped done/total identity) never past it.
    use bfly::core::adaptive::{select_plan, GraphProfile, Member};
    use bfly::core::telemetry::ProgressModel;
    use bfly::core::testkit::skewed_graph;

    let g = skewed_graph(160, 120, 1600, 1.0, 42);
    let p = GraphProfile::compute(&g);
    for (parallel, want_member) in [(false, Member::Priority), (true, Member::Priority)] {
        let plan = select_plan(&p, parallel, 4);
        assert_eq!(plan.member, want_member, "stand-in must select the kernel");
        let forecast = plan.forecast();
        assert_eq!(forecast.counter, Counter::WedgesExpanded);
        let mut rec = InMemoryRecorder::new();
        match want_member {
            Member::Priority | Member::Ranked => {
                forced_recorded(&g, want_member, ExecMode::Flat, &mut rec)
            }
            Member::Fixed(_) => unreachable!(),
        };
        let done = rec.counter(forecast.counter);
        assert_eq!(done, forecast.total, "{want_member:?}: forecast drifted");
        let mut model = ProgressModel::new(forecast.total);
        model.observe(done);
        // Exactly 1.0 *without* the finish() snap: the forecast itself
        // is exact, so the clamp never engages in either direction.
        assert_eq!(model.fraction(), 1.0, "{want_member:?}");
    }
}

#[test]
fn run_report_round_trips_through_json() {
    // Exercise counters, gauges, spans, and series in one report.
    let g = BipartiteGraph::complete(6, 5);
    let mut rec = InMemoryRecorder::new();
    let xi = recorded_count(&g, Invariant::Inv1, &mut rec);
    let tip = k_tip_recorded(&g, Side::V1, 1, &mut rec);
    let wing = k_wing_recorded(&g, 1, &mut rec);
    assert!(tip.keep.iter().all(|&b| b));
    assert!(wing.keep.iter().all(|&b| b));
    let rep = rec.report(vec![
        ("dataset".to_string(), Json::Str("K(6,5)".to_string())),
        ("butterflies".to_string(), Json::UInt(xi)),
        ("scale".to_string(), Json::Float(0.5)),
    ]);

    let text = rep.to_json_string();
    let back = RunReport::parse(&text).expect("report JSON parses");
    // Value-level identity: counters, meta, gauges, series all survive;
    // serializing again yields byte-identical JSON.
    assert_eq!(back.schema_version, RunReport::SCHEMA_VERSION);
    assert_eq!(back.counters, rep.counters);
    assert_eq!(back.meta, rep.meta);
    assert_eq!(back.gauges, rep.gauges);
    assert_eq!(back.series, rep.series);
    assert_eq!(back.to_json_string(), text);

    // The interesting counters are actually non-zero on this input.
    assert!(rep.counter("wedges_expanded").unwrap() > 0);
    assert!(rep.counter("peel_rounds").unwrap() >= 2); // tip + wing rounds
    assert!(rep
        .spans
        .iter()
        .any(|s| s.name == "count" && s.thread == 0 && s.depth == 0));
}

#[test]
fn noop_and_recorded_paths_agree() {
    let g = BipartiteGraph::complete(5, 4);
    for inv in Invariant::ALL {
        let mut rec = InMemoryRecorder::new();
        assert_eq!(recorded_count(&g, inv, &mut rec), count(&g, inv));
    }
}

#[test]
fn spans_and_histograms_survive_the_json_round_trip() {
    let g = BipartiteGraph::complete(8, 7);
    let mut rec = InMemoryRecorder::new();
    forced_recorded(
        &g,
        Member::Fixed(Invariant::Inv2),
        parallel_mode(),
        &mut rec,
    );
    let rep = rec.report(Vec::new());
    assert!(!rep.spans.is_empty(), "parallel run must leave chunk spans");
    assert!(
        rep.histograms.iter().any(|(n, _)| n == "chunk_us"),
        "parallel run must record chunk latencies"
    );
    let back = RunReport::parse(&rep.to_json_string()).unwrap();
    assert_eq!(back.spans, rep.spans);
    assert_eq!(back.to_json_string(), rep.to_json_string());
    // The trace exporter produces one named track per worker thread.
    let trace = rep.to_chrome_trace_string();
    for t in rep.span_threads() {
        if t > 0 {
            assert!(trace.contains(&format!("worker-{t}")), "track {t} missing");
        }
    }
}

#[test]
fn v1_reports_parse_and_future_schemas_are_rejected() {
    // A schema v1 document (no spans/histograms fields) still loads.
    let v1 = r#"{
        "schema_version": 1,
        "meta": {"dataset": "legacy"},
        "counters": {"wedges_expanded": 42},
        "gauges": {},
        "phases": [],
        "series": {}
    }"#;
    let rep = RunReport::parse(v1).expect("v1 must stay readable");
    assert_eq!(rep.counter("wedges_expanded"), Some(42));
    assert!(rep.spans.is_empty());
    assert!(rep.histograms.is_empty());

    // v1 and v2 `phases` rows come back as top-level track-0 spans of
    // their totals, ahead of a v2 document's own spans.
    let v1_phases = v1.replace(
        "\"phases\": []",
        "\"phases\": [{\"name\": \"count\", \"seconds\": 0.25, \"count\": 2}]",
    );
    let v2_phases = v1_phases
        .replace("\"schema_version\": 1", "\"schema_version\": 2")
        .replace(
            "\"series\": {}",
            "\"series\": {}, \"histograms\": {}, \"spans\": [{\"name\": \"shard\", \
             \"thread\": 0, \"depth\": 0, \"start_us\": 5, \"dur_us\": 9, \"counters\": {}}]",
        );
    for (doc, own) in [(v1_phases, 0), (v2_phases, 1)] {
        let rep = RunReport::parse(&doc).expect("phases must stay readable");
        assert_eq!(rep.spans.len(), 1 + own, "{doc}");
        let s = &rep.spans[0];
        assert_eq!((s.name.as_str(), s.thread, s.depth), ("count", 0, 0));
        assert_eq!(s.dur_us, 250_000);
        assert!(s.counters.is_empty());
    }

    // A report from a future build is refused with a pointed message.
    let future = v1.replace("\"schema_version\": 1", "\"schema_version\": 4");
    let err = RunReport::parse(&future).unwrap_err();
    assert!(
        matches!(
            err,
            bfly::core::telemetry::ReportError::FutureSchema { found: 4, .. }
        ),
        "should classify as FutureSchema: {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains("newer"), "unhelpful error: {msg}");
}
