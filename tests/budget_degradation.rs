//! Resource-budgeted graceful degradation, end to end: byte caps degrade
//! the plan but never the answer, work caps refuse the run with a typed
//! error instead of thrashing, deadlines yield flagged partial results,
//! and every degradation leaves a `budget.*` fingerprint in telemetry.

use bfly::core::adaptive::plan_scratch_bytes;
use bfly::core::peel::{
    tip_numbers, tip_numbers_budgeted_recorded, wing_numbers, wing_numbers_budgeted_recorded,
};
use bfly::core::telemetry::{InMemoryRecorder, NoopRecorder};
use bfly::core::testkit::fixture_battery;
use bfly::core::{
    count_adaptive, count_adaptive_budgeted_recorded, BflyError, GraphProfile, Partial,
    ResourceBudget,
};
use bfly::graph::{BipartiteGraph, Side};
use std::time::{Duration, Instant};

#[test]
fn unlimited_budget_reproduces_every_fixture_count() {
    let budget = ResourceBudget::unlimited();
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        for parallel in [false, true] {
            let r =
                count_adaptive_budgeted_recorded(&g, parallel, &budget, &mut NoopRecorder).unwrap();
            assert!(r.complete, "{name} parallel={parallel}");
            assert_eq!(r.value.0, want, "{name} parallel={parallel}");
        }
    }
}

#[test]
fn byte_caps_degrade_the_plan_but_not_the_count() {
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        // The fixed-member flat sequential plan with degree ordering shed
        // is the cheapest *in-memory* shape the planner can degrade to (a
        // selected global-order member demotes to its fixed fallback
        // first); byte costs are total — resident graph plus scratch — so
        // any cap at or above resident + flat floor must still produce
        // the exact count without leaving the in-memory regime.
        let profile = GraphProfile::compute(&g);
        let mut flat = bfly::core::select_plan(&profile, false, 1);
        flat.member = bfly::core::Member::Fixed(flat.invariant);
        flat.degree_ordered = false;
        flat.mode = bfly::core::ExecMode::Flat;
        let floor = profile.resident_bytes + plan_scratch_bytes(&profile, &flat);
        let budget = ResourceBudget::unlimited().with_max_bytes(floor);
        let r = count_adaptive_budgeted_recorded(&g, true, &budget, &mut NoopRecorder).unwrap();
        assert!(r.complete, "{name}");
        assert_eq!(r.value.0, want, "{name}: degraded count must stay exact");
        // Below the in-memory floor the planner switches to the sharded
        // tier — a *planned* mode, still exact — and only a cap no shard
        // count can satisfy is a typed refusal naming the axis.
        let budget = ResourceBudget::unlimited().with_max_bytes(floor - 1);
        match count_adaptive_budgeted_recorded(&g, true, &budget, &mut NoopRecorder) {
            Ok(r) => {
                assert!(r.complete, "{name}");
                assert!(
                    matches!(r.value.1.mode, bfly::core::ExecMode::Sharded { .. }),
                    "{name}: sub-resident cap must select the sharded tier, got {:?}",
                    r.value.1.mode
                );
                assert_eq!(r.value.0, want, "{name}: sharded count must stay exact");
            }
            Err(BflyError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, "bytes", "{name}")
            }
            other => panic!("{name}: expected sharded plan or bytes refusal, got {other:?}"),
        }
        let starved = ResourceBudget::unlimited().with_max_bytes(16);
        match count_adaptive_budgeted_recorded(&g, true, &starved, &mut NoopRecorder) {
            Err(BflyError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, "bytes", "{name}")
            }
            other => panic!("{name}: expected bytes refusal, got {other:?}"),
        }
    }
}

#[test]
fn work_caps_are_typed_refusals_with_telemetry() {
    let g = BipartiteGraph::complete(12, 12);
    let budget = ResourceBudget::unlimited().with_max_wedge_work(1);
    let mut rec = InMemoryRecorder::new();
    match count_adaptive_budgeted_recorded(&g, false, &budget, &mut rec) {
        Err(BflyError::BudgetExceeded {
            resource,
            limit,
            requested,
        }) => {
            assert_eq!(resource, "wedge_work");
            assert_eq!(limit, 1);
            assert!(requested > 1);
        }
        other => panic!("expected wedge_work refusal, got {other:?}"),
    }
    // The configured cap is on record even for refused runs.
    let rep = rec.report(vec![]);
    assert!(rep
        .gauges
        .iter()
        .any(|(n, v)| n == "budget.max_wedge_work" && *v == 1.0));
}

#[test]
fn expired_deadline_yields_flagged_partial_count() {
    // A long path graph (one vertex per stride poll) with an already
    // expired deadline: the engine must stop at a poll boundary, flag
    // the result, and record the degradation — not error, not hang.
    let n = 9000u32;
    let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| [(u, u), (u, (u + 1) % n)]).collect();
    let g = BipartiteGraph::from_edges(n as usize, n as usize, &edges).unwrap();
    let budget = ResourceBudget::unlimited().with_deadline_in(std::time::Duration::from_millis(0));
    std::thread::sleep(std::time::Duration::from_millis(2));
    let mut rec = InMemoryRecorder::new();
    let r = count_adaptive_budgeted_recorded(&g, false, &budget, &mut rec).unwrap();
    assert!(!r.complete, "deadline in the past must truncate");
    // Truncated counts are exact lower bounds over the processed prefix.
    assert!(r.value.0 <= count_adaptive(&g).0);
    let rep = rec.report(vec![]);
    assert!(rep
        .gauges
        .iter()
        .any(|(n, v)| n == "budget.degraded" && *v == 3.0));
}

#[test]
fn budgeted_peel_paths_match_unbudgeted_numbers() {
    let budget = ResourceBudget::unlimited();
    // A one-byte cap forces the chunk fallback; numbers still exact
    // unless the budget refuses outright, which must be typed.
    let tiny = ResourceBudget::unlimited().with_max_bytes(1);
    let exact_or_refused = |r: Result<Partial<Vec<u64>>, BflyError>, want: &[u64], at: &str| match r
    {
        Ok(r) => assert_eq!(r.value, want, "{at}"),
        Err(BflyError::BudgetExceeded { .. }) => {}
        Err(other) => panic!("{at}: unexpected {other:?}"),
    };
    for (name, g) in fixture_battery() {
        let tips = [Side::V1, Side::V2].map(|side| (side, tip_numbers(&g, side)));
        let wings = wing_numbers(&g);
        for chunks in [1, 2, 4] {
            for (side, want) in &tips {
                let at = format!("{name} {side:?} chunks={chunks}");
                let r =
                    tip_numbers_budgeted_recorded(&g, *side, chunks, &budget, &mut NoopRecorder)
                        .unwrap();
                assert!(r.complete, "{at}");
                assert_eq!(&r.value, want, "{at}");
                let r = tip_numbers_budgeted_recorded(&g, *side, chunks, &tiny, &mut NoopRecorder);
                exact_or_refused(r, want, &at);
            }
            let at = format!("{name} chunks={chunks}");
            let r = wing_numbers_budgeted_recorded(&g, chunks, &budget, &mut NoopRecorder).unwrap();
            assert!(r.complete, "{at}");
            assert_eq!(r.value, wings, "{at}");
            let r = wing_numbers_budgeted_recorded(&g, chunks, &tiny, &mut NoopRecorder);
            exact_or_refused(r, &wings, &at);
        }
    }
}

#[test]
fn expired_deadline_truncates_decompositions_to_upper_bounds() {
    // Peeling polls the deadline at every round boundary, so an already
    // expired one stops any decomposition with at least one item after
    // its first round: peeled items exact, the rest bounded from above.
    let expired =
        ResourceBudget::unlimited().with_deadline(Instant::now() - Duration::from_secs(1));
    let check = |r: Partial<Vec<u64>>, exact: &[u64], rec: &InMemoryRecorder, at: &str| {
        assert!(!r.complete, "{at}: an expired deadline must truncate");
        assert_eq!(r.value.len(), exact.len(), "{at}");
        for (i, (&got, &want)) in r.value.iter().zip(exact).enumerate() {
            assert!(got >= want, "{at}: item {i} got {got} below exact {want}");
        }
        assert_eq!(rec.gauge_value("budget.degraded"), Some(3.0), "{at}");
    };
    for (name, g) in fixture_battery() {
        for side in [Side::V1, Side::V2] {
            if g.nvertices(side) == 0 {
                continue;
            }
            let mut rec = InMemoryRecorder::new();
            let r = tip_numbers_budgeted_recorded(&g, side, 2, &expired, &mut rec).unwrap();
            check(
                r,
                &tip_numbers(&g, side),
                &rec,
                &format!("{name} tip {side:?}"),
            );
        }
        if g.nedges() == 0 {
            continue;
        }
        let mut rec = InMemoryRecorder::new();
        let r = wing_numbers_budgeted_recorded(&g, 2, &expired, &mut rec).unwrap();
        check(r, &wing_numbers(&g), &rec, &format!("{name} wing"));
    }
}
