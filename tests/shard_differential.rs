//! Shard-by-vertex-range execution is exact: for every fixture, every
//! kernel invariant, every shard count, and every thread-pool width, the
//! sharded counters — in-memory and out-of-core — must equal
//! `count_adaptive` bit for bit. Per-exposed-vertex updates are
//! independent, so vertex-range shards merge by plain addition; these
//! tests pin that algebra against the whole battery. The out-of-core
//! reader's pinned hub rows are a cache, not a plan input: every pin
//! bound yields the same count, work counters, shard plan and refusals.

use bfly::core::telemetry::NoopRecorder;
use bfly::core::telemetry::{Counter, InMemoryRecorder};
use bfly::core::testkit::{count_segmented_pinned, fixture_battery};
use bfly::core::{
    count_adaptive, count_adaptive_budgeted_recorded, count_segmented,
    count_segmented_checkpointed_recorded, count_sharded, plan_scratch_bytes, run_plan,
    segmented_profile, select_plan, validate_graph, CheckpointConfig, ExecMode, Invariant, Member,
    Plan, ResourceBudget,
};
use bfly::graph::{write_bfly_file, RowReader, SegmentedGraph};

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn every_invariant_and_shard_count_matches_adaptive() {
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        for inv in Invariant::ALL {
            for shards in SHARDS {
                assert_eq!(
                    count_sharded(&g, inv, shards),
                    want,
                    "{name} {inv} shards={shards}"
                );
                validate_graph(&g).unwrap();
                let plan = Plan::forced(&g, Member::Fixed(inv), ExecMode::Sharded { shards }, None);
                assert_eq!(
                    run_plan(&g, &plan, None, &mut NoopRecorder).unwrap().value,
                    want,
                    "{name} {inv} shards={shards} (checked)"
                );
            }
            // More shards than vertices degrades to one vertex per shard.
            assert_eq!(
                count_sharded(&g, inv, 10_000),
                want,
                "{name} {inv} oversharded"
            );
        }
    }
}

#[test]
fn sharded_counts_are_thread_pool_invariant() {
    // The sharded path merges per-shard partials in shard order, so the
    // ambient rayon pool width must never change the answer (or the
    // shard bookkeeping).
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let inv = Invariant::Inv2;
        for threads in THREADS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for shards in SHARDS {
                let got = pool.install(|| {
                    let mut rec = InMemoryRecorder::new();
                    let plan =
                        Plan::forced(&g, Member::Fixed(inv), ExecMode::Sharded { shards }, None);
                    let n = run_plan(&g, &plan, None, &mut rec).unwrap().value;
                    let rep = rec.report(vec![]);
                    let processed = rep
                        .counters
                        .iter()
                        .find(|(c, _)| c == "shards_processed")
                        .map(|(_, v)| *v)
                        .unwrap_or(0);
                    assert!(
                        processed >= 1 && processed <= shards as u64,
                        "{name} threads={threads} shards={shards}: processed {processed}"
                    );
                    assert!(rep.gauges.iter().any(|(g, _)| g == "shards_planned"));
                    n
                });
                assert_eq!(got, want, "{name} threads={threads} shards={shards}");
            }
        }
    }
}

#[test]
fn out_of_core_counts_match_in_memory_on_the_battery() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        assert_eq!(count_segmented(&sg).unwrap(), want, "{name}");
        for shards in SHARDS {
            let unlimited = ResourceBudget::unlimited();
            let mut rec = InMemoryRecorder::new();
            let r = count_segmented_checkpointed_recorded(
                &sg,
                Some(shards),
                None,
                &unlimited,
                None,
                &mut rec,
            );
            assert_eq!(
                r.unwrap().value.0,
                want,
                "{name} shards={shards} (out-of-core)"
            );
        }
        // Byte-driven shard sizing: a small per-shard payload cap forces
        // many shards; the count must not move.
        let r = count_segmented_checkpointed_recorded(
            &sg,
            None,
            Some(64),
            &ResourceBudget::unlimited(),
            None,
            &mut InMemoryRecorder::new(),
        )
        .unwrap();
        assert!(r.complete, "{name}");
        assert_eq!(r.value.0, want, "{name} shard-bytes=64");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn budgeted_sharded_tier_agrees_with_unbudgeted_planner() {
    // Whatever tier the byte budget lands on — degraded in-memory or the
    // sharded out-of-core plan — the count is the same. Sweep caps from
    // generous to absurd and require every successful run to be exact.
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        for cap in [1u64 << 30, 1 << 20, 1 << 14, 1 << 10] {
            let budget = ResourceBudget::unlimited().with_max_bytes(cap);
            match count_adaptive_budgeted_recorded(&g, true, &budget, &mut NoopRecorder) {
                Ok(r) => {
                    assert!(r.complete, "{name} cap={cap}");
                    assert_eq!(r.value.0, want, "{name} cap={cap}");
                }
                Err(bfly::core::BflyError::BudgetExceeded { resource, .. }) => {
                    assert_eq!(resource, "bytes", "{name} cap={cap}")
                }
                Err(other) => panic!("{name} cap={cap}: unexpected {other:?}"),
            }
        }
    }
}

/// The counters a pin must never move.
const WORK: [Counter; 5] = [
    Counter::WedgesExpanded,
    Counter::SpaScatters,
    Counter::AccumEntries,
    Counter::VerticesExposed,
    Counter::ShardsProcessed,
];

#[test]
fn pin_bounds_change_no_count_or_work_counter() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        // The reader pins rows of the side opposite the partitioned one.
        let other = select_plan(&segmented_profile(&sg), false, 0)
            .partition_side()
            .other();
        let heaviest = sg.degrees(other).iter().copied().max().unwrap_or(0);
        for shards in [1, 2, 4, 8] {
            let unpinned = {
                let mut rec = InMemoryRecorder::new();
                let r = count_segmented_pinned(
                    &sg,
                    Some(shards),
                    &ResourceBudget::unlimited(),
                    None,
                    0,
                    &mut rec,
                )
                .unwrap();
                assert_eq!(rec.gauge_value("pinned_rows"), Some(0.0), "{name}");
                (r, WORK.map(|c| rec.counter(c)))
            };
            assert!(unpinned.0.complete);
            assert_eq!(unpinned.0.value.0, want, "{name} shards={shards}");
            for (bound, pin) in [
                ("heaviest row", RowReader::pin_cost(heaviest)),
                ("every row", u64::MAX),
            ] {
                let mut rec = InMemoryRecorder::new();
                let r = count_segmented_pinned(
                    &sg,
                    Some(shards),
                    &ResourceBudget::unlimited(),
                    None,
                    pin,
                    &mut rec,
                )
                .unwrap();
                let at = format!("{name} shards={shards} pin={bound}");
                assert_eq!(r, unpinned.0, "{at}");
                assert_eq!(WORK.map(|c| rec.counter(c)), unpinned.1, "{at}");
                if heaviest >= 2 {
                    assert!(rec.gauge_value("pinned_rows").unwrap() >= 1.0, "{at}");
                    assert!(rec.gauge_value("pinned_hits").unwrap() >= 1.0, "{at}");
                }
                if bound == "heaviest row" {
                    let rows = if heaviest >= 2 { 1.0 } else { 0.0 };
                    assert_eq!(rec.gauge_value("pinned_rows"), Some(rows), "{at}");
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_pin_plans_the_same_shards_and_refuses_at_the_same_caps() {
    // The cap sweep of `budgeted_sharded_tier_agrees_with_unbudgeted_planner`,
    // out of core: the default run pins into the cap's slack, and must
    // plan and refuse exactly as a run that pins nothing.
    let dir = std::env::temp_dir().join(format!("bfly-shard-pin-cap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (name, g) in fixture_battery() {
        let want = count_adaptive(&g).0;
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        let profile = segmented_profile(&sg);
        for cap in [1u64 << 30, 1 << 20, 1 << 14, 1 << 10] {
            let budget = ResourceBudget::unlimited().with_max_bytes(cap);
            let mut rec = InMemoryRecorder::new();
            let pinned =
                count_segmented_checkpointed_recorded(&sg, None, None, &budget, None, &mut rec);
            let unpinned =
                count_segmented_pinned(&sg, None, &budget, None, 0, &mut InMemoryRecorder::new());
            match (pinned, unpinned) {
                (Ok(p), Ok(u)) => {
                    assert_eq!(p, u, "{name} cap={cap}");
                    assert_eq!(p.value.0, want, "{name} cap={cap}");
                    // The pin stays inside the slack the plan leaves.
                    let slack = cap - plan_scratch_bytes(&profile, &p.value.1);
                    let pinned_bytes = rec.gauge_value("pinned_bytes").unwrap();
                    assert!(pinned_bytes <= slack as f64, "{name} cap={cap}");
                }
                (Err(p), Err(u)) => assert_eq!(p.to_string(), u.to_string(), "{name} cap={cap}"),
                (p, u) => panic!("{name} cap={cap}: pinned {p:?} but unpinned {u:?}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoints_resume_across_pin_bounds() {
    // The checkpoint fingerprint binds the shard plan, not the pin: shards
    // persisted by an unpinned run are all skipped by a pinned resume.
    let dir = std::env::temp_dir().join(format!("bfly-shard-pin-ck-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (name, g) = fixture_battery()
        .into_iter()
        .max_by_key(|(_, g)| g.nedges())
        .unwrap();
    let want = count_adaptive(&g).0;
    let path = dir.join("g.bfly");
    write_bfly_file(&g, &path).unwrap();
    let sg = SegmentedGraph::open(&path).unwrap();
    let ck = dir.join("ck");
    let fresh = count_segmented_pinned(
        &sg,
        Some(4),
        &ResourceBudget::unlimited(),
        Some(&CheckpointConfig::new(&ck)),
        0,
        &mut InMemoryRecorder::new(),
    )
    .unwrap();
    let mut rec = InMemoryRecorder::new();
    let resumed = count_segmented_checkpointed_recorded(
        &sg,
        Some(4),
        None,
        &ResourceBudget::unlimited(),
        Some(&CheckpointConfig::resume(&ck)),
        &mut rec,
    )
    .unwrap();
    assert_eq!(resumed, fresh, "{name}");
    assert_eq!(resumed.value.0, want, "{name}");
    assert_eq!(rec.counter(Counter::ShardsSkippedResume), 4, "{name}");
    let _ = std::fs::remove_dir_all(&dir);
}
