//! Resident and `.bfly` inputs run one sharded plan through one shard
//! loop: the plan a `.bfly` count makes, run on the resident graph
//! through `run_plan`, must give the same count, work counters and shard
//! bookkeeping — run to completion, and cut by a deadline that has
//! already passed (a poll fires inside a shard of the graph with more
//! than `DEADLINE_STRIDE` = 4,096 partitioned vertices).

use bfly::core::telemetry::{Counter, InMemoryRecorder};
use bfly::core::testkit::fixture_battery;
use bfly::core::{count_segmented_checkpointed_recorded, run_plan, ResourceBudget};
use bfly::graph::generators::uniform_exact;
use bfly::graph::{write_bfly_file, SegmentedGraph};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// The counters and shard bookkeeping both inputs must agree on.
const AGREED: [Counter; 5] = [
    Counter::WedgesExpanded,
    Counter::SpaScatters,
    Counter::AccumEntries,
    Counter::VerticesExposed,
    Counter::ShardsProcessed,
];

#[test]
fn resident_and_on_disk_inputs_agree_on_one_plan() {
    let dir = std::env::temp_dir().join(format!("bfly-shard-inputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut graphs = fixture_battery();
    let big = uniform_exact(9000, 9000, 30_000, &mut StdRng::seed_from_u64(2));
    graphs.push(("uniform-9000x9000x30000".into(), big));
    let mut cut = 0;
    for (name, g) in graphs {
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        for shards in [1, 2, 4] {
            for expired in [false, true] {
                let mut budget = ResourceBudget::unlimited();
                if expired {
                    budget = budget.with_deadline_in(Duration::ZERO);
                }
                let at = format!("{name} shards={shards} expired={expired}");
                let mut disk = InMemoryRecorder::new();
                let r = count_segmented_checkpointed_recorded(
                    &sg,
                    Some(shards),
                    None,
                    &budget,
                    None,
                    &mut disk,
                )
                .unwrap();
                let (count, plan) = r.value;
                let mut mem = InMemoryRecorder::new();
                let m = run_plan(&g, &plan, budget.deadline, &mut mem).unwrap();
                assert_eq!(m.value, count, "{at}: count");
                assert_eq!(m.complete, r.complete, "{at}: complete");
                assert_eq!(
                    AGREED.map(|c| mem.counter(c)),
                    AGREED.map(|c| disk.counter(c)),
                    "{at}: work counters and shards_processed"
                );
                let planned = mem.gauge_value("shards_planned");
                assert!(planned.is_some(), "{at}: shards_planned");
                assert_eq!(planned, disk.gauge_value("shards_planned"), "{at}");
                assert_eq!(
                    mem.series("shard_wedges"),
                    disk.series("shard_wedges"),
                    "{at}: shard_wedges"
                );
                cut += usize::from(!r.complete);
            }
        }
    }
    // The large graph is cut by the deadline at every shard count.
    assert_eq!(cut, 3, "deadline cuts");
    let _ = std::fs::remove_dir_all(&dir);
}
