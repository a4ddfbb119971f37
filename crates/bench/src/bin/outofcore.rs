//! Out-of-core study: `.bfly` conversion cost, segmented counting time
//! across shard counts, and the budgeted sharded tier under a byte cap
//! below the resident graph — all against the in-memory adaptive count,
//! which every configuration must reproduce exactly.
//!
//! Emits `BENCH_outofcore.json`, a JSON array of one [`RunReport`] per
//! configuration, via [`write_bench_report`].
//!
//! [`RunReport`]: bfly_core::telemetry::RunReport

use bfly_bench::{scale_from_env, time_one, write_bench_report};
use bfly_core::telemetry::{InMemoryRecorder, Json};
use bfly_core::{count_adaptive, count_segmented_checkpointed_recorded, ResourceBudget};
use bfly_graph::{write_bfly_file, SegmentedGraph, StandIn};

fn main() {
    let scale = scale_from_env();
    let dir = std::env::temp_dir().join("bfly-bench-outofcore");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let mut reports = Vec::new();

    println!("Out-of-core counting — stand-ins at scale {scale}");
    println!(
        "{:<16}{:>10}{:>12}{:>12}{:>8}{:>12}{:>12}",
        "Dataset", "|E|", "file (B)", "in-mem (s)", "shards", "ooc (s)", "Ξ"
    );
    for &d in StandIn::ALL.iter() {
        let g = d.generate_scaled(scale);
        let path = dir.join(format!("{d:?}.bfly"));
        let (t_conv, file_bytes) = time_one(|| write_bfly_file(&g, &path).expect("write .bfly"));
        let sg = SegmentedGraph::open(&path).expect("open .bfly");
        let (t_mem, want) = time_one(|| count_adaptive(&g).0);

        for shards in [1usize, 4, 16] {
            let mut rec = InMemoryRecorder::new();
            let unlimited = ResourceBudget::unlimited();
            let (t, got) = time_one(|| {
                count_segmented_checkpointed_recorded(
                    &sg,
                    Some(shards),
                    None,
                    &unlimited,
                    None,
                    &mut rec,
                )
                .unwrap()
                .value
                .0
            });
            assert_eq!(
                got, want,
                "{d:?} shards={shards}: out-of-core count drifted"
            );
            println!(
                "{:<16}{:>10}{:>12}{t_mem:>12.4}{shards:>8}{t:>12.4}{got:>12}",
                format!("{d:?}"),
                g.nedges(),
                file_bytes
            );
            reports.push(rec.report(vec![
                ("bench".into(), Json::Str("outofcore".into())),
                ("dataset".into(), Json::Str(format!("{d:?}"))),
                ("scale".into(), Json::Float(scale)),
                ("shards".into(), Json::UInt(shards as u64)),
                ("convert_seconds".into(), Json::Float(t_conv)),
                ("file_bytes".into(), Json::UInt(file_bytes)),
                ("in_memory_seconds".into(), Json::Float(t_mem)),
                ("seconds".into(), Json::Float(t)),
                ("butterflies".into(), Json::UInt(got)),
            ]));
        }

        // The acceptance configuration: a byte cap below the resident
        // graph, answered by the budget-driven shard sizing. Small
        // scales can fall below the sharded floor too — a typed refusal,
        // reported rather than hidden.
        let cap = sg.resident_bytes().saturating_sub(1).max(1);
        let budget = ResourceBudget::unlimited().with_max_bytes(cap);
        let mut rec = InMemoryRecorder::new();
        let (t, r) = time_one(|| {
            count_segmented_checkpointed_recorded(&sg, None, None, &budget, None, &mut rec)
        });
        match r {
            Ok(partial) => {
                assert_eq!(partial.value.0, want, "{d:?} budgeted: count drifted");
                let bfly_core::ExecMode::Sharded { shards } = partial.value.1.mode else {
                    panic!("{d:?}: budgeted out-of-core plan must be sharded");
                };
                println!(
                    "{:<16}{:>10}{:>12}{:>12}{:>8}{t:>12.4}{:>12}  (cap {cap} B)",
                    format!("{d:?} capped"),
                    g.nedges(),
                    file_bytes,
                    "-",
                    shards,
                    partial.value.0
                );
                reports.push(rec.report(vec![
                    ("bench".into(), Json::Str("outofcore_budgeted".into())),
                    ("dataset".into(), Json::Str(format!("{d:?}"))),
                    ("scale".into(), Json::Float(scale)),
                    ("max_bytes".into(), Json::UInt(cap)),
                    ("shards".into(), Json::UInt(shards as u64)),
                    ("seconds".into(), Json::Float(t)),
                    ("butterflies".into(), Json::UInt(partial.value.0)),
                ]));
            }
            Err(e) => println!("{:<16}  cap {cap} B refused: {e}", format!("{d:?} capped")),
        }
    }

    match write_bench_report("outofcore", &reports) {
        Ok(path) => println!("\nwrote {path}"),
        Err(e) => eprintln!("failed to write report: {e}"),
    }
}
