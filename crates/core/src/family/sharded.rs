//! Shard-by-vertex-range execution: the out-of-core tier.
//!
//! Every member of the family updates one exposed vertex at a time, and
//! vertex `k`'s eq. 18 contribution depends only on `N(k)` and the rows
//! of the opposite orientation — never on another exposed vertex's
//! accumulator state. Contiguous vertex ranges ("shards") of the
//! partitioned side therefore count independently and their
//! [`CheckedAccum`] partials merge *exactly*, the same algebra the
//! parallel chunks already rely on, lifted from threads to shards
//! (ROADMAP item 2; cf. Wang et al., arXiv 1812.00283 on partitioned
//! exactness and Shi & Shun, arXiv 1907.08607 on vertex-range wedge
//! decomposition).
//!
//! Two drivers share that algebra:
//!
//! * **In-memory** ([`count_sharded`](super::count_sharded), or any plan
//!   in [`ExecMode::Sharded`]): the resident graph processed one
//!   wedge-balanced shard at a time through the engine's fixed-member
//!   kernel — one SPA for the whole run, one `CheckedAccum` per shard.
//!   The global-order members (priority/ranked) shard through the chunk
//!   driver instead, with chunks = shards.
//! * **Out-of-core** ([`count_segmented_checkpointed_recorded`]): a
//!   [`SegmentedGraph`] (the `.bfly` on-disk format) counted without
//!   ever materializing the full graph. Each shard materializes only
//!   its own partitioned-side rows ([`SegmentedGraph::segment`]);
//!   opposite-side rows come from a
//!   [`RowReader`](bfly_graph::RowReader) into the same
//!   eq. 18 vertex update the in-memory kernel runs. The reader pins
//!   the heaviest opposite rows, decoded once, in the byte slack the
//!   plan leaves (at most [`STREAM_WINDOW_BYTES`]) and streams the
//!   rest. Peak memory is the reader's metadata plus one shard plus one
//!   SPA plus the pin — the `mem.peak_bytes` gauge proves it.
//!
//! Shards are sized by the same [`balanced_chunk_bounds`] wedge-weighted
//! splitting the parallel kernels use, so skewed graphs get even shards
//! by *work*, not vertex count. Telemetry: a `shard` span per shard, the
//! `shards_planned` / `shard_bytes` gauges, a `shard_wedges` series (the
//! per-shard forecast), and the `shards_processed` counter.

use super::engine::{record_update, update_vertex, FixedKernel};
use super::parallel::{balanced_chunk_bounds, run_range, wedge_weights, Kernel, Poll};
use super::Traversal;
use crate::adaptive::{
    plan_scratch_bytes, select_plan, select_sharded_plan, ExecMode, GraphProfile, Plan,
};
use crate::budget::{record_degraded, record_memory, Partial, ResourceBudget};
use crate::checkpoint::{fingerprint_segmented, CheckpointConfig, CheckpointStore};
use crate::error::BflyError;
use bfly_graph::{SegmentedGraph, Side};
use bfly_sparse::{CheckedAccum, Pattern, Spa};
use bfly_telemetry::{timed_span, Counter, NoopRecorder, Recorder};
use std::time::Instant;

/// Payload window ceiling for streaming passes over the on-disk graph
/// (the wedge-weight scan and [`SegmentedGraph::load`]-style row
/// walks). Bounds both the encoded bytes read and the decoded columns
/// per window; budgeted execution shrinks the window further to the
/// per-shard payload so scan transients stay within the shard terms of
/// [`crate::adaptive::plan_scratch_bytes`]. Also the ceiling of the
/// count's pinned opposite-side rows.
pub(crate) const STREAM_WINDOW_BYTES: u64 = 256 << 10;

/// The in-memory sharded engine: wedge-balanced shard bounds over the
/// partitioned side, visited in traversal order, each shard counted
/// inside a `shard` span into a private [`CheckedAccum`] merged into the
/// total. Polls `deadline` every
/// [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) exposed vertices;
/// a cut returns the exact partial over the processed prefix and
/// `false`.
pub(crate) fn run_sharded<R: Recorder>(
    kernel: &FixedKernel<'_>,
    nshards: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let (part_adj, other_adj) = kernel.patterns();
    let mut shards = shard_ranges(part_adj, other_adj, nshards, rec);
    if kernel.traversal() == Traversal::Backward {
        // Backward members expose the last shard first.
        shards.reverse();
    }
    let mut spa = kernel.scratch();
    let mut total = CheckedAccum::new();
    let mut poll = Poll::new(deadline);
    for ((lo, hi), wedges) in shards {
        let mut shard_acc = CheckedAccum::new();
        let (complete, _) = timed_span(rec, "shard", |rec| {
            let items = kernel.items(lo, hi);
            run_range(kernel, items, &mut spa, &mut shard_acc, &mut poll, rec)
        });
        total.merge(shard_acc);
        if !complete {
            return (total, false);
        }
        rec.incr(Counter::ShardsProcessed, 1);
        if R::ENABLED {
            rec.series_push("shard_wedges", wedges as f64);
        }
    }
    (total, true)
}

/// Wedge-balanced shard layout of one run: the non-empty vertex ranges,
/// each with its wedge total (the per-shard forecast, recorded as the
/// `shard_wedges` series). Emits the planning gauges: `shards_planned`
/// (non-empty ranges) and `shard_bytes` (adjacency bytes of the heaviest
/// shard's partitioned rows).
fn shard_ranges<R: Recorder>(
    part_adj: &Pattern,
    other_adj: &Pattern,
    nshards: usize,
    rec: &mut R,
) -> Vec<((usize, usize), u64)> {
    let weights = wedge_weights(part_adj, other_adj);
    let mut shards: Vec<_> = balanced_chunk_bounds(&weights, nshards.max(1))
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| ((w[0], w[1]), weights[w[0]..w[1]].iter().sum()))
        .collect();
    if shards.is_empty() {
        // A zero-vertex side still runs one (empty) shard so the span
        // and gauge vocabulary stays uniform.
        shards.push(((0, part_adj.nrows()), 0));
    }
    if R::ENABLED {
        rec.gauge("shards_planned", shards.len() as f64);
        let max_bytes = shards
            .iter()
            .map(|&((lo, hi), _)| {
                let nnz = (lo..hi).map(|k| part_adj.row(k).len() as u64).sum::<u64>();
                4 * nnz + 8 * (hi - lo) as u64
            })
            .max()
            .unwrap_or(0);
        rec.gauge("shard_bytes", max_bytes as f64);
    }
    shards
}

/// Profile an on-disk graph from its resident degree arrays — the same
/// side terms [`GraphProfile::compute`] derives in memory, without
/// materializing an edge. `wedges_priority` is not measurable without
/// the resident graph (the priority rank needs a full edge pass), so it
/// is pinned to `u64::MAX`: the planner's global-member gate then never
/// fires, and out-of-core plans always run a fixed invariant — the only
/// members the segment kernel implements.
pub fn segmented_profile(sg: &SegmentedGraph) -> GraphProfile {
    let degrees = |side| sg.degrees(side).iter().map(|&d| d as usize);
    GraphProfile::from_degrees(
        degrees(Side::V1),
        degrees(Side::V2),
        sg.nedges() as usize,
        sg.resident_bytes(),
    )
}

/// Exact per-vertex wedge work of partitioning `side`, computed from the
/// on-disk graph in one bounded-memory streaming pass: vertex `k`'s
/// update scans `Σ_{j ∈ N(k)} deg_other(j)` entries, and the opposite
/// side's degrees are resident.
pub fn segmented_wedge_weights(sg: &SegmentedGraph, side: Side) -> crate::error::Result<Vec<u64>> {
    wedge_weights_windowed(sg, side, STREAM_WINDOW_BYTES)
}

/// [`segmented_wedge_weights`] with an explicit stream-window bound —
/// budgeted execution passes the per-shard payload size so the scan's
/// transient footprint stays within the shard terms the plan estimate
/// already charges.
fn wedge_weights_windowed(
    sg: &SegmentedGraph,
    side: Side,
    window_bytes: u64,
) -> crate::error::Result<Vec<u64>> {
    let other_deg = sg.degrees(side.other());
    let mut weights = vec![0u64; sg.side_len(side)];
    sg.for_each_row(side, 0, sg.side_len(side), window_bytes.max(1), |k, row| {
        weights[k] = row.iter().map(|&j| other_deg[j as usize] as u64).sum();
        Ok(())
    })?;
    Ok(weights)
}

/// Count an on-disk graph exactly, without budget or telemetry —
/// [`count_segmented_checkpointed_recorded`] with one shard and no limits.
pub fn count_segmented(sg: &SegmentedGraph) -> crate::error::Result<u64> {
    let unlimited = ResourceBudget::unlimited();
    let r = count_segmented_checkpointed_recorded(
        sg,
        Some(1),
        None,
        &unlimited,
        None,
        &mut NoopRecorder,
    )?;
    Ok(r.value.0)
}

/// The out-of-core counter: plan, shard, and count a
/// [`SegmentedGraph`] without ever holding the full graph.
///
/// The plan is the planner's fixed fallback ([`Plan::demoted`]): the
/// segment kernel runs fixed members only and never makes the
/// degree-ordered relabel, so no route plans or charges one. Shard
/// sizing, in precedence order: an explicit `shards`; else
/// `shard_bytes` (shards = partitioned payload / cap, each shard's
/// on-disk rows roughly that many bytes); else the planner's sharded
/// tier, grown until the plan's scratch estimate fits
/// `budget.max_bytes` (doubling from 1, capped at one vertex per shard —
/// a cap no shard count satisfies fails with
/// [`BflyError::BudgetExceeded`] carrying the exact estimate); else a
/// single shard. The shard loop runs inside one `count` span.
///
/// Execution mirrors the engine kernel exactly — same counters, same
/// `vertex_wedges` histogram — over [`GraphSegment`] rows with
/// opposite-side rows served by a [`RowReader`], whose pin takes the
/// byte budget's slack (`max_bytes` − [`plan_scratch_bytes`], at most
/// [`STREAM_WINDOW_BYTES`]; [`STREAM_WINDOW_BYTES`] with no cap) and
/// never changes the plan. The budget's
/// deadline is polled every `DEADLINE_STRIDE` vertices (a cut returns
/// the exact processed-prefix count with `complete = false`), and
/// measured allocation is re-checked at every shard boundary.
///
/// An optional durability layer: when `ckpt` is set, every completed
/// shard's exact
/// [`CheckedAccum`] partial is atomically persisted to the checkpoint
/// directory (inside a `checkpoint` span, counted by
/// `checkpoints_written`), and a resume run validates the
/// [`fingerprint_segmented`] run-shape fingerprint, merges persisted
/// partials for already-completed shards (`shards_skipped_resume`), and
/// recounts only the rest — bitwise-identical to an uninterrupted run,
/// because the shard merge algebra is exact.
///
/// With `ckpt = None` the durability layer costs nothing: it is
/// pay-for-use (one branch per *shard*, never per vertex).
///
/// [`GraphSegment`]: bfly_graph::GraphSegment
/// [`RowReader`]: bfly_graph::RowReader
pub fn count_segmented_checkpointed_recorded<R: Recorder>(
    sg: &SegmentedGraph,
    shards: Option<usize>,
    shard_bytes: Option<u64>,
    budget: &ResourceBudget,
    ckpt: Option<&CheckpointConfig>,
    rec: &mut R,
) -> crate::error::Result<Partial<(u64, Plan)>> {
    run_segmented(sg, shards, shard_bytes, budget, ckpt, None, rec)
}

/// [`count_segmented_checkpointed_recorded`] with an explicit pin bound
/// for the opposite-side [`RowReader`](bfly_graph::RowReader); `None`
/// derives it from the budget's slack.
pub(crate) fn run_segmented<R: Recorder>(
    sg: &SegmentedGraph,
    shards: Option<usize>,
    shard_bytes: Option<u64>,
    budget: &ResourceBudget,
    ckpt: Option<&CheckpointConfig>,
    pin_bytes: Option<u64>,
    rec: &mut R,
) -> crate::error::Result<Partial<(u64, Plan)>> {
    budget.record_limits(rec);
    // Snapshot the reader's retry counters up front so the delta covers
    // the wedge-weight scan as well as the shard loop.
    let (retries0, giveups0) = sg.retry_stats();
    budget.check_measured_bytes()?;
    let (profile, plan) = timed_span(rec, "select", |rec| {
        let profile = segmented_profile(sg);
        let plan = if shards.is_none() && shard_bytes.is_none() && budget.max_bytes.is_some() {
            select_sharded_plan(&profile, budget)?
        } else {
            let mut plan = select_plan(&profile, false, 0).demoted();
            budget.check_wedge_work(plan.est_work)?;
            let side = plan.partition_side();
            let nshards = match (shards, shard_bytes) {
                (Some(n), _) => n.max(1),
                (None, Some(cap)) => {
                    let payload = sg.payload_bytes(side, 0, sg.side_len(side));
                    payload.div_ceil(cap.max(1)).max(1) as usize
                }
                (None, None) => 1,
            };
            plan.mode = ExecMode::Sharded {
                shards: nshards.min(sg.side_len(side).max(1)),
            };
            budget.check_bytes(plan_scratch_bytes(&profile, &plan))?;
            plan
        };
        plan.record(rec);
        Ok::<_, crate::error::BflyError>((profile, plan))
    })?;
    let ExecMode::Sharded { shards: nshards } = plan.mode else {
        unreachable!("out-of-core plans are always sharded");
    };
    let side = plan.partition_side();
    let inv = plan.invariant;
    let filter = inv.update_part();
    // Scan with a window sized to the shard geometry: the plan estimate
    // charges one shard's payload, so the weight scan must not hold more
    // than that at once.
    let scan_window = (sg.payload_bytes(side, 0, sg.side_len(side)) / nshards.max(1) as u64)
        .clamp(4096, STREAM_WINDOW_BYTES);
    let weights = wedge_weights_windowed(sg, side, scan_window)?;
    let (ranges, shard_wedges): (Vec<(usize, usize)>, Vec<u64>) =
        balanced_chunk_bounds(&weights, nshards)
            .windows(2)
            .filter(|w| w[1] > w[0])
            .map(|w| ((w[0], w[1]), weights[w[0]..w[1]].iter().sum::<u64>()))
            .unzip();
    // The per-vertex weights are dead once the shards are priced; free
    // them before the SPA and the pin take their place.
    drop(weights);
    // The pin lives in the slack the plan leaves under the cap, so it
    // never changes the shard count or a refusal.
    let pin_bytes = pin_bytes.unwrap_or(match budget.max_bytes {
        Some(cap) => cap
            .saturating_sub(plan_scratch_bytes(&profile, &plan))
            .min(STREAM_WINDOW_BYTES),
        None => STREAM_WINDOW_BYTES,
    });
    if R::ENABLED {
        rec.gauge("shards_planned", ranges.len().max(1) as f64);
        let max_bytes = ranges
            .iter()
            .map(|&(lo, hi)| sg.payload_bytes(side, lo, hi))
            .max()
            .unwrap_or(0);
        rec.gauge("shard_bytes", max_bytes as f64);
    }
    // Durability layer: bind the checkpoint directory to this exact run
    // shape (graph identity + invariant + shard ranges). A resume with a
    // mismatched fingerprint refuses here, before any counting.
    let store = match ckpt {
        Some(cfg) => {
            let fp = fingerprint_segmented(sg, inv, &ranges);
            Some(CheckpointStore::open(cfg, fp, ranges.len())?)
        }
        None => None,
    };
    // Deterministic chaos hook: BFLY_FAULT_SHARD_ERROR=N injects a hard
    // I/O error after N shards complete (and checkpoint, if enabled) —
    // how CI kills a run at a shard boundary.
    let fault_after_shards: Option<u64> = std::env::var("BFLY_FAULT_SHARD_ERROR")
        .ok()
        .and_then(|v| v.trim().parse().ok());
    let part_len = sg.side_len(side);
    let mut spa = Spa::<u64>::new(part_len);
    let mut total = CheckedAccum::new();
    let mut complete = true;
    let mut poll = Poll::new(budget.deadline);
    let mut shards_done = 0u64;
    let counted = timed_span(rec, "count", |rec| -> crate::error::Result<()> {
        let mut reader = sg.row_reader(side.other(), pin_bytes)?;
        'shards: for (&(lo, hi), &wedge_total) in ranges.iter().zip(&shard_wedges) {
            if let Some(store) = &store {
                if let Some(saved) = store.load_shard(lo, hi)? {
                    total.merge(saved);
                    rec.incr(Counter::ShardsSkippedResume, 1);
                    if R::ENABLED {
                        rec.series_push("shard_wedges", wedge_total as f64);
                    }
                    shards_done += 1;
                    continue 'shards;
                }
            }
            let seg = sg.segment(side, lo, hi)?;
            let mut shard_acc = CheckedAccum::new();
            let shard_complete = timed_span(rec, "shard", |rec| -> crate::error::Result<bool> {
                // Inv1/Inv5 are forward traversals; the selector
                // never picks a backward member.
                for k in lo..hi {
                    if poll.expired() {
                        return Ok(false);
                    }
                    let (wedges, touched) = update_vertex(
                        seg.neighbors(k),
                        &mut reader,
                        filter.window(k),
                        &mut spa,
                        &mut shard_acc,
                    )?;
                    record_update(rec, wedges, touched);
                }
                Ok(true)
            })?;
            total.merge(shard_acc);
            rec.incr(Counter::ShardsProcessed, 1);
            if R::ENABLED {
                rec.series_push("shard_wedges", wedge_total as f64);
            }
            if !shard_complete {
                complete = false;
                break 'shards;
            }
            // Persist only *complete* shard partials: a deadline cut
            // above leaves nothing durable, so a later resume recounts
            // that shard from scratch instead of merging a prefix.
            if let Some(store) = &store {
                timed_span(rec, "checkpoint", |_rec| {
                    store.persist_shard(lo, hi, &shard_acc)
                })?;
                rec.incr(Counter::CheckpointsWritten, 1);
            }
            shards_done += 1;
            if fault_after_shards == Some(shards_done) {
                return Err(BflyError::Io(bfly_graph::io::IoError::Io(
                    std::io::Error::other(format!(
                        "injected shard fault after {shards_done} shard(s) \
                             (BFLY_FAULT_SHARD_ERROR)"
                    )),
                )));
            }
            budget.check_measured_bytes()?;
        }
        if R::ENABLED {
            rec.gauge("pinned_rows", reader.pinned_rows() as f64);
            rec.gauge("pinned_bytes", reader.pinned_bytes() as f64);
            rec.gauge("pinned_hits", reader.pinned_hits() as f64);
        }
        Ok(())
    });
    let (retries1, giveups1) = sg.retry_stats();
    rec.incr(Counter::IoRetries, retries1.saturating_sub(retries0));
    rec.incr(Counter::IoGiveups, giveups1.saturating_sub(giveups0));
    counted?;
    if !complete {
        record_degraded(rec, "deadline");
    }
    record_memory(rec);
    let value = crate::error::checked_total(total, "count_segmented")?;
    Ok(Partial {
        value: (value, plan),
        complete,
        fraction: if complete { Some(1.0) } else { None },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{run_plan, Member};
    use crate::family::{count, count_sharded, run_forced, Invariant};
    use crate::spec::count_brute_force;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_graph::{write_bfly_file, BipartiteGraph};
    use bfly_telemetry::InMemoryRecorder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<BipartiteGraph> {
        let mut rng = StdRng::seed_from_u64(77);
        vec![
            BipartiteGraph::empty(5, 7),
            BipartiteGraph::complete(6, 5),
            uniform_exact(40, 30, 220, &mut rng),
            chung_lu(60, 45, 400, 0.9, 0.6, &mut rng),
        ]
    }

    #[test]
    fn sharded_totals_match_every_invariant() {
        for g in sample_graphs() {
            let want = count_brute_force(&g);
            for inv in Invariant::ALL {
                for shards in [1, 2, 4, 9] {
                    assert_eq!(
                        count_sharded(&g, inv, shards),
                        want,
                        "inv {inv:?} shards {shards}"
                    );
                    crate::error::validate_graph(&g).unwrap();
                    let mode = ExecMode::Sharded { shards };
                    let plan = Plan::forced(&g, Member::Fixed(inv), mode, None);
                    let r = run_plan(&g, &plan, None, &mut NoopRecorder).unwrap();
                    assert_eq!(r.value, want);
                }
            }
        }
    }

    #[test]
    fn sharded_run_emits_shard_telemetry() {
        let mut rng = StdRng::seed_from_u64(78);
        let g = uniform_exact(30, 30, 180, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let mode = ExecMode::Sharded { shards: 4 };
        let got = run_forced(&g, Member::Fixed(Invariant::Inv1), mode, &mut rec);
        assert_eq!(got, count(&g, Invariant::Inv1));
        assert_eq!(rec.gauge_value("shards_planned"), Some(4.0));
        assert!(rec.gauge_value("shard_bytes").unwrap_or(0.0) > 0.0);
        assert_eq!(rec.counter(Counter::ShardsProcessed), 4);
        assert_eq!(rec.spans().iter().filter(|s| s.name == "shard").count(), 4);
        // Work counters match the unsharded engine exactly.
        let mut flat = InMemoryRecorder::new();
        crate::family::count_recorded(&g, Invariant::Inv1, &mut flat);
        assert_eq!(
            rec.counter(Counter::WedgesExpanded),
            flat.counter(Counter::WedgesExpanded)
        );
    }

    #[test]
    fn global_members_shard_through_chunk_merge() {
        let mut rng = StdRng::seed_from_u64(79);
        let g = chung_lu(80, 60, 700, 1.0, 1.0, &mut rng);
        let want = count_brute_force(&g);
        let base = select_plan(&GraphProfile::compute(&g), false, 0);
        for member in [Member::Priority, Member::Ranked] {
            for shards in [1, 2, 4] {
                let plan = Plan {
                    member,
                    mode: ExecMode::Sharded { shards },
                    ..base.clone()
                };
                let r = run_plan(&g, &plan, None, &mut NoopRecorder).unwrap();
                assert!(r.complete);
                assert_eq!(r.value, want, "{member:?} x{shards}");
            }
        }
    }

    #[test]
    fn segmented_counting_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("bfly-sharded-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (i, g) in sample_graphs().into_iter().enumerate() {
            let path = dir.join(format!("g{i}.bfly"));
            write_bfly_file(&g, &path).unwrap();
            let sg = SegmentedGraph::open(&path).unwrap();
            let want = count_brute_force(&g);
            assert_eq!(count_segmented(&sg).unwrap(), want);
            for shards in [2, 4] {
                let mut rec = InMemoryRecorder::new();
                let unlimited = ResourceBudget::unlimited();
                let r = count_segmented_checkpointed_recorded(
                    &sg,
                    Some(shards),
                    None,
                    &unlimited,
                    None,
                    &mut rec,
                )
                .unwrap();
                assert_eq!(r.value.0, want);
                assert!(rec.counter(Counter::ShardsProcessed) >= 1);
            }
            // Profile agrees with the in-memory one on every shared term.
            let p_mem = GraphProfile::compute(&g);
            let p_seg = segmented_profile(&sg);
            assert_eq!(p_seg.nedges, p_mem.nedges);
            assert_eq!(p_seg.wedges_v1, p_mem.wedges_v1);
            assert_eq!(p_seg.wedges_v2, p_mem.wedges_v2);
            assert_eq!(p_seg.max_deg_v1, p_mem.max_deg_v1);
            // The unmeasured priority work is the planner's sentinel, and
            // renders as null.
            assert_eq!(p_seg.wedges_priority, u64::MAX);
            assert_eq!(
                p_seg.to_json().get("wedges_priority"),
                Some(&bfly_telemetry::Json::Null)
            );
            let w_seg = segmented_wedge_weights(&sg, Side::V2).unwrap();
            let w_mem = wedge_weights(g.biadjacency_t(), g.biadjacency());
            assert_eq!(w_seg, w_mem);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_budget_sizes_shards_and_reports_plan() {
        let mut rng = StdRng::seed_from_u64(80);
        let g = uniform_exact(50, 50, 350, &mut rng);
        let dir = std::env::temp_dir().join(format!("bfly-sharded-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        // shard_bytes forces multiple shards.
        let mut rec = InMemoryRecorder::new();
        let r = count_segmented_checkpointed_recorded(
            &sg,
            None,
            Some(64),
            &ResourceBudget::unlimited(),
            None,
            &mut rec,
        )
        .unwrap();
        assert!(r.complete);
        assert_eq!(r.value.0, count_brute_force(&g));
        assert!(matches!(r.value.1.mode, ExecMode::Sharded { shards } if shards > 1));
        assert!(rec.gauge_value("shards_planned").unwrap_or(0.0) > 1.0);
        // A byte budget grows the shard count instead of refusing, and an
        // impossible budget fails with the exact estimate.
        let budget = ResourceBudget::unlimited().with_max_bytes(plan_scratch_bytes(
            &segmented_profile(&sg),
            &{
                let mut p = select_plan(&segmented_profile(&sg), false, 0);
                p.mode = ExecMode::Sharded { shards: 50 };
                p
            },
        ));
        let r = count_segmented_checkpointed_recorded(
            &sg,
            None,
            None,
            &budget,
            None,
            &mut NoopRecorder,
        )
        .unwrap();
        assert!(r.complete);
        assert_eq!(r.value.0, count_brute_force(&g));
        let starved = ResourceBudget::unlimited().with_max_bytes(16);
        let err = count_segmented_checkpointed_recorded(
            &sg,
            None,
            None,
            &starved,
            None,
            &mut NoopRecorder,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            BflyError::BudgetExceeded {
                resource: "bytes",
                ..
            }
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn segmented_deadline_truncates_with_exact_prefix() {
        use std::time::Duration;
        // > DEADLINE_STRIDE partitioned vertices so a poll fires.
        let n = 9000u32;
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| [(u, u), (u, (u + 1) % n)]).collect();
        let g = BipartiteGraph::from_edges(n as usize, n as usize, &edges).unwrap();
        let dir = std::env::temp_dir().join(format!("bfly-sharded-dl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.bfly");
        write_bfly_file(&g, &path).unwrap();
        let sg = SegmentedGraph::open(&path).unwrap();
        let budget = ResourceBudget::unlimited().with_deadline_in(Duration::ZERO);
        let r = count_segmented_checkpointed_recorded(
            &sg,
            Some(4),
            None,
            &budget,
            None,
            &mut NoopRecorder,
        )
        .unwrap();
        assert!(!r.complete);
        assert!(r.value.0 <= count_brute_force(&g));
        std::fs::remove_dir_all(&dir).ok();
    }
}
