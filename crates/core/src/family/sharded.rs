//! Shard-by-vertex-range execution: the sharded tier, resident or out of
//! core.
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
//! decomposition). That holds whether the rows are resident
//! ([`run_plan`](crate::adaptive::run_plan) in [`ExecMode::Sharded`]) or
//! streamed from a `.bfly` [`SegmentedGraph`]
//! ([`count_segmented_checkpointed_recorded`]), so one planner,
//! [`Plan::sharded`], sizes every sharded fixed-member plan and one loop,
//! `drive_shards`, runs it over either input. Out of core, peak memory is
//! the reader's metadata, one shard's partitioned rows, one pair
//! accumulator, and the heaviest opposite rows a [`RowReader`] pins in
//! the slack the plan leaves. Shards are balanced by *work*
//! ([`balanced_chunk_bounds`] over the wedge weights); a shard the
//! deadline cuts merges its exact prefix but is not processed, pushes no
//! forecast and persists no checkpoint. The global-order members shard
//! through the chunk driver instead.

use super::engine::{record_update, update_vertex, FixedKernel, RowSource};
use super::parallel::{balanced_chunk_bounds, wedge_weights, Poll};
use super::{Invariant, Traversal};
use crate::adaptive::{
    finish_count, plan_scratch_bytes, ExecMode, GraphProfile, Plan, ShardSizing,
};
use crate::budget::{Partial, ResourceBudget};
use crate::checkpoint::{fingerprint_segmented, CheckpointConfig, CheckpointStore};
use crate::error::{BflyError, Result};
use bfly_graph::{GraphSegment, RowReader, SegmentedGraph, Side};
use bfly_sparse::{CheckedAccum, PairAccum, Pattern};
use bfly_telemetry::{timed_span, Counter, Recorder};
use std::time::Instant;

/// Ceiling of a streamed window over the on-disk graph (encoded bytes
/// and decoded columns alike) and of the pinned opposite-side rows. The
/// weight scan shrinks it to one shard's payload, as charged by
/// [`plan_scratch_bytes`].
pub(crate) const STREAM_WINDOW_BYTES: u64 = 256 << 10;

/// What the shard loop reads, and what the input adds at shard
/// boundaries: nothing resident; checkpoints, the fault hook and the
/// measured-byte check out of core.
pub(crate) trait ShardInput {
    /// One shard's partitioned rows, by global vertex id.
    type Part: RowSource;
    /// The opposite side's rows.
    type Other: RowSource;
    /// Exact per-vertex wedge work of the partitioned side; `nshards`
    /// sizes a streamed scan's window.
    fn weights(&self, nshards: usize) -> Result<Vec<u64>>;
    /// This input's bytes of shard `lo..hi` (the `shard_bytes` gauge).
    fn shard_bytes(&self, lo: usize, hi: usize) -> u64;
    /// Start a run of `inv` over the layout `shards`, before any count:
    /// bind durable state to it and open the opposite rows.
    fn start(&mut self, inv: Invariant, shards: &[((usize, usize), u64)]) -> Result<Self::Other>;
    /// Shard `lo..hi`'s partitioned rows.
    fn part(&self, lo: usize, hi: usize) -> Result<Self::Part>;
    /// Shard `lo..hi`'s partial saved by an earlier run, if any.
    fn saved(&self, _lo: usize, _hi: usize) -> Result<Option<CheckedAccum>> {
        Ok(None)
    }
    /// Shard `lo..hi` counted to completion into `acc`, the `done`-th
    /// shard of the run to finish (saved shards included).
    fn completed<R: Recorder>(
        &mut self,
        _lo: usize,
        _hi: usize,
        _done: u64,
        _acc: &CheckedAccum,
        _rec: &mut R,
    ) -> Result<()> {
        Ok(())
    }
}

impl<'g> ShardInput for FixedKernel<'g> {
    type Part = &'g Pattern;
    type Other = &'g Pattern;

    fn weights(&self, _nshards: usize) -> Result<Vec<u64>> {
        Ok(wedge_weights(self.patterns().0, self.patterns().1))
    }

    /// Adjacency bytes of the shard's partitioned rows.
    fn shard_bytes(&self, lo: usize, hi: usize) -> u64 {
        let part = self.patterns().0;
        let nnz: u64 = (lo..hi).map(|k| part.row(k).len() as u64).sum();
        4 * nnz + 8 * (hi - lo) as u64
    }

    fn start(&mut self, _inv: Invariant, _shards: &[((usize, usize), u64)]) -> Result<&'g Pattern> {
        Ok(self.patterns().1)
    }

    fn part(&self, _lo: usize, _hi: usize) -> Result<&'g Pattern> {
        Ok(self.patterns().0)
    }
}

/// The shard loop: the wedge-weight scan, priced into balanced shards and
/// freed, then each shard in `inv`'s traversal order counted inside a
/// `shard` span into a [`CheckedAccum`] merged into the total (a saved
/// one merges without counting). Polls `deadline` every
/// [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) vertices; a cut
/// returns the exact partial over the processed prefix and `false`.
pub(crate) fn drive_shards<S: ShardInput, R: Recorder>(
    mut input: S,
    inv: Invariant,
    nshards: usize,
    deadline: Option<Instant>,
    rec: &mut R,
) -> Result<(CheckedAccum, bool)> {
    let weights = input.weights(nshards)?;
    let part_len = weights.len();
    let mut shards: Vec<((usize, usize), u64)> = balanced_chunk_bounds(&weights, nshards)
        .windows(2)
        .filter(|w| w[1] > w[0])
        .map(|w| ((w[0], w[1]), weights[w[0]..w[1]].iter().sum()))
        .collect();
    // Dead once the shards are priced: free them before the accumulator
    // and the pin take their place.
    drop(weights);
    if shards.is_empty() {
        // A zero-vertex side still runs one (empty) shard so the span
        // and gauge vocabulary stays uniform.
        shards.push(((0, part_len), 0));
    }
    if R::ENABLED {
        rec.gauge("shards_planned", shards.len() as f64);
        let bytes = shards
            .iter()
            .map(|&((lo, hi), _)| input.shard_bytes(lo, hi));
        rec.gauge("shard_bytes", bytes.max().unwrap_or(0) as f64);
    }
    let mut other = input.start(inv, &shards)?;
    let backward = inv.traversal() == Traversal::Backward;
    if backward {
        shards.reverse();
    }
    let filter = inv.update_part();
    let mut pairs = PairAccum::new(part_len);
    let (mut total, mut poll, mut complete) = (CheckedAccum::new(), Poll::new(deadline), true);
    for (done, ((lo, hi), wedges)) in (1..).zip(shards) {
        let saved = input.saved(lo, hi)?;
        let acc = match saved {
            Some(acc) => acc,
            None => {
                let (mut part, mut acc) = (input.part(lo, hi)?, CheckedAccum::new());
                complete = timed_span(rec, "shard", |rec| -> Result<bool> {
                    for i in 0..hi - lo {
                        let k = if backward { hi - 1 - i } else { lo + i };
                        if poll.expired() {
                            return Ok(false);
                        }
                        let nbrs = part.row(k).map_err(Into::into)?;
                        let (wedges, fresh) =
                            update_vertex(nbrs, &mut other, filter.window(k), &mut pairs, &mut acc)
                                .map_err(Into::into)?;
                        record_update(rec, wedges, fresh);
                    }
                    Ok(true)
                })?;
                acc
            }
        };
        total.merge(acc);
        if !complete {
            break;
        }
        match saved {
            Some(_) => rec.incr(Counter::ShardsSkippedResume, 1),
            None => rec.incr(Counter::ShardsProcessed, 1),
        }
        if R::ENABLED {
            rec.series_push("shard_wedges", wedges as f64);
        }
        if saved.is_none() {
            input.completed(lo, hi, done, &acc, rec)?;
        }
    }
    other.record(rec);
    Ok((total, complete))
}

/// A `.bfly` file as the shard loop's input: one positioned read per
/// shard's rows, one pinned [`RowReader`] for the opposite rows.
struct OnDisk<'g> {
    sg: &'g SegmentedGraph,
    side: Side,
    pin_bytes: u64,
    budget: &'g ResourceBudget,
    ckpt: Option<&'g CheckpointConfig>,
    store: Option<CheckpointStore>,
    /// `BFLY_FAULT_SHARD_ERROR=N`: a hard I/O error once N shards are
    /// done (and checkpointed), to kill a run at a shard boundary.
    fault_after: Option<u64>,
}

impl<'g> ShardInput for OnDisk<'g> {
    type Part = GraphSegment;
    type Other = RowReader<'g>;

    /// A scan window of one shard's payload, the most the plan charges.
    fn weights(&self, nshards: usize) -> Result<Vec<u64>> {
        let (sg, side) = (self.sg, self.side);
        let payload = sg.payload_bytes(side, 0, sg.side_len(side));
        let window = (payload / nshards.max(1) as u64).clamp(4096, STREAM_WINDOW_BYTES);
        wedge_weights_windowed(sg, side, window)
    }

    /// On-disk payload bytes of the shard's partitioned rows.
    fn shard_bytes(&self, lo: usize, hi: usize) -> u64 {
        self.sg.payload_bytes(self.side, lo, hi)
    }

    /// Bind the checkpoint directory to this exact run shape (graph,
    /// invariant, shard ranges), so a mismatched resume refuses here,
    /// then pin the reader's rows.
    fn start(&mut self, inv: Invariant, shards: &[((usize, usize), u64)]) -> Result<RowReader<'g>> {
        if let Some(cfg) = self.ckpt {
            let ranges: Vec<(usize, usize)> = shards.iter().map(|&(range, _)| range).collect();
            let fp = fingerprint_segmented(self.sg, inv, &ranges);
            self.store = Some(CheckpointStore::open(cfg, fp, ranges.len())?);
        }
        Ok(self.sg.row_reader(self.side.other(), self.pin_bytes)?)
    }

    fn part(&self, lo: usize, hi: usize) -> Result<GraphSegment> {
        Ok(self.sg.segment(self.side, lo, hi)?)
    }

    fn saved(&self, lo: usize, hi: usize) -> Result<Option<CheckedAccum>> {
        match &self.store {
            Some(store) => store.load_shard(lo, hi),
            None => Ok(None),
        }
    }

    fn completed<R: Recorder>(
        &mut self,
        lo: usize,
        hi: usize,
        done: u64,
        acc: &CheckedAccum,
        rec: &mut R,
    ) -> Result<()> {
        if let Some(store) = &self.store {
            timed_span(rec, "checkpoint", |_| store.persist_shard(lo, hi, acc))?;
            rec.incr(Counter::CheckpointsWritten, 1);
        }
        if self.fault_after == Some(done) {
            let msg =
                format!("injected shard fault after {done} shard(s) (BFLY_FAULT_SHARD_ERROR)");
            return Err(BflyError::from(std::io::Error::other(msg)));
        }
        self.budget.check_measured_bytes()
    }
}

/// Profile an on-disk graph from its resident degree arrays — the same
/// side terms [`GraphProfile::compute`] derives in memory, without
/// materializing an edge. `wedges_priority` is not measurable without
/// the resident graph (the priority rank needs a full edge pass), so it
/// is pinned to `u64::MAX`: the planner's global-member gate then never
/// fires, and out-of-core plans always run a fixed invariant — the only
/// members the shard loop implements.
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
/// on-disk graph in one streaming pass of at most `window_bytes` at a
/// time: vertex `k`'s update scans `Σ_{j ∈ N(k)} deg_other(j)` entries,
/// and the opposite side's degrees are resident.
fn wedge_weights_windowed(sg: &SegmentedGraph, side: Side, window_bytes: u64) -> Result<Vec<u64>> {
    let other_deg = sg.degrees(side.other());
    let mut weights = vec![0u64; sg.side_len(side)];
    sg.for_each_row(side, 0, sg.side_len(side), window_bytes.max(1), |k, row| {
        weights[k] = row.iter().map(|&j| other_deg[j as usize] as u64).sum();
        Ok(())
    })?;
    Ok(weights)
}

/// The first half of a `.bfly` count: record the budget's limits, check
/// measured allocation, then profile and plan ([`Plan::sharded`]) inside
/// one `select` span with the `plan.*` gauges. Sizing: `shards`, else
/// `shard_bytes`, else the byte cap. [`run_plan_segmented`] is the
/// second half; the monitor can take the plan's forecast in between.
pub fn profile_and_plan_segmented_recorded<R: Recorder>(
    sg: &SegmentedGraph,
    shards: Option<usize>,
    shard_bytes: Option<u64>,
    budget: &ResourceBudget,
    rec: &mut R,
) -> Result<(GraphProfile, Plan)> {
    budget.record_limits(rec);
    budget.check_measured_bytes()?;
    timed_span(rec, "select", |rec| {
        let profile = segmented_profile(sg);
        let payload = |side| sg.payload_bytes(side, 0, sg.side_len(side));
        let sizing = match (shards, shard_bytes) {
            (Some(n), _) => ShardSizing::Count(n),
            (None, Some(cap)) => ShardSizing::Bytes(cap, [payload(Side::V1), payload(Side::V2)]),
            (None, None) => ShardSizing::Fit,
        };
        let plan = Plan::sharded(&profile, sizing, budget)?;
        plan.record(rec);
        Ok((profile, plan))
    })
}

/// Run a sharded plan over a `.bfly` file inside one `count` span: the
/// shard loop over the plan's fixed invariant and shard count (one for
/// an unsharded plan). The [`RowReader`]'s pin takes the slack the plan
/// leaves under the byte cap (`max_bytes` − [`plan_scratch_bytes`] of
/// `profile`, the plan's own profile; at most `STREAM_WINDOW_BYTES`),
/// so it never changes the plan. Measured allocation is re-checked at
/// every shard boundary, and the reader's retries land in `io_retries` /
/// `io_giveups`. With `ckpt` set, each complete shard's exact partial is
/// persisted atomically (a `checkpoint` span, `checkpoints_written`); a
/// resume validates the [`fingerprint_segmented`] run-shape fingerprint,
/// merges the saved partials (`shards_skipped_resume`) and recounts only
/// the rest, bitwise-identical to an uninterrupted run.
pub fn run_plan_segmented<R: Recorder>(
    sg: &SegmentedGraph,
    profile: &GraphProfile,
    plan: &Plan,
    budget: &ResourceBudget,
    ckpt: Option<&CheckpointConfig>,
    rec: &mut R,
) -> Result<Partial<u64>> {
    run_on_disk(sg, profile, plan, budget, ckpt, None, rec)
}

/// [`run_plan_segmented`] with an explicit pin bound (`None`: the slack).
pub(crate) fn run_on_disk<R: Recorder>(
    sg: &SegmentedGraph,
    profile: &GraphProfile,
    plan: &Plan,
    budget: &ResourceBudget,
    ckpt: Option<&CheckpointConfig>,
    pin_bytes: Option<u64>,
    rec: &mut R,
) -> Result<Partial<u64>> {
    let nshards = match plan.mode {
        ExecMode::Sharded { shards } => shards,
        _ => 1,
    };
    let slack = match budget.max_bytes {
        Some(cap) => cap.saturating_sub(plan_scratch_bytes(profile, plan)),
        None => u64::MAX,
    };
    let input = OnDisk {
        sg,
        side: plan.partition_side(),
        pin_bytes: pin_bytes.unwrap_or(slack.min(STREAM_WINDOW_BYTES)),
        budget,
        ckpt,
        store: None,
        fault_after: std::env::var("BFLY_FAULT_SHARD_ERROR")
            .ok()
            .and_then(|v| v.trim().parse().ok()),
    };
    let (retries0, giveups0) = sg.retry_stats();
    let counted = timed_span(rec, "count", |rec| {
        drive_shards(input, plan.invariant, nshards, budget.deadline, rec)
    });
    let (retries1, giveups1) = sg.retry_stats();
    rec.incr(Counter::IoRetries, retries1.saturating_sub(retries0));
    rec.incr(Counter::IoGiveups, giveups1.saturating_sub(giveups0));
    let (acc, complete) = counted?;
    finish_count(acc, complete, "run_plan_segmented", rec)
}

/// The out-of-core counter: [`profile_and_plan_segmented_recorded`] then
/// [`run_plan_segmented`], never holding the full graph. A byte cap no
/// shard count satisfies fails with [`BflyError::BudgetExceeded`]
/// carrying the exact estimate. Kept for the benchmark's `bfly-replica`,
/// which imports it; library callers without a plan to inspect use it
/// too.
pub fn count_segmented_checkpointed_recorded<R: Recorder>(
    sg: &SegmentedGraph,
    shards: Option<usize>,
    shard_bytes: Option<u64>,
    budget: &ResourceBudget,
    ckpt: Option<&CheckpointConfig>,
    rec: &mut R,
) -> Result<Partial<(u64, Plan)>> {
    let (profile, plan) =
        profile_and_plan_segmented_recorded(sg, shards, shard_bytes, budget, rec)?;
    let r = run_plan_segmented(sg, &profile, &plan, budget, ckpt, rec)?;
    Ok(r.map(|count| (count, plan)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{execute_plan, run_plan, select_plan, Member};
    use crate::family::{count, Invariant};
    use crate::spec::count_brute_force;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_graph::{write_bfly_file, BipartiteGraph};
    use bfly_telemetry::{InMemoryRecorder, NoopRecorder};
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
                    let mode = ExecMode::Sharded { shards };
                    let plan = Plan::forced(&g, Member::Fixed(inv), mode, None);
                    assert_eq!(execute_plan(&g, &plan), want, "inv {inv:?} shards {shards}");
                    crate::error::validate_graph(&g).unwrap();
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
        let plan = Plan::forced(&g, Member::Fixed(Invariant::Inv1), mode, None);
        let got = run_plan(&g, &plan, None, &mut rec).unwrap().value;
        assert_eq!(got, count(&g, Invariant::Inv1));
        assert_eq!(rec.gauge_value("shards_planned"), Some(4.0));
        assert!(rec.gauge_value("shard_bytes").unwrap_or(0.0) > 0.0);
        assert_eq!(rec.counter(Counter::ShardsProcessed), 4);
        assert_eq!(rec.spans().iter().filter(|s| s.name == "shard").count(), 4);
        // Work counters match the unsharded engine exactly.
        let mut flat = InMemoryRecorder::new();
        let plan = Plan::forced(&g, Member::Fixed(Invariant::Inv1), ExecMode::Flat, None);
        run_plan(&g, &plan, None, &mut flat).unwrap();
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
            for shards in [1, 2, 4] {
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
            let w_seg = wedge_weights_windowed(&sg, Side::V2, STREAM_WINDOW_BYTES).unwrap();
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
