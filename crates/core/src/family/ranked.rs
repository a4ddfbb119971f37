//! Ranked wedge aggregation (the ParButterfly shape of Shi & Shun,
//! arXiv 1907.08607).
//!
//! Same wedge set as the vertex-priority kernel
//! ([`super::priority`]): a wedge `u – j – w` belongs to its strict
//! minimum-rank endpoint under the global degree-descending order. Where
//! the priority kernel hits its accumulator as it expands each start,
//! the ranked kernel processes starts **in rank order**, grouped into
//! buckets of bounded wedge work: each bucket first *materialises* its
//! wedges into one flat batch (far endpoint per wedge, with per-start
//! segment boundaries), then *replays* the batch through a single
//! [`PairAccum`], clearing it at segment boundaries. Splitting expansion
//! from aggregation is what makes the parallel path deterministic for
//! free — buckets are placed with [`balanced_chunk_bounds`] over the
//! per-start wedge weights, processed independently, and the per-bucket
//! partials merge in bucket order (via [`CheckedAccum::merge`]) — and it
//! trades the priority kernel's per-start cache churn for streaming
//! writes into a batch that fits in L2.
//!
//! Like the priority kernel it runs on a rank-ordered graph, where
//! materialising start `u` copies, for each centre past `u`'s cut
//! (`RankCuts`), that centre's row from the first id above `u`: the
//! same slices the priority member scatters, whole.
//!
//! Counters: `wedges_expanded` advances during materialisation and
//! `spa_scatters` during replay; both total exactly
//! [`priority_wedge_work`](super::priority::priority_wedge_work), so the
//! adaptive forecast is exact for this member too.

use super::engine::add_hits;
use super::parallel::{balanced_chunk_bounds, drive_chunks, run_inline, Kernel};
use super::priority::{priority_start_weight, RankCuts};
use bfly_graph::BipartiteGraph;
use bfly_sparse::{CheckedAccum, PairAccum};
use bfly_telemetry::{timed_span, Counter, Recorder};
use std::time::Instant;

/// Target wedge work per bucket. Calibrated from the `vertex_wedges` /
/// `chunk_us` histograms on the stand-in datasets: 2¹⁴ wedges ≈ 64 KiB
/// of batch (one `u32` per wedge) — inside L2 on every target machine —
/// while a median start contributes well under 2⁶ wedges, so buckets
/// still amortise the segment bookkeeping a few hundred times over.
pub const RANKED_BUCKET_WEDGES: u64 = 1 << 14;

/// Starts ordered by ascending rank (the "ranked" in ranked
/// aggregation), as combined indices (`s < nv1` → V1 vertex `s`, else V2
/// vertex `s − nv1`). Ranks are `u32` over every vertex, so the combined
/// indices are too.
fn starts_by_rank(cuts: &RankCuts, nstarts: usize) -> Vec<u32> {
    let mut order = vec![0u32; nstarts];
    for s in 0..nstarts {
        order[cuts.rank(s)] = s as u32;
    }
    order
}

/// Bucket boundaries over `order`: balanced by per-start wedge weight,
/// with at least `min_buckets` buckets and roughly
/// [`RANKED_BUCKET_WEDGES`] of work each.
fn bucket_bounds(weights_in_order: &[u64], min_buckets: usize) -> Vec<usize> {
    let total: u64 = weights_in_order.iter().sum();
    let by_work = total.div_ceil(RANKED_BUCKET_WEDGES.max(1)) as usize;
    let nbuckets = by_work
        .max(min_buckets)
        .max(1)
        .min(weights_in_order.len().max(1));
    balanced_chunk_bounds(weights_in_order, nbuckets)
}

/// Per-worker scratch of the ranked kernel: the accumulator the replay
/// hits, the flat wedge batch (far endpoint per wedge), and the
/// per-start segment ends within it.
struct RankedScratch {
    pairs: PairAccum,
    batch: Vec<u32>,
    segs: Vec<usize>,
}

/// The ranked member's kernel: item `i` materialises the wedges of the
/// `i`-th start in rank order into the batch (`wedges_expanded`,
/// `vertices_exposed`, `vertex_wedges`); the flush replays the batch
/// segment by segment (`spa_scatters`, `accum_entries`).
struct RankedKernel<'g> {
    g: &'g BipartiteGraph,
    cuts: &'g RankCuts,
    order: Vec<u32>,
}

impl Kernel for RankedKernel<'_> {
    type Scratch = RankedScratch;

    fn scratch(&self) -> RankedScratch {
        RankedScratch {
            pairs: PairAccum::new(self.g.nv1().max(self.g.nv2())),
            batch: Vec::new(),
            segs: Vec::new(),
        }
    }

    #[inline]
    fn item<R: Recorder>(
        &self,
        i: usize,
        scratch: &mut RankedScratch,
        _acc: &mut CheckedAccum,
        rec: &mut R,
    ) -> u64 {
        let before = scratch.batch.len();
        let (row, cut, other, u) = self.cuts.start(self.g, self.order[i] as usize);
        for &j in &row[cut..] {
            let far = other.row(j as usize);
            scratch
                .batch
                .extend_from_slice(&far[far.partition_point(|&w| w <= u)..]);
        }
        scratch.segs.push(scratch.batch.len());
        let wedges = (scratch.batch.len() - before) as u64;
        if R::ENABLED {
            rec.incr(Counter::VerticesExposed, 1);
            rec.incr(Counter::WedgesExpanded, wedges);
            rec.hist_record("vertex_wedges", wedges);
        }
        wedges
    }

    fn flush<R: Recorder>(&self, scratch: &mut RankedScratch, acc: &mut CheckedAccum, rec: &mut R) {
        let mut lo = 0usize;
        for &hi in &scratch.segs {
            replay_segment(&scratch.batch[lo..hi], &mut scratch.pairs, acc, rec);
            lo = hi;
        }
        scratch.batch.clear();
        scratch.segs.clear();
    }
}

/// Replay one start's batch segment through `pairs` into `acc` — the
/// only place the ranked member hits its accumulator. Each hit adds the
/// far endpoint's count before it, which sums to the start's
/// `Σ_w C(cnt[w], 2)` (see [`super::engine`]); a hit that found 0 is a
/// first touch.
#[inline]
fn replay_segment<R: Recorder>(
    segment: &[u32],
    pairs: &mut PairAccum,
    acc: &mut CheckedAccum,
    rec: &mut R,
) {
    let fresh = add_hits(segment, pairs, acc);
    pairs.clear();
    if R::ENABLED {
        rec.incr(Counter::SpaScatters, segment.len() as u64);
        rec.incr(Counter::AccumEntries, fresh);
    }
}

/// The ranked member ([`Member::Ranked`](crate::adaptive::Member) in a
/// plan) on rank-ordered `g`, overflow-checked. The cuts record as a
/// `priority_rank` span and the bucket count as the `ranked_buckets`
/// gauge. `chunks = None` processes the buckets in rank order;
/// `Some(n)` makes at least `n` buckets and runs them as chunks through
/// the driver. The deadline is polled every
/// [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) starts during
/// materialisation; a cut bucket still replays what it materialised, so
/// the total is exact over the starts fully processed.
pub(crate) fn run_ranked<R: Recorder>(
    g: &BipartiteGraph,
    chunks: Option<usize>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let cuts = timed_span(rec, "priority_rank", |_| RankCuts::compute(g));
    let order = starts_by_rank(&cuts, g.nv1() + g.nv2());
    // The weights live only until the bucket bounds are placed.
    let bounds = {
        let weights: Vec<u64> = order
            .iter()
            .map(|&s| priority_start_weight(g, &cuts, s as usize))
            .collect();
        bucket_bounds(&weights, chunks.unwrap_or(1).max(1))
    };
    if R::ENABLED {
        rec.gauge("ranked_buckets", (bounds.len() - 1) as f64);
    }
    let buckets = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|b| !b.is_empty());
    let kernel = RankedKernel {
        g,
        cuts: &cuts,
        order,
    };
    match chunks {
        None => run_inline(&kernel, buckets, deadline, rec),
        Some(_) => drive_chunks(&kernel, buckets.collect(), deadline, rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{ExecMode, Member};
    use crate::family::priority::priority_wedge_work;
    use crate::family::{count_priority, count_ranked, run_forced};
    use crate::spec::count_via_spgemm;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_telemetry::{InMemoryRecorder, NoopRecorder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<BipartiteGraph> {
        let mut rng = StdRng::seed_from_u64(5001);
        vec![
            BipartiteGraph::complete(5, 5),
            BipartiteGraph::complete(9, 2),
            BipartiteGraph::empty(4, 6),
            uniform_exact(45, 35, 260, &mut rng),
            chung_lu(70, 20, 340, 0.9, 0.4, &mut rng),
        ]
    }

    #[test]
    fn ranked_matches_spec_and_priority() {
        for g in sample_graphs() {
            let want = count_via_spgemm(&g);
            assert_eq!(count_ranked(&g), want);
            assert_eq!(count_ranked(&g), count_priority(&g));
        }
    }

    #[test]
    fn ranked_wedge_work_equals_priority_forecast() {
        for g in sample_graphs() {
            let mut rec = InMemoryRecorder::new();
            run_forced(&g, Member::Ranked, ExecMode::Flat, &mut rec);
            let want = priority_wedge_work(&g);
            assert_eq!(rec.counter(Counter::WedgesExpanded), want);
            // Replay scatters exactly what materialisation expanded.
            assert_eq!(rec.counter(Counter::SpaScatters), want);
        }
    }

    #[test]
    fn parallel_and_checked_paths_agree() {
        for g in sample_graphs() {
            let want = count_ranked(&g);
            for nchunks in [1, 2, 4, 5] {
                let mode = ExecMode::Parallel { chunks: nchunks };
                let got = run_forced(&g, Member::Ranked, mode, &mut NoopRecorder);
                assert_eq!(got, want, "nchunks={nchunks}");
            }
            crate::error::validate_graph(&g).unwrap();
            let plan = crate::adaptive::Plan::forced(&g, Member::Ranked, ExecMode::Flat, None);
            let r = crate::adaptive::run_plan(&g, &plan, None, &mut NoopRecorder).unwrap();
            assert_eq!(r.value, want);
        }
    }

    #[test]
    fn bucket_bounds_honour_minimum_and_cover() {
        let weights = vec![3u64; 100];
        let b = bucket_bounds(&weights, 4);
        assert!(b.len() > 4, "at least 4 buckets (bounds = buckets + 1)");
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 100);
        // Heavy total splits into multiple buckets even with min 1.
        let heavy = vec![RANKED_BUCKET_WEDGES; 8];
        assert!(bucket_bounds(&heavy, 1).len() > 8);
    }

    #[test]
    fn recorded_parallel_reports_buckets() {
        let mut rng = StdRng::seed_from_u64(5003);
        let g = chung_lu(90, 30, 420, 0.9, 0.5, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let mode = ExecMode::Parallel { chunks: 4 };
        let got = run_forced(&g, Member::Ranked, mode, &mut rec);
        assert_eq!(got, count_via_spgemm(&g));
        assert!(rec.gauge_value("ranked_buckets").unwrap_or(0.0) >= 1.0);
        assert!(rec.counter(Counter::ParChunks) >= 1);
    }
}
