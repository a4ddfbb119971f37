//! Vertex-priority butterfly counting (the BFC-VP family of Wang et al.,
//! arXiv 1812.00283).
//!
//! The eight derived invariants fix a partitioned *side* and expand every
//! wedge through the opposite side — so one hub on the wrong side forces
//! the whole run through its quadratic neighbourhood. The priority kernel
//! instead assigns a single total order over `V1 ∪ V2` — non-increasing
//! degree, ties broken by side then id ([`global_degree_ranks`]) — and
//! expands the wedge `u – j – w` only from its strict minimum-rank
//! *endpoint*: start `u` processes the wedge iff `rank(j) > rank(u)` and
//! `rank(w) > rank(u)`. Each butterfly is charged exactly once, from its
//! minimum-rank vertex, and high-degree hubs are never wedge-expanded
//! from below.
//!
//! The kernel runs on a rank-ordered graph ([`is_rank_ordered`]): both
//! sides numbered so ids rise with rank, as BFC-VP++ renumbers. There
//! both rank tests are slice cuts. The centres that out-rank `u` are a
//! suffix of its sorted row, from the first id past
//! the other side's vertices ranked before `u` (`RankCuts`); and a far
//! endpoint on `u`'s own side out-ranks `u` iff its id exceeds `u`. So
//! start `u` is the fixed engine's look-ahead update over the suffix,
//! `update_vertex(row(u)[cut..], other rows, (u + 1, u32::MAX))`, and the
//! entries it scans are exactly the wedges it expands. `run_plan`
//! relabels an input-ordered graph into a transient rank-ordered copy
//! first; `bfly count` builds its graph rank-ordered.
//!
//! The exact work is known up front, which is what makes the adaptive
//! cost model and the `--progress` forecast exact
//! ([`priority_wedge_work`]): a wedge with centre `j` is expanded iff its
//! minimum-rank vertex is an endpoint, so the kernel expands
//!
//! ```text
//! Σ_{j ∈ V1∪V2}  C(deg(j), 2) − C(g_j, 2)
//! ```
//!
//! wedges, where `g_j` is the number of neighbours of `j` that out-rank
//! `j` (the `C(g_j, 2)` endpoint pairs that both out-rank the centre are
//! the wedges nobody expands). On a rank-ordered graph `g_j` is the
//! length of `j`'s row past its cut; the property suite pins the formula
//! against the `wedges_expanded` counter and against the best fixed
//! invariant.

use super::engine::{record_update, update_vertex};
use super::parallel::{balanced_ranges, drive_chunks, run_inline, Kernel};
use bfly_graph::ordering::{global_degree_ranks, is_rank_ordered, rank_ordered};
use bfly_graph::BipartiteGraph;
use bfly_sparse::{choose2, CheckedAccum, PairAccum, Pattern};
use bfly_telemetry::{timed_span, Recorder};
use std::time::Instant;

/// The global priority order of a rank-ordered graph, as one cut per
/// vertex: the V2 vertices ranked before V1 vertex `u` are exactly ids
/// `0..v1[u]`, and the V1 vertices ranked before V2 vertex `v` exactly
/// `0..v2[v]`. A vertex's rank is its id plus its cut.
pub(crate) struct RankCuts {
    v1: Vec<u32>,
    v2: Vec<u32>,
}

impl RankCuts {
    /// The cuts of rank-ordered `g`, from [`global_degree_ranks`] (one
    /// counting sort over degrees).
    pub(crate) fn compute(g: &BipartiteGraph) -> RankCuts {
        debug_assert!(
            is_rank_ordered(g),
            "the priority order needs rank-ordered ids"
        );
        let (mut v1, mut v2) = global_degree_ranks(g);
        for (u, r) in v1.iter_mut().enumerate() {
            *r -= u as u32;
        }
        for (v, r) in v2.iter_mut().enumerate() {
            *r -= v as u32;
        }
        RankCuts { v1, v2 }
    }

    /// Rank of start `s` of the combined index space (`s < nv1` is V1
    /// vertex `s`, else V2 vertex `s − nv1`).
    pub(crate) fn rank(&self, s: usize) -> usize {
        match s.checked_sub(self.v1.len()) {
            None => s + self.v1[s] as usize,
            Some(v) => v + self.v2[v] as usize,
        }
    }

    /// Start `s` seen from its own side: `(row, cut, other rows, id)`,
    /// where `row[cut..]` are the centres that out-rank the start and the
    /// far endpoints that out-rank it are the ids above `id` in each
    /// centre's row of `other rows`.
    #[inline]
    pub(crate) fn start<'g>(
        &self,
        g: &'g BipartiteGraph,
        s: usize,
    ) -> (&'g [u32], usize, &'g Pattern, u32) {
        let (rows, other, first, u) = match s.checked_sub(g.nv1()) {
            None => (g.biadjacency(), g.biadjacency_t(), self.v1[s], s),
            Some(v) => (g.biadjacency_t(), g.biadjacency(), self.v2[v], v),
        };
        let row = rows.row(u);
        (row, row.partition_point(|&j| j < first), other, u as u32)
    }
}

/// Exact number of wedges the priority kernel expands on `g`: the
/// closed form `Σ_j [C(deg(j), 2) − C(g_j, 2)]` over both sides, with
/// `g_j` = neighbours of `j` out-ranking `j`, the length of `j`'s row
/// past its cut. `O(V log max degree + max degree)` on a rank-ordered
/// graph; an input-ordered one is relabelled into a transient copy
/// first. Equals the kernel's `wedges_expanded` counter on every graph,
/// which is what lets [`Plan::forecast`](crate::adaptive::Plan::forecast)
/// stay exact for the priority and ranked members.
pub fn priority_wedge_work(g: &BipartiteGraph) -> u64 {
    if !is_rank_ordered(g) {
        return priority_wedge_work(&rank_ordered(g));
    }
    let cuts = RankCuts::compute(g);
    (0..g.nv1() + g.nv2()).fold(0u64, |total, s| {
        let (row, cut, _, _) = cuts.start(g, s);
        let up = (row.len() - cut) as u64;
        total.saturating_add(choose2(row.len() as u64) - choose2(up))
    })
}

/// Cheap upper bound on the wedges start `s` expands —
/// `Σ_{centres j} (deg(j) − 1)`, skipping the far-endpoint cut — used to
/// place work-balanced chunk and bucket boundaries over the starts.
/// Proportional enough to balance; exactness is not required.
pub(crate) fn priority_start_weight(g: &BipartiteGraph, cuts: &RankCuts, s: usize) -> u64 {
    let (row, cut, other, _) = cuts.start(g, s);
    row[cut..]
        .iter()
        .map(|&j| (other.row_nnz(j as usize) as u64).saturating_sub(1))
        .sum()
}

/// The priority member's kernel: item `s` expands start `s` of the
/// combined index space and adds its butterflies. Records the family
/// engine's counter vocabulary (`vertices_exposed`, `wedges_expanded`,
/// `spa_scatters`, `accum_entries`, `vertex_wedges`).
struct PriorityKernel<'g> {
    g: &'g BipartiteGraph,
    cuts: &'g RankCuts,
}

impl Kernel for PriorityKernel<'_> {
    type Scratch = PairAccum;

    fn scratch(&self) -> PairAccum {
        PairAccum::new(self.g.nv1().max(self.g.nv2()))
    }

    #[inline]
    fn item<R: Recorder>(
        &self,
        s: usize,
        pairs: &mut PairAccum,
        acc: &mut CheckedAccum,
        rec: &mut R,
    ) -> u64 {
        let (row, cut, mut other, u) = self.cuts.start(self.g, s);
        let Ok((wedges, fresh)) =
            update_vertex(&row[cut..], &mut other, (u + 1, u32::MAX), pairs, acc);
        record_update(rec, wedges, fresh);
        wedges
    }
}

/// The priority member ([`Member::Priority`](crate::adaptive::Member)
/// in a plan) on rank-ordered `g`, overflow-checked, polling `deadline`
/// every [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) starts. The
/// cuts record as a `priority_rank` span. `chunks = None` runs the
/// starts in order; `Some(n)` runs `n` contiguous ranges balanced by
/// [`priority_start_weight`] through the chunk driver. Returns the
/// exact total (over the processed starts when cut) and whether every
/// start ran.
pub(crate) fn run_priority<R: Recorder>(
    g: &BipartiteGraph,
    chunks: Option<usize>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let cuts = timed_span(rec, "priority_rank", |_| RankCuts::compute(g));
    let kernel = PriorityKernel { g, cuts: &cuts };
    let nstarts = g.nv1() + g.nv2();
    match chunks {
        None => run_inline(&kernel, std::iter::once(0..nstarts), deadline, rec),
        Some(n) => {
            let weights: Vec<u64> = (0..nstarts)
                .map(|s| priority_start_weight(g, &cuts, s))
                .collect();
            drive_chunks(&kernel, balanced_ranges(&weights, n.max(1)), deadline, rec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{ExecMode, Member};
    use crate::family::{count_priority, run_forced};
    use crate::spec::{count_brute_force, count_via_spgemm};
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_telemetry::{Counter, InMemoryRecorder, NoopRecorder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_graphs() -> Vec<BipartiteGraph> {
        let mut rng = StdRng::seed_from_u64(4001);
        vec![
            BipartiteGraph::complete(5, 5),
            BipartiteGraph::complete(2, 9),
            BipartiteGraph::empty(6, 4),
            BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap(),
            uniform_exact(40, 30, 220, &mut rng),
            chung_lu(60, 25, 320, 0.95, 0.4, &mut rng),
            chung_lu(20, 70, 280, 0.3, 0.9, &mut rng),
        ]
    }

    #[test]
    fn priority_count_matches_spec() {
        for g in sample_graphs() {
            assert_eq!(count_priority(&g), count_via_spgemm(&g));
        }
    }

    #[test]
    fn wedge_work_formula_matches_recorded_counter() {
        for g in sample_graphs() {
            let mut rec = InMemoryRecorder::new();
            let xi = run_forced(&g, Member::Priority, ExecMode::Flat, &mut rec);
            assert_eq!(xi, count_brute_force(&g));
            assert_eq!(
                rec.counter(Counter::WedgesExpanded),
                priority_wedge_work(&g),
                "forecast must equal measured wedge work"
            );
            // One scatter per expanded wedge, exactly as in the family.
            assert_eq!(rec.counter(Counter::SpaScatters), priority_wedge_work(&g));
        }
    }

    #[test]
    fn parallel_and_checked_paths_agree() {
        for g in sample_graphs() {
            let want = count_priority(&g);
            for nchunks in [1, 2, 4, 7] {
                let mode = ExecMode::Parallel { chunks: nchunks };
                let got = run_forced(&g, Member::Priority, mode, &mut NoopRecorder);
                assert_eq!(got, want);
            }
            crate::error::validate_graph(&g).unwrap();
            let plan = crate::adaptive::Plan::forced(&g, Member::Priority, ExecMode::Flat, None);
            let r = crate::adaptive::run_plan(&g, &plan, None, &mut NoopRecorder).unwrap();
            assert_eq!(r.value, want);
        }
    }

    #[test]
    fn parallel_recorded_preserves_total_wedge_work() {
        let mut rng = StdRng::seed_from_u64(4002);
        let g = chung_lu(80, 40, 400, 0.9, 0.5, &mut rng);
        let mut rec = InMemoryRecorder::new();
        let mode = ExecMode::Parallel { chunks: 4 };
        let got = run_forced(&g, Member::Priority, mode, &mut rec);
        assert_eq!(got, count_via_spgemm(&g));
        assert_eq!(
            rec.counter(Counter::WedgesExpanded),
            priority_wedge_work(&g)
        );
        assert!(rec.counter(Counter::ParChunks) >= 1);
        assert!(rec.spans().iter().any(|s| s.name == "priority_rank"));
    }

    #[test]
    fn wedge_work_ties_regular_and_beats_skewed_fixed_sides() {
        // On degree-regular graphs the global order degenerates to the
        // side tie-break, so priority work equals the cheap fixed side
        // exactly; on heavily skewed graphs it is strictly below it.
        // (On mildly uneven near-uniform graphs it can *exceed* the best
        // fixed side — measured up to ~1.3× — which is why `select_plan`
        // gates the member on the computed advantage instead of assuming
        // one; `tests/priority_order_permutation.rs` pins that gate.)
        for n in [4u64, 7] {
            let g = BipartiteGraph::complete(n as usize, n as usize);
            let best_fixed = g.wedges_through_v1().min(g.wedges_through_v2());
            assert_eq!(priority_wedge_work(&g), best_fixed);
            assert_eq!(best_fixed, n * choose2(n));
        }
        let mut rng = StdRng::seed_from_u64(4004);
        for trial in 0..40 {
            let g = chung_lu(80, 60, 500, 1.0, 1.0, &mut rng);
            let best_fixed = g.wedges_through_v1().min(g.wedges_through_v2());
            let got = priority_wedge_work(&g);
            assert!(
                got < best_fixed,
                "trial {trial}: priority {got} ≥ best fixed {best_fixed}"
            );
        }
    }

    #[test]
    fn input_order_and_rank_order_run_the_same_kernel() {
        use bfly_graph::ordering::rank_ordered_from_edges;
        let mut graphs = sample_graphs();
        // Isolated vertices on both sides, and an edgeless side.
        graphs.push(BipartiteGraph::from_edges(6, 7, &[(5, 0), (5, 6), (2, 6), (2, 0)]).unwrap());
        graphs.push(BipartiteGraph::empty(0, 4));
        let counters = [
            Counter::WedgesExpanded,
            Counter::SpaScatters,
            Counter::AccumEntries,
            Counter::VerticesExposed,
        ];
        let mut reordered = 0;
        for g in &graphs {
            let built = rank_ordered_from_edges(g.nv1(), g.nv2(), g.edges().collect()).unwrap();
            reordered += usize::from(!is_rank_ordered(g));
            for member in [Member::Priority, Member::Ranked] {
                for mode in [
                    ExecMode::Flat,
                    ExecMode::Parallel { chunks: 2 },
                    ExecMode::Parallel { chunks: 4 },
                ] {
                    let run = |h: &BipartiteGraph| {
                        let mut rec = InMemoryRecorder::new();
                        let xi = run_forced(h, member, mode, &mut rec);
                        let spans = |name| rec.spans().iter().filter(|s| s.name == name).count();
                        let work = counters.map(|c| rec.counter(c));
                        (xi, work, spans("rank_relabel"), spans("priority_rank"))
                    };
                    let (xi, work, relabels, ranks) = run(g);
                    let (xi_built, work_built, relabels_built, ranks_built) = run(&built);
                    let what = format!("{member:?} {mode:?} on {} x {}", g.nv1(), g.nv2());
                    assert_eq!(xi, count_brute_force(g), "{what}");
                    assert_eq!(xi_built, xi, "{what}");
                    assert_eq!(work_built, work, "{what}");
                    assert_eq!(relabels, usize::from(!is_rank_ordered(g)), "{what}");
                    assert_eq!(relabels_built, 0, "{what}");
                    assert_eq!((ranks, ranks_built), (1, 1), "{what}");
                }
            }
        }
        assert!(reordered >= 3, "the sample barely needs relabelling");
    }

    #[test]
    fn seeded_overflow_promotes_exactly() {
        let g = BipartiteGraph::complete(3, 3);
        let want = count_priority(&g);
        let (mut acc, complete) = run_priority(&g, None, None, &mut NoopRecorder);
        assert!(complete);
        acc.merge(CheckedAccum::with_base(u64::MAX - 1));
        assert_eq!(
            acc.finish(),
            Err(u64::MAX as u128 - 1 + want as u128),
            "exact promoted total"
        );
    }
}
