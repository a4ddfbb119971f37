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
//! the wedges nobody expands). One pass over the edges computes every
//! `g_j`; the property suite pins the formula against the
//! `wedges_expanded` counter and against the best fixed invariant.

use super::engine::{drain_pairs, record_update};
use super::parallel::{balanced_ranges, drive_chunks, run_inline, Kernel};
use bfly_graph::ordering::global_degree_ranks;
use bfly_graph::BipartiteGraph;
use bfly_sparse::{choose2, CheckedAccum, Pattern, Spa};
use bfly_telemetry::{timed_span, Recorder};
use std::time::Instant;

/// The global priority order: `rank_v1[u]` / `rank_v2[v]` is the position
/// of the vertex in the degree-descending total order over `V1 ∪ V2`
/// (rank 0 = highest degree = highest priority; all ranks distinct).
#[derive(Debug, Clone)]
pub struct PriorityRanks {
    /// Rank of every V1 vertex.
    pub rank_v1: Vec<u32>,
    /// Rank of every V2 vertex.
    pub rank_v2: Vec<u32>,
}

impl PriorityRanks {
    /// Counting-sort both degree arrays into the total order
    /// (`O(V + max degree)`).
    pub fn compute(g: &BipartiteGraph) -> PriorityRanks {
        let (rank_v1, rank_v2) = global_degree_ranks(g);
        PriorityRanks { rank_v1, rank_v2 }
    }
}

/// Exact number of wedges the priority kernel expands on `g`: the
/// closed form `Σ_j [C(deg(j), 2) − C(g_j, 2)]` over both sides, with
/// `g_j` = neighbours of `j` out-ranking `j`. `O(E + V + max degree)`; equals
/// the kernel's `wedges_expanded` counter on every graph, which is what
/// lets [`Plan::forecast`](crate::adaptive::Plan::forecast) stay exact
/// for the priority and ranked members.
pub fn priority_wedge_work(g: &BipartiteGraph) -> u64 {
    let ranks = PriorityRanks::compute(g);
    priority_wedge_work_with(g, &ranks)
}

/// [`priority_wedge_work`] reusing already-computed ranks.
pub fn priority_wedge_work_with(g: &BipartiteGraph, ranks: &PriorityRanks) -> u64 {
    let a = g.biadjacency();
    // g_j per vertex in one edge pass: ranks are a total order, so for
    // every edge (u, v) exactly one endpoint out-ranks the other. A
    // count never exceeds its vertex's degree, so `u32` holds it.
    let mut up_v1 = vec![0u32; g.nv1()];
    let mut up_v2 = vec![0u32; g.nv2()];
    for u in 0..g.nv1() {
        let ru = ranks.rank_v1[u];
        for &v in a.row(u) {
            if ranks.rank_v2[v as usize] > ru {
                up_v1[u] += 1;
            } else {
                up_v2[v as usize] += 1;
            }
        }
    }
    let mut total = 0u64;
    for u in 0..g.nv1() {
        total = total.saturating_add(choose2(g.deg_v1(u) as u64) - choose2(up_v1[u].into()));
    }
    for v in 0..g.nv2() {
        total = total.saturating_add(choose2(g.deg_v2(v) as u64) - choose2(up_v2[v].into()));
    }
    total
}

/// Start `s` of the combined index space (`s < nv1` is V1 vertex `s`,
/// else V2 vertex `s − nv1`) seen from its own side:
/// `(start rows, centre rows, start-side ranks, centre-side ranks, id)`.
#[inline]
fn oriented<'g>(
    g: &'g BipartiteGraph,
    ranks: &'g PriorityRanks,
    s: usize,
) -> (&'g Pattern, &'g Pattern, &'g [u32], &'g [u32], usize) {
    let (a, at) = (g.biadjacency(), g.biadjacency_t());
    if s < g.nv1() {
        (a, at, &ranks.rank_v1, &ranks.rank_v2, s)
    } else {
        (at, a, &ranks.rank_v2, &ranks.rank_v1, s - g.nv1())
    }
}

/// One start's entry of [`priority_start_weights`] (combined index `s`),
/// for callers that visit the starts in another order.
pub(crate) fn priority_start_weight(g: &BipartiteGraph, ranks: &PriorityRanks, s: usize) -> u64 {
    let (adj_start, adj_mid, rank_start, rank_mid, u) = oriented(g, ranks, s);
    let ru = rank_start[u];
    adj_start
        .row(u)
        .iter()
        .filter(|&&j| rank_mid[j as usize] > ru)
        .map(|&j| (adj_mid.row(j as usize).len() as u64).saturating_sub(1))
        .sum()
}

/// Cheap per-start upper bound on the wedges each start vertex expands —
/// `Σ_{j ∈ N(s), rank(j) > rank(s)} (deg(j) − 1)` — used to place
/// work-balanced chunk boundaries over the combined start space
/// (`0..nv1` = V1 starts, `nv1..nv1+nv2` = V2 starts). An upper bound
/// (it skips the far-endpoint rank filter) but proportional enough to
/// balance chunks; exactness is not required for correctness.
pub fn priority_start_weights(g: &BipartiteGraph, ranks: &PriorityRanks) -> Vec<u64> {
    (0..g.nv1() + g.nv2())
        .map(|s| priority_start_weight(g, ranks, s))
        .collect()
}

/// Visit the priority wedges of start `s` (combined index: `s < nv1` is
/// V1 vertex `s`, else V2 vertex `s − nv1`): calls `f(j, w)` for every
/// wedge `u – j – w` whose strict minimum-rank vertex is the start `u`,
/// with `j` and `w` as ids on their own sides. The one wedge enumeration
/// behind the count, the ranked batches, and the attributions.
#[inline]
pub(crate) fn for_each_wedge(
    g: &BipartiteGraph,
    ranks: &PriorityRanks,
    s: usize,
    mut f: impl FnMut(u32, u32),
) {
    let (adj_start, adj_mid, rank_start, rank_mid, u) = oriented(g, ranks, s);
    let ru = rank_start[u];
    for &j in adj_start.row(u) {
        if rank_mid[j as usize] <= ru {
            continue;
        }
        for &w in adj_mid.row(j as usize) {
            if w as usize != u && rank_start[w as usize] > ru {
                f(j, w);
            }
        }
    }
}

/// Scatter the priority wedges of start `s` into `spa` by far endpoint —
/// the only place the priority member scatters. Returns the wedges.
#[inline]
fn scatter_start(g: &BipartiteGraph, ranks: &PriorityRanks, s: usize, spa: &mut Spa<u64>) -> u64 {
    let mut wedges = 0u64;
    for_each_wedge(g, ranks, s, |_, w| {
        wedges += 1;
        spa.scatter(w, 1);
    });
    wedges
}

/// The priority member's kernel: item `s` expands start `s` of the
/// combined index space and drains its butterflies. Records the family
/// engine's counter vocabulary (`vertices_exposed`, `wedges_expanded`,
/// `spa_scatters`, `accum_entries`, `vertex_wedges`).
struct PriorityKernel<'g> {
    g: &'g BipartiteGraph,
    ranks: &'g PriorityRanks,
}

impl Kernel for PriorityKernel<'_> {
    type Scratch = Spa<u64>;

    fn scratch(&self) -> Spa<u64> {
        Spa::new(self.g.nv1().max(self.g.nv2()))
    }

    #[inline]
    fn item<R: Recorder>(
        &self,
        s: usize,
        spa: &mut Spa<u64>,
        acc: &mut CheckedAccum,
        rec: &mut R,
    ) -> u64 {
        let wedges = scatter_start(self.g, self.ranks, s, spa);
        record_update(rec, wedges, drain_pairs(spa, acc));
        wedges
    }
}

/// The priority member ([`Member::Priority`](crate::adaptive::Member)
/// in a plan), overflow-checked, polling `deadline` every
/// [`DEADLINE_STRIDE`](super::engine::DEADLINE_STRIDE) starts. The rank
/// sort records as a `priority_rank` span. `chunks = None` runs the
/// starts in order; `Some(n)` runs `n` contiguous ranges balanced by
/// [`priority_start_weights`] through the chunk driver. Returns the
/// exact total (over the processed starts when cut) and whether every
/// start ran.
pub(crate) fn run_priority<R: Recorder>(
    g: &BipartiteGraph,
    chunks: Option<usize>,
    deadline: Option<Instant>,
    rec: &mut R,
) -> (CheckedAccum, bool) {
    let ranks = timed_span(rec, "priority_rank", |_| PriorityRanks::compute(g));
    let kernel = PriorityKernel { g, ranks: &ranks };
    match chunks {
        None => run_inline(
            &kernel,
            std::iter::once(0..g.nv1() + g.nv2()),
            deadline,
            rec,
        ),
        Some(n) => {
            let ranges = balanced_ranges(&priority_start_weights(g, &ranks), n.max(1));
            drive_chunks(&kernel, ranges, deadline, rec)
        }
    }
}

/// Per-vertex butterfly counts computed by the priority kernel, returned
/// as `(per_v1, per_v2)`. Attribution per expanded start: an endpoint
/// pair `{u, w}` with multiplicity `cnt` yields `C(cnt, 2)` butterflies
/// charged to both `u` and `w`, and replaying each wedge `u – j – w`
/// credits its centre `j` with the `cnt − 1` butterflies pairing `j`
/// with another centre — every butterfly lands on all four of its
/// vertices exactly once (`Σ b = 4Ξ`). Agrees with
/// [`butterflies_per_vertex`](crate::vertex_counts::butterflies_per_vertex)
/// on both sides (pinned by the differential suites).
pub fn butterflies_per_vertex_priority(g: &BipartiteGraph) -> (Vec<u64>, Vec<u64>) {
    let ranks = PriorityRanks::compute(g);
    let nv1 = g.nv1();
    // Combined index space: V1 vertices, then V2 vertices.
    let mut b = vec![0u64; nv1 + g.nv2()];
    let mut spa = Spa::<u64>::new(nv1.max(g.nv2()));
    for s in 0..nv1 + g.nv2() {
        // Far endpoints live on the start's side, centres on the other.
        let (far, centre) = if s < nv1 { (0, nv1) } else { (nv1, 0) };
        scatter_start(g, &ranks, s, &mut spa);
        for (w, cnt) in spa.entries() {
            let pairs = choose2(cnt);
            b[s] += pairs;
            b[far + w as usize] += pairs;
        }
        // Replay the wedges to credit the centres.
        for_each_wedge(g, &ranks, s, |j, w| {
            b[centre + j as usize] += spa.get(w) - 1
        });
        spa.clear();
    }
    let b2 = b.split_off(nv1);
    (b, b2)
}

/// Per-edge butterfly supports computed by the priority kernel, in the
/// row-major edge order of [`BipartiteGraph::edges`] (matching
/// [`edge_supports`](crate::edge_support::edge_supports)). Each expanded
/// wedge `u – j – w` with final multiplicity `cnt[w]` supports its two
/// edges `(u, j)` and `(w, j)` with the `cnt[w] − 1` butterflies closing
/// it — every butterfly lands on all four of its edges exactly once.
pub fn edge_supports_priority(g: &BipartiteGraph) -> Vec<u64> {
    let ranks = PriorityRanks::compute(g);
    let a = g.biadjacency();
    let ptr = a.ptr();
    let nv1 = g.nv1();
    let mut out = vec![0u64; g.nedges()];
    let mut spa = Spa::<u64>::new(nv1.max(g.nv2()));
    // Edge index of (u ∈ V1, v ∈ V2): CSR offset of u plus the position
    // of v in u's sorted row.
    let edge_index = |u: usize, v: u32| -> usize {
        let pos = a.row(u).binary_search(&v).expect("edge exists");
        ptr[u] + pos
    };
    for s in 0..nv1 + g.nv2() {
        scatter_start(g, &ranks, s, &mut spa);
        for_each_wedge(g, &ranks, s, |j, w| {
            let closures = spa.get(w) - 1;
            // A V1 start's wedge u – j – w has edges (u, j) and (w, j);
            // a V2 start's wedge v – j – w has edges (j, v) and (j, w).
            let (e1, e2) = if s < nv1 {
                (edge_index(s, j), edge_index(w as usize, j))
            } else {
                (
                    edge_index(j as usize, (s - nv1) as u32),
                    edge_index(j as usize, w),
                )
            };
            out[e1] += closures;
            out[e2] += closures;
        });
        spa.clear();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::{ExecMode, Member};
    use crate::edge_support::edge_supports;
    use crate::family::{count_priority, run_forced};
    use crate::spec::{count_brute_force, count_via_spgemm};
    use crate::vertex_counts::butterflies_per_vertex;
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use bfly_graph::Side;
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
    fn per_vertex_counts_match_oracle_on_both_sides() {
        for g in sample_graphs() {
            let (b1, b2) = butterflies_per_vertex_priority(&g);
            assert_eq!(b1, butterflies_per_vertex(&g, Side::V1));
            assert_eq!(b2, butterflies_per_vertex(&g, Side::V2));
            let four_xi: u64 = b1.iter().chain(b2.iter()).sum();
            assert_eq!(four_xi, 4 * count_priority(&g));
        }
    }

    #[test]
    fn per_edge_supports_match_oracle() {
        for g in sample_graphs() {
            assert_eq!(edge_supports_priority(&g), edge_supports(&g));
        }
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
