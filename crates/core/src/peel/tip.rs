//! k-tip extraction and tip decomposition (paper §IV-B).
//!
//! A maximal induced subgraph `H` is a *k-tip* (w.r.t. one side of the
//! bipartition) if every vertex of that side participates in at least `k`
//! butterflies within `H`. The paper's procedure (eqs. 19–22): compute the
//! per-vertex butterfly vector `s`, mask out vertices with `s < k`, and
//! iterate to a fixed point.
//!
//! Three implementations:
//! * [`k_tip`] — wedge-expansion scores each round (production).
//! * [`k_tip_matrix`] — the literal eqs. 19–22 loop over sparse matrices,
//!   recomputing `B = A_i·A_iᵀ` per round (fidelity reference).
//! * [`k_tip_lookahead`] — the Fig. 8 fused variant: scores and mask are
//!   produced in one triangular sweep per round, finalising each vertex's
//!   score (and mask bit) as soon as its row has been passed.
//!
//! [`tip_numbers`] computes the full decomposition: for each vertex the
//! largest `k` such that it survives in the k-tip — whole-bucket peeling
//! with incremental score repair through the executor in
//! [`super::parallel`] (sequential by default;
//! [`super::parallel::tip_numbers_with_chunks`] chunks the initial counts
//! and each large frontier over rayon workers). The original
//! lazy-min-heap formulation survives as [`tip_numbers_oracle`], a
//! `testkit`-gated witness for the differential tests.

use crate::vertex_counts::{butterflies_per_vertex, butterflies_per_vertex_algebraic};
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{choose2, Spa};
use bfly_telemetry::{Counter, NoopRecorder, Recorder};

/// Result of a k-tip extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TipResult {
    /// Which vertices of the peeled side survive.
    pub keep: Vec<bool>,
    /// Number of peeling rounds until the fixed point.
    pub rounds: usize,
    /// The k-tip subgraph (masked, original dimensions preserved).
    pub subgraph: BipartiteGraph,
}

fn finish(g: &BipartiteGraph, side: Side, keep: Vec<bool>, rounds: usize) -> TipResult {
    let subgraph = match side {
        Side::V1 => g.masked(&keep, &vec![true; g.nv2()]),
        Side::V2 => g.masked(&vec![true; g.nv1()], &keep),
    };
    TipResult {
        keep,
        rounds,
        subgraph,
    }
}

/// The one fixed-point loop shared by every k-tip variant: each round
/// `mask_of` scores the surviving subgraph and returns, per vertex of the
/// peeled side, whether it survives this round; the driver applies the
/// mask and iterates until nothing is removed.
///
/// Recorded per round: the round itself, the edges scored
/// ([`Counter::RecomputeEdges`] — the recomputation volume of the
/// score-from-scratch scheme), vertices and edges removed, the
/// `tip_removed_per_round` series, and a `tip_round` span per round so
/// the shrinking cost of successive rounds shows on the timeline.
fn peel_to_fixed_point<R, F>(
    g: &BipartiteGraph,
    side: Side,
    rec: &mut R,
    mut mask_of: F,
) -> TipResult
where
    R: Recorder,
    F: FnMut(&BipartiteGraph) -> Vec<bool>,
{
    let nside = g.nvertices(side);
    let mut keep = vec![true; nside];
    let mut current = g.clone();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if R::ENABLED {
            rec.span_enter("tip_round");
            rec.incr(Counter::PeelRounds, 1);
            rec.incr(Counter::RecomputeEdges, current.nedges() as u64);
        }
        let mask = mask_of(&current);
        let mut removed = 0u64;
        for (i, keep_i) in keep.iter_mut().enumerate() {
            if *keep_i && !mask[i] {
                *keep_i = false;
                removed += 1;
            }
        }
        if R::ENABLED {
            rec.incr(Counter::PeeledVertices, removed);
            rec.series_push("tip_removed_per_round", removed as f64);
        }
        if removed == 0 {
            if R::ENABLED {
                rec.span_exit("tip_round");
            }
            break;
        }
        let edges_before = current.nedges();
        current = match side {
            Side::V1 => current.masked(&keep, &vec![true; g.nv2()]),
            Side::V2 => current.masked(&vec![true; g.nv1()], &keep),
        };
        if R::ENABLED {
            rec.incr(
                Counter::PeeledEdges,
                (edges_before - current.nedges()) as u64,
            );
            rec.span_exit("tip_round");
        }
    }
    finish(g, side, keep, rounds)
}

/// Extract the k-tip of `g` on `side` by iterated wedge-expansion scoring.
///
/// ```
/// use bfly_core::peel::k_tip;
/// use bfly_graph::{BipartiteGraph, Side};
///
/// // A butterfly plus a pendant vertex: the pendant is not in any
/// // butterfly, so the 1-tip removes it and keeps the biclique.
/// let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])?;
/// let r = k_tip(&g, Side::V1, 1);
/// assert_eq!(r.keep, vec![true, true, false]);
/// # Ok::<(), bfly_sparse::SparseError>(())
/// ```
pub fn k_tip(g: &BipartiteGraph, side: Side, k: u64) -> TipResult {
    k_tip_recorded(g, side, k, &mut NoopRecorder)
}

/// [`k_tip`] reporting round counts, removal volumes, and recomputation
/// work through `rec`.
pub fn k_tip_recorded<R: Recorder>(
    g: &BipartiteGraph,
    side: Side,
    k: u64,
    rec: &mut R,
) -> TipResult {
    peel_to_fixed_point(g, side, rec, |cur| {
        butterflies_per_vertex(cur, side)
            .into_iter()
            .map(|s| s >= k)
            .collect()
    })
}

/// The literal matrix formulation (eqs. 19–22): per round, `B = A·Aᵀ` via
/// SpGEMM, `s` from the eq. 19 diagonal (corrected to whole butterflies,
/// see [`crate::vertex_counts`]), threshold mask, Hadamard onto `A`
/// (eq. 22, realised as row/column masking by the shared driver).
pub fn k_tip_matrix(g: &BipartiteGraph, side: Side, k: u64) -> TipResult {
    peel_to_fixed_point(g, side, &mut NoopRecorder, |cur| {
        let scores = butterflies_per_vertex_algebraic(cur, side);
        bfly_sparse::ops::threshold_mask(&scores, k)
    })
}

/// The Fig. 8 "look-ahead" round: one triangular sweep computes every
/// vertex's full score `s` and emits its mask bit `μ = s ≥ k` the moment
/// the sweep passes it. Pair contributions are charged to both endpoints
/// when the smaller-indexed one is processed, so by the time the sweep
/// reaches vertex `u`, `s[u]` has received all pairs `{w, u}` with `w < u`
/// (from earlier iterations) and all pairs `{u, w}` with `w > u` (from the
/// current look-ahead expansion) — i.e. it is final.
fn lookahead_scores_and_mask(g: &BipartiteGraph, side: Side, k: u64) -> (Vec<u64>, Vec<bool>) {
    let (part_adj, other_adj) = match side {
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
    };
    let n = part_adj.nrows();
    let mut s = vec![0u64; n];
    let mut mask = vec![false; n];
    let mut spa = Spa::<u64>::new(n);
    for u in 0..n {
        let u32v = u as u32;
        for &j in part_adj.row(u) {
            let row = other_adj.row(j as usize);
            let cut = row.partition_point(|&w| w <= u32v);
            for &w in &row[cut..] {
                spa.scatter(w, 1);
            }
        }
        for (w, cnt) in spa.entries() {
            let pair = choose2(cnt);
            s[u] += pair;
            s[w as usize] += pair;
        }
        spa.clear();
        // s[u] is final here: the mask bit can be emitted immediately
        // (the σ₁/μ₁ fusion of Fig. 8).
        mask[u] = s[u] >= k;
    }
    (s, mask)
}

/// k-tip via the fused look-ahead rounds of Fig. 8.
pub fn k_tip_lookahead(g: &BipartiteGraph, side: Side, k: u64) -> TipResult {
    peel_to_fixed_point(g, side, &mut NoopRecorder, |cur| {
        lookahead_scores_and_mask(cur, side, k).1
    })
}

/// Tip number of every vertex on `side`: the largest `k` for which the
/// vertex is contained in the k-tip. Runs the flat bucket-queue engine
/// ([`super::parallel::tip_numbers_with_chunks`]) sequentially: each
/// round removes the whole minimum bucket and repairs survivors by a
/// wedge expansion from the removed frontier over the *remaining* graph.
pub fn tip_numbers(g: &BipartiteGraph, side: Side) -> Vec<u64> {
    super::parallel::tip_numbers_with_chunks(g, side, 1, &mut NoopRecorder)
}

/// The original one-vertex-at-a-time formulation: a lazy binary min-heap
/// of (score, vertex), stale entries skipped on pop, scores repaired per
/// removed vertex. Independently implemented from the bucket engine —
/// the oracle the differential tests compare against. Test support only.
#[cfg(any(test, feature = "testkit"))]
pub fn tip_numbers_oracle(g: &BipartiteGraph, side: Side) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let (part_adj, other_adj) = match side {
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
    };
    let n = part_adj.nrows();
    let mut scores = butterflies_per_vertex(g, side);
    let mut alive = vec![true; n];
    let mut tip = vec![0u64; n];
    // Lazy min-heap of (score, vertex); stale entries skipped on pop.
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..n as u32)
        .map(|u| Reverse((scores[u as usize], u)))
        .collect();
    let mut spa = Spa::<u64>::new(n);
    let mut k = 0u64;
    while let Some(Reverse((score, u))) = heap.pop() {
        let ux = u as usize;
        if !alive[ux] || score != scores[ux] {
            continue; // stale
        }
        k = k.max(score);
        tip[ux] = k;
        alive[ux] = false;
        // Pairwise butterfly counts between u and every surviving partner.
        for &j in part_adj.row(ux) {
            for &w in other_adj.row(j as usize) {
                if alive[w as usize] {
                    spa.scatter(w, 1);
                }
            }
        }
        for (w, cnt) in spa.entries() {
            let shared = choose2(cnt);
            if shared > 0 {
                let wx = w as usize;
                scores[wx] -= shared;
                heap.push(Reverse((scores[wx], w)));
            }
        }
        spa.clear();
    }
    tip
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::generators::{uniform_exact, with_planted_biclique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn verify_is_fixed_point(_g: &BipartiteGraph, side: Side, k: u64, res: &TipResult) {
        // Every surviving vertex participates in ≥ k butterflies within the
        // subgraph, i.e. the result satisfies the k-tip definition.
        let scores = butterflies_per_vertex(&res.subgraph, side);
        for (i, &keep) in res.keep.iter().enumerate() {
            if keep {
                assert!(
                    scores[i] >= k,
                    "vertex {i} kept with only {} butterflies (k = {k})",
                    scores[i]
                );
            }
        }
    }

    #[test]
    fn complete_graph_survives_small_k() {
        // K_{3,3}: every V1 vertex in 6 butterflies.
        let g = BipartiteGraph::complete(3, 3);
        let r = k_tip(&g, Side::V1, 6);
        assert!(r.keep.iter().all(|&b| b));
        let r = k_tip(&g, Side::V1, 7);
        assert!(r.keep.iter().all(|&b| !b));
    }

    #[test]
    fn three_implementations_agree() {
        let mut rng = StdRng::seed_from_u64(5);
        let base = uniform_exact(25, 25, 70, &mut rng);
        let g = with_planted_biclique(&base, &[0, 1, 2, 3], &[0, 1, 2, 3]);
        for side in [Side::V1, Side::V2] {
            for k in [1u64, 2, 5, 9, 20] {
                let a = k_tip(&g, side, k);
                let b = k_tip_matrix(&g, side, k);
                let c = k_tip_lookahead(&g, side, k);
                assert_eq!(a.keep, b.keep, "k={k} {side:?} matrix");
                assert_eq!(a.keep, c.keep, "k={k} {side:?} lookahead");
                verify_is_fixed_point(&g, side, k, &a);
            }
        }
    }

    #[test]
    fn planted_biclique_survives_peeling() {
        // Sparse noise + K_{4,4} block: at k = C(3,1)·C(4,2)/... each block
        // V1 vertex is in 3·C(4,2) = 18 block butterflies; noise vertices
        // are in far fewer, so a moderate k isolates the block.
        let mut rng = StdRng::seed_from_u64(6);
        let base = uniform_exact(40, 40, 60, &mut rng);
        let block_v1 = [10u32, 11, 12, 13];
        let block_v2 = [20u32, 21, 22, 23];
        let g = with_planted_biclique(&base, &block_v1, &block_v2);
        let r = k_tip(&g, Side::V1, 18);
        for &u in &block_v1 {
            assert!(r.keep[u as usize], "block vertex {u} should survive");
        }
        verify_is_fixed_point(&g, Side::V1, 18, &r);
    }

    #[test]
    fn nesting_property() {
        // k2 ≥ k1 ⇒ k2-tip ⊆ k1-tip.
        let mut rng = StdRng::seed_from_u64(8);
        let g = with_planted_biclique(
            &uniform_exact(30, 30, 90, &mut rng),
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3, 4],
        );
        let r1 = k_tip(&g, Side::V1, 2);
        let r2 = k_tip(&g, Side::V1, 10);
        for i in 0..30 {
            if r2.keep[i] {
                assert!(r1.keep[i], "10-tip member {i} missing from 2-tip");
            }
        }
    }

    #[test]
    fn tip_numbers_are_consistent_with_k_tip_membership() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = with_planted_biclique(
            &uniform_exact(20, 20, 50, &mut rng),
            &[0, 1, 2],
            &[0, 1, 2, 3],
        );
        for side in [Side::V1, Side::V2] {
            let tn = tip_numbers(&g, side);
            // For several thresholds, the k-tip membership must equal
            // {v : tip_number(v) ≥ k}.
            for k in [1u64, 2, 3, 5, 8] {
                let r = k_tip(&g, side, k);
                for (i, &keep) in r.keep.iter().enumerate() {
                    assert_eq!(
                        keep,
                        tn[i] >= k,
                        "vertex {i} side {side:?} k={k}: tip number {} vs keep {keep}",
                        tn[i]
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_engine_matches_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(10);
        for trial in 0..4 {
            let g = with_planted_biclique(
                &uniform_exact(25, 25, 70, &mut rng),
                &[0, 1, 2, 3],
                &[0, 1, 2],
            );
            for side in [Side::V1, Side::V2] {
                let want = tip_numbers_oracle(&g, side);
                assert_eq!(tip_numbers(&g, side), want, "trial {trial} side {side:?}");
                assert_eq!(
                    super::super::parallel::tip_numbers_with_chunks(&g, side, 2, &mut NoopRecorder),
                    want,
                    "trial {trial} side {side:?} chunked"
                );
            }
        }
    }

    #[test]
    fn zero_k_keeps_everything() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1)]).unwrap();
        let r = k_tip(&g, Side::V1, 0);
        assert!(r.keep.iter().all(|&b| b));
        assert_eq!(r.rounds, 1);
    }

    #[test]
    fn butterfly_free_graph_peels_completely_for_k1() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        let r = k_tip(&g, Side::V1, 1);
        assert!(r.keep.iter().all(|&b| !b));
        assert_eq!(tip_numbers(&g, Side::V1), vec![0, 0, 0]);
    }
}
