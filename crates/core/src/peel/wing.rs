//! k-wing extraction and wing decomposition (paper §IV-C).
//!
//! A maximal subgraph `H` is a *k-wing* if every **edge** of `H` is
//! contained in at least `k` butterflies of `H` — the bipartite analogue of
//! k-truss. The paper's procedure (eqs. 25–27): compute the edge-support
//! matrix `S_w`, mask out edges with support `< k`, iterate to a fixed
//! point.
//!
//! * [`k_wing`] — wedge-expansion supports per round (production).
//! * [`k_wing_matrix`] — the literal eqs. 25–27 loop via SpGEMM (fidelity
//!   reference).
//! * [`wing_numbers`] — full decomposition: the largest `k` at which each
//!   edge survives, by whole-bucket peeling with support repair through
//!   the engine in [`super::parallel`] (for each butterfly destroyed by
//!   the removed frontier, its surviving edges lose one unit of support).
//!   The original single-edge heap formulation survives as
//!   `wing_numbers_oracle`, a `testkit`-gated witness for the
//!   differential tests.

use crate::edge_support::{edge_supports, edge_supports_algebraic};
use bfly_graph::BipartiteGraph;
use bfly_telemetry::{Counter, NoopRecorder, Recorder};

/// Result of a k-wing extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WingResult {
    /// Which edges (row-major order of the *original* graph) survive.
    pub keep: Vec<bool>,
    /// Number of peeling rounds until the fixed point.
    pub rounds: usize,
    /// The k-wing subgraph (original dimensions preserved).
    pub subgraph: BipartiteGraph,
}

fn peel_rounds<R, F>(g: &BipartiteGraph, k: u64, rec: &mut R, score: F) -> WingResult
where
    R: Recorder,
    F: Fn(&BipartiteGraph) -> Vec<u64>,
{
    let original_edges: Vec<(u32, u32)> = g.edges().collect();
    let mut keep = vec![true; original_edges.len()];
    let mut current = g.clone();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if R::ENABLED {
            rec.span_enter("wing_round");
            rec.incr(Counter::PeelRounds, 1);
            // Every surviving edge is re-scored from scratch this round.
            rec.incr(Counter::RecomputeEdges, current.nedges() as u64);
        }
        let supports = score(&current);
        // Map current-graph edge order back to original indices.
        let mut removed = 0u64;
        let mut cur_idx = 0usize;
        for (orig_idx, &(u, v)) in original_edges.iter().enumerate() {
            if !keep[orig_idx] {
                continue;
            }
            debug_assert!(current.has_edge(u, v));
            if supports[cur_idx] < k {
                keep[orig_idx] = false;
                removed += 1;
            }
            cur_idx += 1;
        }
        debug_assert_eq!(cur_idx, supports.len());
        if R::ENABLED {
            rec.incr(Counter::PeeledEdges, removed);
            rec.series_push("wing_removed_per_round", removed as f64);
        }
        if removed == 0 {
            if R::ENABLED {
                rec.span_exit("wing_round");
            }
            break;
        }
        let kept_edges: Vec<(u32, u32)> = original_edges
            .iter()
            .zip(&keep)
            .filter(|(_, &kp)| kp)
            .map(|(&e, _)| e)
            .collect();
        current = BipartiteGraph::from_edges(g.nv1(), g.nv2(), &kept_edges)
            .expect("kept edges are in range");
        if R::ENABLED {
            rec.span_exit("wing_round");
        }
    }
    WingResult {
        keep,
        rounds,
        subgraph: current,
    }
}

/// Extract the k-wing of `g` by iterated wedge-expansion edge scoring.
pub fn k_wing(g: &BipartiteGraph, k: u64) -> WingResult {
    k_wing_recorded(g, k, &mut NoopRecorder)
}

/// [`k_wing`] reporting round counts, removal volumes, and recomputation
/// work through `rec`.
pub fn k_wing_recorded<R: Recorder>(g: &BipartiteGraph, k: u64, rec: &mut R) -> WingResult {
    peel_rounds(g, k, rec, edge_supports)
}

/// The literal matrix formulation (eqs. 25–27), with supports computed by
/// SpGEMM each round.
pub fn k_wing_matrix(g: &BipartiteGraph, k: u64) -> WingResult {
    peel_rounds(g, k, &mut NoopRecorder, edge_supports_algebraic)
}

/// Eq. 25 evaluated with the Hadamard mask pushed into the SpGEMM
/// ([`crate::edge_support::edge_supports_masked_spgemm`]); a third
/// formulation-level implementation for the agreement tests.
pub fn k_wing_masked_spgemm(g: &BipartiteGraph, k: u64) -> WingResult {
    peel_rounds(
        g,
        k,
        &mut NoopRecorder,
        crate::edge_support::edge_supports_masked_spgemm,
    )
}

/// Wing number of every edge (row-major order): the largest `k` for which
/// the edge is contained in the k-wing. Runs the flat bucket-queue engine
/// ([`super::parallel::wing_numbers_with_chunks`]) sequentially: each
/// round removes the whole minimum-support bucket; every butterfly
/// destroyed by the round decrements the supports of its surviving edges.
pub fn wing_numbers(g: &BipartiteGraph) -> Vec<u64> {
    super::parallel::wing_numbers_with_chunks(g, 1, &mut NoopRecorder)
}

/// The original one-edge-at-a-time formulation: a lazy binary min-heap
/// with exact support repair — removing edge `(u, v)` destroys every
/// butterfly `(u, v, w, x)` with `w ∈ N(v)`, `x ∈ N(u) ∩ N(w)`, `w ≠ u`,
/// `x ≠ v`; each destroyed butterfly decrements the supports of its three
/// surviving edges `(u, x)`, `(w, v)`, `(w, x)`. Independently
/// implemented from the bucket engine — the oracle the differential
/// tests compare against. Test support only.
#[cfg(any(test, feature = "testkit"))]
pub fn wing_numbers_oracle(g: &BipartiteGraph) -> Vec<u64> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    /// Edge id of `(u, v)` in row-major order, via binary search in row `u`.
    fn edge_id(a: &bfly_sparse::Pattern, u: usize, v: u32) -> usize {
        let row = a.row(u);
        let pos = row.binary_search(&v).expect("edge must exist");
        a.ptr()[u] + pos
    }
    let a = g.biadjacency();
    let at = g.biadjacency_t();
    let ne = g.nedges();
    let mut supports = edge_supports(g);
    let mut alive = vec![true; ne];
    let mut wing = vec![0u64; ne];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..ne as u32)
        .map(|e| Reverse((supports[e as usize], e)))
        .collect();
    // Reverse lookup: edge id -> (u, v).
    let endpoints: Vec<(u32, u32)> = g.edges().collect();
    let mut k = 0u64;
    while let Some(Reverse((score, e))) = heap.pop() {
        let ex = e as usize;
        if !alive[ex] || score != supports[ex] {
            continue; // stale entry
        }
        k = k.max(score);
        wing[ex] = k;
        alive[ex] = false;
        let (u, v) = endpoints[ex];
        // Enumerate surviving butterflies through (u, v) and repair.
        for &w in at.row(v as usize) {
            if w == u {
                continue;
            }
            let wv = edge_id(a, w as usize, v);
            if !alive[wv] {
                continue;
            }
            for &x in a.row(u as usize) {
                if x == v {
                    continue;
                }
                let ux = edge_id(a, u as usize, x);
                if !alive[ux] {
                    continue;
                }
                // Does edge (w, x) exist and survive?
                if let Ok(pos) = a.row(w as usize).binary_search(&x) {
                    let wx = a.ptr()[w as usize] + pos;
                    if alive[wx] {
                        for &other in &[ux, wv, wx] {
                            supports[other] -= 1;
                            heap.push(Reverse((supports[other], other as u32)));
                        }
                    }
                }
            }
        }
    }
    wing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_support::edge_supports as supports_of;
    use bfly_graph::generators::{uniform_exact, with_planted_biclique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn verify_is_fixed_point(k: u64, res: &WingResult) {
        let s = supports_of(&res.subgraph);
        for &sup in &s {
            assert!(sup >= k, "surviving edge has support {sup} < k = {k}");
        }
    }

    #[test]
    fn complete_graph_thresholds() {
        // K_{3,3}: every edge in 4 butterflies.
        let g = BipartiteGraph::complete(3, 3);
        let r = k_wing(&g, 4);
        assert!(r.keep.iter().all(|&b| b));
        let r = k_wing(&g, 5);
        assert!(r.keep.iter().all(|&b| !b));
        assert_eq!(r.subgraph.nedges(), 0);
    }

    #[test]
    fn matrix_and_expansion_agree() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = with_planted_biclique(
            &uniform_exact(20, 20, 50, &mut rng),
            &[0, 1, 2, 3],
            &[0, 1, 2, 3],
        );
        for k in [1u64, 2, 4, 9, 15] {
            let a = k_wing(&g, k);
            let b = k_wing_matrix(&g, k);
            let d = k_wing_masked_spgemm(&g, k);
            assert_eq!(a.keep, b.keep, "k = {k} matrix");
            assert_eq!(a.keep, d.keep, "k = {k} masked spgemm");
            verify_is_fixed_point(k, &a);
        }
    }

    #[test]
    fn planted_block_survives() {
        // K_{4,4} block: each block edge is in 9 block butterflies.
        let mut rng = StdRng::seed_from_u64(22);
        let base = uniform_exact(30, 30, 40, &mut rng);
        let g = with_planted_biclique(&base, &[5, 6, 7, 8], &[5, 6, 7, 8]);
        let r = k_wing(&g, 9);
        for (idx, (u, v)) in g.edges().enumerate() {
            if (5..=8).contains(&u) && (5..=8).contains(&v) {
                assert!(r.keep[idx], "block edge ({u},{v}) should survive k=9");
            }
        }
        verify_is_fixed_point(9, &r);
    }

    #[test]
    fn nesting_property() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = with_planted_biclique(
            &uniform_exact(25, 25, 70, &mut rng),
            &[0, 1, 2, 3, 4],
            &[0, 1, 2, 3],
        );
        let r1 = k_wing(&g, 2);
        let r5 = k_wing(&g, 5);
        for i in 0..g.nedges() {
            if r5.keep[i] {
                assert!(r1.keep[i], "5-wing edge {i} missing from 2-wing");
            }
        }
    }

    #[test]
    fn bucket_engine_matches_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(25);
        for trial in 0..4 {
            let g = with_planted_biclique(
                &uniform_exact(22, 22, 60, &mut rng),
                &[0, 1, 2, 3],
                &[0, 1, 2],
            );
            let want = wing_numbers_oracle(&g);
            assert_eq!(wing_numbers(&g), want, "trial {trial}");
            assert_eq!(
                super::super::parallel::wing_numbers_with_chunks(&g, 2, &mut NoopRecorder),
                want,
                "trial {trial} chunked"
            );
        }
    }

    #[test]
    fn wing_numbers_consistent_with_k_wing() {
        let mut rng = StdRng::seed_from_u64(24);
        let g = with_planted_biclique(&uniform_exact(15, 15, 35, &mut rng), &[0, 1, 2], &[0, 1, 2]);
        let wn = wing_numbers(&g);
        for k in [1u64, 2, 3, 4] {
            let r = k_wing(&g, k);
            for (i, &keep) in r.keep.iter().enumerate() {
                assert_eq!(
                    keep,
                    wn[i] >= k,
                    "edge {i} k={k}: wing number {} vs keep {keep}",
                    wn[i]
                );
            }
        }
    }

    #[test]
    fn butterfly_free_graph_fully_peels() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 2)]).unwrap();
        let r = k_wing(&g, 1);
        assert!(r.keep.iter().all(|&b| !b));
        assert_eq!(wing_numbers(&g), vec![0; 4]);
    }

    #[test]
    fn single_butterfly_is_a_1_wing() {
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let r = k_wing(&g, 1);
        assert!(r.keep.iter().all(|&b| b));
        assert_eq!(wing_numbers(&g), vec![1, 1, 1, 1]);
    }
}
