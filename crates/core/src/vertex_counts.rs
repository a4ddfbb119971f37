//! Per-vertex butterfly counts (the `s` vector of the k-tip formulation).
//!
//! The number of butterflies vertex `i ∈ V1` participates in is
//! `b_i = Σ_{j≠i} C(B_ij, 2)` with `B = A·Aᵀ`. The paper's eq. 19 takes
//! `¼·DIAG(BB − B∘B − JB + B)`; because the trace expression charges each
//! butterfly once *in total* (not once per endpoint), that diagonal equals
//! `b_i / 2` — summing it over `i` recovers `Ξ_G`, while the k-tip
//! *definition* ("every vertex is part of at least `k` butterflies", §IV-A)
//! needs `b_i` itself. We therefore expose `b_i` (the Sariyüce–Pinar
//! convention) and provide the literal eq. 19 vector separately so the
//! relationship `2·s_paper = b` is tested rather than assumed.
//!
//! Two implementations:
//! * [`butterflies_per_vertex`] — wedge expansion per vertex (production):
//!   one overflow-checked body that the tip decomposition's initial
//!   scores and [`crate::peel::k_tip`] also run.
//! * [`butterflies_per_vertex_algebraic`] — via SpGEMM, a transliteration
//!   of eq. 19 (validation; also exercises the sparse substrate).

use crate::error::{checked_total, expect_ok, Result};
use crate::family::parallel::fill_balanced;
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::ops::spgemm;
use bfly_sparse::{choose2, CheckedAccum, CsrMatrix, PairAccum, Pattern};
use std::ops::Range;

/// `(part_adj, other_adj)` of `side`: row `u` of the first lists the
/// opposite-side neighbours of `u`, and the second is its transpose.
pub(crate) fn side_adj(g: &BipartiteGraph, side: Side) -> (&Pattern, &Pattern) {
    match side {
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
    }
}

/// The one wedge-expansion body: `b_u = Σ_{w≠u} C(|N(u)∩N(w)|, 2)` for
/// each vertex `u` of `items`, written to `out` in order. Each wedge hits
/// `pairs` once and adds `w`'s count before the hit to a
/// [`CheckedAccum`] seeded with `base`, which sums to `b_u`
/// (`C(n, 2) = 0 + 1 + … + (n − 1)`).
fn counts_in(
    (part_adj, other_adj): (&Pattern, &Pattern),
    items: Range<usize>,
    base: u64,
    pairs: &mut PairAccum,
    out: &mut [u64],
) -> Result<()> {
    for (u, slot) in items.zip(out) {
        let mut acc = CheckedAccum::with_base(base);
        for &j in part_adj.row(u) {
            for &w in other_adj.row(j as usize) {
                if w as usize != u {
                    acc.add(pairs.hit(w));
                }
            }
        }
        pairs.clear();
        *slot = checked_total(acc, "butterflies_per_vertex")?;
    }
    Ok(())
}

/// `b_u` for every vertex on `side` over `chunks` wedge-balanced vertex
/// ranges (inline for one), a count past `u64` failing with
/// [`BflyError::CountOverflow`](crate::error::BflyError) and its exact
/// value. `base` seeds every vertex's accumulator: zero in production,
/// near `u64::MAX` in the tests that reach the overflow path.
pub(crate) fn checked_vertex_counts(
    g: &BipartiteGraph,
    side: Side,
    chunks: usize,
    base: u64,
) -> Result<Vec<u64>> {
    let adj = side_adj(g, side);
    let n = adj.0.nrows();
    let mut out = vec![0u64; n];
    fill_balanced(
        &mut out,
        adj,
        chunks,
        |u| u,
        || PairAccum::new(n),
        |pairs, items, out| counts_in(adj, items, base, pairs, out),
    )?;
    Ok(out)
}

/// `b_u` for every vertex on `side`, by wedge expansion. A count past
/// `u64` panics naming
/// [`tip_numbers_budgeted_recorded`](crate::peel::tip_numbers_budgeted_recorded),
/// whose initial scores run this body and return the overflow as a typed
/// error.
pub fn butterflies_per_vertex(g: &BipartiteGraph, side: Side) -> Vec<u64> {
    expect_ok(
        checked_vertex_counts(g, side, 1, 0),
        "tip_numbers_budgeted_recorded",
    )
}

/// `b` via sparse algebra: `b_i = Σ_{j≠i} (B_ij² − B_ij)/2`, i.e. twice the
/// paper's eq. 19 diagonal. Used to validate the wedge-expansion version.
pub fn butterflies_per_vertex_algebraic(g: &BipartiteGraph, side: Side) -> Vec<u64> {
    let a: CsrMatrix<u64> = match side {
        Side::V1 => g.to_csr(),
        Side::V2 => g.biadjacency_t().to_csr(),
    };
    let b = spgemm(&a, &a.transpose()).expect("A·Aᵀ shapes conform");
    let mut out = vec![0u64; b.nrows()];
    for (i, o) in out.iter_mut().enumerate() {
        let (cols, vals) = b.row(i);
        let mut acc = 0u64;
        for (&j, &v) in cols.iter().zip(vals) {
            if j as usize != i {
                acc += choose2(v);
            }
        }
        *o = acc;
    }
    out
}

/// The literal eq. 19 vector, `¼·DIAG(BB − B∘B − JB + B)`, returned as
/// doubled numerators so it stays integral: element `i` is `4·s_i` where
/// `s` is the paper's vector. Provided for fidelity testing of the
/// formulation (see module docs on the factor-of-two subtlety).
pub fn eq19_diagonal_times4(g: &BipartiteGraph) -> Vec<u64> {
    let a: CsrMatrix<u64> = g.to_csr();
    let b = spgemm(&a, &a.transpose()).expect("A·Aᵀ shapes conform");
    let mut out = vec![0u64; b.nrows()];
    for (i, o) in out.iter_mut().enumerate() {
        let (cols, vals) = b.row(i);
        let mut sq = 0u64; // (BB)_ii = Σ_j B_ij²  (B symmetric)
        let mut sum = 0u64; // (JB)_ii = Σ_j B_ji = Σ_j B_ij
        let mut diag = 0u64;
        for (&j, &v) in cols.iter().zip(vals) {
            sq += v * v;
            sum += v;
            if j as usize == i {
                diag = v;
            }
        }
        // BB − B∘B − JB + B on the diagonal. Add `diag` before the
        // subtractions: the total is non-negative but the left-to-right
        // prefix `sq − diag² − sum` can dip below zero (a row holding only
        // its diagonal gives d² − d² − d), which traps under debug overflow
        // checks.
        *o = sq + diag - diag * diag - sum;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k33() -> BipartiteGraph {
        BipartiteGraph::complete(3, 3)
    }

    #[test]
    fn complete_graph_counts_per_vertex() {
        // K_{3,3}: 9 butterflies; each V1 vertex is in C(2,1)... directly:
        // pairs containing u: 2 partners × C(3,2) wedge pairs = wrong route;
        // count: butterflies containing u = (partners choose 1 = 2) × 3 = 6.
        let b = butterflies_per_vertex(&k33(), Side::V1);
        assert_eq!(b, vec![6, 6, 6]);
        // Σ b_u = 2·Ξ.
        assert_eq!(b.iter().sum::<u64>(), 18);
        let b2 = butterflies_per_vertex(&k33(), Side::V2);
        assert_eq!(b2, vec![6, 6, 6]);
    }

    #[test]
    fn wedge_expansion_matches_algebraic() {
        let g = BipartiteGraph::from_edges(
            5,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (3, 2),
                (3, 3),
                (4, 0),
                (4, 1),
            ],
        )
        .unwrap();
        for side in [Side::V1, Side::V2] {
            let want = butterflies_per_vertex_algebraic(&g, side);
            assert_eq!(butterflies_per_vertex(&g, side), want, "{side:?}");
            for chunks in [1, 2, 4] {
                assert_eq!(
                    checked_vertex_counts(&g, side, chunks, 0).unwrap(),
                    want,
                    "{side:?} chunks={chunks}"
                );
            }
        }
    }

    #[test]
    fn seeded_overflow_promotes_exactly() {
        // Graph-realisable u64 overflow needs > 2^32 vertices; seeding each
        // vertex's accumulator near the ceiling exercises the same path.
        // K_{3,3}: vertex 0 is the first to overflow, at base + 6.
        let base = u64::MAX - 1;
        for chunks in [1, 2] {
            match checked_vertex_counts(&k33(), Side::V1, chunks, base) {
                Err(crate::error::BflyError::CountOverflow { partial, .. }) => {
                    assert_eq!(partial, base as u128 + 6, "exact, never wrapped")
                }
                other => panic!("chunks={chunks}: expected CountOverflow, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "call tip_numbers_budgeted_recorded for a typed error")]
    fn infallible_counts_name_the_executor_past_u64() {
        expect_ok(
            checked_vertex_counts(&k33(), Side::V1, 1, u64::MAX),
            "tip_numbers_budgeted_recorded",
        );
    }

    #[test]
    fn vertex_sums_are_twice_total() {
        let g = BipartiteGraph::from_edges(
            6,
            5,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 2),
                (2, 3),
                (3, 3),
                (3, 4),
                (4, 0),
                (5, 1),
                (4, 1),
            ],
        )
        .unwrap();
        let total = crate::spec::count_brute_force(&g);
        for side in [Side::V1, Side::V2] {
            let b = butterflies_per_vertex(&g, side);
            assert_eq!(b.iter().sum::<u64>(), 2 * total, "{side:?}");
        }
    }

    #[test]
    fn eq19_diagonal_is_half_the_vertex_counts() {
        // The paper's s vector satisfies 4·s_i = 2·b_i, and Σ s = Ξ.
        let g = k33();
        let four_s = eq19_diagonal_times4(&g);
        let b = butterflies_per_vertex(&g, Side::V1);
        for (s4, bi) in four_s.iter().zip(&b) {
            assert_eq!(*s4, 2 * bi);
        }
        let xi = crate::spec::count_brute_force(&g);
        assert_eq!(four_s.iter().sum::<u64>(), 4 * xi);
    }

    #[test]
    fn isolated_vertices_have_zero() {
        let g = BipartiteGraph::from_edges(4, 4, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
        let b = butterflies_per_vertex(&g, Side::V1);
        assert_eq!(b, vec![1, 1, 0, 0]);
    }
}
