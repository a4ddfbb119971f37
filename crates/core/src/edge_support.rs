//! Per-edge butterfly support (the `S_w` matrix of the k-wing formulation).
//!
//! The support of edge `(u, v)` is the number of butterflies containing it.
//! Paper eq. 23 derives it combinatorially:
//!
//! ```text
//! supp(u, v) = Σ_{w ∈ N(v)} |N(u) ∩ N(w)| − |N(u)| − |N(v)| + 1
//! ```
//!
//! and eq. 25 packages the computation for all edges at once:
//! `S_w = (AAᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A`.
//!
//! Two implementations again: a wedge-expansion sweep (production) and a
//! literal SpGEMM evaluation of eq. 25 (validation). Supports are returned
//! in the row-major edge order of [`BipartiteGraph::edges`], plus a helper
//! shaping them as a CSR matrix aligned with `A`. The sweep is one
//! overflow-checked body that [`try_edge_supports`], the wing
//! decomposition's initial scores and [`crate::peel::k_wing`] also run.

use crate::error::{expect_ok, validate_graph, BflyError, Result};
use crate::family::parallel::fill_balanced;
use bfly_graph::BipartiteGraph;
use bfly_sparse::ops::spgemm;
use bfly_sparse::{CheckedAccum, CsrMatrix, Pattern, Spa};
use std::ops::Range;

/// The one wedge-expansion body: the support of every edge of the V1
/// vertices in `items`, written to `out` in row-major edge order.
///
/// One wedge expansion per V1 vertex `u` fills `cnt[w] = |N(u) ∩ N(w)|`;
/// each incident edge `(u, v)` then reads `Σ_{w∈N(v)} cnt[w]` (which
/// includes `w = u` contributing `|N(u)|`) into a [`CheckedAccum`] and
/// applies eq. 23's corrections in `u128`, so neither the wedge sum nor
/// the subtraction can wrap. Total cost `O(Σ_v deg(v)²)` — the same wedge
/// volume the counting algorithms traverse.
fn supports_in(
    (a, at): (&Pattern, &Pattern),
    items: Range<usize>,
    spa: &mut Spa<u64>,
    out: &mut [u64],
) -> Result<()> {
    let mut slots = out.iter_mut();
    for u in items {
        for &v in a.row(u) {
            for &w in at.row(v as usize) {
                spa.scatter(w, 1);
            }
        }
        let deg_u = a.row_nnz(u) as u128;
        for (&v, slot) in a.row(u).iter().zip(&mut slots) {
            let deg_v = at.row_nnz(v as usize) as u128;
            let mut acc = CheckedAccum::new();
            for &w in at.row(v as usize) {
                acc.add(spa.get(w));
            }
            // eq. 23: wedge_sum + 1 − deg_u − deg_v is non-negative for
            // any structurally valid graph (the w = u term alone
            // contributes deg_u, and each other w ∈ N(v) at least the
            // shared wedge via v); check rather than trust.
            let support = (acc.value() + 1)
                .checked_sub(deg_u + deg_v)
                .ok_or_else(|| BflyError::InvalidGraph {
                    reason: format!("edge ({u}, {v}): eq. 23 wedge sum below degree correction"),
                })?;
            *slot = u64::try_from(support).map_err(|_| BflyError::CountOverflow {
                partial: support,
                context: "edge_supports",
            })?;
        }
        spa.clear();
    }
    Ok(())
}

/// Support of every edge over `chunks` wedge-balanced V1 vertex ranges
/// (inline for one), a support past `u64` failing with
/// [`BflyError::CountOverflow`].
pub(crate) fn checked_edge_supports(g: &BipartiteGraph, chunks: usize) -> Result<Vec<u64>> {
    let adj = (g.biadjacency(), g.biadjacency_t());
    let ptr = adj.0.ptr();
    let m = g.nv1();
    let mut out = vec![0u64; g.nedges()];
    fill_balanced(
        &mut out,
        adj,
        chunks,
        |u| ptr[u],
        || Spa::new(m),
        |spa, items, out| supports_in(adj, items, spa, out),
    )?;
    Ok(out)
}

/// Support of every edge, in row-major edge order. A support past `u64`
/// panics naming [`try_edge_supports`].
pub fn edge_supports(g: &BipartiteGraph) -> Vec<u64> {
    expect_ok(checked_edge_supports(g, 1), "try_edge_supports")
}

/// Fallible [`edge_supports`]: validates the graph first, so a malformed
/// graph or a support exceeding `u64` fails with a [`BflyError`] instead
/// of panicking.
pub fn try_edge_supports(g: &BipartiteGraph) -> Result<Vec<u64>> {
    validate_graph(g)?;
    checked_edge_supports(g, 1)
}

/// Literal eq. 25 evaluation: `S_w = (AAᵀA − deg₁·1ᵀ − 1·deg₂ᵀ + J) ∘ A`,
/// computed sparsely by restricting the correction terms to the pattern of
/// `A`. Returns the same row-major edge order as [`edge_supports`].
pub fn edge_supports_algebraic(g: &BipartiteGraph) -> Vec<u64> {
    let a: CsrMatrix<u64> = g.to_csr();
    let at = a.transpose();
    let b = spgemm(&a, &at).expect("A·Aᵀ shapes conform");
    let bap = spgemm(&b, &a).expect("(AAᵀ)·A shapes conform");
    let mut out = Vec::with_capacity(g.nedges());
    for u in 0..g.nv1() {
        let deg_u = g.deg_v1(u) as u64;
        for &v in g.neighbors_v1(u) {
            let deg_v = g.deg_v2(v as usize) as u64;
            let walks = bap.get(u, v); // (AAᵀA)_{uv}
            out.push(walks + 1 - deg_u - deg_v);
        }
    }
    out
}

/// Eq. 25 with the Hadamard mask *pushed into* the product: the
/// `(AAᵀA) ∘ A` term is computed by a masked SpGEMM that only evaluates
/// dot products at positions where `A` is nonzero, skipping the enormous
/// fill-in of the unmasked `AAᵀA`. Returns the same row-major edge order.
pub fn edge_supports_masked_spgemm(g: &BipartiteGraph) -> Vec<u64> {
    let a: CsrMatrix<u64> = g.to_csr();
    let at = a.transpose();
    let b = spgemm(&a, &at).expect("A·Aᵀ shapes conform");
    let walks = bfly_sparse::spgemm_masked(&b, &a, g.biadjacency(), bfly_sparse::PlusTimes)
        .expect("(AAᵀ)·A ∘ A shapes conform");
    let mut out = Vec::with_capacity(g.nedges());
    for u in 0..g.nv1() {
        let deg_u = g.deg_v1(u) as u64;
        for &v in g.neighbors_v1(u) {
            let deg_v = g.deg_v2(v as usize) as u64;
            out.push(walks.get(u, v) + 1 - deg_u - deg_v);
        }
    }
    out
}

/// Shape the supports as a CSR matrix with exactly the pattern of `A`
/// (the `S_w` of eq. 25).
pub fn support_matrix(g: &BipartiteGraph, supports: &[u64]) -> CsrMatrix<u64> {
    assert_eq!(supports.len(), g.nedges());
    let p = g.biadjacency();
    CsrMatrix::try_from_raw_parts(
        p.nrows(),
        p.ncols(),
        p.ptr().to_vec(),
        p.indices().to_vec(),
        supports.to_vec(),
    )
    .expect("pattern arrays are structurally valid")
}

/// Convenience: total butterflies from edge supports. Every butterfly has
/// four edges, so `Σ supp = 4·Ξ`.
pub fn total_from_supports(supports: &[u64]) -> u64 {
    let s: u64 = supports.iter().sum();
    debug_assert_eq!(s % 4, 0);
    s / 4
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_butterfly() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap()
    }

    #[test]
    fn single_butterfly_every_edge_support_one() {
        let g = one_butterfly();
        assert_eq!(edge_supports(&g), vec![1, 1, 1, 1]);
        assert_eq!(total_from_supports(&edge_supports(&g)), 1);
    }

    #[test]
    fn complete_graph_supports() {
        // K_{3,3}: each edge is in (3−1)·(3−1) = 4 butterflies.
        let g = BipartiteGraph::complete(3, 3);
        let s = edge_supports(&g);
        assert!(s.iter().all(|&x| x == 4));
        assert_eq!(total_from_supports(&s), 9);
    }

    #[test]
    fn wedge_expansion_matches_algebraic() {
        let g = BipartiteGraph::from_edges(
            5,
            5,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
                (3, 2),
                (3, 3),
                (4, 3),
                (4, 4),
                (0, 4),
            ],
        )
        .unwrap();
        let a = edge_supports(&g);
        assert_eq!(a, edge_supports_algebraic(&g));
        assert_eq!(a, edge_supports_masked_spgemm(&g));
        for chunks in [1, 2, 4] {
            assert_eq!(
                checked_edge_supports(&g, chunks).unwrap(),
                a,
                "chunks={chunks}"
            );
        }
    }

    #[test]
    fn supports_sum_to_four_times_count() {
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (3, 0),
                (3, 2),
            ],
        )
        .unwrap();
        let s = edge_supports(&g);
        assert_eq!(total_from_supports(&s), crate::spec::count_brute_force(&g));
    }

    #[test]
    fn support_matrix_aligns_with_adjacency() {
        let g = one_butterfly();
        let s = support_matrix(&g, &edge_supports(&g));
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.get(0, 0), 1);
        assert_eq!(s.get(1, 1), 1);
    }

    #[test]
    fn tree_edges_have_zero_support() {
        // A path has no butterflies at all.
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 0), (1, 0), (1, 1), (2, 1)]).unwrap();
        assert!(edge_supports(&g).iter().all(|&x| x == 0));
    }
}
