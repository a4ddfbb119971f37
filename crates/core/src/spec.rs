//! Specification-level butterfly counters.
//!
//! Three independent reference implementations of the count, at three
//! levels of the paper's derivation:
//!
//! 1. [`count_brute_force`] — the *definition*: for every vertex pair
//!    `i < j ∈ V1`, `C(|N(i) ∩ N(j)|, 2)` butterflies. Quadratic in `|V1|`;
//!    use on small graphs only.
//! 2. [`count_dense_formula`] — a literal transliteration of the paper's
//!    eq. 7: `Ξ_G = ¼Γ(AAᵀAAᵀ) − ¼Γ(AAᵀ∘AAᵀ) − (¼Γ(JAAᵀ) − ¼Γ(AAᵀ))`
//!    over dense matrices. This is the postcondition every derived
//!    algorithm must satisfy.
//! 3. [`count_via_spgemm`] — the sparse-linear-algebra mid-point: form
//!    `B = A·Aᵀ` with SpGEMM and evaluate `Σ_{i<j} C(B_ij, 2)` directly.
//!
//! The family in [`crate::family`] is tested to agree with all three.

use bfly_graph::BipartiteGraph;
use bfly_sparse::ops::spgemm;
use bfly_sparse::{choose2, CsrMatrix, DenseMatrix};

/// Butterfly count by definition: `Σ_{i<j∈V1} C(|N(i) ∩ N(j)|, 2)`.
///
/// `O(|V1|² · Δ)` — reference/testing only.
pub fn count_brute_force(g: &BipartiteGraph) -> u64 {
    let a = g.biadjacency();
    let m = g.nv1();
    let mut total = 0u64;
    for i in 0..m {
        for j in (i + 1)..m {
            total += choose2(a.row_intersection_size(i, j) as u64);
        }
    }
    total
}

/// Literal dense evaluation of the paper's specification (eq. 7).
///
/// All four traces are computed over `i128` so the subtractions cannot
/// wrap; the result is asserted divisible by 4 (it always is for a valid
/// 0/1 biadjacency — the expression counts closed walks in multiples of 4).
pub fn count_dense_formula(g: &BipartiteGraph) -> u64 {
    let a: DenseMatrix<i64> = g.to_dense();
    let at = a.transpose();
    let b = a.matmul(&at).expect("A·Aᵀ shapes conform");
    let bb = b.matmul(&b).expect("B·B shapes conform");
    let b_had_b = b.hadamard(&b).expect("B∘B shapes conform");
    let t1 = bb.trace() as i128; // Γ(AAᵀAAᵀ): closed 4-walks
    let t2 = b_had_b.trace() as i128; // Γ(AAᵀ∘AAᵀ) restricted to diag = Σ B_ii²
    let t3 = b.sum() as i128; // Γ(JAAᵀ) = Σᵢⱼ Bᵢⱼ
    let t4 = b.trace() as i128; // Γ(AAᵀ)
                                // Note Γ(B ∘ B) is the trace of the Hadamard square, i.e. Σᵢ Bᵢᵢ².
    let four_xi = t1 - t2 - (t3 - t4);
    assert!(four_xi >= 0, "specification value must be non-negative");
    assert_eq!(four_xi % 4, 0, "specification value must be divisible by 4");
    (four_xi / 4) as u64
}

/// Sparse evaluation via `B = A·Aᵀ`: `Σ_{i<j} C(B_ij, 2)`, using the
/// symmetry of `B` (off-diagonal sum halved, exactly the step from eq. 1
/// to eq. 2 in the paper).
pub fn count_via_spgemm(g: &BipartiteGraph) -> u64 {
    let a: CsrMatrix<u64> = g.to_csr();
    let b = spgemm(&a, &a.transpose()).expect("A·Aᵀ shapes conform");
    sum_offdiag_choose2(&b) / 2
}

/// `Σ_{i≠j} C(B_ij, 2)` over a (symmetric) wedge matrix.
fn sum_offdiag_choose2(b: &CsrMatrix<u64>) -> u64 {
    let mut acc = 0u64;
    for i in 0..b.nrows() {
        let (cols, vals) = b.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            if j as usize != i {
                acc += choose2(v);
            }
        }
    }
    acc
}

/// Total number of wedges with distinct endpoints in `V1` (paper eq. 6:
/// `W = ½Γ(JBᵀ) − ½Γ(B)`), evaluated sparsely.
pub fn wedge_count_v1_endpoints(g: &BipartiteGraph) -> u64 {
    let a: CsrMatrix<u64> = g.to_csr();
    let b = spgemm(&a, &a.transpose()).expect("A·Aᵀ shapes conform");
    let sum: u64 = b.sum(); // Γ(JBᵀ)
    let tr: u64 = b.trace(); // Γ(B)
    (sum - tr) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 1's butterfly: one 2×2 biclique.
    fn one_butterfly() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap()
    }

    /// K_{3,3} has C(3,2)² = 9 butterflies.
    fn k33() -> BipartiteGraph {
        BipartiteGraph::complete(3, 3)
    }

    #[test]
    fn brute_force_known_counts() {
        assert_eq!(count_brute_force(&one_butterfly()), 1);
        assert_eq!(count_brute_force(&k33()), 9);
        assert_eq!(count_brute_force(&BipartiteGraph::complete(4, 5)), 60); // C(4,2)·C(5,2)
        assert_eq!(count_brute_force(&BipartiteGraph::empty(5, 5)), 0);
    }

    #[test]
    fn a_path_has_no_butterflies() {
        // Path u0 - v0 - u1 - v1: a single wedge pair but only 3 edges.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]).unwrap();
        assert_eq!(count_brute_force(&g), 0);
        assert_eq!(count_dense_formula(&g), 0);
        assert_eq!(count_via_spgemm(&g), 0);
    }

    #[test]
    fn dense_formula_matches_brute_force() {
        for g in [
            one_butterfly(),
            k33(),
            BipartiteGraph::complete(4, 3),
            BipartiteGraph::from_edges(3, 3, &[(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]).unwrap(),
        ] {
            assert_eq!(count_dense_formula(&g), count_brute_force(&g));
        }
    }

    #[test]
    fn spgemm_counter_matches_brute_force() {
        for g in [
            one_butterfly(),
            k33(),
            BipartiteGraph::complete(5, 4),
            BipartiteGraph::from_edges(
                4,
                4,
                &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2), (3, 3)],
            )
            .unwrap(),
        ] {
            let want = count_brute_force(&g);
            assert_eq!(count_via_spgemm(&g), want);
        }
    }

    #[test]
    fn counting_is_side_symmetric() {
        let g = BipartiteGraph::from_edges(
            5,
            3,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (3, 1),
                (4, 2),
            ],
        )
        .unwrap();
        assert_eq!(count_via_spgemm(&g), count_via_spgemm(&g.swap_sides()));
        assert_eq!(
            count_dense_formula(&g),
            count_dense_formula(&g.swap_sides())
        );
    }

    #[test]
    fn wedge_count_matches_degree_formula() {
        let g = k33();
        // Each V2 vertex: C(3,2) = 3 wedges → 9 total.
        assert_eq!(wedge_count_v1_endpoints(&g), 9);
        assert_eq!(wedge_count_v1_endpoints(&g), g.wedges_through_v2());
        let h = one_butterfly();
        assert_eq!(wedge_count_v1_endpoints(&h), h.wedges_through_v2());
    }

    #[test]
    fn disjoint_union_is_additive() {
        let g = k33();
        let h = one_butterfly();
        let u = g.disjoint_union(&h);
        assert_eq!(
            count_via_spgemm(&u),
            count_via_spgemm(&g) + count_via_spgemm(&h)
        );
    }
}
