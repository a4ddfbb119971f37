//! Property tests for the sparse substrate: the algebraic identities the
//! butterfly derivation relies on, checked on arbitrary matrices.

use bfly_sparse::ops::{frobenius_inner, hadamard, spgemm, spgemm_masked, spgemm_parallel};
use bfly_sparse::{choose2, CsrMatrix, PairAccum, Pattern, Spa};
use proptest::prelude::*;

const DIM: usize = 12;

/// Arbitrary small integer matrix with the given shape.
fn arb_matrix(nrows: usize, ncols: usize) -> impl Strategy<Value = CsrMatrix<i64>> {
    proptest::collection::vec(
        (0..nrows as u32, 0..ncols as u32, 1i64..5),
        0..(nrows * ncols),
    )
    .prop_map(move |trips| {
        let rows: Vec<u32> = trips.iter().map(|t| t.0).collect();
        let cols: Vec<u32> = trips.iter().map(|t| t.1).collect();
        let vals: Vec<i64> = trips.iter().map(|t| t.2).collect();
        CsrMatrix::from_triplets(nrows, ncols, &rows, &cols, &vals)
    })
}

fn arb_pattern(nrows: usize, ncols: usize) -> impl Strategy<Value = Pattern> {
    proptest::collection::vec((0..nrows as u32, 0..ncols as u32), 0..(nrows * ncols))
        .prop_map(move |edges| Pattern::from_edges(nrows, ncols, &edges).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// SpGEMM against the dense reference, and parallel == sequential.
    #[test]
    fn spgemm_matches_dense(a in arb_matrix(DIM, DIM), b in arb_matrix(DIM, DIM)) {
        let c = spgemm(&a, &b).unwrap();
        prop_assert_eq!(c.to_dense(), a.to_dense().matmul(&b.to_dense()).unwrap());
        prop_assert_eq!(&spgemm_parallel(&a, &b).unwrap(), &c);
    }

    /// Transposition is an involution and matches dense.
    #[test]
    fn transpose_involution(a in arb_matrix(DIM, DIM + 3)) {
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        prop_assert_eq!(a.transpose().to_dense(), a.to_dense().transpose());
    }

    /// Paper identity (3): Σᵢⱼ (X ∘ Y) = Γ(X·Yᵀ).
    #[test]
    fn frobenius_equals_trace(x in arb_matrix(DIM, DIM), y in arb_matrix(DIM, DIM)) {
        let lhs = frobenius_inner(&x, &y).unwrap();
        let rhs = spgemm(&x, &y.transpose()).unwrap().trace();
        prop_assert_eq!(lhs, rhs);
    }

    /// Hadamard matches dense and is commutative.
    #[test]
    fn hadamard_identities(x in arb_matrix(DIM, DIM), y in arb_matrix(DIM, DIM)) {
        let h = hadamard(&x, &y).unwrap();
        prop_assert_eq!(h.to_dense(), x.to_dense().hadamard(&y.to_dense()).unwrap());
        prop_assert_eq!(hadamard(&y, &x).unwrap().to_dense(), h.to_dense());
    }

    /// Masked SpGEMM equals the full product restricted to the mask.
    #[test]
    fn masked_spgemm_restriction(
        a in arb_matrix(DIM, DIM),
        b in arb_matrix(DIM, DIM),
        mask in arb_pattern(DIM, DIM),
    ) {
        let full = spgemm(&a, &b).unwrap();
        let masked = spgemm_masked(&a, &b, &mask).unwrap();
        for r in 0..DIM {
            for c in 0..DIM as u32 {
                let want = if mask.contains(r, c) { full.get(r, c) } else { 0 };
                prop_assert_eq!(masked.get(r, c), want);
            }
        }
    }

    /// Pattern transpose round-trips and preserves membership.
    #[test]
    fn pattern_transpose_roundtrip(p in arb_pattern(DIM, DIM + 4)) {
        let t = p.transpose();
        prop_assert_eq!(t.transpose(), p.clone());
        for (r, c) in p.iter_entries() {
            prop_assert!(t.contains(c as usize, r));
        }
        prop_assert_eq!(p.nnz(), t.nnz());
    }

    /// The one-touch accumulator against the SPA drain it replaces: per
    /// generation, the hits' returns sum to `Σ C(cnt, 2)` and the zero
    /// returns count the touched slots.
    #[test]
    fn pair_accum_matches_spa_drain(
        rounds in proptest::collection::vec(
            proptest::collection::vec(0..DIM as u32, 0..4 * DIM),
            1..8,
        ),
    ) {
        let mut pairs = PairAccum::new(DIM);
        let mut spa = Spa::<u64>::new(DIM);
        for hits in rounds {
            let (mut sum, mut fresh) = (0u64, 0usize);
            for &i in &hits {
                let before = pairs.hit(i);
                sum += before;
                fresh += usize::from(before == 0);
                spa.scatter(i, 1);
            }
            let want: u64 = spa.entries().map(|(_, cnt)| choose2(cnt)).sum();
            prop_assert_eq!(sum, want);
            prop_assert_eq!(fresh, spa.touched_len());
            pairs.clear();
            spa.clear();
        }
    }
}
