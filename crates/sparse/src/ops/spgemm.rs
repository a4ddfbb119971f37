//! Sparse general matrix–matrix multiplication (Gustavson's algorithm).
//!
//! `B = A·Aᵀ` is the wedge matrix at the heart of the paper: `B_ij` counts
//! paths of length two between vertices `i, j ∈ V1`. The SpGEMM here is the
//! row-wise Gustavson formulation with a sparse accumulator, in sequential
//! and rayon-parallel flavours. The parallel version computes disjoint row
//! blocks independently (each worker owns its own SPA — no shared mutable
//! state) and stitches the results, so it is deterministic for integer
//! scalars. The masked variant evaluates the product only at the positions
//! of a structural mask (eq. 25's `∘ A`).

use crate::csr::CsrMatrix;
use crate::error::ShapeError;
use crate::pattern::Pattern;
use crate::scalar::Scalar;
use crate::spa::Spa;
use rayon::prelude::*;

/// `C = A · B` using Gustavson's row-wise algorithm.
pub fn spgemm<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<CsrMatrix<T>, ShapeError> {
    if a.ncols() != b.nrows() {
        return Err(ShapeError {
            op: "spgemm",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let mut spa = Spa::<T>::new(b.ncols());
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    let mut colind = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0usize);
    for i in 0..a.nrows() {
        let (acols, avals) = a.row(i);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                spa.scatter(j, av * bv);
            }
        }
        let (idx, vals) = spa.drain_sorted();
        colind.extend_from_slice(&idx);
        values.extend_from_slice(&vals);
        rowptr.push(colind.len());
    }
    Ok(CsrMatrix::from_pattern_parts(
        a.nrows(),
        b.ncols(),
        rowptr,
        colind,
        values,
    ))
}

/// Parallel `C = A · B`: rows of `A` are processed independently with one
/// SPA per rayon worker, then concatenated. Bit-identical to [`spgemm`] for
/// integer scalars.
pub fn spgemm_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> Result<CsrMatrix<T>, ShapeError> {
    if a.ncols() != b.nrows() {
        return Err(ShapeError {
            op: "spgemm_parallel",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    let rows: Vec<(Vec<u32>, Vec<T>)> = (0..a.nrows())
        .into_par_iter()
        .map_init(
            || Spa::<T>::new(b.ncols()),
            |spa, i| {
                let (acols, avals) = a.row(i);
                for (&k, &av) in acols.iter().zip(avals) {
                    let (bcols, bvals) = b.row(k as usize);
                    for (&j, &bv) in bcols.iter().zip(bvals) {
                        spa.scatter(j, av * bv);
                    }
                }
                spa.drain_sorted()
            },
        )
        .collect();

    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    rowptr.push(0usize);
    let total: usize = rows.iter().map(|(idx, _)| idx.len()).sum();
    let mut colind = Vec::with_capacity(total);
    let mut values = Vec::with_capacity(total);
    for (idx, vals) in rows {
        colind.extend_from_slice(&idx);
        values.extend_from_slice(&vals);
        rowptr.push(colind.len());
    }
    Ok(CsrMatrix::from_pattern_parts(
        a.nrows(),
        b.ncols(),
        rowptr,
        colind,
        values,
    ))
}

/// Masked product `C = (A · B) ∘ M`, where `M` is a structural mask: only
/// positions present in `mask` are computed or stored. This is the shape
/// of the k-wing support formula `S_w = (…AAᵀA…) ∘ A` (paper eq. 25):
/// computing the product only where `A` is nonzero skips the overwhelming
/// majority of `AAᵀA`'s fill-in.
pub fn spgemm_masked<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    mask: &Pattern,
) -> Result<CsrMatrix<T>, ShapeError> {
    if a.ncols() != b.nrows() {
        return Err(ShapeError {
            op: "spgemm_masked",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    if (mask.nrows(), mask.ncols()) != (a.nrows(), b.ncols()) {
        return Err(ShapeError {
            op: "spgemm_masked (mask shape)",
            lhs: (mask.nrows(), mask.ncols()),
            rhs: (a.nrows(), b.ncols()),
        });
    }
    // Dot-product formulation restricted to mask positions: for each
    // masked (i, j), accumulate over A's row i joined with B's column j.
    // B is accessed by column, so transpose it once.
    let bt = b.transpose();
    let mut rowptr = Vec::with_capacity(a.nrows() + 1);
    let mut colind = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0usize);
    for i in 0..a.nrows() {
        let (ac, av) = a.row(i);
        for &j in mask.row(i) {
            let (bc, bv) = bt.row(j as usize);
            // Sorted-merge dot product of row i of A and row j of Bᵀ.
            let (mut p, mut q) = (0usize, 0usize);
            let mut s = T::ZERO;
            while p < ac.len() && q < bc.len() {
                match ac[p].cmp(&bc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        s += av[p] * bv[q];
                        p += 1;
                        q += 1;
                    }
                }
            }
            if !s.is_zero() {
                colind.push(j);
                values.push(s);
            }
        }
        rowptr.push(colind.len());
    }
    Ok(CsrMatrix::from_pattern_parts(
        a.nrows(),
        b.ncols(),
        rowptr,
        colind,
        values,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> CsrMatrix<u64> {
        // 1 1 0
        // 0 1 1
        CsrMatrix::from_triplets(2, 3, &[0, 0, 1, 1], &[0, 1, 1, 2], &[1, 1, 1, 1])
    }

    #[test]
    fn aat_counts_wedge_paths() {
        let a = a();
        let b = spgemm(&a, &a.transpose()).unwrap();
        // B = [[2,1],[1,2]]
        assert_eq!(b.get(0, 0), 2);
        assert_eq!(b.get(0, 1), 1);
        assert_eq!(b.get(1, 0), 1);
        assert_eq!(b.get(1, 1), 2);
    }

    #[test]
    fn matches_dense_matmul() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[0, 0, 1, 2, 2],
            &[0, 2, 1, 0, 2],
            &[2u64, 3, 5, 7, 1],
        );
        let b = CsrMatrix::from_triplets(3, 2, &[0, 1, 2, 2], &[1, 0, 0, 1], &[1u64, 4, 2, 6]);
        let c = spgemm(&a, &b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert_eq!(c.to_dense(), dense);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = CsrMatrix::<u64>::zeros(2, 3);
        let b = CsrMatrix::<u64>::zeros(2, 3);
        assert!(spgemm(&a, &b).is_err());
        assert!(spgemm_parallel(&a, &b).is_err());
    }

    #[test]
    fn empty_operands() {
        let a = CsrMatrix::<u64>::zeros(2, 3);
        let b = CsrMatrix::<u64>::zeros(3, 4);
        let c = spgemm(&a, &b).unwrap();
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn parallel_matches_sequential() {
        // Pseudo-random sparse matrix via a simple LCG so the test is
        // deterministic without a rand dependency here.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let (m, k, n) = (40, 30, 35);
        let mut rows = Vec::new();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for _ in 0..400 {
            rows.push((next() % m as u64) as u32);
            cols.push((next() % k as u64) as u32);
            vals.push(next() % 5 + 1);
        }
        let a = CsrMatrix::from_triplets(m, k, &rows, &cols, &vals);
        let mut rows2 = Vec::new();
        let mut cols2 = Vec::new();
        let mut vals2 = Vec::new();
        for _ in 0..350 {
            rows2.push((next() % k as u64) as u32);
            cols2.push((next() % n as u64) as u32);
            vals2.push(next() % 5 + 1);
        }
        let b = CsrMatrix::from_triplets(k, n, &rows2, &cols2, &vals2);
        let seq = spgemm(&a, &b).unwrap();
        let par = spgemm_parallel(&a, &b).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.to_dense(), a.to_dense().matmul(&b.to_dense()).unwrap());
    }

    #[test]
    fn identity_is_neutral() {
        let a = a();
        let i3: CsrMatrix<u64> = CsrMatrix::from_triplets(3, 3, &[0, 1, 2], &[0, 1, 2], &[1, 1, 1]);
        let c = spgemm(&a, &i3).unwrap();
        assert_eq!(c.to_dense(), a.to_dense());
    }

    #[test]
    fn masked_product_restricts_to_mask() {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[0, 0, 1, 2, 2],
            &[0, 2, 1, 0, 2],
            &[2u64, 3, 5, 7, 1],
        );
        let b = CsrMatrix::from_triplets(3, 3, &[0, 1, 1, 2], &[1, 0, 2, 1], &[1u64, 4, 2, 6]);
        let mask = Pattern::from_edges(3, 3, &[(0, 1), (2, 1), (1, 1)]).unwrap();
        let c = spgemm_masked(&a, &b, &mask).unwrap();
        let full = spgemm(&a, &b).unwrap();
        for r in 0..3 {
            for j in 0..3u32 {
                if mask.contains(r, j) {
                    assert_eq!(c.get(r, j), full.get(r, j), "({r},{j})");
                } else {
                    assert_eq!(c.get(r, j), 0, "({r},{j}) outside mask");
                }
            }
        }
    }

    #[test]
    fn masked_shape_errors() {
        let a = CsrMatrix::<u64>::zeros(3, 3);
        assert!(spgemm_masked(&a, &a, &Pattern::empty(2, 3)).is_err());
        let bad_b = CsrMatrix::<u64>::zeros(4, 3);
        assert!(spgemm_masked(&a, &bad_b, &Pattern::empty(3, 3)).is_err());
    }
}
