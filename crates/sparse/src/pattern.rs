//! Value-free sparse pattern (the 0/1 matrices of the paper).
//!
//! A bipartite biadjacency matrix `A` is a 0/1 matrix, so storing values is
//! pure overhead. [`Pattern`] is CSR-shaped storage of just the structure:
//! row offsets plus sorted, deduplicated column indices. Two patterns — one
//! for `A` and one for `Aᵀ` — give exactly the CSR/CSC pair the paper uses
//! for the two halves of the algorithm family (invariants 1–4 iterate
//! columns of `A`, i.e. rows of `Aᵀ`; invariants 5–8 iterate rows of `A`).
//!
//! Patterns also serve as the element-wise masks of the peeling
//! formulations: `A₁ = A₀ ∘ M` (paper eqs. 22 and 27) with `M` selecting
//! the surviving rows and columns is [`Pattern::mask_rows_cols`].

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::scalar::Scalar;

/// Sparse 0/1 matrix stored as row offsets + sorted column indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    nrows: usize,
    ncols: usize,
    ptr: Vec<usize>,
    idx: Vec<u32>,
}

impl Pattern {
    /// Empty pattern (no nonzeros) of the given shape.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            ptr: vec![0; nrows + 1],
            idx: Vec::new(),
        }
    }

    /// Build from an edge list. Entries are sorted and deduplicated, so the
    /// result is a simple 0/1 matrix regardless of input multiplicity.
    pub fn from_edges(
        nrows: usize,
        ncols: usize,
        edges: &[(u32, u32)],
    ) -> Result<Self, SparseError> {
        for &(r, c) in edges {
            if r as usize >= nrows {
                return Err(SparseError::RowOutOfBounds {
                    row: r as usize,
                    nrows,
                });
            }
            if c as usize >= ncols {
                return Err(SparseError::ColOutOfBounds {
                    col: c as usize,
                    ncols,
                });
            }
        }
        // Counting sort by row, then per-row sort + dedup.
        let mut counts = vec![0usize; nrows + 1];
        for &(r, _) in edges {
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let mut idx = vec![0u32; edges.len()];
        let mut cursor = counts.clone();
        for &(r, c) in edges {
            let p = &mut cursor[r as usize];
            idx[*p] = c;
            *p += 1;
        }
        // Sort and dedup each row in place, compacting leftwards as we go
        // (the write cursor never overtakes the read cursor).
        let mut ptr = vec![0usize; nrows + 1];
        let mut write = 0usize;
        for r in 0..nrows {
            let (start, end) = (counts[r], counts[r + 1]);
            idx[start..end].sort_unstable();
            let mut prev: Option<u32> = None;
            ptr[r] = write;
            for k in start..end {
                let c = idx[k];
                if prev != Some(c) {
                    idx[write] = c;
                    write += 1;
                    prev = Some(c);
                }
            }
        }
        ptr[nrows] = write;
        idx.truncate(write);
        Ok(Self {
            nrows,
            ncols,
            ptr,
            idx,
        })
    }

    /// Construct from raw CSR-style parts. Validates monotonicity, bounds,
    /// and sortedness.
    pub fn from_raw_parts(
        nrows: usize,
        ncols: usize,
        ptr: Vec<usize>,
        idx: Vec<u32>,
    ) -> Result<Self, SparseError> {
        if ptr.len() != nrows + 1 {
            return Err(SparseError::Malformed("ptr length must be nrows + 1"));
        }
        if ptr[0] != 0 || *ptr.last().unwrap() != idx.len() {
            return Err(SparseError::Malformed("ptr endpoints inconsistent"));
        }
        for w in ptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::Malformed("ptr not monotone"));
            }
        }
        for r in 0..nrows {
            let row = &idx[ptr[r]..ptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Malformed("row indices not strictly sorted"));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(SparseError::ColOutOfBounds {
                        col: last as usize,
                        ncols,
                    });
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            ptr,
            idx,
        })
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// Sorted column indices of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        &self.idx[self.ptr[r]..self.ptr[r + 1]]
    }

    /// Number of entries in row `r` (vertex degree when this is an
    /// adjacency structure).
    #[inline]
    pub fn row_nnz(&self, r: usize) -> usize {
        self.ptr[r + 1] - self.ptr[r]
    }

    /// Row offset array.
    #[inline]
    pub fn ptr(&self) -> &[usize] {
        &self.ptr
    }

    /// Column index array.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// Whether entry `(r, c)` is present (binary search in the sorted row).
    pub fn contains(&self, r: usize, c: u32) -> bool {
        self.row(r).binary_search(&c).is_ok()
    }

    /// Iterate `(row, col)` pairs in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.nrows).flat_map(move |r| self.row(r).iter().map(move |&c| (r as u32, c)))
    }

    /// Transposed pattern (CSR of `Aᵀ`, equivalently the CSC view of `A`).
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut idx = vec![0u32; self.idx.len()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            for &c in self.row(r) {
                let p = &mut cursor[c as usize];
                idx[*p] = r as u32;
                *p += 1;
            }
        }
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            ptr: counts,
            idx,
        }
    }

    /// Keep only rows flagged in `row_mask` and columns flagged in
    /// `col_mask`, zeroing everything else (dimensions are preserved — this
    /// is masking, not compaction, matching the paper's `A ∘ M`).
    pub fn mask_rows_cols(&self, row_mask: &[bool], col_mask: &[bool]) -> Pattern {
        assert_eq!(row_mask.len(), self.nrows);
        assert_eq!(col_mask.len(), self.ncols);
        let mut ptr = Vec::with_capacity(self.nrows + 1);
        let mut idx = Vec::new();
        ptr.push(0);
        for r in 0..self.nrows {
            if row_mask[r] {
                for &c in self.row(r) {
                    if col_mask[c as usize] {
                        idx.push(c);
                    }
                }
            }
            ptr.push(idx.len());
        }
        Pattern {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr,
            idx,
        }
    }

    /// Size of the intersection of row `r` and row `s` (number of common
    /// column indices) — `|N(u) ∩ N(w)|` in the k-wing derivation.
    pub fn row_intersection_size(&self, r: usize, s: usize) -> usize {
        let (mut a, mut b) = (self.row(r), self.row(s));
        let mut n = 0;
        while let (Some(&x), Some(&y)) = (a.first(), b.first()) {
            match x.cmp(&y) {
                std::cmp::Ordering::Less => a = &a[1..],
                std::cmp::Ordering::Greater => b = &b[1..],
                std::cmp::Ordering::Equal => {
                    n += 1;
                    a = &a[1..];
                    b = &b[1..];
                }
            }
        }
        n
    }

    /// Convert to a valued CSR matrix with every stored entry set to one.
    pub fn to_csr<T: Scalar>(&self) -> CsrMatrix<T> {
        CsrMatrix::from_pattern_parts(
            self.nrows,
            self.ncols,
            self.ptr.clone(),
            self.idx.clone(),
            vec![T::ONE; self.idx.len()],
        )
    }

    /// Convert to a dense 0/1 matrix (reference implementations / tests).
    pub fn to_dense<T: Scalar>(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for &c in self.row(r) {
                m.set(r, c as usize, T::ONE);
            }
        }
        m
    }

    /// Permute rows: row `r` of the result is row `perm[r]` of `self`.
    pub fn permute_rows(&self, perm: &[u32]) -> Pattern {
        assert_eq!(perm.len(), self.nrows);
        let mut ptr = Vec::with_capacity(self.nrows + 1);
        let mut idx = Vec::with_capacity(self.idx.len());
        ptr.push(0);
        for &src in perm {
            idx.extend_from_slice(self.row(src as usize));
            ptr.push(idx.len());
        }
        Pattern {
            nrows: self.nrows,
            ncols: self.ncols,
            ptr,
            idx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Pattern {
        // 3x4:
        // 1 0 1 0
        // 0 1 1 1
        // 0 0 0 0
        Pattern::from_edges(3, 4, &[(0, 0), (0, 2), (1, 1), (1, 2), (1, 3)]).unwrap()
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let p = Pattern::from_edges(2, 3, &[(1, 2), (0, 1), (1, 0), (1, 2), (0, 1)]).unwrap();
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.row(0), &[1]);
        assert_eq!(p.row(1), &[0, 2]);
    }

    #[test]
    fn from_edges_bounds_checked() {
        assert!(matches!(
            Pattern::from_edges(2, 2, &[(2, 0)]),
            Err(SparseError::RowOutOfBounds { .. })
        ));
        assert!(matches!(
            Pattern::from_edges(2, 2, &[(0, 5)]),
            Err(SparseError::ColOutOfBounds { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let p = small();
        let t = p.transpose();
        assert_eq!(t.nrows(), 4);
        assert_eq!(t.ncols(), 3);
        assert_eq!(t.row(2), &[0, 1]);
        assert_eq!(t.transpose(), p);
    }

    #[test]
    fn transpose_preserves_nnz_and_entries() {
        let p = small();
        let t = p.transpose();
        assert_eq!(p.nnz(), t.nnz());
        for (r, c) in p.iter_entries() {
            assert!(t.contains(c as usize, r));
        }
    }

    #[test]
    fn contains_binary_search() {
        let p = small();
        assert!(p.contains(0, 0));
        assert!(p.contains(1, 3));
        assert!(!p.contains(0, 1));
        assert!(!p.contains(2, 0));
    }

    #[test]
    fn mask_rows_cols_zeroes_but_keeps_shape() {
        let p = small();
        let m = p.mask_rows_cols(&[true, false, true], &[true, true, true, false]);
        assert_eq!(m.nrows(), 3);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.row(0), &[0, 2]);
        assert_eq!(m.row(1), &[] as &[u32]);
    }

    #[test]
    fn row_intersection_size_matches_manual() {
        let p =
            Pattern::from_edges(2, 5, &[(0, 0), (0, 2), (0, 4), (1, 2), (1, 3), (1, 4)]).unwrap();
        assert_eq!(p.row_intersection_size(0, 1), 2);
        assert_eq!(p.row_intersection_size(0, 0), 3);
    }

    #[test]
    fn to_dense_roundtrip_entries() {
        let p = small();
        let d = p.to_dense::<u64>();
        assert_eq!(d.get(0, 2), 1);
        assert_eq!(d.get(2, 3), 0);
        assert_eq!(d.sum(), p.nnz() as u64);
    }

    #[test]
    fn from_raw_parts_validation() {
        assert!(Pattern::from_raw_parts(2, 2, vec![0, 1], vec![0]).is_err()); // short ptr
        assert!(Pattern::from_raw_parts(1, 2, vec![0, 2], vec![1, 0]).is_err()); // unsorted
        assert!(Pattern::from_raw_parts(1, 2, vec![0, 2], vec![0, 0]).is_err()); // dup
        assert!(Pattern::from_raw_parts(1, 2, vec![0, 1], vec![5]).is_err()); // col oob
        assert!(Pattern::from_raw_parts(1, 2, vec![0, 1], vec![1]).is_ok());
    }

    #[test]
    fn permute_rows_reorders() {
        let p = small();
        let q = p.permute_rows(&[1, 0, 2]);
        assert_eq!(q.row(0), p.row(1));
        assert_eq!(q.row(1), p.row(0));
    }

    #[test]
    fn empty_pattern() {
        let p = Pattern::empty(3, 3);
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.row(1), &[] as &[u32]);
        assert_eq!(p.transpose().nnz(), 0);
    }
}
