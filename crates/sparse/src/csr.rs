//! Compressed sparse row storage.
//!
//! The row-partitioned half of the algorithm family (paper invariants 5–8)
//! iterates over rows of `A`; the paper stores those implementations in CSR
//! "making CSR favorable for accessing adjacent row elements" (§V). This is
//! that format, generic over the stored scalar so the same container holds
//! 0/1 adjacency (`u8`/`u64`), wedge counts (`u64`), and floating-point test
//! matrices.

use crate::dense::DenseMatrix;
use crate::error::SparseError;
use crate::pattern::Pattern;
use crate::scalar::Scalar;

/// Sparse matrix in CSR format: row offsets, sorted column indices, values.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T: Scalar> {
    nrows: usize,
    ncols: usize,
    rowptr: Vec<usize>,
    colind: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// All-zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rowptr: vec![0; nrows + 1],
            colind: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Internal trusted constructor used by [`Pattern::to_csr`] and the ops
    /// module. Debug-asserts structural invariants.
    pub(crate) fn from_pattern_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(rowptr.len(), nrows + 1);
        debug_assert_eq!(colind.len(), values.len());
        debug_assert_eq!(*rowptr.last().unwrap(), colind.len());
        Self {
            nrows,
            ncols,
            rowptr,
            colind,
            values,
        }
    }

    /// Build from parallel triplet slices, summing duplicate coordinates.
    /// Panics if slice lengths differ; bounds must already hold.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        rows: &[u32],
        cols: &[u32],
        vals: &[T],
    ) -> Self {
        assert_eq!(rows.len(), cols.len());
        assert_eq!(rows.len(), vals.len());
        // Counting sort by row.
        let mut counts = vec![0usize; nrows + 1];
        for &r in rows {
            assert!((r as usize) < nrows, "row index out of bounds");
            counts[r as usize + 1] += 1;
        }
        for i in 0..nrows {
            counts[i + 1] += counts[i];
        }
        let nnz = rows.len();
        let mut ci = vec![0u32; nnz];
        let mut cv = vec![T::ZERO; nnz];
        let mut cursor = counts.clone();
        for k in 0..nnz {
            assert!((cols[k] as usize) < ncols, "column index out of bounds");
            let p = &mut cursor[rows[k] as usize];
            ci[*p] = cols[k];
            cv[*p] = vals[k];
            *p += 1;
        }
        // Per-row sort by column and merge duplicates, compacting leftwards
        // (the write cursor never overtakes the read cursor).
        let mut rowptr = vec![0usize; nrows + 1];
        let mut write = 0usize;
        let mut pairs: Vec<(u32, T)> = Vec::new();
        for r in 0..nrows {
            let (start, end) = (counts[r], counts[r + 1]);
            rowptr[r] = write;
            pairs.clear();
            pairs.extend(
                ci[start..end]
                    .iter()
                    .zip(&cv[start..end])
                    .map(|(&c, &v)| (c, v)),
            );
            pairs.sort_unstable_by_key(|&(c, _)| c);
            let mut last_col: Option<u32> = None;
            for &(c, v) in &pairs {
                if last_col == Some(c) {
                    cv[write - 1] += v;
                } else {
                    ci[write] = c;
                    cv[write] = v;
                    write += 1;
                    last_col = Some(c);
                }
            }
        }
        rowptr[nrows] = write;
        ci.truncate(write);
        cv.truncate(write);
        Self {
            nrows,
            ncols,
            rowptr,
            colind: ci,
            values: cv,
        }
    }

    /// Construct from raw parts with full validation.
    pub fn try_from_raw_parts(
        nrows: usize,
        ncols: usize,
        rowptr: Vec<usize>,
        colind: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if rowptr.len() != nrows + 1 {
            return Err(SparseError::Malformed("rowptr length must be nrows + 1"));
        }
        if colind.len() != values.len() {
            return Err(SparseError::Malformed("colind/values length mismatch"));
        }
        if rowptr[0] != 0 || *rowptr.last().unwrap() != colind.len() {
            return Err(SparseError::Malformed("rowptr endpoints inconsistent"));
        }
        for w in rowptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::Malformed("rowptr not monotone"));
            }
        }
        for r in 0..nrows {
            let row = &colind[rowptr[r]..rowptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Malformed("columns not strictly sorted"));
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
            rowptr,
            colind,
            values,
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

    /// Shape `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of explicitly stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.colind.len()
    }

    /// Stored values.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Sorted column indices of row `r`.
    #[inline]
    pub fn row_indices(&self, r: usize) -> &[u32] {
        &self.colind[self.rowptr[r]..self.rowptr[r + 1]]
    }

    /// Values of row `r`, parallel to [`Self::row_indices`].
    #[inline]
    pub fn row_values(&self, r: usize) -> &[T] {
        &self.values[self.rowptr[r]..self.rowptr[r + 1]]
    }

    /// `(indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[T]) {
        (self.row_indices(r), self.row_values(r))
    }

    /// Value at `(r, c)`, `ZERO` when not stored.
    pub fn get(&self, r: usize, c: u32) -> T {
        match self.row_indices(r).binary_search(&c) {
            Ok(k) => self.row_values(r)[k],
            Err(_) => T::ZERO,
        }
    }

    /// Transposed copy (still CSR; the result is simultaneously the CSC view
    /// of `self`).
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.colind {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut ci = vec![0u32; self.nnz()];
        let mut cv = vec![T::ZERO; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let p = &mut cursor[c as usize];
                ci[*p] = r as u32;
                cv[*p] = v;
                *p += 1;
            }
        }
        Self {
            nrows: self.ncols,
            ncols: self.nrows,
            rowptr: counts,
            colind: ci,
            values: cv,
        }
    }

    /// Densify (reference implementations / tests).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut m = DenseMatrix::zeros(self.nrows, self.ncols);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                m.set(r, c as usize, v);
            }
        }
        m
    }

    /// The structural pattern (drop values).
    pub fn pattern(&self) -> Pattern {
        Pattern::from_raw_parts(
            self.nrows,
            self.ncols,
            self.rowptr.clone(),
            self.colind.clone(),
        )
        .expect("CSR invariants imply a valid pattern")
    }

    /// Trace `Γ(X)` of a square matrix.
    pub fn trace(&self) -> T {
        assert_eq!(self.nrows, self.ncols, "trace of a non-square matrix");
        let mut t = T::ZERO;
        for i in 0..self.nrows {
            t += self.get(i, i as u32);
        }
        t
    }

    /// Sum of all stored values, `Σᵢⱼ Xᵢⱼ`.
    pub fn sum(&self) -> T {
        let mut s = T::ZERO;
        for &v in &self.values {
            s += v;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix<u64> {
        // 1 0 2
        // 0 3 0
        CsrMatrix::from_triplets(2, 3, &[0, 0, 1], &[0, 2, 1], &[1, 2, 3])
    }

    #[test]
    fn triplets_sum_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[0, 0, 1], &[1, 1, 0], &[2u64, 5, 1]);
        assert_eq!(m.get(0, 1), 7);
        assert_eq!(m.get(1, 0), 1);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn rows_are_sorted() {
        let m = CsrMatrix::from_triplets(1, 4, &[0, 0, 0], &[3, 0, 2], &[1u64, 1, 1]);
        assert_eq!(m.row_indices(0), &[0, 2, 3]);
    }

    #[test]
    fn get_missing_is_zero() {
        let m = sample();
        assert_eq!(m.get(0, 1), 0);
        assert_eq!(m.get(1, 2), 0);
        assert_eq!(m.get(0, 2), 2);
    }

    #[test]
    fn transpose_matches_dense() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose().to_dense(), m.to_dense());
    }

    #[test]
    fn trace_and_sum() {
        let m = CsrMatrix::from_triplets(2, 2, &[0, 0, 1], &[0, 1, 1], &[4u64, 9, 6]);
        assert_eq!(m.trace(), 10);
        assert_eq!(m.sum(), 19);
    }

    #[test]
    fn raw_parts_validation() {
        assert!(CsrMatrix::<u64>::try_from_raw_parts(1, 2, vec![0, 1], vec![0], vec![1]).is_ok());
        assert!(
            CsrMatrix::<u64>::try_from_raw_parts(1, 2, vec![0, 2], vec![1, 0], vec![1, 1]).is_err()
        );
        assert!(CsrMatrix::<u64>::try_from_raw_parts(1, 2, vec![0, 1], vec![9], vec![1]).is_err());
        assert!(CsrMatrix::<u64>::try_from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1]).is_err());
    }

    #[test]
    fn pattern_extraction() {
        let m = sample();
        let p = m.pattern();
        assert_eq!(p.nnz(), m.nnz());
        assert!(p.contains(0, 2));
        assert!(!p.contains(1, 2));
    }
}
