//! Dense matrices.
//!
//! This is the *reference* container: the paper's specification of
//! butterfly counting (eq. 7) and the peeling formulations (eqs. 19–22 and
//! 25–27) are stated over plain matrices, `J` (all ones), Hadamard products
//! and traces. The dense implementations here are deliberately
//! straightforward — they exist so that every optimised sparse algorithm in
//! the workspace can be checked against a transliteration of the maths.

use crate::error::ShapeError;
use crate::scalar::Scalar;

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// All-zeros matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// The `J` matrix of the paper: all entries one.
    pub fn ones(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ONE; nrows * ncols],
        }
    }

    /// Build from nested row slices (test convenience).
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { nrows, ncols, data }
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

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Read entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j]
    }

    /// Write entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i * self.ncols + j] = v;
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Raw row-major data.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Self) -> Result<Self, ShapeError> {
        if self.ncols != rhs.nrows {
            return Err(ShapeError {
                op: "dense matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Self::zeros(self.nrows, rhs.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let a = self.get(i, k);
                if a.is_zero() {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.ncols..(i + 1) * rhs.ncols];
                for (o, &b) in orow.iter_mut().zip(rrow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                out.set(j, i, self.get(i, j));
            }
        }
        out
    }

    /// Hadamard (element-wise) product, the paper's `∘` operator.
    pub fn hadamard(&self, rhs: &Self) -> Result<Self, ShapeError> {
        if self.shape() != rhs.shape() {
            return Err(ShapeError {
                op: "dense hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Ok(Self {
            nrows: self.nrows,
            ncols: self.ncols,
            data,
        })
    }

    /// Trace `Γ(X)`. Panics on non-square matrices.
    pub fn trace(&self) -> T {
        assert_eq!(self.nrows, self.ncols, "trace of a non-square matrix");
        let mut t = T::ZERO;
        for i in 0..self.nrows {
            t += self.get(i, i);
        }
        t
    }

    /// Sum of all entries, `Σᵢⱼ Xᵢⱼ`.
    pub fn sum(&self) -> T {
        let mut s = T::ZERO;
        for &v in &self.data {
            s += v;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = DenseMatrix::from_rows(&[&[1u64, 2], &[3, 4]]);
        let b = DenseMatrix::from_rows(&[&[5u64, 6], &[7, 8]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DenseMatrix::from_rows(&[&[19u64, 22], &[43, 50]]));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = DenseMatrix::<u64>::zeros(2, 3);
        let b = DenseMatrix::<u64>::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_roundtrip() {
        let a = DenseMatrix::from_rows(&[&[1u64, 2, 3], &[4, 5, 6]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6);
    }

    #[test]
    fn hadamard_elementwise() {
        let a = DenseMatrix::from_rows(&[&[1u64, 2], &[3, 4]]);
        let b = DenseMatrix::from_rows(&[&[10u64, 20], &[30, 40]]);
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h, DenseMatrix::from_rows(&[&[10u64, 40], &[90, 160]]));
    }

    #[test]
    fn frobenius_trace_identity() {
        // Paper eq. 3: Σᵢⱼ (X ∘ Y)ᵢⱼ = Γ(X Yᵀ).
        let x = DenseMatrix::from_rows(&[&[1i64, 2, 0], &[3, 4, 1]]);
        let y = DenseMatrix::from_rows(&[&[2i64, 0, 1], &[1, 1, 5]]);
        let lhs = x.hadamard(&y).unwrap().sum();
        let rhs = x.matmul(&y.transpose()).unwrap().trace();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ones_sum_and_trace() {
        let j = DenseMatrix::<u64>::ones(3, 3);
        assert_eq!(j.sum(), 9);
        assert_eq!(j.trace(), 3);
    }
}
