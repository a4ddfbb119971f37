//! Scalar trait abstracting the element types our matrices hold.
//!
//! Butterfly counting only needs semiring-style arithmetic (add, mul,
//! zero, one). Counts are integral (`u64` upstream), but the dense reference
//! implementations of the paper's trace formulas are also exercised over
//! floating point in tests, so the trait covers both.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Mul};

/// Element type usable inside [`crate::CsrMatrix`] and
/// [`crate::DenseMatrix`].
pub trait Scalar:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Mul<Output = Self>
    + AddAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Whether this value equals the additive identity.
    #[inline]
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }
}

macro_rules! impl_scalar_int {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0;
            const ONE: Self = 1;
        }
    )*};
}

macro_rules! impl_scalar_float {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
        }
    )*};
}

impl_scalar_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
impl_scalar_float!(f32, f64);

/// `C(x, 2) = x(x-1)/2` — the "choose two" used throughout the paper to turn
/// wedge multiplicities into butterfly counts (`Ξ = Σ C(β_ij, 2)`).
#[inline]
pub fn choose2(x: u64) -> u64 {
    x * x.wrapping_sub(1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_identities() {
        assert_eq!(u64::ONE, 1);
        assert!(0u32.is_zero());
        assert!(!1u32.is_zero());
    }

    #[test]
    fn float_identities() {
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(f64::ONE, 1.0);
        assert!(0.0f64.is_zero());
    }

    #[test]
    fn choose2_small_values() {
        assert_eq!(choose2(0), 0);
        assert_eq!(choose2(1), 0);
        assert_eq!(choose2(2), 1);
        assert_eq!(choose2(3), 3);
        assert_eq!(choose2(4), 6);
        assert_eq!(choose2(100), 4950);
    }

    #[test]
    fn choose2_does_not_overflow_for_graph_scale_inputs() {
        // A vertex pair sharing a million wedges is far beyond any dataset in
        // the paper; make sure the arithmetic stays exact.
        assert_eq!(choose2(1_000_000), 499_999_500_000);
    }
}
