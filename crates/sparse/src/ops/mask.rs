//! Threshold masks for the peeling algorithms.
//!
//! k-tip (paper eqs. 20–22) and k-wing (eqs. 26–27) both follow the shape
//! "compute a score, build the 0/1 mask `score ≥ k`, Hadamard it onto the
//! adjacency, repeat". This helper builds such a mask.

use crate::scalar::Scalar;

/// Boolean mask `sᵢ ≥ k` over a score vector (paper eq. 20: `m = s ≥ k`).
pub fn threshold_mask<T: Scalar>(scores: &[T], k: T) -> Vec<bool> {
    scores.iter().map(|&s| s >= k).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_mask_compares_inclusively() {
        let m = threshold_mask(&[0u64, 3, 5, 2], 3);
        assert_eq!(m, vec![false, true, true, false]);
    }
}
