//! Matrix operations: SpGEMM, Hadamard products, slices, and masks.
//!
//! These are the operations the paper's specification is written in:
//! `B = A·Aᵀ` (SpGEMM), `B ∘ B` (Hadamard), the FLAME repartitioning
//! (row and column slices), and threshold masks `m = s ≥ k` for peeling.
//! The trace `Γ(·)` and the sum `Σᵢⱼ(·)` are methods of the matrix types.

pub mod hadamard;
pub mod mask;
pub mod slice;
pub mod spgemm;

pub use hadamard::{frobenius_inner, hadamard};
pub use mask::threshold_mask;
pub use slice::{col_slice, row_slice};
pub use spgemm::{spgemm, spgemm_masked, spgemm_parallel};
