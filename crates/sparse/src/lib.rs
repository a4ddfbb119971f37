//! # bfly-sparse
//!
//! Sparse and dense linear-algebra substrate for the butterfly-counting
//! library. The paper ("Families of Butterfly Counting Algorithms for
//! Bipartite Graphs", IPPS 2022) expresses every algorithm in terms of a
//! biadjacency matrix `A`, products such as `B = A·Aᵀ`, Hadamard products,
//! traces, and element-wise masks. This crate implements exactly that
//! vocabulary from scratch:
//!
//! * [`Pattern`] — a value-free CSR structure (sorted adjacency). This is
//!   the binary biadjacency matrix of a bipartite graph; a graph keeps one
//!   per orientation, which serves the paper's CSC storage for the
//!   column-partitioned invariants (1–4) and its CSR storage for the
//!   row-partitioned invariants (5–8).
//! * [`CsrMatrix`] — valued compressed sparse rows, for the wedge matrix
//!   `B = A·Aᵀ` and the literal-algebra oracles.
//! * [`DenseMatrix`] — dense reference arithmetic used by the
//!   specification-level counters (paper eq. 7) that everything else is
//!   validated against.
//! * [`ops`] — SpGEMM (Gustavson's algorithm with a sparse accumulator,
//!   sequential, rayon-parallel and masked), Hadamard products and the
//!   Frobenius inner product (`Γ(XYᵀ) = Σᵢⱼ (X∘Y)ᵢⱼ`, paper eq. 3), row and
//!   column slices, and threshold masks.
//! * [`Spa`] — the dense-accumulator-with-touched-list workhorse of
//!   SpGEMM and of the `bfly-core` code that needs each final pair count
//!   (per-edge supports, pair matrices, peeling, the reference counters).
//! * [`PairAccum`] — the counting kernels' accumulator: one packed slot
//!   per vertex whose hits return the slot's previous count, so their sum
//!   is `Σ C(cnt, 2)` with no drain.
//! * [`CheckedAccum`] — the overflow-checked `u64` total every counter
//!   accumulates into.
//!
//! Matrix indices are `u32` (graphs with fewer than 2³² vertices per side),
//! offsets are `usize`, and all counting arithmetic upstream is `u64`.
//!
//! ```
//! use bfly_sparse::{CsrMatrix, ops::spgemm};
//!
//! // The biadjacency of one butterfly (2x2 all-ones), as CSR.
//! let a = CsrMatrix::from_triplets(2, 2, &[0, 0, 1, 1], &[0, 1, 0, 1], &[1u64, 1, 1, 1]);
//! // B = A·Aᵀ counts length-2 paths; its off-diagonal is the wedge count.
//! let b = spgemm(&a, &a.transpose()).unwrap();
//! assert_eq!(b.get(0, 1), 2); // two wedges between the V1 vertices
//! ```

#![warn(missing_docs)]
// Vertex ids index several parallel arrays at once throughout this
// workspace; the indexed loops clippy flags are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod accum;
pub mod csr;
pub mod dense;
pub mod error;
pub mod ops;
pub mod pattern;
pub mod scalar;
pub mod spa;

pub use accum::CheckedAccum;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::{ShapeError, SparseError};
pub use pattern::Pattern;
pub use scalar::{choose2, Scalar};
pub use spa::{PairAccum, Spa};
