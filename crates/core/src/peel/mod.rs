//! Butterfly peeling: k-tip and k-wing subgraph extraction and the full
//! tip/wing decompositions (paper §IV, after Sariyüce–Pinar \[11\]).
//!
//! The decompositions run on the shared bucket-peeling engine in
//! [`parallel`]: a flat [`bucket::BucketQueue`] (O(1) push, lazy
//! re-insertion on score decrease) drained a whole minimum bucket per
//! round, with the score repair either inline or chunked over the peeled
//! frontier across rayon workers. See `docs/PEELING.md`.

pub mod bucket;
pub mod parallel;
pub mod tip;
pub mod wing;

pub use bucket::{BucketQueue, StampSet};
pub use parallel::{
    tip_numbers_budgeted_recorded, tip_numbers_with_chunks, try_tip_numbers, try_wing_numbers,
    wing_numbers_budgeted_recorded, wing_numbers_with_chunks, PAR_FRONTIER_MIN,
};

pub use tip::{k_tip, k_tip_lookahead, k_tip_matrix, k_tip_recorded, tip_numbers, TipResult};
pub use wing::{
    k_wing, k_wing_masked_spgemm, k_wing_matrix, k_wing_recorded, wing_numbers, WingResult,
};

#[cfg(any(test, feature = "testkit"))]
pub use tip::tip_numbers_oracle;
#[cfg(any(test, feature = "testkit"))]
pub use wing::wing_numbers_oracle;
