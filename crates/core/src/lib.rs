//! # bfly-core
//!
//! The paper's contribution: **families of butterfly counting algorithms
//! for bipartite graphs**, derived from a single linear-algebraic
//! specification, plus the k-tip and k-wing peeling algorithms built on the
//! same formulation.
//!
//! A *butterfly* is a 2×2 biclique: vertices `u, w ∈ V1` and `v, x ∈ V2`
//! with all four edges present — equivalently two distinct wedges sharing
//! endpoints. With `B = A·Aᵀ` (whose `(i,j)` entry counts length-2 paths
//! between `i, j ∈ V1`), the total count is `Ξ_G = Σ_{i<j} C(B_ij, 2)`,
//! which the paper rewrites as the trace expression of eq. 7 and then
//! *derives* eight loop-based algorithms from via the FLAME methodology.
//!
//! Module map:
//!
//! * [`spec`] — specification-level counters (dense eq. 7 transliteration,
//!   SpGEMM-based counter, brute-force pair enumeration). Everything else
//!   is validated against these.
//! * [`family`] — the eight derived algorithms ([`Invariant`]), sequential
//!   ([`count`]), rayon-parallel ([`count_parallel`]), and sharded
//!   ([`count_sharded`]).
//! * [`adaptive`] — profile-driven selection among the family members
//!   ([`count_adaptive`]): partition side by exact wedge-work estimate,
//!   degree-ordered execution, degree-balanced parallel chunking — and
//!   [`run_plan`], the one executor every in-memory count runs through.
//! * [`vertex_counts`] / [`edge_support`] — per-vertex butterfly counts
//!   (paper eq. 19) and per-edge support `S_w` (eq. 25), each in both
//!   wedge-expansion and literal-algebra form.
//! * [`peel`] — k-tip and k-wing subgraph extraction (eqs. 20–22, 26–27),
//!   the Fig. 8 look-ahead variant, and tip/wing numbers (the full
//!   decompositions).
//! * [`baseline`] — the algorithms the paper positions against: wedge
//!   hash-aggregation (Wang et al. 2014), degree-ordered vertex-priority
//!   counting (Wang et al. VLDB'19), and sampling estimators
//!   (Sanei-Mehri et al. KDD'18).
//! * [`metrics`] — caterpillars, the bipartite clustering coefficient the
//!   introduction motivates, and the degree-preserving null model.
//!
//! ```
//! use bfly_core::{count, count_brute_force, Invariant};
//! use bfly_graph::BipartiteGraph;
//!
//! // K_{3,3} holds C(3,2)² = 9 butterflies.
//! let g = BipartiteGraph::complete(3, 3);
//! for inv in Invariant::ALL {
//!     assert_eq!(count(&g, inv), 9);
//! }
//! assert_eq!(count_brute_force(&g), 9);
//! ```

#![warn(missing_docs)]
// Vertex ids index several parallel arrays at once throughout this
// workspace; the indexed loops clippy flags are the clearer form here.
#![allow(clippy::needless_range_loop)]

pub mod adaptive;
pub mod baseline;
pub mod budget;
pub mod checkpoint;
pub mod edge_support;
pub mod enumerate;
pub mod error;
pub mod family;
pub mod metrics;
pub mod pair_matrix;
pub mod partitioned;
pub mod peel;
pub mod spec;
#[cfg(feature = "testkit")]
pub mod testkit;
pub mod vertex_counts;

pub use adaptive::{
    count_adaptive, count_adaptive_budgeted_recorded, count_adaptive_parallel,
    count_adaptive_parallel_recorded, graph_resident_bytes, plan_scratch_bytes, run_plan,
    select_plan, select_plan_budgeted, try_count_adaptive, tune_plan_chunks, ExecMode,
    GraphProfile, Member, Plan, ShardSizing, PRIORITY_ADVANTAGE, PRIORITY_MIN_WORK,
};
pub use budget::{record_memory, Partial, ResourceBudget};
pub use checkpoint::{fingerprint_segmented, CheckpointConfig, CheckpointStore};
pub use enumerate::{count_by_enumeration, enumerate_butterflies, for_each_butterfly, Butterfly};
pub use error::{validate_graph, BflyError};
pub use family::{
    auto_invariant, count, count_auto_recorded, count_parallel, count_priority, count_ranked,
    count_recorded, count_segmented, count_segmented_checkpointed_recorded, count_sharded,
    priority_wedge_work, profile_and_plan_segmented_recorded, run_plan_segmented,
    segmented_profile, try_count, tuned_chunk_count, weight_p90, Invariant,
};
pub use pair_matrix::PairMatrix;
pub use spec::{count_brute_force, count_dense_formula, count_via_spgemm};

/// Instrumentation layer re-export: recorders, counters, and run reports
/// (see [`bfly_telemetry`]).
pub use bfly_telemetry as telemetry;
