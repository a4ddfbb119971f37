//! The family of eight derived butterfly counting algorithms.
//!
//! Section III of the paper partitions either vertex set two ways and reads
//! off four valid loop invariants per side (Figs. 4 and 5), each of which
//! the FLAME worksheet turns into a concrete loop (Figs. 6 and 7). All
//! eight share one update shape — eq. 18:
//!
//! ```text
//! Ξ := ½·a₁ᵀ·Aₚ·Aₚᵀ·a₁ − ½·Γ(a₁a₁ᵀ ∘ AₚAₚᵀ) + Ξ
//! ```
//!
//! where `a₁` is the exposed column (invariants 1–4) or row (5–8) and `Aₚ`
//! is either the already-processed part `A₀` or the look-ahead part `A₂`.
//! Implemented as a wedge expansion into a pair accumulator, the
//! subtraction term vanishes (the paper's closing remark of §III-C): the
//! update becomes `Σ_{c ∈ part} C(|N(a₁) ∩ N(c)|, 2)`, i.e. "count the
//! butterflies whose two wedge points are the current vertex and a vertex
//! in the chosen part".
//!
//! What distinguishes the eight members:
//!
//! | Invariant | Partitioned set | Traversal | Update uses       |
//! |-----------|-----------------|-----------|-------------------|
//! | 1         | V2 (columns)    | L → R     | `A₀` (processed)  |
//! | 2         | V2 (columns)    | L → R     | `A₂` (look-ahead) |
//! | 3         | V2 (columns)    | R → L     | `A₀` (look-ahead) |
//! | 4         | V2 (columns)    | R → L     | `A₂` (processed)  |
//! | 5         | V1 (rows)       | T → B     | `A₀` (processed)  |
//! | 6         | V1 (rows)       | T → B     | `A₂` (look-ahead) |
//! | 7         | V1 (rows)       | B → T     | `A₀` (look-ahead) |
//! | 8         | V1 (rows)       | B → T     | `A₂` (processed)  |
//!
//! Invariants 1–4 iterate the CSC view of `A` (columns = V2 vertices),
//! invariants 5–8 the CSR view (rows = V1 vertices), exactly as stored by
//! the paper's implementations (§V).

pub mod engine;
pub mod literal;
pub mod parallel;
pub mod priority;
pub mod ranked;
pub mod sharded;
pub mod verify;

use crate::adaptive::{run_plan, run_to_end, ExecMode, Member, Plan};
use bfly_graph::{BipartiteGraph, Side};
use bfly_telemetry::{NoopRecorder, Recorder};
pub use engine::{PartFilter, Traversal};
pub use literal::count_literal;
pub use parallel::{balanced_chunk_bounds, tuned_chunk_count, wedge_weights, weight_p90};
pub use priority::priority_wedge_work;
pub use ranked::RANKED_BUCKET_WEDGES;
pub use sharded::{
    count_segmented, count_segmented_checkpointed_recorded, profile_and_plan_segmented_recorded,
    run_plan_segmented, segmented_profile,
};
pub use verify::{invariant_specified_value, verify_loop_invariant};

/// One of the paper's eight loop invariants (equivalently, the derived
/// algorithm that maintains it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// V2-partitioned, L→R traversal, update against the processed part.
    Inv1,
    /// V2-partitioned, L→R traversal, update against the look-ahead part.
    Inv2,
    /// V2-partitioned, R→L traversal, update against the look-ahead part.
    Inv3,
    /// V2-partitioned, R→L traversal, update against the processed part.
    Inv4,
    /// V1-partitioned, T→B traversal, update against the processed part.
    Inv5,
    /// V1-partitioned, T→B traversal, update against the look-ahead part.
    Inv6,
    /// V1-partitioned, B→T traversal, update against the look-ahead part.
    Inv7,
    /// V1-partitioned, B→T traversal, update against the processed part.
    Inv8,
}

impl Invariant {
    /// All eight, in the paper's numbering order.
    pub const ALL: [Invariant; 8] = [
        Invariant::Inv1,
        Invariant::Inv2,
        Invariant::Inv3,
        Invariant::Inv4,
        Invariant::Inv5,
        Invariant::Inv6,
        Invariant::Inv7,
        Invariant::Inv8,
    ];

    /// 1-based index as used in the paper's tables.
    pub fn number(self) -> usize {
        match self {
            Invariant::Inv1 => 1,
            Invariant::Inv2 => 2,
            Invariant::Inv3 => 3,
            Invariant::Inv4 => 4,
            Invariant::Inv5 => 5,
            Invariant::Inv6 => 6,
            Invariant::Inv7 => 7,
            Invariant::Inv8 => 8,
        }
    }

    /// Which vertex set the invariant partitions (V2 for 1–4, V1 for 5–8).
    pub fn partitioned_side(self) -> Side {
        match self {
            Invariant::Inv1 | Invariant::Inv2 | Invariant::Inv3 | Invariant::Inv4 => Side::V2,
            _ => Side::V1,
        }
    }

    /// Traversal direction over the partitioned set.
    pub fn traversal(self) -> Traversal {
        match self {
            Invariant::Inv1 | Invariant::Inv2 | Invariant::Inv5 | Invariant::Inv6 => {
                Traversal::Forward
            }
            _ => Traversal::Backward,
        }
    }

    /// Which part of the repartitioned matrix the update touches: `A₀`
    /// (indices before the exposed vertex) or `A₂` (indices after it).
    pub fn update_part(self) -> PartFilter {
        match self {
            Invariant::Inv1 | Invariant::Inv3 | Invariant::Inv5 | Invariant::Inv7 => {
                PartFilter::Before
            }
            _ => PartFilter::After,
        }
    }

    /// Whether the update reads the *not yet processed* region ("look-ahead"
    /// in the paper's §V discussion): forward traversals reading `A₂`, or
    /// backward traversals reading `A₀`.
    pub fn is_lookahead(self) -> bool {
        matches!(
            (self.traversal(), self.update_part()),
            (Traversal::Forward, PartFilter::After) | (Traversal::Backward, PartFilter::Before)
        )
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Inv. {}", self.number())
    }
}

// The in-memory entry points below are one line each: the plan a caller
// forces ([`Plan::forced`]), run by the one executor ([`run_plan`]).

/// Run the forced plan `member` × `mode` on `g` to completion; a total
/// past `u64` panics naming [`run_plan`], which returns it as a typed
/// error.
pub(crate) fn run_forced<R: Recorder>(
    g: &BipartiteGraph,
    member: Member,
    mode: ExecMode,
    rec: &mut R,
) -> u64 {
    run_to_end(g, &Plan::forced(g, member, mode, None), rec, "run_plan")
}

/// Count the butterflies of `g` with the algorithm derived from the given
/// loop invariant (sequential).
pub fn count(g: &BipartiteGraph, inv: Invariant) -> u64 {
    count_recorded(g, inv, &mut NoopRecorder)
}

/// [`count`] reporting work counters and a `count` span through `rec`.
/// Overflow-checked like every counting path: a total past `u64` panics
/// naming [`try_count`].
pub fn count_recorded<R: Recorder>(g: &BipartiteGraph, inv: Invariant, rec: &mut R) -> u64 {
    let plan = Plan::forced(g, Member::Fixed(inv), ExecMode::Flat, None);
    run_to_end(g, &plan, rec, "try_count")
}

/// Fallible [`count`]: validates the graph's structural invariants up
/// front and reports a total past `u64` as a typed
/// [`BflyError`](crate::error::BflyError), so hostile or hand-built
/// inputs fail without panicking mid-kernel. Every other plan gets the
/// same guarantee from [`validate_graph`](crate::error::validate_graph)
/// then [`run_plan`].
pub fn try_count(g: &BipartiteGraph, inv: Invariant) -> crate::error::Result<u64> {
    crate::error::validate_graph(g)?;
    let plan = Plan::forced(g, Member::Fixed(inv), ExecMode::Flat, None);
    Ok(run_plan(g, &plan, None, &mut NoopRecorder)?.value)
}

/// The family member the paper's §V guidance prescribes: partition the
/// *smaller* vertex set, with the forward look-ahead member §V singles
/// out — Inv. 2 when `|V2| ≤ |V1|`, else Inv. 6. The paper's rule, kept
/// for reproducing it; `bfly count`'s default runs the planner
/// ([`select_plan`](crate::adaptive::select_plan)) instead.
pub fn auto_invariant(g: &BipartiteGraph) -> Invariant {
    if g.nv2() <= g.nv1() {
        Invariant::Inv2
    } else {
        Invariant::Inv6
    }
}

/// Count with [`auto_invariant`], reporting work counters through `rec`.
/// Returns the count and the invariant chosen.
pub fn count_auto_recorded<R: Recorder>(g: &BipartiteGraph, rec: &mut R) -> (u64, Invariant) {
    let inv = auto_invariant(g);
    (count_recorded(g, inv, rec), inv)
}

/// Count with the given invariant on rayon's current pool: one
/// wedge-balanced chunk per worker, partials merged in chunk order.
pub fn count_parallel(g: &BipartiteGraph, inv: Invariant) -> u64 {
    let mode = ExecMode::Parallel {
        chunks: rayon::current_num_threads().max(1),
    };
    run_forced(g, Member::Fixed(inv), mode, &mut NoopRecorder)
}

/// Count with invariant `inv` over `nshards` wedge-balanced vertex-range
/// shards of the partitioned side, merging per-shard partials exactly
/// (see [`sharded`]). Identical to [`count`] for every shard count.
pub fn count_sharded(g: &BipartiteGraph, inv: Invariant, nshards: usize) -> u64 {
    let mode = ExecMode::Sharded { shards: nshards };
    run_forced(g, Member::Fixed(inv), mode, &mut NoopRecorder)
}

/// Count with the vertex-priority kernel, sequentially (see [`priority`]).
pub fn count_priority(g: &BipartiteGraph) -> u64 {
    run_forced(g, Member::Priority, ExecMode::Flat, &mut NoopRecorder)
}

/// Count by ranked wedge aggregation, sequentially (see [`ranked`]).
pub fn count_ranked(g: &BipartiteGraph) -> u64 {
    run_forced(g, Member::Ranked, ExecMode::Flat, &mut NoopRecorder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{count_brute_force, count_dense_formula, count_via_spgemm};
    use bfly_graph::generators::uniform_exact;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn k33() -> BipartiteGraph {
        BipartiteGraph::complete(3, 3)
    }

    #[test]
    fn metadata_matches_paper_tables() {
        assert_eq!(Invariant::Inv1.partitioned_side(), Side::V2);
        assert_eq!(Invariant::Inv6.partitioned_side(), Side::V1);
        assert_eq!(Invariant::Inv3.traversal(), Traversal::Backward);
        assert_eq!(Invariant::Inv2.update_part(), PartFilter::After);
        assert!(Invariant::Inv2.is_lookahead());
        assert!(Invariant::Inv3.is_lookahead());
        assert!(!Invariant::Inv1.is_lookahead());
        assert!(!Invariant::Inv4.is_lookahead());
        assert!(Invariant::Inv7.is_lookahead());
        assert_eq!(Invariant::Inv8.number(), 8);
        assert_eq!(format!("{}", Invariant::Inv5), "Inv. 5");
    }

    #[test]
    fn all_eight_agree_on_known_graphs() {
        for g in [
            k33(),
            BipartiteGraph::complete(4, 5),
            BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap(),
            BipartiteGraph::empty(6, 4),
        ] {
            let want = count_brute_force(&g);
            for inv in Invariant::ALL {
                assert_eq!(count(&g, inv), want, "{inv} disagrees");
            }
        }
    }

    #[test]
    fn all_eight_agree_with_spec_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            let g = uniform_exact(30, 25, 120, &mut rng);
            let want = count_via_spgemm(&g);
            assert_eq!(want, count_brute_force(&g), "trial {trial}");
            assert_eq!(want, count_dense_formula(&g), "trial {trial}");
            for inv in Invariant::ALL {
                assert_eq!(count(&g, inv), want, "trial {trial}, {inv}");
            }
        }
    }

    #[test]
    fn star_graphs_have_no_butterflies() {
        // A star from one V2 hub: all wedges share their single wedge point,
        // so no two *distinct* wedge points exist → zero butterflies. This
        // is exactly the `Γ(a₁a₁ᵀa₁a₁ᵀ − …) = 0` observation in §III-C.
        let star =
            BipartiteGraph::from_edges(5, 1, &[(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]).unwrap();
        for inv in Invariant::ALL {
            assert_eq!(count(&star, inv), 0, "{inv}");
        }
    }

    #[test]
    fn auto_selection_follows_partition_rule() {
        let wide = BipartiteGraph::complete(2, 10);
        let (xi, inv) = count_auto_recorded(&wide, &mut NoopRecorder);
        assert_eq!(xi, 45);
        assert_eq!(inv, auto_invariant(&wide));
        assert_eq!(inv.partitioned_side(), Side::V1); // smaller side is V1
        let tall = BipartiteGraph::complete(10, 2);
        let (xi, inv) = count_auto_recorded(&tall, &mut NoopRecorder);
        assert_eq!(xi, 45);
        assert_eq!(inv, auto_invariant(&tall));
        assert_eq!(inv.partitioned_side(), Side::V2);
    }

    #[test]
    fn rectangular_asymmetry_is_handled() {
        // Wide vs tall graphs exercise both accumulator sizes.
        let wide = BipartiteGraph::complete(2, 10);
        let tall = BipartiteGraph::complete(10, 2);
        let want = 45; // C(2,2)·C(10,2)
        for inv in Invariant::ALL {
            assert_eq!(count(&wide, inv), want, "{inv} on wide");
            assert_eq!(count(&tall, inv), want, "{inv} on tall");
        }
    }
}
