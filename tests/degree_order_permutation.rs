//! Permutation invariance of every counting output: relabeling one side
//! by degree (the adaptive engine's degree-ordered execution mode) is an
//! isomorphism, so totals are identical, per-vertex tip counts are the
//! same multiset — equal element-wise after the inverse mapping — and
//! per-edge wing supports transport along the edge correspondence.

use bfly::core::edge_support::edge_supports;
use bfly::core::testkit::{arb_family_graph, fixture_battery};
use bfly::core::vertex_counts::butterflies_per_vertex;
use bfly::core::{count, count_brute_force, Invariant};
use bfly::graph::ordering::{degree_ascending, degree_descending, invert_permutation, relabel};
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;
use std::collections::HashMap;

/// Check every output of interest transports through `relabel(g, side,
/// perm)` with `perm[new] = old`.
fn assert_permutation_invariant(g: &BipartiteGraph, side: Side, perm: &[u32], label: &str) {
    let h = relabel(g, side, perm);
    let want = count_brute_force(g);

    // Totals: all eight invariants on the renumbered graph.
    assert_eq!(count_brute_force(&h), want, "{label}: brute force");
    for inv in Invariant::ALL {
        assert_eq!(count(&h, inv), want, "{label}: {inv}");
    }

    // Per-vertex tip counts: h's vertex `new` is g's vertex `perm[new]`.
    let inv_perm = invert_permutation(perm);
    let b_g = butterflies_per_vertex(g, side);
    let b_h = butterflies_per_vertex(&h, side);
    for old in 0..b_g.len() {
        assert_eq!(
            b_h[inv_perm[old] as usize], b_g[old],
            "{label}: per-vertex count of old vertex {old}"
        );
    }
    // The untouched side's counts are identical as-is.
    let other = match side {
        Side::V1 => Side::V2,
        Side::V2 => Side::V1,
    };
    assert_eq!(
        butterflies_per_vertex(&h, other),
        butterflies_per_vertex(g, other),
        "{label}: untouched side"
    );

    // Per-edge wing supports: map h's edges back through the permutation
    // and compare against g's supports in g's edge order.
    let s_g = edge_supports(g);
    let s_h = edge_supports(&h);
    let index_g: HashMap<(u32, u32), usize> = g.edges().enumerate().map(|(i, e)| (e, i)).collect();
    for (i_h, (a, b)) in h.edges().enumerate() {
        let orig = match side {
            Side::V1 => (perm[a as usize], b),
            Side::V2 => (a, perm[b as usize]),
        };
        let i_g = *index_g
            .get(&orig)
            .unwrap_or_else(|| panic!("{label}: edge {orig:?} missing from original"));
        assert_eq!(
            s_h[i_h], s_g[i_g],
            "{label}: support of edge {orig:?} (h index {i_h}, g index {i_g})"
        );
    }
}

#[test]
fn degree_orderings_preserve_everything_on_fixtures() {
    for (name, g) in fixture_battery() {
        for side in [Side::V1, Side::V2] {
            for (dir, perm) in [
                ("desc", degree_descending(&g, side)),
                ("asc", degree_ascending(&g, side)),
            ] {
                assert_permutation_invariant(&g, side, &perm, &format!("{name}/{side:?}/{dir}"));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Permutation invariance across all generator regimes.
    #[test]
    fn degree_relabel_is_invariant_on_generated_graphs(g in arb_family_graph()) {
        let want = count_brute_force(&g);
        for side in [Side::V1, Side::V2] {
            let perm = degree_descending(&g, side);
            let h = relabel(&g, side, &perm);
            prop_assert_eq!(count_brute_force(&h), want);
            prop_assert_eq!(count(&h, Invariant::Inv1), want);
            prop_assert_eq!(count(&h, Invariant::Inv6), want);
            // Per-vertex counts on the renumbering map back through `perm`.
            let (b_g, b_h) = (butterflies_per_vertex(&g, side), butterflies_per_vertex(&h, side));
            for (new, &old) in perm.iter().enumerate() {
                prop_assert_eq!(b_h[new], b_g[old as usize]);
            }
        }
    }
}
