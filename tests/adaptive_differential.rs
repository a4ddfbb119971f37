//! Differential harness for the adaptive front-end: on every generated
//! graph — uniform, power-law-ish skewed, star-heavy, near-empty, and
//! complete-biclique, plus the named fixture battery — the adaptively
//! selected plan must produce exactly the count of the slow,
//! obviously-correct baselines and of all eight fixed invariants, in
//! every execution mode. This is the archetype harness later fast paths
//! extend: add the new path to `assert_adaptive_agrees` and every regime
//! pins it.

use bfly::core::adaptive::{
    count_adaptive, count_adaptive_parallel, execute_plan, select_plan, ExecMode, GraphProfile,
    Member, Plan,
};
use bfly::core::baseline::{count_hash_aggregation, count_vertex_priority};
use bfly::core::family::{count_priority, count_ranked};
use bfly::core::testkit::{arb_family_graph, fixture_battery};
use bfly::core::{count, count_brute_force, count_via_spgemm, Invariant};
use bfly::graph::BipartiteGraph;
use proptest::prelude::*;

/// The full differential battery on one graph: spec counters, baselines,
/// all eight fixed invariants, and the adaptive plan in sequential,
/// parallel, and every forced execution mode.
fn assert_adaptive_agrees(g: &BipartiteGraph, label: &str) {
    let want = count_brute_force(g);
    assert_eq!(count_via_spgemm(g), want, "{label}: spgemm");
    assert_eq!(count_hash_aggregation(g), want, "{label}: hash baseline");
    assert_eq!(count_vertex_priority(g), want, "{label}: vertex priority");
    assert_eq!(count_priority(g), want, "{label}: priority kernel");
    assert_eq!(count_ranked(g), want, "{label}: ranked kernel");
    for inv in Invariant::ALL {
        assert_eq!(count(g, inv), want, "{label}: {inv}");
    }
    let (xi, plan) = count_adaptive(g);
    assert_eq!(xi, want, "{label}: adaptive (plan {plan:?})");
    let (xi_par, plan_par) = count_adaptive_parallel(g);
    assert_eq!(
        xi_par, want,
        "{label}: adaptive parallel (plan {plan_par:?})"
    );
    // The chosen side must be the one the cost model scores cheaper.
    assert!(
        plan.est_work <= plan.est_work_alt,
        "{label}: plan picked the more expensive side: {plan:?}"
    );
    // Force every member × execution mode × degree-ordering combination:
    // renumbering, the global-order kernels, and the chunked/bucketed
    // parallel shapes never change the total.
    for member in [
        Member::Fixed(plan.invariant),
        Member::Priority,
        Member::Ranked,
    ] {
        for mode in [ExecMode::Flat, ExecMode::Parallel { chunks: 3 }] {
            for degree_ordered in [false, true] {
                let forced = Plan {
                    member,
                    invariant: plan.invariant,
                    degree_ordered,
                    mode,
                    est_work: plan.est_work,
                    est_work_alt: plan.est_work_alt,
                };
                assert_eq!(execute_plan(g, &forced), want, "{label}: forced {forced:?}");
            }
        }
    }
}

#[test]
fn adaptive_agrees_on_fixture_battery() {
    for (name, g) in fixture_battery() {
        assert_adaptive_agrees(&g, &name);
    }
}

#[test]
fn plan_is_deterministic_per_graph() {
    for (name, g) in fixture_battery() {
        let p = GraphProfile::compute(&g);
        assert_eq!(
            select_plan(&p, false, 0),
            select_plan(&p, false, 0),
            "{name}"
        );
        let (_, plan_a) = count_adaptive(&g);
        let (_, plan_b) = count_adaptive(&g);
        assert_eq!(plan_a, plan_b, "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The archetype property: adaptive equals the definition on graphs
    /// drawn from all five regime families.
    #[test]
    fn adaptive_equals_baseline_on_generated_graphs(g in arb_family_graph()) {
        let want = count_brute_force(&g);
        let (xi, _) = count_adaptive(&g);
        prop_assert_eq!(xi, want);
        let (xi_par, _) = count_adaptive_parallel(&g);
        prop_assert_eq!(xi_par, want);
        for inv in Invariant::ALL {
            prop_assert_eq!(count(&g, inv), want);
        }
        prop_assert_eq!(count_priority(&g), want);
        prop_assert_eq!(count_ranked(&g), want);
        for chunks in [2usize, 4] {
            for member in [Member::Priority, Member::Ranked] {
                let plan = Plan::forced(&g, member, ExecMode::Parallel { chunks }, None);
                prop_assert_eq!(execute_plan(&g, &plan), want);
            }
        }
    }

    /// The wedge-work estimates the cost model ranks sides by are exact.
    #[test]
    fn profile_work_estimates_are_exact(g in arb_family_graph()) {
        let p = GraphProfile::compute(&g);
        prop_assert_eq!(p.wedges_v1, g.wedges_through_v1());
        prop_assert_eq!(p.wedges_v2, g.wedges_through_v2());
        let plan = select_plan(&p, false, 0);
        prop_assert!(plan.est_work <= plan.est_work_alt);
        match plan.member {
            Member::Fixed(_) => prop_assert_eq!(
                plan.est_work + plan.est_work_alt,
                p.wedges_v1 + p.wedges_v2
            ),
            // Global-order members carry the exact priority total, with
            // the displaced best fixed side as the alternative.
            Member::Priority | Member::Ranked => {
                prop_assert_eq!(plan.est_work, p.wedges_priority);
                prop_assert_eq!(plan.est_work_alt, p.wedges_v1.min(p.wedges_v2));
            }
        }
    }
}
