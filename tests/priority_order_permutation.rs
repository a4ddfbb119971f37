//! Permutation invariance and exact-work pins for the global-order
//! kernels. The vertex-priority order ranks degree-descending with ties
//! broken by side and id, so relabelling a side permutes the tie-breaks —
//! a "priority-breaking" relabel. Counting must not care: both kernels'
//! totals survive the isomorphism (extending `degree_order_permutation.rs`
//! to the new kernels).
//!
//! The work pins are deliberately two-tier, because the relationship
//! between priority work and the best fixed side is regime-dependent
//! (measured here, not assumed):
//!
//! * **exactness, everywhere** — the kernels' `wedges_expanded` equals
//!   the closed-form `priority_wedge_work` total on every fixture, which
//!   is what keeps `Plan::forecast()` exact;
//! * **floor, where it holds** — on the strongly skewed fixtures the
//!   priority total is strictly below the best fixed invariant's work;
//!   on near-uniform fixtures it can exceed it (up to ~1.3× on the
//!   generators), and the pin there is that `select_plan` never chooses
//!   a global-order member at a work regression.

use bfly::core::adaptive::{
    execute_plan, run_plan, select_plan, ExecMode, GraphProfile, Member, Plan,
};
use bfly::core::family::priority_wedge_work;
use bfly::core::telemetry::{Counter, InMemoryRecorder};
use bfly::core::testkit::{arb_family_graph, fixture_battery};
use bfly::core::{count_brute_force, PRIORITY_MIN_WORK};
use bfly::graph::ordering::relabel;
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Run a global-order member sequentially through the one executor.
fn run_flat(g: &BipartiteGraph, member: Member, rec: &mut InMemoryRecorder) -> u64 {
    let plan = Plan::forced(g, member, ExecMode::Flat, None);
    run_plan(g, &plan, None, rec).unwrap().value
}

/// [`run_flat`] without a recorder.
fn flat(g: &BipartiteGraph, member: Member) -> u64 {
    execute_plan(g, &Plan::forced(g, member, ExecMode::Flat, None))
}

/// Fisher–Yates permutation of `0..n` (the vendored rand has no shuffle).
fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=(i as u32)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// Both global-order kernels count `relabel(g, side, perm)` exactly.
fn assert_priority_invariant(g: &BipartiteGraph, side: Side, perm: &[u32], label: &str) {
    let h = relabel(g, side, perm);
    let want = count_brute_force(g);
    assert_eq!(flat(&h, Member::Priority), want, "{label}: priority total");
    assert_eq!(flat(&h, Member::Ranked), want, "{label}: ranked total");
}

#[test]
fn priority_breaking_relabels_preserve_everything_on_fixtures() {
    for (name, g) in fixture_battery() {
        let mut rng = StdRng::seed_from_u64(2024);
        for side in [Side::V1, Side::V2] {
            let n = match side {
                Side::V1 => g.nv1(),
                Side::V2 => g.nv2(),
            };
            for trial in 0..2 {
                let perm = random_permutation(n, &mut rng);
                assert_priority_invariant(&g, side, &perm, &format!("{name}/{side:?}/{trial}"));
            }
        }
    }
}

#[test]
fn wedge_work_counter_is_exact_on_every_fixture() {
    // The forecast identity: both kernels expand exactly the closed-form
    // priority wedge total — nothing more (no overshoot past fraction
    // 1.0) and nothing less (the forecast completes).
    for (name, g) in fixture_battery() {
        let want = priority_wedge_work(&g);
        let mut rec = InMemoryRecorder::new();
        run_flat(&g, Member::Priority, &mut rec);
        assert_eq!(
            rec.counter(Counter::WedgesExpanded),
            want,
            "{name}: priority wedges_expanded"
        );
        let mut rec = InMemoryRecorder::new();
        run_flat(&g, Member::Ranked, &mut rec);
        assert_eq!(
            rec.counter(Counter::WedgesExpanded),
            want,
            "{name}: ranked wedges_expanded"
        );
    }
}

#[test]
fn priority_work_beats_fixed_floor_exactly_where_selected() {
    // The honest two-tier floor pin. Strongly skewed fixtures: priority
    // work strictly undercuts the best fixed invariant. Everywhere else:
    // whenever the planner *does* pick a global-order member, its
    // `est_work` is below the fixed floor — i.e. the planner never
    // schedules priority at a work regression, even on the near-uniform
    // fixtures where the unconditional bound fails.
    let strictly_better = ["skewed-0.7", "skewed-1.0"];
    for (name, g) in fixture_battery() {
        let p = GraphProfile::compute(&g);
        let best_fixed = p.wedges_v1.min(p.wedges_v2);
        assert_eq!(p.wedges_priority, priority_wedge_work(&g), "{name}");
        if strictly_better.contains(&name.as_str()) {
            assert!(
                p.wedges_priority < best_fixed,
                "{name}: priority {} not below fixed floor {best_fixed}",
                p.wedges_priority
            );
        }
        for (parallel, workers) in [(false, 0), (true, 4)] {
            let plan = select_plan(&p, parallel, workers);
            if !matches!(plan.member, Member::Fixed(_)) {
                assert!(
                    plan.est_work < best_fixed && best_fixed >= PRIORITY_MIN_WORK,
                    "{name}: global-order member selected at a work regression \
                     (est {} vs floor {best_fixed})",
                    plan.est_work
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Priority-breaking relabels across all generator regimes: totals
    /// survive arbitrary id shuffles of either side.
    #[test]
    fn priority_relabel_is_invariant_on_generated_graphs(
        g in arb_family_graph(),
        seed in 0u64..u64::MAX,
    ) {
        let want = count_brute_force(&g);
        let mut rng = StdRng::seed_from_u64(seed);
        for side in [Side::V1, Side::V2] {
            let n = match side { Side::V1 => g.nv1(), Side::V2 => g.nv2() };
            let perm = random_permutation(n, &mut rng);
            let h = relabel(&g, side, &perm);
            prop_assert_eq!(flat(&h, Member::Priority), want);
            prop_assert_eq!(flat(&h, Member::Ranked), want);
        }
        // The exact-work identity holds on every generated graph too.
        let mut rec = InMemoryRecorder::new();
        run_flat(&g, Member::Priority, &mut rec);
        prop_assert_eq!(rec.counter(Counter::WedgesExpanded), priority_wedge_work(&g));
    }
}
