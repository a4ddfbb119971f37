//! Overflow-checked counting: [`CheckedAccum`] must be exact against a
//! `u128` reference in every build profile (CI runs this file in debug,
//! release, and release with `-C overflow-checks=on`; wrapped arithmetic
//! in any of them diverges from the reference and fails here), and the
//! typed path (`validate_graph`, then `run_plan`) must agree with the
//! infallible counters for every member in every mode on graphs that fit
//! comfortably in `u64`.

use bfly::core::adaptive::profile_and_plan_recorded;
use bfly::core::telemetry::NoopRecorder;
use bfly::core::testkit::{arb_family_graph, fixture_battery};
use bfly::core::{
    count_auto_recorded, run_plan, validate_graph, BflyError, ExecMode, Invariant, Member, Plan,
};
use bfly::graph::BipartiteGraph;
use bfly::sparse::CheckedAccum;
use proptest::prelude::*;

/// Every forced plan the typed path must cover: the eight invariants and
/// the priority and ranked members, flat, parallel at 2 chunks and
/// sharded at 3, then the adaptive planner's own plan.
fn typed_plans(g: &BipartiteGraph) -> Vec<Plan> {
    let members = Invariant::ALL
        .map(Member::Fixed)
        .into_iter()
        .chain([Member::Priority, Member::Ranked]);
    let modes = [
        ExecMode::Flat,
        ExecMode::Parallel { chunks: 2 },
        ExecMode::Sharded { shards: 3 },
    ];
    let mut plans: Vec<Plan> = members
        .flat_map(|member| modes.map(|mode| Plan::forced(g, member, mode, None)))
        .collect();
    plans.push(profile_and_plan_recorded(g, false, 0, &mut NoopRecorder).1);
    plans
}

/// The typed path: validate the graph, then run the plan.
fn typed_count(g: &BipartiteGraph, plan: &Plan) -> Result<u64, BflyError> {
    validate_graph(g)?;
    Ok(run_plan(g, plan, None, &mut NoopRecorder)?.value)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Sums that straddle `u64::MAX`: the accumulator value equals the
    /// u128 reference sum exactly, and `finish` errs iff it no longer
    /// fits. Identical behaviour in debug and release is the point —
    /// an unchecked `+` would wrap in release and diverge.
    #[test]
    fn checked_accum_matches_u128_reference(
        base_shift in 0u32..8,
        terms in proptest::collection::vec(0u64..=u64::MAX, 0..24),
    ) {
        // Bias the starting point toward the overflow boundary so the
        // spill path is exercised, not just the fast u64 lane.
        let base = u64::MAX >> base_shift;
        let mut acc = CheckedAccum::with_base(base);
        let mut reference = base as u128;
        for &t in &terms {
            acc.add(t);
            reference += t as u128;
        }
        prop_assert_eq!(acc.value(), reference);
        prop_assert_eq!(acc.fits_u64(), reference <= u64::MAX as u128);
        match acc.finish() {
            Ok(v) => {
                prop_assert!(reference <= u64::MAX as u128);
                prop_assert_eq!(v as u128, reference);
            }
            Err(partial) => {
                prop_assert!(reference > u64::MAX as u128);
                // The carried partial is the exact total, never wrapped.
                prop_assert_eq!(partial, reference);
            }
        }
    }

    /// Merging split accumulators equals one accumulator over the
    /// concatenation — the parallel reduction cannot change totals.
    #[test]
    fn checked_accum_merge_is_exact(
        terms in proptest::collection::vec(0u64..=u64::MAX, 0..32),
        split in 0usize..33,
    ) {
        let split = split.min(terms.len());
        let mut whole = CheckedAccum::new();
        for &t in &terms {
            whole.add(t);
        }
        let mut left = CheckedAccum::new();
        for &t in &terms[..split] {
            left.add(t);
        }
        let mut right = CheckedAccum::new();
        for &t in &terms[split..] {
            right.add(t);
        }
        left.merge(right);
        prop_assert_eq!(left.value(), whole.value());
    }

    /// On ordinary graphs the typed path returns exactly what the
    /// infallible counter does, for every member in every mode.
    #[test]
    fn typed_path_agrees_with_count(g in arb_family_graph()) {
        let want = count_auto_recorded(&g, &mut NoopRecorder).0;
        for plan in typed_plans(&g) {
            prop_assert_eq!(typed_count(&g, &plan).unwrap(), want, "{:?}", plan);
        }
    }
}

#[test]
fn typed_path_agrees_on_fixture_battery() {
    for (name, g) in fixture_battery() {
        let want = count_auto_recorded(&g, &mut NoopRecorder).0;
        for plan in typed_plans(&g) {
            assert_eq!(typed_count(&g, &plan).unwrap(), want, "{name}: {plan:?}");
        }
    }
}

#[test]
fn overflow_error_carries_exact_partial_total() {
    let mut acc = CheckedAccum::with_base(u64::MAX);
    acc.add(41);
    acc.add(1);
    match acc.finish() {
        Err(partial) => assert_eq!(partial, u64::MAX as u128 + 42),
        Ok(v) => panic!("must overflow, got {v}"),
    }
    // And the taxonomy keeps it intact end to end.
    let e = BflyError::CountOverflow {
        partial: u64::MAX as u128 + 42,
        context: "test",
    };
    let msg = e.to_string();
    assert!(msg.contains(&(u64::MAX as u128 + 42).to_string()), "{msg}");
}
