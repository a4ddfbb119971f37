//! Integration: every counting algorithm in the workspace — the eight
//! derived invariants (sequential and parallel), the two global-order
//! kernels (vertex-priority and ranked aggregation), the three
//! specification counters, and the two exact baselines — must agree on
//! the same graph, across a spread of generator regimes and edge cases.
//! The per-pair counts `C` are checked pair by pair against their
//! definition.

use bfly::core::adaptive::{count_adaptive, count_adaptive_parallel_recorded};
use bfly::core::adaptive::{execute_plan, ExecMode, Member, Plan};
use bfly::core::baseline::{count_hash_aggregation, count_vertex_priority};
use bfly::core::pair_matrix::top_pairs;
use bfly::core::telemetry::NoopRecorder;
use bfly::core::testkit::fixture_battery;
use bfly::core::{count, count_brute_force, count_dense_formula, count_via_spgemm, Invariant};
use bfly::graph::generators::{chung_lu, gnp, uniform_exact, with_planted_biclique};
use bfly::graph::{BipartiteGraph, Side};
use bfly::sparse::choose2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run the full agreement battery on one graph.
fn assert_all_agree(g: &BipartiteGraph, label: &str) {
    let want = count_via_spgemm(g);
    assert_eq!(count_dense_formula(g), want, "{label}: dense formula");
    assert_eq!(count_brute_force(g), want, "{label}: brute force");
    let workers = ExecMode::Parallel {
        chunks: rayon::current_num_threads().max(1),
    };
    for inv in Invariant::ALL {
        assert_eq!(count(g, inv), want, "{label}: {inv} sequential");
        let plan = Plan::forced(g, Member::Fixed(inv), workers, None);
        assert_eq!(execute_plan(g, &plan), want, "{label}: {inv} parallel");
    }
    assert_eq!(count_hash_aggregation(g), want, "{label}: hash baseline");
    assert_eq!(count_vertex_priority(g), want, "{label}: vertex priority");
    // Global-order kernels: totals sequential and at 1/2/4 chunks.
    for member in [Member::Priority, Member::Ranked] {
        let plan = Plan::forced(g, member, ExecMode::Flat, None);
        assert_eq!(
            execute_plan(g, &plan),
            want,
            "{label}: {member:?} sequential"
        );
    }
    for chunks in [1usize, 2, 4] {
        let mode = ExecMode::Parallel { chunks };
        assert_eq!(
            execute_plan(g, &Plan::forced(g, Member::Priority, mode, None)),
            want,
            "{label}: priority parallel/{chunks}"
        );
        assert_eq!(
            execute_plan(g, &Plan::forced(g, Member::Ranked, mode, None)),
            want,
            "{label}: ranked parallel/{chunks}"
        );
    }
    let (xi, plan) = count_adaptive(g);
    assert_eq!(xi, want, "{label}: adaptive (plan {plan:?})");
    let (xi_par, plan_par) = count_adaptive_parallel_recorded(g, &mut NoopRecorder);
    assert_eq!(
        xi_par, want,
        "{label}: adaptive parallel (plan {plan_par:?})"
    );
}

#[test]
fn agreement_on_testkit_fixture_battery() {
    // The shared fixture battery (testkit) covers uniform, skewed,
    // star-heavy, near-empty, biclique, and degenerate shapes.
    for (name, g) in fixture_battery() {
        assert_all_agree(&g, &name);
    }
}

/// With `k` past the number of pairs, [`top_pairs`] lists every pair:
/// each listed `(i, j)` has `i < j` and `C(|N(i) ∩ N(j)|, 2)`
/// butterflies, the listed pairs are exactly the pairs `i < j` sharing at
/// least two neighbours, and the total is the brute-force count — on both
/// sides of every fixture.
#[test]
fn pair_matrix_entries_match_the_intersection_oracle() {
    for (name, g) in fixture_battery() {
        let want = count_brute_force(&g);
        for side in [Side::V1, Side::V2] {
            let adj = match side {
                Side::V1 => g.biadjacency(),
                Side::V2 => g.biadjacency_t(),
            };
            let (total, listed) = top_pairs(&g, side, usize::MAX).unwrap();
            for &(i, j, b) in &listed {
                let shared = adj.row_intersection_size(i as usize, j as usize) as u64;
                assert!(i < j, "{name} {side:?}: pair ({i}, {j}) out of order");
                assert_eq!(b, choose2(shared), "{name} {side:?}: entry ({i}, {j})");
            }
            let mut ids: Vec<(u32, u32)> = listed.iter().map(|&(i, j, _)| (i, j)).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(
                ids.len(),
                listed.len(),
                "{name} {side:?}: a pair listed twice"
            );
            let mut pairs = 0;
            for i in 0..adj.nrows() {
                for j in i + 1..adj.nrows() {
                    pairs += usize::from(adj.row_intersection_size(i, j) >= 2);
                }
            }
            assert_eq!(listed.len(), pairs, "{name} {side:?}: listed pairs");
            assert_eq!(total, want, "{name} {side:?}: total");
        }
    }
}

#[test]
fn agreement_on_uniform_graphs() {
    let mut rng = StdRng::seed_from_u64(1001);
    for (m, n, e) in [(20, 20, 80), (50, 10, 150), (10, 60, 200), (35, 35, 0)] {
        let g = uniform_exact(m, n, e, &mut rng);
        assert_all_agree(&g, &format!("uniform {m}x{n}x{e}"));
    }
}

#[test]
fn agreement_on_skewed_graphs() {
    let mut rng = StdRng::seed_from_u64(1002);
    for exp in [0.3, 0.7, 1.0] {
        let g = chung_lu(60, 45, 300, exp, exp, &mut rng);
        assert_all_agree(&g, &format!("chung-lu exp={exp}"));
    }
}

#[test]
fn agreement_on_gnp_graphs() {
    let mut rng = StdRng::seed_from_u64(1003);
    for p in [0.01, 0.1, 0.5] {
        let g = gnp(40, 30, p, &mut rng);
        assert_all_agree(&g, &format!("gnp p={p}"));
    }
}

#[test]
fn agreement_on_preferential_attachment_graphs() {
    use bfly::graph::generators::preferential_attachment;
    let mut rng = StdRng::seed_from_u64(1008);
    let g = preferential_attachment(45, 40, 3, &mut rng);
    assert_all_agree(&g, "preferential attachment");
}

#[test]
fn agreement_on_planted_structures() {
    let mut rng = StdRng::seed_from_u64(1004);
    let base = uniform_exact(40, 40, 100, &mut rng);
    let g = with_planted_biclique(&base, &[0, 1, 2, 3, 4, 5], &[10, 11, 12, 13]);
    assert_all_agree(&g, "planted biclique");
}

#[test]
fn agreement_on_degenerate_shapes() {
    // Complete, empty, single row/column, perfect matching, double star.
    assert_all_agree(&BipartiteGraph::complete(6, 6), "K_{6,6}");
    assert_all_agree(&BipartiteGraph::empty(10, 10), "empty");
    assert_all_agree(&BipartiteGraph::complete(1, 20), "single V1 vertex");
    assert_all_agree(&BipartiteGraph::complete(20, 1), "single V2 vertex");
    let matching: Vec<(u32, u32)> = (0..15).map(|i| (i, i)).collect();
    assert_all_agree(
        &BipartiteGraph::from_edges(15, 15, &matching).unwrap(),
        "perfect matching",
    );
    // Two hubs sharing all leaves: C(n,2) butterflies per leaf pair… a
    // K_{2,n}: C(n,2) butterflies total.
    let mut edges = Vec::new();
    for v in 0..12u32 {
        edges.push((0, v));
        edges.push((1, v));
    }
    let k2n = BipartiteGraph::from_edges(2, 12, &edges).unwrap();
    assert_eq!(count_via_spgemm(&k2n), 66);
    assert_all_agree(&k2n, "K_{2,12}");
}

#[test]
fn transpose_symmetry_across_algorithms() {
    let mut rng = StdRng::seed_from_u64(1005);
    for _ in 0..5 {
        let g = chung_lu(30, 50, 220, 0.6, 0.8, &mut rng);
        let t = g.swap_sides();
        let want = count_via_spgemm(&g);
        assert_eq!(count_via_spgemm(&t), want);
        for inv in Invariant::ALL {
            assert_eq!(count(&t, inv), want, "{inv} on transpose");
        }
    }
}

#[test]
fn butterfly_core_reduction_preserves_counts() {
    // The (2,2)-core drops only vertices that cannot be in any butterfly,
    // so every counter returns the same total on the reduced graph.
    use bfly::graph::butterfly_core;
    let mut rng = StdRng::seed_from_u64(1007);
    for _ in 0..4 {
        let g = chung_lu(60, 50, 180, 0.7, 0.7, &mut rng);
        let core = butterfly_core(&g);
        assert!(core.subgraph.nedges() <= g.nedges());
        let full = count_via_spgemm(&g);
        assert_eq!(count_via_spgemm(&core.subgraph), full);
        for inv in [Invariant::Inv2, Invariant::Inv7] {
            assert_eq!(count(&core.subgraph, inv), full);
        }
    }
}

#[test]
fn loop_invariants_machine_checked_end_to_end() {
    // The executable FLAME worksheet: every derived algorithm maintains
    // its loop invariant at every iteration on a cross-crate pipeline
    // graph (stand-in generator → verifier).
    use bfly::core::family::verify_loop_invariant;
    let g = bfly::graph::StandIn::ArxivCondMat.generate_scaled(0.002);
    for inv in Invariant::ALL {
        verify_loop_invariant(&g, inv).unwrap();
    }
}

#[test]
fn counts_scale_with_planted_density() {
    // Adding a biclique strictly increases the count by at least the
    // block's own butterflies.
    let mut rng = StdRng::seed_from_u64(1006);
    let base = uniform_exact(50, 50, 120, &mut rng);
    let before = count_via_spgemm(&base);
    let g = with_planted_biclique(&base, &[0, 1, 2, 3], &[0, 1, 2, 3]);
    let after = count_via_spgemm(&g);
    assert!(after >= before + 36 - 36); // block contributes C(4,2)² = 36 minus overlaps
    assert!(after > before);
}
