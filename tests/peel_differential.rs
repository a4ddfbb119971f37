//! Differential harness for the bucket-peeling engine: on every named
//! fixture and on graphs drawn from all five regime families, the
//! sequential bucket path, the chunked parallel path at several widths,
//! and the binary-heap oracles must produce bitwise-identical tip and
//! wing numbers — including inside pinned rayon pools of every size the
//! acceptance gate names (1, 2, 4, 6 threads). The k-wing execution
//! variants (queue, dense matrix, masked SpGEMM) ride along so the
//! whole peeling stack stays pinned to one definition.

use bfly::core::peel::{
    k_wing, k_wing_masked_spgemm, k_wing_matrix, tip_numbers, tip_numbers_budgeted_recorded,
    tip_numbers_oracle, wing_numbers, wing_numbers_budgeted_recorded, wing_numbers_oracle,
    wing_numbers_with_chunks,
};
use bfly::core::telemetry::NoopRecorder;
use bfly::core::testkit::{arb_family_graph, arb_graph, fixture_battery, hub_death_fixtures};
use bfly::core::{BflyError, ResourceBudget};
use bfly::graph::{BipartiteGraph, Side};
use proptest::prelude::*;

/// Chunk widths / pool sizes the acceptance gate pins.
const WIDTHS: [usize; 4] = [1, 2, 4, 6];

/// Tip numbers of `side` from the executor at `chunks`, unlimited
/// budget, errors typed.
fn tips(g: &BipartiteGraph, side: Side, chunks: usize) -> Result<Vec<u64>, BflyError> {
    let unlimited = ResourceBudget::unlimited();
    Ok(tip_numbers_budgeted_recorded(g, side, chunks, &unlimited, &mut NoopRecorder)?.value)
}

#[test]
fn tip_paths_agree_on_fixture_battery() {
    for (name, g) in fixture_battery() {
        for side in [Side::V1, Side::V2] {
            let oracle = tip_numbers_oracle(&g, side);
            assert_eq!(
                tip_numbers(&g, side),
                oracle,
                "{name} {side:?}: sequential bucket path"
            );
            for chunks in WIDTHS {
                assert_eq!(
                    tips(&g, side, chunks).unwrap(),
                    oracle,
                    "{name} {side:?}: chunks={chunks}"
                );
            }
        }
    }
}

#[test]
fn wing_paths_agree_on_fixture_battery() {
    for (name, g) in fixture_battery() {
        let oracle = wing_numbers_oracle(&g);
        assert_eq!(wing_numbers(&g), oracle, "{name}: sequential bucket path");
        for chunks in WIDTHS {
            assert_eq!(
                wing_numbers_with_chunks(&g, chunks, &mut NoopRecorder),
                oracle,
                "{name}: chunks={chunks}"
            );
        }
    }
}

/// Hub-death inputs: hub rows and columns that lose most of their
/// entries over many rounds, so the wing engine compacts them again and
/// again and its repairs take both sides. Every width must match the
/// heap oracles.
#[test]
fn hub_death_fixtures_agree_with_oracles() {
    for (name, g) in hub_death_fixtures() {
        let wing_oracle = wing_numbers_oracle(&g);
        let tip_oracles = [Side::V1, Side::V2].map(|side| (side, tip_numbers_oracle(&g, side)));
        for chunks in WIDTHS {
            assert_eq!(
                wing_numbers_with_chunks(&g, chunks, &mut NoopRecorder),
                wing_oracle,
                "{name}: wing chunks={chunks}"
            );
            for (side, oracle) in &tip_oracles {
                assert_eq!(
                    &tips(&g, *side, chunks).unwrap(),
                    oracle,
                    "{name} {side:?}: tip chunks={chunks}"
                );
            }
        }
    }
}

#[test]
fn pinned_pools_never_change_numbers() {
    // The executor run at the installed pool's width (as the CLI runs
    // it under --threads); every pool size must reproduce the
    // single-thread numbers exactly.
    for (name, g) in fixture_battery() {
        let tip_seq: Vec<Vec<u64>> = [Side::V1, Side::V2]
            .iter()
            .map(|&s| tip_numbers(&g, s))
            .collect();
        let wing_seq = wing_numbers(&g);
        for threads in WIDTHS {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let (tips, wings) = pool.install(|| {
                (
                    [Side::V1, Side::V2]
                        .iter()
                        .map(|&s| tips(&g, s, threads).unwrap())
                        .collect::<Vec<_>>(),
                    wing_numbers_with_chunks(&g, threads, &mut NoopRecorder),
                )
            });
            assert_eq!(tips, tip_seq, "{name}: tip in {threads}-thread pool");
            assert_eq!(wings, wing_seq, "{name}: wing in {threads}-thread pool");
        }
    }
}

/// Degenerate-input battery: shapes with no butterflies at all (empty
/// graph, a single edge, isolated vertices only, one empty side) plus
/// thresholds above any attainable count. Sequential, chunked, and
/// fallible paths must agree bitwise and nothing may panic.
#[test]
fn degenerate_inputs_battery() {
    use bfly::core::peel::{k_tip, k_wing};
    let cases: Vec<(&str, BipartiteGraph)> = vec![
        ("empty", BipartiteGraph::from_edges(0, 0, &[]).unwrap()),
        (
            "single-edge",
            BipartiteGraph::from_edges(1, 1, &[(0, 0)]).unwrap(),
        ),
        (
            "all-isolated",
            BipartiteGraph::from_edges(5, 7, &[]).unwrap(),
        ),
        ("v1-empty", BipartiteGraph::from_edges(0, 4, &[]).unwrap()),
        ("v2-empty", BipartiteGraph::from_edges(4, 0, &[]).unwrap()),
        (
            "one-wedge",
            BipartiteGraph::from_edges(2, 1, &[(0, 0), (1, 0)]).unwrap(),
        ),
    ];
    for (name, g) in &cases {
        for side in [Side::V1, Side::V2] {
            let seq = tip_numbers(g, side);
            assert_eq!(seq.len(), g.nvertices(side), "{name} {side:?}");
            assert!(
                seq.iter().all(|&t| t == 0),
                "{name} {side:?}: no butterflies exist"
            );
            for chunks in WIDTHS {
                assert_eq!(
                    tips(g, side, chunks).unwrap(),
                    seq,
                    "{name} {side:?}: chunks={chunks}"
                );
            }
            assert_eq!(
                tips(g, side, 1).unwrap(),
                seq,
                "{name} {side:?}: fallible path"
            );
            // k above any attainable tip number peels everything.
            let r = k_tip(g, side, u64::MAX);
            assert!(r.keep.iter().all(|&b| !b), "{name} {side:?}");
            assert_eq!(r.subgraph.nedges(), 0, "{name} {side:?}");
        }
        let seq = wing_numbers(g);
        assert_eq!(seq.len(), g.nedges(), "{name}");
        assert!(seq.iter().all(|&w| w == 0), "{name}");
        for chunks in WIDTHS {
            assert_eq!(
                wing_numbers_with_chunks(g, chunks, &mut NoopRecorder),
                seq,
                "{name}: chunks={chunks}"
            );
        }
        let unlimited = ResourceBudget::unlimited();
        let wings = wing_numbers_budgeted_recorded(g, 1, &unlimited, &mut NoopRecorder);
        assert_eq!(wings.unwrap().value, seq, "{name}: fallible path");
        assert_eq!(k_wing(g, u64::MAX).subgraph.nedges(), 0, "{name}");
    }
    // On a graph that does have butterflies, a threshold one past the
    // maximum attained number empties it — no off-by-one at the top.
    let g = BipartiteGraph::complete(3, 3);
    let max_tip = tip_numbers(&g, Side::V1).into_iter().max().unwrap();
    assert!(max_tip > 0);
    assert!(k_tip(&g, Side::V1, max_tip).keep.iter().any(|&b| b));
    assert!(k_tip(&g, Side::V1, max_tip + 1).keep.iter().all(|&b| !b));
    let max_wing = wing_numbers(&g).into_iter().max().unwrap();
    assert!(max_wing > 0);
    assert!(k_wing(&g, max_wing).subgraph.nedges() > 0);
    assert_eq!(k_wing(&g, max_wing + 1).subgraph.nedges(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Parallel tip numbers equal sequential on both sides, at every
    /// chunk width, on graphs from all five regime families.
    #[test]
    fn tip_parallel_matches_sequential(g in arb_family_graph(), chunks in 2usize..7) {
        for side in [Side::V1, Side::V2] {
            let seq = tip_numbers(&g, side);
            prop_assert_eq!(
                tips(&g, side, chunks).unwrap(),
                seq
            );
        }
    }

    /// Sequential wing numbers equal the heap oracle's, and parallel
    /// equal sequential at every chunk width.
    #[test]
    fn wing_parallel_matches_sequential(g in arb_family_graph(), chunks in 2usize..7) {
        let seq = wing_numbers(&g);
        prop_assert_eq!(&seq, &wing_numbers_oracle(&g));
        prop_assert_eq!(
            wing_numbers_with_chunks(&g, chunks, &mut NoopRecorder),
            seq
        );
    }

    /// The three k-wing execution variants keep agreeing on random
    /// graphs now that the decomposition default runs on the bucket
    /// engine (membership at k equals wing_number >= k for all three).
    #[test]
    fn k_wing_variants_agree_with_wing_numbers(g in arb_graph(), k in 1u64..6) {
        let a = k_wing(&g, k);
        let b = k_wing_matrix(&g, k);
        let c = k_wing_masked_spgemm(&g, k);
        prop_assert_eq!(&a.keep, &b.keep);
        prop_assert_eq!(&a.keep, &c.keep);
        let wn = wing_numbers(&g);
        let from_numbers: Vec<bool> = wn.iter().map(|&w| w >= k).collect();
        prop_assert_eq!(&a.keep, &from_numbers);
    }
}
