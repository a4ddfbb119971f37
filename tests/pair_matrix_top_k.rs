//! `pair_matrix::top_pairs(g, side, k)` keeps at most `k` candidates
//! while it scans. It must return exactly the first `k` of every pair
//! `i < j` sorted by count descending, then `i`, then `j`, and the exact
//! total, on both sides of every fixture, for `k` from zero past the
//! number of pairs.

use bfly::core::pair_matrix::top_pairs;
use bfly::core::testkit::fixture_battery;
use bfly::graph::{BipartiteGraph, Side};
use bfly::sparse::choose2;
use std::cmp::Reverse;

/// Every pair `i < j` with a butterfly, by definition (`C(|N(i) ∩ N(j)|,
/// 2)`), sorted in full.
fn sorted_pairs(g: &BipartiteGraph, side: Side) -> Vec<(u32, u32, u64)> {
    let adj = match side {
        Side::V1 => g.biadjacency(),
        Side::V2 => g.biadjacency_t(),
    };
    let mut all = Vec::new();
    for i in 0..adj.nrows() {
        for j in i + 1..adj.nrows() {
            let b = choose2(adj.row_intersection_size(i, j) as u64);
            if b > 0 {
                all.push((i as u32, j as u32, b));
            }
        }
    }
    all.sort_by_key(|&(i, j, b)| (Reverse(b), i, j));
    all
}

#[test]
fn top_pairs_equal_a_full_sort_on_both_sides() {
    let mut tied = 0;
    for (name, g) in fixture_battery() {
        for side in [Side::V1, Side::V2] {
            let all = sorted_pairs(&g, side);
            let total: u64 = all.iter().map(|&(_, _, b)| b).sum();
            tied += usize::from(all.windows(2).any(|w| w[0].2 == w[1].2));
            for k in [0, 1, 3, all.len(), all.len() + 5] {
                let want = &all[..k.min(all.len())];
                let got = top_pairs(&g, side, k).unwrap();
                assert_eq!(got.0, total, "{name} {side:?} k = {k}: total");
                assert_eq!(got.1, want, "{name} {side:?} k = {k}");
            }
        }
    }
    assert!(
        tied > 0,
        "no fixture ties two counts, so the order is unchecked"
    );
}
