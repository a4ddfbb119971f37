//! `PairMatrix::top_pairs(k)` keeps at most `k` candidates while it
//! scans. It must return exactly the first `k` of every upper-triangle
//! entry sorted by count descending, then `i`, then `j`, on both sides
//! of every fixture, for `k` from zero past the number of pairs.

use bfly::core::testkit::fixture_battery;
use bfly::core::PairMatrix;
use bfly::graph::Side;
use std::cmp::Reverse;

/// Every pair `i < j` with a butterfly, by definition, sorted in full.
fn sorted_pairs(pm: &PairMatrix, n: usize) -> Vec<(u32, u32, u64)> {
    let mut all = Vec::new();
    for i in 0..n as u32 {
        for j in i + 1..n as u32 {
            let b = pm.butterflies_between(i, j);
            if b > 0 {
                all.push((i, j, b));
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
            let pm = PairMatrix::build(&g, side);
            let all = sorted_pairs(&pm, g.nvertices(side));
            assert_eq!(2 * all.len(), pm.nnz(), "{name} {side:?}");
            tied += usize::from(all.windows(2).any(|w| w[0].2 == w[1].2));
            for k in [0, 1, 3, all.len(), all.len() + 5] {
                let want = &all[..k.min(all.len())];
                assert_eq!(pm.top_pairs(k), want, "{name} {side:?} k = {k}");
            }
        }
    }
    assert!(
        tied > 0,
        "no fixture ties two counts, so the order is unchecked"
    );
}
