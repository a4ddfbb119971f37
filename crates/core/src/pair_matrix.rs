//! The per-pair butterfly counts `C` (paper §II-A).
//!
//! `C = ½·B ∘ (B − J)` with `B = A·Aᵀ`: entry `(i, j)` is the number of
//! butterflies whose V1 wedge-endpoint pair is `{i, j}` (i.e. `C(B_ij, 2)`
//! — the ½ and the `−J` implement the binomial). The strictly-upper part
//! sums to `Ξ_G` (eq. 1), and its heaviest entries locate the strongest
//! 2×2 co-engagement in the network. [`top_pairs`] computes both in one
//! pass without storing `C`.

use crate::error::{checked_total, Result};
use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{choose2, CheckedAccum, Spa};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pair `(i, j, butterflies)` with `i < j`.
pub type PairCount = (u32, u32, u64);

/// The exact total `Ξ_G` and the `k` heaviest pairs `(i, j, butterflies)`
/// with `i < j` on `side` (`Side::V1` pairs vertices of V1 with wedge
/// points in V2, and vice versa), by count descending, then `i`, then `j`.
///
/// One row of the upper triangle at a time: row `i`'s wedges `i – v – j`
/// run only over the suffix `j > i` of `v`'s sorted row (the cut the
/// priority kernel makes) and aggregate `B_ij` in a sparse accumulator
/// over the pair side (the per-start wedge aggregation of Wang et al.).
/// Each `C(B_ij, 2)` adds to a checked total and competes for a heap of at
/// most `k` candidates whose top is the one to evict next. `C` is never
/// stored: scratch is the accumulator plus the heap. A total past `u64`
/// fails with [`BflyError::CountOverflow`](crate::error::BflyError)
/// carrying the exact value.
pub fn top_pairs(g: &BipartiteGraph, side: Side, k: usize) -> Result<(u64, Vec<PairCount>)> {
    let (part, other) = match side {
        Side::V1 => (g.biadjacency(), g.biadjacency_t()),
        Side::V2 => (g.biadjacency_t(), g.biadjacency()),
    };
    let n = part.nrows();
    let mut spa = Spa::<u64>::new(n);
    let mut total = CheckedAccum::new();
    let mut heap = BinaryHeap::new();
    for i in 0..n {
        for &v in part.row(i) {
            let partners = other.row(v as usize);
            let after = partners.partition_point(|&j| j as usize <= i);
            for &j in &partners[after..] {
                spa.scatter(j, 1);
            }
        }
        for (j, cnt) in spa.entries().filter(|&(_, cnt)| cnt >= 2) {
            let pairs = choose2(cnt);
            total.add(pairs);
            let key = (Reverse(pairs), i as u32, j);
            if heap.len() < k {
                heap.push(key);
            } else if heap.peek().is_some_and(|top| key < *top) {
                heap.pop();
                heap.push(key);
            }
        }
        spa.clear();
    }
    let total = checked_total(total, "pair_matrix_total")?;
    let top = heap
        .into_sorted_vec()
        .into_iter()
        .map(|(Reverse(b), i, j)| (i, j, b))
        .collect();
    Ok((total, top))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_spec_on_both_sides() {
        let g = BipartiteGraph::from_edges(
            4,
            4,
            &[
                (0, 0),
                (0, 1),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 1),
                (2, 2),
                (3, 3),
            ],
        )
        .unwrap();
        let want = crate::spec::count_brute_force(&g);
        assert_eq!(top_pairs(&g, Side::V1, 0).unwrap().0, want);
        assert_eq!(top_pairs(&g, Side::V2, 0).unwrap().0, want);
    }

    #[test]
    fn every_pair_of_a_biclique_is_listed_once() {
        // Every V1 pair shares 3 wedges → C(3,2) = 3 butterflies.
        let g = BipartiteGraph::complete(3, 3);
        let (total, pairs) = top_pairs(&g, Side::V1, usize::MAX).unwrap();
        assert_eq!(total, 9);
        assert_eq!(pairs, vec![(0, 1, 3), (0, 2, 3), (1, 2, 3)]);
    }

    #[test]
    fn top_pairs_ranks_by_count() {
        // Pair {0,1} shares 3 items; pair {2,3} shares 2.
        let g = BipartiteGraph::from_edges(
            4,
            5,
            &[
                (0, 0),
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 1),
                (1, 2),
                (2, 3),
                (2, 4),
                (3, 3),
                (3, 4),
            ],
        )
        .unwrap();
        let (_, top) = top_pairs(&g, Side::V1, 2).unwrap();
        assert_eq!(top[0], (0, 1, 3));
        assert_eq!(top[1], (2, 3, 1));
        // Asking for more pairs than exist just returns all.
        assert_eq!(top_pairs(&g, Side::V1, 100).unwrap().1.len(), 2);
    }

    #[test]
    fn butterfly_free_graph_has_no_pairs() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        assert_eq!(top_pairs(&g, Side::V1, 5).unwrap(), (0, vec![]));
    }
}
