//! The per-pair butterfly matrix `C` (paper §II-A).
//!
//! `C = ½·B ∘ (B − J)` with `B = A·Aᵀ`: entry `(i, j)` is the number of
//! butterflies whose V1 wedge-endpoint pair is `{i, j}` (i.e. `C(B_ij, 2)`
//! — the ½ and the `−J` implement the binomial). The strictly-upper part
//! sums to `Ξ_G` (eq. 1). Beyond re-deriving the total, `C` is directly
//! useful: `butterflies_between(i, j)` answers pairwise similarity
//! queries, and the top-k heaviest pairs locate the strongest 2×2
//! co-engagement in the network.

use bfly_graph::{BipartiteGraph, Side};
use bfly_sparse::{choose2, CheckedAccum, CsrMatrix, Spa};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Symmetric per-pair butterfly counts on one side of the bipartition.
#[derive(Debug, Clone)]
pub struct PairMatrix {
    side: Side,
    /// `C(B_ij, 2)` stored sparsely; diagonal omitted.
    c: CsrMatrix<u64>,
}

impl PairMatrix {
    /// Build `C` for the given side (`Side::V1` pairs vertices of V1 with
    /// wedge points in V2, and vice versa), one row at a time: row `i`'s
    /// wedges `i – v – j` aggregate `B_ij` in a sparse accumulator over
    /// the pair side (the per-start wedge aggregation of Wang et al.),
    /// and the row keeps `C(B_ij, 2)` for `j ≠ i`, sorted by `j`. `B`
    /// itself is never materialised: beyond `C`, scratch is one
    /// accumulator over the pair side plus one row's sort buffer.
    pub fn build(g: &BipartiteGraph, side: Side) -> Self {
        let (part, other) = match side {
            Side::V1 => (g.biadjacency(), g.biadjacency_t()),
            Side::V2 => (g.biadjacency_t(), g.biadjacency()),
        };
        let n = part.nrows();
        let mut spa = Spa::<u64>::new(n);
        let mut rowptr = Vec::with_capacity(n + 1);
        let mut colind = Vec::new();
        let mut values = Vec::new();
        let mut row: Vec<(u32, u64)> = Vec::new();
        rowptr.push(0usize);
        for i in 0..n {
            for &v in part.row(i) {
                for &j in other.row(v as usize) {
                    spa.scatter(j, 1);
                }
            }
            row.extend(
                spa.entries()
                    .filter(|&(j, cnt)| j as usize != i && cnt >= 2)
                    .map(|(j, cnt)| (j, choose2(cnt))),
            );
            row.sort_unstable_by_key(|&(j, _)| j);
            for (j, pairs) in row.drain(..) {
                colind.push(j);
                values.push(pairs);
            }
            rowptr.push(colind.len());
            spa.clear();
        }
        let c = CsrMatrix::try_from_raw_parts(n, n, rowptr, colind, values)
            .expect("sorted rows are structurally valid");
        Self { side, c }
    }

    /// Which side the pairs live on.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Butterflies whose endpoint pair is `{i, j}`.
    pub fn butterflies_between(&self, i: u32, j: u32) -> u64 {
        self.c.get(i as usize, j)
    }

    /// Total butterflies: half the sum (the matrix is symmetric and the
    /// diagonal is dropped) — eq. 1/eq. 2 of the paper.
    pub fn total(&self) -> u64 {
        self.c.sum() / 2
    }

    /// Overflow-checked [`PairMatrix::total`]: the eq. 1 sum runs through
    /// a [`CheckedAccum`], failing with
    /// [`BflyError::CountOverflow`](crate::error::BflyError) (carrying
    /// the exact promoted total) instead of wrapping in release builds.
    pub fn try_total(&self) -> crate::error::Result<u64> {
        let mut acc = CheckedAccum::new();
        for i in 0..self.c.nrows() {
            let (_, vals) = self.c.row(i);
            for &v in vals {
                acc.add(v);
            }
        }
        let total = acc.value() / 2;
        u64::try_from(total).map_err(|_| crate::error::BflyError::CountOverflow {
            partial: total,
            context: "pair_matrix_total",
        })
    }

    /// The `k` heaviest pairs `(i, j, butterflies)` with `i < j`, by
    /// count descending, then `i`, then `j`. The scan keeps at most `k`
    /// candidates in a heap whose top is the one to evict next.
    pub fn top_pairs(&self, k: usize) -> Vec<(u32, u32, u64)> {
        let mut heap = BinaryHeap::new();
        for i in 0..self.c.nrows() {
            let (cols, vals) = self.c.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if (i as u32) >= j {
                    continue;
                }
                let key = (Reverse(v), i as u32, j);
                if heap.len() < k {
                    heap.push(key);
                } else if heap.peek().is_some_and(|top| key < *top) {
                    heap.pop();
                    heap.push(key);
                }
            }
        }
        heap.into_sorted_vec()
            .into_iter()
            .map(|(Reverse(v), i, j)| (i, j, v))
            .collect()
    }

    /// Number of stored (ordered) pairs.
    pub fn nnz(&self) -> usize {
        self.c.nnz()
    }
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
        assert_eq!(PairMatrix::build(&g, Side::V1).total(), want);
        assert_eq!(PairMatrix::build(&g, Side::V2).total(), want);
    }

    #[test]
    fn pairwise_queries() {
        let g = BipartiteGraph::complete(3, 3);
        let pm = PairMatrix::build(&g, Side::V1);
        // Every V1 pair shares 3 wedges → C(3,2) = 3 butterflies.
        assert_eq!(pm.butterflies_between(0, 1), 3);
        assert_eq!(pm.butterflies_between(2, 0), 3);
        assert_eq!(pm.butterflies_between(1, 1), 0); // diagonal dropped
        assert_eq!(pm.total(), 9);
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
        let pm = PairMatrix::build(&g, Side::V1);
        let top = pm.top_pairs(2);
        assert_eq!(top[0], (0, 1, 3));
        assert_eq!(top[1], (2, 3, 1));
        // Asking for more pairs than exist just returns all.
        assert_eq!(pm.top_pairs(100).len(), 2);
    }

    #[test]
    fn checked_total_matches_infallible_total() {
        let g = BipartiteGraph::complete(4, 5);
        let pm = PairMatrix::build(&g, Side::V1);
        assert_eq!(pm.try_total().unwrap(), pm.total());
    }

    #[test]
    fn butterfly_free_graph_is_empty() {
        let g = BipartiteGraph::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2)]).unwrap();
        let pm = PairMatrix::build(&g, Side::V1);
        assert_eq!(pm.nnz(), 0);
        assert_eq!(pm.total(), 0);
        assert!(pm.top_pairs(5).is_empty());
        assert_eq!(pm.side(), Side::V1);
    }
}
