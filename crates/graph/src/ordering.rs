//! Vertex orderings and relabelings.
//!
//! The paper's future-work section (§VI) points at degree sorting \[3\], \[12\]
//! as the next optimisation for the derived algorithms, and the
//! vertex-priority baseline (Wang et al., VLDB'19) is built entirely on a
//! degree-based total order. This module produces such orders and applies
//! them as graph relabelings so the ablation benches can measure their
//! effect on every invariant.

use crate::bipartite::{BipartiteGraph, Side};

/// Permutation `perm[new_index] = old_index` sorting one side by
/// non-decreasing degree (ties broken by vertex id for determinism).
pub fn degree_ascending(g: &BipartiteGraph, side: Side) -> Vec<u32> {
    let count = g.nvertices(side);
    let mut perm: Vec<u32> = (0..count as u32).collect();
    match side {
        Side::V1 => perm.sort_by_key(|&u| (g.deg_v1(u as usize), u)),
        Side::V2 => perm.sort_by_key(|&v| (g.deg_v2(v as usize), v)),
    }
    perm
}

/// Permutation sorting one side by non-increasing degree.
pub fn degree_descending(g: &BipartiteGraph, side: Side) -> Vec<u32> {
    let mut perm = degree_ascending(g, side);
    perm.reverse();
    perm
}

/// Invert a permutation: `inv[perm[i]] = i`.
pub fn invert_permutation(perm: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; perm.len()];
    for (new, &old) in perm.iter().enumerate() {
        inv[old as usize] = new as u32;
    }
    inv
}

/// Relabel one side of the graph with `perm[new] = old`. The resulting
/// graph is isomorphic (butterfly counts unchanged), but iteration order —
/// and therefore the cost profile of each invariant — changes.
pub fn relabel(g: &BipartiteGraph, side: Side, perm: &[u32]) -> BipartiteGraph {
    match side {
        Side::V1 => {
            let a = g.biadjacency().permute_rows(perm);
            BipartiteGraph::from_biadjacency(a)
        }
        Side::V2 => {
            // Rows of Aᵀ are V2 vertices; permute there, then transpose back.
            let at = g.biadjacency_t().permute_rows(perm);
            BipartiteGraph::from_biadjacency(at.transpose())
        }
    }
}

/// A total priority over *all* `|V1| + |V2|` vertices by non-increasing
/// degree (ties by side, then id). Returns `(rank_v1, rank_v2)`: lower rank
/// = higher priority. This is the order the vertex-priority baseline
/// (BFC-VP) peels wedges in.
///
/// One counting sort over degrees, `O(V + max degree)` time, allocating
/// one `u32` bucket per degree beside the two rank arrays: each degree's
/// bucket becomes its first free rank, and handing ranks out over V1 then
/// V2, ids ascending, breaks ties by side then id.
pub fn global_degree_ranks(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let (m, n) = (g.nv1(), g.nv2());
    let degrees = || {
        (0..m)
            .map(|u| g.deg_v1(u))
            .chain((0..n).map(|v| g.deg_v2(v)))
    };
    let mut next = vec![0u32; degrees().max().unwrap_or(0) + 1];
    for d in degrees() {
        next[d] += 1;
    }
    // Exclusive prefix sum from the highest degree down.
    let mut first = 0u32;
    for slot in next.iter_mut().rev() {
        let size = *slot;
        *slot = first;
        first += size;
    }
    let mut take = |d: usize| {
        let rank = next[d];
        next[d] += 1;
        rank
    };
    let rank_v1 = (0..m).map(|u| take(g.deg_v1(u))).collect();
    let rank_v2 = (0..n).map(|v| take(g.deg_v2(v))).collect();
    (rank_v1, rank_v2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BipartiteGraph {
        // degrees V1: [3, 1, 2], V2: [2, 2, 1, 1]
        BipartiteGraph::from_edges(3, 4, &[(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (2, 3)]).unwrap()
    }

    #[test]
    fn ascending_order_sorts_by_degree() {
        let g = sample();
        let p = degree_ascending(&g, Side::V1);
        let degs: Vec<usize> = p.iter().map(|&u| g.deg_v1(u as usize)).collect();
        assert_eq!(degs, vec![1, 2, 3]);
        let p2 = degree_descending(&g, Side::V2);
        let degs2: Vec<usize> = p2.iter().map(|&v| g.deg_v2(v as usize)).collect();
        assert_eq!(degs2, vec![2, 2, 1, 1]);
    }

    #[test]
    fn invert_roundtrips() {
        let perm = vec![2u32, 0, 3, 1];
        let inv = invert_permutation(&perm);
        for (new, &old) in perm.iter().enumerate() {
            assert_eq!(inv[old as usize], new as u32);
        }
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = sample();
        let p = degree_descending(&g, Side::V1);
        let h = relabel(&g, Side::V1, &p);
        assert_eq!(h.nedges(), g.nedges());
        // New vertex 0 is old highest-degree vertex (old 0, degree 3).
        assert_eq!(h.deg_v1(0), 3);
        // Degree multiset preserved.
        let mut dg: Vec<usize> = (0..3).map(|u| g.deg_v1(u)).collect();
        let mut dh: Vec<usize> = (0..3).map(|u| h.deg_v1(u)).collect();
        dg.sort();
        dh.sort();
        assert_eq!(dg, dh);
    }

    #[test]
    fn relabel_v2_side() {
        let g = sample();
        let p = degree_ascending(&g, Side::V2);
        let h = relabel(&g, Side::V2, &p);
        assert_eq!(h.nedges(), g.nedges());
        let mut dg: Vec<usize> = (0..4).map(|v| g.deg_v2(v)).collect();
        let mut dh: Vec<usize> = (0..4).map(|v| h.deg_v2(v)).collect();
        dg.sort();
        dh.sort();
        assert_eq!(dg, dh);
        // Lowest-degree V2 vertex first after ascending relabel.
        assert_eq!(h.deg_v2(0), 1);
    }

    #[test]
    fn global_ranks_are_a_permutation_and_degree_sorted() {
        let g = sample();
        let (r1, r2) = global_degree_ranks(&g);
        let mut all: Vec<u32> = r1.iter().chain(r2.iter()).copied().collect();
        all.sort();
        let expect: Vec<u32> = (0..(g.nv1() + g.nv2()) as u32).collect();
        assert_eq!(all, expect);
        // Highest-degree vertex (V1 id 0, degree 3) gets rank 0.
        assert_eq!(r1[0], 0);
    }
}
