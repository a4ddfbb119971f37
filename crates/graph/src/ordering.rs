//! Vertex orderings and relabelings.
//!
//! The paper's future-work section (§VI) points at degree sorting \[3\], \[12\]
//! as the next optimisation for the derived algorithms, and the
//! vertex-priority baseline (Wang et al., VLDB'19) is built entirely on a
//! degree-based total order. This module produces such orders and applies
//! them as graph relabelings so the ablation benches can measure their
//! effect on every invariant.
//!
//! A graph is *rank-ordered* ([`is_rank_ordered`]) when, on each side,
//! ids rise with [`global_degree_ranks`]: both sides numbered by degree
//! descending, ties by id, as BFC-VP++ (Wang et al., arXiv 1812.00283)
//! and ParButterfly (Shi & Shun, arXiv 1907.08607) renumber before
//! counting. There a rank test between a vertex and a neighbour's
//! neighbour on its own side is an id test, and every vertex's
//! higher-ranked neighbours are a prefix of its sorted row.
//! [`rank_ordered_from_edges`] builds such a graph from an edge list
//! with one CSR build, renumbering the list in place first.

use crate::bipartite::{BipartiteGraph, Side};
use bfly_sparse::{Pattern, SparseError};

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
    let mut next = first_slots(degrees());
    let mut take = |d: usize| {
        let rank = next[d];
        next[d] += 1;
        rank
    };
    let rank_v1 = (0..m).map(|u| take(g.deg_v1(u))).collect();
    let rank_v2 = (0..n).map(|v| take(g.deg_v2(v))).collect();
    (rank_v1, rank_v2)
}

/// The counting sort behind every degree order here: one bucket per
/// degree, holding the first position of that degree in the order by
/// degree descending. Handing positions out in id order breaks ties by
/// id.
fn first_slots(degrees: impl Iterator<Item = usize> + Clone) -> Vec<u32> {
    let mut next = vec![0u32; degrees.clone().max().unwrap_or(0) + 1];
    for d in degrees {
        next[d] += 1;
    }
    // Exclusive prefix sum from the highest degree down.
    let mut first = 0u32;
    for slot in next.iter_mut().rev() {
        let size = *slot;
        *slot = first;
        first += size;
    }
    next
}

/// Whether one side's degrees never rise with id, i.e. the side is
/// numbered by degree descending (ties in any order). `O(|side|)`.
pub fn degree_sorted(g: &BipartiteGraph, side: Side) -> bool {
    let rows = match side {
        Side::V1 => g.biadjacency(),
        Side::V2 => g.biadjacency_t(),
    };
    rows.ptr().windows(3).all(|w| w[1] - w[0] >= w[2] - w[1])
}

/// Whether `g` is rank-ordered: on each side, ids rise with
/// [`global_degree_ranks`]. Within a side the ranks order vertices by
/// degree descending, then id, so this holds exactly when neither side's
/// degrees rise with id ([`degree_sorted`]). `O(V)`.
pub fn is_rank_ordered(g: &BipartiteGraph) -> bool {
    degree_sorted(g, Side::V1) && degree_sorted(g, Side::V2)
}

/// Turn per-vertex degrees into new ids in place: `keys[x]`, the degree
/// of vertex `x`, becomes `x`'s position in the order by degree
/// descending, then id, which is the order [`global_degree_ranks`] gives
/// one side. One counting sort, `O(len + max degree)`.
fn ids_by_degree(keys: &mut [u32]) {
    let mut next = first_slots(keys.iter().map(|&d| d as usize));
    for key in keys.iter_mut() {
        let d = *key as usize;
        *key = next[d];
        next[d] += 1;
    }
}

/// The rank-ordered graph of an edge list: `from_edges(nv1, nv2, edges)`
/// relabelled on both sides through the rank permutation (degree
/// descending, ties by id), with sorted rows. The list is renumbered in
/// place before the one CSR build, so the input labelling and the rank
/// order are never resident as two graphs. Scratch beside the list is
/// one `u32` per vertex and one per degree.
///
/// Degrees are counted on the list. Duplicate edges can make those
/// differ from the built graph's; then the built graph's own degrees
/// rank its vertices again (ties still by input id, which is why the id
/// maps live through the first build), and its entries, in place of the
/// list, are renumbered and built once more.
pub fn rank_ordered_from_edges(
    nv1: usize,
    nv2: usize,
    mut edges: Vec<(u32, u32)>,
) -> Result<BipartiteGraph, SparseError> {
    let (mut id1, mut id2) = (vec![0u32; nv1], vec![0u32; nv2]);
    for &(u, v) in &edges {
        let (u, v) = (u as usize, v as usize);
        if u >= nv1 {
            return Err(SparseError::RowOutOfBounds { row: u, nrows: nv1 });
        }
        if v >= nv2 {
            return Err(SparseError::ColOutOfBounds { col: v, ncols: nv2 });
        }
        id1[u] += 1;
        id2[v] += 1;
    }
    ids_by_degree(&mut id1);
    ids_by_degree(&mut id2);
    for e in edges.iter_mut() {
        *e = (id1[e.0 as usize], id2[e.1 as usize]);
    }
    let a = Pattern::from_edges(nv1, nv2, &edges)?;
    if a.nnz() == edges.len() {
        drop((edges, id1, id2));
        return Ok(BipartiteGraph::from_biadjacency(a));
    }
    drop(edges);
    let fix1 = reranked(&id1, &row_lengths(&a));
    let fix2 = reranked(&id2, &column_lengths(&a));
    drop((id1, id2));
    let mut edges: Vec<(u32, u32)> = a.iter_entries().collect();
    drop(a);
    for e in edges.iter_mut() {
        *e = (fix1[e.0 as usize], fix2[e.1 as usize]);
    }
    drop((fix1, fix2));
    Ok(BipartiteGraph::from_biadjacency(Pattern::from_edges(
        nv1, nv2, &edges,
    )?))
}

/// The provisional-to-final id map of one side: `id[x]` is input vertex
/// `x`'s provisional id and `deg[p]` provisional vertex `p`'s degree;
/// final ids order by degree descending, then input id.
fn reranked(id: &[u32], deg: &[u32]) -> Vec<u32> {
    let mut keys: Vec<u32> = id.iter().map(|&p| deg[p as usize]).collect();
    ids_by_degree(&mut keys);
    let mut fix = vec![0u32; id.len()];
    for (&p, &k) in id.iter().zip(&keys) {
        fix[p as usize] = k;
    }
    fix
}

fn row_lengths(a: &Pattern) -> Vec<u32> {
    a.ptr().windows(2).map(|w| (w[1] - w[0]) as u32).collect()
}

fn column_lengths(a: &Pattern) -> Vec<u32> {
    let mut deg = vec![0u32; a.ncols()];
    for &c in a.indices() {
        deg[c as usize] += 1;
    }
    deg
}

/// `g` relabelled on both sides into rank order: a transient copy for a
/// caller holding an input-ordered graph (see
/// [`rank_ordered_from_edges`]).
pub fn rank_ordered(g: &BipartiteGraph) -> BipartiteGraph {
    rank_ordered_from_edges(g.nv1(), g.nv2(), g.edges().collect())
        .expect("a graph's own edges are in range")
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

    #[test]
    fn rank_ordered_sorts_both_sides_by_degree() {
        let g = sample();
        assert!(!is_rank_ordered(&g));
        let h = rank_ordered(&g);
        assert!(is_rank_ordered(&h));
        assert_eq!(h.nedges(), g.nedges());
        // V1 degrees [3, 1, 2] -> [3, 2, 1]; V2 [2, 2, 1, 1] keeps its order.
        assert_eq!((0..3).map(|u| h.deg_v1(u)).collect::<Vec<_>>(), [3, 2, 1]);
        assert_eq!(h.neighbors_v1(1), g.neighbors_v1(2));
        let (r1, r2) = global_degree_ranks(&h);
        assert!(r1.windows(2).all(|w| w[0] < w[1]));
        assert!(r2.windows(2).all(|w| w[0] < w[1]));
    }
}
