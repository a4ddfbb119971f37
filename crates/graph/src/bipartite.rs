//! The bipartite graph type.
//!
//! A graph `G = (V1, V2, E)` is fully described by its `m×n` biadjacency
//! matrix `A` (paper §II: the full adjacency is `[[0, A], [Aᵀ, 0]]`). We
//! store `A` twice — once row-major (`Pattern` over V1, the CSR view used by
//! invariants 5–8) and once transposed (rows are V2 vertices, i.e. the CSC
//! view of `A` used by invariants 1–4). Wedge expansion needs both
//! directions regardless of which vertex set an algorithm partitions, so the
//! pair is kept coherent by construction.

use bfly_sparse::{CsrMatrix, DenseMatrix, Pattern, Scalar, SparseError};

/// Which side of the bipartition a vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The "left"/row vertex set `V1` (rows of `A`), size `m`.
    V1,
    /// The "right"/column vertex set `V2` (columns of `A`), size `n`.
    V2,
}

impl Side {
    /// The opposite side.
    #[inline]
    pub fn other(self) -> Side {
        match self {
            Side::V1 => Side::V2,
            Side::V2 => Side::V1,
        }
    }
}

/// Simple undirected bipartite graph, stored as both orientations of its
/// biadjacency matrix with sorted neighbour lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BipartiteGraph {
    /// `A`: rows are V1 vertices, sorted V2 neighbours.
    a: Pattern,
    /// `Aᵀ`: rows are V2 vertices, sorted V1 neighbours.
    at: Pattern,
}

impl BipartiteGraph {
    /// Build from an edge list `(u ∈ V1, v ∈ V2)`. Duplicate edges collapse
    /// (the graph is simple), out-of-range endpoints error.
    pub fn from_edges(m: usize, n: usize, edges: &[(u32, u32)]) -> Result<Self, SparseError> {
        let a = Pattern::from_edges(m, n, edges)?;
        let at = a.transpose();
        Ok(Self { a, at })
    }

    /// Build from an existing biadjacency pattern.
    pub fn from_biadjacency(a: Pattern) -> Self {
        let at = a.transpose();
        Self { a, at }
    }

    /// Graph with no edges.
    pub fn empty(m: usize, n: usize) -> Self {
        Self {
            a: Pattern::empty(m, n),
            at: Pattern::empty(n, m),
        }
    }

    /// Complete bipartite graph `K_{m,n}` (every `(u, v)` pair an edge).
    pub fn complete(m: usize, n: usize) -> Self {
        let mut edges = Vec::with_capacity(m * n);
        for u in 0..m as u32 {
            for v in 0..n as u32 {
                edges.push((u, v));
            }
        }
        Self::from_edges(m, n, &edges).expect("complete graph edges are in range")
    }

    /// `|V1|` (rows of `A`).
    #[inline]
    pub fn nv1(&self) -> usize {
        self.a.nrows()
    }

    /// `|V2|` (columns of `A`).
    #[inline]
    pub fn nv2(&self) -> usize {
        self.a.ncols()
    }

    /// Number of vertices on the given side.
    #[inline]
    pub fn nvertices(&self, side: Side) -> usize {
        match side {
            Side::V1 => self.nv1(),
            Side::V2 => self.nv2(),
        }
    }

    /// `|E|`.
    #[inline]
    pub fn nedges(&self) -> usize {
        self.a.nnz()
    }

    /// Biadjacency `A` (rows = V1). This is the CSR view of the paper.
    #[inline]
    pub fn biadjacency(&self) -> &Pattern {
        &self.a
    }

    /// Transposed biadjacency `Aᵀ` (rows = V2). This is the CSC view of `A`:
    /// row `k` of `Aᵀ` is the exposed column `a₁` of the FLAME
    /// repartitioning in invariants 1–4.
    #[inline]
    pub fn biadjacency_t(&self) -> &Pattern {
        &self.at
    }

    /// Sorted V2 neighbours of `u ∈ V1`.
    #[inline]
    pub fn neighbors_v1(&self, u: usize) -> &[u32] {
        self.a.row(u)
    }

    /// Sorted V1 neighbours of `v ∈ V2`.
    #[inline]
    pub fn neighbors_v2(&self, v: usize) -> &[u32] {
        self.at.row(v)
    }

    /// Degree of `u ∈ V1`.
    #[inline]
    pub fn deg_v1(&self, u: usize) -> usize {
        self.a.row_nnz(u)
    }

    /// Degree of `v ∈ V2`.
    #[inline]
    pub fn deg_v2(&self, v: usize) -> usize {
        self.at.row_nnz(v)
    }

    /// Whether edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        // Probe the sparser endpoint's list.
        if self.deg_v1(u as usize) <= self.deg_v2(v as usize) {
            self.a.contains(u as usize, v)
        } else {
            self.at.contains(v as usize, u)
        }
    }

    /// Iterate edges `(u, v)` in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.a.iter_entries()
    }

    /// The edge list in row-major order, consuming the graph: `Aᵀ` is
    /// freed first, so the list is only ever resident beside `A`.
    pub fn into_edges(self) -> Vec<(u32, u32)> {
        let BipartiteGraph { a, at } = self;
        drop(at);
        a.iter_entries().collect()
    }

    /// The graph with the two vertex sets swapped (`A ↦ Aᵀ`). Butterfly
    /// counts are invariant under this; the eight invariants' *costs* are
    /// not — which is exactly the paper's partition-size finding.
    pub fn swap_sides(&self) -> BipartiteGraph {
        BipartiteGraph {
            a: self.at.clone(),
            at: self.a.clone(),
        }
    }

    /// Biadjacency as a valued CSR matrix (entries = 1).
    pub fn to_csr<T: Scalar>(&self) -> CsrMatrix<T> {
        self.a.to_csr()
    }

    /// Biadjacency as a dense 0/1 matrix — only for the specification-level
    /// counters on small graphs.
    pub fn to_dense<T: Scalar>(&self) -> DenseMatrix<T> {
        self.a.to_dense()
    }

    /// Masked subgraph: drop vertices flagged `false` (their edges vanish)
    /// while *preserving vertex numbering* — the paper's peeling operates on
    /// same-shape masked matrices (`A₁ = A₀ ∘ M`).
    pub fn masked(&self, keep_v1: &[bool], keep_v2: &[bool]) -> BipartiteGraph {
        let a = self.a.mask_rows_cols(keep_v1, keep_v2);
        let at = a.transpose();
        BipartiteGraph { a, at }
    }

    /// Disjoint union: vertices of `other` are appended after `self`'s on
    /// both sides. Butterfly counts add under this operation (used by the
    /// property tests).
    pub fn disjoint_union(&self, other: &BipartiteGraph) -> BipartiteGraph {
        let m = self.nv1() + other.nv1();
        let n = self.nv2() + other.nv2();
        let mut edges: Vec<(u32, u32)> = self.edges().collect();
        edges.extend(
            other
                .edges()
                .map(|(u, v)| (u + self.nv1() as u32, v + self.nv2() as u32)),
        );
        BipartiteGraph::from_edges(m, n, &edges).expect("shifted edges are in range")
    }

    /// Total wedge endpoints-in-V1 count: `Σ_{v ∈ V2} C(deg(v), 2)` — the
    /// number of distinct-endpoint paths of length 2 through V2 wedge
    /// points (paper eq. 6 evaluates to this).
    pub fn wedges_through_v2(&self) -> u64 {
        (0..self.nv2())
            .map(|v| bfly_sparse::choose2(self.deg_v2(v) as u64))
            .sum()
    }

    /// Total wedges with endpoints in V2: `Σ_{u ∈ V1} C(deg(u), 2)`.
    pub fn wedges_through_v1(&self) -> u64 {
        (0..self.nv1())
            .map(|u| bfly_sparse::choose2(self.deg_v1(u) as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1 butterfly: 2×2 biclique.
    fn butterfly() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = butterfly();
        assert_eq!(g.nv1(), 2);
        assert_eq!(g.nv2(), 2);
        assert_eq!(g.nedges(), 4);
        assert_eq!(g.neighbors_v1(0), &[0, 1]);
        assert_eq!(g.neighbors_v2(1), &[0, 1]);
        assert_eq!(g.deg_v1(1), 2);
        assert_eq!(g.deg_v2(0), 2);
        assert!(g.has_edge(0, 1));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = BipartiteGraph::from_edges(1, 2, &[(0, 0), (0, 0), (0, 1)]).unwrap();
        assert_eq!(g.nedges(), 2);
    }

    #[test]
    fn orientations_stay_coherent() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 1), (2, 0), (2, 1)]).unwrap();
        for (u, v) in g.edges() {
            assert!(g.biadjacency().contains(u as usize, v));
            assert!(g.biadjacency_t().contains(v as usize, u));
        }
        assert_eq!(g.biadjacency().nnz(), g.biadjacency_t().nnz());
    }

    #[test]
    fn swap_sides_transposes() {
        let g = BipartiteGraph::from_edges(3, 2, &[(0, 1), (2, 0)]).unwrap();
        let s = g.swap_sides();
        assert_eq!(s.nv1(), 2);
        assert_eq!(s.nv2(), 3);
        assert!(s.has_edge(1, 0));
        assert!(s.has_edge(0, 2));
        assert_eq!(s.swap_sides(), g);
    }

    #[test]
    fn complete_graph_counts() {
        let g = BipartiteGraph::complete(3, 4);
        assert_eq!(g.nedges(), 12);
        assert_eq!(g.deg_v1(0), 4);
        assert_eq!(g.deg_v2(3), 3);
    }

    #[test]
    fn masked_preserves_dimensions() {
        let g = butterfly();
        let h = g.masked(&[true, false], &[true, true]);
        assert_eq!(h.nv1(), 2);
        assert_eq!(h.nv2(), 2);
        assert_eq!(h.nedges(), 2);
        assert_eq!(h.deg_v1(1), 0);
    }

    #[test]
    fn disjoint_union_shifts_indices() {
        let g = butterfly();
        let u = g.disjoint_union(&g);
        assert_eq!(u.nv1(), 4);
        assert_eq!(u.nv2(), 4);
        assert_eq!(u.nedges(), 8);
        assert!(u.has_edge(2, 2));
        assert!(!u.has_edge(0, 2));
    }

    #[test]
    fn wedge_totals() {
        let g = butterfly();
        // Each V2 vertex has degree 2 → C(2,2)=1 wedge each.
        assert_eq!(g.wedges_through_v2(), 2);
        assert_eq!(g.wedges_through_v1(), 2);
        let star = BipartiteGraph::from_edges(3, 1, &[(0, 0), (1, 0), (2, 0)]).unwrap();
        assert_eq!(star.wedges_through_v2(), 3); // C(3,2)
        assert_eq!(star.wedges_through_v1(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::empty(5, 3);
        assert_eq!(g.nedges(), 0);
        assert_eq!(g.wedges_through_v2(), 0);
        assert_eq!(g.nvertices(Side::V1), 5);
        assert_eq!(g.nvertices(Side::V2), 3);
        assert_eq!(Side::V1.other(), Side::V2);
    }
}
