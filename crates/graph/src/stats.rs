//! Structural statistics of bipartite graphs.
//!
//! These are the quantities the paper's evaluation narrative turns on:
//! partition sizes (§V: "an algorithm should be picked that partitions the
//! smaller of the two vertex sets"), edge sparsity (GitHub vs Producers),
//! and wedge totals (the raw work the counting algorithms perform).

use crate::bipartite::BipartiteGraph;

/// Summary statistics for one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// `|V1|`.
    pub nv1: usize,
    /// `|V2|`.
    pub nv2: usize,
    /// `|E|`.
    pub nedges: usize,
    /// Edge density `|E| / (|V1|·|V2|)`.
    pub density: f64,
    /// Maximum degree on the V1 side.
    pub max_deg_v1: usize,
    /// Maximum degree on the V2 side.
    pub max_deg_v2: usize,
    /// Mean degree on the V1 side.
    pub mean_deg_v1: f64,
    /// Mean degree on the V2 side.
    pub mean_deg_v2: f64,
    /// `Σ_{v∈V2} C(deg v, 2)` — wedges whose wedge point is in V2
    /// (the work shape of invariants 1–4).
    pub wedges_through_v2: u64,
    /// `Σ_{u∈V1} C(deg u, 2)` — wedges whose wedge point is in V1
    /// (the work shape of invariants 5–8).
    pub wedges_through_v1: u64,
}

impl GraphStats {
    /// Compute all statistics in one pass per side.
    pub fn compute(g: &BipartiteGraph) -> Self {
        let (m, n, e) = (g.nv1(), g.nv2(), g.nedges());
        let max_deg_v1 = (0..m).map(|u| g.deg_v1(u)).max().unwrap_or(0);
        let max_deg_v2 = (0..n).map(|v| g.deg_v2(v)).max().unwrap_or(0);
        GraphStats {
            nv1: m,
            nv2: n,
            nedges: e,
            density: if m * n == 0 {
                0.0
            } else {
                e as f64 / (m as f64 * n as f64)
            },
            max_deg_v1,
            max_deg_v2,
            mean_deg_v1: if m == 0 { 0.0 } else { e as f64 / m as f64 },
            mean_deg_v2: if n == 0 { 0.0 } else { e as f64 / n as f64 },
            wedges_through_v2: g.wedges_through_v2(),
            wedges_through_v1: g.wedges_through_v1(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_complete_graph() {
        let g = BipartiteGraph::complete(3, 4);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nedges, 12);
        assert!((s.density - 1.0).abs() < 1e-12);
        assert_eq!(s.max_deg_v1, 4);
        assert_eq!(s.max_deg_v2, 3);
        assert!((s.mean_deg_v1 - 4.0).abs() < 1e-12);
        // Each of the 4 V2 vertices has degree 3 → C(3,2)=3 wedges.
        assert_eq!(s.wedges_through_v2, 12);
        assert_eq!(s.wedges_through_v1, 18); // 3 vertices × C(4,2)
    }

    #[test]
    fn stats_of_empty_graph() {
        let g = BipartiteGraph::empty(0, 0);
        let s = GraphStats::compute(&g);
        assert_eq!(s.nedges, 0);
        assert_eq!(s.density, 0.0);
        assert_eq!(s.mean_deg_v1, 0.0);
    }
}
