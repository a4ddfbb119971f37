//! Graph metrics built on butterfly counts.
//!
//! The introduction motivates butterfly counting via the bipartite
//! clustering coefficient \[15\]: butterflies are the closed quadrilaterals,
//! caterpillars (paths of length 3) the open ones, and their ratio measures
//! how strongly the network closes its wedges into 2×2 bicliques.
//!
//! Every count here runs the planner's pick ([`count_adaptive`]), the same
//! plan `bfly count` runs.

use crate::adaptive::count_adaptive;
use bfly_graph::BipartiteGraph;

/// Number of *caterpillars* (paths with three edges): each edge `(u, v)`
/// is the middle of `(deg u − 1)·(deg v − 1)` three-paths.
pub fn caterpillars(g: &BipartiteGraph) -> u64 {
    g.edges()
        .map(|(u, v)| {
            let du = g.deg_v1(u as usize) as u64;
            let dv = g.deg_v2(v as usize) as u64;
            (du - 1) * (dv - 1)
        })
        .sum()
}

/// Bipartite clustering coefficient `4·Ξ_G / caterpillars` (Sanei-Mehri et
/// al.): the fraction of three-paths that close into a butterfly. `None`
/// when the graph has no three-paths.
pub fn clustering_coefficient(g: &BipartiteGraph) -> Option<f64> {
    let cats = caterpillars(g);
    if cats == 0 {
        return None;
    }
    let xi = count_adaptive(g).0;
    Some(4.0 * xi as f64 / cats as f64)
}

/// All headline metrics in one pass, for reports and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct ButterflyMetrics {
    /// Total butterflies `Ξ_G`.
    pub butterflies: u64,
    /// Wedges with endpoints in V1 (through V2 wedge points).
    pub wedges_v1_endpoints: u64,
    /// Wedges with endpoints in V2 (through V1 wedge points).
    pub wedges_v2_endpoints: u64,
    /// Three-paths.
    pub caterpillars: u64,
    /// `4Ξ / caterpillars`, if defined.
    pub clustering_coefficient: Option<f64>,
}

/// Compute [`ButterflyMetrics`].
pub fn metrics(g: &BipartiteGraph) -> ButterflyMetrics {
    let butterflies = count_adaptive(g).0;
    let cats = caterpillars(g);
    ButterflyMetrics {
        butterflies,
        wedges_v1_endpoints: g.wedges_through_v2(),
        wedges_v2_endpoints: g.wedges_through_v1(),
        caterpillars: cats,
        clustering_coefficient: if cats == 0 {
            None
        } else {
            Some(4.0 * butterflies as f64 / cats as f64)
        },
    }
}

/// Butterfly significance against the fixed-degree null model.
#[derive(Debug, Clone, PartialEq)]
pub struct NullModelResult {
    /// Observed count on the input graph.
    pub observed: u64,
    /// Mean count over the randomised ensemble.
    pub null_mean: f64,
    /// Standard deviation over the ensemble.
    pub null_std: f64,
    /// `(observed − mean) / std`; `None` when the ensemble is degenerate.
    pub z_score: Option<f64>,
}

/// Compare the observed butterfly count against `samples` degree-
/// preserving rewirings (double-edge swaps, `swaps_per_edge · |E|`
/// attempted swaps each). A large positive z-score means the network
/// closes far more 2×2 bicliques than its degree sequence explains — the
/// clustering signal the paper's introduction describes.
pub fn butterfly_null_model<R: rand::Rng>(
    g: &BipartiteGraph,
    samples: usize,
    swaps_per_edge: usize,
    rng: &mut R,
) -> NullModelResult {
    assert!(samples >= 2, "need at least two null samples");
    let observed = count_adaptive(g).0;
    let attempts = swaps_per_edge.saturating_mul(g.nedges()).max(1);
    let counts: Vec<f64> = (0..samples)
        .map(|_| {
            let (h, _) = bfly_graph::rewire::double_edge_swaps(g, attempts, rng);
            count_adaptive(&h).0 as f64
        })
        .collect();
    let mean = counts.iter().sum::<f64>() / samples as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (samples as f64 - 1.0);
    let std = var.sqrt();
    NullModelResult {
        observed,
        null_mean: mean,
        null_std: std,
        z_score: if std > 0.0 {
            Some((observed as f64 - mean) / std)
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfly_graph::generators::{uniform_exact, with_planted_biclique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_closes_every_caterpillar_into_a_butterfly() {
        // In K_{n,n} every 3-path closes: coefficient exactly… let's check
        // K_{2,2}: 4 edges, each middle of (2−1)(2−1) = 1 caterpillar → 4
        // caterpillars; 1 butterfly → 4·1/4 = 1.0.
        let g = BipartiteGraph::complete(2, 2);
        assert_eq!(caterpillars(&g), 4);
        assert_eq!(clustering_coefficient(&g), Some(1.0));
    }

    #[test]
    fn path_graph_has_open_caterpillars_only() {
        // u0–v0–u1–v1 has exactly one caterpillar, no butterflies.
        let g = BipartiteGraph::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]).unwrap();
        assert_eq!(caterpillars(&g), 1);
        assert_eq!(clustering_coefficient(&g), Some(0.0));
    }

    #[test]
    fn star_has_no_caterpillars() {
        let g = BipartiteGraph::from_edges(3, 1, &[(0, 0), (1, 0), (2, 0)]).unwrap();
        assert_eq!(caterpillars(&g), 0);
        assert_eq!(clustering_coefficient(&g), None);
    }

    #[test]
    fn planted_structure_is_significant_under_null_model() {
        // Sparse noise + a dense planted block: rewiring destroys the
        // block, so the observed count should sit far above the null.
        let mut rng = StdRng::seed_from_u64(88);
        let base = uniform_exact(60, 60, 150, &mut rng);
        let g = with_planted_biclique(&base, &[0, 1, 2, 3, 4, 5], &[0, 1, 2, 3, 4, 5]);
        let r = butterfly_null_model(&g, 6, 20, &mut rng);
        assert!(r.observed as f64 > r.null_mean, "{r:?}");
        if let Some(z) = r.z_score {
            assert!(z > 2.0, "expected a strong clustering signal, got {r:?}");
        }
    }

    #[test]
    fn null_model_on_unrewirable_graph_is_degenerate() {
        // K_{3,3} admits no swaps: every null sample equals the observed
        // count and the z-score is undefined.
        let g = BipartiteGraph::complete(3, 3);
        let mut rng = StdRng::seed_from_u64(89);
        let r = butterfly_null_model(&g, 3, 10, &mut rng);
        assert_eq!(r.observed, 9);
        assert_eq!(r.null_mean, 9.0);
        assert_eq!(r.z_score, None);
    }

    #[test]
    fn metrics_bundle_is_consistent() {
        let g = BipartiteGraph::complete(3, 3);
        let m = metrics(&g);
        assert_eq!(m.butterflies, 9);
        assert_eq!(m.wedges_v1_endpoints, 9);
        assert_eq!(m.wedges_v2_endpoints, 9);
        assert_eq!(m.caterpillars, 9 * 4);
        assert_eq!(m.clustering_coefficient, Some(1.0));
    }
}
