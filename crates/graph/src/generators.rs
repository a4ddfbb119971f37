//! Random bipartite-graph generators.
//!
//! The paper evaluates on five KONECT datasets we cannot redistribute, so
//! the workspace generates synthetic graphs whose *shape parameters* —
//! partition sizes, edge count, and degree skew — are controllable. Uniform
//! graphs exercise the sparsity findings (§V), Chung–Lu graphs with
//! power-law weights mimic the heavy-tailed KONECT degree distributions,
//! and planted bicliques create the dense regions that k-tip/k-wing peeling
//! is designed to find.

use crate::bipartite::BipartiteGraph;
use rand::Rng;
use std::collections::HashSet;

/// Pack an edge into a set key.
#[inline]
fn key(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

/// Uniform random bipartite graph with exactly `num_edges` distinct edges.
///
/// Panics if `num_edges > m·n`.
pub fn uniform_exact<R: Rng>(m: usize, n: usize, num_edges: usize, rng: &mut R) -> BipartiteGraph {
    assert!(
        num_edges <= m * n,
        "cannot place {num_edges} distinct edges in a {m}x{n} bipartite graph"
    );
    // Dense regime: Floyd-style sampling over the m*n cells would be better,
    // but rejection sampling is fine below half density, and the harness
    // never goes above it.
    let mut seen = HashSet::with_capacity(num_edges * 2);
    let mut edges = Vec::with_capacity(num_edges);
    if num_edges * 2 > m * n {
        // Dense fallback: shuffle all cells (small graphs only).
        let mut cells: Vec<(u32, u32)> = (0..m as u32)
            .flat_map(|u| (0..n as u32).map(move |v| (u, v)))
            .collect();
        for i in 0..num_edges {
            let j = rng.random_range(i..cells.len());
            cells.swap(i, j);
        }
        edges.extend_from_slice(&cells[..num_edges]);
    } else {
        while edges.len() < num_edges {
            let u = rng.random_range(0..m as u32);
            let v = rng.random_range(0..n as u32);
            if seen.insert(key(u, v)) {
                edges.push((u, v));
            }
        }
    }
    BipartiteGraph::from_edges(m, n, &edges).expect("generated edges are in range")
}

/// Erdős–Rényi-style `G(m, n, p)`: each of the `m·n` possible edges appears
/// independently with probability `p`. Uses geometric skipping so the cost
/// is proportional to the number of edges produced, not `m·n`.
pub fn gnp<R: Rng>(m: usize, n: usize, p: f64, rng: &mut R) -> BipartiteGraph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut edges = Vec::new();
    if p > 0.0 {
        let total = (m as u64) * (n as u64);
        if p >= 1.0 {
            return BipartiteGraph::complete(m, n);
        }
        let log1mp = (1.0 - p).ln();
        let mut cell: i64 = -1;
        loop {
            // Skip ahead geometrically to the next present edge.
            let r: f64 = rng.random_range(f64::EPSILON..1.0);
            let skip = (r.ln() / log1mp).floor() as i64 + 1;
            cell += skip;
            if cell as u64 >= total {
                break;
            }
            let u = (cell as u64 / n as u64) as u32;
            let v = (cell as u64 % n as u64) as u32;
            edges.push((u, v));
        }
    }
    BipartiteGraph::from_edges(m, n, &edges).expect("generated edges are in range")
}

/// Power-law weight sequence `w_i ∝ (i + 1)^(−exponent)` of the given
/// length. With `exponent = 0` the sequence is uniform.
pub fn powerlaw_weights(count: usize, exponent: f64) -> Vec<f64> {
    (0..count)
        .map(|i| ((i + 1) as f64).powf(-exponent))
        .collect()
}

/// O(log n) cumulative-sum sampler over non-negative weights.
#[derive(Debug, Clone)]
pub struct WeightedSampler {
    cumulative: Vec<f64>,
}

impl WeightedSampler {
    /// Build from a weight vector. Panics on empty or all-zero weights.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "empty weight vector");
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "negative weight");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "all-zero weight vector");
        Self { cumulative }
    }

    /// Draw an index with probability proportional to its weight.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let total = *self.cumulative.last().unwrap();
        let x = rng.random_range(0.0..total);
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&x).unwrap())
        {
            Ok(i) | Err(i) => (i as u32).min(self.cumulative.len() as u32 - 1),
        }
    }
}

/// Bipartite Chung–Lu graph: `num_edges` distinct edges whose endpoints are
/// drawn with probability proportional to per-side power-law weights
/// (`exponent1` for V1, `exponent2` for V2). Heavier exponents produce
/// heavier-tailed degree distributions and therefore more butterflies at
/// equal edge count — this is the knob the KONECT stand-ins are calibrated
/// with.
pub fn chung_lu<R: Rng>(
    m: usize,
    n: usize,
    num_edges: usize,
    exponent1: f64,
    exponent2: f64,
    rng: &mut R,
) -> BipartiteGraph {
    assert!(num_edges <= m * n, "too many edges requested");
    let s1 = WeightedSampler::new(&powerlaw_weights(m, exponent1));
    let s2 = WeightedSampler::new(&powerlaw_weights(n, exponent2));
    let mut seen = HashSet::with_capacity(num_edges * 2);
    let mut edges = Vec::with_capacity(num_edges);
    // Rejection cap: heavy tails make the last few edges collide often; fall
    // back to uniform fill if the sampler stalls so termination is certain.
    let mut attempts = 0usize;
    let max_attempts = num_edges.saturating_mul(50) + 1000;
    while edges.len() < num_edges && attempts < max_attempts {
        attempts += 1;
        let u = s1.sample(rng);
        let v = s2.sample(rng);
        if seen.insert(key(u, v)) {
            edges.push((u, v));
        }
    }
    while edges.len() < num_edges {
        let u = rng.random_range(0..m as u32);
        let v = rng.random_range(0..n as u32);
        if seen.insert(key(u, v)) {
            edges.push((u, v));
        }
    }
    BipartiteGraph::from_edges(m, n, &edges).expect("generated edges are in range")
}

/// Bipartite preferential attachment: vertices arrive alternately on the
/// two sides, each new vertex attaching `edges_per_vertex` times to the
/// opposite side with probability proportional to `degree + 1`
/// (plus-one smoothing so isolated vertices remain reachable). Produces
/// the rich-get-richer degree skew of real affiliation networks as an
/// alternative to Chung–Lu for stress-testing the counters.
pub fn preferential_attachment<R: Rng>(
    m: usize,
    n: usize,
    edges_per_vertex: usize,
    rng: &mut R,
) -> BipartiteGraph {
    assert!(m > 0 && n > 0, "both sides must be non-empty");
    let mut seen = HashSet::new();
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Repeated-endpoint lists implement proportional-to-degree sampling;
    // each side also keeps every vertex once for the +1 smoothing.
    let mut pool_v1: Vec<u32> = Vec::new();
    let mut pool_v2: Vec<u32> = Vec::new();
    let mut active_v1 = 0u32; // vertices introduced so far
    let mut active_v2 = 0u32;
    let total = m + n;
    for step in 0..total {
        // Alternate sides, proportionally to the target sizes.
        let bring_v1 = (step * m) / total < ((step + 1) * m) / total;
        if bring_v1 {
            let u = active_v1;
            active_v1 += 1;
            pool_v1.push(u);
            if active_v2 == 0 {
                continue;
            }
            for _ in 0..edges_per_vertex {
                let v = pool_v2[rng.random_range(0..pool_v2.len())];
                if seen.insert(key(u, v)) {
                    edges.push((u, v));
                    pool_v1.push(u);
                    pool_v2.push(v);
                }
            }
        } else {
            let v = active_v2;
            active_v2 += 1;
            pool_v2.push(v);
            if active_v1 == 0 {
                continue;
            }
            for _ in 0..edges_per_vertex {
                let u = pool_v1[rng.random_range(0..pool_v1.len())];
                if seen.insert(key(u, v)) {
                    edges.push((u, v));
                    pool_v1.push(u);
                    pool_v2.push(v);
                }
            }
        }
    }
    BipartiteGraph::from_edges(m, n, &edges).expect("generated edges are in range")
}

/// Overlay a complete biclique on the vertex subsets `v1s × v2s` — a planted
/// dense region containing `C(|v1s|,2)·C(|v2s|,2)` butterflies among its own
/// vertices, which peeling should recover.
pub fn with_planted_biclique(g: &BipartiteGraph, v1s: &[u32], v2s: &[u32]) -> BipartiteGraph {
    let mut edges: Vec<(u32, u32)> = g.edges().collect();
    for &u in v1s {
        for &v in v2s {
            edges.push((u, v));
        }
    }
    BipartiteGraph::from_edges(g.nv1(), g.nv2(), &edges).expect("planted edges must be in range")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_exact_edge_count_and_simplicity() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = uniform_exact(50, 80, 400, &mut rng);
        assert_eq!(g.nedges(), 400);
        assert_eq!(g.nv1(), 50);
        assert_eq!(g.nv2(), 80);
    }

    #[test]
    fn uniform_exact_dense_regime() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = uniform_exact(10, 10, 90, &mut rng);
        assert_eq!(g.nedges(), 90);
    }

    #[test]
    #[should_panic(expected = "distinct edges")]
    fn uniform_exact_rejects_impossible_request() {
        let mut rng = StdRng::seed_from_u64(9);
        let _ = uniform_exact(3, 3, 10, &mut rng);
    }

    #[test]
    fn gnp_density_is_plausible() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, n, p) = (200, 300, 0.05);
        let g = gnp(m, n, p, &mut rng);
        let expected = (m * n) as f64 * p;
        let got = g.nedges() as f64;
        assert!(
            (got - expected).abs() < expected * 0.25,
            "edge count {got} too far from expectation {expected}"
        );
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(gnp(10, 10, 0.0, &mut rng).nedges(), 0);
        assert_eq!(gnp(4, 5, 1.0, &mut rng).nedges(), 20);
    }

    #[test]
    fn powerlaw_weights_monotone() {
        let w = powerlaw_weights(5, 1.5);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        let flat = powerlaw_weights(4, 0.0);
        assert!(flat.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn weighted_sampler_prefers_heavy_indices() {
        let mut rng = StdRng::seed_from_u64(12);
        let s = WeightedSampler::new(&[10.0, 1.0]);
        let mut zero = 0;
        for _ in 0..1000 {
            if s.sample(&mut rng) == 0 {
                zero += 1;
            }
        }
        assert!(zero > 800, "expected index 0 to dominate, got {zero}/1000");
    }

    #[test]
    fn chung_lu_hits_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(13);
        let g = chung_lu(100, 150, 600, 0.8, 0.6, &mut rng);
        assert_eq!(g.nedges(), 600);
        // Skewed weights should concentrate degree on low-index vertices.
        let head: usize = (0..10).map(|u| g.deg_v1(u)).sum();
        let tail: usize = (90..100).map(|u| g.deg_v1(u)).sum();
        assert!(head > tail, "head {head} should out-degree tail {tail}");
    }

    #[test]
    fn planted_biclique_contains_all_block_edges() {
        let mut rng = StdRng::seed_from_u64(14);
        let base = uniform_exact(30, 30, 50, &mut rng);
        let v1s = [1u32, 5, 9];
        let v2s = [2u32, 3, 7, 11];
        let g = with_planted_biclique(&base, &v1s, &v2s);
        for &u in &v1s {
            for &v in &v2s {
                assert!(g.has_edge(u, v));
            }
        }
        assert!(g.nedges() >= 50); // overlaps may collapse
        assert_eq!(g.nv1(), 30);
    }

    #[test]
    fn preferential_attachment_shapes() {
        let mut rng = StdRng::seed_from_u64(18);
        let g = preferential_attachment(200, 200, 3, &mut rng);
        assert_eq!(g.nv1(), 200);
        assert_eq!(g.nv2(), 200);
        assert!(g.nedges() > 400, "too few edges: {}", g.nedges());
        // Rich-get-richer: the max degree should clearly exceed the mean.
        let max_deg = (0..200).map(|v| g.deg_v2(v)).max().unwrap();
        let mean = g.nedges() as f64 / 200.0;
        assert!(
            max_deg as f64 > 2.5 * mean,
            "expected a heavy tail: max {max_deg}, mean {mean:.1}"
        );
    }

    #[test]
    fn preferential_attachment_deterministic_and_simple() {
        let g1 = preferential_attachment(50, 60, 2, &mut StdRng::seed_from_u64(4));
        let g2 = preferential_attachment(50, 60, 2, &mut StdRng::seed_from_u64(4));
        assert_eq!(g1, g2);
        // No duplicate edges by construction (graph type dedups anyway,
        // so the edge count must match the pre-dedup count).
        let edges: Vec<(u32, u32)> = g1.edges().collect();
        let unique: std::collections::HashSet<(u32, u32)> = edges.iter().copied().collect();
        assert_eq!(unique.len(), edges.len());
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let g1 = uniform_exact(20, 20, 60, &mut StdRng::seed_from_u64(42));
        let g2 = uniform_exact(20, 20, 60, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1, g2);
        let c1 = chung_lu(20, 20, 60, 0.7, 0.7, &mut StdRng::seed_from_u64(1));
        let c2 = chung_lu(20, 20, 60, 0.7, 0.7, &mut StdRng::seed_from_u64(1));
        assert_eq!(c1, c2);
    }
}
