//! Precomputed peeling hierarchies with O(1)-per-query access.
//!
//! `k_tip`/`k_wing` answer one threshold per call; the decompositions
//! ([`tip_numbers`]/[`wing_numbers`]) contain *every* threshold at once.
//! These wrappers package the numbers with the query API a user actually
//! wants: membership at any `k`, the subgraph at any level, the hierarchy
//! of distinct levels, and summary statistics.

use super::tip::tip_numbers;
use super::wing::wing_numbers;
use bfly_graph::{BipartiteGraph, Side};

/// Survivors at each threshold from one sort of the level vector: with
/// the levels ascending, the count at `k` is everything at or past the
/// first element `≥ k` — `O((n + q) log n)` total instead of one `O(n)`
/// scan per query.
fn survivors_by_sorted_levels(numbers: &[u64], ks: &[u64]) -> Vec<usize> {
    let mut sorted = numbers.to_vec();
    sorted.sort_unstable();
    ks.iter()
        .map(|&k| sorted.len() - sorted.partition_point(|&t| t < k))
        .collect()
}

/// The full tip hierarchy of one side.
#[derive(Debug, Clone)]
pub struct TipDecomposition {
    graph: BipartiteGraph,
    side: Side,
    numbers: Vec<u64>,
}

impl TipDecomposition {
    /// Peel once, keep everything.
    pub fn compute(g: &BipartiteGraph, side: Side) -> Self {
        Self {
            graph: g.clone(),
            side,
            numbers: tip_numbers(g, side),
        }
    }

    /// Fallible [`TipDecomposition::compute`]: validates the graph and
    /// uses overflow-checked initial counts, so hostile input fails with
    /// a typed error instead of panicking.
    pub fn try_compute(g: &BipartiteGraph, side: Side) -> crate::error::Result<Self> {
        Ok(Self {
            graph: g.clone(),
            side,
            numbers: super::parallel::try_tip_numbers(g, side)?,
        })
    }

    /// Tip number of a vertex.
    pub fn tip_number(&self, v: u32) -> u64 {
        self.numbers[v as usize]
    }

    /// All tip numbers (indexed by vertex).
    pub fn numbers(&self) -> &[u64] {
        &self.numbers
    }

    /// Which side was decomposed.
    pub fn side(&self) -> Side {
        self.side
    }

    /// Membership mask of the k-tip (equals `k_tip(g, side, k).keep`).
    pub fn members_at(&self, k: u64) -> Vec<bool> {
        self.numbers.iter().map(|&t| t >= k).collect()
    }

    /// The k-tip subgraph (dimension-preserving mask).
    pub fn subgraph_at(&self, k: u64) -> BipartiteGraph {
        let keep = self.members_at(k);
        match self.side {
            Side::V1 => self.graph.masked(&keep, &vec![true; self.graph.nv2()]),
            Side::V2 => self.graph.masked(&vec![true; self.graph.nv1()], &keep),
        }
    }

    /// Distinct nonzero hierarchy levels, ascending.
    pub fn levels(&self) -> Vec<u64> {
        let mut ls: Vec<u64> = self.numbers.iter().copied().filter(|&t| t > 0).collect();
        ls.sort_unstable();
        ls.dedup();
        ls
    }

    /// Largest k with a non-empty k-tip.
    pub fn max_level(&self) -> u64 {
        self.numbers.iter().copied().max().unwrap_or(0)
    }

    /// Number of vertices surviving at each requested level.
    pub fn survivor_counts(&self, ks: &[u64]) -> Vec<usize> {
        survivors_by_sorted_levels(&self.numbers, ks)
    }
}

/// The full wing hierarchy (edge-level).
#[derive(Debug, Clone)]
pub struct WingDecomposition {
    graph: BipartiteGraph,
    numbers: Vec<u64>,
}

impl WingDecomposition {
    /// Peel once, keep everything.
    pub fn compute(g: &BipartiteGraph) -> Self {
        Self {
            graph: g.clone(),
            numbers: wing_numbers(g),
        }
    }

    /// Fallible [`WingDecomposition::compute`]: validates the graph and
    /// uses overflow-checked initial supports.
    pub fn try_compute(g: &BipartiteGraph) -> crate::error::Result<Self> {
        Ok(Self {
            graph: g.clone(),
            numbers: super::parallel::try_wing_numbers(g)?,
        })
    }

    /// Wing number of an edge (row-major edge index).
    pub fn wing_number(&self, edge: usize) -> u64 {
        self.numbers[edge]
    }

    /// All wing numbers (row-major edge order).
    pub fn numbers(&self) -> &[u64] {
        &self.numbers
    }

    /// Membership mask of the k-wing (equals `k_wing(g, k).keep`).
    pub fn members_at(&self, k: u64) -> Vec<bool> {
        self.numbers.iter().map(|&w| w >= k).collect()
    }

    /// The k-wing subgraph.
    pub fn subgraph_at(&self, k: u64) -> BipartiteGraph {
        let remove: Vec<bool> = self.numbers.iter().map(|&w| w < k).collect();
        self.graph.without_edges(&remove)
    }

    /// Largest k with a non-empty k-wing.
    pub fn max_level(&self) -> u64 {
        self.numbers.iter().copied().max().unwrap_or(0)
    }

    /// Number of edges surviving at each requested level.
    pub fn survivor_counts(&self, ks: &[u64]) -> Vec<usize> {
        survivors_by_sorted_levels(&self.numbers, ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peel::{k_tip, k_wing};
    use bfly_graph::generators::{uniform_exact, with_planted_biclique};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> BipartiteGraph {
        let mut rng = StdRng::seed_from_u64(303);
        with_planted_biclique(
            &uniform_exact(20, 20, 55, &mut rng),
            &[0, 1, 2, 3],
            &[0, 1, 2],
        )
    }

    #[test]
    fn tip_queries_match_direct_peeling() {
        let g = sample();
        let d = TipDecomposition::compute(&g, Side::V1);
        for k in [1u64, 2, 3, d.max_level()] {
            if k == 0 {
                continue;
            }
            let direct = k_tip(&g, Side::V1, k);
            assert_eq!(d.members_at(k), direct.keep, "k = {k}");
            assert_eq!(d.subgraph_at(k), direct.subgraph, "k = {k}");
        }
    }

    #[test]
    fn wing_queries_match_direct_peeling() {
        let g = sample();
        let d = WingDecomposition::compute(&g);
        for k in [1u64, 2, d.max_level()] {
            if k == 0 {
                continue;
            }
            let direct = k_wing(&g, k);
            assert_eq!(d.members_at(k), direct.keep, "k = {k}");
            assert_eq!(
                d.subgraph_at(k).nedges(),
                direct.subgraph.nedges(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn levels_and_survivor_counts_are_monotone() {
        let g = sample();
        let d = TipDecomposition::compute(&g, Side::V1);
        let levels = d.levels();
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
        let counts = d.survivor_counts(&levels);
        assert!(counts.windows(2).all(|w| w[0] >= w[1]));
        let w = WingDecomposition::compute(&g);
        let ks = [1u64, 2, 4, 8];
        let wc = w.survivor_counts(&ks);
        assert!(wc.windows(2).all(|x| x[0] >= x[1]));
    }

    #[test]
    fn survivor_counts_match_naive_scan() {
        let g = sample();
        let d = TipDecomposition::compute(&g, Side::V1);
        let w = WingDecomposition::compute(&g);
        // Thresholds below, at, between, and past the observed levels.
        let mut ks = vec![0u64, 1, d.max_level(), d.max_level() + 5, u64::MAX];
        ks.extend(d.levels());
        let naive = |numbers: &[u64]| -> Vec<usize> {
            ks.iter()
                .map(|&k| numbers.iter().filter(|&&t| t >= k).count())
                .collect()
        };
        assert_eq!(d.survivor_counts(&ks), naive(d.numbers()));
        assert_eq!(w.survivor_counts(&ks), naive(w.numbers()));
    }

    #[test]
    fn chunked_numbers_match_the_decompositions() {
        use crate::peel::{tip_numbers_with_chunks, wing_numbers_with_chunks};
        use bfly_telemetry::NoopRecorder;
        let g = sample();
        for side in [Side::V1, Side::V2] {
            assert_eq!(
                tip_numbers_with_chunks(&g, side, 4, &mut NoopRecorder),
                TipDecomposition::compute(&g, side).numbers()
            );
        }
        assert_eq!(
            wing_numbers_with_chunks(&g, 4, &mut NoopRecorder),
            WingDecomposition::compute(&g).numbers()
        );
    }

    #[test]
    fn per_element_accessors() {
        let g = BipartiteGraph::complete(3, 3);
        let d = TipDecomposition::compute(&g, Side::V1);
        assert_eq!(d.tip_number(0), 6);
        assert_eq!(d.side(), Side::V1);
        assert_eq!(d.numbers(), &[6, 6, 6]);
        let w = WingDecomposition::compute(&g);
        assert_eq!(w.wing_number(0), 4);
        assert_eq!(w.max_level(), 4);
    }
}
