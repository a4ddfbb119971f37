//! Reference answers computed outside the code path under test.

use bfly_core::peel::wing_numbers_oracle;
use bfly_graph::BipartiteGraph;

/// Adjacency lists of one side, built by counting sort from an edge list.
struct Adjacency {
    ptr: Vec<usize>,
    idx: Vec<u32>,
}

impl Adjacency {
    /// Rows keyed by `key(edge)`, holding `val(edge)` in ascending order
    /// when the edges arrive sorted by `val` within each key.
    fn build(
        n: usize,
        edges: &[(u32, u32)],
        key: impl Fn(&(u32, u32)) -> u32,
        val: impl Fn(&(u32, u32)) -> u32,
    ) -> Self {
        let mut ptr = vec![0usize; n + 1];
        for e in edges {
            ptr[key(e) as usize + 1] += 1;
        }
        for i in 0..n {
            ptr[i + 1] += ptr[i];
        }
        let mut fill = ptr.clone();
        let mut idx = vec![0u32; edges.len()];
        for e in edges {
            let k = key(e) as usize;
            idx[fill[k]] = val(e);
            fill[k] += 1;
        }
        Adjacency { ptr, idx }
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.idx[self.ptr[i]..self.ptr[i + 1]]
    }

    fn wedges_through(&self) -> u128 {
        self.ptr
            .windows(2)
            .map(|w| {
                let d = (w[1] - w[0]) as u128;
                d * d.saturating_sub(1) / 2
            })
            .sum()
    }
}

/// `Σ_{i<j} C(B_ij, 2)` with `B` the common-neighbour counts of one side:
/// every butterfly is one pair of vertices sharing two neighbours. Pairs
/// are taken on the side whose wedges (through the other side) are fewer.
/// `edges` must be sorted by `(u, v)`, as [`crate::gen::chung_lu`] returns.
pub fn butterflies(nv1: usize, nv2: usize, edges: &[(u32, u32)]) -> u64 {
    let by_u = Adjacency::build(nv1, edges, |e| e.0, |e| e.1);
    let mut by_v_sorted: Vec<(u32, u32)> = edges.iter().map(|&(u, v)| (v, u)).collect();
    by_v_sorted.sort_unstable();
    let by_v = Adjacency::build(nv2, &by_v_sorted, |e| e.0, |e| e.1);
    // Pairs on V1 walk wedges centred on V2 vertices, and vice versa.
    let (pairs, centres, n) = if by_v.wedges_through() <= by_u.wedges_through() {
        (&by_u, &by_v, nv1)
    } else {
        (&by_v, &by_u, nv2)
    };
    let mut shared = vec![0u32; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut total: u128 = 0;
    for i in 0..n {
        for &c in pairs.row(i) {
            for &k in centres.row(c as usize) {
                if k as usize >= i {
                    break;
                }
                if shared[k as usize] == 0 {
                    touched.push(k);
                }
                shared[k as usize] += 1;
            }
        }
        for &k in &touched {
            let s = shared[k as usize] as u128;
            total += s * (s - 1) / 2;
            shared[k as usize] = 0;
        }
        touched.clear();
    }
    u64::try_from(total).expect("butterfly count fits u64")
}

/// The three numbers `bfly wing --decompose` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WingSummary {
    pub edges: u64,
    pub max_level: u64,
    pub distinct_levels: u64,
}

impl WingSummary {
    pub fn of(numbers: &[u64]) -> Self {
        let mut levels: Vec<u64> = numbers.iter().copied().filter(|&w| w > 0).collect();
        levels.sort_unstable();
        levels.dedup();
        WingSummary {
            edges: numbers.len() as u64,
            max_level: numbers.iter().copied().max().unwrap_or(0),
            distinct_levels: levels.len() as u64,
        }
    }
}

/// Wing numbers from the heap-based one-edge-at-a-time oracle, which
/// shares no code with the bucket peeling engine `bfly wing` runs.
pub fn wing_numbers(nv1: usize, nv2: usize, edges: &[(u32, u32)]) -> Vec<u64> {
    let g = BipartiteGraph::from_edges(nv1, nv2, edges).expect("generated edges are in range");
    wing_numbers_oracle(&g)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete(m: u32, n: u32) -> Vec<(u32, u32)> {
        (0..m).flat_map(|u| (0..n).map(move |v| (u, v))).collect()
    }

    #[test]
    fn complete_bipartite_counts() {
        // K_{m,n} has C(m,2)·C(n,2) butterflies, whichever side pairs.
        assert_eq!(butterflies(3, 4, &complete(3, 4)), 3 * 6);
        assert_eq!(butterflies(5, 2, &complete(5, 2)), 10);
        assert_eq!(butterflies(1, 9, &complete(1, 9)), 0);
    }

    #[test]
    fn matches_brute_force_on_a_generated_graph() {
        let shape = crate::gen::Shape {
            name: "test-ref",
            nv1: 30,
            nv2: 40,
            edges: 300,
            exponent: 0.7,
        };
        let edges = crate::gen::chung_lu(&shape, 11);
        let g = BipartiteGraph::from_edges(shape.nv1, shape.nv2, &edges).unwrap();
        assert_eq!(
            butterflies(shape.nv1, shape.nv2, &edges),
            bfly_core::count_brute_force(&g)
        );
    }

    #[test]
    fn wing_summary_of_k22_plus_pendant() {
        // K_{2,2} (wing 1 on each edge) plus a pendant edge (wing 0).
        let edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)];
        let numbers = wing_numbers(3, 2, &edges);
        assert_eq!(
            WingSummary::of(&numbers),
            WingSummary {
                edges: 5,
                max_level: 1,
                distinct_levels: 1
            }
        );
    }
}
