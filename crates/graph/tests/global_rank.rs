//! The global degree rank against a reference comparison sort: the
//! counting sort in `global_degree_ranks` must hand out exactly the ranks
//! of sorting every vertex by (degree descending, side, id).

use bfly_graph::generators::{chung_lu, uniform_exact};
use bfly_graph::ordering::global_degree_ranks;
use bfly_graph::BipartiteGraph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;

/// Ranks by comparison-sorting `(degree descending, side, id)`: the
/// order's definition, independent of the counting sort.
fn reference_ranks(g: &BipartiteGraph) -> (Vec<u32>, Vec<u32>) {
    let mut all: Vec<(Reverse<usize>, u8, usize)> = (0..g.nv1())
        .map(|u| (Reverse(g.deg_v1(u)), 0, u))
        .chain((0..g.nv2()).map(|v| (Reverse(g.deg_v2(v)), 1, v)))
        .collect();
    all.sort_unstable();
    let (mut rank_v1, mut rank_v2) = (vec![0u32; g.nv1()], vec![0u32; g.nv2()]);
    for (rank, (_, side, id)) in all.into_iter().enumerate() {
        let ranks = if side == 0 {
            &mut rank_v1
        } else {
            &mut rank_v2
        };
        ranks[id] = rank as u32;
    }
    (rank_v1, rank_v2)
}

/// Whether some V1 vertex and some V2 vertex share a degree.
fn has_cross_side_tie(g: &BipartiteGraph) -> bool {
    let v1: std::collections::HashSet<usize> = (0..g.nv1()).map(|u| g.deg_v1(u)).collect();
    (0..g.nv2()).any(|v| v1.contains(&g.deg_v2(v)))
}

/// Whether some vertex on either side has no edge.
fn has_isolated_vertex(g: &BipartiteGraph) -> bool {
    (0..g.nv1()).any(|u| g.deg_v1(u) == 0) || (0..g.nv2()).any(|v| g.deg_v2(v) == 0)
}

#[test]
fn counting_sort_ranks_equal_the_reference_sort() {
    let mut graphs = Vec::new();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(9100 + seed);
        let (m, n) = (20 + 7 * seed as usize, 15 + 5 * seed as usize);
        // Fewer edges than vertices: isolated vertices on both sides and
        // many small degrees shared across the sides.
        graphs.push(uniform_exact(m, n, (m + n) * 2 / 3, &mut rng));
        // Skewed: a few hubs over a long tail of degree-1 and degree-2 ties.
        graphs.push(chung_lu(m, n, 3 * (m + n), 0.9, 0.6, &mut rng));
    }
    let battery_ties = graphs
        .iter()
        .filter(|g| has_cross_side_tie(g) && has_isolated_vertex(g))
        .count();
    assert!(
        battery_ties >= graphs.len() / 2,
        "only {battery_ties} of {} graphs tie across sides and isolate a vertex",
        graphs.len()
    );
    graphs.push(BipartiteGraph::complete(6, 6));
    graphs.push(BipartiteGraph::empty(7, 0));
    graphs.push(BipartiteGraph::empty(0, 5));
    graphs.push(BipartiteGraph::empty(0, 0));
    for (i, g) in graphs.iter().enumerate() {
        assert_eq!(
            global_degree_ranks(g),
            reference_ranks(g),
            "graph {i}: {} x {}, {} edges",
            g.nv1(),
            g.nv2(),
            g.nedges()
        );
    }
}
